//! Minimal, dependency-free JSON reader and writer primitives for capture
//! files.
//!
//! The workspace is hermetic (no serde), so captures are written by
//! hand-rolled string building and read back by [`Reader`], a pull reader:
//! the caller asks for the value it expects next — an object, an array, an
//! integer, a string — and no document tree is built. It reads exactly what
//! the capture schema emits: objects, arrays, strings, integers, booleans
//! and null. All numbers in the schema are integers (64-bit quantities like
//! folds and nanosecond stamps are emitted in decimal; the one `f64` in the
//! model — a fault window's degradation multiplier — travels as its IEEE
//! bit pattern), read straight into `u64`/`i64` with checked arithmetic, so
//! nothing is rounded through a double. An integer must be in the form the
//! writer prints: no fraction or exponent, no leading zero, no `-0`.
//!
//! An object is read in the one order the writer puts its keys: the caller
//! opens it ([`Reader::object`]) and names each key it expects next
//! ([`Reader::field`]), which the reader compares byte for byte with the
//! input before reading the value. So a key out of order, twice, undefined,
//! ahead of the tag that governs it, or left out is one error: the key that
//! was expected, and where. Strings without an escape are slices of the
//! input.
//!
//! Everything returns `Result`: a malformed capture is a typed error,
//! never a panic (the replayer runs on the kernel path: `clippy::panic`
//! and its family are denied in `lib.rs`).

use std::borrow::Cow;
use std::sync::Arc;

use sleds_sim_core::index;

/// Escapes a string for embedding in a JSON string literal.
pub use sleds_fs::trace::json_escape as escape;

/// Appends `s`, escaped for a JSON string literal, to `out`. Paths and
/// names almost never need an escape, so that case is one `push_str`.
pub fn push_escaped(out: &mut String, s: &str) {
    if s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(&escape(s));
    } else {
        out.push_str(s);
    }
}

/// Appends `n` in decimal to `out`.
pub fn push_u64(out: &mut String, mut n: u64) {
    const DIGITS: &[u8; 10] = b"0123456789";
    // u64::MAX has twenty digits.
    let mut buf = [b'0'; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = DIGITS[(n % 10) as usize];
        n /= 10;
        if n == 0 {
            break;
        }
    }
    push_ascii(out, &buf[at..]);
}

/// Appends bytes the caller built from ASCII tables.
fn push_ascii(out: &mut String, ascii: &[u8]) {
    // Never the error arm: both callers fill `ascii` from digit tables.
    out.push_str(std::str::from_utf8(ascii).unwrap_or_default());
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// `HEX_VALUE[b]` is the value of hex digit `b`, or `NOT_HEX`: the digits
/// of a `\u` escape.
const HEX_VALUE: [u8; 256] = {
    let mut t = [NOT_HEX; 256];
    let mut d: u8 = 0;
    while d < 16 {
        let digit = HEX_DIGITS[d as usize];
        t[digit as usize] = d;
        t[digit.to_ascii_uppercase() as usize] = d;
        d += 1;
    }
    t
};
const NOT_HEX: u8 = 0xff;

/// The standard base64 alphabet (RFC 4648 §4).
const B64_DIGITS: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// `B64_PAIRS[v]` is the two digits of the 12-bit value `v`.
const B64_PAIRS: [[u8; 2]; 4096] = {
    let mut t = [[0u8; 2]; 4096];
    let mut v = 0;
    while v < 4096 {
        t[v] = [B64_DIGITS[v >> 6], B64_DIGITS[v & 63]];
        v += 1;
    }
    t
};

/// Appends the digits of whole six-byte steps: two three-byte groups as
/// one 48-bit word, four 12-bit digit pairs.
fn b64_sixes(out: &mut String, sixes: &[[u8; 6]]) {
    let mut buf = [[0u8; 8]; 32];
    for chunk in sixes.chunks(buf.len()) {
        for (digits, six) in buf.iter_mut().zip(chunk) {
            let v = u64::from_be_bytes([0, 0, six[0], six[1], six[2], six[3], six[4], six[5]]);
            let pair = |shift: u32| B64_PAIRS[index(v >> shift & 0xfff)];
            let ([a, b], [c, d], [e, f], [g, h]) = (pair(36), pair(24), pair(12), pair(0));
            *digits = [a, b, c, d, e, f, g, h];
        }
        push_ascii(out, &buf.as_flattened()[..chunk.len() * 8]);
    }
}

/// Appends `data` to `out` as padded standard base64.
pub fn b64_encode(out: &mut String, data: &[u8]) {
    out.reserve(data.len().div_ceil(3) * 4);
    let (sixes, rest) = data.as_chunks::<6>();
    b64_sixes(out, sixes);
    // Up to five bytes left: zero-filled to a step, whose digits that hold
    // their bits come out right; then `=` up to a whole quad.
    if !rest.is_empty() {
        let mut six = [0u8; 6];
        six[..rest.len()].copy_from_slice(rest);
        let start = out.len();
        b64_sixes(out, &[six]);
        out.truncate(start + (rest.len() * 8).div_ceil(6));
        let pad = start + rest.len().div_ceil(3) * 4 - out.len();
        out.extend(std::iter::repeat_n('=', pad));
    }
}

/// `B64_SHIFTED[i][b]` is the value of base64 digit `b` in the `i`-th six
/// bits of a 24-bit group, or `NOT_B64`, whose bits no group has.
const B64_SHIFTED: [[u32; 256]; 4] = {
    let mut t = [[NOT_B64; 256]; 4];
    let mut i = 0;
    while i < 4 {
        let mut d: u32 = 0;
        while d < 64 {
            t[i][B64_DIGITS[d as usize] as usize] = d << (18 - 6 * i);
            d += 1;
        }
        i += 1;
    }
    t
};
const NOT_B64: u32 = 0xff00_0000;

/// The 24-bit group up to four digits spell, zero-filled past the last.
fn b64_group(digits: &[u8]) -> u32 {
    digits
        .iter()
        .zip(&B64_SHIFTED)
        .fold(0, |v, (&d, values)| v | values[usize::from(d)])
}

/// The bytes padded standard base64 `s` spells, as [`b64_encode`] writes
/// them, in one shared buffer. Refuses a length that is not a multiple of
/// four, `=` anywhere but the last one or two places, pad bits that are
/// not zero (so a byte string has one spelling) and any byte outside the
/// standard alphabet, naming its offset in `s`.
pub fn b64_decode(s: &str) -> Result<Arc<[u8]>, String> {
    let bytes = s.as_bytes();
    let (quads, []) = bytes.as_chunks::<4>() else {
        return Err(format!(
            "base64 string has length {}, not a multiple of 4",
            bytes.len()
        ));
    };
    let pad = match quads.last() {
        Some([.., b'=', b'=']) => 2,
        Some([.., b'=']) => 1,
        _ => 0,
    };
    let digits = &bytes[..bytes.len() - pad];
    let mut data: Arc<[u8]> = std::iter::repeat_n(0, digits.len() * 3 / 4).collect();
    let Some(out) = Arc::get_mut(&mut data) else {
        return Err("base64: a fresh buffer is shared".to_string());
    };
    let (groups, tail) = out.as_chunks_mut::<3>();
    // Decode first, check after: `NOT_B64` has bits no digit's value has,
    // so one OR over the lot says whether any was bad.
    let mut seen = 0;
    for (group, quad) in groups.iter_mut().zip(quads) {
        let v = b64_group(quad);
        seen |= v;
        let [_, x, y, z] = v.to_be_bytes();
        *group = [x, y, z];
    }
    // A padded last quad: its two or three digits.
    let last = b64_group(&digits[groups.len() * 4..]);
    seen |= last;
    let [_, x, y, z] = last.to_be_bytes();
    tail.copy_from_slice(&[x, y, z][..tail.len()]);
    if seen & NOT_B64 != 0 {
        let (at, bad) = digits
            .iter()
            .copied()
            .enumerate()
            .find(|&(_, d)| B64_SHIFTED[0][usize::from(d)] == NOT_B64)
            .unwrap_or_default();
        return Err(match bad {
            b'=' => format!("base64 padding at offset {at} before the end"),
            bad => format!("bad base64 byte 0x{bad:02x} at offset {at}"),
        });
    }
    if last & ((1 << (8 * pad)) - 1) != 0 {
        return Err("base64 pad bits are not zero".to_string());
    }
    Ok(data)
}

/// Maximum nesting depth; capture documents nest 5 levels (each ring op
/// three more), this bounds adversarial input instead of recursing
/// without limit.
const MAX_DEPTH: usize = 32;

/// Offset of the first `"`, `\` or control byte in `hay`: where a string
/// ends, stops being a plain slice of the input, or is malformed (the
/// writer escapes every control byte, and a raw newline ends the line).
/// Eight bytes a step — write payloads are base64 strings of several KiB.
fn string_special(hay: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    // Each is exact in its lowest set bit, which is the only one read.
    let below = |w: u64, b: u8| w.wrapping_sub(LO * u64::from(b)) & !w & HI;
    let has = |w: u64, b: u8| below(w ^ (LO * u64::from(b)), 1);
    let special = |b: u8| b == b'"' || b == b'\\' || b < 0x20;
    let mut words = hay.chunks_exact(8);
    let mut at = 0;
    for w in words.by_ref() {
        let w = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        let hit = has(w, b'"') | has(w, b'\\') | below(w, 0x20);
        if hit != 0 {
            return Some(at + hit.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| special(b))
        .map(|i| at + i)
}

/// A pull reader over a text of JSON documents, one per line. Each method
/// reads the value the caller expects next, at the current position, and
/// fails if the input holds anything else there. Offsets in errors count
/// bytes from the start of the line.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Where the current line starts.
    line: usize,
    /// Objects and arrays open around the current position.
    depth: usize,
    /// Whether the innermost open object has had no field yet, so the
    /// next one takes no comma.
    first_field: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            line: 0,
            depth: 0,
            first_field: false,
        }
    }

    /// Whether every line has been read.
    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Reads the next line: `None` if it is blank, else the document on
    /// it, with `read`. Anything after the document on its line is an error.
    pub fn line<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.line = self.pos;
        self.skip_ws();
        if self.end_line() {
            return Ok(None);
        }
        let v = read(self)?;
        self.skip_ws();
        if !self.end_line() {
            return Err(format!("trailing bytes at offset {}", self.offset()));
        }
        Ok(Some(v))
    }

    /// Consumes the line's end if it is next; the text's end counts.
    fn end_line(&mut self) -> bool {
        match self.peek() {
            None => true,
            Some(b'\n') => {
                self.pos += 1;
                true
            }
            Some(_) => false,
        }
    }

    /// The current position, counted from the start of its line.
    fn offset(&self) -> usize {
        self.pos - self.line
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(b))
        }
    }

    #[cold]
    fn expected(&self, b: u8) -> String {
        match self.peek() {
            Some(got) => format!(
                "expected {:?} at offset {}, got {:?}",
                char::from(b),
                self.offset(),
                char::from(got)
            ),
            None => format!("expected {:?}, got end of input", char::from(b)),
        }
    }

    /// Consumes `word` if the input continues with it.
    fn literal(&mut self, word: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(word.as_bytes());
        if hit {
            self.pos += word.len();
        }
        hit
    }

    /// Opens an object or array: `open`, one level deeper.
    fn enter(&mut self, open: u8) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.eat(open)?;
        self.depth += 1;
        self.skip_ws();
        Ok(())
    }

    /// Reads an object whose fields `read` reads, each with
    /// [`Reader::field`], in the order the writer puts them; anything
    /// after the last is an error.
    pub fn object<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        self.enter(b'{')?;
        self.first_field = true;
        let v = read(self)?;
        self.skip_ws();
        self.eat(b'}')?;
        self.depth -= 1;
        // An enclosing object is past the field this was the value of.
        self.first_field = false;
        Ok(v)
    }

    /// Reads the object's next field, which must be `key`, with `read`
    /// at its value. The key is compared byte for byte, quotes included,
    /// so one spelled with an escape is not it.
    pub fn field<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        if !self.first_field {
            self.skip_ws();
            if self.peek() != Some(b',') {
                return Err(self.expected_key(key));
            }
            self.pos += 1;
            self.skip_ws();
        }
        let quoted = self.bytes[self.pos..]
            .strip_prefix(b"\"")
            .and_then(|rest| rest.strip_prefix(key.as_bytes()))
            .is_some_and(|rest| rest.first() == Some(&b'"'));
        if !quoted {
            return Err(self.expected_key(key));
        }
        self.pos += key.len() + 2;
        self.first_field = false;
        self.skip_ws();
        self.eat(b':')?;
        self.skip_ws();
        read(self)
    }

    #[cold]
    fn expected_key(&self, key: &str) -> String {
        format!("expected key {key:?} at offset {}", self.offset())
    }

    /// Reads an array: `each(reader)` once per item, with the reader at
    /// the item, which `each` must read.
    pub fn array(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.enter(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            each(self)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => self.skip_ws(),
                Some(b']') => {
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("bad array at offset {}", self.offset())),
            }
        }
    }

    /// `null`, or the value `read` reads.
    pub fn nullable<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        if self.literal("null") {
            Ok(None)
        } else {
            read(self).map(Some)
        }
    }

    /// `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, String> {
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(format!("expected a boolean at offset {}", self.offset()))
        }
    }

    /// A non-negative integer.
    pub fn u64(&mut self) -> Result<u64, String> {
        if self.peek() == Some(b'-') {
            return Err(format!(
                "negative integer at offset {} where an unsigned one belongs",
                self.offset()
            ));
        }
        self.digits()
    }

    /// An integer; `i64::MIN` is `-9223372036854775808`.
    pub fn i64(&mut self) -> Result<i64, String> {
        let at = self.offset();
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let magnitude = self.digits()?;
        let n = match (negative, magnitude) {
            (true, 0) => return Err(format!("-0 at offset {at}")),
            (true, m) => 0i64.checked_sub_unsigned(m),
            (false, m) => i64::try_from(m).ok(),
        };
        n.ok_or_else(|| format!("integer at offset {at} out of i64 range"))
    }

    /// An unsigned run of decimal digits, as the writer prints one.
    fn digits(&mut self) -> Result<u64, String> {
        let rest = &self.bytes[self.pos..];
        let (mut n, mut run) = (0u64, 0);
        for d in rest
            .iter()
            .map(|b| b.wrapping_sub(b'0'))
            .take_while(|&d| d < 10)
        {
            // Nineteen digits cannot overflow a u64; only the rest are checked.
            n = match run {
                ..19 => n * 10 + u64::from(d),
                _ => match n.checked_mul(10).and_then(|n| n.checked_add(u64::from(d))) {
                    Some(n) => n,
                    None => return Err(self.bad_integer("out of u64 range")),
                },
            };
            run += 1;
        }
        match (run, rest.first(), rest.get(run)) {
            (0, _, _) => Err(self.bad_integer("no digits")),
            (2.., Some(b'0'), _) => Err(self.bad_integer("leading zero")),
            (_, _, Some(b'.' | b'e' | b'E')) => {
                Err(self.bad_integer("not an integer (the capture schema emits integers only)"))
            }
            _ => {
                self.pos += run;
                Ok(n)
            }
        }
    }

    #[cold]
    fn bad_integer(&self, why: &str) -> String {
        format!("integer at offset {}: {why}", self.offset())
    }

    /// `text[from..to]`. Both ends sit next to an ASCII byte the scan
    /// stopped at, so they are character boundaries; a typed error, not
    /// a slicing panic, if that ever stops being so.
    fn slice(&self, from: usize, to: usize) -> Result<&'a str, String> {
        self.text.get(from..to).ok_or_else(|| {
            let at = from - self.line;
            format!("string at offset {at} splits a character")
        })
    }

    /// A string, unescaped; borrowed from the input when it had no escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let start = self.pos;
        match string_special(&self.bytes[start..]) {
            Some(len) if self.bytes[start + len] == b'"' => {
                self.pos = start + len + 1;
                self.slice(start, start + len).map(Cow::Borrowed)
            }
            _ => self.unescape().map(Cow::Owned),
        }
    }

    /// The rest of a string that holds an escape, unescaped.
    #[cold]
    fn unescape(&mut self) -> Result<String, String> {
        let mut out = String::new();
        loop {
            let run = self.pos;
            let Some(stop) = string_special(&self.bytes[run..]) else {
                return Err("unterminated string".to_string());
            };
            out.push_str(self.slice(run, run + stop)?);
            self.pos = run + stop + 1;
            let special = self.bytes[run + stop];
            if special < 0x20 {
                let at = run + stop - self.line;
                return Err(format!(
                    "control byte 0x{special:02x} in string at offset {at}"
                ));
            }
            if special == b'"' {
                return Ok(out);
            }
            match self.bump() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let mut code: u32 = 0;
                    for _ in 0..4 {
                        let d = self
                            .bump()
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        match HEX_VALUE[usize::from(d)] {
                            NOT_HEX => return Err("bad \\u escape".to_string()),
                            v => code = code * 16 + u32::from(v),
                        }
                    }
                    // The schema never emits surrogate pairs (all
                    // escapes are control bytes); reject rather than
                    // mis-decode one.
                    out.push(
                        char::from_u32(code).ok_or_else(|| format!("bad \\u{code:04x} escape"))?,
                    );
                }
                _ => return Err("bad escape".to_string()),
            }
        }
    }

    /// A padded base64 string, as the bytes it spells. A digit needs no
    /// escape, so the string ends at the next quote — found at `memchr`
    /// speed, which matters for a page of payload — and decoding refuses
    /// anything before it that is not a digit.
    pub fn base64(&mut self) -> Result<Arc<[u8]>, String> {
        let at = self.offset();
        self.eat(b'"')?;
        let rest = self.slice(self.pos, self.bytes.len())?;
        let (digits, _) = rest
            .split_once('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        let data = b64_decode(digits).map_err(|e| format!("base64 string at offset {at}: {e}"))?;
        self.pos += digits.len() + 1;
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `doc`, one line, with `read`.
    fn read<'a, T>(
        doc: &'a str,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut r = Reader::new(doc);
        let v = r.line(read)?.ok_or_else(|| "blank line".to_string())?;
        assert!(r.at_end(), "{doc:?} is one line");
        Ok(v)
    }

    #[test]
    fn a_text_is_read_line_by_line_with_offsets_from_each_line() {
        // `{"a":…,"b":…}`, in that order.
        let object = |r: &mut Reader| {
            r.object(|r| {
                let a = r.field("a", Reader::u64)?;
                r.field("b", Reader::u64)?;
                Ok(a)
            })
        };
        let text = "{\"a\":1,\"b\":0}\n  \r\n\t{\"a\":22, \"b\" :0} \r\n{\"a\":3,\"b\":0}";
        let mut r = Reader::new(text);
        let mut got = Vec::new();
        while !r.at_end() {
            got.push(r.line(object));
        }
        assert_eq!(got, [Ok(Some(1)), Ok(None), Ok(Some(22)), Ok(Some(3))]);
        // A line holds one document; a string never spans a line, and a
        // raw control byte is never in one.
        for (text, err) in [
            ("{\"a\":0,\"b\":0}\n{} {}", "trailing bytes at offset 3"),
            (
                "{\"a\":0,\"b\":0}\n\"a\nb\"",
                "control byte 0x0a in string at offset 2",
            ),
            (
                "{\"a\":0,\"b\":0}\n  \"a\tb\"",
                "control byte 0x09 in string at offset 4",
            ),
            (
                "{\"a\":0,\"b\":0}\n\n{\"a\":1,\"a\":2}",
                "expected key \"b\" at offset 7",
            ),
        ] {
            let mut r = Reader::new(text);
            assert_eq!(r.line(object), Ok(Some(0)));
            let got = loop {
                let line = if text.ends_with('"') {
                    r.line(|r| r.string().map(drop))
                } else if text.ends_with("{}") {
                    r.line(|r| r.object(|_| Ok(())))
                } else {
                    r.line(object).map(|a| a.map(drop))
                };
                if line != Ok(None) {
                    break line;
                }
            };
            assert_eq!(got, Err(err.to_string()), "{text:?}");
        }
    }

    #[test]
    fn roundtrips_nested_document() {
        let doc = r#"{"a": [1, -2, {"b": "x\ny", "c": true}], "d": null}"#;
        let (a, d) = read(doc, |r| {
            r.object(|r| {
                let a = r.field("a", |r| {
                    let mut items = Vec::new();
                    r.array(|r| {
                        items.push(match items.len() {
                            0 => r.u64()?.to_string(),
                            1 => r.i64()?.to_string(),
                            _ => r.object(|r| {
                                let b = r.field("b", Reader::string)?.into_owned();
                                assert!(r.field("c", Reader::bool)?);
                                Ok(b)
                            })?,
                        });
                        Ok(())
                    })?;
                    Ok(items)
                })?;
                Ok((a, r.field("d", |r| r.nullable(Reader::u64))?))
            })
        })
        .unwrap();
        assert_eq!(a, ["1", "-2", "x\ny"]);
        assert_eq!(d, None);
    }

    #[test]
    fn big_u64_survives_exactly() {
        let n = u64::MAX - 3;
        let doc = format!("{{\"fold\": {n}}}");
        let fold = read(&doc, |r| r.object(|r| r.field("fold", Reader::u64))).unwrap();
        assert_eq!(fold, n);
    }

    #[test]
    fn numbers_agree_with_i128_parsing_at_every_width() {
        // The writer's form: no leading zero, no `-0`.
        let canonical = |text: &str| {
            let digits = text.strip_prefix('-').unwrap_or(text);
            text != "-0" && (digits == "0" || !digits.starts_with('0'))
        };
        let all_nines = "9".repeat(45);
        let mut texts = vec![
            i64::MIN.to_string(),
            (i128::from(i64::MIN) - 1).to_string(),
            (u128::from(u64::MAX) + 1).to_string(),
            "0".to_string(),
            "-0".to_string(),
            "00".to_string(),
            "-".to_string(),
            String::new(),
        ];
        for width in 1..=all_nines.len() {
            texts.extend([
                all_nines[..width].to_string(),
                format!("-{}", &all_nines[..width]),
                format!("1{}", "0".repeat(width - 1)),
                format!("{:0>width$}", 7),
            ]);
        }
        for text in texts {
            let want = text.parse::<i128>().ok().filter(|_| canonical(&text));
            let as_u64 = want.and_then(|n| u64::try_from(n).ok());
            assert_eq!(read(&text, Reader::u64).ok(), as_u64, "{text}");
            let as_i64 = want.and_then(|n| i64::try_from(n).ok());
            assert_eq!(read(&text, Reader::i64).ok(), as_i64, "{text}");
        }
        let mut s = String::new();
        for n in [0, 9, 10, 12_345, u64::MAX / 10, u64::MAX - 1, u64::MAX] {
            s.clear();
            push_u64(&mut s, n);
            assert_eq!(s, n.to_string());
        }
    }

    #[test]
    fn floats_are_rejected() {
        assert!(read("1.5", Reader::u64).is_err());
        assert!(read("1e9", Reader::i64).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let empty = |r: &mut Reader| r.object(|_| Ok(()));
        assert!(read(" {} ", empty).is_ok());
        assert!(read("{} x", empty).is_err());
    }

    #[test]
    fn duplicate_keys_are_rejected_with_their_offset() {
        // `{"a":…,"A":…,"b":{"c":…}}`, in that order.
        let doc = |text| {
            read(text, |r| {
                r.object(|r| {
                    r.field("a", Reader::u64)?;
                    r.field("A", Reader::u64)?;
                    r.field("b", |r| r.object(|r| r.field("c", Reader::u64)))
                })
            })
        };
        assert_eq!(doc(r#"{"a":1,"A":2,"b":{"c":3}}"#), Ok(3));
        for (text, err) in [
            // Twice: where the next key belongs, or where the object ends.
            (
                r#"{"a":1,"a":2,"b":{"c":3}}"#,
                r#"expected key "A" at offset 7"#,
            ),
            (
                r#"{"a":1,"A":2,"b":{"c":3,"c":3}}"#,
                "expected '}' at offset 23, got ','",
            ),
            // An escape spells the key, but not in the writer's bytes.
            (
                r#"{"a":1,"\u0041":2,"b":{"c":3}}"#,
                r#"expected key "A" at offset 7"#,
            ),
            // Undefined, out of order, missing, or only a prefix of it.
            (
                r#"{"a":1,"z":2,"A":2,"b":{"c":3}}"#,
                r#"expected key "A" at offset 7"#,
            ),
            (
                r#"{"A":2,"a":1,"b":{"c":3}}"#,
                r#"expected key "a" at offset 1"#,
            ),
            (r#"{"a":1,"b":{"c":3}}"#, r#"expected key "A" at offset 7"#),
            (
                r#"{"a":1,"A":2,"b":{}}"#,
                r#"expected key "c" at offset 18"#,
            ),
            (r#"{"a":1,"A":2}"#, r#"expected key "b" at offset 12"#),
            (
                r#"{"ab":1,"A":2,"b":{"c":3}}"#,
                r#"expected key "a" at offset 1"#,
            ),
            (
                r#"{"a":1 "A":2,"b":{"c":3}}"#,
                r#"expected key "A" at offset 7"#,
            ),
        ] {
            assert_eq!(doc(text), Err(err.to_string()), "{text}");
        }
    }

    #[test]
    fn escape_roundtrips() {
        let s = "a\"b\\c\nd\te\u{1}f — π";
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(read(&doc, Reader::string).unwrap(), s);
        let mut pushed = String::new();
        push_escaped(&mut pushed, s);
        assert_eq!(pushed, escape(s));
    }

    #[test]
    fn strings_borrow_unless_escaped_at_every_alignment() {
        // The quote and the backslash land on every byte of a scan word.
        for pad in 0..20 {
            let body = "π".repeat(pad / 2) + &"x".repeat(pad % 2 + pad);
            let plain = format!("\"{body}\"");
            match read(&plain, Reader::string).unwrap() {
                Cow::Borrowed(s) => assert_eq!(s, body),
                other => panic!("{plain}: {other:?}"),
            }
            let escaped = format!("\"{body}\\n{body}\\u0041\"");
            match read(&escaped, Reader::string).unwrap() {
                Cow::Owned(s) => assert_eq!(s, format!("{body}\n{body}A")),
                other => panic!("{escaped}: {other:?}"),
            }
            let string = |text: String| read(&text, Reader::string).map(Cow::into_owned);
            assert!(string(format!("\"{body}")).is_err(), "unterminated");
            assert!(string(format!("\"{body}\\")).is_err(), "dangling escape");
            assert!(string(format!("\"{body}\\u00")).is_err(), "short \\u");
            assert!(string(format!("\"{body}\\ud800\"")).is_err(), "surrogate");
            assert!(string(format!("\"{body}\\π\"")).is_err(), "bad escape");
        }
    }

    #[test]
    fn base64_roundtrips_and_matches_the_rfc_vectors() {
        // RFC 4648 §10, then every byte value.
        for (plain, text) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            let mut out = String::new();
            b64_encode(&mut out, plain.as_bytes());
            assert_eq!(out, text);
            assert_eq!(&*b64_decode(text).unwrap(), plain.as_bytes());
        }
        let data: Vec<u8> = (0..=255).rev().chain(0..=255).collect();
        // Lengths around the encoder's six-byte steps and 32-step blocks.
        for len in (1..=7).chain([191, 192, 193, 194, data.len()]) {
            let mut text = String::from("x");
            b64_encode(&mut text, &data[..len]);
            assert_eq!(text.len() - 1, len.div_ceil(3) * 4);
            assert_eq!(*b64_decode(&text[1..]).unwrap(), data[..len]);
            let quoted = format!("\"{}\"", &text[1..]);
            assert_eq!(*read(&quoted, Reader::base64).unwrap(), data[..len]);
        }
        assert!(b64_decode("Zm9").is_err());
        assert!(b64_decode("Zm9-").unwrap_err().contains("0x2d at offset 3"));
    }
}
