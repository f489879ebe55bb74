//! Minimal, dependency-free JSON reader and writer primitives for capture
//! files.
//!
//! The workspace is hermetic (no serde), so captures are written by
//! hand-rolled string building and read back by this parser. It supports
//! exactly what the capture schema emits: objects, arrays, strings,
//! integer numbers, booleans and null. All numbers in the schema are
//! integers (64-bit quantities like folds and nanosecond stamps are
//! emitted in decimal; the one `f64` in the model — a fault window's
//! degradation multiplier — travels as its IEEE bit pattern), parsed
//! into `i128` so nothing is rounded through a double.
//!
//! A parsed document borrows from its input: keys and strings without an
//! escape are slices of the line they came from, and an object is the
//! list of its fields in file order (the schema's objects have at most a
//! dozen, so a scan beats a map). A key that appears twice is an error,
//! not a silent last-one-wins.
//!
//! Everything returns `Result`: a malformed capture is a typed error,
//! never a panic (the replayer runs on the kernel path: `clippy::panic`
//! and its family are denied in `lib.rs`).

use std::borrow::Cow;

/// A parsed JSON value. Numbers are integers only — see module docs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Integer number (the schema emits nothing else).
    Int(i128),
    /// String, unescaped; borrowed from the input when it had no escape.
    Str(Cow<'a, str>),
    /// Array.
    Arr(Vec<Json<'a>>),
    /// Object: its fields in input order, keys distinct.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// The object's fields, or an error naming `what`.
    pub fn as_obj(&self, what: &str) -> Result<&[(Cow<'a, str>, Json<'a>)], String> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    /// The array items, or an error naming `what`.
    pub fn as_arr(&self, what: &str) -> Result<&[Json<'a>], String> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    /// The string value, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }

    /// The boolean value, or an error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected bool, got {other:?}")),
        }
    }

    /// The integer as `u64`, or an error naming `what`.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Int(n) => u64::try_from(*n).map_err(|_| format!("{what}: {n} out of u64 range")),
            other => Err(format!("{what}: expected integer, got {other:?}")),
        }
    }

    /// The integer as `i64`, or an error naming `what`.
    pub fn as_i64(&self, what: &str) -> Result<i64, String> {
        match self {
            Json::Int(n) => i64::try_from(*n).map_err(|_| format!("{what}: {n} out of i64 range")),
            other => Err(format!("{what}: expected integer, got {other:?}")),
        }
    }

    /// The integer as `usize`, or an error naming `what`.
    pub fn as_usize(&self, what: &str) -> Result<usize, String> {
        match self {
            Json::Int(n) => {
                usize::try_from(*n).map_err(|_| format!("{what}: {n} out of usize range"))
            }
            other => Err(format!("{what}: expected integer, got {other:?}")),
        }
    }

    /// Field `key` of an object, or an error naming `what`.
    pub fn field(&self, key: &str, what: &str) -> Result<&Json<'a>, String> {
        self.as_obj(what)?
            .iter()
            .find(|(k, _)| &**k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("{what}: missing field {key:?}"))
    }

    /// Field `key` if present and non-null.
    pub fn opt_field(&self, key: &str, what: &str) -> Result<Option<&Json<'a>>, String> {
        Ok(self
            .as_obj(what)?
            .iter()
            .find(|(k, _)| &**k == key)
            .map(|(_, v)| v)
            .filter(|v| !matches!(v, Json::Null)))
    }
}

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

/// `HEX_VALUE[b]` is the value of hex digit `b`, or `NOT_HEX`.
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

/// `HEX_PAIRS[b]` is the two lowercase digits of byte `b`.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut t = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = [HEX_DIGITS[b >> 4], HEX_DIGITS[b & 0xf]];
        b += 1;
    }
    t
};

/// Appends `data` to `out` as lowercase hex.
pub fn hex_encode(out: &mut String, data: &[u8]) {
    out.reserve(data.len() * 2);
    let mut buf = [[0u8; 2]; 128];
    for chunk in data.chunks(buf.len()) {
        for (pair, &b) in buf.iter_mut().zip(chunk) {
            *pair = HEX_PAIRS[usize::from(b)];
        }
        push_ascii(out, &buf.as_flattened()[..chunk.len() * 2]);
    }
}

/// Appends the bytes lowercase/uppercase hex `s` spells to `out`; leaves
/// `out` as it was on error.
pub fn hex_decode(s: &str, out: &mut Vec<u8>) -> Result<(), String> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(format!("hex string has odd length {}", bytes.len()));
    }
    // Decode first, check after: every digit value is below 16 and
    // `NOT_HEX` is not, so one OR over the lot says whether any was bad.
    let start = out.len();
    let mut seen = 0u8;
    out.extend(bytes.chunks_exact(2).map(|pair| {
        let (hi, lo) = (
            HEX_VALUE[usize::from(pair[0])],
            HEX_VALUE[usize::from(pair[1])],
        );
        seen |= hi | lo;
        hi << 4 | lo
    }));
    if seen >= 16 {
        out.truncate(start);
        let bad = bytes
            .iter()
            .find(|&&b| HEX_VALUE[usize::from(b)] == NOT_HEX)
            .copied()
            .unwrap_or_default();
        return Err(format!("bad hex byte 0x{bad:02x}"));
    }
    Ok(())
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json<'_>, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Maximum nesting depth; capture documents nest 5 levels, this bounds
/// adversarial input instead of recursing without limit.
const MAX_DEPTH: usize = 32;

/// Offset of the first `"` or `\` in `hay`: where a string ends or stops
/// being a plain slice of the input. Eight bytes a step — write payloads
/// are hex strings of several KiB.
fn string_special(hay: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    // Exact in its lowest set bit, which is the only one read.
    let has = |w: u64, b: u8| {
        let x = w ^ (LO * u64::from(b));
        x.wrapping_sub(LO) & !x & HI
    };
    let mut words = hay.chunks_exact(8);
    let mut at = 0;
    for w in words.by_ref() {
        let w = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        let hit = has(w, b'"') | has(w, b'\\');
        if hit != 0 {
            return Some(at + hit.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| b == b'"' || b == b'\\')
        .map(|i| at + i)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(format!(
                "expected {:?} at offset {}, got {:?}",
                char::from(b),
                self.pos - 1,
                char::from(got)
            )),
            None => Err(format!("expected {:?}, got end of input", char::from(b))),
        }
    }

    fn literal(&mut self, word: &str, v: Json<'a>) -> Result<Json<'a>, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json<'a>, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte 0x{other:02x} at offset {}",
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        // An outcome, the widest object of an op line, has twelve fields.
        let mut fields: Vec<(Cow<'a, str>, Json<'a>)> = Vec::with_capacity(12);
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?} at offset {key_at}"));
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => return Err(format!("bad object at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(format!("bad array at offset {}", self.pos)),
            }
        }
    }

    /// `text[from..to]`. Both ends sit next to an ASCII byte the scan
    /// stopped at, so they are character boundaries; a typed error, not
    /// a slicing panic, if that ever stops being so.
    fn slice(&self, from: usize, to: usize) -> Result<&'a str, String> {
        self.text
            .get(from..to)
            .ok_or_else(|| format!("string at offset {from} splits a character"))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            let Some(stop) = string_special(&self.bytes[run..]) else {
                return Err("unterminated string".to_string());
            };
            self.pos = run + stop + 1;
            if self.bytes[run + stop] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(self.slice(start, run + stop)?),
                    Some(mut out) => {
                        out.push_str(self.slice(run, run + stop)?);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(self.slice(run, run + stop)?);
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

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut small: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            // Exact while the run is short enough to fit (see below).
            small = small.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "non-integer number at offset {start} (the capture schema emits integers only)"
            ));
        }
        // Up to 19 digits cannot overflow a u64; nearly every number in a
        // capture is one, and `i128::from_str` is the slow way to read it.
        if digits == start && (1..=19).contains(&(self.pos - digits)) {
            return Ok(Json::Int(i128::from(small)));
        }
        let text = self.slice(start, self.pos)?;
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let doc = r#"{"a": [1, -2, {"b": "x\ny", "c": true}], "d": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.field("d", "doc").unwrap(), &Json::Null);
        let arr = v.field("a", "doc").unwrap().as_arr("a").unwrap();
        assert_eq!(arr[0].as_u64("n").unwrap(), 1);
        assert_eq!(arr[1].as_i64("n").unwrap(), -2);
        assert_eq!(arr[2].field("b", "o").unwrap().as_str("b").unwrap(), "x\ny");
    }

    #[test]
    fn big_u64_survives_exactly() {
        let n = u64::MAX - 3;
        let doc = format!("{{\"fold\": {n}}}");
        let v = parse(&doc).unwrap();
        assert_eq!(v.field("fold", "doc").unwrap().as_u64("fold").unwrap(), n);
    }

    #[test]
    fn numbers_agree_with_i128_parsing_at_every_width() {
        let all_nines = "9".repeat(45);
        for width in 1..=all_nines.len() {
            for text in [
                all_nines[..width].to_string(),
                format!("-{}", &all_nines[..width]),
                format!("1{}", "0".repeat(width - 1)),
                format!("{:0>width$}", 7),
            ] {
                let want = text.parse::<i128>().ok().map(Json::Int);
                assert_eq!(parse(&text).ok(), want, "{text}");
            }
        }
        assert!(parse("-").is_err());
        let mut s = String::new();
        for n in [0, 9, 10, 12_345, u64::MAX / 10, u64::MAX - 1, u64::MAX] {
            s.clear();
            push_u64(&mut s, n);
            assert_eq!(s, n.to_string());
        }
    }

    #[test]
    fn floats_are_rejected() {
        assert!(parse("1.5").is_err());
        assert!(parse("1e9").is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse("{} x").is_err());
    }

    #[test]
    fn duplicate_keys_are_rejected_with_their_offset() {
        let err = parse(r#"{"a":1,"b":{"c":2,"c":3}}"#).unwrap_err();
        assert!(err.contains("duplicate key \"c\" at offset 18"), "{err}");
        // An escape spells the same key.
        assert!(parse(r#"{"a":1,"\u0061":2}"#).is_err());
        assert!(parse(r#"{"a":1,"A":2}"#).is_ok());
    }

    #[test]
    fn escape_roundtrips() {
        let s = "a\"b\\c\nd\te\u{1}f — π";
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(parse(&doc).unwrap(), Json::Str(s.into()));
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
            match parse(&plain).unwrap() {
                Json::Str(Cow::Borrowed(s)) => assert_eq!(s, body),
                other => panic!("{plain}: {other:?}"),
            }
            let escaped = format!("\"{body}\\n{body}\\u0041\"");
            match parse(&escaped).unwrap() {
                Json::Str(Cow::Owned(s)) => assert_eq!(s, format!("{body}\n{body}A")),
                other => panic!("{escaped}: {other:?}"),
            }
            assert!(parse(&format!("\"{body}")).is_err(), "unterminated");
            assert!(parse(&format!("\"{body}\\")).is_err(), "dangling escape");
            assert!(parse(&format!("\"{body}\\u00")).is_err(), "short \\u");
            assert!(parse(&format!("\"{body}\\ud800\"")).is_err(), "surrogate");
            assert!(parse(&format!("\"{body}\\π\"")).is_err(), "bad escape");
        }
    }

    #[test]
    fn hex_roundtrips() {
        let data: Vec<u8> = (0..=255).chain([0, 1, 0xab, 0xff, 42]).collect();
        for len in [0, 1, 5, 127, 128, 129, data.len()] {
            let mut hex = String::from("x");
            hex_encode(&mut hex, &data[..len]);
            let want: String = data[..len].iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(&hex[1..], want);
            for text in [want.to_uppercase(), want] {
                let mut back = vec![9];
                hex_decode(&text, &mut back).unwrap();
                assert_eq!(back[1..], data[..len]);
            }
        }
        assert!(hex_decode("abc", &mut Vec::new()).is_err());
        assert!(hex_decode("zz", &mut Vec::new()).is_err());
        assert!(hex_decode("0g", &mut Vec::new())
            .unwrap_err()
            .contains("0x67"));
    }
}
