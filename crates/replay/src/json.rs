//! Minimal, dependency-free JSON reader for capture files.
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
//! Everything returns `Result`: a malformed capture is a typed error,
//! never a panic (the replayer runs on the kernel path, D005).

use std::collections::BTreeMap;

/// A parsed JSON value. Numbers are integers only — see module docs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Integer number (the schema emits nothing else).
    Int(i128),
    /// String, unescaped.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; BTreeMap for deterministic iteration (D006).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The object map, or an error naming `what`.
    pub fn as_obj(&self, what: &str) -> Result<&BTreeMap<String, Json>, String> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    /// The array items, or an error naming `what`.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], String> {
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
    pub fn field<'a>(&'a self, key: &str, what: &str) -> Result<&'a Json, String> {
        self.as_obj(what)?
            .get(key)
            .ok_or_else(|| format!("{what}: missing field {key:?}"))
    }

    /// Field `key` if present and non-null.
    pub fn opt_field<'a>(&'a self, key: &str, what: &str) -> Result<Option<&'a Json>, String> {
        Ok(self
            .as_obj(what)?
            .get(key)
            .filter(|v| !matches!(v, Json::Null)))
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub use sleds_fs::trace::json_escape as escape;

/// Encodes bytes as lowercase hex.
pub fn hex_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len() * 2);
    for b in data {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes lowercase/uppercase hex back to bytes.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(format!("hex string has odd length {}", bytes.len()));
    }
    fn nibble(b: u8) -> Result<u8, String> {
        match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            b'A'..=b'F' => Ok(b - b'A' + 10),
            other => Err(format!("bad hex byte 0x{other:02x}")),
        }
    }
    let mut out = Vec::with_capacity(bytes.len() / 2);
    let mut i = 0;
    while i + 1 < bytes.len() {
        out.push(nibble(bytes[i])? * 16 + nibble(bytes[i + 1])?);
        i += 2;
    }
    Ok(out)
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
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

struct Parser<'a> {
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

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
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

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(map)),
                _ => return Err(format!("bad object at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
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

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
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
                            let v = match d {
                                b'0'..=b'9' => u32::from(d - b'0'),
                                b'a'..=b'f' => u32::from(d - b'a' + 10),
                                b'A'..=b'F' => u32::from(d - b'A' + 10),
                                _ => return Err("bad \\u escape".to_string()),
                            };
                            code = code * 16 + v;
                        }
                        // The schema never emits surrogate pairs (all
                        // escapes are control bytes); reject rather than
                        // mis-decode one.
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u{code:04x} escape"))?,
                        );
                    }
                    _ => return Err("bad escape".to_string()),
                },
                Some(b) if b < 0x80 => out.push(char::from(b)),
                Some(b) => {
                    // Multi-byte UTF-8: find the full sequence in the
                    // original input and copy it verbatim.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(format!("bad UTF-8 lead byte 0x{b:02x}")),
                    };
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| "truncated UTF-8 sequence".to_string())?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "non-integer number at offset {start} (the capture schema emits integers only)"
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
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
        let v = parse(&format!("{{\"fold\": {n}}}")).unwrap();
        assert_eq!(v.field("fold", "doc").unwrap().as_u64("fold").unwrap(), n);
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
    fn escape_roundtrips() {
        let s = "a\"b\\c\nd\te\u{1}f — π";
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(parse(&doc).unwrap(), Json::Str(s.to_string()));
    }

    #[test]
    fn hex_roundtrips() {
        let data = [0u8, 1, 0xab, 0xff, 42];
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }
}
