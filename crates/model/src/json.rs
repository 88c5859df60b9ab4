//! A small, dependency-free JSON parser and writer.
//!
//! This is the substrate for [`onnx`](crate::onnx) model ingestion (the
//! paper's ONNX input path; see `docs/ARCHITECTURE.md` §5). It supports
//! the full JSON grammar: objects, arrays, strings with escapes (including
//! `\uXXXX` and surrogate pairs), numbers, booleans and `null`.
//!
//! # Example
//!
//! ```
//! use pimsyn_model::json::JsonValue;
//!
//! # fn main() -> Result<(), pimsyn_model::ModelError> {
//! let v = JsonValue::parse(r#"{"kernel": 3, "pads": [1, 1]}"#)?;
//! assert_eq!(v.get("kernel").and_then(JsonValue::as_usize), Some(3));
//! # Ok(())
//! # }
//! ```

use std::fmt;

use crate::ModelError;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. Every document
/// the workspace reads nests a handful of levels; the bound keeps a body of
/// `[[[[…` from exhausting the stack of the recursive-descent parser.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON document node.
///
/// Objects preserve key order (stored as a vector of pairs), which keeps
/// ingestion error messages deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64` (integers up to 2^53 are exact).
    Number(f64),
    /// A string with all escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Parse`] with a byte offset on any syntax error,
    /// including trailing garbage after the top-level value, and
    /// [`ModelError::NestingTooDeep`] when arrays and objects nest deeper
    /// than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Self, ModelError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if exactly integral.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64 {
            Some(n as usize)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl fmt::Display for JsonValue {
    /// Serializes back to compact JSON. Every value [`parse`] produces
    /// round-trips: an infinity, which `parse` reads from a literal too
    /// large for `f64` (`1e400`), is written `1e999` or `-1e999`. NaN,
    /// which JSON cannot spell and `parse` never produces, is written
    /// `null`.
    ///
    /// [`parse`]: JsonValue::parse
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(n) => {
                if n.is_nan() {
                    write!(f, "null")
                } else if n.is_infinite() {
                    write!(f, "{}1e999", if *n < 0.0 { "-" } else { "" })
                } else if n.fract() == 0.0 && n.abs() < (1u64 << 53) as f64 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            JsonValue::String(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, detail: impl Into<String>) -> ModelError {
        ModelError::Parse {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ModelError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ModelError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    /// Parses one value inside `depth` enclosing arrays/objects.
    fn value(&mut self, depth: usize) -> Result<JsonValue, ModelError> {
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(ModelError::NestingTooDeep {
                offset: self.pos,
                limit: MAX_DEPTH,
            }),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, ModelError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(pairs)),
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, ModelError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ModelError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low surrogate.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.error("expected low surrogate escape"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return Err(self.error("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.error("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-by-byte.
                    let len = utf8_len(b);
                    if len == 1 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        for _ in 1..len {
                            self.bump().ok_or_else(|| self.error("truncated UTF-8"))?;
                        }
                        let slice = &self.bytes[start..self.pos];
                        let s = std::str::from_utf8(slice)
                            .map_err(|_| self.error("invalid UTF-8 in string"))?;
                        out.push_str(s);
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ModelError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.error("truncated unicode escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, ModelError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or non-zero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|e| self.error(format!("unparseable number: {e}")))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::Number(42.0));
        assert_eq!(
            JsonValue::parse("-3.5e2").unwrap(),
            JsonValue::Number(-350.0)
        );
        assert_eq!(
            JsonValue::parse("\"hi\"").unwrap(),
            JsonValue::String("hi".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_usize(), Some(1));
        assert_eq!(a[1].get("b"), Some(&JsonValue::Null));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn string_escapes() {
        let v = JsonValue::parse(r#""a\n\t\"\\Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\Aé"));
    }

    #[test]
    fn surrogate_pair() {
        let v = JsonValue::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn utf8_passthrough() {
        let v = JsonValue::parse("\"héllo 世界\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo 世界"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(JsonValue::parse("1 2").is_err());
        assert!(JsonValue::parse("{} x").is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "{",
            "[1,",
            "\"abc",
            "01",
            "1.",
            "1e",
            "tru",
            "{\"a\" 1}",
            "",
            "+1",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn error_carries_offset() {
        match JsonValue::parse("[1, x]") {
            Err(ModelError::Parse { offset, .. }) => assert_eq!(offset, 4),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"a\":".repeat(n) + "0" + &"}".repeat(n);
        assert!(JsonValue::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(JsonValue::parse(&objects(MAX_DEPTH)).is_ok());
        for text in [
            arrays(MAX_DEPTH + 1),
            objects(MAX_DEPTH + 1),
            "[".repeat(300_000),
        ] {
            match JsonValue::parse(&text) {
                Err(ModelError::NestingTooDeep { limit, .. }) => assert_eq!(limit, MAX_DEPTH),
                other => panic!("expected a nesting error, got {other:?}"),
            }
        }
        // The offset names the first container past the limit.
        match JsonValue::parse(&format!("{{\"k\": {}", "[".repeat(MAX_DEPTH))) {
            Err(ModelError::NestingTooDeep { offset, .. }) => {
                assert_eq!(offset, 6 + MAX_DEPTH - 1);
            }
            other => panic!("expected a nesting error, got {other:?}"),
        }
    }

    #[test]
    fn display_round_trips() {
        let src = r#"{"name":"net","vals":[1,2.5,null,true],"nested":{"s":"a\"b"}}"#;
        let v = JsonValue::parse(src).unwrap();
        let reparsed = JsonValue::parse(&v.to_string()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn non_finite_numbers_display_as_json() {
        // Overflowing literals parse to infinities, which must read back.
        let v = JsonValue::parse("[1e400,-1e400,-0.5]").unwrap();
        assert_eq!(v.to_string(), "[1e999,-1e999,-0.5]");
        assert_eq!(JsonValue::parse(&v.to_string()).unwrap(), v);
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonValue::parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(JsonValue::parse("{}").unwrap(), JsonValue::Object(vec![]));
        assert_eq!(JsonValue::parse(" [ ] ").unwrap(), JsonValue::Array(vec![]));
    }

    #[test]
    fn accessors_reject_wrong_types() {
        let v = JsonValue::parse("3.5").unwrap();
        assert_eq!(v.as_usize(), None); // not integral
        assert_eq!(v.as_str(), None);
        assert_eq!(JsonValue::Null.as_f64(), None);
        assert_eq!(JsonValue::parse("-1").unwrap().as_usize(), None); // negative
    }
}
