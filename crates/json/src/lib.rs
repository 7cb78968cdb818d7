//! **dbt-json** — a minimal, dependency-free JSON reader (and the matching
//! string escaper) shared by the whole workspace.
//!
//! The emitting side of the repo (lab reports, daemon frames, program
//! images) hand-rolls its JSON for byte stability; this crate is the
//! *reading* side, needed wherever the system accepts JSON it did not
//! produce: the `dbt-serve` daemon parsing request frames, and the
//! `dbt-riscv` program-image codec parsing uploaded guest programs. It
//! parses the full JSON grammar — objects, arrays, strings with escapes
//! (including `\uXXXX` and surrogate pairs), numbers, booleans, `null` —
//! into a [`JsonValue`] tree. Object keys keep their textual order;
//! duplicate keys resolve to the first occurrence, which is enough for
//! the formats this repo speaks.
//!
//! [`escape`] is the workspace's one JSON string escaper: daemon frames,
//! lab reports, profile reports and the observability bodies (span trees,
//! event logs) all escape through it, so one set of rules covers every
//! byte-stable body.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string literal, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in textual key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with the byte offset of the first
    /// violation.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing characters at byte {}", parser.pos));
        }
        Ok(value)
    }

    /// Member lookup on an object (first occurrence wins).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The number as a `u64`, if this is a non-negative integral number
    /// exactly representable in the parser's `f64` carrier (below 2^53).
    /// Larger integers may already have been rounded during parsing, so
    /// they are rejected here rather than returned silently corrupted.
    pub fn as_u64(&self) -> Option<u64> {
        const F64_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < F64_EXACT => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
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
}

impl fmt::Display for JsonValue {
    /// Compact single-line re-serialisation (used in error messages and
    /// tests; the protocol frames are built by hand for byte stability).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            JsonValue::String(s) => write!(f, "\"{}\"", escape(s)),
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(members) => {
                write!(f, "{{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "\"{}\": {value}", escape(key))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Escapes `s` for use inside a JSON string literal (quotes, backslashes,
/// control characters; everything else passes through as UTF-8).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Parser<'t> {
    bytes: &'t [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(format!("unexpected `{}` at byte {}", other as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_keyword(&mut self, keyword: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.parse_hex4()?;
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: a `\uXXXX` low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 1;
                                let low = self.parse_hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let scalar = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(scalar).ok_or("invalid surrogate pair")?
                            } else if (0xdc00..0xe000).contains(&unit) {
                                return Err("lone low surrogate".to_string());
                            } else {
                                char::from_u32(unit).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue; // parse_hex4 already advanced
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = text.chars().next().expect("peeked non-empty");
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control character at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex =
            std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).map_err(|e| e.to_string())?;
        let unit =
            u32::from_str_radix(hex, 16).map_err(|_| format!("invalid \\u escape `{hex}`"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let value = JsonValue::parse(
            r#"{"op": "sweep", "threads": 4, "flags": [true, false, null], "pi": 3.5}"#,
        )
        .unwrap();
        assert_eq!(value.get("op").and_then(JsonValue::as_str), Some("sweep"));
        assert_eq!(value.get("threads").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(value.get("pi").and_then(JsonValue::as_f64), Some(3.5));
        let JsonValue::Array(flags) = value.get("flags").unwrap() else {
            panic!("flags must be an array");
        };
        assert_eq!(flags.len(), 3);
        assert_eq!(flags[0].as_bool(), Some(true));
        assert_eq!(flags[2], JsonValue::Null);
        let items = value.get("flags").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items.len(), 3, "as_array sees the same elements");
        assert_eq!(value.get("op").and_then(JsonValue::as_array), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        for original in ["plain", "a\"b\\c", "line\nbreak\ttab", "\u{1}\u{7f}", "smörgås 😀"] {
            let doc = format!("\"{}\"", escape(original));
            let parsed = JsonValue::parse(&doc).unwrap();
            assert_eq!(parsed.as_str(), Some(original), "round-trip of {original:?}");
        }
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs_decode() {
        assert_eq!(JsonValue::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        assert_eq!(JsonValue::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert!(JsonValue::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(JsonValue::parse(r#""\ude00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\" 1}", "[1, ]x", "nul", "\"unterminated", "{\"a\": 1} trailing"]
        {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn numbers_convert_conservatively() {
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(JsonValue::parse("-1").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("1e3").unwrap().as_u64(), Some(1000));
        // 2^53 - 1 is the last exactly-representable integer; 2^53 + 1
        // rounds to 2^53 at parse time, so anything at or past 2^53 is
        // rejected instead of returned corrupted.
        assert_eq!(JsonValue::parse("9007199254740991").unwrap().as_u64(), Some(9007199254740991));
        assert_eq!(JsonValue::parse("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("9007199254740993").unwrap().as_u64(), None);
    }

    #[test]
    fn display_reserialises_compactly() {
        let value = JsonValue::parse(r#"{ "a" : [ 1 , "x" ] , "b" : true }"#).unwrap();
        assert_eq!(value.to_string(), r#"{"a": [1, "x"], "b": true}"#);
    }
}
