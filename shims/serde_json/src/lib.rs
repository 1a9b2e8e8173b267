//! Offline shim for `serde_json`: a JSON printer/parser over the value
//! model defined in the `serde` shim. Floats are printed with Rust's
//! shortest-roundtrip formatting, so a print → parse cycle preserves
//! every `f64` bit-for-bit (the behavior MPROS's protocol tests rely
//! on, equivalent to real serde_json's `float_roundtrip` feature).
#![forbid(unsafe_code)]

pub use serde::{Map, Number, Value};

use serde::{DeError, Deserialize, Serialize};
use std::fmt::{self, Write as _};

/// Error from serializing or parsing JSON.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e)
    }
}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

/// Serialize `value` to a compact JSON string.
pub fn to_string<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize `value` to a pretty-printed JSON string (2-space indent).
pub fn to_string_pretty<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some("  "), 0);
    Ok(out)
}

/// Serialize `value` to compact JSON bytes.
pub fn to_vec<T: ?Sized + Serialize>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: ?Sized + Serialize>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Rebuild a `T` from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    T::from_value(&value).map_err(Error::from)
}

fn write_value(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => {
            // Formats in place; writing into a `String` cannot fail.
            let _ = write!(out, "{n}");
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}

/// Write `s` as a JSON string literal. Runs of bytes that need no
/// escape are copied wholesale; every byte that does is ASCII, so each
/// run ends on a char boundary.
fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xF)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Parse a `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse_document(s)?;
    T::from_value(&value).map_err(Error::from)
}

/// Parse a `T` from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

const MAX_DEPTH: usize = 128;

fn parse_document(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(Error::new("recursion limit exceeded"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error::new(format!(
                "unexpected character `{}` at offset {}",
                c as char, self.pos
            ))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(Error::new(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy unescaped UTF-8 runs wholesale.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let run = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::new(format!("invalid UTF-8 in string: {e}")))?;
                out.push_str(run);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let cp = self.parse_hex4()?;
                            // Surrogate pair handling.
                            if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::new("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(
                                    char::from_u32(combined)
                                        .ok_or_else(|| Error::new("invalid surrogate pair"))?,
                                );
                            } else {
                                out.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| Error::new("invalid \\u escape"))?,
                                );
                            }
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(Error::new("unescaped control character in string"))
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::new("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from_u64(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::from_i64(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::from_f64(f)))
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for doc in ["null", "true", "false", "0", "-7", "123456789", "1.5"] {
            let v: Value = from_str(doc).unwrap();
            assert_eq!(to_string(&v).unwrap(), doc);
        }
    }

    #[test]
    fn floats_roundtrip_bit_for_bit() {
        for &f in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -2.2250738585072014e-308,
            12345.678901234567,
        ] {
            let json = to_string(&f).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(f.to_bits(), back.to_bits(), "{json}");
        }
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        let back: f64 = from_str("2.0").unwrap();
        assert_eq!(back, 2.0);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nbreak \"quoted\" back\\slash tab\t λ 中";
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unicode_escapes_parse() {
        let v: String = from_str("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, "é😀");
    }

    #[test]
    fn object_order_is_preserved() {
        let v: Value = from_str(r#"{"b": 1, "a": 2}"#).unwrap();
        assert_eq!(to_string(&v).unwrap(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn pretty_printing_indents() {
        let v: Value = from_str(r#"{"a":[1,2]}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"a\": [\n    1"), "{pretty}");
    }

    #[test]
    fn malformed_documents_error() {
        for doc in ["{", "[1,", "\"abc", "{\"a\" 1}", "tru", "1 2", ""] {
            assert!(from_str::<Value>(doc).is_err(), "{doc:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_crashed() {
        let doc = "[".repeat(100_000);
        assert!(from_str::<Value>(&doc).is_err());
    }

    /// The char-at-a-time tree writer the in-place writer replaced,
    /// kept as the oracle it must match byte for byte.
    mod oracle {
        use super::super::{Map, Value};

        pub fn write_value(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
            match v {
                Value::Null => out.push_str("null"),
                Value::Bool(true) => out.push_str("true"),
                Value::Bool(false) => out.push_str("false"),
                Value::Number(n) => out.push_str(&number(n)),
                Value::String(s) => write_string(out, s),
                Value::Array(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline_indent(out, indent, depth + 1);
                        write_value(out, item, indent, depth + 1);
                    }
                    newline_indent(out, indent, depth);
                    out.push(']');
                }
                Value::Object(map) => write_object(out, map, indent, depth),
            }
        }

        fn write_object(out: &mut String, map: &Map, indent: Option<&str>, depth: usize) {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }

        /// The old `Number` rendering: integers in decimal, non-finite
        /// floats as `null`, and `.0` appended to a float's shortest
        /// round-trip text when it holds no `.`, `e`, `E`, `n` or `i`.
        fn number(n: &serde::Number) -> String {
            if !n.is_f64() {
                return match n.as_u64() {
                    Some(u) => u.to_string(),
                    None => n.as_i64().expect("integer").to_string(),
                };
            }
            let x = n.as_f64().expect("float");
            if !x.is_finite() {
                return "null".to_string();
            }
            let s = format!("{x}");
            if s.contains(['.', 'e', 'E', 'n', 'i']) {
                s
            } else {
                format!("{s}.0")
            }
        }

        fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
            if let Some(pad) = indent {
                out.push('\n');
                for _ in 0..depth {
                    out.push_str(pad);
                }
            }
        }

        pub fn write_string(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    '\u{08}' => out.push_str("\\b"),
                    '\u{0C}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }

    fn oracle_compact(v: &Value) -> String {
        let mut out = String::new();
        oracle::write_value(&mut out, v, None, 0);
        out
    }

    fn oracle_pretty(v: &Value) -> String {
        let mut out = String::new();
        oracle::write_value(&mut out, v, Some("  "), 0);
        out
    }

    use proptest::prelude::*;

    /// Any `f64` bit pattern, with the edge values drawn often: signed
    /// zero, subnormals, integer-valued floats up to 1e300, NaN and ±inf.
    fn any_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u64..=u64::MAX).prop_map(f64::from_bits),
            (0u64..(1u64 << 52)).prop_map(f64::from_bits),
            (0i32..=300).prop_map(|e| 10f64.powi(e)),
            (-(1i64 << 53)..(1i64 << 53)).prop_map(|i| i as f64),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ]
    }

    /// Strings over every control char, `"`, `\` and multi-byte UTF-8.
    fn any_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                0u32..0x20,
                0x20u32..0x80,
                Just('"' as u32),
                Just('\\' as u32),
                0x80u32..0x800,
                0x800u32..0xD800,
                0xE000u32..0x11_0000,
            ],
            0..24,
        )
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
    }

    fn any_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (0u8..2).prop_map(|b| Value::Bool(b == 1)),
            (0u64..=u64::MAX).prop_map(Value::from),
            (i64::MIN..0).prop_map(Value::from),
            any_f64().prop_map(Value::from),
            any_string().prop_map(Value::String),
        ]
        .prop_recursive(3, 32, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
                proptest::collection::vec((any_string(), inner), 0..5)
                    .prop_map(|entries| Value::Object(entries.into_iter().collect())),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn strings_match_the_oracle(s in any_string()) {
            let mut expected = String::new();
            oracle::write_string(&mut expected, &s);
            prop_assert_eq!(to_string(&s).unwrap(), expected);
        }

        #[test]
        fn floats_match_the_oracle(x in any_f64()) {
            let v = Value::from(x);
            prop_assert_eq!(to_string(&v).unwrap(), oracle_compact(&v), "{:e}", x);
            prop_assert_eq!(to_string(&x).unwrap(), oracle_compact(&v));
        }

        #[test]
        fn value_trees_match_the_oracle(v in any_value()) {
            prop_assert_eq!(to_string(&v).unwrap(), oracle_compact(&v));
            prop_assert_eq!(to_string_pretty(&v).unwrap(), oracle_pretty(&v));
        }
    }
}
