//! The JSON reader every [`Deserialize`](crate::Deserialize) impl reads
//! from: typed values are built straight from the input bytes, with no
//! value tree in between.

use crate::value::{Map, Number, Value};
use crate::DeError;
use std::borrow::Cow;

/// Nesting cap: a value inside more than this many containers is
/// refused, so hostile input cannot exhaust the stack.
const MAX_DEPTH: usize = 128;

type Result<T> = std::result::Result<T, DeError>;

/// A pull reader over one JSON document. Every value is checked
/// against the nesting cap where it starts, as the tree parser checked
/// it, so typed and tree decoding accept the same documents.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers enclosing the current position.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    /// Require that only whitespace remains.
    pub fn end(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(DeError::custom(format!(
                "trailing characters at offset {}",
                self.pos
            )));
        }
        Ok(())
    }

    /// The first byte of the next value, after the nesting check and
    /// any whitespace.
    pub fn peek_value(&mut self) -> Result<u8> {
        if self.depth > MAX_DEPTH {
            return Err(DeError::custom("recursion limit exceeded"));
        }
        self.skip_ws();
        self.peek()
            .ok_or_else(|| DeError::custom("unexpected end of input"))
    }

    /// Consume a `null` if one comes next; `false` leaves any other
    /// value unread.
    pub fn null(&mut self) -> Result<bool> {
        if self.peek_value()? != b'n' {
            return Ok(false);
        }
        self.keyword(b"null")?;
        Ok(true)
    }

    /// A boolean.
    pub fn bool(&mut self) -> Result<bool> {
        match self.peek_value()? {
            b't' => self.keyword(b"true").map(|()| true),
            b'f' => self.keyword(b"false").map(|()| false),
            _ => self.mismatch("bool"),
        }
    }

    /// A number, classified as the tree parser classified it: unsigned
    /// if it is an integer that fits `u64`, else signed if it fits
    /// `i64`, else a float.
    pub fn number(&mut self) -> Result<Number> {
        match self.peek_value()? {
            c if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => self.mismatch("number"),
        }
    }

    /// A string, borrowed from the input when it holds no escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>> {
        match self.peek_value()? {
            b'"' => self.parse_string(),
            _ => self.mismatch("string"),
        }
    }

    /// Open an array; `false` if it is empty (and already closed).
    pub fn array(&mut self) -> Result<bool> {
        self.open(b'[', b']', "array")
    }

    /// After an element: `true` if another follows, `false` once the
    /// array is closed.
    pub fn next_element(&mut self) -> Result<bool> {
        self.next(b']')
    }

    /// Open an object; `false` if it is empty (and already closed).
    pub fn object(&mut self) -> Result<bool> {
        self.open(b'{', b'}', "object")
    }

    /// The next object key and its `:`; the value follows.
    pub fn key(&mut self) -> Result<Cow<'a, str>> {
        self.skip_ws();
        let key = self.parse_string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(key)
    }

    /// After an entry's value: `true` if another entry follows, `false`
    /// once the object is closed.
    pub fn next_entry(&mut self) -> Result<bool> {
        self.next(b'}')
    }

    /// Parse the next value as a tree and drop it (unknown fields).
    pub fn skip(&mut self) -> Result<()> {
        self.value().map(drop)
    }

    /// The next value as a [`Value`] tree.
    pub fn value(&mut self) -> Result<Value> {
        match self.peek_value()? {
            b'n' => self.keyword(b"null").map(|()| Value::Null),
            b't' => self.keyword(b"true").map(|()| Value::Bool(true)),
            b'f' => self.keyword(b"false").map(|()| Value::Bool(false)),
            b'"' => self.parse_string().map(|s| Value::String(s.into_owned())),
            b'[' => {
                let mut items = Vec::new();
                if self.array()? {
                    loop {
                        items.push(self.value()?);
                        if !self.next_element()? {
                            break;
                        }
                    }
                }
                Ok(Value::Array(items))
            }
            b'{' => {
                let mut map = Map::new();
                if self.object()? {
                    loop {
                        let key = self.key()?.into_owned();
                        map.insert(key, self.value()?);
                        if !self.next_entry()? {
                            break;
                        }
                    }
                }
                Ok(Value::Object(map))
            }
            c if c == b'-' || c.is_ascii_digit() => self.parse_number().map(Value::Number),
            c => Err(DeError::custom(format!(
                "unexpected character `{}` at offset {}",
                c as char, self.pos
            ))),
        }
    }

    /// The type error for a value of the wrong kind.
    fn mismatch<T>(&self, expected: &str) -> Result<T> {
        Err(DeError::custom(format!(
            "expected {expected} at offset {}",
            self.pos
        )))
    }

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
            Err(DeError::custom(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn keyword(&mut self, kw: &[u8]) -> Result<()> {
        if self.bytes[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(DeError::custom(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn open(&mut self, bracket: u8, close: u8, what: &str) -> Result<bool> {
        if self.peek_value()? != bracket {
            return self.mismatch(what);
        }
        self.pos += 1;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    fn next(&mut self, close: u8) -> Result<bool> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            _ => Err(DeError::custom(format!(
                "expected `,` or `{}` at {}",
                close as char, self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let bytes = self.bytes;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            // Unescaped UTF-8 runs are validated and copied wholesale.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = std::str::from_utf8(&bytes[start..self.pos])
                .map_err(|e| DeError::custom(format!("invalid UTF-8 in string: {e}")))?;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| DeError::custom("unterminated escape"))?;
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
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(DeError::custom("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| DeError::custom("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| DeError::custom("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(DeError::custom(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                Some(_) => return Err(DeError::custom("unescaped control character in string")),
                None => return Err(DeError::custom("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| DeError::custom("truncated \\u escape"))?;
        let hex = std::str::from_utf8(digits).map_err(|_| DeError::custom("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| DeError::custom("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    /// A number in RFC 8259's grammar (§6): `-? int frac? exp?`, where
    /// `int` is `0` or a digit run not starting with `0`, and `frac` and
    /// `exp` each carry at least one digit. So `087`, `-01`, `00`, `1.`
    /// and `1.e5`, which Rust's number parsers accept, are refused.
    fn parse_number(&mut self) -> Result<Number> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.bad_number(start, "a leading zero"));
                }
            }
            Some(b'1'..=b'9') => {
                self.skip_digits();
            }
            _ => return Err(self.bad_number(start, "no integer digit")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !self.skip_digits() {
                return Err(self.bad_number(start, "no fraction digit"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.skip_digits() {
                return Err(self.bad_number(start, "no exponent digit"));
            }
        }
        // Every byte consumed above is ASCII.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| DeError::custom("invalid number"))?;
        // `-0` is the float −0.0: as the integer 0 it would lose its sign.
        if !is_float && text != "-0" {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::from_u64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::from_i64(i));
            }
        }
        text.parse::<f64>()
            .map(Number::from_f64)
            .map_err(|_| DeError::custom(format!("invalid number `{text}`")))
    }

    /// The error for a number at `start` that breaks the grammar.
    fn bad_number(&self, start: usize, why: &str) -> DeError {
        DeError::custom(format!("invalid number at offset {start}: {why}"))
    }

    /// Skip a digit run; `false` if there was none.
    fn skip_digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }
}
