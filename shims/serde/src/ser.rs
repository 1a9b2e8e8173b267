//! The JSON writer every [`Serialize`](crate::Serialize) impl writes
//! into: bytes go straight to the caller's buffer, with no value tree
//! in between.

use crate::value::{Number, N};
use std::fmt::{self, Write as _};

/// A JSON writer over a byte buffer, compact or pretty (2-space
/// indent). Containers are written with `begin_*` / `key` or `element`
/// / `end_*`; the writer places the separators and indentation, so
/// the output is the same text the [`Value`](crate::Value) tree writer
/// produced for the same document.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    pretty: bool,
    /// Nesting depth of the container being written.
    depth: usize,
    /// True until the open container gets its first key or element.
    first: bool,
}

impl<'a> Writer<'a> {
    /// A compact writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Writer {
            out,
            pretty: false,
            depth: 0,
            first: true,
        }
    }

    /// A pretty-printing writer (2-space indent) appending to `out`.
    pub fn pretty(out: &'a mut Vec<u8>) -> Self {
        Writer {
            pretty: true,
            ..Writer::new(out)
        }
    }

    /// `null`.
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// An unsigned integer in decimal.
    pub fn u64(&mut self, mut n: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&buf[i..]);
    }

    /// A signed integer in decimal.
    pub fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push(b'-');
        }
        self.u64(n.unsigned_abs());
    }

    /// A float, by [`Number`]'s rule: Rust's shortest round-trip text,
    /// `.0` appended to a whole value (so it reads back as a float),
    /// `null` when non-finite.
    pub fn f64(&mut self, x: f64) {
        // Writing into a `Vec` cannot fail.
        let _ = write!(Bytes(self.out), "{}", Number::from_f64(x));
    }

    /// A [`Number`], by its own classification.
    pub fn number(&mut self, n: &Number) {
        match n.n {
            N::U(u) => self.u64(u),
            N::I(i) => self.i64(i),
            N::F(x) => self.f64(x),
        }
    }

    /// A string literal. Runs of bytes that need no escape are copied
    /// wholesale; every byte that does is ASCII, so each run ends on a
    /// char boundary.
    pub fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bytes = s.as_bytes();
        self.out.push(b'"');
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b != b'"' && b != b'\\' && b >= 0x20 {
                continue;
            }
            self.out.extend_from_slice(&bytes[run..i]);
            match b {
                b'"' => self.out.extend_from_slice(b"\\\""),
                b'\\' => self.out.extend_from_slice(b"\\\\"),
                b'\n' => self.out.extend_from_slice(b"\\n"),
                b'\r' => self.out.extend_from_slice(b"\\r"),
                b'\t' => self.out.extend_from_slice(b"\\t"),
                0x08 => self.out.extend_from_slice(b"\\b"),
                0x0C => self.out.extend_from_slice(b"\\f"),
                _ => self.out.extend_from_slice(&[
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 0xF)],
                ]),
            }
            run = i + 1;
        }
        self.out.extend_from_slice(&bytes[run..]);
        self.out.push(b'"');
    }

    /// Open an array.
    pub fn begin_array(&mut self) {
        self.open(b'[');
    }

    /// Start the next array element (separator and indentation).
    pub fn element(&mut self) {
        self.separate();
    }

    /// Close the array opened last.
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// Open an object.
    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    /// Write the next object key; its value follows.
    pub fn key(&mut self, key: &str) {
        self.separate();
        self.str(key);
        self.out
            .extend_from_slice(if self.pretty { b": " } else { b":" });
    }

    /// Close the object opened last.
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    fn open(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn separate(&mut self) {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        self.newline_indent();
    }

    /// An empty container closes on the same line (`[]`, `{}`).
    fn close(&mut self, bracket: u8) {
        self.depth = self.depth.saturating_sub(1);
        if !self.first {
            self.newline_indent();
        }
        self.out.push(bracket);
        self.first = false;
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            for _ in 0..self.depth {
                self.out.extend_from_slice(b"  ");
            }
        }
    }
}

/// `fmt::Write` into a byte buffer, for number formatting.
struct Bytes<'a>(&'a mut Vec<u8>);

impl fmt::Write for Bytes<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}
