//! The JSON-shaped value tree shared by the `serde` and `serde_json`
//! shims (`serde_json::Value`). Lives here (rather than in
//! `serde_json`) so the inherent methods and the
//! `Serialize`/`Deserialize` impls — the tree writer and parser — can
//! be defined next to the type.

use std::fmt;
use std::ops::Index;

/// A JSON number: unsigned, signed, or floating point.
#[derive(Debug, Clone, Copy)]
pub struct Number {
    pub(crate) n: N,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum N {
    U(u64),
    I(i64),
    F(f64),
}

impl Number {
    /// From an unsigned integer.
    pub fn from_u64(n: u64) -> Self {
        Number { n: N::U(n) }
    }

    /// From a signed integer (stored unsigned when non-negative, which
    /// matches how a JSON parser would classify the same digits).
    pub fn from_i64(n: i64) -> Self {
        if n >= 0 {
            Number { n: N::U(n as u64) }
        } else {
            Number { n: N::I(n) }
        }
    }

    /// From a float.
    pub fn from_f64(n: f64) -> Self {
        Number { n: N::F(n) }
    }

    /// As `u64`, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self.n {
            N::U(n) => Some(n),
            N::I(n) => u64::try_from(n).ok(),
            N::F(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            N::F(_) => None,
        }
    }

    /// As `i64`, if representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self.n {
            N::U(n) => i64::try_from(n).ok(),
            N::I(n) => Some(n),
            N::F(f) if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 => {
                Some(f as i64)
            }
            N::F(_) => None,
        }
    }

    /// As `f64` (always possible, possibly lossy for huge integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self.n {
            N::U(n) => Some(n as f64),
            N::I(n) => Some(n as f64),
            N::F(f) => Some(f),
        }
    }

    /// Whether this number was parsed/stored as a float.
    pub fn is_f64(&self) -> bool {
        matches!(self.n, N::F(_))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.n, other.n) {
            (N::U(a), N::U(b)) => a == b,
            (N::I(a), N::I(b)) => a == b,
            // Float representations compare exactly as floats; this is
            // what a parse/print roundtrip preserves.
            (N::F(a), N::F(b)) => a == b || (a.is_nan() && b.is_nan()),
            (N::U(a), N::I(b)) | (N::I(b), N::U(a)) => i64::try_from(a) == Ok(b),
            (N::U(a), N::F(b)) | (N::F(b), N::U(a)) => b.fract() == 0.0 && a as f64 == b,
            (N::I(a), N::F(b)) | (N::F(b), N::I(a)) => b.fract() == 0.0 && a as f64 == b,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.n {
            N::U(n) => write!(f, "{n}"),
            N::I(n) => write!(f, "{n}"),
            N::F(x) if !x.is_finite() => f.write_str("null"),
            // Rust's shortest-roundtrip Display guarantees the value
            // parses back bit-for-bit and never uses an exponent, so a
            // whole float would read as an integer: append `.0`,
            // matching serde_json.
            N::F(x) => {
                write!(f, "{x}")?;
                if x.fract() == 0.0 {
                    f.write_str(".0")?;
                }
                Ok(())
            }
        }
    }
}

/// An insertion-ordered string-keyed map of values (the shim's
/// `serde_json::Map`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert (or replace) a key.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterate keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterate values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (String, Value)>,
        fn(&'a (String, Value)) -> (&'a String, &'a Value),
    >;
    fn into_iter(self) -> Self::IntoIter {
        fn split(e: &(String, Value)) -> (&String, &Value) {
            (&e.0, &e.1)
        }
        self.entries.iter().map(split)
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// A JSON value tree (the shim's `serde_json::Value`).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    /// `Some(bool)` if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `Some(u64)` if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// `Some(i64)` if this is an integral number in `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// `Some(f64)` if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// `Some(&str)` if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// `Some(&Vec<Value>)` if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// `Some(&Map)` if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// Whether this is an array.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// Object-key lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl Index<&str> for Value {
    type Output = Value;
    /// Object-key indexing; yields `Null` for non-objects / missing
    /// keys, matching serde_json.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;
    /// Array indexing; yields `Null` out of bounds, matching serde_json.
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

macro_rules! impl_value_eq_num {
    ($($t:ty => $conv:ident as $wide:ty),* $(,)?) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.$conv().map(|v| v == *other as $wide).unwrap_or(false)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}

impl_value_eq_num!(
    u8 => as_u64 as u64, u16 => as_u64 as u64, u32 => as_u64 as u64,
    u64 => as_u64 as u64, usize => as_u64 as u64,
    i8 => as_i64 as i64, i16 => as_i64 as i64, i32 => as_i64 as i64,
    i64 => as_i64 as i64, isize => as_i64 as i64,
    f32 => as_f64 as f64, f64 => as_f64 as f64,
);

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(Number::from_u64(n))
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Number(Number::from_i64(n))
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(Number::from_f64(n))
    }
}

impl From<Vec<Value>> for Value {
    fn from(a: Vec<Value>) -> Self {
        Value::Array(a)
    }
}
