//! Offline shim for `serde`.
//!
//! Instead of serde's visitor architecture, this shim speaks JSON
//! directly: [`Serialize`] writes a type into a [`Writer`] over the
//! output bytes and [`Deserialize`] reads it back from a [`Reader`]
//! over the input bytes, with no value tree in between. The derive
//! macros in the companion `serde_derive` shim generate impls of these
//! traits with the same JSON conventions as real serde (externally
//! tagged enums, transparent newtypes, `Option` ↔ `null`), so documents
//! produced by this shim match what the real crates would emit for the
//! types MPROS defines. [`Value`] is one more such type: its impls are
//! the tree writer and parser.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod de;
mod ser;
mod value;

pub use de::Reader;
pub use ser::Writer;
pub use value::{Map, Number, Value};

// The derive macros; `use serde::{Serialize, Deserialize}` picks up the
// trait and the macro together (they live in separate namespaces).
pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Error produced while reading JSON: a syntax error, a value of the
/// wrong shape, or a duplicated struct field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// A new error with the given message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        DeError {
            msg: msg.to_string(),
        }
    }

    /// Wrap this error with the field/variant it occurred in.
    pub fn in_field(self, field: &str) -> Self {
        DeError {
            msg: format!("{field}: {}", self.msg),
        }
    }

    /// A struct field that appears twice in one object. Real serde
    /// refuses it too; the tree decoder this reader replaced kept the
    /// last occurrence.
    pub fn duplicate_field(field: &str) -> Self {
        DeError::custom(format!("duplicate field `{field}`"))
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for DeError {}

/// A type that can write itself as JSON.
pub trait Serialize {
    /// Write this value into `w`.
    fn serialize(&self, w: &mut Writer<'_>);
}

/// A type that can read itself from JSON.
pub trait Deserialize: Sized {
    /// Read one value from `r`.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError>;
}

/// Read a field that is absent from its object: it decodes as if it
/// were `null`, so an `Option` field reads as `None` and any other
/// field is an error.
#[doc(hidden)]
pub fn missing_field<T: Deserialize>(field: &str) -> Result<T, DeError> {
    T::deserialize(&mut Reader::new(b"null")).map_err(|e| e.in_field(field))
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) {
                w.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let n = r
                    .number()?
                    .as_u64()
                    .ok_or_else(|| DeError::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n)
                    .map_err(|_| DeError::custom(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) {
                w.i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let n = r
                    .number()?
                    .as_i64()
                    .ok_or_else(|| DeError::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n)
                    .map_err(|_| DeError::custom(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.number()?
            .as_f64()
            .ok_or_else(|| DeError::custom("expected f64"))
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.f64(*self as f64);
    }
}

impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.number()?
            .as_f64()
            .map(|f| f as f32)
            .ok_or_else(|| DeError::custom("expected f32"))
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.bool()
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.str().map(Cow::into_owned)
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(self);
    }
}

impl Serialize for char {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(self.encode_utf8(&mut [0u8; 4]));
    }
}

impl Deserialize for char {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let s = r.str()?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::custom("expected single-character string")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer<'_>) {
        (**self).serialize(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        (**self).serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        T::deserialize(r).map(Box::new)
    }
}

/// A shared value is written as the value itself, so `Arc<T>` and `T`
/// are the same document.
impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        (**self).serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        T::deserialize(r).map(Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self {
            Some(t) => t.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if r.null()? {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

fn serialize_seq<'t, T: Serialize + 't>(
    items: impl IntoIterator<Item = &'t T>,
    w: &mut Writer<'_>,
) {
    w.begin_array();
    for item in items {
        w.element();
        item.serialize(w);
    }
    w.end_array();
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        serialize_seq(self, w);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer<'_>) {
        serialize_seq(self, w);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut Writer<'_>) {
        serialize_seq(self, w);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut out = Vec::new();
        if r.array()? {
            loop {
                out.push(T::deserialize(r)?);
                if !r.next_element()? {
                    break;
                }
            }
        }
        Ok(out)
    }
}

macro_rules! impl_tuple {
    ($(($len:literal: $($t:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, w: &mut Writer<'_>) {
                w.begin_array();
                $(
                    w.element();
                    self.$idx.serialize(w);
                )+
                w.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let arity = || DeError::custom("tuple arity mismatch");
                if !r.array()? {
                    return Err(arity());
                }
                let value = ($({
                    let item = $t::deserialize(r)?;
                    if r.next_element()? != ($idx + 1 < $len) {
                        return Err(arity());
                    }
                    item
                },)+);
                Ok(value)
            }
        }
    )+};
}

impl_tuple!(
    (1: A: 0),
    (2: A: 0, B: 1),
    (3: A: 0, B: 1, C: 2),
    (4: A: 0, B: 1, C: 2, D: 3)
);

fn serialize_map<'m, V: Serialize + 'm>(
    entries: impl IntoIterator<Item = (&'m String, &'m V)>,
    w: &mut Writer<'_>,
) {
    w.begin_object();
    for (k, v) in entries {
        w.key(k);
        v.serialize(w);
    }
    w.end_object();
}

/// Read an object's entries into `insert`; a repeated key is inserted
/// again, so a map keeps its last occurrence.
fn deserialize_map<V: Deserialize>(
    r: &mut Reader<'_>,
    mut insert: impl FnMut(String, V),
) -> Result<(), DeError> {
    if r.object()? {
        loop {
            let key = r.key()?.into_owned();
            insert(key, V::deserialize(r)?);
            if !r.next_entry()? {
                break;
            }
        }
    }
    Ok(())
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, w: &mut Writer<'_>) {
        serialize_map(self, w);
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut out = BTreeMap::new();
        deserialize_map(r, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize(&self, w: &mut Writer<'_>) {
        // Sort keys for deterministic output.
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by_key(|&(k, _)| k);
        serialize_map(entries, w);
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut out = HashMap::new();
        deserialize_map(r, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

/// The tree writer.
impl Serialize for Value {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Number(n) => w.number(n),
            Value::String(s) => w.str(s),
            Value::Array(items) => serialize_seq(items, w),
            Value::Object(map) => serialize_map(map, w),
        }
    }
}

/// The tree parser.
impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.value()
    }
}
