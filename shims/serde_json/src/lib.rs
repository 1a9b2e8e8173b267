//! Offline shim for `serde_json`: the document-level entry points over
//! the `serde` shim's [`Writer`] and [`Reader`], which write and read
//! JSON bytes directly. Floats are printed with Rust's
//! shortest-roundtrip formatting, so a print → parse cycle preserves
//! every `f64` bit-for-bit (the behavior MPROS's protocol tests rely
//! on, equivalent to real serde_json's `float_roundtrip` feature).
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use serde::{Map, Number, Value};

use serde::{DeError, Deserialize, Reader, Serialize, Writer};
use std::fmt;

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
    into_string(to_vec(value)?)
}

/// Serialize `value` to a pretty-printed JSON string (2-space indent).
pub fn to_string_pretty<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    let mut out = Vec::new();
    value.serialize(&mut Writer::pretty(&mut out));
    into_string(out)
}

/// Serialize `value` to compact JSON bytes.
pub fn to_vec<T: ?Sized + Serialize>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    value.serialize(&mut Writer::new(&mut out));
    Ok(out)
}

/// Convert any serializable value into a [`Value`] tree (its JSON
/// text, parsed back).
pub fn to_value<T: ?Sized + Serialize>(value: &T) -> Result<Value> {
    from_slice(&to_vec(value)?)
}

/// Rebuild a `T` from a [`Value`] tree (the tree's JSON text, read as
/// a `T`).
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    from_slice(&to_vec(&value)?)
}

/// The writer emits only whole UTF-8 strings and ASCII, so this check
/// never fails; it stands in for an unchecked conversion.
fn into_string(bytes: Vec<u8>) -> Result<String> {
    String::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8 output: {e}")))
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Parse a `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    from_slice(s.as_bytes())
}

/// Parse a `T` from JSON bytes. Invalid UTF-8 is refused where it is
/// read: inside a string it fails that string's check, and anywhere
/// else it is not JSON.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let mut reader = Reader::new(bytes);
    let value = T::deserialize(&mut reader)?;
    reader.end()?;
    Ok(value)
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
    fn a_shared_value_is_the_value_on_the_wire() {
        use std::sync::Arc;
        let plain: Vec<Option<String>> = vec![Some("a \"b\"".into()), None];
        let shared: Arc<Vec<Option<Arc<String>>>> =
            Arc::new(vec![Some(Arc::new("a \"b\"".into())), None]);
        let json = to_string(&shared).unwrap();
        assert_eq!(json, to_string(&plain).unwrap());
        assert_eq!(
            to_string_pretty(&shared).unwrap(),
            to_string_pretty(&plain).unwrap()
        );
        let back: Arc<Vec<Option<Arc<String>>>> = from_str(&json).unwrap();
        assert_eq!(back, shared);
        let back: Vec<Option<String>> = from_str(&json).unwrap();
        assert_eq!(back, plain);
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        // Leading zeros, and a fraction or exponent with no digit.
        for doc in [
            "087", "-01", "00", "-00", "01.5", "1.", "1.e5", "-1.", "1e", "1e+", "1E-", "-", "-.5",
            ".5", "+1",
        ] {
            assert!(from_str::<Value>(doc).is_err(), "{doc:?} should fail");
            assert!(from_str::<f64>(doc).is_err(), "{doc:?} should fail as f64");
            assert!(from_str::<u64>(doc).is_err(), "{doc:?} should fail as u64");
            let field = format!("{{\"a\":{doc}}}");
            assert!(from_str::<Value>(&field).is_err(), "{field:?} should fail");
        }
        for (doc, want) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.0", 0.0),
            ("1e5", 1e5),
            ("1E+5", 1e5),
            ("2.5e-3", 2.5e-3),
            ("0e0", 0.0),
        ] {
            assert_eq!(from_str::<f64>(doc).unwrap(), want, "{doc:?}");
        }
        assert_eq!(from_str::<u64>("0").unwrap(), 0);
        assert_eq!(from_str::<i64>("-10").unwrap(), -10);
        // `-0` has no integer form that keeps its sign: it is a float.
        let zero: Value = from_str("-0").unwrap();
        assert!(matches!(&zero, Value::Number(n) if n.is_f64()));
        assert!(from_str::<f64>("-0").unwrap().is_sign_negative());
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

    // -----------------------------------------------------------------
    // Derived shapes: the streaming writer against the oracle, and the
    // streaming reader back to the original value.
    // -----------------------------------------------------------------

    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct UnitShape;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct NewtypeShape(f64);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct TupleShape(u16, String);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    #[serde(transparent)]
    struct TransparentShape {
        inner: String,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum EnumShape {
        Unit,
        Newtype(i64),
        Tuple(u8, bool),
        Struct { x: f64, y: Option<String> },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Shapes {
        unsigned: u64,
        signed: i64,
        float: f64,
        text: String,
        maybe: Option<u32>,
        list: Vec<i32>,
        pair: (u8, String),
        unit: UnitShape,
        newtype: NewtypeShape,
        tuple: TupleShape,
        transparent: TransparentShape,
        variants: Vec<EnumShape>,
        map: BTreeMap<String, f64>,
        flag: bool,
    }

    fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The document each shape stands for, built by hand from the
    /// conventions (externally tagged enums, newtypes as their inner
    /// value, `None` and unit structs as `null`), not by the derive.
    fn enum_value(e: &EnumShape) -> Value {
        match e {
            EnumShape::Unit => Value::from("Unit"),
            EnumShape::Newtype(n) => obj(vec![("Newtype", Value::from(*n))]),
            EnumShape::Tuple(a, b) => obj(vec![(
                "Tuple",
                Value::Array(vec![Value::from(u64::from(*a)), Value::from(*b)]),
            )]),
            EnumShape::Struct { x, y } => obj(vec![(
                "Struct",
                obj(vec![
                    ("x", Value::from(*x)),
                    ("y", y.clone().map_or(Value::Null, Value::from)),
                ]),
            )]),
        }
    }

    fn shapes_value(s: &Shapes) -> Value {
        obj(vec![
            ("unsigned", Value::from(s.unsigned)),
            ("signed", Value::from(s.signed)),
            ("float", Value::from(s.float)),
            ("text", Value::from(s.text.as_str())),
            (
                "maybe",
                s.maybe.map_or(Value::Null, |m| Value::from(u64::from(m))),
            ),
            (
                "list",
                Value::Array(s.list.iter().map(|&i| Value::from(i64::from(i))).collect()),
            ),
            (
                "pair",
                Value::Array(vec![
                    Value::from(u64::from(s.pair.0)),
                    Value::from(s.pair.1.as_str()),
                ]),
            ),
            ("unit", Value::Null),
            ("newtype", Value::from(s.newtype.0)),
            (
                "tuple",
                Value::Array(vec![
                    Value::from(u64::from(s.tuple.0)),
                    Value::from(s.tuple.1.as_str()),
                ]),
            ),
            ("transparent", Value::from(s.transparent.inner.as_str())),
            (
                "variants",
                Value::Array(s.variants.iter().map(enum_value).collect()),
            ),
            (
                "map",
                Value::Object(
                    s.map
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::from(v)))
                        .collect(),
                ),
            ),
            ("flag", Value::from(s.flag)),
        ])
    }

    fn any_enum(float: BoxedStrategy<f64>) -> impl Strategy<Value = EnumShape> {
        prop_oneof![
            Just(EnumShape::Unit),
            (i64::MIN..=i64::MAX).prop_map(EnumShape::Newtype),
            (0u8..=u8::MAX, 0u8..2).prop_map(|(a, b)| EnumShape::Tuple(a, b == 1)),
            (float, proptest::option::of(any_string()))
                .prop_map(|(x, y)| EnumShape::Struct { x, y }),
        ]
    }

    fn any_shapes(float: fn() -> BoxedStrategy<f64>) -> impl Strategy<Value = Shapes> {
        (
            (0u64..=u64::MAX, i64::MIN..=i64::MAX, float(), any_string()),
            (
                proptest::option::of(0u32..=u32::MAX),
                proptest::collection::vec(i32::MIN..=i32::MAX, 0..4),
                (0u8..=u8::MAX, any_string()),
            ),
            (float(), 0u16..=u16::MAX, any_string(), any_string()),
            (
                proptest::collection::vec(any_enum(float()), 0..4),
                proptest::collection::vec((any_string(), float()), 0..4),
                0u8..2,
            ),
        )
            .prop_map(
                |(
                    (unsigned, signed, float, text),
                    (maybe, list, pair),
                    (newtype, t0, t1, inner),
                    (variants, map, flag),
                )| Shapes {
                    unsigned,
                    signed,
                    float,
                    text,
                    maybe,
                    list,
                    pair,
                    unit: UnitShape,
                    newtype: NewtypeShape(newtype),
                    tuple: TupleShape(t0, t1),
                    transparent: TransparentShape { inner },
                    variants,
                    map: map.into_iter().collect(),
                    flag: flag == 1,
                },
            )
    }

    fn every_f64() -> BoxedStrategy<f64> {
        any_f64().boxed()
    }

    /// Finite floats only: JSON writes a non-finite float as `null`,
    /// which no `f64` reads back.
    fn finite_f64() -> BoxedStrategy<f64> {
        any_f64()
            .prop_map(|x| if x.is_finite() { x } else { 0.5 })
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn derived_shapes_write_the_oracle_bytes(s in any_shapes(every_f64)) {
            let tree = shapes_value(&s);
            prop_assert_eq!(to_string(&s).unwrap(), oracle_compact(&tree));
            prop_assert_eq!(to_string_pretty(&s).unwrap(), oracle_pretty(&tree));
        }

        #[test]
        fn derived_shapes_read_back_unchanged(s in any_shapes(finite_f64)) {
            for json in [to_string(&s).unwrap(), to_string_pretty(&s).unwrap()] {
                let back: Shapes = from_str(&json).unwrap();
                // Byte-equal re-encoding also tells -0.0 from 0.0.
                prop_assert_eq!(to_string(&back).unwrap(), to_string(&s).unwrap());
                prop_assert_eq!(&back, &s);
                let tree: Value = from_str(&json).unwrap();
                prop_assert_eq!(tree, shapes_value(&s));
            }
        }
    }

    #[test]
    fn readers_skip_unknown_fields_and_default_missing_options() {
        let json = r#"{"x": 1.5, "extra": {"deep": [1, "two", null]}, "z": 3}"#;
        let back: EnumShape = from_str(&format!(r#"{{"Struct": {json}}}"#)).unwrap();
        assert_eq!(back, EnumShape::Struct { x: 1.5, y: None });
        // Integers read as floats and whole floats as integers, as the
        // tree's number classification allowed.
        assert_eq!(from_str::<f64>("7").unwrap(), 7.0);
        assert_eq!(from_str::<u64>("7.0").unwrap(), 7);
        assert!(from_str::<u64>("7.5").is_err());
    }

    #[test]
    fn repeated_struct_fields_are_a_typed_error() {
        let err = from_str::<EnumShape>(r#"{"Struct":{"x":1.0,"x":2.0}}"#).unwrap_err();
        assert!(err.to_string().contains("duplicate field `x`"), "{err}");
        // An enum object names exactly one variant.
        assert!(from_str::<EnumShape>(r#"{"Unit":null,"Newtype":1}"#).is_err());
        assert!(from_str::<EnumShape>(r#"{"Newtype":1,"Newtype":1}"#).is_err());
        // Maps (and the tree) keep the last of a repeated key.
        let map: BTreeMap<String, u8> = from_str(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(map["k"], 2);
    }

    #[test]
    fn nesting_cap_matches_the_tree_parser() {
        // 129 nested arrays hold a value at depth 128: accepted; one more
        // level puts it at 129: refused, for typed and tree reads alike.
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nest(129)).is_ok());
        assert!(from_str::<Value>(&nest(130)).is_err());
        let skipped = |n: usize| format!(r#"{{"Struct":{{"x":0.0,"pad":{}}}}}"#, nest(n));
        assert!(from_str::<EnumShape>(&skipped(127)).is_ok());
        assert!(from_str::<EnumShape>(&skipped(128)).is_err());
    }
}
