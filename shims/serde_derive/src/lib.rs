//! Offline shim for `serde_derive`.
//!
//! Hand-rolled derive macros (no `syn`/`quote` available offline): the
//! input item is parsed with the raw `proc_macro` API — only the shape
//! (struct/enum, field and variant names) matters, field *types* are
//! never needed because the generated code lets inference pick the
//! right `Deserialize` impl from the constructor position — and the
//! output impl is rendered as a string and re-parsed.
//!
//! Supported shapes (everything MPROS derives on): named structs,
//! tuple/newtype structs, unit-only enums, enums mixing unit / newtype
//! / tuple / struct variants, and `#[serde(transparent)]`. Generics are
//! not supported. JSON conventions match real serde: externally tagged
//! enums, newtype structs as their inner value, `Option` ↔ `null`.
//!
//! The generated `Serialize` writes through a `serde::Writer` and the
//! generated `Deserialize` reads through a `serde::Reader`, so no value
//! tree is built on either side. Struct keys come out in declaration
//! order; on the way in, unknown keys are parsed and skipped, a missing
//! field reads as `null` (an absent `Option` is `None`), and a repeated
//! field is an error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Input {
    name: String,
    kind: Kind,
    /// `#[serde(transparent)]`: the one field stands for the struct.
    transparent: bool,
}

#[derive(Debug)]
enum Kind {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: VariantShape,
}

#[derive(Debug)]
enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

/// Derive the shim's `serde::Serialize` (writes JSON).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed)
        .parse()
        .expect("serde_derive shim generated invalid Serialize impl")
}

/// Derive the shim's `serde::Deserialize` (reads JSON).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("serde_derive shim generated invalid Deserialize impl")
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn parse_input(input: TokenStream) -> Input {
    let mut toks = input.into_iter().peekable();
    let transparent = skip_attrs_and_vis(&mut toks);
    let item_kind = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde_derive shim: expected struct/enum, got {other:?}"),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other:?}"),
    };
    if matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generics are not supported (type {name})");
    }
    let kind = match item_kind.as_str() {
        "struct" => match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::UnitStruct,
            other => panic!("serde_derive shim: unsupported struct body {other:?}"),
        },
        "enum" => match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde_derive shim: expected enum body, got {other:?}"),
        },
        other => panic!("serde_derive shim: cannot derive for `{other}` items"),
    };
    let single_field = matches!(&kind, Kind::TupleStruct(1))
        || matches!(&kind, Kind::NamedStruct(fields) if fields.len() == 1);
    if transparent && !single_field {
        panic!("serde_derive shim: #[serde(transparent)] needs exactly one field (type {name})");
    }
    Input {
        name,
        kind,
        transparent,
    }
}

/// Skip leading `#[...]` attributes and `pub` / `pub(...)` visibility;
/// true if one of the attributes was `#[serde(transparent)]`.
fn skip_attrs_and_vis(toks: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) -> bool {
    let mut transparent = false;
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                // The bracketed attribute body.
                if let Some(TokenTree::Group(g)) = toks.next() {
                    let body = g.stream().to_string().replace(' ', "");
                    transparent |= body == "serde(transparent)";
                }
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                toks.next();
                if matches!(
                    toks.peek(),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    toks.next();
                }
            }
            _ => return transparent,
        }
    }
}

/// Parse `name: Type, ...` bodies: field names at angle-bracket depth 0.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut toks);
        match toks.next() {
            Some(TokenTree::Ident(i)) => fields.push(i.to_string()),
            None => break,
            other => panic!("serde_derive shim: expected field name, got {other:?}"),
        }
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive shim: expected `:`, got {other:?}"),
        }
        skip_type(&mut toks);
    }
    fields
}

/// Consume type tokens up to (and including) the next top-level comma.
fn skip_type(toks: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    let mut depth = 0i32;
    for tok in toks.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return,
                _ => {}
            }
        }
    }
}

/// Count comma-separated fields of a tuple struct / tuple variant.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut count = 0usize;
    let mut toks = stream.into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut toks);
        if toks.peek().is_none() {
            break;
        }
        count += 1;
        skip_type(&mut toks);
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut toks);
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("serde_derive shim: expected variant name, got {other:?}"),
        };
        let shape = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let s = count_tuple_fields(g.stream());
                toks.next();
                VariantShape::Tuple(s)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = parse_named_fields(g.stream());
                toks.next();
                VariantShape::Struct(f)
            }
            _ => VariantShape::Unit,
        };
        // Skip an optional `= discriminant` and the trailing comma.
        skip_type(&mut toks);
        variants.push(Variant { name, shape });
    }
    variants
}

// ---------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------

/// Statements writing named fields (bound as `{prefix}{field}`) as the
/// entries of one object.
fn gen_fields_ser(fields: &[String], prefix: &str) -> String {
    let mut s = String::from("__w.begin_object();\n");
    for f in fields {
        s.push_str(&format!(
            "__w.key(\"{f}\");\n::serde::Serialize::serialize({prefix}{f}, __w);\n"
        ));
    }
    s.push_str("__w.end_object();\n");
    s
}

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::NamedStruct(fields) if input.transparent => {
            format!("::serde::Serialize::serialize(&self.{}, __w);", fields[0])
        }
        Kind::NamedStruct(fields) => gen_fields_ser(fields, "&self."),
        Kind::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, __w);".to_string(),
        Kind::TupleStruct(n) => {
            let mut s = String::from("__w.begin_array();\n");
            for i in 0..*n {
                s.push_str(&format!(
                    "__w.element();\n::serde::Serialize::serialize(&self.{i}, __w);\n"
                ));
            }
            s.push_str("__w.end_array();");
            s
        }
        Kind::UnitStruct => "__w.null();".to_string(),
        Kind::Enum(variants) => {
            let mut s = String::from("match self {\n");
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => {
                        s.push_str(&format!("{name}::{vn} => __w.str(\"{vn}\"),\n"))
                    }
                    VariantShape::Tuple(1) => s.push_str(&format!(
                        "{name}::{vn}(__f0) => {{\n\
                         __w.begin_object();\n__w.key(\"{vn}\");\n\
                         ::serde::Serialize::serialize(__f0, __w);\n__w.end_object();\n}}\n"
                    )),
                    VariantShape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let mut items = String::new();
                        for b in &binds {
                            items.push_str(&format!(
                                "__w.element();\n::serde::Serialize::serialize({b}, __w);\n"
                            ));
                        }
                        s.push_str(&format!(
                            "{name}::{vn}({}) => {{\n\
                             __w.begin_object();\n__w.key(\"{vn}\");\n__w.begin_array();\n\
                             {items}__w.end_array();\n__w.end_object();\n}}\n",
                            binds.join(", ")
                        ));
                    }
                    VariantShape::Struct(fields) => {
                        s.push_str(&format!(
                            "{name}::{vn} {{ {} }} => {{\n\
                             __w.begin_object();\n__w.key(\"{vn}\");\n{}__w.end_object();\n}}\n",
                            fields.join(", "),
                            gen_fields_ser(fields, "")
                        ));
                    }
                }
            }
            s.push('}');
            s
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, __w: &mut ::serde::Writer<'_>) {{\n{body}\n}}\n}}\n"
    )
}

/// An expression reading one object into `{type_path} {{ fields }}`.
fn gen_fields_de(type_path: &str, fields: &[String]) -> String {
    let mut s = String::from("{\n");
    for f in fields {
        s.push_str(&format!(
            "let mut __field_{f} = ::std::option::Option::None;\n"
        ));
    }
    s.push_str("if __r.object()? {\nloop {\nlet __key = __r.key()?;\nmatch &*__key {\n");
    for f in fields {
        s.push_str(&format!(
            "\"{f}\" => {{\n\
             if __field_{f}.is_some() {{\n\
             return ::std::result::Result::Err(::serde::DeError::duplicate_field(\"{f}\"));\n}}\n\
             __field_{f} = ::std::option::Option::Some(::serde::Deserialize::deserialize(__r)\
             .map_err(|e| e.in_field(\"{f}\"))?);\n}}\n"
        ));
    }
    s.push_str("_ => __r.skip()?,\n}\nif !__r.next_entry()? {\nbreak;\n}\n}\n}\n");
    s.push_str(&format!("{type_path} {{\n"));
    for f in fields {
        s.push_str(&format!(
            "{f}: match __field_{f} {{\n\
             ::std::option::Option::Some(v) => v,\n\
             ::std::option::Option::None => ::serde::missing_field(\"{f}\")?,\n}},\n"
        ));
    }
    s.push_str("}\n}");
    s
}

/// Statements reading an `n`-element array into `__f0..__f{n-1}`.
fn gen_tuple_de(n: usize, what: &str) -> String {
    let arity = format!(
        "return ::std::result::Result::Err(::serde::DeError::custom(\
         \"expected {n}-element array for {what}\"))"
    );
    let mut s = format!("if !__r.array()? {{\n{arity};\n}}\n");
    for i in 0..n {
        let more = i + 1 < n;
        s.push_str(&format!(
            "let __f{i} = ::serde::Deserialize::deserialize(__r)?;\n\
             if __r.next_element()? != {more} {{\n{arity};\n}}\n"
        ));
    }
    s
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::NamedStruct(fields) if input.transparent => format!(
            "::std::result::Result::Ok({name} {{ {}: ::serde::Deserialize::deserialize(__r)? }})",
            fields[0]
        ),
        Kind::NamedStruct(fields) => {
            format!("::std::result::Result::Ok({})", gen_fields_de(name, fields))
        }
        Kind::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__r)?))")
        }
        Kind::TupleStruct(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
            format!(
                "{}::std::result::Result::Ok({name}({}))",
                gen_tuple_de(*n, name),
                binds.join(", ")
            )
        }
        Kind::UnitStruct => format!("__r.skip()?;\n::std::result::Result::Ok({name})"),
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => {
                        unit_arms.push_str(&format!("\"{vn}\" => {name}::{vn},\n"))
                    }
                    VariantShape::Tuple(1) => data_arms.push_str(&format!(
                        "\"{vn}\" => {name}::{vn}(::serde::Deserialize::deserialize(__r)\
                         .map_err(|e| e.in_field(\"{vn}\"))?),\n"
                    )),
                    VariantShape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        data_arms.push_str(&format!(
                            "\"{vn}\" => {{\n{}{name}::{vn}({})\n}}\n",
                            gen_tuple_de(*n, &format!("{name}::{vn}")),
                            binds.join(", ")
                        ));
                    }
                    VariantShape::Struct(fields) => data_arms.push_str(&format!(
                        "\"{vn}\" => {},\n",
                        gen_fields_de(&format!("{name}::{vn}"), fields)
                    )),
                }
            }
            let unknown = format!(
                "__other => return ::std::result::Result::Err(::serde::DeError::custom(\
                 format!(\"unknown {name} variant {{__other}}\"))),\n"
            );
            let untagged = format!(
                "::std::result::Result::Err(::serde::DeError::custom(\
                 \"expected externally tagged variant for {name}\"))"
            );
            format!(
                "match __r.peek_value()? {{\n\
                 b'\"' => {{\n\
                 let __s = __r.str()?;\n\
                 ::std::result::Result::Ok(match &*__s {{\n{unit_arms}{unknown}}})\n}}\n\
                 b'{{' => {{\n\
                 if !__r.object()? {{\nreturn {untagged};\n}}\n\
                 let __k = __r.key()?;\n\
                 let __v = match &*__k {{\n{data_arms}{unknown}}};\n\
                 if __r.next_entry()? {{\nreturn {untagged};\n}}\n\
                 ::std::result::Result::Ok(__v)\n}}\n\
                 _ => {untagged},\n}}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         #[allow(unreachable_code, clippy::match_single_binding)]\n\
         fn deserialize(__r: &mut ::serde::Reader<'_>) -> \
         ::std::result::Result<Self, ::serde::DeError> {{\n\
         {body}\n}}\n}}\n"
    )
}
