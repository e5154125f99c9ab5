//! Hand-rolled JSON: a value tree, a writer, a small parser, and the
//! [`ToJson`] trait the bench binaries serialize their reports through.
//!
//! This replaces the `serde`/`serde_json` derives the workspace used to
//! pull from crates.io. The surface is deliberately tiny — the only
//! JSON this workspace produces is flat experiment-report structs — and
//! the writer enforces one invariant serde does not: **non-finite
//! floats are a hard error**, because a `NaN` in a results file means a
//! broken experiment, not a value to be silently passed along.
//!
//! Struct impls are one line via [`impl_to_json!`](crate::impl_to_json):
//!
//! ```
//! use neuspin_core::{impl_to_json, json::ToJson};
//!
//! struct Row { name: String, accuracy: f64 }
//! impl_to_json!(Row { name, accuracy });
//!
//! let json = Row { name: "spindrop".into(), accuracy: 0.91 }.to_json().to_string();
//! assert_eq!(json, r#"{"name":"spindrop","accuracy":0.91}"#);
//! ```

use std::fmt::Write as _;

/// A JSON value tree.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map): the
/// output of a report is stable, diffable, and ordered the way the
/// struct declares its fields.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty serialization (two-space indent), mirroring what
    /// `serde_json::to_string_pretty` produced for the results files.
    /// Compact (no-whitespace) serialization is `to_string()`, provided
    /// by the [`std::fmt::Display`] impl below.
    ///
    /// # Panics
    ///
    /// Panics if the tree contains a non-finite number — results files
    /// must never carry `NaN`/`Inf` (which raw JSON cannot represent
    /// anyway).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, "[", "]", items, |out, item, ind, d| {
                item.write(out, ind, d);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, "{", "}", pairs, |out, (k, v), ind, d| {
                write_escaped(out, k);
                out.push(':');
                if ind.is_some() {
                    out.push(' ');
                }
                v.write(out, ind, d);
            }),
        }
    }
}

/// Compact serialization (no whitespace); also the source of
/// `Json::to_string()`. Panics on non-finite numbers like
/// [`Json::to_string_pretty`].
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: &str,
    close: &str,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, Option<usize>, usize),
) {
    out.push_str(open);
    if items.is_empty() {
        out.push_str(close);
        return;
    }
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(out, item, indent, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push_str(close);
}

/// The no-NaN/no-Inf guard: every float that reaches a results file
/// goes through here.
fn write_number(out: &mut String, x: f64) {
    assert!(
        x.is_finite(),
        "refusing to serialize non-finite number {x}: a NaN/Inf in a results file is a broken experiment"
    );
    // Rust's shortest-roundtrip Display is valid JSON for finite floats
    // (integral values print without an exponent or trailing ".0").
    let _ = write!(out, "{x}");
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse error, with byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document (used by the round-trip tests and any tool
/// that wants to read the results files back).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not produced by our writer;
                            // map them to the replacement character.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape.
                    // Both stop bytes are ASCII, so the run ends on a
                    // char boundary of the (already valid) input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    s.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // JSON has no infinities and the writer never emits one: a
        // literal past f64's range is refused, not read as ±inf.
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            Ok(_) => Err(self.err(format!("number '{text}' is out of range"))),
            Err(_) => Err(self.err(format!("invalid number '{text}'"))),
        }
    }
}

/// Conversion into a [`Json`] tree — the replacement for
/// `serde::Serialize` across the workspace.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

macro_rules! impl_to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}
impl_to_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    /// Serialized as a two-element array, as serde did.
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

// --- impls for report-adjacent types from the dependency crates ---

impl ToJson for neuspin_energy::Joules {
    fn to_json(&self) -> Json {
        Json::Num(self.0)
    }
}

impl ToJson for neuspin_bayes::Method {
    /// Serialized as the variant name (`"SpinDrop"`), matching what the
    /// serde derive emitted for a unit-variant enum.
    fn to_json(&self) -> Json {
        Json::Str(format!("{self:?}"))
    }
}

crate::impl_to_json!(neuspin_cim::OpCounter {
    cell_reads,
    cell_writes,
    sa_evals,
    adc_converts,
    adc_saturations,
    rng_bits,
    sram_accesses,
    digital_ops,
});

/// Implements [`ToJson`] for a struct with named fields, keyed by the
/// field names in declaration order — the drop-in replacement for
/// `#[derive(Serialize)]`.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)),)*
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(true.to_json().to_string(), "true");
        assert_eq!(3.0f64.to_json().to_string(), "3");
        assert_eq!(0.25f64.to_json().to_string(), "0.25");
        assert_eq!(2e-6.to_json().to_string(), "0.000002");
        assert_eq!("hi".to_json().to_string(), "\"hi\"");
        assert_eq!(42u64.to_json().to_string(), "42");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!("a\"b\\c\nd".to_json().to_string(), r#""a\"b\\c\nd""#);
        assert_eq!("\u{1}".to_json().to_string(), r#""\u0001""#);
    }

    #[test]
    fn short_form_escapes_for_backspace_and_formfeed() {
        assert_eq!("\u{8}\u{c}".to_json().to_string(), r#""\b\f""#);
    }

    #[test]
    fn control_chars_round_trip() {
        // Every control character below 0x20 must survive
        // serialize → parse unchanged (telemetry span annotations and
        // trace fields flow through this path).
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let original = format!("a{c}z");
            let encoded = original.to_json().to_string();
            assert!(
                encoded.bytes().all(|b| (0x20..0x80).contains(&b)),
                "U+{code:04X} must be escaped, got {encoded:?}"
            );
            match parse(&encoded) {
                Ok(Json::Str(s)) => assert_eq!(s, original, "U+{code:04X}"),
                other => panic!("U+{code:04X}: expected string, got {other:?}"),
            }
        }
    }

    #[test]
    fn arrays_and_objects_nest() {
        let v = Json::obj([
            ("xs", vec![1.0, 2.0].to_json()),
            ("pair", ("a", 1u32).to_json()),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(v.to_string(), r#"{"xs":[1,2],"pair":["a",1],"empty":[]}"#);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Json::obj([("a", 1u8.to_json()), ("b", Json::Arr(vec![Json::Bool(true)]))]);
        assert_eq!(v.to_string_pretty(), "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_is_rejected() {
        let _ = Json::Num(f64::NAN).to_string();
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn inf_is_rejected_in_nested_position() {
        let _ = Json::obj([("x", Json::Num(f64::INFINITY))]).to_string_pretty();
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let v = Json::obj([
            ("label", "series \"A\"\n".to_json()),
            ("x", vec![0.0, 0.5, 1e-9, -3.25].to_json()),
            ("flag", Json::Bool(false)),
            ("missing", Json::Null),
            ("n", 123456u64.to_json()),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn parser_accepts_standard_document() {
        let doc = r#" { "a" : [ 1 , 2.5e3 , -4 ] , "b" : { } , "c" : "A\t" } "#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().at(1).unwrap().as_f64(), Some(2500.0));
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("c").unwrap().as_str(), Some("A\t"));
    }

    #[test]
    fn megabyte_string_parses_in_linear_time() {
        // A string body the size of the serve layer's request cap.
        let body = "a".repeat(1 << 20);
        let doc = format!("{{\"input\":\"{body}\"}}");
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(2), "1 MiB string took {took:?}");
        assert_eq!(v.get("input").and_then(Json::as_str), Some(body.as_str()));
    }

    #[test]
    fn multibyte_utf8_round_trips_around_escapes() {
        let original = "µJ → «naïve» \"中文\"\n\t🦀\\end";
        let v = Json::obj([("s", original.to_json())]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        let doc = r#""éé\n中\"🦀\\""#;
        assert_eq!(parse(doc).unwrap(), Json::Str("éé\n中\"🦀\\".to_string()));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("[1] x").is_err());
        assert!(parse("nul").is_err());
    }

    /// The writer cannot emit an infinity, so the parser must not
    /// produce one from a literal that overflows f64.
    #[test]
    fn parser_rejects_numbers_past_f64_range() {
        for text in ["1e999", "[0,-1e400]"] {
            let err = parse(text).unwrap_err();
            assert!(err.message.contains("out of range"), "{text}: {err}");
        }
        assert_eq!(parse("1e308").unwrap(), Json::Num(1e308));
    }

    #[test]
    fn macro_generates_field_order() {
        struct Demo {
            b: f64,
            a: u32,
        }
        impl_to_json!(Demo { b, a });
        let json = Demo { b: 0.5, a: 7 }.to_json().to_string();
        assert_eq!(json, r#"{"b":0.5,"a":7}"#);
    }

    #[test]
    fn option_maps_to_null() {
        let some: Option<f64> = Some(1.5);
        let none: Option<f64> = None;
        assert_eq!(some.to_json().to_string(), "1.5");
        assert_eq!(none.to_json().to_string(), "null");
    }

    #[test]
    fn op_counter_serializes_all_fields() {
        let c = neuspin_cim::OpCounter::new();
        let v = c.to_json();
        for key in ["cell_reads", "cell_writes", "sa_evals", "adc_converts", "rng_bits"] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
    }
}
