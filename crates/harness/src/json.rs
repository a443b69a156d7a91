//! The workspace's one JSON codec: a strict reader with positioned
//! errors, and one writer for anything that implements [`ToJson`].
//!
//! The workspace carries no serde. Every JSON document it writes — the
//! figure tables, `BENCH_*.json`, `PARETO_*.json`, the WCET report, the
//! cost models, `asbr_tool lint --json` — is a [`Value`] built through
//! [`ToJson`] (struct rows via [`impl_to_json!`](crate::impl_to_json))
//! and rendered by [`Value::pretty`] or [`Value::compact`]; [`write`]
//! puts a document in a file. Reading is one strict recursive-descent
//! parser:
//!
//! * every error carries a 1-based **line and column**;
//! * the top-level value must be followed by nothing but whitespace —
//!   trailing garbage is rejected, not ignored;
//! * numbers keep integer precision (`i64`) when they have one.
//!
//! It parses the JSON the workspace itself emits plus hand-edited inputs
//! such as `results/area.json`: all escape sequences (including
//! `\uXXXX` surrogate pairs), nested containers with a depth limit, and
//! exponent floats.

use core::fmt;
use std::fs;
use std::num::NonZeroU32;
use std::path::Path;

use crate::error::HarnessError;

/// Containers deeper than this are rejected (stack-overflow guard for
/// adversarial inputs).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional part, within `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup, like serde's default).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (last occurrence wins); `None` for missing
    /// fields and non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object of `fields`, in the order given.
    #[must_use]
    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Renders the value as indented JSON text: two spaces per level, one
    /// field or element per line, fields in order, `[]`/`{}` for empty
    /// containers, floats in Rust's shortest round-trip form (`1.0` stays
    /// a float) and non-finite floats as `null`. No trailing newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out
    }

    /// Renders the value on one line with no whitespace between tokens;
    /// scalars as [`Value::pretty`] renders them.
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// The one writer: `depth` is the indent level of `self`, or `None`
    /// for the compact form.
    fn render(&self, out: &mut String, depth: Option<usize>) {
        /// Starts item `i` of a container whose items sit at `depth`.
        fn item(out: &mut String, i: usize, depth: Option<usize>) {
            if i > 0 {
                out.push(',');
            }
            if let Some(depth) = depth {
                out.push('\n');
                out.extend(std::iter::repeat_n("  ", depth));
            }
        }
        let inner = depth.map(|d| d + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(&b.to_string()),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => out.push_str(&format!("\"{}\"", escape(s))),
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    item(out, i, inner);
                    v.render(out, inner);
                }
                item(out, 0, depth);
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    item(out, i, inner);
                    out.push_str(&format!("\"{}\":", escape(k)));
                    if depth.is_some() {
                        out.push(' ');
                    }
                    v.render(out, inner);
                }
                item(out, 0, depth);
                out.push('}');
            }
        }
    }
}

/// Writes `doc` to `path` as [`Value::pretty`] text and a final newline,
/// creating the parent directory first.
///
/// # Errors
///
/// [`HarnessError::Write`] naming the directory or file that could not be
/// written.
pub fn write(path: impl AsRef<Path>, doc: &(impl ToJson + ?Sized)) -> Result<(), HarnessError> {
    let path = path.as_ref();
    let fail = |at: &Path, e: std::io::Error| HarnessError::Write {
        path: at.display().to_string(),
        message: e.to_string(),
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| fail(dir, e))?;
    }
    fs::write(path, doc.to_json().pretty() + "\n").map_err(|e| fail(path, e))
}

/// A type with a JSON form: how every document the workspace writes is
/// built.
pub trait ToJson {
    /// The value's JSON form.
    fn to_json(&self) -> Value;
}

/// Implements [`ToJson`] for a struct as an object of the listed fields,
/// keyed by field name in the order given. The list must name every
/// field: the expansion destructures the struct exhaustively, so a field
/// added later without being listed fails to compile.
///
/// ```
/// struct Row { workload: String, cycles: u64 }
/// asbr_harness::impl_to_json!(Row { workload, cycles });
/// # use asbr_harness::json::ToJson;
/// let row = Row { workload: "adpcm".into(), cycles: 7 };
/// assert_eq!(row.to_json().pretty(), "{\n  \"workload\": \"adpcm\",\n  \"cycles\": 7\n}");
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                let Self { $($field),+ } = self;
                $crate::json::Value::Obj(vec![
                    $((stringify!($field).to_owned(), $crate::json::ToJson::to_json($field))),+
                ])
            }
        }
    };
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        self.as_str().to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

macro_rules! int_to_json {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            /// Beyond `i64` range the value degrades to a float.
            fn to_json(&self) -> Value {
                i64::try_from(*self).map_or(Value::Float(*self as f64), Value::Int)
            }
        }
    )+};
}

int_to_json!(u32, u64, usize);

impl ToJson for NonZeroU32 {
    fn to_json(&self) -> Value {
        self.get().to_json()
    }
}

impl ToJson for f64 {
    /// Non-finite values have no JSON form and become `null`.
    fn to_json(&self) -> Value {
        if self.is_finite() {
            Value::Float(*self)
        } else {
            Value::Null
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// A parse failure at a 1-based line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offense.
    pub line: usize,
    /// 1-based column of the offense.
    pub col: usize,
    /// What was wrong there.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for HarnessError {
    fn from(e: JsonError) -> HarnessError {
        HarnessError::SpecParse { line: e.line, col: e.col, message: e.message }
    }
}

/// Parses `text` as exactly one JSON value: leading/trailing whitespace
/// is allowed, anything else after the value is an error.
///
/// # Errors
///
/// Returns the first [`JsonError`], positioned at the offending byte.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), at: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.at < p.bytes.len() {
        return Err(p.err("trailing garbage after the top-level value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.at.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError { line, col, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            return Ok(Value::Obj(fields));
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            return Ok(Value::Arr(items));
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
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
                            self.at += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            let Some(c) = c else {
                                return Err(self.err("invalid unicode escape"));
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.at += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("raw control character in string"))
                }
                Some(_) => {
                    // Copy one UTF-8 scalar; the source is a &str so the
                    // boundaries are valid by construction.
                    let rest = &self.bytes[self.at..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.at += chunk.len();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated unicode escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in unicode escape"))?;
            code = code * 16 + digit;
            self.at += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.at;
        self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            let _ = self.eat(b'+') || self.eat(b'-');
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .expect("number bytes are ASCII");
        if integral {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(format!("bad number `{text}`")))
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

/// Escapes `s` as the contents of a JSON string literal (no surrounding
/// quotes), as [`Value::pretty`] and [`Value::compact`] write strings.
/// Public for writers that stream text they cannot hold as one [`Value`].
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_harness_emits() {
        let v = parse(
            r#"{ "schema": "x", "n": 3, "neg": -7, "f": 1.5, "e": 2e3,
                "ok": true, "no": false, "nil": null,
                "arr": [1, 2, 3], "nested": {"a": [{"b": "c"}]} }"#,
        )
        .unwrap();
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Value::as_i64), Some(3));
        assert_eq!(v.get("neg").and_then(Value::as_i64), Some(-7));
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("e").and_then(Value::as_f64), Some(2000.0));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("nil"), Some(&Value::Null));
        assert_eq!(v.get("arr").and_then(Value::as_arr).map(<[Value]>::len), Some(3));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_trailing_garbage_with_position() {
        let e = parse("{\"a\": 1}\nxx").unwrap_err();
        assert_eq!((e.line, e.col), (2, 1), "{e}");
        assert!(e.message.contains("trailing garbage"));
        // A second top-level value is garbage too.
        assert!(parse("1 2").is_err());
        assert!(parse("{} {}").is_err());
        // Whitespace alone is fine.
        assert_eq!(parse(" 1 \n").unwrap(), Value::Int(1));
    }

    #[test]
    fn positions_point_at_the_offense() {
        // Line 2 is `  "a": @` — the `@` sits at column 8.
        let e = parse("{\n  \"a\": @\n}").unwrap_err();
        assert_eq!((e.line, e.col), (2, 8), "{e}");
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\ndA😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA😀"));
        assert!(parse(r#""\q""#).is_err());
        assert!(parse(r#""\uD800""#).is_err(), "lone surrogate");
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn numbers_keep_integer_precision() {
        assert_eq!(parse("9007199254740993").unwrap(), Value::Int(9_007_199_254_740_993));
        assert_eq!(parse("1.0").unwrap(), Value::Float(1.0));
        assert!(parse("1e").is_err());
    }

    #[test]
    fn depth_limit_guards_adversarial_bodies() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn pretty_matches_the_indented_layout() {
        let v = Value::Obj(vec![
            ("a".into(), vec![1u32, 2].to_json()),
            ("e".into(), Value::Arr(Vec::new())),
            ("o".into(), Value::Obj(Vec::new())),
            ("f".into(), 1.0.to_json()),
            ("s".into(), Value::Str("x\"y".into())),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"e\": [],\n  \"o\": {},\n  \"f\": 1.0,\n  \"s\": \"x\\\"y\"\n}"
        );
        assert_eq!(Value::Float(f64::NAN).pretty(), "null");
    }

    /// Every shape the figure tables' rows use survives rendering and
    /// parsing unchanged.
    #[test]
    fn pretty_round_trips_every_row_shape() {
        struct Site {
            pc: u32,
            folds: u64,
        }
        crate::impl_to_json!(Site { pc, folds });
        struct Row {
            workload: String,
            pc: u32,
            cycles: u64,
            selected: usize,
            cpi: f64,
            tiny: f64,
            nan: f64,
            inf: f64,
            buckets: [u64; 3],
            latency: (u32, u32),
            accuracy: Vec<(String, f64)>,
            sites: Vec<Site>,
        }
        crate::impl_to_json!(Row {
            workload, pc, cycles, selected, cpi, tiny, nan, inf, buckets, latency, accuracy, sites
        });
        let row = |workload: &str, cycles: u64| Row {
            workload: workload.to_owned(),
            pc: u32::MAX,
            cycles,
            selected: 16,
            cpi: 1.0,
            tiny: 1.25e-9,
            nan: f64::NAN,
            inf: f64::NEG_INFINITY,
            buckets: [0, 7, u64::from(u32::MAX) + 1],
            latency: (2, 8),
            accuracy: vec![("bi-512".to_owned(), 0.1), ("gshare \"8\"".to_owned(), 2.0 / 3.0)],
            sites: vec![Site { pc: 0x1000, folds: 3 }, Site { pc: 0x1010, folds: 0 }],
        };
        let rows = vec![row("ADPCM Encode", 25_407), row("G.721 Decode", u64::MAX)];
        let v = rows.to_json();
        assert_eq!(parse(&v.pretty()).unwrap(), v);

        let first = &v.as_arr().unwrap()[0];
        assert_eq!(first.get("cpi"), Some(&Value::Float(1.0)));
        assert_eq!(first.get("nan"), Some(&Value::Null));
        assert_eq!(first.get("inf"), Some(&Value::Null));
        assert_eq!(first.get("latency"), Some(&Value::Arr(vec![Value::Int(2), Value::Int(8)])));
    }

    #[test]
    fn escape_matches_parse() {
        let s = "a\"b\\c\nd\te\u{1}";
        let rendered = format!("\"{}\"", escape(s));
        assert_eq!(parse(&rendered).unwrap().as_str(), Some(s));
    }
}
