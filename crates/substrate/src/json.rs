//! Minimal JSON: a value type, a strict parser, compact and pretty
//! serializers, and `ToJson`/`FromJson` conversion traits with
//! derive-like macros.
//!
//! Replaces `serde`/`serde_json` for the workspace's needs: domain files
//! authored as JSON (`webre_concepts::Domain`-style), style/content
//! model round trips, and bench output records. Conventions match what
//! serde produced for the same types, so previously-authored domain JSON
//! keeps parsing:
//!
//! * structs → objects with one member per field, in declaration order;
//! * unit enum variants → strings (`"Title"`);
//! * newtype variants → single-member objects (`{"MaxDepth": 3}`);
//! * struct variants → `{"Variant": {field: ...}}`;
//! * `Option::None` → `null`, and absent members read back as `null`.
//!
//! ```
//! use webre_substrate::json::Json;
//!
//! let v = Json::parse(r#"{"name": "price", "tags": ["a", "b"]}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Json::as_str), Some("price"));
//! assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object members preserve insertion order so serialized
/// output is deterministic and diffs stay readable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// A conversion or parse error, with enough context to locate the issue.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Builds an object value from (key, value) pairs.
    pub fn obj(members: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on objects (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
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

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses a complete JSON document (trailing non-whitespace is an
    /// error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Serializes with two-space indentation. Compact output is the
    /// `Display` form (`value.to_string()`).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0)
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes the value into any `fmt::Write` sink: compactly when
    /// `indent` is `None`, else indented `indent` spaces per level, with
    /// `level` levels already open.
    fn write<W: fmt::Write + ?Sized>(
        &self,
        out: &mut W,
        indent: Option<usize>,
        level: usize,
    ) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, level + 1)
            }),
            Json::Obj(members) => {
                write_seq(out, indent, level, '{', '}', members.len(), |out, i| {
                    write_string(out, &members[i].0)?;
                    out.write_char(':')?;
                    if indent.is_some() {
                        out.write_char(' ')?;
                    }
                    members[i].1.write(out, indent, level + 1)
                })
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None, 0)
    }
}

fn write_seq<W: fmt::Write + ?Sized>(
    out: &mut W,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut W, usize) -> fmt::Result,
) -> fmt::Result {
    out.write_char(open)?;
    if len == 0 {
        return out.write_char(close);
    }
    for i in 0..len {
        if i > 0 {
            out.write_char(',')?;
        }
        if let Some(width) = indent {
            out.write_char('\n')?;
            write_spaces(out, width * (level + 1))?;
        }
        item(out, i)?;
    }
    if let Some(width) = indent {
        out.write_char('\n')?;
        write_spaces(out, width * level)?;
    }
    out.write_char(close)
}

fn write_spaces<W: fmt::Write + ?Sized>(out: &mut W, n: usize) -> fmt::Result {
    (0..n).try_for_each(|_| out.write_char(' '))
}

/// Writes a JSON number: integral values within ±9e15 print as integers
/// (`3`, not `3.0`), others in Rust's shortest round-trip form, and
/// non-finite values as `null`. Formats in place, without allocating.
pub fn write_number<W: fmt::Write + ?Sized>(out: &mut W, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no NaN/Inf; fail safe to null like serde_json's lossy
        // modes rather than emitting unparseable output.
        out.write_str("null")
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

/// Writes `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters; runs of plain characters are copied whole.
pub fn write_string<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.write_str(&s[plain..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        plain = i + 1;
    }
    out.write_str(&s[plain..])?;
    out.write_char('"')
}

const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return err("nesting too deep");
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
            None => err("unexpected end of input"),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError("invalid utf-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return err("invalid low surrogate");
                                    }
                                    let code =
                                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| JsonError("bad surrogate pair".into()))?
                                } else {
                                    return err("lone high surrogate");
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return err("lone low surrogate");
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| JsonError("bad \\u escape".into()))?
                            };
                            out.push(c);
                        }
                        _ => return err(format!("bad escape \\{}", esc as char)),
                    }
                }
                Some(b) if b < 0x20 => return err("raw control character in string"),
                Some(_) => unreachable!("fast path consumed plain bytes"),
                None => return err("unterminated string"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
        let text =
            std::str::from_utf8(chunk).map_err(|_| JsonError("bad \\u escape".into()))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| JsonError("bad \\u escape".into()))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii number bytes");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => err(format!("invalid number {text:?}")),
        }
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(value.clone())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Str(s) => Ok(s.clone()),
            other => err(format!("expected string, got {other}")),
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_bool()
            .ok_or_else(|| JsonError(format!("expected bool, got {value}")))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_f64()
            .ok_or_else(|| JsonError(format!("expected number, got {value}")))
    }
}

macro_rules! impl_json_int {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $ty {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                let n = value
                    .as_f64()
                    .ok_or_else(|| JsonError(format!("expected number, got {value}")))?;
                if n != n.trunc() {
                    return err(format!("expected integer, got {n}"));
                }
                if n < <$ty>::MIN as f64 || n > <$ty>::MAX as f64 {
                    return err(format!("integer {n} out of range"));
                }
                Ok(n as $ty)
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => err(format!("expected array, got {other}")),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => err(format!("expected 2-element array, got {value}")),
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Obj(members) => members
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
                .collect(),
            other => err(format!("expected object, got {other}")),
        }
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct: one object member per
/// field, in declaration order; absent members read back as `null` (so
/// `Option` fields may be omitted).
///
/// ```
/// use webre_substrate::impl_json_struct;
/// use webre_substrate::json::{FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: i32, y: i32, label: Option<String> }
/// impl_json_struct!(Point { x, y, label });
///
/// let p = Point { x: 1, y: 2, label: None };
/// let back = Point::from_json(&Json::parse(&p.to_json().to_string()).unwrap()).unwrap();
/// assert_eq!(back, p);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_owned(), self.$field.to_json()),)+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                value: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                if !matches!(value, $crate::json::Json::Obj(_)) {
                    return Err($crate::json::JsonError(format!(
                        concat!("expected ", stringify!($ty), " object, got {}"),
                        value
                    )));
                }
                Ok($ty {
                    $($field: $crate::json::FromJson::from_json(
                        value.get(stringify!($field)).unwrap_or(&$crate::json::Json::Null),
                    )
                    .map_err(|e| $crate::json::JsonError(format!(
                        concat!(stringify!($ty), ".", stringify!($field), ": {}"),
                        e.0
                    )))?,)+
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a field-less enum: each variant
/// serializes as its name string (serde's externally-tagged unit-variant
/// convention).
#[macro_export]
macro_rules! impl_json_enum_unit {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $($ty::$variant => $crate::json::Json::Str(stringify!($variant).to_owned()),)+
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                value: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                match value.as_str() {
                    $(Some(stringify!($variant)) => Ok($ty::$variant),)+
                    _ => Err($crate::json::JsonError(format!(
                        concat!("unknown ", stringify!($ty), " variant {}"),
                        value
                    ))),
                }
            }
        }
    };
}

/// Serializes any [`ToJson`] value compactly (mirrors
/// `serde_json::to_string`).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// Serializes any [`ToJson`] value with indentation (mirrors
/// `serde_json::to_string_pretty`).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Parses JSON text into any [`FromJson`] type (mirrors
/// `serde_json::from_str`).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(Json::parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures_and_preserves_order() {
        let v = Json::parse(r#"{"b": [1, 2, {"c": null}], "a": "x"}"#).unwrap();
        match &v {
            Json::Obj(members) => {
                assert_eq!(members[0].0, "b");
                assert_eq!(members[1].0, "a");
            }
            other => panic!("not an object: {other:?}"),
        }
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "{not json", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
            "{\"a\" 1}", "[1 2]", "", "  ", "\u{7}", "nul", "+1", "01x",
            "\"\\u12\"", "\"\\q\"", "\"\\ud800\"", "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let cases = [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "tabs\tnewlines\nreturns\r",
            "control \u{1} \u{1f}",
            "unicode: caf\u{e9} \u{1F393} \u{4e2d}\u{6587}",
            "",
        ];
        for s in cases {
            let v = Json::Str(s.to_owned());
            let text = v.to_string();
            assert_eq!(Json::parse(&text).unwrap(), v, "via {text}");
        }
    }

    #[test]
    fn surrogate_pair_decoding() {
        assert_eq!(
            Json::parse(r#""\ud83c\udf93""#).unwrap(),
            Json::Str("\u{1F393}".to_owned())
        );
        assert!(Json::parse(r#""\ud83c""#).is_err());
        assert!(Json::parse(r#""\udf93""#).is_err());
    }

    #[test]
    fn nested_round_trip_compact_and_pretty() {
        let v = Json::obj([
            ("name", Json::Str("x".into())),
            (
                "items",
                Json::Arr(vec![
                    Json::Num(1.0),
                    Json::Arr(vec![Json::Bool(true), Json::Null]),
                    Json::obj([("deep", Json::Arr(vec![]))]),
                ]),
            ),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn integers_stay_integral_in_output() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(-41.0).to_string(), "-41");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn serialized_bytes_are_pinned() {
        let v = Json::obj([
            ("s", Json::Str("q\"b\\s\n\r\t\u{1}\u{1f} é€/".into())),
            ("n", Json::Arr(vec![Json::Num(1e16), Json::Num(-0.5), Json::Num(f64::NAN)])),
            ("e", Json::Obj(vec![])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"s":"q\"b\\s\n\r\t\u0001\u001f é€/","n":[10000000000000000,-0.5,null],"e":{}}"#
        );
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"s\": \"q\\\"b\\\\s\\n\\r\\t\\u0001\\u001f é€/\",\n  \"n\": [\n    10000000000000000,\n    -0.5,\n    null\n  ],\n  \"e\": {}\n}"
        );
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let mut text = String::new();
        for _ in 0..5000 {
            text.push('[');
        }
        assert!(Json::parse(&text).is_err());
    }

    #[test]
    fn conversion_traits_round_trip() {
        let v: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        let text = to_string(&v);
        assert_eq!(text, "[1,null,3]");
        let back: Vec<Option<u32>> = from_str(&text).unwrap();
        assert_eq!(back, v);
        assert!(from_str::<u32>("1.5").is_err());
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<i8>("1000").is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        id: u32,
        tag: Option<String>,
        items: Vec<String>,
    }
    impl_json_struct!(Demo { id, tag, items });

    #[test]
    fn struct_macro_round_trip_and_missing_optional() {
        let d = Demo {
            id: 7,
            tag: None,
            items: vec!["a".into()],
        };
        let back: Demo = from_str(&to_string(&d)).unwrap();
        assert_eq!(back, d);
        // Absent optional field reads as None; absent required errors.
        let partial: Demo = from_str(r#"{"id": 1, "items": []}"#).unwrap();
        assert_eq!(partial.tag, None);
        assert!(from_str::<Demo>(r#"{"tag": "x", "items": []}"#).is_err());
        assert!(from_str::<Demo>("[]").is_err());
    }

    #[derive(Debug, PartialEq)]
    enum Flavor {
        Sweet,
        Sour,
    }
    impl_json_enum_unit!(Flavor { Sweet, Sour });

    #[test]
    fn enum_macro_round_trip() {
        assert_eq!(to_string(&Flavor::Sour), "\"Sour\"");
        assert_eq!(from_str::<Flavor>("\"Sweet\"").unwrap(), Flavor::Sweet);
        assert!(from_str::<Flavor>("\"Bitter\"").is_err());
        assert!(from_str::<Flavor>("3").is_err());
    }
}
