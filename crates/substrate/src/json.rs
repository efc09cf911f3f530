//! Minimal JSON: a value type, a strict parser (also exposed as a pull
//! [`Reader`] for decoding without a tree), compact and pretty
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

use std::borrow::Cow;
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
        let mut reader = Reader::new(text);
        let value = reader.value()?;
        reader.finish()?;
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

/// A pull reader over JSON text: the one tokenizer behind
/// [`Json::parse`], exposed so a decoder can read a document straight
/// into its own types without building a [`Json`] tree.
///
/// The caller drives it by the shape it expects: [`Reader::begin_object`]
/// then [`Reader::next_key`] until `None`, [`Reader::begin_array`] then
/// [`Reader::next_item`] until `false`, and one value read
/// ([`Reader::string`], [`Reader::number`], a nested container or
/// [`Reader::skip_value`]) after each key and item. [`Reader::finish`]
/// rejects trailing text. The reader accepts exactly what
/// [`Json::parse`] accepts, including its nesting limit of 256.
///
/// ```
/// use webre_substrate::json::Reader;
///
/// let mut r = Reader::new(r#"{"n": 2, "tags": ["a", "b"], "x": {"y": null}}"#);
/// let mut tags = Vec::new();
/// r.begin_object().unwrap();
/// while let Some(key) = r.next_key().unwrap() {
///     match &*key {
///         "n" => assert_eq!(r.number().unwrap(), 2.0),
///         "tags" => {
///             r.begin_array().unwrap();
///             while r.next_item().unwrap() {
///                 tags.push(r.string().unwrap());
///             }
///         }
///         _ => r.skip_value().unwrap(),
///     }
/// }
/// r.finish().unwrap();
/// assert_eq!(tags, ["a", "b"]);
/// ```
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the next value.
    depth: usize,
    /// Whether the innermost container was just opened, so its first
    /// member or item comes without a comma.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the first value of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    /// The first byte of the next value, after whitespace: `{`, `[`,
    /// `"`, `-` or a digit, or a literal's first letter. `None` at the
    /// end of the text.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    /// Moves to the start of a value, refusing one nested too deep.
    fn start_value(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.depth >= MAX_DEPTH {
            return err("nesting too deep");
        }
        self.fresh = false;
        Ok(())
    }

    fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        self.start_value()?;
        self.expect(bracket)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
        self.fresh = false;
    }

    /// Reads the `{` opening an object.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{')
    }

    /// Reads the `[` opening an array.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[')
    }

    /// Reads the next member's key and its `:`, or the object's closing
    /// `}` (then `None`). The member's value must be read next.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            Some(b',') if !self.fresh => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if !self.fresh => {
                return err(format!("expected ',' or '}}' at byte {}", self.pos))
            }
            _ => {}
        }
        self.fresh = false;
        let key = self.string_body()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Whether another item follows in the array; `false` once its
    /// closing `]` is read. The item must be read next.
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            _ if self.fresh => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => err(format!("expected ',' or ']' at byte {}", self.pos)),
        }
    }

    /// Reads a string value, borrowed from the text when it has no
    /// escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.start_value()?;
        self.string_body()
    }

    /// Reads a number value.
    pub fn number(&mut self) -> Result<f64, JsonError> {
        self.start_value()?;
        let start = self.pos;
        if !matches!(self.bytes.get(start), Some(b) if *b == b'-' || b.is_ascii_digit()) {
            return err(format!("expected a number at byte {start}"));
        }
        let digits = |r: &mut Self| {
            while matches!(r.bytes.get(r.pos), Some(b) if b.is_ascii_digit()) {
                r.pos += 1;
            }
        };
        if self.bytes[start] == b'-' {
            self.pos += 1;
        }
        digits(self);
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            digits(self);
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => err(format!("invalid number {text:?}")),
        }
    }

    /// Reads and discards one value of any kind, checking it as
    /// [`Json::parse`] would, without allocating for it (bar escaped
    /// strings).
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip_value()?;
                }
            }
            Some(b'"') => {
                self.string()?;
            }
            Some(b't' | b'f' | b'n') => {
                self.literal()?;
            }
            _ => {
                self.number()?;
            }
        }
        Ok(())
    }

    /// Checks that only whitespace follows the last value read.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(())
    }

    /// Reads the next value as a tree.
    fn value(&mut self) -> Result<Json, JsonError> {
        self.start_value()?;
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.begin_object()?;
                let mut members = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    members.push((key.into_owned(), value));
                }
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string_body()?.into_owned())),
            Some(b't' | b'f' | b'n') => self.literal(),
            Some(b) if *b == b'-' || b.is_ascii_digit() => self.number().map(Json::Num),
            Some(b) => err(format!("unexpected {:?} at byte {}", *b as char, self.pos)),
            None => err("unexpected end of input"),
        }
    }

    fn literal(&mut self) -> Result<Json, JsonError> {
        self.start_value()?;
        for (text, value) in [
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Null),
        ] {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                return Ok(value);
            }
        }
        err(format!("invalid literal at byte {}", self.pos))
    }

    /// Reads a quoted string at the current byte.
    fn string_body(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut out: Option<String> = None;
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The run ends at an ASCII byte or the end of the text, so it
            // is whole characters.
            let run = &self.text[start..self.pos];
            let esc = match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut owned) => {
                            owned.push_str(run);
                            Cow::Owned(owned)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| JsonError("unterminated escape".into()))?;
                    self.pos += 1;
                    esc
                }
                Some(b) if *b < 0x20 => return err("raw control character in string"),
                Some(_) => unreachable!("fast path consumed plain bytes"),
                None => return err("unterminated string"),
            };
            let out = out.get_or_insert_with(String::new);
            out.push_str(run);
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
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code)
                                .ok_or_else(|| JsonError("bad surrogate pair".into()))?
                        } else {
                            return err("lone high surrogate");
                        }
                    } else if (0xDC00..0xE000).contains(&hi) {
                        return err("lone low surrogate");
                    } else {
                        char::from_u32(hi).ok_or_else(|| JsonError("bad \\u escape".into()))?
                    };
                    out.push(c);
                }
                _ => return err(format!("bad escape \\{}", esc as char)),
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
    fn skip_value_accepts_exactly_what_parse_accepts() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let mut cases: Vec<String> = [
            "{not json", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
            "{\"a\" 1}", "[1 2]", "", "  ", "\u{7}", "nul", "+1", "01x",
            "\"\\u12\"", "\"\\q\"", "\"\\ud800\"", "{\"a\":1,}", "[,1]", "{,}", ".5",
            "[1,]", "{\"a\":1 \"b\":2}", "[}", "{]", "-", "1e999",
            "null", " [true, false, null] ",
            "{\"a\": {\"b\": [1, -2.5e3, \"\\u00e9\"]}, \"a\": {}}",
            "-.5", "1.", "\"\\ud83c\\udf93\"",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        // The nesting limit: 256 containers parse, 257 do not.
        cases.extend([nest(256), nest(257)]);
        cases.extend([255, 256].map(|n| format!("{{\"k\":{}}}", nest(n))));
        for text in &cases {
            let mut reader = Reader::new(text);
            let skipped = reader.skip_value().and_then(|()| reader.finish());
            assert_eq!(skipped.is_ok(), Json::parse(text).is_ok(), "{text:?}");
        }
        assert!(Json::parse(&nest(256)).is_ok());
        assert!(Json::parse(&nest(257)).is_err());
    }

    #[test]
    fn reader_borrows_strings_without_escapes() {
        let mut r = Reader::new(r#"["plain", "esc\u0061ped", 7]"#);
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain")));
        assert!(r.next_item().unwrap());
        assert!(matches!(r.string().unwrap(), Cow::Owned(s) if s == "escaped"));
        assert!(r.next_item().unwrap());
        assert!(r.string().is_err(), "a number is not a string");
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
