//! Dependency-free JSON for the sdn-availability workspace.
//!
//! The build environment has no crates.io access, so instead of serde the
//! workspace (de)serializes through this small crate: a [`Json`] value
//! type, a strict parser with line/column errors, a compact and a pretty
//! printer, and [`ToJson`] / [`FromJson`] traits that model types implement
//! by hand. The wire format is byte-compatible with what the previous
//! serde derives produced (snake_case enum tags, optional fields omitted
//! when absent, defaults applied on input), so existing spec files keep
//! loading.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod schema;

pub use schema::Envelope;

use std::error::Error;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like serde_json's default).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when printing.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value of object field `name`, if this is an object containing it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of a required object field.
    ///
    /// # Errors
    ///
    /// Returns a decode error naming the missing field.
    pub fn field(&self, name: &str) -> Result<&Json, JsonError> {
        self.get(name)
            .ok_or_else(|| JsonError::decode(format!("missing field `{name}`")))
    }

    /// This value as an `f64`.
    ///
    /// # Errors
    ///
    /// Returns a decode error if this is not a number.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(type_error("number", other)),
        }
    }

    /// This value as a `u32` (rejecting fractions and out-of-range values).
    ///
    /// # Errors
    ///
    /// Returns a decode error if this is not a non-negative integer that
    /// fits in `u32`.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        let n = self.as_f64()?;
        if n.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&n) {
            return Err(JsonError::decode(format!("expected a u32, got {n}")));
        }
        Ok(n as u32)
    }

    /// This value as a `usize` (rejecting fractions, negatives and values
    /// from 2^53 up, where an `f64` no longer holds every integer, so the
    /// text `9007199254740993` would read as 2^53).
    ///
    /// # Errors
    ///
    /// Returns a decode error if this is not an integer in `[0, 2^53)`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let n = self.as_f64()?;
        if n.fract() != 0.0 || !(0.0..2f64.powi(53)).contains(&n) {
            return Err(JsonError::decode(format!(
                "expected an integer in [0, 2^53), got {n}"
            )));
        }
        Ok(n as usize)
    }

    /// This value as a `bool`.
    ///
    /// # Errors
    ///
    /// Returns a decode error if this is not a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(type_error("boolean", other)),
        }
    }

    /// This value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns a decode error if this is not a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_error("string", other)),
        }
    }

    /// This value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns a decode error if this is not an array.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(type_error("array", other)),
        }
    }

    /// This value's object fields.
    ///
    /// # Errors
    ///
    /// Returns a decode error if this is not an object.
    pub fn as_obj(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(type_error("object", other)),
        }
    }

    /// A short name for the value's type, used in error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Parses a JSON document (rejecting trailing content).
    ///
    /// # Errors
    ///
    /// Returns a parse error with line/column on malformed input.
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
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Compact rendering (no whitespace).
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    use fmt::Write as _;
    if n.is_finite() {
        if n == n.trunc() && n.abs() < 2f64.powi(53) {
            let _ = write!(out, "{}", n as i64);
        } else {
            // `{}` prints the shortest representation that round-trips.
            let _ = write!(out, "{n}");
        }
    } else {
        // JSON has no NaN/∞; serialize as null like serde_json does.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
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
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn type_error(expected: &str, got: &Json) -> JsonError {
    JsonError::decode(format!("expected {expected}, got {}", got.type_name()))
}

/// Errors from parsing or decoding JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The text is not valid JSON.
    Parse {
        /// 1-based line of the error.
        line: usize,
        /// 1-based column of the error.
        col: usize,
        /// What went wrong.
        message: String,
    },
    /// The JSON is valid but does not match the expected shape.
    Decode {
        /// Dotted path from the document root (e.g. `roles[1].processes[0]`).
        path: String,
        /// What went wrong.
        message: String,
    },
}

impl JsonError {
    /// A decode error at the current location (path filled in by callers
    /// via [`JsonError::ctx`]).
    #[must_use]
    pub fn decode(message: impl Into<String>) -> Self {
        JsonError::Decode {
            path: String::new(),
            message: message.into(),
        }
    }

    /// Prepends a path segment (field name or `[index]`) to a decode error.
    #[must_use]
    pub fn ctx(self, segment: &str) -> Self {
        match self {
            JsonError::Decode { path, message } => JsonError::Decode {
                path: if path.is_empty() {
                    segment.to_owned()
                } else if path.starts_with('[') {
                    format!("{segment}{path}")
                } else {
                    format!("{segment}.{path}")
                },
                message,
            },
            parse => parse,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse { line, col, message } => {
                write!(
                    f,
                    "JSON parse error at line {line}, column {col}: {message}"
                )
            }
            JsonError::Decode { path, message } if path.is_empty() => f.write_str(message),
            JsonError::Decode { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError::Parse {
            line,
            col,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("maximum nesting depth exceeded"));
        }
        let result = match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&other) => Err(self.error(format!("unexpected character `{}`", other as char))),
        };
        self.depth -= 1;
        result
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("invalid literal, expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let first = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(self.error(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(&b) if b < 0x20 => return Err(self.error("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 code point.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(text, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.error(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }
}

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Types that can be decoded from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decodes a value, returning a path-annotated error on mismatch.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError::Decode`] describing the first mismatch.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

/// Serializes `value` compactly.
pub fn to_string<T: ToJson>(value: &T) -> String {
    value.to_json().to_compact()
}

/// Serializes `value` with two-space indentation.
pub fn to_string_pretty<T: ToJson>(value: &T) -> String {
    value.to_json().to_pretty()
}

/// Parses and decodes a value from JSON text.
///
/// # Errors
///
/// Returns a [`JsonError`] if the text is malformed or does not match `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_f64()
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

impl FromJson for u32 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_u32()
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for usize {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_usize()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_str().map(str::to_owned)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_owned())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_arr()?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.ctx(&format!("[{i}]"))))
            .collect()
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e3").unwrap(), Json::Num(-2500.0));
        assert_eq!(
            Json::parse(r#""a\nb""#).unwrap(),
            Json::Str("a\nb".to_owned())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap(), &Json::Str("x".to_owned()));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1].get("b").unwrap(), &Json::Null);
    }

    #[test]
    fn nesting_depth_is_bounded_exactly() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        match Json::parse(&nested(MAX_DEPTH + 1)) {
            Err(JsonError::Parse { message, .. }) => assert!(message.contains("nesting depth")),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input_with_position() {
        let err = Json::parse("{\n  \"a\": ]\n}").unwrap_err();
        match err {
            JsonError::Parse { line, col, .. } => {
                assert_eq!(line, 2);
                assert!(col > 1);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_duplicates() {
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = Json::parse(r#""é😀""#).unwrap();
        assert_eq!(v, Json::Str("é😀".to_owned()));
    }

    #[test]
    fn printer_round_trips() {
        let v = Json::obj(vec![
            ("name", Json::str("x\"y")),
            ("nums", Json::Arr(vec![Json::Num(1.0), Json::Num(0.25)])),
            ("flag", Json::Bool(false)),
            ("nothing", Json::Null),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(3.0).to_compact(), "3");
        assert_eq!(Json::Num(0.9995).to_compact(), "0.9995");
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn decode_errors_carry_paths() {
        let v = Json::parse(r#"{"roles": [{"nodes": "three"}]}"#).unwrap();
        let err = v.field("roles").unwrap().as_arr().unwrap()[0]
            .field("nodes")
            .unwrap()
            .as_u32()
            .unwrap_err()
            .ctx("nodes")
            .ctx("[0]")
            .ctx("roles");
        assert_eq!(
            err.to_string(),
            "roles[0].nodes: expected number, got string"
        );
    }

    #[test]
    fn u32_decoding_rejects_fractions() {
        assert!(Json::Num(1.5).as_u32().is_err());
        assert!(Json::Num(-1.0).as_u32().is_err());
        assert_eq!(Json::Num(7.0).as_u32().unwrap(), 7);
    }

    #[test]
    fn usize_decoding_accepts_only_exact_integers() {
        assert_eq!(
            from_str::<usize>("9007199254740991").unwrap(),
            (1 << 53) - 1
        );
        // 2^53 itself, and 2^53 + 1, which parses to the same f64.
        for text in ["9007199254740992", "9007199254740993"] {
            assert!(from_str::<usize>(text).is_err(), "{text}");
        }
    }

    #[test]
    fn vec_and_option_impls() {
        let v: Vec<f64> = from_str("[1, 2.5]").unwrap();
        assert_eq!(v, vec![1.0, 2.5]);
        let o: Option<String> = from_str("null").unwrap();
        assert_eq!(o, None);
        let err = from_str::<Vec<u32>>("[1, 2.5]").unwrap_err();
        assert!(err.to_string().starts_with("[1]"), "{err}");
    }
}
