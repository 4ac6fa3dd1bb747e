//! A small, dependency-free JSON library for the workspace's result
//! records and observability dumps.
//!
//! [`Value`] is the document model (objects preserve insertion order so
//! written files are stable and diffable), [`Value::parse`] reads a JSON
//! document, and [`Value::pretty`] / `Display` write one back out.
//! Numbers are `f64`, which covers every counter this workspace records
//! exactly up to 2^53.

use std::fmt;

/// The deepest nesting of arrays and objects [`Value::parse`] accepts. The
/// parser recurses once per level, so the cap bounds its stack use on
/// hostile input; the workspace's own documents nest fewer than 10 deep.
pub const MAX_DEPTH: usize = 128;

/// A JSON document or fragment.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is preserved as inserted.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An empty object, for building with [`Value::insert`].
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// Inserts (or replaces) a key in an object, returning `self` for
    /// chaining.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn insert(mut self, key: impl Into<String>, value: impl Into<Value>) -> Value {
        let Value::Object(fields) = &mut self else {
            panic!("insert on non-object JSON value");
        };
        let key = key.into();
        let value = value.into();
        if let Some(slot) = fields.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            fields.push((key, value));
        }
        self
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an integer, if whole.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The key/value pairs in insertion order, if this is an object.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] on malformed input, including arrays and objects
    /// nested more than [`MAX_DEPTH`] deep.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Renders with two-space indentation and a trailing newline —
    /// suitable for writing straight to a `.json` file.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars stay on one line; nested structures
                // get one element per line.
                let nested = items
                    .iter()
                    .any(|v| matches!(v, Value::Array(_) | Value::Object(_)));
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty && nested {
                        newline_indent(out, indent + 1);
                    } else if i > 0 {
                        out.push(' ');
                    }
                    v.write(out, indent + 1, pretty);
                }
                if pretty && nested {
                    newline_indent(out, indent);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        newline_indent(out, indent + 1);
                    } else if i > 0 {
                        out.push(' ');
                    }
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1, pretty);
                }
                if pretty {
                    newline_indent(out, indent);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        f.write_str(&out)
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(items: &[T]) -> Value {
        Value::Array(items.iter().cloned().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value { Value::Number(n as f64) }
        }
    )*};
}
impl_from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A parse failure with its byte offset in the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the error was detected at.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated string")),
                _ => unreachable!(),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytes the random-bracket property draws from.
    const BRACKETS: &[u8] = b"[]{}\":,1 ";

    #[test]
    fn roundtrip_record_shape() {
        let v = Value::object()
            .insert("id", "fig08")
            .insert("title", "speedup \"4-core\"")
            .insert("columns", vec!["DSR", "ASCC"])
            .insert("values", Value::Array(vec![vec![0.05f64, 0.078].into()]))
            .insert("count", 12u64)
            .insert("flag", true)
            .insert("missing", Value::Null);
        let text = v.pretty();
        let back = Value::parse(&text).expect("parses");
        assert_eq!(back, v);
        assert_eq!(back.get("id").and_then(Value::as_str), Some("fig08"));
        assert_eq!(back.get("count").and_then(Value::as_u64), Some(12));
        let vals = back.get("values").and_then(Value::as_array).unwrap();
        let row = vals[0].as_array().unwrap();
        assert_eq!(row[1].as_f64(), Some(0.078));
    }

    #[test]
    fn integers_print_without_decimal() {
        assert_eq!(Value::Number(42.0).to_string(), "42");
        assert_eq!(Value::Number(-3.0).to_string(), "-3");
        assert_eq!(Value::Number(0.5).to_string(), "0.5");
        assert_eq!(Value::Number(f64::NAN).to_string(), "null");
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::String("a\"b\\c\nd\te\u{1}".into());
        let text = v.to_string();
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_external_whitespace_and_nesting() {
        let text = r#"
          { "a" : [ 1 , 2.5 , { "b" : null } ],
            "c" : "xAy", "d": false }
        "#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("xAy"));
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }

    /// `depth` levels of arrays and objects (`kinds[level]` picks which)
    /// around a number.
    fn nested(depth: usize, kinds: &[bool]) -> String {
        let mut doc = String::new();
        for &object in &kinds[..depth] {
            doc.push_str(if object { "{\"k\":" } else { "[" });
        }
        doc.push('1');
        for &object in kinds[..depth].iter().rev() {
            doc.push(if object { '}' } else { ']' });
        }
        doc
    }

    #[test]
    fn nesting_bombs_are_errors() {
        // Far past the default thread stack if parsed by recursion.
        for bomb in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let e = Value::parse(&bomb).unwrap_err();
            assert!(e.message.contains("nesting deeper"), "{e}");
            assert_eq!(e.offset, MAX_DEPTH * (bomb.len() / 100_000));
        }
        let kinds = [false; MAX_DEPTH + 1];
        assert!(Value::parse(&nested(MAX_DEPTH, &kinds)).is_ok());
        assert!(Value::parse(&nested(MAX_DEPTH + 1, &kinds)).is_err());
    }

    proptest! {
        #[test]
        fn nesting_is_capped_and_every_truncation_fails(
            depth in 0..=2 * MAX_DEPTH,
            kinds in prop::collection::vec(prop::bool::ANY, 2 * MAX_DEPTH),
        ) {
            let doc = nested(depth, &kinds);
            prop_assert_eq!(Value::parse(&doc).is_ok(), depth <= MAX_DEPTH);
            for cut in 0..doc.len() {
                prop_assert!(Value::parse(&doc[..cut]).is_err(), "cut at {}", cut);
            }
        }

        #[test]
        fn random_brackets_never_panic(
            picks in prop::collection::vec(0..BRACKETS.len(), 0..4 * MAX_DEPTH),
        ) {
            let text: String = picks.iter().map(|&i| BRACKETS[i] as char).collect();
            let _ = Value::parse(&text);
        }
    }

    #[test]
    fn insert_replaces_existing_key() {
        let v = Value::object().insert("k", 1u32).insert("k", 2u32);
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(2));
        let Value::Object(fields) = &v else { panic!() };
        assert_eq!(fields.len(), 1);
    }

    #[test]
    fn bool_and_entries_accessors() {
        let v = Value::object().insert("on", true).insert("n", 3u32);
        assert_eq!(v.get("on").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("n").and_then(Value::as_bool), None);
        let entries = v.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "on");
        assert_eq!(entries[1].0, "n");
        assert!(Value::Null.entries().is_none());
        assert!(Value::Bool(false).as_bool() == Some(false));
    }
}
