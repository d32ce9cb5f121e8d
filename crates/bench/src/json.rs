//! A minimal JSON value type for experiment output.
//!
//! The offline build cannot fetch `serde_json`, and the experiment
//! machinery only *emits* JSON (one object per table row, plus the
//! `BENCH_*.json` artifacts). This module provides exactly that: a
//! [`Value`] enum with correct serialization, convenient construction and
//! the comparison/indexing sugar the tests use — and [`Value::parse`], so
//! the artifact test can read back what the experiments committed.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (serialized like serde_json: integers without a point).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Build an empty object.
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// Insert (or replace) a key in an object. Panics on non-objects.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        let Value::Object(entries) = self else {
            panic!("insert on non-object JSON value");
        };
        let key = key.into();
        let value = value.into();
        if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            entries.push((key, value));
        }
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Parse one JSON document (surrounding whitespace allowed). The error
    /// names the byte offset it stopped at.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { text, at: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.at == text.len() {
            Ok(v)
        } else {
            Err(p.error("trailing characters"))
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.text[self.at..].starts_with(token);
        if hit {
            self.at += token.len();
        }
        hit
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {token:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .sequence("}", |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(":")?;
                    Ok((key, p.value()?))
                })
                .map(Value::Object),
            Some(b'[') => self.sequence("]", Parser::value).map(Value::Array),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ if self.eat("null") => Ok(Value::Null),
            _ => Err(self.error("expected a value")),
        }
    }

    /// The comma-separated items of an array or object, the opening bracket
    /// at the cursor.
    fn sequence<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(",")?;
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let rest = &self.text[self.at..];
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(rest.len());
        let n = rest[..len]
            .parse::<f64>()
            .map_err(|_| self.error("malformed number"))?;
        self.at += len;
        Ok(Value::Number(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            let mut rest = self.text[self.at..].chars();
            let c = rest
                .next()
                .ok_or_else(|| self.error("unterminated string"))?;
            self.at += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = rest
                        .next()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.at += esc.len_utf8();
                    out.push(match esc {
                        '"' | '\\' | '/' => esc,
                        'n' => '\n',
                        'r' => '\r',
                        't' => '\t',
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        'u' => {
                            let code = self
                                .text
                                .get(self.at..self.at + 4)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("malformed \\u escape"))?;
                            self.at += 4;
                            code
                        }
                        _ => return Err(self.error("unknown escape")),
                    });
                }
                c => out.push(c),
            }
        }
    }
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

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Number(n as f64)
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

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::String(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_round() {
        let mut v = Value::object();
        v.insert("name", "ab\"c");
        v.insert("n", 3u64);
        v.insert("rate", 1.5);
        v.insert("ok", true);
        v.insert("list", vec![1u64, 2]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"ab\"c","n":3,"rate":1.5,"ok":true,"list":[1,2]}"#
        );
    }

    #[test]
    fn indexing_and_comparisons() {
        let mut v = Value::object();
        v.insert("k", "x");
        v.insert("v", 1.5);
        assert_eq!(v["k"], "x");
        assert_eq!(v["v"], 1.5);
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let mut v = Value::object();
        v.insert("a", 1u64);
        v.insert("a", 2u64);
        assert_eq!(v["a"], 2.0);
        assert_eq!(v.to_string(), r#"{"a":2}"#);
    }

    #[test]
    fn parse_reads_back_what_display_writes() {
        let mut row = Value::object();
        row.insert("table", "E0: \"demo\"\n\u{1}µ");
        row.insert("n", 3u64);
        row.insert("rate", -1.5e-3);
        row.insert("ok", true);
        row.insert("none", Value::Null);
        row.insert("list", vec![1u64, 2]);
        row.insert("empty", Value::Array(Vec::new()));
        let doc = Value::Array(vec![row, Value::object()]);
        assert_eq!(Value::parse(&format!(" {doc}\n")), Ok(doc));
        for bad in ["", "[1,]", "{\"a\" 1}", "[1] 2", "\"open", "nul", "1.2.3"] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn control_chars_escaped() {
        let v = Value::String("a\nb\u{1}".into());
        assert_eq!(v.to_string(), "\"a\\nb\\u0001\"");
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn insert_on_scalar_panics() {
        Value::Bool(true).insert("k", 1u64);
    }
}
