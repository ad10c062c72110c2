//! Offline stand-in for `serde_json`: serialises the [`serde::Value`]
//! tree of the sibling `serde` stand-in to JSON text and parses it
//! back. Supports exactly the surface this workspace uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`].
//!
//! Conventions match real serde_json where observable: object keys in
//! declaration order, non-finite floats serialised as `null`, UTF-8
//! string escapes (`\uXXXX` for control characters).

#![warn(rust_2018_idioms)]

use serde::{DeError, Deserialize, Serialize, Value};

/// Error type for both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error(e.0)
    }
}

/// Serialises `value` to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialises `value` to human-indented JSON (two spaces, like
/// serde_json's pretty writer).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some("  "), 0);
    Ok(out)
}

/// Parses JSON text and rebuilds a `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    Ok(T::from_value(&value)?)
}

// ---- writer --------------------------------------------------------

fn write_value(out: &mut String, value: &Value, indent: Option<&str>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` prints the shortest round-trippable form and
                // keeps a trailing `.0` on integral values, matching
                // serde_json's float formatting closely enough.
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null"); // serde_json convention
            }
        }
        Value::Str(s) => write_json_string(out, s),
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
                write_break(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            write_break(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_break(out, indent, depth + 1);
                write_json_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            write_break(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_break(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(unit) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(unit);
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser --------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// Deepest nesting [`from_str`] accepts. The parser recurses per
/// level, so without a bound a few hundred kilobytes of `[` overflow
/// the stack — an abort, not an error. Nothing this workspace writes
/// nests deeper than ten.
const MAX_DEPTH: usize = 128;

fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        if matches!(self.peek(), Some(b'[' | b'{')) && self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = self.value_at_depth();
        self.depth -= 1;
        value
    }

    fn value_at_depth(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid keyword"))
                }
            }
            Some(b't') => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("invalid keyword"))
                }
            }
            Some(b'f') => {
                if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid keyword"))
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    let key = match self.peek() {
                        Some(b'"') => self.string()?,
                        _ => return Err(self.err("expected object key")),
                    };
                    self.expect(b':')?;
                    let value = self.value()?;
                    entries.push((key, value));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.err("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // writer; reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid \\u code point"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Continue a UTF-8 multibyte sequence verbatim.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.err("expected number"));
        }
        if is_float {
            text.parse::<f64>().map(Value::Float).map_err(|_| self.err("invalid float"))
        } else if let Some(negative) = text.strip_prefix('-') {
            // `checked_sub_unsigned`: -2^127 is an `i128`, 2^127 is not.
            negative
                .parse::<u128>()
                .ok()
                .and_then(|u| 0i128.checked_sub_unsigned(u))
                .map(Value::Int)
                .ok_or_else(|| self.err("integer overflow"))
        } else {
            text.parse::<u128>().map(Value::UInt).map_err(|_| self.err("integer overflow"))
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_documents_are_errors_with_a_position() {
        let deep = "[".repeat(1 << 20);
        let err = from_str::<Value>(&deep).unwrap_err().to_string();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
        let nested = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        assert!(from_str::<Value>(&nested).is_ok(), "128 levels are within the bound");
        let lowest = "-170141183460469231731687303715884105728";
        assert_eq!(from_str::<i128>(lowest).unwrap(), i128::MIN);
        let err = from_str::<Value>("-170141183460469231731687303715884105729").unwrap_err();
        assert_eq!(err.to_string(), "integer overflow at byte 40");
    }

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(from_str::<i32>("-7").unwrap(), -7);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(from_str::<f64>("1.5e2").unwrap(), 150.0);
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
    }

    #[test]
    fn container_roundtrips() {
        let v = vec![Some(1u64), None, Some(3)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,null,3]");
        assert_eq!(from_str::<Vec<Option<u64>>>(&json).unwrap(), v);

        let mut m = std::collections::BTreeMap::new();
        m.insert("dropped: \"x\"\n".to_string(), 3u64);
        let json = to_string(&m).unwrap();
        let back: std::collections::BTreeMap<String, u64> = from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn pretty_output_is_indented_and_parses() {
        let v = vec![vec![1u8, 2], vec![3]];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  "));
        assert_eq!(from_str::<Vec<Vec<u8>>>(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<u32>("4x").is_err());
        assert!(from_str::<Vec<u32>>("[1,").is_err());
        assert!(from_str::<u32>("1 2").is_err());
    }

    #[test]
    fn unicode_strings_survive() {
        let s = "héllo ↦ wörld \"quoted\" \u{1}".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }
}
