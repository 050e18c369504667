//! Minimal, offline stand-in for the [`serde_json`] API subset this
//! workspace uses: [`to_string`], [`to_string_pretty`], [`to_writer`] and
//! [`from_str`], operating through the workspace `serde` shim's
//! [`serde::Value`] tree.
//!
//! [`serde_json`]: https://crates.io/crates/serde_json

#![deny(missing_docs)]

use std::fmt;
use std::io::{self, Write};

use serde::{Deserialize, Serialize, Value};

/// Error produced by serialisation or parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::new(e.message)
    }
}

/// Whether any of the eight bytes of `word` must be escaped inside a JSON
/// string literal: one below 0x20, a `"` or a `\`. Word-at-a-time tests
/// from "Bit Twiddling Hacks": `below(w, n)` is non-zero iff a byte of `w`
/// is below `n` (for `n` ≤ 128), so `below(w ^ pattern, 1)` finds a byte
/// equal to the pattern's.
fn word_needs_escape(word: u64) -> bool {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let below = |w: u64, n: u8| w.wrapping_sub(ONES * u64::from(n)) & !w & HIGH;
    let quote = word ^ (ONES * u64::from(b'"'));
    let backslash = word ^ (ONES * u64::from(b'\\'));
    below(word, 0x20) | below(quote, 1) | below(backslash, 1) != 0
}

/// Writes `s` as a JSON string literal. Runs of bytes that need no escape
/// are written whole, eight bytes tested at a time (base64 blobs are long
/// runs); only `"`, `\` and control characters are escaped, every other
/// byte (multi-byte UTF-8 included) passes through.
fn escape_into<W: Write + ?Sized>(out: &mut W, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    out.write_all(b"\"")?;
    let (mut run, mut at) = (0, 0);
    while at < bytes.len() {
        if let Some(word) = bytes.get(at..at + 8) {
            if !word_needs_escape(u64::from_le_bytes(word.try_into().expect("8 bytes"))) {
                at += 8;
                continue;
            }
        }
        let byte = bytes[at];
        at += 1;
        let escape: &[u8] = match byte {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => b"",
            _ => continue,
        };
        out.write_all(&bytes[run..at - 1])?;
        run = at;
        if escape.is_empty() {
            write!(out, "\\u{byte:04x}")?;
        } else {
            out.write_all(escape)?;
        }
    }
    out.write_all(&bytes[run..])?;
    out.write_all(b"\"")
}

fn write_float<W: Write + ?Sized>(out: &mut W, x: f64) -> io::Result<()> {
    if !x.is_finite() {
        // JSON has no NaN/Infinity; mirror the common lossy convention.
        out.write_all(b"null")
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Keep integral floats readable and round-trippable.
        write!(out, "{x:.1}")
    } else {
        // Rust's shortest round-trip formatting.
        write!(out, "{x}")
    }
}

/// Writes `value` as JSON straight into `out`: numbers are formatted and
/// strings escaped in place, with no temporary `String`.
fn emit<W: Write + ?Sized>(
    value: &Value,
    out: &mut W,
    pretty: bool,
    indent: usize,
) -> io::Result<()> {
    let pad = |out: &mut W, level: usize| -> io::Result<()> {
        if pretty {
            out.write_all(b"\n")?;
            for _ in 0..level {
                out.write_all(b"  ")?;
            }
        }
        Ok(())
    };
    match value {
        Value::Null => out.write_all(b"null"),
        Value::Bool(b) => out.write_all(if *b { b"true" } else { b"false" }),
        Value::Int(i) => write!(out, "{i}"),
        Value::UInt(u) => write!(out, "{u}"),
        Value::Float(x) => write_float(out, *x),
        Value::Str(s) => escape_into(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                return out.write_all(b"[]");
            }
            out.write_all(b"[")?;
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.write_all(b",")?;
                }
                pad(out, indent + 1)?;
                emit(item, out, pretty, indent + 1)?;
            }
            pad(out, indent)?;
            out.write_all(b"]")
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                return out.write_all(b"{}");
            }
            out.write_all(b"{")?;
            for (k, (key, item)) in fields.iter().enumerate() {
                if k > 0 {
                    out.write_all(b",")?;
                }
                pad(out, indent + 1)?;
                escape_into(out, key)?;
                out.write_all(if pretty { b": " } else { b":" })?;
                emit(item, out, pretty, indent + 1)?;
            }
            pad(out, indent)?;
            out.write_all(b"}")
        }
    }
}

/// Emits `value` into a fresh string.
fn emit_to_string(value: &Value, pretty: bool) -> String {
    let mut out = Vec::new();
    emit(value, &mut out, pretty, 0).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the emitter writes UTF-8")
}

/// Serialises `value` to compact JSON. A [`Value`] is emitted in place,
/// without a copy of the tree.
///
/// # Errors
///
/// Infallible for the value-tree model; the `Result` mirrors the upstream
/// signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(emit_to_string(&value.as_value(), false))
}

/// Serialises `value` to human-readable, two-space-indented JSON.
///
/// # Errors
///
/// Infallible for the value-tree model; the `Result` mirrors the upstream
/// signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(emit_to_string(&value.as_value(), true))
}

/// Serialises `value` as compact JSON straight into `writer` (a
/// `&mut Vec<u8>` appends to the vector). A [`Value`] is emitted in place,
/// without a copy of the tree.
///
/// # Errors
///
/// Returns [`Error`] when the writer fails.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<(), Error> {
    emit(&value.as_value(), &mut writer, false, 0).map_err(|e| Error::new(e.to_string()))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
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
        match self.peek() {
            Some(found) if found == b => {
                self.pos += 1;
                Ok(())
            }
            other => Err(Error::new(format!(
                "expected `{}` at byte {}, found {other:?}",
                b as char, self.pos
            ))),
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected input at byte {}: {other:?}",
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid utf-8 in number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::Int(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Value::UInt(u))
        } else {
            // Digit strings beyond integer range (e.g. f64::MAX printed in
            // full) still parse exactly as floats.
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Consume the whole contiguous run of unescaped bytes and
                    // validate it as UTF-8 once. Validating per character from
                    // `pos` to end-of-input made parsing O(n²) — a 2 MiB fleet
                    // snapshot took over a minute to read back.
                    let start = self.pos - 1;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::new("invalid utf-8 in string"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(Error::new(format!("expected `,` or `]`, found {other:?}"))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => return Err(Error::new(format!("expected `,` or `}}`, found {other:?}"))),
            }
        }
    }
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!("trailing input at byte {}", parser.pos)));
    }
    Ok(T::from_value(&value)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_and_parses_scalars() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&"a\"b".to_string()).unwrap(), "\"a\\\"b\"");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<String>("\"a\\\"b\"").unwrap(), "a\"b");
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
    }

    #[test]
    fn numbers_are_written_in_place() {
        assert_eq!(to_string(&-5i64).unwrap(), "-5");
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(to_string(&-0.5f64).unwrap(), "-0.5");
        assert_eq!(to_string(&1e15f64).unwrap(), "1000000000000000");
        assert_eq!(to_string(&1e300f64).unwrap(), format!("{}", 1e300f64));
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn escapes_only_quotes_backslashes_and_control_characters() {
        let text = "a\"b\\c\nd\re\tf\u{1}g\u{1f}\u{7f}é€😀/";
        let json = to_string(text).unwrap();
        assert_eq!(
            json,
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001f\u{7f}é€😀/\""
        );
        assert_eq!(from_str::<String>(&json).unwrap(), text);
    }

    /// The escaper against a byte-by-byte reference, with every byte class
    /// at every offset of a word.
    #[test]
    fn escaping_matches_a_char_by_char_reference() {
        fn reference(s: &str) -> String {
            let mut out = String::from("\"");
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
            out
        }
        let specials = [
            "\"", "\\", "\n", "\u{0}", "\u{1f}", " ", "\u{7f}", "é", "😀", "!", "~",
        ];
        for special in specials {
            for offset in 0..20 {
                for tail in [0, 1, 7, 8, 9, 17] {
                    let text = format!("{}{special}{}", "x".repeat(offset), "y".repeat(tail));
                    assert_eq!(
                        to_string(text.as_str()).unwrap(),
                        reference(&text),
                        "{text:?}"
                    );
                }
            }
        }
        let all: String = (0u32..0x300).filter_map(char::from_u32).collect();
        assert_eq!(to_string(all.as_str()).unwrap(), reference(&all));
    }

    #[test]
    fn a_value_tree_is_emitted_without_a_copy() {
        let tree = serde::Value::Array(vec![serde::Value::Str("x".into())]);
        assert!(matches!(tree.as_value(), std::borrow::Cow::Borrowed(_)));
        let by_ref: &serde::Value = &tree;
        assert!(matches!(
            Serialize::as_value(&by_ref),
            std::borrow::Cow::Borrowed(_)
        ));
        assert_eq!(to_string(&tree).unwrap(), "[\"x\"]");
    }

    #[test]
    fn to_writer_appends_what_to_string_returns() {
        let text = "a blob of more than sixteen bytes, then \"quotes\"\u{0}";
        let mut out = b"prefix:".to_vec();
        to_writer(&mut out, text).unwrap();
        to_writer(&mut out, &2.5f64).unwrap();
        let expected = format!("prefix:{}2.5", to_string(text).unwrap());
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }

    #[test]
    fn round_trips_nested_values() {
        let v: Vec<Option<f64>> = vec![Some(1.25), None, Some(-3.0)];
        let json = to_string(&v).unwrap();
        let back: Vec<Option<f64>> = from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_output_is_indented_and_parseable() {
        let v = serde::Value::Object(vec![
            ("name".into(), serde::Value::Str("OPTWIN".into())),
            (
                "delays".into(),
                serde::Value::Array(vec![serde::Value::Float(10.0)]),
            ),
        ]);
        let json = to_string_pretty(&v).unwrap();
        assert!(json.contains("\"name\": \"OPTWIN\""));
        assert!(json.contains('\n'));
        let back: serde::Value = from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<f64>("[1,").is_err());
        assert!(from_str::<f64>("1 2").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<f64>("{\"a\":}").is_err());
    }

    #[test]
    fn float_round_trip_precision() {
        for &x in &[0.1, 1.0 / 3.0, 1e-12, 12345.6789, f64::MAX] {
            let json = to_string(&x).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(x, back, "json = {json}");
        }
    }
}
