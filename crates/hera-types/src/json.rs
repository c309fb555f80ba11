//! Minimal JSON tree, parser, and writer.
//!
//! The workspace builds fully offline, so dataset (de)serialization is
//! hand-rolled here instead of depending on `serde_json`. The encoding of
//! each type mirrors what `serde`'s derived implementations produced for
//! the same structs (externally tagged enums, transparent id newtypes), so
//! datasets exported by earlier builds keep parsing.

use crate::error::{HeraError, Result};
use std::fmt::Write as _;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required object key, erroring with its name if absent.
    pub fn expect(&self, key: &str) -> Result<&Json> {
        self.get(key)
            .ok_or_else(|| HeraError::Serialization(format!("missing key {key:?}")))
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(type_error("array", other)),
        }
    }

    /// The payload if this is a string.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_error("string", other)),
        }
    }

    /// The value as `u32` (ids, counters).
    pub fn as_u32(&self) -> Result<u32> {
        match self {
            Json::Int(i) => u32::try_from(*i)
                .map_err(|_| HeraError::Serialization(format!("{i} out of u32 range"))),
            other => Err(type_error("u32", other)),
        }
    }

    /// The value as `i64`.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Json::Int(i) => Ok(*i),
            other => Err(type_error("i64", other)),
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Int(i) => Ok(*i as f64),
            Json::Float(f) => Ok(*f),
            other => Err(type_error("number", other)),
        }
    }

    /// Renders compact JSON.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders pretty JSON (two-space indent).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items, |out, item| {
                item.write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_object(out, indent, depth, pairs),
        }
    }
}

/// Renders compact JSON for an object given as borrowed `(key, value)`
/// pairs: the bytes of `Json::Obj(pairs.to_vec()).to_string_compact()`,
/// without copying the tree.
pub fn compact_object(pairs: &[(String, Json)]) -> String {
    let mut out = String::new();
    write_object(&mut out, None, 0, pairs);
    out
}

fn write_object(out: &mut String, indent: Option<usize>, depth: usize, pairs: &[(String, Json)]) {
    write_seq(out, indent, depth, '{', '}', pairs, |out, (k, v)| {
        write_escaped(out, k);
        out.push(':');
        if indent.is_some() {
            out.push(' ');
        }
        v.write(out, indent, depth + 1);
    })
}

fn type_error(expected: &str, got: &Json) -> HeraError {
    let kind = match got {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Int(_) => "integer",
        Json::Float(_) => "float",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    };
    HeraError::Serialization(format!("expected {expected}, got {kind}"))
}

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        // Round-trippable and distinguishable from integers.
        if f == f.trunc() && f.abs() < 1e15 {
            let _ = write!(out, "{f:.1}");
        } else {
            let _ = write!(out, "{f}");
        }
    } else {
        // JSON has no Inf/NaN; mirror serde_json's lossy `null`.
        out.push_str("null");
    }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    if items.is_empty() {
        out.push(close);
        return;
    }
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            for _ in 0..step * (depth + 1) {
                out.push(' ');
            }
        }
        write_item(out, item);
    }
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..step * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

/// How deeply arrays and objects may nest in a parsed document. The parser
/// recurses once per level, so without a bound one line of `[`s overflows
/// the reading thread's stack, which aborts the process; every document
/// this workspace writes nests fewer than 10 levels.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document; trailing non-whitespace, or arrays and objects
/// nested more than 128 levels deep, is an error.
pub fn parse(input: &str) -> Result<Json> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> HeraError {
        HeraError::Serialization(format!("JSON parse error at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<()> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", expected as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses an array or object one level deeper, or refuses to.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.eat(b'[')?;
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
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one UTF-8 scalar. The input arrived as a
                    // `&str`, so decoding only the next scalar's bytes is
                    // enough — validating the whole remaining tail here
                    // (as `from_utf8(&bytes[pos..])` would) turns parsing
                    // quadratic in document size.
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (self.pos + len).min(self.bytes.len());
                    let c = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| self.error("invalid UTF-8"))?
                        .chars()
                        .next()
                        .ok_or_else(|| self.error("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char> {
        // self.pos is at the `u`.
        let hex4 = |p: &Self, start: usize| -> Result<u32> {
            let digits = p
                .bytes
                .get(start..start + 4)
                .ok_or_else(|| p.error("truncated \\u escape"))?;
            let s = std::str::from_utf8(digits).map_err(|_| p.error("bad \\u escape"))?;
            u32::from_str_radix(s, 16).map_err(|_| p.error("bad \\u escape"))
        };
        let hi = hex4(self, self.pos + 1)?;
        self.pos += 5;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: expect `\uXXXX` low half.
            if self.bytes.get(self.pos) != Some(&b'\\')
                || self.bytes.get(self.pos + 1) != Some(&b'u')
            {
                return Err(self.error("unpaired surrogate"));
            }
            let lo = hex4(self, self.pos + 2)?;
            self.pos += 6;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error("bad low surrogate"));
            }
            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(cp).ok_or_else(|| self.error("bad surrogate pair"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.error("bad \\u code point"))
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("bad number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for src in ["null", "true", "false", "0", "-7", "1.5", "\"hi\""] {
            let v = parse(src).unwrap();
            assert_eq!(parse(&v.to_string_compact()).unwrap(), v, "{src}");
        }
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("42.0").unwrap(), Json::Float(42.0));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn int_float_distinction_survives_write() {
        // Whole floats render with a decimal point so they parse back as
        // floats — Value::Int vs Value::Float must not collapse.
        assert_eq!(Json::Float(2.0).to_string_compact(), "2.0");
        assert_eq!(Json::Int(2).to_string_compact(), "2");
        assert_eq!(parse("2.0").unwrap(), Json::Float(2.0));
    }

    #[test]
    fn i64_extremes_are_exact() {
        for i in [i64::MIN, i64::MAX, 0, -1] {
            let v = Json::Int(i).to_string_compact();
            assert_eq!(parse(&v).unwrap(), Json::Int(i));
        }
    }

    #[test]
    fn string_escapes() {
        let s = "a\"b\\c\nd\te\u{1}–🦀";
        let json = Json::Str(s.to_string()).to_string_compact();
        assert_eq!(parse(&json).unwrap(), Json::Str(s.to_string()));
        // Classic escapes and surrogate pairs parse.
        assert_eq!(parse(r#""A🦀""#).unwrap(), Json::Str("A🦀".to_string()));
    }

    #[test]
    fn nested_structures() {
        let src = r#"{"a": [1, 2, {"b": null}], "c": {"d": [true, false]}}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("c").unwrap().get("d").unwrap().as_arr().unwrap(),
            &[Json::Bool(true), Json::Bool(false)]
        );
        // Pretty output re-parses to the same tree.
        assert_eq!(parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        match &v {
            Json::Obj(pairs) => {
                assert_eq!(pairs[0].0, "z");
                assert_eq!(pairs[1].0, "a");
            }
            _ => panic!("expected object"),
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let mut v = parse(&nest(MAX_DEPTH)).unwrap();
        for _ in 1..MAX_DEPTH {
            v = v.as_arr().unwrap()[0].clone();
        }
        assert_eq!(v, Json::Arr(Vec::new()));
        let objects = r#"{"a":"#.repeat(MAX_DEPTH - 1) + "[]" + &"}".repeat(MAX_DEPTH - 1);
        assert!(parse(&objects).is_ok());
        for deep in [nest(MAX_DEPTH + 1), "[".repeat(100_000)] {
            let err = parse(&deep).unwrap_err().to_string();
            let at = format!("at byte {MAX_DEPTH}: nested deeper than {MAX_DEPTH} levels");
            assert!(err.contains(&at), "{err}");
        }
    }

    #[test]
    fn errors_are_reported() {
        for bad in ["", "{", "[1,", "\"abc", "tru", "{\"a\" 1}", "1 2", "01x"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        let v = parse("[]").unwrap();
        assert!(v.as_str().is_err());
        assert!(v.expect("k").is_err());
    }
}
