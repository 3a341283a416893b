//! The workspace's one JSON reader and writer: telemetry JSONL, perf
//! baselines, and the serving wire protocol all go through it, without an
//! external JSON dependency.
//!
//! [`parse_object_bytes`] is the byte-level parser. It accepts one
//! top-level object whose values are scalars or arrays nested at most two
//! deep, and rejects everything else with a message suitable for a
//! structured error response. Input bytes carry no UTF-8 guarantee (they
//! may arrive straight off a socket), so invalid sequences are a parse
//! error, never a panic. Array element counts are bounded by a
//! caller-supplied budget so a hostile payload cannot balloon memory, and
//! non-finite numbers are rejected. [`parse_object`] adapts it to flat
//! telemetry objects of [`Value`]s. [`ObjectReader`] is the same parser
//! driven one key at a time, with typed readers that decode number
//! arrays and integer pairs without building a [`Json`] per element (the
//! serving protocol's `features` and `edges`).

use crate::event::Value;

/// Append a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
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

/// Append a JSON value to `out`. Non-finite floats become `null` (JSON has
/// no NaN/Inf).
pub fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) if f.is_finite() => out.push_str(&format_f64(*f)),
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => write_str(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Shortest `f64` formatting that round-trips through `parse` *as a
/// float*: integral values keep a `.0` suffix so the reader does not
/// reinterpret them as `Value::Int`.
fn format_f64(f: f64) -> String {
    let mut s = format!("{f}");
    if !s.contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
    // `{}` on f64 always round-trips in Rust; ensure it parses as a JSON
    // number (it never produces inf/nan here because f is finite).
    debug_assert!(s.parse::<f64>().is_ok());
    s
}

/// Parse one flat JSON object into ordered key/value pairs. `null` values
/// are dropped (they encode non-finite floats); arrays are rejected.
/// Integer-shaped numbers (no `.`, `e` or `E`) that fit an `i64` become
/// [`Value::Int`], every other number [`Value::Float`].
pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut pairs = Vec::new();
    for (key, value) in parse_object_bytes(line.as_bytes(), usize::MAX)? {
        let value = match value {
            Json::Null => continue,
            Json::Bool(b) => Value::Bool(b),
            Json::Num(_, Some(i)) => Value::Int(i),
            Json::Num(f, None) => Value::Float(f),
            Json::Str(s) => Value::Str(s),
            Json::Arr(_) => return Err("nested containers are not supported".into()),
        };
        pairs.push((key, value));
    }
    Ok(pairs)
}

/// A parsed JSON value (no nested objects).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number: its `f64` value, plus the exact `i64` when the
    /// literal is integer-shaped (no `.`, `e` or `E`) and fits one.
    Num(f64, Option<i64>),
    /// A string.
    Str(String),
    /// An array of values.
    Arr(Vec<Json>),
}

impl Json {
    /// The value as a finite non-negative integer, if it is one.
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            Json::Num(n, _) => as_uint(*n),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n, _) => Some(*n),
            _ => None,
        }
    }

    /// The value as a boolean, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Maximum array nesting the serving protocol uses (`edges: [[s,d],…]`).
const MAX_DEPTH: usize = 2;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Remaining element budget across all arrays in the document.
    budget: usize,
}

/// Parse one top-level JSON object into ordered key/value pairs.
/// `max_elements` bounds the total number of array elements accepted.
pub fn parse_object_bytes(
    bytes: &[u8],
    max_elements: usize,
) -> Result<Vec<(String, Json)>, String> {
    let mut obj = ObjectReader::new(bytes, max_elements)?;
    let mut pairs = Vec::new();
    while let Some(key) = obj.next_key()? {
        pairs.push((key, obj.value()?));
    }
    Ok(pairs)
}

/// One pass over a top-level JSON object, for callers that know the shape
/// of some values and want them decoded straight into typed buffers.
///
/// [`ObjectReader::next_key`] yields the keys in order; after each one the
/// caller reads its value with exactly one of [`ObjectReader::value`],
/// [`ObjectReader::f32_array`] or [`ObjectReader::u32_pairs`]. All three
/// are the same parser, so syntax errors, their messages and the element
/// budget are exactly those of [`parse_object_bytes`] — which is this
/// reader with [`ObjectReader::value`] for every key. The typed readers
/// report a well-formed value of the wrong shape separately from a syntax
/// error (the value has then been consumed), so the caller can defer the
/// former and let a later syntax error win.
pub struct ObjectReader<'a> {
    p: Parser<'a>,
    first: bool,
}

/// Why a well-formed value read by [`ObjectReader::f32_array`] is not an
/// array of finite `f32`s. The first offending element decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotF32Array {
    /// The value is not an array.
    NotArray,
    /// An element is not a number.
    NotNumber,
    /// An element is a finite `f64` that is not finite as an `f32`.
    NotFinite,
}

/// Why a well-formed value read by [`ObjectReader::u32_pairs`] is not a
/// list of `[u32, u32]` pairs. `TooMany` outranks the per-pair reasons,
/// of which the first offending pair decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotU32Pairs {
    /// The value is not an array.
    NotArray,
    /// The array holds this many pairs, more than the caller's limit.
    TooMany(usize),
    /// An element is not a two-element array.
    NotPair,
    /// An endpoint is not a non-negative integer (see [`Json::as_uint`]).
    NotInteger,
    /// An endpoint is an integer above `u32::MAX`.
    OutOfRange,
}

impl<'a> ObjectReader<'a> {
    /// Start reading the object in `bytes`; `max_elements` bounds the
    /// total number of array elements, as in [`parse_object_bytes`].
    pub fn new(bytes: &'a [u8], max_elements: usize) -> Result<Self, String> {
        let mut p = Parser {
            bytes,
            pos: 0,
            budget: max_elements,
        };
        p.skip_ws();
        if !p.eat(b'{') {
            return Err("expected '{' at start of request".into());
        }
        Ok(ObjectReader { p, first: true })
    }

    /// The next key, with the cursor left on its value; `None` once the
    /// closing brace and the end of the input have been checked.
    pub fn next_key(&mut self) -> Result<Option<String>, String> {
        let p = &mut self.p;
        p.skip_ws();
        // After '{' a key or '}' follows; after a value, ',' or '}'.
        let first = std::mem::take(&mut self.first);
        if first || !p.eat(b',') {
            if p.eat(b'}') {
                p.expect_end()?;
                return Ok(None);
            }
            if !first {
                return Err("expected ',' or '}' in object".into());
            }
        }
        p.skip_ws();
        let key = p.parse_string()?;
        p.skip_ws();
        if !p.eat(b':') {
            return Err(format!("expected ':' after key \"{key}\""));
        }
        p.skip_ws();
        Ok(Some(key))
    }

    /// The current value as a [`Json`].
    pub fn value(&mut self) -> Result<Json, String> {
        self.p.parse_value(0)
    }

    /// The current value decoded straight into `f32`s: each number goes
    /// through `f64` (so the bits are those of `Json::Num(x, _).0 as
    /// f32`) without building a [`Json`] per element.
    pub fn f32_array(&mut self) -> Result<Result<Vec<f32>, NotF32Array>, String> {
        let p = &mut self.p;
        if p.peek() != Some(b'[') {
            p.parse_value(0)?;
            return Ok(Err(NotF32Array::NotArray));
        }
        let mut out = Vec::new();
        let mut shape = Ok(());
        p.array(0, |p| {
            let err = if p.at_number() {
                let f = finite(p.number_text())? as f32;
                if f.is_finite() {
                    out.push(f);
                    return Ok(());
                }
                NotF32Array::NotFinite
            } else {
                p.parse_value(1)?;
                NotF32Array::NotNumber
            };
            if shape.is_ok() {
                shape = Err(err);
            }
            Ok(())
        })?;
        Ok(shape.map(|()| out))
    }

    /// The current value decoded straight into `(u32, u32)` pairs. The
    /// budget is charged as [`ObjectReader::value`] would: one element
    /// per pair plus one per endpoint. More than `max_pairs` pairs is
    /// [`NotU32Pairs::TooMany`], counted to the end of the array.
    pub fn u32_pairs(
        &mut self,
        max_pairs: usize,
    ) -> Result<Result<Vec<(u32, u32)>, NotU32Pairs>, String> {
        let p = &mut self.p;
        if p.peek() != Some(b'[') {
            p.parse_value(0)?;
            return Ok(Err(NotU32Pairs::NotArray));
        }
        let mut pairs = Vec::new();
        let mut count = 0usize;
        let mut shape = Ok(());
        p.array(0, |p| {
            count += 1;
            match p.u32_pair()? {
                Ok(pair) if shape.is_ok() && count <= max_pairs => pairs.push(pair),
                Err(err) if shape.is_ok() => shape = Err(err),
                _ => {}
            }
            Ok(())
        })?;
        if count > max_pairs {
            return Ok(Err(NotU32Pairs::TooMany(count)));
        }
        Ok(shape.map(|()| pairs))
    }
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err("trailing bytes after request object".into())
        }
    }

    /// Whether [`Parser::parse_value`] would read the value at the cursor
    /// as a number.
    fn at_number(&self) -> bool {
        !matches!(
            self.peek(),
            None | Some(b'"' | b'[' | b'{' | b't' | b'f' | b'n')
        )
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => Err("nested objects are not part of the protocol".into()),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(_) => self.parse_number(),
            None => Err("unexpected end of request".into()),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("malformed literal (expected {lit})"))
        }
    }

    /// Walk the array at the cursor (on its `[`), charging each element
    /// to the budget and calling `element` with the cursor on it.
    fn array(
        &mut self,
        depth: usize,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if depth >= MAX_DEPTH {
            return Err("arrays nested deeper than the protocol allows".into());
        }
        self.pos += 1; // consume '['
        self.skip_ws();
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            if self.budget == 0 {
                return Err("request exceeds the array element limit".into());
            }
            self.budget -= 1;
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(());
            }
            return Err("expected ',' or ']' in array".into());
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, String> {
        let mut items = Vec::new();
        self.array(depth, |p| {
            items.push(p.parse_value(depth + 1)?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    /// One element of a pair array (at depth 1): `Ok` for a `[s, d]` of
    /// `u32`s, otherwise why not. Endpoints are checked as the generic
    /// path would: pair length first, then `s`, then `d`, then range.
    fn u32_pair(&mut self) -> Result<Result<(u32, u32), NotU32Pairs>, String> {
        if self.peek() != Some(b'[') {
            self.parse_value(1)?;
            return Ok(Err(NotU32Pairs::NotPair));
        }
        let mut ends = [None; 2];
        let mut len = 0usize;
        self.array(1, |p| {
            let end = if p.at_number() {
                p.uint()?
            } else {
                p.parse_value(2)?;
                None
            };
            if let Some(slot) = ends.get_mut(len) {
                *slot = end;
            }
            len += 1;
            Ok(())
        })?;
        Ok(match (len, ends) {
            (2, [Some(s), Some(d)]) => match (u32::try_from(s), u32::try_from(d)) {
                (Ok(s), Ok(d)) => Ok((s, d)),
                _ => Err(NotU32Pairs::OutOfRange),
            },
            (2, _) => Err(NotU32Pairs::NotInteger),
            _ => Err(NotU32Pairs::NotPair),
        })
    }

    fn parse_string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err("expected string".into());
        }
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let code = self.parse_u_escape()?;
                            let c = if (0xD800..=0xDBFF).contains(&code) {
                                // High surrogate: pairs with an immediately
                                // following \uDC00–\uDFFF to form one code
                                // point beyond the BMP. Anything else leaves
                                // a lone surrogate, replaced by U+FFFD
                                // without consuming the next escape.
                                match self.peek_low_surrogate() {
                                    Some(low) => {
                                        self.pos += 6; // the "\uXXXX" just peeked
                                        let combined =
                                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                        char::from_u32(combined).unwrap_or('\u{FFFD}')
                                    }
                                    None => '\u{FFFD}',
                                }
                            } else if (0xDC00..=0xDFFF).contains(&code) {
                                // Lone low surrogate.
                                '\u{FFFD}'
                            } else {
                                char::from_u32(code).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                        }
                        _ => return Err("unknown escape sequence".into()),
                    }
                }
                _ => {
                    // Continue a raw byte run up to the next quote or
                    // escape, validated as UTF-8 here.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while self
                        .bytes
                        .get(end)
                        .is_some_and(|&c| c != b'"' && c != b'\\')
                    {
                        end += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape (the `\u` itself is already
    /// consumed), advancing past them.
    fn parse_u_escape(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
        self.pos += 4;
        Ok(code)
    }

    /// If the next six bytes are a `\uXXXX` escape encoding a low
    /// surrogate, return its code point without consuming anything.
    fn peek_low_surrogate(&self) -> Option<u32> {
        let next = self.bytes.get(self.pos..self.pos + 6)?;
        if next[0] != b'\\' || next[1] != b'u' {
            return None;
        }
        let hex = std::str::from_utf8(&next[2..6]).ok()?;
        let code = u32::from_str_radix(hex, 16).ok()?;
        (0xDC00..=0xDFFF).contains(&code).then_some(code)
    }

    /// The number literal at the cursor: every byte that can belong to
    /// one, checked only by the parse that follows.
    fn number_text(&mut self) -> &'a str {
        let bytes = self.bytes;
        let start = self.pos;
        while bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        // SAFETY: every byte taken above is ASCII, so the run is UTF-8.
        // (Validating it anyway cost a third of a number's decode.)
        unsafe { std::str::from_utf8_unchecked(&bytes[start..self.pos]) }
    }

    /// The number at the cursor as [`Json::as_uint`] reads it.
    fn uint(&mut self) -> Result<Option<u64>, String> {
        let text = self.number_text();
        // Up to ten digits is below 2^53, so the float parse would be
        // exact and can be skipped.
        if (1..=10).contains(&text.len()) && text.bytes().all(|b| b.is_ascii_digit()) {
            return Ok(Some(
                text.bytes().fold(0, |n, b| n * 10 + u64::from(b - b'0')),
            ));
        }
        Ok(as_uint(finite(text)?))
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let text = self.number_text();
        let n = finite(text)?;
        let int = if text.contains(['.', 'e', 'E']) {
            None
        } else {
            text.parse().ok()
        };
        Ok(Json::Num(n, int))
    }
}

/// A number literal's value, rejecting malformed and non-finite ones.
fn finite(text: &str) -> Result<f64, String> {
    let n: f64 = text
        .parse()
        .map_err(|_| format!("malformed number `{text}`"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number `{text}`"));
    }
    Ok(n)
}

/// `n` as a non-negative integer, if it is one that fits a `u64`.
fn as_uint(n: f64) -> Option<u64> {
    (n.fract() == 0.0 && n >= 0.0 && n <= u64::MAX as f64).then_some(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str, max_elements: usize) -> Result<Vec<(String, Json)>, String> {
        parse_object_bytes(text.as_bytes(), max_elements)
    }

    #[test]
    fn parses_flat_object() {
        let pairs =
            parse_object(r#"{"a": 1, "b": -2.5, "c": "x\ny", "d": true, "e": null}"#).unwrap();
        assert_eq!(pairs.len(), 4); // null dropped
        assert_eq!(pairs[0], ("a".into(), Value::Int(1)));
        assert_eq!(pairs[1], ("b".into(), Value::Float(-2.5)));
        assert_eq!(pairs[2], ("c".into(), Value::Str("x\ny".into())));
        assert_eq!(pairs[3], ("d".into(), Value::Bool(true)));
    }

    #[test]
    fn parses_flat_and_nested_arrays() {
        let pairs = parse(
            r#"{"op":"infer","nodes":3,"edges":[[0,1],[1,2]],"features":[1.0,-2.5,3e-2],"ok":true,"x":null}"#,
            100,
        )
        .unwrap();
        assert_eq!(pairs[0].1.as_str(), Some("infer"));
        assert_eq!(pairs[1].1.as_uint(), Some(3));
        let edges = pairs[2].1.as_arr().unwrap();
        assert_eq!(edges[1].as_arr().unwrap()[1].as_uint(), Some(2));
        let feats = pairs[3].1.as_arr().unwrap();
        assert_eq!(feats[1].as_f64(), Some(-2.5));
        assert_eq!(pairs[4].1, Json::Bool(true));
        assert_eq!(pairs[5].1, Json::Null);
    }

    #[test]
    fn number_literal_shape_picks_int_or_float() {
        // Integers beyond 2^53 stay exact on the flat path; the f64 view
        // is the correctly rounded literal.
        let pairs =
            parse_object(r#"{"a": 9007199254740993, "b": 2.0, "c": 1e2, "d": -0}"#).unwrap();
        assert_eq!(pairs[0].1, Value::Int(9_007_199_254_740_993));
        assert_eq!(pairs[1].1, Value::Float(2.0));
        assert_eq!(pairs[2].1, Value::Float(100.0));
        assert_eq!(pairs[3].1, Value::Int(0));
        let pairs = parse(r#"{"a":9007199254740993,"d":-0}"#, 0).unwrap();
        assert_eq!(pairs[0].1.as_uint(), Some(9_007_199_254_740_992));
        // `-0` keeps its sign as an f64 (feature values are bitwise).
        assert_eq!(
            pairs[1].1.as_f64().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
    }

    #[test]
    fn rejects_nested() {
        assert!(parse_object(r#"{"a": {"b": 1}}"#).is_err());
        assert!(parse_object(r#"{"a": [1]}"#).is_err());
        assert!(parse_object(r#"{"a": []}"#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_object("not json").is_err());
        assert!(parse_object(r#"{"a": 1} extra"#).is_err());
        assert!(parse_object(r#"{"a""#).is_err());
        assert!(parse_object(r#"{"a": 1e999}"#).is_err());
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",
            "{",
            r#"{"a":}"#,
            r#"{"a":1"#,
            r#"{"a":1}x"#,
            r#"{"a":[1,]}"#,
            r#"{"a":{"b":1}}"#,
            r#"{"a":[[[1]]]}"#,
            r#"{"a":1e999}"#,
            r#"{"a":nul}"#,
            r#"{"a":"unterminated}"#,
        ] {
            assert!(parse(bad, 100).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn element_budget_is_enforced() {
        assert!(parse(r#"{"a":[1,2,3,4]}"#, 4).is_ok());
        assert!(parse(r#"{"a":[1,2,3,4,5]}"#, 4).is_err());
        // Nested elements count against the same budget.
        assert!(parse(r#"{"a":[[1,2],[3,4]]}"#, 4).is_err());
    }

    #[test]
    fn typed_readers_charge_the_budget_like_the_generic_parser() {
        let doc = r#"{"e":[[0,1],[2,3],[4,5]],"f":[1,2.5,-0]}"#;
        for budget in 0..16 {
            let generic = parse(doc, budget).map(|_| ());
            let typed = (|| {
                let mut obj = ObjectReader::new(doc.as_bytes(), budget)?;
                obj.next_key()?;
                let pairs = obj.u32_pairs(3)?;
                obj.next_key()?;
                let feats = obj.f32_array()?;
                assert_eq!(obj.next_key()?, None);
                assert_eq!(pairs, Ok(vec![(0, 1), (2, 3), (4, 5)]));
                assert_eq!(feats.map(|f| f[2].to_bits()), Ok((-0.0f32).to_bits()));
                Ok::<(), String>(())
            })();
            assert_eq!(typed, generic, "budget {budget}");
        }
    }

    #[test]
    fn typed_readers_report_shape_after_consuming_the_value() {
        let mut obj =
            ObjectReader::new(br#"{"a":[1,"x",3e38,1e39],"b":[[0,1],[1],7]}"#, 99).unwrap();
        obj.next_key().unwrap();
        assert_eq!(obj.f32_array().unwrap(), Err(NotF32Array::NotNumber));
        obj.next_key().unwrap();
        assert_eq!(obj.u32_pairs(9).unwrap(), Err(NotU32Pairs::NotPair));
        assert_eq!(obj.next_key().unwrap(), None);
        let mut obj = ObjectReader::new(br#"{"b":[[0,4294967296],[0,1]]}"#, 99).unwrap();
        obj.next_key().unwrap();
        assert_eq!(obj.u32_pairs(1).unwrap(), Err(NotU32Pairs::TooMany(2)));
    }

    #[test]
    fn strings_unescape() {
        let pairs = parse(r#"{"id":"a\"b\\c\ndA"}"#, 10).unwrap();
        assert_eq!(pairs[0].1.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn unicode_escapes() {
        let pairs = parse_object(r#"{"s": "\u00e9"}"#).unwrap();
        assert_eq!(pairs[0].1, Value::Str("é".into()));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_code_point() {
        // U+1F600 (grinning face) encoded as the escaped pair
        // \uD83D\uDE00 must decode to one code point, not two U+FFFD.
        let pairs = parse(r#"{"id":"\uD83D\uDE00"}"#, 10).unwrap();
        assert_eq!(pairs[0].1.as_str(), Some("\u{1F600}"));
        // Mixed with surrounding text and a BMP escape (\u00E9 = e-acute).
        let pairs = parse(r#"{"id":"a\u00E9-\uD83D\uDE00!"}"#, 10).unwrap();
        assert_eq!(pairs[0].1.as_str(), Some("a\u{e9}-\u{1F600}!"));
    }

    #[test]
    fn lone_surrogates_become_replacement_chars() {
        // High surrogate at end of string.
        let pairs = parse(r#"{"id":"x\uD83D"}"#, 10).unwrap();
        assert_eq!(pairs[0].1.as_str(), Some("x\u{FFFD}"));
        // High surrogate followed by a non-surrogate escape: the second
        // escape must survive as its own character.
        let pairs = parse(r#"{"id":"\uD83DA"}"#, 10).unwrap();
        assert_eq!(pairs[0].1.as_str(), Some("\u{FFFD}A"));
        // Low surrogate alone.
        let pairs = parse(r#"{"id":"\uDE00y"}"#, 10).unwrap();
        assert_eq!(pairs[0].1.as_str(), Some("\u{FFFD}y"));
        // Two high surrogates in a row: two replacements.
        let pairs = parse(r#"{"id":"\uD83D\uD83D"}"#, 10).unwrap();
        assert_eq!(pairs[0].1.as_str(), Some("\u{FFFD}\u{FFFD}"));
    }

    #[test]
    fn raw_utf8_in_strings_round_trips() {
        let pairs = parse("{\"id\":\"héllo 😀 wörld\"}", 10).unwrap();
        assert_eq!(pairs[0].1.as_str(), Some("héllo 😀 wörld"));
    }

    #[test]
    fn invalid_utf8_bytes_are_a_parse_error_not_a_panic() {
        // Hostile socket bytes: a lone continuation byte, a truncated
        // multi-byte sequence, and an overlong-ish run inside the string.
        let cases: Vec<Vec<u8>> = vec![
            b"{\"id\":\"\xff\xfe\"}".to_vec(),
            b"{\"id\":\"abc\xc3\"}".to_vec(),
            b"{\"id\":\"\xe2\x28\xa1\"}".to_vec(),
            b"{\"op\":\"infer\",\"id\":\"\x80\",\"nodes\":1}".to_vec(),
        ];
        for bytes in cases {
            let err = parse_object_bytes(&bytes, 10).unwrap_err();
            assert!(err.contains("UTF-8"), "{bytes:?} -> {err}");
        }
        // Valid bytes still parse through the byte-level entry point.
        let pairs = parse_object_bytes(b"{\"id\":\"ok\"}", 10).unwrap();
        assert_eq!(pairs[0].1.as_str(), Some("ok"));
    }

    #[test]
    fn float_formatting_round_trips() {
        for &f in &[0.1f64, 1e-12, 123456.789, -0.0, 3.0] {
            let mut s = String::new();
            write_value(&mut s, &Value::Float(f));
            assert_eq!(s.parse::<f64>().unwrap(), f);
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        let mut s = String::new();
        write_value(&mut s, &Value::Float(4.0));
        assert_eq!(s, "4.0");
        let pairs = parse_object(r#"{"g": 4.0}"#).unwrap();
        assert_eq!(pairs[0].1, Value::Float(4.0));
    }
}
