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
//! telemetry objects of [`Value`]s.

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
            Json::Num(n, _) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
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
    let mut p = Parser {
        bytes,
        pos: 0,
        budget: max_elements,
    };
    p.skip_ws();
    if !p.eat(b'{') {
        return Err("expected '{' at start of request".into());
    }
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.eat(b'}') {
        p.expect_end()?;
        return Ok(pairs);
    }
    loop {
        p.skip_ws();
        let key = p.parse_string()?;
        p.skip_ws();
        if !p.eat(b':') {
            return Err(format!("expected ':' after key \"{key}\""));
        }
        p.skip_ws();
        let value = p.parse_value(0)?;
        pairs.push((key, value));
        p.skip_ws();
        if p.eat(b',') {
            continue;
        }
        if p.eat(b'}') {
            break;
        }
        return Err("expected ',' or '}' in object".into());
    }
    p.expect_end()?;
    Ok(pairs)
}

impl Parser<'_> {
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

    fn parse_value(&mut self, depth: usize) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
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

    fn parse_array(&mut self, depth: usize) -> Result<Json, String> {
        if depth >= MAX_DEPTH {
            return Err("arrays nested deeper than the protocol allows".into());
        }
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            if self.budget == 0 {
                return Err("request exceeds the array element limit".into());
            }
            self.budget -= 1;
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            return Err("expected ',' or ']' in array".into());
        }
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

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        // Only ASCII bytes were consumed above, so this cannot fail; kept
        // as a typed error rather than an unwrap for socket-byte inputs.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid UTF-8 in number")?;
        let n: f64 = text
            .parse()
            .map_err(|_| format!("malformed number `{text}`"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number `{text}`"));
        }
        let int = if text.contains(['.', 'e', 'E']) {
            None
        } else {
            text.parse().ok()
        };
        Ok(Json::Num(n, int))
    }
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
