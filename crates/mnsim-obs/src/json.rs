//! A minimal JSON checker and reader (RFC 8259 grammar) so tests and
//! tools can reject malformed metric dumps — and the trace validator and
//! benchmark-comparison mode can *read* documents back — without pulling
//! in a JSON library. The two writers ([`write_json_string`],
//! [`write_json_number`]) are the workspace's one JSON encoding of
//! strings and floats: snapshots, live NDJSON, checkpoints and the serve
//! protocol all use them.

use std::fmt::Write as _;

/// A materialized JSON value (see [`parse_json`]). Object keys keep
/// insertion order; duplicate keys keep the last value on lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, widened to `f64`.
    Number(f64),
    /// A string with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members
                .iter()
                .rev()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if this is a number that
    /// round-trips exactly through `u64` (handy for the integer fields of
    /// live telemetry events: `done`, `total`, `completed`, …).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse_json`] accepts.
/// The parser recurses once per level, so the cap bounds its stack on any
/// input; every document the workspace writes nests about 5 deep.
const MAX_DEPTH: usize = 128;

/// Parses exactly one well-formed JSON value into a [`JsonValue`].
///
/// # Errors
///
/// Returns a message naming the byte offset of the first violation,
/// including arrays and objects nested deeper than 128 levels.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

/// Validates that `input` is exactly one well-formed JSON value.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first violation.
pub fn validate_json(input: &str) -> Result<(), String> {
    parse_json(input).map(|_| ())
}

/// Appends `s` as a JSON string literal: `"` and `\` escaped, `\n`,
/// `\r`, `\t` as short escapes, other control characters as `\u00XX`.
pub fn write_json_string(out: &mut String, s: &str) {
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

/// Appends `v` as a JSON number, or `null` when it is not finite.
/// `{:?}` keeps full precision and always includes a decimal point or
/// exponent, so the output parses back to the identical `f64`.
pub fn write_json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays and
/// objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::String),
        Some(b't') => parse_literal(bytes, pos, b"true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null").map(|()| JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}", pos = *pos)),
        None => Err(format!("unexpected end of input at byte {}", *pos)),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    check_depth(depth, *pos)?;
    *pos += 1; // '{'
    skip_ws(bytes, pos);
    let mut members = Vec::new();
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    check_depth(depth, *pos)?;
    *pos += 1; // '['
    skip_ws(bytes, pos);
    let mut items = Vec::new();
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

/// Refuses an array or object opened at `pos` at nesting level `depth`
/// (1 for the outermost) beyond [`MAX_DEPTH`].
fn check_depth(depth: usize, pos: usize) -> Result<(), String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    Ok(())
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening '"'
    let mut out = String::new();
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => {
                        out.push('"');
                        *pos += 1;
                    }
                    Some(b'\\') => {
                        out.push('\\');
                        *pos += 1;
                    }
                    Some(b'/') => {
                        out.push('/');
                        *pos += 1;
                    }
                    Some(b'b') => {
                        out.push('\u{8}');
                        *pos += 1;
                    }
                    Some(b'f') => {
                        out.push('\u{c}');
                        *pos += 1;
                    }
                    Some(b'n') => {
                        out.push('\n');
                        *pos += 1;
                    }
                    Some(b'r') => {
                        out.push('\r');
                        *pos += 1;
                    }
                    Some(b't') => {
                        out.push('\t');
                        *pos += 1;
                    }
                    Some(b'u') => {
                        let unit = parse_hex4(bytes, pos)?;
                        let scalar = if (0xD800..0xDC00).contains(&unit) {
                            // High surrogate: require the paired low half.
                            if bytes.get(*pos) == Some(&b'\\')
                                && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 1;
                                let low = parse_hex4(bytes, pos)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!(
                                        "unpaired surrogate before byte {}",
                                        *pos
                                    ));
                                }
                                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                return Err(format!("unpaired surrogate before byte {}", *pos));
                            }
                        } else if (0xDC00..0xE000).contains(&unit) {
                            return Err(format!("unpaired surrogate before byte {}", *pos));
                        } else {
                            unit
                        };
                        out.push(
                            char::from_u32(scalar)
                                .ok_or_else(|| format!("bad code point before byte {}", *pos))?,
                        );
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos - 1)),
                }
            }
            c if c < 0x20 => {
                return Err(format!("unescaped control byte at {}", *pos));
            }
            _ => {
                // Copy one UTF-8 code point (input is &str, so boundaries
                // are trustworthy).
                let width = utf8_width(c);
                let end = (*pos + width).min(bytes.len());
                out.push_str(std::str::from_utf8(&bytes[*pos..end]).map_err(|_| {
                    format!("invalid UTF-8 at byte {}", *pos)
                })?);
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Parses the `XXXX` of a `\u` escape; `pos` sits on the `u` on entry.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let mut unit = 0u32;
    for k in 1..=4 {
        let digit = bytes
            .get(*pos + k)
            .filter(|b| b.is_ascii_hexdigit())
            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos - 1))?;
        unit = unit * 16 + (*digit as char).to_digit(16).unwrap_or(0);
    }
    *pos += 5;
    Ok(unit)
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &[u8]) -> Result<(), String> {
    if bytes[*pos..].starts_with(literal) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = eat_digits(bytes, pos);
    if int_digits == 0 {
        return Err(format!("expected digits at byte {}", *pos));
    }
    // JSON forbids leading zeros like "01".
    if int_digits > 1 && bytes[if bytes[start] == b'-' { start + 1 } else { start }] == b'0' {
        return Err(format!("leading zero at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("expected fraction digits at byte {}", *pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("expected exponent digits at byte {}", *pos));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid number at byte {start}"))?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("unparseable number at byte {start}"))
}

fn eat_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e-3",
            "\"hi \\u00e9\"",
            r#"{"a": [1, 2, {"b": null}], "c": "x\ny", "d": 1.0e8}"#,
            " { \"k\" : [ ] } ",
        ] {
            validate_json(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn parses_values_back() {
        let doc = r#"{"a": [1, -2.5e2, {"b": null}], "c": "x\ny", "ok": true}"#;
        let value = parse_json(doc).unwrap();
        let a = value.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-250.0));
        assert_eq!(a[2].get("b"), Some(&JsonValue::Null));
        assert_eq!(value.get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(value.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(value.get("missing"), None);
        assert_eq!(value.as_object().unwrap().len(), 3);
    }

    #[test]
    fn decodes_unicode_escapes() {
        assert_eq!(
            parse_json("\"caf\\u00e9 \\ud83d\\ude00\"").unwrap(),
            JsonValue::String("café 😀".into())
        );
        assert!(parse_json("\"\\ud83d alone\"").is_err()); // unpaired surrogate
    }

    #[test]
    fn writers_escape_strings_and_round_trip_numbers() {
        let mut out = String::new();
        write_json_string(&mut out, "a\"b\\c\nd\re\tf\u{1}g");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\"");
        assert_eq!(
            parse_json(&out).unwrap().as_str(),
            Some("a\"b\\c\nd\re\tf\u{1}g")
        );

        for v in [0.0, -1.5, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300] {
            let mut out = String::new();
            write_json_number(&mut out, v);
            let parsed = parse_json(&out).unwrap().as_f64().map(f64::to_bits);
            assert_eq!(parsed, Some(v.to_bits()), "{v}");
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::new();
            write_json_number(&mut out, v);
            assert_eq!(out, "null");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1, 2",
            "01",
            "1.",
            "nul",
            "\"unterminated",
            "\"bad \\x escape\"",
            "{} extra",
            "{'single': 1}",
            "NaN",
        ] {
            assert!(validate_json(doc).is_err(), "accepted: {doc}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(validate_json(&arrays(MAX_DEPTH)).is_ok());
        let err = validate_json(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let depth = MAX_DEPTH + 1;
        let objects = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        let err = validate_json(&objects).unwrap_err();
        assert!(err.starts_with("nesting deeper"), "{err}");
    }
}
