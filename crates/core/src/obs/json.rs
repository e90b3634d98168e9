//! A minimal recursive-descent JSON reader — just enough for CI to
//! validate emitted reports without external dependencies.
//!
//! The parser is hardened against adversarial documents: string escapes
//! cover the full `\uXXXX` range including UTF-16 surrogate pairs, and
//! nesting is bounded by [`MAX_DEPTH`] so a pathological document (ten
//! thousand open brackets) is a typed [`JsonError`] instead of a stack
//! overflow.

/// Maximum container nesting the parser accepts. Every real report in
/// this workspace nests 3 deep; 128 leaves two orders of magnitude of
/// headroom while keeping recursion far from any platform's stack limit.
pub const MAX_DEPTH: usize = 128;

/// A malformed JSON document, with the byte offset of the offence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What was wrong.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A minimal parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced for non-finite gauge values).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first malformed token.
    ///
    /// # Example
    ///
    /// ```
    /// use dlp_core::obs::Json;
    ///
    /// let v = Json::parse(r#"{"counters": {"faults": 42}}"#)?;
    /// let faults = v.get("counters").and_then(|c| c.get("faults"));
    /// assert_eq!(faults.and_then(Json::as_f64), Some(42.0));
    /// # Ok::<(), dlp_core::obs::JsonError>(())
    /// ```
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                offset: pos,
                message: "trailing content after the document",
            });
        }
        Ok(value)
    }

    /// Object member lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact non-negative integer this number holds, in any unsigned
    /// type it fits — the one integer rule of every artifact reader.
    /// Negative and fractional numbers are `None`, and so is anything
    /// above 2^53: past it `f64` no longer holds every integer, so the
    /// value written may already have been rounded.
    pub fn as_uint<T: TryFrom<u64>>(&self) -> Option<T> {
        let v = self.as_f64()?;
        if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) {
            T::try_from(v as u64).ok()
        } else {
            None
        }
    }

    /// An object with `members` in the order given.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Escapes a string as a JSON string literal (quotes included).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON value (`null` for non-finite inputs,
/// which JSON cannot represent as numbers).
pub(crate) fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `Display` omits the fraction for integral floats; keep the
        // value round-trippable as a float.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(
    bytes: &[u8],
    pos: &mut usize,
    byte: u8,
    message: &'static str,
) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError {
            offset: *pos,
            message,
        })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError {
            offset: *pos,
            message: "nesting deeper than MAX_DEPTH",
        });
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(JsonError {
            offset: *pos,
            message: "expected a JSON value",
        }),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &'static str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(JsonError {
            offset: *pos,
            message: "malformed literal",
        })
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Number)
        .ok_or(JsonError {
            offset: start,
            message: "malformed number",
        })
}

/// Reads the four hex digits of a `\uXXXX` escape (with `*pos` at the
/// `u`) and returns the code unit, advancing past the digits.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let unit = bytes
        .get(*pos + 1..*pos + 5)
        .and_then(|h| std::str::from_utf8(h).ok())
        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or(JsonError {
            offset: *pos,
            message: "malformed \\u escape",
        })?;
    *pos += 4;
    Ok(unit)
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect_byte(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(JsonError {
                    offset: *pos,
                    message: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                let escape_start = *pos;
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let unit = parse_hex4(bytes, pos)?;
                        let scalar = match unit {
                            // High surrogate: a low surrogate escape must
                            // follow; the pair combines into one scalar
                            // beyond the Basic Multilingual Plane.
                            0xD800..=0xDBFF => {
                                if bytes.get(*pos + 1) != Some(&b'\\')
                                    || bytes.get(*pos + 2) != Some(&b'u')
                                {
                                    return Err(JsonError {
                                        offset: escape_start,
                                        message: "high surrogate without a low surrogate",
                                    });
                                }
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(JsonError {
                                        offset: escape_start,
                                        message: "high surrogate without a low surrogate",
                                    });
                                }
                                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                            }
                            0xDC00..=0xDFFF => {
                                return Err(JsonError {
                                    offset: escape_start,
                                    message: "lone low surrogate",
                                })
                            }
                            unit => unit,
                        };
                        out.push(char::from_u32(scalar).ok_or(JsonError {
                            offset: escape_start,
                            message: "malformed \\u escape",
                        })?);
                    }
                    _ => {
                        return Err(JsonError {
                            offset: *pos,
                            message: "unknown escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(&byte) if byte < 0x20 => {
                return Err(JsonError {
                    offset: *pos,
                    message: "unescaped control character",
                })
            }
            Some(&byte) => {
                // Copy one UTF-8 scalar. The input came from a &str, so
                // the lead byte determines the sequence length and the
                // bytes are valid UTF-8 by construction.
                let len = utf8_len(byte);
                let chunk = bytes.get(*pos..*pos + len).ok_or(JsonError {
                    offset: *pos,
                    message: "truncated UTF-8 sequence",
                })?;
                let s = std::str::from_utf8(chunk).map_err(|_| JsonError {
                    offset: *pos,
                    message: "invalid UTF-8",
                })?;
                out.push_str(s);
                *pos += len;
            }
        }
    }
}

fn utf8_len(lead: u8) -> usize {
    if lead < 0x80 {
        1
    } else if lead < 0xE0 {
        2
    } else if lead < 0xF0 {
        3
    } else {
        4
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect_byte(bytes, pos, b'[', "expected '['")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => {
                return Err(JsonError {
                    offset: *pos,
                    message: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect_byte(bytes, pos, b'{', "expected '{'")?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':', "expected ':'")?;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            _ => {
                return Err(JsonError {
                    offset: *pos,
                    message: "expected ',' or '}'",
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_accepts_standard_documents() {
        let v = Json::parse(r#" {"a": [1, -2.5, 1e3], "b": {"c": true, "d": null}, "e": "x\ny"} "#)
            .expect("parses");
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.as_array())
                .and_then(|a| a[2].as_f64()),
            Some(1000.0)
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::String("x\ny".to_string())));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, 2",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "{\"a\": 01x}",
            "nul",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let err = Json::parse("{\"a\": ?}").expect_err("bad value");
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn unicode_escapes_cover_the_bmp() {
        assert_eq!(
            Json::parse(r#""Aé中""#),
            Ok(Json::String("Aé中".to_string()))
        );
        // Escaped and literal forms agree.
        assert_eq!(Json::parse(r#""é中""#), Ok(Json::String("é中".to_string())));
    }

    #[test]
    fn surrogate_pairs_combine_into_supplementary_scalars() {
        // U+1F600 GRINNING FACE = 😀; U+10000 = 𐀀.
        assert_eq!(
            Json::parse(r#""😀""#),
            Ok(Json::String("\u{1F600}".to_string()))
        );
        assert_eq!(
            Json::parse(r#""x𐀀y""#),
            Ok(Json::String(format!("x{}y", '\u{10000}')))
        );
        // Round-trip: a serialised astral-plane string parses back.
        let s = "emoji \u{1F600} and gothic \u{10330}";
        assert_eq!(
            Json::parse(&json_string(s)),
            Ok(Json::String(s.to_string()))
        );
    }

    #[test]
    fn lone_and_malformed_surrogates_are_rejected() {
        for bad in [
            r#""\uD83D""#,       // lone high surrogate, end of string
            r#""\uD83Dx""#,      // high surrogate followed by a plain char
            r#""\uD83D\n""#,     // high surrogate followed by another escape
            r#""\uD83D\uD83D""#, // high surrogate followed by a high surrogate
            r#""\uDC00""#,       // lone low surrogate
            r#""\uDE00\uD83D""#, // pair in the wrong order
            r#""\uD83Dé""#,      // high surrogate + non-surrogate escape
            r#""\u12G4""#,       // bad hex digit
            r#""\u123""#,        // truncated hex
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Exactly at the limit: parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok(), "depth == MAX_DEPTH must parse");
        // One past the limit: typed error, no stack overflow.
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = Json::parse(&deep).expect_err("too deep");
        assert_eq!(err.message, "nesting deeper than MAX_DEPTH");
        // An adversarial pile of brackets (far past the limit, unclosed —
        // the historical stack-overflow shape) also errors out cleanly.
        let adversarial = "[".repeat(100_000);
        assert!(Json::parse(&adversarial).is_err());
        let objects = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&objects).is_err());
        // Depth counts nesting, not sibling count: wide stays fine.
        let wide = format!("[{}1]", "1,".repeat(50_000));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn as_uint_is_exact_and_bounded() {
        let uint = |text: &str| Json::parse(text).expect("parses").as_uint::<u64>();
        assert_eq!(uint("0"), Some(0));
        assert_eq!(uint("7.0"), Some(7));
        assert_eq!(uint("9007199254740992"), Some(1 << 53));
        for rejected in ["-1", "0.5", "1e300", "18014398509481985", "\"3\"", "null"] {
            assert_eq!(uint(rejected), None, "{rejected}");
        }
        assert_eq!(
            Json::Number(256.0).as_uint::<u8>(),
            None,
            "out of the target type"
        );
    }

    #[test]
    fn json_number_formatting() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NEG_INFINITY), "null");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
