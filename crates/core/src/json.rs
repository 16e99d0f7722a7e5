//! A minimal, dependency-free JSON value model.
//!
//! The offline build keeps the workspace's dependency graph empty, so the
//! machine-readable outputs (bench binaries, `GenerationReport`
//! serialization) and the `mosaic-service` wire protocol share this tiny
//! encoder/parser instead of `serde`. It supports the full JSON data
//! model; objects preserve insertion order so encodings are stable and
//! diffable.
//!
//! # Example
//!
//! ```
//! use photomosaic::json::Json;
//!
//! let v = Json::obj([("total", Json::from(42u64)), ("ok", Json::Bool(true))]);
//! let text = v.encode();
//! assert_eq!(text, r#"{"total":42,"ok":true}"#);
//! assert_eq!(Json::parse(&text).unwrap().get("total").unwrap().as_u64(), Some(42));
//! ```
//!
//! Strings are encoded and parsed a run at a time: a 32-byte block scan
//! finds the next byte that needs escaping (`"`, `\` or a control
//! byte) and the plain run before it is copied in one step. Wire
//! messages carry images as hex strings of up to megabytes, so string
//! runs are most of the codec's work.

use std::fmt::{self, Write as _};

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl Json {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on objects (`None` for other variants or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer (requires an exact
    /// non-negative integral value).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to compact JSON text (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse JSON text.
    ///
    /// # Errors
    /// Returns [`JsonError`] with a byte offset on malformed input,
    /// including trailing garbage after the first value.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// Width of the run scans' blocks: wide enough for the compiler to
/// vectorize the per-block test, narrow enough that a hit early in a
/// short string costs little.
const BLOCK: usize = 32;

/// Index of the first byte of `bytes` for which `hit` holds.
///
/// Whole blocks are tested branch-free (the fold vectorizes); only the
/// block that contains a hit, and the short tail, are searched byte by
/// byte.
#[inline(always)]
fn scan(bytes: &[u8], hit: impl Fn(u8) -> bool + Copy) -> Option<usize> {
    let mut blocks = bytes.chunks_exact(BLOCK);
    let mut start = 0;
    for block in &mut blocks {
        if block.iter().fold(false, |any, &b| any | hit(b)) {
            return block.iter().position(|&b| hit(b)).map(|i| start + i);
        }
        start += BLOCK;
    }
    let tail = blocks.remainder();
    tail.iter().position(|&b| hit(b)).map(|i| start + i)
}

/// Bytes a JSON string cannot hold verbatim: the quote, the backslash
/// and the control bytes. All are ASCII, so a run that stops at one
/// ends on a UTF-8 character boundary.
#[inline(always)]
fn needs_escape(b: u8) -> bool {
    (b == b'"') | (b == b'\\') | (b < 0x20)
}

/// Index of the first `\n` in `bytes`, by the same block scan the
/// string codec uses. Line framing uses it to find frame ends.
pub fn find_newline(bytes: &[u8]) -> Option<usize> {
    scan(bytes, |b| b == b'\n')
}

fn write_number(n: f64, out: &mut String) {
    // Writing to a String cannot fail, so the fmt::Result is ignored.
    if !n.is_finite() {
        // JSON has no Inf/NaN; encode as null like JavaScript's JSON.stringify.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut rest = s;
    while let Some(at) = scan(rest.as_bytes(), needs_escape) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// The per-character encoder the run-based [`write_string`] replaced,
/// kept as its test oracle.
#[cfg(test)]
fn write_string_per_char(s: &str, out: &mut String) {
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting the parser accepts. The recursive
/// descent uses the call stack, so unbounded nesting would let a hostile
/// input (`[[[[…`) overflow it; past this depth parsing fails with a
/// normal [`JsonError`] instead.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
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
            self.expect_byte(b':')?;
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let end = scan(&self.bytes[self.pos..], needs_escape)
                .map_or(self.bytes.len(), |at| self.pos + at);
            // The run starts after an ASCII byte and ends before one (or
            // at the end of the text), so both ends are char boundaries.
            out.push_str(&self.text[self.pos..end]);
            self.pos = end;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Decode the escape sequence at `pos` (which holds the backslash)
    /// onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        self.pos += 1;
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{08}'),
            Some(b'f') => out.push('\u{0C}'),
            Some(b'u') => {
                self.pos += 1;
                let first = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&first) {
                    // Surrogate pair: expect \uXXXX low half.
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(code)
                    } else {
                        return Err(self.err("unpaired surrogate"));
                    }
                } else {
                    char::from_u32(first)
                };
                return match c {
                    Some(c) => {
                        out.push(c);
                        Ok(()) // hex4 already advanced past the digits
                    }
                    None => Err(self.err("invalid unicode escape")),
                };
            }
            _ => return Err(self.err("invalid escape")),
        }
        self.pos += 1;
        Ok(())
    }

    /// The per-character string parser the run-based [`string`] replaced,
    /// kept as its test oracle.
    ///
    /// [`string`]: Parser::string
    #[cfg(test)]
    fn string_per_char(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("pos is a char boundary");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_image::testutil::XorShift;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.encode(), text);
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x","d":{"e":false}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.encode(), text);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj([("z", Json::from(1u64)), ("a", Json::from(2u64))]);
        assert_eq!(v.encode(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" back\\slash \u{1F600} \u{08}";
        let encoded = Json::Str(original.to_string()).encode();
        assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""Aé😀""#).unwrap().as_str(), Some("Aé😀"));
    }

    #[test]
    fn integers_encode_without_fraction() {
        assert_eq!(Json::from(12_345u64).encode(), "12345");
        assert_eq!(Json::Num(2.5).encode(), "2.5");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
    }

    #[test]
    fn as_u64_rejects_non_integers() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
    }

    #[test]
    fn parse_errors_carry_offsets() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = Json::parse("[1, oops]").unwrap_err();
        assert!(err.offset > 0);
        assert!(!err.message.is_empty());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok(), "100 levels stay within bounds");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.encode(), r#"{"a":[1,2]}"#);
    }

    #[test]
    fn numbers_with_exponents_parse() {
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("-2.5E-1").unwrap().as_f64(), Some(-0.25));
    }

    /// Longest generated string, in chars: runs then start, end and
    /// break on every side of the 32-byte block edges at 32 and 64.
    const MAX_FUZZ_LEN: usize = 70;

    /// A string of `len` chars mixing printable ASCII (`"` and `\`
    /// included), every escaped character, other control bytes, and 2-,
    /// 3- and 4-byte UTF-8.
    fn random_string(rng: &mut XorShift, len: usize) -> String {
        const ESCAPED: [char; 8] = ['"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0C}', '/'];
        let pick = |rng: &mut XorShift, lo: usize, hi: usize| {
            char::from_u32(rng.range(lo, hi) as u32).expect("range holds no surrogates")
        };
        (0..len)
            .map(|_| match rng.below(8) {
                0..=2 => pick(rng, 0x20, 0x7F),
                3 => ESCAPED[rng.below(ESCAPED.len())],
                4 => pick(rng, 0x00, 0x1F),
                5 => pick(rng, 0x80, 0x7FF),
                6 => pick(rng, 0x800, 0xD7FF),
                _ => pick(rng, 0x1_0000, 0x10_FFFF),
            })
            .collect()
    }

    /// Every generated string: random mixes of each length, plus plain
    /// ASCII with a single escaped byte at every position.
    fn fuzz_strings() -> Vec<String> {
        let mut rng = XorShift::new(0x15);
        let mut strings = Vec::new();
        for len in 0..=MAX_FUZZ_LEN {
            for _ in 0..16 {
                strings.push(random_string(&mut rng, len));
            }
            for at in 0..len {
                for special in ['"', '\\', '\u{1F}'] {
                    let mut plain: Vec<char> = "x".repeat(len).chars().collect();
                    plain[at] = special;
                    strings.push(plain.into_iter().collect());
                }
            }
        }
        strings
    }

    fn encode_per_char(s: &str) -> String {
        let mut out = String::new();
        write_string_per_char(s, &mut out);
        out
    }

    /// Parse one string literal at the start of `text` with both
    /// parsers; the result and the end position must agree.
    fn assert_parsers_agree(text: &str) {
        let mut fast = Parser::new(text);
        let mut oracle = Parser::new(text);
        assert_eq!(fast.string(), oracle.string_per_char(), "{text:?}");
        assert_eq!(fast.pos, oracle.pos, "{text:?}");
    }

    #[test]
    fn codec_oracle_encoder_matches_the_per_char_encoder_and_roundtrips() {
        for s in fuzz_strings() {
            let encoded = Json::Str(s.clone()).encode();
            assert_eq!(encoded, encode_per_char(&s), "{s:?}");
            assert_eq!(Json::parse(&encoded), Ok(Json::Str(s.clone())), "{s:?}");
            assert_parsers_agree(&encoded);
        }
    }

    #[test]
    fn codec_oracle_mutated_strings_parse_like_the_per_char_parser() {
        let mut rng = XorShift::new(0x1F);
        for s in fuzz_strings() {
            let encoded = encode_per_char(&s);
            let boundaries: Vec<usize> = encoded.char_indices().map(|(i, _)| i).collect();
            for &cut in &boundaries {
                assert_parsers_agree(&encoded[..cut]);
            }
            for _ in 0..4 {
                let at = boundaries[rng.below(boundaries.len())];
                let width = encoded[at..].chars().next().map_or(0, char::len_utf8);
                for flip in ["\"", "\\", "\u{1F}"] {
                    let mutated = format!("{}{flip}{}", &encoded[..at], &encoded[at + width..]);
                    assert_parsers_agree(&mutated);
                }
            }
        }
        for escape in [
            r#""😀""#,
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""é\/\b\f""#,
            r#""\u12""#,
            r#""\uzzzz""#,
            r#""\q""#,
            "\"\\",
            "\"abc",
            "x",
        ] {
            assert_parsers_agree(escape);
        }
    }

    #[test]
    fn codec_oracle_mebibyte_hex_string_matches_the_per_char_codec() {
        let mut rng = XorShift::new(0x4D);
        let hex: String = (0..1 << 20)
            .map(|_| char::from(b"0123456789abcdef"[rng.below(16)]))
            .collect();
        let encoded = Json::Str(hex.clone()).encode();
        assert_eq!(encoded, encode_per_char(&hex));
        assert_eq!(Json::parse(&encoded), Ok(Json::Str(hex)));
        assert_parsers_agree(&encoded);
    }

    #[test]
    fn codec_oracle_newline_scan_matches_a_byte_search() {
        for len in 0..=MAX_FUZZ_LEN {
            let mut bytes = vec![b'a'; len];
            assert_eq!(find_newline(&bytes), None);
            for at in (0..len).rev() {
                bytes[at] = b'\n';
                assert_eq!(find_newline(&bytes), Some(at), "len {len}");
            }
        }
    }

    #[test]
    fn codec_oracle_numbers_encode_like_the_format_encoder() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -17.0,
            2.5,
            1e300,
            -1e-7,
            9007199254740991.0,
            2f64.powi(53),
        ] {
            let expected = if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                format!("{}", n as i64)
            } else {
                format!("{n}")
            };
            assert_eq!(Json::Num(n).encode(), expected);
        }
    }
}
