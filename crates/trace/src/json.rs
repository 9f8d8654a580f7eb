//! The workspace's one JSON module: the writer every sink renders with,
//! and the reader that takes JSON from outside the program.
//!
//! The writer appends to a caller-owned byte buffer, so a sink that reuses
//! its buffer renders an event without touching the heap. Integers are
//! written with hand-rolled digits; finite floats go through `Display`,
//! which is Rust's shortest round-trip form and never uses an exponent;
//! non-finite floats render as `null`. Strings are escaped a run at a
//! time: quotes, backslashes, `\n`, `\r`, `\t` get their short escapes,
//! every other control character becomes `\u00XX`, and everything else
//! (including non-ASCII UTF-8) is copied as is.
//!
//! The reader, [`parse`], is total: any byte string yields a [`Json`] value
//! or a [`ParseError`] carrying the byte offset where reading stopped.

use crate::event::Value;
use std::io::Write;

/// `"00" "01" … "99"`: two digits per table lookup.
const PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Append the decimal digits of `v`.
pub(crate) fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + v as u8;
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append `v` in decimal, with a leading `-` when negative.
pub(crate) fn write_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Append a finite `v` in its shortest round-trip form, else `null`.
pub(crate) fn write_f64(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{v}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Append `s` as a quoted, escaped JSON string.
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut unicode = *b"\\u0000";
    let mut rest = s.as_bytes();
    out.push(b'"');
    while let Some(i) = rest
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
    {
        out.extend_from_slice(&rest[..i]);
        let b = rest[i];
        out.extend_from_slice(match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            _ => {
                unicode[4] = HEX[usize::from(b >> 4)];
                unicode[5] = HEX[usize::from(b & 0xf)];
                &unicode
            }
        });
        rest = &rest[i + 1..];
    }
    // A byte loop, not `memcpy`: field names are a few bytes long.
    out.extend(rest.iter().copied());
    out.push(b'"');
}

/// Append one field value.
pub(crate) fn write_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::U64(v) => write_u64(out, *v),
        Value::I64(v) => write_i64(out, *v),
        Value::F64(v) => write_f64(out, *v),
        Value::Bool(v) => out.extend_from_slice(if *v { b"true" } else { b"false" }),
        Value::Str(s) => write_str(out, s),
    }
}

/// The rendered buffer as a `String`. Every writer here appends UTF-8
/// (escapes are ASCII and string runs are copied from `&str`s whole), so
/// the lossy branch never runs.
pub(crate) fn into_string(out: Vec<u8>) -> String {
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// A parsed JSON value. Objects keep their members in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number with no fraction or exponent that fits an `i128`, so every
    /// `u64` and `i64` the writer emits reads back exactly.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is one that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array; else none.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The members, if this is an object; else none.
    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(members) => members,
            _ => &[],
        }
    }
}

/// Why [`parse`] stopped, and at which byte of its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was expected or wrong there.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

/// Arrays and objects nest at most this deep, so hostile input cannot
/// exhaust the stack.
const MAX_DEPTH: usize = 256;

/// Parse one JSON document (RFC 8259), surrounded by optional whitespace.
pub fn parse(text: &[u8]) -> Result<Json, ParseError> {
    let mut r = Reader { text, at: 0 };
    let value = r.value(0)?;
    r.skip_ws();
    if r.at < text.len() {
        return Err(r.error("trailing bytes after the document"));
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn error(&self, msg: &'static str) -> ParseError {
        ParseError {
            offset: self.at,
            msg,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.word(b"null", Json::Null),
            Some(b't') => self.word(b"true", Json::Bool(true)),
            Some(b'f') => self.word(b"false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(b']', |r| {
                    items.push(r.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.members(b'}', |r| {
                    r.skip_ws();
                    if r.peek() != Some(b'"') {
                        return Err(r.error("expected a string key"));
                    }
                    let key = r.string()?;
                    r.skip_ws();
                    if r.peek() != Some(b':') {
                        return Err(r.error("expected `:`"));
                    }
                    r.at += 1;
                    members.push((key, r.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(_) => Err(self.error("expected a value")),
        }
    }

    fn word(&mut self, word: &[u8], value: Json) -> Result<Json, ParseError> {
        if !self.text[self.at..].starts_with(word) {
            return Err(self.error("expected `null`, `true` or `false`"));
        }
        self.at += word.len();
        Ok(value)
    }

    /// The comma-separated members between an opening bracket (at the
    /// cursor) and `close`, each read by `member`.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.at += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            member(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b) if b == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ if close == b']' => return Err(self.error("expected `,` or `]`")),
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    /// A string, with the cursor on its opening quote.
    fn string(&mut self) -> Result<String, ParseError> {
        self.at += 1;
        let mut out = String::new();
        loop {
            let start = self.at;
            while self
                .peek()
                .is_some_and(|b| b >= 0x20 && b != b'"' && b != b'\\')
            {
                self.at += 1;
            }
            let run = std::str::from_utf8(&self.text[start..self.at]).map_err(|e| ParseError {
                offset: start + e.valid_up_to(),
                msg: "invalid UTF-8 in a string",
            })?;
            out.push_str(run);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.error("control character in a string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// One escape sequence, with the cursor on its backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let start = self.at;
        let bad = |msg| ParseError { offset: start, msg };
        self.at += 2;
        Ok(match self.text.get(start + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hi = self.hex4().ok_or(bad("bad `\\u` escape"))?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    let lo = self.low_surrogate().ok_or(bad("unpaired surrogate"))?;
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or(bad("unpaired surrogate"))?
            }
            _ => return Err(bad("bad escape")),
        })
    }

    /// The `\uXXXX` that must follow a high surrogate.
    fn low_surrogate(&mut self) -> Option<u32> {
        if self.text.get(self.at..self.at + 2)? != b"\\u" {
            return None;
        }
        self.at += 2;
        self.hex4().filter(|lo| (0xDC00..0xE000).contains(lo))
    }

    fn hex4(&mut self) -> Option<u32> {
        let digits = self.text.get(self.at..self.at + 4)?;
        let mut v = 0;
        for &d in digits {
            v = v * 16 + char::from(d).to_digit(16)?;
        }
        self.at += 4;
        Some(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        if self.peek() == Some(b'0') {
            self.at += 1;
        } else {
            self.digits()?;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.at += 1;
            self.digits()?;
            integral = false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            self.digits()?;
            integral = false;
        }
        // Every byte consumed above is ASCII.
        let text = std::str::from_utf8(&self.text[start..self.at]).unwrap_or_default();
        match text.parse::<i128>() {
            Ok(v) if integral => Ok(Json::Int(v)),
            _ => text.parse().map(Json::Num).map_err(|_| ParseError {
                offset: start,
                msg: "bad number",
            }),
        }
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), ParseError> {
        if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
            return Err(self.error("expected a digit"));
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(f: impl FnOnce(&mut Vec<u8>)) -> String {
        let mut out = Vec::new();
        f(&mut out);
        into_string(out)
    }

    #[test]
    fn integers_match_display_at_the_edges() {
        for v in [0, 1, 9, 10, 99, 100, 1_000_000, u64::MAX - 1, u64::MAX] {
            assert_eq!(render(|o| write_u64(o, v)), v.to_string());
        }
        for v in [0, -1, 1, i64::MIN, i64::MIN + 1, i64::MAX] {
            assert_eq!(render(|o| write_i64(o, v)), v.to_string());
        }
    }

    #[test]
    fn floats_are_shortest_round_trip_or_null() {
        assert_eq!(render(|o| write_f64(o, 4.25)), "4.25");
        assert_eq!(render(|o| write_f64(o, -0.0)), "-0");
        assert_eq!(render(|o| write_f64(o, 1e21)), "1000000000000000000000");
        assert_eq!(render(|o| write_f64(o, f64::NAN)), "null");
        assert_eq!(render(|o| write_f64(o, f64::NEG_INFINITY)), "null");
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(
            render(|o| write_str(o, "a\"b\\c\nd\r\t\u{1}\u{1f}\u{7f}é")),
            "\"a\\\"b\\\\c\\nd\\r\\t\\u0001\\u001f\u{7f}é\""
        );
        assert_eq!(render(|o| write_str(o, "")), "\"\"");
    }

    /// Characters the writer escapes, a BMP character and an astral one.
    const HARD: [char; 10] = [
        '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '/', 'é', '😀',
    ];

    /// One char per draw: every fourth from `HARD`, the rest any scalar.
    fn string_from(draws: &[u32]) -> String {
        draws
            .iter()
            .filter_map(|&d| match d % 4 {
                0 => Some(HARD[(d / 4) as usize % HARD.len()]),
                _ => char::from_u32(d),
            })
            .collect()
    }

    /// Fragments of JSON, for soup that gets past the first byte.
    const JSONISH: [&str; 16] = [
        "[", "]", "{", "}", "\"", ",", ":", "0", "-1.5e3", "null", "tru", "\\u", "\\", " ", "é",
        "\u{0}",
    ];

    proptest::proptest! {
        /// The reader reads back what the writer wrote: strings whatever
        /// their characters, integers exactly, finite floats to the same
        /// value, and non-finite floats as `null`.
        #[test]
        fn reader_inverts_the_writer(
            draws in proptest::collection::vec(0u32..0x11_0000, 0..24),
            ints in (0u64..=u64::MAX, i64::MIN..=i64::MAX),
            float in (0u64..=u64::MAX),
        ) {
            let text = string_from(&draws);
            let float = f64::from_bits(float);
            let mut doc = b"{\"s\":".to_vec();
            write_str(&mut doc, &text);
            doc.extend_from_slice(b", \"n\": [");
            write_u64(&mut doc, ints.0);
            doc.push(b',');
            write_i64(&mut doc, ints.1);
            doc.push(b',');
            write_f64(&mut doc, float);
            doc.extend_from_slice(b"]}\n");

            let read = parse(&doc);
            proptest::prop_assert!(read.is_ok(), "{read:?}");
            let read = read.unwrap_or(Json::Null);
            proptest::prop_assert_eq!(read.get("s").and_then(Json::as_str), Some(text.as_str()));
            let n = read.get("n").map(Json::items).unwrap_or_default();
            proptest::prop_assert_eq!(n.len(), 3);
            proptest::prop_assert_eq!(&n[0], &Json::Int(ints.0.into()));
            proptest::prop_assert_eq!(&n[1], &Json::Int(ints.1.into()));
            // `Display` writes an integral float without a fraction.
            let back = match n[2] {
                Json::Int(v) => Some(v as f64),
                Json::Num(v) => Some(v),
                _ => None,
            };
            proptest::prop_assert_eq!(back, float.is_finite().then_some(float));
            proptest::prop_assert_eq!(n[2] == Json::Null, !float.is_finite());
        }

        /// Input from outside the program cannot panic the reader, and an
        /// error never points past the input.
        #[test]
        fn reader_is_total_on_byte_soup(
            soup in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
            picks in proptest::collection::vec(0usize..JSONISH.len(), 0..24),
        ) {
            let jsonish: String = picks.iter().map(|&i| JSONISH[i]).collect();
            for bytes in [soup, jsonish.into_bytes()] {
                if let Err(e) = parse(&bytes) {
                    proptest::prop_assert!(e.offset <= bytes.len(), "{e} in {bytes:?}");
                }
            }
        }
    }

    #[test]
    fn every_strict_prefix_of_a_document_is_an_error() {
        let doc = br#"{"a": [1, -2.5e3, "x\u00e9\ud83d\ude00", true, null], "b": {}}"#;
        assert!(parse(doc).is_ok());
        for end in 0..doc.len() {
            let e = parse(&doc[..end]).err();
            assert!(e.is_some_and(|e| e.offset <= end), "prefix {end} parsed");
        }
    }

    #[test]
    fn malformed_input_reports_its_byte_offset() {
        let at = |text: &str| parse(text.as_bytes()).err().map(|e| e.offset);
        assert_eq!(at(r#"{"k": [1, 2"#), Some(11), "truncated");
        assert_eq!(at(r#"["ok", "a\qb"]"#), Some(9), "bad escape");
        assert_eq!(at(r#"["\ud800x"]"#), Some(2), "unpaired surrogate");
        assert_eq!(at("[1] x"), Some(4), "trailing bytes");
        assert_eq!(at("01"), Some(1), "leading zero");
        assert_eq!(at(&"[".repeat(MAX_DEPTH + 1)), Some(MAX_DEPTH), "too deep");
        let e = parse(b"{\"a\" 1}").err();
        assert_eq!(
            e.map(|e| e.to_string()).as_deref(),
            Some("JSON error at byte 5: expected `:`")
        );
    }
}
