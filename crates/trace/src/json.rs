//! The one JSON writer: appends to a caller-owned byte buffer, so a sink
//! that reuses its buffer renders an event without touching the heap.
//!
//! Integers are written with hand-rolled digits; finite floats go through
//! `Display`, which is Rust's shortest round-trip form and never uses an
//! exponent; non-finite floats render as `null`. Strings are escaped a
//! run at a time: quotes, backslashes, `\n`, `\r`, `\t` get their short
//! escapes, every other control character becomes `\u00XX`, and
//! everything else (including non-ASCII UTF-8) is copied as is.

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
}
