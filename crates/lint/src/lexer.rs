//! Token-level lexer for the lint engine.
//!
//! Produces a flat token stream over one source file. Three properties are
//! load-bearing and property-tested (`props` below):
//!
//! - **total**: lexing arbitrary input never panics;
//! - **tiling**: token byte spans cover the input exactly, in order, with
//!   no gaps or overlaps (`t[k].end == t[k+1].start`);
//! - **classified**: comments and string/char literal *contents* become
//!   trivia or literal tokens, so a rule that matches identifier tokens can
//!   never fire on `"HashMap"` inside a string or a doc comment.
//!
//! Handled Rust surface: line comments, nested block comments, plain and
//! raw (`r#"..."#`) strings, byte strings/chars (`b"..."`, `b'x'`),
//! char-literal vs lifetime disambiguation (`'a'` vs `'a`), raw
//! identifiers (`r#match`), and numeric literals with fraction/exponent
//! (`1.5e-3`). Unterminated constructs extend to end of input instead of
//! erroring — the lexer is a measurement instrument, not a compiler front
//! end.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Whitespace run (including newlines).
    Ws,
    /// `// ...` up to (not including) the newline.
    LineComment,
    /// `/* ... */` with nesting.
    BlockComment,
    /// String literal including quotes: `"..."`, `r#"..."#`, `b"..."`.
    Str,
    /// Char or byte-char literal including quotes: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// Lifetime: `'a`, `'static`, `'_`.
    Lifetime,
    /// Numeric literal: `42`, `0xff`, `1.5e-3`, `2.0_f32`.
    Num,
    /// Identifier or keyword (including raw identifiers).
    Ident,
    /// Any single other character.
    Punct,
}

impl TokKind {
    /// Whitespace and comments — skipped by the parser and the rules.
    pub(crate) fn is_trivia(self) -> bool {
        matches!(
            self,
            TokKind::Ws | TokKind::LineComment | TokKind::BlockComment
        )
    }
}

/// One token: half-open byte span `[start, end)` plus the 1-based line its
/// first byte sits on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tok {
    pub kind: TokKind,
    pub start: usize,
    pub end: usize,
    pub line: usize,
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// Lex `src` into a complete token stream.
pub(crate) fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<(usize, char)> = src.char_indices().collect();
    let n = b.len();
    let peek = |j: usize| b.get(j).map(|&(_, c)| c);
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < n {
        let start_i = i;
        let start_line = line;
        let c = b[i].1;
        let kind = if c.is_whitespace() {
            while i < n && b[i].1.is_whitespace() {
                if b[i].1 == '\n' {
                    line += 1;
                }
                i += 1;
            }
            TokKind::Ws
        } else if c == '/' && peek(i + 1) == Some('/') {
            while i < n && b[i].1 != '\n' {
                i += 1;
            }
            TokKind::LineComment
        } else if c == '/' && peek(i + 1) == Some('*') {
            i += 2;
            let mut depth = 1u32;
            while i < n && depth > 0 {
                if b[i].1 == '/' && peek(i + 1) == Some('*') {
                    depth += 1;
                    i += 2;
                } else if b[i].1 == '*' && peek(i + 1) == Some('/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i].1 == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            TokKind::BlockComment
        } else if let Some(k) = try_raw_or_byte(&b, i, &mut line, &mut i) {
            k
        } else if c == '"' {
            i += 1;
            scan_str_body(&b, &mut i, &mut line);
            TokKind::Str
        } else if c == '\'' {
            scan_char_or_lifetime(&b, &mut i, &mut line)
        } else if c.is_ascii_digit() {
            scan_number(&b, &mut i);
            TokKind::Num
        } else if is_ident_start(c) {
            i += 1;
            while i < n && is_ident_char(b[i].1) {
                i += 1;
            }
            TokKind::Ident
        } else {
            i += 1;
            TokKind::Punct
        };
        let end = match b.get(i) {
            Some(&(off, _)) => off,
            None => src.len(),
        };
        toks.push(Tok {
            kind,
            start: b[start_i].0,
            end,
            line: start_line,
        });
    }
    toks
}

/// Raw strings (`r"..."`, `r#"..."#`), byte strings (`b"..."`, `br#"..."#`),
/// byte chars (`b'x'`), and raw identifiers (`r#match`). Returns `None` when
/// position `i` starts none of these (plain ident handling takes over).
fn try_raw_or_byte(
    b: &[(usize, char)],
    start: usize,
    line: &mut usize,
    i: &mut usize,
) -> Option<TokKind> {
    let peek = |j: usize| b.get(j).map(|&(_, c)| c);
    let c = b.get(start)?.1;
    if c != 'r' && c != 'b' {
        return None;
    }
    // b'x' byte char.
    if c == 'b' && peek(start + 1) == Some('\'') {
        *i = start + 1;
        // Reuse the char scanner on the quote; a byte char is never a
        // lifetime, but the scanner degrades safely either way.
        let _ = scan_char_or_lifetime(b, i, line);
        return Some(TokKind::Char);
    }
    // b"...": plain string body after the b.
    if c == 'b' && peek(start + 1) == Some('"') {
        *i = start + 2;
        scan_str_body(b, i, line);
        return Some(TokKind::Str);
    }
    // r"..." / r#"..."# / br#"..."#.
    let r_at = if c == 'r' {
        start
    } else if peek(start + 1) == Some('r') {
        start + 1
    } else {
        return None;
    };
    let mut j = r_at + 1;
    let mut hashes = 0usize;
    while peek(j) == Some('#') {
        hashes += 1;
        j += 1;
    }
    if peek(j) == Some('"') {
        // Raw string: scan until `"` followed by `hashes` hashes.
        *i = j + 1;
        while *i < b.len() {
            let ch = b[*i].1;
            if ch == '"' {
                let mut ok = true;
                for k in 0..hashes {
                    if peek(*i + 1 + k) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    *i += 1 + hashes;
                    return Some(TokKind::Str);
                }
            }
            if ch == '\n' {
                *line += 1;
            }
            *i += 1;
        }
        return Some(TokKind::Str); // unterminated: extends to EOF
    }
    if c == 'r' && hashes == 1 && peek(j).is_some_and(is_ident_start) {
        // Raw identifier r#match.
        *i = j + 1;
        while *i < b.len() && is_ident_char(b[*i].1) {
            *i += 1;
        }
        return Some(TokKind::Ident);
    }
    None
}

/// Scan a plain string body; `*i` is just past the opening quote on entry
/// and just past the closing quote (or at EOF) on exit.
fn scan_str_body(b: &[(usize, char)], i: &mut usize, line: &mut usize) {
    while *i < b.len() {
        match b[*i].1 {
            '\\' => {
                if b.get(*i + 1).is_some_and(|&(_, e)| e == '\n') {
                    *line += 1;
                }
                *i = (*i + 2).min(b.len());
            }
            '"' => {
                *i += 1;
                return;
            }
            ch => {
                if ch == '\n' {
                    *line += 1;
                }
                *i += 1;
            }
        }
    }
}

/// Disambiguate `'a'` (char) from `'a` (lifetime); `*i` is at the opening
/// quote on entry.
fn scan_char_or_lifetime(b: &[(usize, char)], i: &mut usize, line: &mut usize) -> TokKind {
    let peek = |j: usize| b.get(j).map(|&(_, c)| c);
    let c1 = peek(*i + 1);
    if c1 == Some('\\') {
        // Escaped char literal: consume quote, backslash, the escaped char,
        // then anything up to the closing quote.
        *i = (*i + 2).min(b.len());
        if *i < b.len() {
            if b[*i].1 == '\n' {
                *line += 1;
            }
            *i += 1;
        }
        while *i < b.len() && b[*i].1 != '\'' {
            if b[*i].1 == '\n' {
                *line += 1;
            }
            *i += 1;
        }
        if *i < b.len() {
            *i += 1;
        }
        TokKind::Char
    } else if c1.is_some() && c1 != Some('\'') && peek(*i + 2) == Some('\'') {
        // 'x' — but `'a'` where `a` could also start a lifetime is a char
        // literal precisely because the closing quote follows immediately.
        if c1 == Some('\n') {
            *line += 1;
        }
        *i += 3;
        TokKind::Char
    } else {
        // Lifetime tick: `'` + ident chars (possibly zero for stray quotes).
        *i += 1;
        while *i < b.len() && is_ident_char(b[*i].1) {
            *i += 1;
        }
        TokKind::Lifetime
    }
}

/// Scan a numeric literal starting at an ASCII digit.
fn scan_number(b: &[(usize, char)], i: &mut usize) {
    let peek = |j: usize| b.get(j).map(|&(_, c)| c);
    let is_hex = b[*i].1 == '0' && matches!(peek(*i + 1), Some('x') | Some('X'));
    *i += 1;
    while *i < b.len() {
        let ch = b[*i].1;
        if ch.is_ascii_alphanumeric() || ch == '_' {
            *i += 1;
        } else if ch == '.' && peek(*i + 1).is_some_and(|d| d.is_ascii_digit()) {
            // `1.5` continues the literal; `1..5` and `1.max(2)` do not.
            *i += 1;
        } else if (ch == '+' || ch == '-') && !is_hex && *i > 0 && matches!(b[*i - 1].1, 'e' | 'E')
        {
            // Exponent sign in `1e+5` (suppressed for hex, where `E` is a
            // digit and `-` would be subtraction).
            *i += 1;
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, src[t.start..t.end].to_string()))
            .collect()
    }

    fn assert_tiles(src: &str) {
        let toks = lex(src);
        let mut off = 0;
        for t in &toks {
            assert_eq!(t.start, off, "gap/overlap at {off} in {src:?}");
            assert!(t.end > t.start, "empty token in {src:?}");
            off = t.end;
        }
        assert_eq!(off, src.len(), "tokens do not reach EOF in {src:?}");
    }

    #[test]
    fn idents_strings_comments_classified() {
        let src = "let s = \"HashMap\"; // HashMap\n/* HashMap /* nested */ */ HashMap";
        assert_tiles(src);
        let idents: Vec<String> = kinds(src)
            .into_iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t)
            .collect();
        // Only the final bare identifier counts; string and comments do not.
        assert_eq!(idents, vec!["let", "s", "HashMap"]);
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let src = "let r = r#\"quote \" inside\"#; let k = r#match; let b = br\"x\";";
        assert_tiles(src);
        let ks = kinds(src);
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("quote")));
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "r#match"));
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Str && t == "br\"x\""));
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; let n = '\\n'; }";
        assert_tiles(src);
        let ks = kinds(src);
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Char && t == "'x'"));
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Char && t == "'\\''"));
    }

    #[test]
    fn numbers_and_floats() {
        let src = "let a = 1..5; let b = 1.5e-3; let c = 0xEE; let d = 2.0_f32;";
        assert_tiles(src);
        let nums: Vec<String> = kinds(src)
            .into_iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(nums, vec!["1", "5", "1.5e-3", "0xEE", "2.0_f32"]);
    }

    #[test]
    fn unterminated_constructs_reach_eof_without_panicking() {
        for src in ["\"abc", "/* never closed", "r#\"raw", "'", "b'", "// x"] {
            assert_tiles(src);
        }
    }

    #[test]
    fn line_numbers_track_every_multiline_token() {
        let src = "a\n\"x\ny\"\n/* c\nd */\nz";
        let toks = lex(src);
        let z = toks
            .iter()
            .find(|t| t.kind == TokKind::Ident && &src[t.start..t.end] == "z")
            .expect("z token");
        assert_eq!(z.line, 6);
    }
}

/// Property tests: total on arbitrary input, and token spans exactly tile
/// the source.
#[cfg(test)]
mod props {
    use super::lex;
    use crate::parse;
    use crate::scan::SourceFile;
    use proptest::prelude::*;

    /// Spans start at 0, are contiguous and non-empty, end at `len`, and
    /// line numbers never decrease.
    fn assert_tiles(src: &str) -> Result<(), String> {
        let toks = lex(src);
        let mut pos = 0usize;
        let mut line = 1usize;
        for t in &toks {
            if t.start != pos {
                return Err(format!(
                    "gap: token starts at {} expected {pos} in {src:?}",
                    t.start
                ));
            }
            if t.end <= t.start {
                return Err(format!("empty token at {} in {src:?}", t.start));
            }
            if t.line < line {
                return Err(format!("line went backwards at {} in {src:?}", t.start));
            }
            line = t.line;
            pos = t.end;
        }
        if pos != src.len() {
            return Err(format!(
                "coverage ends at {pos}, source is {} bytes: {src:?}",
                src.len()
            ));
        }
        // The downstream layers must be total too.
        let _ = parse::parse(src, &toks);
        let _ = SourceFile::parse("soup.rs", "quic", src);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes (lossily decoded) never panic the lexer and
        /// always tile.
        #[test]
        fn lexer_total_on_byte_soup(bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..160)) {
            let src = String::from_utf8_lossy(&bytes).into_owned();
            let r = assert_tiles(&src);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }

        /// Soup biased toward Rust's hard cases: quotes, raw-string hashes,
        /// comment openers, lifetimes, braces.
        #[test]
        fn lexer_total_on_rusty_soup(
            parts in proptest::collection::vec("[\"'a-z0-9/* #\\\\{}()!br=._\n-]{0,8}", 0..24),
        ) {
            let src = parts.concat();
            let r = assert_tiles(&src);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
    }
}
