//! Source model for the lint pass, built on the token stream.
//!
//! `SourceFile` lexes the file once (`lexer`) and recovers the item tree
//! (`parse`). Rules consume tokens — so a pattern inside a string literal
//! or comment can never fire — and attribute findings to the line of the
//! offending token, which makes multi-line constructs
//! (`.lock()\n.expect(..)`, `trace_event!(\n..)`) first-class.

use crate::lexer::{self, Tok};
use crate::parse::{self, Item};

/// A parsed source file ready for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the repo root, with `/` separators.
    pub rel_path: String,
    /// Workspace crate directory name (`"quic"`, `"core"`, ...); the
    /// root `voxel` package uses `"."`.
    pub crate_name: String,
    /// Full source text.
    pub text: String,
    /// Complete token stream (spans tile `text`).
    pub toks: Vec<Tok>,
    /// Item tree from the lightweight parser.
    pub items: Vec<Item>,
}

impl SourceFile {
    /// Lex + parse `content`.
    pub fn parse(rel_path: &str, crate_name: &str, content: &str) -> SourceFile {
        let toks = lexer::lex(content);
        let items = parse::parse(content, &toks);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            text: content.to_string(),
            toks,
            items,
        }
    }

    /// The source text of a token.
    pub fn tok_text(&self, t: &Tok) -> &str {
        self.text.get(t.start..t.end).unwrap_or("")
    }

    /// Is `lineno` inside a `#[cfg(test)]` item (attribute lines included)?
    pub fn is_test(&self, lineno: usize) -> bool {
        self.items.iter().any(|it| it.cfg_test && it.covers(lineno))
    }

    /// Indices of non-trivia tokens, in order.
    pub fn sig_indices(&self) -> Vec<usize> {
        (0..self.toks.len())
            .filter(|&i| !self.toks[i].kind.is_trivia())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::TokKind;

    #[test]
    fn strings_and_comments_never_produce_ident_tokens() {
        let f = SourceFile::parse(
            "x.rs",
            "quic",
            "let s = \"HashMap inside\"; // HashMap too\n",
        );
        let idents: Vec<&str> = f
            .sig_indices()
            .into_iter()
            .filter(|&i| f.toks[i].kind == TokKind::Ident)
            .map(|i| f.tok_text(&f.toks[i]))
            .collect();
        assert_eq!(idents, vec!["let", "s"]);
    }

    #[test]
    fn cfg_test_region_tracked_by_parser() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let f = SourceFile::parse("x.rs", "quic", src);
        assert!(!f.is_test(1));
        assert!(f.is_test(2), "attribute line is part of the test item");
        assert!(f.is_test(3));
        assert!(f.is_test(4));
        assert!(f.is_test(5));
        assert!(!f.is_test(6));
    }
}
