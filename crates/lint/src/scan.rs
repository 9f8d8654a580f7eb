//! Source model for the lint pass, built on the token stream.
//!
//! `SourceFile` lexes the file once (`lexer`) and recovers the item tree
//! (`parse`), so a pattern inside a string literal or comment can never
//! look like an item.

use crate::lexer;
use crate::parse::{self, Item};

/// A parsed source file ready for rule checks.
#[derive(Debug)]
pub(crate) struct SourceFile {
    /// Path relative to the repo root, with `/` separators.
    pub rel_path: String,
    /// Workspace crate directory name (`"quic"`, `"core"`, ...); the
    /// root `voxel` package uses `"."`.
    pub crate_name: String,
    /// Item tree from the lightweight parser.
    pub items: Vec<Item>,
}

impl SourceFile {
    /// Lex + parse `content`.
    pub(crate) fn parse(rel_path: &str, crate_name: &str, content: &str) -> SourceFile {
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            items: parse::parse(content, &lexer::lex(content)),
        }
    }

    /// Is `lineno` inside a `#[cfg(test)]` item (attribute lines included)?
    pub(crate) fn is_test(&self, lineno: usize) -> bool {
        self.items.iter().any(|it| it.cfg_test && it.covers(lineno))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
