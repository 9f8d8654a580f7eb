//! Source model for the lint pass, built on the token stream.
//!
//! `SourceFile` lexes the file once (`lexer`), recovers the item tree
//! (`parse`), and resolves waivers. Rules consume tokens — so a pattern
//! inside a string literal or comment can never fire — and attribute
//! findings to the line of the offending token, which makes multi-line
//! constructs (`.lock()\n.expect(..)`, `trace_event!(\n..)`) first-class.
//!
//! ## Waivers
//!
//! `// lint: allow(<rule>) <reason>` suppresses a finding for `<rule>`:
//!
//! - **trailing** on a code line: applies to that line;
//! - **standalone** above a plain code line: applies to the next code line;
//! - **standalone** above an *item header* (fn/mod/impl/struct/use/...):
//!   applies to the whole item, attributes included — this is the
//!   scope-aware form that lets one justified waiver cover an item whose
//!   findings span many lines.
//!
//! Waivers without a reason, and waivers that suppress nothing, are
//! violations themselves (`rules::check_waiver_hygiene`).

use crate::lexer::{self, Tok, TokKind};
use crate::parse::{self, Item};
use std::collections::BTreeMap;

/// One `// lint: allow(rule) reason` waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rule name inside `allow(...)`.
    pub rule: String,
    /// Free-text justification after the closing paren.
    pub reason: String,
    /// 1-based line the waiver comment appears on.
    pub declared_on: usize,
}

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
    /// Line-level waivers keyed by the 1-based line they apply to.
    pub line_waivers: BTreeMap<usize, Vec<Waiver>>,
    /// Item-level waivers: `(item index, waiver)`.
    pub item_waivers: Vec<(usize, Waiver)>,
}

impl SourceFile {
    /// Lex + parse `content` and resolve waivers.
    pub fn parse(rel_path: &str, crate_name: &str, content: &str) -> SourceFile {
        let toks = lexer::lex(content);
        let items = parse::parse(content, &toks);

        let mut f = SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            text: content.to_string(),
            toks,
            items,
            line_waivers: BTreeMap::new(),
            item_waivers: Vec::new(),
        };
        f.attach_waivers();
        f
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

    /// Waiver for `rule` covering 1-based `lineno`: a line-level waiver on
    /// that exact line, else the innermost item-level waiver whose item
    /// extent contains the line.
    pub fn waiver_for(&self, lineno: usize, rule: &str) -> Option<&Waiver> {
        if let Some(ws) = self.line_waivers.get(&lineno) {
            if let Some(w) = ws.iter().find(|w| w.rule == rule) {
                return Some(w);
            }
        }
        // Innermost covering item: later items are deeper in the tree, so
        // scan in reverse.
        self.item_waivers
            .iter()
            .rev()
            .find(|(idx, w)| {
                w.rule == rule && self.items.get(*idx).is_some_and(|it| it.covers(lineno))
            })
            .map(|(_, w)| w)
    }

    /// All waivers (line-level and item-level) for hygiene checks.
    pub fn all_waivers(&self) -> Vec<&Waiver> {
        let mut out: Vec<&Waiver> = self
            .line_waivers
            .values()
            .flat_map(|ws| ws.iter())
            .collect();
        out.extend(self.item_waivers.iter().map(|(_, w)| w));
        out.sort_by_key(|w| (w.declared_on, w.rule.clone()));
        out
    }

    /// Resolve every waiver comment to a line or an item.
    fn attach_waivers(&mut self) {
        let mut line_waivers: BTreeMap<usize, Vec<Waiver>> = BTreeMap::new();
        let mut item_waivers: Vec<(usize, Waiver)> = Vec::new();
        for (i, t) in self.toks.iter().enumerate() {
            if t.kind != TokKind::LineComment {
                continue;
            }
            let Some(w) = parse_waiver(self.tok_text(t), t.line) else {
                continue;
            };
            // Trailing: any non-trivia token earlier on the same line.
            let trailing = self.toks[..i]
                .iter()
                .rev()
                .take_while(|p| p.line == t.line)
                .any(|p| !p.kind.is_trivia());
            if trailing {
                line_waivers.entry(t.line).or_default().push(w);
                continue;
            }
            // Standalone: find the next non-trivia token.
            let next = self.toks[i + 1..].iter().find(|p| !p.kind.is_trivia());
            let Some(next) = next else {
                // Dangling waiver at EOF: attach to its own line (it will
                // be reported stale).
                line_waivers.entry(t.line).or_default().push(w);
                continue;
            };
            // Item whose header starts exactly on the next code line: the
            // waiver covers the whole item. The first (outermost) match
            // wins so a waiver above `mod m { ... }` covers the module.
            let item = self
                .items
                .iter()
                .position(|it| it.header_line == next.line || it.kw_line == next.line);
            match item {
                Some(idx) => item_waivers.push((idx, w)),
                None => line_waivers.entry(next.line).or_default().push(w),
            }
        }
        self.line_waivers = line_waivers;
        self.item_waivers = item_waivers;
    }
}

/// Extract a waiver from one line comment's text. Only a comment that *is*
/// a waiver counts: after the `//`/`//!`/`///` marker and whitespace the
/// text must start with `lint: allow(` — prose that merely mentions the
/// syntax (like this sentence) is ignored.
fn parse_waiver(comment: &str, lineno: usize) -> Option<Waiver> {
    let body = comment.trim_start_matches(['/', '!']).trim_start();
    let after = body.strip_prefix("lint: allow(")?;
    let close = after.find(')')?;
    let rule = after[..close].trim().to_string();
    let reason = after[close + 1..].trim().trim_start_matches('-').trim();
    Some(Waiver {
        rule,
        reason: reason.to_string(),
        declared_on: lineno,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn waiver_trailing_and_standalone() {
        let src = "use std::collections::HashMap; // lint: allow(nondeterministic-map) memo only\n// lint: allow(panic) checked above\nlet v = x.unwrap();\n";
        let f = SourceFile::parse("x.rs", "quic", src);
        let w = f.waiver_for(1, "nondeterministic-map");
        assert_eq!(w.map(|w| w.reason.as_str()), Some("memo only"));
        let w2 = f.waiver_for(3, "panic");
        assert_eq!(w2.map(|w| w.reason.as_str()), Some("checked above"));
        assert!(f.waiver_for(2, "panic").is_none());
    }

    #[test]
    fn item_level_waiver_covers_whole_item() {
        let src = "// lint: allow(shard-unshareable) per-thread telemetry only\nthread_local! {\n    static A: Cell<u64> = const { Cell::new(0) };\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", "sim", src);
        // `thread_local! { .. }` is a MacroCall item, so the waiver covers
        // the whole block, including the `Cell` on line 3.
        assert!(f.waiver_for(2, "shard-unshareable").is_some());
        assert!(f.waiver_for(3, "shard-unshareable").is_some());
        assert!(f.waiver_for(5, "shard-unshareable").is_none());
    }

    #[test]
    fn item_level_waiver_on_fn_covers_every_line_of_the_fn() {
        let src = "// lint: allow(panic) this path is structurally unreachable\n#[inline]\nfn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let f = SourceFile::parse("x.rs", "quic", src);
        assert!(f.waiver_for(4, "panic").is_some(), "line inside the fn");
        assert!(f.waiver_for(5, "panic").is_some(), "closing brace line");
        assert!(f.waiver_for(6, "panic").is_none(), "after the fn");
    }

    #[test]
    fn waiver_without_match_is_line_scoped() {
        let src = "fn f() {\n    // lint: allow(wall-clock) quarantined\n    let t = now();\n}\n";
        let f = SourceFile::parse("x.rs", "obs", src);
        assert!(f.waiver_for(3, "wall-clock").is_some());
        assert!(f.waiver_for(1, "wall-clock").is_none());
    }
}
