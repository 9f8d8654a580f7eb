//! Token-accurate lint rules.
//!
//! Every rule walks the token stream (`scan::SourceFile`), so string and
//! comment contents can never trip a rule, and constructs split across
//! lines (`.lock()\n.expect(..)`) are matched exactly like single-line
//! ones. Rules skip `#[cfg(test)]` items and honour line- and item-level
//! `// lint: allow(<rule>) <reason>` waivers; a suppressed finding is
//! still recorded (with `waived = true`) so `--json` can report it and
//! the hygiene pass can prove the waiver earns its keep.

use crate::lexer::{self, TokKind};
use crate::scan::SourceFile;
use std::collections::BTreeSet;

/// Crates whose iteration order feeds the deterministic simulation.
pub const SIM_CRITICAL: &[&str] = &["sim", "quic", "http", "abr", "core", "netem", "fleet"];

/// One lint finding. `waived = true` means a justified waiver suppressed
/// it — reported in machine output, but not a failure.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
    pub waived: bool,
}

impl Violation {
    pub(crate) fn new(path: &str, line: usize, rule: &'static str, msg: String) -> Violation {
        Violation {
            path: path.to_string(),
            line,
            rule,
            msg,
            waived: false,
        }
    }
}

/// Tracks which waivers actually suppressed a finding.
#[derive(Debug, Default)]
pub struct WaiverUse {
    used: BTreeSet<(String, usize, String)>,
}

impl WaiverUse {
    pub(crate) fn mark(&mut self, f: &SourceFile, declared_on: usize, rule: &str) {
        self.used
            .insert((f.rel_path.clone(), declared_on, rule.to_string()));
    }
}

/// Report a finding at `line`, consulting waivers.
pub(crate) fn report(
    f: &SourceFile,
    line: usize,
    rule: &'static str,
    msg: String,
    uses: &mut WaiverUse,
    out: &mut Vec<Violation>,
) {
    let mut v = Violation::new(&f.rel_path, line, rule, msg);
    if let Some(w) = f.waiver_for(line, rule) {
        uses.mark(f, w.declared_on, rule);
        v.waived = true;
    }
    out.push(v);
}

/// Is this file binary-style code (panics acceptable)?
fn is_bin(f: &SourceFile) -> bool {
    f.rel_path.ends_with("main.rs") || f.rel_path.contains("/bin/") || f.crate_name == "examples"
}

/// Run the classic token rules over one file: `nondeterministic-map`,
/// `wall-clock`, `panic`, `float-eq`, `deep-import`.
pub fn check_file(f: &SourceFile, uses: &mut WaiverUse, out: &mut Vec<Violation>) {
    let sig = f.sig_indices();
    let text = |s: usize| -> &str {
        match sig.get(s) {
            Some(&i) => f.tok_text(&f.toks[i]),
            None => "",
        }
    };
    let kind = |s: usize| -> Option<TokKind> { sig.get(s).map(|&i| f.toks[i].kind) };
    let line = |s: usize| -> usize {
        match sig.get(s) {
            Some(&i) => f.toks[i].line,
            None => 0,
        }
    };
    let bin = is_bin(f);

    for s in 0..sig.len() {
        let l = line(s);
        if f.is_test(l) {
            continue;
        }
        let t = text(s);
        let k = kind(s);

        // --- determinism: unordered collections in sim-critical crates ---
        if k == Some(TokKind::Ident)
            && (t == "HashMap" || t == "HashSet")
            && SIM_CRITICAL.contains(&f.crate_name.as_str())
        {
            report(
                f,
                l,
                "nondeterministic-map",
                format!(
                    "{t} in sim-critical crate `{}`; use BTreeMap/BTreeSet or waive with a reason",
                    f.crate_name
                ),
                uses,
                out,
            );
        }

        // --- determinism: wall-clock access outside bench ---
        if f.crate_name != "bench" && k == Some(TokKind::Ident) {
            let pat = if t == "Instant"
                && text(s + 1) == ":"
                && text(s + 2) == ":"
                && text(s + 3) == "now"
            {
                Some("Instant::now")
            } else if t == "SystemTime" {
                Some("SystemTime")
            } else if t == "thread"
                && text(s + 1) == ":"
                && text(s + 2) == ":"
                && text(s + 3) == "sleep"
            {
                Some("thread::sleep")
            } else {
                None
            };
            if let Some(pat) = pat {
                report(
                    f,
                    l,
                    "wall-clock",
                    format!("`{pat}` breaks sim-time determinism; use voxel_sim::SimTime"),
                    uses,
                    out,
                );
            }
        }

        // --- robustness: panics in library code ---
        if f.crate_name != "bench" && !bin {
            let hit = if t == "."
                && text(s + 1) == "unwrap"
                && text(s + 2) == "("
                && text(s + 3) == ")"
            {
                Some(("unwrap", line(s + 1)))
            } else if t == "." && text(s + 1) == "expect" && text(s + 2) == "(" {
                Some(("expect", line(s + 1)))
            } else if k == Some(TokKind::Ident) && t == "panic" && text(s + 1) == "!" {
                Some(("panic!", l))
            } else {
                None
            };
            if let Some((what, at)) = hit {
                if !f.is_test(at) {
                    report(
                        f,
                        at,
                        "panic",
                        format!(
                            "`{what}` in library code; propagate an error or waive with the invariant that makes it unreachable"
                        ),
                        uses,
                        out,
                    );
                }
            }
        }
    }

    // --- robustness: exact equality involving quality floats ---
    check_float_eq(f, uses, out);

    // --- API surface: examples go through the facade prelude ---
    if f.crate_name == "examples" {
        for it in &f.items {
            if it.kind != crate::parse::ItemKind::Use || f.is_test(it.kw_line) {
                continue;
            }
            let target = it.name.as_str();
            let deep = target.starts_with("voxel_")
                || target
                    .strip_prefix("voxel::")
                    .is_some_and(|rest| !rest.starts_with("prelude"));
            if deep {
                report(
                    f,
                    it.kw_line,
                    "deep-import",
                    format!(
                        "example imports `{target}` directly; use `voxel::prelude::*` (or waive with why the deep path is the point)"
                    ),
                    uses,
                    out,
                );
            }
        }
    }
}

/// `==`/`!=` where an operand is a float literal or an ssim/qoe-named
/// identifier. Works on the raw token stream so adjacency (`<=`, `=>`,
/// `+=`, `===`) is judged by byte spans, not per-line character context.
fn check_float_eq(f: &SourceFile, uses: &mut WaiverUse, out: &mut Vec<Violation>) {
    let toks = &f.toks;
    let ptext = |i: usize| f.tok_text(&toks[i]);
    for i in 0..toks.len().saturating_sub(1) {
        let (a, b) = (&toks[i], &toks[i + 1]);
        if a.kind != TokKind::Punct || b.kind != TokKind::Punct || a.end != b.start {
            continue;
        }
        let op = match (ptext(i), ptext(i + 1)) {
            ("=", "=") => "==",
            ("!", "=") => "!=",
            _ => continue,
        };
        // Not part of a longer operator: `<=`, `>=`, `+=`, `..=`, `=>`.
        let glued_before = i > 0
            && toks[i - 1].kind == TokKind::Punct
            && toks[i - 1].end == a.start
            && matches!(
                ptext(i - 1),
                "=" | "<" | ">" | "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" | "!" | "."
            );
        let glued_after = toks.get(i + 2).is_some_and(|c| {
            c.kind == TokKind::Punct && c.end > c.start && b.end == c.start && ptext(i + 2) == "="
        });
        if glued_before || glued_after || f.is_test(a.line) {
            continue;
        }
        let lhs = toks[..i].iter().rev().find(|t| !t.kind.is_trivia());
        let rhs = toks[i + 2..].iter().find(|t| !t.kind.is_trivia());
        let suspicious = |t: Option<&&crate::lexer::Tok>| -> Option<String> {
            let t = t?;
            let s = f.tok_text(t);
            match t.kind {
                TokKind::Num if lexer::is_float_literal(s) => Some(s.to_string()),
                TokKind::Ident => {
                    let lower = s.to_ascii_lowercase();
                    if lower.contains("ssim") || lower.contains("qoe") {
                        Some(s.to_string())
                    } else {
                        None
                    }
                }
                _ => None,
            }
        };
        if let Some(operand) = suspicious(lhs.as_ref()).or_else(|| suspicious(rhs.as_ref())) {
            report(
                f,
                a.line,
                "float-eq",
                format!(
                    "exact `{op}` comparison involving `{operand}`; use a tolerance or waive with why exactness is sound"
                ),
                uses,
                out,
            );
        }
    }
}

/// After all files ran: flag waivers that never fired and waivers with no
/// justification text.
pub fn check_waiver_hygiene(files: &[SourceFile], uses: &WaiverUse, out: &mut Vec<Violation>) {
    for f in files {
        for w in f.all_waivers() {
            if w.reason.is_empty() {
                out.push(Violation::new(
                    &f.rel_path,
                    w.declared_on,
                    "waiver-missing-reason",
                    format!("waiver for `{}` has no justification", w.rule),
                ));
            }
            let key = (f.rel_path.clone(), w.declared_on, w.rule.clone());
            if !uses.used.contains(&key) {
                out.push(Violation::new(
                    &f.rel_path,
                    w.declared_on,
                    "stale-waiver",
                    format!("waiver for `{}` suppresses nothing; remove it", w.rule),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn run(crate_name: &str, path: &str, src: &str) -> Vec<Violation> {
        let f = SourceFile::parse(path, crate_name, src);
        let mut uses = WaiverUse::default();
        let mut out = Vec::new();
        check_file(&f, &mut uses, &mut out);
        check_waiver_hygiene(std::slice::from_ref(&f), &uses, &mut out);
        out.retain(|v| !v.waived);
        out
    }

    #[test]
    fn hashmap_fires_in_sim_critical_crate() {
        let v = run(
            "core",
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "nondeterministic-map");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn hashmap_in_string_or_comment_is_quiet() {
        let src = "let s = \"HashMap\"; // a HashMap joke\n/* HashMap */\n";
        assert!(run("core", "crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_quiet_outside_sim_critical_and_in_tests() {
        assert!(run(
            "media",
            "crates/media/src/x.rs",
            "use std::collections::HashMap;\n"
        )
        .is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(run("core", "crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_waiver_with_reason_suppresses() {
        let src = "use std::collections::HashMap; // lint: allow(nondeterministic-map) memo table, lookup-only\n";
        assert!(run("abr", "crates/abr/src/x.rs", src).is_empty());
    }

    #[test]
    fn waiver_without_reason_is_a_violation() {
        let src = "use std::collections::HashMap; // lint: allow(nondeterministic-map)\n";
        let v = run("abr", "crates/abr/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "waiver-missing-reason");
    }

    #[test]
    fn stale_waiver_is_reported() {
        let src = "let x = 1; // lint: allow(panic) nothing panics here\n";
        let v = run("quic", "crates/quic/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "stale-waiver");
    }

    #[test]
    fn wall_clock_fires_everywhere_but_bench() {
        let src = "let t = std::time::Instant::now();\n";
        let v = run("sim", "crates/sim/src/x.rs", src);
        assert_eq!(v[0].rule, "wall-clock");
        assert!(run("bench", "crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_fires_on_unwrap_expect_panic() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap();\n    let b = x.expect(\"b\");\n    panic!(\"boom\");\n}\n";
        let v = run("quic", "crates/quic/src/x.rs", src);
        let rules: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(rules, vec![("panic", 2), ("panic", 3), ("panic", 4)]);
    }

    #[test]
    fn panic_rule_catches_multi_line_chain() {
        let src = "fn f() {\n    let g = self\n        .inner\n        .lock()\n        .expect(\"poisoned\");\n}\n";
        let v = run("quic", "crates/quic/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("panic", 5));
    }

    #[test]
    fn panic_rule_skips_bins_unwrap_or_and_strings() {
        let src = "fn f() { let s = \"don't .unwrap() me\"; let x = y.unwrap_or(0); }\n";
        assert!(run("quic", "crates/quic/src/x.rs", src).is_empty());
        let bin = "fn main() { x.unwrap(); }\n";
        assert!(run("quic", "crates/quic/src/bin/tool.rs", bin).is_empty());
    }

    #[test]
    fn float_eq_fires_on_float_literal_and_ssim_names() {
        let v = run("abr", "crates/abr/src/x.rs", "if score == 0.0 { }\n");
        assert_eq!(v[0].rule, "float-eq");
        let v2 = run(
            "media",
            "crates/media/src/x.rs",
            "if a.ssim != b.ssim { }\n",
        );
        assert_eq!(v2[0].rule, "float-eq");
    }

    #[test]
    fn float_eq_quiet_on_integers_and_compound_ops() {
        assert!(run("abr", "crates/abr/src/x.rs", "if n == 0 { }\n").is_empty());
        assert!(run("abr", "crates/abr/src/x.rs", "x += 1.0; if a <= 2.0 {}\n").is_empty());
        assert!(run("abr", "crates/abr/src/x.rs", "let ok = idx != len;\n").is_empty());
        assert!(run("abr", "crates/abr/src/x.rs", "let r = 0..=1.0;\n").is_empty());
    }

    #[test]
    fn deep_import_fires_only_in_examples_and_sees_multiline_use() {
        let src = "use voxel::media::video::Video;\nuse voxel_core::Config;\nuse voxel::prelude::*;\nuse std::sync::Arc;\n";
        let v = run("examples", "examples/demo.rs", src);
        let lines: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(lines, vec![("deep-import", 1), ("deep-import", 2)]);
        // The same imports are fine outside examples/.
        assert!(run("bench", "crates/bench/src/x.rs", src).is_empty());
        // A use split across lines is still one import.
        let multi = "use voxel::media::{\n    Video,\n    Ladder,\n};\n";
        let v2 = run("examples", "examples/demo2.rs", multi);
        assert_eq!(v2.len(), 1);
        assert_eq!(v2[0].line, 1);
    }

    #[test]
    fn deep_import_waiver_and_bin_style_panics_in_examples() {
        let src = "use voxel::prep::analysis::BytesQoeMap; // lint: allow(deep-import) the example is about prep internals\nfn main() { x.unwrap(); }\n";
        assert!(run("examples", "examples/demo.rs", src).is_empty());
    }
}
