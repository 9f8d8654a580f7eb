//! `voxel-lint` — dependency-free static analysis for the VOXEL workspace.
//!
//! The engine lexes every first-party source file into a spanned token
//! stream (`lexer`), recovers the item tree (`parse`), and runs
//! token-accurate rules over it (`scan` carries the per-file model).
//! Enforced invariants, per DESIGN.md §10:
//!
//! - **Determinism**: no `HashMap`/`HashSet` in sim-critical crates, no
//!   wall-clock access outside `bench`.
//! - **Robustness**: no `unwrap()`/`expect()`/`panic!` in library code,
//!   no exact `==`/`!=` on SSIM/QoE floats.
//! - **Shard safety**: no `Rc`/`RefCell`/`Cell`/`static mut`/raw-pointer
//!   state in shard-crossing crates; no lock-order inversions anywhere.
//! - **API baseline**: the workspace `pub` surface matches the checked-in
//!   `lint/api-baseline.txt`; bless deliberate changes with `VOXEL_BLESS=1`.
//! - **Trace taxonomy**: every `trace_event!` kind and metric name must
//!   match the DESIGN.md §9 table, and vice versa.
//!
//! Findings are suppressed with `// lint: allow(<rule>) <reason>` — on a
//! line (trailing or standalone) or, when placed above an item header,
//! for the whole item. Reasonless and stale waivers are violations
//! themselves.

pub mod api;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod scan;
pub mod shard;
pub mod taxonomy;

pub use rules::Violation;

use scan::SourceFile;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// First-party crates to scan (vendored stand-ins for external deps —
/// `bytes`, `rand`, `proptest`, `criterion` — are third-party idiom and
/// exempt).
pub const FIRST_PARTY: &[&str] = &[
    "sim", "trace", "obs", "media", "prep", "netem", "quic", "http", "abr", "core", "fleet",
    "bench", "lint", "testkit",
];

/// Rule families selectable with `--only`.
pub const FAMILIES: &[&str] = &["rules", "shard", "taxonomy", "api"];

/// Knobs for one lint pass.
#[derive(Debug, Default, Clone)]
pub struct Options {
    /// Rewrite the API baseline instead of diffing it.
    pub bless: bool,
    /// Restrict the pass to one rule family (waiver hygiene is skipped,
    /// since staleness can only be judged by a full pass).
    pub only: Option<String>,
}

impl Options {
    /// `VOXEL_BLESS=1` in the environment turns on bless mode.
    pub fn from_env() -> Options {
        Options {
            bless: std::env::var("VOXEL_BLESS").is_ok_and(|v| v == "1"),
            only: None,
        }
    }
}

/// Run the full lint pass over the workspace rooted at `root`.
/// Returns all violations (waived findings included) sorted by path and
/// line; callers gate on the unwaived subset.
pub fn run(root: &Path) -> Result<Vec<Violation>, String> {
    run_with(root, &Options::from_env())
}

/// Run a (possibly family-restricted) lint pass.
pub fn run_with(root: &Path, opts: &Options) -> Result<Vec<Violation>, String> {
    if let Some(only) = opts.only.as_deref() {
        if !FAMILIES.contains(&only) {
            return Err(format!(
                "unknown rule family `{only}` (expected one of: {})",
                FAMILIES.join(", ")
            ));
        }
    }
    let fam = |name: &str| opts.only.as_deref().is_none_or(|o| o == name);

    let mut files = Vec::new();
    for name in FIRST_PARTY {
        let src = root.join("crates").join(name).join("src");
        collect(&src, root, name, &mut files)?;
    }
    collect(&root.join("src"), root, ".", &mut files)?;
    collect(&root.join("examples"), root, "examples", &mut files)?;

    let mut violations = Vec::new();
    let mut uses = rules::WaiverUse::default();

    if fam("rules") {
        for f in &files {
            rules::check_file(f, &mut uses, &mut violations);
        }
    }
    if fam("shard") {
        shard::check_shard(&files, &mut uses, &mut violations);
    }
    if fam("taxonomy") {
        // The lint's own source mentions `trace_event!(` and `Layer::` as
        // pattern strings, and the testkit's oracles match on event-kind
        // literals; neither is an emission.
        let mut emissions = Vec::new();
        let mut by_path: BTreeMap<&str, &SourceFile> = BTreeMap::new();
        for f in &files {
            by_path.insert(f.rel_path.as_str(), f);
            if f.crate_name != "lint" && f.crate_name != "testkit" {
                emissions.extend(taxonomy::extract(f));
            }
        }
        let design_path = root.join("DESIGN.md");
        let design = fs::read_to_string(&design_path)
            .map_err(|e| format!("read {}: {e}", design_path.display()))?;
        let tax = taxonomy::parse_design(&design)?;
        taxonomy::cross_check(
            &tax,
            &emissions,
            "DESIGN.md",
            &by_path,
            &mut uses,
            &mut violations,
        );
    }
    if fam("api") {
        api::check(&files, root, opts.bless, &mut violations)?;
    }
    if opts.only.is_none() {
        rules::check_waiver_hygiene(&files, &uses, &mut violations);
    }

    violations.sort();
    Ok(violations)
}

/// Render violations as a JSON array (one object per finding, waived
/// findings included so downstream tooling sees the full picture).
pub fn render_json(violations: &[Violation]) -> String {
    fn esc(s: &str, out: &mut String) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
    }
    let mut s = String::from("[\n");
    for (i, v) in violations.iter().enumerate() {
        s.push_str("  {\"path\":\"");
        esc(&v.path, &mut s);
        s.push_str(&format!("\",\"line\":{},\"rule\":\"", v.line));
        esc(v.rule, &mut s);
        s.push_str("\",\"message\":\"");
        esc(&v.msg, &mut s);
        s.push_str(&format!("\",\"waived\":{}}}", v.waived));
        s.push_str(if i + 1 == violations.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    s.push_str("]\n");
    s
}

/// Recursively collect `.rs` files under `dir` into parsed `SourceFile`s.
fn collect(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("read dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect(&path, root, crate_name, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let content =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile::parse(&rel, crate_name, &content));
        }
    }
    Ok(())
}

/// The repo root as seen from this crate's build location.
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole acceptance check: the lint stays quiet on the real,
    /// clean workspace. Every hazard is either fixed or carries a
    /// justified waiver, and the public surface matches the blessed
    /// baseline.
    #[test]
    fn workspace_is_clean() {
        let violations = run_with(&default_root(), &Options::default()).expect("lint pass runs");
        let rendered: Vec<String> = violations
            .iter()
            .filter(|v| !v.waived)
            .map(|v| format!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.msg))
            .collect();
        assert!(
            rendered.is_empty(),
            "workspace has lint violations:\n{}",
            rendered.join("\n")
        );
    }

    /// Each classic rule fires on a seeded bad fixture (end-to-end
    /// through the same entry points the binary uses).
    #[test]
    fn seeded_fixture_trips_every_rule() {
        let bad = "\
use std::collections::HashMap;
use std::rc::Rc;
fn lib(x: Option<u32>) {
    let t = std::time::Instant::now();
    let v = x.unwrap();
    if ssim == 1.0 { panic!(\"boom\"); }
    let p: *mut u8 = q;
}
// lint: allow(panic)
let w = p.unwrap();
";
        let f = scan::SourceFile::parse("crates/quic/src/bad.rs", "quic", bad);
        let files = [f];
        let mut uses = rules::WaiverUse::default();
        let mut out = Vec::new();
        rules::check_file(&files[0], &mut uses, &mut out);
        shard::check_shard(&files, &mut uses, &mut out);
        rules::check_waiver_hygiene(&files, &uses, &mut out);
        let fired: std::collections::BTreeSet<&str> = out.iter().map(|v| v.rule).collect();
        for rule in [
            "nondeterministic-map",
            "wall-clock",
            "panic",
            "float-eq",
            "shard-unshareable",
            "waiver-missing-reason",
        ] {
            assert!(fired.contains(rule), "{rule} did not fire: {out:?}");
        }
    }

    #[test]
    fn json_rendering_escapes_and_round_trips_shape() {
        let v = vec![
            Violation {
                path: "crates/quic/src/x.rs".to_string(),
                line: 3,
                rule: "panic",
                msg: "a \"quoted\" message\twith tab".to_string(),
                waived: false,
            },
            Violation {
                path: "crates/abr/src/y.rs".to_string(),
                line: 9,
                rule: "float-eq",
                msg: "waived one".to_string(),
                waived: true,
            },
        ];
        let json = render_json(&v);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\\t"));
        assert!(json.contains("\"waived\":true"));
        assert!(json.contains("\"waived\":false"));
        assert_eq!(json.matches("{\"path\"").count(), 2);
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(render_json(&[]).trim(), "[\n]".trim_start_matches('\n'));
    }

    #[test]
    fn only_unknown_family_is_an_error() {
        let opts = Options {
            bless: false,
            only: Some("bogus".to_string()),
        };
        assert!(run_with(&default_root(), &opts).is_err());
    }

    #[test]
    fn only_api_family_runs_alone_and_is_clean() {
        let opts = Options {
            bless: false,
            only: Some("api".to_string()),
        };
        let v = run_with(&default_root(), &opts).expect("api pass runs");
        let unwaived: Vec<_> = v.iter().filter(|v| !v.waived).collect();
        assert!(unwaived.is_empty(), "{unwaived:?}");
    }
}
