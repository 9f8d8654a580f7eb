//! `voxel-lint` — the workspace's public-API ledger.
//!
//! The engine lexes every first-party source file into a spanned token
//! stream (`lexer`) and recovers the item tree (`parse`); `scan` carries
//! the per-file model. It checks the one invariant of DESIGN.md §10 that
//! clippy cannot express: the workspace `pub` surface matches the
//! checked-in `lint/api-baseline.txt`. A surface change in either
//! direction fails until it is blessed with `VOXEL_BLESS=1`, which turns
//! API drift into a reviewed diff of the baseline file.
//!
//! The token rules (no `unwrap`, `HashMap`, `RefCell`, `Instant::now`, …)
//! are clippy lints configured in `[workspace.lints.clippy]` and
//! `clippy.toml`. The trace taxonomy is data in voxel-trace, checked
//! against what the golden runs emit (§9), and the lock order is a rule
//! stated in §10.

mod api;
mod lexer;
mod parse;
mod scan;

use scan::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// First-party crates to scan (vendored stand-ins for external deps —
/// `bytes`, `rand`, `proptest` — are third-party idiom and exempt).
const FIRST_PARTY: &[&str] = &[
    "sim", "trace", "obs", "media", "prep", "netem", "quic", "http", "abr", "core", "fleet",
    "bench", "lint", "testkit",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl Violation {
    pub(crate) fn new(path: &str, line: usize, rule: &'static str, msg: String) -> Violation {
        Violation {
            path: path.to_string(),
            line,
            rule,
            msg,
        }
    }
}

/// Knobs for one lint pass.
#[derive(Debug, Default, Clone)]
pub struct Options {
    /// Rewrite the API baseline instead of diffing it.
    pub bless: bool,
}

impl Options {
    /// `VOXEL_BLESS=1` in the environment turns on bless mode.
    pub fn from_env() -> Options {
        Options {
            bless: std::env::var("VOXEL_BLESS").is_ok_and(|v| v == "1"),
        }
    }
}

/// Run the full lint pass over the workspace rooted at `root`.
/// Returns all violations sorted by path and line.
pub fn run(root: &Path) -> Result<Vec<Violation>, String> {
    run_with(root, &Options::from_env())
}

/// Run the lint pass with explicit options.
pub fn run_with(root: &Path, opts: &Options) -> Result<Vec<Violation>, String> {
    let mut files = Vec::new();
    for name in FIRST_PARTY {
        let src = root.join("crates").join(name).join("src");
        collect(&src, root, name, &mut files)?;
    }
    collect(&root.join("src"), root, ".", &mut files)?;
    collect(&root.join("examples"), root, "examples", &mut files)?;

    let mut violations = Vec::new();
    api::check(&files, root, opts.bless, &mut violations)?;

    violations.sort();
    Ok(violations)
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

    /// The lint stays quiet on the real workspace: the public surface
    /// matches the blessed baseline.
    #[test]
    fn workspace_is_clean() {
        let violations = run_with(&default_root(), &Options::default()).expect("lint pass runs");
        let rendered: Vec<String> = violations
            .iter()
            .map(|v| format!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.msg))
            .collect();
        assert!(
            rendered.is_empty(),
            "workspace has lint violations:\n{}",
            rendered.join("\n")
        );
    }
}
