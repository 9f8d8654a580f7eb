//! `voxel-lint` — the workspace's public-API ledger.
//!
//! The engine runs rustdoc's JSON backend over the workspace (`rustdoc`)
//! and walks the items each crate root makes reachable. It checks the one
//! invariant of DESIGN.md §10 that clippy cannot express: the workspace
//! `pub` surface matches the checked-in `lint/api-baseline.txt`. A surface
//! change in either direction fails until it is blessed with
//! `VOXEL_BLESS=1`, which turns API drift into a reviewed diff of the
//! baseline file. Its rustdoc run denies warnings, so a broken doc link
//! fails too.
//!
//! The token rules (no `unwrap`, `HashMap`, `RefCell`, `Instant::now`, …)
//! are clippy lints configured in `[workspace.lints.clippy]` and
//! `clippy.toml`. The trace taxonomy is data in voxel-trace, checked
//! against what the golden runs emit (§9), and the lock order is a rule
//! stated in §10.

mod api;
mod rustdoc;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where an item is declared: file relative to the workspace root, and
/// line.
type Site = (String, usize);

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
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
    let mut surface = BTreeMap::new();
    for (file, doc) in rustdoc::document(root)? {
        rustdoc::surface(&doc, &mut surface).map_err(|e| format!("{file}: {e}"))?;
    }
    let mut violations = Vec::new();
    api::check(&surface, root, opts.bless, &mut violations)?;
    violations.sort();
    Ok(violations)
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
            .map(|v| format!("{}:{}: {}", v.path, v.line, v.msg))
            .collect();
        assert!(
            rendered.is_empty(),
            "workspace has lint violations:\n{}",
            rendered.join("\n")
        );
    }
}
