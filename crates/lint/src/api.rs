//! Public-API baseline: the workspace's `pub` surface, diffed against a
//! checked-in `lint/api-baseline.txt`.
//!
//! Each entry is one tab-separated line: `crate<TAB>kind<TAB>path`. The
//! path is an item's definition path; members are `Type::member`, and
//! re-exports are `use` lines. A surface change — in either direction —
//! fails the lint until the baseline is re-blessed with `VOXEL_BLESS=1`,
//! which turns silent API drift into a reviewed diff of the baseline file:
//! blessing *is* the approval mechanism.

use crate::{Site, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The ledger, relative to the workspace root.
const BASELINE: &str = "lint/api-baseline.txt";

const BLESS: &str = "bless with `VOXEL_BLESS=1`";

/// Diff the current surface against `lint/api-baseline.txt` (or rewrite
/// the baseline when `bless` is set).
pub(crate) fn check(
    surf: &BTreeMap<String, Site>,
    root: &Path,
    bless: bool,
    out: &mut Vec<Violation>,
) -> Result<(), String> {
    let baseline_path = root.join(BASELINE);
    if bless {
        let mut body = String::from(
            "# Public API baseline for the VOXEL workspace (voxel-lint).\n\
             # One entry per line: crate<TAB>kind<TAB>module::path. Any drift\n\
             # from the live `pub` surface fails the lint; after reviewing a\n\
             # deliberate change, re-bless with:\n\
             #     VOXEL_BLESS=1 cargo run -p voxel-lint\n",
        );
        for entry in surf.keys() {
            body.push_str(entry);
            body.push('\n');
        }
        if let Some(dir) = baseline_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        return std::fs::write(&baseline_path, body)
            .map_err(|e| format!("write {}: {e}", baseline_path.display()));
    }
    let mut flag = |path: &str, line, msg| {
        let (path, rule) = (path.to_string(), "api-baseline");
        out.push(Violation {
            path,
            line,
            rule,
            msg,
        });
    };
    let Ok(body) = std::fs::read_to_string(&baseline_path) else {
        let n = surf.len();
        flag(
            BASELINE,
            0,
            format!("missing API baseline; {BLESS} ({n} public entries found)"),
        );
        return Ok(());
    };
    let baseline: BTreeSet<&str> = body
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    for (entry, (path, line)) in surf.iter().filter(|(e, _)| !baseline.contains(e.as_str())) {
        let entry = entry.replace('\t', " ");
        let msg = format!("new public API `{entry}` is not in {BASELINE}; review it and {BLESS}");
        flag(path, *line, msg);
    }
    for entry in baseline.iter().filter(|b| !surf.contains_key(**b)) {
        let entry = entry.replace('\t', " ");
        flag(
            BASELINE,
            0,
            format!("baselined public API `{entry}` no longer exists; {BLESS}"),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bless_then_check_round_trip_and_drift() {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/lint-scratch/api");
        let _ = std::fs::remove_dir_all(&scratch);
        let surface = |entries: &[(&str, usize)]| -> BTreeMap<String, Site> {
            let site = |line| ("src/lib.rs".to_string(), line);
            entries
                .iter()
                .map(|(e, line)| (e.to_string(), site(*line)))
                .collect()
        };
        let v1 = surface(&[("quic\tfn\tsend", 1)]);

        // No baseline yet: one finding, pointing at the bless workflow.
        let mut out = Vec::new();
        check(&v1, &scratch, false, &mut out).expect("check");
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("missing API baseline"));

        // Bless, then the same surface is clean.
        check(&v1, &scratch, true, &mut Vec::new()).expect("bless");
        let mut out = Vec::new();
        check(&v1, &scratch, false, &mut out).expect("check");
        assert!(out.is_empty(), "{out:?}");

        // Add a pub fn: fails at the new item until re-blessed; remove
        // one: fails at the baseline file.
        let v2 = surface(&[("quic\tfn\tsend", 1), ("quic\tfn\trecv", 2)]);
        let mut out = Vec::new();
        check(&v2, &scratch, false, &mut out).expect("check");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "api-baseline");
        assert_eq!((out[0].path.as_str(), out[0].line), ("src/lib.rs", 2));

        let mut out = Vec::new();
        check(&BTreeMap::new(), &scratch, false, &mut out).expect("check");
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("no longer exists"));
        assert_eq!(out[0].path, "lint/api-baseline.txt");

        let _ = std::fs::remove_dir_all(&scratch);
    }
}
