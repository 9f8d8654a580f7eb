//! Public-API baseline: the workspace's `pub` surface, extracted from the
//! item tree and diffed against a checked-in `lint/api-baseline.txt`.
//!
//! Each entry is one tab-separated line: `crate<TAB>kind<TAB>path`. The
//! path is the module path plus the item name; inherent-impl members and
//! trait methods are recorded as `Type::method`. A surface change — in
//! either direction — fails the lint until the baseline is re-blessed
//! with `VOXEL_BLESS=1`, which turns silent API drift into a reviewed
//! diff of the baseline file: blessing *is* the approval mechanism.

use crate::parse::{Item, ItemKind};
use crate::scan::SourceFile;
use crate::Violation;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Extract the public surface: entry text → first declaration site.
pub(crate) fn surface(files: &[SourceFile]) -> BTreeMap<String, (String, usize)> {
    let mut out: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for f in files {
        let Some(base) = file_mod_path(&f.rel_path, &f.crate_name) else {
            continue;
        };
        let crate_label = if f.crate_name == "." {
            "voxel"
        } else {
            f.crate_name.as_str()
        };
        'items: for it in f.items.iter() {
            if f.is_test(it.kw_line) {
                continue;
            }
            // Walk ancestors: collect module path, find an owning
            // impl/trait, and bail on anything body-local.
            let mut mods: Vec<&str> = Vec::new();
            let mut owner: Option<&Item> = None;
            let mut p = it.parent;
            let mut immediate = true;
            while let Some(pi) = p {
                let pit = &f.items[pi];
                match pit.kind {
                    ItemKind::Mod => {
                        if !pit.is_pub {
                            continue 'items;
                        }
                        mods.push(&pit.name);
                    }
                    ItemKind::Impl | ItemKind::Trait if immediate => owner = Some(pit),
                    _ => continue 'items, // inside a fn, macro body, etc.
                }
                immediate = false;
                p = pit.parent;
            }
            mods.reverse();

            let (label, display) = match owner {
                None => match it.kind {
                    ItemKind::Impl => continue,
                    ItemKind::MacroDef => {
                        if !it.macro_export {
                            continue;
                        }
                        (it.kind.label(), it.name.clone())
                    }
                    _ => {
                        if !it.is_pub {
                            continue;
                        }
                        (it.kind.label(), it.name.clone())
                    }
                },
                Some(ow) => {
                    if !matches!(
                        it.kind,
                        ItemKind::Fn | ItemKind::Const | ItemKind::TypeAlias
                    ) {
                        continue;
                    }
                    let visible = match ow.kind {
                        // Inherent-impl members carry their own `pub`;
                        // trait-impl members are the trait's surface, not new API.
                        ItemKind::Impl => ow.inherent_impl && it.is_pub,
                        // Trait members are public iff the trait is.
                        _ => ow.is_pub,
                    };
                    if !visible {
                        continue;
                    }
                    (it.kind.label(), format!("{}::{}", ow.name, it.name))
                }
            };

            let mut path: Vec<&str> = base.iter().map(String::as_str).collect();
            path.extend(mods);
            let full = if path.is_empty() {
                display
            } else {
                format!("{}::{display}", path.join("::"))
            };
            let entry = format!("{crate_label}\t{label}\t{full}");
            out.entry(entry)
                .or_insert_with(|| (f.rel_path.clone(), it.kw_line));
        }
    }
    out
}

/// Module path of a source file, or `None` for binary-style files that
/// carry no library surface.
fn file_mod_path(rel: &str, crate_name: &str) -> Option<Vec<String>> {
    if crate_name == "examples" || rel.ends_with("main.rs") || rel.contains("/bin/") {
        return None;
    }
    let tail = if let Some(pos) = rel.find("/src/") {
        &rel[pos + 5..]
    } else {
        rel.strip_prefix("src/")?
    };
    let mut parts: Vec<String> = tail.split('/').map(str::to_string).collect();
    let last = parts.pop()?;
    if last != "lib.rs" && last != "mod.rs" {
        parts.push(last.strip_suffix(".rs")?.to_string());
    }
    Some(parts)
}

/// Diff the current surface against `lint/api-baseline.txt` (or rewrite
/// the baseline when `bless` is set).
pub(crate) fn check(
    files: &[SourceFile],
    root: &Path,
    bless: bool,
    out: &mut Vec<Violation>,
) -> Result<(), String> {
    let surf = surface(files);
    let baseline_path = root.join("lint").join("api-baseline.txt");
    let baseline_rel = "lint/api-baseline.txt";
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
    let Ok(body) = std::fs::read_to_string(&baseline_path) else {
        out.push(Violation::new(
            baseline_rel,
            0,
            "api-baseline",
            format!(
                "missing API baseline; bless with `VOXEL_BLESS=1` ({} public entries found)",
                surf.len()
            ),
        ));
        return Ok(());
    };
    let baseline: BTreeSet<&str> = body
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    for (entry, (path, line)) in &surf {
        if !baseline.contains(entry.as_str()) {
            out.push(Violation::new(
                path,
                *line,
                "api-baseline",
                format!(
                    "new public API `{}` is not in lint/api-baseline.txt; review the surface change and bless with `VOXEL_BLESS=1`",
                    entry.replace('\t', " ")
                ),
            ));
        }
    }
    for b in &baseline {
        if !surf.contains_key(*b) {
            out.push(Violation::new(
                baseline_rel,
                0,
                "api-baseline",
                format!(
                    "baselined public API `{}` no longer exists; re-bless with `VOXEL_BLESS=1`",
                    b.replace('\t', " ")
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn surf(files: &[(&str, &str, &str)]) -> Vec<String> {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(p, c, s)| SourceFile::parse(p, c, s))
            .collect();
        surface(&parsed).into_keys().collect()
    }

    #[test]
    fn pub_items_impl_members_and_trait_methods() {
        let src = "pub struct Pacer { budget: u64 }\nimpl Pacer {\n    pub fn new() -> Pacer { Pacer { budget: 0 } }\n    fn internal(&self) {}\n}\npub trait Clock {\n    fn now_ms(&self) -> u64;\n}\nimpl Clock for Pacer {\n    fn now_ms(&self) -> u64 { 0 }\n}\npub fn free() {}\nfn private() {}\n";
        let got = surf(&[("crates/quic/src/pacer.rs", "quic", src)]);
        assert_eq!(
            got,
            vec![
                "quic\tfn\tpacer::Clock::now_ms",
                "quic\tfn\tpacer::Pacer::new",
                "quic\tfn\tpacer::free",
                "quic\tstruct\tpacer::Pacer",
                "quic\ttrait\tpacer::Clock",
            ]
        );
    }

    #[test]
    fn module_paths_visibility_and_test_code() {
        let src = "pub mod outer {\n    pub fn visible() {}\n    mod hidden {\n        pub fn buried() {}\n    }\n}\npub use crate::outer::visible;\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\nfn body() {\n    pub struct Local;\n}\n";
        let got = surf(&[("crates/core/src/lib.rs", "core", src)]);
        assert_eq!(
            got,
            vec![
                "core\tfn\touter::visible",
                "core\tmod\touter",
                "core\tuse\tcrate::outer::visible",
            ]
        );
    }

    #[test]
    fn macro_export_root_crate_and_bin_files() {
        let files = [
            (
                "crates/trace/src/lib.rs",
                "trace",
                "#[macro_export]\nmacro_rules! trace_event {\n    () => {};\n}\nmacro_rules! private_mac {\n    () => {};\n}\n",
            ),
            ("src/lib.rs", ".", "pub fn facade() {}\n"),
            ("crates/lint/src/main.rs", "lint", "pub fn not_api() {}\n"),
            ("examples/demo.rs", "examples", "pub fn also_not() {}\n"),
        ];
        let got = surf(&files);
        assert_eq!(got, vec!["trace\tmacro\ttrace_event", "voxel\tfn\tfacade"]);
    }

    #[test]
    fn mod_rs_and_nested_file_paths() {
        let files = [
            (
                "crates/media/src/video/mod.rs",
                "media",
                "pub struct Video;\n",
            ),
            (
                "crates/media/src/video/ladder.rs",
                "media",
                "pub fn rungs() {}\n",
            ),
        ];
        let got = surf(&files);
        assert_eq!(
            got,
            vec![
                "media\tfn\tvideo::ladder::rungs",
                "media\tstruct\tvideo::Video"
            ]
        );
    }

    #[test]
    fn bless_then_check_round_trip_and_drift() {
        let scratch =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/lint-scratch/api-round-trip");
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).expect("scratch dir");

        let v1 = [(
            "crates/quic/src/lib.rs".to_string(),
            "quic".to_string(),
            "pub fn send() {}\n".to_string(),
        )];
        let parse_all = |files: &[(String, String, String)]| -> Vec<SourceFile> {
            files
                .iter()
                .map(|(p, c, s)| SourceFile::parse(p, c, s))
                .collect()
        };

        // No baseline yet: one finding, pointing at the bless workflow.
        let mut out = Vec::new();
        check(&parse_all(&v1), &scratch, false, &mut out).expect("check");
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("missing API baseline"));

        // Bless, then the same surface is clean.
        check(&parse_all(&v1), &scratch, true, &mut Vec::new()).expect("bless");
        let mut out = Vec::new();
        check(&parse_all(&v1), &scratch, false, &mut out).expect("check");
        assert!(out.is_empty(), "{out:?}");

        // Add a pub fn: fails at the new item until re-blessed; remove
        // one: fails at the baseline file.
        let v2 = [(
            "crates/quic/src/lib.rs".to_string(),
            "quic".to_string(),
            "pub fn send() {}\npub fn recv() {}\n".to_string(),
        )];
        let mut out = Vec::new();
        check(&parse_all(&v2), &scratch, false, &mut out).expect("check");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "api-baseline");
        assert_eq!(
            (out[0].path.as_str(), out[0].line),
            ("crates/quic/src/lib.rs", 2)
        );

        let v3: [(String, String, String); 0] = [];
        let mut out = Vec::new();
        check(&parse_all(&v3), &scratch, false, &mut out).expect("check");
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("no longer exists"));
        assert_eq!(out[0].path, "lint/api-baseline.txt");

        let _ = std::fs::remove_dir_all(&scratch);
    }
}
