//! End-to-end tests over the checked-in fixture workspaces and the
//! `voxel-lint` binary itself.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use voxel_lint::{run_with, Options};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Every rule family fires somewhere on the seeded-bad tree — the
/// failing fixture each rule's acceptance criterion asks for.
#[test]
fn bad_fixture_trips_every_rule() {
    let violations = run_with(&fixture_root("bad"), &Options::default()).expect("lint runs");
    let fired: BTreeSet<&str> = violations
        .iter()
        .filter(|v| !v.waived)
        .map(|v| v.rule)
        .collect();
    for rule in [
        "nondeterministic-map",
        "wall-clock",
        "panic",
        "float-eq",
        "deep-import",
        "shard-unshareable",
        "lock-order",
        "api-baseline",
        "trace-taxonomy",
        "stale-waiver",
        "waiver-missing-reason",
    ] {
        assert!(fired.contains(rule), "{rule} did not fire; got {fired:?}");
    }
}

/// The seeded-clean tree passes — the passing fixture for the same
/// rules, with waivers exercised for real.
#[test]
fn clean_fixture_is_clean_with_waivers_in_use() {
    let violations = run_with(&fixture_root("clean"), &Options::default()).expect("lint runs");
    let unwaived: Vec<_> = violations.iter().filter(|v| !v.waived).collect();
    assert!(unwaived.is_empty(), "{unwaived:?}");
    let waived = violations.iter().filter(|v| v.waived).count();
    assert!(waived >= 3, "expected the fixture waivers to be exercised");
}

/// `--only <family>` restricts the pass; the bad tree still fails on the
/// api family alone, and an unknown family is an operational error.
#[test]
fn only_family_restriction() {
    let opts = Options {
        bless: false,
        only: Some("api".to_string()),
    };
    let v = run_with(&fixture_root("bad"), &opts).expect("api pass runs");
    assert!(v.iter().all(|v| v.rule == "api-baseline"), "{v:?}");
    assert!(v.iter().any(|v| !v.waived));
}

/// The lint binary exits non-zero on its own bad fixture, zero on the
/// clean one, and `--json` writes the machine-readable report.
#[test]
fn binary_self_test() {
    let bin = env!("CARGO_BIN_EXE_voxel-lint");
    let bad = fixture_root("bad");
    let clean = fixture_root("clean");

    let status = Command::new(bin)
        .args(["--root", bad.to_str().expect("utf8 path")])
        .env_remove("VOXEL_BLESS")
        .output()
        .expect("binary runs");
    assert_eq!(status.status.code(), Some(1), "bad fixture must fail");

    let json_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-self-test.json");
    let status = Command::new(bin)
        .args([
            "--root",
            clean.to_str().expect("utf8 path"),
            "--json",
            json_path.to_str().expect("utf8 path"),
            "--max-seconds",
            "60",
        ])
        .env_remove("VOXEL_BLESS")
        .output()
        .expect("binary runs");
    assert_eq!(
        status.status.code(),
        Some(0),
        "clean fixture must pass: {}",
        String::from_utf8_lossy(&status.stdout)
    );
    let json = std::fs::read_to_string(&json_path).expect("json report written");
    assert!(json.trim_start().starts_with('['), "{json}");
    // The clean tree has waived findings; they appear in the JSON even
    // though the run passes.
    assert!(json.contains("\"waived\":true"), "{json}");

    let status = Command::new(bin)
        .args(["--only", "bogus"])
        .output()
        .expect("binary runs");
    assert_eq!(status.status.code(), Some(2), "unknown family is exit 2");
}
