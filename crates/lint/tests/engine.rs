//! End-to-end tests over the checked-in fixture workspaces and the
//! `voxel-lint` binary itself.

use std::path::{Path, PathBuf};
use std::process::Command;
use voxel_lint::{run_with, Options};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// The seeded-bad tree drifts from its baseline both ways: two live
/// items are missing from it, and its one entry names nothing.
#[test]
fn bad_fixture_trips_the_baseline_both_ways() {
    let violations = run_with(&fixture_root("bad"), &Options::default()).expect("lint runs");
    assert!(
        violations.iter().all(|v| v.rule == "api-baseline"),
        "{violations:?}"
    );
    let new = violations
        .iter()
        .filter(|v| v.msg.starts_with("new public API"));
    assert_eq!(new.count(), 2, "{violations:?}");
    assert!(
        violations.iter().any(|v| v.msg.contains("Conn::gone")),
        "{violations:?}"
    );
}

/// The seeded-clean tree passes the same rules.
#[test]
fn clean_fixture_is_clean() {
    let violations = run_with(&fixture_root("clean"), &Options::default()).expect("lint runs");
    assert!(violations.is_empty(), "{violations:?}");
}

/// The lint binary exits 1 on its own bad fixture, 0 on the clean one,
/// and 2 on an unknown argument.
#[test]
fn binary_self_test() {
    let bin = env!("CARGO_BIN_EXE_voxel-lint");
    let exit = |args: &[&str]| {
        let out = Command::new(bin)
            .args(args)
            .env_remove("VOXEL_BLESS")
            .output()
            .expect("binary runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let bad = fixture_root("bad");
    let clean = fixture_root("clean");

    let (code, _) = exit(&["--root", bad.to_str().expect("utf8 path")]);
    assert_eq!(code, Some(1), "bad fixture must fail");

    let (code, stdout) = exit(&[
        "--root",
        clean.to_str().expect("utf8 path"),
        "--max-seconds",
        "60",
    ]);
    assert_eq!(code, Some(0), "clean fixture must pass: {stdout}");

    let (code, _) = exit(&["--bogus"]);
    assert_eq!(code, Some(2), "unknown argument is exit 2");
}
