//! End-to-end tests of the `voxel-lint` binary over the checked-in fixture
//! workspaces, each a one-crate workspace that rustdoc really documents.

use std::path::Path;
use std::process::Command;

/// The lint binary exits 1 on its bad fixture, whose baseline drifts both
/// ways (two live items are missing from it, and its one entry names
/// nothing), 0 on the clean one, and 2 on an unknown argument.
#[test]
fn binary_self_test() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let run = |fixture: &str, args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_voxel-lint"))
            .current_dir(fixtures.join(fixture))
            .args(args)
            .env_remove("VOXEL_BLESS")
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (out.status.code(), stdout)
    };

    let (code, stdout) = run("bad", &["--root", "."]);
    assert_eq!(code, Some(1), "bad fixture must fail: {stdout}");
    assert_eq!(stdout.matches("new public API").count(), 2, "{stdout}");
    assert!(stdout.contains("src/lib.rs:8: [api-baseline]"), "{stdout}");
    assert!(
        stdout.contains("`quic fn Conn::gone` no longer"),
        "{stdout}"
    );

    let (code, stdout) = run("clean", &["--root", ".", "--max-seconds", "60"]);
    assert_eq!(code, Some(0), "clean fixture must pass: {stdout}");

    let (code, _) = run("clean", &["--bogus"]);
    assert_eq!(code, Some(2), "unknown argument is exit 2");
}
