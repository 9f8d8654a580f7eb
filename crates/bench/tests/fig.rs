//! The `fig` front door end to end: the one `EXHIBITS` table against every
//! document that renders it, the binary's argument contract, and `fig
//! check` over the committed `results/` of every exhibit cheap enough to
//! regenerate on each test run.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "a test aborts on a failed run"
)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use voxel_bench::EXHIBITS;

fn repo(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

fn fig(args: &[&str], trials: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig"))
        .args(args)
        .env("VOXEL_TRIALS", trials)
        .output()
        .expect("fig runs")
}

/// An exhibit is stated once, in `EXHIBITS`: the committed results,
/// EXPERIMENTS.md, DESIGN.md §5 and README's list all follow the table.
#[test]
fn every_index_of_the_exhibits_follows_the_table() {
    let mut ids: Vec<&str> = EXHIBITS.iter().map(|e| e.id).collect();
    let experiments = read("EXPERIMENTS.md");
    for id in &ids {
        assert!(
            experiments.contains(&format!("`{id}`")),
            "EXPERIMENTS.md has no row for `{id}`"
        );
    }
    let readme: String = EXHIBITS
        .iter()
        .map(|e| format!("{:16} {}\n", e.id, e.paper))
        .collect();
    assert!(
        read("README.md").contains(&readme),
        "README.md's exhibit list should read:\n{readme}"
    );
    assert!(
        read("DESIGN.md").contains(&voxel_bench::list()),
        "DESIGN.md §5 is not the output of `fig list`"
    );
    for e in &EXHIBITS {
        for module in e.modules.split(", ") {
            if let Some((krate, file)) = module.split_once("::") {
                let rel = format!("crates/{krate}/src/{file}.rs");
                assert!(repo(&rel).is_file(), "{}: {module} has no {rel}", e.id);
            }
        }
    }

    let mut stems: Vec<String> = std::fs::read_dir(repo("results"))
        .expect("results/ exists")
        .filter_map(|f| {
            Some(
                f.ok()?
                    .file_name()
                    .to_str()?
                    .strip_suffix(".txt")?
                    .to_string(),
            )
        })
        .collect();
    stems.sort();
    ids.sort();
    assert_eq!(stems, ids, "results/*.txt vs EXHIBITS ids");
    ids.dedup();
    assert_eq!(ids.len(), EXHIBITS.len(), "duplicate exhibit id");
}

/// The exhibits that play no sessions are pure functions of the content
/// model, and take about a second: `fig check` regenerates each at the
/// trial count recorded in its header and finds `results/<id>.txt` byte
/// for byte. (ci.sh runs the same check over every exhibit.)
#[test]
fn offline_exhibits_reproduce_their_committed_results_byte_for_byte() {
    let offline: Vec<&str> = EXHIBITS
        .iter()
        .filter(|e| !e.simulates)
        .map(|e| e.id)
        .collect();
    let out = fig(&[&["check"], &offline[..]].concat(), "1");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "fig check printed an exhibit");
}

#[test]
fn an_unknown_id_exits_2_listing_the_valid_ids_and_runs_nothing() {
    for args in [
        &["fig4"][..],
        &["tables", "nope"],
        &["check", "nope"],
        &["cells", "nope"],
        &[],
    ] {
        let out = fig(args, "1");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed an exhibit");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let ids: Vec<&str> = EXHIBITS.iter().map(|e| e.id).collect();
        assert!(stderr.contains(&ids.join("|")), "{stderr}");
    }
    // A trial count that is not a positive integer is named, not
    // replaced by a default or rounded up to one.
    for trials in ["0", "six"] {
        let out = fig(&["tables"], trials);
        assert_eq!(out.status.code(), Some(2), "VOXEL_TRIALS={trials}");
        assert!(
            out.stdout.is_empty(),
            "VOXEL_TRIALS={trials} printed an exhibit"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("VOXEL_TRIALS=\"{trials}\"")),
            "{stderr}"
        );
    }
}

#[test]
fn list_prints_the_index_and_ids_run_in_the_order_given() {
    let out = fig(&["list"], "1");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), voxel_bench::list());

    let both = fig(&["fig15", "tables"], "1").stdout;
    let each = [fig(&["fig15"], "1").stdout, fig(&["tables"], "1").stdout].concat();
    assert!(!both.is_empty() && both == each);
}

/// `fig cells` prints each session an exhibit plays as a scenario spec, at
/// the trial count asked for and in printer order, and runs nothing.
#[test]
fn cells_prints_every_session_as_a_scenario_spec() {
    let out = fig(&["cells", "fig16", "tables"], "2");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("# trace seed 2021: "), "{text}");
    let specs: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(specs.len(), 48);
    assert_eq!(
        specs[..3],
        [
            "BBB:BOLA:tmobile:buf1:q750:n2:d300",
            "BBB:VOXEL-tuned:tmobile:buf1:q750:n2:d300",
            "BBB:VOXEL-tuned@delay:tmobile:buf1:q750:n2:d300",
        ]
    );
    for spec in specs {
        let parsed = voxel_testkit::Scenario::parse(spec).expect("a printed cell parses");
        assert_eq!(parsed.spec(), spec);
    }
}
