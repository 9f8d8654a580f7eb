//! Golden timeline digests (DESIGN.md §11): every canonical scenario's
//! voxel-trace JSONL must hash to the digest committed under
//! `tests/golden/`. Any behavioral change to quic/abr/player surfaces
//! here as a reviewable digest diff instead of silent results drift.
//!
//! After an *intentional* behavior change, re-bless with
//! `VOXEL_BLESS=1 cargo test --test golden_digests` and commit the
//! updated `tests/golden/*.digest` files alongside the change.

use std::collections::BTreeSet;
use std::path::Path;
use voxel::testkit::{check_or_bless, run_golden, Content, Golden, GoldenStatus, Spec, GOLDENS};
use voxel::trace::{MetricShape, KINDS, METRICS};

/// The single-session goldens: tier-1 runs and checks these here; the
/// fleet goldens are run (and their digests checked) by
/// `tests/fleet_parity.rs` and the tier-2 conformance sweep.
fn scenario_goldens() -> impl Iterator<Item = &'static Golden> {
    GOLDENS
        .iter()
        .filter(|g| matches!(Spec::parse(g.spec), Ok(Spec::Scenario(_))))
}

/// The profiler must be a pure observer (DESIGN.md §13): arming it at
/// sample=1 — every span taken, every alloc counted — must not perturb
/// a single byte of the simulated timeline.
#[test]
fn goldens_unchanged_with_profiler_armed() {
    let mut content = Content::new();
    for g in scenario_goldens() {
        let baseline = run_golden(g, &mut content, &[]).expect("scenario runs");
        assert!(
            baseline.failures.is_empty(),
            "golden {} baseline failed: {:?}",
            g.name,
            baseline.failures
        );

        let profiler = voxel::obs::Profiler::with_sample(1);
        let profiled = {
            let _armed = profiler.install();
            run_golden(g, &mut content, &[]).expect("scenario runs under profiler")
        };
        assert!(
            profiled.failures.is_empty(),
            "golden {} profiled failed: {:?}",
            g.name,
            profiled.failures
        );
        assert!(
            baseline.timeline == profiled.timeline,
            "golden {} timeline changed with the profiler armed",
            g.name
        );

        let report = profiler.report().expect("armed profiler yields a report");
        assert!(
            report.total_ns() > 0,
            "golden {} recorded no spans at sample=1 — instrumentation is dead",
            g.name
        );
    }
}

/// The table and the directory agree: every `GOLDENS` entry has a
/// committed digest and every `tests/golden/*.digest` has an entry (so
/// `VOXEL_BLESS=1 cargo run --release -p voxel-bench --bin conformance`
/// regenerates exactly these files), and the bless workflow itself stays
/// documented in DESIGN.md.
#[test]
fn cc_fleet_goldens_are_committed_and_regenerable() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut committed: Vec<String> = std::fs::read_dir(&dir)
        .expect("tests/golden exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    committed.sort();
    let mut tabled: Vec<String> = GOLDENS
        .iter()
        .map(|g| format!("{}.digest", g.name))
        .collect();
    tabled.sort();
    assert_eq!(
        committed, tabled,
        "tests/golden/ and GOLDENS disagree; regenerate with VOXEL_BLESS=1 \
         cargo run --release -p voxel-bench --bin conformance"
    );
    for g in &GOLDENS {
        let digest =
            std::fs::read_to_string(dir.join(format!("{}.digest", g.name))).expect("listed above");
        assert!(
            digest.trim_end().ends_with(&format!("spec:{}", g.spec)),
            "{} digest was blessed for another spec: {digest}",
            g.name
        );
    }
    let design = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
        .expect("DESIGN.md");
    assert!(
        design.contains("VOXEL_BLESS=1"),
        "the bless workflow is no longer documented in DESIGN.md"
    );
}

#[test]
fn canonical_timelines_match_their_golden_digests() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut content = Content::new();
    for g in scenario_goldens() {
        let run = run_golden(g, &mut content, &[]).expect("scenario runs");
        assert!(
            run.failures.is_empty(),
            "golden {} failed its oracles: {:?}",
            g.name,
            run.failures
        );
        match check_or_bless(&dir, g, &run.timeline) {
            Ok(GoldenStatus::Matched) => {}
            Ok(GoldenStatus::Blessed) => eprintln!("blessed golden {}", g.name),
            Err(e) => panic!(
                "golden {} diverged: {e}\n\
                 If this change is intentional, re-bless with \
                 VOXEL_BLESS=1 cargo test --test golden_digests",
                g.name
            ),
        }
    }
}

/// The other direction of the taxonomy check (DESIGN.md §9): `run_golden`
/// holds every line and metric a golden emits to `KINDS` and `METRICS`;
/// here every row must be emitted by some golden run. The T-Mobile golden
/// (split transport, partial reliability, PTOs, abandons) and the hot edge
/// fleet produce all kinds but the two stall kinds, because no golden
/// stalls; a short run below the ladder's lowest bitrate covers those.
/// The profiler armed over the runs reports the profiler-owned `obs.*`
/// names.
#[test]
fn every_taxonomy_row_is_emitted_by_a_golden_run() {
    /// Rows no golden run produces, each with the reason.
    const EXCEPTIONS: [(&str, &str); 2] = [
        (
            "quic.btlbw_bps",
            "BBR only: no scenario golden runs BBR, and a fleet keeps its \
             sessions' transport metrics off its tracer",
        ),
        (
            "trace.dropped",
            "lossy sinks only: a golden's timeline goes to an unbounded \
             buffer (voxel-trace's tracer tests pin the ring's count)",
        ),
    ];
    static STALLS: Golden = Golden {
        name: "stalls",
        spec: "BBB:BOLA:const0.15",
        seed: 1,
    };
    let mut content = Content::new();
    let mut kinds = BTreeSet::new();
    let mut metrics = BTreeSet::new();
    let profiler = voxel::obs::Profiler::enabled();
    {
        let _armed = profiler.install();
        let goldens = ["voxel-tmobile-buf1", "fleet-edge4x16-hot"]
            .map(|name| Golden::named(name).expect("golden is in the table"));
        for g in goldens.into_iter().chain([&STALLS]) {
            let run = run_golden(g, &mut content, &[1]).expect("golden runs");
            assert!(run.failures.is_empty(), "{}: {:?}", g.name, run.failures);
            kinds.extend(run.emitted.kinds);
            metrics.extend(run.emitted.metrics);
        }
    }
    let report = profiler.report().expect("armed profiler yields a report");
    for (name, _) in &report.histograms {
        let row = METRICS
            .iter()
            .find(|m| m.name == name && m.shape == MetricShape::Histogram)
            .unwrap_or_else(|| panic!("profiler histogram `{name}` has no METRICS row"));
        metrics.insert(row.name);
    }

    let silent: Vec<&str> = KINDS
        .iter()
        .map(|k| k.kind)
        .filter(|k| !kinds.contains(k))
        .collect();
    assert!(
        silent.is_empty(),
        "KINDS rows no golden run emits: {silent:?}"
    );
    let silent: Vec<&str> = METRICS
        .iter()
        .map(|m| m.name)
        .filter(|m| !metrics.contains(m) && !EXCEPTIONS.iter().any(|(e, _)| e == m))
        .collect();
    assert!(
        silent.is_empty(),
        "METRICS rows no golden run emits: {silent:?}"
    );
    for (name, why) in EXCEPTIONS {
        assert!(
            METRICS.iter().any(|m| m.name == name),
            "exception `{name}` names no METRICS row"
        );
        assert!(
            !metrics.contains(name),
            "`{name}` is emitted now; drop its exception ({why})"
        );
    }
}
