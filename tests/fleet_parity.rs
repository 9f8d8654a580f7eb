//! Tier-1 sharded-parity slice: `workers` is a performance knob, never a
//! semantic one. The same fleet spec must produce a byte-identical
//! timeline and identical metrics at every worker count — including
//! counts that exceed the session count (clamped) and partitions that
//! split heterogeneous systems across shards. The full golden-fleet
//! parity sweep (every committed digest at w ∈ {1, 2, max}) runs in
//! tier-2 (`cargo run -p voxel-bench --bin conformance`).

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "a test aborts on a failed run"
)]

use std::path::Path;
use voxel::prelude::*;
use voxel::testkit::{
    check_or_bless, run_golden, shard_parity_failures, Golden, GoldenRun,
    EDGE_HOT_ORIGIN_FRACTION_OF_COLD,
};

/// Run `spec` at workers = 1 and at every count in `counts` through the
/// testkit parity oracle (byte-identical timelines; equal loop_iters,
/// end_s, jain, shares, link stats, edge report and per-session results,
/// transport counters included; `fleet_invariants` on every run), with
/// explicit per-run worker overrides — the environment knob is never
/// consulted, so these tests are immune to an ambient
/// `VOXEL_SHARD_WORKERS`. Returns the workers=1 result.
fn assert_parity(spec: &str, counts: &[usize], content: &Content) -> FleetResult {
    let spec = FleetSpec::parse(spec).expect("spec");
    let counts: Vec<usize> = std::iter::once(1).chain(counts.iter().copied()).collect();
    let (run, violations) =
        shard_parity_failures("fleet", &spec, content, &counts).expect("spec runs");
    assert!(violations.is_empty(), "{spec}: {violations:?}");
    assert!(!run.timeline.is_empty());
    run.result
}

/// Run golden `name` as a parity sweep at w ∈ {1, 2, max} and hold the
/// workers=1 timeline — already computed — to its committed digest.
fn golden_holds_parity_and_digest(name: &str, content: &mut Content) -> GoldenRun {
    let g = Golden::named(name).expect("golden is in the table");
    let Ok(Spec::Fleet(spec)) = Spec::parse(g.spec) else {
        panic!("{name} is a fleet golden")
    };
    let run = run_golden(g, content, &[1, 2, spec.total_sessions()]).expect("spec runs");
    assert!(run.failures.is_empty(), "{name}: {:?}", run.failures);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    check_or_bless(&dir, g, &run.timeline).unwrap_or_else(|e| panic!("{name}: {e}"));
    run
}

#[test]
fn mixed_fleet_is_byte_identical_across_worker_counts() {
    let cache = Content::new();
    // Heterogeneous systems, staggered starts, sessions running to
    // natural completion. Worker counts cover: even split, uneven split,
    // one-session shards, and a count past the fleet size (clamped).
    let r = assert_parity(
        "BBB:2xVOXEL+1xBOLA:const6:buf3:q64:d60:drr:stg1",
        &[2, 3, 5],
        &cache,
    );
    assert!(r.sessions.iter().all(|s| s.completed));
}

#[test]
fn cap_freeze_is_byte_identical_across_worker_counts() {
    let cache = Content::new();
    // A cap far below the time the fleet needs forces the coordinator's
    // global freeze — the one round where every shard acts at once.
    let r = assert_parity(
        "BBB:2xVOXEL+2xBOLA:const6:buf3:q64:d60:drr:stg1:cap10",
        &[2, 4],
        &cache,
    );
    assert!(
        r.sessions.iter().any(|s| !s.completed),
        "cap did not bite; freeze path untested"
    );
    assert_eq!(r.end_s, 10.0, "frozen runs end exactly at the cap");
}

/// The two congestion-control goldens (DESIGN.md §15) hold byte-parity
/// at w ∈ {1, 2, max} in tier-1, not just in the tier-2 sweep: BBR's
/// delivery-rate sampler and pacing feed off ack timing, the most
/// tempting place for a shard boundary to leak into the timeline. Runs
/// through the testkit parity harness so the cc-mix fairness-band and
/// per-cc-group starvation oracles apply to every run, and the
/// workers=1 timeline is held to the committed digest.
#[test]
fn cc_goldens_hold_parity_at_one_two_and_max_workers() {
    let mut content = Content::new();
    for name in ["fleet-bbr8", "fleet-ccmix8"] {
        golden_holds_parity_and_digest(name, &mut content);
    }
}

/// The edge serving tier runs coordinator-side off shard-exported serve
/// notes, so it must be as partition-blind as the link: same caches,
/// same origin backlog, same per-flow gates — byte-identical timelines
/// and identical edge reports at every worker count. Exercises both
/// admission extremes (a gating cold tier stresses the held-packet
/// staging; a hot tier stresses note-order cache replay).
#[test]
fn edge_tier_is_byte_identical_across_worker_counts() {
    let cache = Content::new();
    for admission in ["afull", "anone"] {
        let spec = format!(
            "BBB:4xVOXEL+2xBOLA:const9:buf3:q64:d60:drr:stg1:cap30:e2:rhash:{admission}:plru:o25"
        );
        let r = assert_parity(&spec, &[2, 3, 6], &cache);
        let edge = r.edge.expect("edge tier ran");
        assert_eq!(
            edge.edges.iter().map(|e| e.sessions).sum::<usize>(),
            6,
            "every session routed to an edge"
        );
        assert!(edge.hits + edge.misses > 0, "edge tier saw lookups");
        if admission == "anone" {
            assert_eq!(edge.hits, 0, "admission none must never hit");
            assert!(edge.origin_bytes > 0, "cold tier rides the origin");
        }
    }
}

/// The committed edge goldens themselves hold parity at w ∈ {1, 2, max}
/// in tier-1 and match their committed digests; `run_golden` also holds
/// the hot golden to the testkit's hot-cache oracles. The two runs then
/// answer for the tier's point: the hot cache shields the origin from
/// all but a sliver of the cold tier's traffic.
#[test]
fn edge_goldens_hold_parity_at_one_two_and_max_workers() {
    let mut content = Content::new();
    let [hot, cold] = ["fleet-edge4x16-hot", "fleet-edge4x16-cold"].map(|name| {
        let run = golden_holds_parity_and_digest(name, &mut content);
        run.fleet
            .and_then(|r| r.edge)
            .expect("edge golden carries an edge report")
            .origin_bytes
    });
    assert!(
        hot as f64 <= EDGE_HOT_ORIGIN_FRACTION_OF_COLD * cold as f64,
        "origin shield: hot tier pulled {hot} B against the cold tier's {cold} B \
         (gate {EDGE_HOT_ORIGIN_FRACTION_OF_COLD} of cold)"
    );
}

#[test]
fn fifo_discipline_parity_holds_too() {
    let cache = Content::new();
    // FIFO couples flows through one global arrival order — the most
    // merge-order-sensitive configuration the link supports.
    assert_parity(
        "BBB:2xVOXEL+1xBETA:const6:buf3:q32:d60:fifo:stg1:cap30",
        &[2, 3],
        &cache,
    );
}
