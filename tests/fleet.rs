//! Tier-1 slice of the fleet runtime: determinism and fairness. The full
//! 8-session golden fleets run in tier-2 (`cargo run -p voxel-bench --bin
//! conformance`).

#![allow(clippy::expect_used, reason = "a test aborts on a failed run")]

use voxel::prelude::*;
use voxel::testkit::fleet_invariants;
use voxel::trace::{JsonlSink, SharedBuf};

fn traced_fleet(spec: &FleetSpec, cache: &ContentCache) -> (FleetResult, Vec<u8>) {
    let buf = SharedBuf::new();
    let tracer = Tracer::new(0, Box::new(JsonlSink::to_writer(Box::new(buf.clone()))));
    let r = run_fleet(spec, cache, tracer).expect("spec runs");
    (r, buf.contents())
}

#[test]
fn fleet_runs_are_deterministic_and_pass_oracles() {
    let cache = ContentCache::top_level_only();
    let spec = FleetSpec::parse("BBB:2xVOXEL+1xBOLA:const6:buf3:q64:d60:drr:stg1").expect("spec");

    let (r1, t1) = traced_fleet(&spec, &cache);
    let (r2, t2) = traced_fleet(&spec, &cache);
    assert!(!t1.is_empty());
    assert_eq!(t1, t2, "fleet timelines must be byte-identical");
    assert_eq!(r1.shares_pct, r2.shares_pct);
    assert_eq!(r1.loop_iters, r2.loop_iters);

    assert_eq!(fleet_invariants(&spec, &r1), Vec::<String>::new());

    // The timeline is fleet-layer only and brackets the whole run.
    let text = String::from_utf8(t1).expect("JSONL is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].contains("\"kind\":\"fleet_start\""));
    assert!(lines.last().unwrap().contains("\"kind\":\"fleet_end\""));
    for line in &lines {
        assert!(line.contains("\"layer\":\"fleet\""), "{line}");
    }
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"fleet_session_end\""))
            .count(),
        3
    );
}

#[test]
fn homogeneous_fleets_share_the_link_fairly() {
    let cache = ContentCache::top_level_only();
    let spec = FleetSpec::parse("BBB:4xVOXEL:const6:buf3:q64:d120:drr:stg1").expect("spec");
    let r = run_fleet(&spec, &cache, Tracer::disabled()).expect("spec runs");
    assert!(r.all_completed());
    assert!(
        r.jain >= 0.8,
        "homogeneous VOXEL fleet must be fair, got Jain {:.3} (shares {:?})",
        r.jain,
        r.shares_pct
    );
}

#[test]
fn fifo_and_drr_disciplines_both_complete() {
    let cache = ContentCache::top_level_only();
    for disc in ["fifo", "drr"] {
        let spec =
            FleetSpec::parse(&format!("BBB:2xVOXEL:const8:buf3:q64:d60:{disc}")).expect("spec");
        let r = run_fleet(&spec, &cache, Tracer::disabled()).expect("spec runs");
        assert!(r.all_completed(), "{disc}: {:?}", r.shares_pct);
        assert_eq!(fleet_invariants(&spec, &r), Vec::<String>::new(), "{disc}");
    }
}

#[test]
fn single_session_fleet_degenerates_sanely() {
    let cache = ContentCache::top_level_only();
    let spec = FleetSpec::parse("BBB:1xVOXEL:const8:buf3:q64:d60").expect("spec");
    let r = run_fleet(&spec, &cache, Tracer::disabled()).expect("spec runs");
    assert_eq!(r.sessions.len(), 1);
    assert!(r.all_completed());
    assert!((r.jain - 1.0).abs() < 1e-12);
    assert!((r.shares_pct[0] - 100.0).abs() < 1e-9);

    // A fleet of one is the lone session it stands for, under either
    // discipline: one bottleneck model serves both paths. The link is
    // tight enough that the droptail drops packets.
    let mut content = Content::new();
    let lone = Scenario::parse("BBB:VOXEL:const1.5:buf3:q32:d60").expect("spec");
    let lone = run_scenario(&lone, 0, &mut content).expect("scenario runs");
    let lone = &lone.trials[0].result;
    assert!(lone.transport.packets_lost > 0);
    for disc in ["fifo", "drr"] {
        let spec =
            FleetSpec::parse(&format!("BBB:1xVOXEL:const1.5:buf3:q32:d60:{disc}")).expect("spec");
        let r = run_fleet(&spec, content.cache(), Tracer::disabled()).expect("spec runs");
        let fleet = &r.sessions[0];
        assert_eq!(fleet.segment_scores, lone.segment_scores, "{disc}");
        assert_eq!(fleet.segment_kbps, lone.segment_kbps, "{disc}");
        assert_eq!(fleet.stall_s, lone.stall_s, "{disc}");
        assert_eq!(fleet.bytes_downloaded, lone.bytes_downloaded, "{disc}");
        assert_eq!(fleet.transport, lone.transport, "{disc}");
    }
}
