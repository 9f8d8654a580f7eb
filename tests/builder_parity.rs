//! API-redesign safety net: `Experiment::builder()` is the only way to
//! assemble an experiment, so it must be insensitive to everything but
//! the final value of each knob.
//!
//! Runs every canonical golden scenario twice — once with the setters in
//! the natural order, once scrambled with every knob first set to a
//! decoy value and then overridden — and requires the two JSONL
//! timelines to match byte-for-byte. Any divergence means builder call
//! order leaks into the configuration and the pinned goldens would
//! drift under an innocent refactor of a call site.

use voxel::prelude::*;
use voxel::testkit::digest::timeline_digest;
use voxel::testkit::scenario::Inject;
use voxel::testkit::GOLDENS;
use voxel::trace::{JsonlSink, SharedBuf};

fn run_with(config: &Config, scenario: &Scenario, seed: u64, content: &mut Content) -> Vec<u8> {
    let (manifest, video, qoe) = content.get(scenario.video);
    let buf = SharedBuf::new();
    let tracer = Tracer::new(0, Box::new(JsonlSink::to_writer(Box::new(buf.clone()))));
    let faults = (!scenario.faults.is_empty())
        .then(|| voxel::netem::FaultPlane::new(seed, scenario.faults.clone()));
    run_instrumented_trial(config, &manifest, &video, &qoe, 0, tracer, faults);
    buf.contents()
}

#[test]
fn builder_call_order_cannot_change_the_timeline() {
    let mut content = Content::new();
    for g in &GOLDENS {
        let Ok(Spec::Scenario(scenario)) = Spec::parse(g.spec) else {
            continue;
        };
        let (abr, transport) = system_by_name(&scenario.system).expect("legend system");
        let trace = scenario.build_trace(g.seed);
        let skew = scenario.inject == Some(Inject::StallSkew);

        // The natural order is the one place scenarios become builders.
        let natural = scenario
            .experiment(g.seed)
            .expect("legend system")
            .build()
            .into_config();

        // Decoy values for every knob, each overridden afterwards in a
        // different order; only the final values may matter.
        let scrambled = Experiment::builder()
            .queue(7)
            .trials(1)
            .buffer(99)
            .abr(AbrKind::Bola)
            .debug_stall_skew(!skew)
            .selective_retx(false)
            .debug_stall_skew(skew)
            .queue(scenario.queue_packets)
            .trace(trace)
            .trials(scenario.trials)
            .transport(transport)
            .selective_retx(true)
            .abr(abr)
            .transport(transport)
            .buffer(scenario.buffer_segments)
            .video(scenario.video)
            .build()
            .into_config();

        let a = run_with(&natural, &scenario, g.seed, &mut content);
        let b = run_with(&scrambled, &scenario, g.seed, &mut content);
        assert!(!a.is_empty(), "{}: natural run produced no events", g.name);
        assert_eq!(
            timeline_digest(&a),
            timeline_digest(&b),
            "{}: builder call order changed the timeline",
            g.name
        );
        assert_eq!(a, b, "{}: timelines differ byte-wise", g.name);
    }
}

#[test]
fn builder_defaults_are_the_papers_section_5() {
    let built = Experiment::builder().build();
    let b = built.config();
    assert_eq!(b.video, VideoId::Bbb);
    assert_eq!(b.abr, AbrKind::voxel());
    assert_eq!(b.transport, TransportMode::Split);
    assert_eq!(b.buffer_segments, 3);
    assert_eq!(b.queue_packets, 32);
    assert_eq!(b.trials, 30);
    assert!(b.selective_retx);
    assert_eq!(b.cc, CcKind::Cubic);
    assert!(!b.debug_stall_skew);
}
