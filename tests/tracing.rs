//! Cross-layer tracing: timeline completeness, determinism, and the
//! transport statistics derived from the metrics registry.

use std::sync::Arc;
use voxel::core::client::{PlayerConfig, TransportMode};
use voxel::core::experiment::{run_instrumented_trial, AbrKind, Experiment};
use voxel::core::session::Session;
use voxel::media::content::VideoId;
use voxel::media::ladder::QualityLevel;
use voxel::media::qoe::QoeModel;
use voxel::media::video::Video;
use voxel::netem::{BandwidthTrace, PathConfig};
use voxel::prep::manifest::Manifest;
use voxel::trace::{JsonlSink, SharedBuf, Tracer};

/// A lossy VOXEL session (tight queue forces drops on the unreliable
/// body streams) through the same instrumented-trial entry point the
/// experiment pipeline uses.
fn run_with(tracer: Tracer) -> voxel::core::TrialResult {
    let video = Video::generate(VideoId::Bbb);
    let qoe = QoeModel::default();
    let manifest = Arc::new(Manifest::prepare_levels(&video, &qoe, &[QualityLevel::MAX]));
    let config = Experiment::builder()
        .video(VideoId::Bbb)
        .abr(AbrKind::voxel())
        .transport(TransportMode::Split)
        .buffer(3)
        .trace(BandwidthTrace::constant(3.0, 600))
        .queue(32)
        .build()
        .into_config();
    run_instrumented_trial(&config, &manifest, &Arc::new(video), &qoe, 0, tracer, None)
}

/// [`run_with`] a JSONL tracer writing into memory.
fn run_traced(session_id: u64) -> (voxel::core::TrialResult, Vec<u8>) {
    let buf = SharedBuf::new();
    let sink = JsonlSink::to_writer(Box::new(buf.clone()));
    let r = run_with(Tracer::new(session_id, Box::new(sink)));
    (r, buf.contents())
}

#[test]
fn timeline_covers_all_layers_and_is_deterministic() {
    let (r1, bytes1) = run_traced(7);
    let (_r2, bytes2) = run_traced(7);

    // Identically-seeded runs emit byte-identical event streams.
    assert!(!bytes1.is_empty());
    assert_eq!(bytes1, bytes2, "traced runs must be byte-identical");

    let text = String::from_utf8(bytes1).expect("JSONL is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 1_000, "only {} events", lines.len());

    // Well-formed JSONL bracketing the whole trial.
    for line in &lines {
        assert!(line.starts_with("{\"t\":") && line.ends_with('}'), "{line}");
        assert!(line.contains("\"sid\":7"));
    }
    assert!(lines[0].contains("\"kind\":\"trial_start\""));
    assert!(lines.last().unwrap().contains("\"kind\":\"trial_end\""));

    // Events from at least the four instrumented layers.
    for layer in ["quic", "http", "abr", "player"] {
        let needle = format!("\"layer\":\"{layer}\"");
        assert!(
            lines.iter().any(|l| l.contains(&needle)),
            "no {layer} events in the timeline"
        );
    }

    // All timestamps are sim-time microseconds within the trial.
    let end_us = lines
        .last()
        .and_then(|l| l["{\"t\":".len()..].split(',').next())
        .and_then(|s| s.parse::<u64>().ok())
        .expect("trial_end timestamp");
    for line in &lines {
        let t: u64 = line["{\"t\":".len()..]
            .split(',')
            .next()
            .unwrap()
            .parse()
            .expect("numeric timestamp");
        assert!(t <= end_us, "event at {t} past trial end {end_us}");
    }

    // The session actually exercised the interesting paths.
    assert_eq!(r1.segment_scores.len(), 75);
    assert!(
        text.contains("\"kind\":\"unreliable_loss\""),
        "expected unreliable-loss reports on a 3 Mbps / 32-packet path"
    );
}

#[test]
fn transport_stats_come_from_the_registry() {
    let (r, _) = run_traced(1);
    let snap = r.metrics.as_ref().expect("tracing was on");
    assert_eq!(snap.counter("quic.packets_sent"), r.transport.packets_sent);
    assert_eq!(snap.counter("quic.loss_events"), r.transport.loss_events);
    assert_eq!(snap.counter("quic.ptos"), r.transport.ptos);
    assert!(r.transport.packets_sent > 1_000);
    assert!(r.transport.bytes_sent > 1_000_000);
    // Mean cwnd is averaged over sends, so it sits between the registry's
    // observed extremes.
    let cwnd = snap.histogram("quic.cwnd_bytes").expect("observed");
    assert!(r.transport.mean_cwnd_bytes >= cwnd.min as f64);
    assert!(r.transport.mean_cwnd_bytes <= cwnd.max as f64);
    assert!(r.transport.mean_srtt_ms > 30.0, "srtt below the path delay");
    // ABR and player activity landed in the registry too.
    assert_eq!(snap.counter("abr.decisions"), 75);
    assert_eq!(snap.counter("player.segments_played"), 75);
    assert!(snap.counter("http.requests") + snap.counter("http.range_requests") >= 151);
}

/// Regression: the two mean fields used to be registry-histogram means
/// when traced and final instantaneous values when not, so a result
/// depended on whether anyone was watching.
#[test]
fn transport_stats_do_not_depend_on_the_observer() {
    let untraced = run_with(Tracer::disabled());
    let (traced, _events) = Tracer::memory(1, 16);
    let traced = run_with(traced);
    assert!(untraced.metrics.is_none() && traced.metrics.is_some());
    assert_eq!(untraced.transport, traced.transport);
}

#[test]
fn untraced_sessions_carry_no_snapshot() {
    let video = Video::generate(VideoId::Bbb);
    let qoe = QoeModel::default();
    let manifest = Arc::new(Manifest::prepare_levels(&video, &qoe, &[]));
    let session = Session::new(
        PathConfig::new(BandwidthTrace::constant(20.0, 600), 64),
        manifest,
        Arc::new(video),
        qoe,
        Box::new(voxel::abr::Bola::new()),
        PlayerConfig::new(5, TransportMode::Reliable),
    );
    let r = session.run();
    assert!(r.metrics.is_none());
    // Counter-based transport stats are filled even without tracing…
    assert!(r.transport.packets_sent > 0);
    // …and so are the per-send / per-ack means.
    assert!(r.transport.mean_cwnd_bytes > 0.0);
    assert!(r.transport.mean_srtt_ms > 0.0);
}

/// The §9 taxonomy is stated once, in voxel-trace's `KINDS` and `METRICS`:
/// DESIGN.md carries their rendering byte for byte.
#[test]
fn design_md_section_9_is_the_rendered_taxonomy() {
    let design =
        std::fs::read_to_string(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
            .expect("DESIGN.md");
    let table = voxel::trace::taxonomy_markdown();
    assert!(
        design.contains(&table),
        "DESIGN.md §9 should carry voxel_trace::taxonomy_markdown():\n{table}"
    );
}
