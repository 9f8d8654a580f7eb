#![warn(missing_docs)]
//! # voxel-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (`cargo run --release -p voxel-bench --bin fig6`), each printing the
//! rows/series the corresponding exhibit reports. Performance is measured
//! by the standalone `benchmark/` package, not here.
//!
//! ## Protocol fidelity vs wall-clock
//!
//! The paper repeats every experiment 30 times with the trace shifted by
//! d/30 per trial. A full 30-trial sweep of every figure takes hours even
//! in release mode, so the harness defaults to **8 trials** and honours
//! `VOXEL_TRIALS` (set `VOXEL_TRIALS=30` for the paper's exact protocol).
//! All reported statistics (90th percentile + standard error) are computed
//! the same way regardless of the trial count. `EXPERIMENTS.md` records
//! which count produced the committed numbers.

use voxel_core::experiment::{ContentCache, ExperimentBuilder};
use voxel_core::metrics::Aggregate;
use voxel_media::content::VideoId;
use voxel_netem::trace::generators;
use voxel_netem::BandwidthTrace;

/// Trace duration used by all experiments (one 5-minute clip).
pub const TRACE_DURATION_S: usize = 300;

/// Root seed for all synthetic traces (fixed for reproducibility).
pub const TRACE_SEED: u64 = 2021;

/// Number of trials per configuration (`VOXEL_TRIALS`, default 8).
pub fn trial_count() -> usize {
    std::env::var("VOXEL_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// The five named traces of §5 by figure-legend name.
pub fn trace_by_name(name: &str) -> BandwidthTrace {
    match name {
        "T-Mobile" => generators::tmobile_lte(TRACE_SEED, TRACE_DURATION_S),
        "Verizon" => generators::verizon_lte(TRACE_SEED, TRACE_DURATION_S),
        "AT&T" => generators::att_lte(TRACE_SEED, TRACE_DURATION_S),
        "3G" => generators::norway_3g(TRACE_SEED, TRACE_DURATION_S),
        "FCC" => generators::fcc(TRACE_SEED, TRACE_DURATION_S),
        "in-the-wild" => generators::wild_wifi(TRACE_SEED, TRACE_DURATION_S),
        _ => panic!("unknown trace {name}"),
    }
}

/// Parse a video legend name (BBB/ED/Sintel/ToS/P1..P10).
pub fn video_by_name(name: &str) -> VideoId {
    match name {
        "BBB" => VideoId::Bbb,
        "ED" => VideoId::Ed,
        "Sintel" => VideoId::Sintel,
        "ToS" => VideoId::Tos,
        p if p.starts_with('P') => VideoId::YouTube(p[1..].parse().expect("P<n>")),
        _ => panic!("unknown video {name}"),
    }
}

/// The (trace, video) pairings the paper's subplots use.
pub const FIG6_PAIRS: [(&str, &str); 4] = [
    ("AT&T", "BBB"),
    ("3G", "ED"),
    ("Verizon", "Sintel"),
    ("T-Mobile", "ToS"),
];

/// Run a configured experiment and return the aggregate (convenience
/// wrapper).
pub fn run(cache: &ContentCache, experiment: ExperimentBuilder) -> Aggregate {
    experiment.build().run(cache)
}

/// A standard §5.2 comparison experiment, ready to `run` (or to tweak
/// further — the return value is the builder).
pub fn sys_config(
    video: VideoId,
    system: &str,
    buffer_segments: usize,
    trace: BandwidthTrace,
) -> ExperimentBuilder {
    // The legend-name table lives in voxel-fleet (re-exported by the
    // testkit) so the conformance scenarios, the fleet specs, and the
    // figure harness can never disagree on a system.
    let (abr, transport) =
        voxel_testkit::system_by_name(system).unwrap_or_else(|| panic!("unknown system {system}"));
    voxel_core::Experiment::builder()
        .video(video)
        .abr(abr)
        .transport(transport)
        .buffer(buffer_segments)
        .trace(trace)
        .trials(trial_count())
}

/// Print a figure header.
pub fn header(fig: &str, caption: &str) {
    println!("# {fig} — {caption}");
    println!("# trials per config: {}", trial_count());
}

/// Format a CDF as fixed-grid rows for terminal output.
pub fn print_cdf(label: &str, samples: &[f64], probes: &[f64]) {
    let rows = voxel_sim::stats::ecdf_at(samples, probes);
    let cells: Vec<String> = rows.iter().map(|(x, f)| format!("{x:.3}:{f:.2}")).collect();
    println!("{label:24} {}", cells.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_core::TransportMode;

    #[test]
    fn traces_resolve() {
        for name in ["T-Mobile", "Verizon", "AT&T", "3G", "FCC", "in-the-wild"] {
            let t = trace_by_name(name);
            assert_eq!(t.duration_s(), TRACE_DURATION_S);
        }
    }

    #[test]
    fn videos_resolve() {
        assert_eq!(video_by_name("BBB"), VideoId::Bbb);
        assert_eq!(video_by_name("P10"), VideoId::YouTube(10));
    }

    #[test]
    fn sys_configs_have_expected_transports() {
        let t = BandwidthTrace::constant(10.0, 10);
        let transport = |sys: &str| {
            sys_config(VideoId::Bbb, sys, 3, t.clone())
                .build()
                .config()
                .transport
        };
        assert_eq!(transport("BOLA"), TransportMode::Reliable);
        assert_eq!(transport("VOXEL"), TransportMode::Split);
        assert_eq!(transport("VOXEL-rel"), TransportMode::Reliable);
    }

    #[test]
    #[should_panic(expected = "unknown system")]
    fn unknown_system_panics() {
        let _ = sys_config(VideoId::Bbb, "XYZ", 3, BandwidthTrace::constant(1.0, 10));
    }
}
