//! A/B: profiler disabled vs enabled (1-in-32 sampling) on the session
//! event-loop workload — the ci.sh overhead guard for `voxel-obs`.
//!
//! The same 600 s constant-rate VOXEL session runs with no profiler and
//! with `Profiler::enabled()` installed, medians over 9 runs each. Exits non-zero when the enabled median exceeds the
//! disabled one by more than the budget (default 5%, override with
//! `VOXEL_OBS_AB_MAX_PCT`).

#![allow(clippy::unwrap_used, reason = "a binary aborts on a failed run")]
#![allow(
    clippy::disallowed_methods,
    reason = "the harness times itself; wall time never reaches simulation state"
)]

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use voxel_core::client::TransportMode;
use voxel_core::experiment::{run_instrumented_trial, AbrKind, Experiment};
use voxel_media::content::VideoId;
use voxel_media::ladder::QualityLevel;
use voxel_media::qoe::QoeModel;
use voxel_media::video::Video;
use voxel_netem::BandwidthTrace;
use voxel_obs::Profiler;
use voxel_prep::manifest::Manifest;
use voxel_trace::Tracer;

const RUNS: usize = 9;

fn main() -> ExitCode {
    let max_pct: f64 = std::env::var("VOXEL_OBS_AB_MAX_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    let video = Video::generate(VideoId::Bbb);
    let qoe = QoeModel::default();
    let manifest = Arc::new(Manifest::prepare_levels(&video, &qoe, &[QualityLevel::MAX]));
    let video = Arc::new(video);
    let config = Experiment::builder()
        .video(VideoId::Bbb)
        .abr(AbrKind::voxel())
        .transport(TransportMode::Split)
        .buffer(3)
        .trace(BandwidthTrace::constant(10.0, 600))
        .queue(32)
        .build()
        .into_config();
    let run = |profiled: bool| {
        let profiler = if profiled {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        };
        let _g = profiler.install();
        run_instrumented_trial(
            &config,
            &manifest,
            &video,
            &qoe,
            0,
            Tracer::disabled(),
            None,
        )
    };
    // warmup
    run(false);
    run(true);
    let mut medians = [0.0f64; 2];
    for (slot, label) in ["disabled", "profiled"].into_iter().enumerate() {
        let profiled = label == "profiled";
        let mut times = Vec::new();
        for _ in 0..RUNS {
            let t0 = Instant::now();
            let r = run(profiled);
            std::hint::black_box(r);
            times.push(t0.elapsed().as_secs_f64());
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        medians[slot] = times[RUNS / 2];
        println!(
            "{label:9} median {:.4}s min {:.4}s",
            times[RUNS / 2],
            times[0]
        );
    }
    let overhead_pct = 100.0 * (medians[1] - medians[0]) / medians[0];
    println!("overhead  {overhead_pct:+.2}% (budget {max_pct}%)");
    if overhead_pct > max_pct {
        eprintln!("obs_ab: profiler overhead {overhead_pct:.2}% exceeds the {max_pct}% budget");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
