//! Ordering ablation (DESIGN.md §6): stream VOXEL end-to-end with the
//! §4.1 ordering selection *forced* to each of the three candidates, and
//! measure what the selection buys at runtime.
//!
//! The offline analysis (Fig 2b) shows the rank ordering tolerates far more
//! tail drops than the alternatives; this binary shows the consequence
//! during playback: with the same ABR and transport, worse orderings turn
//! the same truncations into lower SSIM.

use std::sync::Arc;
use voxel_abr::AbrStar;
use voxel_bench::{figure_trace, header, trial_count};
use voxel_core::client::{PlayerConfig, TransportMode};
use voxel_core::metrics::Aggregate;
use voxel_core::session::Session;
use voxel_media::content::VideoId;
use voxel_media::ladder::QualityLevel;
use voxel_media::qoe::QoeModel;
use voxel_media::video::Video;
use voxel_netem::PathConfig;
use voxel_prep::manifest::Manifest;
use voxel_prep::ordering::OrderingKind;

fn main() {
    header(
        "ablation: frame ordering",
        "VOXEL end-to-end with the §4.1 ordering forced (BBB, Verizon, 2-segment buffer)",
    );
    let video = Arc::new(Video::generate(VideoId::Bbb));
    let qoe = QoeModel::default();
    let base_trace = figure_trace("Verizon");
    let trials = trial_count();
    let levels: Vec<QualityLevel> = QualityLevel::all().collect();

    println!(
        "{:20} {:>12} {:>10} {:>9} {:>10}",
        "ordering", "bufRatio-p90", "SSIM", "skipped", "drops/seg"
    );
    let mut variants: Vec<(String, Manifest)> = OrderingKind::ALL
        .iter()
        .map(|&k| {
            (
                format!("forced {k}"),
                Manifest::prepare_forced(&video, &qoe, &levels, k),
            )
        })
        .collect();
    variants.push(("§4.1 selection".into(), Manifest::prepare(&video, &qoe)));

    for (name, manifest) in variants {
        let manifest = Arc::new(manifest);
        let d = base_trace.duration_s();
        let results: Vec<_> = (0..trials)
            .map(|i| {
                let session = Session::new(
                    PathConfig::new(base_trace.shift(i * d / trials), 32),
                    manifest.clone(),
                    video.clone(),
                    qoe.clone(),
                    Box::new(AbrStar::default()),
                    PlayerConfig::new(2, TransportMode::Split),
                );
                session.run()
            })
            .collect();
        let agg = Aggregate::new(results);
        let drops: f64 = agg
            .trials
            .iter()
            .map(|t| t.frames_dropped as f64 / t.segment_scores.len().max(1) as f64)
            .sum::<f64>()
            / agg.trials.len() as f64;
        println!(
            "{:20} {:>11.2}% {:>10.4} {:>8.1}% {:>10.1}",
            name,
            agg.buf_ratio_p90(),
            agg.mean_ssim(),
            agg.data_skipped_mean_pct(),
            drops,
        );
    }
    println!("\n# expectation: identical bufRatio (the transport/ABR cut is the same) with SSIM");
    println!("# ordered rank ~ §4.1-selection > unreferenced-tail > original — the ordering");
    println!("# determines how much quality each truncated byte costs.");
}
