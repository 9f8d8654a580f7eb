//! Figure 1: frame-drop tolerance CDFs and low-quality SSIM distributions.
//!
//! (a) CDF of tolerable frame-drop % at Q12 / SSIM 0.99 for BBB, ED,
//!     Sintel, ToS, P2, P4;
//! (b) the same at Q9 / SSIM 0.99 (tolerance shrinks);
//! (c) the same at Q9 / SSIM 0.95 (tolerance recovers);
//! (d) CDF of pristine SSIM for ToS/BBB at Q6 and Q9.

use voxel_bench::{header, print_cdf, video};
use voxel_media::gop::FRAMES_PER_SEGMENT;
use voxel_media::ladder::QualityLevel;
use voxel_media::qoe::QoeModel;
use voxel_media::video::Video;

fn tolerance_cdf(video: &Video, model: &QoeModel, level: QualityLevel, target: f64) -> Vec<f64> {
    video
        .segments
        .iter()
        .map(|s| {
            100.0 * model.max_droppable_frames(s, level, target) as f64 / FRAMES_PER_SEGMENT as f64
        })
        .collect()
}

fn main() {
    let model = QoeModel::default();
    let videos = ["BBB", "ED", "Sintel", "ToS", "P2", "P4"];
    let probes: Vec<f64> = (0..=10).map(|i| i as f64 * 10.0).collect();

    header(
        "Fig 1a",
        "CDF of frames droppable at Q12 while keeping SSIM >= 0.99",
    );
    for name in videos {
        let v = Video::generate(video(name));
        print_cdf(
            name,
            &tolerance_cdf(&v, &model, QualityLevel::MAX, 0.99),
            &probes,
        );
    }

    header(
        "Fig 1b",
        "CDF of frames droppable at Q9 while keeping SSIM >= 0.99",
    );
    for name in videos {
        let v = Video::generate(video(name));
        print_cdf(
            name,
            &tolerance_cdf(&v, &model, QualityLevel(9), 0.99),
            &probes,
        );
    }

    header(
        "Fig 1c",
        "CDF of frames droppable at Q9 while keeping SSIM >= 0.95",
    );
    for name in videos {
        let v = Video::generate(video(name));
        print_cdf(
            name,
            &tolerance_cdf(&v, &model, QualityLevel(9), 0.95),
            &probes,
        );
    }

    header(
        "Fig 1d",
        "CDF of pristine segment SSIM at low quality levels",
    );
    let ssim_probes: Vec<f64> = (0..=10).map(|i| 0.75 + i as f64 * 0.025).collect();
    for (name, level) in [("ToS", 6), ("ToS", 9), ("BBB", 6), ("BBB", 9)] {
        let v = Video::generate(video(name));
        let ssims: Vec<f64> = v
            .segments
            .iter()
            .map(|s| model.pristine_ssim(s, QualityLevel(level)))
            .collect();
        print_cdf(&format!("{name}/Q{level}"), &ssims, &ssim_probes);
        let below = ssims.iter().filter(|&&s| s < 0.99).count() as f64 / ssims.len() as f64;
        println!(
            "{name}/Q{level}: fraction below SSIM 0.99 = {:.0}%",
            below * 100.0
        );
    }

    // Headline check from §3 insight 1.
    println!("\n# summary: median tolerable drop % at Q12/0.99 (paper: 10-20%+ for all)");
    for name in videos {
        let v = Video::generate(video(name));
        let tol = tolerance_cdf(&v, &model, QualityLevel::MAX, 0.99);
        println!(
            "{name:8} median {:5.1}%",
            voxel_sim::stats::percentile(&tol, 0.5)
        );
    }
}
