//! Figure 7: QoE-metric agnosticism and skipped data (§5.2).
//!
//! (a) bufRatio of VOXEL optimizing SSIM / VMAF / PSNR vs BOLA (BBB over
//!     Verizon, buffers 1,2,3,7);
//! (b,c) SSIM and VMAF distributions of all streamed segments, BOLA vs
//!     VOXEL (BBB over Verizon);
//! (d) percent of segment data skipped by VOXEL vs buffer size, per video.

use voxel_bench::{figure_trace, header, print_cdf, sys_config};
use voxel_core::experiment::{AbrKind, ContentCache, Experiment};
use voxel_core::TransportMode;
use voxel_media::content::VideoId;
use voxel_media::qoe::QoeMetric;

fn main() {
    let cache = ContentCache::new();
    let trace = figure_trace("Verizon");

    header(
        "Fig 7a",
        "bufRatio p90 of BOLA vs VOXEL under different QoE utilities (BBB, Verizon)",
    );
    for buffer in [1usize, 2, 3, 7] {
        let bola = voxel_bench::run(&cache, sys_config("BBB", "BOLA", buffer, "Verizon"));
        print!("buf={buffer}: BOLA {:5.2}%", bola.buf_ratio_p90());
        for metric in [QoeMetric::Ssim, QoeMetric::Vmaf, QoeMetric::Psnr] {
            let cfg = Experiment::builder()
                .video(VideoId::Bbb)
                .abr(AbrKind::Voxel {
                    safety: 1.0,
                    metric,
                })
                .buffer(buffer)
                .trace(trace.clone())
                .transport(TransportMode::Split)
                .trials(voxel_bench::trial_count());
            let agg = voxel_bench::run(&cache, cfg);
            print!("  VOXEL/{metric:?} {:5.2}%", agg.buf_ratio_p90());
        }
        println!();
    }

    header(
        "Fig 7b/7c",
        "SSIM and VMAF distributions of streamed segments (BBB, Verizon, 3-seg buffer)",
    );
    let bola = voxel_bench::run(&cache, sys_config("BBB", "BOLA", 3, "Verizon"));
    let voxel = voxel_bench::run(&cache, sys_config("BBB", "VOXEL", 3, "Verizon"));
    let ssim_probes: Vec<f64> = (0..=10).map(|i| 0.85 + i as f64 * 0.015).collect();
    print_cdf("SSIM BOLA", &bola.pooled_ssims(), &ssim_probes);
    print_cdf("SSIM VOXEL", &voxel.pooled_ssims(), &ssim_probes);
    let vmaf_probes: Vec<f64> = (0..=10).map(|i| i as f64 * 10.0).collect();
    print_cdf("VMAF BOLA", &bola.pooled_vmafs(), &vmaf_probes);
    print_cdf("VMAF VOXEL", &voxel.pooled_vmafs(), &vmaf_probes);
    let perfect = |agg: &voxel_core::metrics::Aggregate| {
        let s = agg.pooled_ssims();
        100.0 * s.iter().filter(|&&x| x >= 0.9999).count() as f64 / s.len() as f64
    };
    println!(
        "# segments at perfect SSIM: BOLA {:.0}%  VOXEL {:.0}%",
        perfect(&bola),
        perfect(&voxel)
    );

    header(
        "Fig 7d",
        "percent of segment data skipped by VOXEL vs buffer size (Verizon)",
    );
    for video in ["BBB", "ED", "Sintel", "ToS"] {
        print!("{video:8}");
        for buffer in [1usize, 2, 3, 7] {
            let agg = voxel_bench::run(&cache, sys_config(video, "VOXEL", buffer, "Verizon"));
            print!("  buf{buffer}:{:5.1}%", agg.data_skipped_mean_pct());
        }
        println!();
    }
    println!("\n# expectation (paper): skipped data decreases with buffer size; VOXEL ~= BOLA quality at far lower bufRatio");
}
