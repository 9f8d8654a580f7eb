//! Figure 17 (Appendix D): 3G/AT&T bitrates and the bandwidth-safety
//! ablation — untuned (aggressive) VOXEL vs tuned VOXEL on T-Mobile.

use voxel_bench::{header, print_cdf, sys_config};
use voxel_core::experiment::ContentCache;

fn main() {
    let cache = ContentCache::new();

    header("Fig 17a/17b", "average bitrates over 3G and AT&T (kbps)");
    for trace in ["3G", "AT&T"] {
        for video in ["BBB", "ED", "Sintel", "ToS"] {
            for buffer in [1usize, 2, 3, 7] {
                let bola = voxel_bench::run(&cache, sys_config(video, "BOLA", buffer, trace));
                let vox = voxel_bench::run(&cache, sys_config(video, "VOXEL", buffer, trace));
                println!(
                    "{:14} buf={buffer} BOLA {:>7.0}  VOXEL {:>7.0}",
                    format!("{trace}/{video}"),
                    bola.bitrate_mean_kbps(),
                    vox.bitrate_mean_kbps(),
                );
            }
        }
    }

    header(
        "Fig 17c/17d",
        "the tuning ablation: aggressive vs tuned VOXEL vs BETA on T-Mobile (BBB)",
    );
    let probes: Vec<f64> = (0..=12).map(|i| 0.85 + i as f64 * 0.0125).collect();
    for buffer in [1usize, 2, 3, 7] {
        println!("\n## buffer {buffer}");
        for system in ["BETA", "VOXEL", "VOXEL-tuned"] {
            let agg = voxel_bench::run(&cache, sys_config("BBB", system, buffer, "T-Mobile"));
            println!(
                "{system:12} bufRatio p90 {:5.2}%  mean SSIM {:.4}",
                agg.buf_ratio_p90(),
                agg.mean_ssim()
            );
            if buffer == 3 {
                print_cdf(&format!("{system} SSIM"), &agg.pooled_ssims(), &probes);
            }
        }
    }
    println!("\n# expectation (paper): aggressive VOXEL beats BETA in SSIM but can lose in bufRatio on T-Mobile; the single safety-factor tuning wins both");
}
