//! Figure 9: SSIM CDFs of BOLA vs BETA vs VOXEL over the four traces
//! (§5.2): ToS/AT&T (2-segment buffer), Sintel/3G, ED/Verizon,
//! BBB/T-Mobile (tuned VOXEL). Buffers of 3 segments unless noted.

use voxel_bench::{header, print_cdf, sys_config, voxel_for};
use voxel_core::experiment::ContentCache;

fn main() {
    let cache = ContentCache::new();
    header(
        "Fig 9",
        "SSIM distributions of streamed segments: BOLA vs BETA vs VOXEL",
    );
    let panels = [
        ("AT&T", "ToS", 2usize),
        ("3G", "Sintel", 3),
        ("Verizon", "ED", 3),
        ("T-Mobile", "BBB", 3),
    ];
    let probes: Vec<f64> = (0..=12).map(|i| 0.85 + i as f64 * 0.0125).collect();
    for (trace, video, buffer) in panels {
        println!("\n## {trace} / {video} / {buffer}-segment buffer");
        for system in ["BOLA", "BETA", voxel_for(trace)] {
            let agg = voxel_bench::run(&cache, sys_config(video, system, buffer, trace));
            print_cdf(system, &agg.pooled_ssims(), &probes);
            println!(
                "{:24} mean SSIM {:.4}  bufRatio p90 {:.2}%",
                "",
                agg.mean_ssim(),
                agg.buf_ratio_p90()
            );
        }
    }
    println!("\n# expectation (paper): VOXEL's SSIM distribution at or better than BETA everywhere; trades SSIM only for far lower bufRatio vs BOLA");
}
