//! Figure 10: the §4.3 ablation — BOLA vs BOLA-SSIM vs VOXEL over the 86
//! raw Riiser 3G commute traces with a 1-segment buffer (plus the 7-segment
//! follow-up quoted in the text).
//!
//! Isolates the two upgrades: BOLA→BOLA-SSIM adds the SSIM utility +
//! partial-download decision space (more quality, slightly more
//! rebuffering); BOLA-SSIM→VOXEL adds keep-partial abandonment over QUIC\*
//! (the rebuffering win).

use voxel_bench::{header, print_cdf, sys_config, trial_count};
use voxel_core::experiment::ContentCache;
use voxel_netem::trace::generators;

fn main() {
    let cache = ContentCache::new();
    // One trial per trace (the ensemble provides the repetition); the fast
    // mode uses a subset of the 86 traces.
    let traces: usize = if trial_count() >= 30 { 86 } else { 24 };
    header(
        "Fig 10",
        &format!("BOLA vs BOLA-SSIM vs VOXEL over {traces} raw 3G traces"),
    );
    for buffer in [1usize, 7] {
        println!("\n## {buffer}-segment buffer");
        for system in ["BOLA", "BOLA-SSIM", "VOXEL"] {
            let mut trials = Vec::new();
            for i in 0..traces {
                let trace = generators::norway_3g_raw(i, voxel_bench::TRACE_DURATION_S);
                let cfg = sys_config("BBB", system, buffer, "3G")
                    .trace(trace)
                    .trials(1);
                let agg = voxel_bench::run(&cache, cfg);
                trials.extend(agg.trials);
            }
            let agg = voxel_core::metrics::Aggregate::new(trials);
            let ratios: Vec<f64> = agg.trials.iter().map(|t| t.buf_ratio_pct()).collect();
            println!(
                "{system:10} mean bufRatio {:5.2}%  p90 {:5.2}%  p95 {:5.2}%  mean SSIM {:.4}",
                agg.buf_ratio_mean(),
                voxel_sim::stats::percentile(&ratios, 0.90),
                voxel_sim::stats::percentile(&ratios, 0.95),
                agg.mean_ssim(),
            );
            let probes: Vec<f64> = (0..=8).map(|i| i as f64 * 5.0).collect();
            print_cdf(&format!("{system} bufRatio"), &ratios, &probes);
        }
    }
    println!("\n# expectation (paper, 1-seg): BOLA 7.9%, BOLA-SSIM 8.2% (+SSIM 0.02), VOXEL 5.1% mean bufRatio with the same +0.02 SSIM");
    println!("# expectation (paper, 7-seg): 7.1%/7.1%/2.8% with SSIMs 0.865/0.898/0.895");
}
