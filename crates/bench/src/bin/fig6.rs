//! Figure 6: the headline result — bufRatio of BOLA vs BETA vs VOXEL over
//! AT&T / 3G / Verizon / T-Mobile with playback buffers of 1, 2, 3 and 7
//! segments (§5.2). On T-Mobile, VOXEL uses the "less aggressive"
//! bandwidth-safety tuning (Fig 6d); `fig17` shows the untuned variant.
//!
//! Also prints the §5.1 side observation: BOLA's restart-abandonments
//! re-download near-entire segments for a large share of segments in
//! small-buffer scenarios.

use voxel_bench::{header, sys_config, voxel_for, FIG6_PAIRS};
use voxel_core::experiment::ContentCache;

fn main() {
    let cache = ContentCache::new();
    header("Fig 6", "bufRatio (p90 + stderr): BOLA vs BETA vs VOXEL");
    println!(
        "{:18} {:>4} {:>12} {:>12} {:>8} {:>10} {:>9}",
        "panel", "buf", "system", "bufRatio-p90", "stderr", "restarts", "partials"
    );
    let mut improvements: Vec<f64> = Vec::new();
    for (trace, video) in FIG6_PAIRS {
        for buffer in [1usize, 2, 3, 7] {
            let mut bola_p90 = None;
            for system in ["BOLA", "BETA", voxel_for(trace)] {
                let agg = voxel_bench::run(&cache, sys_config(video, system, buffer, trace));
                let p90 = agg.buf_ratio_p90();
                let restarts: f64 = agg.trials.iter().map(|t| t.restarts as f64).sum::<f64>()
                    / agg.trials.len() as f64;
                let partials: f64 = agg
                    .trials
                    .iter()
                    .map(|t| t.kept_partials as f64)
                    .sum::<f64>()
                    / agg.trials.len() as f64;
                println!(
                    "{:18} {:>4} {:>12} {:>11.2}% {:>7.2}% {:>10.1} {:>9.1}",
                    format!("{trace}/{video}"),
                    buffer,
                    system,
                    p90,
                    agg.buf_ratio_stderr(),
                    restarts,
                    partials,
                );
                match system {
                    "BOLA" => bola_p90 = Some(p90),
                    s if s.starts_with("VOXEL") => {
                        if let Some(b) = bola_p90 {
                            if b > 0.05 {
                                improvements.push(100.0 * (b - p90) / b);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    if !improvements.is_empty() {
        let min = improvements.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = improvements
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        println!(
            "\n# VOXEL vs BOLA p90-bufRatio reduction: min {:.0}%, max {:.0}% (paper: 25%-97%+ across conditions)",
            min, max
        );
    }
}
