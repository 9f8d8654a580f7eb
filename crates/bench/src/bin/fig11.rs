//! Figure 11 (+13): synthetic-trace dissection and in-the-wild trials.
//!
//! (a) accumulated-average SSIM progression over playback for BOLA vs
//!     VOXEL on a constant 10.5 Mbps trace and a 10.75→10.5 Mbps step
//!     trace (28 s buffer);
//! (b,c) the corresponding SSIM CDFs, including the share of segments with
//!     perfect (1.0) scores;
//! (d)+Fig 13: "in-the-wild" WiFi-like trials with 1- and 7-segment
//!     buffers — bufRatio and SSIM distributions.

use voxel_bench::{header, print_cdf, sys_config};
use voxel_core::experiment::ContentCache;

fn accumulated_avg(series: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(series.len());
    let mut sum = 0.0;
    for (i, s) in series.iter().enumerate() {
        sum += s;
        out.push(sum / (i + 1) as f64);
    }
    out
}

fn main() {
    let cache = ContentCache::new();
    header(
        "Fig 11a",
        "accumulated average SSIM while streaming BBB, 28 s buffer",
    );
    let traces = [("const", "const10.5"), ("step", "step10.75-10.5@70")];
    for (tname, trace) in traces {
        for system in ["BOLA", "VOXEL"] {
            let cfg = sys_config("BBB", system, 7, trace).trials(1);
            let agg = voxel_bench::run(&cache, cfg);
            let ssims = agg.trials[0].ssims();
            let acc = accumulated_avg(&ssims);
            let cells: Vec<String> = acc
                .iter()
                .enumerate()
                .step_by(7)
                .map(|(i, v)| format!("{}%:{v:.3}", i * 100 / acc.len().max(1)))
                .collect();
            println!("{system:6} ({tname:5}) {}", cells.join(" "));
            let perfect =
                100.0 * ssims.iter().filter(|&&x| x >= 0.9999).count() as f64 / ssims.len() as f64;
            println!(
                "{:14} mean {:.4}  perfect-SSIM segments {:.0}%  bufRatio {:.2}%",
                "",
                agg.mean_ssim(),
                perfect,
                agg.buf_ratio_mean()
            );
        }
    }
    println!("# expectation (paper): VOXEL never below 0.95 during startup, perfect scores for 65% (const) / 80% (step) of segments; BOLA 0%/3%");

    header("Fig 11b/11c", "SSIM CDFs on the synthetic traces");
    let probes: Vec<f64> = (0..=12).map(|i| 0.88 + i as f64 * 0.01).collect();
    for (tname, trace) in traces {
        for system in ["BOLA", "VOXEL"] {
            let cfg = sys_config("BBB", system, 7, trace).trials(4);
            let agg = voxel_bench::run(&cache, cfg);
            print_cdf(&format!("{system} ({tname})"), &agg.pooled_ssims(), &probes);
        }
    }

    header(
        "Fig 11d + Fig 13",
        "in-the-wild trials (university-WiFi-like trace)",
    );
    for buffer in [1usize, 7] {
        for video in ["BBB", "ED", "Sintel", "ToS"] {
            for system in ["BOLA", "VOXEL"] {
                let agg =
                    voxel_bench::run(&cache, sys_config(video, system, buffer, "in-the-wild"));
                println!(
                    "buf={buffer} {video:7} {system:6} bufRatio p90 {:5.2}%  mean SSIM {:.4}",
                    agg.buf_ratio_p90(),
                    agg.mean_ssim(),
                );
            }
        }
    }
    println!("# expectation (paper): comparable SSIM; VOXEL significantly lower bufRatio at the 1-segment buffer");
}
