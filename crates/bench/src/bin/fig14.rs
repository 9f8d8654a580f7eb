//! Figure 14: the user study, regenerated with the synthetic panel (§5.3).
//!
//! The paper showed 54 real users clips streamed by BOLA and VOXEL under
//! challenging network conditions (down to 0.3 Mbps) and collected
//! pairwise preferences plus MOS along clarity / glitches / fluidity /
//! overall experience. We pair BOLA and VOXEL playback logs from the most
//! challenging raw 3G traces and run the synthetic 54-user panel
//! (`voxel_core::survey`) over them.

use voxel_bench::{header, sys_config};
use voxel_core::experiment::ContentCache;
use voxel_core::survey::run_survey;
use voxel_netem::trace::generators;

fn main() {
    let cache = ContentCache::new();
    header("Fig 14", "synthetic 54-user panel: BOLA (A) vs VOXEL (B)");

    // Challenging conditions, as in the paper ("scenarios where network
    // throughput was as low as 0.3 Mbps"): pick the lowest-mean traces of
    // the raw 3G ensemble, 1-segment (live-like) buffer.
    let mut by_mean: Vec<usize> = (0..86).collect();
    by_mean.sort_by(|&a, &b| {
        let ma = generators::norway_3g_raw(a, 60).mean_mbps();
        let mb = generators::norway_3g_raw(b, 60).mean_mbps();
        ma.partial_cmp(&mb).expect("finite")
    });
    let mut prefer = 0.0;
    let mut stop_a = 0.0;
    let mut stop_b = 0.0;
    let mut mos = [[0.0f64; 4]; 2];
    let pairs = 6;
    for (i, &idx) in by_mean.iter().enumerate().take(pairs) {
        let trace = generators::norway_3g_raw(idx, voxel_bench::TRACE_DURATION_S);
        let bola = voxel_bench::run(
            &cache,
            sys_config("BBB", "BOLA", 1, "3G")
                .trace(trace.clone())
                .trials(1),
        );
        let voxel = voxel_bench::run(
            &cache,
            sys_config("BBB", "VOXEL", 1, "3G").trace(trace).trials(1),
        );
        let s = run_survey(&bola.trials[0], &voxel.trials[0], 54, 14 + i as u64);
        prefer += s.prefer_b;
        stop_a += s.would_stop_a;
        stop_b += s.would_stop_b;
        for (k, m) in [s.mos_a, s.mos_b].into_iter().enumerate() {
            mos[k][0] += m.clarity;
            mos[k][1] += m.glitches;
            mos[k][2] += m.fluidity;
            mos[k][3] += m.experience;
        }
    }
    let n = pairs as f64;
    println!(
        "{:10} {:>8} {:>8} {:>8} {:>10}",
        "system", "clarity", "glitches", "fluidity", "experience"
    );
    for (k, name) in ["BOLA", "VOXEL"].into_iter().enumerate() {
        println!(
            "{:10} {:>8.2} {:>8.2} {:>8.2} {:>10.2}",
            name,
            mos[k][0] / n,
            mos[k][1] / n,
            mos[k][2] / n,
            mos[k][3] / n
        );
    }
    println!(
        "\npreferred VOXEL: {:.0}%   would stop BOLA stream: {:.0}%   would stop VOXEL stream: {:.0}%",
        100.0 * prefer / n,
        100.0 * stop_a / n,
        100.0 * stop_b / n
    );
    println!("# expectation (paper): 84% prefer VOXEL; fluidity +1.7, experience +0.77, clarity -0.49, glitches -0.19; stop 31% vs 10%");
}
