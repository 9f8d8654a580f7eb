//! Figures 3 & 4: unmodified ABRs (MPC, BOLA) over QUIC vs QUIC\* (§5.1).
//!
//! 90th-percentile bufRatio (+ standard error) and average bitrates across
//! 30 trials for buffer sizes of 5–7 segments, under the T-Mobile and
//! Verizon traces. "Q" = vanilla QUIC (fully reliable), "Q*" = QUIC\* with
//! the minimal split (I-frames reliable, all other frames unreliable) and
//! no other ABR change.

use voxel_bench::{header, sys_config, trial_count};
use voxel_core::experiment::ContentCache;
use voxel_core::TransportMode;

fn main() {
    let cache = ContentCache::new();
    // The paper's subplot pairings.
    let panels = [
        ("MPC", "T-Mobile", "BBB"),
        ("MPC", "Verizon", "ED"),
        ("BOLA", "T-Mobile", "Sintel"),
        ("BOLA", "Verizon", "ToS"),
    ];
    header(
        "Fig 3 + Fig 4",
        "vanilla ABRs over QUIC (Q) vs QUIC* (Q*): p90 bufRatio and avg bitrate",
    );
    println!(
        "{:28} {:>6} {:>10} {:>12} {:>9} {:>14}",
        "panel", "buf", "transport", "bufRatio-p90", "stderr", "bitrate-kbps"
    );
    for (abr, trace, video) in panels {
        for buffer in [5usize, 6, 7] {
            for (label, transport) in [("Q", TransportMode::Reliable), ("Q*", TransportMode::Split)]
            {
                let cfg = sys_config(video, abr, buffer, trace)
                    .transport(transport)
                    .trials(trial_count());
                let agg = voxel_bench::run(&cache, cfg);
                println!(
                    "{:28} {:>6} {:>10} {:>11.2}% {:>8.2}% {:>14.0}",
                    format!("{abr}-{trace}/{video}"),
                    buffer,
                    label,
                    agg.buf_ratio_p90(),
                    agg.buf_ratio_stderr(),
                    agg.bitrate_mean_kbps(),
                );
            }
        }
    }
    println!("\n# expectation (paper): Q* lowers bufRatio for both ABRs; MPC trades more bitrate (~-25%) than BOLA (~-4%)");
}
