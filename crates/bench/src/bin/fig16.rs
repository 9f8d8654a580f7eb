//! Figure 16 (Appendix B): 750-packet router queue — the cached-on-LTE
//! scenario. Long queues challenge loss-based CUBIC (bufferbloat), so
//! VOXEL's edge narrows, as the paper observes.

use voxel_bench::{header, sys_config, voxel_for};
use voxel_core::experiment::ContentCache;
use voxel_quic::CcKind;

fn main() {
    let cache = ContentCache::new();
    header("Fig 16", "bufRatio with a 750-packet network queue");
    println!(
        "{:20} {:>4} {:>8} {:>12}",
        "panel", "buf", "system", "bufRatio-p90"
    );
    for (trace, videos) in [("T-Mobile", ["BBB", "ED"]), ("Verizon", ["Sintel", "ToS"])] {
        for video in videos {
            for buffer in [1usize, 2, 3, 7] {
                let voxel = voxel_for(trace);
                for (label, system, delay_cc) in [
                    ("BOLA", "BOLA", false),
                    (voxel, voxel, false),
                    ("VOXEL+delayCC", voxel, true),
                ] {
                    let mut cfg = sys_config(video, system, buffer, trace).queue(750);
                    if delay_cc {
                        cfg = cfg.cc(CcKind::Delay);
                    }
                    let agg = voxel_bench::run(&cache, cfg);
                    println!(
                        "{:20} {:>4} {:>14} {:>11.2}%",
                        format!("{trace}/{video}"),
                        buffer,
                        label,
                        agg.buf_ratio_p90(),
                    );
                }
            }
        }
    }
    println!("\n# expectation (paper): VOXEL keeps a slight edge at small buffers; occasionally worse on Verizon at larger buffers (loss-based CC vs deep queues).");
    println!("# The VOXEL+delayCC rows are the paper's Appendix-B future-work suggestion: a delay-based controller sidesteps the bufferbloat penalty.");
}
