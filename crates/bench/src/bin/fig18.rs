//! Figure 18 (Appendix D): FCC results and the partial-reliability
//! ablation — VOXEL with unreliable streams disabled ("VOXEL rel") vs
//! VOXEL, on T-Mobile and Verizon.

use voxel_bench::{header, sys_config, voxel_for};
use voxel_core::experiment::ContentCache;

fn main() {
    let cache = ContentCache::new();

    header(
        "Fig 18a/18b",
        "FCC trace: bufRatio and bitrate, BOLA vs VOXEL",
    );
    for video in ["BBB", "ED", "Sintel", "ToS"] {
        for buffer in [1usize, 2, 3, 7] {
            let bola = voxel_bench::run(&cache, sys_config(video, "BOLA", buffer, "FCC"));
            let vox = voxel_bench::run(&cache, sys_config(video, "VOXEL", buffer, "FCC"));
            println!(
                "FCC/{video:7} buf={buffer} BOLA p90 {:5.2}% @{:>6.0}kbps   VOXEL p90 {:5.2}% @{:>6.0}kbps",
                bola.buf_ratio_p90(),
                bola.bitrate_mean_kbps(),
                vox.buf_ratio_p90(),
                vox.bitrate_mean_kbps(),
            );
        }
    }

    header(
        "Fig 18c/18d",
        "partial-reliability ablation: VOXEL rel (fully reliable) vs VOXEL",
    );
    for (trace, videos) in [("T-Mobile", ["BBB", "ED"]), ("Verizon", ["Sintel", "ToS"])] {
        for video in videos {
            for buffer in [1usize, 2, 3, 7] {
                let voxel = voxel_for(trace);
                let rel = voxel_bench::run(&cache, sys_config(video, "VOXEL-rel", buffer, trace));
                let vox = voxel_bench::run(&cache, sys_config(video, voxel, buffer, trace));
                println!(
                    "{:18} buf={buffer} VOXEL-rel p90 {:5.2}% ssim {:.4} @{:5.0}kbps   VOXEL p90 {:5.2}% ssim {:.4} @{:5.0}kbps",
                    format!("{trace}/{video}"),
                    rel.buf_ratio_p90(),
                    rel.mean_ssim(),
                    rel.bitrate_mean_kbps(),
                    vox.buf_ratio_p90(),
                    vox.mean_ssim(),
                    vox.bitrate_mean_kbps(),
                );
            }
        }
    }
    println!("\n# expectation (paper): partial reliability roughly halves bufRatio on Verizon; wins all but one T-Mobile case.");
    println!("# In this reproduction ABR*'s deadline-driven cut already prevents stalls in both modes, so the");
    println!("# partial-reliability gain shows up as delivered quality/bitrate (reliable mode wastes capacity");
    println!(
        "# retransmitting data whose deadline will pass, and cannot recover mid-stream holes)."
    );
}
