//! Figure 8: average delivered bitrates, BOLA/QUIC vs VOXEL, over T-Mobile
//! and Verizon, buffers 1,2,3,7 (§5.2).

use voxel_bench::{header, sys_config, voxel_for};
use voxel_core::experiment::ContentCache;

fn main() {
    let cache = ContentCache::new();
    header("Fig 8", "average bitrates (kbps): BOLA vs VOXEL");
    println!("{:20} {:>4} {:>10} {:>10}", "panel", "buf", "BOLA", "VOXEL");
    for trace in ["T-Mobile", "Verizon"] {
        for video in ["BBB", "ED", "Sintel", "ToS"] {
            for buffer in [1usize, 2, 3, 7] {
                let bola = voxel_bench::run(&cache, sys_config(video, "BOLA", buffer, trace));
                let vox =
                    voxel_bench::run(&cache, sys_config(video, voxel_for(trace), buffer, trace));
                println!(
                    "{:20} {:>4} {:>10.0} {:>10.0}",
                    format!("{trace}/{video}"),
                    buffer,
                    bola.bitrate_mean_kbps(),
                    vox.bitrate_mean_kbps(),
                );
            }
        }
    }
    println!("\n# expectation (paper): VOXEL bitrates at least on par with BOLA, mostly higher");
}
