//! Figure 12: the full VOXEL system vs BOLA under 20 Mbps cross-traffic
//! (§5.2, "In-lab trials with cross traffic").

use voxel_bench::{header, sys_config};
use voxel_core::experiment::ContentCache;
use voxel_netem::crosstraffic::{available_bandwidth, CrossTrafficConfig};

fn main() {
    let cache = ContentCache::new();
    header(
        "Fig 12",
        "BOLA vs VOXEL with 20 Mbps cross-traffic on a 20 Mbps link",
    );
    let trace = available_bandwidth(
        &CrossTrafficConfig::paper(20.0),
        voxel_bench::TRACE_DURATION_S,
        voxel_bench::TRACE_SEED,
    );
    println!(
        "{:8} {:>4} {:>8} {:>12} {:>14}",
        "video", "buf", "system", "bufRatio-p90", "bitrate-kbps"
    );
    for video in ["BBB", "ED", "Sintel", "ToS"] {
        for buffer in [1usize, 2, 3, 7] {
            for system in ["BOLA", "VOXEL"] {
                let agg = voxel_bench::run(
                    &cache,
                    sys_config(video, system, buffer, "const20").trace(trace.clone()),
                );
                println!(
                    "{:8} {:>4} {:>8} {:>11.2}% {:>14.0}",
                    video,
                    buffer,
                    system,
                    agg.buf_ratio_p90(),
                    agg.bitrate_mean_kbps(),
                );
            }
        }
    }
    println!("\n# expectation (paper): VOXEL near-zero bufRatio even at the 1-segment buffer, without sacrificing bitrate");
}
