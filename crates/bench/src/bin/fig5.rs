//! Figure 5: unmodified ABRs with QUIC\* under Harpoon-style cross-traffic
//! (§5.1, "In-lab trials with cross traffic").
//!
//! A 20 Mbps link shared with a flow-level web workload averaging
//! 10/15/20 Mbps offered load; 90th-percentile bufRatio and average
//! bitrates for BOLA and MPC over Q vs Q*.

use voxel_bench::{header, sys_config, trial_count};
use voxel_core::experiment::ContentCache;
use voxel_core::TransportMode;
use voxel_netem::crosstraffic::{available_bandwidth, CrossTrafficConfig};

fn main() {
    let cache = ContentCache::new();
    header(
        "Fig 5",
        "vanilla ABRs + QUIC* vs QUIC with cross-traffic on a 20 Mbps link",
    );
    println!(
        "{:24} {:>8} {:>6} {:>10} {:>12} {:>14}",
        "panel", "offered", "buf", "transport", "bufRatio-p90", "bitrate-kbps"
    );
    let panels = [
        ("BOLA", "BBB"),
        ("MPC", "ED"),
        ("BOLA", "Sintel"),
        ("MPC", "ToS"),
    ];
    for offered in [20.0f64, 15.0, 10.0] {
        let trace = available_bandwidth(
            &CrossTrafficConfig::paper(offered),
            voxel_bench::TRACE_DURATION_S,
            voxel_bench::TRACE_SEED,
        );
        for (abr, video) in panels {
            for buffer in [5usize, 6, 7] {
                for (label, transport) in
                    [("Q", TransportMode::Reliable), ("Q*", TransportMode::Split)]
                {
                    let cfg = sys_config(video, abr, buffer, "const20")
                        .trace(trace.clone())
                        .transport(transport)
                        .trials(trial_count());
                    let agg = voxel_bench::run(&cache, cfg);
                    println!(
                        "{:24} {:>7}M {:>6} {:>10} {:>11.2}% {:>14.0}",
                        format!("{abr}/{video}"),
                        offered,
                        buffer,
                        label,
                        agg.buf_ratio_p90(),
                        agg.bitrate_mean_kbps(),
                    );
                }
            }
        }
        // The paper prints only the 20 Mbps panels; lower loads confirm the
        // trend. Stop after the paper's panel unless full mode is on.
        if trial_count() < 30 {
            break;
        }
    }
    println!("\n# expectation (paper): Q* much lower bufRatio; slight bitrate reduction; MPC improves more (~82%) than BOLA (~64%)");
}
