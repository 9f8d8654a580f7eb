//! §4.2 text numbers: selective-retransmission residual loss.
//!
//! "We recover all losses in small buffer scenario and have a remaining
//! loss of only 0.9%, 1.5%, 1.8% for 2-, 3- and 7-segment long buffers."
//! Also quantifies the §5.2 frame-drop composition: how often frames were
//! dropped at all, and how often dropping only unreferenced b-frames would
//! not have sufficed.

use voxel_bench::{header, sys_config};
use voxel_core::experiment::ContentCache;

fn main() {
    let cache = ContentCache::new();
    header(
        "§4.2/§5.2 text",
        "selective retransmission + frame-drop composition (VOXEL, Verizon)",
    );
    println!(
        "{:>4} {:>12} {:>12} {:>14} {:>16} {:>18}",
        "buf", "lost(kB)", "recovered", "residual-loss", "segs-with-drops", "ref-drop-share"
    );
    for buffer in [1usize, 2, 3, 7] {
        let agg = voxel_bench::run(&cache, sys_config("BBB", "VOXEL", buffer, "Verizon"));
        let lost: u64 = agg.trials.iter().map(|t| t.bytes_lost).sum();
        let rec: u64 = agg.trials.iter().map(|t| t.bytes_recovered).sum();
        let segs: u32 = agg.trials.iter().map(|t| t.segments_with_drops).sum();
        let total_segs: usize = agg.trials.iter().map(|t| t.segment_scores.len()).sum();
        let dropped: u32 = agg.trials.iter().map(|t| t.frames_dropped).sum();
        let ref_dropped: u32 = agg.trials.iter().map(|t| t.referenced_frames_dropped).sum();
        println!(
            "{:>4} {:>12} {:>11.0}% {:>13.1}% {:>15.1}% {:>17.1}%",
            buffer,
            lost / 1000,
            if lost > 0 {
                100.0 * rec as f64 / lost as f64
            } else {
                100.0
            },
            agg.residual_loss_mean_pct(),
            100.0 * segs as f64 / total_segs.max(1) as f64,
            if dropped > 0 {
                100.0 * ref_dropped as f64 / dropped as f64
            } else {
                0.0
            },
        );
    }
    println!("\n# expectation (paper): residual loss 0.9/1.5/1.8% at 2/3/7-segment buffers;");
    println!("# frames dropped in ~9% of segments; in 85% of those, b-frames alone were not enough (46% of drops were referenced frames)");
}
