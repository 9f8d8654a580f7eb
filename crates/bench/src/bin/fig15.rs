//! Figure 15 (+Tables 1–3 via `tables`): per-segment bitrate variation of
//! the capped-VBR encodes across quality levels (ED and Sintel).

use voxel_bench::{header, video};
use voxel_media::ladder::QualityLevel;
use voxel_media::video::Video;

fn main() {
    header("Fig 15", "per-segment bitrate (Mbps) across quality levels");
    for name in ["ED", "Sintel"] {
        let v = Video::generate(video(name));
        println!("\n## {name}");
        for q in [12usize, 11, 10, 8, 6, 4] {
            let level = QualityLevel::try_from(q).expect("valid");
            let rates: Vec<String> = v
                .segments
                .iter()
                .step_by(5)
                .map(|s| format!("{:.1}", s.bitrate_mbps(level)))
                .collect();
            println!("Q{q:<2} {}", rates.join(" "));
        }
        let level = QualityLevel::MAX;
        let rates: Vec<f64> = v.segments.iter().map(|s| s.bitrate_mbps(level)).collect();
        let max = rates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "Q12 stats: mean {:.2} Mbps, std {:.2} Mbps, peak {:.2} Mbps (2x cap: {:.2})",
            voxel_sim::stats::mean(&rates),
            voxel_sim::stats::std_dev(&rates),
            max,
            2.0 * level.avg_bitrate_mbps(),
        );
    }
    println!("\n# expectation (paper): vastly different per-segment bitrates, peaks at most 2x the average");
}
