//! Figure 2: where droppable frames sit, ordering comparison, and virtual
//! quality levels.
//!
//! (a) fraction of segments in which the frame at each position can be
//!     dropped alone at SSIM 0.99 (BBB/Q12, ToS/Q12);
//! (b) CDF of tolerable drops under the rank ordering vs tail-only drops;
//! (c,d) per-segment bitrate CDFs of the virtual levels Q12/0.99 and
//!     Q12/0.95 against real levels Q10–Q12 (BBB, ToS).

use voxel_bench::{header, print_cdf, video};
use voxel_media::gop::FRAMES_PER_SEGMENT;
use voxel_media::ladder::QualityLevel;
use voxel_media::qoe::QoeModel;
use voxel_media::video::{Video, SEGMENT_DURATION_S};
use voxel_prep::analysis::{drop_tolerance, droppable_by_position, BytesQoeMap};
use voxel_prep::ordering::OrderingKind;

fn main() {
    let model = QoeModel::default();

    header(
        "Fig 2a",
        "fraction of segments whose frame at position p is droppable (Q12, SSIM 0.99)",
    );
    for name in ["BBB", "ToS"] {
        let v = Video::generate(video(name));
        let frac = droppable_by_position(&model, &v.segments, QualityLevel::MAX, 0.99);
        // Print every 8th position to keep rows readable.
        let cells: Vec<String> = frac
            .iter()
            .enumerate()
            .step_by(8)
            .map(|(p, f)| format!("{p}:{f:.2}"))
            .collect();
        println!("{name:8} {}", cells.join(" "));
    }

    header(
        "Fig 2b",
        "CDF of tolerable drop % at Q12/0.99: rank ordering vs tail-only",
    );
    let probes: Vec<f64> = (0..=10).map(|i| i as f64 * 10.0).collect();
    for name in ["BBB", "ToS"] {
        let v = Video::generate(video(name));
        for (label, ordering) in [
            (name.to_string(), OrderingKind::InboundRank),
            (format!("{name}/Tail"), OrderingKind::UnreferencedTail),
        ] {
            let tol: Vec<f64> = v
                .segments
                .iter()
                .map(|s| 100.0 * drop_tolerance(&model, s, QualityLevel::MAX, ordering, 0.99))
                .collect();
            print_cdf(&label, &tol, &probes);
        }
    }

    header(
        "Fig 2c/2d",
        "segment-bitrate CDFs: virtual levels vs real levels (Mbps)",
    );
    let rate_probes: Vec<f64> = (0..=10).map(|i| i as f64 * 2.0).collect();
    for name in ["BBB", "ToS"] {
        let v = Video::generate(video(name));
        // Real levels.
        for level in [QualityLevel(10), QualityLevel(11), QualityLevel::MAX] {
            let rates: Vec<f64> = v.segments.iter().map(|s| s.bitrate_mbps(level)).collect();
            print_cdf(&format!("{name}/Q{}", level.index()), &rates, &rate_probes);
        }
        // Virtual levels Q12/0.99 and Q12/0.95: bytes needed at Q12 to reach
        // the SSIM target, expressed as a bitrate.
        for target in [0.99, 0.95] {
            let rates: Vec<f64> = v
                .segments
                .iter()
                .map(|s| {
                    let map = BytesQoeMap::compute(
                        &model,
                        s,
                        QualityLevel::MAX,
                        OrderingKind::InboundRank,
                    );
                    let bytes = map
                        .min_bytes_for(target)
                        .map(|p| p.bytes)
                        .unwrap_or(map.full_bytes());
                    bytes as f64 * 8.0 / SEGMENT_DURATION_S / 1e6
                })
                .collect();
            print_cdf(&format!("{name}/Q12/{target}"), &rates, &rate_probes);
        }
    }

    // §3 insight 2 headline: tail-only drops force many more referenced
    // frames into the dropped set than the rank ordering does.
    println!(
        "\n# summary: mean tolerable drops at Q12/0.99 by ordering (paper: rank > tail > original)"
    );
    for name in ["BBB", "ToS"] {
        let v = Video::generate(video(name));
        for ordering in OrderingKind::ALL {
            let mean: f64 = v
                .segments
                .iter()
                .map(|s| drop_tolerance(&model, s, QualityLevel::MAX, ordering, 0.99))
                .sum::<f64>()
                / v.segments.len() as f64;
            println!(
                "{name:6} {ordering:20} mean droppable {:5.1}% of {} frames",
                mean * 100.0,
                FRAMES_PER_SEGMENT
            );
        }
    }
}
