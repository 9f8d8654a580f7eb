//! Offline content preparation walkthrough (§4.1): inspect the frame
//! orderings, the bytes→SSIM maps, and the extended manifest for one
//! segment — the server-side, one-time computation at the heart of VOXEL.
//!
//! ```sh
//! cargo run --release --example offline_prep
//! ```

#![allow(clippy::expect_used, reason = "a binary aborts on a failed run")]

use voxel::media::{
    content::VideoId, gop::FrameKind, ladder::QualityLevel, qoe::QoeModel, video::Video,
};
use voxel::prep::{
    analysis::{analyze_segment, BytesQoeMap},
    ordering::{frame_order, OrderingKind},
};

fn main() {
    let video = Video::generate(VideoId::Sintel);
    let model = QoeModel::default();
    let seg = &video.segments[12];
    let level = QualityLevel::MAX;

    println!("=== segment 12 of Sintel at {level} ===");
    let (i, p, bref, bunref) = seg.gop.kind_counts();
    println!(
        "frames: {i} I + {p} P + {bref} referenced-B + {bunref} unreferenced-b, {} bytes",
        seg.bytes(level)
    );
    println!(
        "mean motion {:.2}, pristine SSIM {:.4}",
        seg.mean_motion,
        model.pristine_ssim(seg, level)
    );

    // The three §4.1 orderings and their drop tolerance.
    println!("\n--- candidate orderings ---");
    for kind in OrderingKind::ALL {
        let map = BytesQoeMap::compute(&model, seg, level, kind);
        let bound = model.pristine_ssim(seg, QualityLevel(11));
        let at_bound = map.min_bytes_for(bound);
        match at_bound {
            Some(pt) => println!(
                "{kind:20} reaches the Q11 bound ({bound:.4}) with {:7} bytes / {:2} frames (saves {:4.1}%)",
                pt.bytes,
                pt.frames,
                100.0 * (1.0 - pt.bytes as f64 / map.full_bytes() as f64),
            ),
            None => println!("{kind:20} cannot reach the bound short of the full segment"),
        }
    }

    // The winning analysis, as it lands in the manifest.
    let analysis = analyze_segment(&model, seg, level);
    println!(
        "\nchosen ordering: {} (min {} bytes for SSIM >= {:.4})",
        analysis.best.ordering, analysis.min_bytes, analysis.bound
    );

    // Show the head and tail of the download order: anchors first,
    // droppable b-frames last.
    let order = frame_order(seg, analysis.best.ordering);
    let kind_of = |f: usize| match seg.gop.frames[f].kind {
        FrameKind::I => "I",
        FrameKind::P => "P",
        FrameKind::BRef => "B",
        FrameKind::BUnref => "b",
    };
    let head: Vec<&str> = order[..12].iter().map(|&f| kind_of(f)).collect();
    let tail: Vec<&str> = order[order.len() - 12..]
        .iter()
        .map(|&f| kind_of(f))
        .collect();
    println!("download order head: {}", head.join(" "));
    println!("download order tail: {}", tail.join(" "));

    // A few points of the bytes→SSIM map (the `ssims` manifest attribute).
    println!("\n--- ssims attribute (excerpt) ---");
    for pt in analysis.best.points.iter().step_by(16) {
        println!("  {:.4}:{}:{}", pt.ssim, pt.frames, pt.bytes);
    }

    // The Listing 1 serialization for this video.
    let manifest =
        voxel::prep::manifest::Manifest::prepare_levels(&video, &model, &[QualityLevel::MAX]);
    let mpd = manifest.to_mpd();
    let line = mpd
        .lines()
        .find(|l| l.contains("seg=\"12\" q=\"12\""))
        .expect("entry exists");
    let shown = if line.len() > 200 { &line[..200] } else { line };
    println!("\n--- manifest entry (Listing 1 style, truncated) ---\n{shown}…");
}
