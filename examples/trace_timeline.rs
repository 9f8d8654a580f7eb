//! Export per-trial JSONL timelines + metrics snapshots from an experiment.
//!
//! ```sh
//! cargo run --release --example trace_timeline [dir]
//! ```
//!
//! Runs a short VOXEL experiment with `Tracing::jsonl` enabled and prints
//! where the `trial-NNNN.jsonl` / `trial-NNNN.metrics.json` files landed,
//! plus a few sample events. See DESIGN.md §9 for the event taxonomy.

#![allow(clippy::expect_used, reason = "a binary aborts on a failed run")]

use voxel::prelude::*;

fn main() {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "timelines".into());
    let cache = ContentCache::new();
    let agg = Experiment::builder()
        .video(VideoId::Bbb)
        .abr(AbrKind::voxel())
        .buffer(3)
        .trace(generators::verizon_lte(11, 300))
        .trials(2)
        .tracing(Tracing::jsonl(&dir))
        .build()
        .run(&cache);
    println!(
        "ran {} trials: bufRatio p90 {:.2} %, mean SSIM {:.4}, mean cwnd {:.0} B",
        agg.trials.len(),
        agg.buf_ratio_p90(),
        agg.mean_ssim(),
        agg.mean_cwnd_bytes(),
    );

    let Ok(entries) = std::fs::read_dir(&dir) else {
        println!("no timelines under {dir} (directory not writable?)");
        return;
    };
    let mut files: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    files.sort();
    for f in &files {
        let len = std::fs::metadata(f).map(|m| m.len()).unwrap_or(0);
        println!("  {} ({} kB)", f.display(), len / 1000);
    }
    if let Some(jsonl) = files
        .iter()
        .find(|f| f.extension().is_some_and(|e| e == "jsonl"))
    {
        let text = std::fs::read_to_string(jsonl).expect("readable");
        println!("first events of {}:", jsonl.display());
        for line in text.lines().take(3) {
            println!("  {line}");
        }
    }
}
