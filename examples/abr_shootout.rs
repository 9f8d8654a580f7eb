//! ABR shootout: run every algorithm in the repository over the same
//! network conditions and compare the QoE envelope.
//!
//! ```sh
//! cargo run --release --example abr_shootout [trace-token] [buffer-segments]
//! # e.g.
//! cargo run --release --example abr_shootout 3g 2
//! ```

use voxel::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_name = args.get(1).map(String::as_str).unwrap_or("verizon");
    let buffer: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
    let trace = match TraceFamily::parse(trace_name) {
        Ok(family) => family.build(2021, 300),
        Err(want) => {
            eprintln!("bad trace {trace_name:?}: expected {want}");
            std::process::exit(2);
        }
    };

    let cache = ContentCache::new();
    println!(
        "trace {trace_name} (mean {:.1} Mbps, std {:.1}), buffer {buffer} segments, video ED\n",
        trace.mean_mbps(),
        trace.std_mbps()
    );
    let contenders: Vec<(&str, AbrKind, TransportMode)> = vec![
        ("Tput/QUIC", AbrKind::Tput, TransportMode::Reliable),
        ("Tput/QUIC*", AbrKind::Tput, TransportMode::Split),
        ("BOLA/QUIC", AbrKind::Bola, TransportMode::Reliable),
        ("BOLA/QUIC*", AbrKind::Bola, TransportMode::Split),
        ("MPC/QUIC", AbrKind::Mpc, TransportMode::Reliable),
        ("MPC/QUIC*", AbrKind::Mpc, TransportMode::Split),
        ("MPC*", AbrKind::MpcStar, TransportMode::Split),
        ("BETA", AbrKind::Beta, TransportMode::Reliable),
        ("BOLA-SSIM", AbrKind::BolaSsim, TransportMode::Split),
        ("VOXEL", AbrKind::voxel(), TransportMode::Split),
        ("VOXEL tuned", AbrKind::voxel_tuned(), TransportMode::Split),
    ];
    println!(
        "{:14} {:>12} {:>10} {:>8} {:>9} {:>10}",
        "system", "bufRatio-p90", "bitrate", "SSIM", "skipped", "wasted-MB"
    );
    for (name, abr, transport) in contenders {
        let agg = Experiment::builder()
            .video(VideoId::Ed)
            .abr(abr)
            .transport(transport)
            .buffer(buffer)
            .trace(trace.clone())
            .trials(6)
            .build()
            .run(&cache);
        let wasted: f64 = agg
            .trials
            .iter()
            .map(|t| t.bytes_wasted as f64)
            .sum::<f64>()
            / agg.trials.len() as f64
            / 1e6;
        println!(
            "{:14} {:>11.2}% {:>7.0}kbps {:>8.4} {:>8.1}% {:>10.1}",
            name,
            agg.buf_ratio_p90(),
            agg.bitrate_mean_kbps(),
            agg.mean_ssim(),
            agg.data_skipped_mean_pct(),
            wasted,
        );
    }
}
