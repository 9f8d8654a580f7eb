//! Quickstart: stream one video with VOXEL over an LTE-like trace and print
//! the session's quality/rebuffering summary.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use voxel::abr::AbrStar;
use voxel::prelude::*;

fn main() {
    // 1. "Transcode" a video: generate the synthetic Big Buck Bunny clip
    //    (75 x 4 s segments at the 13-level Table 2 ladder).
    let video = Video::generate(VideoId::Bbb);
    let qoe = QoeModel::default();

    // 2. Offline preparation (§4.1): rank frames, compute bytes→SSIM maps,
    //    build the extended manifest. One-time, reusable.
    println!("preparing the extended manifest (one-time, offline)...");
    let manifest = Arc::new(Manifest::prepare(&video, &qoe));
    println!(
        "manifest ready: {} segments x 13 levels, {} kB serialized",
        manifest.num_segments(),
        manifest.size_bytes() / 1000
    );

    // 3. Emulate a Verizon-LTE-like bottleneck (mean 10 Mbps, violent
    //    variation) with the paper's 32-packet droptail queue and 30 ms
    //    last-mile delay.
    let trace = generators::verizon_lte(7, 300);
    println!(
        "trace: mean {:.1} Mbps, std {:.1} Mbps",
        trace.mean_mbps(),
        trace.std_mbps()
    );
    let path = PathConfig::new(trace, 32);

    // 4. Stream with VOXEL: ABR* over QUIC* (I-frame + headers reliable,
    //    frame bodies unreliable), 2-segment playback buffer (live-like).
    let session = Session::new(
        path,
        manifest,
        Arc::new(video),
        qoe,
        Box::new(AbrStar::default()),
        PlayerConfig::new(2, TransportMode::Split),
    );
    println!("streaming 5 minutes of video ...");
    let result = session.run();

    println!("\n=== session summary ===");
    println!("startup delay     : {:6.2} s", result.startup_s);
    println!("rebuffering ratio : {:6.2} %", result.buf_ratio_pct());
    println!("average bitrate   : {:6.0} kbps", result.avg_bitrate_kbps());
    println!("average SSIM      : {:6.4}", result.avg_ssim());
    println!("data skipped      : {:6.1} %", result.data_skipped_pct());
    println!("partial segments  : {:6}", result.kept_partials);
    println!(
        "loss recovery     : {:6.1} % of in-transit losses recovered",
        100.0 - result.residual_loss_pct()
    );
}
