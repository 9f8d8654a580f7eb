//! Concurrent sessions on one bottleneck: an 8-session mixed-ABR fleet
//! (4 VOXEL, 2 BOLA, 2 BETA) sharing a 6 Mbit/s DRR-scheduled link, the
//! serving-scale scenario the single-session figures cannot show.
//!
//! ```sh
//! cargo run --release --example shared_link_fleet [spec]
//! # e.g.
//! cargo run --release --example shared_link_fleet BBB:8xVOXEL:const6:stg2
//! ```

use voxel::prelude::*;

fn main() {
    let spec_str = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BBB:4xVOXEL+2xBOLA+2xBETA:const6:buf3:q64:d300:drr:stg2".into());
    let spec = match FleetSpec::parse(&spec_str) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad fleet spec {spec_str:?}: {e}");
            std::process::exit(2);
        }
    };

    let cache = ContentCache::new();
    println!(
        "fleet {spec_str}: {} sessions on a shared {} Mbit/s link ({:?})",
        spec.total_sessions(),
        spec.link_mbps,
        spec.discipline,
    );
    let fleet = match run_fleet(&spec, &cache, Tracer::disabled()) {
        Ok(fleet) => fleet,
        Err(e) => {
            eprintln!("fleet {spec_str:?} cannot run: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "\n{:4} {:12} {:>8} {:>12} {:>8} {:>9} {:>9}",
        "flow", "system", "share", "bufRatio", "SSIM", "stall-s", "drops"
    );
    for (i, (session, flow)) in fleet.sessions.iter().zip(&fleet.flows).enumerate() {
        println!(
            "{:4} {:12} {:>7.1}% {:>11.2}% {:>8.4} {:>9.2} {:>9}",
            i,
            session.abr,
            fleet.shares_pct[i],
            session.buf_ratio_pct(),
            session.avg_ssim(),
            session.stall_s,
            flow.dropped,
        );
    }
    println!(
        "\nJain fairness {:.3} | aggregate mean SSIM {:.4} | total stalls {:.1} s | link drops {}",
        fleet.jain,
        fleet.mean_ssim(),
        fleet.total_stall_s(),
        fleet.total_drops(),
    );
    if let Some(edge) = &fleet.edge {
        println!(
            "edge tier: {} edges | hit ratio {:.1}% ({} hits / {} misses) | \
             origin {} bytes over {} fetches | origin load {:.1}%",
            edge.edges.len(),
            edge.hit_ratio_pct,
            edge.hits,
            edge.misses,
            edge.origin_bytes,
            edge.origin_fetches,
            edge.origin_load_pct,
        );
    }
    println!(
        "simulated {:.1} s in {} event-loop iterations{}",
        fleet.end_s,
        fleet.loop_iters,
        if fleet.all_completed() {
            "; every session completed"
        } else {
            "; some sessions hit the safety cap"
        }
    );
}
