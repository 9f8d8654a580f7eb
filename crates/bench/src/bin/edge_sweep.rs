//! edge_sweep: the edge/CDN serving-tier report (DESIGN.md §16).
//!
//! Same fleet, same bottleneck — only the edge tier varies. The two
//! committed goldens anchor the extremes (a hot full-admission tier and
//! a cold pass-through tier on the same 16-session flash crowd), a
//! zipf-popularity + Poisson-arrivals scenario exercises the generated
//! workload path, and the full report sweeps routing × eviction ×
//! admission so the cache-efficacy spread is visible in one table.
//!
//! ```sh
//! cargo run --release -p voxel-bench --bin edge_sweep [-- --smoke]
//! ```
//!
//! `--smoke` is the gated ci.sh lane: just the goldens plus the zipf
//! scenario, and the run fails unless the hot tier clears the testkit's
//! hit-ratio floor and origin-load ceiling AND pulls no more than
//! [`EDGE_HOT_ORIGIN_FRACTION_OF_COLD`] of the cold tier's origin
//! bytes. The full report adds the sweep rows; there oracle verdicts
//! print as findings without failing the run.

#![allow(clippy::expect_used, reason = "a binary aborts on a failed run")]

use std::process::ExitCode;
use voxel_core::{Admission, ContentCache, EvictionPolicy};
use voxel_fleet::{
    run_fleet, run_fleet_workload, zipf_poisson_arrivals, FleetResult, FleetSpec, Routing,
};
use voxel_media::content::VideoId;
use voxel_testkit::{
    edge_hot_invariants, fleet_invariants, Golden, EDGE_HOT_HIT_RATIO_FLOOR,
    EDGE_HOT_ORIGIN_FRACTION_OF_COLD,
};
use voxel_trace::Tracer;

/// Video catalog for the zipf scenario: the four Table-1 titles, rank
/// order = popularity order.
const CATALOG: [VideoId; 4] = [VideoId::Bbb, VideoId::Tos, VideoId::Ed, VideoId::Sintel];

/// Zipf exponent for the generated workload (s=1 is the classic
/// web-object popularity fit).
const ZIPF_S: f64 = 1.0;

/// Poisson arrival rate for the generated workload, sessions/second.
const ARRIVAL_HZ: f64 = 0.5;

fn golden_spec(name: &str) -> FleetSpec {
    let golden = Golden::named(name).expect("the edge goldens are in GOLDENS");
    FleetSpec::parse(golden.spec).expect("golden specs parse")
}

fn print_row(name: &str, r: &FleetResult) {
    let e = r.edge.as_ref().expect("edge rows carry a report");
    println!(
        "{:16} {:>3} {:>5} {:>6.1} {:>6} {:>9.2} {:>6.1} {:>7.3} {:>8.1}",
        name,
        r.sessions.len(),
        e.edges.len(),
        e.hit_ratio_pct,
        e.evictions,
        e.origin_bytes as f64 / 1e6,
        e.origin_load_pct,
        r.mean_ssim(),
        r.total_stall_s(),
    );
}

fn run_spec(spec: &FleetSpec, cache: &ContentCache) -> Result<FleetResult, String> {
    run_fleet(spec, cache, Tracer::disabled())
}

/// Oracle verdicts gate the run in smoke mode and print as findings in
/// the full report (that table is the methodology's output, not a gate).
fn report_violations(smoke: bool, ok: &mut bool, name: &str, violations: Vec<String>) {
    for v in violations {
        if smoke {
            println!("FAIL {name}: {v}");
            *ok = false;
        } else {
            println!("finding {name}: {v}");
        }
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    for a in std::env::args().skip(1) {
        if a == "--smoke" {
            smoke = true;
        } else {
            eprintln!("edge_sweep: unexpected argument {a:?}");
            eprintln!("usage: edge_sweep [--smoke]");
            return ExitCode::FAILURE;
        }
    }
    let cache = ContentCache::top_level_only();
    let hot_spec = golden_spec("fleet-edge4x16-hot");
    let cold_spec = golden_spec("fleet-edge4x16-cold");
    println!(
        "# edge sweep{}: {} sessions, {} edges over a {} Mbit/s origin backhaul",
        if smoke { " (smoke)" } else { "" },
        hot_spec.total_sessions(),
        hot_spec.edge.as_ref().map_or(0, |t| t.edges),
        hot_spec.edge.as_ref().map_or(0.0, |t| t.origin_mbps),
    );
    println!(
        "{:16} {:>3} {:>5} {:>6} {:>6} {:>9} {:>6} {:>7} {:>8}",
        "tier", "n", "edges", "hit%", "evict", "originMB", "load%", "ssim", "stall_s"
    );

    let mut ok = true;
    let check = |ok: &mut bool, name: &str, spec: &FleetSpec, r: &FleetResult, hot: bool| {
        let mut violations = fleet_invariants(spec, r);
        if hot {
            violations.extend(edge_hot_invariants(r));
        }
        report_violations(smoke, ok, name, violations);
    };

    // The two golden extremes: every byte either sticks or passes through.
    let hot = match run_spec(&hot_spec, &cache) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("edge_sweep: hot: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_row("golden-hot", &hot);
    check(&mut ok, "golden-hot", &hot_spec, &hot, true);
    let cold = match run_spec(&cold_spec, &cache) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("edge_sweep: cold: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_row("golden-cold", &cold);
    check(&mut ok, "golden-cold", &cold_spec, &cold, false);

    // Hot vs cold origin fan-in: the entire point of the tier. The hot
    // cache must shield the origin from all but a sliver of the crowd.
    let (hot_bytes, cold_bytes) = (
        hot.edge.as_ref().map_or(0, |e| e.origin_bytes),
        cold.edge.as_ref().map_or(0, |e| e.origin_bytes),
    );
    let fraction = hot_bytes as f64 / cold_bytes.max(1) as f64;
    println!(
        "# origin shield: hot {hot_bytes} B vs cold {cold_bytes} B \
         ({:.1}% of cold; gate {:.0}%; hit floor {:.0}%)",
        100.0 * fraction,
        100.0 * EDGE_HOT_ORIGIN_FRACTION_OF_COLD,
        100.0 * EDGE_HOT_HIT_RATIO_FLOOR,
    );
    if fraction > EDGE_HOT_ORIGIN_FRACTION_OF_COLD {
        let line = format!(
            "hot tier pulled {:.1}% of the cold tier's origin bytes (gate {:.0}%)",
            100.0 * fraction,
            100.0 * EDGE_HOT_ORIGIN_FRACTION_OF_COLD,
        );
        if smoke {
            println!("FAIL origin-shield: {line}");
            ok = false;
        } else {
            println!("finding origin-shield: {line}");
        }
    }

    // Generated workload: zipf popularity over the Table-1 catalog with
    // Poisson arrivals — the flash-crowd shape the goldens idealize.
    let workload = zipf_poisson_arrivals(
        7,
        "edge_sweep",
        hot_spec.total_sessions(),
        &CATALOG,
        ZIPF_S,
        ARRIVAL_HZ,
    );
    let zipf = match run_fleet_workload(&hot_spec, &workload, &cache, Tracer::disabled()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("edge_sweep: zipf: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_row("zipf-poisson", &zipf);
    check(&mut ok, "zipf-poisson", &hot_spec, &zipf, false);

    // Full report only: sweep the typed topology surface — routing ×
    // eviction on the hot config, plus the reliable-prefix middle ground.
    if !smoke {
        for routing in [Routing::Hash, Routing::Robin, Routing::Least] {
            for eviction in [EvictionPolicy::Lru, EvictionPolicy::Lfu] {
                let mut spec = hot_spec.clone();
                let t = spec.edge.as_mut().expect("hot golden has an edge tier");
                t.routing = routing;
                t.eviction = eviction;
                t.cache_mb = Some(16.0);
                let name = format!("r{}-p{}-cb16", routing.as_str(), eviction.as_str());
                match run_spec(&spec, &cache) {
                    Ok(r) => {
                        print_row(&name, &r);
                        check(&mut ok, &name, &spec, &r, false);
                    }
                    Err(e) => {
                        eprintln!("edge_sweep: {name}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        let mut spec = hot_spec.clone();
        spec.edge
            .as_mut()
            .expect("hot golden has an edge tier")
            .admission = Admission::ReliablePrefix;
        match run_spec(&spec, &cache) {
            Ok(r) => {
                print_row("reliable-prefix", &r);
                check(&mut ok, "reliable-prefix", &spec, &r, false);
            }
            Err(e) => {
                eprintln!("edge_sweep: reliable-prefix: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if ok {
        println!("# edge_sweep: PASS");
        ExitCode::SUCCESS
    } else {
        println!("# edge_sweep: FAIL");
        ExitCode::FAILURE
    }
}
