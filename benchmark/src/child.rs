//! One measured run of one workload in this process: what the driver's
//! `--workload W --seed N --seconds S --trace 0|1` invokes, and what
//! `run.sh` spawns once per (workload, repeat).
//!
//! Prints every metric it measured by name, a `detail` JSON line for the
//! orchestrator (digest, counts), and last the contract's result line.

use crate::json::Json;
use crate::metrics::{end_to_end, per_layer};
use crate::stats::median;
use crate::workloads::{Run, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Where the traced round writes its spans and repeats leave their digests.
/// Relative to the working directory, which `run.sh` makes the checkout root.
pub const OUT_DIR: &str = "benchmark/out";

pub struct ChildArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// Run the workload; `Err` is a broken run (nothing is printed as a result).
pub fn run(args: &ChildArgs) -> Result<bool, String> {
    let started = Instant::now();
    let w = args.workload;
    let mut run = Run::new(args.seed, args.seconds, args.smoke, args.traced);
    run.spans.enter("child");
    (w.run)(&mut run)?;
    if run.unit_s.is_empty() || run.tally.attempted == 0 {
        return Err(format!("{}: the workload measured nothing", w.name));
    }

    let wall_s = median(&run.unit_s);
    let tally = &run.tally;
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    if args.traced {
        metrics.extend(tally.layer_metrics());
        metrics.extend(run.layer.clone());
        if let Some(sessions) = metrics.get("fleet.sessions").copied() {
            let grown_kb = (run.peak_rss_mb - run.rss_before_mb).max(0.0) * 1024.0;
            metrics.insert("fleet.rss_kb_per_session", grown_kb / sessions);
        }
        if let Some(p) = run.proc_stat {
            metrics.extend([
                ("process.cpu_user_s", p.user_s),
                ("process.cpu_sys_s", p.sys_s),
                ("process.minor_faults", p.minor_faults as f64),
            ]);
        }
        metrics.insert("process.traced_wall_s", wall_s);
        if let Some(report) = &run.profile {
            let total = report.total_ns() as f64;
            let measured_ns = run.unit_s.iter().sum::<f64>() * 1e9;
            metrics.insert("obs.reconcile_share", total / measured_ns);
            for (layer, ns, _) in report.layers() {
                let name = match layer.as_str() {
                    "fleet" => "obs.self_share.fleet",
                    "quic" => "obs.self_share.quic",
                    "netem" => "obs.self_share.netem",
                    // The `session.*` spans live in the `core` crate.
                    "session" => "obs.self_share.core",
                    _ => continue,
                };
                metrics.insert(name, ns as f64 / total.max(1.0));
            }
        }
        run.spans.enter("kernels");
        metrics.extend(crate::kernels::run_all(args.smoke));
        run.spans.exit();
    } else {
        metrics.extend([
            ("setup_s", median(&run.setup_s)),
            ("wall_s", wall_s),
            ("ns_per_packet", wall_s * 1e9 / tally.packets.max(1) as f64),
            ("sim_s_per_wall_s", tally.sim_s / wall_s),
            ("peak_rss_mb", run.peak_rss_mb),
        ]);
    }

    let digest = format!("{:016x}", tally.digest());
    let drifted = check_digest(w, args, &digest)?;
    let failed = tally.failed + run.drifted_units + u64::from(drifted);
    run.spans.exit();
    if args.traced {
        write_spans(w.name, &run, started.elapsed().as_secs_f64())?;
    }

    // The contract wants every metric of the round on every workload; a
    // per-layer cell that does not apply to this workload reads 0.
    let wanted: Vec<_> = if args.traced {
        per_layer().collect()
    } else {
        end_to_end().collect()
    };
    println!(
        "# {} seed {} trace {}{}: {} unit(s) of {:.3} s, {} set-up(s)",
        w.name,
        args.seed,
        u8::from(args.traced),
        if args.smoke { " SMOKE" } else { "" },
        run.unit_s.len(),
        wall_s,
        run.setup_s.len(),
    );
    let mut reported = Vec::new();
    for m in wanted {
        let value = metrics.get(m.name).copied().unwrap_or(0.0);
        if metrics.contains_key(m.name) {
            println!("{:<40} {:>16.6} {}", m.name, value, m.unit);
        }
        let cell = Json::obj([("value", Json::from(value)), ("unit", Json::from(m.unit))]);
        reported.push((m.name, cell));
    }
    let detail = Json::obj([
        ("workload", Json::from(w.name)),
        ("sim_digest", Json::from(digest)),
        ("smoke", Json::from(args.smoke)),
        ("units", Json::from(run.unit_s.len() as f64)),
        ("packets", Json::from(tally.packets as f64)),
        (
            "applies",
            Json::Arr(metrics.keys().map(|k| Json::from(*k)).collect()),
        ),
    ]);
    println!("detail {detail}");
    let result = Json::obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(tally.attempted as f64)),
        ("failed", Json::from(failed.min(tally.attempted) as f64)),
        ("metrics", Json::obj(reported)),
    ]);
    println!("{result}");
    Ok(failed == 0)
}

/// Repeats of one workload in one checkout must agree on the digest, and so
/// must `fleet1k` and `fleet1k_w2`. The first run of a digest group leaves
/// its digest under `benchmark/out/digests/`; later runs compare. Nothing
/// is pinned in the repository, so a change to the model is not blocked
/// here: `run.sh` clears the directory when it starts a set.
fn check_digest(w: &Workload, args: &ChildArgs, digest: &str) -> Result<bool, String> {
    let seed = w
        .seed_use
        .map_or(String::new(), |_| format!("-seed{}", args.seed));
    let smoke = if args.smoke { "-smoke" } else { "" };
    let dir = Path::new(OUT_DIR).join("digests");
    let path = dir.join(format!("{}{seed}{smoke}", w.digest_group));
    match std::fs::read_to_string(&path) {
        Ok(first) if first.trim() == digest => Ok(false),
        Ok(first) => {
            eprintln!(
                "FAILED {}: sim_digest {digest} differs from {} in {} (an earlier run of \
                 this checkout); delete {OUT_DIR} if the model changed on purpose",
                w.name,
                first.trim(),
                path.display()
            );
            Ok(true)
        }
        Err(_) => {
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, digest))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(false)
        }
    }
}

fn write_spans(workload: &str, run: &Run, child_wall_s: f64) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(format!("{workload}.spans.jsonl"));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, run.spans.to_jsonl(workload)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let own = run.spans.self_ns();
    let total: u64 = own.values().sum();
    println!(
        "# spans -> {}: self times sum to {:.3} s of {:.3} s child wall ({:.1} %)",
        path.display(),
        total as f64 / 1e9,
        child_wall_s,
        100.0 * total as f64 / 1e9 / child_wall_s
    );
    for (name, ns) in own {
        println!("#   self {:<10} {:>10.3} s", name, ns as f64 / 1e9);
    }
    Ok(())
}
