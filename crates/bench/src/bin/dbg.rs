//! The debugging front door (not a paper figure): look at, profile or
//! compare any run the workspace can name.
//!
//! ```text
//! dbg <trace|profile|compare> <spec-or-matrix-line> [--seed N] [--sample N] [--check]
//! ```
//!
//! The argument is the one `<spec>` every tool takes (DESIGN.md §11): a
//! scenario (`ToS:VOXEL:tmobile:buf1`), a fleet
//! (`BBB:4xVOXEL+2xBOLA:const6:cap60`), or a matrix line expanding to
//! several scenarios (`systems=BOLA,VOXEL traces=verizon buffers=1`).
//! There is no other dialect and no defaults table: what is not in the
//! spec takes the grammar's defaults.
//!
//! - `trace`: stdout is the recorded JSONL timeline — byte-for-byte what
//!   the golden digests hash, so two runs must `diff` clean; stderr gets
//!   one summary line per session, the oracle verdicts, and a scenario's
//!   end-of-session metrics snapshot.
//! - `profile`: one untimed warm-up run (content preparation, working
//!   set), then the same run under the `voxel-obs` profiler: the
//!   per-layer time/allocation report (DESIGN.md §13) and a
//!   reconciliation line. `--sample N` profiles 1-in-N loop iterations;
//!   `--check` exits non-zero unless spans explain wall time within ±10 %.
//! - `compare`: one row per scenario (aggregated over its trials) or per
//!   fleet session.
//!
//! `--seed N` (default 1) seeds scenario traces and fault planes; a fleet
//! is a pure function of its spec.

#![allow(
    clippy::disallowed_methods,
    reason = "the harness times itself; wall time never reaches simulation state"
)]

use std::process::ExitCode;
use std::time::{Duration, Instant};
use voxel_core::metrics::{Aggregate, TrialResult};
use voxel_fleet::FleetSpec;
use voxel_obs::Profiler;
use voxel_testkit::{run_fleet_traced, run_scenario, Content, Matrix, Scenario, Spec};

/// Span totals must explain this fraction of measured wall time.
const RECONCILE_TOLERANCE: f64 = 0.10;

const USAGE: &str =
    "usage: dbg <trace|profile|compare> <spec-or-matrix-line> [--seed N] [--sample N] [--check]";

enum Target {
    Scenarios(Vec<Scenario>),
    Fleet(FleetSpec),
}

/// A spec has colons, a matrix line has none.
fn target(arg: &str) -> Result<Target, String> {
    if !arg.contains(':') {
        return Ok(Target::Scenarios(Matrix::parse(arg)?.scenarios()));
    }
    Ok(match Spec::parse(arg)? {
        Spec::Scenario(s) => Target::Scenarios(vec![s]),
        Spec::Fleet(f) => Target::Fleet(f),
    })
}

/// One executed scenario or fleet.
struct Ran {
    title: String,
    /// Comparable rows: a scenario is one row over its trials, a fleet
    /// one row per session.
    rows: Vec<(String, Vec<TrialResult>)>,
    timeline: Vec<u8>,
    failures: Vec<String>,
    wall: Duration,
}

fn run(target: &Target, seed: u64, content: &mut Content) -> Result<Vec<Ran>, String> {
    match target {
        Target::Scenarios(all) => all
            .iter()
            .map(|s| {
                let t0 = Instant::now();
                let run = run_scenario(s, seed, content)?;
                let mut timeline = Vec::new();
                let mut trials = Vec::new();
                for t in run.trials {
                    timeline.extend(t.timeline);
                    trials.push(t.result);
                }
                Ok(Ran {
                    title: format!("scenario {} seed {seed}", run.spec),
                    rows: vec![(s.name(), trials)],
                    timeline,
                    failures: run.failures,
                    wall: t0.elapsed(),
                })
            })
            .collect(),
        Target::Fleet(spec) => {
            let t0 = Instant::now();
            let run = run_fleet_traced(spec, content)?;
            let r = run.result;
            Ok(vec![Ran {
                title: format!(
                    "fleet {}: sim end {:.1}s, jain {:.3}, {} loop iters",
                    r.spec, r.end_s, r.jain, r.loop_iters
                ),
                rows: spec
                    .session_members()
                    .iter()
                    .zip(r.sessions)
                    .enumerate()
                    .map(|(flow, (m, s))| (format!("flow {flow} {}", m.label()), vec![s]))
                    .collect(),
                timeline: run.timeline,
                failures: run.failures,
                wall: t0.elapsed(),
            }])
        }
    }
}

fn print_verdict(ran: &Ran) {
    eprintln!(
        "# {}: oracles {}",
        ran.title,
        if ran.failures.is_empty() {
            "passed"
        } else {
            "FAILED"
        }
    );
    for f in &ran.failures {
        eprintln!("#   oracle: {f}");
    }
}

fn cmd_trace(ran: &[Ran]) {
    use std::io::Write;
    for ran in ran {
        // A closed pipe (`| head`) ends the timeline, not the summary.
        let _ = std::io::stdout().write_all(&ran.timeline);
        print_verdict(ran);
        for (label, sessions) in &ran.rows {
            for r in sessions {
                eprintln!(
                    "{label}: completed={} segments={} bufRatio={:.2}% bitrate={:.0}kbps \
                     ssim={:.4} startup={:.2}s stalls={:.2}s restarts={} partials={} \
                     downloaded={}MB wasted={}MB pkts={} loss_events={} ptos={} \
                     mean_cwnd={:.0}B mean_srtt={:.1}ms",
                    r.completed,
                    r.segment_scores.len(),
                    r.buf_ratio_pct(),
                    r.avg_bitrate_kbps(),
                    r.avg_ssim(),
                    r.startup_s,
                    r.stall_s,
                    r.restarts,
                    r.kept_partials,
                    r.bytes_downloaded / 1_000_000,
                    r.bytes_wasted / 1_000_000,
                    r.transport.packets_sent,
                    r.transport.loss_events,
                    r.transport.ptos,
                    r.transport.mean_cwnd_bytes,
                    r.transport.mean_srtt_ms,
                );
                if let Some(snap) = &r.metrics {
                    eprintln!("metrics snapshot:\n{}", snap.to_json());
                }
            }
        }
    }
}

fn cmd_compare(ran: &[Ran]) {
    for ran in ran {
        print_verdict(ran);
        for (label, sessions) in &ran.rows {
            let agg = Aggregate::new(sessions.clone());
            let n = agg.trials.len() as f64;
            let mean =
                |f: fn(&TrialResult) -> u32| agg.trials.iter().map(f).sum::<u32>() as f64 / n;
            println!(
                "{label:32} n={n:<2} bufRatio p90={:6.2}% mean={:6.2}% bitrate={:6.0}kbps \
                 ssim={:.4} skipped={:4.1}% restarts={:.1} partials={:.1} \
                 residual_loss={:4.1}% [{:?}]",
                agg.buf_ratio_p90(),
                agg.buf_ratio_mean(),
                agg.bitrate_mean_kbps(),
                agg.mean_ssim(),
                agg.data_skipped_mean_pct(),
                mean(|t| t.restarts),
                mean(|t| t.kept_partials),
                agg.residual_loss_mean_pct(),
                ran.wall,
            );
        }
    }
}

/// Warm up untimed, then run once with the profiler installed and check
/// that the scaled span totals explain the measured wall time. Spans sit
/// inside the event loop, so they can only undershoot (setup/teardown
/// around the loop); a large gap means uninstrumented hot code.
fn cmd_profile(
    target: &Target,
    seed: u64,
    sample: u64,
    content: &mut Content,
) -> Result<bool, String> {
    run(target, seed, content)?;
    let profiler = Profiler::with_sample(sample);
    let t0 = Instant::now();
    let ran = {
        let _installed = profiler.install();
        run(target, seed, content)?
    };
    let wall_s = t0.elapsed().as_secs_f64();
    ran.iter().for_each(print_verdict);
    let report = profiler.report().ok_or("no profile collected")?;
    println!();
    print!("{}", report.render());
    let spans_s = report.total_ns() as f64 / 1e9;
    let ratio = if wall_s > 0.0 { spans_s / wall_s } else { 0.0 };
    println!(
        "\nreconcile: spans {:.1} ms vs wall {:.1} ms ({:.1}%)",
        spans_s * 1e3,
        wall_s * 1e3,
        100.0 * ratio,
    );
    let within = (1.0 - ratio).abs() <= RECONCILE_TOLERANCE;
    if !within {
        println!(
            "reconcile: spans outside ±{:.0}% of wall — uninstrumented hot code \
             or sampling too coarse (try --sample 1)",
            100.0 * RECONCILE_TOLERANCE,
        );
    }
    Ok(within)
}

fn main() -> ExitCode {
    let mut words: Vec<String> = Vec::new();
    let (mut seed, mut sample, mut check) = (1u64, 1u64, false);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut number = |name: &str| {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("dbg: {name} needs a number\n{USAGE}");
                std::process::exit(2)
            })
        };
        match a.as_str() {
            "--seed" => seed = number("--seed"),
            "--sample" => sample = number("--sample"),
            "--check" => check = true,
            _ => words.push(a),
        }
    }
    // An unquoted matrix line arrives as several words.
    let (cmd, arg) = match words.split_first() {
        Some((cmd, rest)) if !rest.is_empty() => (cmd.as_str(), rest.join(" ")),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let target = match target(&arg) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dbg: {e}");
            return ExitCode::from(2);
        }
    };
    let mut content = Content::new();
    let outcome = match cmd {
        "trace" => run(&target, seed, &mut content).map(|ran| cmd_trace(&ran)),
        "compare" => run(&target, seed, &mut content).map(|ran| cmd_compare(&ran)),
        "profile" => cmd_profile(&target, seed, sample, &mut content).and_then(|within| {
            (within || !check)
                .then_some(())
                .ok_or_else(|| "--check: spans do not reconcile with wall time".to_string())
        }),
        _ => {
            eprintln!("dbg: unknown subcommand {cmd:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dbg: {e}");
            ExitCode::FAILURE
        }
    }
}
