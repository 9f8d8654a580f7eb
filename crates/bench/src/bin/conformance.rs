//! Tier-2 conformance runner (DESIGN.md §11).
//!
//! One run with no flags, in three steps. The sweep runs a scenario
//! matrix plus fault-injection scenarios across K seeds with every oracle
//! armed, minimizing each failure to a `(seed, trials, trace-prefix)`
//! triple with a ready-to-paste `#[test]`. The goldens check every
//! committed digest; a golden fleet must first produce byte-identical
//! timelines and metrics at workers 1, 2 and the machine's maximum. The
//! canary arms the stall-accounting skew on five seeds and fails unless
//! the drift oracle catches and minimizes it on every one.
//!
//! ```text
//! cargo run --release -p voxel-bench --bin conformance
//! VOXEL_SEEDS=8           # sweep seed count (default 5)
//! VOXEL_BLESS=1           # re-bless the golden digests
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "the harness times itself; wall time never reaches simulation state"
)]

use std::process::ExitCode;
use std::time::Instant;
use voxel_testkit::{
    check_or_bless, run_golden, run_sweep, Content, GoldenStatus, Matrix, Scenario, Spec,
    SweepOptions, SweepReport, GOLDENS,
};

fn seeds() -> Vec<u64> {
    let n: u64 = std::env::var("VOXEL_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    (1..=n.max(1)).collect()
}

/// The conformance scenario set: a cheap matrix over the main axes plus
/// targeted fault-injection scenarios.
fn scenarios() -> Result<Vec<Scenario>, String> {
    let mut all =
        Matrix::parse("videos=BBB systems=BOLA,VOXEL traces=const8,tmobile buffers=3 trials=1")?
            .scenarios();
    for spec in [
        "ToS:VOXEL:tmobile:buf1",
        "ToS:BOLA:tmobile:buf1",
        "BBB:VOXEL:const5:loss@40+10x0.3",
        "BBB:VOXEL:const8:cliff@120x0.25",
        "BBB:BOLA:const8:stuck@60+30",
        "BBB:VOXEL:const5:reorder@30+30x0.2~40:dup@90+30x0.1~15",
    ] {
        all.push(Scenario::parse(spec)?);
    }
    Ok(all)
}

fn print_failures(report: &SweepReport) {
    for f in &report.failures {
        println!("\nFAIL {} seed {}", f.spec, f.seed);
        for v in &f.failures {
            println!("  - {v}");
        }
        if let Some(r) = &f.repro {
            println!("  minimized to {}", r.triple());
            println!("  repro:\n{}", r.test_source());
        }
        if let Some(p) = &f.postmortem {
            println!("{p}");
        }
    }
}

/// Worker counts for the golden-fleet parity sweep: the single-threaded
/// reference, the smallest real shard split, and everything this machine
/// has. Deduplicated so single-core machines still sweep {1, 2}.
fn parity_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut counts = vec![1, 2];
    if !counts.contains(&max) {
        counts.push(max);
    }
    counts
}

/// Run the one `GOLDENS` table — scenarios once under their seed, fleets
/// as a sharded-parity sweep whose workers=1 timeline is the digest
/// candidate — and check (or bless) every digest.
fn run_goldens(content: &mut Content) -> Result<bool, String> {
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let counts = parity_counts();
    let mut ok = true;
    for g in &GOLDENS {
        let what = match Spec::parse(g.spec)? {
            Spec::Fleet(_) => format!("fleet {} (parity at w {counts:?})", g.name),
            Spec::Scenario(_) => format!("golden {}", g.name),
        };
        let started = Instant::now();
        let run = run_golden(g, content, &counts)?;
        if !run.failures.is_empty() {
            println!("FAIL {what}:");
            for v in &run.failures {
                println!("  - {v}");
            }
            if let Some(p) = &run.postmortem {
                println!("{p}");
            }
            ok = false;
            continue;
        }
        match check_or_bless(&golden_dir, g, &run.timeline) {
            Ok(GoldenStatus::Matched) => {
                println!("# {what}: ok ({:.1}s)", started.elapsed().as_secs_f64())
            }
            Ok(GoldenStatus::Blessed) => println!("# {what}: blessed"),
            Err(e) => {
                println!("FAIL {what}: {e}");
                ok = false;
            }
        }
    }
    Ok(ok)
}

fn run_conformance() -> Result<bool, String> {
    let seeds = seeds();
    let all = scenarios()?;
    println!(
        "# conformance: {} scenarios x {} seeds",
        all.len(),
        seeds.len()
    );
    let mut content = Content::new();
    let started = Instant::now();
    let report = run_sweep(
        &all,
        &SweepOptions {
            seeds,
            ..SweepOptions::default()
        },
        &mut content,
    )?;
    println!(
        "# sweep: {}/{} runs passed in {:.1}s",
        report.passed,
        report.runs,
        started.elapsed().as_secs_f64()
    );
    print_failures(&report);

    let goldens_ok = run_goldens(&mut content)?;
    let canary_ok = run_canary(&mut content)?;
    Ok(report.ok() && goldens_ok && canary_ok)
}

/// Canary self-test: arm the deliberate stall-accounting skew and demand
/// that the sweep catch it on every seed, for the right reason, and
/// minimize each failure.
fn run_canary(content: &mut Content) -> Result<bool, String> {
    // BOLA over a violent cellular trace with a 1-segment buffer stalls
    // on essentially every seed (the paper's Fig 6 baseline), so the
    // +100 ms-per-stall skew has material to drift on; the same scenario
    // passes every oracle when the skew is off.
    let scenario = Scenario::parse("ToS:BOLA:tmobile:buf1:inject=stall_skew")?;
    let opts = SweepOptions::default();
    println!(
        "# canary: {} across {} seeds",
        scenario.spec(),
        opts.seeds.len()
    );
    let report = run_sweep(&[scenario], &opts, content)?;
    // Every run must fail (no seed passes), each for the drift, each with
    // a minimized repro.
    let caught = report
        .failures
        .iter()
        .filter(|f| f.repro.is_some())
        .filter(|f| {
            f.failures
                .iter()
                .any(|v| v.contains("stall accounting drift"))
        })
        .count();
    println!(
        "# canary: caught and minimized on {caught}/{} seeds ({} passed)",
        report.runs, report.passed
    );
    if caught < report.runs {
        print_failures(&report);
    }
    Ok(report.runs > 0 && caught == report.runs)
}

fn main() -> ExitCode {
    if let Some(a) = std::env::args().nth(1) {
        eprintln!("conformance: unexpected argument {a:?}; it takes none");
        return ExitCode::FAILURE;
    }
    match run_conformance() {
        Ok(true) => {
            println!("# conformance: PASS");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("# conformance: FAIL");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("conformance runner error: {e}");
            ExitCode::FAILURE
        }
    }
}
