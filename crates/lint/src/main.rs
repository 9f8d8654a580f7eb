//! CLI for the workspace API-baseline check. Exit code 1 on any violation
//! (or a blown wall-time guard), 2 on operational error: rustdoc failed or
//! warned, or wrote JSON in a `format_version` the lint does not read.
//!
//! Usage: `cargo run -p voxel-lint [-- --root <path>] [--max-seconds <n>]`
//!
//! `VOXEL_BLESS=1` rewrites `lint/api-baseline.txt` from the current
//! workspace instead of diffing against it.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    #[expect(
        clippy::disallowed_methods,
        reason = "measures the lint pass itself for the CI wall-time guard, never sim state"
    )]
    let t0 = std::time::Instant::now();
    let mut args = std::env::args().skip(1);
    let mut root = voxel_lint::default_root();
    let mut max_seconds: Option<u64> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage_error("--root requires a path"),
            },
            "--max-seconds" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => max_seconds = Some(n),
                None => return usage_error("--max-seconds requires an integer"),
            },
            "--help" | "-h" => {
                println!("usage: voxel-lint [--root <repo-root>] [--max-seconds <n>] (DESIGN.md §10)\nenv: VOXEL_BLESS=1 re-blesses the API baseline");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument: {other}")),
        }
    }

    let violations = match voxel_lint::run(&root) {
        Ok(v) => v,
        Err(e) => return usage_error(&format!("error: {e}")),
    };
    for v in &violations {
        println!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.msg);
    }
    match violations.len() {
        0 => println!("voxel-lint: clean"),
        n => println!("voxel-lint: {n} violation(s)"),
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let slow = max_seconds.filter(|&max| elapsed > max as f64);
    if let Some(max) = slow {
        println!("voxel-lint: wall-time guard: pass took {elapsed:.2}s (limit {max}s)");
    }
    if violations.is_empty() && slow.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("voxel-lint: {msg}");
    ExitCode::from(2)
}
