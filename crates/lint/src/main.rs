//! CLI for the workspace API-baseline check. Exit code 1 on any violation
//! (or a blown wall-time guard), 2 on operational error.
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
                println!("voxel-lint: the workspace public-API baseline (see DESIGN.md §10)");
                println!("usage: voxel-lint [--root <repo-root>] [--max-seconds <n>]");
                println!("env: VOXEL_BLESS=1 re-blesses the API baseline");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument: {other}")),
        }
    }

    let violations = match voxel_lint::run(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("voxel-lint: error: {e}");
            return ExitCode::from(2);
        }
    };
    for v in &violations {
        println!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.msg);
    }
    let mut failed = !violations.is_empty();
    if failed {
        println!("voxel-lint: {} violation(s)", violations.len());
    } else {
        println!("voxel-lint: clean");
    }

    if let Some(max) = max_seconds {
        let elapsed = t0.elapsed();
        if elapsed.as_secs_f64() > max as f64 {
            println!(
                "voxel-lint: wall-time guard: pass took {:.2}s (limit {max}s)",
                elapsed.as_secs_f64()
            );
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("voxel-lint: {msg}");
    ExitCode::from(2)
}
