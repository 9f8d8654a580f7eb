//! BENCHMARK v1 of the VOXEL reproduction. Run it through `benchmark/run.sh`,
//! which builds this package with the plain `release` profile first; see
//! `benchmark/README.md` for the workloads, the metrics and the protocol.

mod child;
mod json;
mod kernels;
mod metrics;
mod report;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark/run.sh [--seed N] [--repeats K] [--workload NAME] [--smoke]
           every workload: a warm-up child, K (default 5) measured children
           and a traced child each; prints every metric, writes
           benchmark/out/results.json. Seed 1 by default; 2 is held out.
       benchmark/run.sh --agree [--seed N] [--repeats K] [--workload NAME]
           two sets back to back; both medians, the gap and the bound
       benchmark/run.sh --compare <a.json> <b.json>
           per-cell delta of b against a; changed counts = model changed
       benchmark/run.sh --contract
           print the BENCHMARK.json the tables imply
       benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
           one run in this process (the driver's command, and the child
           the other modes spawn); the last line is the result as JSON";

/// Every flag and how many values it takes.
const FLAGS: [(&str, usize); 9] = [
    ("seed", 1),
    ("repeats", 1),
    ("workload", 1),
    ("seconds", 1),
    ("trace", 1),
    ("compare", 2),
    ("smoke", 0),
    ("agree", 0),
    ("contract", 0),
];

/// `--flag value...` pairs; a flag takes the words up to the next `--flag`.
fn parse(args: &[String]) -> Result<BTreeMap<&str, Vec<&str>>, String> {
    let mut flags: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut current = None;
    for arg in args {
        if let Some(name) = arg.strip_prefix("--") {
            if !FLAGS.iter().any(|(k, _)| *k == name) {
                return Err(format!("unknown flag {arg}"));
            }
            flags.insert(name, Vec::new());
            current = Some(name);
        } else {
            let name = current.ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            flags.entry(name).or_default().push(arg);
        }
    }
    for (name, want) in FLAGS {
        if flags.get(name).is_some_and(|v| v.len() != want) {
            return Err(format!("--{name} takes {want} value(s)"));
        }
    }
    Ok(flags)
}

fn number<T: std::str::FromStr>(
    flags: &BTreeMap<&str, Vec<&str>>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v[0].parse().map_err(|_| format!("bad --{name} {:?}", v[0])),
        None => Ok(default),
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let flags = parse(args)?;
    let has = |name: &str| flags.contains_key(name);
    if has("contract") {
        print!("{}", report::contract().pretty());
        return Ok(true);
    }
    if let Some(files) = flags.get("compare") {
        return report::compare(files[0], files[1]);
    }
    let only = match flags.get("workload") {
        Some(v) => Some(workloads::workload(v[0]).ok_or_else(|| {
            let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {:?} (one of {})", v[0], names.join(", "))
        })?),
        None => None,
    };
    let smoke = has("smoke");
    let seed = number(&flags, "seed", 1u64)?;
    if has("seconds") || has("trace") {
        let workload = only.ok_or("a single run needs --workload")?;
        let seconds: f64 = number(&flags, "seconds", report::RUN_SECONDS as f64)?;
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds {seconds} is out of range"));
        }
        let traced = match flags.get("trace").map_or("0", |v| v[0]) {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        return child::run(&child::ChildArgs {
            workload,
            seed,
            seconds,
            traced,
            smoke,
        });
    }
    let default_repeats = if smoke { 1 } else { report::DEFAULT_REPEATS };
    let repeats = number(&flags, "repeats", default_repeats)?;
    if !(1..=9).contains(&repeats) {
        return Err("--repeats takes 1 to 9".into());
    }
    let opts = report::Options {
        seed,
        repeats,
        only,
        smoke,
    };
    if has("agree") {
        report::agree(&opts)
    } else {
        report::run(&opts)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse;

    #[test]
    fn flags_take_their_values_and_unknown_ones_are_refused() {
        let args: Vec<String> = "--workload fleet16 --seed 3 --smoke --compare a.json b.json"
            .split(' ')
            .map(String::from)
            .collect();
        let flags = parse(&args).expect("parses");
        assert_eq!(flags["workload"], ["fleet16"]);
        assert_eq!(flags["seed"], ["3"]);
        assert!(flags["smoke"].is_empty());
        assert_eq!(flags["compare"], ["a.json", "b.json"]);
        for bad in [
            "--bogus",
            "stray",
            "--seed",
            "--smoke 1",
            "--compare a.json",
        ] {
            let args: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse(&args).is_err(), "{bad}");
        }
    }
}
