#![warn(missing_docs)]
//! # voxel-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (`cargo run --release -p voxel-bench --bin fig6`), each printing the
//! rows/series the corresponding exhibit reports. Performance is measured
//! by the standalone `benchmark/` package, not here.
//!
//! ## Protocol fidelity vs wall-clock
//!
//! The paper repeats every experiment 30 times with the trace shifted by
//! d/30 per trial. A full 30-trial sweep of every figure takes hours even
//! in release mode, so the harness defaults to **8 trials** and honours
//! `VOXEL_TRIALS` (set `VOXEL_TRIALS=30` for the paper's exact protocol).
//! All reported statistics (90th percentile + standard error) are computed
//! the same way regardless of the trial count. `EXPERIMENTS.md` records
//! which count produced the committed numbers.

use voxel_core::experiment::{ContentCache, ExperimentBuilder};
use voxel_core::metrics::Aggregate;
use voxel_media::content::VideoId;
use voxel_netem::{BandwidthTrace, TraceFamily};
use voxel_testkit::{Scenario, SpecError};

/// Trace duration used by all experiments (one 5-minute clip).
pub const TRACE_DURATION_S: usize = 300;

/// Root seed for all synthetic traces (fixed for reproducibility).
pub const TRACE_SEED: u64 = 2021;

/// Number of trials per configuration (`VOXEL_TRIALS`, default 8).
pub fn trial_count() -> usize {
    std::env::var("VOXEL_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// One §5 cell — video × system × trace × buffer — as a scenario, through
/// the spec language every other tool speaks. `trace` is a figure legend
/// (`T-Mobile`) or a spec token (`tmobile`, `const10.5`); an unknown name
/// on any axis is a [`SpecError`] listing the valid set from its table.
fn cell(video: &str, system: &str, buffer: usize, trace: &str) -> Result<Scenario, SpecError> {
    let token = TraceFamily::named()
        .iter()
        .find(|f| f.legend() == trace)
        .map_or_else(|| trace.to_string(), TraceFamily::token);
    Scenario::parse(&format!(
        "{video}:{system}:{token}:buf{buffer}:d{TRACE_DURATION_S}"
    ))
}

/// What every bin does with an unknown name: print the error (it carries
/// the valid set) and exit 2.
fn or_exit<T>(r: Result<T, SpecError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// A video by legend name (BBB/ED/Sintel/ToS/P1..P10).
pub fn video(name: &str) -> VideoId {
    or_exit(cell(name, "VOXEL", 3, "const8")).video
}

/// A §5 trace by figure-legend name or spec token, as the figures run it
/// ([`TRACE_SEED`], [`TRACE_DURATION_S`]).
pub fn figure_trace(name: &str) -> BandwidthTrace {
    or_exit(cell("BBB", "VOXEL", 3, name)).build_trace(TRACE_SEED)
}

/// The VOXEL variant the paper evaluates on `trace`: the Fig 6d
/// bandwidth-safety tuning on T-Mobile, the aggressive default elsewhere.
pub fn voxel_for(trace: &str) -> &'static str {
    match or_exit(cell("BBB", "VOXEL", 3, trace)).trace {
        TraceFamily::TMobile => "VOXEL-tuned",
        _ => "VOXEL",
    }
}

/// The (trace, video) pairings the paper's subplots use.
pub const FIG6_PAIRS: [(&str, &str); 4] = [
    ("AT&T", "BBB"),
    ("3G", "ED"),
    ("Verizon", "Sintel"),
    ("T-Mobile", "ToS"),
];

/// Run a configured experiment and return the aggregate (convenience
/// wrapper).
pub fn run(cache: &ContentCache, experiment: ExperimentBuilder) -> Aggregate {
    experiment.build().run(cache)
}

/// A standard §5.2 comparison experiment, ready to `run` (or to tweak
/// further — the return value is the builder; bins that shape their own
/// trace override it with `.trace(..)`).
pub fn sys_config(video: &str, system: &str, buffer: usize, trace: &str) -> ExperimentBuilder {
    or_exit(cell(video, system, buffer, trace))
        .experiment(TRACE_SEED)
        .expect("cell() validated the system")
        .trials(trial_count())
}

/// Print a figure header.
pub fn header(fig: &str, caption: &str) {
    println!("# {fig} — {caption}");
    println!("# trials per config: {}", trial_count());
}

/// Format a CDF as fixed-grid rows for terminal output.
pub fn print_cdf(label: &str, samples: &[f64], probes: &[f64]) {
    let rows = voxel_sim::stats::ecdf_at(samples, probes);
    let cells: Vec<String> = rows.iter().map(|(x, f)| format!("{x:.3}:{f:.2}")).collect();
    println!("{label:24} {}", cells.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_core::TransportMode;

    #[test]
    fn cells_resolve_legends_and_tokens_to_the_same_trace() {
        for family in TraceFamily::named() {
            let by_legend = cell("BBB", "BOLA", 3, &family.legend()).expect("legend");
            let by_token = cell("BBB", "BOLA", 3, &family.token()).expect("token");
            assert_eq!(by_legend, by_token);
            assert_eq!(by_legend.trace, family);
            let t = by_legend.build_trace(TRACE_SEED);
            assert_eq!(
                (t.duration_s(), t.name),
                (TRACE_DURATION_S, family.legend())
            );
        }
        assert_eq!(
            cell("P10", "VOXEL", 1, "const10.5").expect("parses").video,
            VideoId::YouTube(10)
        );
    }

    /// Unknown names fail with the valid set, generated from the one
    /// table of each noun — so a usage string cannot drift from it.
    #[test]
    fn unknown_names_print_the_valid_set_from_the_one_table() {
        for bad in ["P11", "P0", "Px", "XYZ"] {
            let e = cell(bad, "VOXEL", 3, "FCC").expect_err(bad);
            let names: Vec<String> = VideoId::all().iter().map(|v| v.short_name()).collect();
            assert_eq!((e.token.as_str(), e.pos), (bad, 0));
            assert!(e.expected.contains(&names.join("|")), "{e}");
        }
        let e = cell("BBB", "XYZ", 3, "FCC").expect_err("system");
        let systems = voxel_fleet::systems().map(|(name, ..)| name).join("|");
        assert!(e.pos == 1 && e.expected.contains(&systems), "{e}");
        let e = cell("BBB", "VOXEL", 3, "LTE").expect_err("trace");
        assert!(
            e.pos == 2 && e.expected.contains(&TraceFamily::menu()),
            "{e}"
        );
        for family in TraceFamily::named() {
            assert!(TraceFamily::menu().contains(&family.token()));
        }
    }

    #[test]
    fn sys_configs_have_expected_transports() {
        let transport = |sys: &str| {
            sys_config("BBB", sys, 3, "const10")
                .build()
                .config()
                .transport
        };
        assert_eq!(transport("BOLA"), TransportMode::Reliable);
        assert_eq!(transport("VOXEL"), TransportMode::Split);
        assert_eq!(transport("VOXEL-rel"), TransportMode::Reliable);
    }

    #[test]
    fn tuned_voxel_runs_on_tmobile_only() {
        assert_eq!(voxel_for("T-Mobile"), "VOXEL-tuned");
        assert_eq!(voxel_for("tmobile"), "VOXEL-tuned");
        for trace in ["Verizon", "AT&T", "3G", "FCC", "in-the-wild"] {
            assert_eq!(voxel_for(trace), "VOXEL");
        }
    }
}
