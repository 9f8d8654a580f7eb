#![warn(missing_docs)]
#![allow(
    clippy::expect_used,
    reason = "the exhibit harness aborts on a failed run"
)]
//! # voxel-bench
//!
//! The experiment harness: [`EXHIBITS`] states every table and figure of
//! the paper's evaluation once — id, paper exhibits, what it shows, what
//! the paper expects, modules, and the function that prints its
//! rows/series — and one binary runs them
//! (`cargo run --release -p voxel-bench --bin fig -- fig6`, `… all`,
//! `… list`). DESIGN.md §5 is `fig list`; `results/<id>.txt` is
//! `fig <id>`. Performance is measured by the standalone `benchmark/`
//! package, not here.
//!
//! ## Protocol fidelity vs wall-clock
//!
//! The paper repeats every experiment 30 times with the trace shifted by
//! d/30 per trial. A full 30-trial sweep of every figure takes hours even
//! in release mode, so the harness defaults to **8 trials** and honours
//! `VOXEL_TRIALS` (set `VOXEL_TRIALS=30` for the paper's exact protocol).
//! All reported statistics (90th percentile + standard error) are computed
//! the same way regardless of the trial count, and an exhibit's stdout is a
//! pure function of it. Every `results/` file's header records the count
//! that produced it.

mod exhibits;

use std::process::ExitCode;
use voxel_core::experiment::{ContentCache, ExperimentBuilder};
use voxel_core::metrics::Aggregate;
use voxel_media::content::VideoId;
use voxel_netem::{BandwidthTrace, TraceFamily};
use voxel_testkit::{Scenario, SpecError};

/// One row of the experiment index: a paper exhibit (or the group of
/// exhibits the paper prints together) and the function regenerating it.
pub struct Exhibit {
    /// What `fig <id>` takes; `results/<id>.txt` holds its committed output.
    pub id: &'static str,
    /// The paper exhibits covered.
    pub paper: &'static str,
    /// What the harness prints.
    pub caption: &'static str,
    /// What the paper reports for it.
    pub expectation: &'static str,
    /// The modules doing the work.
    pub modules: &'static str,
    /// Whether it plays streaming sessions (minutes at the default trial
    /// count) or only analyses the content model (about a second).
    pub simulates: bool,
    /// Print the exhibit to stdout. The cache is shared across the exhibits
    /// of one `fig` invocation, so content is prepared once.
    pub run: fn(&ContentCache),
}

/// Every exhibit of the paper's evaluation, in paper order.
pub static EXHIBITS: [Exhibit; 22] = [
    Exhibit {
        id: "tables",
        paper: "Tab 1–3",
        caption: "video characterizations (genre, Q12 bitrate std, segment range) and the 13-level ladder, measured on the generated videos next to the paper's numbers",
        expectation: "Table 1 stds 3.77 / 5.6 / 7.5 / 3.52 Mbps; 13 levels, 0.16→10 Mbps, 5.8→357 MB; YouTube stds 1.6–4.35 Mbps",
        modules: "media::content, media::ladder, media::video",
        simulates: false,
        run: exhibits::tables,
    },
    Exhibit {
        id: "fig1",
        paper: "Fig 1a–d",
        caption: "CDFs of tolerable frame-drop % at (Q12, 0.99), (Q9, 0.99), (Q9, 0.95) for BBB, ED, Sintel, ToS, P2, P4; CDF of pristine SSIM at Q6 / Q9 (ToS, BBB)",
        expectation: "at least half of the segments tolerate 10–20 % drops at Q12 / SSIM 0.99; tolerance collapses at Q9 / 0.99 and recovers at Q9 / 0.95; 85 % of BBB and 96 % of ToS segments at Q9 sit below SSIM 0.99",
        modules: "media::qoe, media::video",
        simulates: false,
        run: exhibits::fig1,
    },
    Exhibit {
        id: "fig2",
        paper: "Fig 2a–d",
        caption: "droppable-frame fraction by frame position (BBB, ToS at Q12); tolerable-drop CDF under the rank ordering vs tail-only drops; segment-bitrate CDFs of the virtual levels Q12/0.99 and Q12/0.95 against Q10–Q12",
        expectation: "droppable frames sit throughout the segment, never at position 0; rank ordering ≫ tail-only ≫ original; the virtual level Q12/0.99 sits between Q11 and Q12",
        modules: "prep::analysis, prep::ordering",
        simulates: false,
        run: exhibits::fig2,
    },
    Exhibit {
        id: "fig3",
        paper: "Fig 3, Fig 4",
        caption: "p90 bufRatio (+ stderr) and average bitrate of unmodified MPC and BOLA over QUIC (Q) vs QUIC* (Q*), buffers of 5–7 segments, T-Mobile and Verizon",
        expectation: "Q* lowers bufRatio for both ABRs; the gain trades bitrate, MPC −24.7 %, BOLA −4.1 %",
        modules: "core::experiment, abr, quic",
        simulates: true,
        run: exhibits::fig3,
    },
    Exhibit {
        id: "fig5",
        paper: "Fig 5",
        caption: "the Fig 3 comparison on a 20 Mbps link shared with Harpoon-style cross-traffic (20 Mbps offered load; 15 and 10 Mbps too at VOXEL_TRIALS ≥ 30)",
        expectation: "Q* cuts bufRatio substantially (MPC ~82 %, BOLA ~64 %) at a slight bitrate cost",
        modules: "netem::crosstraffic, core::experiment",
        simulates: true,
        run: exhibits::fig5,
    },
    Exhibit {
        id: "fig6",
        paper: "Fig 6, §5.1 text",
        caption: "the headline: p90 bufRatio (+ stderr) of BOLA vs BETA vs VOXEL, buffers 1, 2, 3, 7, over AT&T, 3G, Verizon and T-Mobile (tuned VOXEL); restarts and kept partials per trial",
        expectation: "VOXEL suffers 25–97 % less p90 rebuffering than BOLA, virtually zero in most settings, BETA in between; BOLA re-downloads near-entire segments for > 25 % of segments at small buffers",
        modules: "core, abr",
        simulates: true,
        run: exhibits::fig6,
    },
    Exhibit {
        id: "fig7",
        paper: "Fig 7a–d",
        caption: "p90 bufRatio of VOXEL optimizing SSIM / VMAF / PSNR vs BOLA; SSIM and VMAF CDFs of streamed segments (BBB, Verizon); % of segment data VOXEL skips vs buffer size",
        expectation: "the bufRatio win is independent of the utility metric; quality distributions ≈ BOLA's; skipped data shrinks with buffer size (~14 % → 2 %)",
        modules: "media::qoe, core::metrics",
        simulates: true,
        run: exhibits::fig7,
    },
    Exhibit {
        id: "fig8",
        paper: "Fig 8",
        caption: "average delivered bitrate, BOLA vs VOXEL, T-Mobile and Verizon, buffers 1, 2, 3, 7",
        expectation: "VOXEL bitrates at least on par with BOLA, mostly higher",
        modules: "core::metrics",
        simulates: true,
        run: exhibits::fig8,
    },
    Exhibit {
        id: "fig9",
        paper: "Fig 9a–d",
        caption: "SSIM CDFs of BOLA vs BETA vs VOXEL: ToS/AT&T (2-segment buffer), Sintel/3G, ED/Verizon, BBB/T-Mobile (tuned VOXEL), 3-segment buffers",
        expectation: "VOXEL's SSIM distribution at or above BETA's everywhere; it trades a little SSIM against BOLA only where it wins bufRatio big",
        modules: "core::metrics, abr",
        simulates: true,
        run: exhibits::fig9,
    },
    Exhibit {
        id: "fig10",
        paper: "Fig 10",
        caption: "the §4.3 ablation, BOLA vs BOLA-SSIM vs VOXEL over the raw 3G commute traces (24 of them; all 86 at VOXEL_TRIALS ≥ 30), 1- and 7-segment buffers: bufRatio mean / p90 / p95 / CDF and mean SSIM",
        expectation: "1-segment: mean bufRatio 7.9 % / 8.2 % / 5.1 %, BOLA-SSIM and VOXEL +0.02 SSIM; 7-segment: 7.1 % / 7.1 % / 2.8 %",
        modules: "abr::bola_ssim, abr::abr_star, netem::trace",
        simulates: true,
        run: exhibits::fig10,
    },
    Exhibit {
        id: "fig11",
        paper: "Fig 11a–d, Fig 13",
        caption: "accumulated-average SSIM and SSIM CDFs of BOLA vs VOXEL on a constant 10.5 Mbps and a 10.75→10.5 Mbps step trace (28 s buffer); in-the-wild (WiFi-like) p90 bufRatio and mean SSIM at 1- and 7-segment buffers",
        expectation: "VOXEL's accumulated SSIM always above BOLA's, perfect scores for 65–80 % of its segments vs 0–3 %; in the wild comparable SSIM and far lower bufRatio at the 1-segment buffer",
        modules: "netem::trace, core::metrics",
        simulates: true,
        run: exhibits::fig11,
    },
    Exhibit {
        id: "fig12",
        paper: "Fig 12",
        caption: "p90 bufRatio and bitrate of BOLA vs VOXEL under 20 Mbps cross-traffic on a 20 Mbps link",
        expectation: "VOXEL near-zero bufRatio even at the 1-segment buffer, without sacrificing bitrate",
        modules: "netem::crosstraffic, core",
        simulates: true,
        run: exhibits::fig12,
    },
    Exhibit {
        id: "fig14",
        paper: "Fig 14",
        caption: "the user study on the synthetic 54-user panel: MOS along clarity / glitches / fluidity / experience and preference shares, BOLA vs VOXEL on the six lowest-throughput raw 3G traces, 1-segment buffer",
        expectation: "84 % prefer VOXEL; fluidity +1.7, experience +0.77, clarity −0.49, glitches −0.19; would stop watching 31 % vs 10 %",
        modules: "core::survey",
        simulates: true,
        run: exhibits::fig14,
    },
    Exhibit {
        id: "fig15",
        paper: "Fig 15",
        caption: "per-segment bitrate of the capped-VBR encodes across quality levels (ED, Sintel)",
        expectation: "vastly different per-segment bitrates, peaks at most 2× the average",
        modules: "media::video",
        simulates: false,
        run: exhibits::fig15,
    },
    Exhibit {
        id: "fig16",
        paper: "Fig 16 (App. B)",
        caption: "p90 bufRatio with a 750-packet router queue (T-Mobile, Verizon): BOLA vs VOXEL vs VOXEL over the delay-based controller",
        expectation: "VOXEL's edge narrows, occasionally worse on Verizon at larger buffers (loss-based CC vs bufferbloat); a delay-based CC is suggested as future work",
        modules: "netem::shared, quic::delay_cc",
        simulates: true,
        run: exhibits::fig16,
    },
    Exhibit {
        id: "fig17",
        paper: "Fig 17a–d (App. D)",
        caption: "average bitrates over 3G and AT&T; the bandwidth-safety ablation — BETA vs aggressive vs tuned VOXEL on T-Mobile (BBB): p90 bufRatio, mean SSIM, SSIM CDF",
        expectation: "aggressive VOXEL beats BETA in SSIM but can lose in bufRatio on T-Mobile; the single safety-factor tuning wins both",
        modules: "abr::abr_star",
        simulates: true,
        run: exhibits::fig17,
    },
    Exhibit {
        id: "fig18",
        paper: "Fig 18a–d (App. D)",
        caption: "FCC trace p90 bufRatio and bitrate, BOLA vs VOXEL; the partial-reliability ablation — VOXEL-rel (unreliable streams disabled) vs VOXEL on T-Mobile and Verizon",
        expectation: "partial reliability roughly halves bufRatio on Verizon and wins all but one T-Mobile case",
        modules: "core::client, quic",
        simulates: true,
        run: exhibits::fig18,
    },
    Exhibit {
        id: "fig19",
        paper: "Fig 19a–c (App. C)",
        caption: "the Fig 1a–c drop-tolerance CDFs over the public YouTube set (P1, P5, P6, P7, P9, P10)",
        expectation: "P9 (static unboxing) tolerates ~80 % drops, P10 (street dance, no cuts) almost none, the rest behave like the Table 1 videos",
        modules: "media::qoe",
        simulates: false,
        run: exhibits::fig19,
    },
    Exhibit {
        id: "fig_retx",
        paper: "§4.2 text, §5.2 text",
        caption: "selective retransmission (bytes lost, recovered, residual loss) and frame-drop composition (segments with drops, referenced share of dropped frames) of VOXEL on Verizon (BBB), buffers 1, 2, 3, 7",
        expectation: "all losses recovered at small buffers, residual loss 0.9 / 1.5 / 1.8 % at 2 / 3 / 7 segments; frames dropped in ~9 % of segments, 46 % of dropped frames referenced",
        modules: "core::client, core::metrics",
        simulates: true,
        run: exhibits::fig_retx,
    },
    Exhibit {
        id: "ablate_ordering",
        paper: "§4.1 (ablation, not in the paper)",
        caption: "VOXEL end-to-end with the §4.1 ordering selection forced to each candidate (BBB, Verizon, 2-segment buffer): p90 bufRatio, SSIM, skipped data, drops per segment",
        expectation: "none in the paper; expected here: identical bufRatio, SSIM ordered rank ≈ §4.1 selection > unreferenced-tail > original",
        modules: "prep::manifest, prep::ordering, core::session",
        simulates: true,
        run: exhibits::ablate_ordering,
    },
    Exhibit {
        id: "cc_shootout",
        paper: "App. B future work (extension)",
        caption: "8 VOXEL sessions on one 12 Mbit/s FIFO droptail bottleneck for 120 s, only the congestion-control mix varying (all-cubic, all-delay, all-bbr, cubic+bbr, cubic+delay+bbr): Jain index, utilization, mean SSIM, total stall, mean link share per cc group, and the fleet oracles' findings",
        expectation: "none in the paper, whose Appendix B suggests a delay-based CC as future work; expected here: all-cubic and all-bbr near-fair, BBR taking more than its share from CUBIC, delay-based flows unfair among themselves (the late-comer effect)",
        modules: "fleet, quic::bbr, quic::delay_cc, testkit::fleet",
        simulates: true,
        run: exhibits::cc_shootout,
    },
    Exhibit {
        id: "edge_sweep",
        paper: "extension, not in the paper",
        caption: "16-session flash crowd behind 4 edges and a shared origin backhaul: the hot and cold golden tiers, a zipf/Poisson workload, routing × eviction on a 16 MB budget, and reliable-prefix admission: hit ratio, evictions, origin MB and load, mean SSIM, total stall, the origin shield, and the fleet oracles' findings",
        expectation: "none in the paper; expected here: the hot tier serves ≥ 90 % of lookups and pulls ≤ 10 % of the cold tier's origin bytes; a bounded cache and reliable-prefix admission fall in between",
        modules: "fleet::edge, netem::origin, core::content, testkit::fleet",
        simulates: true,
        run: exhibits::edge_sweep,
    },
];

/// The experiment index as a markdown table — what `fig list` prints and
/// what DESIGN.md §5 embeds.
pub fn list() -> String {
    let mut out = String::from(
        "| `fig <id>` | Paper exhibit | What it prints | Paper expectation | Modules | Plays sessions |\n|---|---|---|---|---|---|\n",
    );
    for e in &EXHIBITS {
        let sessions = if e.simulates { "yes" } else { "no" };
        out += &format!(
            "| `{}` | {} | {} | {} | {} | {sessions} |\n",
            e.id, e.paper, e.caption, e.expectation, e.modules
        );
    }
    out
}

/// The `fig` binary: `fig <id>… | all | list`. An unknown id (or none)
/// prints the valid set and exits 2.
pub fn fig(args: &[String]) -> ExitCode {
    let picked: Result<Vec<&Exhibit>, String> = match args {
        [only] if only == "list" => {
            print!("{}", list());
            return ExitCode::SUCCESS;
        }
        [only] if only == "all" => Ok(EXHIBITS.iter().collect()),
        [] => Err("no exhibit named".to_string()),
        ids => ids
            .iter()
            .map(|id| {
                let known = EXHIBITS.iter().find(|e| e.id == id);
                known.ok_or_else(|| format!("unknown exhibit `{id}`"))
            })
            .collect(),
    };
    match picked {
        Ok(picked) => {
            let cache = ContentCache::new();
            for e in picked {
                (e.run)(&cache);
            }
            ExitCode::SUCCESS
        }
        Err(why) => {
            let ids: Vec<&str> = EXHIBITS.iter().map(|e| e.id).collect();
            eprintln!(
                "{why}; usage: fig <id>… | all | list, <id> one of {}",
                ids.join("|")
            );
            ExitCode::from(2)
        }
    }
}

/// Trace duration used by all experiments (one 5-minute clip).
const TRACE_DURATION_S: usize = 300;

/// Root seed for all synthetic traces (fixed for reproducibility).
const TRACE_SEED: u64 = 2021;

/// Number of trials per configuration (`VOXEL_TRIALS`, default 8).
fn trial_count() -> usize {
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

/// What an exhibit does with an unknown name in one of its cells: print
/// the error (it carries the valid set) and exit 2.
fn or_exit<T>(r: Result<T, SpecError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// A video by legend name (BBB/ED/Sintel/ToS/P1..P10).
fn video(name: &str) -> VideoId {
    or_exit(cell(name, "VOXEL", 3, "const8")).video
}

/// A §5 trace by figure-legend name or spec token, as the figures run it
/// ([`TRACE_SEED`], [`TRACE_DURATION_S`]).
fn figure_trace(name: &str) -> BandwidthTrace {
    or_exit(cell("BBB", "VOXEL", 3, name)).build_trace(TRACE_SEED)
}

/// The VOXEL variant the paper evaluates on `trace`: the Fig 6d
/// bandwidth-safety tuning on T-Mobile, the aggressive default elsewhere.
fn voxel_for(trace: &str) -> &'static str {
    match or_exit(cell("BBB", "VOXEL", 3, trace)).trace {
        TraceFamily::TMobile => "VOXEL-tuned",
        _ => "VOXEL",
    }
}

/// Run a configured experiment and return the aggregate (convenience
/// wrapper).
fn run(cache: &ContentCache, experiment: ExperimentBuilder) -> Aggregate {
    experiment.build().run(cache)
}

/// A standard §5.2 comparison experiment, ready to `run` (or to tweak
/// further — the return value is the builder; exhibits that shape their
/// own trace override it with `.trace(..)`).
fn sys_config(video: &str, system: &str, buffer: usize, trace: &str) -> ExperimentBuilder {
    or_exit(cell(video, system, buffer, trace))
        .experiment(TRACE_SEED)
        .expect("cell() validated the system")
        .trials(trial_count())
}

/// Print a figure header.
fn header(fig: &str, caption: &str) {
    println!("# {fig} — {caption}");
    println!("# trials per config: {}", trial_count());
}

/// `n + 1` evenly spaced CDF probes from `start`.
fn grid(n: usize, start: f64, step: f64) -> Vec<f64> {
    (0..=n).map(|i| start + i as f64 * step).collect()
}

/// Format a CDF as fixed-grid rows for terminal output.
fn print_cdf(label: &str, samples: &[f64], probes: &[f64]) {
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
