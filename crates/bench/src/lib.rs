#![warn(missing_docs)]
#![allow(
    clippy::expect_used,
    reason = "the exhibit harness aborts on a failed run"
)]
//! # voxel-bench
//!
//! The experiment harness: [`EXHIBITS`] states every table and figure of
//! the paper's evaluation once — id, paper exhibits, what it shows, what
//! the paper expects, modules, its cells and its printer — and one binary
//! runs them (`cargo run --release -p voxel-bench --bin fig --
//! fig6`, `… all`, `… list`, `… check`). DESIGN.md §5 is `fig list`;
//! `results/<id>.txt` is `fig <id>`, and `fig check` proves it.
//! Performance is measured by the standalone `benchmark/` package, not
//! here.
//!
//! An exhibit is its cells and a printer. The cells are the §5 session
//! configurations it needs, as plain data; `fig` collects the cells of
//! every exhibit it is asked for, runs each distinct cell's trials once on
//! one pool, and then hands each printer the aggregates of its cells in
//! the order it declared them. Work that is not a §5 cell (content
//! analysis, fleets, forced-ordering sessions) stays in the printer.
//!
//! ## Protocol fidelity vs wall-clock
//!
//! The paper repeats every experiment 30 times with the trace shifted by
//! d/30 per trial. A full 30-trial sweep of every figure takes hours even
//! in release mode, so the harness defaults to **6 trials**, the count of
//! every committed result, and honours `VOXEL_TRIALS` (set
//! `VOXEL_TRIALS=30` for the paper's exact protocol). All reported
//! statistics (90th percentile + standard error) are computed the same way
//! regardless of the trial count, and an exhibit's stdout is a pure
//! function of it. Every `results/` file's header records the count that
//! produced it.

mod env;
mod exhibits;

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;
use voxel_core::experiment::{AbrKind, ContentCache, Experiment, ExperimentBuilder};
use voxel_core::metrics::Aggregate;
use voxel_core::TransportMode;
use voxel_media::content::VideoId;
use voxel_media::qoe::QoeMetric;
use voxel_netem::crosstraffic::{available_bandwidth, CrossTrafficConfig};
use voxel_netem::trace::generators;
use voxel_netem::{BandwidthTrace, TraceFamily};
use voxel_quic::CcKind;
use voxel_sim::pool::{default_workers, run_indexed};
use voxel_testkit::{system_by_name, Scenario, SpecError};

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
    /// The §5 cells it needs at a trial count, as plain data.
    pub(crate) cells: fn(usize) -> Vec<Cell>,
    /// Print it from its cells' aggregates, in the order declared.
    pub(crate) print: fn(&mut Out, &[Run]),
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
        cells: no_cells,
        print: exhibits::tables,
    },
    Exhibit {
        id: "fig1",
        paper: "Fig 1a–d",
        caption: "CDFs of tolerable frame-drop % at (Q12, 0.99), (Q9, 0.99), (Q9, 0.95) for BBB, ED, Sintel, ToS, P2, P4; CDF of pristine SSIM at Q6 / Q9 (ToS, BBB)",
        expectation: "at least half of the segments tolerate 10–20 % drops at Q12 / SSIM 0.99; tolerance collapses at Q9 / 0.99 and recovers at Q9 / 0.95; 85 % of BBB and 96 % of ToS segments at Q9 sit below SSIM 0.99",
        modules: "media::qoe, media::video",
        simulates: false,
        cells: no_cells,
        print: exhibits::fig1,
    },
    Exhibit {
        id: "fig2",
        paper: "Fig 2a–d",
        caption: "droppable-frame fraction by frame position (BBB, ToS at Q12); tolerable-drop CDF under the rank ordering vs tail-only drops; segment-bitrate CDFs of the virtual levels Q12/0.99 and Q12/0.95 against Q10–Q12",
        expectation: "droppable frames sit throughout the segment, never at position 0; rank ordering ≫ tail-only ≫ original; the virtual level Q12/0.99 sits between Q11 and Q12",
        modules: "prep::analysis, prep::ordering",
        simulates: false,
        cells: no_cells,
        print: exhibits::fig2,
    },
    Exhibit {
        id: "fig3",
        paper: "Fig 3, Fig 4",
        caption: "p90 bufRatio (+ stderr) and average bitrate of unmodified MPC and BOLA over QUIC (Q) vs QUIC* (Q*), buffers of 5–7 segments, T-Mobile and Verizon",
        expectation: "Q* lowers bufRatio for both ABRs; the gain trades bitrate, MPC −24.7 %, BOLA −4.1 %",
        modules: "core::experiment, abr, quic",
        simulates: true,
        cells: exhibits::fig3_cells,
        print: exhibits::fig3,
    },
    Exhibit {
        id: "fig5",
        paper: "Fig 5",
        caption: "the Fig 3 comparison on a 20 Mbps link shared with Harpoon-style cross-traffic (20 Mbps offered load; 15 and 10 Mbps too at VOXEL_TRIALS ≥ 30)",
        expectation: "Q* cuts bufRatio substantially (MPC ~82 %, BOLA ~64 %) at a slight bitrate cost",
        modules: "netem::crosstraffic, core::experiment",
        simulates: true,
        cells: exhibits::fig5_cells,
        print: exhibits::fig5,
    },
    Exhibit {
        id: "fig6",
        paper: "Fig 6, §5.1 text",
        caption: "the headline: p90 bufRatio (+ stderr) of BOLA vs BETA vs VOXEL, buffers 1, 2, 3, 7, over AT&T, 3G, Verizon and T-Mobile (tuned VOXEL); restarts and kept partials per trial",
        expectation: "VOXEL suffers 25–97 % less p90 rebuffering than BOLA, virtually zero in most settings, BETA in between; BOLA re-downloads near-entire segments for > 25 % of segments at small buffers",
        modules: "core, abr",
        simulates: true,
        cells: exhibits::fig6_cells,
        print: exhibits::fig6,
    },
    Exhibit {
        id: "fig7",
        paper: "Fig 7a–d",
        caption: "p90 bufRatio of VOXEL optimizing SSIM / VMAF / PSNR vs BOLA; SSIM and VMAF CDFs of streamed segments (BBB, Verizon); % of segment data VOXEL skips vs buffer size",
        expectation: "the bufRatio win is independent of the utility metric; quality distributions ≈ BOLA's; skipped data shrinks with buffer size (~14 % → 2 %)",
        modules: "media::qoe, core::metrics",
        simulates: true,
        cells: exhibits::fig7_cells,
        print: exhibits::fig7,
    },
    Exhibit {
        id: "fig8",
        paper: "Fig 8",
        caption: "average delivered bitrate, BOLA vs VOXEL, T-Mobile and Verizon, buffers 1, 2, 3, 7",
        expectation: "VOXEL bitrates at least on par with BOLA, mostly higher",
        modules: "core::metrics",
        simulates: true,
        cells: exhibits::fig8_cells,
        print: exhibits::fig8,
    },
    Exhibit {
        id: "fig9",
        paper: "Fig 9a–d",
        caption: "SSIM CDFs of BOLA vs BETA vs VOXEL: ToS/AT&T (2-segment buffer), Sintel/3G, ED/Verizon, BBB/T-Mobile (tuned VOXEL), 3-segment buffers",
        expectation: "VOXEL's SSIM distribution at or above BETA's everywhere; it trades a little SSIM against BOLA only where it wins bufRatio big",
        modules: "core::metrics, abr",
        simulates: true,
        cells: exhibits::fig9_cells,
        print: exhibits::fig9,
    },
    Exhibit {
        id: "fig10",
        paper: "Fig 10",
        caption: "the §4.3 ablation, BOLA vs BOLA-SSIM vs VOXEL over the raw 3G commute traces (24 of them; all 86 at VOXEL_TRIALS ≥ 30), 1- and 7-segment buffers: bufRatio mean / p90 / p95 / CDF and mean SSIM",
        expectation: "1-segment: mean bufRatio 7.9 % / 8.2 % / 5.1 %, BOLA-SSIM and VOXEL +0.02 SSIM; 7-segment: 7.1 % / 7.1 % / 2.8 %",
        modules: "abr::bola_ssim, abr::abr_star, netem::trace",
        simulates: true,
        cells: exhibits::fig10_cells,
        print: exhibits::fig10,
    },
    Exhibit {
        id: "fig11",
        paper: "Fig 11a–d, Fig 13",
        caption: "accumulated-average SSIM and SSIM CDFs of BOLA vs VOXEL on a constant 10.5 Mbps and a 10.75→10.5 Mbps step trace (28 s buffer); in-the-wild (WiFi-like) p90 bufRatio and mean SSIM at 1- and 7-segment buffers",
        expectation: "VOXEL's accumulated SSIM always above BOLA's, perfect scores for 65–80 % of its segments vs 0–3 %; in the wild comparable SSIM and far lower bufRatio at the 1-segment buffer",
        modules: "netem::trace, core::metrics",
        simulates: true,
        cells: exhibits::fig11_cells,
        print: exhibits::fig11,
    },
    Exhibit {
        id: "fig12",
        paper: "Fig 12",
        caption: "p90 bufRatio and bitrate of BOLA vs VOXEL under 20 Mbps cross-traffic on a 20 Mbps link",
        expectation: "VOXEL near-zero bufRatio even at the 1-segment buffer, without sacrificing bitrate",
        modules: "netem::crosstraffic, core",
        simulates: true,
        cells: exhibits::fig12_cells,
        print: exhibits::fig12,
    },
    Exhibit {
        id: "fig14",
        paper: "Fig 14",
        caption: "the user study on the synthetic 54-user panel: MOS along clarity / glitches / fluidity / experience and preference shares, BOLA vs VOXEL on the six lowest-throughput raw 3G traces, 1-segment buffer",
        expectation: "84 % prefer VOXEL; fluidity +1.7, experience +0.77, clarity −0.49, glitches −0.19; would stop watching 31 % vs 10 %",
        modules: "core::survey",
        simulates: true,
        cells: exhibits::fig14_cells,
        print: exhibits::fig14,
    },
    Exhibit {
        id: "fig15",
        paper: "Fig 15",
        caption: "per-segment bitrate of the capped-VBR encodes across quality levels (ED, Sintel)",
        expectation: "vastly different per-segment bitrates, peaks at most 2× the average",
        modules: "media::video",
        simulates: false,
        cells: no_cells,
        print: exhibits::fig15,
    },
    Exhibit {
        id: "fig16",
        paper: "Fig 16 (App. B)",
        caption: "p90 bufRatio with a 750-packet router queue (T-Mobile, Verizon): BOLA vs VOXEL vs VOXEL over the delay-based controller",
        expectation: "VOXEL's edge narrows, occasionally worse on Verizon at larger buffers (loss-based CC vs bufferbloat); a delay-based CC is suggested as future work",
        modules: "netem::shared, quic::delay_cc",
        simulates: true,
        cells: exhibits::fig16_cells,
        print: exhibits::fig16,
    },
    Exhibit {
        id: "fig17",
        paper: "Fig 17a–d (App. D)",
        caption: "average bitrates over 3G and AT&T; the bandwidth-safety ablation — BETA vs aggressive vs tuned VOXEL on T-Mobile (BBB): p90 bufRatio, mean SSIM, SSIM CDF",
        expectation: "aggressive VOXEL beats BETA in SSIM but can lose in bufRatio on T-Mobile; the single safety-factor tuning wins both",
        modules: "abr::abr_star",
        simulates: true,
        cells: exhibits::fig17_cells,
        print: exhibits::fig17,
    },
    Exhibit {
        id: "fig18",
        paper: "Fig 18a–d (App. D)",
        caption: "FCC trace p90 bufRatio and bitrate, BOLA vs VOXEL; the partial-reliability ablation — VOXEL-rel (unreliable streams disabled) vs VOXEL on T-Mobile and Verizon",
        expectation: "partial reliability roughly halves bufRatio on Verizon and wins all but one T-Mobile case",
        modules: "core::client, quic",
        simulates: true,
        cells: exhibits::fig18_cells,
        print: exhibits::fig18,
    },
    Exhibit {
        id: "fig19",
        paper: "Fig 19a–c (App. C)",
        caption: "the Fig 1a–c drop-tolerance CDFs over the public YouTube set (P1, P5, P6, P7, P9, P10)",
        expectation: "P9 (static unboxing) tolerates ~80 % drops, P10 (street dance, no cuts) almost none, the rest behave like the Table 1 videos",
        modules: "media::qoe",
        simulates: false,
        cells: no_cells,
        print: exhibits::fig19,
    },
    Exhibit {
        id: "fig_retx",
        paper: "§4.2 text, §5.2 text",
        caption: "selective retransmission (bytes lost, recovered, residual loss) and frame-drop composition (segments with drops, referenced share of dropped frames) of VOXEL on Verizon (BBB), buffers 1, 2, 3, 7",
        expectation: "all losses recovered at small buffers, residual loss 0.9 / 1.5 / 1.8 % at 2 / 3 / 7 segments; frames dropped in ~9 % of segments, 46 % of dropped frames referenced",
        modules: "core::client, core::metrics",
        simulates: true,
        cells: exhibits::fig_retx_cells,
        print: exhibits::fig_retx,
    },
    Exhibit {
        id: "ablate_ordering",
        paper: "§4.1 (ablation, not in the paper)",
        caption: "VOXEL end-to-end with the §4.1 ordering selection forced to each candidate (BBB, Verizon, 2-segment buffer): p90 bufRatio, SSIM, skipped data, drops per segment",
        expectation: "none in the paper; expected here: identical bufRatio, SSIM ordered rank ≈ §4.1 selection > unreferenced-tail > original",
        modules: "prep::manifest, prep::ordering, core::session",
        simulates: true,
        cells: no_cells,
        print: exhibits::ablate_ordering,
    },
    Exhibit {
        id: "cc_shootout",
        paper: "App. B future work (extension)",
        caption: "8 VOXEL sessions on one 12 Mbit/s FIFO droptail bottleneck for 120 s, only the congestion-control mix varying (all-cubic, all-delay, all-bbr, cubic+bbr, cubic+delay+bbr): Jain index, utilization, mean SSIM, total stall, mean link share per cc group, and the fleet oracles' findings",
        expectation: "none in the paper, whose Appendix B suggests a delay-based CC as future work; expected here: all-cubic and all-bbr near-fair, BBR taking more than its share from CUBIC, delay-based flows unfair among themselves (the late-comer effect)",
        modules: "fleet, quic::bbr, quic::delay_cc, testkit::fleet",
        simulates: true,
        cells: no_cells,
        print: exhibits::cc_shootout,
    },
    Exhibit {
        id: "edge_sweep",
        paper: "extension, not in the paper",
        caption: "16-session flash crowd behind 4 edges and a shared origin backhaul: the hot and cold golden tiers, a zipf/Poisson workload, routing × eviction on a 16 MB budget, and reliable-prefix admission: hit ratio, evictions, origin MB and load, mean SSIM, total stall, the origin shield, and the fleet oracles' findings",
        expectation: "none in the paper; expected here: the hot tier serves ≥ 90 % of lookups and pulls ≤ 10 % of the cold tier's origin bytes; a bounded cache and reliable-prefix admission fall in between",
        modules: "fleet::edge, netem::origin, core::content, testkit::fleet",
        simulates: true,
        cells: no_cells,
        print: exhibits::edge_sweep,
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

/// The `fig` binary: `fig <id>… | all | list | check [<id>…]`. An
/// unknown id (or none), or a `VOXEL_TRIALS` that is not a positive
/// integer, exits 2 before anything runs.
pub fn fig(args: &[String]) -> ExitCode {
    let trials = trial_count();
    let (check, ids) = match args {
        [only] if only == "list" => {
            print!("{}", list());
            return ExitCode::SUCCESS;
        }
        [first, ids @ ..] if first == "check" => (true, ids),
        ids => (false, ids),
    };
    let picked: Result<Vec<&Exhibit>, String> = match ids {
        [only] if only == "all" => Ok(EXHIBITS.iter().collect()),
        [] if check => Ok(EXHIBITS.iter().collect()),
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
        Ok(picked) if check => check_results(&picked),
        Ok(picked) => {
            for out in render(&picked, trials) {
                print!("{out}");
            }
            ExitCode::SUCCESS
        }
        Err(why) => {
            let ids: Vec<&str> = EXHIBITS.iter().map(|e| e.id).collect();
            eprintln!(
                "{why}; usage: fig <id>… | all | list | check [<id>…], <id> one of {}",
                ids.join("|")
            );
            ExitCode::from(2)
        }
    }
}

/// `fig check`: regenerate each committed `results/<id>.txt` at the trial
/// count its header records (a file with none, a fleet report, at the
/// default) and name the first line that differs. Exhibits at one count
/// share one pool.
fn check_results(picked: &[&Exhibit]) -> ExitCode {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut by_trials: BTreeMap<usize, Vec<(&Exhibit, String)>> = BTreeMap::new();
    for &e in picked {
        let path = results.join(format!("{}.txt", e.id));
        let Ok(committed) = std::fs::read_to_string(&path) else {
            eprintln!("fig check: cannot read {}", path.display());
            return ExitCode::FAILURE;
        };
        let header = committed
            .lines()
            .find_map(|l| l.strip_prefix("# trials per config: "));
        let recorded = header.map_or(Some(DEFAULT_TRIALS), |n| n.parse().ok());
        let Some(trials) = recorded.filter(|&n| n >= 1) else {
            eprintln!("fig check: {} records no valid trial count", path.display());
            return ExitCode::FAILURE;
        };
        by_trials.entry(trials).or_default().push((e, committed));
    }
    let mut stale = 0;
    for (trials, files) in by_trials {
        let exhibits: Vec<&Exhibit> = files.iter().map(|(e, _)| *e).collect();
        for ((e, committed), fresh) in files.iter().zip(render(&exhibits, trials)) {
            if let Some(why) = first_difference(committed, &fresh) {
                stale += 1;
                eprintln!(
                    "fig check: results/{id}.txt is stale at {why}; regenerate it with \
                     `VOXEL_TRIALS={trials} fig {id} > results/{id}.txt` and re-read its \
                     EXPERIMENTS.md row",
                    id = e.id
                );
            }
        }
    }
    if stale > 0 {
        return ExitCode::FAILURE;
    }
    eprintln!("fig check: all {} results reproduce", picked.len());
    ExitCode::SUCCESS
}

/// The first line where `fresh` departs from `committed`, quoting both
/// sides (`end of text` when one is a prefix of the other); `None` when
/// they are equal.
fn first_difference(committed: &str, fresh: &str) -> Option<String> {
    let (mut old, mut new) = (committed.split_inclusive('\n'), fresh.split_inclusive('\n'));
    let show = |l: Option<&str>| l.map_or("end of text".to_string(), |l| format!("{l:?}"));
    (1..).find_map(|line| match (old.next(), new.next()) {
        (None, None) => Some(None),
        (a, b) if a == b => None,
        (a, b) => Some(Some(format!(
            "line {line}: committed {}, regenerated {}",
            show(a),
            show(b)
        ))),
    })?
}

/// Each exhibit's output at `trials` per config. The cells of all of them
/// are collected and deduplicated, each distinct cell runs once, and each
/// printer gets its cells' aggregates in the order it declared them.
fn render(picked: &[&Exhibit], trials: usize) -> Vec<String> {
    let declared: Vec<Vec<Cell>> = picked.iter().map(|e| (e.cells)(trials)).collect();
    let distinct: Vec<&Cell> = BTreeSet::from_iter(declared.iter().flatten())
        .into_iter()
        .collect();
    let total: usize = declared.iter().map(Vec::len).sum();
    if total > 0 {
        eprintln!("fig: {} distinct cells of {total}", distinct.len());
    }
    let results: BTreeMap<&Cell, Aggregate> =
        distinct.iter().copied().zip(simulate(&distinct)).collect();
    let outputs = picked.iter().zip(&declared).map(|(e, cells)| {
        let runs: Vec<Run> = cells
            .iter()
            .map(|c| (c.clone(), results[c].clone()))
            .collect();
        let mut out = Out {
            text: String::new(),
            trials,
        };
        (e.print)(&mut out, &runs);
        out.text
    });
    outputs.collect()
}

/// Each cell's aggregate under the §5 protocol of `Experiment::run` —
/// trial `i` of `n` at trace shift `i·d/n`, results in shift order — with
/// the trials of every cell on one work-stealing pool.
fn simulate(cells: &[&Cell]) -> Vec<Aggregate> {
    let cache = ContentCache::new();
    let experiments: Vec<Experiment> = cells.iter().map(|c| c.experiment().build()).collect();
    let jobs: Vec<(&Experiment, usize)> = experiments
        .iter()
        .flat_map(|e| {
            let (n, d) = (e.config().trials, e.config().trace.duration_s());
            (0..n).map(move |i| (e, i * d / n))
        })
        .collect();
    let trials = run_indexed(jobs.len(), default_workers(jobs.len()), |j| {
        let (experiment, shift_s) = jobs[j];
        experiment.run_trial(&cache, shift_s)
    });
    let mut trials = trials.into_iter();
    experiments
        .iter()
        .map(|e| Aggregate::new(trials.by_ref().take(e.config().trials).collect()))
        .collect()
}

/// A cell and its aggregate, as a printer gets them.
pub(crate) type Run = (Cell, Aggregate);

/// What a printer writes into with `write!`/`writeln!`, and the trial
/// count it prints at.
pub(crate) struct Out {
    text: String,
    trials: usize,
}

impl Out {
    /// What `write!` calls: an append that cannot fail, so a printer has
    /// no `Result` to handle.
    fn write_fmt(&mut self, args: std::fmt::Arguments) {
        self.text.push_str(&args.to_string());
    }
}

/// The cells of an exhibit that plays no §5 session.
fn no_cells(_: usize) -> Vec<Cell> {
    Vec::new()
}

/// One §5 session configuration as plain data. It is `fig`'s dedupe key:
/// two cells are equal exactly when [`Cell::experiment`] builds the same
/// configuration from them.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Cell {
    video: VideoId,
    /// A §5 system legend (`BOLA`, `VOXEL-tuned`, …).
    system: &'static str,
    buffer: usize,
    trace: Trace,
    /// QUIC\* rather than vanilla QUIC: the system's own transport unless
    /// the exhibit overrides it (Fig 3, Fig 5).
    split: bool,
    /// The utility VOXEL maximises, as an index into [`QOE_METRICS`]
    /// (Fig 7a); every other system ignores it.
    metric: usize,
    /// Droptail queue, packets (750 in Appendix B).
    queue: usize,
    /// The delay-based controller instead of CUBIC (Fig 16).
    delay_cc: bool,
    trials: usize,
}

/// The utilities a VOXEL cell can maximise; SSIM, the paper's, is first.
const QOE_METRICS: [QoeMetric; 3] = [QoeMetric::Ssim, QoeMetric::Vmaf, QoeMetric::Psnr];

/// The bandwidth trace of a cell, named so that distinct samples give
/// distinct names.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Trace {
    /// A trace family by spec token, built at [`TRACE_SEED`].
    Family(String),
    /// What a 20 Mbps link leaves the video flow under this many Mbps of
    /// Harpoon-style cross traffic (Fig 5, Fig 12).
    Cross(u32),
    /// The `i`-th raw 3G commute trace (Fig 10, Fig 14).
    Raw3g(usize),
}

impl Trace {
    fn build(&self) -> BandwidthTrace {
        match self {
            Trace::Family(token) => TraceFamily::parse(token)
                .expect("`cell` validated the token")
                .build(TRACE_SEED, TRACE_DURATION_S),
            Trace::Cross(offered) => available_bandwidth(
                &CrossTrafficConfig::paper(f64::from(*offered)),
                TRACE_DURATION_S,
                TRACE_SEED,
            ),
            Trace::Raw3g(i) => generators::norway_3g_raw(*i, TRACE_DURATION_S),
        }
    }
}

impl Cell {
    /// The trace as the figures name it: a family's legend (`T-Mobile`,
    /// `const10.5`), the offered cross-traffic load in Mbps, or the raw 3G
    /// trace's index.
    fn legend(&self) -> String {
        match &self.trace {
            Trace::Family(token) => TraceFamily::parse(token)
                .expect("`cell` validated the token")
                .legend(),
            Trace::Cross(offered) => offered.to_string(),
            Trace::Raw3g(i) => i.to_string(),
        }
    }

    /// `<trace legend>/<video>`, the panel name most figures print.
    fn panel(&self) -> String {
        format!("{}/{}", self.legend(), self.video.short_name())
    }

    /// The one way a cell becomes an experiment.
    fn experiment(&self) -> ExperimentBuilder {
        let (mut abr, _) = system_by_name(self.system).expect("`cell` validated the system");
        if let AbrKind::Voxel { metric, .. } = &mut abr {
            *metric = QOE_METRICS[self.metric];
        }
        let transport = match self.split {
            true => TransportMode::Split,
            false => TransportMode::Reliable,
        };
        let cc = match self.delay_cc {
            true => CcKind::Delay,
            false => CcKind::Cubic,
        };
        Experiment::builder()
            .video(self.video)
            .abr(abr)
            .transport(transport)
            .buffer(self.buffer)
            .trace(self.trace.build())
            .queue(self.queue)
            .trials(self.trials)
            .cc(cc)
    }
}

/// The standard §5 cell at `trials` per config: `video` streamed by
/// `system` through a `buffer`-segment buffer over `trace`, a figure
/// legend (`T-Mobile`) or a spec token (`tmobile`, `const10.5`), with the
/// system's own transport, a 32-packet queue and CUBIC. Exhibits override
/// the rest with struct-update syntax. An unknown name on any axis prints
/// the valid set from its table and exits 2.
fn cell(trials: usize, video: &str, system: &'static str, buffer: usize, trace: &str) -> Cell {
    let s = or_exit(scenario(video, system, buffer, trace));
    let (_, transport) = system_by_name(system).expect("the scenario parsed the system");
    Cell {
        video: s.video,
        system,
        buffer,
        trace: Trace::Family(s.trace.token()),
        split: transport == TransportMode::Split,
        metric: 0,
        queue: s.queue_packets,
        delay_cc: false,
        trials,
    }
}

/// Trace duration used by all experiments (one 5-minute clip).
const TRACE_DURATION_S: usize = 300;

/// Root seed for all synthetic traces (fixed for reproducibility).
const TRACE_SEED: u64 = 2021;

/// The trial count of every committed result, and so the default.
const DEFAULT_TRIALS: usize = 6;

/// Number of trials per configuration (`VOXEL_TRIALS`, default 6).
fn trial_count() -> usize {
    env::positive_count("VOXEL_TRIALS", DEFAULT_TRIALS)
}

/// One §5 cell as a scenario, through the spec language every other tool
/// speaks; a figure legend names the same trace as its token.
fn scenario(video: &str, system: &str, buffer: usize, trace: &str) -> Result<Scenario, SpecError> {
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
    or_exit(scenario(name, "VOXEL", 3, "const8")).video
}

/// A §5 trace by figure-legend name or spec token, as the figures run it
/// ([`TRACE_SEED`], [`TRACE_DURATION_S`]).
fn figure_trace(name: &str) -> BandwidthTrace {
    or_exit(scenario("BBB", "VOXEL", 3, name)).build_trace(TRACE_SEED)
}

/// The VOXEL variant the paper evaluates on `trace`: the Fig 6d
/// bandwidth-safety tuning on T-Mobile, the aggressive default elsewhere.
fn voxel_for(trace: &str) -> &'static str {
    match or_exit(scenario("BBB", "VOXEL", 3, trace)).trace {
        TraceFamily::TMobile => "VOXEL-tuned",
        _ => "VOXEL",
    }
}

/// A figure header.
fn header(o: &mut Out, fig: &str, caption: &str) {
    writeln!(o, "# {fig} — {caption}");
    let trials = o.trials;
    writeln!(o, "# trials per config: {trials}");
}

/// `n + 1` evenly spaced CDF probes from `start`.
fn grid(n: usize, start: f64, step: f64) -> Vec<f64> {
    (0..=n).map(|i| start + i as f64 * step).collect()
}

/// A CDF as one fixed-grid row.
fn print_cdf(o: &mut Out, label: &str, samples: &[f64], probes: &[f64]) {
    let rows = voxel_sim::stats::ecdf_at(samples, probes);
    let cols: Vec<String> = rows.iter().map(|(x, f)| format!("{x:.3}:{f:.2}")).collect();
    writeln!(o, "{label:24} {}", cols.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_resolve_legends_and_tokens_to_the_same_trace() {
        for family in TraceFamily::named() {
            let by_legend = cell(1, "BBB", "BOLA", 3, &family.legend());
            assert_eq!(by_legend, cell(1, "BBB", "BOLA", 3, &family.token()));
            assert_eq!(by_legend.legend(), family.legend());
            let t = by_legend.trace.build();
            assert_eq!(
                (t.duration_s(), t.name),
                (TRACE_DURATION_S, family.legend())
            );
        }
        assert_eq!(
            cell(1, "P10", "VOXEL", 1, "const10.5").video,
            VideoId::YouTube(10)
        );
    }

    #[test]
    fn cells_take_their_systems_transport_unless_overridden() {
        let transport = |c: Cell| c.experiment().build().config().transport;
        let plain = |system| cell(1, "BBB", system, 3, "const10");
        assert_eq!(transport(plain("BOLA")), TransportMode::Reliable);
        assert_eq!(transport(plain("VOXEL")), TransportMode::Split);
        assert_eq!(transport(plain("VOXEL-rel")), TransportMode::Reliable);
        let qstar = Cell {
            split: true,
            ..plain("BOLA")
        };
        assert_eq!(transport(qstar), TransportMode::Split);
    }

    #[test]
    fn tuned_voxel_runs_on_tmobile_only() {
        assert_eq!(voxel_for("T-Mobile"), "VOXEL-tuned");
        assert_eq!(voxel_for("tmobile"), "VOXEL-tuned");
        for trace in ["Verizon", "AT&T", "3G", "FCC", "in-the-wild"] {
            assert_eq!(voxel_for(trace), "VOXEL");
        }
    }

    /// Everything an experiment's configuration holds, the trace by its
    /// samples rather than its name.
    fn fingerprint(c: &Cell) -> String {
        let e = c.experiment().build();
        let k = e.config();
        format!(
            "{:?} {:?} {:?} {} {:?} {} {} {:?} {}",
            k.video,
            k.abr,
            k.transport,
            k.buffer_segments,
            k.trace.mbps,
            k.queue_packets,
            k.trials,
            k.cc,
            k.selective_retx
        )
    }

    /// The dedupe is exact: two cells of any exhibits share a key exactly
    /// when they build the same configuration, so no two runs repeat one
    /// and no run stands in for another.
    #[test]
    fn cells_share_a_key_exactly_when_they_build_the_same_config() {
        let mut by_key: BTreeMap<Cell, String> = BTreeMap::new();
        for e in &EXHIBITS {
            for c in (e.cells)(DEFAULT_TRIALS) {
                let print = fingerprint(&c);
                assert_eq!(by_key.entry(c).or_insert_with(|| print.clone()), &print);
            }
        }
        let configs: BTreeSet<&String> = by_key.values().collect();
        assert_eq!(configs.len(), by_key.len(), "two keys build one config");

        // Each of fig10's 24 raw 3G traces is its own cell.
        let fig10 = EXHIBITS.iter().find(|e| e.id == "fig10").expect("fig10");
        let cells: BTreeSet<Cell> = (fig10.cells)(DEFAULT_TRIALS).into_iter().collect();
        assert_eq!(cells.len(), 24 * 3 * 2);
    }

    /// One pool over several cells gives each cell exactly what
    /// `Experiment::run` gives it alone, trial by trial.
    #[test]
    fn the_pool_reproduces_experiment_run_trial_by_trial() {
        let a = cell(3, "BBB", "VOXEL", 1, "const2");
        let b = Cell {
            trials: 2,
            ..cell(3, "ED", "BOLA", 2, "const2")
        };
        let pooled = simulate(&[&a, &b]);
        for (c, agg) in [a, b].iter().zip(&pooled) {
            let alone = c.experiment().build().run(&ContentCache::new());
            assert_eq!(agg.trials.len(), c.trials);
            assert_eq!(format!("{:?}", agg.trials), format!("{:?}", alone.trials));
        }
    }

    #[test]
    fn first_difference_names_the_first_differing_line() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        let at = |old, new| first_difference(old, new).expect("they differ");
        assert_eq!(
            at("a\nb\nc\n", "a\nB\nc\n"),
            r#"line 2: committed "b\n", regenerated "B\n""#
        );
        assert_eq!(
            at("a\nb\n", "a\nb\nc\n"),
            r#"line 3: committed end of text, regenerated "c\n""#
        );
        assert_eq!(
            at("a\nb\n", "a\n"),
            r#"line 2: committed "b\n", regenerated end of text"#
        );
        assert_eq!(
            at("a\nb\n", "a\nb"),
            r#"line 2: committed "b\n", regenerated "b""#
        );
    }
}
