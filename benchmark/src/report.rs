//! The orchestrator behind `benchmark/run.sh`: one fresh child process per
//! (workload, repeat), medians over the repeats, the traced round, the
//! derived cells, the printed report, `out/results.json`, `--agree` and
//! `--compare`.
//!
//! Why a child per run: an all-VOXEL 1000-session fleet took 13.4 s in a
//! fresh process and 9.1 s re-run in-process on already-faulted memory, so
//! in-process repeats would hide a cost every user pays; it also makes
//! `VmHWM` a per-workload number. Why a warm-up child: the first run after
//! a build pays for a cold page cache, which is not the program's cost.

use crate::child::OUT_DIR;
use crate::json::Json;
use crate::kernels::BATCH_S;
use crate::metrics::{end_to_end, metric, Kind, Metric, METRICS};
use crate::stats::{summarize, Summary};
use crate::workloads::{Workload, FIG6_TRIALS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// Measured children per workload. Raise it for a workload whose medians do
/// not repeat within the bounds (up to 9); do not widen the bound.
pub const DEFAULT_REPEATS: usize = 5;
/// `run_seconds` of `BENCHMARK.json`: the timed region's budget in one run.
pub const RUN_SECONDS: u64 = 10;

pub struct Options {
    pub seed: u64,
    pub repeats: usize,
    pub only: Option<&'static Workload>,
    pub smoke: bool,
}

impl Options {
    fn selected(&self) -> impl Iterator<Item = &'static Workload> + '_ {
        WORKLOADS
            .iter()
            .filter(move |w| self.only.is_none_or(|only| only.name == w.name))
    }
}

/// What one child printed.
struct ChildOutput {
    correct: bool,
    attempted: f64,
    failed: f64,
    digest: String,
    values: BTreeMap<String, f64>,
    /// The names that apply to the workload (the rest were printed as 0).
    applies: Vec<String>,
}

fn spawn(w: &Workload, opts: &Options, traced: bool, label: &str) -> Result<ChildOutput, String> {
    eprintln!("  {} {label} ...", w.name);
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    // A smoke child measures one unit; a full one gets the driver's budget.
    let seconds = if opts.smoke { 1 } else { RUN_SECONDS };
    cmd.args(["--workload", w.name, "--seconds", &seconds.to_string()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting the {} child: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let bad = |what: &str| format!("{} {label}: {what} (exit {:?})", w.name, out.status.code());
    let result = Json::parse(last).map_err(|e| bad(&e))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or_else(|| bad("no detail line"))
        .and_then(|d| Json::parse(d).map_err(|e| bad(&e)))?;
    let field = |doc: &Json, key: &str| doc.get(key).and_then(Json::num);
    Ok(ChildOutput {
        correct: result.get("correct") == Some(&Json::Bool(true)) && out.status.success(),
        attempted: field(&result, "attempted").ok_or_else(|| bad("no attempted count"))?,
        failed: field(&result, "failed").ok_or_else(|| bad("no failed count"))?,
        digest: detail
            .get("sim_digest")
            .and_then(Json::str)
            .ok_or_else(|| bad("no sim_digest"))?
            .to_string(),
        values: result
            .get("metrics")
            .map(Json::entries)
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, cell)| Some((name.clone(), field(cell, "value")?)))
            .collect(),
        applies: detail
            .get("applies")
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .filter_map(|j| j.str().map(str::to_string))
            .collect(),
    })
}

/// Everything measured on one workload in one set.
#[derive(Default)]
struct Cells {
    digest: String,
    attempted: f64,
    failed: f64,
    /// Median and spread per metric name.
    cells: BTreeMap<String, Summary>,
}

/// One set: per workload a warm-up child, `repeats` measured children and
/// (with `traced_round`) one traced child. Returns the per-workload cells,
/// the pooled kernel samples, and whether every check held.
struct Set {
    workloads: Vec<(&'static Workload, Cells)>,
    kernels: BTreeMap<String, Summary>,
    ok: bool,
}

fn run_set(opts: &Options, traced_round: bool) -> Result<Set, String> {
    // Digest files of an earlier set would flag a model change as a failure.
    let _ = std::fs::remove_dir_all(Path::new(OUT_DIR).join("digests"));
    let mut set = Set {
        workloads: Vec::new(),
        kernels: BTreeMap::new(),
        ok: true,
    };
    let mut kernel_samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut group_digest: BTreeMap<&str, String> = BTreeMap::new();
    for w in opts.selected() {
        if !opts.smoke {
            spawn(w, opts, false, "warm-up")?;
        }
        let mut cells = Cells::default();
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut children = Vec::new();
        for i in 1..=opts.repeats {
            children.push(spawn(
                w,
                opts,
                false,
                &format!("repeat {i}/{}", opts.repeats),
            )?);
        }
        if traced_round {
            children.push(spawn(w, opts, true, "traced")?);
        }
        for child in &children {
            cells.attempted += child.attempted;
            cells.failed += child.failed;
            let first = group_digest
                .entry(w.digest_group)
                .or_insert_with(|| child.digest.clone());
            if !child.correct || *first != child.digest {
                eprintln!(
                    "FAILED {}: a child was incorrect (digest {})",
                    w.name, child.digest
                );
                set.ok = false;
            }
            for (name, value) in &child.values {
                if !child.applies.contains(name) {
                    continue;
                }
                let pool = match metric(name).map(|m| m.kind) {
                    Some(Kind::K) => &mut kernel_samples,
                    _ => &mut samples,
                };
                pool.entry(name.clone()).or_default().push(*value);
            }
        }
        cells.digest = children
            .last()
            .map(|c| c.digest.clone())
            .unwrap_or_default();
        cells.cells = summaries(samples);
        // The one derived cell that stays within a workload.
        let median = |name: &str| cells.cells.get(name).map(|s| s.median);
        if let (Some(t), Some(u)) = (median("process.traced_wall_s"), median("wall_s")) {
            let ratio = summarize(&[t / u]).expect("one sample");
            cells
                .cells
                .insert("process.traced_overhead_ratio".into(), ratio);
        }
        set.workloads.push((w, cells));
    }
    set.kernels = summaries(kernel_samples);
    Ok(set)
}

fn summaries(samples: BTreeMap<String, Vec<f64>>) -> BTreeMap<String, Summary> {
    samples
        .into_iter()
        .filter_map(|(name, xs)| Some((name, summarize(&xs)?)))
        .collect()
}

/// The **D** cells: ratios over cells of several runs or workloads.
fn derived(set: &Set, smoke: bool) -> BTreeMap<&'static str, f64> {
    let cell = |workload: &str, name: &str| {
        let (_, cells) = set.workloads.iter().find(|(w, _)| w.name == workload)?;
        cells.cells.get(name).map(|s| s.median)
    };
    let ratio = |num: Option<f64>, den: Option<f64>| Some(num? / den?).filter(|r| r.is_finite());
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    // The trial pool runs one thread per trial, up to `nproc`.
    let pool_threads = threads.min(if smoke { 1 } else { FIG6_TRIALS }) as f64;
    let mut out = BTreeMap::new();
    for (name, value) in [
        (
            "prep.segment_levels_per_s",
            // `ns_per_packet` reads over prepared segment-levels on this workload.
            cell("prep_catalog", "ns_per_packet").map(|ns| 1e9 / ns),
        ),
        (
            "core.pool_efficiency",
            ratio(
                cell("fig6_slice", "core.trial_serial_s"),
                cell("fig6_slice", "wall_s").map(|w| w * pool_threads),
            ),
        ),
        (
            "fleet.scale_penalty",
            ratio(
                cell("fleet1k", "ns_per_packet"),
                cell("fleet16", "ns_per_packet"),
            ),
        ),
        (
            "fleet.w2_speedup",
            ratio(cell("fleet1k", "wall_s"), cell("fleet1k_w2", "wall_s")),
        ),
    ] {
        if let Some(v) = value {
            out.insert(name, v);
        }
    }
    out
}

fn row(name: &str, s: &Summary) -> String {
    let (unit, source) = metric(name).map_or(("", ""), |m| (m.unit, m.source()));
    format!(
        "  {source} {name:<40} {:>15.6} {unit:<9} n={} min {:.6} max {:.6} MAD {:.6}",
        s.median, s.n, s.min, s.max, s.mad
    )
}

fn summary_json(name: &str, s: &Summary) -> Json {
    Json::obj([
        ("median", Json::from(s.median)),
        ("unit", Json::from(metric(name).map_or("", |m| m.unit))),
        ("n", Json::from(s.n as f64)),
        ("min", Json::from(s.min)),
        ("max", Json::from(s.max)),
        ("mad", Json::from(s.mad)),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn environment(opts: &Options) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    Json::obj([
        ("nproc", Json::from(nproc as f64)),
        ("cpu", Json::from(cpu)),
        ("rustc", Json::from(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from(opts.seed as f64)),
        ("repeats", Json::from(opts.repeats as f64)),
        ("run_seconds", Json::from(RUN_SECONDS as f64)),
        (
            "shrunk",
            Json::obj([
                (
                    "fig6_slice.trials",
                    Json::from(format!("4 -> {FIG6_TRIALS}")),
                ),
                ("kernel.batch_s", Json::from(format!("0.2 -> {BATCH_S}"))),
            ]),
        ),
    ])
}

/// The default command: measure, print every metric by name, write
/// `out/results.json`. `Ok(false)` when an output check failed.
pub fn run(opts: &Options) -> Result<bool, String> {
    let mode = if opts.smoke { "smoke" } else { "full" };
    eprintln!(
        "benchmark ({mode}): seed {}, k = {} fresh children per workload",
        opts.seed, opts.repeats
    );
    let set = run_set(opts, true)?;
    let derived = derived(&set, opts.smoke);
    if opts.smoke {
        println!("SMOKE RUN: sizes are cut; these numbers are not a baseline.");
    }
    println!(
        "# k = {}: a cell is the median of k fresh processes; with so few, no",
        opts.repeats
    );
    println!("# percentile above the median is supportable, so none is printed.");
    let mut workloads_json = Vec::new();
    for (w, cells) in &set.workloads {
        println!(
            "\n== {} (sim_digest {}, {} of {} operations failed)",
            w.name, cells.digest, cells.failed, cells.attempted
        );
        let (mut e2e, mut layers) = (Vec::new(), Vec::new());
        for m in METRICS {
            let Some(s) = cells.cells.get(m.name) else {
                continue;
            };
            println!("{}", row(m.name, s));
            let target = if m.bound().is_some() {
                &mut e2e
            } else {
                &mut layers
            };
            target.push((m.name, summary_json(m.name, s)));
        }
        workloads_json.push((
            w.name,
            Json::obj([
                ("sim_digest", Json::from(cells.digest.clone())),
                ("attempted", Json::from(cells.attempted)),
                ("failed", Json::from(cells.failed)),
                ("end_to_end", Json::obj(e2e)),
                ("per_layer", Json::obj(layers)),
            ]),
        ));
    }
    println!("\n== kernels (K; one sample per traced child, fixed inputs)");
    for m in METRICS {
        if let Some(s) = set.kernels.get(m.name) {
            println!("{}", row(m.name, s));
        }
    }
    println!("\n== derived (D)");
    for (name, value) in &derived {
        let unit = metric(name).map_or("", |m| m.unit);
        println!("  {name:<40} {value:>15.6} {unit}");
    }
    let doc = Json::obj([
        ("mode", Json::from(mode)),
        ("environment", environment(opts)),
        ("workloads", Json::obj(workloads_json)),
        (
            "kernels",
            Json::obj(
                set.kernels
                    .iter()
                    .map(|(k, s)| (k.clone(), summary_json(k, s))),
            ),
        ),
        (
            "derived",
            Json::obj(derived.iter().map(|(k, v)| (*k, Json::from(*v)))),
        ),
    ]);
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc.pretty()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    if !set.ok {
        println!("FAILED: an output check did not hold (see the FAILED lines above)");
    }
    Ok(set.ok)
}

/// By how much `b` is worse than `a`, as a share of `a` (negative = better).
fn worse_by(m: &Metric, a: f64, b: f64) -> f64 {
    if m.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// `--agree`: two full sets back to back on the same build must agree
/// within the benchmark's own bounds on every end-to-end metric x workload.
pub fn agree(opts: &Options) -> Result<bool, String> {
    let first = run_set(opts, false)?;
    let second = run_set(opts, false)?;
    let mut ok = first.ok && second.ok;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first median", "second median", "gap", "bound"
    );
    for ((w, a), (_, b)) in first.workloads.iter().zip(&second.workloads) {
        for m in end_to_end() {
            let (Some(x), Some(y)) = (a.cells.get(m.name), b.cells.get(m.name)) else {
                continue;
            };
            let gap = worse_by(m, x.median, y.median);
            let bound = m.bound().unwrap_or(0.0);
            let verdict = if gap.abs() > bound { "  VIOLATED" } else { "" };
            ok &= gap.abs() <= bound;
            println!(
                "{:<14} {:<18} {:>14.6} {:>14.6} {:>+7.2}% {:>6.0}%{verdict}",
                w.name,
                m.name,
                x.median,
                y.median,
                100.0 * gap,
                100.0 * bound
            );
        }
    }
    Ok(ok)
}

/// `--compare a.json b.json`: per-cell delta of `b` against `a` and its
/// bound, and every changed **R** count or `sim_digest` flagged as "model
/// changed". `Ok(false)` when an end-to-end cell is worse beyond its bound.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("mode").and_then(Json::str) != Some("full") {
            return Err(format!(
                "{path}: not a full run (smoke numbers are no baseline)"
            ));
        }
        Ok(doc)
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    let empty = Json::obj::<String>([]);
    for (name, wa) in a.get("workloads").map(Json::entries).unwrap_or_default() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name}: missing from {b_path}");
            continue;
        };
        let (da, db) = (wa.get("sim_digest"), wb.get("sim_digest"));
        let model = if da == db {
            ""
        } else {
            "  MODEL CHANGED (sim_digest)"
        };
        println!("== {name}{model}");
        for section in ["end_to_end", "per_layer"] {
            let cells_b = wb.get(section).unwrap_or(&empty);
            for (metric_name, cell_a) in wa.get(section).map(Json::entries).unwrap_or_default() {
                let Some(m) = metric(metric_name) else {
                    continue;
                };
                let value = |cell: &Json| cell.get("median").and_then(Json::num);
                let (Some(x), Some(y)) = (value(cell_a), cells_b.get(metric_name).and_then(value))
                else {
                    continue;
                };
                let gap = if x == 0.0 { 0.0 } else { worse_by(m, x, y) };
                let note = match m.kind {
                    Kind::E { bound } if gap > bound => {
                        ok = false;
                        format!("  WORSE beyond the {:.0}% bound", 100.0 * bound)
                    }
                    Kind::E { bound } => format!("  (bound {:.0}%)", 100.0 * bound),
                    Kind::R if x != y => "  MODEL CHANGED (count)".into(),
                    _ => String::new(),
                };
                if m.bound().is_some() || x != y {
                    println!(
                        "  {metric_name:<40} {x:>15.6} -> {y:>15.6} {:>+7.2}%{note}",
                        100.0 * gap
                    );
                }
            }
        }
    }
    println!("== kernels");
    let kernels_b = b.get("kernels").unwrap_or(&empty);
    for (name, cell) in a.get("kernels").map(Json::entries).unwrap_or_default() {
        let value = |cell: &Json| cell.get("median").and_then(Json::num);
        if let (Some(m), Some(x), Some(y)) = (
            metric(name),
            value(cell),
            kernels_b.get(name).and_then(value),
        ) {
            println!(
                "  {name:<40} {x:>15.6} -> {y:>15.6} {:>+7.2}%",
                100.0 * worse_by(m, x, y)
            );
        }
    }
    Ok(ok)
}

/// The `BENCHMARK.json` the tables imply, in exactly the driver's shape.
pub fn contract() -> Json {
    let metric_json = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::from(m.name)),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better())),
        ];
        if let Some(bound) = m.bound() {
            pairs.push(("bound", Json::from(bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::from("bash"), Json::from("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(crate::metrics::per_layer().map(metric_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root is generated (`run.sh --contract`),
    /// never edited by hand.
    #[test]
    fn benchmark_json_is_what_the_tables_imply() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists at the repo root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            contract(),
            "regenerate it: benchmark/run.sh --contract > BENCHMARK.json"
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let wall = metric("wall_s").expect("wall_s");
        let rate = metric("sim_s_per_wall_s").expect("sim_s_per_wall_s");
        assert!((worse_by(wall, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(rate, 10.0, 11.0) + 0.1).abs() < 1e-12);
        assert!(worse_by(rate, 10.0, 8.0) > 0.0);
    }
}
