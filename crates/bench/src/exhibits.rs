//! The cells and printers behind [`crate::EXHIBITS`]: `<id>_cells`
//! declares the §5 sessions of an exhibit as scenario specs, and `<id>` prints
//! its rows/series from their aggregates, in the order declared (the
//! exhibits with no `_cells` function do all their work in the printer).
//! What an exhibit shows and what the paper expects of it is stated once,
//! in the table; comments here only say why a workload is shaped the way
//! it is.

use super::{cell, grid, header, panel, print_cdf, video, voxel_for, Out, Run};
use std::sync::Arc;
use voxel_abr::AbrStar;
use voxel_core::client::{PlayerConfig, TransportMode};
use voxel_core::experiment::ContentCache;
use voxel_core::metrics::{Aggregate, TrialResult};
use voxel_core::session::Session;
use voxel_core::survey::run_survey;
use voxel_core::{Admission, EvictionPolicy};
use voxel_fleet::{
    run_fleet, run_fleet_workload, zipf_poisson_arrivals, FleetResult, FleetSpec, Routing, Workload,
};
use voxel_media::content::VideoId;
use voxel_media::gop::FRAMES_PER_SEGMENT;
use voxel_media::ladder::{QualityLevel, BITRATE_LADDER};
use voxel_media::qoe::QoeModel;
use voxel_media::video::{Video, SEGMENT_DURATION_S};
use voxel_netem::trace::generators;
use voxel_netem::{PathConfig, TraceFamily};
use voxel_prep::analysis::{drop_tolerance, droppable_by_position, BytesQoeMap};
use voxel_prep::manifest::Manifest;
use voxel_prep::ordering::OrderingKind;
use voxel_quic::CcKind;
use voxel_sim::stats::Accumulator;
use voxel_testkit::{
    cc_group_shares, edge_hot_invariants, fleet_invariants, Golden, Scenario,
    EDGE_HOT_HIT_RATIO_FLOOR, EDGE_HOT_ORIGIN_FRACTION_OF_COLD, TRACE_SEED,
};
use voxel_trace::Tracer;

const BUFFERS: [usize; 4] = [1, 2, 3, 7];
const EVAL_VIDEOS: [&str; 4] = ["BBB", "ED", "Sintel", "ToS"];
const LTE_PANELS: [(&str, [&str; 2]); 2] =
    [("tmobile", ["BBB", "ED"]), ("verizon", ["Sintel", "ToS"])];

fn generate<const N: usize>(names: [&'static str; N]) -> [(&'static str, Video); N] {
    names.map(|name| (name, Video::generate(video(name))))
}

/// Per-segment tolerable frame-drop % at `level` for SSIM `target`.
fn tolerance_cdf(video: &Video, model: &QoeModel, level: QualityLevel, target: f64) -> Vec<f64> {
    video
        .segments
        .iter()
        .map(|s| {
            100.0 * model.max_droppable_frames(s, level, target) as f64 / FRAMES_PER_SEGMENT as f64
        })
        .collect()
}

/// Panels a–c of Fig 1 and Fig 19: the drop-tolerance CDFs at full quality,
/// at a low level (tolerance collapses), and at a relaxed target (recovers).
fn tolerance_panels(
    o: &mut Out,
    fig: &str,
    videos: &[(&str, Video)],
    caption: impl Fn(QualityLevel, f64) -> String,
) {
    let model = QoeModel::default();
    let probes = grid(10, 0.0, 10.0);
    for (panel, level, target) in [
        ('a', QualityLevel::MAX, 0.99),
        ('b', QualityLevel(9), 0.99),
        ('c', QualityLevel(9), 0.95),
    ] {
        header(o, &format!("{fig}{panel}"), &caption(level, target));
        for (name, v) in videos {
            print_cdf(o, name, &tolerance_cdf(v, &model, level, target), &probes);
        }
    }
}

fn per_trial_mean(agg: &Aggregate, f: impl Fn(&TrialResult) -> f64) -> f64 {
    agg.trials.iter().map(f).sum::<f64>() / agg.trials.len() as f64
}

/// Percent of segments scoring a perfect (1.0) SSIM.
fn perfect_pct(ssims: &[f64]) -> f64 {
    100.0 * ssims.iter().filter(|&&x| x >= 0.9999).count() as f64 / ssims.len() as f64
}

pub(crate) fn tables(o: &mut Out, _: &[Run]) {
    // (name, genre, paper's Q12 bitrate std, ours, segment range) of one video.
    let measured = |id: VideoId| {
        let p = id.profile();
        let ours = Video::generate(id).bitrate_std_mbps(QualityLevel::MAX);
        let range = format!("{}-{}", p.segment_range_start, p.segment_range_start + 74);
        (id.short_name(), p.genre, p.bitrate_std_mbps, ours, range)
    };

    header(o, "Table 1", "evaluation videos from prior work");
    writeln!(
        o,
        "{:24} {:14} {:>12} {:>12} {:>10}",
        "video", "genre", "std(paper)", "std(ours)", "range"
    );
    for id in VideoId::EVAL {
        let (name, genre, paper, ours, range) = measured(id);
        writeln!(
            o,
            "{name:24} {genre:14} {paper:>12.2} {ours:>12.2} {range:>10}"
        );
    }

    header(o, "Table 2", "quality levels of encoded videos");
    writeln!(
        o,
        "{:>6} {:>12} {:>14} {:>14} {:>14}",
        "level", "resolution", "bitrate(Mbps)", "size(paper MB)", "size(ours MB)"
    );
    // Measured size of a generated clip at each level (BBB).
    let bbb = Video::generate(VideoId::Bbb);
    for (i, rung) in BITRATE_LADDER.iter().enumerate() {
        let level = QualityLevel::try_from(i).expect("valid");
        let bytes: u64 = bbb.segments.iter().map(|s| s.bytes(level)).sum();
        writeln!(
            o,
            "{:>6} {:>11}p {:>14.2} {:>14.1} {:>14.1}",
            format!("Q{i}"),
            rung.resolution_p,
            rung.avg_bitrate_mbps,
            rung.total_size_mb,
            bytes as f64 / 1e6,
        );
    }

    header(o, "Table 3", "public YouTube videos");
    writeln!(
        o,
        "{:>4} {:16} {:>12} {:>12} {:>10}",
        "id", "category", "std(paper)", "std(ours)", "range"
    );
    for n in 1..=10u8 {
        let (name, genre, paper, ours, range) = measured(VideoId::YouTube(n));
        writeln!(
            o,
            "{name:>4} {genre:16} {paper:>12.2} {ours:>12.2} {range:>10}"
        );
    }
}

pub(crate) fn fig1(o: &mut Out, _: &[Run]) {
    let model = QoeModel::default();
    let videos = generate(["BBB", "ED", "Sintel", "ToS", "P2", "P4"]);
    tolerance_panels(o, "Fig 1", &videos, |level, target| {
        format!("CDF of frames droppable at {level} while keeping SSIM >= {target}")
    });

    header(
        o,
        "Fig 1d",
        "CDF of pristine segment SSIM at low quality levels",
    );
    let ssim_probes = grid(10, 0.75, 0.025);
    for (name, level) in [("ToS", 6), ("ToS", 9), ("BBB", 6), ("BBB", 9)] {
        let v = Video::generate(video(name));
        let ssims: Vec<f64> = v
            .segments
            .iter()
            .map(|s| model.pristine_ssim(s, QualityLevel(level)))
            .collect();
        print_cdf(o, &format!("{name}/Q{level}"), &ssims, &ssim_probes);
        let below = ssims.iter().filter(|&&s| s < 0.99).count() as f64 / ssims.len() as f64;
        writeln!(
            o,
            "{name}/Q{level}: fraction below SSIM 0.99 = {:.0}%",
            below * 100.0
        );
    }

    // Headline check from §3 insight 1.
    writeln!(
        o,
        "\n# summary: median tolerable drop % at Q12/0.99 (paper: 10-20%+ for all)"
    );
    for (name, v) in &videos {
        let tol = tolerance_cdf(v, &model, QualityLevel::MAX, 0.99);
        writeln!(
            o,
            "{name:8} median {:5.1}%",
            voxel_sim::stats::percentile(&tol, 0.5)
        );
    }
}

pub(crate) fn fig2(o: &mut Out, _: &[Run]) {
    let model = QoeModel::default();
    let videos = generate(["BBB", "ToS"]);

    header(
        o,
        "Fig 2a",
        "fraction of segments whose frame at position p is droppable (Q12, SSIM 0.99)",
    );
    for (name, v) in &videos {
        let frac = droppable_by_position(&model, &v.segments, QualityLevel::MAX, 0.99);
        // Print every 8th position to keep rows readable.
        let cells: Vec<String> = frac
            .iter()
            .enumerate()
            .step_by(8)
            .map(|(p, f)| format!("{p}:{f:.2}"))
            .collect();
        writeln!(o, "{name:8} {}", cells.join(" "));
    }

    header(
        o,
        "Fig 2b",
        "CDF of tolerable drop % at Q12/0.99: rank ordering vs tail-only",
    );
    // Per-segment tolerable drop fraction at Q12/0.99 under `ordering`.
    let tolerance = |v: &Video, ordering| -> Vec<f64> {
        let segments = v.segments.iter();
        segments
            .map(|s| drop_tolerance(&model, s, QualityLevel::MAX, ordering, 0.99))
            .collect()
    };
    let probes = grid(10, 0.0, 10.0);
    for (name, v) in &videos {
        for (label, ordering) in [
            (name.to_string(), OrderingKind::InboundRank),
            (format!("{name}/Tail"), OrderingKind::UnreferencedTail),
        ] {
            let pct: Vec<f64> = tolerance(v, ordering).iter().map(|t| 100.0 * t).collect();
            print_cdf(o, &label, &pct, &probes);
        }
    }

    header(
        o,
        "Fig 2c/2d",
        "segment-bitrate CDFs: virtual levels vs real levels (Mbps)",
    );
    let rate_probes = grid(10, 0.0, 2.0);
    for (name, v) in &videos {
        // Real levels.
        for level in [QualityLevel(10), QualityLevel(11), QualityLevel::MAX] {
            let rates: Vec<f64> = v.segments.iter().map(|s| s.bitrate_mbps(level)).collect();
            print_cdf(
                o,
                &format!("{name}/Q{}", level.index()),
                &rates,
                &rate_probes,
            );
        }
        // Virtual levels Q12/0.99 and Q12/0.95: bytes needed at Q12 to reach
        // the SSIM target, expressed as a bitrate.
        for target in [0.99, 0.95] {
            let rates: Vec<f64> = v
                .segments
                .iter()
                .map(|s| {
                    let map = BytesQoeMap::compute(
                        &model,
                        s,
                        QualityLevel::MAX,
                        OrderingKind::InboundRank,
                    );
                    let bytes = map
                        .min_bytes_for(target)
                        .map_or(map.full_bytes(), |p| u64::from(p.bytes));
                    bytes as f64 * 8.0 / SEGMENT_DURATION_S / 1e6
                })
                .collect();
            print_cdf(o, &format!("{name}/Q12/{target}"), &rates, &rate_probes);
        }
    }

    // §3 insight 2 headline: tail-only drops force many more referenced
    // frames into the dropped set than the rank ordering does.
    writeln!(
        o,
        "\n# summary: mean tolerable drops at Q12/0.99 by ordering (paper: rank > tail > original)"
    );
    for (name, v) in &videos {
        for ordering in OrderingKind::ALL {
            let mean = tolerance(v, ordering).iter().sum::<f64>() / v.segments.len() as f64;
            writeln!(
                o,
                "{name:6} {ordering:20} mean droppable {:5.1}% of {} frames",
                mean * 100.0,
                FRAMES_PER_SEGMENT
            );
        }
    }
}

/// Vanilla QUIC, then QUIC\* under the same unmodified ABR: the system
/// legend's suffix for each.
const Q_VS_QSTAR: [&str; 2] = ["", "-Q*"];

/// A Fig 3/5 cell's unmodified ABR and its transport as the figures
/// label it (`Q`, `Q*`).
fn abr_and_transport(c: &Scenario) -> (&str, &str) {
    match c.system.strip_suffix(Q_VS_QSTAR[1]) {
        Some(abr) => (abr, "Q*"),
        None => (&c.system, "Q"),
    }
}

/// "Q" = vanilla QUIC (fully reliable); "Q*" = QUIC\* with the minimal
/// split (I-frames reliable, all other frames unreliable) and no other ABR
/// change. The paper's subplot pairings.
pub(crate) fn fig3_cells(n: usize) -> Vec<Scenario> {
    let mut cells = Vec::new();
    for (abr, trace, video) in [
        ("MPC", "tmobile", "BBB"),
        ("MPC", "verizon", "ED"),
        ("BOLA", "tmobile", "Sintel"),
        ("BOLA", "verizon", "ToS"),
    ] {
        for buffer in [5, 6, 7] {
            cells.extend(Q_VS_QSTAR.map(|q| cell(n, video, &format!("{abr}{q}"), buffer, trace)));
        }
    }
    cells
}

pub(crate) fn fig3(o: &mut Out, runs: &[Run]) {
    header(
        o,
        "Fig 3 + Fig 4",
        "vanilla ABRs over QUIC (Q) vs QUIC* (Q*): p90 bufRatio and avg bitrate",
    );
    writeln!(
        o,
        "{:28} {:>6} {:>10} {:>12} {:>9} {:>14}",
        "panel", "buf", "transport", "bufRatio-p90", "stderr", "bitrate-kbps"
    );
    for (c, agg) in runs {
        let (abr, transport) = abr_and_transport(c);
        writeln!(
            o,
            "{:28} {:>6} {:>10} {:>11.2}% {:>8.2}% {:>14.0}",
            format!("{abr}-{}", panel(c)),
            c.buffer_segments,
            transport,
            agg.buf_ratio_p90(),
            agg.buf_ratio_stderr(),
            agg.bitrate_mean_kbps(),
        );
    }
    writeln!(o, "\n# expectation (paper): Q* lowers bufRatio for both ABRs; MPC trades more bitrate (~-25%) than BOLA (~-4%)");
}

/// The paper prints only the 20 Mbps panels; lower loads confirm the trend
/// in full mode.
pub(crate) fn fig5_cells(n: usize) -> Vec<Scenario> {
    let loads: &[u32] = if n < 30 { &[20] } else { &[20, 15, 10] };
    let mut cells = Vec::new();
    for &offered in loads {
        for (abr, video) in [
            ("BOLA", "BBB"),
            ("MPC", "ED"),
            ("BOLA", "Sintel"),
            ("MPC", "ToS"),
        ] {
            let trace = format!("cross{offered}");
            for buffer in [5, 6, 7] {
                cells.extend(
                    Q_VS_QSTAR.map(|q| cell(n, video, &format!("{abr}{q}"), buffer, &trace)),
                );
            }
        }
    }
    cells
}

pub(crate) fn fig5(o: &mut Out, runs: &[Run]) {
    header(
        o,
        "Fig 5",
        "vanilla ABRs + QUIC* vs QUIC with cross-traffic on a 20 Mbps link",
    );
    writeln!(
        o,
        "{:24} {:>8} {:>6} {:>10} {:>12} {:>14}",
        "panel", "offered", "buf", "transport", "bufRatio-p90", "bitrate-kbps"
    );
    for (c, agg) in runs {
        let (abr, transport) = abr_and_transport(c);
        let TraceFamily::Cross(offered) = c.trace else {
            unreachable!("fig5 cells are cross-traffic cells")
        };
        writeln!(
            o,
            "{:24} {:>7}M {:>6} {:>10} {:>11.2}% {:>14.0}",
            format!("{abr}/{}", c.video.short_name()),
            offered,
            c.buffer_segments,
            transport,
            agg.buf_ratio_p90(),
            agg.bitrate_mean_kbps(),
        );
    }
    writeln!(o, "\n# expectation (paper): Q* much lower bufRatio; slight bitrate reduction; MPC improves more (~82%) than BOLA (~64%)");
}

/// BOLA, BETA and the VOXEL variant the paper runs on `trace`, for each
/// (trace, video, buffer).
fn three_systems(n: usize, panels: &[(&str, &str, usize)]) -> Vec<Scenario> {
    let each = |&(trace, video, buffer): &(&str, &str, usize)| {
        ["BOLA", "BETA", voxel_for(trace)].map(|system| cell(n, video, system, buffer, trace))
    };
    panels.iter().flat_map(each).collect()
}

/// The (trace, video) pairings the paper's subplots use.
pub(crate) fn fig6_cells(n: usize) -> Vec<Scenario> {
    let pairs = [
        ("att", "BBB"),
        ("3g", "ED"),
        ("verizon", "Sintel"),
        ("tmobile", "ToS"),
    ];
    let panels: Vec<_> = pairs
        .iter()
        .flat_map(|&(trace, video)| BUFFERS.map(|buffer| (trace, video, buffer)))
        .collect();
    three_systems(n, &panels)
}

pub(crate) fn fig6(o: &mut Out, runs: &[Run]) {
    header(o, "Fig 6", "bufRatio (p90 + stderr): BOLA vs BETA vs VOXEL");
    writeln!(
        o,
        "{:18} {:>4} {:>12} {:>12} {:>8} {:>10} {:>9}",
        "panel", "buf", "system", "bufRatio-p90", "stderr", "restarts", "partials"
    );
    let mut improvements = Accumulator::new();
    let mut bola_p90 = None;
    for (c, agg) in runs {
        let p90 = agg.buf_ratio_p90();
        writeln!(
            o,
            "{:18} {:>4} {:>12} {:>11.2}% {:>7.2}% {:>10.1} {:>9.1}",
            panel(c),
            c.buffer_segments,
            c.system,
            p90,
            agg.buf_ratio_stderr(),
            per_trial_mean(agg, |t| t.restarts as f64),
            per_trial_mean(agg, |t| t.kept_partials as f64),
        );
        match c.system.as_str() {
            "BOLA" => bola_p90 = Some(p90),
            s if s.starts_with("VOXEL") => {
                if let Some(b) = bola_p90.filter(|&b| b > 0.05) {
                    improvements.add(100.0 * (b - p90) / b);
                }
            }
            _ => {}
        }
    }
    if let (Some(min), Some(max)) = (improvements.min(), improvements.max()) {
        writeln!(
            o,
            "\n# VOXEL vs BOLA p90-bufRatio reduction: min {:.0}%, max {:.0}% (paper: 25%-97%+ across conditions)",
            min, max
        );
    }
}

/// VOXEL maximising each Fig 7a utility, SSIM (the paper's) first: its
/// system legend and the utility's name in the figure.
const UTILITIES: [(&str, &str); 3] = [
    ("VOXEL", "Ssim"),
    ("VOXEL-VMAF", "Vmaf"),
    ("VOXEL-PSNR", "Psnr"),
];

/// Per buffer, BOLA and then VOXEL maximising each utility (7a); BOLA and
/// VOXEL at 3 segments (7b/7c); VOXEL per video and buffer (7d).
pub(crate) fn fig7_cells(n: usize) -> Vec<Scenario> {
    let verizon = |video, system, buffer| cell(n, video, system, buffer, "verizon");
    let mut cells = Vec::new();
    for buffer in BUFFERS {
        cells.push(verizon("BBB", "BOLA", buffer));
        cells.extend(UTILITIES.map(|(system, _)| verizon("BBB", system, buffer)));
    }
    cells.extend([verizon("BBB", "BOLA", 3), verizon("BBB", "VOXEL", 3)]);
    for video in EVAL_VIDEOS {
        cells.extend(BUFFERS.map(|buffer| verizon(video, "VOXEL", buffer)));
    }
    cells
}

pub(crate) fn fig7(o: &mut Out, runs: &[Run]) {
    let (utilities, rest) = runs.split_at(BUFFERS.len() * (1 + UTILITIES.len()));
    let (distributions, skipped) = rest.split_at(2);
    header(
        o,
        "Fig 7a",
        "bufRatio p90 of BOLA vs VOXEL under different QoE utilities (BBB, Verizon)",
    );
    for row in utilities.chunks_exact(1 + UTILITIES.len()) {
        let (bola, voxels) = (&row[0], &row[1..]);
        write!(
            o,
            "buf={}: BOLA {:5.2}%",
            bola.0.buffer_segments,
            bola.1.buf_ratio_p90()
        );
        for ((_, metric), (_, agg)) in UTILITIES.iter().zip(voxels) {
            write!(o, "  VOXEL/{metric} {:5.2}%", agg.buf_ratio_p90());
        }
        writeln!(o);
    }

    header(
        o,
        "Fig 7b/7c",
        "SSIM and VMAF distributions of streamed segments (BBB, Verizon, 3-seg buffer)",
    );
    let (bola, voxel) = (&distributions[0].1, &distributions[1].1);
    let ssim_probes = grid(10, 0.85, 0.015);
    print_cdf(o, "SSIM BOLA", &bola.pooled_ssims(), &ssim_probes);
    print_cdf(o, "SSIM VOXEL", &voxel.pooled_ssims(), &ssim_probes);
    let vmaf_probes = grid(10, 0.0, 10.0);
    print_cdf(o, "VMAF BOLA", &bola.pooled_vmafs(), &vmaf_probes);
    print_cdf(o, "VMAF VOXEL", &voxel.pooled_vmafs(), &vmaf_probes);
    writeln!(
        o,
        "# segments at perfect SSIM: BOLA {:.0}%  VOXEL {:.0}%",
        perfect_pct(&bola.pooled_ssims()),
        perfect_pct(&voxel.pooled_ssims())
    );

    header(
        o,
        "Fig 7d",
        "percent of segment data skipped by VOXEL vs buffer size (Verizon)",
    );
    for row in skipped.chunks_exact(BUFFERS.len()) {
        write!(o, "{:8}", row[0].0.video.short_name());
        for (c, agg) in row {
            write!(
                o,
                "  buf{}:{:5.1}%",
                c.buffer_segments,
                agg.data_skipped_mean_pct()
            );
        }
        writeln!(o);
    }
    writeln!(o, "\n# expectation (paper): skipped data decreases with buffer size; VOXEL ~= BOLA quality at far lower bufRatio");
}

/// BOLA and the VOXEL variant the paper runs on each trace, per trace,
/// video and buffer.
pub(crate) fn fig8_cells(n: usize) -> Vec<Scenario> {
    let mut cells = Vec::new();
    for trace in ["tmobile", "verizon"] {
        for video in EVAL_VIDEOS {
            for buffer in BUFFERS {
                cells.extend(["BOLA", voxel_for(trace)].map(|s| cell(n, video, s, buffer, trace)));
            }
        }
    }
    cells
}

pub(crate) fn fig8(o: &mut Out, runs: &[Run]) {
    header(o, "Fig 8", "average bitrates (kbps): BOLA vs VOXEL");
    writeln!(
        o,
        "{:20} {:>4} {:>10} {:>10}",
        "panel", "buf", "BOLA", "VOXEL"
    );
    for pair in runs.chunks_exact(2) {
        let ((c, bola), (_, vox)) = (&pair[0], &pair[1]);
        writeln!(
            o,
            "{:20} {:>4} {:>10.0} {:>10.0}",
            panel(c),
            c.buffer_segments,
            bola.bitrate_mean_kbps(),
            vox.bitrate_mean_kbps(),
        );
    }
    writeln!(
        o,
        "\n# expectation (paper): VOXEL bitrates at least on par with BOLA, mostly higher"
    );
}

pub(crate) fn fig9_cells(n: usize) -> Vec<Scenario> {
    let panels = [
        ("att", "ToS", 2),
        ("3g", "Sintel", 3),
        ("verizon", "ED", 3),
        ("tmobile", "BBB", 3),
    ];
    three_systems(n, &panels)
}

pub(crate) fn fig9(o: &mut Out, runs: &[Run]) {
    header(
        o,
        "Fig 9",
        "SSIM distributions of streamed segments: BOLA vs BETA vs VOXEL",
    );
    let probes = grid(12, 0.85, 0.0125);
    for (c, agg) in runs {
        if c.system == "BOLA" {
            let (trace, video) = (c.trace.legend(), c.video.short_name());
            let buffer = c.buffer_segments;
            writeln!(o, "\n## {trace} / {video} / {buffer}-segment buffer");
        }
        print_cdf(o, &c.system, &agg.pooled_ssims(), &probes);
        writeln!(
            o,
            "{:24} mean SSIM {:.4}  bufRatio p90 {:.2}%",
            "",
            agg.mean_ssim(),
            agg.buf_ratio_p90()
        );
    }
    writeln!(o, "\n# expectation (paper): VOXEL's SSIM distribution at or better than BETA everywhere; trades SSIM only for far lower bufRatio vs BOLA");
}

const FIG10_SYSTEMS: [&str; 3] = ["BOLA", "BOLA-SSIM", "VOXEL"];

/// Isolates the two upgrades: BOLA→BOLA-SSIM adds the SSIM utility +
/// partial-download decision space (more quality, slightly more
/// rebuffering); BOLA-SSIM→VOXEL adds keep-partial abandonment over QUIC\*
/// (the rebuffering win). One trial per trace (the ensemble provides the
/// repetition); the fast mode uses a subset of the 86 traces.
pub(crate) fn fig10_cells(n: usize) -> Vec<Scenario> {
    let traces = if n >= 30 { 86 } else { 24 };
    let mut cells = Vec::new();
    for buffer in [1, 7] {
        for system in FIG10_SYSTEMS {
            cells.extend((0..traces).map(|i| cell(1, "BBB", system, buffer, &format!("raw3g{i}"))));
        }
    }
    cells
}

pub(crate) fn fig10(o: &mut Out, runs: &[Run]) {
    let traces = runs.len() / (2 * FIG10_SYSTEMS.len());
    header(
        o,
        "Fig 10",
        &format!("BOLA vs BOLA-SSIM vs VOXEL over {traces} raw 3G traces"),
    );
    for group in runs.chunks_exact(traces) {
        let (c, system) = (&group[0].0, group[0].0.system.as_str());
        if system == FIG10_SYSTEMS[0] {
            writeln!(o, "\n## {}-segment buffer", c.buffer_segments);
        }
        let agg = Aggregate::new(group.iter().flat_map(|(_, a)| a.trials.clone()).collect());
        let ratios: Vec<f64> = agg.trials.iter().map(|t| t.buf_ratio_pct()).collect();
        writeln!(
            o,
            "{system:10} mean bufRatio {:5.2}%  p90 {:5.2}%  p95 {:5.2}%  mean SSIM {:.4}",
            agg.buf_ratio_mean(),
            voxel_sim::stats::percentile(&ratios, 0.90),
            voxel_sim::stats::percentile(&ratios, 0.95),
            agg.mean_ssim(),
        );
        print_cdf(
            o,
            &format!("{system} bufRatio"),
            &ratios,
            &grid(8, 0.0, 5.0),
        );
    }
    writeln!(o, "\n# expectation (paper, 1-seg): BOLA 7.9%, BOLA-SSIM 8.2% (+SSIM 0.02), VOXEL 5.1% mean bufRatio with the same +0.02 SSIM");
    writeln!(
        o,
        "# expectation (paper, 7-seg): 7.1%/7.1%/2.8% with SSIMs 0.865/0.898/0.895"
    );
}

fn accumulated_avg(series: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(series.len());
    let mut sum = 0.0;
    for (i, s) in series.iter().enumerate() {
        sum += s;
        out.push(sum / (i + 1) as f64);
    }
    out
}

/// The two synthetic traces of Fig 11a–c, by name.
const FIG11_TRACES: [(&str, &str); 2] = [("const", "const10.5"), ("step", "step10.75-10.5@70")];

/// BOLA and VOXEL on the synthetic traces with a 28 s buffer at one trial
/// (11a) and four (11b/11c); then in the wild per buffer and video (11d).
pub(crate) fn fig11_cells(n: usize) -> Vec<Scenario> {
    let mut cells = Vec::new();
    for trials in [1, 4] {
        for (_, trace) in FIG11_TRACES {
            cells.extend(["BOLA", "VOXEL"].map(|s| cell(trials, "BBB", s, 7, trace)));
        }
    }
    for buffer in [1, 7] {
        for video in EVAL_VIDEOS {
            cells.extend(["BOLA", "VOXEL"].map(|s| cell(n, video, s, buffer, "wifi")));
        }
    }
    cells
}

pub(crate) fn fig11(o: &mut Out, runs: &[Run]) {
    // BOLA then VOXEL on each trace, in the order of FIG11_TRACES.
    let tname = |i: usize| FIG11_TRACES[i / 2].0;
    let (accumulated, rest) = runs.split_at(2 * FIG11_TRACES.len());
    let (distributions, wild) = rest.split_at(2 * FIG11_TRACES.len());
    header(
        o,
        "Fig 11a",
        "accumulated average SSIM while streaming BBB, 28 s buffer",
    );
    for (i, (c, agg)) in accumulated.iter().enumerate() {
        let ssims = agg.trials[0].ssims();
        let acc = accumulated_avg(&ssims);
        let cols: Vec<String> = acc
            .iter()
            .enumerate()
            .step_by(7)
            .map(|(i, v)| format!("{}%:{v:.3}", i * 100 / acc.len().max(1)))
            .collect();
        writeln!(o, "{:6} ({:5}) {}", c.system, tname(i), cols.join(" "));
        writeln!(
            o,
            "{:14} mean {:.4}  perfect-SSIM segments {:.0}%  bufRatio {:.2}%",
            "",
            agg.mean_ssim(),
            perfect_pct(&ssims),
            agg.buf_ratio_mean()
        );
    }
    writeln!(o, "# expectation (paper): VOXEL never below 0.95 during startup, perfect scores for 65% (const) / 80% (step) of segments; BOLA 0%/3%");

    header(o, "Fig 11b/11c", "SSIM CDFs on the synthetic traces");
    let probes = grid(12, 0.88, 0.01);
    for (i, (c, agg)) in distributions.iter().enumerate() {
        let label = format!("{} ({})", c.system, tname(i));
        print_cdf(o, &label, &agg.pooled_ssims(), &probes);
    }

    header(
        o,
        "Fig 11d + Fig 13",
        "in-the-wild trials (university-WiFi-like trace)",
    );
    for (c, agg) in wild {
        writeln!(
            o,
            "buf={} {:7} {:6} bufRatio p90 {:5.2}%  mean SSIM {:.4}",
            c.buffer_segments,
            c.video.short_name(),
            c.system,
            agg.buf_ratio_p90(),
            agg.mean_ssim(),
        );
    }
    writeln!(o, "# expectation (paper): comparable SSIM; VOXEL significantly lower bufRatio at the 1-segment buffer");
}

pub(crate) fn fig12_cells(n: usize) -> Vec<Scenario> {
    let mut cells = Vec::new();
    for video in EVAL_VIDEOS {
        for buffer in BUFFERS {
            cells.extend(["BOLA", "VOXEL"].map(|s| cell(n, video, s, buffer, "cross20")));
        }
    }
    cells
}

pub(crate) fn fig12(o: &mut Out, runs: &[Run]) {
    header(
        o,
        "Fig 12",
        "BOLA vs VOXEL with 20 Mbps cross-traffic on a 20 Mbps link",
    );
    writeln!(
        o,
        "{:8} {:>4} {:>8} {:>12} {:>14}",
        "video", "buf", "system", "bufRatio-p90", "bitrate-kbps"
    );
    for (c, agg) in runs {
        writeln!(
            o,
            "{:8} {:>4} {:>8} {:>11.2}% {:>14.0}",
            c.video.short_name(),
            c.buffer_segments,
            c.system,
            agg.buf_ratio_p90(),
            agg.bitrate_mean_kbps(),
        );
    }
    writeln!(o, "\n# expectation (paper): VOXEL near-zero bufRatio even at the 1-segment buffer, without sacrificing bitrate");
}

/// Challenging conditions, as in the paper ("scenarios where network
/// throughput was as low as 0.3 Mbps"): BOLA and VOXEL on the six
/// lowest-mean traces of the raw 3G ensemble, 1-segment (live-like)
/// buffer, one trial each.
pub(crate) fn fig14_cells(_: usize) -> Vec<Scenario> {
    let mut by_mean: Vec<usize> = (0..86).collect();
    by_mean.sort_by(|&a, &b| {
        let ma = generators::norway_3g_raw(a, 60).mean_mbps();
        let mb = generators::norway_3g_raw(b, 60).mean_mbps();
        ma.partial_cmp(&mb).expect("finite")
    });
    let pair = |i| ["BOLA", "VOXEL"].map(|s| cell(1, "BBB", s, 1, &format!("raw3g{i}")));
    by_mean.into_iter().take(6).flat_map(pair).collect()
}

pub(crate) fn fig14(o: &mut Out, runs: &[Run]) {
    header(
        o,
        "Fig 14",
        "synthetic 54-user panel: BOLA (A) vs VOXEL (B)",
    );
    let mut prefer = 0.0;
    let mut stop_a = 0.0;
    let mut stop_b = 0.0;
    let mut mos = [[0.0f64; 4]; 2];
    for (i, pair) in runs.chunks_exact(2).enumerate() {
        let s = run_survey(
            &pair[0].1.trials[0],
            &pair[1].1.trials[0],
            54,
            14 + i as u64,
        );
        prefer += s.prefer_b;
        stop_a += s.would_stop_a;
        stop_b += s.would_stop_b;
        for (k, m) in [s.mos_a, s.mos_b].into_iter().enumerate() {
            mos[k][0] += m.clarity;
            mos[k][1] += m.glitches;
            mos[k][2] += m.fluidity;
            mos[k][3] += m.experience;
        }
    }
    let n = (runs.len() / 2) as f64;
    writeln!(
        o,
        "{:10} {:>8} {:>8} {:>8} {:>10}",
        "system", "clarity", "glitches", "fluidity", "experience"
    );
    for (k, name) in ["BOLA", "VOXEL"].into_iter().enumerate() {
        writeln!(
            o,
            "{:10} {:>8.2} {:>8.2} {:>8.2} {:>10.2}",
            name,
            mos[k][0] / n,
            mos[k][1] / n,
            mos[k][2] / n,
            mos[k][3] / n
        );
    }
    writeln!(o,
        "\npreferred VOXEL: {:.0}%   would stop BOLA stream: {:.0}%   would stop VOXEL stream: {:.0}%",
        100.0 * prefer / n,
        100.0 * stop_a / n,
        100.0 * stop_b / n
    );
    writeln!(o, "# expectation (paper): 84% prefer VOXEL; fluidity +1.7, experience +0.77, clarity -0.49, glitches -0.19; stop 31% vs 10%");
}

pub(crate) fn fig15(o: &mut Out, _: &[Run]) {
    header(
        o,
        "Fig 15",
        "per-segment bitrate (Mbps) across quality levels",
    );
    for name in ["ED", "Sintel"] {
        let v = Video::generate(video(name));
        writeln!(o, "\n## {name}");
        for q in [12usize, 11, 10, 8, 6, 4] {
            let level = QualityLevel::try_from(q).expect("valid");
            let rates: Vec<String> = v
                .segments
                .iter()
                .step_by(5)
                .map(|s| format!("{:.1}", s.bitrate_mbps(level)))
                .collect();
            writeln!(o, "Q{q:<2} {}", rates.join(" "));
        }
        let level = QualityLevel::MAX;
        let rates: Vec<f64> = v.segments.iter().map(|s| s.bitrate_mbps(level)).collect();
        let max = rates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        writeln!(
            o,
            "Q12 stats: mean {:.2} Mbps, std {:.2} Mbps, peak {:.2} Mbps (2x cap: {:.2})",
            voxel_sim::stats::mean(&rates),
            voxel_sim::stats::std_dev(&rates),
            max,
            2.0 * level.avg_bitrate_mbps(),
        );
    }
    writeln!(o, "\n# expectation (paper): vastly different per-segment bitrates, peaks at most 2x the average");
}

/// Appendix B's 750-packet queue: BOLA, VOXEL, and VOXEL over the
/// delay-based controller.
pub(crate) fn fig16_cells(n: usize) -> Vec<Scenario> {
    let mut cells = Vec::new();
    for (trace, videos) in LTE_PANELS {
        let voxel = voxel_for(trace);
        for video in videos {
            for buffer in BUFFERS {
                for who in ["BOLA", voxel, &format!("{voxel}@delay")] {
                    cells.push(Scenario {
                        queue_packets: 750,
                        ..cell(n, video, who, buffer, trace)
                    });
                }
            }
        }
    }
    cells
}

pub(crate) fn fig16(o: &mut Out, runs: &[Run]) {
    header(o, "Fig 16", "bufRatio with a 750-packet network queue");
    writeln!(
        o,
        "{:20} {:>4} {:>8} {:>12}",
        "panel", "buf", "system", "bufRatio-p90"
    );
    for (c, agg) in runs {
        let label = match c.cc {
            Some(CcKind::Delay) => "VOXEL+delayCC",
            _ => &c.system,
        };
        writeln!(
            o,
            "{:20} {:>4} {:>14} {:>11.2}%",
            panel(c),
            c.buffer_segments,
            label,
            agg.buf_ratio_p90(),
        );
    }
    writeln!(o, "\n# expectation (paper): VOXEL keeps a slight edge at small buffers; occasionally worse on Verizon at larger buffers (loss-based CC vs deep queues).");
    writeln!(o, "# The VOXEL+delayCC rows are the paper's Appendix-B future-work suggestion: a delay-based controller sidesteps the bufferbloat penalty.");
}

/// The Fig 17c/17d systems, in row order.
const TUNINGS: [&str; 3] = ["BETA", "VOXEL", "VOXEL-tuned"];

/// BOLA and VOXEL over 3G and AT&T (17a/17b); the tuning ablation on
/// T-Mobile (17c/17d).
pub(crate) fn fig17_cells(n: usize) -> Vec<Scenario> {
    let mut cells = Vec::new();
    for trace in ["3g", "att"] {
        for video in EVAL_VIDEOS {
            for buffer in BUFFERS {
                cells.extend(["BOLA", "VOXEL"].map(|s| cell(n, video, s, buffer, trace)));
            }
        }
    }
    for buffer in BUFFERS {
        cells.extend(TUNINGS.map(|s| cell(n, "BBB", s, buffer, "tmobile")));
    }
    cells
}

pub(crate) fn fig17(o: &mut Out, runs: &[Run]) {
    let (bitrates, ablation) = runs.split_at(runs.len() - BUFFERS.len() * TUNINGS.len());
    header(o, "Fig 17a/17b", "average bitrates over 3G and AT&T (kbps)");
    for pair in bitrates.chunks_exact(2) {
        let ((c, bola), (_, vox)) = (&pair[0], &pair[1]);
        writeln!(
            o,
            "{:14} buf={} BOLA {:>7.0}  VOXEL {:>7.0}",
            panel(c),
            c.buffer_segments,
            bola.bitrate_mean_kbps(),
            vox.bitrate_mean_kbps(),
        );
    }

    header(
        o,
        "Fig 17c/17d",
        "the tuning ablation: aggressive vs tuned VOXEL vs BETA on T-Mobile (BBB)",
    );
    let probes = grid(12, 0.85, 0.0125);
    for (c, agg) in ablation {
        if c.system == TUNINGS[0] {
            writeln!(o, "\n## buffer {}", c.buffer_segments);
        }
        writeln!(
            o,
            "{:12} bufRatio p90 {:5.2}%  mean SSIM {:.4}",
            c.system,
            agg.buf_ratio_p90(),
            agg.mean_ssim()
        );
        if c.buffer_segments == 3 {
            print_cdf(
                o,
                &format!("{} SSIM", c.system),
                &agg.pooled_ssims(),
                &probes,
            );
        }
    }
    writeln!(o, "\n# expectation (paper): aggressive VOXEL beats BETA in SSIM but can lose in bufRatio on T-Mobile; the single safety-factor tuning wins both");
}

/// BOLA and VOXEL on the FCC trace (18a/18b); the partial-reliability
/// ablation, VOXEL-rel then VOXEL, on T-Mobile and Verizon (18c/18d).
pub(crate) fn fig18_cells(n: usize) -> Vec<Scenario> {
    let mut cells = Vec::new();
    for video in EVAL_VIDEOS {
        for buffer in BUFFERS {
            cells.extend(["BOLA", "VOXEL"].map(|s| cell(n, video, s, buffer, "fcc")));
        }
    }
    for (trace, videos) in LTE_PANELS {
        for video in videos {
            for buffer in BUFFERS {
                let pair = ["VOXEL-rel", voxel_for(trace)];
                cells.extend(pair.map(|s| cell(n, video, s, buffer, trace)));
            }
        }
    }
    cells
}

pub(crate) fn fig18(o: &mut Out, runs: &[Run]) {
    let (fcc, lte) = runs.split_at(2 * EVAL_VIDEOS.len() * BUFFERS.len());
    header(
        o,
        "Fig 18a/18b",
        "FCC trace: bufRatio and bitrate, BOLA vs VOXEL",
    );
    for pair in fcc.chunks_exact(2) {
        let ((c, bola), (_, vox)) = (&pair[0], &pair[1]);
        writeln!(
            o,
            "FCC/{:7} buf={} BOLA p90 {:5.2}% @{:>6.0}kbps   VOXEL p90 {:5.2}% @{:>6.0}kbps",
            c.video.short_name(),
            c.buffer_segments,
            bola.buf_ratio_p90(),
            bola.bitrate_mean_kbps(),
            vox.buf_ratio_p90(),
            vox.bitrate_mean_kbps(),
        );
    }

    header(
        o,
        "Fig 18c/18d",
        "partial-reliability ablation: VOXEL rel (fully reliable) vs VOXEL",
    );
    for pair in lte.chunks_exact(2) {
        let ((c, rel), (_, vox)) = (&pair[0], &pair[1]);
        writeln!(
            o,
            "{:18} buf={} VOXEL-rel p90 {:5.2}% ssim {:.4} @{:5.0}kbps   VOXEL p90 {:5.2}% ssim {:.4} @{:5.0}kbps",
            panel(c),
            c.buffer_segments,
            rel.buf_ratio_p90(),
            rel.mean_ssim(),
            rel.bitrate_mean_kbps(),
            vox.buf_ratio_p90(),
            vox.mean_ssim(),
            vox.bitrate_mean_kbps(),
        );
    }
    writeln!(o, "\n# expectation (paper): partial reliability roughly halves bufRatio on Verizon; wins all but one T-Mobile case.");
    writeln!(o, "# In this reproduction ABR*'s deadline-driven cut already prevents stalls in both modes, so the");
    writeln!(o, "# partial-reliability gain shows up as delivered quality/bitrate (reliable mode wastes capacity");
    writeln!(
        o,
        "# retransmitting data whose deadline will pass, and cannot recover mid-stream holes)."
    );
}

pub(crate) fn fig19(o: &mut Out, _: &[Run]) {
    let videos = generate(["P1", "P5", "P6", "P7", "P9", "P10"]);
    tolerance_panels(o, "Fig 19", &videos, |level, target| {
        format!("droppable-frame CDF at {level}, SSIM >= {target}")
    });
    writeln!(o, "\n# expectation (paper): P9 (static unboxing) tolerates ~80% drops; P10 (street dance, no cuts) tolerates almost none; the rest behave like the Table 1 videos");
}

pub(crate) fn fig_retx_cells(n: usize) -> Vec<Scenario> {
    BUFFERS
        .map(|buffer| cell(n, "BBB", "VOXEL", buffer, "verizon"))
        .into()
}

pub(crate) fn fig_retx(o: &mut Out, runs: &[Run]) {
    header(
        o,
        "§4.2/§5.2 text",
        "selective retransmission + frame-drop composition (VOXEL, Verizon)",
    );
    writeln!(
        o,
        "{:>4} {:>12} {:>12} {:>14} {:>16} {:>18}",
        "buf", "lost(kB)", "recovered", "residual-loss", "segs-with-drops", "ref-drop-share"
    );
    for (c, agg) in runs {
        let lost: u64 = agg.trials.iter().map(|t| t.bytes_lost).sum();
        let rec: u64 = agg.trials.iter().map(|t| t.bytes_recovered).sum();
        let segs: u32 = agg.trials.iter().map(|t| t.segments_with_drops).sum();
        let total_segs: usize = agg.trials.iter().map(|t| t.segment_scores.len()).sum();
        let dropped: u32 = agg.trials.iter().map(|t| t.frames_dropped).sum();
        let ref_dropped: u32 = agg.trials.iter().map(|t| t.referenced_frames_dropped).sum();
        writeln!(
            o,
            "{:>4} {:>12} {:>11.0}% {:>13.1}% {:>15.1}% {:>17.1}%",
            c.buffer_segments,
            lost / 1000,
            if lost > 0 {
                100.0 * rec as f64 / lost as f64
            } else {
                100.0
            },
            agg.residual_loss_mean_pct(),
            100.0 * segs as f64 / total_segs.max(1) as f64,
            if dropped > 0 {
                100.0 * ref_dropped as f64 / dropped as f64
            } else {
                0.0
            },
        );
    }
    writeln!(
        o,
        "\n# expectation (paper): residual loss 0.9/1.5/1.8% at 2/3/7-segment buffers;"
    );
    writeln!(o, "# frames dropped in ~9% of segments; in 85% of those, b-frames alone were not enough (46% of drops were referenced frames)");
}

/// The offline analysis (Fig 2b) shows the rank ordering tolerates far more
/// tail drops than the alternatives; this shows the consequence during
/// playback: with the same ABR and transport, worse orderings turn the same
/// truncations into lower SSIM. The manifests are forced, so the shared
/// cache (which holds the §4.1 selection) is not used.
pub(crate) fn ablate_ordering(o: &mut Out, _: &[Run]) {
    header(
        o,
        "ablation: frame ordering",
        "VOXEL end-to-end with the §4.1 ordering forced (BBB, Verizon, 2-segment buffer)",
    );
    let video = Arc::new(Video::generate(VideoId::Bbb));
    let qoe = QoeModel::default();
    let base_trace = TraceFamily::Verizon.build(TRACE_SEED, 300);
    let trials = o.trials;
    let levels: Vec<QualityLevel> = QualityLevel::all().collect();

    writeln!(
        o,
        "{:20} {:>12} {:>10} {:>9} {:>10}",
        "ordering", "bufRatio-p90", "SSIM", "skipped", "drops/seg"
    );
    let mut variants: Vec<(String, Manifest)> = OrderingKind::ALL
        .iter()
        .map(|&k| {
            (
                format!("forced {k}"),
                Manifest::prepare_forced(&video, &qoe, &levels, k),
            )
        })
        .collect();
    variants.push(("§4.1 selection".into(), Manifest::prepare(&video, &qoe)));

    for (name, manifest) in variants {
        let manifest = Arc::new(manifest);
        let d = base_trace.duration_s();
        let results: Vec<_> = (0..trials)
            .map(|i| {
                let session = Session::new(
                    PathConfig::new(base_trace.shift(i * d / trials), 32),
                    manifest.clone(),
                    video.clone(),
                    qoe.clone(),
                    Box::new(AbrStar::default()),
                    PlayerConfig::new(2, TransportMode::Split),
                );
                session.run()
            })
            .collect();
        let agg = Aggregate::new(results);
        writeln!(
            o,
            "{:20} {:>11.2}% {:>10.4} {:>8.1}% {:>10.1}",
            name,
            agg.buf_ratio_p90(),
            agg.mean_ssim(),
            agg.data_skipped_mean_pct(),
            per_trial_mean(&agg, |t| {
                t.frames_dropped as f64 / t.segment_scores.len().max(1) as f64
            }),
        );
    }
    writeln!(
        o,
        "\n# expectation: identical bufRatio (the transport/ABR cut is the same) with SSIM"
    );
    writeln!(
        o,
        "# ordered rank ~ §4.1-selection > unreferenced-tail > original — the ordering"
    );
    writeln!(
        o,
        "# determines how much quality each truncated byte costs."
    );
}

/// Bottleneck rate per session, Mbit/s. The link and its droptail queue
/// scale with the fleet, so the 8-session rows printed here and the
/// 4-session rows the tests run probe the same per-flow operating point
/// and differ only in statistical mass.
const PER_SESSION_MBPS: f64 = 1.5;

/// The shootout matrix at `whole` sessions capped at `cap_s` simulated
/// seconds: homogeneous fleets of each controller anchor the fair
/// baselines, then the contention mixes. The three-way mix splits the
/// fleet 3:3:2 (cubic:delay:bbr), rounding towards cubic.
fn cc_mixes(whole: usize, cap_s: usize) -> Vec<(&'static str, FleetSpec)> {
    let half = whole / 2;
    let (cubic, delay) = ((3 * whole).div_ceil(8), 3 * whole / 8);
    let bbr = whole - cubic - delay;
    // A buffer that halved per flow when the fleet doubled would change
    // the contention regime, and a sub-BDP buffer at 300 ms RTT lets
    // BBR's inflight cap starve loss-based flows outright. Simultaneous
    // starts: a stagger hands early sessions a head start that reads as
    // unfairness over a capped horizon.
    let tail = format!(
        "const{}:buf3:q{}:d300:fifo:stg0:cap{cap_s}",
        PER_SESSION_MBPS * whole as f64,
        16 * whole
    );
    [
        ("all-cubic", format!("{whole}xVOXEL@cubic")),
        ("all-delay", format!("{whole}xVOXEL@delay")),
        ("all-bbr", format!("{whole}xVOXEL@bbr")),
        ("cubic+bbr", format!("{half}xVOXEL@bbr+{half}xVOXEL@cubic")),
        (
            "cubic+delay+bbr",
            format!("{cubic}xVOXEL@cubic+{delay}xVOXEL@delay+{bbr}xVOXEL@bbr"),
        ),
    ]
    .map(|(name, members)| {
        let spec = FleetSpec::parse(&format!("BBB:{members}:{tail}")).expect("cc mixes parse");
        (name, spec)
    })
    .into()
}

/// Same ABR, same video, one shared FIFO droptail bottleneck; only the
/// congestion-controller mix varies. At 8 flows and 120 s real controller
/// pathologies emerge (delay-based late-comer collapse, CUBIC pinned to
/// the bottom rung under BBR), so oracle verdicts print as findings: the
/// table is the methodology's output. The 4-session, 30-s rows are held
/// to the oracles by this module's tests.
pub(crate) fn cc_shootout(o: &mut Out, _: &[Run]) {
    let cache = ContentCache::top_level_only();
    let sessions = 8;
    let link_mbps = PER_SESSION_MBPS * sessions as f64;
    writeln!(
        o,
        "# cc shootout: VOXEL ABR, {link_mbps} Mbit/s FIFO droptail bottleneck \
         ({PER_SESSION_MBPS} Mbit/s per session)"
    );
    writeln!(
        o,
        "{:18} {:>3} {:>7} {:>7} {:>7} {:>9}   mean share by cc group",
        "mix", "n", "jain", "util%", "ssim", "stall_s"
    );
    for (name, spec) in cc_mixes(sessions, 120) {
        let r = run_fleet(&spec, &cache, Tracer::disabled()).expect("cc mixes run");
        let delivered_bits: f64 = r.flows.iter().map(|f| f.bytes_delivered as f64 * 8.0).sum();
        let util_pct = if r.end_s > 0.0 {
            100.0 * delivered_bits / (link_mbps * 1e6 * r.end_s)
        } else {
            0.0
        };
        let shares: Vec<String> = cc_group_shares(&spec, &r)
            .iter()
            .map(|(cc, pct)| format!("{}:{pct:.1}%", cc.name()))
            .collect();
        writeln!(
            o,
            "{:18} {:>3} {:>7.3} {:>7.1} {:>7.3} {:>9.1}   {}",
            name,
            spec.total_sessions(),
            r.jain,
            util_pct,
            r.mean_ssim(),
            r.total_stall_s(),
            shares.join(" "),
        );
        for v in fleet_invariants(&spec, &r) {
            writeln!(o, "finding {name}: {v}");
        }
    }
}

/// The spec of an edge golden; the two share one 16-session flash crowd.
fn edge_golden(name: &str) -> FleetSpec {
    let golden = Golden::named(name).expect("the edge goldens are in GOLDENS");
    FleetSpec::parse(golden.spec).expect("golden specs parse")
}

/// Zipf popularity (s = 1, the classic web-object fit) over the Table 1
/// titles in rank order, with Poisson arrivals at 0.5 sessions/s: the
/// flash-crowd shape the goldens idealize, sized to `spec`.
fn zipf_workload(spec: &FleetSpec) -> Workload {
    let catalog = [VideoId::Bbb, VideoId::Tos, VideoId::Ed, VideoId::Sintel];
    zipf_poisson_arrivals(7, "edge_sweep", spec.total_sessions(), &catalog, 1.0, 0.5)
}

/// Same fleet, same bottleneck; only the edge tier varies: the golden
/// extremes, the generated zipf workload, then routing × eviction on a
/// 16 MB budget and the reliable-prefix middle ground. Oracle verdicts
/// print as findings; the goldens and the zipf row are held to them by
/// tests.
pub(crate) fn edge_sweep(o: &mut Out, _: &[Run]) {
    let cache = ContentCache::top_level_only();
    let hot_spec = edge_golden("fleet-edge4x16-hot");
    let cold_spec = edge_golden("fleet-edge4x16-cold");
    let tier = hot_spec.edge.as_ref().expect("hot golden has an edge tier");
    writeln!(
        o,
        "# edge sweep: {} sessions, {} edges over a {} Mbit/s origin backhaul",
        hot_spec.total_sessions(),
        tier.edges,
        tier.origin_mbps,
    );
    writeln!(
        o,
        "{:16} {:>3} {:>5} {:>6} {:>6} {:>9} {:>6} {:>7} {:>8}",
        "tier", "n", "edges", "hit%", "evict", "originMB", "load%", "ssim", "stall_s"
    );
    let run =
        |spec: &FleetSpec| run_fleet(spec, &cache, Tracer::disabled()).expect("edge rows run");
    let origin_bytes = |r: &FleetResult| {
        r.edge
            .as_ref()
            .expect("edge rows carry a report")
            .origin_bytes
    };
    let report = |o: &mut Out, name: &str, spec: &FleetSpec, r: &FleetResult, hot: bool| {
        let e = r.edge.as_ref().expect("edge rows carry a report");
        writeln!(
            o,
            "{:16} {:>3} {:>5} {:>6.1} {:>6} {:>9.2} {:>6.1} {:>7.3} {:>8.1}",
            name,
            r.sessions.len(),
            e.edges.len(),
            e.hit_ratio_pct,
            e.evictions,
            e.origin_bytes as f64 / 1e6,
            e.origin_load_pct,
            r.mean_ssim(),
            r.total_stall_s(),
        );
        let mut violations = fleet_invariants(spec, r);
        if hot {
            violations.extend(edge_hot_invariants(r));
        }
        for v in violations {
            writeln!(o, "finding {name}: {v}");
        }
    };

    let hot = run(&hot_spec);
    report(o, "golden-hot", &hot_spec, &hot, true);
    let cold = run(&cold_spec);
    report(o, "golden-cold", &cold_spec, &cold, false);

    // The point of the tier: the hot cache shields the origin from all
    // but a sliver of the crowd.
    let (hot_bytes, cold_bytes) = (origin_bytes(&hot), origin_bytes(&cold));
    let fraction = hot_bytes as f64 / cold_bytes.max(1) as f64;
    writeln!(
        o,
        "# origin shield: hot {hot_bytes} B vs cold {cold_bytes} B \
         ({:.1}% of cold; gate {:.0}%; hit floor {:.0}%)",
        100.0 * fraction,
        100.0 * EDGE_HOT_ORIGIN_FRACTION_OF_COLD,
        100.0 * EDGE_HOT_HIT_RATIO_FLOOR,
    );
    if fraction > EDGE_HOT_ORIGIN_FRACTION_OF_COLD {
        writeln!(o,
            "finding origin-shield: hot tier pulled {:.1}% of the cold tier's origin bytes (gate {:.0}%)",
            100.0 * fraction,
            100.0 * EDGE_HOT_ORIGIN_FRACTION_OF_COLD,
        );
    }

    let zipf = run_fleet_workload(
        &hot_spec,
        &zipf_workload(&hot_spec),
        &cache,
        Tracer::disabled(),
    )
    .expect("the zipf workload runs");
    report(o, "zipf-poisson", &hot_spec, &zipf, false);

    for routing in [Routing::Hash, Routing::Robin, Routing::Least] {
        for eviction in [EvictionPolicy::Lru, EvictionPolicy::Lfu] {
            let mut spec = hot_spec.clone();
            let t = spec.edge.as_mut().expect("hot golden has an edge tier");
            (t.routing, t.eviction, t.cache_mb) = (routing, eviction, Some(16.0));
            let name = format!("r{}-p{}-cb16", routing.as_str(), eviction.as_str());
            report(o, &name, &spec, &run(&spec), false);
        }
    }
    let mut spec = hot_spec.clone();
    spec.edge
        .as_mut()
        .expect("hot golden has an edge tier")
        .admission = Admission::ReliablePrefix;
    report(o, "reliable-prefix", &spec, &run(&spec), false);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cc mixes at half size and a 30-s horizon pass every fleet
    /// oracle: the fairness band for each mix and per-cc-group
    /// starvation.
    #[test]
    fn small_cc_mixes_pass_the_fleet_oracles() {
        let cache = ContentCache::top_level_only();
        for (name, spec) in cc_mixes(4, 30) {
            let r = run_fleet(&spec, &cache, Tracer::disabled()).expect("cc mixes run");
            assert_eq!(fleet_invariants(&spec, &r), Vec::<String>::new(), "{name}");
        }
    }

    /// The generated-workload path (`run_fleet_workload`) on the hot
    /// golden's topology passes every fleet oracle.
    #[test]
    fn zipf_workload_on_the_hot_topology_passes_the_fleet_oracles() {
        let hot = edge_golden("fleet-edge4x16-hot");
        let cache = ContentCache::top_level_only();
        let r = run_fleet_workload(&hot, &zipf_workload(&hot), &cache, Tracer::disabled())
            .expect("the zipf workload runs");
        assert_eq!(fleet_invariants(&hot, &r), Vec::<String>::new());
    }
}
