//! Integration tests pinning the paper's claims: the *offline* insight
//! analyses (§3, §4.1) and — via the testkit's deterministic scenario
//! runner — the headline end-to-end comparisons EXPERIMENTS.md records
//! (Fig 6 rebuffering, Fig 10 ablation), at reduced trial counts with
//! tolerance bands sized for them.

#![allow(clippy::expect_used, reason = "a test aborts on a failed run")]

use voxel::media::content::VideoId;
use voxel::media::gop::{FrameKind, FRAMES_PER_SEGMENT};
use voxel::media::ladder::QualityLevel;
use voxel::media::qoe::QoeModel;
use voxel::media::video::Video;
use voxel::prep::analysis::{analyze_segment, drop_tolerance};
use voxel::prep::manifest::Manifest;
use voxel::prep::ordering::OrderingKind;

#[test]
fn insight_1_half_the_segments_tolerate_10_to_20_percent_drops() {
    // §3 insight 1 at Q12 / SSIM 0.99, across all four evaluation videos.
    let model = QoeModel::default();
    for id in VideoId::EVAL {
        let video = Video::generate(id);
        let tolerant = video
            .segments
            .iter()
            .filter(|s| {
                model.max_droppable_frames(s, QualityLevel::MAX, 0.99) as f64
                    >= 0.10 * FRAMES_PER_SEGMENT as f64
            })
            .count();
        assert!(
            tolerant * 2 >= video.segments.len(),
            "{id}: only {tolerant}/75 segments tolerate a 10% drop"
        );
    }
}

#[test]
fn insight_1_referenced_frames_are_among_the_droppable() {
    // The paper stresses that the droppable sets include *referenced*
    // frames (6-24% of them, video-dependent) — the capability BETA lacks.
    let model = QoeModel::default();
    let video = Video::generate(VideoId::Bbb);
    let mut referenced_dropped = 0usize;
    let mut dropped = 0usize;
    for seg in &video.segments {
        let n = model.max_droppable_frames(seg, QualityLevel::MAX, 0.99);
        for &f in voxel::media::qoe::drop_order(seg).iter().take(n) {
            dropped += 1;
            if !seg.gop.dependents[f].is_empty() {
                referenced_dropped += 1;
            }
        }
    }
    assert!(dropped > 0);
    let share = referenced_dropped as f64 / dropped as f64;
    assert!(
        share > 0.05,
        "referenced frames are {:.1}% of droppable frames; expected a meaningful share",
        100.0 * share
    );
}

#[test]
fn insight_2_rank_ordering_dominates_tail_grouping() {
    let model = QoeModel::default();
    for id in [VideoId::Bbb, VideoId::Tos] {
        let video = Video::generate(id);
        let mut rank_wins = 0usize;
        for seg in &video.segments {
            let rank = drop_tolerance(
                &model,
                seg,
                QualityLevel::MAX,
                OrderingKind::InboundRank,
                0.99,
            );
            let tail = drop_tolerance(
                &model,
                seg,
                QualityLevel::MAX,
                OrderingKind::UnreferencedTail,
                0.99,
            );
            if rank >= tail {
                rank_wins += 1;
            }
        }
        assert!(
            rank_wins * 10 >= video.segments.len() * 9,
            "{id}: rank ordering beats tail grouping on only {rank_wins}/75 segments"
        );
    }
}

#[test]
fn insight_3_virtual_levels_sit_between_real_levels() {
    // Fig 2c/2d: Q12/0.99 bitrates fall between Q11 and Q12 on average.
    let model = QoeModel::default();
    let video = Video::generate(VideoId::Bbb);
    let mut virt = Vec::new();
    let mut q11 = Vec::new();
    let mut q12 = Vec::new();
    for seg in &video.segments {
        let map = voxel::prep::analysis::BytesQoeMap::compute(
            &model,
            seg,
            QualityLevel::MAX,
            OrderingKind::InboundRank,
        );
        if let Some(p) = map.min_bytes_for(0.99) {
            virt.push(p.bytes as f64);
            q12.push(map.full_bytes() as f64);
            q11.push(seg.bytes(QualityLevel(11)) as f64);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&q11) < mean(&virt) && mean(&virt) < mean(&q12),
        "virtual level {:.0} should sit between Q11 {:.0} and Q12 {:.0}",
        mean(&virt),
        mean(&q11),
        mean(&q12)
    );
}

#[test]
fn manifest_analysis_respects_the_lower_bound_everywhere() {
    let model = QoeModel::default();
    let video = Video::generate(VideoId::Tos);
    for seg in video.segments.iter().step_by(7) {
        for level in [QualityLevel(9), QualityLevel::MAX] {
            let a = analyze_segment(&model, seg, level);
            // Delivering min_bytes achieves at least the bound.
            let reached = a
                .best
                .points
                .iter()
                .find(|p| u64::from(p.bytes) >= a.min_bytes)
                .expect("min_bytes is a map point");
            assert!(
                reached.ssim >= a.bound - 1e-9,
                "seg {} {level}: ssim {} below bound {}",
                seg.index,
                reached.ssim,
                a.bound
            );
        }
    }
}

#[test]
fn beta_ordering_ends_with_unreferenced_b_frames_only() {
    let model = QoeModel::default();
    let video = Video::generate(VideoId::Ed);
    let manifest = Manifest::prepare_levels(&video, &model, &[QualityLevel::MAX]);
    let entry = manifest.entry(4, QualityLevel::MAX);
    let seg = &video.segments[4];
    let tail = &entry.beta_order[entry.beta_order.len() - 32..];
    for &f in tail {
        assert_eq!(
            seg.gop.frames[f].kind,
            FrameKind::BUnref,
            "frame {f} in BETA's tail is not an unreferenced b-frame"
        );
    }
}

#[test]
fn fig2b_ordering_ranks_by_mean_drop_tolerance() {
    // Fig 2b: mean droppable share across BBB segments orders
    // rank ≫ tail ≫ original (EXPERIMENTS.md measures 33.5 / 22.0 / 11.7 %).
    // The bands assert the ordering with real separation, not the exact
    // percentages.
    let model = QoeModel::default();
    let video = Video::generate(VideoId::Bbb);
    let mean_tol = |ordering| {
        let tols: Vec<f64> = video
            .segments
            .iter()
            .map(|s| drop_tolerance(&model, s, QualityLevel::MAX, ordering, 0.99))
            .collect();
        tols.iter().sum::<f64>() / tols.len() as f64
    };
    let rank = mean_tol(OrderingKind::InboundRank);
    let tail = mean_tol(OrderingKind::UnreferencedTail);
    let original = mean_tol(OrderingKind::Original);
    assert!(
        rank >= tail + 0.05,
        "rank ordering ({rank:.3}) should beat tail grouping ({tail:.3}) by ≥5pp"
    );
    assert!(
        tail >= original + 0.02,
        "tail grouping ({tail:.3}) should beat original order ({original:.3}) by ≥2pp"
    );
}

/// Run `trials` trials of one testkit scenario and return the results.
fn run_system(content: &mut voxel::testkit::Content, spec: &str) -> Vec<voxel::core::TrialResult> {
    let scenario = voxel::testkit::Scenario::parse(spec).expect("spec parses");
    let run = voxel::testkit::run_scenario(&scenario, 2021, content).expect("scenario runs");
    assert!(run.ok(), "{spec}: oracle failures: {:?}", run.failures);
    run.trials.into_iter().map(|t| t.result).collect()
}

#[test]
fn headline_session_claims_fig6_and_fig10() {
    // The paper's headline cell (Fig 6, T-Mobile/ToS at a 1-segment
    // buffer): VOXEL suffers 25–97 % less p90 rebuffering than BOLA —
    // EXPERIMENTS.md measures BOLA 15.44 % vs VOXEL 0.00 % at 6 trials.
    // Plus the Fig 10 ablation shape on the same cell: bufRatio orders
    // BOLA ≥ BOLA-SSIM ≥ VOXEL (ABR* cuts ≥35 %) and VOXEL gives up no
    // SSIM for the win. Three trials per system keep tier-1 fast; the
    // bands are sized for that count.
    let mut content = voxel::testkit::Content::new();
    let bola = run_system(&mut content, "ToS:BOLA:tmobile:buf1:n3");
    let bola_ssim = run_system(&mut content, "ToS:BOLA-SSIM:tmobile:buf1:n3");
    let voxel = run_system(&mut content, "ToS:VOXEL:tmobile:buf1:n3");

    let ratios = |rs: &[voxel::core::TrialResult]| -> Vec<f64> {
        rs.iter().map(|r| r.buf_ratio_pct()).collect()
    };
    let p90 = |rs: &[voxel::core::TrialResult]| voxel::sim::stats::percentile(&ratios(rs), 0.90);
    let mean_buf = |rs: &[voxel::core::TrialResult]| voxel::sim::stats::mean(&ratios(rs));
    let mean_ssim = |rs: &[voxel::core::TrialResult]| {
        let s: Vec<f64> = rs.iter().map(|r| r.avg_ssim()).collect();
        voxel::sim::stats::mean(&s)
    };

    eprintln!(
        "bufRatio p90: BOLA {:.2}% BOLA-SSIM {:.2}% VOXEL {:.2}%",
        p90(&bola),
        p90(&bola_ssim),
        p90(&voxel)
    );
    eprintln!(
        "bufRatio mean: BOLA {:.2}% BOLA-SSIM {:.2}% VOXEL {:.2}%",
        mean_buf(&bola),
        mean_buf(&bola_ssim),
        mean_buf(&voxel)
    );
    eprintln!(
        "SSIM mean: BOLA {:.4} BOLA-SSIM {:.4} VOXEL {:.4}",
        mean_ssim(&bola),
        mean_ssim(&bola_ssim),
        mean_ssim(&voxel)
    );

    // Fig 6: BOLA stalls materially in this cell; VOXEL is near zero and
    // at least 25 % (the paper's weakest cell) below BOLA.
    assert!(
        p90(&bola) > 1.0,
        "BOLA p90 bufRatio {:.2}% — the challenging cell should stall",
        p90(&bola)
    );
    assert!(
        p90(&voxel) < 0.5,
        "VOXEL p90 bufRatio {:.2}% — expected near-zero",
        p90(&voxel)
    );
    assert!(
        p90(&voxel) <= 0.75 * p90(&bola),
        "VOXEL p90 {:.2}% not ≥25% below BOLA {:.2}%",
        p90(&voxel),
        p90(&bola)
    );

    // Fig 10 ablation shape: swapping BOLA's utility for SSIM does NOT
    // buy the rebuffering win — BOLA-SSIM stalls about as much as BOLA
    // (the paper measures slightly more: 8.2 % vs 7.9 %) — while ABR*'s
    // cross-layer decisions cut ≥35 % off both.
    assert!(
        mean_buf(&bola_ssim) >= 0.75 * mean_buf(&bola),
        "BOLA-SSIM mean bufRatio {:.2}% fixed BOLA's stalls ({:.2}%) by \
         itself — the ablation shape is broken",
        mean_buf(&bola_ssim),
        mean_buf(&bola)
    );
    let worst_baseline = mean_buf(&bola).min(mean_buf(&bola_ssim));
    assert!(
        mean_buf(&voxel) <= 0.65 * worst_baseline,
        "VOXEL mean bufRatio {:.2}% is not ≥35% below the baselines' {worst_baseline:.2}%",
        mean_buf(&voxel)
    );
    // And the win is not bought with quality: VOXEL trades at most "a
    // little SSIM" against BOLA where it wins bufRatio big (Fig 9's
    // wording) and stays above BOLA-SSIM.
    assert!(
        mean_ssim(&voxel) >= mean_ssim(&bola) - 0.02,
        "VOXEL SSIM {:.4} gave up more than a little quality vs BOLA {:.4}",
        mean_ssim(&voxel),
        mean_ssim(&bola)
    );
    assert!(
        mean_ssim(&voxel) >= mean_ssim(&bola_ssim) - 0.005,
        "VOXEL SSIM {:.4} fell below BOLA-SSIM's {:.4}",
        mean_ssim(&voxel),
        mean_ssim(&bola_ssim)
    );
}

#[test]
fn p_frames_carry_most_of_the_bytes() {
    // §6: "the videos contain more than 30% P-frames, which constitute at
    // least 56% of video data".
    for id in VideoId::EVAL {
        let video = Video::generate(id);
        let mut shares = Vec::new();
        for seg in &video.segments {
            let (_, p_share, _) = seg.gop.byte_shares();
            shares.push(p_share);
            // Even static/title segments keep P dominant-ish.
            assert!(p_share > 0.4, "{id} seg {}: P share {p_share}", seg.index);
            let (_, p_count, _, _) = seg.gop.kind_counts();
            assert!(p_count as f64 / FRAMES_PER_SEGMENT as f64 > 0.30);
        }
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        assert!(mean > 0.56, "{id}: mean P byte share {mean}");
    }
}
