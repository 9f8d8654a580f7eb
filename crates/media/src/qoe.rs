//! Analytic QoE model: SSIM (primary), VMAF and PSNR (companions).
//!
//! Replaces FFmpeg's `ssim` filter on decoded, zero-padded frames. The model
//! has two parts:
//!
//! 1. **Encoding distortion** (`base_distortion`): a rate–distortion curve
//!    `d = complexity · rd_coeff · (R_max / R_level)^rd_exp` against the 4K
//!    reference (§2 "Reference quality level"), so Q12 scores ≈0.995+, most
//!    Q9 segments fall below SSIM 0.99 (Fig 1d), and Q6 lands around
//!    0.9–0.97.
//! 2. **Loss distortion**: a lost (or partially lost, zero-padded) frame is
//!    concealed by copying the previous frame, costing `κ · motion · frac`;
//!    the error then propagates along the reference DAG with per-hop
//!    attenuation (decoder error concealment + intra-coded macroblocks),
//!    so dropping an early P-frame is far costlier than a tail b-frame.
//!
//! Calibration targets (verified by tests here and experiments in
//! `voxel-bench`): at Q12/SSIM 0.99 at least half the segments tolerate
//! 10–20 % frame drops (Fig 1a); tolerance shrinks at Q9 (Fig 1b) and
//! recovers when targeting 0.95 (Fig 1c); P9 tolerates ~80 % drops while
//! P10 tolerates almost none (Fig 19, §C).

use crate::gop::{GopStructure, FRAMES_PER_SEGMENT};
use crate::ladder::QualityLevel;
use crate::video::Segment;

/// Which QoE metric a component optimizes for (VOXEL is metric-agnostic,
/// §4.3 / Fig 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QoeMetric {
    /// Structural similarity (the paper's primary metric).
    #[default]
    Ssim,
    /// Netflix VMAF, 0..100.
    Vmaf,
    /// Peak signal-to-noise ratio, dB.
    Psnr,
}

/// QoE scores of a (possibly impaired) segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeScores {
    /// All-component SSIM in `[0, 1]`.
    pub ssim: f64,
    /// VMAF in `[0, 100]`.
    pub vmaf: f64,
    /// PSNR in dB (≈20–50).
    pub psnr_db: f64,
}

impl QoeScores {
    /// Extract the score for `metric`.
    pub fn get(&self, metric: QoeMetric) -> f64 {
        match metric {
            QoeMetric::Ssim => self.ssim,
            QoeMetric::Vmaf => self.vmaf,
            QoeMetric::Psnr => self.psnr_db,
        }
    }
}

/// Per-frame loss state of a segment: the fraction of each frame's bytes
/// that were *not* delivered (and hence zero-padded before decode, §4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct LossMap {
    frac: Vec<f64>,
}

impl LossMap {
    /// No losses.
    pub fn none() -> LossMap {
        LossMap {
            frac: vec![0.0; FRAMES_PER_SEGMENT],
        }
    }

    /// Entire frames dropped (fraction 1.0 each).
    pub fn drop_frames(frames: &[usize]) -> LossMap {
        let mut m = Self::none();
        for &f in frames {
            m.set(f, 1.0);
        }
        m
    }

    /// Record that `frac` of frame `frame`'s bytes were lost.
    pub fn set(&mut self, frame: usize, frac: f64) {
        assert!(frame < self.frac.len(), "frame index out of range");
        self.frac[frame] = frac.clamp(0.0, 1.0);
    }

    /// Fraction lost for `frame`.
    pub fn get(&self, frame: usize) -> f64 {
        self.frac[frame]
    }
}

impl Default for LossMap {
    fn default() -> Self {
        Self::none()
    }
}

/// The analytic QoE model with its calibration constants.
#[derive(Debug, Clone, PartialEq)]
pub struct QoeModel {
    /// Concealment-error coefficient: distortion of a fully lost frame is
    /// `kappa * motion`.
    pub kappa: f64,
    /// Per-hop attenuation of propagated error along the reference DAG.
    pub attenuation: f64,
    /// Rate–distortion coefficient at Q12 for unit complexity.
    pub rd_coeff: f64,
    /// Rate–distortion exponent over the bitrate ratio.
    pub rd_exp: f64,
}

impl Default for QoeModel {
    fn default() -> Self {
        QoeModel {
            kappa: 0.28,
            attenuation: 0.82,
            rd_coeff: 0.0045,
            rd_exp: 1.55,
        }
    }
}

impl QoeModel {
    /// Encoding distortion of `seg` at `level` against the reference
    /// (0 = perfect).
    ///
    /// The paper's reference is the **Q12 (4K) encode itself**, not the
    /// uncompressed source ("we measure the difference between the highest
    /// quality a user could see and the quality that they actually see",
    /// §2) — so a pristine Q12 segment scores SSIM 1.0 exactly, which is
    /// how VOXEL attains perfect scores in Fig 11. The `− 1` term makes
    /// the distortion vanish at Q12.
    pub fn base_distortion(&self, seg: &Segment, level: QualityLevel) -> f64 {
        let ratio = QualityLevel::MAX.avg_bitrate_mbps() / level.avg_bitrate_mbps();
        (seg.complexity * self.rd_coeff * (ratio.powf(self.rd_exp) - 1.0)).min(0.35)
    }

    /// SSIM of the pristine (loss-free) segment at `level`.
    pub fn pristine_ssim(&self, seg: &Segment, level: QualityLevel) -> f64 {
        1.0 - self.base_distortion(seg, level)
    }

    /// Pristine scores for all three metrics.
    pub fn pristine(&self, seg: &Segment, level: QualityLevel) -> QoeScores {
        self.eval(seg, level, &LossMap::none())
    }

    /// Evaluate the segment at `level` with the given loss state.
    ///
    /// The loss distortion does not depend on `level`; only the encoding
    /// distortion does, and the two add.
    pub fn eval(&self, seg: &Segment, level: QualityLevel, loss: &LossMap) -> QoeScores {
        let mean_d = self.loss_distortion(&seg.gop, &loss.frac, &mut Vec::new());
        let d = self.base_distortion(seg, level) + mean_d;
        let total = d.min(1.0);
        QoeScores {
            ssim: Self::ssim_from_distortion(d),
            vmaf: Self::vmaf_from_distortion(total),
            psnr_db: Self::psnr_from_distortion(total),
        }
    }

    /// The loss distortion of every prefix of the download `order`: element
    /// `k` is the distortion when the first `k + 1` frames of `order` arrive
    /// whole and the rest of `order` is dropped.
    ///
    /// It does not depend on the level, so one sweep serves all 13: the
    /// SSIM [`QoeModel::eval`] gives that prefix at `level` is
    /// `ssim_from_distortion(base_distortion(seg, level) + d)`, bit for bit,
    /// because both run the same pass.
    pub fn prefix_loss_distortion(&self, seg: &Segment, order: &[usize]) -> Vec<f64> {
        let mut loss = LossMap::drop_frames(order);
        let mut d_total = Vec::new();
        order
            .iter()
            .map(|&f| {
                loss.set(f, 0.0);
                self.loss_distortion(&seg.gop, &loss.frac, &mut d_total)
            })
            .collect()
    }

    /// Mean per-frame loss distortion under the lost fractions `frac`.
    ///
    /// Frames are processed in decode order so every reference is scored
    /// before its dependents; a frame's inherited error is the mean of its
    /// references' total error, attenuated per hop. `d_total` is scratch.
    fn loss_distortion(&self, gop: &GopStructure, frac: &[f64], d_total: &mut Vec<f64>) -> f64 {
        let n = gop.len();
        d_total.clear();
        d_total.resize(n, 0.0);
        for &fi in &gop.decode_order {
            let frame = &gop.frames[fi];
            // Concealment error for the lost portion of this frame.
            let own = self.kappa * frame.motion * frac[fi];
            // Inherited error from corrupted references (weighted by how
            // much of this frame actually predicts, i.e. survived).
            let inherited = if frame.refs.is_empty() {
                0.0
            } else {
                let mean_ref: f64 =
                    frame.refs.iter().map(|&r| d_total[r]).sum::<f64>() / frame.refs.len() as f64;
                self.attenuation * mean_ref
            };
            d_total[fi] = (own + inherited).min(1.0);
        }
        d_total.iter().sum::<f64>() / n as f64
    }

    /// SSIM of a segment whose total (encoding + loss) distortion is `d`.
    pub fn ssim_from_distortion(d: f64) -> f64 {
        (1.0 - d.min(1.0)).clamp(0.0, 1.0)
    }

    /// Estimate the VMAF score corresponding to an SSIM value under this
    /// model (used by metric-agnostic components that only have the
    /// manifest's SSIM map, §4.3 / Fig 7).
    pub fn ssim_to_vmaf(ssim: f64) -> f64 {
        Self::vmaf_from_distortion((1.0 - ssim).clamp(0.0, 1.0))
    }

    /// Estimate the PSNR (dB) corresponding to an SSIM value under this
    /// model.
    pub fn ssim_to_psnr(ssim: f64) -> f64 {
        Self::psnr_from_distortion((1.0 - ssim).clamp(0.0, 1.0))
    }

    /// Map total distortion to a VMAF-like 0..100 score (monotone).
    fn vmaf_from_distortion(d: f64) -> f64 {
        (100.0 * (1.0 - (d * 6.0).powf(0.85)).max(0.0)).clamp(0.0, 100.0)
    }

    /// Map total distortion to a PSNR-like dB value (monotone).
    fn psnr_from_distortion(d: f64) -> f64 {
        50.0 - 10.0 * (1.0 + 2500.0 * d * d).log10()
    }

    /// The largest number of frames (chosen greedily in increasing order of
    /// harm: unreferenced first, lowest inbound-rank × motion) that can be
    /// dropped while keeping SSIM ≥ `target`. Used by the §3 insight-1
    /// analysis; the I-frame is never dropped.
    pub fn max_droppable_frames(
        &self,
        seg: &Segment,
        level: QualityLevel,
        target_ssim: f64,
    ) -> usize {
        let order = crate::qoe::drop_order(seg);
        let mut loss = LossMap::none();
        let mut dropped = 0;
        for &f in &order {
            loss.set(f, 1.0);
            if self.eval(seg, level, &loss).ssim >= target_ssim {
                dropped += 1;
            } else {
                loss.set(f, 0.0);
                // Greedy with one level of look-ahead: a later frame in the
                // order can't help once this one fails (order is by harm),
                // so stop.
                break;
            }
        }
        dropped
    }
}

/// The canonical "drop order" for a segment: frames sorted by increasing
/// harm — unreferenced/low-rank/low-motion frames first, the I-frame never.
/// This is the per-frame priority that underlies ordering ③ of §4.1
/// (inbound-reference rank), shared here so both the QoE analysis and
/// `voxel-prep` use identical ranking.
pub fn drop_order(seg: &Segment) -> Vec<usize> {
    let gop = &seg.gop;
    // Harm = own concealment error + error induced in dependents.
    let harm: Vec<f64> = gop
        .frames
        .iter()
        .enumerate()
        .map(|(f, frame)| frame.motion * 0.4 + gop.inbound_rank(f) * 24.0)
        .collect();
    let mut order: Vec<usize> = (1..gop.len()).collect();
    order.sort_by(|&a, &b| harm[a].total_cmp(&harm[b]).then(a.cmp(&b)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::VideoId;
    use crate::video::Video;

    fn video(id: VideoId) -> Video {
        Video::generate(id)
    }

    #[test]
    fn pristine_q12_is_excellent() {
        let m = QoeModel::default();
        let v = video(VideoId::Bbb);
        for seg in &v.segments {
            let s = m.pristine_ssim(seg, QualityLevel::MAX);
            assert!(s >= 0.985, "seg {} ssim {s}", seg.index);
        }
    }

    #[test]
    fn most_q9_segments_fall_below_099() {
        // Fig 1d: 85% of BBB and 96% of ToS segments at Q9 have SSIM < 0.99.
        let m = QoeModel::default();
        for (id, min_frac) in [(VideoId::Bbb, 0.6), (VideoId::Tos, 0.6)] {
            let v = video(id);
            let below = v
                .segments
                .iter()
                .filter(|s| m.pristine_ssim(s, QualityLevel(9)) < 0.99)
                .count() as f64
                / v.segments.len() as f64;
            assert!(below > min_frac, "{id}: below-0.99 fraction {below}");
        }
    }

    #[test]
    fn q6_lands_in_fig_1d_range() {
        let m = QoeModel::default();
        let v = video(VideoId::Tos);
        for seg in &v.segments {
            let s = m.pristine_ssim(seg, QualityLevel(6));
            assert!((0.75..1.0).contains(&s), "seg {} ssim {s}", seg.index);
        }
    }

    #[test]
    fn ssim_decreases_monotonically_with_level() {
        let m = QoeModel::default();
        let v = video(VideoId::Ed);
        let seg = &v.segments[10];
        let mut prev = 0.0;
        for level in QualityLevel::all() {
            let s = m.pristine_ssim(seg, level);
            assert!(s >= prev, "{level}: {s} < {prev}");
            prev = s;
        }
    }

    #[test]
    fn losses_reduce_all_metrics() {
        let m = QoeModel::default();
        let v = video(VideoId::Sintel);
        let seg = &v.segments[5];
        let clean = m.pristine(seg, QualityLevel::MAX);
        let lossy = m.eval(
            seg,
            QualityLevel::MAX,
            &LossMap::drop_frames(&[3, 6, 9, 12]),
        );
        assert!(lossy.ssim < clean.ssim);
        assert!(lossy.vmaf < clean.vmaf);
        assert!(lossy.psnr_db < clean.psnr_db);
    }

    #[test]
    fn dropping_early_p_hurts_more_than_tail_b() {
        let m = QoeModel::default();
        let v = video(VideoId::Bbb);
        let seg = &v.segments[0];
        let p_early = m.eval(seg, QualityLevel::MAX, &LossMap::drop_frames(&[3]));
        let b_tail = m.eval(seg, QualityLevel::MAX, &LossMap::drop_frames(&[95]));
        assert!(p_early.ssim < b_tail.ssim);
    }

    #[test]
    fn partial_loss_is_milder_than_full_loss() {
        let m = QoeModel::default();
        let v = video(VideoId::Bbb);
        let seg = &v.segments[3];
        let mut half = LossMap::none();
        half.set(30, 0.5);
        let full = LossMap::drop_frames(&[30]);
        let s_half = m.eval(seg, QualityLevel::MAX, &half).ssim;
        let s_full = m.eval(seg, QualityLevel::MAX, &full).ssim;
        let s_clean = m.pristine_ssim(seg, QualityLevel::MAX);
        assert!(s_full <= s_half && s_half <= s_clean);
    }

    #[test]
    fn median_drop_tolerance_at_q12_is_10_to_20_percent_or_more() {
        // Fig 1a: for each video at Q12 at least half the segments tolerate
        // a 10–20% frame loss at SSIM 0.99.
        let m = QoeModel::default();
        for id in [VideoId::Bbb, VideoId::Ed, VideoId::Sintel, VideoId::Tos] {
            let v = video(id);
            let mut tolerances: Vec<f64> = v
                .segments
                .iter()
                .map(|s| {
                    m.max_droppable_frames(s, QualityLevel::MAX, 0.99) as f64
                        / FRAMES_PER_SEGMENT as f64
                })
                .collect();
            tolerances.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = tolerances[tolerances.len() / 2];
            assert!(median >= 0.10, "{id}: median tolerance {median}");
        }
    }

    #[test]
    fn p9_tolerates_far_more_than_p10() {
        let m = QoeModel::default();
        let p9 = video(VideoId::YouTube(9));
        let p10 = video(VideoId::YouTube(10));
        let tol = |v: &Video| {
            let mut t: Vec<f64> = v
                .segments
                .iter()
                .map(|s| {
                    m.max_droppable_frames(s, QualityLevel::MAX, 0.99) as f64
                        / FRAMES_PER_SEGMENT as f64
                })
                .collect();
            t.sort_by(|a, b| a.partial_cmp(b).unwrap());
            t[t.len() / 2]
        };
        let t9 = tol(&p9);
        let t10 = tol(&p10);
        assert!(t9 > 0.5, "P9 median tolerance {t9}");
        assert!(t10 < 0.1, "P10 median tolerance {t10}");
    }

    #[test]
    fn drop_tolerance_shrinks_at_q9_and_recovers_at_095() {
        // Fig 1b/1c.
        let m = QoeModel::default();
        let v = video(VideoId::Bbb);
        let median_tol = |level: QualityLevel, target: f64| {
            let mut t: Vec<usize> = v
                .segments
                .iter()
                .map(|s| m.max_droppable_frames(s, level, target))
                .collect();
            t.sort_unstable();
            t[t.len() / 2]
        };
        let q12_99 = median_tol(QualityLevel::MAX, 0.99);
        let q9_99 = median_tol(QualityLevel(9), 0.99);
        let q9_95 = median_tol(QualityLevel(9), 0.95);
        assert!(q9_99 < q12_99, "q9/0.99 {q9_99} vs q12/0.99 {q12_99}");
        assert!(q9_95 > q9_99, "q9/0.95 {q9_95} vs q9/0.99 {q9_99}");
    }

    #[test]
    fn drop_order_starts_with_unreferenced_frames() {
        let v = video(VideoId::Bbb);
        let seg = &v.segments[0];
        let order = drop_order(seg);
        assert_eq!(order.len(), FRAMES_PER_SEGMENT - 1, "I-frame excluded");
        // The first quarter of the drop order should be dominated by
        // unreferenced bs (they harm nothing downstream).
        let head = &order[..order.len() / 4];
        let unref = head
            .iter()
            .filter(|&&f| seg.gop.frames[f].kind == crate::gop::FrameKind::BUnref)
            .count();
        assert!(
            unref as f64 / head.len() as f64 > 0.7,
            "unref fraction {}",
            unref as f64 / head.len() as f64
        );
    }

    /// The sort `drop_order` replaced, which re-ran `transitive_dependents`
    /// inside the comparator: kept as the reference the cached-harm sort
    /// must reproduce exactly.
    fn drop_order_reference(seg: &Segment) -> Vec<usize> {
        let gop = &seg.gop;
        let mut order: Vec<usize> = (1..gop.len()).collect();
        let harm = |f: usize| -> f64 {
            let frame = &gop.frames[f];
            let own = frame.motion;
            let induced: f64 = gop
                .transitive_dependents(f)
                .iter()
                .map(|&d| gop.frames[d].size_weight)
                .sum::<f64>();
            own * 0.4 + induced * 24.0
        };
        order.sort_by(|&a, &b| harm(a).total_cmp(&harm(b)).then(a.cmp(&b)));
        order
    }

    #[test]
    fn drop_order_equals_the_comparator_recomputing_sort() {
        for id in VideoId::all() {
            for seg in &video(id).segments {
                assert_eq!(
                    drop_order(seg),
                    drop_order_reference(seg),
                    "{id} seg {}",
                    seg.index
                );
            }
        }
    }

    #[test]
    fn vmaf_and_psnr_are_monotone_in_distortion() {
        let mut prev_v = f64::INFINITY;
        let mut prev_p = f64::INFINITY;
        for i in 0..100 {
            let d = i as f64 / 100.0;
            let v = QoeModel::vmaf_from_distortion(d);
            let p = QoeModel::psnr_from_distortion(d);
            assert!(v <= prev_v);
            assert!(p <= prev_p);
            prev_v = v;
            prev_p = p;
        }
        assert_eq!(QoeModel::vmaf_from_distortion(0.0), 100.0);
    }

    #[test]
    fn loss_map_accessors() {
        let mut m = LossMap::none();
        assert_eq!(m.get(5), 0.0);
        m.set(5, 0.4);
        assert_eq!(m.get(5), 0.4);
        m.set(5, 1.6);
        assert_eq!(m.get(5), 1.0);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::content::VideoId;
    use crate::video::Video;
    use proptest::prelude::*;

    proptest! {
        /// The invariant VOXEL's whole decision space rests on: delivering
        /// MORE of a frame never lowers the segment score.
        #[test]
        fn qoe_is_monotone_in_delivery(
            seg_idx in 0usize..75,
            frame in 1usize..FRAMES_PER_SEGMENT,
            base_losses in proptest::collection::vec((1usize..FRAMES_PER_SEGMENT, 0.0f64..=1.0), 0..20),
            frac_a in 0.0f64..=1.0,
            frac_b in 0.0f64..=1.0,
        ) {
            let video = Video::generate(VideoId::Bbb);
            let model = QoeModel::default();
            let seg = &video.segments[seg_idx];
            let (lo, hi) = if frac_a <= frac_b { (frac_a, frac_b) } else { (frac_b, frac_a) };
            let mut less_lost = LossMap::none();
            let mut more_lost = LossMap::none();
            for (f, frac) in &base_losses {
                less_lost.set(*f, *frac);
                more_lost.set(*f, *frac);
            }
            less_lost.set(frame, lo);
            more_lost.set(frame, hi);
            let s_less = model.eval(seg, QualityLevel::MAX, &less_lost);
            let s_more = model.eval(seg, QualityLevel::MAX, &more_lost);
            prop_assert!(s_less.ssim + 1e-9 >= s_more.ssim,
                "losing more of frame {frame} ({lo} -> {hi}) raised SSIM {} -> {}",
                s_more.ssim, s_less.ssim);
            prop_assert!(s_less.vmaf + 1e-6 >= s_more.vmaf);
            prop_assert!(s_less.psnr_db + 1e-6 >= s_more.psnr_db);
        }

        /// Scores always stay in their metric's range.
        #[test]
        fn scores_stay_in_range(
            seg_idx in 0usize..75,
            level in 0usize..13,
            losses in proptest::collection::vec((0usize..FRAMES_PER_SEGMENT, 0.0f64..=1.0), 0..96),
        ) {
            let video = Video::generate(VideoId::Sintel);
            let model = QoeModel::default();
            let seg = &video.segments[seg_idx];
            let mut map = LossMap::none();
            for (f, frac) in losses {
                map.set(f, frac);
            }
            let s = model.eval(seg, QualityLevel::try_from(level).unwrap(), &map);
            prop_assert!((0.0..=1.0).contains(&s.ssim));
            prop_assert!((0.0..=100.0).contains(&s.vmaf));
            prop_assert!(s.psnr_db.is_finite());
        }

        /// One sweep per segment scores every prefix of an order at any
        /// level exactly as `eval` does from a freshly built `LossMap` —
        /// compared by `to_bits`, since manifests print these SSIMs. Orders
        /// are random subsets of the frames in random order, so frames
        /// outside the order stay delivered.
        #[test]
        fn prefix_sweep_equals_eval_bit_for_bit(
            video_idx in 0usize..64,
            seg_idx in 0usize..75,
            level in 0usize..13,
            keys in proptest::collection::vec(0u32..1_000_000, FRAMES_PER_SEGMENT),
            len in 1usize..=FRAMES_PER_SEGMENT,
        ) {
            let ids = VideoId::all();
            let video = Video::generate(ids[video_idx % ids.len()]);
            let model = QoeModel::default();
            let seg = &video.segments[seg_idx];
            let level = QualityLevel::try_from(level).unwrap();
            let mut order: Vec<usize> = (0..FRAMES_PER_SEGMENT).collect();
            order.sort_by_key(|&f| (keys[f], f));
            order.truncate(len);
            let sweep = model.prefix_loss_distortion(seg, &order);
            prop_assert_eq!(sweep.len(), order.len());
            let base = model.base_distortion(seg, level);
            for (k, &mean_d) in sweep.iter().enumerate() {
                let loss = LossMap::drop_frames(&order[k + 1..]);
                let want = model.eval(seg, level, &loss).ssim;
                let got = QoeModel::ssim_from_distortion(base + mean_d);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "prefix {} of {:?}", k + 1, order);
            }
        }
    }
}
