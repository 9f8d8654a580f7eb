//! Drop-tolerance analysis: mapping bytes downloaded → QoE.
//!
//! "For each order, we estimate the implications of partial segments for
//! QoE … We iterate over the 'unimportant' (tail-end) frames in each segment
//! and calculate the QoEs as a function of number of dropped frames. The
//! process results in a mapping from the number of bytes downloaded … to QoE
//! scores." (§4.1)

use crate::ordering::{frame_order, OrderingKind};
use std::sync::Arc;
use voxel_media::ladder::QualityLevel;
use voxel_media::qoe::{LossMap, QoeModel};
use voxel_media::video::Segment;

/// One point of the bytes→QoE mapping: the `ssims` attribute triplet of
/// Listing 1 — "(a) A QoE score, e.g., SSIM, and the number of (b) frames
/// and (c) bytes of the given segment that must be downloaded to achieve
/// that QoE score."
///
/// 16 bytes: a catalog holds ≈1.3 M of them. `u32` counts hold any
/// segment the ladder produces (a Q12 segment is at most ≈10 MB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoePoint {
    /// Segment SSIM achieved when exactly `frames`/`bytes` are delivered.
    pub ssim: f64,
    /// Number of frames delivered (from the head of the ordering).
    pub frames: u32,
    /// Bytes delivered (frame payloads; headers are accounted separately).
    pub bytes: u32,
}

impl QoePoint {
    /// A point from a prepared segment's counts.
    pub(crate) fn new(ssim: f64, frames: usize, bytes: u64) -> QoePoint {
        #[expect(
            clippy::panic,
            reason = "96 frames and ≤ ≈10 MB per segment; more is a media-model bug"
        )]
        let (Ok(frames), Ok(bytes)) = (u32::try_from(frames), u32::try_from(bytes)) else {
            panic!("segment counts exceed u32: {frames} frames, {bytes} bytes");
        };
        QoePoint {
            ssim,
            frames,
            bytes,
        }
    }
}

/// One ordering's level-independent analysis of a segment: the download
/// order and the loss distortion of each of its prefixes. Built once per
/// segment; each level's [`BytesQoeMap`] is read off it without another
/// QoE pass.
pub(crate) struct OrderSweep {
    kind: OrderingKind,
    pub(crate) order: Arc<[usize]>,
    mean_d: Vec<f64>,
}

impl OrderSweep {
    pub(crate) fn new(model: &QoeModel, seg: &Segment, kind: OrderingKind) -> OrderSweep {
        let order: Arc<[usize]> = frame_order(seg, kind).into();
        let mean_d = model.prefix_loss_distortion(seg, &order);
        OrderSweep {
            kind,
            order,
            mean_d,
        }
    }

    /// All three orderings of `seg`, in [`OrderingKind::ALL`] order.
    pub(crate) fn all(model: &QoeModel, seg: &Segment) -> [OrderSweep; 3] {
        OrderingKind::ALL.map(|kind| OrderSweep::new(model, seg, kind))
    }

    /// The bytes→QoE map at `level`: only the encoding distortion and the
    /// frame sizes depend on the level.
    fn map(&self, model: &QoeModel, seg: &Segment, level: QualityLevel) -> BytesQoeMap {
        let base = model.base_distortion(seg, level);
        let sizes = seg.frame_sizes(level);
        let mut bytes = 0;
        let points = self
            .order
            .iter()
            .zip(&self.mean_d)
            .enumerate()
            .map(|(k, (&f, &mean_d))| {
                bytes += sizes[f];
                QoePoint::new(QoeModel::ssim_from_distortion(base + mean_d), k + 1, bytes)
            })
            .collect();
        BytesQoeMap {
            ordering: self.kind,
            points,
        }
    }
}

/// The full bytes→QoE mapping of one segment at one level under one ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct BytesQoeMap {
    /// The ordering this map was computed for.
    pub ordering: OrderingKind,
    /// Points in increasing `frames` (and `bytes`) order; the last point is
    /// the complete segment.
    pub points: Vec<QoePoint>,
}

impl BytesQoeMap {
    /// Compute the mapping by sweeping tail drops of `ordering`: the first
    /// point delivers only the head (the I-frame), each next one re-adds
    /// the next frame of the ordering, the last is the complete segment.
    pub fn compute(
        model: &QoeModel,
        seg: &Segment,
        level: QualityLevel,
        ordering: OrderingKind,
    ) -> BytesQoeMap {
        OrderSweep::new(model, seg, ordering).map(model, seg, level)
    }

    /// The smallest number of bytes whose delivery achieves `target` SSIM,
    /// with the point itself; `None` if even the full segment falls short.
    pub fn min_bytes_for(&self, target: f64) -> Option<QoePoint> {
        self.points.iter().copied().find(|p| p.ssim >= target)
    }

    /// Total payload bytes of the complete segment.
    pub fn full_bytes(&self) -> u64 {
        #[expect(
            clippy::expect_used,
            reason = "analyze() always emits the full-segment point"
        )]
        u64::from(self.points.last().expect("map is never empty").bytes)
    }
}

/// Result of analysing one segment at one level: the chosen ordering and
/// its mapping, plus the QoE lower bound used for the choice.
#[derive(Debug, Clone)]
pub struct SegmentAnalysis {
    /// The winning ordering (minimal bytes to reach the bound).
    pub best: BytesQoeMap,
    /// The map under BETA's unreferenced-tail ordering, kept so the BETA
    /// baseline can be evaluated under *its* ordering rather than VOXEL's.
    pub tail: BytesQoeMap,
    /// The QoE lower bound: pristine SSIM of the next-lower quality level
    /// (or a fixed offset below this level's own pristine score at Q0).
    pub bound: f64,
    /// Bytes needed under the winning ordering to reach `bound`.
    pub min_bytes: u64,
    /// Frames needed under the winning ordering to reach `bound`.
    pub min_frames: usize,
}

/// The §4.1 "Finding the best among the three orderings" procedure.
///
/// For level `Qn`, the pristine score of `Q(n-1)` is the lower bound — "if
/// frame-drops lower the score below this bound, we simply fetch the segment
/// at quality Qn−1". At Q0 there is no lower level; we allow a small fixed
/// degradation below Q0's own pristine score instead.
pub fn analyze_segment(model: &QoeModel, seg: &Segment, level: QualityLevel) -> SegmentAnalysis {
    analyze_segment_forced(model, seg, level, None)
}

/// Like [`analyze_segment`], but with the ordering choice overridden — the
/// DESIGN.md §6 runtime ablation: stream with each candidate ordering and
/// measure the end-to-end difference the §4.1 selection makes.
pub(crate) fn analyze_segment_forced(
    model: &QoeModel,
    seg: &Segment,
    level: QualityLevel,
    force: Option<OrderingKind>,
) -> SegmentAnalysis {
    analyze(&OrderSweep::all(model, seg), model, seg, level, force)
}

/// [`analyze_segment_forced`] over sweeps already built for `seg`, so a
/// manifest analyses all 13 levels from one set of sweeps.
pub(crate) fn analyze(
    sweeps: &[OrderSweep; 3],
    model: &QoeModel,
    seg: &Segment,
    level: QualityLevel,
    force: Option<OrderingKind>,
) -> SegmentAnalysis {
    let bound = match level.lower() {
        Some(lower) => model.pristine_ssim(seg, lower),
        None => model.pristine_ssim(seg, level) - 0.02,
    };

    let mut best: Option<(u64, usize, BytesQoeMap)> = None;
    let mut tail: Option<BytesQoeMap> = None;
    for sweep in sweeps {
        let kind = sweep.kind;
        let map = sweep.map(model, seg, level);
        if kind == OrderingKind::UnreferencedTail {
            tail = Some(map.clone());
        }
        // Bytes required to reach the bound under this ordering; if the
        // ordering can't reach it short of the full segment, the full
        // segment is the requirement.
        let (bytes, frames) = match map.min_bytes_for(bound) {
            Some(p) => (u64::from(p.bytes), p.frames as usize),
            None => (map.full_bytes(), map.points.len()),
        };
        let better = match force {
            Some(forced) => kind == forced,
            None => match &best {
                None => true,
                Some((b, _, _)) => bytes < *b,
            },
        };
        if better {
            best = Some((bytes, frames, map));
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "the ordering loop above is over a non-empty const set"
    )]
    let (min_bytes, min_frames, best) = best.expect("three orderings evaluated");
    SegmentAnalysis {
        best,
        #[expect(
            clippy::expect_used,
            reason = "the tail ordering is a member of the const set above"
        )]
        tail: tail.expect("tail ordering evaluated"),
        bound,
        min_bytes,
        min_frames,
    }
}

/// Fig 2a helper: for each frame *position*, the fraction of segments in
/// which dropping the frame at that position alone keeps SSIM ≥ `target`.
pub fn droppable_by_position(
    model: &QoeModel,
    segments: &[Segment],
    level: QualityLevel,
    target: f64,
) -> Vec<f64> {
    let n = voxel_media::gop::FRAMES_PER_SEGMENT;
    let mut frac = vec![0.0f64; n];
    for seg in segments {
        #[allow(
            clippy::needless_range_loop,
            reason = "`pos` is both the dropped frame and the tally slot"
        )]
        for pos in 1..n {
            let loss = LossMap::drop_frames(&[pos]);
            if model.eval(seg, level, &loss).ssim >= target {
                frac[pos] += 1.0;
            }
        }
    }
    for f in frac.iter_mut() {
        *f /= segments.len() as f64;
    }
    frac
}

/// §3 insight-1 helper: maximum fraction of frames droppable from the tail
/// of `ordering` while keeping SSIM ≥ `target`.
pub fn drop_tolerance(
    model: &QoeModel,
    seg: &Segment,
    level: QualityLevel,
    ordering: OrderingKind,
    target: f64,
) -> f64 {
    let map = BytesQoeMap::compute(model, seg, level, ordering);
    // Find the smallest prefix reaching the target; tolerance is the tail.
    match map.min_bytes_for(target) {
        Some(p) => 1.0 - p.frames as f64 / map.points.len() as f64,
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_media::content::VideoId;
    use voxel_media::video::Video;

    fn setup() -> (QoeModel, Video) {
        (QoeModel::default(), Video::generate(VideoId::Bbb))
    }

    #[test]
    fn qoe_point_is_16_bytes() {
        assert_eq!(std::mem::size_of::<QoePoint>(), 16);
    }

    #[test]
    fn map_is_monotone_in_bytes_and_frames() {
        let (m, v) = setup();
        let map = BytesQoeMap::compute(
            &m,
            &v.segments[0],
            QualityLevel::MAX,
            OrderingKind::InboundRank,
        );
        assert_eq!(map.points.len(), voxel_media::gop::FRAMES_PER_SEGMENT);
        for w in map.points.windows(2) {
            assert!(w[0].frames < w[1].frames);
            assert!(w[0].bytes < w[1].bytes);
        }
    }

    #[test]
    fn inbound_rank_ssim_is_monotone_nondecreasing() {
        // Under the harm-sorted ordering, delivering more frames never hurts.
        let (m, v) = setup();
        let map = BytesQoeMap::compute(
            &m,
            &v.segments[7],
            QualityLevel::MAX,
            OrderingKind::InboundRank,
        );
        for w in map.points.windows(2) {
            assert!(
                w[1].ssim >= w[0].ssim - 1e-9,
                "ssim regressed: {} -> {}",
                w[0].ssim,
                w[1].ssim
            );
        }
    }

    #[test]
    fn full_delivery_matches_pristine() {
        let (m, v) = setup();
        let seg = &v.segments[3];
        for kind in OrderingKind::ALL {
            let map = BytesQoeMap::compute(&m, seg, QualityLevel(9), kind);
            let pristine = m.pristine_ssim(seg, QualityLevel(9));
            assert!((map.points.last().unwrap().ssim - pristine).abs() < 1e-9);
            assert_eq!(map.full_bytes(), seg.bytes(QualityLevel(9)));
        }
    }

    #[test]
    fn min_bytes_for_respects_target() {
        let (m, v) = setup();
        let map = BytesQoeMap::compute(
            &m,
            &v.segments[0],
            QualityLevel::MAX,
            OrderingKind::InboundRank,
        );
        let p = map.min_bytes_for(0.99).expect("Q12 can reach 0.99");
        assert!(p.ssim >= 0.99);
        assert!(u64::from(p.bytes) <= map.full_bytes());
        assert!(map.min_bytes_for(1.1).is_none());
    }

    #[test]
    fn inbound_rank_beats_tail_grouping_beats_original() {
        // Fig 2b: the rank ordering tolerates more drops than tail-only
        // grouping, which beats the original order. Compare mean tolerance
        // across segments at SSIM 0.99 / Q12.
        let (m, v) = setup();
        let mean_tol = |kind| {
            v.segments
                .iter()
                .map(|s| drop_tolerance(&m, s, QualityLevel::MAX, kind, 0.99))
                .sum::<f64>()
                / v.segments.len() as f64
        };
        let orig = mean_tol(OrderingKind::Original);
        let tail = mean_tol(OrderingKind::UnreferencedTail);
        let rank = mean_tol(OrderingKind::InboundRank);
        assert!(rank > tail, "rank {rank} <= tail {tail}");
        assert!(tail > orig, "tail {tail} <= orig {orig}");
    }

    #[test]
    fn analyze_segment_picks_cheapest_ordering() {
        let (m, v) = setup();
        let a = analyze_segment(&m, &v.segments[0], QualityLevel::MAX);
        // The winner must reach the bound with no more bytes than any
        // individual ordering.
        for kind in OrderingKind::ALL {
            let map = BytesQoeMap::compute(&m, &v.segments[0], QualityLevel::MAX, kind);
            let bytes = map
                .min_bytes_for(a.bound)
                .map_or(map.full_bytes(), |p| u64::from(p.bytes));
            assert!(a.min_bytes <= bytes, "{kind}: {} > {bytes}", a.min_bytes);
        }
        assert!(a.min_bytes <= v.segments[0].bytes(QualityLevel::MAX));
        assert!(a.min_frames >= 1);
    }

    #[test]
    fn bound_is_next_lower_pristine() {
        let (m, v) = setup();
        let seg = &v.segments[10];
        let a = analyze_segment(&m, seg, QualityLevel(9));
        assert!((a.bound - m.pristine_ssim(seg, QualityLevel(8))).abs() < 1e-12);
        // Q0 uses the fixed-offset fallback.
        let a0 = analyze_segment(&m, seg, QualityLevel::MIN);
        assert!((a0.bound - (m.pristine_ssim(seg, QualityLevel::MIN) - 0.02)).abs() < 1e-12);
    }

    #[test]
    fn virtual_level_saves_bytes_at_q12() {
        // Figs 2c/2d: Q12/0.99 sits between Q11 and Q12 in bitrate.
        let (m, v) = setup();
        let mut saved = 0usize;
        for seg in v.segments.iter() {
            let map = BytesQoeMap::compute(&m, seg, QualityLevel::MAX, OrderingKind::InboundRank);
            if let Some(p) = map.min_bytes_for(0.99) {
                if u64::from(p.bytes) < map.full_bytes() {
                    saved += 1;
                }
            }
        }
        // Most segments must offer some savings at SSIM 0.99.
        assert!(
            saved as f64 / v.segments.len() as f64 > 0.5,
            "saved {saved}/75"
        );
    }

    #[test]
    fn droppable_by_position_is_distributed() {
        // Fig 2a: droppable frames appear throughout the segment, and the
        // I-frame position is never droppable.
        let (m, v) = setup();
        let frac = droppable_by_position(&m, &v.segments[..20], QualityLevel::MAX, 0.99);
        assert_eq!(frac[0], 0.0);
        // Some droppable positions exist in each third of the segment.
        let n = frac.len();
        assert!(frac[1..n / 3].iter().any(|&f| f > 0.5));
        assert!(frac[n / 3..2 * n / 3].iter().any(|&f| f > 0.5));
        assert!(frac[2 * n / 3..].iter().any(|&f| f > 0.5));
    }
}
