//! The extended DASH manifest (§4.1, Listing 1).
//!
//! VOXEL never modifies video files; it only enriches the manifest with
//! frame-level detail per segment and quality level:
//!
//! - `mediaRange`: the segment's byte range in the (unmodified) video file,
//! - `reliable`: byte ranges that must be delivered reliably — the I-frame
//!   plus *all* frame headers (keeping headers intact lets the decoder cope
//!   with holes in frame bodies, §4.2),
//! - `unreliable`: the remaining byte ranges listed **in download order**
//!   under the chosen ordering,
//! - `ssims`: the bytes→QoE triplets `score:frames:bytes`.
//!
//! VOXEL-unaware clients ignore the extra attributes and fetch segments
//! whole, in original order — backward compatibility comes for free.

use crate::analysis::{analyze, OrderSweep, QoePoint};
use crate::mpd;
use crate::ordering::OrderingKind;
use std::sync::{Arc, OnceLock};
use voxel_media::gop::FrameKind;
use voxel_media::ladder::{QualityLevel, NUM_LEVELS};
use voxel_media::qoe::QoeModel;
use voxel_media::video::Video;
use voxel_media::VideoId;

/// Bytes per frame header (NAL/slice header kept intact for decodability).
pub const FRAME_HEADER_BYTES: u64 = 24;

/// A byte range `[start, end]` (inclusive, like HTTP ranges).
pub type ByteRange = (u64, u64);

/// One `<SegmentURL>` entry of the extended manifest.
#[derive(Debug, Clone)]
pub struct SegmentEntry {
    /// Segment index within the clip.
    pub segment: usize,
    /// Quality level of this representation.
    pub level: QualityLevel,
    /// Byte range of the whole segment within the video file.
    pub media_range: ByteRange,
    /// The bytes→QoE mapping (`ssims` attribute), increasing in frames.
    pub ssims: Vec<QoePoint>,
    /// The ordering the analysis selected for this segment/level.
    pub ordering: OrderingKind,
    /// Frame indices in download order (element 0 is the I-frame); shared
    /// with the segment's other levels that chose the same ordering.
    pub download_order: Arc<[usize]>,
    /// BETA's one virtual quality level: the point of the unreferenced-tail
    /// ordering's bytes→QoE map with every unreferenced frame dropped (the
    /// full segment at an unanalysed level). The only point of that map the
    /// BETA baseline reads, so the map itself is not kept.
    pub beta_boundary: QoePoint,
    /// BETA's download order (unreferenced-tail), shared like
    /// `download_order`.
    pub beta_order: Arc<[usize]>,
    /// Total bytes that must go over a reliable stream (I-frame + headers).
    pub reliable_size: u64,
    /// SSIM of the complete (pristine) segment at this level.
    pub pristine_ssim: f64,
    /// QoE lower bound from the next-lower level (§4.1).
    pub bound: f64,
    /// Bytes required (per `ssims`) to reach `bound`.
    pub min_bytes: u64,
}

impl SegmentEntry {
    /// Total segment size: payloads + per-frame headers.
    pub fn total_bytes(&self) -> u64 {
        self.media_range.1 - self.media_range.0 + 1
    }

    /// Best achievable QoE point within a *payload* byte budget (`bytes`
    /// fields of [`QoePoint`] count payloads only).
    pub fn best_within(&self, payload_budget: u64) -> Option<QoePoint> {
        self.ssims
            .iter()
            .rev()
            .find(|p| u64::from(p.bytes) <= payload_budget)
            .copied()
    }

    /// Cheapest QoE point reaching `target` SSIM.
    pub fn cheapest_reaching(&self, target: f64) -> Option<QoePoint> {
        self.ssims.iter().find(|p| p.ssim >= target).copied()
    }

    /// The point delivered when the first `frames` frames of the download
    /// order arrive.
    pub fn point_at_frames(&self, frames: usize) -> QoePoint {
        let idx = frames.clamp(1, self.ssims.len()) - 1;
        self.ssims[idx]
    }
}

/// The extended manifest for one video: all segments × all 13 levels.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Which video this manifest describes.
    pub video_id: VideoId,
    /// `entries[segment][level]`.
    pub entries: Vec<Vec<SegmentEntry>>,
    /// [`Manifest::size_bytes`], measured on first use. Serialising a full
    /// ladder takes tens of milliseconds, so it is done at most once per
    /// manifest rather than once per session that fetches it.
    size: OnceLock<usize>,
}

impl Manifest {
    /// Run the full offline preparation (§4.1) for `video`.
    ///
    /// This is the paper's one-time, server-side computation — it reports a
    /// cost of up to 5× the encoding cost; here the full ladder takes about
    /// 20 ms per video (the QoE sweep runs once per segment, not once per
    /// level) and the result is reused across experiments.
    pub fn prepare(video: &Video, model: &QoeModel) -> Manifest {
        Self::prepare_levels(video, model, &QualityLevel::all().collect::<Vec<_>>())
    }

    /// Prepare with the §4.1 ordering selection overridden to `kind` for
    /// every segment — the runtime ordering ablation.
    pub fn prepare_forced(
        video: &Video,
        model: &QoeModel,
        levels: &[QualityLevel],
        kind: OrderingKind,
    ) -> Manifest {
        Self::prepare_inner(video, model, levels, Some(kind))
    }

    /// Prepare only the given `levels` (others get placeholder analyses
    /// reusing the full-segment point). Useful for tests; experiments use
    /// [`Manifest::prepare`].
    pub fn prepare_levels(video: &Video, model: &QoeModel, levels: &[QualityLevel]) -> Manifest {
        Self::prepare_inner(video, model, levels, None)
    }

    /// The orderings and their prefix sweeps depend only on the segment, so
    /// they are built once per segment and shared by its 13 entries; each
    /// level adds only its encoding distortion and frame sizes.
    fn prepare_inner(
        video: &Video,
        model: &QoeModel,
        levels: &[QualityLevel],
        force: Option<OrderingKind>,
    ) -> Manifest {
        let mut entries = Vec::with_capacity(video.segments.len());
        // Per-level running offset within the (per-level) video file.
        let mut offsets = [0u64; NUM_LEVELS];
        for seg in &video.segments {
            let sweeps = OrderSweep::all(model, seg);
            let [original, tail, rank] = &sweeps;
            let order_of = |kind: OrderingKind| {
                let sweep = match kind {
                    OrderingKind::Original => original,
                    OrderingKind::UnreferencedTail => tail,
                    OrderingKind::InboundRank => rank,
                };
                Arc::clone(&sweep.order)
            };
            // The unreferenced-tail ordering puts exactly these frames last.
            let unreferenced = seg
                .gop
                .frames
                .iter()
                .filter(|f| f.kind != FrameKind::I && seg.gop.dependents[f.index].is_empty())
                .count();
            let mut row = Vec::with_capacity(NUM_LEVELS);
            for level in QualityLevel::all() {
                let header_total = FRAME_HEADER_BYTES * seg.gop.len() as u64;
                let total = seg.bytes(level) + header_total;
                let media_range = (offsets[level.index()], offsets[level.index()] + total - 1);
                offsets[level.index()] += total;
                let reliable_size = seg.frame_bytes(level, 0) + header_total;

                let entry = if levels.contains(&level) {
                    let analysis = analyze(&sweeps, model, seg, level, force);
                    let tail_points = &analysis.tail.points;
                    SegmentEntry {
                        segment: seg.index,
                        level,
                        media_range,
                        ssims: analysis.best.points,
                        ordering: analysis.best.ordering,
                        download_order: order_of(analysis.best.ordering),
                        beta_boundary: tail_points[tail_points.len() - unreferenced - 1],
                        beta_order: order_of(OrderingKind::UnreferencedTail),
                        reliable_size,
                        pristine_ssim: model.pristine_ssim(seg, level),
                        bound: analysis.bound,
                        min_bytes: analysis.min_bytes,
                    }
                } else {
                    // Placeholder: full-segment-only entry (no virtual levels).
                    let pristine = model.pristine_ssim(seg, level);
                    let full = QoePoint::new(pristine, seg.gop.len(), seg.bytes(level));
                    SegmentEntry {
                        segment: seg.index,
                        level,
                        media_range,
                        ssims: vec![full],
                        ordering: OrderingKind::Original,
                        download_order: order_of(OrderingKind::Original),
                        beta_boundary: full,
                        beta_order: order_of(OrderingKind::Original),
                        reliable_size,
                        pristine_ssim: pristine,
                        bound: pristine,
                        min_bytes: seg.bytes(level),
                    }
                };
                row.push(entry);
            }
            entries.push(row);
        }
        Manifest {
            video_id: video.id,
            entries,
            size: OnceLock::new(),
        }
    }

    /// The entry for `segment` at `level`.
    pub fn entry(&self, segment: usize, level: QualityLevel) -> &SegmentEntry {
        &self.entries[segment][level.index()]
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.entries.len()
    }

    /// Serialize in the Listing 1 style (one `<SegmentURL …/>` per entry).
    ///
    /// Like the paper's proof-of-concept, this is a naïve, unoptimized text
    /// encoding — its size relative to a Q12 segment (≈16 % in the paper)
    /// is reported by [`Manifest::size_bytes`].
    pub fn to_mpd(&self) -> String {
        mpd::write_mpd(
            &self.video_id,
            self.num_segments(),
            self.entries.iter().flatten().map(|e| mpd::Line {
                segment: e.segment,
                level: e.level.index(),
                media_range: e.media_range,
                ordering: &e.ordering,
                reliable_size: e.reliable_size,
                ssims: &e.ssims,
            }),
        )
    }

    /// Size of the serialized manifest in bytes: the length of
    /// [`Manifest::to_mpd`] for the manifest as prepared. It is measured on
    /// the first call and remembered, so `entries` must not be edited after
    /// that (nothing does).
    pub fn size_bytes(&self) -> usize {
        *self.size.get_or_init(|| self.to_mpd().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_media::video::Video;

    fn quick_manifest() -> (Video, Manifest) {
        let video = Video::generate(VideoId::Tos);
        let model = QoeModel::default();
        let m = Manifest::prepare_levels(&video, &model, &[QualityLevel::MAX, QualityLevel(9)]);
        (video, m)
    }

    #[test]
    fn entries_cover_all_segments_and_levels() {
        let (video, m) = quick_manifest();
        assert_eq!(m.num_segments(), video.segments.len());
        for row in &m.entries {
            assert_eq!(row.len(), NUM_LEVELS);
        }
    }

    #[test]
    fn media_ranges_are_contiguous_per_level() {
        let (_, m) = quick_manifest();
        for level in QualityLevel::all() {
            let mut expected_start = 0u64;
            for seg in 0..m.num_segments() {
                let e = m.entry(seg, level);
                assert_eq!(e.media_range.0, expected_start);
                assert!(e.media_range.1 > e.media_range.0);
                expected_start = e.media_range.1 + 1;
            }
        }
    }

    #[test]
    fn total_bytes_includes_headers() {
        let (video, m) = quick_manifest();
        let e = m.entry(0, QualityLevel::MAX);
        let seg = &video.segments[0];
        assert_eq!(
            e.total_bytes(),
            seg.bytes(QualityLevel::MAX) + FRAME_HEADER_BYTES * seg.gop.len() as u64
        );
        assert!(e.reliable_size > FRAME_HEADER_BYTES * seg.gop.len() as u64);
        assert!(e.reliable_size < e.total_bytes());
    }

    #[test]
    fn prepared_level_has_virtual_points_placeholder_does_not() {
        let (_, m) = quick_manifest();
        assert!(m.entry(0, QualityLevel::MAX).ssims.len() > 1);
        assert_eq!(m.entry(0, QualityLevel(3)).ssims.len(), 1);
    }

    #[test]
    fn best_within_and_cheapest_reaching_are_consistent() {
        let (_, m) = quick_manifest();
        let e = m.entry(5, QualityLevel::MAX);
        let full = e.ssims.last().unwrap();
        let p = e.cheapest_reaching(e.bound).expect("bound is reachable");
        assert!(p.bytes <= full.bytes);
        let q = e.best_within(u64::from(p.bytes)).unwrap();
        assert!(q.ssim >= p.ssim - 1e-12);
        assert_eq!(e.point_at_frames(p.frames as usize).frames, p.frames);
    }

    #[test]
    fn download_order_matches_ordering() {
        let (video, m) = quick_manifest();
        let e = m.entry(2, QualityLevel::MAX);
        let expected = crate::ordering::frame_order(&video.segments[2], e.ordering);
        assert_eq!(*e.download_order, *expected);
        assert_eq!(e.download_order[0], 0);
    }

    #[test]
    fn mpd_serialization_contains_listing_1_attributes() {
        let (_, m) = quick_manifest();
        let mpd = m.to_mpd();
        assert!(mpd.contains("mediaRange="));
        assert!(mpd.contains("ssims="));
        assert!(mpd.contains("reliableSize="));
        assert!(mpd.starts_with("<MPD"));
        assert!(mpd.trim_end().ends_with("</MPD>"));
        assert!(m.size_bytes() == mpd.len());
    }

    #[test]
    fn cached_size_is_the_mpd_length() {
        let video = Video::generate(VideoId::Bbb);
        let model = QoeModel::default();
        let manifests = [
            Manifest::prepare(&video, &model),
            Manifest::prepare_levels(&video, &model, &[QualityLevel::MAX]),
            Manifest::prepare_forced(&video, &model, &[QualityLevel::MAX], OrderingKind::Original),
        ];
        for m in manifests {
            let len = m.to_mpd().len();
            let before = m.clone();
            assert_eq!(m.size_bytes(), len, "first call");
            assert_eq!(m.size_bytes(), len, "second call");
            let after = m.clone();
            assert_eq!(before.size_bytes(), len, "clone made before the first call");
            assert_eq!(after.size_bytes(), len, "clone made after the first call");
        }
    }

    #[test]
    fn manifest_overhead_is_moderate() {
        // The paper reports the enriched manifest at ~16% of an average Q12
        // segment *per segment entry*; sanity-check ours is within the same
        // order of magnitude (< 60%) for the fully prepared levels.
        let (video, m) = quick_manifest();
        let avg_q12: f64 = video
            .segments
            .iter()
            .map(|s| s.bytes(QualityLevel::MAX) as f64)
            .sum::<f64>()
            / video.segments.len() as f64;
        let per_entry = m.size_bytes() as f64 / (m.num_segments() as f64 * 2.0);
        assert!(
            per_entry / avg_q12 < 0.6,
            "per-entry overhead {:.1}% of a Q12 segment",
            100.0 * per_entry / avg_q12
        );
    }

    #[test]
    fn prepare_equals_a_per_level_analysis_entry_for_entry() {
        // The manifest shares each segment's orderings and sweeps across its
        // 13 levels; analysing every level from scratch must agree exactly.
        use crate::analysis::analyze_segment_forced;
        use crate::ordering::frame_order;
        let video = Video::generate(VideoId::Ed);
        let model = QoeModel::default();
        let m = Manifest::prepare(&video, &model);
        for seg in &video.segments {
            for level in QualityLevel::all() {
                let e = m.entry(seg.index, level);
                let a = analyze_segment_forced(&model, seg, level, None);
                let at = format!("seg {} {level}", seg.index);
                assert_eq!(e.ssims, a.best.points, "{at}");
                assert_eq!(e.ordering, a.best.ordering, "{at}");
                assert_eq!(*e.download_order, *frame_order(seg, e.ordering), "{at}");
                // BETA's boundary drops the tail map's 32 unreferenced b-frames.
                let boundary = a.tail.points[a.tail.points.len() - 33];
                assert_eq!(e.beta_boundary, boundary, "{at}");
                let tail = frame_order(seg, OrderingKind::UnreferencedTail);
                assert_eq!(*e.beta_order, *tail, "{at}");
                assert_eq!(e.bound.to_bits(), a.bound.to_bits(), "{at}");
                assert_eq!(e.min_bytes, a.min_bytes, "{at}");
                let pristine = model.pristine_ssim(seg, level);
                assert_eq!(e.pristine_ssim.to_bits(), pristine.to_bits(), "{at}");
            }
        }
    }

    #[test]
    fn forced_ordering_is_respected() {
        let video = Video::generate(VideoId::Bbb);
        let model = QoeModel::default();
        for kind in OrderingKind::ALL {
            let m = Manifest::prepare_forced(&video, &model, &[QualityLevel::MAX], kind);
            for seg in [0usize, 17, 42] {
                assert_eq!(m.entry(seg, QualityLevel::MAX).ordering, kind);
            }
        }
        // Unforced preparation picks per-segment winners; at least one
        // segment must use the rank ordering (it dominates Fig 2b).
        let free = Manifest::prepare_levels(&video, &model, &[QualityLevel::MAX]);
        assert!((0..free.num_segments())
            .any(|s| free.entry(s, QualityLevel::MAX).ordering == OrderingKind::InboundRank));
    }

    #[test]
    fn min_bytes_never_exceeds_total_payload() {
        let (video, m) = quick_manifest();
        for seg in 0..m.num_segments() {
            let e = m.entry(seg, QualityLevel::MAX);
            assert!(e.min_bytes <= video.segments[seg].bytes(QualityLevel::MAX));
        }
    }
}
