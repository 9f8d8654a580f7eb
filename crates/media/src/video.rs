//! Synthetic video generation: 75 × 4 s segments × 13 quality levels.
//!
//! Mirrors the paper's evaluation clips (§5 "Videos" / §A): five-minute
//! sections of each video, transcoded as "2× capped" VBR at the Table 2
//! ladder. Segment sizes vary with content (Fig 15) with per-video standard
//! deviations from Tables 1 & 3; the same relative variation is applied at
//! every level, as capped-VBR encodes exhibit.

use crate::content::{ContentProfile, VideoId};
use crate::gop::{GopStructure, FRAMES_PER_SEGMENT};
use crate::ladder::{QualityLevel, NUM_LEVELS};
use voxel_sim::SimRng;

/// Segments per evaluation clip (5 minutes of 4 s segments).
pub(crate) const SEGMENTS_PER_VIDEO: usize = 75;

/// Segment duration in seconds.
pub const SEGMENT_DURATION_S: f64 = 4.0;

/// One 4-second segment across all 13 quality levels.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Segment index within the clip, `0..SEGMENTS_PER_VIDEO`.
    pub index: usize,
    /// The GOP / reference structure (identical across levels).
    pub gop: GopStructure,
    /// Total encoded bytes at each quality level.
    pub total_bytes: [u64; NUM_LEVELS],
    /// Per-level, per-frame byte sizes (`frame_bytes[level][frame]`);
    /// each level's row sums exactly to `total_bytes[level]`.
    frame_bytes: Vec<Vec<u64>>,
    /// Whether this is a near-static scene (title card / still shot).
    pub is_static: bool,
    /// Whether the segment opens with a scene cut.
    pub has_cut: bool,
    /// Mean motion of the segment in `[0,1]`.
    pub mean_motion: f64,
    /// Rate–distortion complexity multiplier used by the QoE model.
    pub complexity: f64,
}

impl Segment {
    /// Encoded bytes of frame `frame` at `level`.
    pub fn frame_bytes(&self, level: QualityLevel, frame: usize) -> u64 {
        self.frame_bytes[level.index()][frame]
    }

    /// All frame sizes at `level`, in presentation order.
    pub fn frame_sizes(&self, level: QualityLevel) -> &[u64] {
        &self.frame_bytes[level.index()]
    }

    /// Total segment size in bytes at `level`.
    pub fn bytes(&self, level: QualityLevel) -> u64 {
        self.total_bytes[level.index()]
    }

    /// The *segment bitrate* in Mbps at `level` — the bandwidth required to
    /// stream this particular segment (the paper plots these, not the
    /// video-wide average; see Fig 15).
    pub fn bitrate_mbps(&self, level: QualityLevel) -> f64 {
        self.bytes(level) as f64 * 8.0 / SEGMENT_DURATION_S / 1e6
    }
}

/// A complete synthetic video clip.
#[derive(Debug, Clone)]
pub struct Video {
    /// Which video this is.
    pub id: VideoId,
    /// The content profile it was generated from.
    pub profile: ContentProfile,
    /// The 75 segments.
    pub segments: Vec<Segment>,
}

impl Video {
    /// Deterministically generate the clip for `id` (same `id` ⇒ identical
    /// video, bit for bit, across runs and platforms).
    pub fn generate(id: VideoId) -> Video {
        let profile = id.profile();
        let mut rng = SimRng::derive(id.seed(), "video-gen");
        let segments = (0..SEGMENTS_PER_VIDEO)
            .map(|i| Self::generate_segment(&profile, i, &mut rng))
            .collect();
        Video {
            id,
            profile,
            segments,
        }
    }

    fn generate_segment(profile: &ContentProfile, index: usize, rng: &mut SimRng) -> Segment {
        let is_static = rng.chance(profile.static_scene_prob);
        let has_cut = !is_static && rng.chance(profile.cut_rate);

        // Per-segment mean motion.
        let mean_motion = if is_static {
            rng.uniform_range(0.01, 0.06)
        } else {
            rng.normal_ms(profile.motion_mean, profile.motion_spread)
                .clamp(0.02, 1.0)
        };

        // Per-frame motion: AR(1) around the segment mean; a cut spikes the
        // first few frames (new scene content).
        let rho = 0.85;
        let mut motions = Vec::with_capacity(FRAMES_PER_SEGMENT);
        let mut m = mean_motion;
        for i in 0..FRAMES_PER_SEGMENT {
            let jitter = rng.normal() * profile.motion_jitter;
            m = mean_motion + rho * (m - mean_motion) + jitter;
            let mut mi = m.clamp(0.005, 1.0);
            if has_cut && i < 3 {
                mi = (mi + 0.5).min(1.0);
            }
            motions.push(mi);
        }

        // I-frame byte share: larger for static/cut segments, smaller for
        // high-motion ones (residual data dominates there).
        let mut i_share = (0.15 + 0.30 * (0.25 - mean_motion)).clamp(0.06, 0.50);
        if has_cut {
            i_share = (i_share + 0.08).min(0.55);
        }
        if is_static {
            i_share = (i_share + 0.15).min(0.60);
        }

        let gop = GopStructure::build(&motions, i_share);

        // Capped-VBR multiplier: correlated with motion, matching the
        // per-video stddev of Tables 1/3, capped at 2x the average (and
        // floored at 0.3x) as in the paper's "2x capped" encodes.
        let rel_std = profile.relative_std();
        let motion_z = if profile.motion_spread > 1e-6 {
            ((mean_motion - profile.motion_mean) / profile.motion_spread).clamp(-2.5, 2.5)
        } else {
            0.0
        };
        let z = 0.6 * motion_z + 0.8 * rng.normal();
        let mult = (1.0 + rel_std * z).clamp(0.3, 2.0);

        // RD complexity for the QoE model: how hard this segment is to
        // encode at a given bitrate.
        let complexity = (0.55 + 1.3 * mean_motion + 0.25 * rng.normal().abs()).clamp(0.3, 2.5);

        let mut total_bytes = [0u64; NUM_LEVELS];
        let mut frame_bytes = Vec::with_capacity(NUM_LEVELS);
        for level in QualityLevel::all() {
            let total = (level.avg_bitrate_bps() * SEGMENT_DURATION_S / 8.0 * mult).round() as u64;
            total_bytes[level.index()] = total;

            // Distribute by weight with exact total: round each, dump the
            // residual on the I-frame.
            let mut row: Vec<u64> = gop
                .frames
                .iter()
                .map(|f| (f.size_weight * total as f64).floor() as u64)
                .collect();
            let assigned: u64 = row.iter().sum();
            row[0] += total - assigned;
            frame_bytes.push(row);
        }

        Segment {
            index,
            gop,
            total_bytes,
            frame_bytes,
            is_static,
            has_cut,
            mean_motion,
            complexity,
        }
    }

    /// Clip duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.segments.len() as f64 * SEGMENT_DURATION_S
    }

    /// Mean segment bitrate at `level` in Mbps.
    pub fn avg_bitrate_mbps(&self, level: QualityLevel) -> f64 {
        self.segments
            .iter()
            .map(|s| s.bitrate_mbps(level))
            .sum::<f64>()
            / self.segments.len() as f64
    }

    /// Standard deviation of per-segment bitrate at `level` in Mbps
    /// (the Tables 1/3 statistic when `level` = Q12).
    pub fn bitrate_std_mbps(&self, level: QualityLevel) -> f64 {
        let rates: Vec<f64> = self
            .segments
            .iter()
            .map(|s| s.bitrate_mbps(level))
            .collect();
        voxel_sim::stats::std_dev(&rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Video::generate(VideoId::Bbb);
        let b = Video::generate(VideoId::Bbb);
        assert_eq!(a.segments.len(), SEGMENTS_PER_VIDEO);
        for (sa, sb) in a.segments.iter().zip(&b.segments) {
            assert_eq!(sa.total_bytes, sb.total_bytes);
            assert_eq!(sa.mean_motion, sb.mean_motion);
        }
    }

    #[test]
    fn different_videos_differ() {
        let a = Video::generate(VideoId::Bbb);
        let b = Video::generate(VideoId::Sintel);
        assert_ne!(a.segments[0].total_bytes, b.segments[0].total_bytes);
    }

    #[test]
    fn frame_bytes_sum_to_total() {
        let v = Video::generate(VideoId::Tos);
        for seg in &v.segments {
            for level in QualityLevel::all() {
                let sum: u64 = seg.frame_sizes(level).iter().sum();
                assert_eq!(sum, seg.bytes(level), "seg {} {level}", seg.index);
            }
        }
    }

    #[test]
    fn average_bitrate_tracks_ladder() {
        let v = Video::generate(VideoId::Bbb);
        for level in QualityLevel::all() {
            let avg = v.avg_bitrate_mbps(level);
            let target = level.avg_bitrate_mbps();
            assert!(
                (avg / target - 1.0).abs() < 0.25,
                "{level}: avg {avg} vs target {target}"
            );
        }
    }

    #[test]
    fn vbr_is_capped_at_2x() {
        for id in VideoId::all() {
            let v = Video::generate(id);
            for seg in &v.segments {
                let ratio =
                    seg.bitrate_mbps(QualityLevel::MAX) / QualityLevel::MAX.avg_bitrate_mbps();
                assert!(ratio <= 2.0 + 1e-9, "{id} seg {} ratio {ratio}", seg.index);
                assert!(ratio >= 0.3 - 1e-9);
            }
        }
    }

    #[test]
    fn bitrate_std_matches_table_1_order() {
        // Sintel (7.5) must vary more than ToS (3.52) at Q12, and the
        // generated stds should be within ~40% of the table values.
        let sintel = Video::generate(VideoId::Sintel);
        let tos = Video::generate(VideoId::Tos);
        let ss = sintel.bitrate_std_mbps(QualityLevel::MAX);
        let ts = tos.bitrate_std_mbps(QualityLevel::MAX);
        assert!(ss > ts, "sintel {ss} vs tos {ts}");
        assert!((ss / 7.5 - 1.0).abs() < 0.4, "sintel std {ss}");
        assert!((ts / 3.52 - 1.0).abs() < 0.4, "tos std {ts}");
    }

    #[test]
    fn p10_has_no_static_segments() {
        let v = Video::generate(VideoId::YouTube(10));
        assert!(v.segments.iter().all(|s| !s.is_static));
        assert!(v.segments.iter().all(|s| s.mean_motion > 0.5));
    }

    #[test]
    fn p9_is_mostly_static_low_motion() {
        let v = Video::generate(VideoId::YouTube(9));
        let static_frac =
            v.segments.iter().filter(|s| s.is_static).count() as f64 / v.segments.len() as f64;
        assert!(static_frac > 0.25, "static fraction {static_frac}");
        let avg_motion: f64 =
            v.segments.iter().map(|s| s.mean_motion).sum::<f64>() / v.segments.len() as f64;
        assert!(avg_motion < 0.12, "avg motion {avg_motion}");
    }

    #[test]
    fn duration_is_five_minutes() {
        let v = Video::generate(VideoId::Ed);
        assert_eq!(v.duration_s(), 300.0);
    }

    #[test]
    fn segment_bitrates_vary_across_segments() {
        // Fig 15: segments exhibit vastly different bitrates.
        let v = Video::generate(VideoId::Sintel);
        let rates: Vec<f64> = v
            .segments
            .iter()
            .map(|s| s.bitrate_mbps(QualityLevel::MAX))
            .collect();
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max / min > 2.0, "min {min} max {max}");
    }
}
