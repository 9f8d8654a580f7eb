//! BETA (James et al., MMSys '19), re-implemented from its paper.
//!
//! "We implemented BETA from scratch, to the best of our ability, based on
//! the details in their paper, since it is not publicly available." (§5,
//! footnote 3). BETA's characteristics, as the VOXEL paper describes them:
//!
//! - runs over a **reliable** transport (TCP there; a reliable QUIC stream
//!   here) — no imperfect transmission;
//! - reorders **only unreferenced B-frames** to the segment tail (the video
//!   files are modified; we model the same ordering via
//!   `OrderingKind::UnreferencedTail`);
//! - knows **one virtual quality level per quality**: the segment with all
//!   unreferenced b-frames dropped. It cannot evaluate intermediate drop
//!   amounts ("BETA only determines one virtual quality threshold per
//!   quality level");
//! - under throughput shortfall it truncates at the b-frame boundary, and
//!   in the worst case "simply discard\[s\] the data and fetch\[es\] the same
//!   segment at the lowest quality".

use crate::traits::{AbandonAction, Abr, AbrContext, Decision, DownloadProgress};
use voxel_media::ladder::QualityLevel;
use voxel_media::video::SEGMENT_DURATION_S;
use voxel_prep::analysis::QoePoint;

/// The BETA algorithm.
#[derive(Debug, Clone, Default)]
pub struct Beta {
    current: Option<QualityLevel>,
}

impl Beta {
    /// New instance.
    pub fn new() -> Beta {
        Beta::default()
    }

    /// BETA's single virtual quality point for a segment: everything except
    /// the unreferenced b-frames (which its reordering placed at the tail),
    /// as content preparation recorded it in the manifest.
    pub(crate) fn b_frame_boundary(ctx: &AbrContext<'_>, level: QualityLevel) -> QoePoint {
        ctx.manifest.entry(ctx.segment_index, level).beta_boundary
    }
}

impl Abr for Beta {
    fn name(&self) -> &'static str {
        "BETA"
    }

    fn choose(&mut self, ctx: &AbrContext<'_>) -> Decision {
        // Rate-based selection with a buffer-aware safety margin (BETA's
        // bandwidth-efficiency goal: pick by throughput, then stretch it
        // with the b-frame drop option).
        let Some(est) = ctx.throughput_bps else {
            self.current = Some(QualityLevel::MIN);
            return Decision::full(QualityLevel::MIN);
        };
        let safety = if ctx.buffer_s < 2.0 * SEGMENT_DURATION_S {
            0.7
        } else {
            0.85
        };
        let budget_bits = est * safety * SEGMENT_DURATION_S;
        let mut pick = QualityLevel::MIN;
        for level in QualityLevel::all() {
            // BETA may count on its virtual level: the b-frame-truncated
            // segment must fit the budget.
            let boundary = Beta::b_frame_boundary(ctx, level);
            let reliable = ctx.manifest.entry(ctx.segment_index, level).reliable_size;
            if (u64::from(boundary.bytes) + reliable) as f64 * 8.0 <= budget_bits {
                pick = level;
            }
        }
        self.current = Some(pick);
        // BETA requests the full segment and truncates only under pressure.
        Decision::full(pick)
    }

    fn on_progress(&mut self, ctx: &AbrContext<'_>, p: &DownloadProgress) -> AbandonAction {
        let Some(current) = self.current else {
            return AbandonAction::Continue;
        };
        // Grace period: no meaningful rate signal yet.
        if p.elapsed_s < 0.5 || p.eta_s() < p.buffer_s * 0.9 {
            return AbandonAction::Continue;
        }
        // Throughput shortfall. Option 1: if the b-frame boundary has been
        // reached (or will be before the buffer drains), truncate there —
        // BETA's one virtual quality level.
        let boundary = Beta::b_frame_boundary(ctx, current);
        if p.bytes_received >= u64::from(boundary.bytes) {
            return AbandonAction::KeepPartial;
        }
        let projected = p.bytes_received as f64 + p.download_rate_bps / 8.0 * p.buffer_s.max(0.3);
        if projected >= boundary.bytes as f64 {
            return AbandonAction::Continue; // boundary reachable in time
        }
        // Option 2 (worst case per §6): discard and refetch at the lowest
        // quality.
        if current > QualityLevel::MIN {
            self.current = Some(QualityLevel::MIN);
            AbandonAction::RestartAt(QualityLevel::MIN)
        } else {
            AbandonAction::Continue
        }
    }

    fn uses_unreliable_transport(&self) -> bool {
        false // BETA is TCP-based: fully reliable delivery.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_media::content::VideoId;
    use voxel_media::qoe::QoeModel;
    use voxel_media::video::Video;
    use voxel_prep::manifest::Manifest;

    fn setup() -> (Video, Manifest) {
        let video = Video::generate(VideoId::Tos);
        let m = Manifest::prepare_levels(&video, &QoeModel::default(), &[QualityLevel::MAX]);
        (video, m)
    }

    fn ctx<'a>(m: &'a Manifest, buffer_s: f64, tput: Option<f64>) -> AbrContext<'a> {
        AbrContext {
            segment_index: 3,
            buffer_s,
            buffer_capacity_s: 28.0,
            throughput_bps: tput,
            conservative_throughput_bps: tput,
            last_level: None,
            manifest: m,
            rebuffering: false,
        }
    }

    #[test]
    fn unref_count_matches_gop() {
        let (video, _) = setup();
        let seg = &video.segments[0];
        let actual = seg
            .gop
            .frames
            .iter()
            .filter(|f| f.kind == voxel_media::gop::FrameKind::BUnref)
            .count();
        assert_eq!(actual, 32);
    }

    #[test]
    fn boundary_point_is_below_full_segment() {
        let (_, m) = setup();
        let c = ctx(&m, 8.0, Some(10e6));
        let b = Beta::b_frame_boundary(&c, QualityLevel::MAX);
        let full = m.entry(3, QualityLevel::MAX).ssims.last().unwrap().bytes;
        assert!(b.bytes < full);
        assert!(b.frames <= 96 && b.frames >= 96 - 32);
    }

    #[test]
    fn chooses_by_throughput() {
        let (_, m) = setup();
        let mut beta = Beta::new();
        assert_eq!(beta.choose(&ctx(&m, 8.0, None)).level, QualityLevel::MIN);
        let lo = beta.choose(&ctx(&m, 8.0, Some(1e6))).level;
        let hi = beta.choose(&ctx(&m, 8.0, Some(30e6))).level;
        assert!(hi > lo);
        assert_eq!(hi, QualityLevel::MAX);
    }

    #[test]
    fn shortfall_past_boundary_keeps_partial() {
        let (_, m) = setup();
        let mut beta = Beta::new();
        // High throughput so BETA picks Q12 (the fully analysed level,
        // whose boundary point is strictly below the full segment).
        let c = ctx(&m, 3.0, Some(40e6));
        let d = beta.choose(&c);
        let boundary = Beta::b_frame_boundary(&c, d.level);
        let full = u64::from(m.entry(3, d.level).ssims.last().unwrap().bytes);
        let p = DownloadProgress {
            bytes_received: u64::from(boundary.bytes) + 1,
            bytes_target: full,
            elapsed_s: 3.5,
            buffer_s: 1.0,
            download_rate_bps: 50_000.0,
        };
        assert_eq!(beta.on_progress(&c, &p), AbandonAction::KeepPartial);
    }

    #[test]
    fn shortfall_before_boundary_restarts_at_lowest() {
        let (_, m) = setup();
        let mut beta = Beta::new();
        let c = ctx(&m, 3.0, Some(40e6));
        let d = beta.choose(&c);
        assert!(d.level > QualityLevel::MIN);
        let full = u64::from(m.entry(3, d.level).ssims.last().unwrap().bytes);
        let p = DownloadProgress {
            bytes_received: full / 20,
            bytes_target: full,
            elapsed_s: 3.5,
            buffer_s: 1.0,
            download_rate_bps: 50_000.0,
        };
        assert_eq!(
            beta.on_progress(&c, &p),
            AbandonAction::RestartAt(QualityLevel::MIN)
        );
    }

    #[test]
    fn healthy_download_continues() {
        let (_, m) = setup();
        let mut beta = Beta::new();
        let c = ctx(&m, 12.0, Some(10e6));
        let d = beta.choose(&c);
        let full = u64::from(m.entry(3, d.level).ssims.last().unwrap().bytes);
        let p = DownloadProgress {
            bytes_received: full / 2,
            bytes_target: full,
            elapsed_s: 1.0,
            buffer_s: 12.0,
            download_rate_bps: 20e6,
        };
        assert_eq!(beta.on_progress(&c, &p), AbandonAction::Continue);
    }

    #[test]
    fn beta_is_reliable_transport() {
        assert!(!Beta::new().uses_unreliable_transport());
    }
}
