//! MPC\*: robust MPC adapted to VOXEL's decision space.
//!
//! §4.3 notes that "it is relatively simple to update MPC to use a QoE
//! metric as the utility function. MPC, however, searches the entire
//! decision space within a window … the large decision space provided by
//! VOXEL would require further modifications to MPC to curb the search
//! space." This module is that modification:
//!
//! - utility = SSIM (log-distortion, like BOLA-SSIM) instead of bitrate;
//! - per quality level the planner considers only the handful of curbed
//!   candidate points BOLA-SSIM uses (the §4.1 bound point, a few evenly
//!   spaced virtual levels above it, and the full segment) — a per-step
//!   branching factor of ~65 instead of the thousands of raw byte targets;
//! - lookahead and memoized search as in [`crate::mpc`].
//!
//! Mid-download it adopts ABR\*'s keep-partial abandonment (it runs over
//! QUIC\*, so a cut segment is still playable).

use crate::bola_ssim::candidates;
use crate::traits::{AbandonAction, Abr, AbrContext, Decision, DownloadProgress};
#[expect(
    clippy::disallowed_types,
    reason = "memo table — key lookup only, never iterated"
)]
use std::collections::HashMap;
use voxel_media::ladder::QualityLevel;
use voxel_media::video::SEGMENT_DURATION_S;
use voxel_prep::analysis::QoePoint;

/// MPC over virtual quality levels.
#[derive(Debug, Clone)]
pub struct MpcStar {
    /// Lookahead horizon in segments.
    pub horizon: usize,
    /// Rebuffer penalty per second of stall (utility units).
    pub rebuffer_penalty: f64,
    /// Switch penalty per unit of utility change between segments.
    pub switch_penalty: f64,
}

impl Default for MpcStar {
    fn default() -> Self {
        MpcStar {
            horizon: 5,
            rebuffer_penalty: 8.0,
            switch_penalty: 0.3,
        }
    }
}

/// One curbed option: (level, point, is_full).
#[derive(Debug, Clone, Copy)]
struct Option_ {
    level: QualityLevel,
    point: QoePoint,
    is_full: bool,
}

/// Buffer discretization for memoization (0.25 s buckets).
const BUCKET_S: f64 = 0.25;

fn utility(ssim: f64) -> f64 {
    // Floor the distortion at 1e-3: SSIM differences below 0.001 are
    // imperceptible, and without the floor the log utility of a *perfect*
    // segment dwarfs every virtual level, re-collapsing the decision space
    // to full segments only.
    -((1.0 - ssim).max(1e-3)).ln()
}

#[expect(
    clippy::disallowed_types,
    reason = "the whole impl is the memoized DP: HashMap is key-lookup only, never iterated"
)]
impl MpcStar {
    /// The curbed option set for one segment: BOLA-SSIM's candidate points
    /// (bound, a few intermediates, full) per level.
    fn options(ctx: &AbrContext<'_>, seg: usize) -> Vec<Option_> {
        let mut out = Vec::with_capacity(65);
        for level in QualityLevel::all() {
            let entry = ctx
                .manifest
                .entry(seg.min(ctx.manifest.num_segments() - 1), level);
            for c in candidates(entry) {
                out.push(Option_ {
                    level,
                    point: c.point,
                    is_full: c.is_full,
                });
            }
        }
        out
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the DP state is the argument list"
    )]
    fn search(
        &self,
        ctx: &AbrContext<'_>,
        bps: f64,
        step: usize,
        prev_u: i64,
        buffer_s: f64,
        memo: &mut HashMap<(usize, i64, i64), (f64, usize)>,
    ) -> (f64, usize) {
        if step >= self.horizon || ctx.segment_index + step >= ctx.manifest.num_segments() {
            return (0.0, 0);
        }
        let key = (step, prev_u, (buffer_s / BUCKET_S) as i64);
        if let Some(&hit) = memo.get(&key) {
            return hit;
        }
        let seg = ctx.segment_index + step;
        let options = Self::options(ctx, seg);
        let mut best = (f64::NEG_INFINITY, 0usize);
        for (idx, opt) in options.iter().enumerate() {
            let reliable = ctx.manifest.entry(seg, opt.level).reliable_size;
            let bits = (u64::from(opt.point.bytes) + reliable) as f64 * 8.0;
            let download_s = bits / bps.max(1.0);
            let stall = (download_s - buffer_s).max(0.0);
            let next_buffer =
                ((buffer_s - download_s).max(0.0) + SEGMENT_DURATION_S).min(ctx.buffer_capacity_s);
            let u = utility(opt.point.ssim);
            // Quantize utility for the memo key of the next step.
            let u_q = (u * 10.0) as i64;
            let qoe = u
                - self.rebuffer_penalty * stall
                - self.switch_penalty * (u_q - prev_u).abs() as f64 / 10.0;
            let (future, _) = self.search(ctx, bps, step + 1, u_q, next_buffer, memo);
            let total = qoe + future;
            if total > best.0 {
                best = (total, idx);
            }
        }
        memo.insert(key, best);
        best
    }
}

impl Abr for MpcStar {
    fn name(&self) -> &'static str {
        "MPC*"
    }

    fn choose(&mut self, ctx: &AbrContext<'_>) -> Decision {
        let Some(pred) = ctx.conservative_throughput_bps.or(ctx.throughput_bps) else {
            return Decision::full(QualityLevel::MIN);
        };
        #[expect(
            clippy::disallowed_types,
            reason = "memo table — key lookup only, never iterated"
        )]
        let mut memo = HashMap::new();
        let prev_u = ctx
            .last_level
            .map(|l| {
                let e = ctx.manifest.entry(ctx.segment_index.saturating_sub(1), l);
                (utility(e.pristine_ssim) * 10.0) as i64
            })
            .unwrap_or(0);
        let (_, idx) = self.search(ctx, pred, 0, prev_u, ctx.buffer_s, &mut memo);
        let options = Self::options(ctx, ctx.segment_index);
        let opt = options[idx.min(options.len() - 1)];
        Decision {
            level: opt.level,
            target: (!opt.is_full).then_some(opt.point),
        }
    }

    fn on_progress(&mut self, _ctx: &AbrContext<'_>, p: &DownloadProgress) -> AbandonAction {
        // ABR*-style deadline-driven keep-partial.
        let remaining = p.bytes_target.saturating_sub(p.bytes_received);
        if remaining == 0 || p.elapsed_s < 0.25 {
            return AbandonAction::Continue;
        }
        let eta = p.eta_s();
        if eta + 0.5 < p.buffer_s || p.buffer_s > 1.0 {
            return AbandonAction::Continue;
        }
        AbandonAction::KeepPartial
    }

    fn uses_unreliable_transport(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_media::content::VideoId;
    use voxel_media::qoe::QoeModel;
    use voxel_media::video::Video;
    use voxel_prep::manifest::Manifest;

    fn manifest() -> Manifest {
        let video = Video::generate(VideoId::Bbb);
        Manifest::prepare_levels(
            &video,
            &QoeModel::default(),
            &[QualityLevel::MAX, QualityLevel(9)],
        )
    }

    fn ctx<'a>(m: &'a Manifest, buffer_s: f64, tput: Option<f64>) -> AbrContext<'a> {
        AbrContext {
            segment_index: 10,
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
    fn curbed_option_set_is_small() {
        let m = manifest();
        let c = ctx(&m, 10.0, Some(10e6));
        let opts = MpcStar::options(&c, 10);
        // At most 5 per level (BOLA-SSIM's curbed candidates).
        assert!(opts.len() <= 65, "{} options", opts.len());
        assert!(opts.len() >= 13);
    }

    #[test]
    fn no_estimate_starts_lowest() {
        let m = manifest();
        let mut mpc = MpcStar::default();
        assert_eq!(mpc.choose(&ctx(&m, 0.0, None)).level, QualityLevel::MIN);
    }

    #[test]
    fn rich_conditions_pick_high_quality() {
        let m = manifest();
        let mut mpc = MpcStar::default();
        let d = mpc.choose(&ctx(&m, 24.0, Some(50e6)));
        assert!(d.level >= QualityLevel(11), "got {}", d.level);
    }

    #[test]
    fn quality_is_monotone_in_bandwidth() {
        let m = manifest();
        let mut mpc = MpcStar::default();
        let mut prev_bits = 0u64;
        for mbps in [1.0, 3.0, 8.0, 20.0] {
            let d = mpc.choose(&ctx(&m, 12.0, Some(mbps * 1e6)));
            let e = m.entry(10, d.level);
            let bits = e.reliable_size + d.target.map_or(e.total_bytes(), |p| u64::from(p.bytes));
            assert!(
                bits >= prev_bits,
                "{mbps} Mbps picked fewer bytes than a slower link"
            );
            prev_bits = bits;
        }
    }

    #[test]
    fn partial_targets_appear_when_bandwidth_pinches() {
        // Sweep the plane; MPC* must sometimes pick a partial Q12 rather
        // than dropping a whole level.
        let m = manifest();
        let mut saw_partial = false;
        for tput in [6e6, 8e6, 9e6, 10e6, 11e6, 12e6] {
            for buf in [4.0, 8.0, 12.0, 16.0] {
                let mut mpc = MpcStar::default();
                if mpc.choose(&ctx(&m, buf, Some(tput))).target.is_some() {
                    saw_partial = true;
                }
            }
        }
        assert!(saw_partial, "MPC* never used a virtual level");
    }

    #[test]
    fn keep_partial_under_imminent_stall() {
        let mut mpc = MpcStar::default();
        let m = manifest();
        let c = ctx(&m, 0.6, Some(10e6));
        let p = DownloadProgress {
            bytes_received: 100_000,
            bytes_target: 4_000_000,
            elapsed_s: 2.0,
            buffer_s: 0.6,
            download_rate_bps: 300_000.0,
        };
        assert_eq!(mpc.on_progress(&c, &p), AbandonAction::KeepPartial);
        // Healthy buffer → continue.
        let healthy = DownloadProgress {
            buffer_s: 10.0,
            download_rate_bps: 20e6,
            ..p
        };
        assert_eq!(mpc.on_progress(&c, &healthy), AbandonAction::Continue);
    }
}
