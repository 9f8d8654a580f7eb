//! Robust MPC (Yin et al., SIGCOMM '15).
//!
//! Model-predictive control: plan the next `H` = 5 segments by maximizing
//! `QoE = Σ bitrate − μ·rebuffer − λ·|bitrate switches|` against a
//! conservative throughput forecast (harmonic mean of the last five
//! samples, discounted by the maximum recent prediction error — the
//! "robust" part). The search over the 13^H quality plans is done with
//! memoized depth-first search over (step, level, discretized buffer),
//! which is exact for the discretized model and fast enough to run inside
//! every trial.
//!
//! The paper finds MPC's predictions cope poorly with the violently varying
//! LTE traces (§5.1) — reproducing that requires faithfully reproducing
//! this planner, not improving it.

use crate::traits::{Abr, AbrContext, Decision};
#[expect(
    clippy::disallowed_types,
    reason = "memo table — key lookup only, never iterated"
)]
use std::collections::HashMap;
use voxel_media::ladder::{QualityLevel, NUM_LEVELS};
use voxel_media::video::SEGMENT_DURATION_S;

/// Robust MPC.
#[derive(Debug, Clone)]
pub struct Mpc {
    /// Lookahead horizon in segments.
    pub horizon: usize,
    /// Rebuffer penalty μ per second of stall (the MPC paper's 4.3-ish
    /// weight, expressed in Mbps of equivalent bitrate).
    pub rebuffer_penalty: f64,
    /// Switching penalty λ per Mbps of bitrate change.
    pub switch_penalty: f64,
}

impl Default for Mpc {
    fn default() -> Self {
        Mpc {
            horizon: 5,
            rebuffer_penalty: 4.3,
            switch_penalty: 1.0,
        }
    }
}

/// Buffer discretization for the memo table (0.25 s buckets).
const BUCKET_S: f64 = 0.25;

#[expect(
    clippy::disallowed_types,
    reason = "the whole impl is the memoized DP: HashMap is key-lookup only, never iterated"
)]
impl Mpc {
    fn plan(&self, ctx: &AbrContext<'_>, predicted_bps: f64) -> QualityLevel {
        let last = ctx.last_level.unwrap_or(QualityLevel::MIN);
        let num_segments = ctx.manifest.num_segments();
        let mut memo: HashMap<(usize, usize, i64), (f64, usize)> = HashMap::new();
        let (_, first) = self.search(
            ctx,
            predicted_bps,
            0,
            last.index(),
            ctx.buffer_s,
            num_segments,
            &mut memo,
        );
        QualityLevel(first as u8)
    }

    /// Returns (best QoE over the remaining horizon, best first-step level).
    #[allow(
        clippy::too_many_arguments,
        reason = "the DP state is the argument list"
    )]
    fn search(
        &self,
        ctx: &AbrContext<'_>,
        bps: f64,
        step: usize,
        prev_level: usize,
        buffer_s: f64,
        num_segments: usize,
        memo: &mut HashMap<(usize, usize, i64), (f64, usize)>,
    ) -> (f64, usize) {
        if step >= self.horizon || ctx.segment_index + step >= num_segments {
            return (0.0, prev_level);
        }
        let bucket = (buffer_s / BUCKET_S) as i64;
        if let Some(&hit) = memo.get(&(step, prev_level, bucket)) {
            return hit;
        }
        let seg = ctx.segment_index + step;
        let mut best = (f64::NEG_INFINITY, 0usize);
        for level in 0..NUM_LEVELS {
            let q = QualityLevel(level as u8);
            let bits = ctx.manifest.entry(seg, q).total_bytes() as f64 * 8.0;
            let download_s = bits / bps.max(1.0);
            let stall = (download_s - buffer_s).max(0.0);
            let next_buffer =
                ((buffer_s - download_s).max(0.0) + SEGMENT_DURATION_S).min(ctx.buffer_capacity_s);
            let bitrate_mbps = bits / SEGMENT_DURATION_S / 1e6;
            // Switch penalty on the ladder's nominal bitrates for *both*
            // levels — mixing exact segment sizes with ladder averages
            // would charge a phantom "switch" for staying at one level.
            let level_mbps = q.avg_bitrate_mbps();
            let prev_mbps = QualityLevel(prev_level as u8).avg_bitrate_mbps();
            let qoe = bitrate_mbps
                - self.rebuffer_penalty * stall
                - self.switch_penalty * (level_mbps - prev_mbps).abs();
            let (future, _) =
                self.search(ctx, bps, step + 1, level, next_buffer, num_segments, memo);
            let total = qoe + future;
            if total > best.0 {
                best = (total, level);
            }
        }
        memo.insert((step, prev_level, bucket), best);
        best
    }
}

impl Abr for Mpc {
    fn name(&self) -> &'static str {
        "MPC"
    }

    fn choose(&mut self, ctx: &AbrContext<'_>) -> Decision {
        let Some(pred) = ctx.conservative_throughput_bps.or(ctx.throughput_bps) else {
            return Decision::full(QualityLevel::MIN);
        };
        Decision::full(self.plan(ctx, pred))
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
        let video = Video::generate(VideoId::Tos);
        Manifest::prepare_levels(&video, &QoeModel::default(), &[])
    }

    fn ctx<'a>(
        m: &'a Manifest,
        buffer_s: f64,
        tput: Option<f64>,
        last: Option<QualityLevel>,
    ) -> AbrContext<'a> {
        AbrContext {
            segment_index: 10,
            buffer_s,
            buffer_capacity_s: 28.0,
            throughput_bps: tput,
            conservative_throughput_bps: tput,
            last_level: last,
            manifest: m,
            rebuffering: false,
        }
    }

    #[test]
    fn no_estimate_starts_at_lowest() {
        let m = manifest();
        let mut mpc = Mpc::default();
        assert_eq!(
            mpc.choose(&ctx(&m, 0.0, None, None)).level,
            QualityLevel::MIN
        );
    }

    #[test]
    fn high_bandwidth_full_buffer_picks_high_quality() {
        let m = manifest();
        let mut mpc = Mpc::default();
        let d = mpc.choose(&ctx(&m, 24.0, Some(50e6), Some(QualityLevel::MAX)));
        assert!(d.level >= QualityLevel(11), "got {}", d.level);
    }

    #[test]
    fn low_bandwidth_picks_sustainable_quality() {
        let m = manifest();
        let mut mpc = Mpc::default();
        let d = mpc.choose(&ctx(&m, 8.0, Some(1e6), Some(QualityLevel(3))));
        // 1 Mbps: the plan must not exceed what avoids heavy stalls — a
        // quality around Q4 (0.75 Mbps) or lower.
        assert!(d.level <= QualityLevel(5), "got {}", d.level);
    }

    #[test]
    fn quality_is_monotone_in_bandwidth() {
        let m = manifest();
        let mut mpc = Mpc::default();
        let mut prev = QualityLevel::MIN;
        for mbps in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
            let d = mpc.choose(&ctx(&m, 12.0, Some(mbps * 1e6), Some(prev)));
            assert!(
                d.level >= prev,
                "{mbps} Mbps: {} < previous {prev}",
                d.level
            );
            prev = d.level;
        }
    }

    #[test]
    fn switch_penalty_damps_oscillation() {
        let m = manifest();
        // With an enormous switching penalty, MPC should hold the previous
        // level rather than jump for marginal bitrate gain.
        let mut sticky = Mpc {
            switch_penalty: 100.0,
            ..Mpc::default()
        };
        let d = sticky.choose(&ctx(&m, 16.0, Some(12e6), Some(QualityLevel(6))));
        assert_eq!(d.level, QualityLevel(6));
    }

    #[test]
    fn empty_buffer_with_low_bandwidth_is_cautious() {
        let m = manifest();
        let mut mpc = Mpc::default();
        let d = mpc.choose(&ctx(&m, 0.0, Some(2e6), Some(QualityLevel(8))));
        assert!(d.level <= QualityLevel(4), "got {}", d.level);
    }

    #[test]
    fn horizon_respects_end_of_video() {
        let m = manifest();
        let mut mpc = Mpc::default();
        // Second-to-last segment: horizon truncates without panicking.
        let mut c = ctx(&m, 10.0, Some(10e6), Some(QualityLevel(5)));
        c.segment_index = m.num_segments() - 1;
        let d = mpc.choose(&c);
        assert!(d.level <= QualityLevel::MAX);
    }
}
