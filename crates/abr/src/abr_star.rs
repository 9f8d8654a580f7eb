//! ABR\*: VOXEL's algorithm — the second §4.3 upgrade over BOLA-SSIM.
//!
//! "We then extended BOLA's segment abandonment option to keep a partial
//! segment and move on to the next download." Combined with QUIC\*'s
//! partially reliable delivery, this removes the wasted re-download that
//! BOLA performs for "more than 25% of the segments" in small-buffer
//! scenarios (§3 insight 3): because the frame headers and I-frame arrived
//! reliably and the manifest maps bytes→QoE, *any* prefix of the download
//! is a playable virtual quality level.
//!
//! The single tuning knob is the **bandwidth-safety factor** (§5.2): 1.0 by
//! default ("aggressive"), lowered to slightly underestimate throughput for
//! violently varying traces like T-Mobile (Fig 6d vs Fig 17c).

use crate::bola_ssim::BolaSsim;
use crate::traits::{AbandonAction, Abr, AbrContext, Decision, DownloadProgress};
use voxel_media::qoe::QoeMetric;

/// The ABR\* algorithm.
#[derive(Debug, Clone)]
pub struct AbrStar {
    inner: BolaSsim,
}

impl Default for AbrStar {
    fn default() -> Self {
        Self::new(QoeMetric::Ssim)
    }
}

impl AbrStar {
    /// ABR\* optimizing `metric` with the default (aggressive) safety.
    pub fn new(metric: QoeMetric) -> AbrStar {
        AbrStar {
            inner: BolaSsim::new(metric),
        }
    }

    /// ABR\* with an explicit bandwidth-safety factor (the Fig 6d tuning
    /// uses ≈0.85).
    pub fn with_safety(metric: QoeMetric, safety: f64) -> AbrStar {
        let mut inner = BolaSsim::new(metric);
        inner.safety = safety;
        AbrStar { inner }
    }

    /// The configured safety factor.
    pub fn safety(&self) -> f64 {
        self.inner.safety
    }
}

impl Abr for AbrStar {
    fn name(&self) -> &'static str {
        "VOXEL"
    }

    fn choose(&mut self, ctx: &AbrContext<'_>) -> Decision {
        self.inner.choose(ctx)
    }

    fn on_progress(&mut self, ctx: &AbrContext<'_>, p: &DownloadProgress) -> AbandonAction {
        // The key difference from BOLA/BOLA-SSIM: when the download cannot
        // finish in time, keep what we have and move on. The partial
        // segment is decodable (headers + I-frame arrived reliably) and its
        // QoE is known from the manifest; and because QoE is monotone in
        // bytes, the *best* cut is the latest one -- so the download runs
        // until the playback deadline truly forces the cut, then stops
        // ("fine-level mid-segment quality adjustments", §3 insight 3).
        let remaining = p.bytes_target.saturating_sub(p.bytes_received);
        if remaining == 0 || p.elapsed_s < 0.25 {
            return AbandonAction::Continue;
        }
        // Will it finish comfortably at the safety-discounted rate?
        let rate = p.download_rate_bps * self.inner.safety;
        let eta_s = if rate <= 1.0 {
            f64::INFINITY
        } else {
            remaining as f64 * 8.0 / rate
        };
        if eta_s + 0.5 < p.buffer_s {
            return AbandonAction::Continue;
        }
        // At risk -- but cutting early would only reduce quality. Hold on
        // until the buffer is nearly drained (one cut-latency of slack:
        // RTT + a progress-check period, widened by a conservative safety
        // factor).
        let cut_threshold_s = 1.0 / self.inner.safety;
        if p.buffer_s > cut_threshold_s {
            return AbandonAction::Continue;
        }
        let _ = ctx;
        AbandonAction::KeepPartial
    }

    fn uses_unreliable_transport(&self) -> bool {
        true
    }

    fn on_idle(&mut self, idle_s: f64) {
        self.inner.on_idle(idle_s);
    }

    fn on_rebuffer(&mut self) {
        self.inner.on_rebuffer();
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_media::content::VideoId;
    use voxel_media::ladder::QualityLevel;
    use voxel_media::qoe::QoeModel;
    use voxel_media::video::Video;
    use voxel_prep::manifest::Manifest;

    fn manifest() -> Manifest {
        let video = Video::generate(VideoId::Bbb);
        Manifest::prepare_levels(&video, &QoeModel::default(), &[QualityLevel::MAX])
    }

    fn ctx<'a>(m: &'a Manifest, buffer_s: f64, tput: Option<f64>) -> AbrContext<'a> {
        AbrContext {
            segment_index: 5,
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
    fn keeps_partial_when_buffer_at_risk() {
        let m = manifest();
        let mut abr = AbrStar::default();
        let c = ctx(&m, 4.0, Some(10e6));
        let d = abr.choose(&c);
        let e = m.entry(5, d.level);
        let target = d.target.map_or(e.total_bytes(), |p| u64::from(p.bytes));
        let p = DownloadProgress {
            bytes_received: target / 3,
            bytes_target: target,
            elapsed_s: 2.0,
            buffer_s: 1.0,
            download_rate_bps: 100_000.0,
        };
        assert_eq!(abr.on_progress(&c, &p), AbandonAction::KeepPartial);
    }

    #[test]
    fn never_restarts() {
        // ABR* must never produce RestartAt, whatever the progress state.
        let m = manifest();
        let mut abr = AbrStar::default();
        let c = ctx(&m, 2.0, Some(5e6));
        let d = abr.choose(&c);
        let e = m.entry(5, d.level);
        let target = d.target.map_or(e.total_bytes(), |p| u64::from(p.bytes));
        for frac in [0.01, 0.3, 0.6, 0.95] {
            for rate in [10e3, 1e6, 50e6] {
                let p = DownloadProgress {
                    bytes_received: (target as f64 * frac) as u64,
                    bytes_target: target,
                    elapsed_s: 1.0,
                    buffer_s: 1.0,
                    download_rate_bps: rate,
                };
                assert!(
                    !matches!(abr.on_progress(&c, &p), AbandonAction::RestartAt(_)),
                    "restarted at frac {frac} rate {rate}"
                );
            }
        }
    }

    #[test]
    fn continues_when_healthy() {
        let m = manifest();
        let mut abr = AbrStar::default();
        let c = ctx(&m, 16.0, Some(20e6));
        let d = abr.choose(&c);
        let e = m.entry(5, d.level);
        let target = d.target.map_or(e.total_bytes(), |p| u64::from(p.bytes));
        let p = DownloadProgress {
            bytes_received: target / 2,
            bytes_target: target,
            elapsed_s: 0.5,
            buffer_s: 16.0,
            download_rate_bps: 30e6,
        };
        assert_eq!(abr.on_progress(&c, &p), AbandonAction::Continue);
    }

    #[test]
    fn grace_period_before_abandoning() {
        let m = manifest();
        let mut abr = AbrStar::default();
        let c = ctx(&m, 1.0, Some(10e6));
        let d = abr.choose(&c);
        let e = m.entry(5, d.level);
        let target = d.target.map_or(e.total_bytes(), |p| u64::from(p.bytes));
        let p = DownloadProgress {
            bytes_received: 0,
            bytes_target: target,
            elapsed_s: 0.1,
            buffer_s: 0.5,
            download_rate_bps: 0.0,
        };
        assert_eq!(abr.on_progress(&c, &p), AbandonAction::Continue);
    }

    #[test]
    fn safety_factor_is_configurable() {
        let tuned = AbrStar::with_safety(QoeMetric::Ssim, 0.85);
        assert!((tuned.safety() - 0.85).abs() < 1e-12);
        assert_eq!(AbrStar::default().safety(), 1.0);
    }

    #[test]
    fn reports_voxel_name_and_unreliable_transport() {
        let abr = AbrStar::default();
        assert_eq!(abr.name(), "VOXEL");
        assert!(abr.uses_unreliable_transport());
    }
}
