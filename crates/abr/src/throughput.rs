//! Throughput estimation and the naive throughput-based ABR ("Tput").
//!
//! The paper uses a naive throughput ABR "to identify what — the transport
//! or the ABR algorithm, or both — contributes the most" (§5). The
//! estimator here is shared by all algorithms: an EWMA for the headline
//! estimate plus a harmonic mean of the last five samples with an error
//! discount for robust (MPC-style) planning.

use crate::traits::{Abr, AbrContext, Decision};
use voxel_media::ladder::QualityLevel;

/// Sliding-window throughput estimator.
#[derive(Debug, Clone)]
pub struct ThroughputEstimator {
    samples: Vec<f64>,
    ewma: Option<f64>,
    /// Relative prediction errors of the last few predictions.
    errors: Vec<f64>,
    last_prediction: Option<f64>,
    alpha: f64,
    window: usize,
}

impl Default for ThroughputEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl ThroughputEstimator {
    /// Estimator with the standard window of 5 samples.
    pub fn new() -> ThroughputEstimator {
        ThroughputEstimator {
            samples: Vec::new(),
            ewma: None,
            errors: Vec::new(),
            last_prediction: None,
            alpha: 0.6,
            window: 5,
        }
    }

    /// Record a download: `bytes` over `seconds` of active transfer.
    pub fn on_sample(&mut self, bytes: u64, seconds: f64) {
        if seconds <= 1e-6 || bytes == 0 {
            return;
        }
        let bps = bytes as f64 * 8.0 / seconds;
        // Track the error of the previous prediction (RobustMPC's
        // max-error discount).
        if let Some(pred) = self.last_prediction {
            let err = ((pred - bps) / bps).abs().min(1.0);
            self.errors.push(err);
            if self.errors.len() > self.window {
                self.errors.remove(0);
            }
        }
        self.samples.push(bps);
        if self.samples.len() > self.window {
            self.samples.remove(0);
        }
        self.ewma = Some(match self.ewma {
            None => bps,
            Some(e) => self.alpha * bps + (1.0 - self.alpha) * e,
        });
        self.last_prediction = Some(self.harmonic_mean().unwrap_or(bps));
    }

    /// EWMA estimate, bits/second.
    pub fn estimate_bps(&self) -> Option<f64> {
        self.ewma
    }

    /// Harmonic mean of the window (robust to outliers), bits/second.
    pub(crate) fn harmonic_mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let denom: f64 = self.samples.iter().map(|s| 1.0 / s.max(1.0)).sum();
        Some(self.samples.len() as f64 / denom)
    }

    /// RobustMPC's conservative estimate: harmonic mean discounted by the
    /// maximum recent relative prediction error.
    pub fn conservative_bps(&self) -> Option<f64> {
        let hm = self.harmonic_mean()?;
        let max_err = self.errors.iter().cloned().fold(0.0f64, f64::max);
        Some(hm / (1.0 + max_err))
    }

    /// Number of samples observed (capped at the window size).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been seen.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// The naive throughput-matching ABR.
#[derive(Debug, Clone)]
pub struct ThroughputAbr {
    /// Fraction of the estimate the ABR dares to use (classic 0.8 safety).
    pub safety: f64,
}

impl Default for ThroughputAbr {
    fn default() -> Self {
        ThroughputAbr { safety: 0.8 }
    }
}

impl Abr for ThroughputAbr {
    fn name(&self) -> &'static str {
        "Tput"
    }

    fn choose(&mut self, ctx: &AbrContext<'_>) -> Decision {
        let Some(est) = ctx.throughput_bps else {
            return Decision::full(QualityLevel::MIN);
        };
        let budget = est * self.safety;
        // Highest level whose *actual segment* bitrate fits the budget.
        let mut pick = QualityLevel::MIN;
        for level in QualityLevel::all() {
            let bits = ctx.segment_bytes(level) as f64 * 8.0;
            let needed_bps = bits / voxel_media::video::SEGMENT_DURATION_S;
            if needed_bps <= budget {
                pick = level;
            }
        }
        Decision::full(pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_warms_up() {
        let mut e = ThroughputEstimator::new();
        assert!(e.estimate_bps().is_none());
        assert!(e.conservative_bps().is_none());
        e.on_sample(1_250_000, 1.0); // 10 Mbps
        assert_eq!(e.estimate_bps(), Some(10e6));
        assert_eq!(e.harmonic_mean(), Some(10e6));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn harmonic_mean_is_pessimistic_vs_arithmetic() {
        let mut e = ThroughputEstimator::new();
        e.on_sample(1_250_000, 1.0); // 10 Mbps
        e.on_sample(125_000, 1.0); // 1 Mbps
        let hm = e.harmonic_mean().unwrap();
        assert!(hm < 5.5e6, "harmonic {hm} must be below arithmetic mean");
        assert!((hm - 2.0 / (1.0 / 10e6 + 1.0 / 1e6)).abs() < 1.0);
    }

    #[test]
    fn conservative_discounts_after_errors() {
        let mut e = ThroughputEstimator::new();
        // Stable samples: conservative ≈ harmonic.
        for _ in 0..5 {
            e.on_sample(1_250_000, 1.0);
        }
        let stable = e.conservative_bps().unwrap();
        assert!((stable - 10e6).abs() / 10e6 < 0.01);
        // A violent swing creates prediction error → discount.
        e.on_sample(125_000, 1.0);
        let shaky = e.conservative_bps().unwrap();
        assert!(shaky < e.harmonic_mean().unwrap());
    }

    #[test]
    fn window_slides() {
        let mut e = ThroughputEstimator::new();
        for _ in 0..10 {
            e.on_sample(125_000, 1.0); // 1 Mbps
        }
        for _ in 0..5 {
            e.on_sample(1_250_000, 1.0); // 10 Mbps fills the window
        }
        assert!((e.harmonic_mean().unwrap() - 10e6).abs() < 1.0);
        assert_eq!(e.len(), 5);
    }

    #[test]
    fn zero_duration_samples_are_ignored() {
        let mut e = ThroughputEstimator::new();
        e.on_sample(1000, 0.0);
        e.on_sample(0, 1.0);
        assert!(e.is_empty());
    }

    #[test]
    fn tput_abr_picks_feasible_quality() {
        use voxel_media::content::VideoId;
        use voxel_media::qoe::QoeModel;
        use voxel_media::video::Video;
        use voxel_prep::manifest::Manifest;

        let video = Video::generate(VideoId::Bbb);
        let manifest = Manifest::prepare_levels(&video, &QoeModel::default(), &[]);
        let mut abr = ThroughputAbr::default();
        let ctx = |tput: Option<f64>| AbrContext {
            segment_index: 10,
            buffer_s: 8.0,
            buffer_capacity_s: 28.0,
            throughput_bps: tput,
            conservative_throughput_bps: tput,
            last_level: None,
            manifest: &manifest,
            rebuffering: false,
        };
        // No estimate → lowest quality.
        assert_eq!(abr.choose(&ctx(None)).level, QualityLevel::MIN);
        // Plenty of bandwidth → top quality.
        let high = abr.choose(&ctx(Some(100e6))).level;
        assert_eq!(high, QualityLevel::MAX);
        // Moderate bandwidth → something in between, and monotone in rate.
        let mid = abr.choose(&ctx(Some(3e6))).level;
        assert!(mid > QualityLevel::MIN && mid < QualityLevel::MAX);
        let low = abr.choose(&ctx(Some(1e6))).level;
        assert!(low < mid);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The harmonic mean never exceeds the arithmetic mean, and the
        /// conservative estimate never exceeds the harmonic mean.
        #[test]
        fn estimator_orderings(samples in proptest::collection::vec((1_000u64..10_000_000, 1u64..20), 1..20)) {
            let mut e = ThroughputEstimator::new();
            let mut window: Vec<f64> = Vec::new();
            for (bytes, decis) in samples {
                let secs = decis as f64 / 10.0;
                e.on_sample(bytes, secs);
                window.push(bytes as f64 * 8.0 / secs);
                if window.len() > 5 {
                    window.remove(0);
                }
            }
            let hm = e.harmonic_mean().expect("samples fed");
            let am = window.iter().sum::<f64>() / window.len() as f64;
            prop_assert!(hm <= am * (1.0 + 1e-9), "harmonic {hm} > arithmetic {am}");
            let cons = e.conservative_bps().expect("samples fed");
            prop_assert!(cons <= hm * (1.0 + 1e-9), "conservative {cons} > harmonic {hm}");
            prop_assert!(cons > 0.0);
        }
    }
}
