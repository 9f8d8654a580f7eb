//! RTT estimation (RFC 9002 §5, which follows RFC 6298).

use voxel_sim::SimDuration;

/// Smoothed RTT estimator.
#[derive(Debug, Clone)]
pub(crate) struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rtt: SimDuration,
    latest: SimDuration,
}

/// Initial RTT assumption before any sample (RFC 9002: 333 ms; we use the
/// paper-testbed-scale 100 ms so early PTOs aren't absurdly long).
const INITIAL_RTT: SimDuration = SimDuration::from_millis(100);

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RttEstimator {
    /// Fresh estimator with no samples.
    pub(crate) fn new() -> RttEstimator {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::from_micros(INITIAL_RTT.as_micros() / 2),
            min_rtt: SimDuration::MAX,
            latest: INITIAL_RTT,
        }
    }

    /// Incorporate a sample: measured RTT minus the peer's reported ACK
    /// delay (the delay is only subtracted when it doesn't take the sample
    /// below the observed minimum, per RFC 9002).
    pub(crate) fn update(&mut self, rtt: SimDuration, ack_delay: SimDuration) {
        self.latest = rtt;
        self.min_rtt = self.min_rtt.min(rtt);
        let adjusted = if rtt.saturating_sub(ack_delay) >= self.min_rtt {
            rtt.saturating_sub(ack_delay)
        } else {
            rtt
        };
        match self.srtt {
            None => {
                self.srtt = Some(adjusted);
                self.rttvar = SimDuration::from_micros(adjusted.as_micros() / 2);
            }
            Some(srtt) => {
                let var_sample = if srtt > adjusted {
                    srtt - adjusted
                } else {
                    adjusted - srtt
                };
                self.rttvar = SimDuration::from_micros(
                    (3 * self.rttvar.as_micros() + var_sample.as_micros()) / 4,
                );
                self.srtt = Some(SimDuration::from_micros(
                    (7 * srtt.as_micros() + adjusted.as_micros()) / 8,
                ));
            }
        }
    }

    /// Smoothed RTT (initial guess before any sample).
    pub(crate) fn srtt(&self) -> SimDuration {
        self.srtt.unwrap_or(INITIAL_RTT)
    }

    /// Latest sample.
    pub(crate) fn latest(&self) -> SimDuration {
        self.latest
    }

    /// Probe timeout: `srtt + max(4·rttvar, 1ms) + max_ack_delay`.
    pub(crate) fn pto(&self, max_ack_delay: SimDuration) -> SimDuration {
        self.srtt()
            + SimDuration::from_micros((4 * self.rttvar.as_micros()).max(1_000))
            + max_ack_delay
    }

    /// Loss-detection time threshold: `9/8 · max(srtt, latest)`.
    pub(crate) fn loss_time_threshold(&self) -> SimDuration {
        let base = self.srtt().max(self.latest);
        SimDuration::from_micros(base.as_micros() * 9 / 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

    #[test]
    fn first_sample_initializes() {
        let mut r = RttEstimator::new();
        assert!(r.srtt.is_none());
        r.update(MS(60), SimDuration::ZERO);
        assert!(r.srtt.is_some());
        assert_eq!(r.srtt(), MS(60));
        assert_eq!(r.rttvar, MS(30));
        assert_eq!(r.min_rtt, MS(60));
    }

    #[test]
    fn smoothing_follows_rfc6298() {
        let mut r = RttEstimator::new();
        r.update(MS(100), SimDuration::ZERO);
        r.update(MS(60), SimDuration::ZERO);
        // srtt = 7/8*100 + 1/8*60 = 95 ms
        assert_eq!(r.srtt().as_micros(), 95_000);
        // rttvar = 3/4*50 + 1/4*40 = 47.5 ms
        assert_eq!(r.rttvar.as_micros(), 47_500);
    }

    #[test]
    fn ack_delay_is_subtracted_when_safe() {
        let mut r = RttEstimator::new();
        r.update(MS(50), SimDuration::ZERO);
        // Sample 80ms with 20ms ack delay → adjusted 60ms ≥ min (50) ⇒ use 60.
        r.update(MS(80), MS(20));
        assert_eq!(r.srtt().as_micros(), (7 * 50_000 + 60_000) / 8);
        // Sample 55ms with 30ms delay → adjusted 25 < min ⇒ use raw 55.
        let before = r.srtt().as_micros();
        r.update(MS(55), MS(30));
        assert_eq!(r.srtt().as_micros(), (7 * before + 55_000) / 8);
    }

    #[test]
    fn min_rtt_tracks_minimum() {
        let mut r = RttEstimator::new();
        for ms in [90, 60, 120, 45, 200] {
            r.update(MS(ms), SimDuration::ZERO);
        }
        assert_eq!(r.min_rtt, MS(45));
        assert_eq!(r.latest(), MS(200));
    }

    #[test]
    fn pto_exceeds_srtt() {
        let mut r = RttEstimator::new();
        r.update(MS(60), SimDuration::ZERO);
        let pto = r.pto(MS(25));
        assert!(pto > MS(60));
        // srtt 60 + 4*30 var + 25 = 205 ms.
        assert_eq!(pto.as_micros(), 205_000);
    }

    #[test]
    fn loss_threshold_is_nine_eighths() {
        let mut r = RttEstimator::new();
        r.update(MS(80), SimDuration::ZERO);
        assert_eq!(r.loss_time_threshold().as_micros(), 90_000);
    }

    #[test]
    fn defaults_before_samples() {
        let r = RttEstimator::new();
        assert_eq!(r.srtt(), MS(100));
        assert_eq!(r.min_rtt, SimDuration::MAX, "no sample yet");
        assert!(r.pto(SimDuration::ZERO) >= MS(100));
    }
}
