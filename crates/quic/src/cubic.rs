//! CUBIC congestion control (RFC 8312), as used by the paper's QUIC\*.
//!
//! Window-based: the connection may have at most `cwnd` bytes in flight.
//! Slow start doubles per RTT until `ssthresh`; after a loss epoch the
//! window grows along the cubic function `W(t) = C·(t-K)³ + W_max`.

use voxel_sim::{SimDuration, SimTime};

/// CUBIC constants (RFC 8312).
const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;

/// The congestion controller.
#[derive(Debug, Clone)]
pub(crate) struct Cubic {
    /// Maximum datagram size (for window floors and increments).
    mss: usize,
    /// Congestion window, bytes.
    cwnd: f64,
    /// Slow-start threshold, bytes.
    ssthresh: f64,
    /// Window before the last reduction.
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<SimTime>,
    /// Time offset at which `W(t)` crosses `w_max`.
    k: f64,
    /// Largest packet number sent when the last loss was detected; losses of
    /// packets at or below this don't trigger another reduction (one
    /// reduction per loss epoch).
    recovery_until: Option<u64>,
    /// Bytes currently in flight.
    in_flight: usize,
}

impl Cubic {
    /// New controller with an initial window of 10 MSS (RFC 6928).
    pub(crate) fn new(mss: usize) -> Cubic {
        Cubic {
            mss,
            cwnd: (10 * mss) as f64,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            recovery_until: None,
            in_flight: 0,
        }
    }

    /// Current congestion window in bytes.
    pub(crate) fn cwnd(&self) -> usize {
        self.cwnd as usize
    }

    /// Bytes currently in flight.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether `bytes` more may be sent now.
    pub(crate) fn can_send(&self, bytes: usize) -> bool {
        self.in_flight + bytes <= self.cwnd as usize
    }

    /// Slow-start threshold in bytes (`u64::MAX` before the first loss).
    pub(crate) fn ssthresh(&self) -> u64 {
        if self.ssthresh.is_finite() {
            self.ssthresh as u64
        } else {
            u64::MAX
        }
    }

    /// A packet of `bytes` was sent.
    pub(crate) fn on_sent(&mut self, bytes: usize) {
        self.in_flight += bytes;
    }

    /// A packet of `bytes` was acknowledged.
    pub(crate) fn on_ack(&mut self, now: SimTime, bytes: usize, srtt: SimDuration) {
        self.in_flight = self.in_flight.saturating_sub(bytes);
        if self.cwnd < self.ssthresh {
            // Slow start: cwnd += acked bytes.
            self.cwnd += bytes as f64;
            return;
        }
        // Congestion avoidance: cubic growth.
        let epoch_start = *self.epoch_start.get_or_insert_with(|| {
            self.k = if self.w_max > self.cwnd {
                ((self.w_max - self.cwnd) / (CUBIC_C * self.mss as f64)).cbrt()
            } else {
                0.0
            };
            now
        });
        let t = (now.saturating_since(epoch_start) + srtt).as_secs_f64();
        let w_cubic = CUBIC_C * self.mss as f64 * (t - self.k).powi(3) + self.w_max;
        // TCP-friendly region (standard AIMD estimate).
        let rtt_s = srtt.as_secs_f64().max(1e-3);
        let w_est = self.w_max * CUBIC_BETA
            + 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA) * (t / rtt_s) * self.mss as f64;
        let target = w_cubic.max(w_est);
        if target > self.cwnd {
            // Approach the target gradually (per-ACK fraction).
            self.cwnd += ((target - self.cwnd) / self.cwnd * bytes as f64)
                .min(bytes as f64)
                .max(0.0);
        } else {
            // Slow reclamation below target.
            self.cwnd += 0.01 * bytes as f64;
        }
    }

    /// Packets were declared lost. `largest_sent` is the highest packet
    /// number sent so far (defines the recovery epoch); `largest_lost` the
    /// highest lost packet number; `bytes` the lost bytes (leave flight).
    pub(crate) fn on_loss(
        &mut self,
        _now: SimTime,
        largest_sent: u64,
        largest_lost: u64,
        bytes: usize,
    ) {
        self.in_flight = self.in_flight.saturating_sub(bytes);
        if let Some(until) = self.recovery_until {
            if largest_lost <= until {
                return; // still in the same loss epoch
            }
        }
        self.recovery_until = Some(largest_sent);
        self.w_max = self.cwnd;
        self.cwnd = (self.cwnd * CUBIC_BETA).max((2 * self.mss) as f64);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
    }

    /// Persistent congestion / repeated PTO: collapse to the minimum window.
    pub(crate) fn on_persistent_congestion(&mut self) {
        self.cwnd = (2 * self.mss) as f64;
        self.ssthresh = self.ssthresh.min(self.cwnd * 2.0);
        self.epoch_start = None;
        self.recovery_until = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1350;
    const RTT: SimDuration = SimDuration::from_millis(60);

    #[test]
    fn initial_window_is_ten_mss() {
        let c = Cubic::new(MSS);
        assert_eq!(c.cwnd(), 10 * MSS);
        assert!(c.cwnd < c.ssthresh, "slow start");
        assert!(c.can_send(10 * MSS));
        assert!(!c.can_send(10 * MSS + 1));
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut c = Cubic::new(MSS);
        let start = c.cwnd();
        // Ack a full window.
        for _ in 0..10 {
            c.on_sent(MSS);
        }
        for _ in 0..10 {
            c.on_ack(SimTime::from_millis(60), MSS, RTT);
        }
        assert_eq!(c.cwnd(), 2 * start);
    }

    #[test]
    fn loss_multiplies_window_by_beta() {
        let mut c = Cubic::new(MSS);
        c.on_sent(5 * MSS);
        let before = c.cwnd();
        c.on_loss(SimTime::from_millis(100), 50, 10, MSS);
        assert_eq!(c.cwnd(), (before as f64 * CUBIC_BETA) as usize);
        assert!(c.cwnd >= c.ssthresh, "out of slow start");
        assert_eq!(c.in_flight(), 4 * MSS);
    }

    #[test]
    fn one_reduction_per_loss_epoch() {
        let mut c = Cubic::new(MSS);
        c.on_sent(6 * MSS);
        c.on_loss(SimTime::from_millis(100), 50, 10, MSS);
        let after_first = c.cwnd();
        // Losses from the same epoch (pn ≤ 50) don't reduce again.
        c.on_loss(SimTime::from_millis(105), 52, 30, MSS);
        assert_eq!(c.cwnd(), after_first);
        // A loss beyond the epoch does.
        c.on_loss(SimTime::from_millis(400), 80, 60, MSS);
        assert!(c.cwnd() < after_first);
    }

    #[test]
    fn cubic_growth_recovers_toward_w_max() {
        let mut c = Cubic::new(MSS);
        // Grow to a sizeable window first.
        for _ in 0..200 {
            c.on_sent(MSS);
            c.on_ack(SimTime::from_millis(60), MSS, RTT);
        }
        let w_before_loss = c.cwnd();
        c.on_loss(SimTime::from_secs(1), 1000, 999, MSS);
        let w_after_loss = c.cwnd();
        assert!(w_after_loss < w_before_loss);
        // Ack steadily for simulated seconds; window must climb back
        // toward w_max.
        let mut now = SimTime::from_secs(1);
        for _ in 0..2000 {
            now += SimDuration::from_millis(5);
            c.on_sent(MSS);
            c.on_ack(now, MSS, RTT);
        }
        assert!(
            c.cwnd() > (w_before_loss as f64 * 0.9) as usize,
            "cwnd {} vs w_max {}",
            c.cwnd(),
            w_before_loss
        );
    }

    #[test]
    fn persistent_congestion_collapses_window() {
        let mut c = Cubic::new(MSS);
        for _ in 0..50 {
            c.on_sent(MSS);
            c.on_ack(SimTime::from_millis(60), MSS, RTT);
        }
        c.on_persistent_congestion();
        assert_eq!(c.cwnd(), 2 * MSS);
    }

    #[test]
    fn window_never_collapses_below_two_mss() {
        let mut c = Cubic::new(MSS);
        for i in 0..20 {
            c.on_loss(SimTime::from_secs(i + 1), 1000 * (i + 1), 999 * (i + 1), 0);
        }
        assert!(c.cwnd() >= 2 * MSS);
    }

    #[test]
    fn in_flight_accounting() {
        let mut c = Cubic::new(MSS);
        c.on_sent(3000);
        assert_eq!(c.in_flight(), 3000);
        c.on_ack(SimTime::from_millis(60), 1000, RTT);
        assert_eq!(c.in_flight(), 2000);
    }
}
