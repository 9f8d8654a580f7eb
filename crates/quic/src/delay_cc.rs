//! A delay-based congestion controller (BBR-flavored).
//!
//! Appendix B of the paper observes that deep droptail queues (the
//! 750-packet cached-on-LTE scenario) "pose a challenge for loss-based CC"
//! and states: "in future work, VOXEL should be evaluated with a delay
//! based CC". This module is that evaluation's substrate — a compact
//! model-based controller in the BBR family:
//!
//! - a windowed **max filter** over delivery-rate samples estimates the
//!   bottleneck bandwidth,
//! - a windowed **min filter** over RTT samples estimates the propagation
//!   delay,
//! - the congestion window is `gain x BDP`, with a small cyclic gain
//!   schedule that alternately probes for more bandwidth (1.25x) and
//!   drains the queue it created (0.75x),
//! - packet loss does **not** multiplicatively decrease the window — the
//!   model, not loss, regulates it (the whole point against bufferbloat).
//!
//! `fig16` compares VOXEL over CUBIC vs over this controller on the
//! 750-packet queue.

use voxel_sim::{SimDuration, SimTime};

/// Gain cycle (one step per estimated RTT), BBR's ProbeBW schedule.
const GAIN_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

/// Window length for the bandwidth max-filter, in gain-cycle steps.
const BW_WINDOW: usize = 10;

/// Window length for the min-RTT filter.
const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);

/// The delay-based controller.
#[derive(Debug, Clone)]
pub(crate) struct DelayCc {
    mss: usize,
    /// Bottleneck-bandwidth samples (bytes/sec), newest last.
    bw_samples: Vec<(u64, f64)>,
    /// Monotone sample counter (windowing key for `bw_samples`).
    round: u64,
    /// Windowed minimum RTT and when it was observed.
    min_rtt: SimDuration,
    min_rtt_at: SimTime,
    /// Bytes acked since the current rate-sample epoch began.
    epoch_bytes: u64,
    epoch_start: Option<SimTime>,
    /// Position in the gain cycle and when it last advanced.
    cycle_idx: usize,
    cycle_advanced: SimTime,
    in_flight: usize,
    /// Cached window (recomputed on each ack).
    cwnd: usize,
}

impl DelayCc {
    /// New controller.
    pub(crate) fn new(mss: usize) -> DelayCc {
        DelayCc {
            mss,
            bw_samples: Vec::new(),
            round: 0,
            min_rtt: SimDuration::from_millis(100),
            min_rtt_at: SimTime::ZERO,
            epoch_bytes: 0,
            epoch_start: None,
            cycle_idx: 0,
            cycle_advanced: SimTime::ZERO,
            in_flight: 0,
            cwnd: 10 * mss,
        }
    }

    /// Current window in bytes.
    pub(crate) fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// Bytes in flight.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether `bytes` more may enter the network.
    pub(crate) fn can_send(&self, bytes: usize) -> bool {
        self.in_flight + bytes <= self.cwnd
    }

    /// Estimated bottleneck bandwidth in bytes/second.
    pub(crate) fn btl_bw(&self) -> f64 {
        self.bw_samples
            .iter()
            .map(|&(_, bw)| bw)
            .fold(0.0, f64::max)
    }

    /// A packet entered the network.
    pub(crate) fn on_sent(&mut self, bytes: usize) {
        self.in_flight += bytes;
    }

    /// A packet was acknowledged; `rtt_sample` is the latest RTT
    /// measurement (pre-smoothing — delay CC wants the raw signal).
    pub(crate) fn on_ack(&mut self, now: SimTime, bytes: usize, rtt_sample: SimDuration) {
        self.in_flight = self.in_flight.saturating_sub(bytes);

        // Min-RTT filter with expiry.
        if rtt_sample < self.min_rtt || now.saturating_since(self.min_rtt_at) > MIN_RTT_WINDOW {
            self.min_rtt = rtt_sample;
            self.min_rtt_at = now;
        }

        // Delivery-rate sampling over ~1 RTT epochs.
        self.epoch_bytes += bytes as u64;
        let epoch_start = *self.epoch_start.get_or_insert(now);
        let elapsed = now.saturating_since(epoch_start);
        if elapsed >= self.min_rtt.max(SimDuration::from_millis(5)) {
            let rate = self.epoch_bytes as f64 / elapsed.as_secs_f64().max(1e-6);
            self.round += 1;
            self.bw_samples.push((self.round, rate));
            let horizon = self.round.saturating_sub(BW_WINDOW as u64);
            self.bw_samples.retain(|&(r, _)| r > horizon);
            self.epoch_bytes = 0;
            self.epoch_start = Some(now);
        }

        // Advance the gain cycle once per min-RTT.
        if now.saturating_since(self.cycle_advanced) >= self.min_rtt {
            self.cycle_idx = (self.cycle_idx + 1) % GAIN_CYCLE.len();
            self.cycle_advanced = now;
        }

        // Window = gain x BDP, floored to keep the pipe busy during startup.
        let bdp = self.btl_bw() * self.min_rtt.as_secs_f64();
        let gain = GAIN_CYCLE[self.cycle_idx];
        // cwnd-gain of 2x BDP (BBR default) bounds queue build-up while
        // allowing ack-clocking slack; the probe gain modulates it.
        let target = (2.0 * gain * bdp).max((4 * self.mss) as f64);
        // Startup: until we have bandwidth samples, grow like slow start.
        self.cwnd = if self.bw_samples.is_empty() {
            self.cwnd + bytes
        } else {
            target as usize
        };
    }

    /// Losses leave the flight but do not collapse the model's window.
    pub(crate) fn on_loss(&mut self, _now: SimTime, bytes: usize) {
        self.in_flight = self.in_flight.saturating_sub(bytes);
    }

    /// Repeated PTOs: the model is stale — restart from a modest window.
    pub(crate) fn on_persistent_congestion(&mut self) {
        self.bw_samples.clear();
        self.epoch_bytes = 0;
        self.epoch_start = None;
        self.cwnd = 4 * self.mss;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1350;

    /// Feed a steady 10 Mbps, 60 ms RTT ack stream.
    fn steady(cc: &mut DelayCc, secs: f64) {
        // 10 Mbps = 1.25 MB/s ≈ 926 packets/s → one ack every ~1.08 ms.
        let mut t = 0u64;
        let steps = (secs * 926.0) as u64;
        for _ in 0..steps {
            t += 1080;
            cc.on_sent(MSS);
            cc.on_ack(SimTime::from_micros(t), MSS, SimDuration::from_millis(60));
        }
    }

    #[test]
    fn startup_grows_like_slow_start() {
        let mut cc = DelayCc::new(MSS);
        let w0 = cc.cwnd();
        for i in 0..5 {
            cc.on_sent(MSS);
            cc.on_ack(
                SimTime::from_micros(i * 100),
                MSS,
                SimDuration::from_millis(60),
            );
        }
        assert!(cc.cwnd() > w0);
    }

    #[test]
    fn converges_to_bdp_scale_window() {
        let mut cc = DelayCc::new(MSS);
        steady(&mut cc, 3.0);
        // BDP at 10 Mbps x 60 ms = 75 kB; window = ~2x gain x BDP.
        let bdp = 75_000.0;
        let w = cc.cwnd() as f64;
        assert!(
            w > bdp && w < 4.0 * bdp,
            "cwnd {w} not within (1..4) x BDP {bdp}"
        );
        // Bandwidth estimate near 1.25 MB/s.
        let bw = cc.btl_bw();
        assert!((bw - 1.25e6).abs() / 1.25e6 < 0.3, "btl_bw {bw}");
    }

    #[test]
    fn losses_do_not_collapse_the_window() {
        let mut cc = DelayCc::new(MSS);
        steady(&mut cc, 2.0);
        let before = cc.cwnd();
        for _ in 0..20 {
            cc.on_sent(MSS);
            cc.on_loss(SimTime::from_secs(3), MSS);
        }
        // Unlike CUBIC's x0.7, the model window is loss-insensitive.
        assert!(
            cc.cwnd() as f64 > before as f64 * 0.9,
            "window collapsed from {before} to {}",
            cc.cwnd()
        );
    }

    #[test]
    fn min_rtt_filter_tracks_and_expires() {
        let mut cc = DelayCc::new(MSS);
        cc.on_ack(SimTime::from_secs(1), MSS, SimDuration::from_millis(80));
        cc.on_ack(SimTime::from_secs(2), MSS, SimDuration::from_millis(40));
        assert_eq!(cc.min_rtt, SimDuration::from_millis(40));
        // Higher samples don't raise it within the window...
        cc.on_ack(SimTime::from_secs(3), MSS, SimDuration::from_millis(90));
        assert_eq!(cc.min_rtt, SimDuration::from_millis(40));
        // ...but it expires after the window.
        cc.on_ack(SimTime::from_secs(20), MSS, SimDuration::from_millis(90));
        assert_eq!(cc.min_rtt, SimDuration::from_millis(90));
    }

    #[test]
    fn persistent_congestion_resets_the_model() {
        let mut cc = DelayCc::new(MSS);
        steady(&mut cc, 2.0);
        cc.on_persistent_congestion();
        assert_eq!(cc.cwnd(), 4 * MSS);
        assert_eq!(cc.btl_bw(), 0.0);
    }

    #[test]
    fn flight_accounting() {
        let mut cc = DelayCc::new(MSS);
        cc.on_sent(5000);
        assert_eq!(cc.in_flight(), 5000);
        assert!(cc.can_send(cc.cwnd() - 5000));
        assert!(!cc.can_send(cc.cwnd()));
    }

    #[test]
    fn window_rises_when_bandwidth_rises() {
        let mut cc = DelayCc::new(MSS);
        steady(&mut cc, 2.0);
        let w_10mbps = cc.cwnd();
        // Double the ack rate (20 Mbps) for a while.
        let mut t = 10_000_000u64;
        for _ in 0..4000 {
            t += 540;
            cc.on_sent(MSS);
            cc.on_ack(SimTime::from_micros(t), MSS, SimDuration::from_millis(60));
        }
        assert!(
            cc.cwnd() as f64 > w_10mbps as f64 * 1.5,
            "window did not track the bandwidth increase: {} vs {}",
            cc.cwnd(),
            w_10mbps
        );
    }
}
