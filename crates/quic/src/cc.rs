//! Congestion-control dispatch: loss-based CUBIC (the paper's QUIC\*),
//! the delay-based controller of Appendix B's future-work note, or the
//! full BBR state machine (DESIGN.md §15).

use crate::bbr::Bbr;
use crate::cubic::Cubic;
use crate::delay_cc::DelayCc;
use voxel_sim::{SimDuration, SimTime};

/// Which controller a connection uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcKind {
    /// CUBIC (RFC 8312) — what the paper's QUIC\* runs.
    #[default]
    Cubic,
    /// The delay-based (BBR-flavored) controller — Appendix B future work.
    Delay,
    /// BBR: Startup/Drain/ProbeBW/ProbeRTT over BtlBw/RTprop filters.
    Bbr,
}

/// All controller kinds, in spec-grammar order.
pub(crate) const CC_KINDS: [CcKind; 3] = [CcKind::Cubic, CcKind::Delay, CcKind::Bbr];

impl CcKind {
    /// Canonical lowercase name, as used by the fleet `@cc` spec knob.
    pub fn name(self) -> &'static str {
        match self {
            CcKind::Cubic => "cubic",
            CcKind::Delay => "delay",
            CcKind::Bbr => "bbr",
        }
    }

    /// Inverse of [`CcKind::name`].
    pub fn by_name(name: &str) -> Option<CcKind> {
        CC_KINDS.into_iter().find(|k| k.name() == name)
    }

    /// Whether this controller consumes delivery-rate samples. The loss
    /// detector only computes and buffers samples when the controller
    /// will read them — the per-ack division and Vec push are pure waste
    /// for CUBIC and the delay controller.
    pub(crate) fn wants_rate_samples(self) -> bool {
        matches!(self, CcKind::Bbr)
    }
}

/// One delivery-rate sample, produced by the loss detector per acked
/// packet from the delivered-bytes snapshot stamped at send time
/// (DESIGN.md §15): `rate = (delivered - delivered_at_send) / (ack time
/// - send time)` — the average delivery rate over the packet's flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RateSample {
    /// Cumulative bytes delivered when the ack was processed.
    pub delivered: u64,
    /// Cumulative bytes delivered when the acked packet was sent.
    pub delivered_at_send: u64,
    /// Delivery rate, bytes/second.
    pub rate: f64,
}

/// A congestion controller instance.
#[derive(Debug, Clone)]
pub(crate) enum CongestionControl {
    /// CUBIC.
    Cubic(Cubic),
    /// Delay-based.
    Delay(DelayCc),
    /// BBR.
    Bbr(Bbr),
}

impl CongestionControl {
    /// Instantiate `kind` with the given MSS.
    pub(crate) fn new(kind: CcKind, mss: usize) -> CongestionControl {
        match kind {
            CcKind::Cubic => CongestionControl::Cubic(Cubic::new(mss)),
            CcKind::Delay => CongestionControl::Delay(DelayCc::new(mss)),
            CcKind::Bbr => CongestionControl::Bbr(Bbr::new(mss)),
        }
    }

    /// Current congestion window in bytes.
    pub(crate) fn cwnd(&self) -> usize {
        match self {
            CongestionControl::Cubic(c) => c.cwnd(),
            CongestionControl::Delay(c) => c.cwnd(),
            CongestionControl::Bbr(c) => c.cwnd(),
        }
    }

    /// Slow-start threshold in bytes (`u64::MAX` when the controller has
    /// none: before CUBIC's first loss, or always for the model-based
    /// controllers).
    pub(crate) fn ssthresh(&self) -> u64 {
        match self {
            CongestionControl::Cubic(c) => c.ssthresh(),
            CongestionControl::Delay(_) | CongestionControl::Bbr(_) => u64::MAX,
        }
    }

    /// Bytes currently in flight.
    pub(crate) fn in_flight(&self) -> usize {
        match self {
            CongestionControl::Cubic(c) => c.in_flight(),
            CongestionControl::Delay(c) => c.in_flight(),
            CongestionControl::Bbr(c) => c.in_flight(),
        }
    }

    /// Whether `bytes` more may be sent.
    pub(crate) fn can_send(&self, bytes: usize) -> bool {
        match self {
            CongestionControl::Cubic(c) => c.can_send(bytes),
            CongestionControl::Delay(c) => c.can_send(bytes),
            CongestionControl::Bbr(c) => c.can_send(bytes),
        }
    }

    /// A packet entered the network.
    pub(crate) fn on_sent(&mut self, bytes: usize) {
        match self {
            CongestionControl::Cubic(c) => c.on_sent(bytes),
            CongestionControl::Delay(c) => c.on_sent(bytes),
            CongestionControl::Bbr(c) => c.on_sent(bytes),
        }
    }

    /// A delivery-rate sample from the transport's sampler. Only BBR
    /// consumes these: CUBIC is loss-driven and the delay controller
    /// keeps its own internal epoch estimator.
    pub(crate) fn on_rate_sample(&mut self, now: SimTime, sample: RateSample) {
        match self {
            CongestionControl::Cubic(_) | CongestionControl::Delay(_) => {}
            CongestionControl::Bbr(c) => c.on_rate_sample(now, sample),
        }
    }

    /// A packet was acknowledged. CUBIC consumes the smoothed RTT; the
    /// model-based controllers consume the raw latest sample.
    pub(crate) fn on_ack(
        &mut self,
        now: SimTime,
        bytes: usize,
        srtt: SimDuration,
        latest: SimDuration,
    ) {
        match self {
            CongestionControl::Cubic(c) => c.on_ack(now, bytes, srtt),
            CongestionControl::Delay(c) => c.on_ack(now, bytes, latest),
            CongestionControl::Bbr(c) => c.on_ack(now, bytes, latest),
        }
    }

    /// Packets were declared lost.
    pub(crate) fn on_loss(
        &mut self,
        now: SimTime,
        largest_sent: u64,
        largest_lost: u64,
        bytes: usize,
    ) {
        match self {
            CongestionControl::Cubic(c) => c.on_loss(now, largest_sent, largest_lost, bytes),
            CongestionControl::Delay(c) => c.on_loss(now, bytes),
            CongestionControl::Bbr(c) => c.on_loss(now, bytes),
        }
    }

    /// Persistent congestion (repeated PTOs).
    pub(crate) fn on_persistent_congestion(&mut self) {
        match self {
            CongestionControl::Cubic(c) => c.on_persistent_congestion(),
            CongestionControl::Delay(c) => c.on_persistent_congestion(),
            CongestionControl::Bbr(c) => c.on_persistent_congestion(),
        }
    }

    /// Model-derived pacing rate in bits/second, when the controller has
    /// one (BBR: `pacing_gain × BtlBw`). `None` means the connection
    /// should fall back to its cwnd-based pacer — which keeps the CUBIC
    /// and delay-cc timelines byte-identical to before BBR existed.
    pub(crate) fn pacing_rate_bps(&self) -> Option<f64> {
        match self {
            CongestionControl::Cubic(_) | CongestionControl::Delay(_) => None,
            CongestionControl::Bbr(c) => c.pacing_rate_bps(),
        }
    }

    /// BBR's bottleneck-bandwidth estimate in bytes/second, for the
    /// `quic.btlbw_bps` histogram. `None` for the other controllers (and for
    /// BBR before its first sample) so non-BBR timelines carry no new
    /// trace output.
    pub(crate) fn btl_bw_estimate(&self) -> Option<f64> {
        match self {
            CongestionControl::Cubic(_) | CongestionControl::Delay(_) => None,
            CongestionControl::Bbr(c) => {
                let bw = c.btl_bw();
                (bw > 0.0).then_some(bw)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1350;

    /// Warm a controller with `n` clean back-to-back acks at a steady
    /// 60 ms RTT, one per millisecond — the shared setup every
    /// cross-kind test drives instead of hand-rolling its own loop.
    fn warm(cc: &mut CongestionControl, n: u64) {
        for i in 1..n {
            cc.on_sent(MSS);
            cc.on_ack(
                SimTime::from_micros(i * 1000),
                MSS,
                SimDuration::from_millis(60),
                SimDuration::from_millis(60),
            );
        }
    }

    #[test]
    fn dispatch_constructs_all_kinds() {
        for kind in CC_KINDS {
            let cc = CongestionControl::new(kind, MSS);
            assert_eq!(cc.cwnd(), 10 * MSS, "{kind:?} initial window");
        }
        assert!(matches!(
            CongestionControl::new(CcKind::Cubic, MSS),
            CongestionControl::Cubic(_)
        ));
        assert!(matches!(
            CongestionControl::new(CcKind::Delay, MSS),
            CongestionControl::Delay(_)
        ));
        assert!(matches!(
            CongestionControl::new(CcKind::Bbr, MSS),
            CongestionControl::Bbr(_)
        ));
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in CC_KINDS {
            assert_eq!(CcKind::by_name(kind.name()), Some(kind));
        }
        assert_eq!(CcKind::by_name("reno"), None);
        assert_eq!(CcKind::by_name("BBR"), None, "names are lowercase");
    }

    #[test]
    fn dispatch_forwards_flight_accounting() {
        for kind in CC_KINDS {
            let mut cc = CongestionControl::new(kind, MSS);
            cc.on_sent(2 * MSS);
            assert_eq!(cc.in_flight(), 2 * MSS);
            cc.on_ack(
                SimTime::from_millis(60),
                MSS,
                SimDuration::from_millis(60),
                SimDuration::from_millis(60),
            );
            assert_eq!(cc.in_flight(), MSS);
        }
    }

    #[test]
    fn model_kinds_ignore_single_losses_cubic_reacts() {
        let mut cubic = CongestionControl::new(CcKind::Cubic, MSS);
        warm(&mut cubic, 200);
        let wc = cubic.cwnd();
        cubic.on_loss(SimTime::from_secs(1), 100, 90, MSS);
        assert!(cubic.cwnd() < wc, "CUBIC must back off");

        for kind in [CcKind::Delay, CcKind::Bbr] {
            let mut cc = CongestionControl::new(kind, MSS);
            warm(&mut cc, 200);
            let w = cc.cwnd();
            cc.on_loss(SimTime::from_secs(1), 100, 90, MSS);
            assert!(
                cc.cwnd() as f64 >= w as f64 * 0.9,
                "{kind:?} must not collapse on a single loss"
            );
        }
    }

    #[test]
    fn only_bbr_reports_a_pacing_rate_and_btlbw() {
        for kind in [CcKind::Cubic, CcKind::Delay] {
            let mut cc = CongestionControl::new(kind, MSS);
            warm(&mut cc, 200);
            assert!(cc.pacing_rate_bps().is_none(), "{kind:?}");
            assert!(cc.btl_bw_estimate().is_none(), "{kind:?}");
        }
        let mut bbr = CongestionControl::new(CcKind::Bbr, MSS);
        bbr.on_sent(MSS);
        bbr.on_rate_sample(
            SimTime::from_millis(60),
            RateSample {
                delivered: MSS as u64,
                delivered_at_send: 0,
                rate: 1.25e6,
            },
        );
        bbr.on_ack(
            SimTime::from_millis(60),
            MSS,
            SimDuration::from_millis(60),
            SimDuration::from_millis(60),
        );
        assert!(bbr.pacing_rate_bps().is_some_and(|r| r > 0.0));
        assert!(bbr.btl_bw_estimate().is_some_and(|bw| bw > 0.0));
    }

    // ------------------------------------------------------------------
    // Cross-cc differential: a shared drop-tail bottleneck model.
    // ------------------------------------------------------------------

    /// Run `cc` alone over a drop-tail bottleneck (service rate `rate`
    /// bytes/sec, propagation RTT `rtt`, queue capacity `q_cap` bytes)
    /// for `secs`, recording the cwnd after every ack. The loop is a
    /// two-event simulator: sends fill the queue (or drop past the cap),
    /// acks return one serialization + propagation later, drops surface
    /// as `on_loss` one RTT after the send.
    fn run_bottleneck(cc: &mut CongestionControl, secs: f64, q_cap: usize) -> Vec<(u64, usize)> {
        let rate = 1.25e6; // 10 Mbps
        let rtt = SimDuration::from_millis(60);
        let mut now = SimTime::ZERO;
        let horizon = SimTime::from_micros((secs * 1e6) as u64);
        // (time, Ok(ack: bytes, sent_at, delivered_at_send) | Err(loss pn))
        #[allow(
            clippy::type_complexity,
            reason = "a one-off event queue local to this test"
        )]
        let mut events: std::collections::BTreeMap<
            u64,
            (SimTime, Result<(SimTime, u64), u64>),
        > = std::collections::BTreeMap::new();
        let mut pn = 0u64;
        let mut delivered = 0u64;
        let mut busy_until = SimTime::ZERO;
        let mut trace = Vec::new();
        loop {
            // Send while the window allows.
            while cc.can_send(MSS) && now <= horizon {
                let backlog = busy_until.saturating_since(now);
                let backlog_bytes = (backlog.as_secs_f64() * rate) as usize;
                cc.on_sent(MSS);
                if backlog_bytes > q_cap {
                    // Tail drop: detected (via dupacks) about one RTT later.
                    events.insert(pn, (now + rtt, Err(pn)));
                } else {
                    let depart =
                        busy_until.max(now) + SimDuration::serialization(MSS as u64, rate * 8.0);
                    busy_until = depart;
                    events.insert(pn, (depart + rtt, Ok((now, delivered))));
                }
                pn += 1;
            }
            let Some((&key, &(t, ev))) = events.iter().min_by_key(|(_, (t, _))| *t) else {
                break;
            };
            events.remove(&key);
            if t > horizon {
                break;
            }
            now = t;
            match ev {
                Ok((sent_at, delivered_at_send)) => {
                    delivered += MSS as u64;
                    let fl = now.saturating_since(sent_at);
                    cc.on_rate_sample(
                        now,
                        RateSample {
                            delivered,
                            delivered_at_send,
                            rate: (delivered - delivered_at_send) as f64
                                / fl.as_secs_f64().max(1e-6),
                        },
                    );
                    cc.on_ack(now, MSS, fl, fl);
                    trace.push((now.as_micros(), cc.cwnd()));
                }
                Err(lost_pn) => {
                    cc.on_loss(now, pn.saturating_sub(1), lost_pn, MSS);
                    trace.push((now.as_micros(), cc.cwnd()));
                }
            }
        }
        trace
    }

    /// Under a clean constant-bandwidth path (10 Mbps × 60 ms → BDP =
    /// 75 kB) with a 100-packet drop-tail queue, BBR's window converges
    /// into a band around `cwnd_gain × BDP` and stays there, while
    /// CUBIC fills the queue, takes a tail-drop, backs off, and saws —
    /// pinned as trajectory-shape assertions (band membership and
    /// peak/trough ratios), never float equality.
    #[test]
    fn bbr_holds_a_bdp_band_where_cubic_oscillates() {
        let bdp = 75_000.0;
        let q_cap = 100 * MSS;

        let mut bbr = CongestionControl::new(CcKind::Bbr, MSS);
        let bbr_trace = run_bottleneck(&mut bbr, 9.0, q_cap);
        let mut cubic = CongestionControl::new(CcKind::Cubic, MSS);
        let cubic_trace = run_bottleneck(&mut cubic, 9.0, q_cap);

        // Steady-state window: everything after t = 3 s.
        let steady = |tr: &[(u64, usize)]| -> Vec<usize> {
            tr.iter()
                .filter(|&&(t, _)| t > 3_000_000)
                .map(|&(_, w)| w)
                .collect()
        };
        let (bbr_w, cubic_w) = (steady(&bbr_trace), steady(&cubic_trace));
        assert!(bbr_w.len() > 100 && cubic_w.len() > 100, "traces too short");

        // BBR: every steady sample inside (1..3) x BDP, and flat — the
        // peak/trough ratio stays under 1.2.
        let (bbr_min, bbr_max) = (
            *bbr_w.iter().min().expect("nonempty"),
            *bbr_w.iter().max().expect("nonempty"),
        );
        assert!(
            bbr_min as f64 > bdp && (bbr_max as f64) < 3.0 * bdp,
            "BBR cwnd [{bbr_min}, {bbr_max}] escaped the (1..3) x BDP band"
        );
        assert!(
            (bbr_max as f64) < bbr_min as f64 * 1.2,
            "BBR cwnd not flat: [{bbr_min}, {bbr_max}]"
        );

        // CUBIC: saws across the queue — peak/trough ratio well above
        // BBR's, with peaks past BDP + queue and troughs after backoff.
        let (cubic_min, cubic_max) = (
            *cubic_w.iter().min().expect("nonempty"),
            *cubic_w.iter().max().expect("nonempty"),
        );
        assert!(
            cubic_max as f64 > cubic_min as f64 * 1.25,
            "CUBIC did not oscillate: [{cubic_min}, {cubic_max}]"
        );
        assert!(
            cubic_max as f64 > bdp + q_cap as f64 * 0.5,
            "CUBIC never probed into the queue: max {cubic_max}"
        );
    }
}
