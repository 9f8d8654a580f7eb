//! Sent-packet tracking, ACK processing and loss detection (RFC 9002).
//!
//! Packets are declared lost by the **packet threshold** (3 packets
//! reordering) or the **time threshold** (9/8·RTT older than the largest
//! acknowledged). A probe timeout (PTO) fires when acknowledgements stop
//! arriving entirely.
//!
//! Nothing here walks the flight or the ACK's history: an ACK costs a
//! comparison per range that lies below the oldest packet in flight (the
//! permanent holes of a lossy session) plus a lookup per packet it
//! acknowledges, and loss detection stops at the first packet it keeps.

use crate::cc::RateSample;
use crate::rtt::RttEstimator;
use crate::stream::StreamId;
use std::collections::VecDeque;
use voxel_sim::{SimDuration, SimTime};

/// Packet-reordering threshold.
const PACKET_THRESHOLD: u64 = 3;

/// A stream chunk carried by a sent packet (for retransmission / loss
/// reporting when the packet is lost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SentChunk {
    /// The stream.
    pub id: StreamId,
    /// Offset within the stream.
    pub offset: u64,
    /// Payload length.
    pub len: usize,
    /// Whether the chunk carried fin.
    pub fin: bool,
    /// Whether the stream is unreliable.
    pub unreliable: bool,
}

/// Book-keeping for an in-flight packet. Only ack-eliciting packets are
/// tracked: one that elicits no ACK is never acknowledged, so it can be
/// neither acked nor declared lost.
#[derive(Debug, Clone)]
pub(crate) struct SentPacket {
    /// Packet number.
    pub pkt_num: u64,
    /// Send timestamp.
    pub sent_at: SimTime,
    /// Wire size (for congestion accounting).
    pub wire_bytes: usize,
    /// Cumulative bytes the connection had delivered (acked) when this
    /// packet was sent — the send-side snapshot of the delivery-rate
    /// sampler (DESIGN.md §15).
    pub delivered_at_send: u64,
    /// Stream chunks carried.
    pub chunks: Vec<SentChunk>,
}

/// Result of processing one ACK frame. [`LossDetector::on_ack`] overwrites
/// it, so one value's buffers serve every ACK of a connection.
#[derive(Debug, Default)]
pub(crate) struct AckOutcome {
    /// Packets newly acknowledged.
    pub acked: Vec<SentPacket>,
    /// Packets newly declared lost (packet threshold or time threshold).
    pub lost: Vec<SentPacket>,
    /// RTT sample from the largest newly-acked packet, with peer ack delay.
    pub rtt_sample: Option<(SimDuration, SimDuration)>,
    /// One delivery-rate sample per newly-acked packet:
    /// `(delivered_now − delivered_at_send) / flight_time` — the rate the
    /// network sustained over that packet's flight. Consumed by BBR.
    pub rate_samples: Vec<RateSample>,
}

/// The loss detector.
#[derive(Debug, Default)]
pub(crate) struct LossDetector {
    /// The flight, in packet-number order. Packet numbers are allocated in
    /// sequence, so a packet joins at the back, and the packets one ACK
    /// range acknowledges lie together: removing them moves at most the
    /// packets on the shorter side (usually none, or the hole before
    /// them).
    sent: VecDeque<SentPacket>,
    largest_acked: Option<u64>,
    pto_count: u32,
    /// Cumulative acked bytes — the delivery-rate sampler's clock.
    delivered: u64,
    /// Whether to emit [`AckOutcome::rate_samples`]. Off by default:
    /// only rate-driven controllers (BBR) read them, and the per-ack
    /// division plus Vec growth is measurable fleet-scaling cost when
    /// paid by every CUBIC flow for nothing.
    sample_rates: bool,
}

impl LossDetector {
    /// Fresh detector.
    pub(crate) fn new() -> LossDetector {
        LossDetector::default()
    }

    /// Turn delivery-rate sampling on or off. The `delivered` byte
    /// clock always runs; this only gates whether `on_ack` computes and
    /// buffers [`RateSample`]s for the controller.
    pub(crate) fn set_rate_sampling(&mut self, on: bool) {
        self.sample_rates = on;
    }

    /// Record a sent ack-eliciting packet.
    pub(crate) fn on_sent(&mut self, pkt: SentPacket) {
        debug_assert!(
            self.sent.back().is_none_or(|p| p.pkt_num < pkt.pkt_num),
            "packet numbers ascend"
        );
        self.sent.push_back(pkt);
    }

    /// Number of tracked (unacked, undeclared) packets.
    pub(crate) fn outstanding(&self) -> usize {
        self.sent.len()
    }

    /// Cumulative bytes delivered (acked) on this path. Monotone; new
    /// packets snapshot it into [`SentPacket::delivered_at_send`].
    pub(crate) fn delivered_bytes(&self) -> u64 {
        self.delivered
    }

    /// Structural audit: tracked packets ascend in packet number and
    /// send times are monotone in it. Used by the `paranoid` runtime layer
    /// (DESIGN.md §10).
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let mut prev: Option<(u64, voxel_sim::SimTime)> = None;
        for pkt in &self.sent {
            let pn = pkt.pkt_num;
            if let Some((ppn, pat)) = prev {
                if pn <= ppn {
                    return Err(format!("packet {pn} tracked after packet {ppn}"));
                }
                if pkt.sent_at < pat {
                    return Err(format!(
                        "packet {pn} sent at {:?} before packet {ppn} at {pat:?}",
                        pkt.sent_at
                    ));
                }
            }
            prev = Some((pn, pkt.sent_at));
        }
        Ok(())
    }

    /// Process an ACK frame's ranges (highest first, each inclusive and
    /// in either orientation) into `out`, which is cleared first.
    pub(crate) fn on_ack(
        &mut self,
        now: SimTime,
        ranges: &[(u64, u64)],
        ack_delay: SimDuration,
        rtt: &RttEstimator,
        out: &mut AckOutcome,
    ) {
        out.acked.clear();
        out.lost.clear();
        out.rate_samples.clear();
        out.rtt_sample = None;
        // The largest newly-acked packet and its send time.
        let mut largest_newly_acked: Option<(u64, SimTime)> = None;

        for &(a, b) in ranges {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let Some(oldest) = self.sent.front().map(|p| p.pkt_num) else {
                break;
            };
            // A range wholly below the flight acknowledges nothing new:
            // after a lossy stretch, that is almost every range.
            if hi < oldest {
                continue;
            }
            // Usually the range reaches back past the oldest packet.
            let start = if lo <= oldest {
                0
            } else {
                self.sent.partition_point(|p| p.pkt_num < lo)
            };
            let end = self.sent.partition_point(|p| p.pkt_num <= hi);
            if end <= start {
                continue;
            }
            if let Some(last) = self.sent.get(end - 1) {
                if largest_newly_acked.is_none_or(|(l, _)| last.pkt_num > l) {
                    largest_newly_acked = Some((last.pkt_num, last.sent_at));
                }
            }
            out.acked.extend(self.sent.drain(start..end));
        }

        // Credit delivered bytes and — when the controller consumes
        // them — emit one delivery-rate sample per packet: the average
        // rate over the packet's flight.
        for pkt in &out.acked {
            self.delivered += pkt.wire_bytes as u64;
            if !self.sample_rates {
                continue;
            }
            let flight = now.saturating_since(pkt.sent_at);
            if flight > SimDuration::ZERO {
                out.rate_samples.push(RateSample {
                    delivered: self.delivered,
                    delivered_at_send: pkt.delivered_at_send,
                    rate: (self.delivered - pkt.delivered_at_send) as f64 / flight.as_secs_f64(),
                });
            }
        }

        if let Some((largest, sent_at)) = largest_newly_acked {
            if self.largest_acked.is_none_or(|l| largest > l) {
                self.largest_acked = Some(largest);
                // RTT sample only from the largest newly-acked packet.
                out.rtt_sample = Some((now.saturating_since(sent_at), ack_delay));
            }
            self.pto_count = 0;
        }

        self.detect_lost(now, rtt, &mut out.lost);
    }

    /// Declare packets lost by packet- and time-threshold relative to the
    /// largest acknowledged packet, appending them to `lost`. Send times
    /// are monotone in packet number, so both thresholds pick a prefix of
    /// the flight: the first packet that meets neither ends the search.
    fn detect_lost(&mut self, now: SimTime, rtt: &RttEstimator, lost: &mut Vec<SentPacket>) {
        let Some(largest) = self.largest_acked else {
            return;
        };
        let time_threshold = rtt.loss_time_threshold();
        while let Some(oldest) = self.sent.front() {
            let pn = oldest.pkt_num;
            let is_lost = pn < largest
                && (largest - pn >= PACKET_THRESHOLD
                    || now.saturating_since(oldest.sent_at) >= time_threshold);
            if !is_lost {
                break;
            }
            lost.extend(self.sent.pop_front());
        }
    }

    /// The earliest deadline at which either a time-threshold loss or a PTO
    /// should fire; `None` when nothing is outstanding. Send times are
    /// monotone in packet number ([`LossDetector::check_invariants`]), so
    /// the oldest packet is the first entry and the most recent the last:
    /// nothing here walks the flight.
    pub(crate) fn next_timeout(
        &self,
        rtt: &RttEstimator,
        max_ack_delay: SimDuration,
    ) -> Option<SimTime> {
        // Time-threshold deadline for the oldest packet below largest_acked.
        let loss_deadline = self.largest_acked.and_then(|largest| {
            let oldest = self.sent.front().filter(|p| p.pkt_num < largest)?;
            Some(oldest.sent_at + rtt.loss_time_threshold())
        });
        // PTO from the most recent packet.
        let pto_deadline = self.sent.back().map(|p| {
            let backoff = 1u64 << self.pto_count.min(6);
            p.sent_at + SimDuration::from_micros(rtt.pto(max_ack_delay).as_micros() * backoff)
        });
        match (loss_deadline, pto_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Handle an expired timeout: first run time-threshold detection; if
    /// nothing was declared lost, treat it as a PTO — bump the backoff and
    /// hand back the reliable chunks of the oldest outstanding packet, the
    /// data a probe re-sends.
    pub(crate) fn on_timeout(&mut self, now: SimTime, rtt: &RttEstimator) -> TimeoutOutcome {
        let mut lost = Vec::new();
        self.detect_lost(now, rtt, &mut lost);
        if !lost.is_empty() {
            return TimeoutOutcome::Lost(lost);
        }
        self.pto_count += 1;
        let probe = self.sent.front().map_or_else(Vec::new, |oldest| {
            oldest
                .chunks
                .iter()
                .filter(|c| !c.unreliable)
                .copied()
                .collect()
        });
        TimeoutOutcome::Pto {
            count: self.pto_count,
            probe,
        }
    }
}

/// What a timeout produced.
#[derive(Debug)]
pub(crate) enum TimeoutOutcome {
    /// Time-threshold losses were declared.
    Lost(Vec<SentPacket>),
    /// A probe timeout fired.
    Pto {
        /// Consecutive PTO count (for backoff / persistent congestion).
        count: u32,
        /// The reliable chunks of the oldest outstanding packet, for the
        /// probe to re-send (empty when it carried none).
        probe: Vec<SentChunk>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(pn: u64, at_ms: u64) -> SentPacket {
        SentPacket {
            pkt_num: pn,
            sent_at: SimTime::from_millis(at_ms),
            wire_bytes: 1200,
            delivered_at_send: 0,
            chunks: vec![],
        }
    }

    /// One ACK into a fresh outcome.
    pub(super) fn ack(
        d: &mut LossDetector,
        now: SimTime,
        ranges: &[(u64, u64)],
        ack_delay: SimDuration,
        rtt: &RttEstimator,
    ) -> AckOutcome {
        let mut out = AckOutcome::default();
        d.on_ack(now, ranges, ack_delay, rtt, &mut out);
        out
    }

    fn rtt60() -> RttEstimator {
        let mut r = RttEstimator::new();
        r.update(SimDuration::from_millis(60), SimDuration::ZERO);
        r
    }

    #[test]
    fn ack_removes_and_samples_rtt() {
        let mut d = LossDetector::new();
        d.on_sent(pkt(0, 0));
        d.on_sent(pkt(1, 5));
        let rtt = rtt60();
        let out = ack(
            &mut d,
            SimTime::from_millis(65),
            &[(1, 0)],
            SimDuration::from_millis(2),
            &rtt,
        );
        assert_eq!(out.acked.len(), 2);
        assert!(out.lost.is_empty());
        let (sample, delay) = out.rtt_sample.expect("has sample");
        assert_eq!(sample, SimDuration::from_millis(60)); // pn 1 sent at 5ms
        assert_eq!(delay, SimDuration::from_millis(2));
        assert_eq!(d.outstanding(), 0);
        assert_eq!(d.largest_acked, Some(1));
    }

    #[test]
    fn packet_threshold_declares_loss() {
        let mut d = LossDetector::new();
        for pn in 0..5 {
            d.on_sent(pkt(pn, pn));
        }
        let rtt = rtt60();
        // Ack only pn 4: pn 0 and 1 are ≥3 behind → lost; 2,3 not yet.
        let out = ack(
            &mut d,
            SimTime::from_millis(65),
            &[(4, 4)],
            SimDuration::ZERO,
            &rtt,
        );
        let lost: Vec<u64> = out.lost.iter().map(|p| p.pkt_num).collect();
        assert_eq!(lost, vec![0, 1]);
        assert_eq!(d.outstanding(), 2);
    }

    #[test]
    fn time_threshold_declares_loss_later() {
        let mut d = LossDetector::new();
        d.on_sent(pkt(0, 0));
        d.on_sent(pkt(1, 0));
        let rtt = rtt60();
        let out = ack(
            &mut d,
            SimTime::from_millis(60),
            &[(1, 1)],
            SimDuration::ZERO,
            &rtt,
        );
        assert!(out.lost.is_empty(), "within packet+time thresholds");
        // 9/8·60 = 67.5 ms after send → lost.
        let mut lost = Vec::new();
        d.detect_lost(SimTime::from_millis(68), &rtt, &mut lost);
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].pkt_num, 0);
    }

    #[test]
    fn duplicate_acks_are_harmless() {
        let mut d = LossDetector::new();
        d.on_sent(pkt(0, 0));
        let rtt = rtt60();
        let out1 = ack(
            &mut d,
            SimTime::from_millis(60),
            &[(0, 0)],
            SimDuration::ZERO,
            &rtt,
        );
        assert_eq!(out1.acked.len(), 1);
        let out2 = ack(
            &mut d,
            SimTime::from_millis(70),
            &[(0, 0)],
            SimDuration::ZERO,
            &rtt,
        );
        assert!(out2.acked.is_empty());
        assert!(out2.rtt_sample.is_none());
    }

    #[test]
    fn pto_fires_and_backs_off() {
        let mut d = LossDetector::new();
        let chunk = |id, unreliable| SentChunk {
            id: StreamId(id),
            offset: 0,
            len: 500,
            fin: false,
            unreliable,
        };
        // The oldest packet carries one reliable and one unreliable chunk.
        d.on_sent(SentPacket {
            chunks: vec![chunk(1, true), chunk(3, false)],
            ..pkt(0, 0)
        });
        d.on_sent(SentPacket {
            chunks: vec![chunk(5, false)],
            ..pkt(1, 0)
        });
        let rtt = rtt60();
        let deadline = d
            .next_timeout(&rtt, SimDuration::from_millis(25))
            .expect("armed");
        // PTO = srtt + 4·var + mad = 60 + 120 + 25 = 205 ms.
        assert_eq!(deadline.as_micros(), 205_000);
        match d.on_timeout(deadline, &rtt) {
            TimeoutOutcome::Pto { count, probe } => {
                assert_eq!(count, 1);
                // Only what the probe re-sends: the oldest packet's
                // reliable data.
                assert_eq!(probe, vec![chunk(3, false)]);
            }
            other => panic!("expected PTO, got {other:?}"),
        }
        assert_eq!(d.outstanding(), 2, "a PTO declares nothing lost");
        // Backoff doubles the next deadline.
        let d2 = d
            .next_timeout(&rtt, SimDuration::from_millis(25))
            .expect("armed");
        assert_eq!(d2.as_micros(), 410_000);
    }

    #[test]
    fn pto_count_resets_on_forward_progress() {
        let mut d = LossDetector::new();
        d.on_sent(pkt(0, 0));
        let rtt = rtt60();
        let t = d.next_timeout(&rtt, SimDuration::ZERO).unwrap();
        d.on_timeout(t, &rtt);
        assert_eq!(d.pto_count, 1);
        d.on_sent(pkt(1, 300));
        ack(
            &mut d,
            SimTime::from_millis(360),
            &[(1, 1)],
            SimDuration::ZERO,
            &rtt,
        );
        assert_eq!(d.pto_count, 0);
    }

    #[test]
    fn timeout_with_losses_reports_them_not_pto() {
        let mut d = LossDetector::new();
        d.on_sent(pkt(0, 0));
        d.on_sent(pkt(1, 1));
        let rtt = rtt60();
        ack(
            &mut d,
            SimTime::from_millis(61),
            &[(1, 1)],
            SimDuration::ZERO,
            &rtt,
        );
        match d.on_timeout(SimTime::from_millis(200), &rtt) {
            TimeoutOutcome::Lost(lost) => assert_eq!(lost[0].pkt_num, 0),
            other => panic!("expected losses, got {other:?}"),
        }
        assert_eq!(d.pto_count, 0);
    }

    #[test]
    fn no_timeout_when_idle() {
        let d = LossDetector::new();
        assert!(d.next_timeout(&rtt60(), SimDuration::ZERO).is_none());
    }

    #[test]
    fn acks_produce_delivery_rate_samples() {
        let mut d = LossDetector::new();
        d.set_rate_sampling(true);
        d.on_sent(pkt(0, 0));
        d.on_sent(pkt(1, 5));
        let rtt = rtt60();
        let out = ack(
            &mut d,
            SimTime::from_millis(65),
            &[(1, 0)],
            SimDuration::ZERO,
            &rtt,
        );
        assert_eq!(out.rate_samples.len(), 2);
        assert_eq!(d.delivered_bytes(), 2400);
        for s in &out.rate_samples {
            assert!(s.delivered >= s.delivered_at_send);
            assert!(s.rate > 0.0);
        }
        // pkt 0: 1200 B delivered over 65 ms ≈ 18.4 kB/s.
        let r0 = out.rate_samples[0].rate;
        assert!((r0 - 1200.0 / 0.065).abs() < 1.0, "rate {r0}");
        // Losses never credit the delivered counter.
        d.on_sent(pkt(2, 70));
        d.on_sent(pkt(5, 71));
        let out = ack(
            &mut d,
            SimTime::from_millis(135),
            &[(5, 5)],
            SimDuration::ZERO,
            &rtt,
        );
        assert_eq!(out.lost.len(), 1, "pkt 2 is 3 behind");
        assert_eq!(d.delivered_bytes(), 3600);
    }

    /// The perf contract behind `set_rate_sampling`: controllers that
    /// never read samples (CUBIC, delay) must not pay for them, while
    /// the delivered-byte clock keeps running regardless.
    #[test]
    fn rate_sampling_is_off_by_default_but_delivered_still_counts() {
        let mut d = LossDetector::new();
        d.on_sent(pkt(0, 0));
        d.on_sent(pkt(1, 5));
        let out = ack(
            &mut d,
            SimTime::from_millis(65),
            &[(1, 0)],
            SimDuration::ZERO,
            &rtt60(),
        );
        assert!(
            out.rate_samples.is_empty(),
            "samples emitted while sampling is off"
        );
        assert_eq!(d.delivered_bytes(), 2400);
    }
}

#[cfg(test)]
mod props {
    use super::tests::ack;
    use super::*;
    use proptest::prelude::*;

    /// `LossDetector` as first written: per ACK range, the packet numbers
    /// it covers collected into a `Vec` and removed one by one; every
    /// packet below the largest acked filtered for loss; a PTO's probe
    /// found by a scan. The reference the skip of ranges below the flight,
    /// the removal without collecting and the loss search that stops early
    /// are held to.
    #[derive(Default)]
    struct CollectingDetector {
        sent: std::collections::BTreeMap<u64, SentPacket>,
        largest_acked: Option<u64>,
        pto_count: u32,
        delivered: u64,
        sample_rates: bool,
    }

    impl CollectingDetector {
        fn on_ack(
            &mut self,
            now: SimTime,
            ranges: &[(u64, u64)],
            ack_delay: SimDuration,
            rtt: &RttEstimator,
        ) -> AckOutcome {
            let mut out = AckOutcome::default();
            let mut largest_newly_acked: Option<u64> = None;
            for &(hi, lo) in ranges {
                let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                let acked: Vec<u64> = self.sent.range(lo..=hi).map(|(&pn, _)| pn).collect();
                for pn in acked {
                    if let Some(pkt) = self.sent.remove(&pn) {
                        largest_newly_acked =
                            Some(largest_newly_acked.map_or(pn, |l: u64| l.max(pn)));
                        out.acked.push(pkt);
                    }
                }
            }
            for pkt in &out.acked {
                self.delivered += pkt.wire_bytes as u64;
                if !self.sample_rates {
                    continue;
                }
                let flight = now.saturating_since(pkt.sent_at);
                if flight > SimDuration::ZERO {
                    out.rate_samples.push(RateSample {
                        delivered: self.delivered,
                        delivered_at_send: pkt.delivered_at_send,
                        rate: (self.delivered - pkt.delivered_at_send) as f64
                            / flight.as_secs_f64(),
                    });
                }
            }
            if let Some(largest) = largest_newly_acked {
                if self.largest_acked.is_none_or(|l| largest > l) {
                    self.largest_acked = Some(largest);
                    if let Some(pkt) = out.acked.iter().find(|p| p.pkt_num == largest) {
                        out.rtt_sample = Some((now.saturating_since(pkt.sent_at), ack_delay));
                    }
                }
                self.pto_count = 0;
            }
            out.lost = self.detect_lost(now, rtt);
            out
        }

        fn detect_lost(&mut self, now: SimTime, rtt: &RttEstimator) -> Vec<SentPacket> {
            let Some(largest) = self.largest_acked else {
                return Vec::new();
            };
            let time_threshold = rtt.loss_time_threshold();
            let lost_pns: Vec<u64> = self
                .sent
                .range(..largest)
                .filter(|(&pn, pkt)| {
                    largest - pn >= PACKET_THRESHOLD
                        || now.saturating_since(pkt.sent_at) >= time_threshold
                })
                .map(|(&pn, _)| pn)
                .collect();
            lost_pns
                .into_iter()
                .filter_map(|pn| self.sent.remove(&pn))
                .collect()
        }

        /// A timeout: the losses it declares, or else a PTO probing with
        /// the oldest packet's reliable chunks.
        fn on_timeout(
            &mut self,
            now: SimTime,
            rtt: &RttEstimator,
        ) -> Result<Vec<u64>, Vec<SentChunk>> {
            let lost = self.detect_lost(now, rtt);
            if !lost.is_empty() {
                return Ok(pns(&lost));
            }
            self.pto_count += 1;
            let probe = self
                .sent
                .values()
                .min_by_key(|p| p.pkt_num)
                .map(|p| p.chunks.iter().filter(|c| !c.unreliable).copied().collect());
            Err(probe.unwrap_or_default())
        }

        /// What it holds, as [`state`] reads a `LossDetector`.
        fn state(&self) -> (Vec<u64>, Option<u64>, u32, u64) {
            (
                self.sent.keys().copied().collect(),
                self.largest_acked,
                self.pto_count,
                self.delivered,
            )
        }
    }

    /// What a detector holds, for equality: flight, largest acked, PTO
    /// count and the delivered-byte clock.
    fn state(d: &LossDetector) -> (Vec<u64>, Option<u64>, u32, u64) {
        (
            d.sent.iter().map(|p| p.pkt_num).collect(),
            d.largest_acked,
            d.pto_count,
            d.delivered,
        )
    }

    fn pns(pkts: &[SentPacket]) -> Vec<u64> {
        pkts.iter().map(|p| p.pkt_num).collect()
    }

    /// `LossDetector::next_timeout` as first written: a scan of the whole
    /// flight for the earliest loss deadline and the latest send.
    /// The reference the O(1) version is held to.
    fn next_timeout_by_scan(
        d: &LossDetector,
        rtt: &RttEstimator,
        max_ack_delay: SimDuration,
    ) -> Option<SimTime> {
        let loss_deadline = d.largest_acked.and_then(|largest| {
            d.sent
                .iter()
                .filter(|p| p.pkt_num < largest)
                .map(|p| p.sent_at + rtt.loss_time_threshold())
                .min()
        });
        let pto_deadline = d.sent.iter().map(|p| p.sent_at).max().map(|t| {
            let backoff = 1u64 << d.pto_count.min(6);
            t + SimDuration::from_micros(rtt.pto(max_ack_delay).as_micros() * backoff)
        });
        match (loss_deadline, pto_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Across random interleavings of sends (several at one instant),
        /// acks of arbitrary ranges, the losses they
        /// declare, RTT updates and timeouts (time-threshold losses and
        /// PTOs with backoff), the deadline read off the ends of the
        /// flight equals the one found by scanning all of it.
        #[test]
        fn next_timeout_equals_the_full_scan(
            steps in proptest::collection::vec(
                (0u8..4, 0u64..6, 0u64..12, 0u64..40_000, proptest::bool::ANY),
                1..60,
            ),
        ) {
            let mut d = LossDetector::new();
            let mut rtt = RttEstimator::new();
            let mad = SimDuration::from_millis(25);
            let mut now = 0u64;
            let mut pn = 0u64;
            for (op, x, y, gap, flag) in steps {
                match op {
                    // A burst of sends; `flag` makes them share an instant.
                    0 | 1 => {
                        for _ in 0..=x {
                            now += if flag { 0 } else { gap };
                            d.on_sent(SentPacket {
                                pkt_num: pn,
                                sent_at: SimTime::from_micros(now),
                                wire_bytes: 1200,
                                delivered_at_send: 0,
                                chunks: vec![],
                            });
                            // Gaps in the packet-number space are legal.
                            pn += 1 + y % 2;
                        }
                    }
                    // An ACK for a range somewhere below the newest packet.
                    2 if pn > 0 => {
                        now += gap;
                        let hi = (pn - 1).saturating_sub(x);
                        let lo = hi.saturating_sub(y);
                        let at = SimTime::from_micros(now);
                        let out = ack(&mut d, at, &[(hi, lo)], SimDuration::ZERO, &rtt);
                        if let Some((sample, delay)) = out.rtt_sample {
                            rtt.update(sample, delay);
                        }
                    }
                    // Whatever timer is armed fires (loss or PTO).
                    _ => {
                        if let Some(t) = d.next_timeout(&rtt, mad) {
                            now = now.max(t.as_micros());
                            d.on_timeout(SimTime::from_micros(now), &rtt);
                        }
                    }
                }
                prop_assert!(d.check_invariants().is_ok());
                prop_assert_eq!(d.next_timeout(&rtt, mad), next_timeout_by_scan(&d, &rtt, mad));
            }
        }

        /// An ACK of 1–40 highest-first ranges — runs and holes of
        /// pseudo-random length, the lower ones below the flight, ranges
        /// acked before, either orientation — leaves the detector in the
        /// state the collecting version does, with the same acked and lost
        /// packets in the same order, RTT sample and rate samples. A PTO
        /// on the result hands over the oldest packet's reliable chunks.
        #[test]
        fn on_ack_equals_the_collecting_version(
            steps in proptest::collection::vec(
                (1u64..10, 0u64..30, 0u64..30_000, 1usize..41, 0u64..5),
                1..50,
            ),
            sample_rates in proptest::bool::ANY,
        ) {
            let mut d = LossDetector::new();
            d.set_rate_sampling(sample_rates);
            let mut reference = CollectingDetector { sample_rates, ..CollectingDetector::default() };
            let mut rtt = RttEstimator::new();
            let mut out = AckOutcome::default();
            let mut now = 0u64;
            let mut pn = 0u64;
            for (sends, back, gap, n_ranges, stride) in steps {
                for i in 0..sends {
                    now += gap;
                    let pkt = SentPacket {
                        pkt_num: pn,
                        sent_at: SimTime::from_micros(now),
                        wire_bytes: 1200,
                        delivered_at_send: d.delivered_bytes(),
                        chunks: vec![SentChunk {
                            id: StreamId(pn % 3),
                            offset: pn * 1200,
                            len: 1200,
                            fin: false,
                            unreliable: (pn + i).is_multiple_of(2),
                        }],
                    };
                    reference.sent.insert(pn, pkt.clone());
                    d.on_sent(pkt);
                    // Now and then a number goes to a packet nobody tracks.
                    pn += 1 + u64::from(stride == 4 && i % 3 == 0);
                }
                now += gap + 1;
                let mut ranges = Vec::new();
                let mut hi = (pn - 1).saturating_sub(back);
                for k in 0..n_ranges as u64 {
                    let lo = hi.saturating_sub((k * 7 + stride) % 4);
                    ranges.push(if k % 2 == 0 { (hi, lo) } else { (lo, hi) });
                    let hole = 1 + (k + stride) % 3;
                    if lo <= hole {
                        break;
                    }
                    hi = lo - hole - 1;
                }
                let at = SimTime::from_micros(now);
                let delay = SimDuration::from_micros(gap % 25_000);
                let expected = reference.on_ack(at, &ranges, delay, &rtt);
                d.on_ack(at, &ranges, delay, &rtt, &mut out);
                prop_assert_eq!(pns(&out.acked), pns(&expected.acked));
                prop_assert_eq!(pns(&out.lost), pns(&expected.lost));
                prop_assert_eq!(out.rtt_sample, expected.rtt_sample);
                prop_assert_eq!(&out.rate_samples, &expected.rate_samples);
                prop_assert!(d.check_invariants().is_ok(), "{:?}", d.check_invariants());
                prop_assert_eq!(state(&d), reference.state());
                if let Some((sample, delay)) = out.rtt_sample {
                    rtt.update(sample, delay);
                }
                // Now and then a timer fires: time-threshold losses, or a
                // PTO probing with the oldest packet's reliable chunks.
                if stride == 0 {
                    now += 4 * gap;
                    let at = SimTime::from_micros(now);
                    match (d.on_timeout(at, &rtt), reference.on_timeout(at, &rtt)) {
                        (TimeoutOutcome::Lost(lost), Ok(expected)) => {
                            prop_assert_eq!(pns(&lost), expected);
                        }
                        (TimeoutOutcome::Pto { probe, .. }, Err(expected)) => {
                            prop_assert_eq!(probe, expected);
                        }
                        (got, expected) => {
                            prop_assert!(false, "timeout: {:?} vs {:?}", got, expected);
                        }
                    }
                    prop_assert_eq!(state(&d), reference.state());
                }
            }
        }

        /// The delivery-rate sampler is monotone in bytes acked: across
        /// arbitrary interleavings of sends and (possibly duplicate,
        /// possibly reordered) ack ranges, successive samples carry a
        /// non-decreasing `delivered`, every sample's `delivered` covers
        /// its own send-time snapshot, and the cumulative counter equals
        /// exactly the bytes of packets acked so far.
        #[test]
        fn delivery_rate_samples_monotone_in_bytes_acked(
            steps in proptest::collection::vec(
                (1u64..5, 0u64..8, 0u64..8, 1u64..100_000, 100usize..1500),
                1..40,
            ),
        ) {
            let mut d = LossDetector::new();
            d.set_rate_sampling(true);
            let mut rtt = RttEstimator::new();
            rtt.update(SimDuration::from_millis(60), SimDuration::ZERO);
            let mut now = 0u64;
            let mut pn = 0u64;
            let mut acked_bytes = 0u64;
            let mut last_delivered = 0u64;
            for (sends, lo_off, hi_off, gap, bytes) in steps {
                for _ in 0..sends {
                    now += gap;
                    d.on_sent(SentPacket {
                        pkt_num: pn,
                        sent_at: SimTime::from_micros(now),
                        wire_bytes: bytes,
                                    delivered_at_send: d.delivered_bytes(),
                        chunks: vec![],
                    });
                    pn += 1;
                }
                now += gap + 1;
                let hi = pn - 1 - (hi_off % pn);
                let lo = hi.saturating_sub(lo_off);
                let out = ack(
            &mut d,
                    SimTime::from_micros(now),
                    &[(hi, lo)],
                    SimDuration::ZERO,
                    &rtt,
                );
                acked_bytes += out.acked.iter().map(|p| p.wire_bytes as u64).sum::<u64>();
                for s in &out.rate_samples {
                    prop_assert!(s.delivered >= s.delivered_at_send,
                        "sample credits bytes from before its send");
                    prop_assert!(s.delivered >= last_delivered,
                        "delivered went backwards: {} < {last_delivered}", s.delivered);
                    prop_assert!(s.rate >= 0.0 && s.rate.is_finite());
                    last_delivered = s.delivered;
                }
                prop_assert_eq!(d.delivered_bytes(), acked_bytes,
                    "delivered counter drifted from acked bytes");
                prop_assert!(d.delivered_bytes() >= last_delivered);
            }
        }
    }
}
