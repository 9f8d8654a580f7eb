//! The QUIC\* connection endpoint.
//!
//! Sans-IO, in the style of `quinn-proto`: the owner feeds it packets
//! ([`Connection::on_packet`], or [`Connection::on_datagram`] for encoded
//! bytes), drains outgoing packets ([`Connection::poll_transmit`]), arms a
//! timer ([`Connection::next_timeout`] / [`Connection::on_timeout`]) and
//! consumes application events ([`Connection::poll_event`]). In this
//! repository the owner is the discrete-event loop in `voxel-core`, which
//! moves packets as values; the same state machine could be driven by real
//! UDP sockets through the datagram door.
//!
//! The connection is assumed established (the paper's experiments measure
//! steady-state streaming; handshake latency is identical for QUIC and
//! QUIC\* and cancels out of every comparison).

use crate::ack::{AckTracker, MAX_ACK_DELAY};
use crate::cc::{CcKind, CongestionControl};
use crate::frame::Frame;
use crate::loss::{AckOutcome, LossDetector, SentChunk, SentPacket, TimeoutOutcome};
use crate::packet::{Packet, MAX_PAYLOAD};
use crate::rtt::RttEstimator;
use crate::stream::{RecvStream, Reliability, SendStream, StreamId};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use voxel_sim::{SimDuration, SimTime};
use voxel_trace::{trace_event, Layer, Tracer};

/// Which side of the connection this endpoint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Client (opens even-numbered streams).
    Client,
    /// Server (opens odd-numbered streams).
    Server,
}

/// Tunables.
#[derive(Debug, Clone)]
pub struct ConnectionConfig {
    /// Maximum datagram payload.
    pub mss: usize,
    /// Connection-level flow control window granted to the peer.
    pub max_data: u64,
    /// Consecutive PTOs before declaring persistent congestion.
    pub persistent_congestion_ptos: u32,
    /// Congestion-control algorithm.
    pub cc: CcKind,
}

impl Default for ConnectionConfig {
    fn default() -> Self {
        ConnectionConfig {
            mss: MAX_PAYLOAD,
            max_data: 256 * 1024 * 1024,
            persistent_congestion_ptos: 7,
            cc: CcKind::Cubic,
        }
    }
}

/// Application-visible connection events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The peer opened a stream.
    StreamOpened(StreamId, Reliability),
    /// New data is readable on a stream.
    StreamReadable(StreamId),
    /// A receive stream saw fin and (for reliable streams) all data.
    StreamFinished(StreamId),
    /// QUIC\* loss report: these sent ranges of an unreliable stream were
    /// lost and will NOT be retransmitted by the transport (§4.2 — the
    /// application may selectively re-request them).
    UnreliableLoss {
        /// The stream.
        id: StreamId,
        /// Lost `[start, end)` ranges, stream offsets.
        ranges: Vec<(u64, u64)>,
    },
    /// The peer abandoned a stream (RESET_STREAM / STOP_SENDING).
    StreamReset(StreamId),
    /// The peer closed the connection.
    Closed {
        /// Application error code.
        code: u64,
    },
}

/// Transport statistics (per connection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Packets sent.
    pub packets_sent: u64,
    /// Packets declared lost.
    pub packets_lost: u64,
    /// Loss events (bursts of packets declared lost together — what CUBIC
    /// reacts to once, however many packets the burst contained).
    pub loss_events: u64,
    /// Ack-eliciting bytes sent (wire).
    pub bytes_sent: u64,
    /// Stream payload bytes retransmitted (reliable streams).
    pub bytes_retransmitted: u64,
    /// PTO events.
    pub ptos: u64,
    /// Sum of the congestion window at every send, bytes (mean cwnd =
    /// this over `packets_sent`).
    pub cwnd_sum_bytes: u64,
    /// Sum of the smoothed RTT after every ACK that newly acknowledged
    /// data, microseconds (mean sRTT = this over `srtt_samples`).
    pub srtt_sum_us: u64,
    /// ACKs counted into `srtt_sum_us`.
    pub srtt_samples: u64,
    /// Well-formed packets received (before duplicate filtering).
    pub packets_received: u64,
    /// Received packets discarded as duplicates.
    pub packets_duplicate: u64,
    /// Received packets that arrived below the largest packet number seen
    /// (out-of-order delivery — what the testkit's reorder fault provokes).
    pub packets_reordered: u64,
    /// Datagrams dropped because they did not decode as a packet.
    pub packets_malformed: u64,
}

/// A QUIC\* connection endpoint.
pub struct Connection {
    role: Role,
    config: ConnectionConfig,
    next_pkt_num: u64,
    next_stream: u64,
    send_streams: BTreeMap<StreamId, SendStream>,
    /// The ids of exactly the send streams that `wants_to_send`, so the
    /// transmit path never walks the streams that do not. Re-filed by
    /// [`Connection::mark`] after every operation that touches a stream.
    sendable: BTreeSet<StreamId>,
    /// One MSS of zeros, shared by every send stream: a body chunk is a
    /// slice of it (see [`Connection::send_zeros`]).
    zero_page: Bytes,
    recv_streams: BTreeMap<StreamId, RecvStream>,
    ack: AckTracker,
    loss: LossDetector,
    /// What the last ACK acknowledged and declared lost; its buffers are
    /// reused by the next one.
    ack_outcome: AckOutcome,
    /// The unreliable streams one loss event reported on (scratch).
    loss_reported: Vec<StreamId>,
    rtt: RttEstimator,
    cc: CongestionControl,
    events: VecDeque<Event>,
    /// Peer-granted connection flow limit / our consumption of it.
    max_data_remote: u64,
    data_sent: u64,
    /// Flow limit we granted / peer's consumption / next update threshold.
    max_data_local: u64,
    data_received: u64,
    /// Pending control frames (flow-control updates, close).
    control: VecDeque<Frame>,
    /// The frame buffer of the last packet received, emptied: the next
    /// packet sent is built in it instead of a fresh allocation.
    spare_frames: Vec<Frame>,
    /// Probe data to send regardless of cwnd (after a PTO).
    probe_pending: bool,
    /// Earliest time the pacer allows the next data packet (QUIC paces at
    /// ~1.25 x cwnd/SRTT so congestion-window-sized bursts don't slam
    /// shallow droptail queues; pure-ACK/control packets are exempt).
    pace_next: SimTime,
    closed: bool,
    stats: ConnStats,
    tracer: Tracer,
}

impl Connection {
    /// Create an endpoint.
    pub fn new(role: Role, config: ConnectionConfig) -> Connection {
        let max_data_local = config.max_data;
        let mut loss = LossDetector::new();
        loss.set_rate_sampling(config.cc.wants_rate_samples());
        Connection {
            role,
            cc: CongestionControl::new(config.cc, config.mss),
            zero_page: Bytes::from(vec![0; config.mss]),
            config,
            next_pkt_num: 0,
            next_stream: 0,
            send_streams: BTreeMap::new(),
            sendable: BTreeSet::new(),
            recv_streams: BTreeMap::new(),
            ack: AckTracker::new(),
            loss,
            ack_outcome: AckOutcome::default(),
            loss_reported: Vec::new(),
            rtt: RttEstimator::new(),
            events: VecDeque::new(),
            max_data_remote: max_data_local,
            data_sent: 0,
            max_data_local,
            data_received: 0,
            control: VecDeque::new(),
            spare_frames: Vec::new(),
            probe_pending: false,
            pace_next: SimTime::ZERO,
            closed: false,
            stats: ConnStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer; transport events and metrics flow through it from
    /// now on. A disabled tracer (the default) costs one branch per site.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Endpoint with default configuration.
    pub fn with_defaults(role: Role) -> Connection {
        Self::new(role, ConnectionConfig::default())
    }

    /// Transport statistics.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> usize {
        self.cc.cwnd()
    }

    // ------------------------------------------------------------------
    // Application API
    // ------------------------------------------------------------------

    /// Open a new stream of the given reliability class.
    pub fn open_stream(&mut self, reliability: Reliability) -> StreamId {
        let parity = match self.role {
            Role::Client => 0,
            Role::Server => 1,
        };
        let id = StreamId(self.next_stream * 2 + parity);
        self.next_stream += 1;
        self.send_streams
            .insert(id, SendStream::new(id, reliability, self.zero_page.clone()));
        id
    }

    /// Open the sending half of a stream the *peer* initiated — how a
    /// server replies on the stream that carried the request (HTTP
    /// semantics over bidirectional streams).
    pub fn open_reply_stream(&mut self, id: StreamId, reliability: Reliability) {
        let prev = self
            .send_streams
            .insert(id, SendStream::new(id, reliability, self.zero_page.clone()));
        debug_assert!(prev.is_none(), "reply stream {id} already open");
    }

    /// Re-file `id` in `sendable` after something touched its stream.
    fn mark(&mut self, id: StreamId) {
        if self
            .send_streams
            .get(&id)
            .is_some_and(SendStream::wants_to_send)
        {
            self.sendable.insert(id);
        } else {
            self.sendable.remove(&id);
        }
    }

    /// Abandon sending on a stream: discard unsent/retransmittable data and
    /// tell the peer to do the same. Used for segment abandonment (§4.3).
    pub fn reset_stream(&mut self, id: StreamId) {
        self.send_streams.remove(&id);
        self.mark(id);
        self.control.push_back(Frame::ResetStream { id });
    }

    /// Write data on a locally opened stream. Writes to a stream this
    /// endpoint never opened are a caller bug; they are dropped rather
    /// than crashing a whole survey run.
    pub fn send(&mut self, id: StreamId, data: &[u8]) {
        debug_assert!(self.send_streams.contains_key(&id), "unknown send stream");
        if let Some(s) = self.send_streams.get_mut(&id) {
            s.write(data);
        }
        self.mark(id);
    }

    /// Write `len` zero bytes on a locally opened stream: on the wire and
    /// at the peer exactly `send(id, &vec![0; len])`, but O(1) in time and
    /// memory whatever `len` is. For payloads whose values nothing reads.
    pub fn send_zeros(&mut self, id: StreamId, len: u64) {
        debug_assert!(self.send_streams.contains_key(&id), "unknown send stream");
        if let Some(s) = self.send_streams.get_mut(&id) {
            s.write_zeros(len);
        }
        self.mark(id);
    }

    /// Finish a locally opened stream (no-op on unknown ids, as `send`).
    pub fn finish(&mut self, id: StreamId) {
        debug_assert!(self.send_streams.contains_key(&id), "unknown send stream");
        if let Some(s) = self.send_streams.get_mut(&id) {
            s.finish();
        }
        self.mark(id);
    }

    /// Access a receive stream (for reads / missing-range queries).
    pub fn recv_stream(&mut self, id: StreamId) -> Option<&mut RecvStream> {
        self.recv_streams.get_mut(&id)
    }

    /// Close the connection with an application error code.
    pub fn close(&mut self, code: u64) {
        if !self.closed {
            self.control.push_back(Frame::Close { code });
        }
    }

    /// Next application event, if any.
    pub fn poll_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }

    // ------------------------------------------------------------------
    // Network ingress
    // ------------------------------------------------------------------

    /// Process an incoming datagram: bytes from outside the simulation.
    /// A malformed one is counted and dropped, as a real endpoint would.
    pub fn on_datagram(&mut self, now: SimTime, data: Bytes) {
        match Packet::decode(data) {
            Some(packet) => self.on_packet(now, packet),
            None => self.stats.packets_malformed += 1,
        }
    }

    /// Process an incoming packet.
    pub fn on_packet(&mut self, now: SimTime, packet: Packet) {
        let _obs = voxel_obs::span!("quic.on_datagram");
        self.stats.packets_received += 1;
        if self.ack.largest_seen().is_some_and(|l| packet.pkt_num < l) {
            self.stats.packets_reordered += 1;
        }
        let eliciting = packet.is_ack_eliciting();
        if !self.ack.on_packet(packet.pkt_num, now, eliciting) {
            self.stats.packets_duplicate += 1;
            return; // duplicate
        }
        let mut frames = packet.frames;
        for frame in frames.drain(..) {
            self.on_frame(now, frame);
        }
        self.spare_frames = frames;
        self.debug_invariants();
    }

    /// Full structural audit of the connection (DESIGN.md §10): flow
    /// control within limits, congestion window above the floor both
    /// controllers maintain, stream offsets monotone and in-buffer, and
    /// every ACK/loss range set sorted and disjoint. Cheap enough to run
    /// at event-loop boundaries; the `paranoid` feature does exactly that
    /// via `Connection::debug_invariants`.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.data_sent > self.max_data_remote {
            return Err(format!(
                "flow control violated: sent {} > remote limit {}",
                self.data_sent, self.max_data_remote
            ));
        }
        if self.data_received > self.max_data_local {
            return Err(format!(
                "flow control violated: received {} > local limit {}",
                self.data_received, self.max_data_local
            ));
        }
        let floor = 2 * self.config.mss;
        if self.cc.cwnd() < floor {
            return Err(format!(
                "cwnd {} below the {floor}-byte floor",
                self.cc.cwnd()
            ));
        }
        for (id, s) in &self.send_streams {
            s.check_invariants()
                .map_err(|e| format!("send stream {id}: {e}"))?;
            if s.wants_to_send() != self.sendable.contains(id) {
                return Err(format!(
                    "send stream {id}: wants_to_send is {} but sendable disagrees",
                    s.wants_to_send()
                ));
            }
        }
        if let Some(id) = self
            .sendable
            .iter()
            .find(|id| !self.send_streams.contains_key(id))
        {
            return Err(format!("sendable holds {id}, which is not open"));
        }
        for (id, r) in &self.recv_streams {
            r.check_invariants()
                .map_err(|e| format!("recv stream {id}: {e}"))?;
        }
        self.ack
            .check_invariants()
            .map_err(|e| format!("ack tracker: {e}"))?;
        self.loss
            .check_invariants()
            .map_err(|e| format!("loss detector: {e}"))?;
        Ok(())
    }

    /// Invariant audit hook, compiled to a no-op unless the `paranoid`
    /// feature is on.
    #[inline]
    fn debug_invariants(&self) {
        #[cfg(feature = "paranoid")]
        #[expect(
            clippy::panic,
            reason = "the paranoid layer is intentionally fatal on corruption"
        )]
        if let Err(e) = self.check_invariants() {
            panic!("quic::Connection invariant violated ({:?}): {e}", self.role);
        }
    }

    fn on_frame(&mut self, now: SimTime, frame: Frame) {
        match frame {
            Frame::Padding { .. } | Frame::Ping => {}
            Frame::Stream {
                id,
                offset,
                fin,
                unreliable,
                data,
            } => {
                let reliability = if unreliable {
                    Reliability::Unreliable
                } else {
                    Reliability::Reliable
                };
                let stream = self.recv_streams.entry(id).or_insert_with(|| {
                    self.events.push_back(Event::StreamOpened(id, reliability));
                    RecvStream::new(id, reliability)
                });
                let before = stream.bytes_received();
                let had_fin = stream.final_len().is_some();
                stream.on_data(offset, data, fin);
                let gained = stream.bytes_received() - before;
                // A bare fin (zero new bytes — e.g. the resent fin marker of
                // an unreliable stream after loss) must still wake the
                // application: it changes the stream's state.
                if gained > 0 || (fin && !had_fin) {
                    self.data_received += gained;
                    self.events.push_back(Event::StreamReadable(id));
                }
                if stream.is_complete() {
                    self.events.push_back(Event::StreamFinished(id));
                }
                // Replenish the peer's connection window once half-consumed.
                if self.data_received * 2 > self.max_data_local {
                    self.max_data_local += self.config.max_data;
                    self.control.push_back(Frame::MaxData {
                        limit: self.max_data_local,
                    });
                }
            }
            Frame::Ack { ranges, delay_us } => {
                let mut outcome = std::mem::take(&mut self.ack_outcome);
                self.loss.on_ack(
                    now,
                    &ranges,
                    SimDuration::from_micros(delay_us),
                    &self.rtt,
                    &mut outcome,
                );
                if let Some((sample, delay)) = outcome.rtt_sample {
                    self.rtt.update(sample, delay);
                }
                // Model controllers (BBR) consume the delivery-rate
                // samples before the per-packet window bookkeeping.
                for s in &outcome.rate_samples {
                    self.cc.on_rate_sample(now, *s);
                }
                // Reliable streams this ACK completed.
                let mut completed: Vec<StreamId> = Vec::new();
                for pkt in &outcome.acked {
                    self.cc
                        .on_ack(now, pkt.wire_bytes, self.rtt.srtt(), self.rtt.latest());
                    for c in &pkt.chunks {
                        if let Some(s) = self.send_streams.get_mut(&c.id) {
                            s.on_chunk_acked(c.offset, c.len, c.fin);
                            if !c.unreliable && s.is_complete() {
                                completed.push(c.id);
                            }
                            if c.fin {
                                // An acked fin cancels a pending resend.
                                self.mark(c.id);
                            }
                        }
                    }
                }
                if !outcome.acked.is_empty() {
                    self.stats.srtt_sum_us += self.rtt.srtt().as_micros();
                    self.stats.srtt_samples += 1;
                }
                if self.tracer.enabled() && !outcome.acked.is_empty() {
                    let bytes: usize = outcome.acked.iter().map(|p| p.wire_bytes).sum();
                    let largest = outcome.acked.iter().map(|p| p.pkt_num).max().unwrap_or(0);
                    self.tracer
                        .count("quic.packets_acked", outcome.acked.len() as u64);
                    self.tracer
                        .observe("quic.srtt_us", self.rtt.srtt().as_micros());
                    self.tracer
                        .observe("quic.cwnd_bytes", self.cc.cwnd() as u64);
                    if let Some(bw) = self.cc.btl_bw_estimate() {
                        self.tracer.observe("quic.btlbw_bps", bw as u64);
                    }
                    trace_event!(
                        self.tracer,
                        now,
                        Layer::Quic,
                        "pkt_acked",
                        "largest" = largest,
                        "pkts" = outcome.acked.len(),
                        "bytes" = bytes,
                        "cwnd" = self.cc.cwnd(),
                        // 0 encodes "no threshold yet" (before the first
                        // loss), keeping the JSON in safe-integer range.
                        "ssthresh" = {
                            let s = self.cc.ssthresh();
                            if s == u64::MAX {
                                0
                            } else {
                                s
                            }
                        },
                        "srtt_us" = self.rtt.srtt().as_micros(),
                    );
                }
                self.handle_lost(now, &outcome.lost);
                self.ack_outcome = outcome;
                // Garbage-collect the reliable streams this ACK completed —
                // after `handle_lost`, whose retransmission count covers
                // lost chunks of streams still open. Unreliable streams
                // stay: their late loss reports must still reach the
                // application.
                for id in completed {
                    self.send_streams.remove(&id);
                    self.mark(id);
                }
            }
            Frame::MaxData { limit } => {
                self.max_data_remote = self.max_data_remote.max(limit);
            }
            Frame::MaxStreamData { id, limit } => {
                if let Some(s) = self.send_streams.get_mut(&id) {
                    s.set_max_stream_data(limit);
                }
                self.mark(id);
            }
            Frame::ResetStream { id } => {
                // STOP_SENDING semantics: the peer no longer wants this
                // stream — stop transmitting it.
                self.send_streams.remove(&id);
                self.mark(id);
                self.events.push_back(Event::StreamReset(id));
            }
            Frame::Close { code } => {
                self.closed = true;
                self.events.push_back(Event::Closed { code });
            }
        }
    }

    fn handle_lost(&mut self, now: SimTime, lost: &[SentPacket]) {
        let Some(largest_lost) = lost.iter().map(|p| p.pkt_num).max() else {
            return;
        };
        self.stats.packets_lost += lost.len() as u64;
        self.stats.loss_events += 1;
        let largest_sent = self.next_pkt_num.saturating_sub(1);
        let bytes: usize = lost.iter().map(|p| p.wire_bytes).sum();
        self.cc.on_loss(now, largest_sent, largest_lost, bytes);
        if self.tracer.enabled() {
            self.tracer.count("quic.loss_events", 1);
            self.tracer.count("quic.packets_lost", lost.len() as u64);
            self.tracer
                .observe("quic.loss_burst_pkts", lost.len() as u64);
            trace_event!(
                self.tracer,
                now,
                Layer::Quic,
                "loss",
                "pkts" = lost.len(),
                "bytes" = bytes,
                "largest_lost" = largest_lost,
                "cwnd_after" = self.cc.cwnd(),
            );
        }

        for c in lost.iter().flat_map(|p| &p.chunks) {
            if let Some(s) = self.send_streams.get_mut(&c.id) {
                s.on_chunk_lost(c.offset, c.len, c.fin);
                match c.unreliable {
                    false => self.stats.bytes_retransmitted += c.len as u64,
                    true => self.loss_reported.push(c.id),
                }
                self.mark(c.id);
            }
        }
        // One report per unreliable stream, in stream order, carrying the
        // ranges its stream collected from this loss event.
        self.loss_reported.sort_unstable();
        self.loss_reported.dedup();
        for &id in &self.loss_reported {
            let Some(ranges) = self
                .send_streams
                .get_mut(&id)
                .map(SendStream::take_loss_reports)
                .filter(|r| !r.is_empty())
            else {
                continue;
            };
            if self.tracer.enabled() {
                let lost_bytes: u64 = ranges.iter().map(|&(s, e)| e - s).sum();
                self.tracer.count("quic.unreliable_loss_reports", 1);
                trace_event!(
                    self.tracer,
                    now,
                    Layer::Quic,
                    "unreliable_loss",
                    "stream" = id.0,
                    "ranges" = ranges.len(),
                    "bytes" = lost_bytes,
                );
            }
            self.events.push_back(Event::UnreliableLoss { id, ranges });
        }
        self.loss_reported.clear();
    }

    // ------------------------------------------------------------------
    // Network egress
    // ------------------------------------------------------------------

    /// Produce the next outgoing packet, or `None` if there is nothing to
    /// send right now (congestion-blocked, flow-blocked, or idle).
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Packet> {
        let _obs = voxel_obs::span!("quic.poll_transmit");
        self.debug_invariants();
        if self.closed {
            return None;
        }
        let mut frames = std::mem::take(&mut self.spare_frames);
        let mut budget = self.config.mss;

        // Control frames first (cheap, rare).
        while let Some(f) = self.control.front() {
            if f.size() > budget {
                break;
            }
            let Some(f) = self.control.pop_front() else {
                break;
            };
            if let Frame::Close { .. } = f {
                self.closed = true;
            }
            budget -= f.size();
            frames.push(f);
        }

        // Piggyback / emit an ACK when one is due.
        if self.ack.should_ack(now) {
            if let Some((ranges, delay_us)) = self.ack.take_ack(now) {
                let f = Frame::Ack { ranges, delay_us };
                if f.size() <= budget {
                    budget -= f.size();
                    frames.push(f);
                }
            }
        }

        // Stream data: probe data bypasses the congestion window once.
        // The pacer gates data (not ACK/control) until `pace_next`, except
        // small post-idle bursts (in-flight below the initial window).
        let bypass_cc = std::mem::take(&mut self.probe_pending);
        let paced_out =
            !bypass_cc && now < self.pace_next && self.cc.in_flight() >= 10 * self.config.mss;
        let mut chunks: Vec<SentChunk> = Vec::new();
        if !paced_out {
            loop {
                // Leave room for the stream-frame header.
                const HDR: usize = 16;
                if budget <= HDR {
                    break;
                }
                if !bypass_cc && !self.cc.can_send(budget.min(self.config.mss)) {
                    break;
                }
                let flow_left = self.max_data_remote.saturating_sub(self.data_sent);
                if flow_left == 0 {
                    break;
                }
                let max_chunk = (budget - HDR).min(flow_left as usize);
                let Some(&id) = self.sendable.first() else {
                    break;
                };
                let Some(s) = self.send_streams.get_mut(&id) else {
                    break;
                };
                let Some((offset, data, fin)) = s.next_chunk(max_chunk) else {
                    break;
                };
                let unreliable = s.reliability == Reliability::Unreliable;
                self.mark(id);
                self.data_sent += data.len() as u64;
                chunks.push(SentChunk {
                    id,
                    offset,
                    len: data.len(),
                    fin,
                    unreliable,
                });
                let f = Frame::Stream {
                    id,
                    offset,
                    fin,
                    unreliable,
                    data,
                };
                budget = budget.saturating_sub(f.size());
                frames.push(f);
                if bypass_cc {
                    break; // a single probe chunk
                }
            }
        }

        // A bare PTO probe with no data to carry: ping.
        if bypass_cc && chunks.is_empty() {
            frames.push(Frame::Ping);
        }

        if frames.is_empty() {
            self.spare_frames = frames;
            return None;
        }

        let pkt = Packet::new(self.next_pkt_num, frames);
        self.next_pkt_num += 1;
        self.stats.packets_sent += 1;
        self.stats.cwnd_sum_bytes += self.cc.cwnd() as u64;
        if self.tracer.enabled() {
            self.tracer.count("quic.packets_sent", 1);
            self.tracer
                .observe("quic.cwnd_bytes", self.cc.cwnd() as u64);
            self.tracer
                .observe("quic.pkt_bytes", pkt.wire_size() as u64);
            trace_event!(
                self.tracer,
                now,
                Layer::Quic,
                "pkt_sent",
                "pn" = pkt.pkt_num,
                "bytes" = pkt.wire_size(),
                "cwnd" = self.cc.cwnd(),
                "in_flight" = self.cc.in_flight(),
                "retx" = !chunks.is_empty() && bypass_cc,
            );
        }
        if !chunks.is_empty() {
            // Pacing rate: the controller's model rate when it has one
            // (BBR: pacing_gain × BtlBw), else 1.25 x cwnd per SRTT;
            // floored at 1 Mbps either way.
            let rate_bps = self.cc.pacing_rate_bps().unwrap_or_else(|| {
                (self.cc.cwnd() as f64 * 8.0 / self.rtt.srtt().as_secs_f64().max(1e-3)) * 1.25
            });
            let gap = SimDuration::serialization(pkt.wire_size() as u64, rate_bps.max(1e6));
            self.pace_next = self.pace_next.max(now) + gap;
        }
        if pkt.is_ack_eliciting() {
            let wire = pkt.wire_size();
            self.stats.bytes_sent += wire as u64;
            self.cc.on_sent(wire);
            self.loss.on_sent(SentPacket {
                pkt_num: pkt.pkt_num,
                sent_at: now,
                wire_bytes: wire,
                delivered_at_send: self.loss.delivered_bytes(),
                chunks,
            });
        }
        Some(pkt)
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// The earliest deadline at which [`Connection::on_timeout`] must run.
    /// A closed connection has no timers: it can neither transmit ACKs nor
    /// retransmit, so keeping deadlines armed would just spin the caller.
    /// Includes the pacer's release time when data is waiting to be sent.
    pub fn next_timeout(&self) -> Option<SimTime> {
        if self.closed {
            return None;
        }
        let loss = self.loss.next_timeout(&self.rtt, MAX_ACK_DELAY);
        let ack = self.ack.deadline();
        let pace = (!self.sendable.is_empty() && self.cc.can_send(self.config.mss))
            .then_some(self.pace_next);
        [loss, ack, pace].into_iter().flatten().min()
    }

    /// Handle an expired timer.
    pub fn on_timeout(&mut self, now: SimTime) {
        let _obs = voxel_obs::span!("quic.on_timeout");
        // Delayed-ACK deadline: nothing to do here — poll_transmit emits the
        // ACK because `should_ack(now)` is true.
        if self
            .loss
            .next_timeout(&self.rtt, MAX_ACK_DELAY)
            .is_some_and(|t| t <= now)
        {
            match self.loss.on_timeout(now, &self.rtt) {
                TimeoutOutcome::Lost(lost) => self.handle_lost(now, &lost),
                TimeoutOutcome::Pto { count, probe } => {
                    self.stats.ptos += 1;
                    if self.tracer.enabled() {
                        self.tracer.count("quic.ptos", 1);
                        trace_event!(
                            self.tracer,
                            now,
                            Layer::Quic,
                            "pto",
                            "count" = count,
                            "cwnd" = self.cc.cwnd(),
                        );
                    }
                    if count >= self.config.persistent_congestion_ptos {
                        self.cc.on_persistent_congestion();
                    }
                    // Re-arm a probe: retransmittable data from the oldest
                    // outstanding packet, or a ping.
                    for c in probe {
                        if let Some(s) = self.send_streams.get_mut(&c.id) {
                            s.on_chunk_lost(c.offset, c.len, c.fin);
                        }
                        self.mark(c.id);
                    }
                    self.probe_pending = true;
                }
            }
        }
        self.debug_invariants();
    }

    /// Whether any stream still has data to send or awaiting ack.
    pub fn is_idle(&self) -> bool {
        self.send_streams
            .values()
            .all(|s| s.is_complete() || s.is_drained())
            && self.loss.outstanding() == 0
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("role", &self.role)
            .field("pkt_num", &self.next_pkt_num)
            .field("streams", &self.send_streams.len())
            .field("cwnd", &self.cc.cwnd())
            .field("closed", &self.closed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-way delay of the test pipe.
    pub(super) const PIPE_DELAY: SimDuration = SimDuration::from_millis(30);

    /// A fixed-delay pipe between two connections: the one pair driver of
    /// this file's tests. Packets cross it as values.
    pub(super) struct Pipe {
        queue: voxel_sim::EventQueue<(usize, Packet)>,
        now: SimTime,
        /// How an arriving packet enters its endpoint.
        pub deliver: fn(&mut Connection, SimTime, Packet),
    }

    impl Pipe {
        pub fn new() -> Pipe {
            Pipe {
                queue: voxel_sim::EventQueue::new(),
                now: SimTime::ZERO,
                deliver: Connection::on_packet,
            }
        }

        /// One event-loop iteration: drain both endpoints' transmissions,
        /// then fire the earliest pending event (a delivery, either
        /// endpoint's timer). `fate(direction, packet)` is the packet's
        /// one-way delay, or `None` to drop it; direction 0 = a→b, 1 =
        /// b→a. False once nothing is pending up to `until`.
        pub fn step(
            &mut self,
            a: &mut Connection,
            b: &mut Connection,
            until: SimTime,
            mut fate: impl FnMut(usize, &Packet) -> Option<SimDuration>,
        ) -> bool {
            let now = self.now;
            loop {
                let mut progressed = false;
                for (dir, from) in [(0, &mut *a), (1, &mut *b)] {
                    while let Some(p) = from.poll_transmit(now) {
                        if let Some(delay) = fate(dir, &p) {
                            self.queue.schedule(now + delay, (1 - dir, p));
                        }
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            let next = [self.queue.peek_time(), a.next_timeout(), b.next_timeout()]
                .into_iter()
                .flatten()
                .min();
            let Some(now) = next.filter(|&t| t <= until) else {
                return false;
            };
            self.now = now;
            if self.queue.peek_time() == Some(now) {
                let (to, packet) = self.queue.pop().expect("peeked").event;
                (self.deliver)(if to == 0 { a } else { b }, now, packet);
            }
            // Timers are read after the delivery: an ACK can pull one into
            // the past, and it must fire before the clock moves on.
            for conn in [a, b] {
                if conn.next_timeout().is_some_and(|t| t <= now) {
                    conn.on_timeout(now);
                }
            }
            true
        }
    }

    /// Drive two connections over the pipe until idle (or `until`).
    /// `drop_filter(direction, pkt_num)` returns true to drop a packet.
    fn run_pipe(
        a: &mut Connection,
        b: &mut Connection,
        mut drop_filter: impl FnMut(usize, u64) -> bool,
        until: SimTime,
    ) {
        let mut pipe = Pipe::new();
        while pipe.step(a, b, until, |dir, p| {
            (!drop_filter(dir, p.pkt_num)).then_some(PIPE_DELAY)
        }) {}
    }

    fn read_all(conn: &mut Connection, id: StreamId) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(rs) = conn.recv_stream(id) {
            while let Some(b) = rs.read() {
                out.extend_from_slice(&b);
            }
        }
        out
    }

    #[test]
    fn reliable_transfer_without_loss() {
        let mut server = Connection::with_defaults(Role::Server);
        let mut client = Connection::with_defaults(Role::Client);
        let id = server.open_stream(Reliability::Reliable);
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 256) as u8).collect();
        server.send(id, &payload);
        server.finish(id);
        run_pipe(
            &mut server,
            &mut client,
            |_, _| false,
            SimTime::from_secs(30),
        );
        assert_eq!(read_all(&mut client, id), payload);
        assert!(client
            .recv_stream(id)
            .map(|s| s.is_complete())
            .unwrap_or(false));
        assert_eq!(server.stats().packets_lost, 0);
    }

    #[test]
    fn reliable_transfer_recovers_from_loss() {
        let mut server = Connection::with_defaults(Role::Server);
        let mut client = Connection::with_defaults(Role::Client);
        let id = server.open_stream(Reliability::Reliable);
        let payload: Vec<u8> = (0..80_000u32).map(|i| (i * 7 % 256) as u8).collect();
        server.send(id, &payload);
        server.finish(id);
        // Drop every 9th server packet.
        run_pipe(
            &mut server,
            &mut client,
            |dir, pn| dir == 0 && pn % 9 == 3,
            SimTime::from_secs(60),
        );
        assert_eq!(read_all(&mut client, id), payload);
        assert!(server.stats().packets_lost > 0);
        assert!(server.stats().bytes_retransmitted > 0);
    }

    #[test]
    fn unreliable_stream_reports_losses_and_never_retransmits() {
        let mut server = Connection::with_defaults(Role::Server);
        let mut client = Connection::with_defaults(Role::Client);
        let id = server.open_stream(Reliability::Unreliable);
        let payload = vec![0x5au8; 40_000];
        server.send(id, &payload);
        server.finish(id);
        run_pipe(
            &mut server,
            &mut client,
            |dir, pn| dir == 0 && (4..8).contains(&pn),
            SimTime::from_secs(60),
        );
        // Client got fin and knows the total length, with holes.
        let (received, missing, complete) = {
            let rs = client.recv_stream(id).expect("stream exists");
            (
                rs.bytes_received(),
                rs.missing_ranges(None),
                rs.is_complete(),
            )
        };
        assert_eq!(
            missing.iter().map(|(a, b)| b - a).sum::<u64>() + received,
            40_000
        );
        assert!(!complete);
        assert!(!missing.is_empty(), "holes must be visible");
        // Server emitted UnreliableLoss events covering the same bytes.
        let mut reported = 0u64;
        while let Some(e) = server.poll_event() {
            if let Event::UnreliableLoss { id: eid, ranges } = e {
                assert_eq!(eid, id);
                reported += ranges.iter().map(|(a, b)| b - a).sum::<u64>();
            }
        }
        assert!(reported > 0);
        assert_eq!(server.stats().bytes_retransmitted, 0);
    }

    #[test]
    fn stream_ids_have_role_parity() {
        let mut c = Connection::with_defaults(Role::Client);
        let mut s = Connection::with_defaults(Role::Server);
        assert_eq!(c.open_stream(Reliability::Reliable), StreamId(0));
        assert_eq!(c.open_stream(Reliability::Reliable), StreamId(2));
        assert_eq!(s.open_stream(Reliability::Reliable), StreamId(1));
        assert_eq!(s.open_stream(Reliability::Unreliable), StreamId(3));
    }

    #[test]
    fn receiver_emits_open_readable_finished_events() {
        let mut server = Connection::with_defaults(Role::Server);
        let mut client = Connection::with_defaults(Role::Client);
        let id = server.open_stream(Reliability::Reliable);
        server.send(id, b"hello");
        server.finish(id);
        run_pipe(
            &mut server,
            &mut client,
            |_, _| false,
            SimTime::from_secs(5),
        );
        let mut opened = false;
        let mut readable = false;
        let mut finished = false;
        while let Some(e) = client.poll_event() {
            match e {
                Event::StreamOpened(eid, Reliability::Reliable) if eid == id => opened = true,
                Event::StreamReadable(eid) if eid == id => readable = true,
                Event::StreamFinished(eid) if eid == id => finished = true,
                _ => {}
            }
        }
        assert!(opened && readable && finished);
    }

    #[test]
    fn congestion_window_limits_burst() {
        let mut server = Connection::with_defaults(Role::Server);
        let id = server.open_stream(Reliability::Reliable);
        server.send(id, &vec![0u8; 1_000_000]);
        server.finish(id);
        let mut sent_bytes = 0usize;
        while let Some(p) = server.poll_transmit(SimTime::ZERO) {
            sent_bytes += p.wire_size();
        }
        // Initial window is 10 MSS; the first burst can't exceed it (plus
        // one packet of slack for the final partial fit).
        assert!(
            sent_bytes <= 11 * MAX_PAYLOAD,
            "burst of {sent_bytes} exceeds initial window"
        );
    }

    #[test]
    fn pto_probe_fires_when_all_acks_are_lost() {
        let mut server = Connection::with_defaults(Role::Server);
        let mut client = Connection::with_defaults(Role::Client);
        let id = server.open_stream(Reliability::Reliable);
        server.send(id, b"probe me");
        server.finish(id);
        // Client never receives anything (all server packets dropped).
        run_pipe(
            &mut server,
            &mut client,
            |dir, _| dir == 0,
            SimTime::from_secs(3),
        );
        assert!(server.stats().ptos > 0, "PTO must fire");
        assert!(client.recv_stream(id).is_none());
    }

    #[test]
    fn close_propagates() {
        let mut server = Connection::with_defaults(Role::Server);
        let mut client = Connection::with_defaults(Role::Client);
        server.close(42);
        run_pipe(
            &mut server,
            &mut client,
            |_, _| false,
            SimTime::from_secs(2),
        );
        assert!(server.closed);
        assert!(client.closed);
        let mut saw = false;
        while let Some(e) = client.poll_event() {
            if e == (Event::Closed { code: 42 }) {
                saw = true;
            }
        }
        assert!(saw);
    }

    #[test]
    fn reliable_and_unreliable_multiplex_on_one_connection() {
        let mut server = Connection::with_defaults(Role::Server);
        let mut client = Connection::with_defaults(Role::Client);
        let rel = server.open_stream(Reliability::Reliable);
        let unrel = server.open_stream(Reliability::Unreliable);
        let rel_data = vec![1u8; 30_000];
        let unrel_data = vec![2u8; 30_000];
        server.send(rel, &rel_data);
        server.finish(rel);
        server.send(unrel, &unrel_data);
        server.finish(unrel);
        // The one test that crosses the pipe as encoded bytes, through the
        // decode front door.
        let mut pipe = Pipe::new();
        pipe.deliver = |conn, now, p| conn.on_datagram(now, p.encode());
        while pipe.step(
            &mut server,
            &mut client,
            SimTime::from_secs(60),
            |dir, p| (dir == 1 || p.pkt_num % 7 != 2).then_some(PIPE_DELAY),
        ) {}
        assert_eq!(client.stats().packets_malformed, 0);
        // Reliable stream must be perfect.
        assert_eq!(read_all(&mut client, rel), rel_data);
        // Unreliable stream has fin and possibly holes, never corruption.
        let rs = client.recv_stream(unrel).expect("stream");
        assert_eq!(rs.final_len(), Some(30_000));
        for (_, chunk) in rs.take_received() {
            assert!(chunk.iter().all(|&b| b == 2));
        }
    }

    #[test]
    fn malformed_datagrams_are_counted_and_dropped() {
        let mut client = Connection::with_defaults(Role::Client);
        let stream = Packet::new(
            1,
            vec![Frame::Stream {
                id: StreamId(1),
                offset: 0,
                fin: true,
                unreliable: false,
                data: Bytes::from_static(&[7; 100]),
            }],
        )
        .encode();
        let mut wrong_form = stream.to_vec();
        wrong_form[0] = 0x00;
        let malformed = [
            Bytes::new(),
            stream.slice(..stream.len() - 10), // truncated mid-frame
            stream.slice(..1),                 // truncated mid-header
            Bytes::from(wrong_form),
            Bytes::from_static(&[0x40, 0x05, 0x3f]), // unknown frame type
            Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef]),
        ];
        for (i, datagram) in malformed.into_iter().enumerate() {
            client.on_datagram(SimTime::from_millis(i as u64), datagram);
            assert_eq!(client.stats().packets_malformed, i as u64 + 1);
        }
        // Counted, and otherwise without effect.
        assert_eq!(client.stats().packets_received, 0);
        assert!(client.poll_event().is_none());
        assert!(client.next_timeout().is_none());
        assert!(client.poll_transmit(SimTime::from_secs(1)).is_none());
        // The well-formed original still gets in.
        client.on_datagram(SimTime::from_secs(1), stream);
        assert_eq!(client.stats().packets_received, 1);
        assert_eq!(client.stats().packets_malformed, 6);
        assert_eq!(read_all(&mut client, StreamId(1)), [7; 100]);
    }

    /// A body is a length: queueing 1 TiB of zeros neither allocates nor
    /// takes time proportional to it, and the first window polls at once.
    #[test]
    fn a_tebibyte_of_zeros_is_queued_in_constant_memory() {
        let mut server = Connection::with_defaults(Role::Server);
        let id = server.open_stream(Reliability::Unreliable);
        server.send_zeros(id, 1 << 40);
        server.finish(id);
        let mut next = 0u64;
        while let Some(p) = server.poll_transmit(SimTime::ZERO) {
            for f in p.frames {
                let Frame::Stream {
                    offset, data, fin, ..
                } = f
                else {
                    panic!("unexpected {f:?}");
                };
                assert_eq!(offset, next);
                assert!(!fin && !data.is_empty() && data.iter().all(|&b| b == 0));
                next += data.len() as u64;
            }
        }
        assert!(next >= 8 * MAX_PAYLOAD as u64, "first window: {next} B");
        assert!(server.check_invariants().is_ok());
    }

    #[test]
    fn srtt_converges_to_path_rtt() {
        let mut server = Connection::with_defaults(Role::Server);
        let mut client = Connection::with_defaults(Role::Client);
        let id = server.open_stream(Reliability::Reliable);
        server.send(id, &vec![0u8; 200_000]);
        server.finish(id);
        run_pipe(
            &mut server,
            &mut client,
            |_, _| false,
            SimTime::from_secs(30),
        );
        // Pipe delay 30 ms each way → RTT 60 ms (+ ack delay tolerance).
        let srtt = server.rtt.srtt().as_millis_f64();
        assert!(
            (55.0..90.0).contains(&srtt),
            "srtt {srtt} ms should be near 60 ms"
        );
    }
}

#[cfg(test)]
mod props {
    use super::tests::{Pipe, PIPE_DELAY};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Whatever pseudo-random pattern of packet drops the network
        /// applies, a reliable stream either fully reconstructs or the
        /// connection keeps retransmission state pending — it never
        /// delivers corrupted or reordered bytes.
        #[test]
        fn reliable_delivery_is_exact_under_random_loss(
            len in 1usize..60_000,
            drop_mod in 2u64..12,
            drop_phase in 0u64..12,
            seed in 0u64..500,
        ) {
            let mut server = Connection::with_defaults(Role::Server);
            let mut client = Connection::with_defaults(Role::Client);
            let id = server.open_stream(Reliability::Reliable);
            let payload: Vec<u8> = (0..len).map(|i| ((i as u64 * 31 + seed) % 251) as u8).collect();
            server.send(id, &payload);
            server.finish(id);

            // Deterministic drops on the downlink.
            let mut pipe = Pipe::new();
            while pipe.step(&mut server, &mut client, SimTime::from_secs(120), |dir, p| {
                (dir == 1 || (p.pkt_num + drop_phase) % drop_mod != 0).then_some(PIPE_DELAY)
            }) {}

            let rs = client.recv_stream(id).expect("stream opened");
            prop_assert!(rs.is_complete(), "stream did not complete");
            let mut got = Vec::new();
            while let Some(b) = rs.read() {
                got.extend_from_slice(&b);
            }
            prop_assert_eq!(got, payload);
        }

        /// `send_zeros(id, n)` is `send(id, &vec![0; n])`: on a lossy,
        /// reordering path the server emits the same packets (hence the
        /// same encodings), raises the same events and counts the same
        /// statistics, and the client ends up with the same bytes — for a
        /// bare body (`head_len` 0), a real head followed by a zero body
        /// (the chunk that straddles them), reliable retransmission of
        /// zero ranges, and unreliable loss reports.
        #[test]
        fn send_zeros_is_indistinguishable_from_sending_zeros(
            reliable in proptest::bool::ANY,
            head_len in 0usize..400,
            body_len in 1usize..60_000,
            drop_mod in 2u64..12,
            drop_phase in 0u64..12,
            jitter_ms in 0u64..40,
        ) {
            let head: Vec<u8> = (0..head_len).map(|i| (i % 251) as u8 + 1).collect();
            let run = |as_length: bool| {
                let mut server = Connection::with_defaults(Role::Server);
                let mut client = Connection::with_defaults(Role::Client);
                let id = server.open_stream(match reliable {
                    true => Reliability::Reliable,
                    false => Reliability::Unreliable,
                });
                server.send(id, &head);
                match as_length {
                    true => server.send_zeros(id, body_len as u64),
                    false => server.send(id, &vec![0; body_len]),
                }
                server.finish(id);
                let mut packets: Vec<Packet> = Vec::new();
                let mut events: Vec<Event> = Vec::new();
                let mut pipe = Pipe::new();
                while pipe.step(&mut server, &mut client, SimTime::from_secs(120), |dir, p| {
                    if dir == 0 {
                        packets.push(p.clone());
                    }
                    // Drops both ways; per-packet jitter reorders.
                    let jitter = SimDuration::from_millis(p.pkt_num * 7919 % (jitter_ms + 1));
                    ((p.pkt_num + drop_phase) % drop_mod != dir as u64).then_some(PIPE_DELAY + jitter)
                }) {
                    events.extend(std::iter::from_fn(|| server.poll_event()));
                }
                let rs = client.recv_stream(id).expect("stream opened");
                let received = (rs.received_ranges(), rs.final_len(), rs.take_received().collect::<Vec<_>>());
                (packets, events, server.stats(), client.stats(), received)
            };
            let (bytes, length) = (run(false), run(true));
            prop_assert_eq!(bytes, length);
        }

        /// `check_invariants` holds on both endpoints at every event-loop
        /// boundary, for arbitrary mixes of reliable/unreliable streams,
        /// send sizes, and bidirectional random loss. This is the same
        /// audit the `paranoid` feature runs inside the session loop.
        #[test]
        fn invariants_hold_under_random_event_sequences(
            streams in proptest::collection::vec((proptest::bool::ANY, 1usize..20_000), 1..6),
            drop_mod in 2u64..10,
            drop_phase in 0u64..10,
            drop_uplink in proptest::bool::ANY,
            cc_idx in 0usize..crate::cc::CC_KINDS.len(),
            seed in 0u64..500,
        ) {
            // The audit must hold under every congestion controller —
            // CUBIC, delay, and BBR all gate the same transmit path.
            let config = ConnectionConfig {
                cc: crate::cc::CC_KINDS[cc_idx],
                ..ConnectionConfig::default()
            };
            let mut server = Connection::new(Role::Server, config.clone());
            let mut client = Connection::new(Role::Client, config);
            for (i, &(reliable, len)) in streams.iter().enumerate() {
                let rel = if reliable { Reliability::Reliable } else { Reliability::Unreliable };
                let id = server.open_stream(rel);
                let payload: Vec<u8> =
                    (0..len).map(|j| ((j as u64 * 37 + i as u64 + seed) % 251) as u8).collect();
                server.send(id, &payload);
                server.finish(id);
            }

            let mut pipe = Pipe::new();
            while pipe.step(&mut server, &mut client, SimTime::from_secs(120), |dir, p| {
                let hit = match dir {
                    0 => 0,
                    _ if drop_uplink => 1,
                    _ => return Some(PIPE_DELAY),
                };
                ((p.pkt_num + drop_phase) % drop_mod != hit).then_some(PIPE_DELAY)
            }) {
                prop_assert!(server.check_invariants().is_ok(), "{:?}", server.check_invariants());
                prop_assert!(client.check_invariants().is_ok(), "{:?}", client.check_invariants());
            }
            prop_assert!(server.check_invariants().is_ok(), "{:?}", server.check_invariants());
            prop_assert!(client.check_invariants().is_ok(), "{:?}", client.check_invariants());
        }
    }
}
