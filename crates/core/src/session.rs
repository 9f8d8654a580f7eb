//! One playback session: client ⇄ wire ⇄ server, in virtual time.
//!
//! [`SessionCore`] is the repo's one session event loop. It owns both
//! QUIC\* endpoints, the server and client applications and a private
//! queue of packets in flight; each iteration drains application logic
//! and transmissions, then advances its clock to the earliest pending
//! event (a packet's arrival, a transport timer, or the player's 100 ms
//! wake). What lies between the endpoints is a [`Wire`]: [`Session`]
//! runs the core over its own emulated bottleneck path (plus an optional
//! seeded fault plane) straight to the cap, and a fleet member runs the
//! same core over an outbox onto the shared link, one barrier at a time.

use crate::client::{ClientApp, PlayerConfig, TransportMode};
use crate::metrics::{TransportStats, TrialResult};
use crate::server::{ServeNote, ServerApp};
use std::collections::VecDeque;
use std::sync::Arc;
use voxel_abr::Abr;
use voxel_media::qoe::QoeModel;
use voxel_media::video::Video;
use voxel_netem::{BottleneckPath, FaultPlane, PacketFate, PathConfig};
use voxel_prep::manifest::Manifest;
use voxel_quic::{CcKind, Connection, ConnectionConfig, Packet, Role};
use voxel_sim::SimTime;
use voxel_trace::{trace_event, Layer, Tracer};

/// The endpoint a packet in flight is bound for.
#[derive(Debug, Clone, Copy)]
enum To {
    Client = 0,
    Server = 1,
}

/// A session's packets in flight: one lane per direction, each in
/// (arrival, scheduling) order. A path delivers in the order it is fed,
/// so a packet almost always joins the back of its lane (a fault plane's
/// delay or duplicate can land one earlier). The next packet to arrive
/// is the earlier of the two fronts, a tie going to the one scheduled
/// first: the order a heap keyed by (time, sequence) pops.
#[derive(Default)]
struct InFlight {
    lanes: [VecDeque<(SimTime, u64, Packet)>; 2],
    /// Packets scheduled so far: the tie-breaker between the lanes.
    scheduled: u64,
}

impl InFlight {
    fn schedule(&mut self, at: SimTime, to: To, packet: Packet) {
        let seq = self.scheduled;
        self.scheduled += 1;
        let lane = &mut self.lanes[to as usize];
        if lane.back().is_none_or(|&(t, ..)| t <= at) {
            lane.push_back((at, seq, packet));
        } else {
            let i = lane.partition_point(|&(t, ..)| t <= at);
            lane.insert(i, (at, seq, packet));
        }
    }

    fn len(&self) -> usize {
        self.lanes[0].len() + self.lanes[1].len()
    }

    /// The lane whose front arrives first.
    fn first(&self) -> Option<usize> {
        match (self.lanes[0].front(), self.lanes[1].front()) {
            (Some(c), Some(s)) => Some(usize::from((s.0, s.1) < (c.0, c.1))),
            (Some(_), None) => Some(0),
            (None, Some(_)) => Some(1),
            (None, None) => None,
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.first().map(|lane| self.lanes[lane][0].0)
    }

    /// The next packet to arrive, if it arrives at `at`.
    fn pop_at(&mut self, at: SimTime) -> Option<(To, Packet)> {
        let lane = self.first()?;
        if self.lanes[lane][0].0 != at {
            return None;
        }
        let (_, _, packet) = self.lanes[lane].pop_front()?;
        Some((if lane == 0 { To::Client } else { To::Server }, packet))
    }
}

/// When a packet handed to a [`Wire`] reaches the other endpoint, for the
/// core to schedule on its private queue. The packet crosses as a value:
/// the wire is charged its `wire_size()`, nothing encodes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arrivals {
    /// Not the core's to deliver: dropped, or carried out of the session
    /// (a fleet's shared link hands it back through
    /// [`SessionCore::inject`]).
    None,
    /// Arrives once.
    One(SimTime, Packet),
    /// Arrives twice (duplication fault), in this order.
    Two(SimTime, SimTime, Packet),
}

/// What sits between a session's two endpoints.
pub trait Wire {
    /// The server sent `packet` towards the client at `now`.
    fn downlink(&mut self, now: SimTime, packet: Packet) -> Arrivals;
    /// The client sent `packet` towards the server at `now`.
    fn uplink(&mut self, now: SimTime, packet: Packet) -> Arrivals;
    /// The server resolved an object at `now` (only called when the
    /// [`ServerApp`] records serve notes, i.e. behind an edge tier).
    fn serve_note(&mut self, _now: SimTime, _note: ServeNote) {}
}

/// How a session left [`SessionCore::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advanced {
    /// Live; the earliest pending work is at this time, strictly after
    /// the barrier.
    Blocked(SimTime),
    /// The player finished at this time.
    Done(SimTime),
}

/// Both endpoints of one session, their applications and their private
/// queue of packets in flight: the session event loop, minus the wire
/// between them.
pub struct SessionCore {
    /// Discriminates this session's profiler spans and invariant reports
    /// (the fleet flow; 0 for a lone session).
    id: u32,
    /// Nothing is pumped before this time (staggered fleet starts).
    start: SimTime,
    /// The session's clock: the latest time an event fired at.
    now: SimTime,
    /// Packets in flight, by arrival time. Timers and the player's wake
    /// are fields, so every entry carries work.
    queue: InFlight,
    client_conn: Connection,
    server_conn: Connection,
    server: ServerApp,
    client: ClientApp,
    /// The player's wake: pending while it is after the clock, re-armed
    /// by the first pump at or after it.
    wake: SimTime,
    /// Whether an event has fired yet. Until one has, the wake armed at
    /// `start` is pending even if the first pump already ran at `start`
    /// (a session starting at zero), so it fires there once more.
    fired: bool,
    /// The time the last [`SessionCore::advance`] returned in
    /// [`Advanced::Blocked`], until a packet is injected: while it is set,
    /// nothing has changed since, so an earlier barrier has nothing to do.
    blocked: Option<SimTime>,
    iters: u64,
    tracer: Tracer,
}

impl SessionCore {
    /// An untraced session whose first player wake (the manifest fetch)
    /// fires at `start`.
    pub fn new(
        id: u32,
        start: SimTime,
        server: ServerApp,
        client: ClientApp,
        conn_config: ConnectionConfig,
    ) -> SessionCore {
        SessionCore {
            id,
            start,
            now: SimTime::ZERO,
            queue: InFlight::default(),
            client_conn: Connection::new(Role::Client, conn_config.clone()),
            server_conn: Connection::new(Role::Server, conn_config),
            server,
            client,
            wake: start,
            fired: false,
            blocked: Some(start),
            iters: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Install a tracer. One handle is shared by every layer: the client
    /// (ABR decisions, HTTP requests, player events), the server (HTTP
    /// responses), and the server-side QUIC\* connection — the data sender,
    /// whose cwnd/loss/PTO telemetry is the interesting one. Events from
    /// all layers interleave into a single per-session stream with one
    /// monotone sequence counter.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.server_conn.set_tracer(tracer.clone());
        self.server.set_tracer(tracer.clone());
        self.client.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Event-loop iterations spent so far.
    pub fn iters(&self) -> u64 {
        self.iters
    }

    /// Schedule a packet the wire carried out of the session for
    /// delivery to the client at `at` (never before the session's clock).
    pub fn inject(&mut self, at: SimTime, packet: Packet) {
        self.blocked = None;
        self.schedule_one(at, To::Client, packet);
    }

    /// Run the event loop up to (and including) `until`, handing every
    /// transmission to `wire`. A session blocked past `until` with nothing
    /// injected since returns at once, without an iteration.
    pub fn advance(&mut self, until: SimTime, wire: &mut impl Wire) -> Advanced {
        if let Some(next) = self.blocked.filter(|&t| t > until) {
            #[cfg(feature = "paranoid")]
            {
                let (c, s) = (
                    self.client_conn.next_timeout(),
                    self.server_conn.next_timeout(),
                );
                let event = self.next_of(c, s);
                if event != next {
                    audit_failed(format!(
                        "session {} blocked at {next:?}, but its next event is at {event:?}",
                        self.id
                    ));
                }
            }
            return Advanced::Blocked(next);
        }
        if self.iters == 0 {
            let cfg = self.client.config();
            trace_event!(
                self.tracer,
                SimTime::ZERO,
                Layer::Session,
                "trial_start",
                "buffer_segments" = cfg.buffer_capacity_segments,
                "transport" = match cfg.transport {
                    TransportMode::Reliable => "reliable",
                    TransportMode::Split => "split",
                },
                "selective_retx" = cfg.selective_retx,
                "live" = cfg.live,
            );
        }
        loop {
            let now = self.now;
            self.iters += 1;
            // Profiler sampling gate: free unless a voxel-obs profiler is
            // installed on this thread, and even then only 1-in-N
            // iterations take clock readings (which never touch sim state).
            voxel_obs::arm(self.iters);
            let _step = voxel_obs::span!("session.step", self.id);
            voxel_obs::observe("obs.queue_depth", self.queue.len() as u64);

            if now >= self.start {
                // Application pumps.
                {
                    let _pump = voxel_obs::span!("session.pump");
                    self.server.handle(now, &mut self.server_conn);
                    for note in self.server.take_serve_notes() {
                        wire.serve_note(now, note);
                    }
                    self.client.on_wake(now, &mut self.client_conn);
                }
                #[cfg(feature = "paranoid")]
                if let Err(e) = self.client.check_invariants(now) {
                    audit_failed(format!(
                        "session {} player invariant violated at {now:?}: {e}",
                        self.id
                    ));
                }
                if self.client.is_done() {
                    return Advanced::Done(now);
                }

                // Drain transmissions. One pass: neither endpoint's
                // `poll_transmit` feeds the other at the same instant.
                let _transmit = voxel_obs::span!("session.transmit");
                while let Some(p) = self.server_conn.poll_transmit(now) {
                    self.audit_codec(now, &p);
                    let arrivals = wire.downlink(now, p);
                    self.schedule(arrivals, To::Client);
                }
                while let Some(p) = self.client_conn.poll_transmit(now) {
                    self.audit_codec(now, &p);
                    let arrivals = wire.uplink(now, p);
                    self.schedule(arrivals, To::Server);
                }
                drop(_transmit);

                // Keep the player's wake armed ~100 ms out.
                if self.wake <= now {
                    self.wake = self.client.next_wake(now);
                }
            }

            let timer_c = self.client_conn.next_timeout();
            let timer_s = self.server_conn.next_timeout();
            let next = self.next_of(timer_c, timer_s);
            if next > until {
                self.blocked = Some(next);
                return Advanced::Blocked(next);
            }

            // Fire everything due at `next`.
            let _deliver = voxel_obs::span!("session.deliver");
            if timer_c.is_some_and(|t| t <= next) {
                self.client_conn.on_timeout(next);
            }
            if timer_s.is_some_and(|t| t <= next) {
                self.server_conn.on_timeout(next);
            }
            while let Some((to, p)) = self.queue.pop_at(next) {
                match to {
                    To::Client => self.client_conn.on_packet(next, p),
                    To::Server => self.server_conn.on_packet(next, p),
                }
            }
            // A timer can have fallen due before the clock (an ACK pulls
            // the loss timer back): it fires late, and the clock stays.
            self.now = self.now.max(next);
            self.fired = true;
        }
    }

    /// The next event: a packet, a transport timer or the player's wake,
    /// which is always pending: it is after the clock once the pump has
    /// run, and at `start` before.
    fn next_of(&self, timer_c: Option<SimTime>, timer_s: Option<SimTime>) -> SimTime {
        let wake = if self.fired { self.wake } else { self.start };
        [self.queue.peek_time(), timer_c, timer_s]
            .into_iter()
            .flatten()
            .fold(wake, SimTime::min)
    }

    /// Schedule a transmitted packet's arrivals.
    fn schedule(&mut self, arrivals: Arrivals, to: To) {
        match arrivals {
            Arrivals::None => {}
            Arrivals::One(at, packet) => self.schedule_one(at, to, packet),
            Arrivals::Two(first, second, packet) => {
                self.schedule_one(first, to, packet.clone());
                self.schedule_one(second, to, packet);
            }
        }
    }

    /// Schedule one arrival. An arrival before the clock would be a
    /// wire's bug: it is delivered at once rather than in the past.
    fn schedule_one(&mut self, at: SimTime, to: To, packet: Packet) {
        debug_assert!(at >= self.now, "arrival in the past: {at} < {}", self.now);
        self.queue.schedule(at.max(self.now), to, packet);
    }

    /// Packets cross the wire as values, so nothing on the packet path
    /// runs the codec; the `paranoid` feature round-trips every
    /// transmitted packet through it instead, and checks the size the
    /// wire is charged against the encoding's.
    #[inline]
    #[cfg_attr(
        not(feature = "paranoid"),
        expect(unused_variables, reason = "only the paranoid build audits the packet")
    )]
    fn audit_codec(&self, now: SimTime, packet: &Packet) {
        #[cfg(feature = "paranoid")]
        {
            let encoded = packet.encode();
            let size_ok = packet.wire_size() == encoded.len() + voxel_quic::packet::PACKET_OVERHEAD;
            if !size_ok || Packet::decode(encoded).as_ref() != Some(packet) {
                audit_failed(format!(
                    "session {} packet of {} bytes does not survive encode/decode at \
                     {now:?} (wire_size matches: {size_ok})",
                    self.id,
                    packet.wire_size()
                ));
            }
        }
    }

    /// Close out the session at `at` (where the player finished, or the
    /// cap it is frozen at): emit the end-of-session event, snapshot the
    /// metrics registry, attach transport statistics, and flush the sink.
    pub fn finish(self, at: SimTime) -> TrialResult {
        let stats = self.server_conn.stats();
        let client_stats = self.client_conn.stats();
        trace_event!(
            self.tracer,
            at,
            Layer::Session,
            "trial_end",
            "packets_sent" = stats.packets_sent,
            "packets_lost" = stats.packets_lost,
            "loss_events" = stats.loss_events,
            "ptos" = stats.ptos,
            "bytes_sent" = stats.bytes_sent,
        );
        let mean = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        let mut r = self.client.into_result(at);
        r.transport = TransportStats {
            packets_sent: stats.packets_sent,
            packets_lost: stats.packets_lost,
            loss_events: stats.loss_events,
            ptos: stats.ptos,
            bytes_sent: stats.bytes_sent,
            bytes_retransmitted: stats.bytes_retransmitted,
            mean_cwnd_bytes: mean(stats.cwnd_sum_bytes, stats.packets_sent),
            mean_srtt_ms: mean(stats.srtt_sum_us, stats.srtt_samples) / 1e3,
            client_packets_received: client_stats.packets_received,
            client_packets_duplicate: client_stats.packets_duplicate,
            client_packets_reordered: client_stats.packets_reordered,
        };
        r.metrics = self.tracer.metrics_snapshot(at);
        self.tracer.flush();
        r
    }
}

/// A `paranoid` audit failed: print the flight-recorder dump, if a
/// recorder is installed, and panic.
#[cfg(feature = "paranoid")]
#[expect(
    clippy::panic,
    reason = "the paranoid layer is intentionally fatal on corruption"
)]
fn audit_failed(what: String) -> ! {
    if let Some(dump) = voxel_obs::dump_current(&what) {
        eprintln!("{dump}");
    }
    panic!("{what}");
}

/// The private wire of a lone [`Session`]: an emulated bottleneck path,
/// optionally behind a seeded packet-fault plane.
struct PrivateWire {
    path: BottleneckPath,
    /// Testkit scenarios; `None` = clean path.
    faults: Option<FaultPlane>,
}

impl PrivateWire {
    /// The plane's verdict on the next packet.
    fn fate(&mut self, now: SimTime) -> PacketFate {
        match self.faults.as_mut() {
            Some(plane) => plane.next_fate(now),
            None => PacketFate::Deliver,
        }
    }
}

/// Apply a fate to a packet's fault-free arrival time.
fn arrivals(fate: PacketFate, arrival: SimTime, packet: Packet) -> Arrivals {
    match fate {
        PacketFate::Deliver => Arrivals::One(arrival, packet),
        PacketFate::Drop => Arrivals::None,
        PacketFate::Delay(extra) => Arrivals::One(arrival + extra, packet),
        PacketFate::Duplicate(lag) => Arrivals::Two(arrival, arrival + lag, packet),
    }
}

impl Wire for PrivateWire {
    fn downlink(&mut self, now: SimTime, packet: Packet) -> Arrivals {
        // The fate is drawn before the path sees the packet — also when
        // droptail then drops it — so the seeded draw sequence depends on
        // nothing but the packet sequence.
        let fate = self.fate(now);
        match self.path.send_downlink(now, packet.wire_size()) {
            Some(arrival) => arrivals(fate, arrival, packet),
            None => Arrivals::None,
        }
    }

    fn uplink(&mut self, now: SimTime, packet: Packet) -> Arrivals {
        let fate = self.fate(now);
        arrivals(fate, self.path.send_uplink(now), packet)
    }
}

/// One streaming trial: a [`SessionCore`] over a private bottleneck path.
pub struct Session {
    core: SessionCore,
    wire: PrivateWire,
    /// Hard cap on simulated time (safety net; never reached in practice).
    cap: SimTime,
}

impl Session {
    /// Assemble a session.
    pub fn new(
        path_config: PathConfig,
        manifest: Arc<Manifest>,
        video: Arc<Video>,
        qoe: QoeModel,
        abr: Box<dyn Abr>,
        player: PlayerConfig,
    ) -> Session {
        Self::with_cc(
            path_config,
            manifest,
            video,
            qoe,
            abr,
            player,
            CcKind::Cubic,
        )
    }

    /// Assemble a session with an explicit congestion controller (the
    /// Appendix B delay-based-CC ablation).
    pub fn with_cc(
        path_config: PathConfig,
        manifest: Arc<Manifest>,
        video: Arc<Video>,
        qoe: QoeModel,
        abr: Box<dyn Abr>,
        player: PlayerConfig,
        cc: CcKind,
    ) -> Session {
        let duration = video.duration_s();
        let client = ClientApp::new(player, manifest.clone(), video, qoe, abr);
        let conn_config = ConnectionConfig {
            cc,
            ..ConnectionConfig::default()
        };
        Session {
            core: SessionCore::new(
                0,
                SimTime::ZERO,
                ServerApp::new(manifest, true),
                client,
                conn_config,
            ),
            wire: PrivateWire {
                path: BottleneckPath::new(path_config),
                faults: None,
            },
            cap: SimTime::from_secs_f64(duration * 5.0 + 120.0),
        }
    }

    /// Make the server VOXEL-unaware (backward-compatibility experiments).
    pub fn with_voxel_unaware_server(mut self) -> Session {
        self.core.server.voxel_aware = false;
        self
    }

    /// Install a seeded fault plane: every packet handed to the path (both
    /// directions) is run through it, so testkit scenarios can inject loss
    /// bursts, reordering, and duplication deterministically (DESIGN.md
    /// §11). Drops model post-bottleneck (air-interface) loss — the packet
    /// still consumed queue space and service time.
    pub(crate) fn with_faults(mut self, plane: FaultPlane) -> Session {
        self.wire.faults = Some(plane);
        self
    }

    /// Install a tracer on every layer (see [`SessionCore::set_tracer`]).
    ///
    /// Crate-private: external callers route tracing through the one
    /// [`crate::experiment::Tracing`] entry point (use `Tracing::custom`
    /// for an explicit tracer).
    pub(crate) fn with_tracer(mut self, tracer: Tracer) -> Session {
        self.core.set_tracer(tracer);
        self
    }

    /// Run to completion — or to the safety cap, freezing what is there —
    /// and produce the trial result.
    pub fn run(mut self) -> TrialResult {
        let at = match self.core.advance(self.cap, &mut self.wire) {
            Advanced::Done(at) => at,
            Advanced::Blocked(_) => self.cap,
        };
        self.core.finish(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TransportMode;
    use voxel_abr::{AbrStar, Bola};
    use voxel_media::content::VideoId;
    use voxel_media::ladder::QualityLevel;
    use voxel_netem::{BandwidthTrace, FaultKind};
    use voxel_quic::StreamId;
    use voxel_sim::SimDuration;
    use voxel_trace::{JsonlSink, SharedBuf};

    fn setup(levels: &[QualityLevel]) -> (Arc<Manifest>, Arc<Video>, QoeModel) {
        let video = Video::generate(VideoId::Bbb);
        let qoe = QoeModel::default();
        let manifest = Arc::new(Manifest::prepare_levels(&video, &qoe, levels));
        (manifest, Arc::new(video), qoe)
    }

    #[test]
    fn bola_over_fat_pipe_plays_without_stalls() {
        let (manifest, video, qoe) = setup(&[]);
        let path = PathConfig::new(BandwidthTrace::constant(50.0, 600), 64);
        let session = Session::new(
            path,
            manifest,
            video,
            qoe,
            Box::new(Bola::new()),
            PlayerConfig::new(7, TransportMode::Reliable),
        );
        let r = session.run();
        assert_eq!(r.segment_scores.len(), 75);
        assert!(r.buf_ratio_pct() < 1.0, "bufRatio {}", r.buf_ratio_pct());
        // 50 Mbps is plenty for Q12: the mean delivered bitrate should be
        // high.
        assert!(
            r.avg_bitrate_kbps() > 5_000.0,
            "bitrate {}",
            r.avg_bitrate_kbps()
        );
        assert!(r.avg_ssim() > 0.98, "ssim {}", r.avg_ssim());
    }

    #[test]
    fn voxel_over_fat_pipe_is_clean_too() {
        let (manifest, video, qoe) = setup(&[QualityLevel::MAX]);
        let path = PathConfig::new(BandwidthTrace::constant(50.0, 600), 64);
        let session = Session::new(
            path,
            manifest,
            video,
            qoe,
            Box::new(AbrStar::default()),
            PlayerConfig::new(7, TransportMode::Split),
        );
        let r = session.run();
        assert_eq!(r.segment_scores.len(), 75);
        assert!(r.buf_ratio_pct() < 1.0, "bufRatio {}", r.buf_ratio_pct());
        assert!(r.avg_ssim() > 0.97, "ssim {}", r.avg_ssim());
    }

    #[test]
    fn starvation_produces_stalls_not_hangs() {
        let (manifest, video, qoe) = setup(&[]);
        // 0.1 Mbps cannot sustain even Q0 (0.16 Mbps average).
        let path = PathConfig::new(BandwidthTrace::constant(0.1, 3600), 32);
        let session = Session::new(
            path,
            manifest,
            video,
            qoe,
            Box::new(Bola::new()),
            PlayerConfig::new(3, TransportMode::Reliable),
        );
        let r = session.run();
        assert!(r.buf_ratio_pct() > 5.0, "bufRatio {}", r.buf_ratio_pct());
    }

    /// Drive a session in fixed `step`-sized barriers up to its cap.
    fn run_stepped(mut s: Session, step: SimDuration) -> TrialResult {
        let mut until = SimTime::ZERO;
        loop {
            until = (until + step).min(s.cap);
            match s.core.advance(until, &mut s.wire) {
                Advanced::Done(at) => return s.core.finish(at),
                Advanced::Blocked(_) if until == s.cap => return s.core.finish(until),
                Advanced::Blocked(_) => {}
            }
        }
    }

    /// A session blocked past the barrier returns at once, without an
    /// iteration, until a packet is injected.
    #[test]
    fn a_blocked_session_waits_for_an_injected_packet() {
        let (manifest, video, qoe) = setup(&[]);
        let path = PathConfig::new(BandwidthTrace::constant(8.0, 60), 32);
        let player = PlayerConfig::new(3, TransportMode::Reliable);
        let mut s = Session::new(path, manifest, video, qoe, Box::new(Bola::new()), player);
        let until = SimTime::from_millis(50);
        let first = s.core.advance(until, &mut s.wire);
        assert!(matches!(first, Advanced::Blocked(t) if t > until));
        let iters = s.core.iters();
        assert_eq!(s.core.advance(until, &mut s.wire), first);
        assert_eq!(s.core.iters(), iters);
        let ping = Packet::new(0, vec![voxel_quic::Frame::Ping]);
        s.core.inject(until, ping);
        s.core.advance(until, &mut s.wire);
        assert!(s.core.iters() > iters);
    }

    /// `advance` is barrier-invariant: where the caller's barriers fall
    /// must not change what a session does — the property that lets a
    /// fleet member and a lone `Session` share one event loop.
    fn assert_barrier_invariant(mbps: f64, faults: Vec<FaultKind>) -> TrialResult {
        let (manifest, video, qoe) = setup(&[QualityLevel::MAX]);
        let traced = || {
            let buf = SharedBuf::new();
            let sink = JsonlSink::to_writer(Box::new(buf.clone()));
            let session = Session::new(
                PathConfig::new(BandwidthTrace::constant(mbps, 900), 32),
                manifest.clone(),
                video.clone(),
                qoe.clone(),
                Box::new(AbrStar::default()),
                PlayerConfig::new(3, TransportMode::Split),
            )
            .with_faults(FaultPlane::new(7, faults.clone()))
            .with_tracer(Tracer::new(1, Box::new(sink)));
            (session, buf)
        };
        let (session, timeline) = traced();
        let whole = session.run();
        assert!(whole.transport.packets_sent > 1_000);
        for step_ms in [1, 30, 1_000] {
            let (session, stepped_timeline) = traced();
            let stepped = run_stepped(session, SimDuration::from_millis(step_ms));
            assert!(
                stepped_timeline.contents() == timeline.contents(),
                "{step_ms} ms barriers changed the timeline"
            );
            assert_eq!(stepped.transport, whole.transport, "{step_ms} ms");
            assert_eq!(stepped.stall_s, whole.stall_s, "{step_ms} ms");
            assert_eq!(stepped.segment_scores, whole.segment_scores, "{step_ms} ms");
        }
        whole
    }

    #[test]
    fn barriers_do_not_change_a_clean_session() {
        assert_barrier_invariant(8.0, Vec::new());
    }

    #[test]
    fn barriers_do_not_change_a_starved_session() {
        assert_barrier_invariant(1.5, Vec::new());
    }

    #[test]
    fn barriers_do_not_change_a_reordered_duplicated_session() {
        let (start_s, len_s, extra_ms, prob) = (10.0, 120.0, 25, 0.05);
        let r = assert_barrier_invariant(
            8.0,
            vec![
                FaultKind::Reorder {
                    start_s,
                    len_s,
                    extra_ms,
                    prob,
                },
                FaultKind::Duplicate {
                    start_s,
                    len_s,
                    extra_ms,
                    prob,
                },
            ],
        );
        assert!(r.transport.client_packets_reordered > 0);
        assert!(r.transport.client_packets_duplicate > 0);
    }

    /// The receive streams `conn` still holds, probed through the public
    /// lookup over every id a session reaches. A probe retires the stream
    /// probed before it if that one is complete and drained, as any other
    /// lookup would.
    fn live_recv_streams(conn: &mut Connection) -> Vec<(StreamId, bool)> {
        (0..4096)
            .filter_map(|id| {
                let rs = conn.recv_stream(StreamId(id))?;
                Some((StreamId(id), rs.is_complete()))
            })
            .collect()
    }

    /// Run `s` to the end; the inspection sees both connections as the
    /// player left them, before the result is taken.
    fn run_inspected(
        mut s: Session,
        inspect: impl FnOnce(&mut Connection, &mut Connection),
    ) -> TrialResult {
        let Advanced::Done(at) = s.core.advance(s.cap, &mut s.wire) else {
            panic!("the session hit its cap");
        };
        inspect(&mut s.core.client_conn, &mut s.core.server_conn);
        s.core.finish(at)
    }

    /// A session's receive tables hold its window, not its history: after
    /// a 75-segment reliable session on a constant link (over 150 streams
    /// each way, every loss retransmitted) the client holds only the
    /// streams of fetches it abandoned, which never finish, plus at most
    /// the one it looked at last; the server holds none of the requests
    /// it has read.
    #[test]
    fn receive_tables_hold_only_the_streams_still_open() {
        let (manifest, video, qoe) = setup(&[]);
        let session = Session::new(
            PathConfig::new(BandwidthTrace::constant(50.0, 600), 64),
            manifest,
            video,
            qoe,
            Box::new(Bola::new()),
            PlayerConfig::new(3, TransportMode::Reliable),
        );
        let mut held = (Vec::new(), Vec::new());
        let r = run_inspected(session, |client, server| {
            held = (live_recv_streams(client), live_recv_streams(server));
        });
        assert_eq!(r.segment_scores.len(), 75);
        assert!(r.transport.client_packets_received > 100_000);
        let (client, server) = held;
        let abandoned = 2 * (r.restarts + r.kept_partials) as usize;
        assert!(client.len() <= abandoned + 1, "client holds {client:?}");
        assert!(client.iter().all(|&(_, complete)| !complete), "{client:?}");
        assert!(server.len() <= 1, "server holds {server:?}");
    }

    /// On a lossy cellular trace (the `ToS:VOXEL:tmobile:buf1` golden's
    /// shape), the streams the client keeps are the unfinished ones:
    /// unreliable bodies with holes and abandoned fetches. None is both
    /// complete and drained.
    #[test]
    fn only_unfinished_streams_stay_on_a_lossy_path() {
        let video = Video::generate(VideoId::Tos);
        let qoe = QoeModel::default();
        let manifest = Arc::new(Manifest::prepare(&video, &qoe));
        let mut player = PlayerConfig::new(1, TransportMode::Split);
        player.selective_retx = true;
        let session = Session::new(
            PathConfig::new(voxel_netem::trace::generators::tmobile_lte(2021, 300), 32),
            manifest,
            Arc::new(video),
            qoe,
            Box::new(AbrStar::default()),
            player,
        );
        let mut held = (Vec::new(), Vec::new());
        let r = run_inspected(session, |client, server| {
            held = (live_recv_streams(client), live_recv_streams(server));
        });
        assert!(r.transport.packets_lost > 0, "the path loses packets");
        let (client, server) = held;
        assert!(!client.is_empty(), "holed bodies stay");
        for (id, complete) in client.iter().chain(&server) {
            assert!(!complete, "{id} is complete and drained but kept");
        }
    }
}

#[cfg(test)]
mod stall_accounting_tests {
    use super::*;
    use crate::client::TransportMode;
    use voxel_abr::ThroughputAbr;
    use voxel_media::content::VideoId;
    use voxel_media::ladder::QualityLevel;
    use voxel_netem::BandwidthTrace;

    /// Engineer exactly one bandwidth blackout mid-session and verify the
    /// stall accounting brackets it: the playback gap must be close to the
    /// blackout length minus the buffered content.
    #[test]
    fn one_blackout_produces_a_bounded_stall() {
        let video = Video::generate(VideoId::Bbb);
        let qoe = QoeModel::default();
        let manifest = Arc::new(Manifest::prepare_levels(&video, &qoe, &[]));
        // 8 Mbps, with a 12-second blackout starting at t = 60 s.
        let mut rates = vec![8.0; 600];
        for r in rates.iter_mut().skip(60).take(12) {
            *r = 0.05;
        }
        let trace = BandwidthTrace::new("blackout", rates);
        let session = Session::new(
            PathConfig::new(trace, 32),
            manifest,
            Arc::new(video),
            qoe,
            Box::new(ThroughputAbr::default()),
            PlayerConfig::new(2, TransportMode::Reliable),
        );
        let r = session.run();
        assert_eq!(r.segment_scores.len(), 75);
        // The blackout is 12 s against at most 8 s of buffer: at least a
        // couple of seconds must register, and never more than the
        // blackout itself plus one segment of slack.
        assert!(
            r.stall_s >= 2.0,
            "expected a visible stall, got {}",
            r.stall_s
        );
        assert!(
            r.stall_s <= 16.0,
            "stall {} exceeds the blackout + slack",
            r.stall_s
        );
    }

    /// The safety cap fires (and still yields a well-formed result) when
    /// the network is a trickle that can never finish the session.
    #[test]
    fn cap_yields_partial_but_wellformed_result() {
        let video = Video::generate(VideoId::Bbb);
        let qoe = QoeModel::default();
        let manifest = Arc::new(Manifest::prepare_levels(&video, &qoe, &[]));
        let trace = BandwidthTrace::constant(0.05, 3600);
        let session = Session::new(
            PathConfig::new(trace, 32),
            manifest,
            Arc::new(video),
            qoe,
            Box::new(ThroughputAbr::default()),
            PlayerConfig::new(2, TransportMode::Reliable),
        );
        let r = session.run();
        // Whether the cap fired or the trickle crawled through, the result
        // must be well-formed (every record frozen and scored) and the
        // session must register severe rebuffering.
        assert!(r.segment_scores.len() <= 75);
        assert_eq!(r.segment_kbps.len(), r.segment_scores.len());
        assert!(
            r.buf_ratio_pct() > 50.0,
            "a 0.05 Mbps link must stall heavily, got {}%",
            r.buf_ratio_pct()
        );
    }

    /// Quality levels requested monotonically follow a rising staircase
    /// trace (sanity of the whole ABR/throughput feedback loop).
    #[test]
    fn staircase_trace_raises_delivered_quality() {
        let video = Video::generate(VideoId::Tos);
        let qoe = QoeModel::default();
        let manifest = Arc::new(Manifest::prepare_levels(&video, &qoe, &[]));
        let mut rates = Vec::new();
        for step in 0..5 {
            rates.extend(std::iter::repeat_n(1.0 + step as f64 * 3.0, 60));
        }
        let trace = BandwidthTrace::new("staircase", rates);
        let session = Session::new(
            PathConfig::new(trace, 32),
            manifest,
            Arc::new(video),
            qoe,
            Box::new(ThroughputAbr::default()),
            PlayerConfig::new(3, TransportMode::Reliable),
        );
        let r = session.run();
        assert_eq!(r.segment_scores.len(), 75);
        // Mean delivered bitrate in the last fifth ≫ first fifth.
        let first: f64 = r.segment_kbps[..15].iter().sum::<f64>() / 15.0;
        let last: f64 = r.segment_kbps[60..].iter().sum::<f64>() / 15.0;
        assert!(
            last > first * 2.0,
            "bitrate did not climb the staircase: {first} -> {last}"
        );
        let _ = QualityLevel::MAX; // staircase is about delivered bits
    }
}
