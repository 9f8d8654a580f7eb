//! One playback session: client ⇄ wire ⇄ server, in virtual time.
//!
//! [`SessionCore`] is the repo's one session event loop. It owns both
//! QUIC\* endpoints, the server and client applications and a private
//! event queue; each iteration drains application logic and
//! transmissions, then advances virtual time to the earliest pending
//! event (datagram delivery, transport timer, or the player's 100 ms
//! tick). What lies between the endpoints is a [`Wire`]: [`Session`]
//! runs the core over its own emulated bottleneck path (plus an optional
//! seeded fault plane) straight to the cap, and a fleet member runs the
//! same core over an outbox onto the shared link, one barrier at a time.

use crate::client::{ClientApp, PlayerConfig, TransportMode};
use crate::metrics::{TransportStats, TrialResult};
use crate::server::{ServeNote, ServerApp};
use std::sync::Arc;
use voxel_abr::Abr;
use voxel_media::qoe::QoeModel;
use voxel_media::video::Video;
use voxel_netem::{BottleneckPath, FaultPlane, PacketFate, PathConfig};
use voxel_prep::manifest::Manifest;
use voxel_quic::{CcKind, Connection, ConnectionConfig, Packet, Role};
use voxel_sim::{EventQueue, SimDuration, SimTime};
use voxel_trace::{trace_event, Layer, Tracer};

/// Events of the session loop.
enum Ev {
    /// Packet arriving at the client.
    ToClient(Packet),
    /// Packet arriving at the server.
    ToServer(Packet),
    /// Player tick (progress checks, playback deadlines; also the no-op
    /// clock bump).
    Tick,
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
/// event queue: the session event loop, minus the wire between them.
pub struct SessionCore {
    /// Discriminates this session's profiler spans and invariant reports
    /// (the fleet flow; 0 for a lone session).
    id: u32,
    /// Nothing is pumped before this time (staggered fleet starts).
    start: SimTime,
    queue: EventQueue<Ev>,
    client_conn: Connection,
    server_conn: Connection,
    server: ServerApp,
    client: ClientApp,
    last_tick: SimTime,
    iters: u64,
    tracer: Tracer,
}

impl SessionCore {
    /// An untraced session whose first player tick (the manifest fetch)
    /// fires at `start`.
    pub fn new(
        id: u32,
        start: SimTime,
        server: ServerApp,
        client: ClientApp,
        conn_config: ConnectionConfig,
    ) -> SessionCore {
        let mut queue = EventQueue::with_capacity(32);
        queue.schedule(start, Ev::Tick);
        SessionCore {
            id,
            start,
            queue,
            client_conn: Connection::new(Role::Client, conn_config.clone()),
            server_conn: Connection::new(Role::Server, conn_config),
            server,
            client,
            last_tick: start,
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
        self.queue.schedule(at, Ev::ToClient(packet));
    }

    /// Run the event loop up to (and including) `until`, handing every
    /// transmission to `wire`.
    pub fn advance(&mut self, until: SimTime, wire: &mut impl Wire) -> Advanced {
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
            let now = self.queue.now();
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
                    self.schedule(arrivals, Ev::ToClient);
                }
                while let Some(p) = self.client_conn.poll_transmit(now) {
                    self.audit_codec(now, &p);
                    let arrivals = wire.uplink(now, p);
                    self.schedule(arrivals, Ev::ToServer);
                }
                drop(_transmit);

                // Keep exactly one player tick armed ~100 ms out.
                if self.last_tick <= now {
                    if let Some(wake) = self.client.next_wake(now) {
                        self.last_tick = wake;
                        self.queue.schedule(wake, Ev::Tick);
                    }
                }
            }

            // Next event: queue, or a transport timer.
            let timer_c = self.client_conn.next_timeout();
            let timer_s = self.server_conn.next_timeout();
            let next = [self.queue.peek_time(), timer_c, timer_s]
                .into_iter()
                .flatten()
                .min();
            let Some(next) = next else {
                // Nothing pending at all: force a tick so the player can
                // re-evaluate (e.g. waiting out a buffer-full period).
                self.queue
                    .schedule(now + SimDuration::from_millis(100), Ev::Tick);
                continue;
            };
            if next > until {
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
            while self.queue.peek_time() == Some(next) {
                let Some(ev) = self.queue.pop() else {
                    break;
                };
                match ev.event {
                    Ev::ToClient(p) => self.client_conn.on_packet(next, p),
                    Ev::ToServer(p) => self.server_conn.on_packet(next, p),
                    Ev::Tick => {}
                }
            }
            // If only timers fired (queue still in the past), bump the
            // queue's clock with a no-op event.
            if self.queue.now() < next {
                self.queue.schedule(next, Ev::Tick);
                self.queue.pop();
            }
        }
    }

    /// Schedule a transmitted packet's arrivals.
    fn schedule(&mut self, arrivals: Arrivals, ev: impl Fn(Packet) -> Ev) {
        match arrivals {
            Arrivals::None => {}
            Arrivals::One(at, packet) => self.queue.schedule(at, ev(packet)),
            Arrivals::Two(first, second, packet) => {
                self.queue.schedule(first, ev(packet.clone()));
                self.queue.schedule(second, ev(packet));
            }
        }
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
                    "session {} packet {} does not survive encode/decode at {now:?} \
                     (wire_size matches: {size_ok})",
                    self.id, packet.pkt_num
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
    pub fn with_faults(mut self, plane: FaultPlane) -> Session {
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
