//! Sharded session execution for the conservative-parallel fleet runtime.
//!
//! The fleet loop in [`crate::run`] is round-based: every session owns a
//! private event queue and advances independently up to a global barrier,
//! interacting with the rest of the fleet **only** through the shared
//! link, which the coordinator pumps single-threaded between rounds (see
//! DESIGN.md §14 for the protocol and its lookahead argument). This
//! module holds the pieces that live on the session side of that split:
//!
//! - [`SessionCell`]: one fleet member — a [`SessionCore`] (the same
//!   event loop a lone `voxel_core::Session` runs) advanced barrier by
//!   barrier over an [`Outbox`] wire onto the shared link.
//! - [`shard_round`] / [`shard_freeze`]: the per-shard round step shared
//!   verbatim by the inline (workers = 1) and threaded paths, so every
//!   worker count runs the *same algorithm* — only the thread dispatch
//!   differs, which is what makes timelines byte-identical at any `w`.
//! - [`Lane`]: a shard handle — either the coordinator's own slice of
//!   sessions or a channel pair to a worker thread.
//!
//! Every round advances every live session; one blocked past the barrier
//! with nothing delivered returns at once, without an iteration (the rule
//! is the session's own, in [`SessionCore::advance`]). A session's
//! [`TrialResult`] comes back in the reply of the round it finished in,
//! and a worker exits when the coordinator drops its command channel.
//!
//! Determinism: everything a session exports (outgoing packets, results,
//! blocked times) is keyed by partition-invariant values — event time,
//! flow id, per-flow sequence — never by shard id or thread interleaving,
//! so the coordinator's merge order cannot observe how sessions were
//! distributed across workers.

use std::sync::mpsc::{Receiver, Sender};
use std::thread::{Scope, ScopedJoinHandle};
use voxel_core::client::{ClientApp, PlayerConfig};
use voxel_core::server::{ServeNote, ServerApp};
use voxel_core::session::{Advanced, Arrivals, SessionCore, Wire};
use voxel_core::TrialResult;
use voxel_quic::{ConnectionConfig, Packet};
use voxel_sim::{SimDuration, SimTime};

/// One packet a session offered to the shared link during a round.
///
/// `(at, flow, seq)` is the coordinator's merge key: all three are
/// computed by the session alone, so the merged arrival order is
/// independent of how sessions shard across workers.
pub(crate) struct Outgoing {
    /// Send time (the session-local event time of the transmission).
    pub at: SimTime,
    /// Flow id of the sending session.
    pub flow: usize,
    /// Per-flow emission sequence (monotone within the flow).
    pub seq: u64,
    /// Wire size offered to the link's byte-level queue.
    pub bytes: usize,
    /// The packet itself, held until the link completes its service.
    pub payload: Packet,
}

/// One object the session's server resolved during a round, exported for
/// the coordinator's edge tier. Keyed like [`Outgoing`] — `(at, flow,
/// seq)` are all session-local, so the coordinator's replay order is
/// partition-invariant.
pub(crate) struct NoteOut {
    /// Resolution time (the session-local event time of the serve).
    pub at: SimTime,
    /// Flow id of the serving session.
    pub flow: usize,
    /// Per-flow note sequence (monotone within the flow).
    pub seq: u64,
    /// The served object.
    pub note: ServeNote,
}

/// A link delivery routed back to a session for the next round.
pub(crate) struct Delivery {
    /// Destination flow.
    pub flow: usize,
    /// Client-side arrival time (service completion + downlink delay).
    pub at: SimTime,
    /// The packet.
    pub payload: Packet,
}

/// One barrier round's instructions to a shard.
pub(crate) struct RoundCmd {
    /// Advance every live session up to (and including) this time.
    pub barrier: SimTime,
    /// Link deliveries to inject before advancing, in coordinator order.
    pub deliveries: Vec<Delivery>,
}

/// What a shard reports back after a round.
#[derive(Default)]
pub(crate) struct RoundReply {
    /// Packets offered to the link, in session emission order.
    pub outbox: Vec<Outgoing>,
    /// Objects resolved by session servers, in resolution order; empty
    /// unless the fleet runs an edge tier.
    pub notes: Vec<NoteOut>,
    /// The earliest pending time over the shard's still-live sessions.
    pub next: Option<SimTime>,
    /// Sessions that finished this round: `(at, flow, result)`.
    pub finished: Vec<(SimTime, usize, TrialResult)>,
    /// Event-loop iterations spent by this shard this round.
    pub iters: u64,
}

/// Coordinator → shard commands.
pub(crate) enum Cmd {
    Round(RoundCmd),
    /// Freeze every unfinished session at the cap.
    Freeze(SimTime),
}

/// One fleet member: its session engine and the bookkeeping the barrier
/// protocol needs.
pub(crate) struct SessionCell {
    pub flow: usize,
    label: String,
    /// Taken on finalization.
    core: Option<SessionCore>,
    delay_up: SimDuration,
    out_seq: u64,
    note_seq: u64,
}

/// A fleet member's [`Wire`] for one round: downlink packets and serve
/// notes are exported to the coordinator, keyed `(at, flow, seq)`; the
/// uplink is delay-only and stays in-session.
struct Outbox<'a> {
    flow: usize,
    delay_up: SimDuration,
    out_seq: &'a mut u64,
    note_seq: &'a mut u64,
    reply: &'a mut RoundReply,
}

impl Wire for Outbox<'_> {
    fn downlink(&mut self, now: SimTime, packet: Packet) -> Arrivals {
        *self.out_seq += 1;
        self.reply.outbox.push(Outgoing {
            at: now,
            flow: self.flow,
            seq: *self.out_seq,
            bytes: packet.wire_size(),
            payload: packet,
        });
        Arrivals::None
    }

    fn uplink(&mut self, now: SimTime, packet: Packet) -> Arrivals {
        Arrivals::One(now + self.delay_up, packet)
    }

    fn serve_note(&mut self, now: SimTime, note: ServeNote) {
        *self.note_seq += 1;
        self.reply.notes.push(NoteOut {
            at: now,
            flow: self.flow,
            seq: *self.note_seq,
            note,
        });
    }
}

/// Everything needed to construct one session. Plain `Send + Sync` data,
/// so worker threads build (and therefore own) their sessions — the live
/// session state, with its `Box<dyn Abr>`, never crosses a thread.
pub(crate) struct SessionSeed {
    pub flow: usize,
    pub label: String,
    pub start: SimTime,
    pub delay_up: SimDuration,
    pub player: PlayerConfig,
    pub conn_config: ConnectionConfig,
    pub manifest: std::sync::Arc<voxel_prep::manifest::Manifest>,
    pub video: std::sync::Arc<voxel_media::video::Video>,
    pub qoe: voxel_media::qoe::QoeModel,
    pub abr: voxel_core::AbrKind,
    /// Record per-object serve notes (only when an edge tier consumes
    /// them — recording is dead weight otherwise).
    pub record_notes: bool,
}

impl SessionCell {
    pub fn new(seed: SessionSeed) -> SessionCell {
        let client = ClientApp::new(
            seed.player,
            seed.manifest.clone(),
            seed.video,
            seed.qoe,
            seed.abr.make(),
        );
        let mut server = ServerApp::new(seed.manifest, true);
        server.record_serve_notes(seed.record_notes);
        SessionCell {
            flow: seed.flow,
            label: seed.label,
            core: Some(SessionCore::new(
                seed.flow as u32,
                seed.start,
                server,
                client,
                seed.conn_config,
            )),
            delay_up: seed.delay_up,
            out_seq: 0,
            note_seq: 0,
        }
    }

    /// Advance this session up to (and including) `barrier`, reporting
    /// into `reply`. A finished session is a no-op.
    fn advance(&mut self, barrier: SimTime, reply: &mut RoundReply) {
        let Some(core) = self.core.as_mut() else {
            return;
        };
        let before = core.iters();
        let mut wire = Outbox {
            flow: self.flow,
            delay_up: self.delay_up,
            out_seq: &mut self.out_seq,
            note_seq: &mut self.note_seq,
            reply: &mut *reply,
        };
        let advanced = core.advance(barrier, &mut wire);
        reply.iters += core.iters() - before;
        match advanced {
            Advanced::Blocked(t) => reply.next = Some(reply.next.map_or(t, |n| n.min(t))),
            Advanced::Done(at) => self.finish(at, reply),
        }
    }

    /// Close out the session at `now`, if it was not already.
    fn finish(&mut self, now: SimTime, reply: &mut RoundReply) {
        if let Some(core) = self.core.take() {
            let mut r = core.finish(now);
            r.abr = self.label.clone();
            reply.finished.push((now, self.flow, r));
        }
    }
}

/// Run one barrier round over a shard's sessions. Shared by the inline
/// and threaded lanes — this function *is* the algorithm; worker count
/// only changes who calls it.
pub(crate) fn shard_round(sessions: &mut [SessionCell], cmd: RoundCmd) -> RoundReply {
    let mut reply = RoundReply::default();
    // A lane's flows are contiguous, in order.
    let lo = sessions.first().map_or(0, |s| s.flow);
    for d in cmd.deliveries {
        #[expect(
            clippy::expect_used,
            reason = "the coordinator routes by flow ownership; a miss is a harness bug"
        )]
        let cell = d
            .flow
            .checked_sub(lo)
            .and_then(|i| sessions.get_mut(i))
            .filter(|s| s.flow == d.flow)
            .expect("delivery routed to the owning shard");
        // Deliveries always land at or after the session's clock: the
        // lookahead argument (DESIGN.md §14) guarantees a packet entering
        // the link in round *k* cannot arrive before the round-*k*
        // barrier, and the session never advances past it. A member that
        // already finished has nobody left to read it.
        if let Some(core) = cell.core.as_mut() {
            core.inject(d.at, d.payload);
        }
    }
    for cell in sessions.iter_mut() {
        cell.advance(cmd.barrier, &mut reply);
    }
    reply
}

/// Freeze every unfinished session at the cap (the coordinator decided
/// globally that nothing happens before it).
pub(crate) fn shard_freeze(sessions: &mut [SessionCell], at: SimTime) -> RoundReply {
    let mut reply = RoundReply::default();
    for cell in sessions.iter_mut() {
        cell.finish(at, &mut reply);
    }
    reply
}

/// Run one command over a shard's sessions.
fn execute(sessions: &mut [SessionCell], cmd: Cmd) -> RoundReply {
    match cmd {
        Cmd::Round(round) => shard_round(sessions, round),
        Cmd::Freeze(at) => shard_freeze(sessions, at),
    }
}

/// Worker-thread body: build the shard's sessions locally (session state
/// never crosses threads), then serve commands until the coordinator
/// hangs up.
fn worker_loop(
    seeds: Vec<SessionSeed>,
    rx: Receiver<Cmd>,
    tx: Sender<RoundReply>,
    recorder: Option<voxel_obs::FlightRecorder>,
) {
    let _bound = recorder.as_ref().map(voxel_obs::install_recorder);
    let mut sessions: Vec<SessionCell> = seeds.into_iter().map(SessionCell::new).collect();
    while let Ok(cmd) = rx.recv() {
        if tx.send(execute(&mut sessions, cmd)).is_err() {
            return;
        }
    }
}

/// A shard handle as the coordinator sees it: the inline lane runs the
/// shard's sessions on the coordinator thread (workers = 1 keeps the
/// whole run single-threaded); a thread lane speaks the same `Cmd` /
/// [`RoundReply`] protocol over channels.
pub(crate) enum Lane<'scope> {
    Inline {
        sessions: Vec<SessionCell>,
        pending: Option<Cmd>,
    },
    Thread {
        tx: Sender<Cmd>,
        rx: Receiver<RoundReply>,
        /// Joined when a channel closes, to re-raise the worker's panic.
        worker: Option<ScopedJoinHandle<'scope, ()>>,
    },
}

/// A closed channel means the worker panicked: re-raise *its* panic on the
/// coordinator — with the flight recorder's dump when one is installed
/// (workers share the coordinator's ring) — instead of "channel closed".
fn worker_died(worker: &mut Option<ScopedJoinHandle<'_, ()>>) -> ! {
    #[expect(
        clippy::panic,
        reason = "a worker hangs up only by panicking while the coordinator holds its lane"
    )]
    let Some(Err(payload)) = worker.take().map(ScopedJoinHandle::join) else {
        panic!("shard worker hung up without panicking");
    };
    let message = payload
        .downcast_ref::<&str>()
        .map(|m| m.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned());
    match (message, voxel_obs::dump_current("a shard worker panicked")) {
        (Some(message), Some(dump)) => {
            std::panic::resume_unwind(Box::new(format!("{message}\n{dump}")))
        }
        _ => std::panic::resume_unwind(payload),
    }
}

impl<'scope> Lane<'scope> {
    /// A lane on its own worker thread, which builds and owns the sessions
    /// of `seeds` (live session state never crosses a thread).
    pub fn spawn(
        scope: &'scope Scope<'scope, '_>,
        seeds: Vec<SessionSeed>,
        recorder: Option<voxel_obs::FlightRecorder>,
    ) -> Lane<'scope> {
        let (tx, cmd_rx) = std::sync::mpsc::channel();
        let (reply_tx, rx) = std::sync::mpsc::channel();
        let worker = scope.spawn(move || worker_loop(seeds, cmd_rx, reply_tx, recorder));
        Lane::Thread {
            tx,
            rx,
            worker: Some(worker),
        }
    }

    /// Queue a command. Thread lanes start working immediately; the
    /// inline lane defers to `collect` so dispatch stays non-blocking in
    /// both cases and rounds overlap across threaded shards.
    pub fn dispatch(&mut self, cmd: Cmd) {
        match self {
            Lane::Inline { pending, .. } => *pending = Some(cmd),
            Lane::Thread { tx, worker, .. } => {
                if tx.send(cmd).is_err() {
                    worker_died(worker);
                }
            }
        }
    }

    /// Execute (inline) or await (threaded) the dispatched command.
    pub fn collect(&mut self) -> RoundReply {
        match self {
            #[expect(
                clippy::expect_used,
                reason = "collect without dispatch is a harness bug"
            )]
            Lane::Inline { sessions, pending } => {
                execute(sessions, pending.take().expect("round dispatched"))
            }
            Lane::Thread { rx, worker, .. } => rx.recv().unwrap_or_else(|_| worker_died(worker)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_core::client::TransportMode;
    use voxel_core::{AbrKind, ContentCache};
    use voxel_media::content::VideoId;
    use voxel_quic::Frame;

    /// Seeds for flows `lo..lo + n`, as the coordinator chunks them.
    fn seeds(lo: usize, n: usize) -> Vec<SessionSeed> {
        let cache = ContentCache::top_level_only();
        let (manifest, video) = cache.get(VideoId::Bbb);
        (lo..lo + n)
            .map(|flow| SessionSeed {
                flow,
                label: "BOLA".to_string(),
                start: SimTime::ZERO,
                delay_up: SimDuration::from_millis(30),
                player: PlayerConfig::new(3, TransportMode::Reliable),
                conn_config: ConnectionConfig::default(),
                manifest: manifest.clone(),
                video: video.clone(),
                qoe: cache.qoe(),
                abr: AbrKind::Bola,
                record_notes: false,
            })
            .collect()
    }

    /// A lane owning flows `lo..lo + n`.
    fn lane(lo: usize, n: usize) -> Vec<SessionCell> {
        seeds(lo, n).into_iter().map(SessionCell::new).collect()
    }

    fn round(deliveries: Vec<Delivery>) -> RoundCmd {
        RoundCmd {
            barrier: SimTime::from_millis(1),
            deliveries,
        }
    }

    fn ping_for(flow: usize) -> Delivery {
        Delivery {
            flow,
            at: SimTime::from_millis(1),
            payload: Packet::new(0, vec![Frame::Ping]),
        }
    }

    /// Every other lane of a threaded fleet starts past flow 0. Nothing
    /// reaches a fleet client except through a delivery (the downlink
    /// leaves through the outbox), so the packets a client received are
    /// exactly the deliveries routed to it.
    #[test]
    fn deliveries_reach_their_flow_in_a_lane_that_does_not_start_at_zero() {
        let mut sessions = lane(5, 3);
        let deliveries = vec![ping_for(6), ping_for(7), ping_for(6)];
        shard_round(&mut sessions, round(deliveries));
        let received: Vec<(usize, u64)> = shard_freeze(&mut sessions, SimTime::from_millis(1))
            .finished
            .into_iter()
            .map(|(_, flow, r)| (flow, r.transport.client_packets_received))
            .collect();
        assert_eq!(received, [(5, 0), (6, 2), (7, 1)]);
    }

    #[test]
    #[should_panic(expected = "delivery routed to the owning shard")]
    fn a_delivery_for_a_flow_below_the_lane_is_a_harness_bug() {
        shard_round(&mut lane(5, 1), round(vec![ping_for(4)]));
    }

    #[test]
    #[should_panic(expected = "delivery routed to the owning shard")]
    fn a_delivery_for_a_flow_beyond_the_lane_is_a_harness_bug() {
        shard_round(&mut lane(5, 1), round(vec![ping_for(6)]));
    }

    /// A worker thread that panics takes its channels down with it; the
    /// coordinator must fail with the worker's message (and the flight
    /// recorder's dump when one is installed), not "channel closed".
    #[test]
    fn a_threaded_lane_re_raises_its_workers_own_panic() {
        let misrouted = || {
            let payload = std::panic::catch_unwind(|| {
                std::thread::scope(|scope| {
                    let recorder = voxel_obs::current_recorder();
                    let mut lane = Lane::spawn(scope, seeds(5, 1), recorder);
                    lane.dispatch(Cmd::Round(round(vec![ping_for(6)])));
                    lane.collect();
                })
            })
            .expect_err("the worker panicked");
            match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(payload) => payload
                    .downcast_ref::<&str>()
                    .expect("a message")
                    .to_string(),
            }
        };
        assert_eq!(misrouted(), "delivery routed to the owning shard");
        let recorder = voxel_obs::FlightRecorder::new("spec=misrouted", 8);
        let _bound = voxel_obs::install_recorder(&recorder);
        let message = misrouted();
        assert!(
            message.starts_with("delivery routed to the owning shard\n")
                && message.contains("spec=misrouted"),
            "{message}"
        );
    }
}
