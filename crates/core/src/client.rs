//! The VOXEL client: a headless DASH player over QUIC\*.
//!
//! Life cycle of a session (§4.2): fetch the manifest; then, per segment,
//! consult the ABR and issue **two requests** — the I-frame and all frame
//! headers over a reliable stream (`…/head`), and (a prefix of) the
//! remaining frame payloads in download order over an unreliable stream
//! (`…/body`, `x-voxel-unreliable`). Vanilla configurations fetch both
//! parts reliably instead. The player:
//!
//! - tracks the playback buffer and accounts stalls (bufRatio),
//! - consults the ABR mid-download for abandonment (restart vs VOXEL's
//!   keep-partial),
//! - during buffer-full idle periods, selectively re-requests lost body
//!   ranges of still-unplayed segments (§4.2 "Enabling selective
//!   retransmissions"),
//! - freezes each segment's QoE at its playback deadline, zero-padding
//!   whatever is still missing (§4.2 "Handling partially downloaded
//!   segments").

use crate::metrics::TrialResult;
use std::collections::BTreeMap;
use std::sync::Arc;
use voxel_abr::{AbandonAction, Abr, AbrContext, Decision, DownloadProgress, ThroughputEstimator};
use voxel_http::Request;
use voxel_media::ladder::QualityLevel;
use voxel_media::qoe::{LossMap, QoeModel, QoeScores};
use voxel_media::video::{Video, SEGMENT_DURATION_S};
use voxel_prep::analysis::QoePoint;
use voxel_prep::manifest::Manifest;
use voxel_quic::range::RangeSet;
use voxel_quic::{Connection, Event, Reliability, StreamId};
use voxel_sim::{SimDuration, SimTime};
use voxel_trace::{trace_event, Layer, Tracer};

/// How segment data travels (§5.1 studies these separately from the ABR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Vanilla QUIC: everything on reliable streams.
    Reliable,
    /// QUIC\*: I-frame + headers reliable, frame bodies unreliable.
    Split,
}

/// Player configuration.
#[derive(Debug, Clone)]
pub struct PlayerConfig {
    /// Playback buffer capacity in segments (1–7 in the paper).
    pub buffer_capacity_segments: usize,
    /// Transport mode.
    pub transport: TransportMode,
    /// Enable §4.2 selective retransmission of lost unreliable data during
    /// buffer-full periods.
    pub selective_retx: bool,
    /// Segments buffered before playback starts.
    pub startup_segments: usize,
    /// Live-edge mode: segment `i` only becomes available on the server
    /// once the encoder has produced it, at `(i+1) x 4 s` of wall-clock —
    /// the live/low-latency use case the paper's small-buffer experiments
    /// target (§1, §5 "small buffers are crucial for supporting low-latency
    /// or live-streaming-like applications").
    pub live: bool,
    /// Testkit canary (DESIGN.md §11): skew the *accounted* stall total by
    /// an extra 100 ms per stall while the trace timeline stays truthful.
    /// The conformance sweep's stall-drift oracle must catch the
    /// divergence; never enable outside that self-test.
    pub debug_stall_skew: bool,
}

impl PlayerConfig {
    /// The paper's defaults for a given buffer size.
    pub fn new(buffer_capacity_segments: usize, transport: TransportMode) -> PlayerConfig {
        PlayerConfig {
            buffer_capacity_segments,
            transport,
            selective_retx: transport == TransportMode::Split,
            startup_segments: 1,
            live: false,
            debug_stall_skew: false,
        }
    }

    /// Enable live-edge mode.
    pub fn live(mut self) -> PlayerConfig {
        self.live = true;
        self
    }

    /// Buffer capacity in seconds.
    pub(crate) fn capacity_s(&self) -> f64 {
        self.buffer_capacity_segments as f64 * SEGMENT_DURATION_S
    }
}

/// What a stream was opened for.
#[derive(Debug, Clone)]
enum FetchKind {
    Manifest,
    Head { seg: usize },
    Body { seg: usize },
    Retx { seg: usize, ranges: Vec<(u64, u64)> },
}

/// An in-flight segment download.
#[derive(Debug)]
struct Download {
    seg: usize,
    level: QualityLevel,
    /// Bytes requested on the body stream.
    body_goal: u64,
    head_stream: StreamId,
    body_stream: StreamId,
    head_done: bool,
    body_fin_seen: bool,
    started: SimTime,
    /// Times this segment was restarted (for stats).
    restarts_here: u32,
}

/// Delivery state of a segment. `ClientApp::records[i]` is segment `i`'s.
#[derive(Debug)]
struct SegmentRecord {
    seg: usize,
    level: QualityLevel,
    target: QoePoint,
    body_goal: u64,
    /// Received body-offset ranges.
    received: RangeSet,
    /// Use BETA's download order when mapping offsets to frames.
    beta_order: bool,
    /// When this segment starts playing.
    play_start: SimTime,
    scores: Option<QoeScores>,
    /// Stats snapshots at freeze time.
    frames_dropped: u32,
    referenced_dropped: u32,
}

/// Aggregated client statistics.
#[derive(Debug, Default, Clone, Copy)]
struct ClientStats {
    bytes_downloaded: u64,
    bytes_wasted: u64,
    restarts: u32,
    kept_partials: u32,
    bytes_lost: u64,
    bytes_recovered: u64,
}

/// Phases of the session.
#[derive(Debug, PartialEq, Eq)]
enum Phase {
    Init,
    FetchingManifest,
    Streaming,
    Done,
}

/// The client application.
pub struct ClientApp {
    config: PlayerConfig,
    manifest: Arc<Manifest>,
    video: Arc<Video>,
    qoe: QoeModel,
    abr: Box<dyn Abr>,
    estimator: ThroughputEstimator,
    phase: Phase,
    fetches: BTreeMap<StreamId, FetchKind>,
    dl: Option<Download>,
    /// One record per segment whose fetch has begun, indexed by segment: a
    /// fetch begins at `next_segment`, and a restart rewrites its record.
    /// `play_start` never decreases along the table, so the records whose
    /// QoE is frozen are always the prefix `[..frozen]`.
    records: Vec<SegmentRecord>,
    frozen: usize,
    next_segment: usize,
    // Playback state.
    play_started: bool,
    play_end: SimTime,
    startup_at: Option<SimTime>,
    total_stall: SimDuration,
    last_level: Option<QualityLevel>,
    last_idle_credit: Option<SimTime>,
    last_progress_check: SimTime,
    active_retx: Vec<StreamId>,
    stats: ClientStats,
    /// The ABR uses BETA's frame ordering.
    is_beta: bool,
    tracer: Tracer,
}

impl ClientApp {
    /// Create a client for one trial.
    pub fn new(
        config: PlayerConfig,
        manifest: Arc<Manifest>,
        video: Arc<Video>,
        qoe: QoeModel,
        abr: Box<dyn Abr>,
    ) -> ClientApp {
        let is_beta = abr.name() == "BETA";
        ClientApp {
            config,
            manifest,
            video,
            qoe,
            abr,
            estimator: ThroughputEstimator::new(),
            phase: Phase::Init,
            fetches: BTreeMap::new(),
            dl: None,
            records: Vec::new(),
            frozen: 0,
            next_segment: 0,
            play_started: false,
            play_end: SimTime::ZERO,
            startup_at: None,
            total_stall: SimDuration::ZERO,
            last_level: None,
            last_idle_credit: None,
            last_progress_check: SimTime::ZERO,
            active_retx: Vec::new(),
            stats: ClientStats::default(),
            is_beta,
            tracer: Tracer::disabled(),
        }
    }

    /// Install a tracer (shared with the rest of the session).
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The player configuration this client runs with.
    pub(crate) fn config(&self) -> &PlayerConfig {
        &self.config
    }

    /// Whether the session has finished.
    pub(crate) fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Buffer level in seconds at `now`.
    pub(crate) fn buffer_s(&self, now: SimTime) -> f64 {
        if !self.play_started {
            // Before playback starts, queued content is all buffer.
            return self.records.len() as f64 * SEGMENT_DURATION_S;
        }
        self.play_end.saturating_since(now).as_secs_f64()
    }

    /// Structural audit of the player state (DESIGN.md §10). The `paranoid`
    /// runtime layer calls this from the session event loop after every
    /// client pump; it must hold at every event-loop boundary.
    pub fn check_invariants(&self, now: SimTime) -> Result<(), String> {
        // The buffer can momentarily exceed capacity by the segment that
        // completed just before the idle check, never by more.
        let cap = self.config.capacity_s() + SEGMENT_DURATION_S + 1e-6;
        let buffer = self.buffer_s(now);
        if !(0.0..=cap).contains(&buffer) {
            return Err(format!("buffer level {buffer:.3}s outside [0, {cap:.3}]s"));
        }
        let elapsed = now.saturating_since(SimTime::ZERO);
        if self.total_stall > elapsed {
            return Err(format!(
                "total stall {:?} exceeds elapsed session time {:?}",
                self.total_stall, elapsed
            ));
        }
        let n = self.manifest.num_segments();
        if self.records.len() > n {
            return Err(format!(
                "{} records for a {n}-segment video",
                self.records.len()
            ));
        }
        if self.next_segment > n {
            return Err(format!(
                "next_segment {} beyond video end {n}",
                self.next_segment
            ));
        }
        if self.frozen > self.records.len() {
            return Err(format!(
                "frozen cursor {} beyond {} records",
                self.frozen,
                self.records.len()
            ));
        }
        let mut last_start = SimTime::ZERO;
        for (i, r) in self.records.iter().enumerate() {
            if r.seg != i {
                return Err(format!("record {i} holds segment {}", r.seg));
            }
            if r.level.index() >= voxel_media::ladder::NUM_LEVELS {
                return Err(format!(
                    "record for segment {i} at level index {} out of range",
                    r.level.index()
                ));
            }
            if r.scores.is_some() != (i < self.frozen) {
                return Err(format!(
                    "record {i} scored = {} with the frozen cursor at {}",
                    r.scores.is_some(),
                    self.frozen
                ));
            }
            if r.play_start < last_start {
                return Err(format!(
                    "record {i} starts playing at {:?}, before its predecessor at {last_start:?}",
                    r.play_start
                ));
            }
            last_start = r.play_start;
        }
        if self.play_started && self.startup_at.is_none() {
            return Err("playback started without a startup timestamp".into());
        }
        self.abr.check_invariants()
    }

    /// Main pump: process connection events and advance the state machine.
    /// Called by the session loop after every network event and timer tick.
    pub(crate) fn on_wake(&mut self, now: SimTime, conn: &mut Connection) {
        self.drain_events(now, conn);
        match self.phase {
            Phase::Init => {
                let sid = conn.open_stream(Reliability::Reliable);
                self.fetches.insert(sid, FetchKind::Manifest);
                let req = Request::get("/manifest");
                voxel_http::trace::trace_request(&self.tracer, now, sid.0, &req);
                conn.send(sid, &req.encode());
                conn.finish(sid);
                self.phase = Phase::FetchingManifest;
            }
            Phase::FetchingManifest => {
                // Completion handled in drain_events.
            }
            Phase::Streaming => {
                self.check_download_progress(now, conn);
                self.maybe_complete_download(now, conn);
                self.freeze_due_segments(now);
                self.maybe_start_download(now, conn);
                // Selective retransmission runs alongside downloads: the
                // retx stream has a higher id than the in-flight body
                // stream, so lowest-id-first scheduling serves it only in
                // the gaps the primary download leaves — the §4.2
                // opportunistic behaviour at packet granularity.
                self.maybe_selective_retx(now, conn);
                self.maybe_done(now);
            }
            Phase::Done => {}
        }
    }

    /// The player wants a wake-up at this time (progress checks / playback
    /// deadlines), independent of network activity.
    pub(crate) fn next_wake(&self, now: SimTime) -> Option<SimTime> {
        if self.is_done() {
            return None;
        }
        Some(now + SimDuration::from_millis(100))
    }

    // ------------------------------------------------------------------
    // Event ingestion
    // ------------------------------------------------------------------

    fn drain_events(&mut self, now: SimTime, conn: &mut Connection) {
        while let Some(ev) = conn.poll_event() {
            match ev {
                Event::StreamOpened(..) | Event::StreamReset(_) | Event::Closed { .. } => {}
                Event::UnreliableLoss { .. } => {
                    // Client sends nothing unreliably; loss info about
                    // incoming data is derived from receive-side gaps.
                }
                Event::StreamReadable(id) | Event::StreamFinished(id) => {
                    self.on_stream_activity(now, conn, id);
                }
            }
        }
    }

    fn on_stream_activity(&mut self, now: SimTime, conn: &mut Connection, id: StreamId) {
        let Some(kind) = self.fetches.get(&id).cloned() else {
            // Canceled fetch: drop data on the floor.
            if let Some(rs) = conn.recv_stream(id) {
                rs.take_received().for_each(drop);
            }
            return;
        };
        match kind {
            FetchKind::Manifest => {
                if let Some(bytes) = drain_if_complete(conn, id) {
                    self.stats.bytes_downloaded += bytes;
                    self.estimator.on_sample(bytes, now.as_secs_f64().max(1e-3));
                    self.fetches.remove(&id);
                    self.phase = Phase::Streaming;
                }
            }
            FetchKind::Head { seg } => {
                if let Some(bytes) = drain_if_complete(conn, id) {
                    if let Some(dl) = self.dl.as_mut() {
                        if dl.seg == seg && dl.head_stream == id {
                            dl.head_done = true;
                        }
                    }
                    self.stats.bytes_downloaded += bytes;
                    self.fetches.remove(&id);
                }
            }
            FetchKind::Body { seg } => {
                if let Some(rs) = conn.recv_stream(id) {
                    // Unreliable replies: fin marks the end of everything
                    // the network will ever deliver (FIFO path). Reliable
                    // replies: retransmissions may still be in flight after
                    // fin, so completion requires every byte.
                    let fin = match rs.reliability {
                        voxel_quic::Reliability::Unreliable => rs.final_len().is_some(),
                        voxel_quic::Reliability::Reliable => rs.is_complete(),
                    };
                    // Harvest newly arrived chunks into the record (the
                    // record exists from download start; without one they
                    // are dropped).
                    let chunks = rs.take_received();
                    if let Some(rec) = self.records.get_mut(seg) {
                        for (off, data) in chunks {
                            let len = data.len() as u64;
                            rec.received.insert(off, off + len);
                            self.stats.bytes_downloaded += len;
                        }
                    }
                    if fin {
                        if let Some(dl) = self.dl.as_mut() {
                            if dl.seg == seg && dl.body_stream == id {
                                dl.body_fin_seen = true;
                            }
                        }
                    }
                }
            }
            FetchKind::Retx { seg, ref ranges } => {
                if let Some(rs) = conn.recv_stream(id) {
                    let fin = rs.final_len().is_some();
                    let chunks = rs.take_received();
                    if let Some(rec) = self.records.get_mut(seg) {
                        for (resp_off, data) in chunks {
                            for (body_s, body_e) in
                                map_response_to_body(ranges, resp_off, data.len() as u64)
                            {
                                let before = rec.received.covered_within(body_s, body_e);
                                rec.received.insert(body_s, body_e);
                                let after = rec.received.covered_within(body_s, body_e);
                                self.stats.bytes_recovered += after - before;
                                self.stats.bytes_downloaded += after - before;
                            }
                        }
                    }
                    if fin {
                        self.fetches.remove(&id);
                        self.active_retx.retain(|&s| s != id);
                        trace_event!(
                            self.tracer,
                            now,
                            Layer::Player,
                            "retx_close",
                            "seg" = seg,
                            "stream" = id.0,
                        );
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Download lifecycle
    // ------------------------------------------------------------------

    fn maybe_start_download(&mut self, now: SimTime, conn: &mut Connection) {
        if self.dl.is_some() || self.next_segment >= self.manifest.num_segments() {
            return;
        }
        // Live mode: the encoder hasn't produced this segment yet.
        if self.config.live {
            let available_at =
                SimTime::from_secs_f64((self.next_segment + 1) as f64 * SEGMENT_DURATION_S);
            if now < available_at {
                // Waiting at the live edge is idle time for the ABR too.
                if let Some(since) = self.last_idle_credit {
                    self.abr.on_idle(now.saturating_since(since).as_secs_f64());
                }
                self.last_idle_credit = Some(now);
                self.maybe_selective_retx(now, conn);
                return;
            }
        }
        // Gate: "a new segment download can start only if the buffer is not
        // full" — room for the one in-flight segment.
        let buffer = self.buffer_s(now);
        if buffer >= self.config.capacity_s() - 1e-9 {
            // Idle: credit the placeholder, maybe run selective retx.
            if let Some(since) = self.last_idle_credit {
                self.abr.on_idle(now.saturating_since(since).as_secs_f64());
            }
            self.last_idle_credit = Some(now);
            self.maybe_selective_retx(now, conn);
            return;
        }
        self.last_idle_credit = None;

        let decision = {
            let ctx = make_ctx(
                &self.manifest,
                buffer,
                self.config.capacity_s(),
                &self.estimator,
                self.last_level,
                self.next_segment,
                self.play_started && buffer <= 0.0,
            );
            let d = self.abr.choose(&ctx);
            voxel_abr::trace::trace_decision(&self.tracer, now, &ctx, &d);
            d
        };
        self.begin_fetch(now, conn, decision, 0);
    }

    fn begin_fetch(
        &mut self,
        now: SimTime,
        conn: &mut Connection,
        decision: Decision,
        restarts: u32,
    ) {
        let seg = self.next_segment;
        let entry = self.manifest.entry(seg, decision.level);
        #[expect(
            clippy::expect_used,
            reason = "prep builds every SSIM map with the full-segment point"
        )]
        let full_point = *entry.ssims.last().expect("non-empty");
        let target = decision.target.unwrap_or(full_point);

        // Body bytes to request: the target's payload minus the I-frame
        // (which travels in the head).
        let i_frame_bytes = self.video.segments[seg].frame_bytes(decision.level, 0);
        let body_full = entry.total_bytes() - entry.reliable_size;
        let body_goal = u64::from(target.bytes)
            .saturating_sub(i_frame_bytes)
            .min(body_full);

        // Head request (always reliable).
        let head = conn.open_stream(Reliability::Reliable);
        self.fetches.insert(head, FetchKind::Head { seg });
        let head_req = Request::get(format!("/seg/{}/{}/head", seg, decision.level.index()));
        voxel_http::trace::trace_request(&self.tracer, now, head.0, &head_req);
        conn.send(head, &head_req.encode());
        conn.finish(head);

        // Body request.
        let body = conn.open_stream(Reliability::Reliable);
        self.fetches.insert(body, FetchKind::Body { seg });
        let mut req = Request::get(format!("/seg/{}/{}/body", seg, decision.level.index()));
        if body_goal > 0 {
            req = req.with_range(0, body_goal - 1);
        } else {
            req = req.with_range(0, 0); // degenerate but valid
        }
        if self.config.transport == TransportMode::Split {
            req = req.with_unreliable();
        }
        voxel_http::trace::trace_request(&self.tracer, now, body.0, &req);
        conn.send(body, &req.encode());
        conn.finish(body);

        // Ensure a record exists for incoming body data.
        if let Some(rec) = self.records.get_mut(seg) {
            // Restart: reset the record for the new level/target.
            rec.level = decision.level;
            rec.target = target;
            rec.body_goal = body_goal;
            rec.received = RangeSet::new();
        } else {
            self.records.push(SegmentRecord {
                seg,
                level: decision.level,
                target,
                body_goal,
                received: RangeSet::new(),
                beta_order: self.is_beta,
                play_start: SimTime::MAX,
                scores: None,
                frames_dropped: 0,
                referenced_dropped: 0,
            });
        }

        self.dl = Some(Download {
            seg,
            level: decision.level,
            body_goal,
            head_stream: head,
            body_stream: body,
            head_done: false,
            body_fin_seen: false,
            started: now,
            restarts_here: restarts,
        });
    }

    fn check_download_progress(&mut self, now: SimTime, conn: &mut Connection) {
        // Rate-limit to the 100 ms tick.
        if now.saturating_since(self.last_progress_check) < SimDuration::from_millis(100) {
            return;
        }
        self.last_progress_check = now;
        let Some(dl) = self.dl.as_ref() else { return };
        let rec_received = self
            .records
            .get(dl.seg)
            .map_or(0, |r| r.received.covered_len());
        // Progress covers the whole fetch (head + body): the reliable head
        // is served first (I-frame priority), so body-only accounting would
        // read as a stall during the head phase of every download.
        let head_received = conn
            .recv_stream(dl.head_stream)
            .map(|rs| rs.bytes_received())
            .unwrap_or(0);
        let reliable = self.manifest.entry(dl.seg, dl.level).reliable_size;
        let total_received = head_received.min(reliable) + rec_received;
        let elapsed = now.saturating_since(dl.started).as_secs_f64();
        let rate = if elapsed > 1e-3 {
            total_received as f64 * 8.0 / elapsed
        } else {
            0.0
        };
        let progress = DownloadProgress {
            bytes_received: total_received,
            bytes_target: (reliable + dl.body_goal).max(1),
            elapsed_s: elapsed,
            buffer_s: self.buffer_s(now),
            download_rate_bps: rate,
        };
        let action = {
            let buffer = self.buffer_s(now);
            let ctx = make_ctx(
                &self.manifest,
                buffer,
                self.config.capacity_s(),
                &self.estimator,
                self.last_level,
                dl.seg,
                self.play_started && buffer <= 0.0,
            );
            self.abr.on_progress(&ctx, &progress)
        };
        match action {
            AbandonAction::Continue => {}
            AbandonAction::RestartAt(level) => {
                #[expect(
                    clippy::expect_used,
                    reason = "on_progress only fires with an active download"
                )]
                let dl = self.dl.take().expect("checked");
                // Discard and refetch: the classic, wasteful abandonment.
                self.stats.bytes_wasted += rec_received;
                self.stats.restarts += 1;
                voxel_http::trace::trace_abandon(
                    &self.tracer,
                    now,
                    dl.seg as u64,
                    "restart",
                    rec_received,
                    dl.body_goal,
                );
                self.cancel_streams(conn, &dl);
                let restarts = dl.restarts_here + 1;
                // Cap restarts per segment to avoid livelock on hostile
                // traces; after that, continue at the lowest quality.
                let level = if restarts > 2 {
                    QualityLevel::MIN
                } else {
                    level
                };
                self.begin_fetch(now, conn, voxel_abr::Decision::full(level), restarts);
            }
            AbandonAction::KeepPartial => {
                #[expect(
                    clippy::expect_used,
                    reason = "on_progress only fires with an active download"
                )]
                let dl = self.dl.take().expect("checked");
                self.stats.kept_partials += 1;
                voxel_http::trace::trace_abandon(
                    &self.tracer,
                    now,
                    dl.seg as u64,
                    "keep_partial",
                    rec_received,
                    dl.body_goal,
                );
                self.cancel_streams(conn, &dl);
                self.finish_segment(now, dl);
            }
        }
    }

    fn cancel_streams(&mut self, conn: &mut Connection, dl: &Download) {
        for sid in [dl.head_stream, dl.body_stream] {
            self.fetches.remove(&sid);
            conn.reset_stream(sid);
        }
    }

    fn maybe_complete_download(&mut self, now: SimTime, conn: &mut Connection) {
        let complete = {
            let Some(dl) = self.dl.as_mut() else { return };
            let rec_received = self
                .records
                .get(dl.seg)
                .map_or(0, |r| r.received.covered_len());
            // Belt and braces: consult the stream state directly too, in
            // case the fin-carrying event raced a cancel/cleanup.
            if !dl.body_fin_seen {
                if let Some(rs) = conn.recv_stream(dl.body_stream) {
                    let fin = match rs.reliability {
                        Reliability::Unreliable => rs.final_len().is_some(),
                        Reliability::Reliable => rs.is_complete(),
                    };
                    dl.body_fin_seen = fin;
                }
            }
            dl.head_done && (dl.body_fin_seen || rec_received >= dl.body_goal)
        };
        if complete {
            #[expect(
                clippy::expect_used,
                reason = "completeness was just computed from this download"
            )]
            let dl = self.dl.take().expect("checked");
            self.finish_segment(now, dl);
        }
    }

    fn finish_segment(&mut self, now: SimTime, dl: Download) {
        // Throughput sample over the whole fetch (head + body).
        let entry = self.manifest.entry(dl.seg, dl.level);
        let rec_received = self
            .records
            .get(dl.seg)
            .map_or(0, |r| r.received.covered_len());
        let sampled = entry.reliable_size + rec_received;
        self.estimator
            .on_sample(sampled, now.saturating_since(dl.started).as_secs_f64());
        if self.tracer.enabled() {
            let dur_ms = now.saturating_since(dl.started).as_micros() / 1000;
            self.tracer.observe("player.download_ms", dur_ms);
            self.tracer.observe("player.segment_bytes", sampled);
            trace_event!(
                self.tracer,
                now,
                Layer::Player,
                "download_done",
                "seg" = dl.seg,
                "level" = dl.level.index(),
                "bytes" = sampled,
                "dur_ms" = dur_ms,
                "restarts" = u64::from(dl.restarts_here),
            );
        }

        // In-transit loss accounting: holes *below the receive high-water
        // mark* were sent and lost (selective retx may recover them); bytes
        // past the high-water mark were deliberately skipped, not lost.
        if self.config.transport == TransportMode::Split {
            if let Some(rec) = self.records.get(dl.seg) {
                let hwm = rec.received.max_end().min(dl.body_goal);
                let holes: u64 = rec.received.gaps(hwm).iter().map(|(a, b)| b - a).sum();
                self.stats.bytes_lost += holes;
            }
        }

        // Playback queueing and stall accounting.
        #[expect(
            clippy::expect_used,
            reason = "a SegmentRecord is pushed when its fetch begins"
        )]
        let rec = self.records.get_mut(dl.seg).expect("record exists");
        let seg_dur = SimDuration::from_secs_f64(SEGMENT_DURATION_S);
        if !self.play_started {
            rec.play_start = now; // provisional; fixed at startup below
            let ready = self
                .records
                .iter()
                .filter(|r| r.play_start != SimTime::MAX)
                .count();
            if ready >= self.config.startup_segments {
                // Playback starts now; queue everything ready, in order.
                self.play_started = true;
                self.startup_at = Some(now);
                self.play_end = now;
                self.tracer
                    .observe("player.startup_ms", now.as_micros() / 1000);
                trace_event!(
                    self.tracer,
                    now,
                    Layer::Player,
                    "startup",
                    "seg" = dl.seg,
                    "ready" = ready,
                );
                for r in self
                    .records
                    .iter_mut()
                    .filter(|r| r.play_start != SimTime::MAX)
                {
                    r.play_start = self.play_end;
                    self.play_end += seg_dur;
                }
            }
        } else if now > self.play_end {
            // Stall: the buffer ran dry before this segment arrived.
            let stall = now.saturating_since(self.play_end);
            if self.tracer.enabled() {
                self.tracer.count("player.stalls", 1);
                self.tracer
                    .observe("player.stall_ms", stall.as_micros() / 1000);
                // Start/end emitted back to back at detection time; the
                // start is back-dated to when playback actually ran dry.
                trace_event!(
                    self.tracer,
                    self.play_end,
                    Layer::Player,
                    "stall_start",
                    "seg" = dl.seg,
                );
                trace_event!(
                    self.tracer,
                    now,
                    Layer::Player,
                    "stall_end",
                    "seg" = dl.seg,
                    "dur_ms" = stall.as_micros() / 1000,
                );
            }
            self.total_stall += now - self.play_end;
            if self.config.debug_stall_skew {
                // Deliberate accounting drift (canary): the timeline above
                // keeps the true duration, so the drift oracle must fire.
                self.total_stall += SimDuration::from_millis(100);
            }
            self.abr.on_rebuffer();
            rec.play_start = now;
            self.play_end = now + seg_dur;
        } else {
            rec.play_start = self.play_end;
            self.play_end += seg_dur;
        }

        self.last_level = Some(dl.level);
        self.next_segment += 1;
    }

    // ------------------------------------------------------------------
    // Selective retransmission (§4.2)
    // ------------------------------------------------------------------

    fn maybe_selective_retx(&mut self, now: SimTime, conn: &mut Connection) {
        if !self.config.selective_retx
            || self.config.transport != TransportMode::Split
            || self.active_retx.len() >= 2
        {
            return;
        }
        // "We stop any selective retransmissions immediately if conditions
        // become unfavorable (e.g., buffer occupancy drops)."
        if self.buffer_s(now) < 0.25 * self.config.capacity_s() {
            return;
        }
        // Segments already being repaired by an in-flight re-request.
        let busy: Vec<usize> = self
            .active_retx
            .iter()
            .filter_map(|sid| match self.fetches.get(sid) {
                Some(FetchKind::Retx { seg, .. }) => Some(*seg),
                _ => None,
            })
            .collect();
        // Earliest unplayed, unfrozen segment with in-transit holes (below
        // its receive high-water mark; the skipped tail was a deliberate
        // quality decision, not a loss).
        let in_flight = self.dl.as_ref().map(|d| d.seg);
        let candidate = self.records[self.frozen..]
            .iter()
            .filter(|r| {
                r.play_start > now
                    && !busy.contains(&r.seg)
                    // Never repair the segment still being downloaded: a
                    // restart would re-point its record at another level
                    // while the repair keeps writing old-level offsets.
                    && Some(r.seg) != in_flight
            })
            .find_map(|r| {
                let hwm = r.received.max_end().min(r.body_goal);
                let holes = r.received.gaps(hwm);
                (!holes.is_empty()).then_some((r, holes))
            });
        let Some((rec, holes)) = candidate else {
            return;
        };
        let seg = rec.seg;
        let level = rec.level;
        // Inclusive HTTP ranges, capped at 64 per request. (At most one
        // in-flight re-request per segment, so holes are never duplicated.)
        let ranges: Vec<(u64, u64)> = holes.iter().take(64).map(|&(s, e)| (s, e - 1)).collect();
        let sid = conn.open_stream(Reliability::Reliable);
        self.fetches.insert(
            sid,
            FetchKind::Retx {
                seg,
                ranges: ranges.clone(),
            },
        );
        let mut req = Request::get(format!("/seg/{}/{}/body", seg, level.index()));
        for (s, e) in &ranges {
            req = req.with_range(*s, *e);
        }
        req = req.with_unreliable();
        voxel_http::trace::trace_request(&self.tracer, now, sid.0, &req);
        if self.tracer.enabled() {
            self.tracer.count("player.retx_windows", 1);
            trace_event!(
                self.tracer,
                now,
                Layer::Player,
                "retx_open",
                "seg" = seg,
                "stream" = sid.0,
                "nranges" = ranges.len(),
                "bytes" = req.range_bytes(),
            );
        }
        conn.send(sid, &req.encode());
        conn.finish(sid);
        self.active_retx.push(sid);
    }

    // ------------------------------------------------------------------
    // QoE freezing
    // ------------------------------------------------------------------

    /// Score every record whose playback has started by `now`. They form a
    /// prefix of the unfrozen records, so the cursor stops at the first
    /// record still in the future.
    fn freeze_due_segments(&mut self, now: SimTime) {
        while let Some(rec) = self
            .records
            .get_mut(self.frozen)
            .filter(|r| r.play_start <= now)
        {
            self.frozen += 1;
            let seg = &self.video.segments[rec.seg];
            let entry = self.manifest.entry(rec.seg, rec.level);
            let order: &[usize] = if rec.beta_order {
                &entry.beta_order
            } else {
                &entry.download_order
            };
            let mut loss = LossMap::none();
            let mut off = 0u64;
            let mut dropped = 0u32;
            let mut ref_dropped = 0u32;
            for &f in &order[1..] {
                let sz = seg.frame_bytes(rec.level, f);
                if sz == 0 {
                    continue;
                }
                let covered = rec.received.covered_within(off, off + sz);
                let frac_lost = 1.0 - covered as f64 / sz as f64;
                loss.set(f, frac_lost);
                if frac_lost > 0.999 {
                    dropped += 1;
                    if !seg.gop.dependents[f].is_empty() {
                        ref_dropped += 1;
                    }
                }
                off += sz;
            }
            rec.frames_dropped = dropped;
            rec.referenced_dropped = ref_dropped;
            rec.scores = Some(self.qoe.eval(seg, rec.level, &loss));
            if self.tracer.enabled() && rec.play_start != SimTime::MAX {
                self.tracer.count("player.segments_played", 1);
                self.tracer
                    .count("player.frames_dropped", u64::from(dropped));
                trace_event!(
                    self.tracer,
                    rec.play_start,
                    Layer::Player,
                    "segment_play",
                    "seg" = rec.seg,
                    "level" = rec.level.index(),
                    "ssim" = rec.scores.as_ref().map_or(f64::NAN, |s| s.ssim),
                    "dropped" = u64::from(dropped),
                    "ref_dropped" = u64::from(ref_dropped),
                );
            }
        }
    }

    fn maybe_done(&mut self, now: SimTime) {
        if self.next_segment >= self.manifest.num_segments()
            && self.dl.is_none()
            && self.play_started
            && now >= self.play_end
            && self.frozen == self.records.len()
        {
            self.phase = Phase::Done;
        }
    }

    /// Build the trial result (consumes the client). `now` is the sim end.
    pub(crate) fn into_result(mut self, now: SimTime) -> TrialResult {
        // Force-freeze anything pending (e.g. when the session hit the
        // simulation cap).
        self.freeze_due_segments(SimTime::MAX);
        let mut segment_kbps = Vec::new();
        let mut scores = Vec::new();
        let mut bytes_skipped = 0u64;
        let mut bytes_full = 0u64;
        let mut frames_dropped = 0u32;
        let mut ref_dropped = 0u32;
        let mut segs_with_drops = 0u32;
        for rec in &self.records {
            let entry = self.manifest.entry(rec.seg, rec.level);
            let delivered = entry.reliable_size + rec.received.covered_len();
            segment_kbps.push(delivered as f64 * 8.0 / SEGMENT_DURATION_S / 1e3);
            #[expect(
                clippy::expect_used,
                reason = "finish() freezes every record before aggregation"
            )]
            scores.push(rec.scores.expect("frozen"));
            bytes_full += entry.total_bytes();
            bytes_skipped += entry.total_bytes().saturating_sub(delivered);
            frames_dropped += rec.frames_dropped;
            ref_dropped += rec.referenced_dropped;
            if rec.frames_dropped > 0 {
                segs_with_drops += 1;
            }
        }
        let duration_s = self.manifest.num_segments() as f64 * SEGMENT_DURATION_S;
        let _ = now;
        TrialResult {
            video: self.manifest.video_id.short_name(),
            abr: self.abr.name().to_string(),
            stall_s: self.total_stall.as_secs_f64(),
            duration_s,
            startup_s: self.startup_at.map(|t| t.as_secs_f64()).unwrap_or(0.0),
            segment_kbps,
            segment_scores: scores,
            bytes_downloaded: self.stats.bytes_downloaded,
            bytes_wasted: self.stats.bytes_wasted,
            bytes_skipped,
            bytes_full,
            restarts: self.stats.restarts,
            kept_partials: self.stats.kept_partials,
            bytes_lost: self.stats.bytes_lost,
            bytes_recovered: self.stats.bytes_recovered,
            segments_with_drops: segs_with_drops,
            frames_dropped,
            referenced_frames_dropped: ref_dropped,
            transport: crate::metrics::TransportStats::default(),
            metrics: None,
            completed: self.phase == Phase::Done,
        }
    }
}

/// Build an [`AbrContext`] from disjoint borrows of the client's fields
/// (the ABR itself is borrowed mutably at the call sites).
fn make_ctx<'a>(
    manifest: &'a Manifest,
    buffer_s: f64,
    capacity_s: f64,
    estimator: &ThroughputEstimator,
    last_level: Option<QualityLevel>,
    seg: usize,
    rebuffering: bool,
) -> AbrContext<'a> {
    AbrContext {
        segment_index: seg.min(manifest.num_segments() - 1),
        buffer_s,
        buffer_capacity_s: capacity_s,
        throughput_bps: estimator.estimate_bps(),
        conservative_throughput_bps: estimator.conservative_bps(),
        last_level,
        manifest,
        rebuffering,
    }
}

/// The byte count of a stream that has fully arrived, `None` until then.
/// Nothing reads a manifest's or a head's bytes, so the chunks the stream
/// buffered are released here rather than held for the whole session.
fn drain_if_complete(conn: &mut Connection, id: StreamId) -> Option<u64> {
    let rs = conn.recv_stream(id).filter(|rs| rs.is_complete())?;
    rs.take_received().for_each(drop);
    Some(rs.bytes_received())
}

/// Map a received chunk of a multi-range response back to body offsets.
///
/// The response body is the concatenation of the requested (inclusive)
/// ranges; a received `[resp_off, resp_off+len)` window may span several.
fn map_response_to_body(ranges: &[(u64, u64)], resp_off: u64, len: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut cursor = 0u64; // response offset at the start of each range
    let resp_end = resp_off + len;
    for &(s, e) in ranges {
        let rlen = e - s + 1;
        let rstart = cursor;
        let rend = cursor + rlen;
        let lo = resp_off.max(rstart);
        let hi = resp_end.min(rend);
        if lo < hi {
            out.push((s + (lo - rstart), s + (hi - rstart)));
        }
        cursor = rend;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_mapping_identity_for_single_prefix_range() {
        let m = map_response_to_body(&[(0, 999)], 100, 200);
        assert_eq!(m, vec![(100, 300)]);
    }

    #[test]
    fn response_mapping_spans_multiple_ranges() {
        // Ranges 100-199 and 500-599 → response offsets 0-99 and 100-199.
        let ranges = [(100, 199), (500, 599)];
        let m = map_response_to_body(&ranges, 50, 100);
        assert_eq!(m, vec![(150, 200), (500, 550)]);
        // Fully inside the second range.
        let m2 = map_response_to_body(&ranges, 120, 30);
        assert_eq!(m2, vec![(520, 550)]);
    }

    #[test]
    fn response_mapping_clamps_to_requested() {
        let ranges = [(0, 9)];
        let m = map_response_to_body(&ranges, 0, 10);
        assert_eq!(m, vec![(0, 10)]);
        assert!(map_response_to_body(&ranges, 10, 5).is_empty());
    }

    #[test]
    fn player_config_capacity() {
        let c = PlayerConfig::new(7, TransportMode::Split);
        assert_eq!(c.capacity_s(), 28.0);
        assert!(c.selective_retx);
        let r = PlayerConfig::new(1, TransportMode::Reliable);
        assert!(!r.selective_retx);
    }
}

#[cfg(test)]
mod live_tests {
    use super::*;

    #[test]
    fn live_config_builder() {
        let c = PlayerConfig::new(1, TransportMode::Split).live();
        assert!(c.live);
        assert!(!PlayerConfig::new(1, TransportMode::Split).live);
    }
}
