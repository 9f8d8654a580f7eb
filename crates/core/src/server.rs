//! The VOXEL video server.
//!
//! Serves three kinds of resources over QUIC\* streams:
//!
//! - `/manifest` — the extended DASH manifest (reliable),
//! - `/seg/{i}/{q}/head` — a segment's reliable part: I-frame + all frame
//!   headers (always a reliable stream),
//! - `/seg/{i}/{q}/body` — the remaining frame payloads in download order;
//!   delivered on an **unreliable** stream iff the request carries
//!   `x-voxel-unreliable` *and* the server is VOXEL-aware, otherwise on a
//!   reliable stream (backward compatibility, §4.2: "a VOXEL-unaware server
//!   ignores the header and opens reliable streams only").
//!
//! Replies travel on the same stream id that carried the request
//! (bidirectional-stream HTTP semantics). Reliable replies carry an HTTP
//! header; unreliable replies are headerless — the client issued an exact
//! Range request and knows precisely what to expect, so a losable header
//! would add nothing but a failure mode.

use crate::content::ObjectKind;
use std::collections::BTreeMap;
use voxel_http::{Request, Response};
use voxel_media::ladder::QualityLevel;
use voxel_prep::manifest::Manifest;
use voxel_quic::{Connection, Event, Reliability, StreamId};
use voxel_sim::SimTime;
use voxel_trace::Tracer;

/// One response the server resolved, recorded for the fleet's edge
/// serving tier (DESIGN.md §16). Notes identify the object (segment,
/// level, kind) and how many payload bytes the response carried, so an
/// edge cache sitting in front of this server can account hits, misses,
/// and origin fetches without re-parsing requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeNote {
    /// Segment index (0 for the manifest).
    pub seg: u32,
    /// Quality level index (0 for the manifest).
    pub level: u8,
    /// Object kind (manifest / reliable head / unreliable-tail body).
    pub kind: ObjectKind,
    /// Whether this was a partial (ranged) body response — a selective
    /// retransmission or prefix fetch, never admitted by an edge cache.
    pub partial: bool,
    /// Payload bytes the response carried.
    pub bytes: u64,
}

/// Server-side application state.
pub struct ServerApp {
    manifest: std::sync::Arc<Manifest>,
    /// Whether this server understands `x-voxel-unreliable`.
    pub voxel_aware: bool,
    /// Request bytes accumulating per stream.
    inbox: BTreeMap<StreamId, Vec<u8>>,
    /// Count of requests served, by kind (for tests/stats).
    pub served_heads: u64,
    /// Body requests served.
    pub served_bodies: u64,
    /// Range re-requests served (selective retransmission).
    pub served_retx: u64,
    /// Serve-note recording (off by default; the fleet's edge tier turns
    /// it on so plain sessions pay nothing).
    record_notes: bool,
    notes: Vec<ServeNote>,
    tracer: Tracer,
}

impl ServerApp {
    /// A server for one video's manifest.
    pub fn new(manifest: std::sync::Arc<Manifest>, voxel_aware: bool) -> ServerApp {
        ServerApp {
            manifest,
            voxel_aware,
            inbox: BTreeMap::new(),
            served_heads: 0,
            served_bodies: 0,
            served_retx: 0,
            record_notes: false,
            notes: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Install a tracer (shared with the rest of the session).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Turn serve-note recording on or off (see [`ServeNote`]).
    pub fn record_serve_notes(&mut self, on: bool) {
        self.record_notes = on;
    }

    /// Drain the notes recorded since the last call, in serve order.
    pub fn take_serve_notes(&mut self) -> Vec<ServeNote> {
        std::mem::take(&mut self.notes)
    }

    /// Pump the server side: consume connection events, parse requests, and
    /// write responses back into `conn`. `now` is the current sim time,
    /// used only to timestamp trace events.
    pub fn handle(&mut self, now: SimTime, conn: &mut Connection) {
        while let Some(ev) = conn.poll_event() {
            match ev {
                Event::StreamOpened(..) | Event::StreamFinished(_) | Event::StreamReset(_) => {}
                Event::StreamReadable(id) => {
                    // Requests are small; read whatever is in order.
                    let buf = self.inbox.entry(id).or_default();
                    if let Some(rs) = conn.recv_stream(id) {
                        while let Some(chunk) = rs.read() {
                            buf.extend_from_slice(&chunk);
                        }
                    }
                    if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                        if let Some(req) =
                            self.inbox.remove(&id).and_then(|raw| Request::decode(&raw))
                        {
                            self.respond(now, conn, id, &req);
                        }
                    }
                }
                Event::UnreliableLoss { .. } | Event::Closed { .. } => {}
            }
        }
    }

    fn respond(&mut self, now: SimTime, conn: &mut Connection, id: StreamId, req: &Request) {
        let (len, unreliable) = match self.resolve(req) {
            Some(x) => x,
            None => {
                conn.open_reply_stream(id, Reliability::Reliable);
                let resp = Response::error(voxel_http::StatusCode::NotFound);
                voxel_http::trace::trace_response(&self.tracer, now, id.0, &resp, 0, false);
                conn.send(id, &resp.encode());
                conn.finish(id);
                return;
            }
        };
        // Body replies are headerless on BOTH stream classes: the client's
        // exact Range request already determines the payload byte-for-byte,
        // so stream offsets map 1:1 to body offsets regardless of which
        // transport served them (see module docs).
        let headerless = req.path.ends_with("/body");
        let reliability = if unreliable {
            Reliability::Unreliable
        } else {
            Reliability::Reliable
        };
        conn.open_reply_stream(id, reliability);
        if !headerless {
            let resp = if req.ranges.is_empty() {
                Response::ok(len)
            } else {
                Response::partial(req.ranges.clone())
            };
            voxel_http::trace::trace_response(&self.tracer, now, id.0, &resp, len, unreliable);
            conn.send(id, &resp.encode());
        } else if self.tracer.enabled() {
            // Headerless body replies still count as served responses.
            let status = if req.ranges.is_empty() {
                Response::ok(len)
            } else {
                Response::partial(req.ranges.clone())
            };
            voxel_http::trace::trace_response(&self.tracer, now, id.0, &status, len, unreliable);
        }
        conn.send_zeros(id, len);
        conn.finish(id);
    }

    /// Record a serve note, if recording is on.
    fn note(&mut self, seg: u32, level: u8, kind: ObjectKind, partial: bool, bytes: u64) {
        if self.record_notes {
            self.notes.push(ServeNote {
                seg,
                level,
                kind,
                partial,
                bytes,
            });
        }
    }

    /// Resolve a request path to (body length, deliver-unreliably).
    fn resolve(&mut self, req: &Request) -> Option<(u64, bool)> {
        let unreliable = req.unreliable && self.voxel_aware;
        if req.path == "/manifest" {
            let bytes = self.manifest.size_bytes() as u64;
            self.note(0, 0, ObjectKind::Manifest, false, bytes);
            return Some((bytes, false));
        }
        let mut parts = req.path.strip_prefix("/seg/")?.split('/');
        let seg: usize = parts.next()?.parse().ok()?;
        let q: usize = parts.next()?.parse().ok()?;
        let kind = parts.next()?;
        if seg >= self.manifest.num_segments() {
            return None;
        }
        let level = QualityLevel::try_from(q).ok()?;
        let entry = self.manifest.entry(seg, level);
        match kind {
            "head" => {
                self.served_heads += 1;
                // The head is always reliable, whatever the header says.
                let len = entry.reliable_size;
                self.note(seg as u32, q as u8, ObjectKind::Head, false, len);
                Some((len, false))
            }
            "body" => {
                let body_full = entry.total_bytes() - entry.reliable_size;
                let len = if req.ranges.is_empty() {
                    body_full
                } else {
                    // Validate ranges against the body length.
                    if req.ranges.iter().any(|&(_, e)| e >= body_full) {
                        return None;
                    }
                    if req.ranges.len() > 1 || req.ranges[0].0 != 0 {
                        self.served_retx += 1;
                    }
                    req.range_bytes()
                };
                self.served_bodies += 1;
                self.note(
                    seg as u32,
                    q as u8,
                    ObjectKind::Body,
                    !req.ranges.is_empty(),
                    len,
                );
                Some((len, unreliable))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use voxel_media::content::VideoId;
    use voxel_media::qoe::QoeModel;
    use voxel_media::video::Video;
    use voxel_quic::Role;
    use voxel_sim::SimTime;

    fn server() -> (ServerApp, Arc<Manifest>) {
        let video = Video::generate(VideoId::Bbb);
        let manifest = Arc::new(Manifest::prepare_levels(
            &video,
            &QoeModel::default(),
            &[QualityLevel::MAX],
        ));
        (ServerApp::new(manifest.clone(), true), manifest)
    }

    /// Run one request through server logic directly (no network).
    fn resolve(app: &mut ServerApp, req: Request) -> Option<(u64, bool)> {
        app.resolve(&req)
    }

    #[test]
    fn manifest_resolves_reliable() {
        let (mut app, m) = server();
        let (len, unrel) = resolve(&mut app, Request::get("/manifest")).unwrap();
        assert_eq!(len, m.size_bytes() as u64);
        assert!(!unrel);
    }

    #[test]
    fn unreliable_header_on_reliable_only_resources_is_ignored() {
        // `x-voxel-unreliable` is advisory: the manifest and segment heads
        // are reliable-only resources, so even a VOXEL-aware server serves
        // them reliably (and still serves them — no error).
        let (mut app, m) = server();
        let (len, unrel) = resolve(&mut app, Request::get("/manifest").with_unreliable()).unwrap();
        assert_eq!(len, m.size_bytes() as u64);
        assert!(!unrel, "manifest never goes unreliable");
        // A ranged head request with the header set: same story.
        let req = Request::get("/seg/0/12/head")
            .with_unreliable()
            .with_range(0, 9);
        let (_, unrel) = resolve(&mut app, req).unwrap();
        assert!(!unrel, "heads never go unreliable");
    }

    #[test]
    fn head_is_always_reliable() {
        let (mut app, m) = server();
        let req = Request::get("/seg/3/12/head").with_unreliable();
        let (len, unrel) = resolve(&mut app, req).unwrap();
        assert_eq!(len, m.entry(3, QualityLevel::MAX).reliable_size);
        assert!(!unrel, "heads never go unreliable");
        assert_eq!(app.served_heads, 1);
    }

    #[test]
    fn body_honours_unreliable_header_when_aware() {
        let (mut app, m) = server();
        let e = m.entry(3, QualityLevel::MAX);
        let body = e.total_bytes() - e.reliable_size;
        let req = Request::get("/seg/3/12/body").with_unreliable();
        let (len, unrel) = resolve(&mut app, req).unwrap();
        assert_eq!(len, body);
        assert!(unrel);
    }

    #[test]
    fn voxel_unaware_server_ignores_the_header() {
        let (mut app, _) = server();
        app.voxel_aware = false;
        let req = Request::get("/seg/3/12/body").with_unreliable();
        let (_, unrel) = resolve(&mut app, req).unwrap();
        assert!(!unrel, "unaware server replies reliably");
    }

    #[test]
    fn body_range_requests_and_retx_counting() {
        let (mut app, _) = server();
        // Prefix range: a partial-target fetch, not a retransmission.
        let (len, _) =
            resolve(&mut app, Request::get("/seg/0/12/body").with_range(0, 999)).unwrap();
        assert_eq!(len, 1000);
        assert_eq!(app.served_retx, 0);
        // Mid-stream ranges: selective retransmission.
        let (len, _) = resolve(
            &mut app,
            Request::get("/seg/0/12/body")
                .with_range(5000, 5999)
                .with_range(9000, 9099),
        )
        .unwrap();
        assert_eq!(len, 1100);
        assert_eq!(app.served_retx, 1);
    }

    #[test]
    fn invalid_paths_and_ranges_rejected() {
        let (mut app, m) = server();
        assert!(resolve(&mut app, Request::get("/nope")).is_none());
        assert!(resolve(&mut app, Request::get("/seg/999/12/body")).is_none());
        assert!(resolve(&mut app, Request::get("/seg/0/13/body")).is_none());
        assert!(resolve(&mut app, Request::get("/seg/0/12/tail")).is_none());
        let e = m.entry(0, QualityLevel::MAX);
        let too_far = e.total_bytes(); // beyond the body
        assert!(resolve(
            &mut app,
            Request::get("/seg/0/12/body").with_range(0, too_far)
        )
        .is_none());
    }

    #[test]
    fn serve_notes_record_objects_when_enabled() {
        let (mut app, m) = server();
        // Off by default: no notes accumulate.
        resolve(&mut app, Request::get("/manifest"));
        assert!(app.take_serve_notes().is_empty());
        app.record_serve_notes(true);
        resolve(&mut app, Request::get("/manifest")).unwrap();
        resolve(&mut app, Request::get("/seg/3/12/head")).unwrap();
        resolve(&mut app, Request::get("/seg/3/12/body").with_unreliable()).unwrap();
        resolve(
            &mut app,
            Request::get("/seg/3/12/body").with_range(5000, 5999),
        )
        .unwrap();
        // Failed resolves leave no note.
        assert!(resolve(&mut app, Request::get("/seg/999/12/head")).is_none());
        let notes = app.take_serve_notes();
        assert_eq!(notes.len(), 4);
        assert_eq!(notes[0].kind, ObjectKind::Manifest);
        assert_eq!(
            (
                notes[1].seg,
                notes[1].level,
                notes[1].kind,
                notes[1].partial
            ),
            (3, 12, ObjectKind::Head, false)
        );
        let e = m.entry(3, QualityLevel::MAX);
        assert_eq!(notes[2].bytes, e.total_bytes() - e.reliable_size);
        assert!(!notes[2].partial, "full body is not a partial response");
        assert!(notes[3].partial, "ranged body is partial");
        assert_eq!(notes[3].bytes, 1000);
        assert!(app.take_serve_notes().is_empty(), "take drains");
    }

    #[test]
    fn end_to_end_request_over_connections() {
        let (mut app, m) = server();
        let mut client = Connection::with_defaults(Role::Client);
        let mut server_conn = Connection::with_defaults(Role::Server);
        let sid = client.open_stream(Reliability::Reliable);
        client.send(sid, &Request::get("/manifest").encode());
        client.finish(sid);

        // Shuttle datagrams directly (no loss, no delay).
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            now += voxel_sim::SimDuration::from_millis(30);
            let mut moved = false;
            while let Some(p) = client.poll_transmit(now) {
                server_conn.on_datagram(now, p.encode());
                moved = true;
            }
            app.handle(now, &mut server_conn);
            while let Some(p) = server_conn.poll_transmit(now) {
                client.on_datagram(now, p.encode());
                moved = true;
            }
            if !moved && client.recv_stream(sid).is_some_and(|s| s.is_complete()) {
                break;
            }
        }
        let rs = client.recv_stream(sid).expect("reply stream");
        assert!(rs.is_complete());
        // Reply = HTTP header + manifest bytes.
        let total = rs.final_len().unwrap();
        assert!(total > m.size_bytes() as u64);
    }
}
