//! The spec language's shared head, and the fleet half of its grammar.
//!
//! Every tool in the workspace names a run with one `<spec>` string
//! (DESIGN.md §11 has the one grammar and token table). This module owns
//! the part both kinds of spec share — [`SpecHead`]: `<video>:<who>:<trace>`
//! plus the `buf<N>` / `q<N>` / `d<N>` knobs, validated once and reported
//! through one structured [`SpecError`] — and the fleet tail over it:
//! [`FleetSpec`] + [`TopologySpec`], the typed surface for "N sessions on
//! one link" (members, congestion control, discipline, stagger, cap, the
//! edge tier, workers). The scenario tail lives in `voxel-testkit`, next
//! to `Spec::parse`, which tells the two apart by the shape of `<who>`.
//!
//! The string form is a *serialization* of the typed surface:
//! [`FleetSpec`] implements [`std::str::FromStr`] and [`std::fmt::Display`]
//! as exact inverses (pinned by a parse↔display proptest).
//!
//! ```
//! use voxel_fleet::{FleetSpec, Routing};
//! use voxel_media::content::VideoId;
//!
//! let spec: FleetSpec = "BBB:4xVOXEL+2xBOLA:const6:stg2:e4:rhash:o50".parse().unwrap();
//! assert_eq!((spec.video, spec.total_sessions(), spec.stagger_s), (VideoId::Bbb, 6, 2));
//! assert_eq!(spec.edge.as_ref().map(|t| t.routing), Some(Routing::Hash));
//! assert_eq!(spec.to_string().parse::<FleetSpec>().unwrap(), spec);
//! ```
//!
//! This module also owns the system legend table ([`systems`],
//! [`system_by_name`]); videos and traces are named by the crates that
//! own them (`VideoId::by_name`, `TraceFamily::parse`).

use std::fmt;
use voxel_core::client::TransportMode;
use voxel_core::{AbrKind, Admission, CacheConfig, EvictionPolicy};
use voxel_media::content::VideoId;
use voxel_media::qoe::QoeMetric;
use voxel_netem::family::positive_mbps;
use voxel_netem::{BandwidthTrace, Discipline, TraceFamily};
use voxel_quic::CcKind;

/// The §5 system legend, in figure order: name, ABR, transport. The one
/// table every spec, bin and usage string reads. A variant that differs
/// from a row in one knob is a row of its own, so that one configuration
/// has one spelling: an unmodified ABR over QUIC\* (`-Q*`, Fig 3 and 5)
/// and VOXEL maximising another utility (Fig 7a).
pub fn systems() -> [(&'static str, AbrKind, TransportMode); 13] {
    let voxel = |metric| AbrKind::Voxel {
        safety: 1.0,
        metric,
    };
    [
        ("BOLA", AbrKind::Bola, TransportMode::Reliable),
        ("BOLA-Q*", AbrKind::Bola, TransportMode::Split),
        ("BOLA-SSIM", AbrKind::BolaSsim, TransportMode::Split),
        ("MPC", AbrKind::Mpc, TransportMode::Reliable),
        ("MPC-Q*", AbrKind::Mpc, TransportMode::Split),
        ("MPC*", AbrKind::MpcStar, TransportMode::Split),
        ("Tput", AbrKind::Tput, TransportMode::Reliable),
        ("BETA", AbrKind::Beta, TransportMode::Reliable),
        ("VOXEL", AbrKind::voxel(), TransportMode::Split),
        ("VOXEL-tuned", AbrKind::voxel_tuned(), TransportMode::Split),
        ("VOXEL-rel", AbrKind::voxel(), TransportMode::Reliable),
        ("VOXEL-VMAF", voxel(QoeMetric::Vmaf), TransportMode::Split),
        ("VOXEL-PSNR", voxel(QoeMetric::Psnr), TransportMode::Split),
    ]
}

/// Resolve a system legend name to its ABR + transport.
pub fn system_by_name(system: &str) -> Option<(AbrKind, TransportMode)> {
    systems()
        .into_iter()
        .find(|(name, ..)| *name == system)
        .map(|(_, abr, transport)| (abr, transport))
}

fn expected_video() -> String {
    let names: Vec<String> = VideoId::all().iter().map(|v| v.short_name()).collect();
    format!("a video legend name ({})", names.join("|"))
}

fn expected_system() -> String {
    format!(
        "a system legend name ({})",
        systems().map(|(name, ..)| name).join("|")
    )
}

/// A structured spec parse error, shared by scenario and fleet specs: the
/// offending token, its colon-separated position in the spec string, and
/// the set of inputs that would have been accepted there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The token (or token fragment) that failed to parse.
    pub token: String,
    /// Colon-separated token index the error occurred at.
    pub pos: usize,
    /// What would have been valid in its place.
    pub expected: String,
}

impl SpecError {
    /// An error at colon-separated position `pos`.
    pub fn new(token: impl Into<String>, pos: usize, expected: impl Into<String>) -> SpecError {
        SpecError {
            token: token.into(),
            pos,
            expected: expected.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spec: bad token {:?} at position {}: expected {}",
            self.token, self.pos, self.expected
        )
    }
}

impl std::error::Error for SpecError {}

/// Lets spec parsing use `?` inside the `Result<_, String>` functions
/// the runners and bins are written in.
impl From<SpecError> for String {
    fn from(e: SpecError) -> String {
        e.to_string()
    }
}

/// Parse a count of at least `min`.
fn at_least(v: &str, min: usize) -> Option<usize> {
    v.parse().ok().filter(|n| *n >= min)
}

/// The head every spec shares — `<video>:<who>:<trace>` and the
/// `buf<N>` / `q<N>` / `d<N>` knobs — parsed and validated in one place.
/// [`FleetSpec::parse`] and the testkit's `Scenario::parse` are thin
/// tails over it: each walks the remaining tokens, claims its own, and
/// offers the rest to [`SpecHead::knob`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpecHead<'a> {
    /// The video to stream.
    pub video: VideoId,
    /// The raw `<who>` token: a system legend name with an optional
    /// controller (`VOXEL@delay`, a scenario) or a member list
    /// (`4xVOXEL@bbr+2xBOLA`, a fleet); [`SpecHead::system`] splits both.
    pub who: &'a str,
    /// The bandwidth trace family.
    pub trace: TraceFamily,
    /// Playback buffer capacity, segments (`buf<N>`, default 3).
    pub buffer_segments: usize,
    /// Droptail queue length, packets (`q<N>`; the default is the tail's).
    pub queue_packets: usize,
    /// Trace duration, seconds (`d<N>`, default 300).
    pub duration_s: usize,
}

impl<'a> SpecHead<'a> {
    /// Parse the three leading tokens of `spec`; returns the head (knobs
    /// at their defaults, the queue at `queue_default`) and the remaining
    /// `(position, token)` pairs for the tail to walk.
    pub fn parse(
        spec: &'a str,
        queue_default: usize,
    ) -> Result<(SpecHead<'a>, impl Iterator<Item = (usize, &'a str)>), SpecError> {
        let mut parts = spec.split(':').enumerate();
        // A present-but-empty token is its own error; a missing one is
        // reported against the last token that is there, so `pos` always
        // indexes the input.
        let mut last = (0, "");
        let mut next = |expected: &dyn Fn() -> String| match parts.next() {
            Some((pos, tok)) if !tok.is_empty() => {
                last = (pos, tok);
                Ok(tok)
            }
            Some((pos, tok)) => Err(SpecError::new(tok, pos, expected())),
            None => Err(SpecError::new(
                last.1,
                last.0,
                format!("{} after it", expected()),
            )),
        };
        let video_tok = next(&expected_video)?;
        let video = VideoId::by_name(video_tok)
            .ok_or_else(|| SpecError::new(video_tok, 0, expected_video()))?;
        let who = next(&|| {
            format!(
                "{}[@<cc>] or a member list (<count>x<system>[@<cc>][+…])",
                expected_system()
            )
        })?;
        let trace_tok = next(&|| format!("a trace family ({})", TraceFamily::menu()))?;
        let trace =
            TraceFamily::parse(trace_tok).map_err(|want| SpecError::new(trace_tok, 2, want))?;
        let head = SpecHead {
            video,
            who,
            trace,
            buffer_segments: 3,
            queue_packets: queue_default,
            duration_s: 300,
        };
        Ok((head, parts))
    }

    /// Offer `tok` to the shared knobs. `Ok(true)`: it was `buf<N>`,
    /// `q<N>` or `d<N>` and is now applied; `Ok(false)`: not a shared
    /// knob. A zero buffer or duration is rejected here, for both kinds:
    /// neither can play a segment.
    pub fn knob(&mut self, pos: usize, tok: &str) -> Result<bool, SpecError> {
        let (slot, value, min, expected) = if let Some(v) = tok.strip_prefix("buf") {
            (
                &mut self.buffer_segments,
                v,
                1,
                "a segment count of at least 1 in buf<N>",
            )
        } else if let Some(v) = tok.strip_prefix('q') {
            (&mut self.queue_packets, v, 0, "a packet count in q<N>")
        } else if let Some(v) = tok.strip_prefix('d') {
            (&mut self.duration_s, v, 1, "at least 1 second in d<N>")
        } else {
            return Ok(false);
        };
        *slot = at_least(value, min).ok_or_else(|| SpecError::new(tok, pos, expected))?;
        Ok(true)
    }

    /// Split a `<system>[@<cc>]` token — a scenario's `<who>`, or one
    /// fleet member group after its count — and validate both halves.
    pub fn system(tok: &str) -> Result<(&str, Option<CcKind>), SpecError> {
        let (name, cc) = match tok.split_once('@') {
            Some((name, cc)) => {
                let kind = CcKind::by_name(cc)
                    .ok_or_else(|| SpecError::new(cc, 1, "a cc in cubic|delay|bbr"))?;
                (name, Some(kind))
            }
            None => (tok, None),
        };
        system_by_name(name).ok_or_else(|| SpecError::new(name, 1, expected_system()))?;
        Ok((name, cc))
    }
}

/// How sessions are routed to edge servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// Consistent hash on the session's [`VideoId`] — all viewers of one
    /// video land on the same edge, maximizing overlap.
    #[default]
    Hash,
    /// Round robin by flow id, ignoring content.
    Robin,
    /// Least-loaded: each session joins the edge with the fewest
    /// sessions assigned so far (ties to the lowest edge id).
    Least,
}

impl Routing {
    /// Stable spec-grammar name (`hash` | `robin` | `least`).
    pub fn as_str(self) -> &'static str {
        match self {
            Routing::Hash => "hash",
            Routing::Robin => "robin",
            Routing::Least => "least",
        }
    }

    /// Inverse of [`Routing::as_str`].
    pub fn by_name(name: &str) -> Option<Routing> {
        Some(match name {
            "hash" => Routing::Hash,
            "robin" => Routing::Robin,
            "least" => Routing::Least,
            _ => return None,
        })
    }
}

/// The edge serving tier of a fleet (DESIGN.md §16): `edges` edge servers
/// in front of one shared origin, a routing policy assigning sessions to
/// edges, and a per-edge byte-budgeted cache with byte-range-aware
/// admission. Spelled in a fleet spec's `e<M>` token group:
///
/// ```
/// use voxel_core::{Admission, EvictionPolicy};
/// use voxel_fleet::{FleetSpec, Routing};
///
/// let spec = FleetSpec::parse("BBB:8xVOXEL:const12:e4:rrobin:arel:plfu:cb64:o50").unwrap();
/// let t = spec.edge.unwrap();
/// assert_eq!((t.edges, t.routing, t.cache_mb), (4, Routing::Robin, Some(64.0)));
/// assert_eq!((t.admission, t.eviction), (Admission::ReliablePrefix, EvictionPolicy::Lfu));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// Number of edge servers.
    pub edges: usize,
    /// Session → edge routing policy.
    pub routing: Routing,
    /// Cache admission mode over VOXEL's reliable/unreliable ranges.
    pub admission: Admission,
    /// Cache eviction policy under the byte budget.
    pub eviction: EvictionPolicy,
    /// Per-edge cache byte budget in MB; `None` is unbounded.
    pub cache_mb: Option<f64>,
    /// Origin backhaul rate, Mbit/s (every edge's misses share it).
    pub origin_mbps: f64,
}

impl Default for TopologySpec {
    fn default() -> TopologySpec {
        TopologySpec::new(1)
    }
}

impl TopologySpec {
    /// An edge tier of `edges` servers with the workspace defaults:
    /// consistent-hash routing, full admission, LRU eviction, an
    /// unbounded cache, and a 100 Mbit/s origin backhaul.
    pub fn new(edges: usize) -> TopologySpec {
        TopologySpec {
            edges: edges.max(1),
            routing: Routing::Hash,
            admission: Admission::Full,
            eviction: EvictionPolicy::Lru,
            cache_mb: None,
            origin_mbps: 100.0,
        }
    }

    /// The byte budget, in bytes.
    fn cache_budget_bytes(&self) -> Option<u64> {
        self.cache_mb.map(|mb| (mb * (1 << 20) as f64) as u64)
    }

    /// The per-edge [`CacheConfig`] this topology implies.
    pub(crate) fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            levels: None,
            byte_budget: self.cache_budget_bytes(),
            eviction: self.eviction,
            admission: self.admission,
        }
    }
}

/// One homogeneous group of fleet members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetMember {
    /// Number of sessions in the group.
    pub count: usize,
    /// System legend name (validated against [`system_by_name`]).
    pub system: String,
    /// Congestion controller from the `@<cc>` suffix; `None` (no suffix)
    /// runs the workspace default, CUBIC.
    pub cc: Option<CcKind>,
}

impl FleetMember {
    /// The controller this group actually runs.
    pub fn cc_kind(&self) -> CcKind {
        self.cc.unwrap_or(CcKind::Cubic)
    }

    /// The member's display label: the system name, plus the `@<cc>`
    /// suffix when one was spelled out (`VOXEL@bbr`). Used as the
    /// per-session system label in fleet traces and reports.
    pub fn label(&self) -> String {
        match self.cc {
            Some(cc) => format!("{}@{}", self.system, cc.name()),
            None => self.system.clone(),
        }
    }
}

/// A fully-specified fleet experiment. See the module docs for the
/// grammar; [`FleetSpec::default`] carries the workspace defaults
/// (`buf3:q64:d300:drr:stg0`, no edge tier).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// The video every session streams.
    pub video: VideoId,
    /// Member groups, in spec order. Session (= flow) ids number the
    /// expanded list: `4xVOXEL+2xBOLA` gives flows 0–3 VOXEL, 4–5 BOLA.
    pub members: Vec<FleetMember>,
    /// Shared link rate, Mbit/s (constant trace).
    pub link_mbps: f64,
    /// Trace duration, seconds.
    pub duration_s: usize,
    /// Per-session playback buffer capacity, segments.
    pub buffer_segments: usize,
    /// Shared droptail queue length, packets.
    pub queue_packets: usize,
    /// Link scheduling discipline.
    pub discipline: Discipline,
    /// Session `i` starts at `i * stagger_s` seconds (symmetry breaking).
    pub stagger_s: usize,
    /// Optional hard cap on simulated seconds (benchmark slices); `None`
    /// uses the session safety cap.
    pub cap_s: Option<usize>,
    /// The edge serving tier; `None` is the classic single-server fleet.
    pub edge: Option<TopologySpec>,
    /// Explicit shard worker count (`w<N>`); `None` defers to the
    /// `VOXEL_SHARD_WORKERS` environment variable via `resolve_workers`.
    pub workers: Option<usize>,
}

impl Default for FleetSpec {
    fn default() -> FleetSpec {
        FleetSpec {
            video: VideoId::Bbb,
            members: vec![FleetMember {
                count: 2,
                system: "VOXEL".into(),
                cc: None,
            }],
            link_mbps: 6.0,
            duration_s: 300,
            buffer_segments: 3,
            queue_packets: 64,
            discipline: Discipline::drr(),
            stagger_s: 0,
            cap_s: None,
            edge: None,
            workers: None,
        }
    }
}

/// Resolve a fleet's shard worker count: the spec's explicit `w<N>` token
/// when present, otherwise `env`, the value of the `VOXEL_SHARD_WORKERS`
/// environment variable (`max` = available parallelism, or a positive
/// integer), otherwise 1. Always clamped to `[1, sessions]`. Any other
/// `env` value is an error naming the variable and the value.
pub(crate) fn resolve_workers(
    explicit: Option<usize>,
    env: Option<&str>,
    sessions: usize,
) -> Result<usize, String> {
    let requested = match (explicit, env) {
        (Some(w), _) => w,
        (None, None) => 1,
        (None, Some("max")) => std::thread::available_parallelism().map_or(1, |p| p.get()),
        (None, Some(v)) => v.parse().ok().filter(|&w| w >= 1).ok_or_else(|| {
            format!("VOXEL_SHARD_WORKERS={v:?} is neither max nor a positive integer")
        })?,
    };
    Ok(requested.clamp(1, sessions.max(1)))
}

impl FleetSpec {
    /// The edge tier an `r`/`a`/`p`/`cb`/`o` token configures: those
    /// tokens require the `e<M>` token first.
    fn edge_mut(&mut self, tok: &str, pos: usize) -> Result<&mut TopologySpec, SpecError> {
        self.edge
            .as_mut()
            .ok_or_else(|| SpecError::new(tok, pos, "e<edges> before any r/a/p/cb/o edge token"))
    }

    /// Parse a spec string. Exact inverse of [`FleetSpec::spec`].
    pub fn parse(spec: &str) -> Result<FleetSpec, SpecError> {
        let defaults = FleetSpec::default();
        let (mut head, rest) = SpecHead::parse(spec, defaults.queue_packets)?;
        let mut members = Vec::new();
        for group in head.who.split('+') {
            let (count, system) = group.split_once('x').ok_or_else(|| {
                SpecError::new(group, 1, "a member group of the form <count>x<system>")
            })?;
            let count = at_least(count, 1).ok_or_else(|| {
                SpecError::new(group, 1, "a member count of at least 1 before 'x'")
            })?;
            let (system, cc) = SpecHead::system(system)?;
            members.push(FleetMember {
                count,
                system: system.to_string(),
                cc,
            });
        }
        // `link_mbps: f64` is the fleet's link today; widening it to every
        // family is ROADMAP 2(ii).
        let TraceFamily::Constant(link_mbps) = head.trace else {
            return Err(SpecError::new(
                spec.split(':').nth(2).unwrap_or_default(),
                2,
                "a constant link const<mbps> (fleet links take no other trace family yet)",
            ));
        };

        let mut out = FleetSpec {
            members,
            link_mbps,
            ..defaults
        };
        for (pos, tok) in rest {
            let bad = |expected: &str| SpecError::new(tok, pos, expected);
            // Literal discipline tokens first: `drr` must not be eaten by
            // the `d<duration>` prefix.
            if tok == "fifo" {
                out.discipline = Discipline::Fifo;
            } else if tok == "drr" {
                out.discipline = Discipline::drr();
            } else if let Some(v) = tok.strip_prefix("stg") {
                out.stagger_s = at_least(v, 0).ok_or_else(|| bad("seconds in stg<N>"))?;
            } else if let Some(v) = tok.strip_prefix("cb") {
                let mb = positive_mbps(v);
                out.edge_mut(tok, pos)?.cache_mb =
                    Some(mb.ok_or_else(|| bad("a finite cache budget above 0 in cb<MB>"))?);
            } else if let Some(v) = tok.strip_prefix("cap") {
                out.cap_s = Some(at_least(v, 0).ok_or_else(|| bad("seconds in cap<N>"))?);
            } else if head.knob(pos, tok)? {
                // buf<N> / q<N> / d<N>: the shared head's.
            } else if let Some(v) = tok.strip_prefix('e') {
                let edges =
                    at_least(v, 1).ok_or_else(|| bad("an edge count of at least 1 in e<M>"))?;
                out.edge = Some(TopologySpec::new(edges));
            } else if let Some(v) = tok.strip_prefix('r') {
                let routing = Routing::by_name(v);
                out.edge_mut(tok, pos)?.routing =
                    routing.ok_or_else(|| bad("a routing in r<hash|robin|least>"))?;
            } else if let Some(v) = tok.strip_prefix('a') {
                let admission = Admission::by_name(v);
                out.edge_mut(tok, pos)?.admission =
                    admission.ok_or_else(|| bad("an admission in a<full|rel|none>"))?;
            } else if let Some(v) = tok.strip_prefix('p') {
                let eviction = EvictionPolicy::by_name(v);
                out.edge_mut(tok, pos)?.eviction =
                    eviction.ok_or_else(|| bad("an eviction in p<lru|lfu>"))?;
            } else if let Some(v) = tok.strip_prefix('o') {
                let mbps = positive_mbps(v);
                out.edge_mut(tok, pos)?.origin_mbps =
                    mbps.ok_or_else(|| bad("a finite rate above 0 in o<mbps>"))?;
            } else if let Some(v) = tok.strip_prefix('w') {
                out.workers = Some(
                    at_least(v, 1).ok_or_else(|| bad("a worker count of at least 1 in w<N>"))?,
                );
            } else {
                return Err(bad(
                    "one of fifo|drr|buf<N>|q<N>|d<N>|stg<N>|cap<N>|e<M>|r<policy>|a<mode>|p<policy>|cb<MB>|o<mbps>|w<N>",
                ));
            }
        }
        out.video = head.video;
        out.buffer_segments = head.buffer_segments;
        out.queue_packets = head.queue_packets;
        out.duration_s = head.duration_s;
        Ok(out)
    }

    /// The canonical spec string (exact inverse of [`FleetSpec::parse`]).
    pub fn spec(&self) -> String {
        let members: Vec<String> = self
            .members
            .iter()
            .map(|m| format!("{}x{}", m.count, m.label()))
            .collect();
        let mut s = format!(
            "{}:{}:const{}:buf{}:q{}:d{}:{}:stg{}",
            self.video.short_name(),
            members.join("+"),
            self.link_mbps,
            self.buffer_segments,
            self.queue_packets,
            self.duration_s,
            self.discipline.as_str(),
            self.stagger_s,
        );
        if let Some(cap) = self.cap_s {
            s.push_str(&format!(":cap{cap}"));
        }
        if let Some(e) = &self.edge {
            s.push_str(&format!(
                ":e{}:r{}:a{}:p{}",
                e.edges,
                e.routing.as_str(),
                e.admission.as_str(),
                e.eviction.as_str(),
            ));
            if let Some(mb) = e.cache_mb {
                s.push_str(&format!(":cb{mb}"));
            }
            s.push_str(&format!(":o{}", e.origin_mbps));
        }
        if let Some(w) = self.workers {
            s.push_str(&format!(":w{w}"));
        }
        s
    }

    /// Total session count (expanded members).
    pub fn total_sessions(&self) -> usize {
        self.members.iter().map(|m| m.count).sum()
    }

    /// Expanded per-session member configs (the group each flow belongs
    /// to), in flow-id order — what the runtime needs to seed a session:
    /// system name, label, and congestion controller.
    pub fn session_members(&self) -> Vec<&FleetMember> {
        let mut out = Vec::with_capacity(self.total_sessions());
        for m in &self.members {
            for _ in 0..m.count {
                out.push(m);
            }
        }
        out
    }

    /// Whether every session runs the same system *and* the same
    /// congestion controller: `8xVOXEL@bbr` is homogeneous,
    /// `4xVOXEL@bbr+4xVOXEL@cubic` is a contention mix (and is held to
    /// the relaxed mixed-cc fairness band, not the homogeneous one).
    pub fn homogeneous(&self) -> bool {
        self.members
            .iter()
            .all(|m| m.system == self.members[0].system && m.cc_kind() == self.members[0].cc_kind())
    }

    /// The distinct congestion controllers in the fleet, in member order.
    pub fn cc_mix(&self) -> Vec<CcKind> {
        let mut out: Vec<CcKind> = Vec::new();
        for m in &self.members {
            if !out.contains(&m.cc_kind()) {
                out.push(m.cc_kind());
            }
        }
        out
    }

    /// The shared link's bandwidth trace.
    pub(crate) fn trace(&self) -> BandwidthTrace {
        BandwidthTrace::constant(self.link_mbps, self.duration_s)
    }
}

impl std::str::FromStr for FleetSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<FleetSpec, SpecError> {
        FleetSpec::parse(s)
    }
}

impl fmt::Display for FleetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_parse() {
        let spec = "BBB:4xVOXEL+2xBOLA+2xBETA:const6:buf3:q64:d300:drr:stg2";
        let s = FleetSpec::parse(spec).expect("parses");
        assert_eq!(s.spec(), spec);
        assert_eq!(FleetSpec::parse(&s.spec()).expect("re-parses"), s);
        assert_eq!(s.total_sessions(), 8);
        assert!(!s.homogeneous());

        let capped = "ToS:8xVOXEL:const12.5:buf1:q32:d120:fifo:stg0:cap60";
        let c = FleetSpec::parse(capped).expect("parses");
        assert_eq!(c.spec(), capped);
        assert_eq!(c.cap_s, Some(60));
        assert_eq!(c.discipline, Discipline::Fifo);
        assert!(c.homogeneous());

        let sharded = "BBB:8xVOXEL:const6:buf3:q64:d300:drr:stg2:cap60:w4";
        let w = FleetSpec::parse(sharded).expect("parses");
        assert_eq!(w.spec(), sharded);
        assert_eq!(w.workers, Some(4));
    }

    #[test]
    fn from_str_and_display_mirror_parse_and_spec() {
        let spec = "BBB:4xVOXEL+2xBOLA:const6:buf3:q64:d300:drr:stg2";
        let s: FleetSpec = spec.parse().expect("FromStr parses");
        assert_eq!(s.to_string(), spec);
        assert_eq!(s, FleetSpec::parse(spec).expect("parses"));
    }

    #[test]
    fn edge_tokens_round_trip_and_default() {
        // A bare `e` token takes the documented defaults and canonicalizes
        // with every edge knob spelled out (except the unbounded budget).
        let s = FleetSpec::parse("BBB:8xVOXEL:const12:e4").expect("parses");
        let t = s.edge.as_ref().expect("edge tier");
        assert_eq!(t.edges, 4);
        assert_eq!(t.routing, Routing::Hash);
        assert_eq!(t.admission, Admission::Full);
        assert_eq!(t.eviction, EvictionPolicy::Lru);
        assert_eq!(t.cache_mb, None);
        assert!((t.origin_mbps - 100.0).abs() < 1e-12);
        assert_eq!(
            s.spec(),
            "BBB:8xVOXEL:const12:buf3:q64:d300:drr:stg0:e4:rhash:afull:plru:o100"
        );
        assert_eq!(FleetSpec::parse(&s.spec()).expect("re-parses"), s);
        // Budgeted form keeps the cb token.
        let b = FleetSpec::parse("BBB:8xVOXEL:const12:e2:anone:cb0.5:o25").expect("parses");
        let t = b.edge.as_ref().expect("edge tier");
        assert_eq!(t.admission, Admission::None);
        assert_eq!(t.cache_budget_bytes(), Some(512 * 1024));
        assert_eq!(
            b.spec(),
            "BBB:8xVOXEL:const12:buf3:q64:d300:drr:stg0:e2:rhash:anone:plru:cb0.5:o25"
        );
    }

    #[test]
    fn edge_tokens_require_the_edge_count_first() {
        for bad in [
            "BBB:2xVOXEL:const6:rhash",
            "BBB:2xVOXEL:const6:afull",
            "BBB:2xVOXEL:const6:plru",
            "BBB:2xVOXEL:const6:cb64",
            "BBB:2xVOXEL:const6:o50",
            "BBB:2xVOXEL:const6:e0",
            "BBB:2xVOXEL:const6:e4:rwat",
            "BBB:2xVOXEL:const6:e4:awat",
            "BBB:2xVOXEL:const6:e4:pwat",
            "BBB:2xVOXEL:const6:e4:cbx",
            "BBB:2xVOXEL:const6:e4:ox",
        ] {
            assert!(FleetSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = FleetSpec::parse("BBB:2xVOXEL:const6:rhash").expect_err("rejects");
        assert!(err.expected.contains("e<edges>"), "error was {err}");
    }

    #[test]
    fn workers_token_parses_and_resolves() {
        // Canonical specs without a `w` token stay canonical (no `:w`).
        let s = FleetSpec::parse("BBB:2xVOXEL:const6").expect("parses");
        assert_eq!(s.workers, None);
        assert!(!s.spec().contains(":w"));
        // An explicit token wins over the environment and clamps to the
        // session count.
        assert_eq!(resolve_workers(Some(4), Some("two"), 8), Ok(4));
        assert_eq!(resolve_workers(Some(64), None, 8), Ok(8));
        assert_eq!(resolve_workers(Some(1), Some("max"), 8), Ok(1));
        for bad in ["BBB:2xVOXEL:const6:w0", "BBB:2xVOXEL:const6:wx"] {
            assert!(FleetSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// `VOXEL_SHARD_WORKERS` takes `max` or a positive integer (clamped
    /// like the token); anything else is an error naming it and its value.
    #[test]
    fn workers_variable_takes_max_or_a_positive_integer() {
        assert_eq!(resolve_workers(None, None, 8), Ok(1));
        assert_eq!(resolve_workers(None, Some("2"), 8), Ok(2));
        assert_eq!(resolve_workers(None, Some("64"), 8), Ok(8));
        let max = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(resolve_workers(None, Some("max"), 1024), Ok(max.min(1024)));
        for bad in ["two", "-1", "0", "", " 2", "2.0", "MAX"] {
            let err = resolve_workers(None, Some(bad), 8).expect_err(bad);
            assert!(
                err.contains("VOXEL_SHARD_WORKERS") && err.contains(&format!("{bad:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "BBB",
            "BBB:2xVOXEL",
            "NOPE:2xVOXEL:const6",
            "BBB:2xWAT:const6",
            "BBB:0xVOXEL:const6",
            "BBB:VOXEL:const6",
            "BBB:2xVOXEL:tmobile",
            "BBB:2xVOXEL:const6:wat9",
            "BBB:2xVOXEL@:const6",
            "BBB:2xWAT@bbr:const6",
        ] {
            assert!(FleetSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_errors_are_structured() {
        // Unknown token: names itself, its position, and the token menu.
        let err = FleetSpec::parse("BBB:2xVOXEL:const6:buf3:nope9").expect_err("rejects");
        assert_eq!(err.token, "nope9");
        assert_eq!(err.pos, 4);
        assert!(
            err.expected.contains("fifo|drr"),
            "expected = {}",
            err.expected
        );
        // Bad video: position 0.
        let err = FleetSpec::parse("NOPE:2xVOXEL:const6").expect_err("rejects");
        assert_eq!((err.token.as_str(), err.pos), ("NOPE", 0));
        // Bad trace: position 2.
        let err = FleetSpec::parse("BBB:2xVOXEL:tmobile").expect_err("rejects");
        assert_eq!((err.token.as_str(), err.pos), ("tmobile", 2));
        // Display carries all three parts.
        let msg = err.to_string();
        assert!(
            msg.contains("\"tmobile\"") && msg.contains("position 2"),
            "{msg}"
        );
    }

    #[test]
    fn cc_knob_round_trips_through_parse() {
        // Explicit suffixes survive verbatim — including a spelled-out
        // `@cubic`, which runs identically to no suffix but is its own
        // canonical form.
        for spec in [
            "BBB:8xVOXEL@bbr:const6:buf3:q64:d300:drr:stg2",
            "BBB:4xVOXEL@bbr+4xVOXEL@cubic:const6:buf3:q64:d300:fifo:stg2",
            "BBB:3xVOXEL@cubic+3xVOXEL@delay+2xVOXEL@bbr:const6:buf3:q64:d300:fifo:stg1",
            "BBB:2xBOLA@delay+2xVOXEL:const6:buf3:q64:d300:drr:stg0",
        ] {
            let s = FleetSpec::parse(spec).expect("parses");
            assert_eq!(s.spec(), spec, "canonical form drifted");
            assert_eq!(FleetSpec::parse(&s.spec()).expect("re-parses"), s);
        }
        let s = FleetSpec::parse("BBB:4xVOXEL@bbr+4xVOXEL@cubic:const6").expect("parses");
        assert_eq!(s.members[0].cc, Some(CcKind::Bbr));
        assert_eq!(s.members[1].cc, Some(CcKind::Cubic));
        assert_eq!(
            s.session_members()
                .iter()
                .map(|m| m.label())
                .collect::<Vec<_>>()[3..5],
            ["VOXEL@bbr".to_string(), "VOXEL@cubic".to_string()]
        );
        // No suffix means CUBIC but stays suffix-free in canonical form.
        let plain = FleetSpec::parse("BBB:2xVOXEL:const6").expect("parses");
        assert_eq!(plain.members[0].cc, None);
        assert_eq!(plain.members[0].cc_kind(), CcKind::Cubic);
        assert!(!plain.spec().contains('@'));
    }

    #[test]
    fn cc_knob_mix_and_homogeneity() {
        let homo = FleetSpec::parse("BBB:8xVOXEL@bbr:const6").expect("parses");
        assert!(homo.homogeneous());
        assert_eq!(homo.cc_mix(), [CcKind::Bbr]);
        // Same ABR, different cc: a contention mix, not homogeneous.
        let mix = FleetSpec::parse("BBB:4xVOXEL@bbr+4xVOXEL@cubic:const6").expect("parses");
        assert!(!mix.homogeneous());
        assert_eq!(mix.cc_mix(), [CcKind::Bbr, CcKind::Cubic]);
        // An explicit @cubic and no suffix are the same effective cc.
        let same = FleetSpec::parse("BBB:4xVOXEL@cubic+4xVOXEL:const6").expect("parses");
        assert!(same.homogeneous());
        assert_eq!(same.cc_mix(), [CcKind::Cubic]);
    }

    #[test]
    fn unknown_cc_error_names_the_token_and_choices() {
        let err = FleetSpec::parse("BBB:2xVOXEL@reno:const6")
            .expect_err("rejects")
            .to_string();
        assert!(err.contains("\"reno\""), "error was {err:?}");
        assert!(err.contains("cubic|delay|bbr"), "error was {err:?}");
    }

    #[test]
    fn cc_knob_composes_with_workers_token() {
        let s = FleetSpec::parse("BBB:4xVOXEL@bbr+4xVOXEL@cubic:const6:buf3:q64:d300:fifo:stg2:w4")
            .expect("parses");
        assert_eq!(s.workers, Some(4));
        assert_eq!(s.members[0].cc, Some(CcKind::Bbr));
        assert_eq!(
            s.spec(),
            "BBB:4xVOXEL@bbr+4xVOXEL@cubic:const6:buf3:q64:d300:fifo:stg2:w4"
        );
        assert_eq!(resolve_workers(s.workers, None, s.total_sessions()), Ok(4));
        // And the `w` clamp still applies with cc groups in play.
        assert_eq!(resolve_workers(Some(64), None, s.total_sessions()), Ok(8));
    }

    #[test]
    fn session_systems_expand_in_flow_order() {
        let s = FleetSpec::parse("BBB:2xVOXEL+1xBOLA:const6").expect("parses");
        let systems: Vec<&str> = s
            .session_members()
            .iter()
            .map(|m| m.system.as_str())
            .collect();
        assert_eq!(systems, ["VOXEL", "VOXEL", "BOLA"]);
        // Un-specified knobs take the documented defaults.
        assert_eq!(s.buffer_segments, 3);
        assert_eq!(s.queue_packets, 64);
        assert_eq!(s.duration_s, 300);
        assert_eq!(s.stagger_s, 0);
        assert_eq!(s.discipline, Discipline::drr());
        assert_eq!(s.edge, None);
    }
}
