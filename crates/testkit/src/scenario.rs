//! Scenario specs, [`Spec::parse`] — the front door every tool names a
//! run through — and the configuration matrix.
//!
//! The one grammar and its token table are in DESIGN.md §11. A scenario
//! is the single-session kind of spec: the shared head
//! ([`voxel_fleet::spec::SpecHead`]: `<video>:<system>:<trace>` +
//! `buf`/`q`/`d`) followed by this module's tail — `n<N>`, `prefix<N>`,
//! the packet-fault windows, the trace-fault transforms and the canary.
//! Its `<who>` is one system legend name with the fleet's optional
//! `@<cc>`:
//!
//! ```text
//! BBB:VOXEL:tmobile:buf1:n2:loss@60+5x0.3
//! BBB:VOXEL-tuned@delay:tmobile:buf1:q750:n6
//! ```
//!
//! It round-trips through [`Scenario::spec`] / [`Scenario::parse`]; the
//! failure minimizer leans on that to emit copy-pasteable reproductions.
//! [`Spec::parse`] accepts this kind and the fleet kind
//! (`BBB:4xVOXEL@bbr+2xBOLA:const6:…`) and tells them apart by the shape
//! of the second token.

use std::fmt;
use voxel_core::{Experiment, ExperimentBuilder};
use voxel_fleet::spec::SpecHead;
use voxel_fleet::{CcKind, FleetSpec};
use voxel_media::content::VideoId;
use voxel_netem::fault::{cliff, stuck};
use voxel_netem::{BandwidthTrace, FaultKind};

// The name tables live with the nouns they name — `VideoId::by_name`
// (voxel-media), `TraceFamily` (voxel-netem), `system_by_name`
// (voxel-fleet, next to the shared head) — re-exported here for the
// testkit surface.
pub use voxel_fleet::spec::{system_by_name, SpecError};
pub use voxel_netem::TraceFamily;

/// A deterministic transform of the bandwidth trace itself (as opposed to
/// the packet-level [`FaultKind`]s).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceFault {
    /// Multiply every sample from `at_s` onward by `factor`
    /// (`cliff@120x0.25`).
    Cliff {
        /// Cliff time, seconds.
        at_s: usize,
        /// Multiplier applied to the tail.
        factor: f64,
    },
    /// Freeze the sample at `at_s` for `len_s` seconds (`stuck@60+20`).
    Stuck {
        /// Freeze time, seconds.
        at_s: usize,
        /// Freeze length, seconds.
        len_s: usize,
    },
}

impl TraceFault {
    /// Apply this transform to `trace`.
    pub(crate) fn apply(&self, trace: &BandwidthTrace) -> BandwidthTrace {
        match *self {
            TraceFault::Cliff { at_s, factor } => cliff(trace, at_s, factor),
            TraceFault::Stuck { at_s, len_s } => stuck(trace, at_s, len_s),
        }
    }
}

/// A deliberate bug armed inside the stack — the sweep's canary targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Skew the player's stall accounting by +100 ms per stall
    /// ([`voxel_core::Config::debug_stall_skew`]); the timeline drift
    /// oracle must catch it.
    StallSkew,
}

/// The seed every §5 trace of the paper's exhibits is built at: `fig` runs
/// each cell as `Scenario::experiment(TRACE_SEED)`, so `voxel stream` on a
/// spec that `fig cells` prints is that row's run.
pub const TRACE_SEED: u64 = 2021;

/// One fully-specified test scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The video to stream.
    pub video: VideoId,
    /// System under test, by §5 legend name (`BOLA`, `VOXEL`, …).
    pub system: String,
    /// Congestion controller from the `@<cc>` suffix of `<who>`; `None`
    /// (no suffix) runs CUBIC and stays unspelled in canonical form.
    pub cc: Option<CcKind>,
    /// Bandwidth trace family.
    pub trace: TraceFamily,
    /// Playback buffer capacity in segments.
    pub buffer_segments: usize,
    /// Droptail queue length in packets.
    pub queue_packets: usize,
    /// Trials (trace shifted by `d/n` each, per the §5 protocol).
    pub trials: usize,
    /// Trace duration in seconds.
    pub duration_s: usize,
    /// Optional trace-prefix truncation (the minimizer's shrink axis).
    pub trace_prefix_s: Option<usize>,
    /// Packet-level fault windows.
    pub faults: Vec<FaultKind>,
    /// Trace-level fault transforms.
    pub trace_faults: Vec<TraceFault>,
    /// Armed canary, if any.
    pub inject: Option<Inject>,
    /// Oracle-bounds override (defaults derive from the scenario shape).
    pub bounds: Option<crate::oracle::Bounds>,
}

/// `<start>+<len>x<prob>` (plus `~<ms>` when `delayed`): finite
/// non-negative seconds, a probability in `[0, 1]`.
fn fault_window(body: &str, delayed: bool) -> Option<(f64, f64, f64, u64)> {
    let (body, ms) = match delayed {
        true => body
            .split_once('~')
            .and_then(|(b, ms)| Some((b, ms.parse().ok()?)))?,
        false => (body, 0),
    };
    let (window, prob) = body.split_once('x')?;
    let (start, len) = window.split_once('+')?;
    let seconds = |s: &str| s.parse().ok().filter(|v: &f64| v.is_finite() && *v >= 0.0);
    let prob = prob.parse().ok().filter(|p| (0.0..=1.0).contains(p))?;
    Some((seconds(start)?, seconds(len)?, prob, ms))
}

/// What the scenario tail accepts after the head, for error messages.
const TAIL_MENU: &str = "one of buf<N>|q<N>|d<N>|n<N>|prefix<N>|loss@<start>+<len>x<prob>|\
reorder@<start>+<len>x<prob>~<ms>|dup@<start>+<len>x<prob>~<ms>|cliff@<at>x<factor>|\
stuck@<at>+<len>|inject=stall_skew";

impl Scenario {
    /// A scenario with the workspace defaults (`buf3:q32:n1:d300`).
    pub fn new(video: VideoId, system: impl Into<String>, trace: TraceFamily) -> Scenario {
        Scenario {
            video,
            system: system.into(),
            cc: None,
            trace,
            buffer_segments: 3,
            queue_packets: 32,
            trials: 1,
            duration_s: 300,
            trace_prefix_s: None,
            faults: Vec::new(),
            trace_faults: Vec::new(),
            inject: None,
            bounds: None,
        }
    }

    /// Parse a scenario spec: the shared head, then this kind's tail.
    pub fn parse(spec: &str) -> Result<Scenario, SpecError> {
        let (mut head, rest) = SpecHead::parse(spec, 32)?;
        let (system, cc) = SpecHead::system(head.who)?;
        let mut s = Scenario::new(head.video, system, head.trace.clone());
        s.cc = cc;
        for (pos, tok) in rest {
            let bad = |expected: &str| SpecError::new(tok, pos, expected);
            // Longest prefixes first: `dup@`/`prefix` must win over the
            // single-letter `d`/`q`/`n` numeric tokens.
            if let Some(v) = tok.strip_prefix("prefix") {
                s.trace_prefix_s = Some(v.parse().map_err(|_| bad("seconds in prefix<N>"))?);
            } else if let Some((kind, body)) = ["loss@", "reorder@", "dup@"]
                .iter()
                .find_map(|kind| Some((*kind, tok.strip_prefix(kind)?)))
            {
                let (start_s, len_s, prob, extra_ms) = fault_window(body, kind != "loss@")
                    .ok_or_else(|| {
                        bad("<loss|reorder|dup>@<start>+<len>x<prob>[~<ms>]: finite \
                             non-negative seconds, a probability in [0,1], ~<ms> on reorder/dup")
                    })?;
                s.faults.push(match kind {
                    "loss@" => FaultKind::LossBurst {
                        start_s,
                        len_s,
                        prob,
                    },
                    "reorder@" => FaultKind::Reorder {
                        start_s,
                        len_s,
                        extra_ms,
                        prob,
                    },
                    _ => FaultKind::Duplicate {
                        start_s,
                        len_s,
                        extra_ms,
                        prob,
                    },
                });
            } else if let Some(body) = tok.strip_prefix("cliff@") {
                let (at_s, factor) = body
                    .split_once('x')
                    .and_then(|(at, factor)| {
                        let factor: f64 = factor.parse().ok()?;
                        (factor.is_finite() && factor >= 0.0).then_some((at.parse().ok()?, factor))
                    })
                    .ok_or_else(|| bad("cliff@<at>x<factor> with a finite factor of at least 0"))?;
                s.trace_faults.push(TraceFault::Cliff { at_s, factor });
            } else if let Some(body) = tok.strip_prefix("stuck@") {
                let (at_s, len_s) = body
                    .split_once('+')
                    .and_then(|(at, len)| Some((at.parse().ok()?, len.parse().ok()?)))
                    .ok_or_else(|| bad("stuck@<at>+<len> in whole seconds"))?;
                s.trace_faults.push(TraceFault::Stuck { at_s, len_s });
            } else if let Some(what) = tok.strip_prefix("inject=") {
                s.inject = Some(match what {
                    "stall_skew" => Inject::StallSkew,
                    _ => return Err(bad("inject=stall_skew")),
                });
            } else if head.knob(pos, tok)? {
                // buf<N> / q<N> / d<N>: the shared head's.
            } else if let Some(v) = tok.strip_prefix('n') {
                s.trials = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| bad("a trial count of at least 1 in n<N>"))?;
            } else {
                return Err(bad(TAIL_MENU));
            }
        }
        s.buffer_segments = head.buffer_segments;
        s.queue_packets = head.queue_packets;
        s.duration_s = head.duration_s;
        Ok(s)
    }

    /// The canonical spec string (round-trips through [`Scenario::parse`]).
    pub fn spec(&self) -> String {
        let mut out = format!(
            "{}:{}:{}:buf{}:q{}:n{}:d{}",
            self.video.short_name(),
            self.who(),
            self.trace.token(),
            self.buffer_segments,
            self.queue_packets,
            self.trials,
            self.duration_s,
        );
        if let Some(p) = self.trace_prefix_s {
            out.push_str(&format!(":prefix{p}"));
        }
        for f in &self.faults {
            match *f {
                FaultKind::LossBurst {
                    start_s,
                    len_s,
                    prob,
                } => {
                    out.push_str(&format!(":loss@{start_s}+{len_s}x{prob}"));
                }
                FaultKind::Reorder {
                    start_s,
                    len_s,
                    extra_ms,
                    prob,
                } => out.push_str(&format!(":reorder@{start_s}+{len_s}x{prob}~{extra_ms}")),
                FaultKind::Duplicate {
                    start_s,
                    len_s,
                    extra_ms,
                    prob,
                } => out.push_str(&format!(":dup@{start_s}+{len_s}x{prob}~{extra_ms}")),
            }
        }
        for f in &self.trace_faults {
            match *f {
                TraceFault::Cliff { at_s, factor } => {
                    out.push_str(&format!(":cliff@{at_s}x{factor}"));
                }
                TraceFault::Stuck { at_s, len_s } => {
                    out.push_str(&format!(":stuck@{at_s}+{len_s}"));
                }
            }
        }
        if let Some(Inject::StallSkew) = self.inject {
            out.push_str(":inject=stall_skew");
        }
        out
    }

    /// Short display name (the identifying axes only).
    pub fn name(&self) -> String {
        format!(
            "{}:{}:{}:buf{}",
            self.video.short_name(),
            self.who(),
            self.trace.token(),
            self.buffer_segments
        )
    }

    /// `<who>`: the system, plus `@<cc>` when one was spelled out.
    fn who(&self) -> String {
        match self.cc {
            Some(cc) => format!("{}@{}", self.system, cc.name()),
            None => self.system.clone(),
        }
    }

    /// The fully-materialized trace for `seed`: family build, then trace
    /// faults in declaration order, then the prefix truncation.
    pub fn build_trace(&self, seed: u64) -> BandwidthTrace {
        let mut t = self.trace.build(seed, self.duration_s);
        for f in &self.trace_faults {
            t = f.apply(&t);
        }
        if let Some(p) = self.trace_prefix_s {
            t = t.prefix(p);
        }
        t
    }

    /// The one place a scenario becomes an experiment: the system's ABR
    /// and transport from the legend, the controller from `@<cc>`, the
    /// trace materialized for `seed`,
    /// every other knob copied across. `run_scenario`, `voxel stream` and
    /// the figure harness's cells all start from this builder.
    pub fn experiment(&self, seed: u64) -> Result<ExperimentBuilder, String> {
        let (abr, transport) = system_by_name(&self.system)
            .ok_or_else(|| format!("unknown system {:?}", self.system))?;
        Ok(Experiment::builder()
            .video(self.video)
            .abr(abr)
            .transport(transport)
            .buffer(self.buffer_segments)
            .trace(self.build_trace(seed))
            .trials(self.trials)
            .queue(self.queue_packets)
            .cc(self.cc.unwrap_or_default())
            .debug_stall_skew(self.inject == Some(Inject::StallSkew)))
    }

    /// Builder: override the trial count.
    pub(crate) fn with_trials(mut self, n: usize) -> Scenario {
        self.trials = n;
        self
    }

    /// Builder: truncate the trace to its first `seconds`.
    pub(crate) fn with_trace_prefix(mut self, seconds: usize) -> Scenario {
        self.trace_prefix_s = Some(seconds);
        self
    }
}

/// Any run the workspace can name. One `<spec>` string is either a
/// [`Scenario`] (one session on a private link) or a [`FleetSpec`] (N
/// sessions on a shared one); [`Spec::parse`] is the front door that
/// accepts both, and `Display` is its exact inverse.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// `<video>:<system>[@<cc>]:<trace>…` — `<who>` is a legend name.
    Scenario(Scenario),
    /// `<video>:<count>x<system>[@<cc>][+…]:<trace>…` — `<who>` is a
    /// member list.
    Fleet(FleetSpec),
}

impl Spec {
    /// Parse either kind, told apart by the shape of `<who>`: a member
    /// list starts with its count, and no system name starts with a digit.
    pub fn parse(spec: &str) -> Result<Spec, SpecError> {
        let who = spec.split(':').nth(1).unwrap_or_default();
        if who.starts_with(|c: char| c.is_ascii_digit()) {
            FleetSpec::parse(spec).map(Spec::Fleet)
        } else {
            Scenario::parse(spec).map(Spec::Scenario)
        }
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Spec::Scenario(s) => f.write_str(&s.spec()),
            Spec::Fleet(s) => s.fmt(f),
        }
    }
}

/// A cartesian product of scenario axes, from a one-line spec:
///
/// ```text
/// systems=BOLA,VOXEL traces=const8,tmobile buffers=1,3 queues=32 trials=2
/// ```
///
/// `videos` (default `BBB`), `buffers` (default `3`), `queues` (default
/// `32`), `trials` (default `1`) and `duration` (default `300`) are
/// optional; `systems` and `traces` are required.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Videos axis.
    pub videos: Vec<VideoId>,
    /// Systems axis (legend names).
    pub systems: Vec<String>,
    /// Trace families axis.
    pub traces: Vec<TraceFamily>,
    /// Buffer-capacity axis, segments.
    pub buffers: Vec<usize>,
    /// Queue-length axis, packets.
    pub queues: Vec<usize>,
    /// Trials per scenario.
    pub trials: usize,
    /// Trace duration, seconds.
    pub duration_s: usize,
}

impl Matrix {
    /// Parse a whitespace-separated `key=v1,v2,…` matrix spec.
    pub fn parse(spec: &str) -> Result<Matrix, String> {
        let mut m = Matrix {
            videos: vec![VideoId::Bbb],
            systems: Vec::new(),
            traces: Vec::new(),
            buffers: vec![3],
            queues: vec![32],
            trials: 1,
            duration_s: 300,
        };
        for tok in spec.split_whitespace() {
            let (key, vals) = tok
                .split_once('=')
                .ok_or_else(|| format!("matrix token {tok:?} is not key=values"))?;
            let list: Vec<&str> = vals.split(',').filter(|v| !v.is_empty()).collect();
            if list.is_empty() {
                return Err(format!("matrix axis {key:?} has no values"));
            }
            match key {
                "videos" => {
                    m.videos = list
                        .iter()
                        .map(|v| VideoId::by_name(v).ok_or_else(|| format!("unknown video {v:?}")))
                        .collect::<Result<_, _>>()?;
                }
                "systems" => {
                    for v in &list {
                        system_by_name(v).ok_or_else(|| format!("unknown system {v:?}"))?;
                    }
                    m.systems = list.iter().map(|v| v.to_string()).collect();
                }
                "traces" => {
                    m.traces = list
                        .iter()
                        .map(|v| {
                            TraceFamily::parse(v)
                                .map_err(|want| format!("bad trace {v:?}: expected {want}"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "buffers" => m.buffers = Self::parse_usizes(&list, key, 1)?,
                "queues" => m.queues = Self::parse_usizes(&list, key, 0)?,
                "trials" => m.trials = Self::parse_usizes(&list, key, 1)?[0],
                "duration" => m.duration_s = Self::parse_usizes(&list, key, 1)?[0],
                _ => return Err(format!("unknown matrix axis {key:?}")),
            }
        }
        if m.systems.is_empty() || m.traces.is_empty() {
            return Err("matrix needs at least systems= and traces=".into());
        }
        Ok(m)
    }

    /// Every value of a numeric axis (`list` is non-empty), each at
    /// least `min` — the same floors the spec head enforces.
    fn parse_usizes(list: &[&str], key: &str, min: usize) -> Result<Vec<usize>, String> {
        list.iter()
            .map(|v| {
                v.parse::<usize>()
                    .ok()
                    .filter(|n| *n >= min)
                    .ok_or_else(|| format!("bad {key} value {v:?} (a number, at least {min})"))
            })
            .collect()
    }

    /// Expand to the full cartesian product, in axis order
    /// (video, system, trace, buffer, queue).
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &video in &self.videos {
            for system in &self.systems {
                for trace in &self.traces {
                    for &buf in &self.buffers {
                        for &q in &self.queues {
                            let mut s = Scenario::new(video, system.clone(), trace.clone());
                            s.buffer_segments = buf;
                            s.queue_packets = q;
                            s.trials = self.trials;
                            s.duration_s = self.duration_s;
                            out.push(s);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_core::TransportMode;

    #[test]
    fn minimal_spec_gets_defaults() {
        let s = Scenario::parse("BBB:VOXEL:tmobile").expect("parses");
        assert_eq!(s.video, VideoId::Bbb);
        assert_eq!(s.system, "VOXEL");
        assert_eq!(s.trace, TraceFamily::TMobile);
        assert_eq!(
            (s.buffer_segments, s.queue_packets, s.trials, s.duration_s),
            (3, 32, 1, 300)
        );
        assert!(s.faults.is_empty() && s.trace_faults.is_empty() && s.inject.is_none());
    }

    #[test]
    fn full_spec_round_trips() {
        let spec = "ToS:BOLA-SSIM@bbr:step8-2@60:buf1:q64:n4:d120:prefix45:\
                    loss@60+5x0.3:reorder@10+2x0.5~40:dup@20+2x0.25~15:\
                    cliff@90x0.5:stuck@30+10:inject=stall_skew";
        let s = Scenario::parse(spec).expect("parses");
        assert_eq!(s.spec(), spec.replace(['\n', ' '], ""));
        let again = Scenario::parse(&s.spec()).expect("re-parses");
        assert_eq!(s, again);
        assert_eq!(s.faults.len(), 3);
        assert_eq!(s.trace_faults.len(), 2);
        assert_eq!(s.inject, Some(Inject::StallSkew));
        assert_eq!(s.trace_prefix_s, Some(45));
        assert_eq!((s.system.as_str(), s.cc), ("BOLA-SSIM", Some(CcKind::Bbr)));
    }

    #[test]
    fn bad_specs_name_the_token_its_position_and_the_menu() {
        // The menus come from the one table of each noun, so a usage
        // string cannot drift from what the parser accepts.
        let videos: Vec<String> = VideoId::all().iter().map(|v| v.short_name()).collect();
        let videos = videos.join("|");
        let systems = voxel_fleet::systems().map(|(name, ..)| name).join("|");
        let traces = TraceFamily::menu();
        for (spec, token, pos, needle) in [
            ("XYZ:BOLA:const8", "XYZ", 0, videos.as_str()),
            ("P11:BOLA:const8", "P11", 0, &videos),
            ("P0:BOLA:const8", "P0", 0, &videos),
            ("Px:BOLA:const8", "Px", 0, &videos),
            ("BBB:NOPE:const8", "NOPE", 1, &systems),
            ("BBB:BOLA:warp9", "warp9", 2, &traces),
            ("BBB:BOLA:const8:zzz", "zzz", 3, "prefix<N>"),
            (
                "BBB:BOLA:const8:loss@60x0.3",
                "loss@60x0.3",
                3,
                "<start>+<len>",
            ),
            (
                "BBB:BOLA:const8:buf1:inject=divide_by_zero",
                "inject=divide_by_zero",
                4,
                "stall_skew",
            ),
            ("BBB:BOLA:const8:n0", "n0", 3, "at least 1"),
            // A truncated spec blames the last token that is there.
            ("BBB:BOLA", "BOLA", 1, "a trace family"),
            ("BBB", "BBB", 0, "a system legend name"),
            ("BBB::const8", "", 1, "a system legend name"),
        ] {
            let err = Scenario::parse(spec).expect_err(spec);
            assert_eq!((err.token.as_str(), err.pos), (token, pos), "{spec}: {err}");
            assert!(err.expected.contains(needle), "{spec}: {err}");
            // `?` in a `Result<_, String>` function keeps working.
            let as_string: String = err.into();
            assert!(as_string.contains(needle), "{as_string}");
        }
    }

    /// Satellite regression (validate once, in the shared head): every
    /// malformed value the two old parsers disagreed on — or both let
    /// through — is rejected for both kinds, with the token and its
    /// position. `false` marks a token the kind does not have at all; it
    /// is still an error there, just a different one.
    #[test]
    fn malformed_values_are_rejected_for_scenarios_and_fleets_alike() {
        let both = |tail: &'static str, tok: &'static str| (tail, tok, true, true);
        for (tail, tok, scenario_has_it, fleet_has_it) in [
            // Rates: non-finite or not above zero.
            both("constNaN", "constNaN"),
            both("const-5", "const-5"),
            both("const0", "const0"),
            both("constinf", "constinf"),
            both("stepNaN--3@5", "stepNaN--3@5"),
            both("crossNaN", "crossNaN"),
            // The generator asserts on an index past the 86 raw 3G traces.
            both("raw3g86", "raw3g86"),
            ("const6:e2:oNaN", "oNaN", false, true),
            ("const6:e2:o0", "o0", false, true),
            ("const6:e2:o-5", "o-5", false, true),
            ("const6:e2:cbNaN", "cbNaN", false, true),
            // A zero duration or buffer can never play a segment.
            both("const6:d0", "d0"),
            both("const6:buf0", "buf0"),
            both("const6:q32:buf0", "buf0"),
            // Fault probabilities outside [0,1], non-finite numbers.
            ("const6:loss@0+5x7", "loss@0+5x7", true, false),
            ("const6:dup@0+5x-0.1~15", "dup@0+5x-0.1~15", true, false),
            (
                "const6:reorder@NaN+5x0.1~15",
                "reorder@NaN+5x0.1~15",
                true,
                false,
            ),
            ("const6:cliff@10xNaN", "cliff@10xNaN", true, false),
            ("const6:cliff@10xinf", "cliff@10xinf", true, false),
        ] {
            for (who, has_it) in [("VOXEL", scenario_has_it), ("2xVOXEL", fleet_has_it)] {
                let spec = format!("BBB:{who}:{tail}");
                let err = Spec::parse(&spec).expect_err(&spec);
                if has_it {
                    let pos = spec
                        .split(':')
                        .position(|t| t == tok)
                        .expect("token is there");
                    assert_eq!((err.token.as_str(), err.pos), (tok, pos), "{spec}: {err}");
                }
            }
        }
        // The documented parse↔display inverse, on the spec that broke it.
        assert!("BBB:2xVOXEL:constNaN".parse::<FleetSpec>().is_err());
    }

    #[test]
    fn spec_parse_tells_the_kinds_apart_by_who() {
        let s = Spec::parse("BBB:VOXEL:tmobile:buf1").expect("scenario");
        assert!(matches!(&s, Spec::Scenario(s) if s.buffer_segments == 1));
        assert_eq!(s.to_string(), "BBB:VOXEL:tmobile:buf1:q32:n1:d300");
        let f = Spec::parse("BBB:4xVOXEL@bbr+2xBOLA:const6:stg2").expect("fleet");
        assert!(matches!(&f, Spec::Fleet(f) if f.total_sessions() == 6));
        assert_eq!(
            f.to_string(),
            "BBB:4xVOXEL@bbr+2xBOLA:const6:buf3:q64:d300:drr:stg2"
        );
        for spec in [s, f] {
            assert_eq!(Spec::parse(&spec.to_string()), Ok(spec));
        }
        // Each kind rejects the other's tail, and a fleet link is constant.
        assert!(Spec::parse("BBB:VOXEL:const6:drr").is_err());
        assert!(Spec::parse("BBB:2xVOXEL:const6:n2").is_err());
        let err = Spec::parse("BBB:2xVOXEL:tmobile").expect_err("fleet links are const");
        assert_eq!((err.token.as_str(), err.pos), ("tmobile", 2));
    }

    #[test]
    fn experiment_carries_every_scenario_knob() {
        let s = Scenario::parse("ED:VOXEL-rel@delay:const8:buf2:q750:n4:d60:inject=stall_skew")
            .expect("parses");
        let built = s.experiment(1).expect("legend system").build();
        let c = built.config();
        assert_eq!(
            (c.video, c.transport, c.cc),
            (VideoId::Ed, TransportMode::Reliable, CcKind::Delay)
        );
        assert_eq!((c.buffer_segments, c.queue_packets, c.trials), (2, 750, 4));
        assert_eq!(c.trace, s.build_trace(1));
        assert!(c.debug_stall_skew);
        let plain = Scenario::parse("ED:VOXEL:const8").expect("parses");
        let built = plain.experiment(1).expect("legend system").build();
        assert_eq!(built.config().cc, CcKind::Cubic);
        assert!(Scenario::new(VideoId::Bbb, "XYZ", TraceFamily::Fcc)
            .experiment(1)
            .is_err());
    }

    #[test]
    fn build_trace_applies_faults_then_prefix() {
        let s = Scenario::parse("BBB:BOLA:const8:d100:cliff@50x0.5:prefix60").expect("parses");
        let t = s.build_trace(0);
        assert_eq!(t.duration_s(), 60);
        assert_eq!(t.mbps[49], 8.0);
        assert_eq!(t.mbps[59], 4.0);
    }

    #[test]
    fn matrix_expands_the_cartesian_product() {
        let m = Matrix::parse(
            "videos=BBB,ED systems=BOLA,VOXEL traces=const8,tmobile buffers=1,3 queues=32,750 trials=2 duration=120",
        )
        .expect("parses");
        let all = m.scenarios();
        assert_eq!(all.len(), 2 * 2 * 2 * 2 * 2);
        assert!(all.iter().all(|s| s.trials == 2 && s.duration_s == 120));
        // Every scenario spec is unique and re-parseable.
        let mut specs: Vec<String> = all.iter().map(Scenario::spec).collect();
        specs.sort();
        specs.dedup();
        assert_eq!(specs.len(), all.len());
        for spec in &specs {
            Scenario::parse(spec).expect("matrix scenario re-parses");
        }
    }

    #[test]
    fn matrix_requires_systems_and_traces() {
        assert!(Matrix::parse("systems=BOLA").is_err());
        assert!(Matrix::parse("traces=const8").is_err());
        assert!(Matrix::parse("systems=BOLA traces=const8").is_ok());
        // The head's floors hold on the matrix path too.
        for bad in ["buffers=0", "duration=0", "trials=0", "traces=const0"] {
            let line = format!("systems=BOLA traces=const8 {bad}");
            assert!(Matrix::parse(&line).is_err(), "accepted {bad:?}");
        }
    }

    /// The one-knob variants are rows: `-Q*` changes only the transport,
    /// `VOXEL-<metric>` only the utility.
    #[test]
    fn system_table_matches_the_bench_legend() {
        use voxel_core::AbrKind;
        use voxel_media::qoe::QoeMetric;
        let voxel = |metric| AbrKind::Voxel {
            safety: 1.0,
            metric,
        };
        for (name, abr, transport) in [
            ("BOLA", AbrKind::Bola, TransportMode::Reliable),
            ("BOLA-Q*", AbrKind::Bola, TransportMode::Split),
            ("BOLA-SSIM", AbrKind::BolaSsim, TransportMode::Split),
            ("MPC", AbrKind::Mpc, TransportMode::Reliable),
            ("MPC-Q*", AbrKind::Mpc, TransportMode::Split),
            ("MPC*", AbrKind::MpcStar, TransportMode::Split),
            ("Tput", AbrKind::Tput, TransportMode::Reliable),
            ("BETA", AbrKind::Beta, TransportMode::Reliable),
            ("VOXEL", voxel(QoeMetric::Ssim), TransportMode::Split),
            ("VOXEL-tuned", AbrKind::voxel_tuned(), TransportMode::Split),
            ("VOXEL-rel", voxel(QoeMetric::Ssim), TransportMode::Reliable),
            ("VOXEL-VMAF", voxel(QoeMetric::Vmaf), TransportMode::Split),
            ("VOXEL-PSNR", voxel(QoeMetric::Psnr), TransportMode::Split),
        ] {
            assert_eq!(system_by_name(name), Some((abr, transport)), "{name}");
        }
        assert_eq!(voxel_fleet::systems().len(), 13);
        assert!(system_by_name("XYZ").is_none());
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// Head tokens by slot and tail tokens of both kinds (each kind
    /// rejects the other's), valid ones with near misses mixed in.
    const VIDEOS: &str = "BBB ED Sintel ToS P7 P11";
    const WHOS: &str = "VOXEL BOLA-SSIM MPC* VOXEL-tuned NOPE 2xVOXEL 4xVOXEL@bbr+2xBOLA \
        3xVOXEL@cubic+3xVOXEL@delay+2xBETA 0xVOXEL 2xVOXEL@reno BOLA-Q*@delay VOXEL@reno";
    const TRACES: &str = "const6 const12.5 step8-2@60 tmobile 3g wifi constNaN const0 step8--2@60 \
        T-Mobile cross20 cross0 crossNaN raw3g5 raw3g86 raw3g-1";
    const TAIL: &str = "buf1 buf7 buf0 q64 q750 d120 d0 n2 n0 prefix45 loss@60+5x0.3 loss@0+5x7 \
        reorder@10+2x0.5~40 dup@20.5+2x0.25~15 dup@NaN+2x0.25~15 cliff@90x0.5 cliff@10xNaN \
        stuck@30+10 inject=stall_skew inject=nope fifo drr stg2 cap60 e4 e0 rhash rrobin arel \
        anone plfu cb64 cb0.5 cbNaN o50 o-5 oinf w4 w0 zzz";

    fn pick(pool: &str, i: usize) -> &str {
        let all: Vec<&str> = pool.split_whitespace().collect();
        all[i % all.len()]
    }

    /// Malformed specs: `Spec::parse` never panics; what it
    /// accepts re-parses equal from its own display; what it rejects
    /// blames a token that is really there.
    fn check(input: &str) -> Result<(), String> {
        match Spec::parse(input) {
            Ok(spec) => {
                let shown = spec.to_string();
                match Spec::parse(&shown) {
                    Ok(again) if again == spec => Ok(()),
                    other => Err(format!(
                        "{input:?} displays as {shown:?}, re-parsing to {other:?}"
                    )),
                }
            }
            Err(e) => match input.split(':').nth(e.pos) {
                Some(tok) if tok.contains(&e.token) => Ok(()),
                tok => Err(format!(
                    "{input:?}: {e:?} does not point into the input ({tok:?})"
                )),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Valid (and nearly valid) tokens shuffled and duplicated, then
        /// truncated and byte-mutated.
        #[test]
        fn hostile_specs_never_panic_and_round_trip(
            head in (0usize..64, 0usize..64, 0usize..64),
            tail in proptest::collection::vec(0usize..1024, 0..8),
            cut in 0usize..200,
            mutations in proptest::collection::vec((0usize..200, proptest::num::u8::ANY), 0..3),
        ) {
            let mut tokens = vec![pick(VIDEOS, head.0), pick(WHOS, head.1), pick(TRACES, head.2)];
            tokens.extend(tail.iter().map(|&i| pick(TAIL, i)));
            let spec = tokens.join(":");
            let untouched = check(&spec);
            prop_assert!(untouched.is_ok(), "{}", untouched.unwrap_err());

            let mut bytes = spec.into_bytes();
            // `cut` past the end leaves the spec whole.
            bytes.truncate(cut.max(1));
            for (at, byte) in mutations {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            let mutated = check(&String::from_utf8_lossy(&bytes));
            prop_assert!(mutated.is_ok(), "{}", mutated.unwrap_err());
        }

        /// Arbitrary strings: spec-alphabet soup, printable ASCII, raw bytes.
        #[test]
        fn arbitrary_strings_never_panic(
            soup in "[A-Za-z0-9:x+@~=.*-]{0,48}",
            ascii in "[ -~]{0,48}",
            raw in proptest::collection::vec(proptest::num::u8::ANY, 0..48),
        ) {
            for input in [soup, ascii, String::from_utf8_lossy(&raw).into_owned()] {
                let verdict = check(&input);
                prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
            }
        }
    }

    /// The typed fleet surface round-trips token-for-token: a parsed
    /// fleet displays to a string that parses back equal, as a `Spec`.
    #[test]
    fn parsed_fleets_round_trip_as_specs() {
        let spec =
            FleetSpec::parse("ToS:4xVOXEL+2xBOLA@bbr:const12.5:buf1:cap60:e4:rleast:cb0.5:w2")
                .expect("parses");
        assert_eq!(Spec::parse(&spec.to_string()), Ok(Spec::Fleet(spec)));
    }
}
