//! Per-trial oracles: result invariants, timeline cross-checks, and
//! scenario-shaped QoE bounds.
//!
//! Three layers, all returning a list of human-readable violations (empty
//! = pass):
//!
//! - [`trial_invariants`]: properties every [`TrialResult`] must satisfy
//!   regardless of scenario — finite non-negative accounting, coherent
//!   transport counters, recovery never exceeding loss.
//! - [`timeline_invariants`]: the traced JSONL is an *independently
//!   emitted* record of the same trial, so the oracle recomputes stall
//!   time from `stall_end` events and checks it against the result's
//!   `stall_s` — any accounting drift between the player's counter and
//!   its own timeline is a bug (this is what catches the
//!   [`Inject::StallSkew`](crate::scenario::Inject) canary).
//! - [`Bounds`]: graceful-degradation envelopes derived from the scenario
//!   shape (generous by design: they must hold across every sweep seed,
//!   and exist to catch collapse, not to pin figures — `tests/paper_claims.rs`
//!   owns the quantitative claims).

use crate::scenario::{Scenario, TraceFamily};
use voxel_core::TrialResult;

/// QoE envelope a scenario's trials must stay inside.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    /// Maximum tolerated bufRatio, percent.
    pub max_buf_ratio_pct: f64,
    /// Minimum tolerated mean SSIM.
    pub min_mean_ssim: f64,
    /// Maximum tolerated startup delay, seconds.
    pub max_startup_s: f64,
    /// Whether the trial must finish all 75 segments (vs hitting the
    /// session safety cap).
    pub require_complete: bool,
}

impl Bounds {
    /// Derive the envelope from the scenario shape. Comfortable constant
    /// traces must play nearly clean; faulted or cellular scenarios only
    /// have to degrade gracefully (finish, keep watchable quality).
    pub fn for_scenario(s: &Scenario) -> Bounds {
        if let Some(b) = &s.bounds {
            return b.clone();
        }
        let faulted = !s.faults.is_empty() || !s.trace_faults.is_empty();
        let mut b = Bounds {
            max_buf_ratio_pct: 60.0,
            min_mean_ssim: 0.5,
            max_startup_s: 60.0,
            require_complete: true,
        };
        if let TraceFamily::Constant(mbps) = s.trace {
            if mbps >= 6.0 && !faulted && s.buffer_segments >= 3 {
                b.max_buf_ratio_pct = 15.0;
                b.min_mean_ssim = 0.75;
                b.max_startup_s = 10.0;
            }
        }
        b
    }

    /// Check one trial against the envelope.
    pub fn check(&self, r: &TrialResult) -> Vec<String> {
        let mut v = Vec::new();
        if self.require_complete && !r.completed {
            v.push("trial hit the session safety cap before finishing".into());
        }
        if r.buf_ratio_pct() > self.max_buf_ratio_pct {
            v.push(format!(
                "bufRatio {:.2}% exceeds the {:.2}% envelope",
                r.buf_ratio_pct(),
                self.max_buf_ratio_pct
            ));
        }
        if r.completed && r.avg_ssim() < self.min_mean_ssim {
            v.push(format!(
                "mean SSIM {:.3} below the {:.3} envelope",
                r.avg_ssim(),
                self.min_mean_ssim
            ));
        }
        if r.startup_s > self.max_startup_s {
            v.push(format!(
                "startup {:.2}s exceeds the {:.2}s envelope",
                r.startup_s, self.max_startup_s
            ));
        }
        v
    }
}

/// Scenario-independent invariants of a single trial result.
pub fn trial_invariants(r: &TrialResult) -> Vec<String> {
    let mut v = Vec::new();
    for (name, val) in [
        ("stall_s", r.stall_s),
        ("duration_s", r.duration_s),
        ("startup_s", r.startup_s),
    ] {
        if !val.is_finite() || val < 0.0 {
            v.push(format!("{name} = {val} is not a finite non-negative time"));
        }
    }
    // The session safety cap bounds wall clock at 5×duration + 120 s, so
    // accounted stall can never exceed it.
    if r.stall_s > 5.0 * r.duration_s + 121.0 {
        v.push(format!(
            "stall {:.1}s exceeds the session safety cap",
            r.stall_s
        ));
    }
    if r.segment_scores.len() != r.segment_kbps.len() {
        v.push(format!(
            "{} segment scores vs {} segment bitrates",
            r.segment_scores.len(),
            r.segment_kbps.len()
        ));
    }
    if r.completed && r.segment_scores.is_empty() {
        v.push("completed trial played no segments".into());
    }
    if r.bytes_downloaded == 0 {
        v.push("no bytes downloaded".into());
    }
    if r.bytes_recovered > r.bytes_lost {
        v.push(format!(
            "recovered {} bytes but only {} were lost",
            r.bytes_recovered, r.bytes_lost
        ));
    }
    for s in &r.segment_scores {
        if !(0.0..=1.0).contains(&s.ssim) {
            v.push(format!("segment SSIM {} outside [0, 1]", s.ssim));
            break;
        }
    }
    let t = &r.transport;
    if t.client_packets_duplicate > t.client_packets_received {
        v.push(format!(
            "{} duplicate packets out of {} received",
            t.client_packets_duplicate, t.client_packets_received
        ));
    }
    if t.client_packets_reordered > t.client_packets_received {
        v.push(format!(
            "{} reordered packets out of {} received",
            t.client_packets_reordered, t.client_packets_received
        ));
    }
    if t.client_packets_received == 0 {
        v.push("client received no packets".into());
    }
    v
}

/// The integer after the first `key` (a `"name":` needle) in `line`: the
/// run of ASCII digits that follows it, `None` when that run is empty or
/// does not fit a `u64`.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(key)? + key.len();
    digits_u64(&line.as_bytes()[at..]).0
}

/// Parse the leading run of ASCII digits of `bytes`, returning its value
/// (as `str::parse` would: `None` when empty or too large) and its length.
fn digits_u64(bytes: &[u8]) -> (Option<u64>, usize) {
    let mut value = Some(0u64);
    let mut len = 0;
    for &b in bytes {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        value = value.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(digit)));
        len += 1;
    }
    (value.filter(|_| len > 0), len)
}

const SEQ: &str = "\"seq\":";
const KIND: &str = "\"kind\":\"";
const DUR_MS: &str = "\"dur_ms\":";
const STALL_END: &str = "\"kind\":\"stall_end\"";
const SEGMENT_PLAY: &str = "\"kind\":\"segment_play\"";
const STARTUP: &str = "\"kind\":\"startup\"";

/// What the oracle reads off one timeline line.
struct LineFacts<'a> {
    seq: Option<u64>,
    /// The kind the oracle counts: `stall_end`, `segment_play`,
    /// `startup`, or anything else.
    kind: &'a str,
}

/// Read `seq` and `kind` off a line in the tracer's canonical form by
/// position: the fixed header `{"t":D,"seq":D,"sid":D,"layer":"L","kind":"K"`
/// followed by `,` or `}` (so no `kind":"…` can borrow K's closing
/// quote), with no second `"kind":"` later in the line. Every quote in
/// such a header sits at a fixed place, so the header holds the line's
/// first `"seq":` and the only `"kind":"…"` — exactly what
/// [`line_facts_by_search`] would find. `None` for any other line.
fn line_facts_canonical(line: &str) -> Option<LineFacts<'_>> {
    /// `rest` after a run of at least one digit.
    fn digits(rest: &[u8]) -> Option<&[u8]> {
        let len = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        (len > 0).then(|| &rest[len..])
    }
    /// The length of the string `rest` opens with, and what follows its
    /// closing quote.
    fn quoted(rest: &[u8]) -> Option<(usize, &[u8])> {
        let len = rest.iter().position(|&b| b == b'"')?;
        Some((len, &rest[len + 1..]))
    }
    let bytes = line.as_bytes();
    let rest = digits(bytes.strip_prefix(b"{\"t\":")?)?;
    let rest = rest.strip_prefix(b",\"seq\":")?;
    let (seq, len) = digits_u64(rest);
    let rest = digits(rest[len..].strip_prefix(b",\"sid\":")?)?;
    let (_, rest) = quoted(rest.strip_prefix(b",\"layer\":\"")?)?;
    let (kind_len, rest) = quoted(rest.strip_prefix(b",\"kind\":\"")?)?;
    // Every cut is next to an ASCII quote, so on a char boundary.
    let tail = &line[line.len() - rest.len()..];
    let kind_end = line.len() - rest.len() - 1;
    let canonical = (tail.starts_with(',') || tail.starts_with('}')) && !tail.contains(KIND);
    canonical.then_some(LineFacts {
        seq: Some(seq?),
        kind: &line[kind_end - kind_len..kind_end],
    })
}

/// Read `seq` and `kind` off any line by search: the first `"seq":`, and
/// the first of the counted kinds whose `"kind":"…"` appears anywhere.
fn line_facts_by_search(line: &str) -> LineFacts<'_> {
    let kind = if line.contains(STALL_END) {
        "stall_end"
    } else if line.contains(SEGMENT_PLAY) {
        "segment_play"
    } else if line.contains(STARTUP) {
        "startup"
    } else {
        ""
    };
    LineFacts {
        seq: field_u64(line, SEQ),
        kind,
    }
}

/// Cross-check the traced timeline against the trial result.
///
/// The timeline is emitted event-by-event as the simulation runs, while
/// `stall_s` is the player's own accumulator — comparing the two catches
/// one-sided accounting bugs. The tolerance is `(stalls + 1) × 2 ms`:
/// each `stall_end` event truncates its `dur_ms` to whole milliseconds.
///
/// One pass over the lines, allocating nothing per line: a line in the
/// tracer's canonical form is read by position, `dur_ms` is looked for
/// only on `stall_end` lines, and any other line falls back to searching
/// for each needle.
pub fn timeline_invariants(jsonl: &[u8], r: &TrialResult) -> Vec<String> {
    let mut v = Vec::new();
    let text = match std::str::from_utf8(jsonl) {
        Ok(t) => t,
        Err(e) => return vec![format!("timeline is not UTF-8: {e}")],
    };
    let (Some(first), Some(last)) = (text.lines().next(), text.lines().next_back()) else {
        return vec!["timeline is empty".into()];
    };
    if !first.contains("\"kind\":\"trial_start\"") {
        v.push("timeline does not open with trial_start".into());
    }
    if !last.contains("\"kind\":\"trial_end\"") {
        v.push("timeline does not close with trial_end".into());
    }
    let mut last_seq = None;
    let mut stall_ms = 0u64;
    let mut stalls = 0u64;
    let mut plays = 0usize;
    let mut startups = 0usize;
    for line in text.lines() {
        if !(line.starts_with("{\"t\":") && line.ends_with('}')) {
            v.push(format!("malformed timeline line: {line}"));
            break;
        }
        let facts = line_facts_canonical(line).unwrap_or_else(|| line_facts_by_search(line));
        // `t` may run behind emission order (events reported
        // retroactively, e.g. a back-dated stall_start); `seq` is the
        // strict total order.
        match (facts.seq, last_seq) {
            (Some(seq), Some(prev)) if seq <= prev => {
                v.push(format!("seq {seq} after {prev}: emission order broken"));
            }
            (Some(seq), _) => last_seq = Some(seq),
            (None, _) => v.push(format!("timeline line without seq: {line}")),
        }
        match facts.kind {
            "stall_end" => {
                stalls += 1;
                match field_u64(line, DUR_MS) {
                    Some(ms) => stall_ms += ms,
                    None => v.push("stall_end without dur_ms".into()),
                }
            }
            "segment_play" => plays += 1,
            "startup" => startups += 1,
            _ => {}
        }
    }
    let drift_ms = (r.stall_s * 1000.0 - stall_ms as f64).abs();
    let tolerance_ms = 2.0 * (stalls + 1) as f64;
    if drift_ms > tolerance_ms {
        v.push(format!(
            "stall accounting drift: result says {:.1} ms, timeline's {} stall_end events sum to {} ms (tolerance {} ms)",
            r.stall_s * 1000.0,
            stalls,
            stall_ms,
            tolerance_ms
        ));
    }
    if r.completed {
        if plays != r.segment_scores.len() {
            v.push(format!(
                "{} segment_play events vs {} scored segments",
                plays,
                r.segment_scores.len()
            ));
        }
        if startups != 1 {
            v.push(format!("{startups} startup events in a completed trial"));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_core::TransportStats;
    use voxel_media::qoe::QoeScores;

    fn good_trial() -> TrialResult {
        TrialResult {
            video: "BBB".into(),
            abr: "X".into(),
            stall_s: 1.5,
            duration_s: 300.0,
            startup_s: 1.0,
            segment_kbps: vec![4000.0; 75],
            segment_scores: vec![
                QoeScores {
                    ssim: 0.98,
                    vmaf: 90.0,
                    psnr_db: 40.0
                };
                75
            ],
            bytes_downloaded: 1_000_000,
            bytes_wasted: 0,
            bytes_skipped: 0,
            bytes_full: 1,
            restarts: 0,
            kept_partials: 0,
            bytes_lost: 100,
            bytes_recovered: 50,
            segments_with_drops: 0,
            frames_dropped: 0,
            referenced_frames_dropped: 0,
            transport: TransportStats {
                client_packets_received: 1000,
                ..TransportStats::default()
            },
            metrics: None,
            completed: true,
        }
    }

    #[test]
    fn clean_trial_passes_all_invariants() {
        assert!(trial_invariants(&good_trial()).is_empty());
    }

    #[test]
    fn corrupt_accounting_is_reported() {
        let mut r = good_trial();
        r.stall_s = -1.0;
        r.bytes_recovered = r.bytes_lost + 1;
        r.bytes_downloaded = 0;
        let v = trial_invariants(&r);
        assert!(v.iter().any(|m| m.contains("stall_s")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("recovered")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("downloaded")), "{v:?}");
    }

    fn timeline(stall_entries: &[u64], plays: usize) -> Vec<u8> {
        let mut seq = 0u64;
        let mut push = |out: &mut String, kind: &str, extra: &str| {
            seq += 1;
            out.push_str(&format!(
                "{{\"t\":{},\"seq\":{seq},\"sid\":0,\"layer\":\"player\",\"kind\":\"{kind}\"{extra}}}\n",
                seq * 1000
            ));
        };
        let mut out = String::new();
        push(&mut out, "trial_start", "");
        push(&mut out, "startup", ",\"seg\":0");
        for ms in stall_entries {
            push(
                &mut out,
                "stall_end",
                &format!(",\"seg\":1,\"dur_ms\":{ms}"),
            );
        }
        for i in 0..plays {
            push(&mut out, "segment_play", &format!(",\"seg\":{i}"));
        }
        push(&mut out, "trial_end", "");
        out.into_bytes()
    }

    #[test]
    fn timeline_agreement_passes() {
        let mut r = good_trial();
        r.stall_s = 1.5;
        let t = timeline(&[1000, 500], 75);
        assert!(timeline_invariants(&t, &r).is_empty());
    }

    #[test]
    fn stall_drift_is_caught() {
        let mut r = good_trial();
        // 100 ms skew per stall (the canary's signature) over 2 stalls.
        r.stall_s = 1.7;
        let v = timeline_invariants(&timeline(&[1000, 500], 75), &r);
        assert!(
            v.iter().any(|m| m.contains("stall accounting drift")),
            "{v:?}"
        );
    }

    #[test]
    fn truncation_noise_is_tolerated() {
        let mut r = good_trial();
        // Each dur_ms is truncated: the true sum can exceed it by <1 ms
        // per stall.
        r.stall_s = 1.5018;
        assert!(timeline_invariants(&timeline(&[1000, 500], 75), &r).is_empty());
    }

    #[test]
    fn missing_plays_are_caught() {
        let mut r = good_trial();
        r.stall_s = 0.0;
        let v = timeline_invariants(&timeline(&[], 74), &r);
        assert!(v.iter().any(|m| m.contains("segment_play")), "{v:?}");
    }

    /// The line-collecting, needle-building oracle the one-pass version
    /// replaced, kept as the reference it must agree with message for
    /// message.
    mod reference {
        use super::*;

        fn field_u64(line: &str, key: &str) -> Option<u64> {
            let needle = format!("\"{key}\":");
            let at = line.find(&needle)? + needle.len();
            let digits: String = line[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        }

        pub(super) fn timeline_invariants(jsonl: &[u8], r: &TrialResult) -> Vec<String> {
            let mut v = Vec::new();
            let text = match std::str::from_utf8(jsonl) {
                Ok(t) => t,
                Err(e) => return vec![format!("timeline is not UTF-8: {e}")],
            };
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return vec!["timeline is empty".into()];
            }
            if !lines[0].contains("\"kind\":\"trial_start\"") {
                v.push("timeline does not open with trial_start".into());
            }
            if !lines[lines.len() - 1].contains("\"kind\":\"trial_end\"") {
                v.push("timeline does not close with trial_end".into());
            }
            let mut last_seq = None;
            let mut stall_ms = 0u64;
            let mut stalls = 0u64;
            let mut plays = 0usize;
            let mut startups = 0usize;
            for line in &lines {
                if !(line.starts_with("{\"t\":") && line.ends_with('}')) {
                    v.push(format!("malformed timeline line: {line}"));
                    break;
                }
                match (field_u64(line, "seq"), last_seq) {
                    (Some(seq), Some(prev)) if seq <= prev => {
                        v.push(format!("seq {seq} after {prev}: emission order broken"));
                    }
                    (Some(seq), _) => last_seq = Some(seq),
                    (None, _) => v.push(format!("timeline line without seq: {line}")),
                }
                if line.contains("\"kind\":\"stall_end\"") {
                    stalls += 1;
                    match field_u64(line, "dur_ms") {
                        Some(ms) => stall_ms += ms,
                        None => v.push("stall_end without dur_ms".into()),
                    }
                } else if line.contains("\"kind\":\"segment_play\"") {
                    plays += 1;
                } else if line.contains("\"kind\":\"startup\"") {
                    startups += 1;
                }
            }
            let drift_ms = (r.stall_s * 1000.0 - stall_ms as f64).abs();
            let tolerance_ms = 2.0 * (stalls + 1) as f64;
            if drift_ms > tolerance_ms {
                v.push(format!(
                    "stall accounting drift: result says {:.1} ms, timeline's {} stall_end events sum to {} ms (tolerance {} ms)",
                    r.stall_s * 1000.0,
                    stalls,
                    stall_ms,
                    tolerance_ms
                ));
            }
            if r.completed {
                if plays != r.segment_scores.len() {
                    v.push(format!(
                        "{} segment_play events vs {} scored segments",
                        plays,
                        r.segment_scores.len()
                    ));
                }
                if startups != 1 {
                    v.push(format!("{startups} startup events in a completed trial"));
                }
            }
            v
        }
    }

    /// Kinds a generated line may carry: the counted ones, bracketing
    /// ones, look-alikes, and ones with bytes a positional parser could
    /// trip on.
    const KINDS: [&str; 10] = [
        "trial_start",
        "startup",
        "stall_end",
        "segment_play",
        "pkt_sent",
        "trial_end",
        "stall_end_x",
        "startup\\\"",
        "",
        "é",
    ];

    /// One generated line. `shape` picks a rendering: canonical, or one
    /// of the non-canonical forms the fallback must handle.
    fn line(kind: &str, seq: u64, dur: u64, shape: u64) -> String {
        let t = seq * 1000;
        let dur_field = if kind.starts_with("stall_end") {
            format!(",\"dur_ms\":{dur}")
        } else {
            String::new()
        };
        match shape % 13 {
            // Key order changed: `seq` after `kind`.
            0 => format!(
                "{{\"t\":{t},\"sid\":0,\"layer\":\"player\",\"kind\":\"{kind}\",\"seq\":{seq}{dur_field}}}"
            ),
            // No `seq` at all.
            1 => format!("{{\"t\":{t},\"sid\":0,\"layer\":\"player\",\"kind\":\"{kind}\"{dur_field}}}"),
            // A second `kind` key in the payload.
            2 => format!(
                "{{\"t\":{t},\"seq\":{seq},\"sid\":0,\"layer\":\"player\",\"kind\":\"pkt_sent\",\"kind\":\"{kind}\"{dur_field}}}"
            ),
            // A `seq` too large for a u64, or written with a space.
            3 => format!(
                "{{\"t\":{t},\"seq\":99999999999999999999{seq},\"sid\":0,\"layer\":\"player\",\"kind\":\"{kind}\"{dur_field}}}"
            ),
            4 => format!(
                "{{\"t\":{t},\"seq\": {seq},\"sid\":0,\"layer\":\"player\",\"kind\":\"{kind}\"{dur_field}}}"
            ),
            // `dur_ms` missing or not a number.
            5 => format!(
                "{{\"t\":{t},\"seq\":{seq},\"sid\":0,\"layer\":\"player\",\"kind\":\"{kind}\",\"dur_ms\":-1}}"
            ),
            // Leading zeros, and a layer with an escape in it.
            6 => format!(
                "{{\"t\":{t},\"seq\":000{seq},\"sid\":0,\"layer\":\"pl\\\\ay\",\"kind\":\"{kind}\"{dur_field}}}"
            ),
            // Not closed by `}` after the kind.
            7 => format!("{{\"t\":{t},\"seq\":{seq},\"sid\":0,\"layer\":\"player\",\"kind\":\"{kind}\"x}}"),
            // A second `"kind":"…"` that borrows the header kind's closing
            // quote as its opening one.
            8 => format!(
                "{{\"t\":{t},\"seq\":{seq},\"sid\":0,\"layer\":\"player\",\"kind\":\"pkt_sent\"kind\":\"{kind}\"{dur_field}}}"
            ),
            _ => format!(
                "{{\"t\":{t},\"seq\":{seq},\"sid\":0,\"layer\":\"player\",\"kind\":\"{kind}\"{dur_field},\"bytes\":1200}}"
            ),
        }
    }

    fn trial(stall_ms: u64, completed: bool, scored: usize) -> TrialResult {
        let mut r = good_trial();
        r.stall_s = stall_ms as f64 / 1000.0;
        r.completed = completed;
        r.segment_scores.truncate(scored);
        r
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]
        /// Over generated timelines, then mutated ones (truncated, CRLF,
        /// non-canonical, missing or regressing `seq`, non-UTF-8, empty),
        /// the one-pass oracle returns the reference's violations exactly.
        #[test]
        fn one_pass_oracle_matches_the_reference(
            lines in proptest::collection::vec((0usize..10, 0u64..3, 0u64..2000, 0u64..40), 0..24),
            mutation in (0u64..8, 0u64..=u64::MAX, proptest::num::u8::ANY),
            result in (0u64..4000, proptest::bool::ANY, 0usize..6),
        ) {
            let mut seq = 0u64;
            let mut text = String::new();
            for &(k, step, dur, shape) in &lines {
                // Mostly increasing; a zero step repeats, and a step of 2
                // from a small seq regresses.
                seq = match step {
                    0 => seq,
                    1 => seq + 1,
                    _ => seq.saturating_sub(3),
                };
                text.push_str(&line(KINDS[k], seq, dur, shape));
                text.push('\n');
            }
            let mut bytes = text.into_bytes();
            let (op, at, byte) = mutation;
            let pos = |len: usize| (at % (len as u64 + 1)) as usize;
            match op {
                0 => bytes.truncate(pos(bytes.len())),
                1 => {
                    let crlf = String::from_utf8_lossy(&bytes).replace('\n', "\r\n");
                    bytes = crlf.into_bytes();
                }
                2 => bytes.insert(pos(bytes.len()), 0xff),
                3 => bytes.clear(),
                4 => {
                    let i = pos(bytes.len());
                    bytes.insert(i, byte & 0x7f);
                }
                5 => {
                    // Drop the trailing newline (the last line has none).
                    bytes.pop();
                }
                _ => {}
            }
            let r = trial(result.0, result.1, result.2);
            proptest::prop_assert_eq!(
                timeline_invariants(&bytes, &r),
                reference::timeline_invariants(&bytes, &r)
            );
        }
    }

    #[test]
    fn one_pass_oracle_matches_the_reference_on_a_real_timeline() {
        let mut r = good_trial();
        r.stall_s = 1.5;
        let t = timeline(&[1000, 500], 75);
        assert_eq!(
            timeline_invariants(&t, &r),
            reference::timeline_invariants(&t, &r)
        );
        assert!(line_facts_canonical(
            std::str::from_utf8(&t)
                .expect("utf8")
                .lines()
                .nth(2)
                .expect("line")
        )
        .is_some());
    }

    #[test]
    fn bounds_shape_follows_the_scenario() {
        let comfy = Scenario::parse("BBB:BOLA:const8").expect("spec");
        let b = Bounds::for_scenario(&comfy);
        assert!(b.max_buf_ratio_pct <= 15.0);
        let rough = Scenario::parse("BBB:BOLA:const8:loss@10+5x0.5").expect("spec");
        assert!(Bounds::for_scenario(&rough).max_buf_ratio_pct > 15.0);
        let cellular = Scenario::parse("BBB:VOXEL:tmobile:buf1").expect("spec");
        assert!(Bounds::for_scenario(&cellular).max_buf_ratio_pct > 15.0);
    }

    #[test]
    fn bounds_flag_envelope_violations() {
        let b = Bounds {
            max_buf_ratio_pct: 5.0,
            min_mean_ssim: 0.99,
            max_startup_s: 0.5,
            require_complete: true,
        };
        let mut r = good_trial();
        r.completed = false;
        let v = b.check(&r);
        assert!(v.iter().any(|m| m.contains("safety cap")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("startup")), "{v:?}");
        // bufRatio 0.5% is fine; SSIM check only applies to completed runs.
        r.completed = true;
        let v = b.check(&r);
        assert!(v.iter().any(|m| m.contains("SSIM")), "{v:?}");
    }
}
