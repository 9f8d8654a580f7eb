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

/// Extract the integer value of `"key":` from a JSONL line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Cross-check the traced timeline against the trial result.
///
/// The timeline is emitted event-by-event as the simulation runs, while
/// `stall_s` is the player's own accumulator — comparing the two catches
/// one-sided accounting bugs. The tolerance is `(stalls + 1) × 2 ms`:
/// each `stall_end` event truncates its `dur_ms` to whole milliseconds.
pub fn timeline_invariants(jsonl: &[u8], r: &TrialResult) -> Vec<String> {
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
        // `t` may run behind emission order (events reported
        // retroactively, e.g. a back-dated stall_start); `seq` is the
        // strict total order.
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
