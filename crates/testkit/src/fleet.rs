//! Fleet conformance: oracles and golden digests for multi-session runs.
//!
//! A fleet run is a pure function of its [`FleetSpec`] (no sweep seed —
//! the spec fixes the timeline byte-for-byte), so fleet goldens sit in
//! the one [`crate::digest::GOLDENS`] table with `seed: 0`. Oracles check
//! the cross-session properties single-session oracles cannot see:
//! conservation of link shares, fairness of homogeneous fleets, and
//! per-flow starvation.

use crate::runner::Content;
use voxel_fleet::{run_fleet, CcKind, FleetResult, FleetSpec};
use voxel_obs::FlightRecorder;
use voxel_sim::SimTime;
use voxel_trace::{JsonlSink, MetricsSnapshot, SharedBuf, Tracer};

/// Homogeneous fleets must land at least this fair (Jain index) — CUBIC
/// flows with identical ABRs on one DRR link have no excuse not to.
const HOMOGENEOUS_JAIN_FLOOR: f64 = 0.8;

/// Homogeneous floor for all-delay fleets. Delay-based control has the
/// classic intra-protocol late-comer problem: a flow that arrives after
/// the queue has standing delay under-estimates its fair window, so even
/// identical delay flows on one FIFO converge slower and less evenly
/// than loss- or model-based ones. The band is looser, not absent.
const DELAY_HOMOGENEOUS_JAIN_FLOOR: f64 = 0.7;

/// The homogeneous fairness floor for a fleet running entirely on `cc`
/// — the per-cc leg of the cc-mix-parameterized fairness band.
fn homogeneous_jain_floor(cc: CcKind) -> f64 {
    match cc {
        CcKind::Delay => DELAY_HOMOGENEOUS_JAIN_FLOOR,
        _ => HOMOGENEOUS_JAIN_FLOOR,
    }
}

/// Fairness band for same-ABR fleets that differ only in congestion
/// control (`@cc` groups). Mixed-cc contention is *expected* to be
/// unfair — BBR's model-based window does not back off the way CUBIC
/// does — so these fleets answer to a looser floor instead of escaping
/// fairness oracles entirely.
const MIXED_CC_JAIN_FLOOR: f64 = 0.4;

/// Per-cc-group starvation floor: in a mixed-cc fleet, every cc group's
/// *mean* per-flow link share must stay above this fraction of the fair
/// share (`100/n` percent). Catches one controller collectively crushing
/// another even when no single flow is starved to zero bytes.
const CC_GROUP_SHARE_FRACTION: f64 = 0.25;

/// A *hot* edge fleet — full admission, hash routing, an unbounded
/// cache, every session on one video — must serve at least this fraction
/// of lookups from cache: only the leader session's distinct objects can
/// miss, so 16 same-video sessions have a ceiling of 1/16 misses.
pub const EDGE_HOT_HIT_RATIO_FLOOR: f64 = 0.9;

/// A hot edge fleet's origin traffic must stay at or below this fraction
/// of the equivalent cold (admission `none`) fleet's — the flash crowd is
/// absorbed by the cache, not forwarded.
pub const EDGE_HOT_ORIGIN_FRACTION_OF_COLD: f64 = 0.1;

/// Origin-load ceiling for hot edge fleets, percent of the run's
/// duration spent busy: a warm cache leaves the backhaul mostly idle.
const EDGE_HOT_ORIGIN_LOAD_CEILING_PCT: f64 = 25.0;

/// Cross-session invariants every fleet run must satisfy. Returns
/// violations (empty = all oracles passed).
pub fn fleet_invariants(spec: &FleetSpec, r: &FleetResult) -> Vec<String> {
    let mut v = Vec::new();
    let n = spec.total_sessions();
    if r.sessions.len() != n {
        v.push(format!(
            "fleet produced {} session results for {} members",
            r.sessions.len(),
            n
        ));
    }
    if r.flows.len() != n {
        v.push(format!(
            "fleet produced {} flow stats for {} members",
            r.flows.len(),
            n
        ));
    }
    // An explicit cap (`:cap<N>`) deliberately freezes stragglers, so
    // completion is only an invariant for uncapped fleets.
    if spec.cap_s.is_none() && !r.all_completed() {
        let stuck: Vec<usize> = r
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.completed)
            .map(|(i, _)| i)
            .collect();
        v.push(format!("sessions {stuck:?} did not complete"));
    }
    let share_sum: f64 = r.shares_pct.iter().sum();
    if (share_sum - 100.0).abs() > 1e-6 {
        v.push(format!("flow shares sum to {share_sum}, not 100"));
    }
    if !(0.0..=1.0 + 1e-12).contains(&r.jain) {
        v.push(format!("Jain index {} outside [0, 1]", r.jain));
    }
    // The fairness band is parameterized by the fleet's cc mix: one
    // system on one cc answers to the strict homogeneous floor; one
    // system split across cc groups answers to the looser mixed-cc
    // floor; fleets mixing ABR systems have no Jain floor at all (their
    // fairness is a *finding*, not an invariant).
    let members = spec.session_members();
    let one_system = members.iter().all(|m| m.system == members[0].system);
    let mix = spec.cc_mix();
    if spec.homogeneous() {
        let floor = homogeneous_jain_floor(mix[0]);
        if r.jain < floor {
            v.push(format!(
                "homogeneous {}@{} fleet has Jain {:.3} < {floor}",
                spec.members[0].system,
                mix[0].name(),
                r.jain
            ));
        }
    } else if one_system && mix.len() > 1 && r.jain < MIXED_CC_JAIN_FLOOR {
        v.push(format!(
            "mixed-cc {} fleet ({mix:?}) has Jain {:.3} < {MIXED_CC_JAIN_FLOOR}",
            spec.members[0].system, r.jain
        ));
    }
    for (i, f) in r.flows.iter().enumerate() {
        if f.bytes_delivered == 0 {
            v.push(format!("flow {i} was starved (0 bytes delivered)"));
        }
    }
    // Per-cc-group starvation: no controller may collectively crush
    // another below a fraction of fair share, even if every individual
    // flow still moves some bytes.
    if mix.len() > 1 && r.shares_pct.len() == n {
        let fair = 100.0 / n as f64;
        for (kind, mean) in cc_group_shares(spec, r) {
            if mean < fair * CC_GROUP_SHARE_FRACTION {
                v.push(format!(
                    "cc group {} starved: mean share {mean:.2}% < {:.2}% \
                     ({CC_GROUP_SHARE_FRACTION} of fair share)",
                    kind.name(),
                    fair * CC_GROUP_SHARE_FRACTION
                ));
            }
        }
    }
    // Per-flow conservation: everything enqueued is either delivered or
    // still unaccounted-for queue residue at teardown — never invented.
    for (i, f) in r.flows.iter().enumerate() {
        if f.delivered > f.enqueued {
            v.push(format!(
                "flow {i} delivered {} packets but enqueued only {}",
                f.delivered, f.enqueued
            ));
        }
    }
    // Edge tier consistency: a topology spec must produce a report (and
    // only then), with every session routed, per-edge counters summing
    // to the fleet-wide ones, and admission `none` never hitting.
    match (&spec.edge, &r.edge) {
        (None, None) => {}
        (Some(_), None) => v.push("edge topology spec produced no edge report".into()),
        (None, Some(_)) => v.push("edge report without an edge topology spec".into()),
        (Some(t), Some(e)) => {
            if e.edges.len() != t.edges {
                v.push(format!(
                    "edge report covers {} edges for a topology of {}",
                    e.edges.len(),
                    t.edges
                ));
            }
            let routed: usize = e.edges.iter().map(|s| s.sessions).sum();
            if routed != n {
                v.push(format!("{routed} sessions routed to edges, fleet has {n}"));
            }
            let (hits, misses): (u64, u64) = e
                .edges
                .iter()
                .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
            if (hits, misses) != (e.hits, e.misses) {
                v.push(format!(
                    "per-edge hit/miss ({hits}/{misses}) disagree with fleet-wide ({}/{})",
                    e.hits, e.misses
                ));
            }
            let origin: u64 = e.edges.iter().map(|s| s.origin_bytes).sum();
            if origin != e.origin_bytes {
                v.push(format!(
                    "per-edge origin bytes {origin} disagree with backhaul total {}",
                    e.origin_bytes
                ));
            }
            if e.hits + e.misses == 0 {
                v.push("edge tier saw no lookups from a streaming fleet".into());
            }
            if !(0.0..=100.0 + 1e-9).contains(&e.hit_ratio_pct) {
                v.push(format!(
                    "edge hit ratio {}% outside [0, 100]",
                    e.hit_ratio_pct
                ));
            }
            if t.admission == voxel_core::Admission::None && e.hits > 0 {
                v.push(format!(
                    "admission `none` edge tier reported {} cache hits",
                    e.hits
                ));
            }
        }
    }
    v
}

/// Mean link share (%) of each cc group, in [`FleetSpec::cc_mix`] order:
/// the starvation oracle's input and the `cc_shootout` exhibit's column.
pub fn cc_group_shares(spec: &FleetSpec, r: &FleetResult) -> Vec<(CcKind, f64)> {
    let members = spec.session_members();
    spec.cc_mix()
        .into_iter()
        .map(|kind| {
            let shares: Vec<f64> = members
                .iter()
                .zip(&r.shares_pct)
                .filter(|(m, _)| m.cc_kind() == kind)
                .map(|(_, s)| *s)
                .collect();
            (kind, shares.iter().sum::<f64>() / shares.len() as f64)
        })
        .collect()
}

/// Oracles specific to a *hot* edge fleet (full admission, hash routing,
/// unbounded cache, one video): the cache must absorb the crowd. Applied
/// to the hot golden by [`crate::run_golden`] — not folded into
/// [`fleet_invariants`], because generated zipf workloads legitimately
/// run colder.
pub fn edge_hot_invariants(r: &FleetResult) -> Vec<String> {
    let mut v = Vec::new();
    let Some(e) = &r.edge else {
        return vec!["hot edge fleet produced no edge report".into()];
    };
    if e.hit_ratio() < EDGE_HOT_HIT_RATIO_FLOOR {
        v.push(format!(
            "hot edge hit ratio {:.3} below the {EDGE_HOT_HIT_RATIO_FLOOR} floor",
            e.hit_ratio()
        ));
    }
    if e.origin_load_pct > EDGE_HOT_ORIGIN_LOAD_CEILING_PCT {
        v.push(format!(
            "hot edge origin load {:.1}% above the {EDGE_HOT_ORIGIN_LOAD_CEILING_PCT}% ceiling",
            e.origin_load_pct
        ));
    }
    v
}

/// One traced fleet run: its timeline and metrics, oracle verdict, the
/// full [`FleetResult`], and — when an oracle fired — the flight-recorder
/// postmortem of the run's tail.
pub struct FleetRun {
    /// The raw JSONL timeline (what a digest is taken over).
    pub timeline: Vec<u8>,
    /// The fleet tracer's metrics at the end of the run.
    pub metrics: Option<MetricsSnapshot>,
    /// Cross-session oracle violations (empty = passed).
    pub failures: Vec<String>,
    /// Last-events dump, present exactly when `failures` is non-empty.
    pub postmortem: Option<String>,
    /// The run's metrics, for cross-worker-count parity comparison.
    pub result: FleetResult,
}

/// Run one fleet with its timeline captured, its sink teed through a
/// flight recorder, and [`fleet_invariants`] applied.
pub fn run_fleet_traced(spec: &FleetSpec, content: &Content) -> Result<FleetRun, String> {
    let buf = SharedBuf::new();
    let recorder = FlightRecorder::new(format!("fleet={spec}"), voxel_obs::DEFAULT_CAPACITY);
    let tracer = Tracer::new(
        0,
        Box::new(recorder.wrap(Box::new(JsonlSink::to_writer(Box::new(buf.clone()))))),
    );
    let result = {
        let _bound = voxel_obs::install_recorder(&recorder);
        run_fleet(spec, content.cache(), tracer.clone())?
    };
    let failures = fleet_invariants(spec, &result);
    let postmortem = failures.first().map(|first| recorder.postmortem(first));
    Ok(FleetRun {
        timeline: buf.take(),
        metrics: tracer.metrics_snapshot(SimTime::from_secs_f64(result.end_s)),
        failures,
        postmortem,
        result,
    })
}

/// Deterministic-parity oracle: run `spec` at every worker count in
/// `counts` (overriding its `w<N>` and the environment) and compare each
/// run against the first, byte-for-byte on the timeline and
/// field-by-field on the [`FleetResult`]. Returns the first count's run
/// (whose timeline is the digest candidate) and the violations, each
/// prefixed with `name` (empty = sharding is unobservable, as the
/// determinism contract demands).
pub fn shard_parity_failures(
    name: &str,
    spec: &FleetSpec,
    content: &Content,
    counts: &[usize],
) -> Result<(FleetRun, Vec<String>), String> {
    let mut v = Vec::new();
    let mut reference: Option<(usize, FleetRun)> = None;
    for &w in counts {
        let run = run_fleet_traced(
            &FleetSpec {
                workers: Some(w),
                ..spec.clone()
            },
            content,
        )?;
        for f in &run.failures {
            v.push(format!("{name} w={w}: oracle: {f}"));
        }
        let Some((w0, base)) = &reference else {
            reference = Some((w, run));
            continue;
        };
        if run.timeline != base.timeline {
            let byte = run
                .timeline
                .iter()
                .zip(base.timeline.iter())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| run.timeline.len().min(base.timeline.len()));
            v.push(format!(
                "{name} w={w}: timeline diverges from w={w0} at byte {byte} \
                 ({} vs {} bytes total)",
                run.timeline.len(),
                base.timeline.len()
            ));
        }
        let (a, b) = (&run.result, &base.result);
        let sessions_same = a.sessions.len() == b.sessions.len()
            && a.sessions.iter().zip(&b.sessions).all(|(sa, sb)| {
                sa.completed == sb.completed
                    && sa.stall_s == sb.stall_s
                    && sa.bytes_downloaded == sb.bytes_downloaded
                    && sa.avg_ssim() == sb.avg_ssim()
                    && sa.transport.packets_sent == sb.transport.packets_sent
                    && sa.transport.packets_lost == sb.transport.packets_lost
            });
        for (what, same) in [
            ("loop_iters", a.loop_iters == b.loop_iters),
            ("end_s", a.end_s == b.end_s),
            ("jain", a.jain == b.jain),
            ("flow shares", a.shares_pct == b.shares_pct),
            ("per-flow link stats", a.flows == b.flows),
            ("edge report", a.edge == b.edge),
            ("per-session results", sessions_same),
        ] {
            if !same {
                v.push(format!("{name} w={w}: {what} differ from w={w0}"));
            }
        }
    }
    let (_, base) = reference.ok_or("parity sweep needs at least one worker count")?;
    Ok((base, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_core::TrialResult;
    use voxel_netem::FlowStats;

    fn fake_result(spec: &FleetSpec, delivered: &[u64]) -> FleetResult {
        let total: u64 = delivered.iter().sum();
        FleetResult {
            spec: spec.spec(),
            sessions: delivered
                .iter()
                .map(|_| TrialResult {
                    completed: true,
                    ..TrialResult::default()
                })
                .collect(),
            flows: delivered
                .iter()
                .map(|&b| FlowStats {
                    enqueued: 10,
                    dropped: 0,
                    delivered: 10,
                    bytes_delivered: b,
                })
                .collect(),
            shares_pct: delivered
                .iter()
                .map(|&b| 100.0 * b as f64 / total as f64)
                .collect(),
            jain: voxel_fleet::jain_index(&delivered.iter().map(|&b| b as f64).collect::<Vec<_>>()),
            end_s: 100.0,
            loop_iters: 1,
            edge: None,
        }
    }

    #[test]
    fn fleet_oracles_pass_on_a_fair_fleet() {
        let spec = FleetSpec::parse("BBB:2xVOXEL:const6").expect("spec");
        let r = fake_result(&spec, &[1000, 990]);
        assert_eq!(fleet_invariants(&spec, &r), Vec::<String>::new());
    }

    #[test]
    fn fleet_oracles_flag_unfair_and_starved_fleets() {
        let spec = FleetSpec::parse("BBB:2xVOXEL:const6").expect("spec");
        let mut r = fake_result(&spec, &[1000, 0]);
        // Starved flow 1: degenerate shares and a Jain of 0.5.
        r.shares_pct = vec![100.0, 0.0];
        let v = fleet_invariants(&spec, &r);
        assert!(v.iter().any(|m| m.contains("starved")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("Jain")), "{v:?}");

        let mut r = fake_result(&spec, &[1000, 1000]);
        r.sessions[1].completed = false;
        let v = fleet_invariants(&spec, &r);
        assert!(v.iter().any(|m| m.contains("did not complete")), "{v:?}");
    }

    /// The fairness band follows the cc mix: a same-ABR bbr+cubic fleet
    /// is held to the looser mixed-cc floor, not the homogeneous one —
    /// and not to nothing.
    #[test]
    fn mixed_cc_fleet_answers_to_the_relaxed_jain_floor() {
        let spec = FleetSpec::parse("BBB:2xVOXEL@bbr+2xVOXEL@cubic:const6").expect("spec");
        // Jain 0.757: unfair enough to fail the 0.8 homogeneous floor,
        // fair enough to clear the 0.4 mixed-cc floor.
        let r = fake_result(&spec, &[1000, 1000, 300, 300]);
        assert!(r.jain < HOMOGENEOUS_JAIN_FLOOR && r.jain > MIXED_CC_JAIN_FLOOR);
        assert_eq!(fleet_invariants(&spec, &r), Vec::<String>::new());
        // Jain 0.333: below even the mixed-cc band. (With 2 of 4 flows
        // equal-and-dominant Jain bottoms out at 0.5, so the sub-floor
        // case needs one runaway flow.)
        let r = fake_result(&spec, &[1000, 100, 30, 30]);
        assert!(r.jain < MIXED_CC_JAIN_FLOOR);
        let v = fleet_invariants(&spec, &r);
        assert!(v.iter().any(|m| m.contains("mixed-cc")), "{v:?}");
    }

    /// The edge consistency oracles: a topology spec demands a matching
    /// report, per-edge counters must sum to fleet-wide ones, and an
    /// admission-`none` tier can never hit. The hot-path oracle holds the
    /// cache to its hit-ratio floor and origin-load ceiling.
    #[test]
    fn edge_oracles_check_report_consistency() {
        use voxel_fleet::{EdgeReport, EdgeStats};
        let spec = FleetSpec::parse("BBB:2xVOXEL:const6:e2:rhash:afull:plru:o50").expect("spec");
        let mut r = fake_result(&spec, &[1000, 990]);
        let v = fleet_invariants(&spec, &r);
        assert!(v.iter().any(|m| m.contains("no edge report")), "{v:?}");

        let healthy = EdgeReport {
            edges: vec![
                EdgeStats {
                    sessions: 2,
                    hits: 95,
                    misses: 5,
                    origin_bytes: 5_000,
                    bytes_served: 100_000,
                    ..EdgeStats::default()
                },
                EdgeStats::default(),
            ],
            hits: 95,
            misses: 5,
            origin_bytes: 5_000,
            origin_fetches: 5,
            hit_ratio_pct: 95.0,
            origin_load_pct: 3.0,
            ..EdgeReport::default()
        };
        r.edge = Some(healthy.clone());
        assert_eq!(fleet_invariants(&spec, &r), Vec::<String>::new());
        assert_eq!(edge_hot_invariants(&r), Vec::<String>::new());

        // Books that don't balance: per-edge sums disagree fleet-wide.
        let mut cooked = healthy.clone();
        cooked.hits = 40;
        r.edge = Some(cooked);
        let v = fleet_invariants(&spec, &r);
        assert!(v.iter().any(|m| m.contains("disagree")), "{v:?}");

        // A cold tier claiming hits is lying.
        let cold = FleetSpec::parse("BBB:2xVOXEL:const6:e2:rhash:anone:plru:o50").expect("spec");
        r.edge = Some(healthy.clone());
        let v = fleet_invariants(&cold, &r);
        assert!(v.iter().any(|m| m.contains("admission `none`")), "{v:?}");

        // The hot oracle flags a cold cache and a busy backhaul.
        let mut lukewarm = healthy;
        lukewarm.hit_ratio_pct = 50.0;
        lukewarm.origin_load_pct = 80.0;
        r.edge = Some(lukewarm);
        let v = edge_hot_invariants(&r);
        assert!(v.iter().any(|m| m.contains("hit ratio")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("origin load")), "{v:?}");
    }

    /// The per-cc-group starvation oracle fires when one controller's
    /// flows are collectively crushed below a quarter of fair share,
    /// even though each flow individually still delivers bytes.
    #[test]
    fn cc_group_starvation_oracle_fires_per_mix() {
        let spec = FleetSpec::parse("BBB:2xVOXEL@bbr+2xVOXEL@cubic:const6").expect("spec");
        // cubic group mean share = 3% < 25% of the 25% fair share.
        let r = fake_result(&spec, &[470, 470, 30, 30]);
        let v = fleet_invariants(&spec, &r);
        assert!(
            v.iter().any(|m| m.contains("cc group cubic starved")),
            "{v:?}"
        );
        assert!(
            !v.iter().any(|m| m.contains("cc group bbr")),
            "bbr group is healthy: {v:?}"
        );
        // A single-cc fleet never triggers the group oracle.
        let homo = FleetSpec::parse("BBB:4xVOXEL@bbr:const6").expect("spec");
        let r = fake_result(&homo, &[500, 500, 480, 480]);
        assert_eq!(fleet_invariants(&homo, &r), Vec::<String>::new());
    }
}
