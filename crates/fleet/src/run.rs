//! The sharded fleet runtime: N sessions, one link, barrier rounds.
//!
//! Pre-shard, the fleet was one global discrete-event loop that pumped
//! every session at every event — O(fleet) work per event. Now each
//! session owns a private event queue (see the `shard` module) and sessions
//! interact **only** through the [`SharedLink`]: the run proceeds in
//! conservative-parallel rounds, each bounded by a barrier the coordinator
//! derives from the link's downlink propagation delay (the lookahead).
//! Within a round every session advances independently — across worker
//! threads when `workers > 1` — and the packets they offered to the link
//! are merged in the partition-invariant order `(time, flow, seq)` and
//! pumped through the link single-threaded between rounds. DESIGN.md §14
//! documents the protocol and why the barrier is a valid lookahead.
//!
//! Determinism contract, strengthened: a fleet run is a pure function of
//! its [`FleetSpec`] **and is byte-identical for every worker count** —
//! `workers` is a performance knob, never a semantic one. The tier-1
//! parity tests and the conformance harness hold every golden fleet
//! digest to that across `w ∈ {1, 2, max}`.
//!
//! Tracing: a fleet run drives one fleet-level tracer (layer `fleet`) —
//! membership, per-session summaries, the fairness digest — rather than
//! N full per-layer session timelines, keeping golden fleet digests
//! small and stable.

use crate::edge::{EdgeTier, Workload};
use crate::metrics::{jain_index, FleetResult};
use crate::shard::{Cmd, Delivery, FinishNote, Lane, NoteOut, Outgoing, Reply};
use crate::shard::{RoundCmd, SessionCell, SessionSeed};
use crate::spec::{resolve_workers, system_by_name, FleetSpec, TopologySpec};
use std::collections::VecDeque;
use voxel_core::client::{PlayerConfig, TransportMode};
use voxel_core::{AbrKind, ContentCache, TrialResult};
use voxel_media::content::VideoId;
use voxel_netem::{Departure, SharedLink, SharedLinkConfig};
use voxel_quic::{CcKind, ConnectionConfig, Packet};
use voxel_sim::SimTime;
use voxel_trace::{trace_event, Layer, Tracer};

/// One resolved fleet member: what its [`SessionSeed`] is built from.
#[derive(Clone)]
struct Member {
    label: String,
    abr: AbrKind,
    transport: TransportMode,
    cc: CcKind,
}

/// Everything a fleet run needs, resolved from a spec.
/// Videos and start times are per-session (flow order): the spec path
/// seeds them uniformly (one video, `stagger_s * i` starts) and a
/// [`Workload`] overrides both — which is how the zipf/Poisson flash
/// crowd reaches the runtime.
struct Plan {
    spec: String,
    videos: Vec<VideoId>,
    starts: Vec<SimTime>,
    link: SharedLinkConfig,
    buffer_segments: usize,
    cap: SimTime,
    topology: Option<TopologySpec>,
    workers: Option<usize>,
    members: Vec<Member>,
}

impl Plan {
    fn from_spec(spec: &FleetSpec) -> Result<Plan, String> {
        let mut members = Vec::with_capacity(spec.total_sessions());
        for m in spec.session_members() {
            let (abr, transport) = system_by_name(&m.system)
                .ok_or_else(|| format!("unknown system {:?}", m.system))?;
            members.push(Member {
                label: m.label(),
                abr,
                transport,
                cc: m.cc_kind(),
            });
        }
        if members.is_empty() {
            return Err("fleet has no sessions".to_string());
        }
        Ok(Plan {
            spec: spec.spec(),
            videos: vec![spec.video; members.len()],
            starts: (0..members.len())
                .map(|i| SimTime::from_secs((spec.stagger_s * i) as u64))
                .collect(),
            link: SharedLinkConfig::new(spec.trace(), spec.queue_packets, spec.discipline),
            buffer_segments: spec.buffer_segments,
            cap: cap_for(spec.cap_s, spec.duration_s),
            topology: spec.edge.clone(),
            workers: spec.workers,
            members,
        })
    }
}

fn cap_for(cap_s: Option<usize>, duration_s: usize) -> SimTime {
    match cap_s {
        Some(s) => SimTime::from_secs(s as u64),
        // The single-session safety cap, per member; never reached in
        // practice.
        None => SimTime::from_secs_f64(duration_s as f64 * 5.0 + 120.0),
    }
}

/// Run a fleet described by a parsed [`FleetSpec`]. Deterministic: the
/// spec alone fixes the timeline byte-for-byte, at any worker count.
pub fn run_fleet(
    spec: &FleetSpec,
    cache: &ContentCache,
    tracer: Tracer,
) -> Result<FleetResult, String> {
    Plan::from_spec(spec).map(|plan| run_plan(plan, cache, tracer))
}

/// Run a fleet under a generated [`Workload`]: the spec fixes the
/// members, link, and topology; the workload overrides each session's
/// video and start time (zipf popularity + Poisson arrivals from
/// [`crate::edge::zipf_poisson_arrivals`], or anything else flow-sized).
pub fn run_fleet_workload(
    spec: &FleetSpec,
    workload: &Workload,
    cache: &ContentCache,
    tracer: Tracer,
) -> Result<FleetResult, String> {
    let mut plan = Plan::from_spec(spec)?;
    let n = plan.members.len();
    if workload.videos.len() != n || workload.starts.len() != n {
        return Err(format!(
            "workload sized {}v/{}s for a fleet of {n}",
            workload.videos.len(),
            workload.starts.len(),
        ));
    }
    plan.videos = workload.videos.clone();
    plan.starts = workload.starts.clone();
    Ok(run_plan(plan, cache, tracer))
}

/// Contiguous shard sizes for `n` sessions over `workers` lanes: the
/// first `n % workers` lanes take one extra session.
fn chunk_sizes(n: usize, workers: usize) -> Vec<usize> {
    let base = n / workers;
    (0..workers)
        .map(|j| base + usize::from(j < n % workers))
        .filter(|&s| s > 0)
        .collect()
}

fn run_plan(plan: Plan, cache: &ContentCache, tracer: Tracer) -> FleetResult {
    let qoe = cache.qoe();
    let n = plan.members.len();
    let workers = resolve_workers(plan.workers, n);

    let mut seeds: Vec<SessionSeed> = Vec::with_capacity(n);
    for (i, m) in plan.members.iter().enumerate() {
        let (manifest, video) = cache.get(plan.videos[i]);
        let mut player = PlayerConfig::new(plan.buffer_segments, m.transport);
        player.selective_retx = m.transport == TransportMode::Split;
        seeds.push(SessionSeed {
            flow: i,
            label: m.label.clone(),
            start: plan.starts[i],
            delay_up: plan.link.path.delay_up,
            player,
            conn_config: ConnectionConfig {
                cc: m.cc,
                ..ConnectionConfig::default()
            },
            manifest,
            video,
            qoe: qoe.clone(),
            abr: m.abr,
            record_notes: plan.topology.is_some(),
        });
    }

    trace_event!(
        tracer,
        SimTime::ZERO,
        Layer::Fleet,
        "fleet_start",
        "sessions" = n,
        "queue_packets" = plan.link.path.queue_packets,
        "discipline" = plan.link.discipline.as_str(),
        "mean_mbps" = plan.link.path.trace.mean_mbps(),
    );
    for seed in &seeds {
        trace_event!(
            tracer,
            seed.start,
            Layer::Fleet,
            "fleet_session_start",
            "flow" = seed.flow,
            "system" = seed.label.as_str(),
            "start_s" = seed.start.as_secs_f64(),
        );
    }

    let link = SharedLink::new(plan.link.clone(), n);
    if workers <= 1 {
        // Single lane on the calling thread: no threads are spawned at
        // all, and the coordinator + shard code is exactly the code the
        // threaded path runs.
        let sessions: Vec<SessionCell> = seeds.into_iter().map(SessionCell::new).collect();
        let sizes = [n];
        let mut lanes = vec![Lane::Inline {
            sessions,
            pending: None,
        }];
        coordinate(&plan, link, &mut lanes, &sizes, &tracer)
    } else {
        // Workers construct and own their sessions (live session state
        // never crosses a thread); the coordinator's flight recorder, if
        // one is installed, is cloned onto every worker so paranoid
        // audits inside a shard reach the same ring.
        let recorder = voxel_obs::current_recorder();
        let sizes = chunk_sizes(n, workers);
        std::thread::scope(|scope| {
            let mut lanes: Vec<Lane> = Vec::with_capacity(sizes.len());
            let mut rest = seeds;
            for &size in &sizes {
                let tail = rest.split_off(size);
                let chunk = std::mem::replace(&mut rest, tail);
                lanes.push(Lane::spawn(scope, chunk, recorder.clone()));
            }
            coordinate(&plan, link, &mut lanes, &sizes, &tracer)
        })
    }
}

/// The barrier-round loop: compute the next barrier, fan the round out to
/// every lane, merge the outboxes in `(time, flow, seq)` order, pump the
/// shared link, and route its deliveries back out. Single-threaded; all
/// cross-session state (the link, payload FIFOs, delivery routing) lives
/// here and only here.
fn coordinate(
    plan: &Plan,
    mut link: SharedLink,
    lanes: &mut [Lane],
    sizes: &[usize],
    tracer: &Tracer,
) -> FleetResult {
    let n: usize = sizes.iter().sum();
    let delay_down = link.delay_down();
    let cap = plan.cap;
    // Lane j owns the contiguous flow range [lane_lo[j], lane_lo[j] + sizes[j]).
    let lane_lo: Vec<usize> = sizes
        .iter()
        .scan(0, |lo, s| {
            let here = *lo;
            *lo += s;
            Some(here)
        })
        .collect();
    let lane_of = |flow: usize| match lane_lo.binary_search(&flow) {
        Ok(j) => j,
        Err(j) => j - 1,
    };

    // Earliest pending work per live session (None = finished). Seeded
    // with the start times; refreshed from every round's blocked reports.
    let mut next_by_flow: Vec<Option<SimTime>> = plan.starts.iter().map(|s| Some(*s)).collect();
    // The edge tier, when the plan has one. `None` leaves the packet path
    // untouched — byte-identical to the classic single-server fleet.
    let mut edge: Option<EdgeTier> = plan
        .topology
        .as_ref()
        .map(|t| EdgeTier::new(t, &plan.videos));
    // Round-scratch: serve notes reported by shards, replayed against the
    // tier in (at, flow, seq) order.
    let mut notes: Vec<NoteOut> = Vec::new();
    // Packets enqueued on the shared link, awaiting service completion
    // (aligned with the link's byte-level per-flow queues).
    let mut pending_down: Vec<VecDeque<Packet>> = vec![VecDeque::new(); n];
    // Link deliveries produced by the previous round's pump, routed to
    // their owners at the top of the next round.
    let mut deliveries: Vec<Delivery> = Vec::new();
    let mut has_delivery: Vec<bool> = vec![false; n];
    let mut per_lane: Vec<Vec<Delivery>> = (0..lanes.len()).map(|_| Vec::new()).collect();
    // Each lane's skip vector, handed back by its shard every round.
    let mut skips: Vec<Vec<bool>> = vec![Vec::new(); lanes.len()];
    // Round-scratch buffers, reused across the (many) rounds.
    let mut merged: Vec<Outgoing> = Vec::new();
    let mut finished: Vec<FinishNote> = Vec::new();
    let mut departures: Vec<Departure> = Vec::new();

    let mut live = n;
    let mut iters: u64 = 0;
    let mut rounds: u64 = 0;
    let mut prev = SimTime::ZERO;
    let mut end = SimTime::ZERO;

    while live > 0 {
        rounds += 1;
        // Profiler sampling gate: free unless a voxel-obs profiler is
        // installed on this thread; clock readings stay quarantined in the
        // profile and never reach sim state.
        voxel_obs::arm(rounds);
        let _step = voxel_obs::span!("fleet.step");
        voxel_obs::observe("obs.shard_live", live as u64);
        voxel_obs::observe("obs.link_queue", link.queue_len() as u64);

        // Earliest actionable instant anywhere: a session's reported next
        // event, an un-routed delivery, or the link's next completion
        // (plus propagation). Everything here is partition-invariant.
        let mut global_next: Option<SimTime> = None;
        let mut fold = |t: SimTime| {
            global_next = Some(global_next.map_or(t, |g: SimTime| g.min(t)));
        };
        for t in next_by_flow.iter().flatten() {
            fold(*t);
        }
        for d in &deliveries {
            fold(d.at);
        }
        if let Some(eff) = edge.as_ref().and_then(EdgeTier::next_release) {
            fold(eff);
        }
        if let Some(dep) = link.next_departure() {
            fold(dep + delay_down);
        }
        let Some(global_next) = global_next else {
            // Unreachable while sessions are live (a live session always
            // reports a next time), but harmless: nothing can ever happen.
            break;
        };

        if global_next > cap {
            // Safety cap (or an explicit benchmark cap): nothing left in
            // (prev, cap], so freeze the stragglers where they are. A
            // global decision — only the coordinator can know no earlier
            // event exists on any shard.
            for lane in lanes.iter_mut() {
                lane.dispatch(Cmd::Freeze(cap));
            }
            finished.clear();
            for lane in lanes.iter_mut() {
                if let Reply::Round(mut r) = lane.collect() {
                    finished.append(&mut r.finished);
                }
            }
            finished.sort_by_key(|f| f.flow);
            for f in &finished {
                emit_session_end(tracer, f);
            }
            end = cap;
            break;
        }

        // The barrier: at least one lookahead quantum past the previous
        // barrier, fast-forwarded over globally-idle gaps, clamped to the
        // cap so no session simulates time the run will never keep.
        let barrier = (prev + delay_down).max(global_next).min(cap);

        // Route the previous round's link deliveries to their owners,
        // in link-departure order (partition-invariant).
        {
            let _deliver = voxel_obs::span!("fleet.deliver");
            for d in deliveries.drain(..) {
                has_delivery[d.flow] = true;
                per_lane[lane_of(d.flow)].push(d);
            }
        }

        // Fan the round out. A session is skipped — no wake-up at all —
        // when it has no deliveries and its next event is past the
        // barrier; the skip predicate reads only partition-invariant
        // state, so every worker count skips identically.
        {
            let _pump = voxel_obs::span!("fleet.pump");
            for (j, lane) in lanes.iter_mut().enumerate() {
                let lo = lane_lo[j];
                let mut skip = std::mem::take(&mut skips[j]);
                skip.clear();
                skip.extend(
                    (lo..lo + sizes[j])
                        .map(|f| !has_delivery[f] && next_by_flow[f].is_none_or(|t| t > barrier)),
                );
                lane.dispatch(Cmd::Round(RoundCmd {
                    barrier,
                    deliveries: std::mem::take(&mut per_lane[j]),
                    skip,
                }));
            }
            for flag in has_delivery.iter_mut() {
                *flag = false;
            }

            // Collect in lane order (the inline lane executes here; thread
            // lanes have been working since dispatch).
            merged.clear();
            finished.clear();
            for (j, lane) in lanes.iter_mut().enumerate() {
                match lane.collect() {
                    Reply::Round(mut r) => {
                        skips[j] = std::mem::take(&mut r.skip);
                        iters += r.iters;
                        merged.append(&mut r.outbox);
                        notes.append(&mut r.notes);
                        for (flow, t) in r.blocked {
                            next_by_flow[flow] = Some(t);
                        }
                        for note in r.finished.drain(..) {
                            next_by_flow[note.flow] = None;
                            finished.push(note);
                        }
                    }
                    Reply::Outcomes(_) => unreachable!("harvest reply during a round"),
                }
            }
        }

        live -= finished.len();
        finished.sort_by_key(|f| (f.at, f.flow));
        for f in &finished {
            end = end.max(f.at);
            emit_session_end(tracer, f);
        }

        // Merge the round's packets in partition-invariant order and pump
        // the link: pop completions due before each arrival (occupancy at
        // enqueue time is exact), then drain through the barrier.
        {
            let _transmit = voxel_obs::span!("fleet.transmit");
            voxel_obs::observe("obs.shard_outbox", merged.len() as u64);
            merged.sort_by_key(|o| (o.at, o.flow, o.seq));
            if let Some(tier) = edge.as_mut() {
                // Edge path: replay the round's serve notes in the same
                // partition-invariant order as packets, stamp every packet
                // with its effective link-entry time (the flow's origin
                // gate), and stage it in the tier. What is due by the
                // barrier enters the link in staging order; a packet gated
                // past it waits for a later round — its gate time is
                // folded into the next `global_next`.
                notes.sort_by_key(|no| (no.at, no.flow, no.seq));
                for no in notes.drain(..) {
                    tier.process_note(no.at, no.flow, no.note);
                }
                for o in merged.drain(..) {
                    tier.stage(o);
                }
                while let Some((eff, o)) = tier.pop_due(barrier) {
                    link.pop_due_into(eff, &mut departures);
                    if link.enqueue(eff, o.flow, o.bytes) {
                        pending_down[o.flow].push_back(o.payload);
                    }
                }
            } else {
                for o in merged.drain(..) {
                    link.pop_due_into(o.at, &mut departures);
                    if link.enqueue(o.at, o.flow, o.bytes) {
                        pending_down[o.flow].push_back(o.payload);
                    }
                }
            }
            link.pop_due_into(barrier, &mut departures);
            for dep in departures.drain(..) {
                if let Some(payload) = pending_down[dep.flow].pop_front() {
                    deliveries.push(Delivery {
                        flow: dep.flow,
                        at: dep.at + delay_down,
                        payload,
                    });
                }
            }
        }
        prev = barrier;
    }

    // Harvest per-session results, reassembled in flow order.
    for lane in lanes.iter_mut() {
        lane.dispatch(Cmd::Harvest);
    }
    let mut slots: Vec<Option<TrialResult>> = (0..n).map(|_| None).collect();
    for lane in lanes.iter_mut() {
        match lane.collect() {
            Reply::Outcomes(outs) => {
                for (flow, r) in outs {
                    slots[flow] = Some(r);
                }
            }
            Reply::Round(_) => unreachable!("round reply during harvest"),
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "every flow was frozen or finished above"
    )]
    let sessions: Vec<TrialResult> = slots
        .into_iter()
        .map(|s| s.expect("session produced a result"))
        .collect();

    // Cross-session accounting and the fairness digest.
    let flows = link.stats().to_vec();
    let delivered: Vec<f64> = flows.iter().map(|f| f.bytes_delivered as f64).collect();
    let total: f64 = delivered.iter().sum();
    let shares_pct: Vec<f64> = delivered
        .iter()
        .map(|&b| if total > 0.0 { 100.0 * b / total } else { 0.0 })
        .collect();
    let jain = jain_index(&delivered);
    let edge_report = edge.as_ref().map(|t| t.report(end.as_secs_f64()));
    if let Some(report) = &edge_report {
        tracer.count("edge.hit", report.hits);
        tracer.count("edge.miss", report.misses);
        tracer.count("edge.evict", report.evictions);
        tracer.count("edge.origin_bytes", report.origin_bytes);
        tracer.observe("edge.hit_ratio_pct", report.hit_ratio_pct.round() as u64);
        tracer.observe(
            "edge.origin_load_pct",
            report.origin_load_pct.round() as u64,
        );
        for (i, e) in report.edges.iter().enumerate() {
            trace_event!(
                tracer,
                end,
                Layer::Edge,
                "edge_state",
                "edge" = i,
                "sessions" = e.sessions,
                "hits" = e.hits,
                "misses" = e.misses,
                "evictions" = e.evictions,
                "bytes_served" = e.bytes_served,
                "origin_bytes" = e.origin_bytes,
                "used_bytes" = e.used_bytes,
                "objects" = e.objects,
            );
        }
    }
    let result = FleetResult {
        spec: plan.spec.clone(),
        sessions,
        flows,
        shares_pct,
        jain,
        end_s: end.as_secs_f64(),
        loop_iters: iters,
        edge: edge_report,
    };
    for (i, share) in result.shares_pct.iter().enumerate() {
        tracer.observe("fleet.flow_share_pct", share.round() as u64);
        tracer.observe(
            "fleet.session_stall_ms",
            (result.sessions[i].stall_s * 1e3) as u64,
        );
    }
    tracer.count("fleet.link_drops", result.total_drops());
    trace_event!(
        tracer,
        end,
        Layer::Fleet,
        "fleet_end",
        "sessions" = result.sessions.len(),
        "jain" = result.jain,
        "mean_ssim" = result.mean_ssim(),
        "drops" = result.total_drops(),
        "delivered_bytes" = total,
    );
    tracer.flush();
    result
}

/// Emit the `fleet_session_end` trace record for one finished member.
fn emit_session_end(tracer: &Tracer, f: &FinishNote) {
    trace_event!(
        tracer,
        f.at,
        Layer::Fleet,
        "fleet_session_end",
        "flow" = f.flow,
        "system" = f.system.as_str(),
        "completed" = f.completed,
        "stall_s" = f.stall_s,
        "ssim" = f.ssim,
        "bytes_downloaded" = f.bytes_downloaded,
    );
    tracer.count("fleet.sessions_completed", 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_netem::Discipline;

    #[test]
    fn chunk_sizes_cover_everything_contiguously() {
        for n in 1..20 {
            for w in 1..=n {
                let sizes = chunk_sizes(n, w);
                assert_eq!(sizes.iter().sum::<usize>(), n, "n={n} w={w}");
                assert_eq!(sizes.len(), w.min(n));
                assert!(sizes.iter().all(|&s| s > 0));
                // Balanced within one session.
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1);
            }
        }
    }

    /// Regression: the plan takes its discipline from the parsed spec.
    #[test]
    fn spec_plan_honours_parsed_discipline() {
        let spec = FleetSpec::parse("BBB:2xVOXEL:const6:buf3:q64:d60:fifo").unwrap();
        let plan = Plan::from_spec(&spec).unwrap();
        assert_eq!(plan.link.discipline, Discipline::Fifo);
    }

    /// The spec's per-member `@cc` reaches the plan per session, in flow
    /// order, with suffix-free members defaulting to CUBIC.
    #[test]
    fn spec_plan_threads_cc_per_session() {
        let spec = FleetSpec::parse("BBB:2xVOXEL@bbr+1xVOXEL:const6:buf3:q64:d60:fifo").unwrap();
        let plan = Plan::from_spec(&spec).unwrap();
        let ccs: Vec<CcKind> = plan.members.iter().map(|m| m.cc).collect();
        assert_eq!(ccs, [CcKind::Bbr, CcKind::Bbr, CcKind::Cubic]);
        let labels: Vec<&str> = plan.members.iter().map(|m| m.label.as_str()).collect();
        assert_eq!(labels, ["VOXEL@bbr", "VOXEL@bbr", "VOXEL"]);
    }
}
