//! The edge/CDN serving tier (DESIGN.md §16).
//!
//! When a [`crate::FleetSpec`] carries a [`TopologySpec`], every session
//! is
//! routed to one of M edge servers; each edge runs a byte-budgeted
//! [`EdgeCache`] with byte-range-aware admission over VOXEL's
//! reliable/unreliable object split, and cache misses fan in to one
//! shared origin over a [`voxel_netem::OriginLink`] backhaul. The tier is
//! driven *by the coordinator*, not inside session cells: each cell
//! reports the objects its server resolved as [`ServeNote`]s, the
//! coordinator replays them in deterministic `(at, flow, seq)` order
//! against the caches and origin, and a cache miss shows up to the
//! session as a delayed gate on its downlink packets — so a flash crowd
//! on a cold edge degrades QoE through the existing player path, at any
//! worker count.
//!
//! [`zipf_poisson_arrivals`] generates the matching flash-crowd workload:
//! zipf-popularity video picks plus Poisson session arrivals, seeded
//! through [`voxel_sim::SimRng`] so a workload is a pure function of its
//! label.

use std::collections::{BTreeMap, VecDeque};

use voxel_core::{EdgeCache, ObjectKey, ServeNote};
use voxel_media::content::VideoId;
use voxel_netem::OriginLink;
use voxel_sim::{SimDuration, SimRng, SimTime};

use crate::shard::Outgoing;
use crate::spec::{Routing, TopologySpec};

/// FNV-1a over a video's legend name — the stable key consistent-hash
/// routing uses, so the mapping never depends on enum layout.
fn video_hash(video: VideoId) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in video.short_name().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Assign each session (flow order) to an edge under the routing policy.
///
/// - [`Routing::Hash`]: consistent hash on the session's [`VideoId`] —
///   all viewers of one video share an edge.
/// - [`Routing::Robin`]: `flow % edges`, content-blind.
/// - [`Routing::Least`]: each session joins the currently least-loaded
///   edge (ties to the lowest edge id) — equivalent to round robin for
///   uniform arrivals but stable under heterogeneous member groups.
pub(crate) fn assign_edges(topology: &TopologySpec, videos: &[VideoId]) -> Vec<usize> {
    let m = topology.edges.max(1);
    match topology.routing {
        Routing::Hash => videos
            .iter()
            .map(|v| (video_hash(*v) % m as u64) as usize)
            .collect(),
        Routing::Robin => (0..videos.len()).map(|flow| flow % m).collect(),
        Routing::Least => {
            let mut loads = vec![0usize; m];
            videos
                .iter()
                .map(|_| {
                    let edge = (0..m).min_by_key(|&e| (loads[e], e)).unwrap_or(0);
                    loads[edge] += 1;
                    edge
                })
                .collect()
        }
    }
}

/// Per-edge serving statistics, frozen into the [`EdgeReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeStats {
    /// Sessions routed to this edge.
    pub sessions: usize,
    /// Cache hits served.
    pub hits: u64,
    /// Cache misses (each one an origin fetch).
    pub misses: u64,
    /// Objects evicted under the byte budget.
    pub evictions: u64,
    /// Total bytes served to sessions (hits + misses).
    pub bytes_served: u64,
    /// Bytes fetched from the origin on behalf of this edge.
    pub origin_bytes: u64,
    /// Cache occupancy at end of run, bytes.
    pub used_bytes: u64,
    /// Cached objects at end of run.
    pub objects: usize,
}

/// The edge tier's end-of-run report, carried on
/// [`crate::FleetResult::edge`] and compared field-for-field by the
/// sharded-parity suite.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeReport {
    /// Per-edge breakdowns, edge-id order.
    pub edges: Vec<EdgeStats>,
    /// Fleet-wide cache hits.
    pub hits: u64,
    /// Fleet-wide cache misses.
    pub misses: u64,
    /// Fleet-wide evictions.
    pub evictions: u64,
    /// Total bytes fetched over the origin backhaul.
    pub origin_bytes: u64,
    /// Total origin fetches.
    pub origin_fetches: u64,
    /// Hit ratio, percent of lookups.
    pub hit_ratio_pct: f64,
    /// Origin busy time as a percentage of the run's duration.
    pub origin_load_pct: f64,
}

impl EdgeReport {
    /// Hit ratio in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        self.hit_ratio_pct / 100.0
    }
}

/// The live edge tier the coordinator drives between barrier rounds.
///
/// Determinism contract: `EdgeTier::process_note` must be called in
/// globally sorted `(at, flow, seq)` note order, and
/// `EdgeTier::effective_time` in nondecreasing `at` order per flow —
/// both are properties the coordinator's merge already guarantees for
/// packets, extended to notes (`EdgeTier::stage` is how the coordinator
/// makes the latter calls). Under that ordering the tier's state is a
/// pure function of the note sequence, independent of worker count.
pub(crate) struct EdgeTier {
    caches: Vec<EdgeCache>,
    origin: OriginLink,
    assignment: Vec<usize>,
    videos: Vec<VideoId>,
    /// Per-flow `(note_at, ready)` fetch completions not yet folded into
    /// the flow's gate. A hit contributes nothing (ready = note time).
    pending: Vec<VecDeque<(SimTime, SimTime)>>,
    /// Per-flow monotone gate: no downlink packet sent at `t` may enter
    /// the shared link before `max(t, gate)` once every note at ≤ `t`
    /// has been folded in.
    gates: Vec<SimTime>,
    /// Downlink packets staged for the shared link, keyed (effective
    /// link-entry time, flow, seq) — the order they enter it in. A packet
    /// gated past a round's barrier simply stays for a later round.
    held: BTreeMap<(SimTime, usize, u64), Outgoing>,
    stats: Vec<EdgeStats>,
}

impl EdgeTier {
    /// Build the tier for `spec`'s topology over the per-session videos.
    pub fn new(topology: &TopologySpec, videos: &[VideoId]) -> EdgeTier {
        let assignment = assign_edges(topology, videos);
        let mut stats = vec![EdgeStats::default(); topology.edges];
        for &e in &assignment {
            stats[e].sessions += 1;
        }
        let cfg = topology.cache_config();
        EdgeTier {
            caches: (0..topology.edges)
                .map(|_| EdgeCache::new(cfg.clone()))
                .collect(),
            origin: OriginLink::new(topology.origin_mbps, SimDuration::from_millis(20)),
            assignment,
            videos: videos.to_vec(),
            pending: vec![VecDeque::new(); videos.len()],
            gates: vec![SimTime::ZERO; videos.len()],
            held: BTreeMap::new(),
            stats,
        }
    }

    /// Replay one serve note: look the object up in the flow's edge
    /// cache; on a miss, fetch the bytes over the origin backhaul and
    /// remember the completion as a pending gate for the flow.
    pub(crate) fn process_note(&mut self, at: SimTime, flow: usize, note: ServeNote) {
        let edge = self.assignment[flow];
        let key = ObjectKey {
            video: self.videos[flow],
            seg: note.seg,
            level: note.level,
            kind: note.kind,
        };
        self.stats[edge].bytes_served += note.bytes;
        if self.caches[edge].lookup(key) {
            self.stats[edge].hits += 1;
        } else {
            self.stats[edge].misses += 1;
            self.stats[edge].origin_bytes += note.bytes;
            let ready = self.origin.fetch(at, note.bytes);
            self.caches[edge].admit(key, note.bytes);
            self.pending[flow].push_back((at, ready));
        }
    }

    /// The earliest time a downlink packet emitted by `flow` at `at` may
    /// enter the shared link: folds every pending fetch whose note time
    /// is ≤ `at` into the flow's monotone gate, then returns
    /// `max(at, gate)`.
    pub(crate) fn effective_time(&mut self, flow: usize, at: SimTime) -> SimTime {
        while let Some(&(note_at, ready)) = self.pending[flow].front() {
            if note_at > at {
                break;
            }
            self.pending[flow].pop_front();
            if ready > self.gates[flow] {
                self.gates[flow] = ready;
            }
        }
        at.max(self.gates[flow])
    }

    /// Stage a downlink packet behind its flow's origin gate. Call in
    /// `(at, flow, seq)` order, after the notes up to `at` were replayed.
    pub(crate) fn stage(&mut self, packet: Outgoing) {
        let eff = self.effective_time(packet.flow, packet.at);
        self.held.insert((eff, packet.flow, packet.seq), packet);
    }

    /// When the earliest staged packet may enter the shared link.
    pub(crate) fn next_release(&self) -> Option<SimTime> {
        self.held.first_key_value().map(|(&(eff, ..), _)| eff)
    }

    /// Release the next staged packet due by `barrier`, with its
    /// link-entry time: `(eff, flow, seq)` order across calls.
    pub(crate) fn pop_due(&mut self, barrier: SimTime) -> Option<(SimTime, Outgoing)> {
        let first = self.held.first_entry().filter(|e| e.key().0 <= barrier)?;
        let ((eff, ..), packet) = first.remove_entry();
        Some((eff, packet))
    }

    /// Freeze the tier into its end-of-run report.
    pub fn report(&self, end_s: f64) -> EdgeReport {
        let mut edges = self.stats.clone();
        let mut hits = 0;
        let mut misses = 0;
        let mut evictions = 0;
        for (stats, cache) in edges.iter_mut().zip(&self.caches) {
            stats.evictions = cache.evictions;
            stats.used_bytes = cache.used_bytes();
            stats.objects = cache.len();
            hits += stats.hits;
            misses += stats.misses;
            evictions += stats.evictions;
        }
        let lookups = hits + misses;
        let hit_ratio_pct = if lookups == 0 {
            0.0
        } else {
            hits as f64 * 100.0 / lookups as f64
        };
        let origin_load_pct = if end_s > 0.0 {
            self.origin.busy_s() * 100.0 / end_s
        } else {
            0.0
        };
        EdgeReport {
            edges,
            hits,
            misses,
            evictions,
            origin_bytes: self.origin.total_bytes(),
            origin_fetches: self.origin.fetches(),
            hit_ratio_pct,
            origin_load_pct,
        }
    }
}

/// A generated fleet workload: per-session videos and start times, flow
/// order. Plugs into [`crate::run::run_fleet_workload`].
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The video each session streams.
    pub videos: Vec<VideoId>,
    /// When each session starts, simulated seconds from run start.
    pub starts: Vec<SimTime>,
}

/// Zipf-popularity video picks + Poisson session arrivals — the flash
/// crowd generator. `zipf_s` is the popularity exponent (≈1 for real
/// video catalogs: rank-k popularity ∝ 1/kˢ); `arrival_rate_hz` is the
/// Poisson arrival intensity (sessions per simulated second). Seeded and
/// labelled: same `(seed, label, …)` → same workload, always.
pub fn zipf_poisson_arrivals(
    seed: u64,
    label: &str,
    sessions: usize,
    catalog: &[VideoId],
    zipf_s: f64,
    arrival_rate_hz: f64,
) -> Workload {
    let mut rng = SimRng::derive(seed, label);
    let weights: Vec<f64> = (1..=catalog.len().max(1))
        .map(|rank| 1.0 / (rank as f64).powf(zipf_s))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut videos = Vec::with_capacity(sessions);
    let mut starts = Vec::with_capacity(sessions);
    let mut clock = 0.0f64;
    for _ in 0..sessions {
        let mut pick = rng.uniform() * total;
        let mut chosen = catalog.len().saturating_sub(1);
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                chosen = i;
                break;
            }
            pick -= w;
        }
        videos.push(
            *catalog
                .get(chosen)
                .copied()
                .as_ref()
                .unwrap_or(&VideoId::Bbb),
        );
        clock += rng.exponential(arrival_rate_hz.max(1e-9));
        starts.push(SimTime::from_secs_f64(clock));
    }
    Workload { videos, starts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_core::ObjectKind;

    fn tier(topology: TopologySpec, videos: &[VideoId]) -> EdgeTier {
        EdgeTier::new(&topology, videos)
    }

    fn body(seg: u32, bytes: u64) -> ServeNote {
        ServeNote {
            seg,
            level: 0,
            kind: ObjectKind::Body,
            partial: false,
            bytes,
        }
    }

    #[test]
    fn routing_policies_spread_sessions() {
        let vids = [VideoId::Bbb, VideoId::Bbb, VideoId::Tos, VideoId::Ed];
        // Hash: same video, same edge — always.
        let hash = assign_edges(&TopologySpec::new(4), &vids);
        assert_eq!(hash[0], hash[1]);
        // Robin: flow order, content-blind.
        let robin = assign_edges(&TopologySpec::new(3).routing(Routing::Robin), &vids);
        assert_eq!(robin, [0, 1, 2, 0]);
        // Least: fills edges evenly in flow order.
        let least = assign_edges(&TopologySpec::new(2).routing(Routing::Least), &vids);
        assert_eq!(least, [0, 1, 0, 1]);
    }

    #[test]
    fn misses_gate_the_flow_until_origin_delivers() {
        // Two same-video flows on one edge over a slow origin.
        let vids = [VideoId::Bbb, VideoId::Bbb];
        let mut t = tier(TopologySpec::new(1).origin(8.0), &vids);
        let at = SimTime::from_secs_f64(1.0);
        // Flow 0 misses: 1 MB at 8 Mbit/s = 1 s service + 20 ms delay.
        t.process_note(at, 0, body(0, 1_000_000));
        let eff = t.effective_time(0, at);
        assert!((eff.as_secs_f64() - 2.02).abs() < 1e-6, "{eff:?}");
        // The gate is monotone: later packets inherit it.
        let later = SimTime::from_secs_f64(1.5);
        assert_eq!(t.effective_time(0, later), eff.max(later));
        // Flow 1 hits the now-warm cache: no gate.
        let at2 = SimTime::from_secs_f64(3.0);
        t.process_note(at2, 1, body(0, 1_000_000));
        assert_eq!(t.effective_time(1, at2), at2);
        let r = t.report(10.0);
        assert_eq!((r.hits, r.misses), (1, 1));
        assert_eq!(r.origin_bytes, 1_000_000);
        assert!((r.hit_ratio_pct - 50.0).abs() < 1e-9);
        assert!(r.origin_load_pct > 9.0, "{}", r.origin_load_pct);
    }

    #[test]
    fn pending_fetches_do_not_gate_earlier_packets() {
        let mut t = tier(TopologySpec::new(1).origin(1.0), &[VideoId::Bbb]);
        let miss_at = SimTime::from_secs_f64(5.0);
        t.process_note(miss_at, 0, body(0, 500_000));
        // A packet stamped before the miss is unaffected.
        let before = SimTime::from_secs_f64(4.0);
        assert_eq!(t.effective_time(0, before), before);
        // A packet at/after the miss waits for the fetch.
        assert!(t.effective_time(0, miss_at) > miss_at);
    }

    fn packet(at_s: f64, flow: usize, seq: u64) -> Outgoing {
        Outgoing {
            at: SimTime::from_secs_f64(at_s),
            flow,
            seq,
            bytes: 1200,
            payload: voxel_quic::Packet::new(seq, Vec::new()),
        }
    }

    /// One round of the coordinator's edge path: stage the round's packets
    /// in `(at, flow, seq)` order, release what is due by the barrier.
    fn round(t: &mut EdgeTier, staged: &[(f64, usize, u64)], barrier_s: f64) -> Vec<(usize, u64)> {
        for &(at_s, flow, seq) in staged {
            t.stage(packet(at_s, flow, seq));
        }
        let barrier = SimTime::from_secs_f64(barrier_s);
        let mut released = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((eff, o)) = t.pop_due(barrier) {
            assert!(last <= eff && o.at <= eff && eff <= barrier, "{eff:?}");
            last = eff;
            released.push((o.flow, o.seq));
        }
        assert!(t.next_release().is_none_or(|eff| eff > barrier));
        released
    }

    #[test]
    fn held_packets_wait_out_their_gate_and_release_in_eff_flow_seq_order() {
        // Flows 0 and 1 miss on different videos over one slow origin, so
        // flow 1's fetch queues behind flow 0's (ready 2.02 s and 2.52 s);
        // flow 2 asks for nothing and is never gated.
        let vids = [VideoId::Bbb, VideoId::Tos, VideoId::Bbb];
        let mut t = tier(TopologySpec::new(1).origin(8.0), &vids);
        let at = SimTime::from_secs_f64(1.0);
        t.process_note(at, 0, body(0, 1_000_000));
        t.process_note(at, 1, body(0, 500_000));

        // Only the ungated packet enters the link; four are held.
        let staged = [
            (1.0, 0, 1),
            (1.0, 1, 1),
            (1.05, 2, 1),
            (1.1, 0, 2),
            (1.1, 1, 2),
        ];
        assert_eq!(round(&mut t, &staged, 1.2), [(2, 1)]);
        assert_eq!(t.next_release(), Some(SimTime::from_secs_f64(2.02)));
        // Nothing new, nothing due: the held packets sit out the round.
        assert_eq!(round(&mut t, &[], 1.9), []);
        // Flow 0's gate opens. Its held packets share one entry time and
        // leave in seq order, ahead of this round's later arrivals; flow
        // 1's stay held for a third round.
        let staged = [(2.03, 2, 2), (2.05, 0, 3)];
        assert_eq!(
            round(&mut t, &staged, 2.1),
            [(0, 1), (0, 2), (2, 2), (0, 3)]
        );
        // Flow 1's gate opens at 2.52 s; a packet of flow 2 entering at
        // that same instant goes after flow 1's (flow breaks the tie).
        let staged = [(2.3, 2, 3), (2.52, 2, 4), (2.55, 1, 3)];
        assert_eq!(
            round(&mut t, &staged, 2.6),
            [(2, 3), (1, 1), (1, 2), (2, 4), (1, 3)]
        );
        assert_eq!(t.next_release(), None);
    }

    #[test]
    fn zipf_poisson_workloads_are_deterministic_and_skewed() {
        let catalog = [VideoId::Bbb, VideoId::Ed, VideoId::Sintel, VideoId::Tos];
        let a = zipf_poisson_arrivals(42, "edge", 200, &catalog, 1.2, 4.0);
        let b = zipf_poisson_arrivals(42, "edge", 200, &catalog, 1.2, 4.0);
        assert_eq!(a, b, "same seed+label must reproduce the workload");
        let c = zipf_poisson_arrivals(43, "edge", 200, &catalog, 1.2, 4.0);
        assert_ne!(a, c, "a different seed must perturb the workload");
        // Rank-1 is the plurality pick under zipf(1.2).
        let head = a.videos.iter().filter(|v| **v == catalog[0]).count();
        assert!(head > 200 / 4, "head count {head}");
        // Arrivals are strictly ordered and roughly rate-matched.
        assert!(a.starts.windows(2).all(|w| w[0] < w[1]));
        let span = a.starts.last().unwrap().as_secs_f64();
        assert!((20.0..120.0).contains(&span), "span {span}");
    }
}
