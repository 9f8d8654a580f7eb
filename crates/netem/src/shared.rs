//! The bottleneck: one shaped droptail router queue, shared by N flows.
//!
//! "Each triplet emulates a one-hop network — a server and client connected
//! via an intermediate host (or router). We shape the traffic flowing
//! through the router … we fixed the network queue size to 1.25× the
//! bandwidth-delay product [or 32 packets for the trace experiments, or 750
//! packets for the cached-LTE appendix]. We configured a 30 ms delay on the
//! router-to-client link." (§5)
//!
//! [`SharedLink`] is the one queue model. It serves one packet at a time at
//! the trace's time-varying rate (service integrated over the rate curve,
//! work-conserving), holds at most [`PathConfig::queue_packets`] packets
//! (waiting + in service) across all flows, and drops the rest. The driver
//! asks for the next completion via [`SharedLink::next_departure`] and pops
//! completions with [`SharedLink::pop_due_into`]. Two disciplines:
//!
//! - [`Discipline::Fifo`]: one global queue in arrival order — flows
//!   interact exactly as they would through a dumb router buffer. A later
//!   arrival can never change an earlier packet's departure, so each
//!   departure is fixed when the packet is accepted.
//! - [`Discipline::Drr`]: deficit round robin — each active flow accrues a
//!   byte quantum per round and sends while its deficit covers the head
//!   packet, giving approximately fair byte-shares regardless of packet
//!   sizes. A later arrival on another flow does change the service order,
//!   so DRR is event-driven: it picks the next packet only when the link
//!   frees up.
//!
//! A lone session's path, [`BottleneckPath`], is a one-flow FIFO
//! `SharedLink`. The `one_queue_model_matches_the_lone_path_arithmetic`
//! property below pins every variant to the same departures and drops, and
//! `tests/fleet.rs::single_session_fleet_degenerates_sanely` pins a fleet of
//! one to the lone session it stands for.
//!
//! Per-flow packet order is preserved under both disciplines, so a driver
//! holding per-flow payload queues stays aligned with the byte-level model
//! here.

use crate::trace::BandwidthTrace;
use std::collections::VecDeque;
use voxel_sim::{SimDuration, SimTime};

/// Scheduling discipline of the shared bottleneck queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// One global FIFO: packets depart in arrival order.
    Fifo,
    /// Deficit round robin with the given per-round byte quantum.
    Drr {
        /// Bytes added to an active flow's deficit each scheduling round.
        quantum_bytes: usize,
    },
}

impl Discipline {
    /// DRR with a one-MTU (1500 byte) quantum — the classic choice.
    pub fn drr() -> Discipline {
        Discipline::Drr {
            quantum_bytes: 1500,
        }
    }

    /// Stable lowercase name (`fifo` / `drr`) used in fleet specs.
    pub fn as_str(&self) -> &'static str {
        match self {
            Discipline::Fifo => "fifo",
            Discipline::Drr { .. } => "drr",
        }
    }
}

/// The bottleneck link: rate trace, droptail capacity, propagation delays.
#[derive(Debug, Clone)]
pub struct PathConfig {
    /// Service-rate trace of the bottleneck link.
    pub trace: BandwidthTrace,
    /// Droptail capacity in packets (waiting + in service), shared by all
    /// flows.
    pub queue_packets: usize,
    /// Propagation delay router → client (the paper's last-mile 30 ms);
    /// applies after service.
    pub delay_down: SimDuration,
    /// Propagation delay client → server (return path for ACKs/requests;
    /// delay-only, not bandwidth-constrained).
    pub delay_up: SimDuration,
}

impl PathConfig {
    /// The paper's default: 30 ms last-mile down, symmetric return path.
    pub fn new(trace: BandwidthTrace, queue_packets: usize) -> PathConfig {
        PathConfig {
            trace,
            queue_packets,
            delay_down: SimDuration::from_millis(30),
            delay_up: SimDuration::from_millis(30),
        }
    }
}

/// Shared-link parameters: the link itself plus how it schedules flows.
#[derive(Debug, Clone)]
pub struct SharedLinkConfig {
    /// Trace, droptail capacity and propagation delays.
    pub path: PathConfig,
    /// Scheduling discipline.
    pub discipline: Discipline,
}

impl SharedLinkConfig {
    /// Config with the testbed's default 30 ms last-mile delays.
    pub fn new(trace: BandwidthTrace, queue_packets: usize, discipline: Discipline) -> Self {
        SharedLinkConfig {
            path: PathConfig::new(trace, queue_packets),
            discipline,
        }
    }
}

/// Per-flow accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets rejected by the droptail.
    pub dropped: u64,
    /// Packets that completed service.
    pub delivered: u64,
    /// Bytes that completed service.
    pub bytes_delivered: u64,
}

/// One scheduled or completed link service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Departure {
    /// The flow the packet belongs to.
    pub flow: usize,
    /// Packet size in bytes.
    pub bytes: usize,
    /// Service completion time at the router. Add the link's downlink
    /// delay for the client-side arrival time.
    pub at: SimTime,
}

/// DRR's packets waiting behind the one in service, and its round state.
#[derive(Debug, Clone)]
struct Drr {
    quantum_bytes: u64,
    /// Per-flow queued packet sizes (order preserved per flow).
    queues: Vec<VecDeque<usize>>,
    /// Per-flow deficit counters, bytes.
    deficits: Vec<u64>,
    /// Round-robin position: next flow to visit when the current flow's
    /// deficit runs out.
    cursor: usize,
    /// Flow currently holding the scheduling round, if any.
    current: Option<usize>,
    waiting: usize,
}

impl Drr {
    fn new(quantum_bytes: usize, flows: usize) -> Drr {
        Drr {
            quantum_bytes: quantum_bytes as u64,
            queues: vec![VecDeque::new(); flows],
            deficits: vec![0; flows],
            cursor: 0,
            current: None,
            waiting: 0,
        }
    }

    /// Dequeue the packet served next: `(flow, bytes)`.
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.waiting == 0 {
            return None;
        }
        let flow = self.select();
        let bytes = self.queues[flow].pop_front()?;
        self.waiting -= 1;
        self.deficits[flow] = self.deficits[flow].saturating_sub(bytes as u64);
        if self.queues[flow].is_empty() {
            // Classic DRR: an emptied flow leaves the active list and
            // forfeits its residual deficit.
            self.deficits[flow] = 0;
            self.current = None;
        }
        Some((flow, bytes))
    }

    /// The flow whose head packet is served next. Some packet is waiting.
    fn select(&mut self) -> usize {
        if let Some(f) = self.current {
            match self.queues[f].front() {
                Some(&head) if self.deficits[f] >= head as u64 => return f,
                _ => self.current = None,
            }
        }
        // Rotate over active flows, topping each up by the quantum, until
        // one can afford its head packet. Some queue is non-empty and its
        // deficit grows each visit, so this terminates.
        loop {
            let f = self.cursor;
            self.cursor = (self.cursor + 1) % self.queues.len();
            let Some(&head) = self.queues[f].front() else {
                continue;
            };
            self.deficits[f] += self.quantum_bytes;
            if self.deficits[f] >= head as u64 {
                self.current = Some(f);
                return f;
            }
        }
    }
}

/// The bottleneck link. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct SharedLink {
    config: SharedLinkConfig,
    /// Accepted packets whose departure is fixed, in departure order:
    /// every queued packet under FIFO, the one in service under DRR.
    scheduled: VecDeque<Departure>,
    /// FIFO: when the last accepted packet completes service.
    busy_until: SimTime,
    /// `None` under FIFO.
    drr: Option<Drr>,
    stats: Vec<FlowStats>,
}

impl SharedLink {
    /// A link shared by `flows` flows.
    pub fn new(config: SharedLinkConfig, flows: usize) -> SharedLink {
        let drr = match config.discipline {
            Discipline::Fifo => None,
            Discipline::Drr { quantum_bytes } => Some(Drr::new(quantum_bytes, flows)),
        };
        SharedLink {
            config,
            scheduled: VecDeque::new(),
            busy_until: SimTime::ZERO,
            drr,
            stats: vec![FlowStats::default(); flows],
        }
    }

    /// Queue occupancy (waiting + in service), in packets.
    pub fn queue_len(&self) -> usize {
        self.scheduled.len() + self.drr.as_ref().map_or(0, |d| d.waiting)
    }

    /// Offer a packet of `bytes` from `flow` to the queue at `now`.
    /// Returns `false` (and counts a drop) when the droptail rejects it.
    /// The driver must have popped all departures due at or before `now`
    /// first, so occupancy reflects the link state at `now`.
    pub fn enqueue(&mut self, now: SimTime, flow: usize, bytes: usize) -> bool {
        let _obs = voxel_obs::span!("netem.enqueue");
        self.offer(now, flow, bytes)
    }

    /// When the next packet completes service, if any is queued.
    pub fn next_departure(&self) -> Option<SimTime> {
        self.scheduled.front().map(|d| d.at)
    }

    /// Append every service completion at or before `now` to `out` (not
    /// cleared, so a driver can recycle one buffer), starting the next
    /// packet's service back-to-back at each completion instant
    /// (work-conserving).
    pub fn pop_due_into(&mut self, now: SimTime, out: &mut Vec<Departure>) {
        let _obs = voxel_obs::span!("netem.pop_due");
        self.pop_due_with(now, |d| out.push(d));
    }

    /// Router → client propagation delay.
    pub fn delay_down(&self) -> SimDuration {
        self.config.path.delay_down
    }

    /// Accounting for every flow, indexed by flow id.
    pub fn stats(&self) -> &[FlowStats] {
        &self.stats
    }

    /// [`SharedLink::enqueue`] without the profiler span.
    fn offer(&mut self, now: SimTime, flow: usize, bytes: usize) -> bool {
        if self.queue_len() >= self.config.path.queue_packets {
            self.stats[flow].dropped += 1;
            return false;
        }
        self.stats[flow].enqueued += 1;
        match &mut self.drr {
            None => {
                let start = self.busy_until.max(now);
                let at = self.config.path.trace.service_finish(start, bytes as u64);
                self.busy_until = at;
                self.scheduled.push_back(Departure { flow, bytes, at });
            }
            Some(drr) => {
                drr.queues[flow].push_back(bytes);
                drr.waiting += 1;
                if self.scheduled.is_empty() {
                    self.serve_next(now);
                }
            }
        }
        true
    }

    /// [`SharedLink::pop_due_into`], handing each completion to `sink`.
    fn pop_due_with(&mut self, now: SimTime, mut sink: impl FnMut(Departure)) {
        while let Some(&dep) = self.scheduled.front() {
            if dep.at > now {
                break;
            }
            self.scheduled.pop_front();
            self.stats[dep.flow].delivered += 1;
            self.stats[dep.flow].bytes_delivered += dep.bytes as u64;
            sink(dep);
            self.serve_next(dep.at);
        }
    }

    /// DRR: begin serving the next scheduled packet at `at`, if any is
    /// waiting. FIFO scheduled every packet on arrival.
    fn serve_next(&mut self, at: SimTime) {
        if let Some((flow, bytes)) = self.drr.as_mut().and_then(Drr::next) {
            let at = self.config.path.trace.service_finish(at, bytes as u64);
            self.scheduled.push_back(Departure { flow, bytes, at });
        }
    }
}

/// One video flow alone on the bottleneck (server — router — client): a
/// one-flow FIFO [`SharedLink`].
#[derive(Debug, Clone)]
pub struct BottleneckPath {
    link: SharedLink,
}

impl BottleneckPath {
    /// Create a fresh path.
    pub fn new(config: PathConfig) -> BottleneckPath {
        let config = SharedLinkConfig {
            path: config,
            discipline: Discipline::Fifo,
        };
        BottleneckPath {
            link: SharedLink::new(config, 1),
        }
    }

    /// Send a packet of `bytes` from the server towards the client at `now`.
    ///
    /// Returns the client-side arrival time, or `None` if the droptail queue
    /// was full.
    pub fn send_downlink(&mut self, now: SimTime, bytes: usize) -> Option<SimTime> {
        let _obs = voxel_obs::span!("netem.send_downlink");
        self.link.pop_due_with(now, |_| {});
        if !self.link.offer(now, 0, bytes) {
            return None;
        }
        // FIFO fixed the departure of the packet just accepted.
        let at = self.link.scheduled.back()?.at;
        Some(at + self.link.config.path.delay_down)
    }

    /// Send a (small) packet from client to server at `now`; the uplink is
    /// not bandwidth-constrained (ACK/request traffic is negligible next to
    /// the video stream). Returns the server-side arrival time.
    pub fn send_uplink(&self, now: SimTime) -> SimTime {
        now + self.link.config.path.delay_up
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(discipline: Discipline, queue: usize) -> SharedLink {
        // 8 Mbit/s constant: a 1000-byte packet takes exactly 1 ms.
        let cfg = SharedLinkConfig::new(BandwidthTrace::constant(8.0, 600), queue, discipline);
        SharedLink::new(cfg, 2)
    }

    fn pop_due(l: &mut SharedLink, now: SimTime) -> Vec<Departure> {
        let mut out = Vec::new();
        l.pop_due_into(now, &mut out);
        out
    }

    #[test]
    fn path_adds_the_propagation_delays() {
        // 1500 B at 12 Mbps = 1 ms of service, then 30 ms to the client.
        let trace = BandwidthTrace::constant(12.0, 3600);
        let mut p = BottleneckPath::new(PathConfig::new(trace, 32));
        let t = p.send_downlink(SimTime::ZERO, 1500);
        assert_eq!(t, Some(SimTime::from_micros(31_000)));
        let up = p.send_uplink(SimTime::from_secs(1));
        assert_eq!(up, SimTime::from_micros(1_030_000));
    }

    #[test]
    fn varying_rate_slows_departures() {
        let trace = BandwidthTrace::new("x", vec![12.0, 1.2]);
        let mut l = SharedLink::new(SharedLinkConfig::new(trace, 100, Discipline::Fifo), 1);
        // Packet sent in second 0 (12 Mbps): 1 ms serialization.
        assert!(l.enqueue(SimTime::ZERO, 0, 1500));
        assert_eq!(l.next_departure(), Some(SimTime::from_millis(1)));
        // Packet sent in second 1 (1.2 Mbps): 10 ms serialization.
        assert!(l.enqueue(SimTime::from_secs(1), 0, 1500));
        let deps = pop_due(&mut l, SimTime::from_secs(2));
        assert_eq!(deps[1].at, SimTime::from_millis(1_010));
    }

    #[test]
    fn fifo_departs_in_arrival_order() {
        let mut l = link(Discipline::Fifo, 32);
        let t0 = SimTime::ZERO;
        assert!(l.enqueue(t0, 0, 1000));
        assert!(l.enqueue(t0, 1, 1000));
        assert!(l.enqueue(t0, 0, 1000));
        let deps = pop_due(&mut l, SimTime::from_secs(1));
        let order: Vec<usize> = deps.iter().map(|d| d.flow).collect();
        assert_eq!(order, [0, 1, 0]);
        // Back-to-back service at 8 Mbit/s: 1 ms per packet.
        assert_eq!(deps[0].at, SimTime::from_millis(1));
        assert_eq!(deps[1].at, SimTime::from_millis(2));
        assert_eq!(deps[2].at, SimTime::from_millis(3));
    }

    #[test]
    fn drr_interleaves_a_backlogged_flow_with_a_late_arrival() {
        let mut l = link(Discipline::drr(), 64);
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            assert!(l.enqueue(t0, 0, 1000));
        }
        // Flow 1 arrives while flow 0's first packet is in service; under
        // FIFO it would wait behind all four. DRR serves it next round.
        assert!(l.enqueue(SimTime::from_micros(100), 1, 1000));
        let deps = pop_due(&mut l, SimTime::from_secs(1));
        let order: Vec<usize> = deps.iter().map(|d| d.flow).collect();
        assert_eq!(order, [0, 1, 0, 0, 0]);
    }

    #[test]
    fn drr_byte_shares_are_fair_for_mismatched_packet_sizes() {
        let mut l = link(Discipline::drr(), 1024);
        let t0 = SimTime::ZERO;
        // Flow 0 sends 1500-byte packets, flow 1 sends 300-byte packets.
        for _ in 0..40 {
            l.enqueue(t0, 0, 1500);
        }
        for _ in 0..200 {
            l.enqueue(t0, 1, 300);
        }
        // Pop a bounded window of service and compare byte shares.
        let deps = pop_due(&mut l, SimTime::from_millis(40));
        let bytes = |flow: usize| -> u64 {
            deps.iter()
                .filter(|d| d.flow == flow)
                .map(|d| d.bytes as u64)
                .sum()
        };
        let (b0, b1) = (bytes(0) as f64, bytes(1) as f64);
        assert!(b0 > 0.0 && b1 > 0.0);
        let ratio = b0 / b1;
        assert!((0.7..1.4).contains(&ratio), "byte share ratio {ratio}");
    }

    #[test]
    fn droptail_counts_per_flow_drops() {
        for discipline in [Discipline::Fifo, Discipline::drr()] {
            let mut l = link(discipline, 3);
            let t0 = SimTime::ZERO;
            assert!(l.enqueue(t0, 0, 1000));
            assert!(l.enqueue(t0, 0, 1000));
            assert!(l.enqueue(t0, 1, 1000));
            assert!(!l.enqueue(t0, 1, 1000), "queue full");
            assert_eq!(l.stats()[1].dropped, 1);
            assert_eq!(l.stats()[0].dropped, 0);
            assert_eq!(l.queue_len(), 3);
        }
    }

    #[test]
    fn work_conserving_across_idle_gaps() {
        for discipline in [Discipline::Fifo, Discipline::drr()] {
            let mut l = link(discipline, 32);
            assert!(l.enqueue(SimTime::ZERO, 0, 1000));
            let first = pop_due(&mut l, SimTime::from_secs(1));
            assert_eq!(first.len(), 1);
            assert_eq!(l.next_departure(), None, "link idle");
            // A packet arriving after the idle gap starts service at once.
            let t = SimTime::from_millis(500);
            assert!(l.enqueue(t, 1, 1000));
            assert_eq!(l.next_departure(), Some(SimTime::from_millis(501)));
            let stats = l.stats();
            assert_eq!(stats[0].delivered, 1);
            assert_eq!(stats[0].bytes_delivered, 1000);
        }
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let run = || {
            let mut l = link(Discipline::drr(), 16);
            let mut deps = Vec::new();
            for i in 0..50u64 {
                let t = SimTime::from_micros(i * 137);
                l.enqueue(t, (i % 2) as usize, 400 + (i as usize % 5) * 300);
                l.pop_due_into(t, &mut deps);
            }
            l.pop_due_into(SimTime::from_secs(10), &mut deps);
            (deps, l.stats().to_vec())
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::TraceFamily;
    use proptest::prelude::*;

    /// The reference: the lone path's arithmetic written out flat — a FIFO
    /// droptail whose departures are fixed at enqueue, kept as bare times.
    struct Reference {
        trace: BandwidthTrace,
        queue_packets: usize,
        departures: VecDeque<SimTime>,
        busy_until: SimTime,
    }

    impl Reference {
        fn send(&mut self, now: SimTime, bytes: usize) -> Option<SimTime> {
            while self.departures.front().is_some_and(|&d| d <= now) {
                self.departures.pop_front();
            }
            if self.departures.len() >= self.queue_packets {
                return None;
            }
            let done = self
                .trace
                .service_finish(self.busy_until.max(now), bytes as u64);
            self.busy_until = done;
            self.departures.push_back(done);
            Some(done)
        }
    }

    /// Drive a link the way the fleet does — pop what is due, then offer —
    /// and return every departure plus the per-flow drops.
    fn drive(
        mut link: SharedLink,
        sends: &[(SimTime, usize, usize)],
    ) -> (Vec<Departure>, Vec<u64>) {
        let mut deps = Vec::new();
        for &(now, flow, bytes) in sends {
            link.pop_due_into(now, &mut deps);
            link.enqueue(now, flow, bytes);
        }
        link.pop_due_into(SimTime::from_secs(1 << 20), &mut deps);
        let drops = link.stats().iter().map(|s| s.dropped).collect();
        (deps, drops)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Over every trace family, a lone path, a one-flow link under
        /// either discipline, and an N-flow FIFO link (flow-agnostic by
        /// construction) all depart and drop exactly as the reference.
        #[test]
        fn one_queue_model_matches_the_lone_path_arithmetic(
            seed in 0u64..1000,
            start_s in 0u64..120,
            queue in 2usize..=40,
            flows in 2usize..=8,
            sends in proptest::collection::vec((0u64..=3000, 40usize..=1500, 0usize..8), 300..1500),
        ) {
            for tok in "const8 const0.7 step8-2@20 tmobile verizon att 3g fcc wifi".split(' ') {
                let trace = TraceFamily::parse(tok).expect(tok).build(seed, 120);
                let mut now = SimTime::from_secs(start_s);
                let timed: Vec<(SimTime, usize, usize)> = sends
                    .iter()
                    .map(|&(gap_us, bytes, flow)| {
                        now += SimDuration::from_micros(gap_us);
                        (now, flow % flows, bytes)
                    })
                    .collect();

                let mut reference = Reference {
                    trace: trace.clone(),
                    queue_packets: queue,
                    departures: VecDeque::new(),
                    busy_until: SimTime::ZERO,
                };
                let mut path = BottleneckPath::new(PathConfig::new(trace.clone(), queue));
                let (mut want, mut want_flows, mut drops) = (Vec::new(), Vec::new(), 0u64);
                for &(now, flow, bytes) in &timed {
                    let done = reference.send(now, bytes);
                    let arrival = path.send_downlink(now, bytes);
                    prop_assert_eq!(arrival, done.map(|d| d + SimDuration::from_millis(30)), "{}", tok);
                    match done {
                        Some(at) => {
                            want.push(Departure { flow: 0, bytes, at });
                            want_flows.push(Departure { flow, bytes, at });
                        }
                        None => drops += 1,
                    }
                }

                let one_flow: Vec<_> = timed.iter().map(|&(t, _, b)| (t, 0, b)).collect();
                for discipline in [Discipline::Fifo, Discipline::drr()] {
                    let link = SharedLink::new(SharedLinkConfig::new(trace.clone(), queue, discipline), 1);
                    let (deps, dropped) = drive(link, &one_flow);
                    prop_assert_eq!(&deps, &want, "{} {:?}", tok, discipline);
                    prop_assert_eq!(dropped, vec![drops], "{} {:?}", tok, discipline);
                }

                let link = SharedLink::new(SharedLinkConfig::new(trace, queue, Discipline::Fifo), flows);
                let (deps, dropped) = drive(link, &timed);
                prop_assert_eq!(&deps, &want_flows, "{} over {} flows", tok, flows);
                prop_assert_eq!(dropped.iter().sum::<u64>(), drops, "{}", tok);
            }
        }
    }
}
