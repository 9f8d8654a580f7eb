//! The **K** per-layer metrics: each layer's public functions called in a
//! closed loop and timed from outside.
//!
//! They run in every traced child, after the workload (whose peak RSS and
//! CPU counters are already taken), so `run.sh` sees one sample per
//! workload and reports their median. A loop kernel is the median of five
//! batches of at least [`BATCH_S`]; a kernel that is a whole simulation is
//! the median of up to three runs (one, when a run takes over
//! [`WHOLE_S`]). Inputs are fixed: kernels ignore `--seed`.

use crate::stats::median;
use crate::workloads::FLEET16_SPEC;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use voxel::abr::{AbrContext, DownloadProgress};
use voxel::core::{EdgeCache, ObjectKey, ObjectKind};
use voxel::netem::{BottleneckPath, PathConfig};
use voxel::obs::Profiler;
use voxel::prelude::*;
use voxel::quic::range::RangeSet;
use voxel::quic::{Connection, ConnectionConfig, Frame, Packet, Reliability, Role, StreamId};
use voxel::sim::{EventQueue, SimRng};
use voxel::trace::{trace_event, JsonlSink, SharedBuf};

/// Shortest batch of a loop kernel, seconds (0.2 in the issue's sizing; cut
/// so that all kernels fit in a traced run under the driver's time cap).
pub const BATCH_S: f64 = 0.01;
/// A whole-simulation kernel is repeated while its runs total less than this.
const WHOLE_S: f64 = 0.5;

struct Kernels {
    /// 1 normally; `--smoke` divides both time budgets by ten.
    haste: f64,
    out: BTreeMap<&'static str, f64>,
}

impl Kernels {
    /// Nanoseconds per operation of `call`, which performs `ops` of them.
    fn ns_per_op(&self, ops: u64, mut call: impl FnMut()) -> f64 {
        let t0 = Instant::now();
        call();
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let reps = ((BATCH_S / self.haste / once).ceil() as u64).max(1);
        let batches: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..reps {
                    call();
                }
                t0.elapsed().as_secs_f64() * 1e9 / (reps * ops) as f64
            })
            .collect();
        median(&batches)
    }

    fn per_op(&mut self, name: &'static str, ops: u64, call: impl FnMut()) {
        let ns = self.ns_per_op(ops, call);
        self.out.insert(name, ns);
    }

    /// Median cost over up to three runs of a whole simulation, which
    /// returns its own cost.
    fn whole(&self, mut call: impl FnMut() -> f64) -> f64 {
        let started = Instant::now();
        let mut costs = vec![call()];
        while costs.len() < 3 && started.elapsed().as_secs_f64() < WHOLE_S / self.haste {
            costs.push(call());
        }
        median(&costs)
    }
}

pub fn run_all(smoke: bool) -> BTreeMap<&'static str, f64> {
    let mut k = Kernels {
        haste: if smoke { 10.0 } else { 1.0 },
        out: BTreeMap::new(),
    };
    let video = Video::generate(VideoId::Bbb);
    let qoe = QoeModel::default();
    // The BBB full-ladder manifest (`--smoke`: top level only, 10x cheaper).
    let full = if smoke {
        ContentCache::top_level_only()
    } else {
        ContentCache::new()
    };
    let (manifest, _) = full.get(VideoId::Bbb);
    sim(&mut k);
    media_and_prep(&mut k, &video, &qoe, &manifest);
    netem(&mut k);
    quic(&mut k);
    http(&mut k);
    abr(&mut k, &manifest);
    core_trace_and_testkit(&mut k, &full);
    fleet_and_obs(&mut k, &full);
    k.out
}

fn sim(k: &mut Kernels) {
    for (name, depth) in [
        ("sim.event_queue_ns_per_op.d64", 64u64),
        ("sim.event_queue_ns_per_op.d4096", 4096),
    ] {
        let mut queue = EventQueue::new();
        for i in 0..depth {
            queue.schedule(SimTime::from_micros(i * 7), i);
        }
        let mut x = 1u64;
        // One op = pop the earliest event and schedule it again a
        // pseudo-random 1..1024 us later: the queue stays at `depth`.
        k.per_op(name, 1024, || {
            for _ in 0..1024 {
                let Some(ev) = queue.pop() else { return };
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                queue.schedule(ev.at + SimDuration::from_micros(1 + (x >> 54)), ev.event);
            }
        });
    }
}

fn media_and_prep(k: &mut Kernels, video: &Video, qoe: &QoeModel, manifest: &Manifest) {
    let catalog = VideoId::all();
    let ns = k.ns_per_op(catalog.len() as u64, || {
        for id in &catalog {
            black_box(Video::generate(*id));
        }
    });
    k.out.insert("media.video_generate_ms", ns / 1e6);
    let segment = &video.segments[10];
    let loss = voxel::media::qoe::LossMap::drop_frames(&[5, 17, 29, 41, 53, 65, 77, 89]);
    k.per_op("media.qoe_eval_ns", 1, || {
        black_box(qoe.eval(segment, QualityLevel::MAX, &loss));
    });
    let ns = k.ns_per_op(1, || {
        black_box(Manifest::prepare_levels(video, qoe, &[QualityLevel::MAX]));
    });
    k.out.insert("prep.manifest_top_ms", ns / 1e6);
    let ns = k.ns_per_op(1, || {
        black_box(voxel::prep::mpd::parse(&manifest.to_mpd()));
    });
    k.out.insert("prep.mpd_roundtrip_ms", ns / 1e6);
}

fn netem(k: &mut Kernels) {
    // 1200-byte packets on a 96 Mbit/s link take 100 us each; offering one
    // per 100 us keeps the queue at its pre-filled depth.
    let step = SimDuration::from_micros(100);
    for (name, discipline, flows) in [
        (
            "netem.shared_fifo_ns_per_packet.f16",
            Discipline::Fifo,
            16usize,
        ),
        (
            "netem.shared_fifo_ns_per_packet.f1000",
            Discipline::Fifo,
            1000,
        ),
        ("netem.shared_drr_ns_per_packet.f16", Discipline::drr(), 16),
        (
            "netem.shared_drr_ns_per_packet.f1000",
            Discipline::drr(),
            1000,
        ),
    ] {
        let trace = BandwidthTrace::constant(96.0, 300);
        let config = SharedLinkConfig::new(trace, flows * 8, discipline);
        let mut link = SharedLink::new(config, flows);
        let mut now = SimTime::ZERO;
        for i in 0..flows * 4 {
            link.enqueue(now, i % flows, 1200);
        }
        let (mut flow, mut due) = (0, Vec::new());
        k.per_op(name, 1024, || {
            for _ in 0..1024 {
                now += step;
                due.clear();
                link.pop_due_into(now, &mut due);
                black_box(link.enqueue(now, flow, 1200));
                flow = (flow + 1) % flows;
            }
        });
    }
    let trace = generators::tmobile_lte(1, 300);
    let step = SimDuration::from_secs_f64(1200.0 * 8.0 / (trace.mean_mbps() * 1e6));
    let mut path = BottleneckPath::new(PathConfig::new(trace, 32));
    let mut now = SimTime::ZERO;
    k.per_op("netem.path_ns_per_packet", 1024, || {
        for _ in 0..1024 {
            now += step;
            black_box(path.send_downlink(now, 1200));
        }
    });
}

/// Two connections back to back, the server sending 20 MB as twenty 1 MB
/// streams over a 10 Mbit/s, 30 ms, 64-packet droptail downlink (without a
/// bottleneck the window, and with it the cost of every ACK, grows without
/// bound). `drop_every` loses every n-th datagram on top of the droptail.
/// Returns wall ns per packet the server sent.
fn quic_pair(cc: CcKind, reliability: Reliability, drop_every: Option<u64>) -> f64 {
    let config = ConnectionConfig {
        cc,
        ..ConnectionConfig::default()
    };
    let mut server = Connection::new(Role::Server, config.clone());
    let mut client = Connection::new(Role::Client, config);
    let payload = vec![0x5a; 1 << 20];
    for _ in 0..20 {
        let id = server.open_stream(reliability);
        server.send(id, &payload);
        server.finish(id);
    }
    let trace = BandwidthTrace::constant(10.0, 300);
    let mut path = BottleneckPath::new(PathConfig::new(trace, 64));
    let mut wire = EventQueue::new();
    let mut now = SimTime::ZERO;
    let mut sent = 0u64;
    let t0 = Instant::now();
    while now < SimTime::from_secs(600) {
        loop {
            let mut progressed = false;
            while let Some(p) = server.poll_transmit(now) {
                sent += 1;
                let arrival = path.send_downlink(now, p.wire_size());
                if let Some(at) =
                    arrival.filter(|_| drop_every.is_none_or(|n| !sent.is_multiple_of(n)))
                {
                    wire.schedule(at, (true, p.encode()));
                }
                progressed = true;
            }
            while let Some(p) = client.poll_transmit(now) {
                wire.schedule(path.send_uplink(now), (false, p.encode()));
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        while client.poll_event().is_some() {}
        if server.is_idle() && wire.is_empty() {
            break;
        }
        let timers = [
            wire.peek_time(),
            server.next_timeout(),
            client.next_timeout(),
        ];
        let Some(next) = timers.into_iter().flatten().min() else {
            break;
        };
        now = now.max(next);
        while wire.peek_time().is_some_and(|t| t <= now) {
            if let Some(ev) = wire.pop() {
                let (to_client, datagram) = ev.event;
                if to_client {
                    client.on_datagram(now, datagram);
                } else {
                    server.on_datagram(now, datagram);
                }
            }
        }
        for conn in [&mut server, &mut client] {
            if conn.next_timeout().is_some_and(|t| t <= now) {
                conn.on_timeout(now);
            }
        }
    }
    t0.elapsed().as_secs_f64() * 1e9 / sent.max(1) as f64
}

fn quic(k: &mut Kernels) {
    let packet = Packet::new(
        123_456,
        vec![
            Frame::Ack {
                ranges: vec![(100, 200), (50, 80), (0, 20)],
                delay_us: 11_000,
            },
            Frame::Stream {
                id: StreamId(8),
                offset: 1 << 20,
                fin: false,
                unreliable: true,
                data: vec![0xab; 1200].into(),
            },
        ],
    );
    k.per_op("quic.encode_ns", 1, || {
        black_box(packet.encode());
    });
    let encoded = packet.encode();
    k.per_op("quic.decode_ns", 1, || {
        black_box(Packet::decode(encoded.clone()));
    });
    // Scattered inserts (coalescing and splitting, as out-of-order ACKs do)
    // followed by membership queries: 2048 operations a call.
    k.per_op("quic.rangeset_ns_per_op", 2048, || {
        let mut set = RangeSet::new();
        for i in 0..1024u64 {
            let start = (i * 7919) % 60_000;
            set.insert(start, start + 1200);
        }
        let hits = (0..1024u64)
            .filter(|i| set.contains((i * 104_729) % 60_000))
            .count();
        black_box((hits, set.covered_len(), set.gaps(60_000).len()));
    });
    for (name, cc, reliability, drop_every) in [
        (
            "quic.pair_ns_per_packet.cubic",
            CcKind::Cubic,
            Reliability::Reliable,
            None,
        ),
        (
            "quic.pair_ns_per_packet.bbr",
            CcKind::Bbr,
            Reliability::Reliable,
            None,
        ),
        (
            "quic.pair_ns_per_packet.delay",
            CcKind::Delay,
            Reliability::Reliable,
            None,
        ),
        (
            "quic.pair_ns_per_packet.unreliable",
            CcKind::Cubic,
            Reliability::Unreliable,
            None,
        ),
        (
            "quic.pair_ns_per_packet.lossy",
            CcKind::Cubic,
            Reliability::Reliable,
            Some(50),
        ),
    ] {
        let ns = k.whole(|| quic_pair(cc, reliability, drop_every));
        k.out.insert(name, ns);
    }
}

fn http(k: &mut Kernels) {
    use voxel::http::message::{Request, Response};
    let request = Request::get("/video/BBB/seg/10/q/12")
        .with_range(1000, 250_000)
        .with_unreliable();
    k.per_op("http.request_roundtrip_ns", 1, || {
        black_box(Request::decode(&request.encode()));
    });
    let response = Response::partial(vec![(1000, 250_000)]);
    k.per_op("http.response_roundtrip_ns", 1, || {
        black_box(Response::decode(&response.encode()));
    });
}

fn abr(k: &mut Kernels, manifest: &Manifest) {
    // A fixed grid of buffer x throughput x segment index, 3-segment buffer.
    let mut grid = Vec::new();
    for buffer_s in [0.0, 4.0, 12.0] {
        for mbps in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
            for segment_index in [10, 60] {
                grid.push(AbrContext {
                    segment_index,
                    buffer_s,
                    buffer_capacity_s: 12.0,
                    throughput_bps: Some(mbps * 1e6),
                    conservative_throughput_bps: Some(mbps * 0.8e6),
                    last_level: Some(QualityLevel(6)),
                    manifest,
                    rebuffering: buffer_s == 0.0,
                });
            }
        }
    }
    let ops = grid.len() as u64;
    for (name, kind) in [
        ("abr.choose_ns.tput", AbrKind::Tput),
        ("abr.choose_ns.bola", AbrKind::Bola),
        ("abr.choose_ns.mpc", AbrKind::Mpc),
        ("abr.choose_ns.beta", AbrKind::Beta),
        ("abr.choose_ns.bola-ssim", AbrKind::BolaSsim),
        ("abr.choose_ns.voxel", AbrKind::voxel()),
        ("abr.choose_ns.mpc-star", AbrKind::MpcStar),
    ] {
        let mut abr = kind.make();
        k.per_op(name, ops, || {
            for ctx in &grid {
                black_box(abr.choose(ctx));
            }
        });
    }
    for (name, kind) in [
        ("abr.on_progress_ns.bola", AbrKind::Bola),
        ("abr.on_progress_ns.voxel", AbrKind::voxel()),
    ] {
        let mut abr = kind.make();
        k.per_op(name, ops, || {
            for ctx in &grid {
                let bytes_target = ctx.segment_bytes(QualityLevel(6));
                let progress = DownloadProgress {
                    bytes_received: bytes_target / 2,
                    bytes_target,
                    elapsed_s: 2.0,
                    buffer_s: ctx.buffer_s,
                    download_rate_bps: ctx.throughput_bps.unwrap_or(1e6) / 2.0,
                };
                black_box(abr.on_progress(ctx, &progress));
            }
        });
    }
}

/// The link of the single-session kernels, Mbit/s (`--smoke`: a starved
/// link, so an eighth of the packets).
fn session_mbps(k: &Kernels) -> f64 {
    8.0 / k.haste.min(8.0)
}

/// One serial BBB / VOXEL / const8 / buf3 trial: the result and its wall
/// ns per packet.
fn session_trial(cache: &ContentCache, mbps: f64, tracing: Tracing) -> (TrialResult, f64) {
    let experiment = Experiment::builder()
        .video(VideoId::Bbb)
        .abr(AbrKind::voxel())
        .trace(BandwidthTrace::constant(mbps, 300))
        .buffer(3)
        .trials(1)
        .tracing(tracing)
        .build();
    let t0 = Instant::now();
    let result = experiment.run_trial(cache, 0);
    let ns = t0.elapsed().as_secs_f64() * 1e9 / result.transport.packets_sent.max(1) as f64;
    (result, ns)
}

fn core_trace_and_testkit(k: &mut Kernels, cache: &ContentCache) {
    let mbps = session_mbps(k);
    let plain = k.whole(|| session_trial(cache, mbps, Tracing::Off).1);
    k.out.insert("core.session_ns_per_packet", plain);
    // The same trial with every event serialised as JSONL into memory, as
    // the testkit does; the captured timeline then feeds the oracle kernels.
    let timeline = SharedBuf::new();
    let sink = timeline.clone();
    let to_memory = Tracing::custom(move |id| {
        Tracer::new(id, Box::new(JsonlSink::to_writer(Box::new(sink.clone()))))
    });
    let (result, traced) = session_trial(cache, mbps, to_memory);
    k.out.insert("trace.overhead_ratio", traced / plain);
    let timeline = timeline.contents();
    let ns = k.ns_per_op(1, || {
        black_box(voxel::testkit::oracle::timeline_invariants(
            &timeline, &result,
        ));
    });
    k.out.insert("testkit.oracle_ms_per_timeline", ns / 1e6);
    let ns = k.ns_per_op(1, || {
        black_box(voxel::testkit::fnv64(&timeline));
    });
    k.out
        .insert("testkit.digest_mb_per_s", timeline.len() as f64 * 1e3 / ns);

    let memory = Tracer::memory(1, 4096).0;
    let jsonl = Tracer::new(
        1,
        Box::new(JsonlSink::to_writer(Box::new(SharedBuf::new()))),
    );
    for (name, tracer) in [
        ("trace.emit_ns.disabled", Tracer::disabled()),
        ("trace.emit_ns.memory", memory),
        ("trace.emit_ns.jsonl", jsonl),
    ] {
        // One op = one event with two fields plus one counter bump.
        k.per_op(name, 256, || {
            for i in 0..256u64 {
                let t = SimTime::from_micros(i);
                trace_event!(
                    tracer,
                    t,
                    Layer::Quic,
                    "bench",
                    "pkt" = i,
                    "bytes" = 1200u64
                );
                tracer.count("bench.events", 1);
            }
        });
    }

    // 4096 objects of 500 kB, log-uniform (zipf-like) popularity; 64 MB
    // holds 134 of them.
    let keys: Vec<ObjectKey> = (0..4096u32)
        .map(|i| ObjectKey {
            video: VideoId::Bbb,
            seg: i / 13,
            level: (i % 13) as u8,
            kind: ObjectKind::Body,
        })
        .collect();
    let mut rng = SimRng::from_seed(1);
    let requests: Vec<ObjectKey> = (0..8192)
        .map(|_| keys[((keys.len() as f64).powf(rng.uniform()) - 1.0) as usize])
        .collect();
    let mut hot = EdgeCache::new(CacheConfig::default());
    for key in &keys {
        hot.admit(*key, 500_000);
    }
    k.per_op("core.edge_cache_hit_ns", requests.len() as u64, || {
        for key in &requests {
            black_box(hot.lookup(*key));
        }
    });
    let mut small = EdgeCache::new(CacheConfig {
        byte_budget: Some(64 << 20),
        ..CacheConfig::default()
    });
    k.per_op(
        "core.edge_cache_admit_evict_ns",
        requests.len() as u64,
        || {
            for key in &requests {
                if !small.lookup(*key) {
                    small.admit(*key, 500_000);
                }
            }
        },
    );
}

/// Kept out of line so the thread-local "armed" check is made on every
/// call, as it is at a real span site, and not hoisted out of the loop.
#[inline(never)]
fn enter_and_drop_a_span() {
    let _span = voxel::obs::span!("bench.span");
}

fn fleet_and_obs(k: &mut Kernels, cache: &ContentCache) {
    // The 1-session equivalent of the `core.session_ns_per_packet` trial:
    // the price of the second event loop.
    let single: FleetSpec = format!(
        "BBB:1xVOXEL:const{}:buf3:q32:d300:drr:stg0",
        session_mbps(k)
    )
    .parse()
    .expect("the single-session spec parses");
    let fleet_ns = k.whole(|| {
        let t0 = Instant::now();
        let r = run_fleet(&single, cache, Tracer::disabled()).expect("single-session fleet runs");
        let packets: u64 = r.sessions.iter().map(|s| s.transport.packets_sent).sum();
        t0.elapsed().as_secs_f64() * 1e9 / packets.max(1) as f64
    });
    let session_ns = k.out["core.session_ns_per_packet"];
    k.out
        .insert("fleet.single_overhead_ratio", fleet_ns / session_ns);

    k.per_op("obs.span_ns.off", 1024, || {
        (0..1024).for_each(|_| enter_and_drop_a_span())
    });
    {
        let profiler = Profiler::with_sample(1);
        let _installed = profiler.install();
        voxel::obs::arm(0);
        k.per_op("obs.span_ns.on", 1024, || {
            (0..1024).for_each(|_| enter_and_drop_a_span())
        });
    }
    let spec: FleetSpec = FLEET16_SPEC.parse().expect("the fleet16 spec parses");
    let top = ContentCache::top_level_only();
    let pass_s = |profiler: Profiler| {
        let _installed = profiler.install();
        let t0 = Instant::now();
        black_box(run_fleet(&spec, &top, Tracer::disabled()).expect("fleet16 pass runs"));
        t0.elapsed().as_secs_f64()
    };
    pass_s(Profiler::disabled());
    let off = k.whole(|| pass_s(Profiler::disabled()));
    let on = k.whole(|| pass_s(Profiler::enabled()));
    k.out.insert("obs.overhead_ratio", on / off);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{per_layer, Kind};

    /// Every **K** name in the table is measured, and nothing else is.
    #[test]
    fn kernels_cover_exactly_the_k_rows_of_the_table() {
        let measured = run_all(true);
        let wanted: Vec<&str> = per_layer()
            .filter(|m| m.kind == Kind::K)
            .map(|m| m.name)
            .collect();
        assert_eq!(
            measured.keys().copied().collect::<Vec<_>>().len(),
            wanted.len()
        );
        for name in wanted {
            let v = measured
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("{name} not measured"));
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }
}
