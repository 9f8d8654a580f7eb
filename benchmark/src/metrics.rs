//! The `METRICS` table: every number the benchmark reports, by name.
//!
//! Layers are the crates. Where a number comes from:
//!
//! - **E** end-to-end, measured with tracing and profiler off, with the
//!   share of the parent's median by which it may worsen (`bound`);
//! - **R** read from the run's own results (exact; repeats bit for bit);
//! - **K** kernel: the benchmark calls the layer's public functions in a
//!   closed loop and times them from outside;
//! - **T** taken in the traced round (span recorder + profiler on); a
//!   measurement of that one run, not exact;
//! - **D** derived by `run.sh` from cells of several runs. A single driver
//!   run cannot compute these, so they are not in `BENCHMARK.json`.

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    E { bound: f64 },
    R,
    K,
    T,
    D,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub kind: Kind,
}

impl Metric {
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }

    pub fn source(&self) -> &'static str {
        match self.kind {
            Kind::E { .. } => "E",
            Kind::R => "R",
            Kind::K => "K",
            Kind::T => "T",
            Kind::D => "D",
        }
    }

    pub fn bound(&self) -> Option<f64> {
        match self.kind {
            Kind::E { bound } => Some(bound),
            _ => None,
        }
    }
}

const fn lower(name: &'static str, unit: &'static str, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        kind,
    }
}

const fn higher(name: &'static str, unit: &'static str, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
        kind,
    }
}

use Kind::{D, K, R, T};

pub const METRICS: &[Metric] = &[
    // End to end. `wall_s`, `ns_per_packet` and `sim_s_per_wall_s` share one
    // clock reading: the first is what the user waits, the other two survive
    // a model change that alters the packet or session-second count.
    //
    // The bounds are what this box allows, not what one would wish for: the
    // same binary on the same input runs up to 20 % faster or slower an hour
    // apart (README, "Why these bounds"), and 0.25 is the contract's ceiling.
    lower("setup_s", "s", Kind::E { bound: 0.25 }),
    lower("wall_s", "s", Kind::E { bound: 0.25 }),
    lower("ns_per_packet", "ns", Kind::E { bound: 0.25 }),
    higher("sim_s_per_wall_s", "ratio", Kind::E { bound: 0.25 }),
    lower("peak_rss_mb", "MB", Kind::E { bound: 0.20 }),
    // sim
    lower("sim.event_queue_ns_per_op.d64", "ns", K),
    lower("sim.event_queue_ns_per_op.d4096", "ns", K),
    // media
    lower("media.video_generate_ms", "ms", K),
    lower("media.qoe_eval_ns", "ns", K),
    // prep
    lower("prep.manifest_full_ms", "ms", R),
    higher("prep.segment_levels_per_s", "1/s", D),
    lower("prep.manifest_top_ms", "ms", K),
    lower("prep.mpd_roundtrip_ms", "ms", K),
    // netem
    lower("netem.shared_fifo_ns_per_packet.f16", "ns", K),
    lower("netem.shared_fifo_ns_per_packet.f1000", "ns", K),
    lower("netem.shared_drr_ns_per_packet.f16", "ns", K),
    lower("netem.shared_drr_ns_per_packet.f1000", "ns", K),
    lower("netem.path_ns_per_packet", "ns", K),
    lower("netem.enqueued", "count", R),
    lower("netem.dropped", "count", R),
    lower("netem.drop_share", "fraction", R),
    // quic
    lower("quic.encode_ns", "ns", K),
    lower("quic.decode_ns", "ns", K),
    lower("quic.rangeset_ns_per_op", "ns", K),
    lower("quic.pair_ns_per_packet.cubic", "ns", K),
    lower("quic.pair_ns_per_packet.bbr", "ns", K),
    lower("quic.pair_ns_per_packet.delay", "ns", K),
    lower("quic.pair_ns_per_packet.unreliable", "ns", K),
    lower("quic.pair_ns_per_packet.lossy", "ns", K),
    lower("quic.packets_sent", "count", R),
    lower("quic.packets_lost", "count", R),
    lower("quic.loss_events", "count", R),
    lower("quic.ptos", "count", R),
    lower("quic.bytes_sent", "bytes", R),
    lower("quic.bytes_retransmitted", "bytes", R),
    lower("quic.retx_share", "fraction", R),
    lower("quic.client_dup_reordered", "count", R),
    // http
    lower("http.request_roundtrip_ns", "ns", K),
    lower("http.response_roundtrip_ns", "ns", K),
    // abr
    lower("abr.choose_ns.tput", "ns", K),
    lower("abr.choose_ns.bola", "ns", K),
    lower("abr.choose_ns.mpc", "ns", K),
    lower("abr.choose_ns.beta", "ns", K),
    lower("abr.choose_ns.bola-ssim", "ns", K),
    lower("abr.choose_ns.voxel", "ns", K),
    lower("abr.choose_ns.mpc-star", "ns", K),
    lower("abr.on_progress_ns.bola", "ns", K),
    lower("abr.on_progress_ns.voxel", "ns", K),
    // core
    lower("core.session_ns_per_packet", "ns", K),
    lower("core.edge_cache_hit_ns", "ns", K),
    lower("core.edge_cache_admit_evict_ns", "ns", K),
    lower("core.trial_ms_p50", "ms", T),
    lower("core.trial_ms_max", "ms", T),
    lower("core.trial_serial_s", "s", T),
    higher("core.pool_efficiency", "ratio", D),
    lower("core.sessions", "count", R),
    higher("core.completed_share", "fraction", R),
    lower("core.stall_s", "s", R),
    lower("core.buf_ratio_p90_pct", "%", R),
    higher("core.mean_ssim", "ssim", R),
    lower("core.startup_s_mean", "s", R),
    lower("core.bytes_downloaded", "bytes", R),
    lower("core.waste_share", "fraction", R),
    higher("core.recovered_share", "fraction", R),
    lower("core.restarts", "count", R),
    lower("core.kept_partials", "count", R),
    // fleet
    lower("fleet.loop_iters", "count", R),
    lower("fleet.iters_per_packet", "ratio", R),
    higher("fleet.jain", "ratio", R),
    lower("fleet.sim_end_s", "s", R),
    lower("fleet.rss_kb_per_session", "kB", T),
    higher("fleet.edge_hit_ratio_pct", "%", R),
    lower("fleet.edge_evictions", "count", R),
    lower("fleet.edge_origin_bytes", "bytes", R),
    lower("fleet.edge_origin_fetches", "count", R),
    lower("fleet.edge_origin_load_pct", "%", R),
    lower("fleet.scale_penalty", "ratio", D),
    higher("fleet.w2_speedup", "ratio", D),
    lower("fleet.single_overhead_ratio", "ratio", K),
    // trace
    lower("trace.emit_ns.disabled", "ns", K),
    lower("trace.emit_ns.memory", "ns", K),
    lower("trace.emit_ns.jsonl", "ns", K),
    lower("trace.overhead_ratio", "ratio", K),
    lower("trace.events_per_packet", "ratio", R),
    // obs
    lower("obs.span_ns.off", "ns", K),
    lower("obs.span_ns.on", "ns", K),
    lower("obs.overhead_ratio", "ratio", K),
    lower("obs.self_share.fleet", "fraction", T),
    lower("obs.self_share.quic", "fraction", T),
    lower("obs.self_share.netem", "fraction", T),
    lower("obs.self_share.core", "fraction", T),
    higher("obs.reconcile_share", "fraction", T),
    // testkit
    lower("testkit.oracle_ms_per_timeline", "ms", K),
    higher("testkit.digest_mb_per_s", "MB/s", K),
    // process (the whole child, not a crate)
    lower("process.cpu_user_s", "s", T),
    lower("process.cpu_sys_s", "s", T),
    lower("process.minor_faults", "count", T),
    lower("process.traced_wall_s", "s", T),
    lower("process.traced_overhead_ratio", "ratio", D),
];

pub fn end_to_end() -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(|m| m.bound().is_some())
}

/// The per-layer metrics a single traced run reports (everything but E and D).
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    METRICS
        .iter()
        .filter(|m| !matches!(m.kind, Kind::E { .. } | D))
}

pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let names: Vec<&str> = METRICS
            .iter()
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
        }
        for m in METRICS {
            assert!(
                well_formed(m.unit, 16, "_/%.-"),
                "{} unit {}",
                m.name,
                m.unit
            );
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn the_table_has_the_shape_the_issue_and_the_contract_ask_for() {
        assert_eq!(WORKLOADS.len(), 7);
        assert_eq!(end_to_end().count(), 5);
        // The issue's 92 per-layer metrics, plus the two the derived cells need
        // from a single traced run (`core.trial_serial_s`, `process.traced_wall_s`).
        assert_eq!(METRICS.len() - end_to_end().count(), 94);
        assert_eq!(METRICS.iter().filter(|m| m.kind == D).count(), 5);
        assert!(per_layer().count() <= 128);
        let setup = metric("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better()), ("s", "lower"));
        let largest = end_to_end().filter_map(Metric::bound).fold(0.0, f64::max);
        assert_eq!(setup.bound(), Some(largest));
        assert!(largest <= 0.25);
    }
}
