//! The trace taxonomy (DESIGN.md §9) as data: every event kind a timeline
//! can carry and every metric name a snapshot can hold.
//!
//! The tables are the vocabulary of the cross-layer timeline, written once.
//! DESIGN.md §9 is [`taxonomy_markdown`]'s output, and the testkit holds
//! every golden run to them: each timeline line must match its [`KINDS`]
//! row (layer, kind, field names in emission order), each snapshot metric
//! its [`METRICS`] row, and every row must be produced by some golden run.

use crate::event::Layer;
use std::fmt;

/// One event kind: the layer that emits it and the fields it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kind {
    /// Emitting layer.
    pub layer: Layer,
    /// The `kind` string on the wire (unique across layers).
    pub kind: &'static str,
    /// Field names, in emission order.
    pub fields: &'static [&'static str],
}

/// How a metric records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricShape {
    /// A monotone `count`.
    Counter,
    /// A log-bucket histogram fed by `observe`.
    Histogram,
}

impl fmt::Display for MetricShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MetricShape::Counter => "counter",
            MetricShape::Histogram => "histogram",
        })
    }
}

/// One metric name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Full name, prefixed by its layer.
    pub name: &'static str,
    /// Counter or histogram.
    pub shape: MetricShape,
    /// When the metric exists, where that is narrower than its layer.
    pub note: &'static str,
}

const fn kind(layer: Layer, kind: &'static str, fields: &'static [&'static str]) -> Kind {
    Kind {
        layer,
        kind,
        fields,
    }
}

/// Every event kind, in layer order.
#[rustfmt::skip]
pub const KINDS: [Kind; 24] = [
    kind(Layer::Quic, "pkt_sent", &["pn", "bytes", "cwnd", "in_flight", "retx"]),
    kind(Layer::Quic, "pkt_acked", &["largest", "pkts", "bytes", "cwnd", "ssthresh", "srtt_us"]),
    kind(Layer::Quic, "loss", &["pkts", "bytes", "largest_lost", "cwnd_after"]),
    kind(Layer::Quic, "unreliable_loss", &["stream", "ranges", "bytes"]),
    kind(Layer::Quic, "pto", &["count", "cwnd"]),
    kind(Layer::Http, "request", &["stream", "path", "unreliable"]),
    kind(Layer::Http, "range_request", &["stream", "path", "nranges", "bytes", "unreliable"]),
    kind(Layer::Http, "response", &["stream", "status", "bytes", "unreliable"]),
    kind(Layer::Http, "abandon", &["seg", "action", "received", "target"]),
    kind(Layer::Abr, "decision", &[
        "seg", "level", "partial", "target_bytes", "full_bytes", "target_ssim", "buffer_s",
        "tput_bps", "rebuffering",
    ]),
    kind(Layer::Player, "startup", &["seg", "ready"]),
    kind(Layer::Player, "stall_start", &["seg"]),
    kind(Layer::Player, "stall_end", &["seg", "dur_ms"]),
    kind(Layer::Player, "download_done", &["seg", "level", "bytes", "dur_ms", "restarts"]),
    kind(Layer::Player, "segment_play", &["seg", "level", "ssim", "dropped", "ref_dropped"]),
    kind(Layer::Player, "retx_open", &["seg", "stream", "nranges", "bytes"]),
    kind(Layer::Player, "retx_close", &["seg", "stream"]),
    kind(Layer::Session, "trial_start", &["buffer_segments", "transport", "selective_retx", "live"]),
    kind(Layer::Session, "trial_end", &[
        "packets_sent", "packets_lost", "loss_events", "ptos", "bytes_sent",
    ]),
    kind(Layer::Fleet, "fleet_start", &["sessions", "queue_packets", "discipline", "mean_mbps"]),
    kind(Layer::Fleet, "fleet_session_start", &["flow", "system", "start_s"]),
    kind(Layer::Fleet, "fleet_session_end", &[
        "flow", "system", "completed", "stall_s", "ssim", "bytes_downloaded",
    ]),
    kind(Layer::Fleet, "fleet_end", &["sessions", "jain", "mean_ssim", "drops", "delivered_bytes"]),
    kind(Layer::Edge, "edge_state", &[
        "edge", "sessions", "hits", "misses", "evictions", "bytes_served", "origin_bytes",
        "used_bytes", "objects",
    ]),
];

const fn counter(name: &'static str, note: &'static str) -> Metric {
    Metric {
        name,
        shape: MetricShape::Counter,
        note,
    }
}

const fn histogram(name: &'static str, note: &'static str) -> Metric {
    Metric {
        name,
        shape: MetricShape::Histogram,
        note,
    }
}

const AT_FLEET_END: &str = "one sample per flow, at fleet end";
const EDGE: &str = "fleets with an edge tier";
const EDGE_AT_END: &str = "fleets with an edge tier; one sample, at fleet end";
const OBS: &str = "profiler-owned: in profile reports, never in a snapshot";

/// Every metric name, grouped by layer, counters first.
#[rustfmt::skip]
pub const METRICS: [Metric; 44] = [
    counter("quic.packets_sent", ""),
    counter("quic.packets_acked", ""),
    counter("quic.loss_events", ""),
    counter("quic.packets_lost", ""),
    counter("quic.unreliable_loss_reports", ""),
    counter("quic.ptos", ""),
    histogram("quic.cwnd_bytes", ""),
    histogram("quic.pkt_bytes", ""),
    histogram("quic.srtt_us", ""),
    histogram("quic.loss_burst_pkts", ""),
    histogram("quic.btlbw_bps", "BBR only"),
    counter("http.requests", ""),
    counter("http.range_requests", ""),
    counter("http.responses", ""),
    counter("http.abandons", ""),
    histogram("http.range_bytes", ""),
    histogram("http.response_bytes", ""),
    counter("abr.decisions", ""),
    counter("abr.partial_decisions", ""),
    histogram("abr.level", ""),
    histogram("abr.buffer_ms", ""),
    counter("player.stalls", ""),
    counter("player.segments_played", ""),
    counter("player.frames_dropped", ""),
    counter("player.retx_windows", ""),
    histogram("player.download_ms", ""),
    histogram("player.segment_bytes", ""),
    histogram("player.startup_ms", ""),
    histogram("player.stall_ms", ""),
    counter("fleet.sessions_completed", ""),
    counter("fleet.link_drops", ""),
    histogram("fleet.flow_share_pct", AT_FLEET_END),
    histogram("fleet.session_stall_ms", AT_FLEET_END),
    counter("edge.hit", EDGE),
    counter("edge.miss", EDGE),
    counter("edge.evict", EDGE),
    counter("edge.origin_bytes", EDGE),
    histogram("edge.hit_ratio_pct", EDGE_AT_END),
    histogram("edge.origin_load_pct", EDGE_AT_END),
    counter("trace.dropped", "lossy sinks only: the events a memory ring rotated out"),
    histogram("obs.queue_depth", OBS),
    histogram("obs.link_queue", OBS),
    histogram("obs.shard_live", OBS),
    histogram("obs.shard_outbox", OBS),
];

/// The DESIGN.md §9 tables: one row per event kind, then one per metric.
pub fn taxonomy_markdown() -> String {
    let ticks = |names: &[&str]| -> String {
        names
            .iter()
            .map(|n| format!("`{n}`"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out =
        String::from("| Layer | Event (`kind`) | Fields, in emission order |\n|---|---|---|\n");
    for k in &KINDS {
        out.push_str(&format!(
            "| `{}` | `{}` | {} |\n",
            k.layer,
            k.kind,
            ticks(k.fields)
        ));
    }
    out.push_str("\n| Metric | Shape | When |\n|---|---|---|\n");
    for m in &METRICS {
        let when = if m.note.is_empty() { "—" } else { m.note };
        out.push_str(&format!("| `{}` | {} | {when} |\n", m.name, m.shape));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_metric_names_are_unique() {
        let mut kinds: Vec<&str> = KINDS.iter().map(|k| k.kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), KINDS.len(), "a kind names one row");
        let mut metrics: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        metrics.sort_unstable();
        metrics.dedup();
        assert_eq!(metrics.len(), METRICS.len(), "a metric names one row");
    }

    #[test]
    fn rows_are_grouped_by_layer() {
        let layers: Vec<Layer> = KINDS.iter().map(|k| k.layer).collect();
        let mut sorted = layers.clone();
        sorted.sort();
        assert_eq!(layers, sorted, "KINDS follows Layer's order");
        for k in &KINDS {
            let mut fields = k.fields.to_vec();
            fields.sort_unstable();
            fields.dedup();
            assert_eq!(fields.len(), k.fields.len(), "`{}` repeats a field", k.kind);
        }
    }

    #[test]
    fn markdown_has_one_row_per_kind_and_metric() {
        let md = taxonomy_markdown();
        assert_eq!(
            md.lines().filter(|l| l.starts_with("| `")).count(),
            KINDS.len() + METRICS.len()
        );
        assert!(md.contains("| `quic` | `pto` | `count`, `cwnd` |\n"));
        assert!(md.contains("| `quic.btlbw_bps` | histogram | BBR only |\n"));
        assert!(md.contains("| `quic.ptos` | counter | — |\n"));
    }
}
