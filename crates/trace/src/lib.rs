#![warn(missing_docs)]
//! # voxel-trace
//!
//! Cross-layer observability for the VOXEL reproduction: a structured event
//! bus plus a metrics registry, both stamped in **sim time** so telemetry
//! from the transport, HTTP, ABR, and player layers lines up on one
//! timeline — the view the paper's cross-layer argument (§4.2–4.3) is made
//! in.
//!
//! - [`TraceEvent`]: one timestamped, layer-tagged, key/value event.
//! - [`Tracer`]: a cheap cloneable handle threaded through every layer. A
//!   disabled tracer is a `None` — emitting through it is one branch, so
//!   instrumented hot paths cost nothing measurable when tracing is off.
//! - [`TraceSink`] implementations: [`NullSink`], ring-buffered
//!   [`MemorySink`], human-readable stderr lines ([`Tracer::stderr`]),
//!   and [`JsonlSink`] (one JSON object per line, replayable).
//! - [`MetricsRegistry`]: counters and log-scale-bucket
//!   [`Histogram`]s, snapshotable at any sim time.
//! - [`KINDS`] and [`METRICS`]: the taxonomy every timeline line and
//!   metric name belongs to (DESIGN.md §9, rendered by
//!   [`taxonomy_markdown`]).
//! - [`json`]: the workspace's one JSON module, the writer every sink uses
//!   and a reader for JSON that comes from outside the program.
//!
//! Everything is deterministic: identically-seeded sessions produce
//! byte-identical JSONL streams (event order, sequence numbers, and float
//! formatting are all reproducible).

mod event;
pub mod json;
mod metrics;
mod sink;
mod taxonomy;
mod tracer;

pub use event::{Layer, TraceEvent, Value};
pub use metrics::{Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use sink::{JsonlSink, MemoryHandle, MemorySink, NullSink, SharedBuf, TraceSink};
pub use taxonomy::{taxonomy_markdown, Kind, Metric, MetricShape, KINDS, METRICS};
pub use tracer::Tracer;

/// Emit a structured event through a [`Tracer`], paying for field
/// construction only when tracing is enabled. The fields travel as a
/// fixed-size array, so building the event touches no heap.
///
/// ```
/// use voxel_trace::{trace_event, Layer, Tracer};
/// use voxel_sim::SimTime;
///
/// let (tracer, handle) = Tracer::memory(1, 64);
/// trace_event!(tracer, SimTime::from_millis(5), Layer::Player, "stall_start", "seg" = 7u64);
/// assert_eq!(handle.events().len(), 1);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($tracer:expr, $t:expr, $layer:expr, $kind:expr $(, $name:literal = $val:expr)* $(,)?) => {
        if $tracer.enabled() {
            $tracer.emit($t, $layer, $kind, [$(($name, $crate::Value::from($val))),*]);
        }
    };
}
