//! The [`Tracer`] handle threaded through every layer.

use crate::event::{Layer, TraceEvent, Value};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::sink::{JsonlSink, MemoryHandle, MemorySink, TraceSink};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use voxel_sim::SimTime;

struct Inner {
    session_id: u64,
    state: Mutex<State>,
}

/// Everything an emit or a metric update touches, behind one lock.
struct State {
    sink: Box<dyn TraceSink>,
    /// The event every emit fills in place: its field buffer keeps its
    /// capacity, so an event whose fields are numbers costs no heap.
    event: TraceEvent,
    next_seq: u64,
    metrics: MetricsRegistry,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A cheap, cloneable tracing handle.
///
/// A disabled tracer (the [`Default`]) carries no allocation at all;
/// [`Tracer::enabled`] is a single `Option` check, which is what the
/// `trace_event!` macro gates on — so instrumented hot paths stay hot when
/// tracing is off.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(inner) => write!(f, "Tracer(session {})", inner.session_id),
        }
    }
}

impl Tracer {
    /// A tracer that drops everything before it is even constructed.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer for `session_id` writing events to `sink`.
    pub fn new(session_id: u64, sink: Box<dyn TraceSink>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                session_id,
                state: Mutex::new(State {
                    sink,
                    event: TraceEvent::empty(session_id),
                    next_seq: 0,
                    metrics: MetricsRegistry::new(),
                }),
            })),
        }
    }

    /// A tracer retaining the last `capacity` events in memory, plus the
    /// handle to read them back.
    pub fn memory(session_id: u64, capacity: usize) -> (Tracer, MemoryHandle) {
        let (sink, handle) = MemorySink::shared(capacity);
        (Tracer::new(session_id, Box::new(sink)), handle)
    }

    /// A tracer writing a JSONL timeline to `path`.
    pub fn jsonl(session_id: u64, path: impl AsRef<Path>) -> std::io::Result<Tracer> {
        Ok(Tracer::new(session_id, Box::new(JsonlSink::create(path)?)))
    }

    /// Whether events are being collected.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The traced session id (0 when disabled).
    pub fn session_id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.session_id)
    }

    /// Emit one event. Prefer the [`crate::trace_event!`] macro, which
    /// skips field construction entirely when tracing is off.
    pub fn emit<const N: usize>(
        &self,
        t: SimTime,
        layer: Layer,
        kind: &'static str,
        fields: [(&'static str, Value); N],
    ) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.lock();
        let State {
            sink,
            event,
            next_seq,
            ..
        } = &mut *state;
        event.t = t;
        event.seq = *next_seq;
        *next_seq += 1;
        event.layer = layer;
        event.kind = kind;
        event.fields.clear();
        event.fields.extend(fields);
        sink.record(event);
    }

    /// Add `delta` to the named counter.
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.lock().metrics.count(name, delta);
        }
    }

    /// Record a histogram sample.
    pub fn observe(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.lock().metrics.observe(name, v);
        }
    }

    /// Snapshot the metrics registry at sim time `at` (None when disabled).
    ///
    /// The snapshot also surfaces the sink's silently-lost-event tally as
    /// a `trace.dropped` counter (omitted while zero), so ring-buffer
    /// truncation in bounded sinks is visible in reports instead of
    /// quietly shortening timelines.
    pub fn metrics_snapshot(&self, at: SimTime) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| {
            let state = i.lock();
            let mut snap = state.metrics.snapshot(at);
            let dropped = state.sink.dropped_events();
            if dropped > 0 {
                snap.set_counter("trace.dropped", dropped);
            }
            snap
        })
    }

    /// Flush the sink (end of session).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.lock().sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_event;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.session_id(), 0);
        t.count("x", 1);
        t.observe("y", 2);
        trace_event!(t, SimTime::ZERO, Layer::Quic, "pkt_sent", "pn" = 1u64);
        assert!(t.metrics_snapshot(SimTime::ZERO).is_none());
        t.flush();
    }

    #[test]
    fn emit_assigns_monotone_sequence_numbers() {
        let (t, handle) = Tracer::memory(9, 16);
        for i in 0..4u64 {
            trace_event!(t, SimTime::from_micros(i), Layer::Session, "tick", "i" = i);
        }
        let events = handle.events();
        assert_eq!(events.len(), 4);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.session_id, 9);
        }
    }

    #[test]
    fn clones_share_one_stream_and_registry() {
        let (t, handle) = Tracer::memory(1, 16);
        let t2 = t.clone();
        t.count("n", 1);
        t2.count("n", 2);
        trace_event!(t, SimTime::ZERO, Layer::Abr, "a");
        trace_event!(t2, SimTime::ZERO, Layer::Http, "b");
        assert_eq!(handle.events().len(), 2);
        assert_eq!(handle.events()[1].seq, 1, "shared sequence counter");
        let snap = t.metrics_snapshot(SimTime::ZERO).unwrap();
        assert_eq!(snap.counter("n"), 3);
    }

    #[test]
    fn snapshot_surfaces_sink_drops_as_trace_dropped() {
        let (t, _handle) = Tracer::memory(1, 2);
        for i in 0..5u64 {
            trace_event!(t, SimTime::from_micros(i), Layer::Session, "tick", "i" = i);
        }
        let snap = t.metrics_snapshot(SimTime::ZERO).unwrap();
        assert_eq!(snap.counter("trace.dropped"), 3);
        // Sorted invariant survives the injection.
        let mut names: Vec<&String> = snap.counters.iter().map(|(n, _)| n).collect();
        let sorted = names.clone();
        names.sort();
        assert_eq!(names, sorted);

        // Lossless sinks never grow the counter.
        let (t, _handle) = Tracer::memory(1, 64);
        trace_event!(t, SimTime::ZERO, Layer::Session, "tick");
        let snap = t.metrics_snapshot(SimTime::ZERO).unwrap();
        assert!(
            !snap.counters.iter().any(|(n, _)| n == "trace.dropped"),
            "zero drops stay out of the snapshot"
        );
    }

    #[test]
    fn macro_skips_field_evaluation_when_disabled() {
        let t = Tracer::disabled();
        let mut evaluated = false;
        trace_event!(
            t,
            SimTime::ZERO,
            Layer::Player,
            "x",
            "v" = {
                evaluated = true;
                1u64
            }
        );
        assert!(!evaluated, "fields must not be built when tracing is off");
    }
}
