//! The flight recorder: a bounded ring of recent trace events, dumped on
//! failure.
//!
//! A [`FlightRecorder`] wraps any [`TraceSink`] with [`FlightRecorder::wrap`]:
//! events pass through to the inner sink unchanged *and* land in a
//! fixed-size ring. The ring is a `voxel_trace::MemorySink`, which
//! overwrites its oldest slot in place once full, so the tee costs a copy
//! into an existing slot, not an allocation. Ring evictions here are by
//! design and therefore do **not** count toward the tee's dropped-event
//! tally. When an oracle or a paranoid audit trips,
//! [`FlightRecorder::postmortem`] renders the last events —
//! plus the live profiler state, if one is installed — into a pasteable
//! block, turning "seed 41 failed" into something debuggable.
//!
//! [`install`] additionally binds a recorder to the current thread so
//! failure paths deep inside the fleet/session loops (the `paranoid`
//! audits) can call [`dump_current`] without any plumbing.

#![expect(
    clippy::disallowed_types,
    reason = "the thread's recorder stack is per-thread by design; the rings it points to are Arc<Mutex>"
)]

use std::cell::RefCell;
use voxel_trace::{MemoryHandle, MemorySink, TraceEvent, TraceSink};

/// Default ring capacity: the "last-200-events postmortem".
pub const DEFAULT_CAPACITY: usize = 200;

/// A shared, bounded ring of the most recent trace events.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    /// The ring's writer half, cloned into every tee.
    sink: MemorySink,
    /// Its reader half; the ring's eviction tally is [`FlightRecorder::evicted`].
    ring: MemoryHandle,
    capacity: usize,
    label: String,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events, labelled for the
    /// postmortem header (e.g. `"spec=... seed=41"`).
    pub fn new(label: impl Into<String>, capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        let (sink, ring) = MemorySink::shared(capacity);
        FlightRecorder {
            sink,
            ring,
            capacity,
            label: label.into(),
        }
    }

    /// Tee `inner`: recorded events go to the ring *and* through to
    /// `inner`. The returned sink forwards `flush` and the dropped-event
    /// tally to `inner` (ring evictions are intentional, not drops).
    pub fn wrap(&self, inner: Box<dyn TraceSink>) -> RecorderSink {
        RecorderSink {
            inner,
            ring: self.sink.clone(),
        }
    }

    /// Copy out the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.events()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events that rotated out of the ring.
    pub fn evicted(&self) -> u64 {
        self.ring.dropped()
    }

    /// Render the pasteable failure dump: header with `reason`, the
    /// retained events as human-readable lines, and — when a profiler is
    /// installed on the calling thread — its state so far.
    pub fn postmortem(&self, reason: &str) -> String {
        let events = self.ring.events();
        let mut out = String::with_capacity(4096);
        out.push_str("==== voxel-obs flight recorder ====\n");
        out.push_str(&format!("reason: {reason}\n"));
        if !self.label.is_empty() {
            out.push_str(&format!("run:    {}\n", self.label));
        }
        out.push_str(&format!(
            "events: last {} (capacity {}, {} older rotated out)\n",
            events.len(),
            self.capacity,
            self.evicted(),
        ));
        for e in &events {
            out.push_str("  ");
            out.push_str(&e.to_human());
            out.push('\n');
        }
        if let Some(profile) = crate::profile::current_profile_text() {
            out.push_str("---- profiler state ----\n");
            out.push_str(&profile);
        }
        out.push_str("===================================\n");
        out
    }
}

/// The tee produced by [`FlightRecorder::wrap`].
pub struct RecorderSink {
    inner: Box<dyn TraceSink>,
    ring: MemorySink,
}

impl TraceSink for RecorderSink {
    fn record(&mut self, event: &TraceEvent) {
        self.inner.record(event);
        self.ring.record(event);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn dropped_events(&self) -> u64 {
        self.inner.dropped_events()
    }
}

thread_local! {
    /// Stack of recorders bound to this thread (nested installs).
    static CURRENT: RefCell<Vec<FlightRecorder>> = const { RefCell::new(Vec::new()) };
}

/// Bind `recorder` to the current thread until the guard drops, making it
/// reachable from [`dump_current`] in failure paths with no plumbing
/// (paranoid audits, deep oracle checks).
pub fn install(recorder: &FlightRecorder) -> RecorderGuard {
    CURRENT.with_borrow_mut(|stack| stack.push(recorder.clone()));
    RecorderGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// Uninstaller returned by [`install`].
pub struct RecorderGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        CURRENT.with_borrow_mut(|stack| {
            stack.pop();
        });
    }
}

/// Postmortem from the innermost recorder bound to this thread, if any.
pub fn dump_current(reason: &str) -> Option<String> {
    CURRENT.with_borrow(|stack| stack.last().map(|r| r.postmortem(reason)))
}

/// The innermost recorder bound to this thread, if any.
///
/// A coordinator that fans work out to shard threads clones the recorder
/// it found here and [`install`]s the clone on each worker, so paranoid
/// audits deep inside a shard still reach the same ring.
pub fn current() -> Option<FlightRecorder> {
    CURRENT.with_borrow(|stack| stack.last().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_sim::SimTime;
    use voxel_trace::{Layer, MemorySink, Value};

    fn event(seq: u64) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_micros(seq * 10),
            seq,
            session_id: 7,
            layer: Layer::Player,
            kind: "tick",
            fields: vec![("i", Value::U64(seq))],
        }
    }

    #[test]
    fn tee_passes_through_and_rings() {
        let recorder = FlightRecorder::new("spec=x seed=41", 3);
        let (inner, handle) = MemorySink::shared(64);
        let mut sink = recorder.wrap(Box::new(inner));
        for i in 0..5 {
            sink.record(&event(i));
        }
        sink.flush();
        assert_eq!(handle.len(), 5, "inner sink sees everything");
        assert_eq!(recorder.len(), 3, "ring keeps the tail");
        assert_eq!(recorder.evicted(), 2);
        let seqs: Vec<u64> = recorder.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert!(!recorder.is_empty());
    }

    #[test]
    fn ring_evictions_are_not_dropped_events() {
        let recorder = FlightRecorder::new("", 1);
        let (inner, _handle) = MemorySink::shared(64);
        let mut sink = recorder.wrap(Box::new(inner));
        for i in 0..10 {
            sink.record(&event(i));
        }
        assert_eq!(
            sink.dropped_events(),
            0,
            "evictions are by design; only inner-sink drops count"
        );
    }

    #[test]
    fn postmortem_contains_header_events_and_eviction_note() {
        let recorder = FlightRecorder::new("spec=BBB seed=41", 2);
        let mut sink = recorder.wrap(Box::new(voxel_trace::NullSink));
        for i in 0..3 {
            sink.record(&event(i));
        }
        let dump = recorder.postmortem("stall accounting drift");
        assert!(dump.contains("flight recorder"), "{dump}");
        assert!(dump.contains("stall accounting drift"), "{dump}");
        assert!(dump.contains("spec=BBB seed=41"), "{dump}");
        assert!(dump.contains("1 older rotated out"), "{dump}");
        assert!(dump.contains("tick"), "{dump}");
    }

    #[test]
    fn dump_current_uses_the_innermost_install() {
        assert!(dump_current("x").is_none());
        let outer = FlightRecorder::new("outer", 4);
        let _go = install(&outer);
        {
            let inner = FlightRecorder::new("inner", 4);
            let _gi = install(&inner);
            let dump = dump_current("boom").expect("recorder installed");
            assert!(dump.contains("inner"), "{dump}");
        }
        let dump = dump_current("boom").expect("outer restored");
        assert!(dump.contains("outer"), "{dump}");
        drop(_go);
        assert!(dump_current("x").is_none());
    }

    #[test]
    fn postmortem_includes_live_profiler_state() {
        let recorder = FlightRecorder::new("", 4);
        let p = crate::profile::Profiler::with_sample(1);
        let _g = p.install();
        crate::profile::arm(0);
        {
            let _s = crate::profile::SpanGuard::enter("session.step", 0);
        }
        let dump = recorder.postmortem("invariant violated");
        assert!(dump.contains("profiler state"), "{dump}");
        assert!(dump.contains("session.step"), "{dump}");
    }
}
