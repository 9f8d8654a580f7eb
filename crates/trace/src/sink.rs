//! Pluggable event sinks.

use crate::event::TraceEvent;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Destination for emitted [`TraceEvent`]s.
///
/// Sinks are owned by a [`crate::Tracer`] behind a mutex, so implementations
/// take `&mut self` and must be `Send` (trials run on worker threads).
pub trait TraceSink: Send {
    /// Record one event.
    fn record(&mut self, event: &TraceEvent);
    /// Flush any buffered output (end of session).
    fn flush(&mut self) {}
    /// Events this sink has silently lost (e.g. ring-buffer eviction).
    /// Surfaced as the `trace.dropped` counter in metrics snapshots so
    /// truncation is visible in reports. Lossless sinks report 0.
    fn dropped_events(&self) -> u64 {
        0
    }
}

/// Discards everything — tracing's off-switch with the wiring still in
/// place. Useful for measuring instrumentation overhead.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}
}

/// Ring-buffered in-memory sink: keeps the most recent `capacity` events.
///
/// Once full, each event overwrites the oldest slot in place
/// ([`Clone::clone_from`]), so a full ring of numeric events allocates
/// nothing. Clones write to the same ring.
#[derive(Debug, Clone)]
pub struct MemorySink {
    ring: Arc<Mutex<Ring>>,
}

/// Reader half of a [`MemorySink`]; stays valid after the sink moves into a
/// tracer.
#[derive(Debug, Clone)]
pub struct MemoryHandle {
    ring: Arc<Mutex<Ring>>,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    /// Events evicted so far.
    dropped: u64,
}

impl MemorySink {
    /// A sink retaining up to `capacity` events, plus its reader handle.
    pub fn shared(capacity: usize) -> (MemorySink, MemoryHandle) {
        assert!(capacity > 0, "MemorySink capacity must be positive");
        let ring = Arc::new(Mutex::new(Ring {
            events: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }));
        (MemorySink { ring: ring.clone() }, MemoryHandle { ring })
    }
}

fn lock(ring: &Mutex<Ring>) -> std::sync::MutexGuard<'_, Ring> {
    ring.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        let mut ring = lock(&self.ring);
        if ring.events.len() < ring.capacity {
            ring.events.push_back(event.clone());
        } else if let Some(mut oldest) = ring.events.pop_front() {
            oldest.clone_from(event);
            ring.events.push_back(oldest);
            ring.dropped += 1;
        }
    }

    fn dropped_events(&self) -> u64 {
        lock(&self.ring).dropped
    }
}

impl MemoryHandle {
    /// Copy out the retained events in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock(&self.ring).events.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        lock(&self.ring).events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the ring so far.
    pub fn dropped(&self) -> u64 {
        lock(&self.ring).dropped
    }
}

/// One JSON object per line to any writer — the machine-readable timeline.
///
/// Events are rendered straight into one reused buffer, which is handed
/// to the writer whenever it passes 64 KiB and on flush: a traced event
/// costs one render and, eventually, one copy.
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
    buf: Vec<u8>,
}

impl JsonlSink {
    /// Bytes rendered before they are handed to the writer.
    const CHUNK: usize = 64 * 1024;

    /// Write JSONL to `path` (truncating).
    pub(crate) fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::to_writer(Box::new(file)))
    }

    /// Write JSONL to an arbitrary writer.
    pub fn to_writer(out: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out,
            buf: Vec::with_capacity(JsonlSink::CHUNK),
        }
    }

    /// Hand the rendered bytes to the writer. Sinks have no error
    /// channel; losing telemetry must not kill a simulation, so write
    /// errors are ignored (matching `eprintln!`).
    fn drain(&mut self) {
        let _ = self.out.write_all(&self.buf);
        self.buf.clear();
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, event: &TraceEvent) {
        event.write_json(&mut self.buf);
        self.buf.push(b'\n');
        if self.buf.len() >= JsonlSink::CHUNK {
            self.drain();
        }
    }

    fn flush(&mut self) {
        self.drain();
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    /// Flush on drop so aborted or panicked trials keep the tail of the
    /// timeline, pushed all the way through the writer (e.g. a buffered
    /// or shared one).
    fn drop(&mut self) {
        self.flush();
    }
}

/// A `Write` implementation over shared memory, for capturing JSONL output
/// in tests (e.g. byte-identical determinism checks).
#[derive(Debug, Default, Clone)]
pub struct SharedBuf {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuf {
    /// New empty buffer.
    pub fn new() -> SharedBuf {
        SharedBuf::default()
    }

    /// Copy out everything written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.lock().clone()
    }

    /// Move out everything written so far, leaving the buffer empty.
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {
        self.buf
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.lock().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Layer, Value};
    use voxel_sim::SimTime;

    fn event(seq: u64) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_micros(seq * 10),
            seq,
            session_id: 1,
            layer: Layer::Quic,
            kind: "pkt_sent",
            fields: vec![("pn", Value::U64(seq))],
        }
    }

    #[test]
    fn memory_sink_rings_at_capacity() {
        let (mut sink, handle) = MemorySink::shared(3);
        for i in 0..5 {
            sink.record(&event(i));
        }
        assert_eq!(sink.dropped_events(), 2);
        let seqs: Vec<u64> = handle.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(handle.len(), 3);
        assert!(!handle.is_empty());
    }

    #[test]
    fn jsonl_sink_roundtrips_through_a_writer() {
        let buf = SharedBuf::new();
        let mut sink = JsonlSink::to_writer(Box::new(buf.clone()));
        sink.record(&event(0));
        sink.record(&event(1));
        sink.flush();
        let text = String::from_utf8(buf.contents()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], event(0).to_json());
        assert_eq!(lines[1], event(1).to_json());
    }

    /// The ring the slot-reusing one replaced: pop the oldest, push a
    /// fresh clone.
    #[derive(Default)]
    struct ReferenceRing {
        events: VecDeque<TraceEvent>,
        dropped: u64,
    }

    impl ReferenceRing {
        fn record(&mut self, capacity: usize, event: &TraceEvent) {
            if self.events.len() == capacity {
                self.events.pop_front();
                self.dropped += 1;
            }
            self.events.push_back(event.clone());
        }
    }

    proptest::proptest! {
        /// Overwriting slots in place keeps the order, contents and
        /// eviction tally of a pop-and-push ring, with fields of varying
        /// length and kind reusing each other's slots.
        #[test]
        fn slot_reusing_ring_matches_a_vecdeque(
            capacity in 1usize..6,
            shapes in proptest::collection::vec((0usize..4, 0u64..3), 0..40),
        ) {
            let (mut sink, handle) = MemorySink::shared(capacity);
            let mut reference = ReferenceRing::default();
            for (seq, &(n, kind)) in shapes.iter().enumerate() {
                let mut e = event(seq as u64);
                e.fields = (0..n as u64)
                    .map(|i| match kind {
                        0 => ("n", Value::U64(i)),
                        1 => ("f", Value::F64(i as f64 / 3.0)),
                        _ => ("s", Value::Str(format!("v{i}"))),
                    })
                    .collect();
                sink.record(&e);
                reference.record(capacity, &e);
                let kept: Vec<TraceEvent> = reference.events.iter().cloned().collect();
                proptest::prop_assert_eq!(handle.events(), kept);
                proptest::prop_assert_eq!(handle.dropped(), reference.dropped);
                proptest::prop_assert_eq!(sink.dropped_events(), reference.dropped);
            }
        }
    }

    #[test]
    fn jsonl_sink_output_is_independent_of_chunking() {
        let buf = SharedBuf::new();
        let mut expected = String::new();
        {
            let mut sink = JsonlSink::to_writer(Box::new(buf.clone()));
            // Enough events to cross the hand-off size several times.
            for i in 0..5_000 {
                let e = event(i);
                sink.record(&e);
                expected.push_str(&e.to_json());
                expected.push('\n');
            }
        }
        assert!(expected.len() > 3 * JsonlSink::CHUNK);
        assert_eq!(buf.take(), expected.into_bytes());
        assert!(buf.contents().is_empty(), "take leaves the buffer empty");
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let buf = SharedBuf::new();
        {
            let mut sink = JsonlSink::to_writer(Box::new(buf.clone()));
            sink.record(&event(3));
            // No explicit flush: dropping the sink must not lose the tail.
        }
        let text = String::from_utf8(buf.contents()).unwrap();
        assert_eq!(text, format!("{}\n", event(3).to_json()));
    }

    #[test]
    fn dropped_events_defaults_to_zero_and_memory_sink_reports_evictions() {
        let buf = SharedBuf::new();
        let jsonl = JsonlSink::to_writer(Box::new(buf));
        assert_eq!(TraceSink::dropped_events(&jsonl), 0);
        let (mut sink, _handle) = MemorySink::shared(2);
        for i in 0..5 {
            sink.record(&event(i));
        }
        assert_eq!(TraceSink::dropped_events(&sink), 3);
    }

    #[test]
    fn jsonl_sink_writes_files() {
        let path = std::env::temp_dir().join("voxel_trace_sink_test.jsonl");
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.record(&event(7));
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("{}\n", event(7).to_json()));
        let _ = std::fs::remove_file(&path);
    }
}
