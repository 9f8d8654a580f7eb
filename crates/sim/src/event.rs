//! A stable, deterministic event queue.
//!
//! Two events scheduled for the same instant fire in the order they were
//! scheduled (FIFO tie-breaking via a monotonically increasing sequence
//! number). Determinism here is what makes whole experiments reproducible
//! bit-for-bit from a seed.

use crate::clock::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event of user-defined payload type `E`, scheduled at [`SimTime`].
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion sequence number; breaks ties deterministically.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then
        // lowest-sequence) event is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of timestamped events.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue positioned at t = 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; we clamp to
    /// `now` (the event fires "immediately") and debug-assert, because the
    /// alternative — time moving backwards — corrupts every downstream
    /// timestamp.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, event });
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next event, advancing virtual time to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        self.now = ev.at;
        Some(ev)
    }

    /// Discard all pending events (e.g. at session teardown), keeping `now`.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_popped_event() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1u32);
        let e = q.pop().unwrap();
        assert_eq!(e.event, 1);
        // Schedule relative to the new now.
        q.schedule(q.now() + SimDuration::from_secs(1), 2u32);
        q.schedule(q.now() + SimDuration::from_millis(500), 3u32);
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.pop().unwrap().event, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_does_not_advance_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.now(), SimTime::ZERO);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Pops come out in nondecreasing time order, and equal-time events
        /// preserve insertion order regardless of the schedule pattern.
        #[test]
        fn global_order_and_stability(times in proptest::collection::vec(0u64..1000, 1..300)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            let mut seen = 0;
            while let Some(ev) = q.pop() {
                if let Some((lt, lseq)) = last {
                    prop_assert!(ev.at >= lt);
                    if ev.at == lt {
                        prop_assert!(ev.event > lseq, "FIFO violated at {lt}");
                    }
                }
                last = Some((ev.at, ev.event));
                seen += 1;
            }
            prop_assert_eq!(seen, times.len());
        }
    }
}
