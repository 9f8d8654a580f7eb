//! Thread-local allocation accounting for the observability layer.
//!
//! The simulator's hot paths allocate in a handful of well-known places —
//! scheduling an event, encoding a packet, enqueueing on a link. Each of
//! those sites calls [`note`] so a profiler (voxel-obs) can attribute
//! allocation churn to the span that caused it by diffing [`current`]
//! around a region of interest.
//!
//! The counter is a plain thread-local `Cell`: bumping it is one or two
//! nanoseconds, it never synchronizes, and — crucially for determinism —
//! nothing in the simulation ever reads it back. It is telemetry-only:
//! identical seeds produce identical timelines whether or not anyone is
//! watching the counter. Each shard thread keeps its own, which is why
//! this module is exempt from the workspace's `Cell` ban
//! (`clippy::disallowed_types`).

#![expect(
    clippy::disallowed_types,
    reason = "telemetry-only per-thread counter: each shard keeps its own, nothing reads across threads"
)]

use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Record `n` tracked allocations on this thread.
#[inline]
pub fn note(n: u64) {
    ALLOCS.set(ALLOCS.get().wrapping_add(n));
}

/// Total tracked allocations on this thread since it started (wrapping).
///
/// Only meaningful as a *difference* between two reads on the same thread.
#[inline]
pub fn current() -> u64 {
    ALLOCS.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notes_accumulate_per_thread() {
        let before = current();
        note(3);
        note(4);
        assert_eq!(current().wrapping_sub(before), 7);
    }

    #[test]
    fn threads_do_not_share_the_counter() {
        let before = current();
        std::thread::spawn(|| {
            note(1_000_000);
        })
        .join()
        .expect("helper thread");
        assert_eq!(current(), before, "another thread's notes leaked in");
    }
}
