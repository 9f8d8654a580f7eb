//! Work-stealing job pool for independent trials.
//!
//! Experiments (single-session trial sweeps and fleet sweeps alike) run
//! many independent, deterministic jobs whose results must come back in
//! index order so downstream aggregation stays bit-identical regardless
//! of scheduling. Workers pull indices from a shared atomic counter —
//! long jobs never leave a fixed chunk of stragglers behind — and each
//! result lands in its own pre-allocated slot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers to use for `n` jobs on this machine: the available
/// parallelism, capped at the job count (and at least 1).
pub fn default_workers(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .clamp(1, n.max(1))
}

/// Run `job(0..n)` across `workers` threads, returning results in index
/// order. Jobs are claimed one at a time from a shared counter (work
/// stealing), so heterogeneous job durations still load-balance.
#[expect(
    clippy::expect_used,
    reason = "the scoped threads are joined before the slots are read, and each job writes its slot"
)]
pub fn run_indexed<T, F>(n: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    {
        let slot_refs: Vec<Mutex<&mut Option<T>>> = slots.iter_mut().map(Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = job(i);
                    let mut slot = slot_refs[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    **slot = Some(result);
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("pool job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_indexed(100, 8, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_matches_serial() {
        let serial: Vec<usize> = (0..17).map(|i| i * i).collect();
        assert_eq!(run_indexed(17, 1, |i| i * i), serial);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_indexed(64, 6, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn default_workers_is_bounded_by_jobs() {
        assert_eq!(default_workers(1), 1);
        assert!(default_workers(1024) >= 1);
    }
}
