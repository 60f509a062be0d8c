//! The round-scoped worker pool behind parallel evaluation.
//!
//! One [`WorkerPool`] is created per engine run from
//! [`crate::EngineConfig::threads`] and drives the two parallel regions
//! of every fixpoint round — the rule scans of step 1 (one job per
//! round task) and the state building of step 2+3 (one job per created
//! version). Both are independent reads of the round's immutable input
//! base. A region hands the pool an indexed job list; workers pull jobs
//! from a shared atomic cursor (so a skewed round self-balances) and
//! deposit each result into the slot of its job index. The caller reads
//! the slots back **in job order**, which is what makes the merged
//! output independent of the worker count and of scheduling — the
//! determinism contract documented in ARCHITECTURE.md §"Parallel
//! evaluation".

use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-width scoped worker pool with deterministic result order.
///
/// `workers == 1` is a plain loop on the calling thread (no threads, no
/// atomics): the serial configuration, running the same region code.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    pub(crate) fn new(workers: usize) -> WorkerPool {
        WorkerPool { workers: workers.max(1) }
    }

    /// The configured worker cap.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Run `jobs` invocations of `f` (by job index) and return the
    /// results in job-index order. Work is pulled, not chunked: each
    /// worker grabs the next unclaimed index until none remain.
    pub(crate) fn run<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.workers < 2 || jobs < 2 {
            return (0..jobs).map(&f).collect();
        }
        let workers = self.workers.min(jobs);
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(jobs);
        slots.resize_with(jobs, || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let f = &f;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                for (i, value) in handle.join().expect("evaluation worker panicked") {
                    slots[i] = Some(value);
                }
            }
        });
        slots.into_iter().map(|s| s.expect("every job index claimed")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_for_any_width() {
        for workers in [1, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            let out = pool.run(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        let pool = WorkerPool::new(4);
        assert!(pool.run(0, |i| i).is_empty());
        assert_eq!(pool.run(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn workers_are_capped_at_one_minimum() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
        assert_eq!(WorkerPool::new(5).workers(), 5);
    }
}
