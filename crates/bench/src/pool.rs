//! Worker pools with deterministic, index-ordered results.
//!
//! The scenario runner's unit of work is one (size, seed) cell, and cells
//! are independent by construction — each builds its own seeded stack and
//! draws from its own seeded RNG. What parallel execution must *not* change
//! is the output: the runner promises byte-identical JSON for the same
//! sweep at every thread count, so results have to come back in work-item
//! order, never in completion order.
//!
//! [`WorkPool`] is the runner's one executor: long-lived workers behind one
//! FIFO queue. [`WorkPool::run_batch`] submits the indices `0..len`, writes
//! every result to slot `i` of the output, and blocks until the batch
//! completes, so the returned `Vec` is ordered by item index regardless of
//! which worker finished when. The server shares one pool across all of
//! its connections; a CLI sweep builds one per call. A pool of one thread
//! runs the items in index order on its single worker.
//!
//! [`run_indexed`] is the scoped-thread form of the same contract, for
//! callers whose work borrows from their own stack and keeps per-worker
//! state (the benchmark harness's traced runner replica); the runner itself
//! does not use it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The number of worker threads the machine offers
/// (`std::thread::available_parallelism`), falling back to 1 when the
/// platform cannot say.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `work(state, i)` for every `i in 0..len` on up to `threads` scoped
/// workers and returns the results **ordered by index**.
///
/// `make_state` builds one per-worker state value on each worker's own
/// thread (so `S` need not be `Send`); `work` receives that state mutably
/// together with the item index. With `threads <= 1` (or `len <= 1`) the
/// items run inline on the caller's thread in index order — the exact
/// serial path.
///
/// Determinism contract: for pure-per-item `work` (anything whose output
/// depends only on the index, not on shared mutable state), the returned
/// vector is identical for every thread count, because slot `i` of the
/// output only ever holds the result of item `i`.
pub fn run_indexed<S, R, FS, FW>(len: usize, threads: usize, make_state: FS, work: FW) -> Vec<R>
where
    R: Send,
    FS: Fn() -> S + Sync,
    FW: Fn(&mut S, usize) -> R + Sync,
{
    let workers = threads.max(1).min(len.max(1));
    if workers <= 1 {
        let mut state = make_state();
        return (0..len).map(|i| work(&mut state, i)).collect();
    }
    // Results are collected into index-addressed slots behind one mutex;
    // the lock is taken once per completed item (not per slot probe), so
    // contention is negligible next to any real cell's work.
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..len).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = make_state();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        break;
                    }
                    let r = work(&mut state, i);
                    results.lock().expect("result lock")[i] = Some(r);
                }
            });
        }
    });
    results
        .into_inner()
        .expect("result lock")
        .into_iter()
        .map(|slot| slot.expect("every index visited exactly once"))
        .collect()
}

/// A queued unit of work owned by the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue state shared between submitters and workers. The shutdown flag
/// lives *inside* the mutex so a worker can never observe "queue empty"
/// and then miss the shutdown notification (no lost-wakeup window).
struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signalled when a job is pushed or shutdown is requested.
    available: Condvar,
}

/// Book-keeping for one in-flight [`WorkPool::run_batch`] call: the
/// index-addressed result slots plus a countdown the submitter sleeps on.
struct BatchState<R> {
    slots: Mutex<Vec<Option<R>>>,
    remaining: Mutex<usize>,
    done: Condvar,
}

/// A persistent worker pool shared by many submitters.
///
/// Every submitter — the runner's batch call, or each of the server's
/// connection handlers — queues its items on the same long-lived workers,
/// so a request's cells are scheduled as one work-item set without each
/// caller spawning threads of its own and oversubscribing the machine.
///
/// Contracts:
///
/// * [`run_batch`](WorkPool::run_batch) returns results **ordered by item
///   index**, never by completion order — slot `i` only ever holds the
///   result of item `i`, so output bytes cannot depend on scheduling;
/// * jobs from different batches interleave freely on the same workers —
///   fairness across concurrent submitters comes from the single FIFO
///   queue;
/// * a panicking job is confined to its slot (`None`) — the worker thread
///   survives, the batch still completes, and other submitters are
///   unaffected.
///
/// Jobs must be `'static`: the pool outlives any one call, so submitted
/// closures own their data (in practice, `Arc`s over the prepared
/// scenario state).
pub struct WorkPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkPool {
    /// Spawns a pool with `threads` long-lived workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut q = shared.queue.lock().expect("pool queue");
                        loop {
                            if let Some(job) = q.jobs.pop_front() {
                                break job;
                            }
                            if q.shutdown {
                                return;
                            }
                            q = shared.available.wait(q).expect("pool queue");
                        }
                    };
                    // A panicking job must not take the worker down with it;
                    // run_batch already wraps its closures, but belt-and-
                    // braces here keeps raw submits from killing the pool.
                    let _ = catch_unwind(AssertUnwindSafe(job));
                })
            })
            .collect();
        WorkPool { shared, workers }
    }

    /// The number of worker threads this pool runs.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    fn submit(&self, job: Job) {
        let mut q = self.shared.queue.lock().expect("pool queue");
        q.jobs.push_back(job);
        drop(q);
        self.shared.available.notify_one();
    }

    /// Runs `work(i)` for every `i in 0..len` on the pool's workers and
    /// blocks until all items finish, returning the results **ordered by
    /// index**. Slot `i` is `None` iff item `i` panicked; every other slot
    /// is `Some`.
    ///
    /// Many threads may call `run_batch` concurrently: their items share
    /// the FIFO queue, so no batch can starve another, and a batch's
    /// submitter wakes exactly when its own countdown reaches zero.
    pub fn run_batch<R, F>(&self, len: usize, work: F) -> Vec<Option<R>>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        if len == 0 {
            return Vec::new();
        }
        let work = Arc::new(work);
        let batch = Arc::new(BatchState {
            slots: Mutex::new((0..len).map(|_| None).collect()),
            remaining: Mutex::new(len),
            done: Condvar::new(),
        });
        for i in 0..len {
            let work = Arc::clone(&work);
            let batch = Arc::clone(&batch);
            self.submit(Box::new(move || {
                // catch_unwind here (not just in the worker loop) so the
                // countdown below *always* runs — otherwise one panicking
                // cell would leave its submitter asleep forever.
                let result = catch_unwind(AssertUnwindSafe(|| work(i))).ok();
                batch.slots.lock().expect("batch slots")[i] = result;
                let mut remaining = batch.remaining.lock().expect("batch countdown");
                *remaining -= 1;
                if *remaining == 0 {
                    batch.done.notify_all();
                }
            }));
        }
        let mut remaining = batch.remaining.lock().expect("batch countdown");
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).expect("batch countdown");
        }
        drop(remaining);
        let mut slots = batch.slots.lock().expect("batch slots");
        std::mem::take(&mut *slots)
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue");
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn results_come_back_in_index_order_for_every_thread_count() {
        // An artificial skew: later items finish *earlier* on a real pool,
        // so completion order disagrees with index order — the output must
        // not care.
        let expected: Vec<u64> = (0..97u64).map(|i| i * i).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let got = run_indexed(
                97,
                threads,
                || (),
                |(), i| {
                    if threads > 1 {
                        std::thread::sleep(std::time::Duration::from_micros(97 - i as u64));
                    }
                    (i as u64) * (i as u64)
                },
            );
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn every_index_is_visited_exactly_once() {
        let visits: Vec<AtomicU64> = (0..200).map(|_| AtomicU64::new(0)).collect();
        let out = run_indexed(
            200,
            7,
            || (),
            |(), i| {
                visits[i].fetch_add(1, Ordering::Relaxed);
                i
            },
        );
        assert_eq!(out.len(), 200);
        for (i, v) in visits.iter().enumerate() {
            assert_eq!(v.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn per_worker_state_is_reused_within_a_worker() {
        // Each worker's state counts the items it processed; the counts must
        // partition the item set (state is created once per worker, not once
        // per item).
        let totals = Mutex::new(0usize);
        struct Tally<'a> {
            seen: usize,
            totals: &'a Mutex<usize>,
        }
        impl Drop for Tally<'_> {
            fn drop(&mut self) {
                *self.totals.lock().unwrap() += self.seen;
            }
        }
        let _ = run_indexed(
            50,
            4,
            || Tally {
                seen: 0,
                totals: &totals,
            },
            |state, i| {
                state.seen += 1;
                i
            },
        );
        assert_eq!(*totals.lock().unwrap(), 50);
    }

    #[test]
    fn four_workers_overlap_blocking_work_at_least_2x() {
        // The wall-clock half of the acceptance contract, phrased so it
        // holds even on a single-core host: per-item *latency* (sleep)
        // overlaps across workers exactly like per-item CPU work overlaps
        // across cores. 8 items × 20ms = 160ms serial; 4 workers need two
        // waves ≈ 40ms, so the 2x assertion has ~80ms of slack. The
        // parallel side takes the best of three attempts so a loaded CI
        // runner's wakeup-latency spikes don't flake an unrelated build
        // (the serial side only sums the same spikes, which can never make
        // it beat an honest parallel run).
        let item = std::time::Duration::from_millis(20);
        let timed = |threads: usize| {
            let t0 = std::time::Instant::now();
            let out = run_indexed(
                8,
                threads,
                || (),
                |(), i| {
                    std::thread::sleep(item);
                    i
                },
            );
            assert_eq!(out, (0..8).collect::<Vec<_>>());
            t0.elapsed()
        };
        let serial = timed(1);
        let parallel = (0..3).map(|_| timed(4)).min().expect("three attempts");
        assert!(
            parallel * 2 < serial,
            "4 workers gave {parallel:?} vs serial {serial:?} — expected ≥2x overlap"
        );
    }

    #[test]
    fn zero_threads_and_empty_input_degrade_gracefully() {
        let got = run_indexed(4, 0, || (), |(), i| i);
        assert_eq!(got, vec![0, 1, 2, 3]);
        let empty: Vec<usize> = run_indexed(0, 8, || (), |(), i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn work_pool_batches_come_back_in_index_order() {
        let pool = WorkPool::new(4);
        assert_eq!(pool.threads(), 4);
        for _ in 0..3 {
            let got = pool.run_batch(97, |i| {
                // Skew completion order away from index order.
                std::thread::sleep(std::time::Duration::from_micros(97 - i as u64));
                (i as u64) * (i as u64)
            });
            let expected: Vec<Option<u64>> = (0..97u64).map(|i| Some(i * i)).collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn work_pool_serves_concurrent_submitters_without_loss() {
        // 6 submitters × 40 items over 3 workers: every batch must get all
        // of its own results back, in its own index order, even though all
        // jobs interleave on the same queue.
        let pool = Arc::new(WorkPool::new(3));
        let mut handles = Vec::new();
        for tag in 0..6u64 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let got = pool.run_batch(40, move |i| tag * 1000 + i as u64);
                let expected: Vec<Option<u64>> = (0..40u64).map(|i| Some(tag * 1000 + i)).collect();
                assert_eq!(got, expected, "batch {tag}");
            }));
        }
        for h in handles {
            h.join().expect("submitter");
        }
    }

    #[test]
    fn work_pool_confines_a_panicking_job_to_its_slot() {
        let pool = WorkPool::new(2);
        let got = pool.run_batch(10, |i| {
            assert_ne!(i, 7, "cell 7 exploded");
            i
        });
        for (i, slot) in got.iter().enumerate() {
            if i == 7 {
                assert!(slot.is_none(), "panicked slot must be None");
            } else {
                assert_eq!(*slot, Some(i));
            }
        }
        // The pool survives: the same workers complete a follow-up batch.
        let next = pool.run_batch(4, |i| i * 2);
        assert_eq!(next, vec![Some(0), Some(2), Some(4), Some(6)]);
    }

    #[test]
    fn work_pool_empty_batch_and_drop_are_clean() {
        let pool = WorkPool::new(0); // clamped to 1 worker
        assert_eq!(pool.threads(), 1);
        let empty: Vec<Option<usize>> = pool.run_batch(0, |i| i);
        assert!(empty.is_empty());
        drop(pool); // join must not hang
    }
}
