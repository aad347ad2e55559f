//! Deterministic parallelism for the co-design pipeline, built on a
//! lazily-initialised **persistent worker pool**.
//!
//! The evaluation engine fans out at three independent levels. Per-app
//! synthesis and PSO particle batches map over a slice; an exhaustive
//! sweep opens **one** region of lanes (a [`par_map`] over lane slots),
//! in which every lane claims rank blocks from a shared counter and
//! enumerates, filters, evaluates and reduces them itself, so a sweep
//! of millions of schedules costs one region, not one per batch. This
//! crate provides the primitives they all share: [`par_map`], an
//! order-preserving parallel map over a slice, and [`par_map_chunked`],
//! the same primitive with coarser dispatch granularity for µs-scale
//! work items.
//!
//! # Pool lifecycle
//!
//! The first parallel region spawns the worker threads; they live for
//! the rest of the process, parked on a job queue. This replaces the
//! per-call `std::thread::scope` spawning of earlier versions: a PSO
//! run issuing thousands of small particle batches pays the
//! thread-creation cost **once**, not once per batch. The pool grows on
//! demand up to the largest `min(thread_budget(), batch)` ever
//! requested and never shrinks; [`pool_workers`] reports the current
//! size. Forced-sequential runs (`CACS_THREADS=1`, [`sequential`], or a
//! nested region) never touch the pool, so the purely sequential
//! configuration spawns no threads at all.
//!
//! Callers participate in their own batches: a `par_map` with a budget
//! of `N` runs on `N - 1` pool workers plus the calling thread, and the
//! call returns as soon as the batch's items are done — queued claims
//! that no worker picked up in time are retired without blocking on
//! unrelated jobs.
//!
//! # Determinism contract
//!
//! `par_map(items, f)` returns results in **item order** regardless of
//! which thread computed what, so any caller whose `f` is a pure
//! function of `(index, item)` produces bit-identical output to the
//! sequential loop it replaced — at any thread count, any pool size and
//! any dispatch granularity. All parallel call sites in this workspace
//! are structured that way (seeded PSO draws its random numbers
//! *before* the parallel objective batch, the exhaustive sweep's lanes
//! merge their partial reports in rank order, etc.).
//!
//! # Knobs
//!
//! * `CACS_THREADS=N` — cap worker threads (default: available
//!   parallelism), re-read at every parallel region. `CACS_THREADS=1`
//!   forces every parallel region sequential, which is the recommended
//!   setting when bisecting a numerical difference or profiling
//!   single-core behaviour.
//! * [`sequential`] — scoped version of the same: forces every
//!   `par_map` inside the closure to run inline on the calling thread.
//!
//! # Nesting
//!
//! Parallel regions do not nest: a `par_map` issued from inside a
//! worker of another `par_map` runs inline on that worker. The
//! outermost fan-out (the widest, most profitable one — e.g. the
//! exhaustive schedule sweep) gets the threads; inner levels (per-app
//! synthesis, PSO particles) parallelise only when they are the
//! outermost active region. This bounds the concurrency of one region
//! at `thread_budget()` no matter how deeply the pipeline composes.
//!
//! # Panics
//!
//! A panic raised by `f` is caught on the worker, the batch is drained,
//! and the payload is re-raised on the calling thread — the pool
//! itself survives and later regions keep working.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

thread_local! {
    /// Set while the current thread is inside a parallel region (a pool
    /// worker, a caller participating in its own batch, or a caller
    /// that opted into [`sequential`]).
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Poison-tolerant synchronisation shared by the whole workspace.
pub mod sync {
    use std::sync::{Mutex, MutexGuard};

    /// Recovers a possibly poisoned mutex.
    ///
    /// Every critical section in this workspace leaves its guarded
    /// state consistent (each mutation completes before the lock
    /// drops), so poisoning carries no information here: it only means
    /// *some* thread panicked while holding the guard — typically
    /// cleanup running during the unwind of a panicked evaluator.
    /// Propagating the poison would abort every unrelated search
    /// sharing the structure; recovering keeps them running while the
    /// panicking search alone dies.
    ///
    /// This is the one blessed way to take a lock in determinism-
    /// bearing code; `cacs-lint`'s `poisoned-lock` rule rejects ad-hoc
    /// `.lock().unwrap()` / `.expect()` / inline `into_inner` recovery
    /// everywhere else.
    pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        // cacs-lint: allow(poisoned-lock, reason = "this is the lock_recover definition itself")
        mutex.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[cfg(test)]
    mod tests {
        use super::lock_recover;
        use std::sync::{Arc, Mutex};

        #[test]
        fn recovers_a_poisoned_mutex_with_state_intact() {
            let m = Arc::new(Mutex::new(7u32));
            let poisoner = Arc::clone(&m);
            std::thread::scope(|s| {
                // The join error is the panic we injected on purpose.
                let _ = s
                    .spawn(move || {
                        // cacs-lint: allow(poisoned-lock, reason = "test takes the clean lock it is about to poison")
                        let _guard = poisoner.lock().expect("first lock is clean");
                        panic!("poison the mutex");
                    })
                    .join();
            });
            assert!(m.lock().is_err(), "mutex should be poisoned");
            assert_eq!(*lock_recover(&m), 7);
            *lock_recover(&m) = 8;
            assert_eq!(*lock_recover(&m), 8);
        }

        #[test]
        fn plain_locks_pass_through() {
            let m = Mutex::new(1u32);
            *lock_recover(&m) += 1;
            assert_eq!(*lock_recover(&m), 2);
        }
    }
}

/// The worker-thread budget for parallel regions.
///
/// Reads `CACS_THREADS` (`0` is treated as 1; a non-numeric value is
/// ignored); falls back to [`std::thread::available_parallelism`].
pub fn thread_budget() -> usize {
    let fallback = || std::thread::available_parallelism().map_or(1, |n| n.get());
    match std::env::var("CACS_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .map_or_else(|_| fallback(), |n| n.max(1)),
        Err(_) => fallback(),
    }
}

/// Returns `true` when the calling thread is already inside a parallel
/// region (so a nested `par_map` would run inline).
pub fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(Cell::get)
}

/// Runs `f` with every [`par_map`] inside it forced sequential on the
/// calling thread. The debugging/bisection knob: wrap any pipeline
/// entry point to get the exact sequential execution order.
pub fn sequential<R>(f: impl FnOnce() -> R) -> R {
    IN_PARALLEL_REGION.with(|flag| {
        let was = flag.replace(true);
        let result = f();
        flag.set(was);
        result
    })
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // A poisoned lock only means some worker panicked inside `f`; the
    // payload is propagated separately, the protected state stays valid.
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Type-erased pointer to a batch's drain closure. The pointee lives on
/// the submitting caller's stack; see the safety argument on
/// [`run_on_pool`].
struct TaskPtr(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared calls from several threads are
// fine) and the submitting caller keeps it alive until the job retires,
// so sending/sharing the raw pointer across worker threads is sound.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

struct JobState {
    /// Workers currently executing the drain closure. The caller's
    /// retire path waits on exactly one condition: `running == 0`.
    running: usize,
    /// Set by the caller once the batch is complete: late claims must
    /// not touch the (about to be released) borrows.
    retired: bool,
}

/// One submitted parallel region. `task` borrows the caller's stack;
/// everything else is owned so late-arriving workers can observe
/// `retired` without touching freed memory.
struct Job {
    task: TaskPtr,
    /// Enqueue time (empty while the recorder is off) — the start of
    /// the queue-wait interval observed when a worker claims the job.
    submitted: cacs_obs::Stamp,
    state: Mutex<JobState>,
    progress: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct Pool {
    queue_tx: Sender<Arc<Job>>,
    queue_rx: Arc<Mutex<Receiver<Arc<Job>>>>,
    spawned: Mutex<usize>,
}

impl Pool {
    fn ensure_workers(&self, n: usize) {
        let mut spawned = relock(self.spawned.lock());
        while *spawned < n {
            let rx = Arc::clone(&self.queue_rx);
            std::thread::Builder::new()
                .name(format!("cacs-par-{spawned}"))
                .spawn(move || worker_loop(&rx))
                .expect("spawn cacs-par worker");
            *spawned += 1;
        }
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let (queue_tx, queue_rx) = channel();
        Pool {
            queue_tx,
            queue_rx: Arc::new(Mutex::new(queue_rx)),
            spawned: Mutex::new(0),
        }
    })
}

/// Number of persistent worker threads currently alive (0 until the
/// first parallel region runs).
pub fn pool_workers() -> usize {
    *relock(pool().spawned.lock())
}

fn worker_loop(rx: &Mutex<Receiver<Arc<Job>>>) {
    // Workers are permanently "inside a parallel region": any par_map
    // issued from within a job runs inline (see crate docs on nesting).
    IN_PARALLEL_REGION.with(|flag| flag.set(true));
    loop {
        let job = {
            let queue = relock(rx.lock());
            match queue.recv() {
                Ok(job) => job,
                // The global pool's sender is never dropped while the
                // process lives; disconnection means shutdown.
                Err(_) => return,
            }
        };
        let claimed = {
            let mut state = relock(job.state.lock());
            if state.retired {
                // A retired claim is dropped without touching `task`;
                // nobody waits on this transition.
                false
            } else {
                state.running += 1;
                true
            }
        };
        if !claimed {
            continue;
        }
        cacs_obs::metrics::PAR_QUEUE_WAIT_NS.observe_since(&job.submitted);
        cacs_obs::metrics::PAR_POOL_TASKS.incr();
        // SAFETY: `running` was incremented above, and the submitting
        // caller blocks until `running` returns to zero before the
        // stack frame `task` borrows from can unwind, so the pointee is
        // alive for the whole call.
        let task = unsafe { &*job.task.0 };
        {
            // Per-task busy time — the utilisation half of the pool
            // telemetry (queue wait above is the latency half).
            let _t = cacs_obs::time(&cacs_obs::metrics::PAR_TASK_NS);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                let mut slot = relock(job.panic.lock());
                slot.get_or_insert(payload);
            }
        }
        let mut state = relock(job.state.lock());
        state.running -= 1;
        job.progress.notify_all();
    }
}

/// Runs `task` on `extra` pool workers plus the calling thread, and
/// returns the first captured panic payload (caller's own panic takes
/// precedence) once every participant is done.
///
/// # Safety argument
///
/// `task` borrows the caller's stack frame, but is type-erased to
/// `'static` so it can sit in the persistent pool's queue. Soundness
/// rests on two invariants:
///
/// 1. this function does not return (or unwind) until `running == 0`
///    and the caller's own participation has finished, so no worker
///    holds a reference into the frame once it can be popped;
/// 2. a claim popped *after* the caller retires the job observes
///    `retired == true` under the job's lock and never dereferences
///    `task`.
fn run_on_pool(extra: usize, task: &(dyn Fn() + Sync)) -> Option<Box<dyn std::any::Any + Send>> {
    let pool = pool();
    pool.ensure_workers(extra);

    let erased: *const (dyn Fn() + Sync) = task;
    // SAFETY: only erases the pointee's lifetime; see the safety
    // argument above for why the pointee outlives every dereference.
    let erased: *const (dyn Fn() + Sync + 'static) = unsafe { std::mem::transmute(erased) };
    let job = Arc::new(Job {
        task: TaskPtr(erased),
        submitted: cacs_obs::stamp(),
        state: Mutex::new(JobState {
            running: 0,
            retired: false,
        }),
        progress: Condvar::new(),
        panic: Mutex::new(None),
    });
    for _ in 0..extra {
        pool.queue_tx
            .send(Arc::clone(&job))
            .expect("cacs-par pool queue lives for the whole process");
    }

    // The caller participates in its own batch (so a budget of N means
    // N concurrent lanes, and a batch never waits on an empty pool).
    let caller_result = IN_PARALLEL_REGION.with(|flag| {
        let was = flag.replace(true);
        let result = catch_unwind(AssertUnwindSafe(task));
        flag.set(was);
        result
    });

    // Retire the job: claims still in the queue will be dropped without
    // touching `task`, and we only wait for workers actually inside it.
    {
        let mut state = relock(job.state.lock());
        state.retired = true;
        while state.running > 0 {
            state = relock(job.progress.wait(state));
        }
    }

    match caller_result {
        Err(payload) => Some(payload),
        Ok(()) => relock(job.panic.lock()).take(),
    }
}

fn par_map_impl<T: Sync, R: Send>(
    items: &[T],
    grain: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let grain = grain.max(1);
    let chunks = items.len().div_ceil(grain);
    let workers = thread_budget().min(chunks);
    if workers <= 1 || in_parallel_region() {
        cacs_obs::metrics::PAR_INLINE_BATCHES.incr();
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    cacs_obs::metrics::PAR_POOL_BATCHES.incr();
    cacs_obs::metrics::PAR_BATCH_ITEMS.record(items.len() as u64);

    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> =
        Mutex::new(std::iter::repeat_with(|| None).take(items.len()).collect());
    let drain = || {
        // Each participant keeps a local buffer so the shared lock is
        // touched once per participant, not once per item; the buffer is
        // then scattered into the pre-sized slots by index.
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let start = cursor.fetch_add(grain, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            let end = (start + grain).min(items.len());
            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                local.push((i, f(i, item)));
            }
        }
        if !local.is_empty() {
            let mut slots = relock(slots.lock());
            for (i, r) in local {
                slots[i] = Some(r);
            }
        }
    };

    if let Some(payload) = run_on_pool(workers - 1, &drain) {
        resume_unwind(payload);
    }

    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("the cursor hands every index to exactly one claim"))
        .collect()
}

/// Order-preserving parallel map: returns `f(i, &items[i])` for every
/// `i`, in index order.
///
/// Work is distributed dynamically (an atomic cursor, one item per
/// claim) across at most `min(thread_budget(), items.len())` lanes of
/// the persistent pool. Falls back to a plain sequential loop when the
/// budget is 1, the input has fewer than 2 items, or the caller is
/// already inside a parallel region (see the crate docs on nesting).
/// Per-item dispatch suits expensive items (full schedule evaluations);
/// for µs-scale items use [`par_map_chunked`].
///
/// # Panics
///
/// Propagates a panic raised by `f` (the batch is drained, the payload
/// surfaces on the calling thread, and the pool stays usable).
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    par_map_impl(items, 1, f)
}

/// [`par_map`] with coarse dispatch: participants claim `chunk_size`
/// consecutive items per cursor step, so the per-claim overhead is
/// amortised over the chunk. Results are still returned in item order
/// and are identical to [`par_map`]'s at any chunk size — only the
/// load-balancing granularity changes.
///
/// The primitive for cheap, uniform items: feasibility predicates,
/// synthetic objectives, streaming sweep batches.
///
/// # Panics
///
/// Propagates a panic raised by `f`, like [`par_map`].
pub fn par_map_chunked<T: Sync, R: Send>(
    items: &[T],
    chunk_size: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    par_map_impl(items, chunk_size, f)
}

/// Fallible order-preserving parallel map: like [`par_map`] but stops
/// at the first error **in index order** — exactly the error a
/// sequential `?`-loop over `items` would have returned (later items
/// may still have been evaluated speculatively).
pub fn try_par_map<T: Sync, R: Send, E: Send>(
    items: &[T],
    f: impl Fn(usize, &T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    par_map(items, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_bitwise() {
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.7).collect();
        let par: Vec<f64> = par_map(&items, |_, &x| (x.sin() * x.cos()).exp());
        let seq: Vec<f64> = sequential(|| par_map(&items, |_, &x| (x.sin() * x.cos()).exp()));
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn chunked_matches_per_item_at_any_granularity() {
        let items: Vec<u64> = (0..1000).collect();
        let reference = par_map(&items, |i, &x| x * 31 + i as u64);
        for chunk in [1, 3, 7, 64, 1000, 5000] {
            let chunked = par_map_chunked(&items, chunk, |i, &x| x * 31 + i as u64);
            assert_eq!(chunked, reference, "chunk_size {chunk}");
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
        assert!(par_map_chunked(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(par_map_chunked(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn pool_persists_across_many_small_batches() {
        // The regression the pool exists for: thousands of µs-scale
        // batches must reuse the same workers, not spawn per call.
        let items: Vec<u32> = (0..64).collect();
        for round in 0..2000u32 {
            let out = par_map_chunked(&items, 8, |_, &x| x ^ round);
            assert_eq!(out.len(), items.len());
        }
        if thread_budget() > 1 {
            let after = pool_workers();
            assert!(after >= 1, "pool should have spawned workers");
            assert!(
                after <= thread_budget(),
                "pool must not exceed the budget: {after}"
            );
        }
    }

    #[test]
    fn nested_regions_run_inline() {
        let items: Vec<usize> = (0..8).collect();
        let saw_nested_parallel = AtomicUsize::new(0);
        par_map(&items, |_, _| {
            if in_parallel_region() {
                // A nested par_map must not spawn: it runs inline.
                let inner = par_map(&items, |i, _| i);
                assert_eq!(inner.len(), items.len());
            } else {
                saw_nested_parallel.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Either the budget was 1 (everything inline, flag never set) or
        // every lane (workers and the participating caller) saw the flag.
        if thread_budget() > 1 {
            assert_eq!(saw_nested_parallel.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn sequential_scope_forces_inline() {
        sequential(|| {
            assert!(in_parallel_region());
            let out = par_map(&[1, 2, 3], |_, &x| x * 2);
            assert_eq!(out, vec![2, 4, 6]);
        });
        assert!(!in_parallel_region());
    }

    #[test]
    fn try_par_map_reports_first_error_in_index_order() {
        let items: Vec<u32> = (0..64).collect();
        let r: Result<Vec<u32>, u32> =
            try_par_map(&items, |_, &x| if x % 10 == 7 { Err(x) } else { Ok(x) });
        assert_eq!(r.unwrap_err(), 7);
    }

    #[test]
    #[should_panic(expected = "worker panic propagates")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let _ = par_map(&items, |_, &x| {
            if x == 5 {
                panic!("worker panic propagates");
            }
            x
        });
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        let items: Vec<u32> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |_, &x| {
                if x == 13 {
                    panic!("poisoned batch");
                }
                x
            })
        }));
        assert!(result.is_err());
        // Later regions on the same pool keep working and stay ordered.
        let out = par_map(&items, |_, &x| x + 1);
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }
}
