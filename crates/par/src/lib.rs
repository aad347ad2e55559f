//! Deterministic parallelism for the co-design pipeline, on scoped
//! threads.
//!
//! The evaluation engine fans out at three independent levels. Per-app
//! synthesis maps over the applications; an exhaustive sweep opens
//! **one** region of lanes (a [`par_map`] over lane slots), in which
//! every lane claims rank blocks from a shared counter and enumerates,
//! filters, evaluates and reduces them itself, so a sweep of millions
//! of schedules costs one region, not one per batch; multistart
//! searches run one thread per start. This crate provides the
//! primitives they share: [`par_map`], an order-preserving parallel map
//! over a slice, and its fallible form [`try_par_map`].
//!
//! # Lanes
//!
//! A region with a budget of `N` lanes spawns `N - 1` scoped threads
//! (`std::thread::scope`) and runs the last lane on the calling thread;
//! the lanes claim items from one atomic cursor, and the call returns
//! once every lane has joined. Regions are few and coarse (one per
//! sweep, one per schedule evaluation's per-app fan-out), so the spawn
//! cost is paid a handful of times per run, not per item. The purely
//! sequential configuration (`CACS_THREADS=1`, [`sequential`], or a
//! nested region) spawns no threads at all.
//!
//! # Determinism contract
//!
//! `par_map(items, f)` returns results in **item order** regardless of
//! which thread computed what, so any caller whose `f` is a pure
//! function of `(index, item)` produces bit-identical output to the
//! sequential loop it replaced, at any thread count. All parallel call
//! sites in this workspace are structured that way (the exhaustive
//! sweep's lanes merge their partial reports in rank order, per-app
//! synthesis is a pure function of the app, etc.).
//!
//! # Knobs
//!
//! * `CACS_THREADS=N` — cap the lanes of a region (default: available
//!   parallelism), re-read at every parallel region. `CACS_THREADS=1`
//!   forces every parallel region sequential, which is the recommended
//!   setting when bisecting a numerical difference or profiling
//!   single-core behaviour.
//! * [`sequential`] — scoped version of the same: forces every
//!   `par_map` inside the closure to run inline on the calling thread.
//!
//! # Nesting
//!
//! Parallel regions do not nest: a `par_map` issued from inside a lane
//! of another `par_map` (spawned or the caller's own) runs inline on
//! that lane. The outermost fan-out (the widest, most profitable one —
//! e.g. the exhaustive schedule sweep) gets the threads; inner levels
//! (per-app synthesis) parallelise only when they are the outermost
//! active region. This bounds the concurrency of one region at
//! `thread_budget()` no matter how deeply the pipeline composes.
//!
//! # Panics
//!
//! A panic raised by `f` ends only its own lane; the other lanes drain
//! the remaining items and join, then the payload is re-raised on the
//! calling thread. When several lanes panic, the calling thread's own
//! panic is the one re-raised, otherwise the first spawned lane's.
//! Nothing outlives the region, so later regions start clean.

#![forbid(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

thread_local! {
    /// Set while the current thread is inside a parallel region (a
    /// spawned lane, a caller running its own lane, or a caller that
    /// opted into [`sequential`]).
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

/// The thread budget: the most lanes one parallel region runs on.
///
/// Reads `CACS_THREADS` (`0` is treated as 1; a non-numeric value is
/// ignored); falls back to [`std::thread::available_parallelism`].
/// The variable is read on every call, so a change at run time takes
/// effect at the next region. The fallback is read once per process: it
/// queries the cgroup files, microseconds per call.
pub fn thread_budget() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let fallback =
        || *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
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
///
/// The previous state is restored when `f` returns or unwinds, so a
/// panic caught further up leaves the thread's later regions parallel.
pub fn sequential<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_PARALLEL_REGION.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(IN_PARALLEL_REGION.with(|flag| flag.replace(true)));
    f()
}

/// Order-preserving parallel map: returns `f(i, &items[i])` for every
/// `i`, in index order.
///
/// Work is distributed dynamically (an atomic cursor, one item per
/// claim) across at most `min(thread_budget(), items.len())` lanes:
/// scoped threads plus the calling thread. Falls back to a plain
/// sequential loop when the budget is 1, the input has fewer than 2
/// items, or the caller is already inside a parallel region (see the
/// crate docs on nesting). Per-item dispatch suits expensive items
/// (full schedule evaluations, sweep lanes).
///
/// # Panics
///
/// Propagates a panic raised by `f` (every lane joins first, and the
/// payload surfaces on the calling thread).
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    // A nested region runs inline whatever the budget, so it does not
    // ask for one.
    let lanes = if in_parallel_region() {
        1
    } else {
        thread_budget().min(items.len())
    };
    if lanes <= 1 {
        cacs_obs::metrics::PAR_INLINE_BATCHES.incr();
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    cacs_obs::metrics::PAR_POOL_BATCHES.incr();
    cacs_obs::metrics::PAR_BATCH_ITEMS.record(items.len() as u64);

    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> =
        Mutex::new(std::iter::repeat_with(|| None).take(items.len()).collect());
    // One lane: claim items until the cursor runs past the end, keeping
    // the results locally, then scatter them into their slots under one
    // lock (no lane holds the lock while `f` runs, so it cannot poison).
    let lane = || {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                break;
            };
            local.push((i, f(i, item)));
        }
        let mut slots = sync::lock_recover(&slots);
        for (i, r) in local {
            slots[i] = Some(r);
        }
    };
    if let Some(payload) = run_lanes(lanes, &lane) {
        resume_unwind(payload);
    }
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("the cursor hands every index to exactly one lane"))
        .collect()
}

/// Runs `lane` on `lanes - 1` scoped threads plus the calling thread,
/// joins them all, and returns the first panic payload: the calling
/// thread's own, else the first spawned lane's. Not generic, so the
/// thread machinery is compiled once, not once per [`par_map`] type.
fn run_lanes(lanes: usize, lane: &(dyn Fn() + Sync)) -> Option<Box<dyn Any + Send>> {
    let timed_lane = || {
        let _t = cacs_obs::time(&cacs_obs::metrics::PAR_TASK_NS);
        lane();
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..lanes)
            .map(|_| {
                scope.spawn(|| {
                    IN_PARALLEL_REGION.with(|flag| flag.set(true));
                    timed_lane();
                })
            })
            .collect();
        let mut panic = sequential(|| catch_unwind(AssertUnwindSafe(&timed_lane))).err();
        for handle in spawned {
            if let Err(payload) = handle.join() {
                panic.get_or_insert(payload);
            }
        }
        panic
    })
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
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn regions_stay_within_the_budget_and_ordered() {
        // One region never runs on more threads than the budget allows
        // (its spawned lanes plus the caller).
        let threads = Mutex::new(std::collections::HashSet::new());
        let items: Vec<u32> = (0..512).collect();
        par_map(&items, |_, _| {
            sync::lock_recover(&threads).insert(std::thread::current().id());
        });
        let used = sync::lock_recover(&threads).len();
        assert!(
            (1..=thread_budget()).contains(&used),
            "{used} threads for a budget of {}",
            thread_budget()
        );
        // Thousands of small back-to-back regions each join cleanly and
        // return their items in order.
        let items: Vec<u32> = (0..64).collect();
        for round in 0..2000u32 {
            let out = par_map(&items, |_, &x| x ^ round);
            assert!(out.iter().zip(&items).all(|(&o, &x)| o == x ^ round));
        }
    }

    #[test]
    fn nested_regions_run_inline() {
        let items: Vec<usize> = (0..8).collect();
        let saw_nested_parallel = AtomicUsize::new(0);
        // With two or more lanes, items 0 and 1 meet at a barrier, so
        // two different lanes run them and at least one is spawned.
        let parallel = thread_budget() > 1;
        let meet = std::sync::Barrier::new(2);
        par_map(&items, |i, _| {
            if parallel && i < 2 {
                meet.wait();
            }
            if in_parallel_region() {
                // A nested par_map must not spawn: it runs inline.
                let inner = par_map(&items, |i, _| i);
                assert_eq!(inner.len(), items.len());
            } else {
                saw_nested_parallel.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Either the budget was 1 (everything inline, flag never set) or
        // every lane (spawned threads and the caller's own) saw the flag.
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
    fn sequential_restores_the_flag_when_its_closure_panics() {
        let caught = catch_unwind(|| sequential(|| panic!("inside sequential")));
        assert!(caught.is_err());
        assert!(
            !in_parallel_region(),
            "a caught panic must not leave the thread forced inline"
        );
        // Nested scopes restore the outer state, not `false`.
        sequential(|| {
            let inner = catch_unwind(|| sequential(|| panic!("nested")));
            assert!(inner.is_err());
            assert!(in_parallel_region());
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
    fn the_callers_own_panic_is_the_one_reraised() {
        // Every item panics, so each spawned lane dies on its first
        // claim and the caller's lane is still left items to claim.
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..64).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |_, _| {
                if std::thread::current().id() == caller {
                    panic!("caller lane");
                }
                panic!("spawned lane");
            })
        }))
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller lane"));
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
        // Later regions keep working and stay ordered.
        let out = par_map(&items, |_, &x| x + 1);
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }
}
