//! The schedule-evaluation abstraction and the concurrent memo cache
//! every search evaluates through.

use crate::lock_recover;
use cacs_sched::Schedule;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// The objective of the schedule optimisation: the overall control
/// performance `P_all` of a schedule (paper eq. (2)), or `None` when the
/// schedule is infeasible.
///
/// Implementations distinguish two feasibility layers, mirroring the
/// paper:
///
/// * [`ScheduleEvaluator::idle_feasible`] — the cheap a-priori check of
///   the idle-time constraint (4); infeasible schedules are *excluded*
///   from the search space and not counted as evaluations;
/// * [`ScheduleEvaluator::evaluate`] — the expensive holistic controller
///   design; it may still return `None` when the settling-deadline
///   constraint (3) is violated (known "only after the control
///   performance evaluation", Section V).
pub trait ScheduleEvaluator: Sync {
    /// Number of applications the evaluator models.
    fn app_count(&self) -> usize;

    /// Cheap a-priori feasibility (idle-time constraint). Defaults to
    /// accepting everything.
    fn idle_feasible(&self, schedule: &Schedule) -> bool {
        let _ = schedule;
        true
    }

    /// Full evaluation: overall control performance (higher is better),
    /// `None` if infeasible.
    fn evaluate(&self, schedule: &Schedule) -> Option<f64>;
}

/// A [`ScheduleEvaluator`] built from closures — handy for tests and toy
/// objectives.
pub struct FnEvaluator<F, G = fn(&Schedule) -> bool>
where
    F: Fn(&Schedule) -> Option<f64> + Sync,
    G: Fn(&Schedule) -> bool + Sync,
{
    apps: usize,
    eval: F,
    idle: Option<G>,
}

impl<F> FnEvaluator<F>
where
    F: Fn(&Schedule) -> Option<f64> + Sync,
{
    /// Creates an evaluator from an objective closure (everything is
    /// idle-feasible).
    pub fn new(apps: usize, eval: F) -> Self {
        FnEvaluator {
            apps,
            eval,
            idle: None,
        }
    }
}

impl<F, G> FnEvaluator<F, G>
where
    F: Fn(&Schedule) -> Option<f64> + Sync,
    G: Fn(&Schedule) -> bool + Sync,
{
    /// Creates an evaluator with a separate idle-feasibility predicate.
    pub fn with_idle_check(apps: usize, eval: F, idle: G) -> Self {
        FnEvaluator {
            apps,
            eval,
            idle: Some(idle),
        }
    }
}

impl<F, G> std::fmt::Debug for FnEvaluator<F, G>
where
    F: Fn(&Schedule) -> Option<f64> + Sync,
    G: Fn(&Schedule) -> bool + Sync,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnEvaluator")
            .field("apps", &self.apps)
            .finish_non_exhaustive()
    }
}

impl<F, G> ScheduleEvaluator for FnEvaluator<F, G>
where
    F: Fn(&Schedule) -> Option<f64> + Sync,
    G: Fn(&Schedule) -> bool + Sync,
{
    fn app_count(&self) -> usize {
        self.apps
    }

    fn idle_feasible(&self, schedule: &Schedule) -> bool {
        match &self.idle {
            Some(g) => g(schedule),
            None => true,
        }
    }

    fn evaluate(&self, schedule: &Schedule) -> Option<f64> {
        (self.eval)(schedule)
    }
}

// ---------------------------------------------------------------------
// Slot cache: the concurrent map behind SharedEvalCache.
// ---------------------------------------------------------------------

/// One cache entry: either a completed result or a marker that some
/// thread is currently computing it.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A thread is evaluating this schedule; waiters block on the shard's
    /// condvar instead of redundantly evaluating.
    InFlight,
    /// Completed evaluation. `requested` distinguishes entries some
    /// search actually asked for from entries merely preloaded by a
    /// warm start — only the former count towards the paper's
    /// unique-evaluation cost metric.
    Ready {
        /// The evaluation result (`None` = infeasible).
        value: Option<f64>,
        /// Whether any `evaluate` call has requested this entry (as
        /// opposed to it arriving via [`SlotCache::preload`]).
        requested: bool,
    },
}

#[derive(Debug, Default)]
struct Shard {
    map: Mutex<HashMap<Vec<u32>, Slot>>,
    ready: Condvar,
}

/// Removes an in-flight marker if the evaluation panicked, so waiters
/// retry instead of blocking forever.
struct InFlightGuard<'a> {
    shard: &'a Shard,
    key: &'a [u32],
    armed: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            // This runs during the unwind of a panicked evaluation; the
            // guard drop below will poison the shard mutex, which every
            // other lock site recovers from (the map stays consistent).
            let mut map = lock_recover(&self.shard.map);
            map.remove(self.key);
            self.shard.ready.notify_all();
        }
    }
}

/// Sharded concurrent map from schedule counts to evaluation results,
/// with in-flight deduplication: when two threads race on the same key,
/// exactly one evaluates and the other waits for its result.
///
/// Poison-tolerant throughout: a panicking evaluation removes its own
/// in-flight marker (so waiters retry the key instead of hanging) and
/// the shard lock it poisons on the way out is recovered by every other
/// thread — one failed evaluation never takes unrelated searches down.
#[derive(Debug)]
struct SlotCache {
    shards: Vec<Shard>,
    /// Evaluations actually executed through [`SlotCache::get_or_evaluate`]
    /// (cache misses), excluding preloaded entries — "fresh" work.
    fresh: AtomicUsize,
}

impl SlotCache {
    fn new() -> Self {
        SlotCache {
            shards: (0..SHARED_CACHE_SHARDS).map(|_| Shard::default()).collect(),
            fresh: AtomicUsize::new(0),
        }
    }

    fn shard_for(&self, key: &[u32]) -> &Shard {
        // FNV-1a over the counts.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &m in key {
            h ^= u64::from(m);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Returns the cached value for `key`, evaluating `eval` (outside the
    /// lock) at most once across all racing threads.
    fn get_or_evaluate(&self, key: &[u32], eval: impl FnOnce() -> Option<f64>) -> Option<f64> {
        let shard = self.shard_for(key);
        {
            let mut map = lock_recover(&shard.map);
            loop {
                match map.get_mut(key) {
                    Some(Slot::Ready { value, requested }) => {
                        *requested = true;
                        cacs_obs::metrics::CACHE_HITS.incr();
                        return *value;
                    }
                    Some(Slot::InFlight) => {
                        // A panicked owner removes its marker and
                        // notifies (see InFlightGuard), so this wait
                        // wakes into the `None` arm and retries rather
                        // than hanging; its poison is recovered here.
                        map = shard.ready.wait(map).unwrap_or_else(|e| e.into_inner());
                    }
                    None => break,
                }
            }
            map.insert(key.to_vec(), Slot::InFlight);
        }

        let mut guard = InFlightGuard {
            shard,
            key,
            armed: true,
        };
        // The expensive full evaluation happens outside the lock so
        // parallel searches never serialise on the cache; the in-flight
        // marker keeps racing threads from duplicating the work.
        let value = eval();
        guard.armed = false;
        self.fresh.fetch_add(1, Ordering::Relaxed);
        cacs_obs::metrics::CACHE_MISSES.incr();

        let mut map = lock_recover(&shard.map);
        map.insert(
            key.to_vec(),
            Slot::Ready {
                value,
                requested: true,
            },
        );
        shard.ready.notify_all();
        value
    }

    /// Preloads a completed result (warm start). Existing entries win:
    /// a preload never overwrites a result some search already produced
    /// or is producing. Returns `true` if the entry was inserted.
    fn preload(&self, key: &[u32], value: Option<f64>) -> bool {
        let shard = self.shard_for(key);
        let mut map = lock_recover(&shard.map);
        if map.contains_key(key) {
            return false;
        }
        map.insert(
            key.to_vec(),
            Slot::Ready {
                value,
                requested: false,
            },
        );
        true
    }

    /// Evaluations actually executed (cache misses); preloaded entries
    /// and cache hits are excluded.
    fn fresh_evaluations(&self) -> usize {
        self.fresh.load(Ordering::Relaxed)
    }

    /// Number of completed entries some `evaluate` call requested —
    /// preloaded-but-never-requested entries are excluded, so the count
    /// keeps its meaning as "distinct schedules this cache's searches
    /// would have had to evaluate".
    fn completed(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                lock_recover(&s.map)
                    .values()
                    .filter(|slot| {
                        matches!(
                            slot,
                            Slot::Ready {
                                requested: true,
                                ..
                            }
                        )
                    })
                    .count()
            })
            .sum()
    }

    /// All completed entries (including preloaded ones) in deterministic
    /// (lexicographically sorted) order.
    fn entries_sorted(&self) -> Vec<(Vec<u32>, Option<f64>)> {
        let mut entries: Vec<(Vec<u32>, Option<f64>)> = Vec::new();
        for shard in &self.shards {
            let map = lock_recover(&shard.map);
            entries.extend(map.iter().filter_map(|(k, slot)| match slot {
                Slot::Ready { value, .. } => Some((k.clone(), *value)),
                Slot::InFlight => None,
            }));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

// ---------------------------------------------------------------------
// SharedEvalCache: the memo cache every search evaluates through.
// ---------------------------------------------------------------------

/// How many shards the cache uses. Schedules hash cheaply and a full
/// evaluation costs tens of milliseconds of CPU (about 57 ms each on
/// `paper-fast`: 4.4 s over 77), so a small fixed shard count is plenty
/// to keep lock contention negligible.
const SHARED_CACHE_SHARDS: usize = 16;

/// Persistence hook invoked (outside the cache lock, inside the
/// evaluation slot) for every *fresh* evaluation — the write-through
/// half of a persistent store attachment. Cache hits and warm-started
/// entries never re-fire it.
type WriteThrough<'a> = Box<dyn Fn(&Schedule, Option<f64>) + Sync + 'a>;

/// The concurrent, sharded memo cache around a [`ScheduleEvaluator`]:
/// every search evaluates through one — each start of
/// [`crate::run_multistart`] through its own [`CacheSession`] of the
/// run's cache.
///
/// Repeated requests for a schedule are served from the cache, and
/// concurrent requests for the same uncached schedule are deduplicated:
/// one thread evaluates (outside the lock) while the others wait for
/// its result. So distinct searches probing the same schedule pay for
/// it **once** globally, and the cache's
/// [`SharedEvalCache::unique_evaluations`] is the paper's
/// Section-V cost metric (9 resp. 18 of 76 schedules). Per-search
/// sessions keep that metric exact inside a multistart run: a session
/// counts the distinct schedules *it* requested — the number that
/// search would have evaluated had it run alone.
///
/// # Example
///
/// ```
/// use cacs_search::{FnEvaluator, ScheduleEvaluator, SharedEvalCache};
/// use cacs_sched::Schedule;
///
/// let inner = FnEvaluator::new(1, |s: &Schedule| Some(f64::from(s.counts()[0])));
/// let shared = SharedEvalCache::new(&inner);
/// let (a, b) = (shared.session(), shared.session());
/// let s = Schedule::new(vec![3]).unwrap();
/// a.evaluate(&s);
/// b.evaluate(&s); // cache hit: no second inner evaluation …
/// assert_eq!(shared.unique_evaluations(), 1);
/// // … but each session still reports its own cost.
/// assert_eq!(a.unique_evaluations(), 1);
/// assert_eq!(b.unique_evaluations(), 1);
/// ```
pub struct SharedEvalCache<'a, E: ScheduleEvaluator + ?Sized> {
    inner: &'a E,
    cache: SlotCache,
    write_through: Option<WriteThrough<'a>>,
    /// Entries inserted by [`SharedEvalCache::warm_start`].
    warm_started: usize,
}

impl<E: ScheduleEvaluator + ?Sized> std::fmt::Debug for SharedEvalCache<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedEvalCache")
            .field("cache", &self.cache)
            .field("write_through", &self.write_through.is_some())
            .field("warm_started", &self.warm_started)
            .finish_non_exhaustive()
    }
}

impl<'a, E: ScheduleEvaluator + ?Sized> SharedEvalCache<'a, E> {
    /// Wraps an evaluator in a shared concurrent cache.
    pub fn new(inner: &'a E) -> Self {
        SharedEvalCache {
            inner,
            cache: SlotCache::new(),
            write_through: None,
            warm_started: 0,
        }
    }

    /// Preloads completed results (e.g. from a persistent
    /// [`crate::EvalStore`]) so matching requests across every session
    /// are served without a fresh evaluation — the warm-start half of a
    /// resumed multistart run. Existing entries win over preloads.
    /// Returns the number of entries inserted.
    ///
    /// Because a stored evaluation is a pure function of `(problem,
    /// schedule)`, serving it from the preload cannot change any
    /// search's trajectory or report — only the number of fresh
    /// evaluations ([`SharedEvalCache::fresh_evaluations`]) drops.
    pub fn warm_start<I>(&mut self, entries: I) -> usize
    where
        I: IntoIterator<Item = (Schedule, Option<f64>)>,
    {
        let inserted = entries
            .into_iter()
            .filter(|(s, v)| self.cache.preload(s.counts(), *v))
            .count();
        self.warm_started += inserted;
        inserted
    }

    /// Attaches a persistence hook fired for every fresh evaluation
    /// (before the result is published to waiters), e.g.
    /// [`crate::EvalStore::record`]. Cache hits and warm-started
    /// entries never re-fire it.
    pub fn set_write_through(&mut self, hook: impl Fn(&Schedule, Option<f64>) + Sync + 'a) {
        self.write_through = Some(Box::new(hook));
    }

    /// Entries inserted by [`SharedEvalCache::warm_start`].
    pub fn warm_started(&self) -> usize {
        self.warm_started
    }

    /// Evaluations actually executed through this cache — requests
    /// served from warm-started entries are excluded. On a resumed run
    /// this is the cost actually paid; the resume contract is that it
    /// is strictly smaller than an uninterrupted run's.
    pub fn fresh_evaluations(&self) -> usize {
        self.cache.fresh_evaluations()
    }

    /// Total distinct schedules *requested* across all sessions
    /// (warm-started entries count once requested, like any other hit).
    pub fn unique_evaluations(&self) -> usize {
        self.cache.completed()
    }

    /// Opens a per-search view with its own unique-evaluation counter.
    pub fn session(&self) -> CacheSession<'_, 'a, E> {
        CacheSession {
            shared: self,
            requested: Mutex::new(HashSet::new()),
        }
    }

    /// All cached results, in deterministic (lexicographic) order of the
    /// schedule counts.
    pub fn snapshot(&self) -> Vec<(Schedule, Option<f64>)> {
        self.cache
            .entries_sorted()
            .into_iter()
            .map(|(counts, v)| (Schedule::new(counts).expect("cached key valid"), v))
            .collect()
    }
}

impl<E: ScheduleEvaluator + ?Sized> ScheduleEvaluator for SharedEvalCache<'_, E> {
    fn app_count(&self) -> usize {
        self.inner.app_count()
    }

    fn idle_feasible(&self, schedule: &Schedule) -> bool {
        self.inner.idle_feasible(schedule)
    }

    fn evaluate(&self, schedule: &Schedule) -> Option<f64> {
        self.cache.get_or_evaluate(schedule.counts(), || {
            let value = self.inner.evaluate(schedule);
            // Persist before the result is published: a process killed
            // right after this call can already serve the evaluation
            // from the store on resume.
            if let Some(hook) = &self.write_through {
                hook(schedule, value);
            }
            value
        })
    }
}

/// One search's view of a [`SharedEvalCache`]: evaluations are served
/// from (and populate) the shared cache, while
/// [`CacheSession::unique_evaluations`] counts only the distinct
/// schedules **this** session requested — the paper's per-search cost
/// metric.
#[derive(Debug)]
pub struct CacheSession<'c, 'a, E: ScheduleEvaluator + ?Sized> {
    shared: &'c SharedEvalCache<'a, E>,
    requested: Mutex<HashSet<Vec<u32>>>,
}

impl<E: ScheduleEvaluator + ?Sized> ScheduleEvaluator for CacheSession<'_, '_, E> {
    fn app_count(&self) -> usize {
        self.shared.app_count()
    }

    fn idle_feasible(&self, schedule: &Schedule) -> bool {
        self.shared.idle_feasible(schedule)
    }

    fn evaluate(&self, schedule: &Schedule) -> Option<f64> {
        lock_recover(&self.requested).insert(schedule.counts().to_vec());
        self.shared.evaluate(schedule)
    }
}

impl<E: ScheduleEvaluator + ?Sized> CacheSession<'_, '_, E> {
    /// Number of distinct schedules this session requested — the
    /// search's own Section-V cost, whether the cache served them or
    /// not.
    pub fn unique_evaluations(&self) -> usize {
        lock_recover(&self.requested).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountingEvaluator {
        calls: AtomicUsize,
    }

    impl ScheduleEvaluator for CountingEvaluator {
        fn app_count(&self) -> usize {
            2
        }
        fn evaluate(&self, schedule: &Schedule) -> Option<f64> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let s: u32 = schedule.counts().iter().sum();
            if s > 5 {
                None
            } else {
                Some(f64::from(s))
            }
        }
    }

    #[test]
    fn memo_caches_and_counts() {
        let inner = CountingEvaluator {
            calls: AtomicUsize::new(0),
        };
        let memo = SharedEvalCache::new(&inner);
        let a = Schedule::new(vec![1, 2]).unwrap();
        let b = Schedule::new(vec![2, 2]).unwrap();
        assert_eq!(memo.evaluate(&a), Some(3.0));
        assert_eq!(memo.evaluate(&a), Some(3.0));
        assert_eq!(memo.evaluate(&b), Some(4.0));
        assert_eq!(inner.calls.load(Ordering::SeqCst), 2);
        assert_eq!(memo.unique_evaluations(), 2);
    }

    #[test]
    fn memo_caches_infeasible_results_too() {
        let inner = CountingEvaluator {
            calls: AtomicUsize::new(0),
        };
        let memo = SharedEvalCache::new(&inner);
        let bad = Schedule::new(vec![3, 3]).unwrap();
        assert_eq!(memo.evaluate(&bad), None);
        assert_eq!(memo.evaluate(&bad), None);
        assert_eq!(inner.calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fn_evaluator_with_idle_check() {
        let e = FnEvaluator::with_idle_check(
            2,
            |_s: &Schedule| Some(0.0),
            |s: &Schedule| s.counts()[0] <= 2,
        );
        assert!(e.idle_feasible(&Schedule::new(vec![2, 9]).unwrap()));
        assert!(!e.idle_feasible(&Schedule::new(vec![3, 1]).unwrap()));
        assert_eq!(e.app_count(), 2);
    }

    #[test]
    fn snapshot_returns_cached_entries_sorted() {
        let inner = CountingEvaluator {
            calls: AtomicUsize::new(0),
        };
        let memo = SharedEvalCache::new(&inner);
        memo.evaluate(&Schedule::new(vec![4, 4]).unwrap());
        memo.evaluate(&Schedule::new(vec![1, 1]).unwrap());
        memo.evaluate(&Schedule::new(vec![1, 3]).unwrap());
        let snap = memo.snapshot();
        let keys: Vec<&[u32]> = snap.iter().map(|(s, _)| s.counts()).collect();
        assert_eq!(keys, vec![&[1, 1][..], &[1, 3][..], &[4, 4][..]]);
        assert_eq!(snap[0].1, Some(2.0));
        assert!(snap[2].1.is_none());
    }

    #[test]
    fn racing_threads_evaluate_each_schedule_once() {
        // A slow evaluator makes the race window wide: all threads ask
        // for the same schedule; exactly one inner call must happen.
        struct Slow {
            calls: AtomicUsize,
        }
        impl ScheduleEvaluator for Slow {
            fn app_count(&self) -> usize {
                1
            }
            fn evaluate(&self, s: &Schedule) -> Option<f64> {
                self.calls.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(20));
                Some(f64::from(s.counts()[0]))
            }
        }
        let inner = Slow {
            calls: AtomicUsize::new(0),
        };
        let memo = SharedEvalCache::new(&inner);
        let s = Schedule::new(vec![3]).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| assert_eq!(memo.evaluate(&s), Some(3.0)));
            }
        });
        assert_eq!(inner.calls.load(Ordering::SeqCst), 1);
        assert_eq!(memo.unique_evaluations(), 1);
    }

    #[test]
    fn shared_cache_sessions_count_their_own_requests() {
        let inner = CountingEvaluator {
            calls: AtomicUsize::new(0),
        };
        let shared = SharedEvalCache::new(&inner);
        let first = shared.session();
        let second = shared.session();
        let a = Schedule::new(vec![1, 2]).unwrap();
        let b = Schedule::new(vec![2, 2]).unwrap();

        assert_eq!(first.evaluate(&a), Some(3.0));
        assert_eq!(second.evaluate(&a), Some(3.0)); // shared hit
        assert_eq!(second.evaluate(&b), Some(4.0));

        // Globally two inner evaluations …
        assert_eq!(inner.calls.load(Ordering::SeqCst), 2);
        assert_eq!(shared.unique_evaluations(), 2);
        // … but the sessions report the paper's per-search costs.
        assert_eq!(first.unique_evaluations(), 1);
        assert_eq!(second.unique_evaluations(), 2);
    }

    #[test]
    fn shared_cache_snapshot_sorted() {
        let inner = CountingEvaluator {
            calls: AtomicUsize::new(0),
        };
        let shared = SharedEvalCache::new(&inner);
        let session = shared.session();
        for counts in [vec![2, 3], vec![1, 1], vec![2, 1]] {
            session.evaluate(&Schedule::new(counts).unwrap());
        }
        let keys: Vec<Vec<u32>> = shared
            .snapshot()
            .into_iter()
            .map(|(s, _)| s.counts().to_vec())
            .collect();
        assert_eq!(keys, vec![vec![1, 1], vec![2, 1], vec![2, 3]]);
    }

    #[test]
    fn poisoned_shard_recovers_for_unrelated_keys() {
        // Regression: a panicking evaluation poisons its shard mutex
        // (the in-flight cleanup runs during the unwind). The old
        // `.expect("cache shard poisoned")` then aborted every later
        // cache access; recovery must keep unrelated keys usable.
        struct PanicOn {
            bad: Vec<u32>,
        }
        impl ScheduleEvaluator for PanicOn {
            fn app_count(&self) -> usize {
                1
            }
            fn evaluate(&self, s: &Schedule) -> Option<f64> {
                assert_ne!(s.counts(), &self.bad[..], "deliberate evaluator panic");
                Some(f64::from(s.counts()[0]))
            }
        }
        let inner = PanicOn { bad: vec![3] };
        let memo = SharedEvalCache::new(&inner);
        // The unrelated keys share the bad key's shard, so the panic
        // poisons the very shard they live in.
        for key in [[19], [35]] {
            assert!(std::ptr::eq(
                memo.cache.shard_for(&[3]),
                memo.cache.shard_for(&key)
            ));
        }
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.evaluate(&Schedule::new(vec![3]).unwrap())
        }));
        assert!(poisoned.is_err());
        // Unrelated keys still evaluate, counters and snapshots still
        // work, on the poisoned shard.
        assert_eq!(memo.evaluate(&Schedule::new(vec![19]).unwrap()), Some(19.0));
        assert_eq!(memo.evaluate(&Schedule::new(vec![35]).unwrap()), Some(35.0));
        assert_eq!(memo.unique_evaluations(), 2);
        assert_eq!(memo.snapshot().len(), 2);
    }

    #[test]
    fn waiters_retry_after_the_in_flight_owner_panics() {
        // One thread starts evaluating and panics mid-flight while
        // several waiters block on the same key; the waiters must wake,
        // retry, and succeed — not hang or die of poison.
        struct PanicFirst {
            calls: AtomicUsize,
        }
        impl ScheduleEvaluator for PanicFirst {
            fn app_count(&self) -> usize {
                1
            }
            fn evaluate(&self, s: &Schedule) -> Option<f64> {
                if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    // Give the waiters time to queue up on the condvar.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    panic!("first evaluation fails");
                }
                Some(f64::from(s.counts()[0]))
            }
        }
        let inner = PanicFirst {
            calls: AtomicUsize::new(0),
        };
        let shared = SharedEvalCache::new(&inner);
        let s = Schedule::new(vec![4]).unwrap();
        let ok = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let session = shared.session();
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        session.evaluate(&s)
                    }));
                    if result.is_ok_and(|v| v == Some(4.0)) {
                        ok.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        // Exactly one thread ate the panic; the other three recovered.
        assert_eq!(ok.load(Ordering::SeqCst), 3);
        assert_eq!(shared.unique_evaluations(), 1);
    }

    #[test]
    fn warm_start_serves_hits_without_fresh_evaluations() {
        let inner = CountingEvaluator {
            calls: AtomicUsize::new(0),
        };
        let mut shared = SharedEvalCache::new(&inner);
        let a = Schedule::new(vec![1, 2]).unwrap();
        let b = Schedule::new(vec![2, 2]).unwrap();
        let inserted = shared.warm_start([(a.clone(), Some(99.0)), (b.clone(), None)]);
        assert_eq!(inserted, 2);
        assert_eq!(shared.warm_started(), 2);
        // Preloaded entries are not "requested" yet.
        assert_eq!(shared.unique_evaluations(), 0);

        let session = shared.session();
        assert_eq!(session.evaluate(&a), Some(99.0)); // stored value, not 3.0
        assert_eq!(session.evaluate(&b), None);
        let c = Schedule::new(vec![3, 1]).unwrap();
        assert_eq!(session.evaluate(&c), Some(4.0)); // fresh

        assert_eq!(inner.calls.load(Ordering::SeqCst), 1);
        assert_eq!(shared.fresh_evaluations(), 1);
        // All three were requested; the session's cost metric is exact.
        assert_eq!(shared.unique_evaluations(), 3);
        assert_eq!(session.unique_evaluations(), 3);
    }

    #[test]
    fn warm_start_never_overwrites_existing_entries() {
        let inner = CountingEvaluator {
            calls: AtomicUsize::new(0),
        };
        let mut shared = SharedEvalCache::new(&inner);
        let a = Schedule::new(vec![1, 2]).unwrap();
        shared.session().evaluate(&a); // fresh: 3.0
        assert_eq!(shared.warm_start([(a.clone(), Some(-1.0))]), 0);
        assert_eq!(shared.session().evaluate(&a), Some(3.0));
    }

    #[test]
    fn write_through_fires_once_per_fresh_evaluation() {
        let inner = CountingEvaluator {
            calls: AtomicUsize::new(0),
        };
        let written: Mutex<Vec<(Vec<u32>, Option<f64>)>> = Mutex::new(Vec::new());
        let mut shared = SharedEvalCache::new(&inner);
        let a = Schedule::new(vec![1, 2]).unwrap();
        shared.warm_start([(a.clone(), Some(3.0))]);
        shared.set_write_through(|s, v| lock_recover(&written).push((s.counts().to_vec(), v)));

        let session = shared.session();
        session.evaluate(&a); // warm hit: no write
        let b = Schedule::new(vec![2, 2]).unwrap();
        session.evaluate(&b); // fresh: written
        session.evaluate(&b); // cache hit: no second write
        drop(session);
        drop(shared);

        assert_eq!(written.into_inner().unwrap(), vec![(vec![2, 2], Some(4.0))]);
    }

    #[test]
    fn panicking_evaluation_releases_in_flight_marker() {
        struct Fragile {
            calls: AtomicUsize,
        }
        impl ScheduleEvaluator for Fragile {
            fn app_count(&self) -> usize {
                1
            }
            fn evaluate(&self, s: &Schedule) -> Option<f64> {
                if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first evaluation fails");
                }
                Some(f64::from(s.counts()[0]))
            }
        }
        let inner = Fragile {
            calls: AtomicUsize::new(0),
        };
        let memo = SharedEvalCache::new(&inner);
        let s = Schedule::new(vec![2]).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| memo.evaluate(&s)));
        assert!(panicked.is_err());
        // The key is free again: a retry evaluates (no deadlock) and
        // succeeds.
        assert_eq!(memo.evaluate(&s), Some(2.0));
    }
}
