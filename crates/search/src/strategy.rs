//! The unified strategy engine: **one** multistart driver for every
//! search strategy in this crate.
//!
//! The paper's Section-V comparison pits the hybrid search against
//! simulated annealing, a genetic algorithm and tabu search. Before
//! this module existed, only the hybrid search owned the expensive
//! plumbing that makes such a comparison honest at scale — the shared
//! concurrent evaluation cache, the persistent [`EvalStore`]
//! warm-start + write-through, parallel multistart with typed panic
//! surfacing. [`run_multistart`] hoists all of that out of the hybrid
//! module so every strategy inherits it:
//!
//! * **One cache, per-search accounting** — all starts share a
//!   [`SharedEvalCache`]; each report's `evaluations` still counts the
//!   distinct schedules *that* search requested (the paper's Section-V
//!   cost metric), and warm-started store entries never count toward
//!   any metric until a search actually requests them.
//! * **Store-backed resume for free** — with an [`EvalStore`] attached,
//!   every fresh evaluation is journalled before its result is
//!   published, so a killed run of *any* strategy resumes bit-identical
//!   with strictly fewer fresh evaluations.
//! * **Deterministic seeding** — randomised strategies (annealing, the
//!   GA) draw their per-start RNG seed from
//!   [`derive_start_seed`]`(config.seed, start_index)`, a pure
//!   function, so a multistart run is reproducible at any thread count
//!   and across kill→resume cycles.
//! * **Typed panic surfacing** — a panicking evaluator kills only its
//!   own search ([`SearchError::SearchPanicked`]); siblings finish and
//!   their work is already durable.
//! * **One preamble** — the strategy's config, the evaluator's app
//!   count and every start (inside the space and idle-feasible) are
//!   checked once, before any search thread is spawned or any
//!   evaluation is paid for.
//!
//! The strategy-specific logic stays in its own module
//! (`hybrid.rs` / `anneal.rs` / `genetic.rs` / `tabu.rs`) as a core
//! function over one search's [`CacheSession`]; this module only
//! checks and dispatches. The engine is the only way to run a
//! strategy: a single search is a one-start [`run_multistart`].

use crate::{
    anneal::anneal_core, genetic::genetic_core, hybrid::hybrid_search_core, tabu::tabu_core,
    AnnealConfig, CacheSession, EvalStore, GeneticConfig, HybridConfig, Result, ScheduleEvaluator,
    ScheduleSpace, SearchError, SharedEvalCache, StoreError, TabuConfig,
};
use cacs_sched::Schedule;

/// Outcome of one search run (any strategy).
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Best feasible schedule found (`None` when every evaluated schedule
    /// was infeasible).
    pub best: Option<Schedule>,
    /// Objective value at [`SearchReport::best`].
    pub best_value: f64,
    /// Distinct schedules fully evaluated by this search — the paper's
    /// cost metric.
    pub evaluations: usize,
    /// The sequence of accepted points, starting with the start schedule
    /// (for the GA: the successive generation bests).
    pub trajectory: Vec<Schedule>,
}

/// Outcome of a (possibly store-backed) multistart run: the per-start
/// reports plus the run's global evaluation accounting.
#[derive(Debug, Clone)]
pub struct MultistartOutcome {
    /// One [`SearchReport`] per start, in start order. Identical —
    /// including each report's `evaluations` count — whether or not a
    /// store warmed the run: persistence changes only what the run
    /// *paid*, never what it *found*.
    pub reports: Vec<SearchReport>,
    /// Evaluations actually executed this run (cache misses that were
    /// not served by the warm start). On a resumed run this is strictly
    /// smaller than an uninterrupted run's count whenever the store
    /// held at least one schedule this run requests.
    pub fresh_evaluations: usize,
    /// Distinct schedules requested across all starts (what an
    /// uninterrupted, storeless run would have evaluated).
    pub unique_evaluations: usize,
    /// Evaluations preloaded from the store before the run started.
    pub warm_started: usize,
}

/// Which search strategy a multistart run executes, with its
/// strategy-specific knobs.
///
/// Every variant runs through the same engine ([`run_multistart`]), so
/// caching, store-backed resume, panic surfacing and the determinism
/// contract are identical across strategies — a future strategy only
/// has to provide a core function and a variant here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyConfig {
    /// The paper's hybrid gradient search (Section IV).
    Hybrid(HybridConfig),
    /// Classical simulated annealing (seeded per start).
    Anneal(AnnealConfig),
    /// Generational genetic algorithm (seeded per start; the start
    /// schedule joins the initial population).
    Genetic(GeneticConfig),
    /// Deterministic tabu search.
    Tabu(TabuConfig),
}

impl StrategyConfig {
    /// Canonical lower-case strategy name (`hybrid` / `anneal` /
    /// `genetic` / `tabu`) — what CLIs parse and benchmarks report.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyConfig::Hybrid(_) => "hybrid",
            StrategyConfig::Anneal(_) => "anneal",
            StrategyConfig::Genetic(_) => "genetic",
            StrategyConfig::Tabu(_) => "tabu",
        }
    }

    /// Checks the strategy's knobs ([`SearchError::InvalidConfig`]).
    fn validate(&self) -> Result<()> {
        match self {
            StrategyConfig::Hybrid(config) => config.validate(),
            StrategyConfig::Anneal(config) => config.validate(),
            StrategyConfig::Genetic(config) => config.validate(),
            StrategyConfig::Tabu(config) => config.validate(),
        }
    }
}

/// Derives the RNG seed of start `start_index` from a strategy's base
/// seed — a pure splitmix64-style mix, so per-start random streams are
/// decorrelated yet fully determined by `(base, start_index)`.
///
/// The engine (not the strategy cores) owns this derivation: every
/// randomised strategy gets identical seeding semantics, and a resumed
/// run regenerates the exact random walk of the run it resumes.
pub fn derive_start_seed(base: u64, start_index: usize) -> u64 {
    let mut z = base ^ (start_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one search of `strategy` from `start` against its session of
/// the run's cache — the per-start dispatch of [`run_multistart`].
fn run_single<E: ScheduleEvaluator + ?Sized>(
    memo: &CacheSession<'_, '_, E>,
    space: &ScheduleSpace,
    start: &Schedule,
    strategy: &StrategyConfig,
    start_index: usize,
) -> SearchReport {
    match strategy {
        StrategyConfig::Hybrid(config) => hybrid_search_core(memo, space, start, config),
        StrategyConfig::Anneal(config) => anneal_core(
            memo,
            space,
            start,
            config,
            derive_start_seed(config.seed, start_index),
        ),
        StrategyConfig::Genetic(config) => genetic_core(
            memo,
            space,
            start,
            config,
            derive_start_seed(config.seed, start_index),
        ),
        StrategyConfig::Tabu(config) => tabu_core(memo, space, start, config),
    }
}

/// Runs independent searches of one strategy from several start points
/// in parallel (one scoped OS thread per start), one report per start —
/// the unified multistart driver behind every strategy in this crate.
///
/// All searches share one [`SharedEvalCache`]: a schedule probed by
/// several starts is fully evaluated **once** globally (with in-flight
/// deduplication when two searches race on the same schedule), while
/// each report's `evaluations` still counts the distinct schedules
/// *that* search requested — exactly what it would have cost on its own
/// (the numbers reported in Section V).
///
/// With a `store` attached, the cache is warm-started from every
/// evaluation the store already holds (warm entries count toward **no**
/// metric until a search requests them) and every fresh evaluation is
/// written through (append + flush) before its result is published — so
/// a run killed at *any* point leaves every completed evaluation
/// durable, and resuming reproduces the uninterrupted run's reports
/// bit-for-bit while re-paying only the evaluations that never
/// completed. This resume contract holds for **every** strategy:
/// randomised ones re-derive their per-start seeds
/// ([`derive_start_seed`]) and therefore replay the same walk.
///
/// Within each start's thread the strategy runs sequentially (the
/// cross-start fan-out already owns the thread budget); results are
/// bit-identical at any `CACS_THREADS` setting. A single search is a
/// one-start run.
///
/// # Errors
///
/// Checked before any thread is spawned or any evaluation is paid for:
///
/// * [`SearchError::InvalidConfig`] — no starts, or bad strategy knobs,
/// * [`SearchError::AppCountMismatch`] — the evaluator's application
///   count differs from the space's,
/// * [`SearchError::StartOutOfSpace`] — a start lies outside the space
///   or is idle-infeasible,
/// * [`SearchError::Store`] — the store belongs to a different space.
///
/// During or after the run:
///
/// * [`SearchError::Store`] — a write-through append failed (checked at
///   the end of the run; the store latches the first failure),
/// * [`SearchError::SearchPanicked`] — a search thread panicked
///   (typically a panicking evaluator). Sibling searches complete and
///   their evaluations are already persisted; resuming after fixing the
///   evaluator re-pays only what was lost.
///
/// # Example
///
/// The Section-V frugality claim in miniature: the hybrid search finds
/// the peak of a 36-schedule box in far fewer evaluations than the box
/// holds.
///
/// ```
/// use cacs_search::{run_multistart, FnEvaluator, HybridConfig, ScheduleSpace, StrategyConfig};
/// use cacs_sched::Schedule;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let eval = FnEvaluator::new(2, |s: &Schedule| {
///     let (a, b) = (s.counts()[0] as f64, s.counts()[1] as f64);
///     Some(-(a - 3.0).powi(2) - (b - 2.0).powi(2))
/// });
/// let space = ScheduleSpace::new(vec![6, 6])?;
/// let starts = [Schedule::new(vec![1, 1])?];
/// let strategy = StrategyConfig::Hybrid(HybridConfig::default());
/// let outcome = run_multistart(&eval, &space, &starts, &strategy, None)?;
/// let report = &outcome.reports[0];
/// assert_eq!(report.best.as_ref().unwrap().counts(), &[3, 2]);
/// // Far fewer evaluations than the 36-schedule box.
/// assert!(report.evaluations < 20);
/// # Ok(())
/// # }
/// ```
pub fn run_multistart<E: ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    space: &ScheduleSpace,
    starts: &[Schedule],
    strategy: &StrategyConfig,
    store: Option<&EvalStore>,
) -> Result<MultistartOutcome> {
    run_multistart_engine(evaluator, space, starts, strategy, store, false)
}

/// [`run_multistart`], with the starts executed **sequentially in start
/// order on the calling thread** instead of one scoped thread per
/// start: the in-order reference engine. Reports, evaluation
/// accounting and store semantics are identical to [`run_multistart`]
/// (`sequential_multistart_matches_the_parallel_engine` pins it), so
/// it also serves as the single-threaded baseline that parallel
/// speedups are measured against.
///
/// # Errors
///
/// As [`run_multistart`].
pub fn run_multistart_sequential<E: ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    space: &ScheduleSpace,
    starts: &[Schedule],
    strategy: &StrategyConfig,
    store: Option<&EvalStore>,
) -> Result<MultistartOutcome> {
    run_multistart_engine(evaluator, space, starts, strategy, store, true)
}

/// The engine behind [`run_multistart`] and
/// [`run_multistart_sequential`]: each start's position in `starts` is
/// its seed index ([`derive_start_seed`]).
fn run_multistart_engine<E: ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    space: &ScheduleSpace,
    starts: &[Schedule],
    strategy: &StrategyConfig,
    store: Option<&EvalStore>,
    sequential: bool,
) -> Result<MultistartOutcome> {
    if starts.is_empty() {
        return Err(SearchError::InvalidConfig {
            parameter: "multistart needs at least one start point",
        });
    }
    strategy.validate()?;
    if evaluator.app_count() != space.app_count() {
        return Err(SearchError::AppCountMismatch {
            expected: evaluator.app_count(),
            actual: space.app_count(),
        });
    }
    if starts
        .iter()
        .any(|start| !space.contains(start) || !evaluator.idle_feasible(start))
    {
        return Err(SearchError::StartOutOfSpace);
    }
    let mut shared = SharedEvalCache::new(evaluator);
    if let Some(store) = store {
        if store.space().max_counts() != space.max_counts() {
            return Err(StoreError::SpaceMismatch {
                expected: space.max_counts().to_vec(),
                found: store.space().max_counts().to_vec(),
            }
            .into());
        }
        shared.warm_start(store.entries());
        shared.set_write_through(move |schedule, value| {
            // Failures are latched inside the store and surfaced as one
            // typed error after the run (see below) — an evaluation
            // that cannot be persisted must not kill the search that
            // produced it.
            let _t = cacs_obs::time(&cacs_obs::metrics::STORE_WRITE_THROUGH_NS);
            let _ = store.record(schedule, value);
        });
    }
    let shared = shared;

    let results: Vec<Result<SearchReport>> = if sequential {
        // In-order execution on the calling thread (the reference
        // engine): same per-start sessions, seeds and accounting, no
        // cross-start interleaving.
        starts
            .iter()
            .enumerate()
            .map(|(start_index, start)| {
                let session = shared.session();
                Ok(cacs_par::sequential(|| {
                    run_single(&session, space, start, strategy, start_index)
                }))
            })
            .collect()
    } else {
        std::thread::scope(|scope| {
            let shared = &shared;
            let handles: Vec<_> = starts
                .iter()
                .enumerate()
                .map(|(start_index, start)| {
                    scope.spawn(move || {
                        let session = shared.session();
                        // The strategy runs sequentially inside each search
                        // thread; the start-level fan-out is the
                        // parallelism here.
                        cacs_par::sequential(|| {
                            run_single(&session, space, start, strategy, start_index)
                        })
                    })
                })
                .collect();
            // A panicked search becomes a typed error instead of
            // re-panicking here: the sibling searches have already run
            // to completion (the shared cache recovers poisoned locks),
            // and with a store attached their work is already durable.
            handles
                .into_iter()
                .enumerate()
                .map(|(start_index, handle)| {
                    handle
                        .join()
                        .map_err(|_| SearchError::SearchPanicked { start_index })
                })
                .collect()
        })
    };

    if let Some(store) = store {
        if let Some(e) = store.take_write_error() {
            return Err(e.into());
        }
        // Store health, exported here so the store itself (a digest
        // file) stays free of metrics tokens.
        cacs_obs::metrics::STORE_COMPACTIONS.add(store.compactions());
        cacs_obs::metrics::STORE_QUARANTINED_RECORDS.add(store.quarantined_records());
    }

    // Section-V accounting as a metrics side channel (the authoritative
    // counts stay in the reports/outcome — metrics never feed either).
    cacs_obs::metrics::SEARCH_FRESH_EVALUATIONS.add(shared.fresh_evaluations() as u64);
    cacs_obs::metrics::SEARCH_UNIQUE_EVALUATIONS.add(shared.unique_evaluations() as u64);
    cacs_obs::metrics::SEARCH_WARM_STARTED.add(shared.warm_started() as u64);

    let reports = results.into_iter().collect::<Result<Vec<SearchReport>>>()?;
    Ok(MultistartOutcome {
        reports,
        fresh_evaluations: shared.fresh_evaluations(),
        unique_evaluations: shared.unique_evaluations(),
        warm_started: shared.warm_started(),
    })
}

/// One storeless one-start engine run, for the strategy modules' unit
/// tests.
#[cfg(test)]
pub(crate) fn run_one<E: ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    space: &ScheduleSpace,
    start: &Schedule,
    strategy: &StrategyConfig,
) -> Result<SearchReport> {
    let mut outcome = run_multistart(
        evaluator,
        space,
        std::slice::from_ref(start),
        strategy,
        None,
    )?;
    Ok(outcome.reports.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnEvaluator;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn paraboloid() -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync> {
        FnEvaluator::new(3, |s: &Schedule| {
            let c = s.counts();
            let (a, b, d) = (c[0] as f64, c[1] as f64, c[2] as f64);
            Some(0.2 - 0.01 * ((a - 3.0).powi(2) + (b - 2.0).powi(2) + (d - 3.0).powi(2)))
        })
    }

    fn starts() -> Vec<Schedule> {
        vec![
            Schedule::new(vec![4, 2, 2]).unwrap(),
            Schedule::new(vec![1, 2, 1]).unwrap(),
        ]
    }

    fn all_strategies() -> [StrategyConfig; 4] {
        [
            StrategyConfig::Hybrid(HybridConfig::default()),
            StrategyConfig::Anneal(AnnealConfig {
                steps: 300,
                ..AnnealConfig::default()
            }),
            StrategyConfig::Genetic(GeneticConfig::default()),
            StrategyConfig::Tabu(TabuConfig::default()),
        ]
    }

    #[test]
    fn every_strategy_finds_the_concave_peak() {
        let eval = paraboloid();
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        for strategy in all_strategies() {
            let outcome = run_multistart(&eval, &space, &starts(), &strategy, None).unwrap();
            assert_eq!(outcome.reports.len(), 2, "{}", strategy.name());
            let best = outcome
                .reports
                .iter()
                .max_by(|a, b| a.best_value.total_cmp(&b.best_value))
                .unwrap();
            assert_eq!(
                best.best.as_ref().unwrap().counts(),
                &[3, 2, 3],
                "{} missed the peak",
                strategy.name()
            );
        }
    }

    #[test]
    fn empty_start_list_rejected_for_every_strategy() {
        let eval = paraboloid();
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        for strategy in all_strategies() {
            assert!(matches!(
                run_multistart(&eval, &space, &[], &strategy, None),
                Err(SearchError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn start_outside_the_space_is_a_typed_error_for_every_strategy() {
        let eval = paraboloid();
        let space = ScheduleSpace::new(vec![2, 2, 2]).unwrap();
        let bad = vec![Schedule::new(vec![3, 1, 1]).unwrap()];
        for strategy in all_strategies() {
            assert!(
                matches!(
                    run_multistart(&eval, &space, &bad, &strategy, None),
                    Err(SearchError::StartOutOfSpace)
                ),
                "{}",
                strategy.name()
            );
        }
    }

    /// The engine's preamble rejects a bad run before paying for a
    /// single evaluation, for every strategy: a wrong app count, bad
    /// knobs, and a bad *second* start (the first one is fine, so a
    /// per-thread check would already have evaluated it).
    #[test]
    fn preamble_rejects_bad_runs_before_any_evaluation() {
        let calls = AtomicUsize::new(0);
        let eval = FnEvaluator::new(3, |s: &Schedule| {
            calls.fetch_add(1, Ordering::SeqCst);
            Some(f64::from(s.counts()[0]))
        });
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        let flat = ScheduleSpace::new(vec![6, 6]).unwrap();
        let flat_start = [Schedule::new(vec![1, 1]).unwrap()];
        let outside = vec![
            Schedule::new(vec![4, 2, 2]).unwrap(),
            Schedule::new(vec![7, 1, 1]).unwrap(),
        ];
        let invalid = [
            StrategyConfig::Hybrid(HybridConfig {
                max_steps: 0,
                ..HybridConfig::default()
            }),
            StrategyConfig::Anneal(AnnealConfig {
                steps: 0,
                ..AnnealConfig::default()
            }),
            StrategyConfig::Genetic(GeneticConfig {
                population: 1,
                ..GeneticConfig::default()
            }),
            StrategyConfig::Tabu(TabuConfig {
                iterations: 0,
                ..TabuConfig::default()
            }),
        ];
        for (strategy, bad) in all_strategies().iter().zip(&invalid) {
            let name = strategy.name();
            assert!(
                matches!(
                    run_multistart(&eval, &flat, &flat_start, strategy, None),
                    Err(SearchError::AppCountMismatch {
                        expected: 3,
                        actual: 2
                    })
                ),
                "{name}"
            );
            assert!(
                matches!(
                    run_multistart(&eval, &space, &starts(), bad, None),
                    Err(SearchError::InvalidConfig { .. })
                ),
                "{name}"
            );
            for run in [run_multistart, run_multistart_sequential] {
                assert!(
                    matches!(
                        run(&eval, &space, &outside, strategy, None),
                        Err(SearchError::StartOutOfSpace)
                    ),
                    "{name}"
                );
            }
            assert_eq!(calls.load(Ordering::SeqCst), 0, "{name} evaluated");
        }
    }

    #[test]
    fn strategy_names_are_canonical() {
        let names: Vec<&str> = all_strategies().iter().map(StrategyConfig::name).collect();
        assert_eq!(names, ["hybrid", "anneal", "genetic", "tabu"]);
    }

    #[test]
    fn derived_seeds_are_deterministic_and_decorrelated() {
        assert_eq!(derive_start_seed(7, 0), derive_start_seed(7, 0));
        assert_ne!(derive_start_seed(7, 0), derive_start_seed(7, 1));
        assert_ne!(derive_start_seed(7, 0), derive_start_seed(8, 0));
        // The engine's derivation, not the raw base seed, feeds start 0:
        // two strategies sharing a base seed still get mixed streams.
        assert_ne!(derive_start_seed(7, 0), 7);
    }

    #[test]
    fn sequential_multistart_matches_the_parallel_engine() {
        let eval = paraboloid();
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        for strategy in all_strategies() {
            let par = run_multistart(&eval, &space, &starts(), &strategy, None).unwrap();
            let seq = run_multistart_sequential(&eval, &space, &starts(), &strategy, None).unwrap();
            assert_eq!(par.reports.len(), seq.reports.len());
            for (a, b) in par.reports.iter().zip(&seq.reports) {
                assert_eq!(a.best, b.best, "{}", strategy.name());
                assert_eq!(a.best_value.to_bits(), b.best_value.to_bits());
                assert_eq!(a.evaluations, b.evaluations);
                assert_eq!(a.trajectory, b.trajectory);
            }
            assert_eq!(par.unique_evaluations, seq.unique_evaluations);
        }
    }

    #[test]
    fn multistart_reports_are_reproducible_for_randomised_strategies() {
        let eval = paraboloid();
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        for strategy in [
            StrategyConfig::Anneal(AnnealConfig::default()),
            StrategyConfig::Genetic(GeneticConfig::default()),
        ] {
            let a = run_multistart(&eval, &space, &starts(), &strategy, None).unwrap();
            let b = run_multistart(&eval, &space, &starts(), &strategy, None).unwrap();
            for (x, y) in a.reports.iter().zip(&b.reports) {
                assert_eq!(x.best, y.best);
                assert_eq!(x.best_value.to_bits(), y.best_value.to_bits());
                assert_eq!(x.evaluations, y.evaluations);
                assert_eq!(x.trajectory, y.trajectory);
            }
        }
    }

    #[test]
    fn multistart_searches_run_concurrently_on_shared_evaluator() {
        // The evaluator records the maximum number of in-flight calls.
        struct Concurrent {
            in_flight: AtomicUsize,
            max_seen: AtomicUsize,
        }
        impl ScheduleEvaluator for Concurrent {
            fn app_count(&self) -> usize {
                1
            }
            fn evaluate(&self, s: &Schedule) -> Option<f64> {
                let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                self.max_seen.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(5));
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                Some(-(f64::from(s.counts()[0]) - 3.0).powi(2))
            }
        }
        let eval = Concurrent {
            in_flight: AtomicUsize::new(0),
            max_seen: AtomicUsize::new(0),
        };
        let space = ScheduleSpace::new(vec![8]).unwrap();
        let starts: Vec<Schedule> = (1..=4).map(|m| Schedule::new(vec![m]).unwrap()).collect();
        let strategy = StrategyConfig::Hybrid(HybridConfig::default());
        let outcome = run_multistart(&eval, &space, &starts, &strategy, None).unwrap();
        assert_eq!(outcome.reports.len(), 4);
        // At least two searches overlapped in time.
        assert!(eval.max_seen.load(Ordering::SeqCst) >= 2);
    }
}
