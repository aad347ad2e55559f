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
//!
//! The strategy-specific logic stays in its own module
//! (`hybrid.rs` / `anneal.rs` / `genetic.rs` / `tabu.rs`) as a core
//! function over a [`CountingScheduleEvaluator`]; this module only
//! dispatches. The single-search entry points
//! ([`crate::hybrid_search`], [`crate::simulated_annealing`],
//! [`crate::genetic_search`], [`crate::tabu_search`]) run the same
//! cores directly against their own [`SharedEvalCache`].

use crate::{
    anneal::anneal_core, genetic::genetic_core, hybrid::hybrid_search_core, tabu::tabu_core,
    AnnealConfig, CountingScheduleEvaluator, EvalStore, GeneticConfig, HybridConfig, Result,
    ScheduleEvaluator, ScheduleSpace, SearchError, SharedEvalCache, StoreError, TabuConfig,
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
}

/// Screening knobs for [`run_multistart_screened`] — the two-stage
/// evaluation pipeline (reduced-fidelity screening, exact survivor
/// re-evaluation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenConfig {
    /// Fraction of starts whose searches are re-run exactly in stage 2:
    /// `survivors = min(max(ceil(survivor_frac · starts), 1), starts)`
    /// (so zero starts have zero survivors).
    /// `1.0` keeps every start (screening then only adds overhead, but
    /// the final digest is trivially identical to the no-screen run).
    pub survivor_frac: f64,
}

impl Default for ScreenConfig {
    fn default() -> Self {
        ScreenConfig { survivor_frac: 0.5 }
    }
}

impl ScreenConfig {
    /// Number of stage-2 survivors for `starts` start points.
    #[must_use]
    pub fn survivor_count(&self, starts: usize) -> usize {
        ((self.survivor_frac * starts as f64).ceil() as usize)
            .max(1)
            .min(starts)
    }
}

/// Outcome of a two-stage ([`run_multistart_screened`]) run.
///
/// Only [`TwoStageOutcome::exact`] may ever reach reports, digests, an
/// [`EvalStore`] or Section-V accounting — screening results are a
/// ranking side channel and are dropped here by construction.
#[derive(Debug, Clone)]
pub struct TwoStageOutcome {
    /// The stage-2 exact outcome over the surviving starts only. Each
    /// report is bit-identical to what a `--no-screen` run produces for
    /// the same start (stage 2 re-derives per-start seeds from the
    /// *original* start indices).
    pub exact: MultistartOutcome,
    /// Indices (into the original start list) of the survivors,
    /// ascending — `exact.reports[j]` belongs to original start
    /// `survivors[j]`.
    pub survivors: Vec<usize>,
    /// Fresh reduced-fidelity evaluations stage 1 executed.
    pub screen_evaluations: usize,
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

/// Runs one search of `strategy` from `start` against a counting
/// evaluator layer — the per-start dispatch of [`run_multistart`].
fn run_single<E: CountingScheduleEvaluator>(
    memo: &E,
    space: &ScheduleSpace,
    start: &Schedule,
    strategy: &StrategyConfig,
    start_index: usize,
) -> Result<SearchReport> {
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
            Some(start),
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
/// bit-identical at any `CACS_THREADS` setting.
///
/// # Errors
///
/// * the first per-start error in start order (e.g.
///   [`SearchError::StartOutOfSpace`], [`SearchError::InvalidConfig`]),
/// * [`SearchError::Store`] — the store belongs to a different space,
///   or a write-through append failed (checked at the end of the run;
///   the store latches the first failure),
/// * [`SearchError::SearchPanicked`] — a search thread panicked
///   (typically a panicking evaluator). Sibling searches complete and
///   their evaluations are already persisted; resuming after fixing the
///   evaluator re-pays only what was lost.
pub fn run_multistart<E: ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    space: &ScheduleSpace,
    starts: &[Schedule],
    strategy: &StrategyConfig,
    store: Option<&EvalStore>,
) -> Result<MultistartOutcome> {
    let indexed: Vec<(usize, &Schedule)> = starts.iter().enumerate().collect();
    run_multistart_indexed(
        evaluator,
        space,
        &indexed,
        strategy,
        store,
        Stage::Exact,
        false,
    )
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
    let indexed: Vec<(usize, &Schedule)> = starts.iter().enumerate().collect();
    run_multistart_indexed(
        evaluator,
        space,
        &indexed,
        strategy,
        store,
        Stage::Exact,
        true,
    )
}

/// Two-stage multistart: a deterministic reduced-fidelity
/// `screen_evaluator` runs **every** start's search first (stage 1, no
/// store), the starts are ranked by their screened best value (total
/// `f64` order, descending; screened-infeasible starts rank last; ties
/// break toward the earlier start), and only the top
/// [`ScreenConfig::survivor_count`] starts are re-run against the exact
/// `exact_evaluator` (stage 2, store-backed). Stage 2 derives each
/// per-start RNG seed from the start's **original** index, so every
/// survivor's report — trajectory, best bits, Section-V evaluation
/// count — is byte-identical to what [`run_multistart`] produces for
/// that start without screening; screening can only change *which*
/// starts are paid for exactly, never what any start finds.
///
/// Screening results never reach the outcome's reports, the store, or
/// Section-V accounting — they are dropped after ranking (the
/// `eval.screen_evals` / `eval.screen_survivors` metrics observe them,
/// reporting-only as always).
///
/// # Errors
///
/// * [`SearchError::InvalidConfig`] unless `0 < survivor_frac ≤ 1`,
/// * everything [`run_multistart`] can return, from either stage.
pub fn run_multistart_screened<S, E>(
    screen_evaluator: &S,
    exact_evaluator: &E,
    space: &ScheduleSpace,
    starts: &[Schedule],
    strategy: &StrategyConfig,
    screen: &ScreenConfig,
    store: Option<&EvalStore>,
) -> Result<TwoStageOutcome>
where
    S: ScheduleEvaluator + ?Sized,
    E: ScheduleEvaluator + ?Sized,
{
    if !(screen.survivor_frac.is_finite()
        && screen.survivor_frac > 0.0
        && screen.survivor_frac <= 1.0)
    {
        return Err(SearchError::InvalidConfig {
            parameter: "survivor fraction must be in (0, 1]",
        });
    }
    let indexed: Vec<(usize, &Schedule)> = starts.iter().enumerate().collect();
    let screened = run_multistart_indexed(
        screen_evaluator,
        space,
        &indexed,
        strategy,
        None,
        Stage::Screen,
        false,
    )?;

    // Rank starts by screened best value — total f64 order so NaN and
    // signed zero cannot make the ranking platform-dependent — and keep
    // the top K, restored to ascending start order for stage 2.
    let mut order: Vec<usize> = (0..starts.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (&screened.reports[a], &screened.reports[b]);
        rb.best
            .is_some()
            .cmp(&ra.best.is_some())
            .then(rb.best_value.total_cmp(&ra.best_value))
            .then(a.cmp(&b))
    });
    let mut survivors: Vec<usize> = order
        .into_iter()
        .take(screen.survivor_count(starts.len()))
        .collect();
    survivors.sort_unstable();
    cacs_obs::metrics::EVAL_SCREEN_SURVIVORS.add(survivors.len() as u64);

    let surviving: Vec<(usize, &Schedule)> = survivors.iter().map(|&i| (i, &starts[i])).collect();
    let exact = run_multistart_indexed(
        exact_evaluator,
        space,
        &surviving,
        strategy,
        store,
        Stage::Exact,
        false,
    )?;
    Ok(TwoStageOutcome {
        exact,
        survivors,
        screen_evaluations: screened.fresh_evaluations,
    })
}

/// Which fidelity a multistart engine run represents — controls only
/// which reporting-only metrics the run feeds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Exact,
    Screen,
}

/// The engine behind [`run_multistart`] and both stages of
/// [`run_multistart_screened`]: each start carries its own seed index
/// (`(index, start)`), so a stage-2 subset replays exactly the seeds —
/// and therefore the walks — the full run would use.
fn run_multistart_indexed<E: ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    space: &ScheduleSpace,
    starts: &[(usize, &Schedule)],
    strategy: &StrategyConfig,
    store: Option<&EvalStore>,
    stage: Stage,
    sequential: bool,
) -> Result<MultistartOutcome> {
    if starts.is_empty() {
        return Err(SearchError::InvalidConfig {
            parameter: "multistart needs at least one start point",
        });
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

    let mut results: Vec<Option<Result<SearchReport>>> = Vec::new();
    results.resize_with(starts.len(), || None);

    if sequential {
        // In-order execution on the calling thread (the reference
        // engine): same per-start sessions, seeds and accounting, no
        // cross-start interleaving.
        for (slot, &(seed_index, start)) in starts.iter().enumerate() {
            let session = shared.session();
            results[slot] = Some(cacs_par::sequential(|| {
                run_single(&session, space, start, strategy, seed_index)
            }));
        }
    } else {
        std::thread::scope(|scope| {
            let shared = &shared;
            let mut handles = Vec::new();
            for (slot, &(seed_index, start)) in starts.iter().enumerate() {
                handles.push((
                    slot,
                    scope.spawn(move || {
                        let session = shared.session();
                        // The strategy runs sequentially inside each search
                        // thread; the start-level fan-out is the
                        // parallelism here.
                        cacs_par::sequential(|| {
                            run_single(&session, space, start, strategy, seed_index)
                        })
                    }),
                ));
            }
            for (slot, handle) in handles {
                // A panicked search becomes a typed error instead of
                // re-panicking here: the sibling searches have already run
                // to completion (the shared cache recovers poisoned locks),
                // and with a store attached their work is already durable.
                results[slot] = Some(handle.join().unwrap_or(Err(SearchError::SearchPanicked {
                    start_index: starts[slot].0,
                })));
            }
        });
    }

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
    // Screening runs feed only the two-stage counters: the search.*
    // side channel mirrors Section-V, which never sees screened work.
    match stage {
        Stage::Exact => {
            cacs_obs::metrics::SEARCH_FRESH_EVALUATIONS.add(shared.fresh_evaluations() as u64);
            cacs_obs::metrics::SEARCH_UNIQUE_EVALUATIONS.add(shared.unique_evaluations() as u64);
            cacs_obs::metrics::SEARCH_WARM_STARTED.add(shared.warm_started() as u64);
            cacs_obs::metrics::EVAL_EXACT_EVALS.add(shared.fresh_evaluations() as u64);
        }
        Stage::Screen => {
            cacs_obs::metrics::EVAL_SCREEN_EVALS.add(shared.fresh_evaluations() as u64);
        }
    }

    let reports = results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect::<Result<Vec<SearchReport>>>()?;
    Ok(MultistartOutcome {
        reports,
        fresh_evaluations: shared.fresh_evaluations(),
        unique_evaluations: shared.unique_evaluations(),
        warm_started: shared.warm_started(),
    })
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

    /// A deliberately coarse screening surrogate of [`paraboloid`]:
    /// same landscape shape (so ranking is meaningful), different —
    /// cheaper-looking — values (so any leak of screening values into
    /// exact results is caught bitwise).
    fn coarse_paraboloid() -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync> {
        FnEvaluator::new(3, |s: &Schedule| {
            let c = s.counts();
            let (a, b, d) = (c[0] as f64, c[1] as f64, c[2] as f64);
            let v = 0.2 - 0.01 * ((a - 3.0).powi(2) + (b - 2.0).powi(2) + (d - 3.0).powi(2));
            Some((v * 8.0).round() / 8.0)
        })
    }

    #[test]
    fn screened_survivor_reports_are_bitwise_identical_to_no_screen() {
        let exact = paraboloid();
        let screen = coarse_paraboloid();
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        for strategy in all_strategies() {
            let full = run_multistart(&exact, &space, &starts(), &strategy, None).unwrap();
            let two = run_multistart_screened(
                &screen,
                &exact,
                &space,
                &starts(),
                &strategy,
                &ScreenConfig { survivor_frac: 0.5 },
                None,
            )
            .unwrap();
            assert_eq!(two.survivors.len(), 1, "{}", strategy.name());
            assert!(two.screen_evaluations > 0, "{}", strategy.name());
            for (j, &i) in two.survivors.iter().enumerate() {
                let (a, b) = (&two.exact.reports[j], &full.reports[i]);
                assert_eq!(a.best, b.best, "{} start {i}", strategy.name());
                assert_eq!(
                    a.best_value.to_bits(),
                    b.best_value.to_bits(),
                    "{} start {i}",
                    strategy.name()
                );
                assert_eq!(
                    a.evaluations,
                    b.evaluations,
                    "{} start {i}",
                    strategy.name()
                );
                assert_eq!(a.trajectory, b.trajectory, "{} start {i}", strategy.name());
            }
        }
    }

    #[test]
    fn survivor_frac_one_reproduces_the_full_run_exactly() {
        let exact = paraboloid();
        let screen = coarse_paraboloid();
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        for strategy in all_strategies() {
            let full = run_multistart(&exact, &space, &starts(), &strategy, None).unwrap();
            let two = run_multistart_screened(
                &screen,
                &exact,
                &space,
                &starts(),
                &strategy,
                &ScreenConfig { survivor_frac: 1.0 },
                None,
            )
            .unwrap();
            assert_eq!(two.survivors, vec![0, 1]);
            for (a, b) in two.exact.reports.iter().zip(&full.reports) {
                assert_eq!(a.best, b.best);
                assert_eq!(a.best_value.to_bits(), b.best_value.to_bits());
                assert_eq!(a.evaluations, b.evaluations);
                assert_eq!(a.trajectory, b.trajectory);
            }
        }
    }

    #[test]
    fn invalid_survivor_fractions_are_rejected() {
        let exact = paraboloid();
        let screen = coarse_paraboloid();
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        let strategy = StrategyConfig::Hybrid(HybridConfig::default());
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    run_multistart_screened(
                        &screen,
                        &exact,
                        &space,
                        &starts(),
                        &strategy,
                        &ScreenConfig { survivor_frac: bad },
                        None,
                    ),
                    Err(SearchError::InvalidConfig { .. })
                ),
                "survivor_frac {bad} accepted"
            );
        }
    }

    #[test]
    fn survivor_counts_clamp_sanely() {
        let c = ScreenConfig { survivor_frac: 0.5 };
        assert_eq!(c.survivor_count(0), 0);
        assert_eq!(c.survivor_count(1), 1);
        assert_eq!(c.survivor_count(2), 1);
        assert_eq!(c.survivor_count(5), 3);
        let all = ScreenConfig { survivor_frac: 1.0 };
        assert_eq!(all.survivor_count(4), 4);
        let tiny = ScreenConfig {
            survivor_frac: 1.0e-9,
        };
        assert_eq!(tiny.survivor_count(100), 1);
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
