//! Stage 2: schedule optimisation (hybrid search + exhaustive
//! verification).

use crate::{CodesignProblem, Result};
use cacs_distrib::{CoordinatorConfig, ShardedSweep};
use cacs_sched::Schedule;
use cacs_search::{
    exhaustive_search, run_multistart, EvalStore, ExhaustiveReport, ScheduleSpace, SearchReport,
    StrategyConfig,
};

/// One search run with its start point.
#[derive(Debug, Clone)]
pub struct SearchSummary {
    /// Where the search started.
    pub start: Schedule,
    /// What it found and how much it cost.
    pub report: SearchReport,
}

/// Evaluation accounting of one (possibly store-backed) multistart run
/// of any strategy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultistartStats {
    /// Full schedule evaluations actually executed this run. On a
    /// resumed run this is strictly smaller than an uninterrupted run's
    /// count whenever the store held at least one requested schedule.
    pub fresh_evaluations: usize,
    /// Distinct schedules requested across all starts — what an
    /// uninterrupted, storeless run would have evaluated.
    pub unique_evaluations: usize,
    /// Evaluations preloaded from the store before the run started.
    pub warm_started: usize,
}

impl MultistartStats {
    /// Evaluations this run did **not** have to execute because the
    /// store (or cross-start sharing) already held them.
    pub fn evaluations_saved(&self) -> usize {
        self.unique_evaluations
            .saturating_sub(self.fresh_evaluations)
    }
}

/// Outcome of the stage-2 optimisation.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// Best schedule over all searches with its `P_all` (`None` if every
    /// search failed to find a feasible schedule).
    pub best: Option<(Schedule, f64)>,
    /// Every individual search run.
    pub searches: Vec<SearchSummary>,
    /// Global evaluation accounting (the per-search Section-V counts
    /// live in each [`SearchSummary`]'s report).
    pub stats: MultistartStats,
}

impl CodesignProblem {
    /// Derives the schedule decision space: each `m_i` ranges from 1 up to
    /// the largest value appearing in **any** idle-feasible schedule of
    /// the capped box (`EvaluationConfig::max_tasks_per_app` per
    /// dimension). The exact scan matters because the idle constraint is
    /// not monotone per dimension — raising `m_i` shortens `C_i`'s own
    /// last (warm) task.
    ///
    /// The scan walks the box in parallel rank blocks at constant memory,
    /// so it runs up to [`ScheduleSpace::STREAM_SCAN_LIMIT`] points (the
    /// idle check is a few arithmetic operations); only beyond that does
    /// it fall back to the conservative axis-wise bound (many
    /// applications).
    ///
    /// # Errors
    ///
    /// Propagates [`cacs_search::SearchError::InvalidSpace`] when even
    /// round-robin is infeasible.
    pub fn schedule_space(&self) -> Result<ScheduleSpace> {
        let scan = ScheduleSpace::from_feasibility_scan(
            self.app_count(),
            self.config().max_tasks_per_app,
            ScheduleSpace::STREAM_SCAN_LIMIT,
            |s| self.idle_feasible_schedule(s),
        );
        match scan {
            Ok(space) => Ok(space),
            Err(cacs_search::SearchError::SpaceTooLarge { .. }) => {
                Ok(ScheduleSpace::from_feasibility(
                    self.app_count(),
                    self.config().max_tasks_per_app,
                    |s| self.idle_feasible_schedule(s),
                )?)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Runs any search strategy (hybrid, annealing, genetic, tabu) from
    /// the given start points in parallel through the unified strategy
    /// engine ([`cacs_search::run_multistart`]) — one shared evaluation
    /// cache across starts, deterministic per-start seeding for the
    /// randomised strategies. The paper's Section IV/V search is
    /// [`StrategyConfig::Hybrid`] from two starts.
    ///
    /// With a persistent [`EvalStore`] attached, the run warm-starts
    /// from every evaluation the store already holds and writes every
    /// fresh evaluation through (append + flush) *before* its result is
    /// used — so a run of any strategy killed at any point can be
    /// resumed with the same store and will reproduce the uninterrupted
    /// run's best schedule and objective **bit for bit** while
    /// executing strictly fewer fresh evaluations ([`MultistartStats`]
    /// carries the accounting).
    ///
    /// The store must have been opened for this problem's digest and
    /// for [`CodesignProblem::schedule_space`]; opening it for anything
    /// else fails fast with a typed store error.
    ///
    /// # Errors
    ///
    /// Propagates search and store errors (e.g. a start outside the
    /// space, a store for a different space, a failed write-through).
    pub fn optimize_with_strategy(
        &self,
        starts: &[Schedule],
        strategy: &StrategyConfig,
        store: Option<&EvalStore>,
    ) -> Result<OptimizeOutcome> {
        let space = self.schedule_space()?;
        let outcome = run_multistart(self, &space, starts, strategy, store)?;
        let stats = MultistartStats {
            fresh_evaluations: outcome.fresh_evaluations,
            unique_evaluations: outcome.unique_evaluations,
            warm_started: outcome.warm_started,
        };
        let mut best: Option<(Schedule, f64)> = None;
        let mut searches = Vec::with_capacity(outcome.reports.len());
        for (start, report) in starts.iter().zip(outcome.reports) {
            if let Some(s) = &report.best {
                let better = match &best {
                    Some((_, v)) => report.best_value > *v,
                    None => true,
                };
                if better && report.best_value.is_finite() {
                    best = Some((s.clone(), report.best_value));
                }
            }
            searches.push(SearchSummary {
                start: start.clone(),
                report,
            });
        }
        Ok(OptimizeOutcome {
            best,
            searches,
            stats,
        })
    }

    /// Brute-force verification over the whole space (paper Section V's
    /// "76 schedules"), with the default streaming configuration (full
    /// per-schedule result retention — fine at paper scale).
    ///
    /// # Errors
    ///
    /// Propagates search errors.
    pub fn optimize_exhaustive(&self) -> Result<ExhaustiveReport> {
        let space = self.schedule_space()?;
        Ok(exhaustive_search(self, &space)?)
    }

    /// An exhaustive sweep sharded over `workers` in-process workers via
    /// the `cacs-distrib` coordinator: the space is partitioned into
    /// rank-range leases, each worker sweeps its leases through the full
    /// wire protocol, and the shard reports are merged back together.
    /// The merged report is **bit-identical** to the single-process
    /// sweep under the same [`cacs_search::SweepConfig`]
    /// (`config.sweep`) — sharding, lease scheduling and fault recovery
    /// are invisible in the result.
    ///
    /// For multi-process or cross-host deployments, use the
    /// `cacs-sweep-coord` / `cacs-sweep-worker` binaries (or
    /// [`cacs_distrib::run_coordinator`] directly) — this method is the
    /// same coordinator over an in-process transport, and doubles as the
    /// subsystem's equivalence oracle in tests.
    ///
    /// # Errors
    ///
    /// Propagates search errors and [`CoreError::Distrib`] coordinator
    /// failures.
    ///
    /// [`CoreError::Distrib`]: crate::CoreError::Distrib
    pub fn optimize_exhaustive_sharded(
        &self,
        workers: usize,
        config: &CoordinatorConfig,
    ) -> Result<ShardedSweep> {
        let space = self.schedule_space()?;
        Ok(cacs_distrib::sweep_in_process(
            self, &space, workers, config,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvaluationConfig;
    use cacs_apps::paper_case_study;

    #[test]
    fn schedule_space_bounds_are_sane() {
        let study = paper_case_study().unwrap();
        let problem = CodesignProblem::from_case_study(&study, EvaluationConfig::fast()).unwrap();
        let space = problem.schedule_space().unwrap();
        // Three applications; every dimension allows at least 2 and at
        // most the configured cap.
        assert_eq!(space.app_count(), 3);
        for &m in space.max_counts() {
            assert!(m >= 2, "space unexpectedly tight: {:?}", space.max_counts());
            assert!(m <= 12);
        }
        // The paper's optimum (3,2,3) must lie inside the space.
        assert!(space.contains(&Schedule::new(vec![3, 2, 3]).unwrap()));
    }

    // Full optimisation runs are exercised by the integration tests and
    // the paper_case_study example (they are too slow for unit tests).
}
