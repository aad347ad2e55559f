//! Determinism contract of the unified strategy engine: for every
//! strategy, a multistart run through the shared evaluation cache is
//! bit-identical between the threaded execution and the forced
//! sequential one (`cacs_par::sequential` — the same code path
//! `CACS_THREADS=1` forces, which the CI `parallel-equivalence` job
//! additionally runs across this whole suite), and seeded runs
//! reproduce exactly.

#![allow(clippy::unwrap_used)] // tests unwrap freely

use cacs_sched::Schedule;
use cacs_search::{
    run_multistart, AnnealConfig, FnEvaluator, GeneticConfig, HybridConfig, MultistartOutcome,
    ScheduleSpace, StrategyConfig, TabuConfig,
};

/// Concave paraboloid with a deterministic ripple so local optima and
/// plateaus exist; a modulus hole adds deadline-infeasible points.
fn surrogate() -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync> {
    FnEvaluator::new(3, |s: &Schedule| {
        let c = s.counts();
        if (c[0] * 5 + c[1] * 3 + c[2]).is_multiple_of(17) {
            return None;
        }
        let (a, b, d) = (c[0] as f64, c[1] as f64, c[2] as f64);
        let bump = 0.2 - 0.01 * ((a - 3.0).powi(2) + (b - 2.0).powi(2) + (d - 3.0).powi(2));
        let ripple = 0.004 * ((a * 12.9898 + b * 78.233 + d * 37.719).sin());
        Some(bump + ripple)
    })
}

fn space() -> ScheduleSpace {
    ScheduleSpace::new(vec![8, 8, 8]).unwrap()
}

fn starts() -> Vec<Schedule> {
    vec![
        Schedule::new(vec![4, 2, 2]).unwrap(),
        Schedule::new(vec![1, 2, 1]).unwrap(),
        Schedule::new(vec![8, 8, 8]).unwrap(),
    ]
}

fn all_strategies() -> [StrategyConfig; 4] {
    [
        StrategyConfig::Hybrid(HybridConfig::default()),
        StrategyConfig::Anneal(AnnealConfig::default()),
        StrategyConfig::Genetic(GeneticConfig::default()),
        StrategyConfig::Tabu(TabuConfig::default()),
    ]
}

fn assert_outcomes_bit_identical(a: &MultistartOutcome, b: &MultistartOutcome, tag: &str) {
    assert_eq!(a.reports.len(), b.reports.len(), "{tag}: report count");
    for (i, (x, y)) in a.reports.iter().zip(&b.reports).enumerate() {
        assert_eq!(x.best, y.best, "{tag}: search {i} best schedule");
        assert_eq!(
            x.best_value.to_bits(),
            y.best_value.to_bits(),
            "{tag}: search {i} objective bits"
        );
        assert_eq!(
            x.evaluations, y.evaluations,
            "{tag}: search {i} Section-V cost"
        );
        assert_eq!(x.trajectory, y.trajectory, "{tag}: search {i} trajectory");
    }
    assert_eq!(
        a.unique_evaluations, b.unique_evaluations,
        "{tag}: global unique evaluations"
    );
}

/// The engine's cross-start threads vs the forced-sequential execution
/// (the `CACS_THREADS=1` code path): bit-identical for every strategy.
#[test]
fn threaded_multistart_matches_forced_sequential_for_every_strategy() {
    let eval = surrogate();
    let space = space();
    let starts = starts();
    for strategy in all_strategies() {
        let threaded = run_multistart(&eval, &space, &starts, &strategy, None).unwrap();
        let sequential = cacs_par::sequential(|| {
            run_multistart(&eval, &space, &starts, &strategy, None).unwrap()
        });
        assert_outcomes_bit_identical(&threaded, &sequential, strategy.name());
    }
}

/// Seeded reproducibility: two identical runs are bit-identical for
/// every strategy (the randomised ones re-derive per-start seeds).
#[test]
fn repeated_runs_are_bit_identical_for_every_strategy() {
    let eval = surrogate();
    let space = space();
    let starts = starts();
    for strategy in all_strategies() {
        let a = run_multistart(&eval, &space, &starts, &strategy, None).unwrap();
        let b = run_multistart(&eval, &space, &starts, &strategy, None).unwrap();
        assert_outcomes_bit_identical(&a, &b, strategy.name());
    }
}

/// For the deterministic tabu strategy the engine's shared cache must
/// be invisible: each report of an N-start run equals a one-start run
/// from the same start, including the per-search Section-V count.
#[test]
fn tabu_multistart_reports_match_legacy_solo_searches() {
    let eval = surrogate();
    let space = space();
    let starts = starts();
    let strategy = StrategyConfig::Tabu(TabuConfig::default());
    let outcome = run_multistart(&eval, &space, &starts, &strategy, None).unwrap();
    for (start, report) in starts.iter().zip(&outcome.reports) {
        let solo = &run_multistart(&eval, &space, std::slice::from_ref(start), &strategy, None)
            .unwrap()
            .reports[0];
        assert_eq!(report.best, solo.best);
        assert_eq!(report.best_value.to_bits(), solo.best_value.to_bits());
        assert_eq!(
            report.evaluations, solo.evaluations,
            "shared cache must keep each start's own evaluation count"
        );
        assert_eq!(report.trajectory, solo.trajectory);
    }
}

/// Distinct starts of a randomised strategy draw decorrelated seeds:
/// two anneal starts from the same point walk differently (while the
/// run as a whole stays reproducible).
#[test]
fn randomised_starts_get_decorrelated_walks() {
    let eval = surrogate();
    let space = space();
    let same_start = vec![
        Schedule::new(vec![4, 4, 4]).unwrap(),
        Schedule::new(vec![4, 4, 4]).unwrap(),
    ];
    let outcome = run_multistart(
        &eval,
        &space,
        &same_start,
        &StrategyConfig::Anneal(AnnealConfig::default()),
        None,
    )
    .unwrap();
    assert_ne!(
        outcome.reports[0].trajectory, outcome.reports[1].trajectory,
        "two starts with the same seed derivation would waste the multistart"
    );
}
