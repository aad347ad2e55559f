//! Parallel-vs-sequential equivalence: every parallel fan-out in the
//! search crate must produce bit-identical results to the forced
//! sequential execution (`cacs_par::sequential`), at any thread count.

#![allow(clippy::unwrap_used)] // tests unwrap freely

use cacs_sched::Schedule;
use cacs_search::{
    exhaustive_search, run_multistart, FnEvaluator, HybridConfig, ScheduleSpace, SearchReport,
    StrategyConfig,
};

/// Concave paraboloid peaking at (3, 2, 3) — the paper's optimal
/// schedule shape — with a deterministic ripple so local optima exist.
fn surrogate() -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync> {
    FnEvaluator::new(3, |s: &Schedule| {
        let c = s.counts();
        let (a, b, d) = (c[0] as f64, c[1] as f64, c[2] as f64);
        let bump = 0.2 - 0.01 * ((a - 3.0).powi(2) + (b - 2.0).powi(2) + (d - 3.0).powi(2));
        let ripple = 0.004 * ((a * 12.9898 + b * 78.233 + d * 37.719).sin());
        Some(bump + ripple)
    })
}

/// An evaluator with an idle-feasibility region and deadline violations,
/// so all three result classes (skipped / infeasible / feasible) occur.
fn gnarly(
) -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync, impl Fn(&Schedule) -> bool + Sync> {
    FnEvaluator::with_idle_check(
        3,
        |s: &Schedule| {
            let c = s.counts();
            if (c[0] + c[1]).is_multiple_of(5) {
                None // "deadline violation"
            } else {
                Some(f64::from(c[0] * 7 + c[1] * 3 + c[2]) * 0.01)
            }
        },
        |s: &Schedule| s.counts().iter().sum::<u32>() <= 10,
    )
}

#[test]
fn exhaustive_parallel_matches_sequential_bitwise() {
    let space = ScheduleSpace::new(vec![4, 5, 4]).unwrap();
    exhaustive_check(&surrogate(), &space);
    exhaustive_check(&gnarly(), &space);
}

fn exhaustive_check<E: cacs_search::ScheduleEvaluator>(eval: &E, space: &ScheduleSpace) {
    let par = exhaustive_search(eval, space).unwrap();
    let seq = cacs_par::sequential(|| exhaustive_search(eval, space).unwrap());

    assert_eq!(par.best, seq.best);
    assert_eq!(par.best_value.to_bits(), seq.best_value.to_bits());
    assert_eq!(par.enumerated, seq.enumerated);
    assert_eq!(par.evaluated, seq.evaluated);
    assert_eq!(par.feasible, seq.feasible);
    assert_eq!(par.results.len(), seq.results.len());
    for ((sa, va), (sb, vb)) in par.results.iter().zip(&seq.results) {
        assert_eq!(sa, sb, "result order must match enumeration order");
        assert_eq!(
            va.map(f64::to_bits),
            vb.map(f64::to_bits),
            "objective for {sa} must be bit-identical"
        );
    }
}

/// One hybrid search, as a one-start engine run.
fn one_start(eval: &impl cacs_search::ScheduleEvaluator, start: &Schedule) -> SearchReport {
    let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
    let strategy = StrategyConfig::Hybrid(HybridConfig::default());
    run_multistart(eval, &space, std::slice::from_ref(start), &strategy, None)
        .unwrap()
        .reports
        .remove(0)
}

/// A hybrid search walks the same path whatever the thread budget: the
/// default run and the forced-sequential one agree bit for bit.
#[test]
fn hybrid_parallel_probes_match_sequential() {
    let eval = surrogate();
    for start in [vec![1, 1, 1], vec![4, 2, 2], vec![6, 6, 6]] {
        let start = Schedule::new(start).unwrap();
        let par = one_start(&eval, &start);
        let seq = cacs_par::sequential(|| one_start(&eval, &start));
        assert_eq!(par.best, seq.best);
        assert_eq!(par.best_value.to_bits(), seq.best_value.to_bits());
        assert_eq!(
            par.evaluations, seq.evaluations,
            "the thread budget must not change the Section-V cost metric"
        );
        assert_eq!(par.trajectory, seq.trajectory);
    }
}

/// An N-start run over one shared cache reports, for each start,
/// exactly what a one-start run from that start reports.
#[test]
fn multistart_shared_cache_reports_match_independent_searches() {
    let eval = surrogate();
    let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
    let starts = vec![
        Schedule::new(vec![4, 2, 2]).unwrap(),
        Schedule::new(vec![1, 2, 1]).unwrap(),
        Schedule::new(vec![6, 6, 6]).unwrap(),
    ];
    let strategy = StrategyConfig::Hybrid(HybridConfig::default());
    let shared = run_multistart(&eval, &space, &starts, &strategy, None)
        .unwrap()
        .reports;
    assert_eq!(shared.len(), starts.len());

    for (start, report) in starts.iter().zip(&shared) {
        let solo = one_start(&eval, start);
        assert_eq!(report.best, solo.best);
        assert_eq!(report.best_value.to_bits(), solo.best_value.to_bits());
        assert_eq!(
            report.evaluations, solo.evaluations,
            "shared cache must keep each start's own evaluation count"
        );
        assert_eq!(report.trajectory, solo.trajectory);
    }
}
