//! Integration tests for stage-2 optimisation on the real pipeline
//! (reduced budgets) and on sub-problems: hybrid vs exhaustive agreement,
//! evaluation-count economy, multicore decomposition.

use cacs::apps::paper_case_study;
use cacs::core::{optimize_multicore, CodesignProblem, CorePartition, EvaluationConfig};
use cacs::sched::Schedule;
use cacs::search::{CountingScheduleEvaluator, HybridConfig, ScheduleEvaluator, SharedEvalCache};

fn fast_problem() -> CodesignProblem {
    let study = paper_case_study().expect("case study builds");
    CodesignProblem::from_case_study(&study, EvaluationConfig::fast()).expect("problem builds")
}

/// The hybrid search run on the real pipeline improves on its start and
/// uses far fewer evaluations than the space holds (paper: 9 resp. 18 of
/// 76).
#[test]
fn hybrid_search_on_real_pipeline_is_frugal() {
    let problem = fast_problem();
    let outcome = problem
        .optimize(
            &[Schedule::new(vec![1, 2, 1]).unwrap()],
            &HybridConfig::default(),
        )
        .unwrap();
    let (best, value) = outcome.best.expect("found something");
    let search = &outcome.searches[0];
    // Improvement over (or equality with) the start's own value.
    let start_value = problem
        .evaluate_schedule(&search.start)
        .unwrap()
        .overall_performance
        .unwrap();
    assert!(
        value >= start_value - 1e-12,
        "{value} < start {start_value}"
    );
    assert!(value > 0.0);
    // Economy: the space has ~77 idle-feasible schedules; the search must
    // touch well under half of them.
    assert!(
        search.report.evaluations < 35,
        "hybrid used {} evaluations",
        search.report.evaluations
    );
    assert!(problem.idle_feasible_schedule(&best));
}

/// The best schedule the hybrid search finds beats round-robin — the
/// paper's end-to-end claim, via the optimiser rather than a hand-picked
/// schedule.
#[test]
fn optimizer_beats_round_robin() {
    let problem = fast_problem();
    let rr = Schedule::round_robin(3).unwrap();
    let baseline = problem
        .evaluate_schedule(&rr)
        .unwrap()
        .overall_performance
        .unwrap();
    let outcome = problem
        .optimize(std::slice::from_ref(&rr), &HybridConfig::default())
        .unwrap();
    let (best, value) = outcome.best.expect("search succeeds");
    assert!(
        value > baseline,
        "optimised {best} ({value:.3}) does not beat round-robin ({baseline:.3})"
    );
}

/// Memoisation: repeated evaluations of one schedule hit the cache, and
/// the evaluator adapter rejects idle-infeasible schedules before paying
/// for synthesis.
#[test]
fn memoised_adapter_behaviour() {
    let problem = fast_problem();
    let memo = SharedEvalCache::new(&problem);
    let s = Schedule::new(vec![1, 2, 1]).unwrap();
    let v1 = memo.evaluate(&s);
    let v2 = memo.evaluate(&s);
    assert_eq!(v1, v2);
    assert_eq!(memo.unique_evaluations(), 1);
    assert!(!memo.idle_feasible(&Schedule::new(vec![9, 9, 9]).unwrap()));
    assert_eq!(memo.unique_evaluations(), 1, "idle check must not evaluate");
}

/// Multicore decomposition (paper §VI): two cores with private caches.
/// Isolating the servo on its own core removes the other applications
/// from its idle gaps, so the combined performance must beat the best
/// single-core schedule.
#[test]
fn multicore_partition_beats_single_core() {
    let problem = fast_problem();
    // Core 0: C1 alone. Core 1: C2 + C3.
    let partition = CorePartition::new(vec![0, 1, 1], 2).unwrap();
    let outcome = optimize_multicore(&problem, &partition, EvaluationConfig::fast()).unwrap();
    let multicore = outcome.overall.expect("feasible partition");
    let single = problem
        .evaluate_schedule(&Schedule::new(vec![1, 2, 2]).unwrap())
        .unwrap()
        .overall_performance
        .unwrap();
    assert!(
        multicore > single,
        "multicore {multicore:.3} should beat single-core {single:.3}"
    );
    assert_eq!(outcome.per_core.len(), 2);
    for (apps, best, _) in &outcome.per_core {
        assert!(!apps.is_empty());
        assert!(best.is_some());
    }
}

/// Determinism: two identical optimisation runs return the same result
/// (fixed seeds through the whole stack).
#[test]
fn optimization_is_deterministic() {
    let problem = fast_problem();
    let starts = [Schedule::new(vec![2, 2, 2]).unwrap()];
    let a = problem.optimize(&starts, &HybridConfig::default()).unwrap();
    let b = problem.optimize(&starts, &HybridConfig::default()).unwrap();
    match (a.best, b.best) {
        (Some((sa, va)), Some((sb, vb))) => {
            assert_eq!(sa, sb);
            assert_eq!(va, vb);
        }
        (None, None) => {}
        other => panic!("non-deterministic outcomes: {other:?}"),
    }
}
