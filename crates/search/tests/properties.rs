//! Property-based tests for the search algorithms: optimality relations,
//! evaluation-count economy and memo consistency on random objectives.

#![allow(clippy::unwrap_used)] // tests unwrap freely

use cacs_sched::Schedule;
use cacs_search::{
    exhaustive_search, genetic_search, hybrid_search, simulated_annealing, tabu_search,
    AnnealConfig, CountingScheduleEvaluator, FnEvaluator, GeneticConfig, HybridConfig,
    ScheduleEvaluator, ScheduleSpace, SharedEvalCache, TabuConfig,
};
use proptest::prelude::*;

/// A deterministic pseudo-random objective derived from a seed: smooth
/// concave bump + seeded ripple, so different seeds give different
/// landscapes with local optima.
fn objective(seed: u64) -> impl Fn(&Schedule) -> Option<f64> + Sync {
    move |s: &Schedule| {
        let c = s.counts();
        let (a, b, d) = (c[0] as f64, c[1] as f64, c[2] as f64);
        let sx = (seed % 97) as f64 / 97.0;
        let peak = (1.5 + 3.0 * sx, 2.0 + 2.0 * (1.0 - sx), 1.5 + 2.5 * sx);
        let bump =
            0.25 - 0.01 * ((a - peak.0).powi(2) + (b - peak.1).powi(2) + (d - peak.2).powi(2));
        let ripple =
            0.002 * ((a * (3.1 + sx) + b * 7.7 + d * (5.3 - sx) + seed as f64 * 0.37).sin());
        Some(bump + ripple)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The hybrid search never claims a value above the exhaustive
    /// optimum, and its best is a genuinely evaluated feasible schedule.
    #[test]
    fn hybrid_never_beats_exhaustive(seed in 0u64..500, start in prop::collection::vec(1u32..5, 3)) {
        let eval = FnEvaluator::new(3, objective(seed));
        let space = ScheduleSpace::new(vec![5, 5, 5]).unwrap();
        let exhaustive = exhaustive_search(&eval, &space).unwrap();
        let report = hybrid_search(
            &eval,
            &space,
            &Schedule::new(start).unwrap(),
            &HybridConfig::default(),
        )
        .unwrap();
        prop_assert!(report.best_value <= exhaustive.best_value + 1e-12);
        let best = report.best.expect("objective is total");
        prop_assert_eq!(eval.evaluate(&best).unwrap(), report.best_value);
    }

    /// The hybrid search result is at least as good as its start point.
    #[test]
    fn hybrid_never_loses_to_its_start(seed in 0u64..500, start in prop::collection::vec(1u32..6, 3)) {
        let eval = FnEvaluator::new(3, objective(seed));
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        let start = Schedule::new(start).unwrap();
        let start_value = eval.evaluate(&start).unwrap();
        let report = hybrid_search(&eval, &space, &start, &HybridConfig::default()).unwrap();
        prop_assert!(report.best_value >= start_value - 1e-12);
    }

    /// Evaluation economy: the hybrid search touches at most
    /// (2n+1) × (moves+1) schedules, and always fewer than the full box.
    #[test]
    fn hybrid_evaluation_bound(seed in 0u64..500) {
        let eval = FnEvaluator::new(3, objective(seed));
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        let start = Schedule::new(vec![3, 3, 3]).unwrap();
        let report = hybrid_search(&eval, &space, &start, &HybridConfig::default()).unwrap();
        let moves = report.trajectory.len();
        prop_assert!(report.evaluations <= 7 * (moves + 1));
        prop_assert!(report.evaluations < 216);
    }

    /// Trajectory moves are unit steps staying inside the space.
    #[test]
    fn trajectory_is_unit_steps_in_space(seed in 0u64..500) {
        let eval = FnEvaluator::new(3, objective(seed));
        let space = ScheduleSpace::new(vec![5, 5, 5]).unwrap();
        let start = Schedule::new(vec![1, 5, 3]).unwrap();
        let report = hybrid_search(&eval, &space, &start, &HybridConfig::default()).unwrap();
        for s in &report.trajectory {
            prop_assert!(space.contains(s));
        }
        for w in report.trajectory.windows(2) {
            let step: u32 = w[0]
                .counts()
                .iter()
                .zip(w[1].counts())
                .map(|(x, y)| x.abs_diff(*y))
                .sum();
            prop_assert_eq!(step, 1);
        }
    }

    /// Annealing with zero-ish temperature behaves like hill climbing:
    /// never accepts a worsening move, so its best equals the best point
    /// of its trajectory.
    #[test]
    fn annealing_result_is_on_its_trajectory(seed in 0u64..200) {
        let eval = FnEvaluator::new(3, objective(seed));
        let space = ScheduleSpace::new(vec![5, 5, 5]).unwrap();
        let report = simulated_annealing(
            &eval,
            &space,
            &Schedule::new(vec![3, 3, 3]).unwrap(),
            &AnnealConfig {
                seed,
                ..AnnealConfig::default()
            },
        )
        .unwrap();
        let best = report.best.expect("objective total");
        prop_assert!(report.trajectory.contains(&best));
    }

    /// The memo never changes values: wrapped and unwrapped evaluators
    /// agree on every schedule, and unique_evaluations counts distinct
    /// keys.
    #[test]
    fn memo_transparency(seed in 0u64..500, queries in prop::collection::vec(
        prop::collection::vec(1u32..5, 3), 1..30)) {
        let eval = FnEvaluator::new(3, objective(seed));
        let memo = SharedEvalCache::new(&eval);
        let mut distinct = std::collections::HashSet::new();
        for q in queries {
            let s = Schedule::new(q).unwrap();
            distinct.insert(s.counts().to_vec());
            prop_assert_eq!(memo.evaluate(&s), eval.evaluate(&s));
        }
        prop_assert_eq!(memo.unique_evaluations(), distinct.len());
    }

    /// Exhaustive search with a restricted idle predicate evaluates
    /// exactly the feasible subset.
    #[test]
    fn exhaustive_honours_idle_predicate(seed in 0u64..500, budget in 4u32..14) {
        let eval = FnEvaluator::with_idle_check(
            3,
            objective(seed),
            move |s: &Schedule| s.counts().iter().sum::<u32>() <= budget,
        );
        let space = ScheduleSpace::new(vec![4, 4, 4]).unwrap();
        let report = exhaustive_search(&eval, &space).unwrap();
        let expected = space
            .iter()
            .filter(|s| s.counts().iter().sum::<u32>() <= budget)
            .count();
        prop_assert_eq!(report.evaluated, expected as u64);
        prop_assert_eq!(report.enumerated, 64);
    }

    /// The GA never claims a value above the exhaustive optimum, and its
    /// best schedule re-evaluates to exactly the claimed value.
    #[test]
    fn genetic_never_beats_exhaustive(seed in 0u64..500) {
        let eval = FnEvaluator::new(3, objective(seed));
        let space = ScheduleSpace::new(vec![5, 5, 5]).unwrap();
        let exhaustive = exhaustive_search(&eval, &space).unwrap();
        let config = GeneticConfig { seed, ..GeneticConfig::default() };
        let report = genetic_search(&eval, &space, &config).unwrap();
        prop_assert!(report.best_value <= exhaustive.best_value + 1e-12);
        let best = report.best.expect("objective total");
        prop_assert_eq!(eval.evaluate(&best), Some(report.best_value));
    }

    /// Tabu search never claims a value above the exhaustive optimum and
    /// never falls below the start schedule's own value.
    #[test]
    fn tabu_bracketed_by_start_and_exhaustive(
        seed in 0u64..500,
        start in prop::collection::vec(1u32..5, 3),
    ) {
        let eval = FnEvaluator::new(3, objective(seed));
        let space = ScheduleSpace::new(vec![5, 5, 5]).unwrap();
        let exhaustive = exhaustive_search(&eval, &space).unwrap();
        let start = Schedule::new(start).unwrap();
        let start_value = eval.evaluate(&start).unwrap();
        let report = tabu_search(&eval, &space, &start, &TabuConfig::default()).unwrap();
        prop_assert!(report.best_value <= exhaustive.best_value + 1e-12);
        prop_assert!(report.best_value >= start_value - 1e-12);
    }

    /// Every schedule in a GA or tabu trajectory lies inside the space.
    #[test]
    fn baseline_trajectories_stay_in_space(seed in 0u64..200) {
        let eval = FnEvaluator::new(3, objective(seed));
        let space = ScheduleSpace::new(vec![4, 4, 4]).unwrap();
        let ga = genetic_search(
            &eval, &space, &GeneticConfig { seed, ..GeneticConfig::default() }).unwrap();
        for s in &ga.trajectory {
            prop_assert!(space.contains(s));
        }
        let tabu = tabu_search(
            &eval, &space, &Schedule::new(vec![1, 1, 1]).unwrap(),
            &TabuConfig::default()).unwrap();
        for s in &tabu.trajectory {
            prop_assert!(space.contains(s));
        }
    }
}
