//! Ablation bench for the design choices of the hybrid search
//! (DESIGN.md §5/§6): the simulated-annealing-style **tolerance** and the
//! **multistart count**, plus an evaluation-economy comparison against the
//! genetic-algorithm and tabu baselines.
//!
//! The headline numbers (printed before Criterion runs) are *evaluation
//! counts* — the platform-independent cost metric the paper reports — on
//! the same rippled surrogate objective used by the `schedule_search`
//! bench. The Criterion groups then time the searches themselves.

use cacs_sched::Schedule;
use cacs_search::{
    exhaustive_search, run_multistart, FnEvaluator, GeneticConfig, HybridConfig, ScheduleSpace,
    SearchReport, StrategyConfig, TabuConfig,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// The rippled surrogate of the case-study landscape (local optima exist).
fn surrogate() -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync> {
    FnEvaluator::new(3, |s: &Schedule| {
        let c = s.counts();
        let (a, b, d) = (c[0] as f64, c[1] as f64, c[2] as f64);
        let bump = 0.2 - 0.012 * ((a - 2.0).powi(2) + (b - 3.0).powi(2) + (d - 2.0).powi(2));
        let ripple = 0.004 * ((a * 12.9898 + b * 78.233 + d * 37.719).sin());
        Some(bump + ripple)
    })
}

fn space() -> ScheduleSpace {
    ScheduleSpace::new(vec![4, 8, 6]).expect("space")
}

/// One search of `strategy` from `start`: a one-start engine run.
fn one_start(
    eval: &impl cacs_search::ScheduleEvaluator,
    space: &ScheduleSpace,
    start: &Schedule,
    strategy: StrategyConfig,
) -> SearchReport {
    run_multistart(eval, space, std::slice::from_ref(start), &strategy, None)
        .expect("search runs")
        .reports
        .remove(0)
}

/// Tolerance ablation: tolerance 0 (strict ascent) is cheaper but can get
/// trapped; the paper's tolerance trick buys optimum recovery for a few
/// extra evaluations.
fn print_tolerance_ablation() {
    let eval = surrogate();
    let space = space();
    let ex = exhaustive_search(&eval, &space).expect("exhaustive");
    let optimum = ex.best_value;
    println!("\n=== Ablation: hybrid tolerance (exhaustive optimum {optimum:.4}) ===");
    for tolerance in [0.0, 0.005, 0.02, 0.05, 0.2] {
        let config = HybridConfig {
            tolerance,
            ..HybridConfig::default()
        };
        let mut worst_gap = 0.0f64;
        let mut total_evals = 0usize;
        for start in [vec![4, 2, 2], vec![1, 2, 1], vec![1, 1, 1], vec![4, 8, 6]] {
            let start = Schedule::new(start).expect("start");
            let report = one_start(&eval, &space, &start, StrategyConfig::Hybrid(config));
            worst_gap = worst_gap.max(optimum - report.best_value);
            total_evals += report.evaluations;
        }
        println!(
            "tolerance {tolerance:<6}: {total_evals:>3} evaluations over 4 starts, \
             worst optimality gap {worst_gap:.4}"
        );
    }
}

/// Multistart ablation: more starts cost more evaluations (shared memo
/// dampens the growth) and reduce the risk of missing the optimum.
fn print_multistart_ablation() {
    let eval = surrogate();
    let space = space();
    let starts = [
        Schedule::new(vec![4, 2, 2]).expect("s"),
        Schedule::new(vec![1, 2, 1]).expect("s"),
        Schedule::new(vec![1, 1, 1]).expect("s"),
        Schedule::new(vec![4, 8, 6]).expect("s"),
        Schedule::new(vec![2, 8, 1]).expect("s"),
        Schedule::new(vec![4, 1, 6]).expect("s"),
    ];
    println!("\n=== Ablation: multistart count (shared memo across starts) ===");
    for k in [1, 2, 4, 6] {
        let strategy = StrategyConfig::Hybrid(HybridConfig::default());
        let outcome =
            run_multistart(&eval, &space, &starts[..k], &strategy, None).expect("multistart runs");
        let best = outcome
            .reports
            .iter()
            .map(|r| r.best_value)
            .fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{k} starts: {:>3} unique evaluations, best {best:.4}",
            outcome.unique_evaluations
        );
    }
}

/// Baseline economy: evaluations needed by each algorithm to reach (or
/// miss) the exhaustive optimum.
fn print_baseline_comparison() {
    let eval = surrogate();
    let space = space();
    let ex = exhaustive_search(&eval, &space).expect("exhaustive");
    println!(
        "\n=== Baseline economy (exhaustive: {} evaluations) ===",
        ex.evaluated
    );
    let start = Schedule::new(vec![1, 2, 1]).expect("start");
    for (label, strategy) in [
        ("hybrid:", StrategyConfig::Hybrid(HybridConfig::default())),
        ("tabu:", StrategyConfig::Tabu(TabuConfig::default())),
        ("GA:", StrategyConfig::Genetic(GeneticConfig::default())),
    ] {
        let report = one_start(&eval, &space, &start, strategy);
        println!(
            "{label:<7} {:>3} evaluations, gap {:.4}",
            report.evaluations,
            ex.best_value - report.best_value
        );
    }
}

fn bench_ablation(c: &mut Criterion) {
    print_tolerance_ablation();
    print_multistart_ablation();
    print_baseline_comparison();

    let space = space();

    let mut group = c.benchmark_group("search_ablation_tolerance");
    for tolerance in [0.0, 0.02, 0.2] {
        group.bench_with_input(
            BenchmarkId::from_parameter(tolerance),
            &tolerance,
            |b, &tolerance| {
                let eval = surrogate();
                let start = Schedule::new(vec![1, 2, 1]).expect("start");
                let hybrid = StrategyConfig::Hybrid(HybridConfig {
                    tolerance,
                    ..HybridConfig::default()
                });
                b.iter(|| one_start(black_box(&eval), &space, &start, hybrid))
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("search_ablation_baselines");
    group.bench_function("tabu", |b| {
        let eval = surrogate();
        let start = Schedule::new(vec![1, 2, 1]).expect("start");
        let tabu = StrategyConfig::Tabu(TabuConfig::default());
        b.iter(|| one_start(black_box(&eval), &space, &start, tabu))
    });
    group.bench_function("genetic", |b| {
        let eval = surrogate();
        let start = Schedule::new(vec![1, 2, 1]).expect("start");
        let genetic = StrategyConfig::Genetic(GeneticConfig::default());
        b.iter(|| one_start(black_box(&eval), &space, &start, genetic))
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
