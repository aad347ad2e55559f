//! Section IV/V search bench: hybrid search vs exhaustive enumeration vs
//! simulated annealing. Also prints the evaluation-count comparison that
//! the paper reports (9 resp. 18 of 76 schedules) using a surrogate
//! objective shaped like the case study's landscape.

use cacs_sched::Schedule;
use cacs_search::{
    exhaustive_search, run_multistart, AnnealConfig, FnEvaluator, HybridConfig, ScheduleSpace,
    StrategyConfig,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Surrogate of the case-study landscape: a concave bump over the
/// idle-feasible box with its peak near the middle, sprinkled with a
/// deterministic ripple (so local optima exist, like the real noisy
/// objective).
fn surrogate() -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync> {
    FnEvaluator::new(3, |s: &Schedule| {
        let c = s.counts();
        let (a, b, d) = (c[0] as f64, c[1] as f64, c[2] as f64);
        let bump = 0.2 - 0.012 * ((a - 2.0).powi(2) + (b - 3.0).powi(2) + (d - 2.0).powi(2));
        let ripple = 0.004 * ((a * 12.9898 + b * 78.233 + d * 37.719).sin());
        Some(bump + ripple)
    })
}

fn print_eval_counts() {
    let eval = surrogate();
    let space = ScheduleSpace::new(vec![4, 8, 6]).expect("space");
    println!("\n=== Search evaluation counts (surrogate objective) ===");
    let ex = exhaustive_search(&eval, &space).expect("exhaustive");
    println!(
        "exhaustive: {} evaluations, best {}",
        ex.evaluated,
        ex.best.as_ref().expect("feasible")
    );
    let hybrid = StrategyConfig::Hybrid(HybridConfig::default());
    for start in [vec![4, 2, 2], vec![1, 2, 1]] {
        let starts = [Schedule::new(start.clone()).expect("start")];
        let outcome = run_multistart(&eval, &space, &starts, &hybrid, None).expect("search runs");
        let report = &outcome.reports[0];
        println!(
            "hybrid from {start:?}: {} evaluations ({}% of exhaustive), best {}",
            report.evaluations,
            100 * report.evaluations as u64 / ex.evaluated,
            report.best.as_ref().expect("feasible")
        );
    }
    println!("paper: 9 resp. 18 evaluations of 76 (11.8% resp. 23.7%)\n");
}

fn bench_search(c: &mut Criterion) {
    print_eval_counts();
    let space = ScheduleSpace::new(vec![4, 8, 6]).expect("space");

    let mut group = c.benchmark_group("schedule_search");
    group.bench_function("hybrid_from_422", |b| {
        let eval = surrogate();
        let starts = [Schedule::new(vec![4, 2, 2]).expect("start")];
        let hybrid = StrategyConfig::Hybrid(HybridConfig::default());
        b.iter(|| {
            run_multistart(
                black_box(&eval),
                black_box(&space),
                black_box(&starts),
                &hybrid,
                None,
            )
        })
    });
    group.bench_function("exhaustive", |b| {
        let eval = surrogate();
        b.iter(|| exhaustive_search(black_box(&eval), black_box(&space)))
    });
    group.bench_function("anneal_from_121", |b| {
        let eval = surrogate();
        let starts = [Schedule::new(vec![1, 2, 1]).expect("start")];
        let anneal = StrategyConfig::Anneal(AnnealConfig::default());
        b.iter(|| {
            run_multistart(
                black_box(&eval),
                black_box(&space),
                black_box(&starts),
                &anneal,
                None,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
