//! Search-algorithm comparison on the case study: the paper's hybrid
//! search versus exhaustive enumeration and simulated annealing
//! (Section IV / Section V evaluation counts).
//!
//! Run with: `cargo run --release --example search_comparison`

use cacs::apps::paper_case_study;
use cacs::core::{CodesignProblem, EvaluationConfig};
use cacs::sched::Schedule;
use cacs::search::{
    exhaustive_search, hybrid_search, simulated_annealing, AnnealConfig, CountingScheduleEvaluator,
    HybridConfig, SharedEvalCache,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let study = paper_case_study()?;
    let problem = CodesignProblem::from_case_study(&study, EvaluationConfig::fast())?;
    let space = problem.schedule_space()?;
    println!(
        "schedule space: maxima {:?}, {} schedules in the box",
        space.max_counts(),
        space.len()
    );

    // Shared memo so the expensive evaluations are reused across all
    // algorithms; per-algorithm counts come from their own reports.
    let memo = SharedEvalCache::new(&problem);

    println!("\n== Hybrid search (paper: 9 and 18 evaluations of 76) ==");
    for start in [vec![4, 2, 2], vec![1, 2, 1], vec![1, 1, 1], vec![2, 4, 3]] {
        let start = Schedule::new(start)?;
        if !problem.idle_feasible_schedule(&start) {
            println!("  start {start}: idle-infeasible, skipped");
            continue;
        }
        let report = hybrid_search(&memo, &space, &start, &HybridConfig::default())?;
        println!(
            "  from {start}: best {} (P_all = {:.3}), {} evaluations, {} moves",
            report.best.as_ref().map_or("-".into(), |b| b.to_string()),
            report.best_value,
            report.evaluations,
            report.trajectory.len() - 1
        );
    }

    println!("\n== Simulated annealing baseline ==");
    let sa = simulated_annealing(
        &memo,
        &space,
        &Schedule::new(vec![1, 2, 1])?,
        &AnnealConfig {
            steps: 60,
            initial_temperature: 0.05,
            cooling: 0.95,
            seed: 11,
        },
    )?;
    println!(
        "  best {} (P_all = {:.3}), {} evaluations",
        sa.best.as_ref().map_or("-".into(), |b| b.to_string()),
        sa.best_value,
        sa.evaluations
    );

    println!("\n== Exhaustive verification ==");
    let report = exhaustive_search(&memo, &space)?;
    println!(
        "  evaluated {} idle-feasible schedules ({} fully feasible)",
        report.evaluated, report.feasible
    );
    println!(
        "  optimum {} with P_all = {:.3}",
        report.best.as_ref().map_or("-".into(), |b| b.to_string()),
        report.best_value
    );
    println!(
        "\ntotal distinct full evaluations across everything: {}",
        memo.unique_evaluations()
    );
    Ok(())
}
