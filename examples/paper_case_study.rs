//! Full reproduction of the paper's evaluation (Section V): regenerates
//! Table I, Table II, Table III, the Figure 6 response series (as CSV
//! files), and the hybrid-vs-exhaustive search comparison.
//!
//! Run with: `cargo run --release --example paper_case_study`
//! (pass `--fast` for a reduced synthesis budget — a few times faster,
//! slightly noisier settling times).

use cacs::apps::paper_case_study;
use cacs::core::{fig6_series, table1_rows, table3_rows, CodesignProblem, EvaluationConfig};
use cacs::sched::Schedule;
use cacs::search::{HybridConfig, StrategyConfig};
use std::fs;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast = std::env::args().any(|a| a == "--fast");
    let study = paper_case_study()?;
    let config = if fast {
        EvaluationConfig::fast()
    } else {
        EvaluationConfig::default()
    };
    let problem = CodesignProblem::from_case_study(&study, config)?;

    // ------------------------------------------------------- Table I --
    println!("== Table I: WCET results with and without cache reuse ==");
    println!(
        "{:<45} {:>12} {:>12} {:>12}",
        "Application", "w/o reuse", "reduction", "w/ reuse"
    );
    for row in table1_rows(&problem)? {
        println!(
            "{:<45} {:>9.2} us {:>9.2} us {:>9.2} us",
            row.app, row.cold_us, row.reduction_us, row.warm_us
        );
    }

    // ------------------------------------------------------ Table II --
    println!("\n== Table II: application parameters ==");
    println!(
        "{:<45} {:>8} {:>14} {:>12}",
        "Application", "weight", "deadline", "max idle"
    );
    for app in problem.apps() {
        println!(
            "{:<45} {:>8} {:>11.1} ms {:>9.1} ms",
            app.params.name,
            app.params.weight,
            app.params.settling_deadline * 1e3,
            app.params.max_idle_time * 1e3
        );
    }

    // ------------------------------------------- Section V: search ----
    println!("\n== Schedule space ==");
    let space = problem.schedule_space()?;
    let idle_feasible = space
        .iter()
        .filter(|s| problem.idle_feasible_schedule(s))
        .count();
    println!(
        "per-dimension maxima {:?}; box {} schedules; {} idle-feasible (paper: 76)",
        space.max_counts(),
        space.len(),
        idle_feasible
    );

    println!("\n== Hybrid search (paper: starts (4,2,2) and (1,2,1)) ==");
    let starts = [Schedule::new(vec![4, 2, 2])?, Schedule::new(vec![1, 2, 1])?];
    // cacs-lint: allow(wall-clock, reason = "example prints elapsed wall time; results never depend on it")
    let t0 = Instant::now();
    let outcome = problem.optimize_with_strategy(
        &starts,
        &StrategyConfig::Hybrid(HybridConfig::default()),
        None,
    )?;
    for s in &outcome.searches {
        println!(
            "  from {}: best {} (P_all = {:.3}) after {} evaluations",
            s.start,
            s.report
                .best
                .as_ref()
                .map_or("<none>".to_string(), |b| b.to_string()),
            s.report.best_value,
            s.report.evaluations
        );
    }
    let (hybrid_best, hybrid_value) = outcome.best.clone().ok_or("hybrid search found nothing")?;
    println!(
        "  hybrid best: {hybrid_best} with P_all = {hybrid_value:.3} ({:.1} s)",
        t0.elapsed().as_secs_f64()
    );

    println!(
        "\n== Exhaustive verification (paper: 76 schedules, optimum (3,2,3), P_all = 0.195) =="
    );
    // cacs-lint: allow(wall-clock, reason = "example prints elapsed wall time; results never depend on it")
    let t0 = Instant::now();
    let exhaustive = problem.optimize_exhaustive()?;
    println!(
        "  evaluated {} schedules ({} fully feasible) in {:.1} s",
        exhaustive.evaluated,
        exhaustive.feasible,
        t0.elapsed().as_secs_f64()
    );
    let best = exhaustive.best.clone().ok_or("no feasible schedule")?;
    println!(
        "  exhaustive optimum: {best} with P_all = {:.3}",
        exhaustive.best_value
    );
    let deadline_violations = exhaustive
        .results
        .iter()
        .filter(|(_, v)| v.is_none())
        .count();
    println!("  settling-deadline violations among evaluated: {deadline_violations} (paper: 2)");

    // ----------------------------------------------------- Table III --
    println!("\n== Table III: control performance comparison ==");
    let baseline_eval = problem.evaluate_schedule(&Schedule::round_robin(3)?)?;
    let optimal_eval = problem.evaluate_schedule(&best)?;
    println!(
        "{:<45} {:>14} {:>14} {:>12}",
        "Application",
        "s for (1,1,1)",
        format!("s for {best}"),
        "improvement"
    );
    for row in table3_rows(&problem, &baseline_eval, &optimal_eval) {
        println!(
            "{:<45} {:>11.1} ms {:>11.1} ms {:>11.1}%",
            row.app, row.baseline_ms, row.optimized_ms, row.improvement_percent
        );
    }
    println!(
        "P_all: baseline {:?} -> optimal {:?}",
        baseline_eval.overall_performance, optimal_eval.overall_performance
    );

    // ------------------------------------------------------ Figure 6 --
    println!("\n== Figure 6: response series (CSV files) ==");
    fs::create_dir_all("target/fig6")?;
    for (label, eval) in [("oblivious", &baseline_eval), ("optimal", &optimal_eval)] {
        for (i, series) in fig6_series(&problem, eval, 50e-3)?.iter().enumerate() {
            let path = format!("target/fig6/fig6_c{}_{label}.csv", i + 1);
            fs::write(&path, series.to_csv())?;
            println!(
                "  wrote {path} ({} samples, schedule {})",
                series.times.len(),
                series.schedule
            );
        }
    }
    Ok(())
}
