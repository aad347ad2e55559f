//! `paper-tables`: one-shot regeneration of every table and figure of the
//! paper as machine-readable output.
//!
//! Unlike `examples/paper_case_study.rs` (a narrated walkthrough), this
//! binary prints the tables in a compact fixed format suitable for diffing
//! against EXPERIMENTS.md, and writes the Figure 6 CSV series next to the
//! working directory.
//!
//! ```text
//! cargo run --release -p cacs-bench --bin paper-tables [--fast] [--out DIR]
//! ```

use cacs_apps::paper_case_study;
use cacs_core::{fig6_series, table1_rows, table3_rows, CodesignProblem, EvaluationConfig};
use cacs_sched::Schedule;
use cacs_search::{HybridConfig, StrategyConfig};
use std::fs;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let fast = args.iter().any(|a| a == "--fast");
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| PathBuf::from("."), PathBuf::from);

    let study = paper_case_study()?;
    let config = if fast {
        EvaluationConfig::fast()
    } else {
        EvaluationConfig::default()
    };
    let problem = CodesignProblem::from_case_study(&study, config)?;

    // Table I.
    println!("table1,app,cold_us,reduction_us,warm_us");
    for row in table1_rows(&problem)? {
        println!(
            "table1,{},{:.2},{:.2},{:.2}",
            row.app, row.cold_us, row.reduction_us, row.warm_us
        );
    }

    // Table II (echo of the configured parameters).
    println!("table2,app,weight,deadline_ms,max_idle_ms");
    for app in problem.apps() {
        println!(
            "table2,{},{},{},{}",
            app.params.name,
            app.params.weight,
            app.params.settling_deadline * 1e3,
            app.params.max_idle_time * 1e3
        );
    }

    // Search: hybrid from the paper's two starts, then exhaustive.
    let starts = [Schedule::new(vec![4, 2, 2])?, Schedule::new(vec![1, 2, 1])?];
    let outcome = problem.optimize_with_strategy(
        &starts,
        &StrategyConfig::Hybrid(HybridConfig::default()),
        None,
    )?;
    println!("search,start,best,p_all,evaluations");
    for s in &outcome.searches {
        println!(
            "search,{},{},{:.4},{}",
            s.start,
            s.report
                .best
                .as_ref()
                .map_or("<none>".to_string(), ToString::to_string),
            s.report.best_value,
            s.report.evaluations
        );
    }
    let exhaustive = problem.optimize_exhaustive()?;
    let best = exhaustive.best.clone().ok_or("no feasible schedule")?;
    println!(
        "search,exhaustive,{best},{:.4},{}",
        exhaustive.best_value, exhaustive.evaluated
    );

    // Table III.
    let baseline = problem.evaluate_schedule(&Schedule::round_robin(3)?)?;
    let optimized = problem.evaluate_schedule(&best)?;
    println!("table3,app,baseline_ms,optimized_ms,improvement_percent");
    for row in table3_rows(&problem, &baseline, &optimized) {
        println!(
            "table3,{},{:.1},{:.1},{:.0}",
            row.app, row.baseline_ms, row.optimized_ms, row.improvement_percent
        );
    }

    // Figure 6 CSVs.
    for (label, evaluation) in [("111", &baseline), ("opt", &optimized)] {
        for series in fig6_series(&problem, evaluation, 50e-3)? {
            let safe_app = series
                .app
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect::<String>();
            let path = out_dir.join(format!("fig6_{safe_app}_{label}.csv"));
            fs::write(&path, series.to_csv())?;
            println!("fig6,{},{},{}", series.app, series.schedule, path.display());
        }
    }

    Ok(())
}
