//! Robustness of the cache-aware co-design to platform-model error.
//!
//! The whole pipeline hinges on WCETs produced by a cache model
//! (Section II-B). Real miss penalties are rarely known exactly — flash
//! wait states vary with clock configuration and the analysis itself is
//! conservative. This example perturbs the **miss penalty** of the
//! platform model around the paper's 100 cycles and re-runs the pipeline,
//! answering three questions:
//!
//! 1. How do the Table I WCETs move? (linearly with the miss penalty)
//! 2. Does the idle-feasible schedule space shrink or grow?
//! 3. Does the cache-aware schedule (3,2,3) keep beating round-robin
//!    (1,1,1), i.e. is the paper's conclusion robust to model error?
//!
//! Run with: `cargo run --release --example robustness [--search] [--fast]`
//! (`--search` additionally re-runs the hybrid optimiser per sweep point;
//! `--fast` uses the reduced synthesis budget — quicker but noisier).

use cacs::apps::paper_case_study;
use cacs::core::{CodesignProblem, EvaluationConfig};
use cacs::sched::Schedule;
use cacs::search::{HybridConfig, StrategyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let with_search = std::env::args().any(|a| a == "--search");
    let fast = std::env::args().any(|a| a == "--fast");
    let study = paper_case_study()?;
    let config = if fast {
        EvaluationConfig::fast()
    } else {
        EvaluationConfig::default()
    };

    println!(
        "{:>12} {:>12} {:>10} {:>12} {:>12} {:>10} {}",
        "miss cycles",
        "C1 cold us",
        "feasible",
        "P(1,1,1)",
        "P(3,2,3)",
        "winner",
        if with_search { "hybrid best" } else { "" }
    );

    for miss_cycles in [70u64, 85, 100, 115, 130] {
        let mut platform = study.platform;
        platform.miss_cycles = miss_cycles;

        let apps = study
            .apps
            .iter()
            .map(|a| cacs::core::AppSpec {
                params: a.params.clone(),
                plant: a.plant.clone(),
                reference: a.reference,
                umax: a.umax,
                program: a.program.program().clone(),
            })
            .collect();
        let problem = CodesignProblem::new(platform, apps, config)?;

        let cold_c1_us = platform.cycles_to_micros(
            cacs::cache::analyze_consecutive(study.apps[0].program.program(), &platform)?
                .cold_cycles,
        );

        let space = problem.schedule_space()?;
        let feasible = space
            .iter()
            .filter(|s| problem.idle_feasible_schedule(s))
            .count();

        let round_robin = Schedule::round_robin(3)?;
        let cache_aware = Schedule::new(vec![3, 2, 3])?;
        let p_rr = if problem.idle_feasible_schedule(&round_robin) {
            problem.evaluate_schedule(&round_robin)?.overall_performance
        } else {
            None
        };
        let p_ca = if problem.idle_feasible_schedule(&cache_aware) {
            problem.evaluate_schedule(&cache_aware)?.overall_performance
        } else {
            None
        };

        let fmt = |p: Option<f64>| p.map_or("infeas.".to_string(), |v| format!("{v:.3}"));
        let winner = match (p_rr, p_ca) {
            (Some(a), Some(b)) if b > a => "(3,2,3)",
            (Some(_), Some(_)) => "(1,1,1)",
            (None, Some(_)) => "(3,2,3)",
            (Some(_), None) => "(1,1,1)",
            (None, None) => "neither",
        };

        let hybrid_best = if with_search {
            let starts = [Schedule::new(vec![4, 2, 2])?, Schedule::new(vec![1, 2, 1])?];
            let outcome = problem.optimize_with_strategy(
                &starts,
                &StrategyConfig::Hybrid(HybridConfig::default()),
                None,
            )?;
            outcome
                .best
                .map_or("<none>".to_string(), |(s, v)| format!("{s} ({v:.3})"))
        } else {
            String::new()
        };

        println!(
            "{miss_cycles:>12} {cold_c1_us:>12.2} {feasible:>10} {:>12} {:>12} {winner:>10} {hybrid_best}",
            fmt(p_rr),
            fmt(p_ca),
        );
    }

    println!(
        "\nReading the sweep: larger miss penalties stretch every WCET, so sampling\n\
         periods lengthen and the idle-time constraint (4) bites — the feasible\n\
         space collapses as the penalty grows, and dense schedules like (3,2,3)\n\
         are the first to lose idle feasibility (their last task's gap includes\n\
         everyone else's inflated WCETs). The practical conclusion: the optimal\n\
         cache-aware schedule is platform-specific and must be re-derived when\n\
         the memory timing changes; pass --search to watch the optimum move."
    );
    Ok(())
}
