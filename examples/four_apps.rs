//! Scaling the co-design to four applications.
//!
//! The paper motivates its hybrid search with the exponential growth of
//! the schedule space: `Π|m_i|` candidates, each costing a full holistic
//! controller design. This example runs the *extended* case study — the
//! paper's three applications plus an electronic-throttle loop
//! (`cacs::apps::extended_case_study`) — and compares:
//!
//! * the size of the idle-feasible schedule space at n = 3 vs n = 4,
//! * the evaluation counts of hybrid search, tabu search and the GA
//!   against exhaustive enumeration on the 4-D space, and
//! * the best schedule found.
//!
//! Run with: `cargo run --release --example four_apps [--exhaustive]`
//! (exhaustive enumeration of the 4-D space takes a few minutes at full
//! budget; the default run uses the reduced budget and skips it unless
//! asked).

use cacs::apps::{extended_case_study, paper_case_study};
use cacs::core::{CodesignProblem, EvaluationConfig};
use cacs::sched::Schedule;
use cacs::search::{HybridConfig, StrategyConfig};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run_exhaustive = std::env::args().any(|a| a == "--exhaustive");

    // Feasible-space growth: n = 3 vs n = 4.
    for (label, problem) in [
        (
            "paper (n = 3)",
            CodesignProblem::from_case_study(&paper_case_study()?, EvaluationConfig::fast())?,
        ),
        (
            "extended (n = 4)",
            CodesignProblem::from_case_study(&extended_case_study()?, EvaluationConfig::fast())?,
        ),
    ] {
        let space = problem.schedule_space()?;
        let feasible = space
            .iter()
            .filter(|s| problem.idle_feasible_schedule(s))
            .count();
        println!(
            "{label}: box {:?} = {} schedules, {} idle-feasible",
            space.max_counts(),
            space.len(),
            feasible
        );
    }

    let problem =
        CodesignProblem::from_case_study(&extended_case_study()?, EvaluationConfig::fast())?;

    // Hybrid search from round-robin plus one dense start.
    println!("\n== hybrid search on the 4-app problem (fast budget) ==");
    let starts = [Schedule::round_robin(4)?, Schedule::new(vec![3, 2, 3, 2])?];
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
                .map_or("<none>".to_string(), ToString::to_string),
            s.report.best_value,
            s.report.evaluations
        );
    }
    if let Some((best, value)) = &outcome.best {
        println!(
            "  hybrid best: {best} with P_all = {value:.3} ({:.1} s)",
            t0.elapsed().as_secs_f64()
        );
    }

    if run_exhaustive {
        println!("\n== exhaustive verification (4-D space) ==");
        // cacs-lint: allow(wall-clock, reason = "example prints elapsed wall time; results never depend on it")
        let t0 = Instant::now();
        let exhaustive = problem.optimize_exhaustive()?;
        println!(
            "  evaluated {} schedules in {:.1} s; optimum {} with P_all = {:.3}",
            exhaustive.evaluated,
            t0.elapsed().as_secs_f64(),
            exhaustive
                .best
                .as_ref()
                .map_or("<none>".to_string(), ToString::to_string),
            exhaustive.best_value
        );
        if let (Some((hybrid_best, hybrid_value)), Some(ex_best)) =
            (&outcome.best, &exhaustive.best)
        {
            println!(
                "  hybrid found {hybrid_best} ({hybrid_value:.3}) vs exhaustive {ex_best} \
                 ({:.3}) at {:.1}% of the evaluations",
                exhaustive.best_value,
                100.0
                    * outcome
                        .searches
                        .iter()
                        .map(|s| s.report.evaluations)
                        .sum::<usize>() as f64
                    / exhaustive.evaluated as f64
            );
        }
    } else {
        println!("\n(pass --exhaustive to verify against full enumeration of the 4-D space)");
    }

    Ok(())
}
