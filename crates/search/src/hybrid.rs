//! The paper's hybrid search algorithm (Section IV).
//!
//! Gradient-based searches need few objective evaluations but get trapped
//! in local optima; simulated annealing escapes them but is evaluation-
//! hungry. The hybrid: build a **1-D quadratic model per dimension** from
//! the two unit neighbours, step (size 1) along the feasible direction
//! with the best positive gradient, and borrow two annealing features —
//! a *tolerance* that accepts bounded worsening, and *parallel
//! multistart*.
//!
//! The multistart is [`crate::run_multistart`] with
//! [`crate::StrategyConfig::Hybrid`]: one OS thread per start over a
//! [`crate::SharedEvalCache`], so schedules probed by several searches
//! are evaluated once globally while each report still carries that
//! search's own unique-evaluation count. Each search walks sequentially
//! inside its start's thread.

use crate::{CacheSession, Result, ScheduleEvaluator, ScheduleSpace, SearchError, SearchReport};
use cacs_sched::Schedule;
use std::collections::HashSet;

/// Configuration of the hybrid search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridConfig {
    /// Accept a move that worsens the objective by at most this much
    /// (the simulated-annealing feature; `0.0` = strict ascent).
    pub tolerance: f64,
    /// Hard cap on the number of moves (defensive; the visited-set guard
    /// normally stops much earlier).
    pub max_steps: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            tolerance: 0.02,
            max_steps: 100,
        }
    }
}

impl HybridConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        if !self.tolerance.is_finite() || self.tolerance < 0.0 {
            return Err(SearchError::InvalidConfig {
                parameter: "tolerance must be finite and non-negative",
            });
        }
        if self.max_steps == 0 {
            return Err(SearchError::InvalidConfig {
                parameter: "max_steps must be at least 1",
            });
        }
        Ok(())
    }
}

/// The search proper: one hybrid walk from `start` against one
/// search's session of the run's cache. The engine
/// ([`crate::run_multistart`]) has already validated `config`, the app
/// count and `start`.
pub(crate) fn hybrid_search_core<E: ScheduleEvaluator + ?Sized>(
    memo: &CacheSession<'_, '_, E>,
    space: &ScheduleSpace,
    start: &Schedule,
    config: &HybridConfig,
) -> SearchReport {
    let n = space.app_count();

    // Objective as a total function: -inf marks infeasible points so the
    // gradient model can still be built next to them.
    let score = |s: &Schedule| -> f64 {
        if !space.contains(s) || !memo.idle_feasible(s) {
            return f64::NEG_INFINITY;
        }
        memo.evaluate(s).unwrap_or(f64::NEG_INFINITY)
    };

    let mut current = start.clone();
    let mut current_value = score(&current);
    let mut best = current.clone();
    let mut best_value = current_value;
    let mut trajectory = vec![current.clone()];
    let mut visited: HashSet<Vec<u32>> = HashSet::new();
    visited.insert(current.counts().to_vec());

    for _ in 0..config.max_steps {
        // Build the 1-D quadratic model per dimension from the two unit
        // neighbours; the memo serves probes earlier steps already paid
        // for.
        let neighbours: Vec<Option<Schedule>> = (0..n)
            .flat_map(|dim| [current.step(dim, 1), current.step(dim, -1)])
            .collect();
        let scores: Vec<f64> = neighbours
            .iter()
            .map(|cand| cand.as_ref().map_or(f64::NEG_INFINITY, score))
            .collect();

        let mut moves: Vec<(f64, Schedule, f64)> = Vec::new(); // (gradient, candidate, value)
        for (dim, pair) in neighbours.chunks_exact(2).enumerate() {
            let (up, down) = (&pair[0], &pair[1]);
            let (f_up, f_down) = (scores[2 * dim], scores[2 * dim + 1]);

            // Gradient of the quadratic fit at the centre. Infeasible
            // neighbours degrade to one-sided differences.
            let gradient = match (f_up.is_finite(), f_down.is_finite()) {
                (true, true) => (f_up - f_down) / 2.0,
                (true, false) => f_up - current_value,
                (false, true) => current_value - f_down,
                (false, false) => continue,
            };
            // The actual move goes towards the better neighbour.
            let (candidate, value) = if f_up >= f_down {
                match up {
                    Some(s) if f_up.is_finite() => (s.clone(), f_up),
                    _ => continue,
                }
            } else {
                match down {
                    Some(s) if f_down.is_finite() => (s.clone(), f_down),
                    _ => continue,
                }
            };
            moves.push((gradient, candidate, value));
        }

        // Best positive gradient first; feasibility is already encoded
        // (infeasible candidates never enter `moves`).
        moves.sort_by(|a, b| b.0.total_cmp(&a.0));

        let mut stepped = false;
        for (_, candidate, value) in moves {
            // Accept improvement, or tolerated worsening onto a fresh
            // point (the annealing feature that escapes local optima).
            let improves = value > current_value;
            let tolerated =
                value > current_value - config.tolerance && !visited.contains(candidate.counts());
            if improves || tolerated {
                visited.insert(candidate.counts().to_vec());
                current = candidate;
                current_value = value;
                trajectory.push(current.clone());
                if current_value > best_value {
                    best_value = current_value;
                    best = current.clone();
                }
                stepped = true;
                break;
            }
        }
        if !stepped {
            break; // no improvement achievable: converged
        }
    }

    SearchReport {
        best: if best_value.is_finite() {
            Some(best)
        } else {
            None
        },
        best_value,
        evaluations: memo.unique_evaluations(),
        trajectory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{strategy::run_one, FnEvaluator, StrategyConfig};

    fn search<E: ScheduleEvaluator>(
        eval: &E,
        space: &ScheduleSpace,
        start: &Schedule,
        config: &HybridConfig,
    ) -> Result<SearchReport> {
        run_one(eval, space, start, &StrategyConfig::Hybrid(*config))
    }

    /// Concave paraboloid peaking at (3, 2, 3) — loosely the paper's
    /// optimal schedule shape.
    fn paraboloid() -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync> {
        FnEvaluator::new(3, |s: &Schedule| {
            let c = s.counts();
            let (a, b, d) = (c[0] as f64, c[1] as f64, c[2] as f64);
            Some(0.2 - 0.01 * ((a - 3.0).powi(2) + (b - 2.0).powi(2) + (d - 3.0).powi(2)))
        })
    }

    #[test]
    fn finds_global_peak_of_concave_objective() {
        let eval = paraboloid();
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        for start in [vec![4, 2, 2], vec![1, 2, 1], vec![6, 6, 6]] {
            let report = search(
                &eval,
                &space,
                &Schedule::new(start.clone()).unwrap(),
                &HybridConfig::default(),
            )
            .unwrap();
            assert_eq!(
                report.best.as_ref().unwrap().counts(),
                &[3, 2, 3],
                "from start {start:?}"
            );
            assert!((report.best_value - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn uses_far_fewer_evaluations_than_exhaustive() {
        let eval = paraboloid();
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        let report = search(
            &eval,
            &space,
            &Schedule::new(vec![4, 2, 2]).unwrap(),
            &HybridConfig::default(),
        )
        .unwrap();
        assert!(
            report.evaluations < 40,
            "hybrid used {} of 216 evaluations",
            report.evaluations
        );
    }

    #[test]
    fn tolerance_escapes_a_local_optimum() {
        // 1-D objective with a local peak at 2 (value 1.0), a dip at 3
        // (0.95) and the global peak at 5 (2.0).
        let values = [0.0, 0.5, 1.0, 0.95, 1.2, 2.0, 0.1];
        let eval = FnEvaluator::new(1, move |s: &Schedule| Some(values[s.counts()[0] as usize]));
        let space = ScheduleSpace::new(vec![6]).unwrap();
        let start = Schedule::new(vec![1]).unwrap();

        // Strict ascent gets stuck on the local peak at 2.
        let strict = search(
            &eval,
            &space,
            &start,
            &HybridConfig {
                tolerance: 0.0,
                max_steps: 50,
            },
        )
        .unwrap();
        assert_eq!(strict.best.as_ref().unwrap().counts(), &[2]);

        // A tolerance of 0.1 crosses the 0.05-deep dip and reaches 5.
        let tolerant = search(
            &eval,
            &space,
            &start,
            &HybridConfig {
                tolerance: 0.1,
                max_steps: 50,
            },
        )
        .unwrap();
        assert_eq!(tolerant.best.as_ref().unwrap().counts(), &[5]);
        assert!((tolerant.best_value - 2.0).abs() < 1e-12);
    }

    #[test]
    fn respects_idle_feasibility() {
        // Objective grows with m1 but idle feasibility caps m1 at 3.
        let eval = FnEvaluator::with_idle_check(
            2,
            |s: &Schedule| Some(f64::from(s.counts()[0])),
            |s: &Schedule| s.counts()[0] <= 3,
        );
        let space = ScheduleSpace::new(vec![8, 2]).unwrap();
        let report = search(
            &eval,
            &space,
            &Schedule::new(vec![1, 1]).unwrap(),
            &HybridConfig::default(),
        )
        .unwrap();
        assert_eq!(report.best.as_ref().unwrap().counts()[0], 3);
    }

    #[test]
    fn reports_trajectory_from_start() {
        let eval = paraboloid();
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        let start = Schedule::new(vec![1, 2, 1]).unwrap();
        let report = search(&eval, &space, &start, &HybridConfig::default()).unwrap();
        assert_eq!(report.trajectory[0], start);
        // Consecutive trajectory points differ by exactly one unit step.
        for w in report.trajectory.windows(2) {
            let diff: u32 = w[0]
                .counts()
                .iter()
                .zip(w[1].counts())
                .map(|(a, b)| a.abs_diff(*b))
                .sum();
            assert_eq!(diff, 1);
        }
    }

    #[test]
    fn start_out_of_space_rejected() {
        let eval = paraboloid();
        let space = ScheduleSpace::new(vec![2, 2, 2]).unwrap();
        let start = Schedule::new(vec![3, 1, 1]).unwrap();
        assert!(matches!(
            search(&eval, &space, &start, &HybridConfig::default()),
            Err(SearchError::StartOutOfSpace)
        ));
    }

    #[test]
    fn config_validation() {
        let eval = paraboloid();
        let space = ScheduleSpace::new(vec![2, 2, 2]).unwrap();
        let start = Schedule::new(vec![1, 1, 1]).unwrap();
        assert!(search(
            &eval,
            &space,
            &start,
            &HybridConfig {
                tolerance: -1.0,
                max_steps: 10
            }
        )
        .is_err());
        assert!(search(
            &eval,
            &space,
            &start,
            &HybridConfig {
                tolerance: 0.0,
                max_steps: 0
            }
        )
        .is_err());
    }
}
