//! Tabu search baseline: deterministic best-neighbour descent with a
//! short-term memory that forbids revisiting recent schedules.
//!
//! Tabu search probes **every** ±1 neighbour each iteration (up to `2n`
//! evaluations), so on expensive objectives it sits between the paper's
//! hybrid search (which also probes neighbours but stops at local optima
//! modulo a tolerance) and exhaustive enumeration. Its strength is that
//! the tabu memory lets it walk *through* local optima deterministically,
//! without the annealing lottery.

use crate::{CacheSession, Result, ScheduleEvaluator, ScheduleSpace, SearchError, SearchReport};
use cacs_sched::Schedule;
use std::collections::HashMap;

/// Tabu-search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TabuConfig {
    /// Maximum number of moves (iterations).
    pub iterations: usize,
    /// How many iterations a visited schedule stays tabu.
    pub tenure: usize,
    /// Stop early after this many consecutive non-improving moves.
    pub stall_limit: usize,
}

impl Default for TabuConfig {
    fn default() -> Self {
        TabuConfig {
            iterations: 60,
            tenure: 8,
            stall_limit: 15,
        }
    }
}

impl TabuConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        if self.iterations == 0 {
            return Err(SearchError::InvalidConfig {
                parameter: "iterations must be at least 1",
            });
        }
        if self.tenure == 0 {
            return Err(SearchError::InvalidConfig {
                parameter: "tenure must be at least 1",
            });
        }
        if self.stall_limit == 0 {
            return Err(SearchError::InvalidConfig {
                parameter: "stall_limit must be at least 1",
            });
        }
        Ok(())
    }
}

/// One tabu walk from `start`, maximising the evaluator's objective,
/// against one search's session of the run's cache. The engine
/// ([`crate::run_multistart`]) has already validated `config`, the app
/// count and `start`.
///
/// Each iteration evaluates all feasible ±1 neighbours of the current
/// schedule and moves to the best one that is not tabu — or to a tabu one
/// if it beats the global best (aspiration criterion). Visited schedules
/// become tabu for [`TabuConfig::tenure`] iterations.
pub(crate) fn tabu_core<E: ScheduleEvaluator + ?Sized>(
    memo: &CacheSession<'_, '_, E>,
    space: &ScheduleSpace,
    start: &Schedule,
    config: &TabuConfig,
) -> SearchReport {
    let n = space.app_count();

    let mut current = start.clone();
    let mut current_value = memo.evaluate(&current).unwrap_or(f64::NEG_INFINITY);
    let mut best = current.clone();
    let mut best_value = current_value;
    let mut trajectory = vec![current.clone()];

    // Schedule key → iteration index until which it is tabu.
    let mut tabu: HashMap<Vec<u32>, usize> = HashMap::new();
    tabu.insert(current.counts().to_vec(), config.tenure);

    let mut stall = 0usize;
    for iteration in 1..=config.iterations {
        // Enumerate all feasible ±1 neighbours.
        let mut candidates: Vec<(Schedule, f64)> = Vec::with_capacity(2 * n);
        for dim in 0..n {
            for delta in [-1i64, 1] {
                let Some(neighbor) = current.step(dim, delta) else {
                    continue;
                };
                if !space.contains(&neighbor) || !memo.idle_feasible(&neighbor) {
                    continue;
                }
                let value = memo.evaluate(&neighbor).unwrap_or(f64::NEG_INFINITY);
                candidates.push((neighbor, value));
            }
        }
        if candidates.is_empty() {
            break;
        }

        // Best non-tabu candidate, or a tabu one that beats the global
        // best (aspiration).
        let chosen = candidates
            .iter()
            .filter(|(s, v)| {
                let is_tabu = tabu
                    .get(s.counts())
                    .is_some_and(|&until| until >= iteration);
                !is_tabu || *v > best_value
            })
            .max_by(|a, b| a.1.total_cmp(&b.1));
        // When everything is tabu and nothing aspirational, take the
        // candidate whose tabu expires soonest (standard tie-breaking —
        // stopping here would freeze the walk in narrow corridors).
        let fallback;
        let (next, next_value) = match chosen {
            Some(c) => c,
            None => {
                fallback = candidates
                    .iter()
                    .min_by_key(|(s, _)| tabu.get(s.counts()).copied().unwrap_or(0))
                    .expect("candidates non-empty");
                fallback
            }
        };

        current = next.clone();
        current_value = *next_value;
        tabu.insert(current.counts().to_vec(), iteration + config.tenure);
        trajectory.push(current.clone());

        if current_value > best_value {
            best_value = current_value;
            best = current.clone();
            stall = 0;
        } else {
            stall += 1;
            if stall >= config.stall_limit {
                break;
            }
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

    fn tabu<E: ScheduleEvaluator>(
        eval: &E,
        space: &ScheduleSpace,
        start: &Schedule,
        config: &TabuConfig,
    ) -> Result<SearchReport> {
        run_one(eval, space, start, &StrategyConfig::Tabu(*config))
    }

    #[test]
    fn finds_peak_of_quadratic() {
        let eval = FnEvaluator::new(2, |s: &Schedule| {
            let c = s.counts();
            Some(-((c[0] as f64 - 3.0).powi(2) + (c[1] as f64 - 5.0).powi(2)))
        });
        let space = ScheduleSpace::new(vec![6, 6]).unwrap();
        let report = tabu(
            &eval,
            &space,
            &Schedule::new(vec![1, 1]).unwrap(),
            &TabuConfig::default(),
        )
        .unwrap();
        assert_eq!(report.best.unwrap().counts(), &[3, 5]);
    }

    #[test]
    fn walks_through_local_optimum() {
        // Objective with a local peak at 2 and the global peak at 5;
        // plain hill climbing from 0 stops at 2.
        let values = [0.0, 0.5, 1.0, 0.2, 1.1, 2.0, 0.1];
        let eval = FnEvaluator::new(1, move |s: &Schedule| Some(values[s.counts()[0] as usize]));
        let space = ScheduleSpace::new(vec![6]).unwrap();
        let report = tabu(
            &eval,
            &space,
            &Schedule::new(vec![2]).unwrap(), // start on the local peak
            &TabuConfig::default(),
        )
        .unwrap();
        assert_eq!(report.best.unwrap().counts(), &[5]);
    }

    #[test]
    fn is_deterministic() {
        let eval = FnEvaluator::new(2, |s: &Schedule| {
            let c = s.counts();
            Some(-((c[0] as f64 - 2.0).powi(2) + (c[1] as f64 - 2.0).powi(2)))
        });
        let space = ScheduleSpace::new(vec![5, 5]).unwrap();
        let start = Schedule::new(vec![5, 5]).unwrap();
        let a = tabu(&eval, &space, &start, &TabuConfig::default()).unwrap();
        let b = tabu(&eval, &space, &start, &TabuConfig::default()).unwrap();
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.trajectory.len(), b.trajectory.len());
    }

    #[test]
    fn stall_limit_stops_early() {
        // Flat objective: no improvement is ever possible after the start.
        let eval = FnEvaluator::new(1, |_: &Schedule| Some(1.0));
        let space = ScheduleSpace::new(vec![30]).unwrap();
        let config = TabuConfig {
            iterations: 1000,
            tenure: 3,
            stall_limit: 4,
        };
        let report = tabu(&eval, &space, &Schedule::new(vec![15]).unwrap(), &config).unwrap();
        // Start + at most stall_limit accepted moves.
        assert!(report.trajectory.len() <= 1 + 4 + 1);
    }

    #[test]
    fn respects_idle_feasibility() {
        let eval = FnEvaluator::with_idle_check(
            1,
            |s: &Schedule| Some(f64::from(s.counts()[0])),
            |s: &Schedule| s.counts()[0] <= 4, // larger counts are infeasible
        );
        let space = ScheduleSpace::new(vec![9]).unwrap();
        let report = tabu(
            &eval,
            &space,
            &Schedule::new(vec![1]).unwrap(),
            &TabuConfig::default(),
        )
        .unwrap();
        assert_eq!(report.best.unwrap().counts(), &[4]);
    }

    #[test]
    fn start_must_be_feasible() {
        let eval = FnEvaluator::with_idle_check(
            1,
            |_: &Schedule| Some(0.0),
            |s: &Schedule| s.counts()[0] <= 2,
        );
        let space = ScheduleSpace::new(vec![5]).unwrap();
        assert!(matches!(
            tabu(
                &eval,
                &space,
                &Schedule::new(vec![4]).unwrap(),
                &TabuConfig::default()
            ),
            Err(SearchError::StartOutOfSpace)
        ));
    }

    #[test]
    fn config_validation() {
        let eval = FnEvaluator::new(1, |_: &Schedule| Some(0.0));
        let space = ScheduleSpace::new(vec![3]).unwrap();
        let start = Schedule::new(vec![1]).unwrap();
        for bad in [
            TabuConfig {
                iterations: 0,
                ..TabuConfig::default()
            },
            TabuConfig {
                tenure: 0,
                ..TabuConfig::default()
            },
            TabuConfig {
                stall_limit: 0,
                ..TabuConfig::default()
            },
        ] {
            assert!(tabu(&eval, &space, &start, &bad).is_err());
        }
    }

    #[test]
    fn infeasible_objective_reports_none() {
        let eval = FnEvaluator::new(1, |_: &Schedule| None);
        let space = ScheduleSpace::new(vec![4]).unwrap();
        let report = tabu(
            &eval,
            &space,
            &Schedule::new(vec![2]).unwrap(),
            &TabuConfig::default(),
        )
        .unwrap();
        assert!(report.best.is_none());
    }
}
