//! Classical simulated annealing — the baseline the paper's hybrid
//! algorithm borrows its tolerance feature from (Section IV).

use crate::{CacheSession, Result, ScheduleEvaluator, ScheduleSpace, SearchError, SearchReport};
use cacs_sched::Schedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated-annealing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Initial temperature (objective units).
    pub initial_temperature: f64,
    /// Multiplicative cooling factor per step, in `(0, 1)`.
    pub cooling: f64,
    /// Number of proposal steps.
    pub steps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            initial_temperature: 0.1,
            cooling: 0.95,
            steps: 200,
            seed: 0xA11EA1,
        }
    }
}

impl AnnealConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        if !self.initial_temperature.is_finite() || self.initial_temperature <= 0.0 {
            return Err(SearchError::InvalidConfig {
                parameter: "initial_temperature must be positive",
            });
        }
        if !(0.0 < self.cooling && self.cooling < 1.0) {
            return Err(SearchError::InvalidConfig {
                parameter: "cooling must be in (0, 1)",
            });
        }
        if self.steps == 0 {
            return Err(SearchError::InvalidConfig {
                parameter: "steps must be at least 1",
            });
        }
        Ok(())
    }
}

/// One annealing walk from `start` against one search's session of
/// the run's cache, seeded with the engine-derived per-start `seed`
/// ([`crate::derive_start_seed`]). The engine ([`crate::run_multistart`])
/// has already validated `config`, the app count and `start`.
///
/// Proposals are unit steps in a random dimension; acceptance follows the
/// Metropolis criterion on the (maximised) objective. Infeasible proposals
/// are always rejected.
pub(crate) fn anneal_core<E: ScheduleEvaluator + ?Sized>(
    memo: &CacheSession<'_, '_, E>,
    space: &ScheduleSpace,
    start: &Schedule,
    config: &AnnealConfig,
    seed: u64,
) -> SearchReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = space.app_count();

    let mut current = start.clone();
    let mut current_value = memo.evaluate(&current).unwrap_or(f64::NEG_INFINITY);
    let mut best = current.clone();
    let mut best_value = current_value;
    let mut trajectory = vec![current.clone()];
    let mut temperature = config.initial_temperature;

    for _ in 0..config.steps {
        let dim = rng.gen_range(0..n);
        let delta = if rng.gen_bool(0.5) { 1 } else { -1 };
        if let Some(candidate) = current.step(dim, delta) {
            if space.contains(&candidate) && memo.idle_feasible(&candidate) {
                let value = memo.evaluate(&candidate).unwrap_or(f64::NEG_INFINITY);
                let accept = if value >= current_value {
                    true
                } else if value.is_finite() {
                    let p = ((value - current_value) / temperature).exp();
                    rng.gen_bool(p.clamp(0.0, 1.0))
                } else {
                    false
                };
                if accept {
                    current = candidate;
                    current_value = value;
                    trajectory.push(current.clone());
                    if value > best_value {
                        best_value = value;
                        best = current.clone();
                    }
                }
            }
        }
        temperature *= config.cooling;
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

    fn anneal<E: ScheduleEvaluator>(
        eval: &E,
        space: &ScheduleSpace,
        start: &Schedule,
        config: &AnnealConfig,
    ) -> Result<SearchReport> {
        run_one(eval, space, start, &StrategyConfig::Anneal(*config))
    }

    #[test]
    fn finds_peak_of_simple_objective() {
        let eval = FnEvaluator::new(2, |s: &Schedule| {
            let c = s.counts();
            Some(-((c[0] as f64 - 3.0).powi(2) + (c[1] as f64 - 2.0).powi(2)))
        });
        let space = ScheduleSpace::new(vec![6, 6]).unwrap();
        let report = anneal(
            &eval,
            &space,
            &Schedule::new(vec![6, 6]).unwrap(),
            &AnnealConfig {
                steps: 500,
                ..AnnealConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.best.unwrap().counts(), &[3, 2]);
    }

    #[test]
    fn escapes_local_optimum_with_high_temperature() {
        let values = [0.0, 0.5, 1.0, 0.2, 1.1, 2.0, 0.1];
        let eval = FnEvaluator::new(1, move |s: &Schedule| Some(values[s.counts()[0] as usize]));
        let space = ScheduleSpace::new(vec![6]).unwrap();
        let report = anneal(
            &eval,
            &space,
            &Schedule::new(vec![2]).unwrap(), // start on the local peak
            &AnnealConfig {
                initial_temperature: 1.0,
                cooling: 0.99,
                steps: 400,
                seed: 5,
            },
        )
        .unwrap();
        assert_eq!(report.best.unwrap().counts(), &[5]);
    }

    #[test]
    fn typically_needs_more_evaluations_than_hybrid() {
        use crate::HybridConfig;
        let eval = FnEvaluator::new(3, |s: &Schedule| {
            let c = s.counts();
            Some(
                -((c[0] as f64 - 3.0).powi(2)
                    + (c[1] as f64 - 2.0).powi(2)
                    + (c[2] as f64 - 3.0).powi(2)),
            )
        });
        let space = ScheduleSpace::new(vec![6, 6, 6]).unwrap();
        let start = Schedule::new(vec![1, 1, 1]).unwrap();
        let hybrid = run_one(
            &eval,
            &space,
            &start,
            &StrategyConfig::Hybrid(HybridConfig::default()),
        )
        .unwrap();
        let sa = anneal(
            &eval,
            &space,
            &start,
            &AnnealConfig {
                steps: 400,
                initial_temperature: 1.0,
                cooling: 0.99,
                seed: 1,
            },
        )
        .unwrap();
        assert!(sa.evaluations >= hybrid.evaluations);
        assert_eq!(sa.best.unwrap().counts(), hybrid.best.unwrap().counts());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let eval = FnEvaluator::new(1, |s: &Schedule| Some(-(s.counts()[0] as f64)));
        let space = ScheduleSpace::new(vec![5]).unwrap();
        let start = Schedule::new(vec![3]).unwrap();
        let config = AnnealConfig::default();
        let a = anneal(&eval, &space, &start, &config).unwrap();
        let b = anneal(&eval, &space, &start, &config).unwrap();
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn config_validation() {
        let eval = FnEvaluator::new(1, |_: &Schedule| Some(0.0));
        let space = ScheduleSpace::new(vec![3]).unwrap();
        let start = Schedule::new(vec![1]).unwrap();
        let mut c = AnnealConfig {
            cooling: 1.5,
            ..AnnealConfig::default()
        };
        assert!(anneal(&eval, &space, &start, &c).is_err());
        c = AnnealConfig::default();
        c.initial_temperature = 0.0;
        assert!(anneal(&eval, &space, &start, &c).is_err());
        c = AnnealConfig::default();
        c.steps = 0;
        assert!(anneal(&eval, &space, &start, &c).is_err());
    }
}
