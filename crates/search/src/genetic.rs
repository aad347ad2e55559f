//! Genetic-algorithm baseline for the discrete schedule space.
//!
//! The paper compares its hybrid search only against exhaustive
//! enumeration; a GA is the stock population-based alternative for
//! nonlinear discrete optimisation, so it is provided here as a second
//! baseline. Like [`crate::simulated_annealing`] it typically needs far
//! more full evaluations than the hybrid gradient search to reach the same
//! optimum — which is exactly the paper's argument for the hybrid design
//! (Section IV: each evaluation costs seconds to hours).

use crate::{
    CountingScheduleEvaluator, Result, ScheduleEvaluator, ScheduleSpace, SearchError, SearchReport,
    SharedEvalCache,
};
use cacs_sched::Schedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Genetic-algorithm configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneticConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Number of generations to evolve.
    pub generations: usize,
    /// Probability of per-dimension crossover mixing (uniform crossover).
    pub crossover_rate: f64,
    /// Probability of a ±1 mutation per dimension.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Number of elite individuals copied unchanged into the next
    /// generation.
    pub elitism: usize,
    /// RNG seed (searches are deterministic given the seed).
    pub seed: u64,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig {
            population: 20,
            generations: 30,
            crossover_rate: 0.9,
            mutation_rate: 0.25,
            tournament: 3,
            elitism: 2,
            seed: 0x6E6E71C,
        }
    }
}

impl GeneticConfig {
    fn validate(&self) -> Result<()> {
        if self.population < 2 {
            return Err(SearchError::InvalidConfig {
                parameter: "population must be at least 2",
            });
        }
        if self.generations == 0 {
            return Err(SearchError::InvalidConfig {
                parameter: "generations must be at least 1",
            });
        }
        if !(0.0..=1.0).contains(&self.crossover_rate) {
            return Err(SearchError::InvalidConfig {
                parameter: "crossover_rate must be in [0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) {
            return Err(SearchError::InvalidConfig {
                parameter: "mutation_rate must be in [0, 1]",
            });
        }
        if self.tournament == 0 {
            return Err(SearchError::InvalidConfig {
                parameter: "tournament must be at least 1",
            });
        }
        if self.elitism >= self.population {
            return Err(SearchError::InvalidConfig {
                parameter: "elitism must be smaller than the population",
            });
        }
        Ok(())
    }
}

/// One individual with its cached fitness (`−∞` for infeasible).
#[derive(Clone)]
struct Individual {
    schedule: Schedule,
    fitness: f64,
}

fn random_schedule(space: &ScheduleSpace, rng: &mut StdRng) -> Schedule {
    let counts: Vec<u32> = space
        .max_counts()
        .iter()
        .map(|&max| rng.gen_range(1..=max))
        .collect();
    Schedule::new(counts).expect("counts within a valid space are valid")
}

/// Runs a generational GA over the schedule space, maximising the
/// evaluator's objective.
///
/// Idle-infeasible individuals are never submitted to the expensive
/// evaluator (they score `−∞` directly, mirroring how the other searches
/// exclude them from the space); deadline-infeasible ones (evaluator
/// returns `None`) also score `−∞` but *do* count as evaluations, exactly
/// like the paper's exhaustive count of 76 schedules including 2
/// deadline-infeasible ones.
///
/// # Errors
///
/// * [`SearchError::InvalidConfig`] for out-of-range GA parameters.
/// * [`SearchError::AppCountMismatch`] if the evaluator and space disagree.
///
/// # Example
///
/// ```
/// use cacs_search::{genetic_search, FnEvaluator, GeneticConfig, ScheduleSpace};
/// use cacs_sched::Schedule;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let eval = FnEvaluator::new(1, |s: &Schedule| Some(-(s.counts()[0] as f64 - 4.0).powi(2)));
/// let space = ScheduleSpace::new(vec![8])?;
/// let report = genetic_search(&eval, &space, &GeneticConfig::default())?;
/// assert_eq!(report.best.as_ref().unwrap().counts(), &[4]);
/// # Ok(())
/// # }
/// ```
pub fn genetic_search<E: ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    space: &ScheduleSpace,
    config: &GeneticConfig,
) -> Result<SearchReport> {
    let memo = SharedEvalCache::new(evaluator);
    genetic_core(&memo, space, None, config, config.seed)
}

/// The generational loop proper, generic over the caching layer so one
/// search can run against its own memo ([`genetic_search`]) or a
/// per-search session of a shared cache (via the
/// [`crate::run_multistart`] engine, which also derives the per-start
/// `seed`).
///
/// When `start` is given it joins the initial population as individual
/// 0 (the rest stay random draws) — the GA's reading of "a search from
/// this start point", keeping the engine's start-based interface
/// uniform across strategies.
pub(crate) fn genetic_core<E: CountingScheduleEvaluator>(
    memo: &E,
    space: &ScheduleSpace,
    start: Option<&Schedule>,
    config: &GeneticConfig,
    seed: u64,
) -> Result<SearchReport> {
    config.validate()?;
    if memo.app_count() != space.app_count() {
        return Err(SearchError::AppCountMismatch {
            expected: memo.app_count(),
            actual: space.app_count(),
        });
    }
    if let Some(start) = start {
        if !space.contains(start) || !memo.idle_feasible(start) {
            return Err(SearchError::StartOutOfSpace);
        }
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let n = space.app_count();

    let fitness_of = |s: &Schedule, memo: &E| -> f64 {
        if !memo.idle_feasible(s) {
            return f64::NEG_INFINITY;
        }
        memo.evaluate(s).unwrap_or(f64::NEG_INFINITY)
    };

    let mut population: Vec<Individual> = (0..config.population)
        .map(|i| {
            let schedule = match (i, start) {
                (0, Some(start)) => start.clone(),
                _ => random_schedule(space, &mut rng),
            };
            let fitness = fitness_of(&schedule, memo);
            Individual { schedule, fitness }
        })
        .collect();

    let mut best = population
        .iter()
        .max_by(|a, b| a.fitness.total_cmp(&b.fitness))
        .expect("population non-empty")
        .clone();
    let mut trajectory = vec![best.schedule.clone()];

    for _ in 0..config.generations {
        // Elitism: carry the best individuals over unchanged.
        let mut sorted: Vec<Individual> = population.clone();
        sorted.sort_by(|a, b| b.fitness.total_cmp(&a.fitness));
        let mut next: Vec<Individual> = sorted[..config.elitism].to_vec();

        while next.len() < config.population {
            let parent_a = tournament(&population, config.tournament, &mut rng);
            let parent_b = tournament(&population, config.tournament, &mut rng);

            // Uniform crossover per dimension; with probability
            // 1 − crossover_rate the gene comes from parent A unchanged.
            let mut counts: Vec<u32> = (0..n)
                .map(|d| {
                    let mix = rng.gen::<f64>() < config.crossover_rate;
                    if mix && rng.gen_bool(0.5) {
                        parent_b.schedule.counts()[d]
                    } else {
                        parent_a.schedule.counts()[d]
                    }
                })
                .collect();

            // ±1 mutation, clamped to the box.
            for (d, c) in counts.iter_mut().enumerate() {
                if rng.gen::<f64>() < config.mutation_rate {
                    let delta: i64 = if rng.gen_bool(0.5) { 1 } else { -1 };
                    let moved = i64::from(*c) + delta;
                    *c = moved.clamp(1, i64::from(space.max_counts()[d])) as u32;
                }
            }

            let schedule = Schedule::new(counts).expect("clamped counts are valid");
            let fitness = fitness_of(&schedule, memo);
            next.push(Individual { schedule, fitness });
        }

        population = next;
        if let Some(gen_best) = population
            .iter()
            .max_by(|a, b| a.fitness.total_cmp(&b.fitness))
        {
            if gen_best.fitness > best.fitness {
                best = gen_best.clone();
                trajectory.push(best.schedule.clone());
            }
        }
    }

    Ok(SearchReport {
        best: if best.fitness.is_finite() {
            Some(best.schedule)
        } else {
            None
        },
        best_value: best.fitness,
        evaluations: memo.unique_evaluations(),
        trajectory,
    })
}

fn tournament<'a>(population: &'a [Individual], size: usize, rng: &mut StdRng) -> &'a Individual {
    let mut winner = &population[rng.gen_range(0..population.len())];
    for _ in 1..size {
        let challenger = &population[rng.gen_range(0..population.len())];
        if challenger.fitness > winner.fitness {
            winner = challenger;
        }
    }
    winner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnEvaluator;

    fn quadratic_eval() -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync> {
        FnEvaluator::new(3, |s: &Schedule| {
            let c = s.counts();
            Some(
                -((c[0] as f64 - 3.0).powi(2)
                    + (c[1] as f64 - 2.0).powi(2)
                    + (c[2] as f64 - 4.0).powi(2)),
            )
        })
    }

    #[test]
    fn finds_global_optimum_of_separable_objective() {
        let eval = quadratic_eval();
        let space = ScheduleSpace::new(vec![7, 7, 7]).unwrap();
        let report = genetic_search(&eval, &space, &GeneticConfig::default()).unwrap();
        assert_eq!(report.best.unwrap().counts(), &[3, 2, 4]);
        assert!((report.best_value - 0.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let eval = quadratic_eval();
        let space = ScheduleSpace::new(vec![7, 7, 7]).unwrap();
        let a = genetic_search(&eval, &space, &GeneticConfig::default()).unwrap();
        let b = genetic_search(&eval, &space, &GeneticConfig::default()).unwrap();
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(
            a.best.unwrap().counts().to_vec(),
            b.best.unwrap().counts().to_vec()
        );
    }

    #[test]
    fn respects_idle_feasibility_without_evaluating() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let eval = FnEvaluator::with_idle_check(
            2,
            |s: &Schedule| {
                CALLS.fetch_add(1, Ordering::SeqCst);
                let c = s.counts();
                Some(-((c[0] as f64 - 2.0).powi(2) + (c[1] as f64 - 2.0).powi(2)))
            },
            // Only schedules with first count <= 3 are idle-feasible.
            |s: &Schedule| s.counts()[0] <= 3,
        );
        let space = ScheduleSpace::new(vec![6, 6]).unwrap();
        let report = genetic_search(&eval, &space, &GeneticConfig::default()).unwrap();
        let best = report.best.unwrap();
        assert!(best.counts()[0] <= 3);
        assert_eq!(best.counts(), &[2, 2]);
    }

    #[test]
    fn all_infeasible_population_reports_none() {
        let eval = FnEvaluator::new(1, |_: &Schedule| None);
        let space = ScheduleSpace::new(vec![4]).unwrap();
        let report = genetic_search(&eval, &space, &GeneticConfig::default()).unwrap();
        assert!(report.best.is_none());
        assert_eq!(report.best_value, f64::NEG_INFINITY);
    }

    #[test]
    fn evaluation_count_bounded_by_space_size() {
        // The memoised count can never exceed the number of distinct
        // schedules in the box.
        let eval = quadratic_eval();
        let space = ScheduleSpace::new(vec![3, 3, 3]).unwrap();
        let report = genetic_search(&eval, &space, &GeneticConfig::default()).unwrap();
        assert!(report.evaluations <= 27);
    }

    #[test]
    fn config_validation() {
        let eval = FnEvaluator::new(1, |_: &Schedule| Some(0.0));
        let space = ScheduleSpace::new(vec![3]).unwrap();
        for bad in [
            GeneticConfig {
                population: 1,
                ..GeneticConfig::default()
            },
            GeneticConfig {
                generations: 0,
                ..GeneticConfig::default()
            },
            GeneticConfig {
                crossover_rate: 1.5,
                ..GeneticConfig::default()
            },
            GeneticConfig {
                mutation_rate: -0.1,
                ..GeneticConfig::default()
            },
            GeneticConfig {
                tournament: 0,
                ..GeneticConfig::default()
            },
            GeneticConfig {
                elitism: 20,
                ..GeneticConfig::default()
            },
        ] {
            assert!(genetic_search(&eval, &space, &bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn app_count_mismatch_rejected() {
        let eval = FnEvaluator::new(2, |_: &Schedule| Some(0.0));
        let space = ScheduleSpace::new(vec![3]).unwrap();
        assert!(matches!(
            genetic_search(&eval, &space, &GeneticConfig::default()),
            Err(SearchError::AppCountMismatch { .. })
        ));
    }

    #[test]
    fn trajectory_is_monotone_improving() {
        let eval = quadratic_eval();
        let space = ScheduleSpace::new(vec![7, 7, 7]).unwrap();
        let report = genetic_search(&eval, &space, &GeneticConfig::default()).unwrap();
        let values: Vec<f64> = report
            .trajectory
            .iter()
            .map(|s| eval.evaluate(s).unwrap())
            .collect();
        for pair in values.windows(2) {
            assert!(pair[1] >= pair[0], "trajectory regressed: {values:?}");
        }
    }
}
