//! The particle swarm optimiser itself.

use crate::{Bounds, PsoError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the swarm.
///
/// The defaults (30 particles, 120 iterations, constriction-style
/// coefficients) work well for the ≤ 12-dimensional gain/pole searches of
/// the control crate; raise the budget for harder landscapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsoConfig {
    /// Number of particles in the swarm.
    pub particles: usize,
    /// Number of iterations (velocity/position updates).
    pub iterations: usize,
    /// Inertia weight `w` (how much of the previous velocity survives).
    pub inertia: f64,
    /// Cognitive coefficient `c1` (pull towards each particle's own best).
    pub cognitive: f64,
    /// Social coefficient `c2` (pull towards the swarm best).
    pub social: f64,
    /// Stop early when the swarm best has not improved for this many
    /// iterations (`None` disables early stopping).
    pub stall_iterations: Option<usize>,
    /// RNG seed, for reproducible searches.
    pub seed: u64,
}

impl Default for PsoConfig {
    fn default() -> Self {
        PsoConfig {
            particles: 30,
            iterations: 120,
            inertia: 0.7298,
            cognitive: 1.4962,
            social: 1.4962,
            stall_iterations: None,
            seed: 0xC0FFEE,
        }
    }
}

impl PsoConfig {
    /// Returns the configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration with a different evaluation budget.
    pub fn with_budget(mut self, particles: usize, iterations: usize) -> Self {
        self.particles = particles;
        self.iterations = iterations;
        self
    }

    /// Canonical bit-pattern words identifying this configuration for
    /// cache keys: every field that shapes the search trajectory,
    /// floats by exact bit pattern ([`f64::to_bits`] — never float
    /// equality). Two configurations yield the same words iff a PSO
    /// run under them is bit-identical, so the words are safe
    /// ingredients for the deterministic evaluation caches.
    #[must_use]
    pub fn key_words(&self) -> [u64; 8] {
        [
            self.particles as u64,
            self.iterations as u64,
            self.inertia.to_bits(),
            self.cognitive.to_bits(),
            self.social.to_bits(),
            // A separate presence word keeps `None` distinct from
            // `Some(0)`.
            u64::from(self.stall_iterations.is_some()),
            self.stall_iterations.unwrap_or(0) as u64,
            self.seed,
        ]
    }

    fn validate(&self) -> Result<()> {
        if self.particles < 2 {
            return Err(PsoError::InvalidConfig {
                parameter: "particles must be at least 2",
            });
        }
        if self.iterations == 0 {
            return Err(PsoError::InvalidConfig {
                parameter: "iterations must be at least 1",
            });
        }
        for (v, parameter) in [
            (self.inertia, "inertia must be finite and non-negative"),
            (self.cognitive, "cognitive must be finite and non-negative"),
            (self.social, "social must be finite and non-negative"),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(PsoError::InvalidConfig { parameter });
            }
        }
        Ok(())
    }
}

/// Outcome of a PSO run.
#[derive(Debug, Clone, PartialEq)]
pub struct PsoResult {
    /// Best position found.
    pub best_position: Vec<f64>,
    /// Objective value at [`PsoResult::best_position`].
    pub best_value: f64,
    /// Total number of objective evaluations performed.
    pub evaluations: usize,
    /// Iterations actually executed (≤ configured, if early-stopped).
    pub iterations_run: usize,
}

/// A bounded PSO **minimiser**.
///
/// Constraints are handled by penalty: return a large (but finite) value
/// from the objective for infeasible points. `NaN` objective values are
/// treated as `+∞`.
///
/// # Example
///
/// ```
/// use cacs_pso::{Bounds, Pso, PsoConfig};
///
/// # fn main() -> Result<(), cacs_pso::PsoError> {
/// // Rosenbrock valley in 2-D; this objective ignores the bound and
/// // always returns the exact value.
/// let bounds = Bounds::symmetric(2, 2.0)?;
/// let pso = Pso::new(PsoConfig::default().with_budget(40, 300).with_seed(42));
/// let r = pso.minimize(&bounds, |x, _bound| {
///     (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
/// })?;
/// assert!(r.best_value < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pso {
    config: PsoConfig,
}

impl Pso {
    /// Creates an optimiser with the given configuration.
    pub fn new(config: PsoConfig) -> Self {
        Pso { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PsoConfig {
        &self.config
    }

    /// Minimises `objective` over `bounds`.
    ///
    /// The objective is called as `objective(x, bound)`. `bound` is the
    /// best value the particle scoring `x` has found so far, and `+∞`
    /// for the initial swarm. The swarm only asks whether `x` beats
    /// that bound, so the **bound contract** is: when the exact value
    /// at `x` would be `≥ bound`, the objective may return any value
    /// `≥ bound` instead (for example a cheap lower bound that already
    /// reaches it). Below the bound it must return the exact value. An
    /// objective that keeps the contract yields a [`PsoResult`]
    /// bit-identical to the always-exact one: same trajectory, best
    /// value, evaluation and iteration counts. An objective with no
    /// early exit just ignores the bound.
    ///
    /// ```
    /// use cacs_pso::{Bounds, Pso, PsoConfig};
    ///
    /// # fn main() -> Result<(), cacs_pso::PsoError> {
    /// let bounds = Bounds::symmetric(8, 5.0)?;
    /// let pso = Pso::new(PsoConfig::default().with_seed(3));
    /// let exact = pso.minimize(&bounds, |x, _| x.iter().map(|v| v * v).sum())?;
    /// // Stop summing once the partial sum of squares reaches the bound.
    /// let bounded = pso.minimize(&bounds, |x, bound| {
    ///     let mut sum = 0.0;
    ///     for v in x {
    ///         sum += v * v;
    ///         if sum >= bound {
    ///             break; // the remaining squares only add to it
    ///         }
    ///     }
    ///     sum
    /// })?;
    /// assert_eq!(exact, bounded);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// * [`PsoError::InvalidConfig`] for a bad configuration.
    /// * [`PsoError::DegenerateObjective`] if every sampled point returned
    ///   NaN.
    pub fn minimize(
        &self,
        bounds: &Bounds,
        objective: impl FnMut(&[f64], f64) -> f64,
    ) -> Result<PsoResult> {
        self.minimize_with_guesses(bounds, &[], objective)
    }

    /// Like [`Pso::minimize`], but seeds the first particles with the
    /// given initial guesses (clamped into the box). Useful to warm-start
    /// a high-dimensional search from a cheaper low-dimensional solution.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pso::minimize`]; guesses with the wrong
    /// dimension are rejected as [`PsoError::InvalidBounds`].
    pub fn minimize_with_guesses(
        &self,
        bounds: &Bounds,
        guesses: &[Vec<f64>],
        mut objective: impl FnMut(&[f64], f64) -> f64,
    ) -> Result<PsoResult> {
        self.config.validate()?;
        let dim = bounds.dim();
        if guesses.iter().any(|g| g.len() != dim) {
            return Err(PsoError::InvalidBounds {
                reason: "initial guess dimension mismatch",
            });
        }
        let n = self.config.particles;
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        let sanitize = |v: f64| if v.is_nan() { f64::INFINITY } else { v };

        // Initialise positions uniformly in the box; velocities in
        // ±width/2.
        let mut positions: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..dim)
                    .map(|d| rng.gen_range(bounds.lower()[d]..=bounds.upper()[d]))
                    .collect()
            })
            .collect();
        for (slot, guess) in positions.iter_mut().zip(guesses) {
            *slot = guess
                .iter()
                .enumerate()
                .map(|(d, &v)| bounds.clamp_value(d, v))
                .collect();
        }
        let mut velocities: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..dim)
                    .map(|d| {
                        let w = bounds.width(d).max(1e-12);
                        rng.gen_range(-w / 2.0..=w / 2.0)
                    })
                    .collect()
            })
            .collect();

        cacs_obs::metrics::PSO_RUNS.incr();
        let mut evaluations = n;
        cacs_obs::metrics::PSO_OBJECTIVE_CALLS.add(n as u64);
        let mut personal_best = positions.clone();
        let mut personal_value: Vec<f64> = positions
            .iter()
            .map(|p| sanitize(objective(p, f64::INFINITY)))
            .collect();

        let (mut g_idx, mut g_val) = personal_value
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least two particles");
        let mut global_best = personal_best[g_idx].clone();
        let mut global_value = g_val;

        let mut stall = 0usize;
        let mut iterations_run = 0usize;
        for _ in 0..self.config.iterations {
            iterations_run += 1;
            // The swarm is synchronous: every particle moves (in fixed
            // order, so the RNG stream is fixed) against the previous
            // iteration's global best before any is scored.
            for i in 0..n {
                for d in 0..dim {
                    let r1: f64 = rng.gen();
                    let r2: f64 = rng.gen();
                    let v = self.config.inertia * velocities[i][d]
                        + self.config.cognitive * r1 * (personal_best[i][d] - positions[i][d])
                        + self.config.social * r2 * (global_best[d] - positions[i][d]);
                    // Velocity clamping to the box width keeps the swarm
                    // from overshooting far outside the feasible region.
                    let vmax = bounds.width(d).max(1e-12);
                    velocities[i][d] = v.clamp(-vmax, vmax);
                    positions[i][d] = bounds.clamp_value(d, positions[i][d] + velocities[i][d]);
                }
            }

            evaluations += n;
            cacs_obs::metrics::PSO_OBJECTIVE_CALLS.add(n as u64);
            for i in 0..n {
                // The only read of an iteration value: under the bound
                // contract, any value ≥ the bound fails this test
                // exactly as the exact value would.
                let value = sanitize(objective(&positions[i], personal_value[i]));
                if value < personal_value[i] {
                    personal_value[i] = value;
                    personal_best[i] = positions[i].clone();
                }
            }
            (g_idx, g_val) = personal_value
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least two particles");
            if g_val < global_value {
                global_value = g_val;
                global_best = personal_best[g_idx].clone();
                stall = 0;
            } else {
                stall += 1;
                if let Some(limit) = self.config.stall_iterations {
                    if stall >= limit {
                        break;
                    }
                }
            }
        }

        if global_value.is_infinite() && global_value > 0.0 {
            // Never found a finite value: either the objective is NaN
            // everywhere or every point is infeasible with an infinite
            // penalty. Report the degenerate case.
            return Err(PsoError::DegenerateObjective);
        }

        Ok(PsoResult {
            best_position: global_best,
            best_value: global_value,
            evaluations,
            iterations_run,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64], _bound: f64) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    #[test]
    fn minimizes_sphere() {
        let bounds = Bounds::symmetric(3, 10.0).unwrap();
        let r = Pso::new(PsoConfig::default().with_seed(1))
            .minimize(&bounds, sphere)
            .unwrap();
        assert!(r.best_value < 1e-3, "best = {}", r.best_value);
        assert!(r.best_position.iter().all(|v| v.abs() < 0.1));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let bounds = Bounds::symmetric(2, 5.0).unwrap();
        let a = Pso::new(PsoConfig::default().with_seed(99))
            .minimize(&bounds, sphere)
            .unwrap();
        let b = Pso::new(PsoConfig::default().with_seed(99))
            .minimize(&bounds, sphere)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let bounds = Bounds::symmetric(2, 5.0).unwrap();
        let a = Pso::new(PsoConfig::default().with_budget(5, 3).with_seed(1))
            .minimize(&bounds, sphere)
            .unwrap();
        let b = Pso::new(PsoConfig::default().with_budget(5, 3).with_seed(2))
            .minimize(&bounds, sphere)
            .unwrap();
        assert_ne!(a.best_position, b.best_position);
    }

    #[test]
    fn respects_bounds() {
        let bounds = Bounds::new(vec![1.0, -2.0], vec![2.0, -1.0]).unwrap();
        // Optimum of sphere is outside the box; the result must stay inside.
        let r = Pso::new(PsoConfig::default().with_seed(5))
            .minimize(&bounds, sphere)
            .unwrap();
        assert!(bounds.contains(&r.best_position));
        // Constrained optimum is the corner (1, -1).
        assert!((r.best_position[0] - 1.0).abs() < 1e-6);
        assert!((r.best_position[1] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn handles_nan_objective_points() {
        let bounds = Bounds::symmetric(1, 1.0).unwrap();
        // NaN in half the domain; finite parabola elsewhere.
        let r = Pso::new(PsoConfig::default().with_seed(3))
            .minimize(&bounds, |x, _| {
                if x[0] < 0.0 {
                    f64::NAN
                } else {
                    (x[0] - 0.5) * (x[0] - 0.5)
                }
            })
            .unwrap();
        assert!((r.best_position[0] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn all_nan_objective_is_degenerate() {
        let bounds = Bounds::symmetric(1, 1.0).unwrap();
        let err = Pso::new(PsoConfig::default().with_budget(4, 2).with_seed(3))
            .minimize(&bounds, |_, _| f64::NAN)
            .unwrap_err();
        assert_eq!(err, PsoError::DegenerateObjective);
    }

    #[test]
    fn early_stop_on_stall() {
        let bounds = Bounds::symmetric(1, 1.0).unwrap();
        let mut cfg = PsoConfig::default().with_budget(8, 500).with_seed(11);
        cfg.stall_iterations = Some(5);
        // Constant objective stalls immediately.
        let r = Pso::new(cfg).minimize(&bounds, |_, _| 1.0).unwrap();
        assert!(r.iterations_run <= 10);
        assert_eq!(r.best_value, 1.0);
    }

    #[test]
    fn config_validation() {
        let bounds = Bounds::symmetric(1, 1.0).unwrap();
        let cfg = PsoConfig {
            particles: 1,
            ..PsoConfig::default()
        };
        assert!(Pso::new(cfg).minimize(&bounds, sphere).is_err());
        let cfg = PsoConfig {
            iterations: 0,
            ..PsoConfig::default()
        };
        assert!(Pso::new(cfg).minimize(&bounds, sphere).is_err());
        let cfg = PsoConfig {
            inertia: f64::NAN,
            ..PsoConfig::default()
        };
        assert!(Pso::new(cfg).minimize(&bounds, sphere).is_err());
    }

    #[test]
    fn bad_coefficient_is_named() {
        let bounds = Bounds::symmetric(1, 1.0).unwrap();
        for name in ["inertia", "cognitive", "social"] {
            for bad in [-0.5, f64::NAN, f64::INFINITY] {
                let mut cfg = PsoConfig::default();
                *match name {
                    "inertia" => &mut cfg.inertia,
                    "cognitive" => &mut cfg.cognitive,
                    _ => &mut cfg.social,
                } = bad;
                let err = Pso::new(cfg).minimize(&bounds, sphere).unwrap_err();
                assert!(
                    matches!(err, PsoError::InvalidConfig { parameter } if parameter.starts_with(name)),
                    "{name} = {bad}: {err}"
                );
                assert!(err.to_string().contains(name), "{err}");
            }
        }
    }

    #[test]
    fn penalty_constrained_problem() {
        // Minimise x² subject to x >= 0.3 via penalty.
        let bounds = Bounds::symmetric(1, 2.0).unwrap();
        let r = Pso::new(PsoConfig::default().with_seed(17))
            .minimize(&bounds, |x, _| {
                let penalty = if x[0] < 0.3 { 1e6 } else { 0.0 };
                x[0] * x[0] + penalty
            })
            .unwrap();
        assert!((r.best_position[0] - 0.3).abs() < 1e-3);
    }

    #[test]
    fn evaluation_count_matches_budget() {
        let bounds = Bounds::symmetric(2, 1.0).unwrap();
        let cfg = PsoConfig::default().with_budget(10, 20).with_seed(2);
        let r = Pso::new(cfg).minimize(&bounds, sphere).unwrap();
        // Initial sweep + one evaluation per particle per iteration.
        assert_eq!(r.evaluations, 10 + 10 * 20);
    }

    #[test]
    fn key_words_track_every_trajectory_field() {
        let base = PsoConfig::default();
        assert_eq!(base.key_words(), base.key_words());
        let variants = [
            PsoConfig {
                particles: base.particles + 1,
                ..base
            },
            PsoConfig {
                iterations: base.iterations + 1,
                ..base
            },
            PsoConfig {
                inertia: -base.inertia,
                ..base
            },
            PsoConfig {
                stall_iterations: Some(0),
                ..base
            },
            base.with_seed(base.seed ^ 1),
        ];
        for v in variants {
            assert_ne!(v.key_words(), base.key_words(), "{v:?}");
        }
        // Bit-pattern semantics: -0.0 and 0.0 are different words.
        let pos = PsoConfig {
            inertia: 0.0,
            ..base
        };
        let neg = PsoConfig {
            inertia: -0.0,
            ..base
        };
        assert_ne!(pos.key_words(), neg.key_words());
    }

    #[test]
    fn multimodal_rastrigin_one_dim() {
        // PSO should land in (or very near) the global basin at 0.
        let bounds = Bounds::symmetric(1, 5.12).unwrap();
        let r = Pso::new(PsoConfig::default().with_budget(60, 400).with_seed(23))
            .minimize(&bounds, |x, _| {
                10.0 + x[0] * x[0] - 10.0 * (2.0 * std::f64::consts::PI * x[0]).cos()
            })
            .unwrap();
        assert!(r.best_value < 1.0, "stuck at {}", r.best_value);
    }
}
