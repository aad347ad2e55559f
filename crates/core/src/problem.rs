//! Problem definition: platform, applications, and evaluation budget.

use crate::{CoreError, EvalCtx, Result};
use cacs_apps::CaseStudy;
use cacs_cache::{analyze_consecutive, CacheConfig, Program};
use cacs_control::{ContinuousLti, SettlingSpec};
use cacs_pso::PsoConfig;
use cacs_sched::{validate_weights, AppParams, ExecTimes};
use std::sync::Arc;

/// One application in a co-design problem.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Weight, settling deadline and idle limit (paper Table II).
    pub params: AppParams,
    /// Continuous plant model.
    pub plant: ContinuousLti,
    /// Reference amplitude to track.
    pub reference: f64,
    /// Input saturation `U_max`.
    pub umax: f64,
    /// Instruction-level control program (for the WCET analysis).
    pub program: Program,
}

/// Budget and determinism knobs for the stage-1 controller synthesis.
///
/// Every application is designed by the direct gain search of
/// [`cacs_control::synthesize`]. The paper's pole-placement variant was
/// removed: at `m = 1` its `m·l` gains cannot match the `2l`
/// characteristic coefficients of the period map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluationConfig {
    /// PSO particles per application design.
    pub pso_particles: usize,
    /// PSO iterations per application design.
    pub pso_iterations: usize,
    /// Stop a design early after this many stagnant iterations.
    pub pso_stall: Option<usize>,
    /// Base RNG seed; each (application, schedule) pair derives its own
    /// deterministic seed from it.
    pub seed: u64,
    /// Settling band (±2 % by default).
    pub settling: SettlingSpec,
    /// Simulation horizon as a multiple of each application's settling
    /// deadline.
    pub horizon_factor: f64,
    /// Gain-bound scale: the per-application bound is
    /// `gain_bound_factor · U_max / |reference|`.
    pub gain_bound_factor: f64,
    /// Upper cap for any `m_i` when deriving the schedule space.
    pub max_tasks_per_app: u32,
}

impl Default for EvaluationConfig {
    fn default() -> Self {
        EvaluationConfig {
            pso_particles: 40,
            pso_iterations: 160,
            pso_stall: Some(50),
            seed: 0xDA7E_2018,
            settling: SettlingSpec::two_percent(),
            horizon_factor: 2.0,
            gain_bound_factor: 2.5,
            max_tasks_per_app: 12,
        }
    }
}

impl EvaluationConfig {
    /// A reduced-budget configuration for tests and quick demos: less
    /// accurate settling times, same qualitative behaviour.
    pub fn fast() -> Self {
        EvaluationConfig {
            pso_particles: 24,
            pso_iterations: 80,
            pso_stall: Some(25),
            ..EvaluationConfig::default()
        }
    }

    /// Derives the PSO configuration for one application/schedule pair.
    pub(crate) fn pso_for(&self, app: usize, schedule_key: &[u32]) -> PsoConfig {
        // Deterministic per-(app, schedule) seed: FNV-style mix.
        let mut seed = self.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(app as u64 + 1);
        for &m in schedule_key {
            seed = seed
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(u64::from(m) + 0x9E37);
        }
        let mut pso = PsoConfig::default()
            .with_budget(self.pso_particles, self.pso_iterations)
            .with_seed(seed);
        pso.stall_iterations = self.pso_stall;
        pso
    }

    fn validate(&self) -> Result<()> {
        if self.pso_particles < 2 || self.pso_iterations == 0 {
            return Err(CoreError::InvalidProblem {
                reason: "PSO budget must be at least 2 particles x 1 iteration".into(),
            });
        }
        if !(self.horizon_factor.is_finite() && self.horizon_factor >= 1.0) {
            return Err(CoreError::InvalidProblem {
                reason: format!("horizon factor must be >= 1, got {}", self.horizon_factor),
            });
        }
        if !(self.gain_bound_factor.is_finite() && self.gain_bound_factor > 0.0) {
            return Err(CoreError::InvalidProblem {
                reason: format!(
                    "gain bound factor must be positive, got {}",
                    self.gain_bound_factor
                ),
            });
        }
        if self.max_tasks_per_app == 0 {
            return Err(CoreError::InvalidProblem {
                reason: "max_tasks_per_app must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// A complete co-design problem: the paper's framework instantiated on a
/// platform and a set of control applications.
#[derive(Debug, Clone)]
pub struct CodesignProblem {
    platform: CacheConfig,
    apps: Vec<AppSpec>,
    exec_times: Vec<ExecTimes>,
    config: EvaluationConfig,
    /// Shared evaluation context (scratch pools + memo caches). Clones
    /// of the problem share it — safe, because every cached value is
    /// bit-identical to what a fresh compute would produce.
    ctx: Arc<EvalCtx>,
}

impl CodesignProblem {
    /// Builds a problem, running the cache/WCET analysis of every
    /// application's program up front (the WCETs depend only on the
    /// program and platform, not on the schedule).
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidProblem`] for an empty application list,
    ///   weights not summing to one, or invalid references/saturations.
    /// * Cache-analysis errors from the WCET computation.
    pub fn new(
        platform: CacheConfig,
        apps: Vec<AppSpec>,
        config: EvaluationConfig,
    ) -> Result<Self> {
        if apps.is_empty() {
            return Err(CoreError::InvalidProblem {
                reason: "problem needs at least one application".into(),
            });
        }
        config.validate()?;
        let params: Vec<AppParams> = apps.iter().map(|a| a.params.clone()).collect();
        validate_weights(&params)?;
        for app in &apps {
            // cacs-lint: allow(float-eq, reason = "exact-zero validation of user input; rejects a degenerate reference, never breaks a tie")
            if !app.reference.is_finite() || app.reference == 0.0 {
                return Err(CoreError::InvalidProblem {
                    reason: format!("{}: reference must be finite non-zero", app.params.name),
                });
            }
            if !app.umax.is_finite() || app.umax <= 0.0 {
                return Err(CoreError::InvalidProblem {
                    reason: format!("{}: U_max must be positive", app.params.name),
                });
            }
        }

        let mut exec_times = Vec::with_capacity(apps.len());
        for app in &apps {
            let analysis = analyze_consecutive(&app.program, &platform)?;
            exec_times.push(
                ExecTimes::new(
                    analysis.cold_seconds(&platform),
                    analysis.warm_seconds(&platform),
                )
                .map_err(CoreError::Sched)?,
            );
        }
        Ok(CodesignProblem {
            platform,
            apps,
            exec_times,
            config,
            ctx: Arc::new(EvalCtx::cached()),
        })
    }

    /// Builds the problem from the paper's assembled case study.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CodesignProblem::new`].
    pub fn from_case_study(study: &CaseStudy, config: EvaluationConfig) -> Result<Self> {
        let apps = study
            .apps
            .iter()
            .map(|a| AppSpec {
                params: a.params.clone(),
                plant: a.plant.clone(),
                reference: a.reference,
                umax: a.umax,
                program: a.program.program().clone(),
            })
            .collect();
        CodesignProblem::new(study.platform, apps, config)
    }

    /// The platform model.
    pub fn platform(&self) -> &CacheConfig {
        &self.platform
    }

    /// The applications.
    pub fn apps(&self) -> &[AppSpec] {
        &self.apps
    }

    /// Cold/warm execution times derived from the cache analysis, seconds.
    pub fn exec_times(&self) -> &[ExecTimes] {
        &self.exec_times
    }

    /// The evaluation configuration.
    pub fn config(&self) -> &EvaluationConfig {
        &self.config
    }

    /// Number of applications.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// The evaluation context backing [`CodesignProblem::evaluate_schedule`]
    /// (for cache statistics and explicit-context evaluation).
    pub fn eval_ctx(&self) -> &EvalCtx {
        &self.ctx
    }

    /// Enables or disables the memo caches by installing a fresh context
    /// (the scratch pool stays either way). Disabling gives the
    /// reference cache-free path; results are bit-identical in both
    /// modes. Note this replaces the context only for this instance —
    /// prior clones keep the one they share.
    pub fn set_eval_cache(&mut self, enabled: bool) {
        self.ctx = Arc::new(if enabled {
            EvalCtx::cached()
        } else {
            EvalCtx::uncached()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacs_apps::paper_case_study;

    #[test]
    fn case_study_problem_derives_table_one_exec_times() {
        let study = paper_case_study().unwrap();
        let problem = CodesignProblem::from_case_study(&study, EvaluationConfig::fast()).unwrap();
        let e = problem.exec_times();
        assert!((e[0].cold - 907.55e-6).abs() < 1e-12);
        assert!((e[0].warm - 452.15e-6).abs() < 1e-12);
        assert!((e[1].cold - 645.25e-6).abs() < 1e-12);
        assert!((e[1].warm - 175.00e-6).abs() < 1e-12);
        assert!((e[2].cold - 749.15e-6).abs() < 1e-12);
        assert!((e[2].warm - 234.35e-6).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty_apps() {
        let r = CodesignProblem::new(CacheConfig::date18(), vec![], EvaluationConfig::default());
        assert!(matches!(r, Err(CoreError::InvalidProblem { .. })));
    }

    #[test]
    fn rejects_bad_weights() {
        let study = paper_case_study().unwrap();
        let mut apps: Vec<AppSpec> = study
            .apps
            .iter()
            .map(|a| AppSpec {
                params: a.params.clone(),
                plant: a.plant.clone(),
                reference: a.reference,
                umax: a.umax,
                program: a.program.program().clone(),
            })
            .collect();
        apps[0].params = AppParams::new("bad", 0.9, 45e-3, 3.4e-3).unwrap();
        assert!(CodesignProblem::new(study.platform, apps, EvaluationConfig::default()).is_err());
    }

    #[test]
    fn rejects_bad_config() {
        let study = paper_case_study().unwrap();
        let config = EvaluationConfig {
            pso_particles: 1,
            ..EvaluationConfig::default()
        };
        assert!(CodesignProblem::from_case_study(&study, config).is_err());
        let config = EvaluationConfig {
            horizon_factor: 0.5,
            ..EvaluationConfig::default()
        };
        assert!(CodesignProblem::from_case_study(&study, config).is_err());
        let config = EvaluationConfig {
            max_tasks_per_app: 0,
            ..EvaluationConfig::default()
        };
        assert!(CodesignProblem::from_case_study(&study, config).is_err());
    }

    #[test]
    fn per_app_schedule_seeds_differ() {
        let c = EvaluationConfig::default();
        let s1 = c.pso_for(0, &[1, 1, 1]).seed;
        let s2 = c.pso_for(1, &[1, 1, 1]).seed;
        let s3 = c.pso_for(0, &[2, 1, 1]).seed;
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        // But deterministic.
        assert_eq!(s1, c.pso_for(0, &[1, 1, 1]).seed);
    }
}
