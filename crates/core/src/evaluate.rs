//! Stage 1: full evaluation of one schedule (timing derivation + holistic
//! controller design + overall performance).

use crate::{AppSpec, CodesignProblem, CoreError, EvalCtx, Result};
use cacs_control::{synthesize_with, DesignedController, LiftedPlant, SynthesisConfig};
use cacs_linalg::BitKey;
use cacs_sched::{check_idle_times, derive_timing, AppParams, AppTiming, Schedule, ScheduleTiming};
use cacs_search::ScheduleEvaluator;

/// Per-application outcome of a schedule evaluation.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// Worst-case settling time achieved, seconds.
    pub settling_time: f64,
    /// Control performance `P_i = 1 − s_i/s_i^max` (negative = deadline
    /// violated, paper constraint (3)).
    pub performance: f64,
    /// The synthesised controller.
    pub controller: DesignedController,
    /// The lifted plant used (kept for re-simulation, e.g. Fig. 6).
    pub lifted: LiftedPlant,
}

/// The complete stage-1 result for one schedule.
#[derive(Debug, Clone)]
pub struct ScheduleEvaluation {
    /// The evaluated schedule.
    pub schedule: Schedule,
    /// Derived timing (periods, delays, offsets).
    pub timing: ScheduleTiming,
    /// Per-application outcomes, in application order.
    pub apps: Vec<AppOutcome>,
    /// `P_all = Σ w_i P_i` when every constraint holds, `None` when any
    /// application violates its settling deadline (constraint (3)).
    pub overall_performance: Option<f64>,
}

impl ScheduleEvaluation {
    /// Weighted sum of performances regardless of feasibility (useful for
    /// reporting near-misses).
    pub fn raw_overall(&self, params: &[AppParams]) -> f64 {
        self.apps
            .iter()
            .zip(params)
            .map(|(o, p)| p.weight * o.performance)
            .sum()
    }
}

impl CodesignProblem {
    /// Evaluates one schedule end-to-end (paper Section III applied to
    /// every application, then eq. (2)).
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidProblem`] if the schedule's application count
    ///   differs from the problem's, or the schedule violates the
    ///   idle-time constraint (use
    ///   [`CodesignProblem::idle_feasible_schedule`] to pre-check).
    /// * Substrate errors (timing, synthesis) are propagated; a synthesis
    ///   that finds no stabilising design is reported as an error rather
    ///   than silently treated as infeasible.
    pub fn evaluate_schedule(&self, schedule: &Schedule) -> Result<ScheduleEvaluation> {
        self.evaluate_schedule_ctx(schedule, self.eval_ctx())
    }

    /// [`CodesignProblem::evaluate_schedule`] on an explicit context.
    ///
    /// The context supplies the synthesis scratch pool and, when
    /// enabled, the discretisation and app-synthesis memo caches. All
    /// cache keys cover the complete input set of the computation they
    /// guard, so results are bit-identical whichever context is used.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CodesignProblem::evaluate_schedule`].
    pub fn evaluate_schedule_ctx(
        &self,
        schedule: &Schedule,
        ctx: &EvalCtx,
    ) -> Result<ScheduleEvaluation> {
        let _t = cacs_obs::time(&cacs_obs::metrics::EVAL_SCHEDULE_NS);
        cacs_obs::metrics::EVAL_SCHEDULES.incr();
        if schedule.app_count() != self.app_count() {
            return Err(CoreError::InvalidProblem {
                reason: format!(
                    "schedule has {} applications, problem has {}",
                    schedule.app_count(),
                    self.app_count()
                ),
            });
        }
        let timing = derive_timing(&schedule.task_sequence(), self.exec_times())?;
        let params: Vec<AppParams> = self.apps().iter().map(|a| a.params.clone()).collect();
        let violations = check_idle_times(&timing, &params)?;
        if !violations.is_empty() {
            return Err(CoreError::InvalidProblem {
                reason: format!(
                    "schedule {schedule} violates idle-time constraints: {violations:?}"
                ),
            });
        }

        // Every application's holistic design is independent (its own
        // lifted plant, its own deterministic PSO seed), so the synthesis
        // loop fans out in parallel; `try_par_map` reports the first
        // error in application order, exactly like the sequential loop.
        let apps = cacs_par::try_par_map(self.apps(), |i, app| {
            let at = &timing.apps[i];
            let config = self.synthesis_config_for(i, schedule);
            let key = ctx
                .caches_enabled()
                .then(|| app_synthesis_key(i, app, at, &config));
            if let Some(k) = &key {
                if let Some(hit) = ctx.lookup_app(k) {
                    return Ok(hit);
                }
            }
            let lifted = LiftedPlant::new_cached(
                app.plant.clone(),
                &at.periods,
                &at.delays,
                ctx.expm_cache(),
            )?;
            let controller = synthesize_with(&lifted, &config, ctx.synth())?;
            let performance = app.params.performance(controller.settling_time);
            let outcome = AppOutcome {
                settling_time: controller.settling_time,
                performance,
                controller,
                lifted,
            };
            if let Some(k) = key {
                ctx.store_app(k, &outcome);
            }
            Ok::<AppOutcome, CoreError>(outcome)
        })?;

        // Constraint (3): P_i >= 0 for every application.
        let feasible = apps.iter().all(|o| o.performance >= 0.0);
        let overall_performance = if feasible {
            Some(
                apps.iter()
                    .zip(self.apps())
                    .map(|(o, a)| a.params.weight * o.performance)
                    .sum(),
            )
        } else {
            None
        };

        Ok(ScheduleEvaluation {
            schedule: schedule.clone(),
            timing,
            apps,
            overall_performance,
        })
    }

    /// The synthesis configuration used for application `app` under
    /// `schedule` (deterministic seeding, per-application bounds).
    pub fn synthesis_config_for(&self, app: usize, schedule: &Schedule) -> SynthesisConfig {
        let spec = &self.apps()[app];
        let mut config = SynthesisConfig::new(
            spec.reference,
            spec.params.settling_deadline * self.config().horizon_factor,
        );
        config.pso = self.config().pso_for(app, schedule.counts());
        config.max_input = Some(spec.umax);
        config.settling = self.config().settling;
        config.gain_bound =
            self.config().gain_bound_factor * spec.umax / spec.reference.abs().max(1e-12);
        config
    }

    /// Cheap a-priori feasibility: the idle-time constraint (4).
    pub fn idle_feasible_schedule(&self, schedule: &Schedule) -> bool {
        if schedule.app_count() != self.app_count() {
            return false;
        }
        let Ok(timing) = derive_timing(&schedule.task_sequence(), self.exec_times()) else {
            return false;
        };
        let params: Vec<AppParams> = self.apps().iter().map(|a| a.params.clone()).collect();
        matches!(check_idle_times(&timing, &params), Ok(v) if v.is_empty())
    }
}

/// Cache key for one application's holistic synthesis: every input that
/// influences the stored [`AppOutcome`], as raw bit patterns (slices are
/// length-prefixed, matrices shape-prefixed — no aliasing between
/// fields). The synthesis configuration contributes through
/// [`SynthesisConfig::push_key`], which includes the schedule-derived
/// PSO seed, so equal keys imply an identical synthesis trajectory.
fn app_synthesis_key(
    app: usize,
    spec: &AppSpec,
    timing: &AppTiming,
    config: &SynthesisConfig,
) -> BitKey {
    let mut key = BitKey::new();
    key.push_usize(app);
    key.push_slice(&timing.periods);
    key.push_slice(&timing.delays);
    key.push_matrix(spec.plant.a());
    key.push_matrix(spec.plant.b());
    key.push_matrix(spec.plant.c());
    key.push_f64(spec.reference);
    key.push_f64(spec.umax);
    key.push_f64(spec.params.weight);
    key.push_f64(spec.params.settling_deadline);
    config.push_key(&mut key);
    key
}

/// The search-facing adapter: full evaluations mapped to `Option<f64>`.
///
/// * Idle-infeasible schedules are rejected a priori via
///   [`ScheduleEvaluator::idle_feasible`].
/// * Settling-deadline violations and synthesis failures both yield
///   `None` (the paper's constraint (3) is only checkable after the
///   evaluation).
impl ScheduleEvaluator for CodesignProblem {
    fn app_count(&self) -> usize {
        CodesignProblem::app_count(self)
    }

    fn idle_feasible(&self, schedule: &Schedule) -> bool {
        self.idle_feasible_schedule(schedule)
    }

    fn evaluate(&self, schedule: &Schedule) -> Option<f64> {
        match self.evaluate_schedule(schedule) {
            Ok(eval) => eval.overall_performance,
            Err(_) => None,
        }
    }
}

/// Offset separating relaxed-infeasible screening values from feasible
/// ones. `P_all ∈ [0, Σ wᵢ]` for feasible schedules and the raw
/// weighted sum is bounded above by `Σ wᵢ = 1`, so subtracting 1000
/// keeps every deadline-missing value strictly below every feasible
/// value while preserving the ordering among the misses themselves.
const SCREEN_PENALTY: f64 = 1e3;

/// Ranking-only screening adapter around a (reduced-budget)
/// [`CodesignProblem`]: same evaluations, relaxed objective.
///
/// The exact adapter maps a settling-deadline violation to `None`,
/// which a reduced swarm hits often — at tight screening budgets
/// every start can screen to `-inf` and the two-stage ranking
/// degenerates to index order. This adapter instead maps a violation
/// to the finite value [`ScheduleEvaluation::raw_overall`]` −
/// `[`SCREEN_PENALTY`], so near-misses degrade smoothly: a schedule
/// whose cheap synthesis barely overruns outranks one that overruns
/// badly, and any feasible schedule outranks both. The values are
/// ranking-only by construction — the two-stage engine re-evaluates
/// survivors exactly and drops every screening number.
#[derive(Debug)]
pub struct ScreeningProblem {
    problem: CodesignProblem,
    params: Vec<AppParams>,
}

impl ScreeningProblem {
    /// Wraps `problem` (typically built with
    /// [`crate::EvaluationConfig::screened`]) as a relaxed-objective
    /// screening evaluator.
    pub fn new(problem: CodesignProblem) -> Self {
        let params = problem.apps().iter().map(|a| a.params.clone()).collect();
        ScreeningProblem { problem, params }
    }
}

impl ScheduleEvaluator for ScreeningProblem {
    fn app_count(&self) -> usize {
        self.problem.app_count()
    }

    fn idle_feasible(&self, schedule: &Schedule) -> bool {
        self.problem.idle_feasible_schedule(schedule)
    }

    fn evaluate(&self, schedule: &Schedule) -> Option<f64> {
        match self.problem.evaluate_schedule(schedule) {
            Ok(eval) => Some(
                eval.overall_performance
                    .unwrap_or_else(|| eval.raw_overall(&self.params) - SCREEN_PENALTY),
            ),
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvaluationConfig;
    use cacs_apps::paper_case_study;

    fn fast_problem() -> CodesignProblem {
        let study = paper_case_study().unwrap();
        CodesignProblem::from_case_study(&study, EvaluationConfig::fast()).unwrap()
    }

    #[test]
    fn round_robin_evaluates_feasibly() {
        let problem = fast_problem();
        let eval = problem
            .evaluate_schedule(&Schedule::round_robin(3).unwrap())
            .unwrap();
        assert_eq!(eval.apps.len(), 3);
        for (o, app) in eval.apps.iter().zip(problem.apps()) {
            assert!(
                o.settling_time < app.params.settling_deadline,
                "{} missed its deadline: {} >= {}",
                app.params.name,
                o.settling_time,
                app.params.settling_deadline
            );
            assert!(o.controller.spectral_radius < 1.0);
            assert!(o.controller.max_input <= app.umax * (1.0 + 1e-9));
        }
        let p_all = eval.overall_performance.expect("feasible");
        assert!(p_all > 0.0 && p_all < 1.0, "P_all = {p_all}");
    }

    #[test]
    fn idle_feasibility_matches_constraint() {
        let problem = fast_problem();
        assert!(problem.idle_feasible_schedule(&Schedule::round_robin(3).unwrap()));
        assert!(problem.idle_feasible_schedule(&Schedule::new(vec![3, 2, 3]).unwrap()));
        // Starving C1 beyond 3.4 ms.
        assert!(!problem.idle_feasible_schedule(&Schedule::new(vec![1, 1, 9]).unwrap()));
        // Wrong app count.
        assert!(!problem.idle_feasible_schedule(&Schedule::new(vec![1, 1]).unwrap()));
    }

    #[test]
    fn screening_adapter_relaxes_deadline_misses_and_keeps_feasible_values() {
        // Feasible under the wrapped budget: the adapter must return the
        // exact adapter's value bit for bit.
        let exact = fast_problem();
        let s = Schedule::round_robin(3).unwrap();
        let expected = ScheduleEvaluator::evaluate(&exact, &s).unwrap();
        let wrapped = ScreeningProblem::new(fast_problem());
        assert_eq!(wrapped.evaluate(&s).unwrap().to_bits(), expected.to_bits());
        assert!(wrapped.idle_feasible(&s));
        assert_eq!(wrapped.app_count(), 3);

        // At a tight screening budget the reduced swarm misses deadlines:
        // the exact adapter collapses to None, the screening adapter must
        // keep a finite, strictly-below-feasible ranking value.
        let study = paper_case_study().unwrap();
        let screened = EvaluationConfig::fast().screened(0.3);
        let reduced = CodesignProblem::from_case_study(&study, screened).unwrap();
        let miss = Schedule::new(vec![3, 2, 3]).unwrap();
        let raw = reduced.evaluate_schedule(&miss);
        let adapter = ScreeningProblem::new(reduced);
        match raw {
            Ok(eval) if eval.overall_performance.is_none() => {
                let v = adapter.evaluate(&miss).expect("relaxed value");
                assert!(
                    v.is_finite() && v < 0.0,
                    "relaxed value {v} must rank below feasible"
                );
            }
            Ok(_) => {
                // Budget scaling made it feasible on this host: the
                // adapter then returns the feasible value unchanged.
                assert!(adapter.evaluate(&miss).unwrap() >= 0.0);
            }
            Err(_) => {
                // No stabilising design at all: both adapters agree.
                assert!(adapter.evaluate(&miss).is_none());
            }
        }
    }

    #[test]
    fn idle_infeasible_schedule_errors_in_full_evaluation() {
        let problem = fast_problem();
        let r = problem.evaluate_schedule(&Schedule::new(vec![1, 1, 9]).unwrap());
        assert!(matches!(r, Err(CoreError::InvalidProblem { .. })));
    }

    #[test]
    fn evaluation_is_deterministic() {
        let problem = fast_problem();
        let s = Schedule::new(vec![2, 2, 2]).unwrap();
        let a = problem.evaluate_schedule(&s).unwrap();
        let b = problem.evaluate_schedule(&s).unwrap();
        assert_eq!(a.overall_performance, b.overall_performance);
        for (x, y) in a.apps.iter().zip(&b.apps) {
            assert_eq!(x.settling_time, y.settling_time);
        }
    }

    #[test]
    fn parallel_app_synthesis_is_bit_identical_to_sequential() {
        let problem = fast_problem();
        let s = Schedule::new(vec![1, 2, 2]).unwrap();
        let par = problem.evaluate_schedule(&s).unwrap();
        let seq = cacs_par::sequential(|| problem.evaluate_schedule(&s)).unwrap();
        assert_eq!(
            par.overall_performance.map(f64::to_bits),
            seq.overall_performance.map(f64::to_bits)
        );
        for (a, b) in par.apps.iter().zip(&seq.apps) {
            assert_eq!(a.settling_time.to_bits(), b.settling_time.to_bits());
            assert_eq!(a.performance.to_bits(), b.performance.to_bits());
            for (ka, kb) in a.controller.gains.iter().zip(&b.controller.gains) {
                assert!(ka.approx_eq(kb, 0.0), "gains must match exactly");
            }
        }
    }

    #[test]
    fn cached_and_uncached_contexts_are_bit_identical() {
        let problem = fast_problem();
        let s = Schedule::new(vec![2, 1, 2]).unwrap();
        let cached = problem
            .evaluate_schedule_ctx(&s, &EvalCtx::cached())
            .unwrap();
        let uncached = problem
            .evaluate_schedule_ctx(&s, &EvalCtx::uncached())
            .unwrap();
        assert_eq!(
            cached.overall_performance.map(f64::to_bits),
            uncached.overall_performance.map(f64::to_bits)
        );
        for (a, b) in cached.apps.iter().zip(&uncached.apps) {
            assert_eq!(a.settling_time.to_bits(), b.settling_time.to_bits());
            assert_eq!(a.performance.to_bits(), b.performance.to_bits());
        }
    }

    #[test]
    fn repeat_evaluation_hits_the_app_cache() {
        let problem = fast_problem();
        let ctx = EvalCtx::cached();
        let s = Schedule::round_robin(3).unwrap();
        let first = problem.evaluate_schedule_ctx(&s, &ctx).unwrap();
        assert_eq!(ctx.app_cache_hits(), 0);
        assert_eq!(ctx.app_cache_misses(), 3);
        let second = problem.evaluate_schedule_ctx(&s, &ctx).unwrap();
        assert_eq!(ctx.app_cache_hits(), 3, "every app outcome memoised");
        assert_eq!(
            first.overall_performance.map(f64::to_bits),
            second.overall_performance.map(f64::to_bits)
        );
        // A different schedule changes the PSO seed for every app, so
        // nothing is falsely shared.
        let other = Schedule::new(vec![2, 2, 2]).unwrap();
        problem.evaluate_schedule_ctx(&other, &ctx).unwrap();
        assert_eq!(ctx.app_cache_misses(), 6);
    }

    /// Every number an evaluation reports, as bit patterns.
    fn evaluation_bits(eval: &ScheduleEvaluation) -> Vec<u64> {
        let mut bits = vec![eval.overall_performance.map_or(u64::MAX, f64::to_bits)];
        for app in &eval.apps {
            let c = &app.controller;
            let scalars = [
                app.settling_time,
                app.performance,
                c.settling_time,
                c.max_input,
                c.spectral_radius,
            ];
            let gains = c.gains.iter().flat_map(|g| g.as_slice());
            let values = scalars.iter().chain(&c.feedforwards).chain(gains);
            bits.extend(values.map(|v| v.to_bits()));
            bits.push(c.evaluations as u64);
        }
        bits
    }

    #[test]
    fn every_evaluation_config_field_reaches_the_app_cache_key() {
        // One shared context serves problems that differ in a single
        // EvaluationConfig field each: every variant must miss the cache
        // for all three apps (no false sharing through the key) and
        // evaluate bit-identically to a fresh context.
        let study = paper_case_study().unwrap();
        let base = EvaluationConfig::fast();
        let variants = [
            EvaluationConfig {
                seed: base.seed ^ 1,
                ..base
            },
            EvaluationConfig {
                settling: cacs_control::SettlingSpec { band: 0.05 },
                ..base
            },
            EvaluationConfig {
                horizon_factor: base.horizon_factor + 0.5,
                ..base
            },
            EvaluationConfig {
                gain_bound_factor: base.gain_bound_factor * 0.8,
                ..base
            },
            EvaluationConfig {
                pso_particles: base.pso_particles - 4,
                ..base
            },
            EvaluationConfig {
                pso_iterations: base.pso_iterations - 20,
                ..base
            },
            EvaluationConfig {
                pso_stall: None,
                ..base
            },
        ];
        let shared = EvalCtx::cached();
        let s = Schedule::round_robin(3).unwrap();
        CodesignProblem::from_case_study(&study, base)
            .unwrap()
            .evaluate_schedule_ctx(&s, &shared)
            .unwrap();
        assert_eq!(shared.app_cache_misses(), 3);
        for (i, config) in variants.into_iter().enumerate() {
            let problem = CodesignProblem::from_case_study(&study, config).unwrap();
            let on_shared = problem.evaluate_schedule_ctx(&s, &shared).unwrap();
            assert_eq!(shared.app_cache_hits(), 0, "variant {i}");
            assert_eq!(shared.app_cache_misses(), 3 * (i as u64 + 2), "variant {i}");
            let on_fresh = problem
                .evaluate_schedule_ctx(&s, &EvalCtx::cached())
                .unwrap();
            assert_eq!(
                evaluation_bits(&on_shared),
                evaluation_bits(&on_fresh),
                "variant {i}"
            );
        }
    }

    #[test]
    fn disabling_the_cache_installs_a_fresh_context() {
        let mut problem = fast_problem();
        assert!(problem.eval_ctx().caches_enabled());
        problem.set_eval_cache(false);
        assert!(!problem.eval_ctx().caches_enabled());
        let s = Schedule::round_robin(3).unwrap();
        problem.evaluate_schedule(&s).unwrap();
        problem.evaluate_schedule(&s).unwrap();
        assert_eq!(problem.eval_ctx().app_cache_hits(), 0);
        problem.set_eval_cache(true);
        assert!(problem.eval_ctx().caches_enabled());
    }

    #[test]
    fn evaluator_adapter_reports_idle_feasibility() {
        let problem = fast_problem();
        let adapter: &dyn ScheduleEvaluator = &problem;
        assert_eq!(adapter.app_count(), 3);
        assert!(adapter.idle_feasible(&Schedule::round_robin(3).unwrap()));
        assert!(!adapter.idle_feasible(&Schedule::new(vec![9, 1, 1]).unwrap()));
    }
}
