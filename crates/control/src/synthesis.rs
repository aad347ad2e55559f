//! Controller synthesis: maximise control performance (minimise
//! worst-case settling time) for a given schedule's timing pattern.
//!
//! One method: PSO directly over the `m·l` feedback-gain entries (a
//! shared-gain warm start of width `l` first when `m > 1`). The objective
//! simulates the worst-case step response and charges penalties for
//! instability (`ρ(Φ) ≥ 1`) and input saturation (`|u| > U_max`). It
//! works for every `m`, including `m = 1`, where the `2l` poles of the
//! period map exceed the `l` free gain parameters.
//!
//! The paper's own method (Section III: PSO over pole locations plus an
//! "extended Ackermann" gain match) was removed: at `m = 1` its `m·l`
//! gains cannot match the `2l` characteristic coefficients, so it could
//! not design the schedules that win.
//!
//! Feedforward gains `F_j` always come from the paper's eq. (17) applied
//! per interval with its total input matrix.

use crate::ctx::{SynthCtx, SynthScratch};
use crate::feedback::feedforward_gain_ws;
use crate::simulate::simulate_observed;
use crate::{
    settling_time, simulate_worst_case, ControlError, LiftedPlant, Response, Result, SettlingSpec,
    Stability,
};
use cacs_linalg::{BitKey, Matrix};
use cacs_pso::{Bounds, Pso, PsoConfig};

/// Penalty scale for unstable / infeasible candidate designs. Settling
/// times are fractions of a second, so anything at this scale dominates.
const PENALTY: f64 = 1.0e4;

/// Relative safety band of the certified stability tests. The
/// objective certifies a candidate stable by a Schur–Cohn test at radius
/// `stability_margin·(1 − CERTIFY_BAND)`, certifies it unstable by a
/// failed test at `stability_margin·(1 + CERTIFY_BAND)`, and root-finds
/// only when neither applies. Rounding in the test can only misjudge
/// roots very close to its radius, so the band keeps a certified root
/// clear of the margin; it is a property of the test's arithmetic, not a
/// tuning knob.
const CERTIFY_BAND: f64 = 1e-3;

/// How many deterministic restarts [`synthesize`] attempts when a PSO
/// run ends without a feasible design. Each retry re-seeds the swarm
/// with a fixed stride, so the whole retry chain is a pure function of
/// the configuration — successful first attempts are bit-identical to a
/// retry-free implementation.
const MAX_SYNTHESIS_ATTEMPTS: u64 = 3;

/// Seed stride between synthesis attempts (golden-ratio increment, the
/// same constant the core crate uses for per-app seed derivation).
const ATTEMPT_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration for [`synthesize`].
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// PSO budget and coefficients.
    pub pso: PsoConfig,
    /// Box bound on each gain entry (`|K_j[i]| ≤ gain_bound`).
    pub gain_bound: f64,
    /// Input saturation `U_max` (paper Section II-A), if any.
    pub max_input: Option<f64>,
    /// Reference amplitude to track in the worst-case simulation.
    pub reference: f64,
    /// Settling band specification.
    pub settling: SettlingSpec,
    /// Simulation horizon, seconds (should exceed the settling deadline).
    pub horizon: f64,
    /// Stability requirement: `ρ(Φ)` must stay strictly below this
    /// (slightly below 1 to keep a margin).
    pub stability_margin: f64,
}

impl SynthesisConfig {
    /// A reasonable default configuration for a given reference and
    /// horizon: ±2 % band, margin 0.9999, gain bound 100. The design is
    /// always the direct gain search; the paper's pole-placement variant
    /// was removed because its `m·l` gains cannot match the `2l`
    /// characteristic coefficients when `m = 1`.
    pub fn new(reference: f64, horizon: f64) -> Self {
        SynthesisConfig {
            pso: PsoConfig::default(),
            gain_bound: 100.0,
            max_input: None,
            reference,
            settling: SettlingSpec::two_percent(),
            horizon,
            stability_margin: 0.9999,
        }
    }

    /// Appends every field that influences the synthesis trajectory to a
    /// bit-pattern cache key: two configurations push equal bytes iff
    /// [`synthesize`] is guaranteed to walk the identical trajectory for
    /// the same plant. Floats enter as raw bit patterns (no rounding, no
    /// float `==`), option presence is encoded explicitly.
    pub fn push_key(&self, key: &mut BitKey) {
        for word in self.pso.key_words() {
            key.push_u64(word);
        }
        key.push_f64(self.gain_bound);
        match self.max_input {
            Some(umax) => {
                key.push_u64(1);
                key.push_f64(umax);
            }
            None => key.push_u64(0),
        }
        key.push_f64(self.reference);
        key.push_f64(self.settling.band);
        key.push_f64(self.horizon);
        key.push_f64(self.stability_margin);
    }

    fn validate(&self) -> Result<()> {
        if !self.reference.is_finite() || self.reference == 0.0 {
            return Err(ControlError::SynthesisFailed {
                reason: format!(
                    "reference must be finite and non-zero, got {}",
                    self.reference
                ),
            });
        }
        if !self.horizon.is_finite() || self.horizon <= 0.0 {
            return Err(ControlError::SynthesisFailed {
                reason: format!("horizon must be positive, got {}", self.horizon),
            });
        }
        if !self.gain_bound.is_finite() || self.gain_bound <= 0.0 {
            return Err(ControlError::SynthesisFailed {
                reason: format!("gain bound must be positive, got {}", self.gain_bound),
            });
        }
        if !(0.0 < self.stability_margin && self.stability_margin <= 1.0) {
            return Err(ControlError::SynthesisFailed {
                reason: format!(
                    "stability margin must be in (0, 1], got {}",
                    self.stability_margin
                ),
            });
        }
        Ok(())
    }
}

/// A synthesised holistic controller for one application under one
/// schedule.
#[derive(Debug, Clone)]
pub struct DesignedController {
    /// Per-task feedback gains `K_j` (row vectors).
    pub gains: Vec<Matrix>,
    /// Per-task static feedforward gains `F_j` (paper eq. (17)).
    pub feedforwards: Vec<f64>,
    /// Worst-case settling time achieved, seconds.
    pub settling_time: f64,
    /// Largest input magnitude over the evaluation run.
    pub max_input: f64,
    /// Spectral radius of the closed-loop period map.
    pub spectral_radius: f64,
    /// Objective evaluations spent by the search.
    pub evaluations: usize,
}

impl DesignedController {
    /// Re-simulates the worst-case response of this design (e.g. to plot
    /// Figure 6 curves).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn simulate(&self, lifted: &LiftedPlant, reference: f64, horizon: f64) -> Result<Response> {
        simulate_worst_case(lifted, &self.gains, &self.feedforwards, reference, horizon)
    }
}

/// Why an objective call stopped short of its exact score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Abandon {
    /// Certified unstable: the score is in the penalty class.
    Unstable,
    /// The worst-case simulation's running lower bound reached the bound.
    Simulation,
}

/// Details of one candidate evaluation. The feedforward gains live in
/// the [`SynthScratch`] the evaluation ran on.
struct Evaluation {
    /// The exact score, or, for an abandoned evaluation, a value at or
    /// above the bound that the exact score is known to reach.
    score: f64,
    settling: f64,
    max_input: f64,
    /// Exact `ρ(Φ)`, or `None` when the pre-test certified the candidate
    /// stable and no root was found. The scratch's eigen workspace then
    /// still holds the characteristic polynomial to compute it from.
    rho: Option<f64>,
    /// `Some` when the evaluation stopped once it proved `score ≥ bound`.
    abandoned: Option<Abandon>,
}

/// The input-saturation term of the score: zero within `U_max`, and a
/// penalty growing with the excess beyond it so the swarm is guided back
/// to the feasible region.
fn saturation_penalty(config: &SynthesisConfig, max_input: f64) -> f64 {
    match config.max_input {
        Some(umax) if max_input > umax => PENALTY * 0.01 * (1.0 + (max_input - umax) / umax),
        _ => 0.0,
    }
}

/// Scores one gain set on reusable buffers, under the PSO bound
/// contract ([`Pso::minimize`]): the score is exact whenever it is below
/// `bound`, and once the evaluation proves the exact score is at or
/// above `bound` it may stop with a value `≥ bound`. Pass `f64::INFINITY`
/// for the exact score. Infeasible designs score by penalty.
///
/// Two early exits, both sound for any finite bound:
///
/// * **Unstable certificate** (bound `≤ PENALTY`): every unstable or
///   root-finder-failure score is at least `PENALTY`, so a Schur–Cohn
///   certificate of a root beyond the margin settles the comparison
///   without Durand–Kerner.
/// * **Simulation cut**: while the worst-case simulation runs, the
///   saturation term of the running `max |u|` plus the next sampling
///   instant after the latest out-of-band sample (capped at the
///   `2·horizon` every unsettled score pays) is a lower bound of the
///   final score. Both only grow as samples arrive, the omitted plateau
///   term is non-negative, and rounded addition of non-negative terms is
///   monotone, so the simulation stops once that bound reaches `bound`.
///
/// On an exact return `scratch.feedforwards` holds the per-task
/// feedforward gains (empty for infeasible designs); the period-map,
/// simulation and response buffers are evaluation scratch.
fn evaluate_gains_ws(
    lifted: &LiftedPlant,
    gains: &[Matrix],
    config: &SynthesisConfig,
    bound: f64,
    scratch: &mut SynthScratch,
) -> Evaluation {
    let infeasible = |score: f64| Evaluation {
        score,
        settling: f64::INFINITY,
        max_input: f64::INFINITY,
        rho: Some(f64::INFINITY),
        abandoned: None,
    };
    scratch.feedforwards.clear();

    // Stability first — cheap rejection of divergent designs. A stable
    // candidate's score never reads ρ, so the certified pre-test skips
    // root-finding; the unstable penalty does read it, so that side (and
    // anything the test cannot certify) gets the exact ρ, unless the
    // bound lets the unstable certificate settle the comparison.
    let certify_below = config.stability_margin * (1.0 - CERTIFY_BAND);
    let certify_beyond =
        (bound <= PENALTY).then_some(config.stability_margin * (1.0 + CERTIFY_BAND));
    let rho = match lifted.closed_loop_stability_ws(
        gains,
        &mut scratch.pm,
        &mut scratch.eig,
        certify_below,
        certify_beyond,
    ) {
        Ok(Stability::CertifiedBelow) => {
            // Debug builds hold every certificate to the exact path.
            debug_assert!(
                matches!(scratch.eig.root_radius(), Ok(r) if r < config.stability_margin),
                "certified below {certify_below} but exact ρ is {:?}",
                scratch.eig.root_radius()
            );
            None
        }
        Ok(Stability::CertifiedBeyond) => {
            return Evaluation {
                abandoned: Some(Abandon::Unstable),
                ..infeasible(PENALTY)
            };
        }
        Ok(Stability::Exact(rho)) if !rho.is_finite() || rho >= config.stability_margin => {
            return infeasible(PENALTY * (1.0 + rho.min(1e6)));
        }
        Ok(Stability::Exact(rho)) => Some(rho),
        Err(_) => return infeasible(10.0 * PENALTY),
    };

    // Feedforward gains per task (paper eq. (17)), with the precomputed
    // per-interval total input matrices.
    let c = lifted.plant().c();
    for ((iv, b_total), gain) in lifted.intervals().iter().zip(lifted.b_totals()).zip(gains) {
        match feedforward_gain_ws(&iv.a_d, b_total, c, gain, &mut scratch.ff) {
            Ok(f) => scratch.feedforwards.push(f),
            Err(_) => {
                scratch.feedforwards.clear();
                return infeasible(2.0 * PENALTY);
            }
        }
    }

    // The running lower bound of the simulation cut. A saturation limit
    // below zero would make the saturation term shrink as `max |u|`
    // grows, so such a configuration is always simulated in full.
    let cut = bound < f64::INFINITY && config.max_input.is_none_or(f64::is_sign_positive);
    let tol = config.settling.tolerance(config.reference);
    let unsettled_floor = 2.0 * config.horizon;
    let (mut run_max_u, mut run_saturation, mut run_unsettled) = (0.0_f64, 0.0, 0.0_f64);
    let mut lower_bound = 0.0;
    let observe = |t_next: f64, y: f64, u: f64| {
        if !cut {
            return true;
        }
        if u.abs() > run_max_u {
            run_max_u = u.abs();
            run_saturation = saturation_penalty(config, run_max_u);
        }
        // The settling test's band check; NaN counts as out of band.
        let in_band = (y - config.reference).abs() <= tol;
        if !in_band {
            run_unsettled = t_next.min(unsettled_floor);
        }
        lower_bound = run_saturation + run_unsettled;
        lower_bound < bound
    };
    match simulate_observed(
        lifted,
        gains,
        &scratch.feedforwards,
        config.reference,
        config.horizon,
        &mut scratch.response,
        &mut scratch.sim,
        observe,
    ) {
        Ok(true) => {}
        Ok(false) => {
            scratch.feedforwards.clear();
            return Evaluation {
                abandoned: Some(Abandon::Simulation),
                ..infeasible(lower_bound)
            };
        }
        Err(_) => {
            scratch.feedforwards.clear();
            return infeasible(10.0 * PENALTY);
        }
    }
    let response = &scratch.response;

    let max_input = response.max_input_magnitude();
    let score = saturation_penalty(config, max_input);

    // Plateau breaker: settling time is quantised to sampling instants,
    // so many gain sets share one settling value. A small integral-error
    // term gives the swarm a gradient inside each plateau without ever
    // outweighing a one-sample settling improvement.
    let mean_rel_err = {
        let n = response.outputs.len().max(1) as f64;
        let sum: f64 = response
            .outputs
            .iter()
            .map(|y| (y - config.reference).abs())
            .sum();
        sum / n / config.reference.abs()
    };
    let plateau_term = 1e-3 * config.horizon * mean_rel_err.min(10.0);

    let settling = match settling_time(response, config.settling) {
        Some(t) => t,
        None => {
            // Not settled within the horizon: penalise by the remaining
            // relative error so "almost settled" designs still rank better.
            let rel_err = response.final_error() / config.reference.abs();
            return Evaluation {
                score: score + config.horizon * (2.0 + rel_err.min(1e3)) + plateau_term,
                settling: f64::INFINITY,
                max_input,
                rho,
                abandoned: None,
            };
        }
    };

    Evaluation {
        score: score + settling + plateau_term,
        settling,
        max_input,
        rho,
        abandoned: None,
    }
}

/// Writes gain rows into `gains`, reusing the matrices when the shape
/// already matches (the steady state inside a PSO run) and rebuilding
/// them otherwise. `params` is either the flat `m·l` per-task layout or
/// a single shared row of width `l` replicated across all tasks.
fn write_gain_rows(gains: &mut Vec<Matrix>, params: &[f64], m: usize, l: usize) {
    if gains.len() != m || gains.iter().any(|g| g.shape() != (1, l)) {
        gains.clear();
        gains.resize_with(m, || Matrix::zeros(1, l));
    }
    for (j, gain) in gains.iter_mut().enumerate() {
        let src = if params.len() == m * l {
            &params[j * l..(j + 1) * l]
        } else {
            params
        };
        for (i, &v) in src.iter().enumerate() {
            gain.set(0, i, v);
        }
    }
}

/// The PSO objective of one search phase: pool-backed, bounded scoring
/// of parameter vectors, with local tallies of the abandoned calls.
struct Objective<'a> {
    ctx: &'a SynthCtx,
    lifted: &'a LiftedPlant,
    config: &'a SynthesisConfig,
    m: usize,
    l: usize,
    abandoned_unstable: u64,
    abandoned_simulation: u64,
}

#[cfg(test)]
thread_local! {
    /// Test switch: score every objective call exactly (bound `+∞`).
    static EXACT_OBJECTIVE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Abandoned calls published on this thread: `[unstable, simulation]`.
    static ABANDONED_CALLS: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0; 2]) };
}

impl<'a> Objective<'a> {
    fn new(ctx: &'a SynthCtx, lifted: &'a LiftedPlant, config: &'a SynthesisConfig) -> Self {
        Objective {
            ctx,
            lifted,
            config,
            m: lifted.tasks(),
            l: lifted.state_dim(),
            abandoned_unstable: 0,
            abandoned_simulation: 0,
        }
    }

    /// Scores `params` (the flat `m·l` per-task gains or one shared row
    /// of width `l`) under the PSO bound contract: takes a scratch set
    /// from the context, materialises the gains into its reusable
    /// matrices, and returns both to the pool. It is a pure function of
    /// `(params, bound)` (the scratch contents are fully overwritten), so
    /// which scratch set it gets is unobservable.
    ///
    /// Debug builds re-score every abandoned call exactly and check that
    /// the exact score does reach the bound.
    fn score(&mut self, params: &[f64], bound: f64) -> f64 {
        #[cfg(test)]
        let bound = if EXACT_OBJECTIVE.with(std::cell::Cell::get) {
            f64::INFINITY
        } else {
            bound
        };
        let mut scratch = self.ctx.take();
        let mut gains = std::mem::take(&mut scratch.gains);
        write_gain_rows(&mut gains, params, self.m, self.l);
        let eval = evaluate_gains_ws(self.lifted, &gains, self.config, bound, &mut scratch);
        if let Some(abandon) = eval.abandoned {
            match abandon {
                Abandon::Unstable => self.abandoned_unstable += 1,
                Abandon::Simulation => self.abandoned_simulation += 1,
            }
            if cfg!(debug_assertions) {
                let exact = evaluate_gains_ws(
                    self.lifted,
                    &gains,
                    self.config,
                    f64::INFINITY,
                    &mut scratch,
                );
                assert!(
                    eval.score >= bound && exact.score >= bound,
                    "{abandon:?} cut at {} below its bound {bound}: exact score {}",
                    eval.score,
                    exact.score
                );
            }
        }
        scratch.gains = gains;
        self.ctx.put(scratch);
        eval.score
    }

    /// Adds the phase's abandoned-call tallies to the metrics registry
    /// (once per phase: a per-call update would cost more than the
    /// observability budget allows) and resets them.
    fn publish(&mut self) {
        cacs_obs::metrics::PSO_ABANDONED_UNSTABLE.add(self.abandoned_unstable);
        cacs_obs::metrics::PSO_ABANDONED_SIM.add(self.abandoned_simulation);
        #[cfg(test)]
        ABANDONED_CALLS.with(|c| {
            let [unstable, simulation] = c.get();
            c.set([
                unstable + self.abandoned_unstable,
                simulation + self.abandoned_simulation,
            ]);
        });
        self.abandoned_unstable = 0;
        self.abandoned_simulation = 0;
    }
}

fn params_to_gains(params: &[f64], m: usize, l: usize) -> Vec<Matrix> {
    (0..m)
        .map(|j| Matrix::row(&params[j * l..(j + 1) * l]))
        .collect()
}

/// Synthesises the holistic controller for `lifted` under `config`.
///
/// A swarm that exhausts its budget without a feasible design is
/// restarted with a deterministically derived seed (up to two retries),
/// so marginal budget/plant combinations degrade into "slightly more
/// evaluations" instead of a hard failure; runs that succeed on the
/// first attempt are unaffected.
///
/// # Errors
///
/// * [`ControlError::SynthesisFailed`] if the configuration is invalid or
///   no stabilising, feasible design was found within the PSO budget on
///   any attempt.
///
/// # Example
///
/// ```
/// use cacs_control::{synthesize, ContinuousLti, LiftedPlant, SynthesisConfig};
/// use cacs_linalg::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let plant = ContinuousLti::new(
///     Matrix::from_rows(&[&[-80.0]])?,
///     Matrix::column(&[80.0]),
///     Matrix::row(&[1.0]),
/// )?;
/// let lifted = LiftedPlant::new(plant, &[1e-3, 3e-3], &[1e-3, 0.4e-3])?;
/// let mut config = SynthesisConfig::new(1.0, 0.1);
/// config.pso = config.pso.with_budget(16, 40).with_seed(1);
/// config.gain_bound = 20.0;
/// let design = synthesize(&lifted, &config)?;
/// assert!(design.spectral_radius < 1.0);
/// assert!(design.settling_time.is_finite());
/// # Ok(())
/// # }
/// ```
pub fn synthesize(lifted: &LiftedPlant, config: &SynthesisConfig) -> Result<DesignedController> {
    synthesize_with(lifted, config, &SynthCtx::new())
}

/// [`synthesize`] with an explicit scratch-buffer context.
///
/// The context's pool feeds every PSO objective call, so a long-lived
/// [`SynthCtx`] (e.g. one per evaluation worker) amortises the per-call
/// gain/period-map/simulation allocations across an entire schedule
/// sweep. Results are bit-identical to [`synthesize`] — scratch reuse
/// skips no computation.
///
/// # Errors
///
/// Same conditions as [`synthesize`].
pub fn synthesize_with(
    lifted: &LiftedPlant,
    config: &SynthesisConfig,
    ctx: &SynthCtx,
) -> Result<DesignedController> {
    config.validate()?;
    let _t = cacs_obs::time(&cacs_obs::metrics::SYNTHESIS_NS);
    let mut last_err = None;
    for attempt in 0..MAX_SYNTHESIS_ATTEMPTS {
        if attempt > 0 {
            cacs_obs::metrics::SYNTHESIS_RETRIES.incr();
        }
        let mut attempt_config = config.clone();
        attempt_config.pso.seed = config
            .pso
            .seed
            .wrapping_add(attempt.wrapping_mul(ATTEMPT_SEED_STRIDE));
        match synthesize_direct(lifted, &attempt_config, ctx) {
            Ok(design) => return Ok(design),
            // Only design infeasibility is seed-dependent; configuration
            // and PSO-mechanics errors fail identically on every seed,
            // so retrying them would just multiply the cost.
            Err(AttemptError {
                error,
                retryable: false,
            }) => return Err(error),
            Err(AttemptError { error, .. }) => last_err = Some(error),
        }
    }
    Err(last_err.expect("at least one synthesis attempt ran"))
}

/// A failed synthesis attempt, classified by whether a fresh PSO seed
/// could plausibly change the outcome.
struct AttemptError {
    error: ControlError,
    retryable: bool,
}

impl AttemptError {
    fn fatal(error: ControlError) -> Self {
        AttemptError {
            error,
            retryable: false,
        }
    }

    fn seed_dependent(error: ControlError) -> Self {
        AttemptError {
            error,
            retryable: true,
        }
    }
}

type AttemptResult = std::result::Result<DesignedController, AttemptError>;

fn synthesize_direct(
    lifted: &LiftedPlant,
    config: &SynthesisConfig,
    ctx: &SynthCtx,
) -> AttemptResult {
    let (m, l) = (lifted.tasks(), lifted.state_dim());
    let map_err = |e: cacs_pso::PsoError| {
        AttemptError::fatal(ControlError::SynthesisFailed {
            reason: format!("PSO failed: {e}"),
        })
    };
    let mut evaluations = 0usize;
    let mut objective = Objective::new(ctx, lifted, config);

    // Phase A (m > 1): search the l-dimensional shared-gain subspace
    // (every task uses the same K). This cheap warm start makes the full
    // structured search reliably at least as good as a single-gain design
    // — the high-dimensional swarm otherwise struggles to even stabilise
    // plants with long idle gaps.
    let mut guesses: Vec<Vec<f64>> = Vec::new();
    if m > 1 {
        let shared_bounds = Bounds::symmetric(l, config.gain_bound).map_err(|e| {
            AttemptError::fatal(ControlError::SynthesisFailed {
                reason: format!("bad gain bounds: {e}"),
            })
        })?;
        let shared = {
            let _t = cacs_obs::time(&cacs_obs::metrics::PHASE_A_NS);
            let shared = Pso::new(config.pso).minimize(&shared_bounds, |params, bound| {
                objective.score(params, bound)
            });
            objective.publish();
            shared.map_err(map_err)?
        };
        evaluations += shared.evaluations;
        let mut replicated = Vec::with_capacity(m * l);
        for _ in 0..m {
            replicated.extend_from_slice(&shared.best_position);
        }
        guesses.push(replicated);
    }

    // Phase B: full per-task gain search, warm-started. The budget scales
    // with the task count — the search space has m·l dimensions, which is
    // also why the paper reports evaluation cost growing from seconds
    // (m = 1) to hours (m > 5).
    let bounds = Bounds::symmetric(m * l, config.gain_bound).map_err(|e| {
        AttemptError::fatal(ControlError::SynthesisFailed {
            reason: format!("bad gain bounds: {e}"),
        })
    })?;
    let mut pso_b = config.pso;
    pso_b.iterations = pso_b.iterations.saturating_mul(m.max(1));
    let result = {
        let _t = cacs_obs::time(&cacs_obs::metrics::PHASE_B_NS);
        let result = Pso::new(pso_b).minimize_with_guesses(&bounds, &guesses, |params, bound| {
            objective.score(params, bound)
        });
        objective.publish();
        result.map_err(map_err)?
    };
    evaluations += result.evaluations;

    finish(
        lifted,
        config,
        ctx,
        &params_to_gains(&result.best_position, m, l),
        evaluations,
    )
}

/// Recomputes the winning design's details and validates feasibility.
/// All failures here mean the swarm ended on an infeasible design —
/// exactly the seed-dependent case worth retrying.
fn finish(
    lifted: &LiftedPlant,
    config: &SynthesisConfig,
    ctx: &SynthCtx,
    gains: &[Matrix],
    evaluations: usize,
) -> AttemptResult {
    let mut scratch = ctx.take();
    let eval = evaluate_gains_ws(lifted, gains, config, f64::INFINITY, &mut scratch);
    // The design reports its exact ρ even when the objective certified it.
    let rho = eval
        .rho
        .unwrap_or_else(|| scratch.eig.root_radius().unwrap_or(f64::INFINITY));
    let feedforwards = scratch.feedforwards.clone();
    ctx.put(scratch);
    if !rho.is_finite() || rho >= config.stability_margin {
        return Err(AttemptError::seed_dependent(
            ControlError::SynthesisFailed {
                reason: format!("no stabilising design found (best spectral radius {rho:.4})"),
            },
        ));
    }
    if !eval.settling.is_finite() {
        return Err(AttemptError::seed_dependent(
            ControlError::SynthesisFailed {
                reason: "best design does not settle within the horizon".into(),
            },
        ));
    }
    if let Some(umax) = config.max_input {
        if eval.max_input > umax * (1.0 + 1e-9) {
            return Err(AttemptError::seed_dependent(
                ControlError::SynthesisFailed {
                    reason: format!(
                        "best design saturates the input ({:.3} > {umax})",
                        eval.max_input
                    ),
                },
            ));
        }
    }
    Ok(DesignedController {
        gains: gains.to_vec(),
        feedforwards,
        settling_time: eval.settling,
        max_input: eval.max_input,
        spectral_radius: rho,
        evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ContinuousLti;

    /// Fast, stable first-order plant: easy to control.
    fn first_order_lifted() -> LiftedPlant {
        let plant = ContinuousLti::new(
            Matrix::from_rows(&[&[-80.0]]).unwrap(),
            Matrix::column(&[80.0]),
            Matrix::row(&[1.0]),
        )
        .unwrap();
        LiftedPlant::new(plant, &[1e-3, 3e-3], &[1e-3, 0.4e-3]).unwrap()
    }

    /// Servo-like second-order plant with an integrator.
    fn servo_lifted(periods: &[f64], delays: &[f64]) -> LiftedPlant {
        let plant = ContinuousLti::new(
            Matrix::from_rows(&[&[0.0, 1.0], &[0.0, -40.0]]).unwrap(),
            Matrix::column(&[0.0, 1000.0]),
            Matrix::row(&[1.0, 0.0]),
        )
        .unwrap();
        LiftedPlant::new(plant.clone(), periods, delays).unwrap()
    }

    fn quick_config(reference: f64) -> SynthesisConfig {
        let mut c = SynthesisConfig::new(reference, 0.15);
        c.pso = c.pso.with_budget(20, 60).with_seed(7);
        c.gain_bound = 50.0;
        c
    }

    #[test]
    fn direct_gain_stabilises_first_order() {
        let lifted = first_order_lifted();
        let design = synthesize(&lifted, &quick_config(1.0)).unwrap();
        assert!(design.spectral_radius < 1.0);
        assert!(design.settling_time.is_finite());
        assert!(design.settling_time > 0.0);
        assert_eq!(design.gains.len(), 2);
        assert_eq!(design.feedforwards.len(), 2);
    }

    #[test]
    fn direct_gain_stabilises_servo() {
        let lifted = servo_lifted(&[0.9e-3, 3.2e-3], &[0.9e-3, 0.45e-3]);
        let mut config = quick_config(0.3);
        config.pso = config.pso.with_budget(30, 80).with_seed(3);
        let design = synthesize(&lifted, &config).unwrap();
        assert!(design.spectral_radius < 1.0);
        assert!(design.settling_time < 0.15);
        // Re-simulation reproduces the recorded settling.
        let response = design.simulate(&lifted, 0.3, 0.15).unwrap();
        let s = settling_time(&response, config.settling).unwrap();
        assert!((s - design.settling_time).abs() < 1e-12);
    }

    #[test]
    fn saturation_constraint_is_respected() {
        let lifted = first_order_lifted();
        let mut config = quick_config(1.0);
        config.max_input = Some(1.6);
        let design = synthesize(&lifted, &config).unwrap();
        assert!(design.max_input <= 1.6 * (1.0 + 1e-9));
        // Without the constraint the design pushes harder.
        let unconstrained = synthesize(&lifted, &quick_config(1.0)).unwrap();
        assert!(unconstrained.max_input >= design.max_input - 1e-9);
    }

    #[test]
    fn saturation_slows_settling() {
        let lifted = first_order_lifted();
        let mut tight = quick_config(1.0);
        tight.max_input = Some(1.2);
        let slow = synthesize(&lifted, &tight).unwrap();
        let fast = synthesize(&lifted, &quick_config(1.0)).unwrap();
        assert!(
            slow.settling_time >= fast.settling_time - 1e-9,
            "saturated design should not settle faster: {} vs {}",
            slow.settling_time,
            fast.settling_time
        );
    }

    #[test]
    fn single_task_m1_round_robin_case() {
        // m = 1 (round-robin): one gain, one long period with delay < h.
        let lifted = servo_lifted(&[2.3e-3], &[0.9e-3]);
        let mut config = quick_config(0.3);
        config.pso = config.pso.with_budget(30, 80).with_seed(5);
        let design = synthesize(&lifted, &config).unwrap();
        assert_eq!(design.gains.len(), 1);
        assert!(design.spectral_radius < 1.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let lifted = first_order_lifted();
        let mut c = quick_config(0.0); // zero reference
        assert!(synthesize(&lifted, &c).is_err());
        c = quick_config(1.0);
        c.horizon = -1.0;
        assert!(synthesize(&lifted, &c).is_err());
        c = quick_config(1.0);
        c.gain_bound = 0.0;
        assert!(synthesize(&lifted, &c).is_err());
        c = quick_config(1.0);
        c.stability_margin = 1.5;
        assert!(synthesize(&lifted, &c).is_err());
    }

    #[test]
    fn unstabilisable_budget_fails_cleanly() {
        // Unstable plant with a gain bound far too small to stabilise it.
        let plant = ContinuousLti::new(
            Matrix::from_rows(&[&[500.0]]).unwrap(),
            Matrix::column(&[1.0]),
            Matrix::row(&[1.0]),
        )
        .unwrap();
        let lifted = LiftedPlant::new(plant, &[1e-3, 3e-3], &[1e-3, 0.4e-3]).unwrap();
        let mut config = quick_config(1.0);
        config.gain_bound = 1e-6;
        config.pso = config.pso.with_budget(8, 10).with_seed(1);
        assert!(matches!(
            synthesize(&lifted, &config),
            Err(ControlError::SynthesisFailed { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let lifted = first_order_lifted();
        let a = synthesize(&lifted, &quick_config(1.0)).unwrap();
        let b = synthesize(&lifted, &quick_config(1.0)).unwrap();
        assert_eq!(a.settling_time, b.settling_time);
        assert_eq!(a.gains.len(), b.gains.len());
        for (ka, kb) in a.gains.iter().zip(&b.gains) {
            assert!(ka.approx_eq(kb, 0.0));
        }
    }

    #[test]
    fn shared_ctx_is_bit_identical_to_fresh() {
        // One SynthCtx serving several syntheses (the per-worker setup in
        // cacs-core) must reproduce the context-free path bit for bit,
        // including on its second run when every buffer is pool-reused.
        let lifted = first_order_lifted();
        let fresh = synthesize(&lifted, &quick_config(1.0)).unwrap();
        let ctx = SynthCtx::new();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for round in 0..2 {
            let shared = synthesize_with(&lifted, &quick_config(1.0), &ctx).unwrap();
            assert_eq!(
                fresh.settling_time.to_bits(),
                shared.settling_time.to_bits(),
                "round {round}"
            );
            assert_eq!(
                bits(&fresh.feedforwards),
                bits(&shared.feedforwards),
                "round {round}"
            );
            for (a, b) in fresh.gains.iter().zip(&shared.gains) {
                assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "round {round}");
            }
        }
    }

    /// Synthesises with the bounded objective, then with every
    /// objective call scored exactly; returns both outcomes and the
    /// bounded run's abandoned calls, `[unstable, simulation]`.
    fn bounded_and_exact(
        lifted: &LiftedPlant,
        config: &SynthesisConfig,
    ) -> (
        Result<DesignedController>,
        Result<DesignedController>,
        [u64; 2],
    ) {
        ABANDONED_CALLS.with(|c| c.set([0; 2]));
        let bounded = synthesize(lifted, config);
        let abandoned = ABANDONED_CALLS.with(std::cell::Cell::get);
        EXACT_OBJECTIVE.with(|c| c.set(true));
        let exact = synthesize(lifted, config);
        EXACT_OBJECTIVE.with(|c| c.set(false));
        assert_eq!(ABANDONED_CALLS.with(std::cell::Cell::get), abandoned);
        (bounded, exact, abandoned)
    }

    #[test]
    fn bounded_objective_designs_bit_identically_to_the_exact_one() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let plants = [
            servo_lifted(&[2.3e-3], &[0.9e-3]),
            servo_lifted(&[0.9e-3, 3.2e-3], &[0.9e-3, 0.45e-3]),
            servo_lifted(&[0.9e-3, 0.45e-3, 1.4e-3], &[0.9e-3, 0.45e-3, 0.45e-3]),
        ];
        let mut abandoned = [0u64; 2];
        let mut saturated_designs = 0;
        for lifted in &plants {
            // Without a limit, and with one tight enough that the swarm
            // meets the saturation term of the lower bound.
            for max_input in [None, Some(3.0)] {
                let mut config = quick_config(0.3);
                config.pso = config.pso.with_budget(16, 30).with_seed(5);
                config.max_input = max_input;
                let what = format!("m = {}, max_input {max_input:?}", lifted.tasks());
                let (bounded, exact, cut) = bounded_and_exact(lifted, &config);
                abandoned[0] += cut[0];
                abandoned[1] += cut[1];
                let (bounded, exact) = (bounded.unwrap(), exact.unwrap());
                assert_eq!(bounded.gains.len(), exact.gains.len(), "{what}");
                for (a, b) in bounded.gains.iter().zip(&exact.gains) {
                    assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "{what}");
                }
                assert_eq!(
                    bits(&bounded.feedforwards),
                    bits(&exact.feedforwards),
                    "{what}"
                );
                for (a, b) in [
                    (bounded.settling_time, exact.settling_time),
                    (bounded.spectral_radius, exact.spectral_radius),
                    (bounded.max_input, exact.max_input),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}");
                }
                assert_eq!(bounded.evaluations, exact.evaluations, "{what}");
                if max_input.is_some_and(|u| bounded.max_input > 0.5 * u) {
                    saturated_designs += 1;
                }
            }
        }
        // Both early exits ran, and the limit did bind on some designs.
        assert!(abandoned[0] > 0 && abandoned[1] > 0, "{abandoned:?}");
        assert!(saturated_designs > 0);
    }

    #[test]
    fn config_key_tracks_every_field() {
        let base = quick_config(1.0);
        let key_of = |c: &SynthesisConfig| {
            let mut k = BitKey::new();
            c.push_key(&mut k);
            k
        };
        let same = key_of(&base);
        assert_eq!(key_of(&base), same);
        let variants: Vec<SynthesisConfig> = vec![
            {
                let mut c = base.clone();
                c.pso = c.pso.with_seed(base.pso.seed ^ 1);
                c
            },
            {
                let mut c = base.clone();
                c.gain_bound += 1.0;
                c
            },
            {
                let mut c = base.clone();
                c.max_input = Some(2.0);
                c
            },
            {
                let mut c = base.clone();
                c.reference = -base.reference;
                c
            },
            {
                let mut c = base.clone();
                c.settling.band = 0.05;
                c
            },
            {
                let mut c = base.clone();
                c.horizon *= 2.0;
                c
            },
            {
                let mut c = base.clone();
                c.stability_margin = 0.95;
                c
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(key_of(v), same, "variant {i} must change the key");
        }
    }

    #[test]
    fn denser_sampling_gives_no_worse_settling() {
        // The same plant with twice the samples per period should allow an
        // equal or better design (more actuation opportunities).
        let sparse = servo_lifted(&[2.3e-3], &[0.9e-3]);
        let dense = servo_lifted(&[0.9e-3, 0.45e-3, 1.4e-3], &[0.9e-3, 0.45e-3, 0.45e-3]);
        let mut config = quick_config(0.3);
        config.pso = config.pso.with_budget(30, 100).with_seed(7);
        let s_sparse = synthesize(&sparse, &config).unwrap();
        let s_dense = synthesize(&dense, &config).unwrap();
        // Allow 10 % slack for search noise.
        assert!(
            s_dense.settling_time <= s_sparse.settling_time * 1.10,
            "dense {} vs sparse {}",
            s_dense.settling_time,
            s_sparse.settling_time
        );
    }
}
