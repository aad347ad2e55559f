//! Lifted periodic closed-loop model — the general-`m` counterpart of the
//! paper's holistic system matrix `A_hol` (Section III, eq. (16)).
//!
//! One application under a schedule samples with a cyclic pattern of `m`
//! intervals, each with its own period `h(j)` and delay `τ(j)`. With
//! per-task state feedback `u_j = K_j x_j + F_j r`, the closed loop is a
//! linear *periodic* system whose step recursion has two-sample memory
//! (the previous input is still in flight). Stacking
//! `v[k] = [x[k−1]; x[k]]` gives per-interval step matrices
//!
//! ```text
//! S_j = [ 0        I              ]
//!       [ P_j·K_{j−1}   A_j + Q_j·K_j ]
//! ```
//!
//! and the **period map** `Φ = S_{m−1} ··· S_0`. Stability of the design
//! is `ρ(Φ) < 1`; `Φ`'s eigenvalues are the poles the paper places in
//! `A_hol`.
//!
//! Note on the paper: expanding its own eq. (15) produces the block
//! `A1·A2 + A1·B2²·K2 + B1·K2` in the lower-right of `A_hol`, but the
//! printed matrix omits the `B1·K2` term (a typo). This module keeps the
//! full term; the tests verify the period map against brute-force
//! step-by-step simulation, which is unambiguous.

use crate::{discretize_delayed_cached, ContinuousLti, ControlError, DelayedStep, Result};
use cacs_linalg::{spectral_radius, ExpmCache, ExpmWorkspace, Matrix};

/// Reusable buffers for [`LiftedPlant::period_map_into`] — the four
/// fixed matrices of the product chain, sized lazily to the plant and
/// kept across calls so a loop of period maps allocates nothing.
#[derive(Debug)]
pub struct PeriodMapWorkspace {
    /// Current state dimension `l` the buffers are sized for (0 = unsized).
    dim: usize,
    scratch: Matrix, // l × l
    step: Matrix,    // 2l × 2l
    phi: Matrix,     // 2l × 2l — holds the result after `period_map_into`
    next: Matrix,    // 2l × 2l
}

impl Default for PeriodMapWorkspace {
    fn default() -> Self {
        PeriodMapWorkspace::new()
    }
}

impl PeriodMapWorkspace {
    /// An empty workspace; buffers are built on first use.
    #[must_use]
    pub fn new() -> Self {
        PeriodMapWorkspace {
            dim: 0,
            scratch: Matrix::zeros(1, 1),
            step: Matrix::zeros(1, 1),
            phi: Matrix::zeros(1, 1),
            next: Matrix::zeros(1, 1),
        }
    }

    /// (Re)sizes the buffers for state dimension `l`. Contents are
    /// stale afterwards; every user overwrites them fully.
    fn ensure(&mut self, l: usize) {
        if self.dim != l {
            self.scratch = Matrix::zeros(l, l);
            self.step = Matrix::zeros(2 * l, 2 * l);
            self.phi = Matrix::zeros(2 * l, 2 * l);
            self.next = Matrix::zeros(2 * l, 2 * l);
            self.dim = l;
        }
    }

    /// The period map produced by the last [`LiftedPlant::period_map_into`].
    pub fn phi(&self) -> &Matrix {
        &self.phi
    }
}

/// The per-application lifted plant: the cyclic chain of delayed-input
/// discretisations induced by a schedule.
///
/// # Example
///
/// ```
/// use cacs_control::{ContinuousLti, LiftedPlant};
/// use cacs_linalg::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let plant = ContinuousLti::new(
///     Matrix::from_rows(&[&[0.0, 1.0], &[0.0, -10.0]])?,
///     Matrix::column(&[0.0, 100.0]),
///     Matrix::row(&[1.0, 0.0]),
/// )?;
/// // Two tasks: a short interval with full delay, a long one with the
/// // idle gap (paper Fig. 4 pattern).
/// let lifted = LiftedPlant::new(plant, &[1e-3, 3e-3], &[1e-3, 0.5e-3])?;
/// assert_eq!(lifted.tasks(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LiftedPlant {
    plant: ContinuousLti,
    intervals: Vec<DelayedStep>,
    /// Precomputed `B_prev + B_new` per interval (feedforward path) so
    /// objective evaluations don't re-add them on every call.
    b_totals: Vec<Matrix>,
}

impl LiftedPlant {
    /// Builds the lifted plant from the application's cyclic sampling
    /// `periods` and sensing-to-actuation `delays` (both of length `m`,
    /// from `cacs-sched`'s timing derivation).
    ///
    /// # Errors
    ///
    /// * [`ControlError::InvalidTiming`] if the slices are empty or have
    ///   different lengths, or any `delay > period`.
    /// * Discretisation errors from [`crate::discretize_delayed`].
    pub fn new(plant: ContinuousLti, periods: &[f64], delays: &[f64]) -> Result<Self> {
        LiftedPlant::new_cached(plant, periods, delays, None)
    }

    /// [`LiftedPlant::new`] with an optional shared exponential memo.
    ///
    /// One [`ExpmWorkspace`] is reused across all `m` discretisations;
    /// with a cache the repeated `(A, t)` pairs of a schedule (equal
    /// periods, the ubiquitous `t = 0` from full-delay intervals) are
    /// computed once. Bit-identical to [`LiftedPlant::new`] either way.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LiftedPlant::new`].
    pub fn new_cached(
        plant: ContinuousLti,
        periods: &[f64],
        delays: &[f64],
        cache: Option<&ExpmCache>,
    ) -> Result<Self> {
        if periods.is_empty() || periods.len() != delays.len() {
            return Err(ControlError::InvalidTiming {
                reason: format!(
                    "need matching non-empty periods/delays, got {} and {}",
                    periods.len(),
                    delays.len()
                ),
            });
        }
        let mut ws = ExpmWorkspace::new();
        let intervals = periods
            .iter()
            .zip(delays)
            .map(|(&h, &tau)| discretize_delayed_cached(&plant, h, tau, cache, &mut ws))
            .collect::<Result<Vec<_>>>()?;
        let b_totals = intervals
            .iter()
            .map(DelayedStep::b_total)
            .collect::<Result<Vec<_>>>()?;
        Ok(LiftedPlant {
            plant,
            intervals,
            b_totals,
        })
    }

    /// The continuous plant.
    pub fn plant(&self) -> &ContinuousLti {
        &self.plant
    }

    /// Number of tasks `m` in the cyclic pattern.
    pub fn tasks(&self) -> usize {
        self.intervals.len()
    }

    /// State dimension `l` of the plant.
    pub fn state_dim(&self) -> usize {
        self.plant.state_dim()
    }

    /// The discretised intervals, in task order.
    pub fn intervals(&self) -> &[DelayedStep] {
        &self.intervals
    }

    /// Precomputed steady-state input matrices `B_prev + B_new`, in task
    /// order (what [`DelayedStep::b_total`] returns, computed once at
    /// construction).
    pub fn b_totals(&self) -> &[Matrix] {
        &self.b_totals
    }

    /// Validates a per-task gain set: `m` row vectors of width `l`.
    fn check_gains(&self, gains: &[Matrix]) -> Result<()> {
        let (m, l) = (self.tasks(), self.state_dim());
        if gains.len() != m {
            return Err(ControlError::InvalidPlant {
                reason: format!("need {m} gain vectors, got {}", gains.len()),
            });
        }
        if let Some(bad) = gains.iter().find(|k| k.shape() != (1, l)) {
            return Err(ControlError::InvalidPlant {
                reason: format!("gain must be 1x{l}, got {:?}", bad.shape()),
            });
        }
        Ok(())
    }

    /// The closed-loop step matrix `S_j` on the stacked state
    /// `v = [x_prev; x]` for interval `j` under the given per-task gains.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidPlant`] for malformed gains or an
    /// out-of-range `j`.
    pub fn step_matrix(&self, j: usize, gains: &[Matrix]) -> Result<Matrix> {
        self.check_gains(gains)?;
        let m = self.tasks();
        if j >= m {
            return Err(ControlError::InvalidPlant {
                reason: format!("interval index {j} out of range ({m} tasks)"),
            });
        }
        let l = self.state_dim();
        let mut s = Matrix::zeros(2 * l, 2 * l);
        let mut scratch = Matrix::zeros(l, l);
        self.step_matrix_into(j, gains, &mut s, &mut scratch)?;
        Ok(s)
    }

    /// Allocation-free kernel behind [`LiftedPlant::step_matrix`]: writes
    /// `S_j` into `out` (2l × 2l) using `scratch` (l × l) for the
    /// intermediate products. Gains and `j` are assumed validated.
    fn step_matrix_into(
        &self,
        j: usize,
        gains: &[Matrix],
        out: &mut Matrix,
        scratch: &mut Matrix,
    ) -> Result<()> {
        let m = self.tasks();
        let l = self.state_dim();
        let prev = (j + m - 1) % m;
        let iv = &self.intervals[j];

        out.fill(0.0);
        // Top: [0, I] — the new x_prev is the old x.
        for i in 0..l {
            out.set(i, l + i, 1.0);
        }
        // Bottom-left: P_j K_{j−1} (the in-flight input was computed from
        // the previous sample).
        iv.b_prev.matmul_into(&gains[prev], scratch)?;
        out.set_block(l, 0, scratch)?;
        // Bottom-right: A_j + Q_j K_j.
        iv.b_new.matmul_into(&gains[j], scratch)?;
        scratch.add_assign_matrix(&iv.a_d)?;
        out.set_block(l, l, scratch)?;
        Ok(())
    }

    /// The closed-loop period map `Φ = S_{m−1} ··· S_0` — the holistic
    /// system matrix whose eigenvalues the paper places (general-`m`
    /// `A_hol`).
    ///
    /// The product chain runs on four fixed buffers (step, two
    /// ping-pong accumulators, one l×l scratch) instead of allocating
    /// per interval. This is the reference the PSO objective's
    /// fixed-size kernel ([`crate::LiftedKernel::period_map`]) reproduces
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LiftedPlant::step_matrix`].
    pub fn period_map(&self, gains: &[Matrix]) -> Result<Matrix> {
        let mut ws = PeriodMapWorkspace::new();
        self.period_map_into(gains, &mut ws)?;
        Ok(ws.phi)
    }

    /// Allocation-free variant of [`LiftedPlant::period_map`]: the
    /// result lands in `ws.phi()` and the four product buffers are
    /// reused across calls. Bit-identical to the allocating path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LiftedPlant::step_matrix`].
    pub fn period_map_into(&self, gains: &[Matrix], ws: &mut PeriodMapWorkspace) -> Result<()> {
        self.check_gains(gains)?;
        let m = self.tasks();
        ws.ensure(self.state_dim());
        self.step_matrix_into(0, gains, &mut ws.step, &mut ws.scratch)?;
        ws.phi.copy_from(&ws.step)?;
        for j in 1..m {
            self.step_matrix_into(j, gains, &mut ws.step, &mut ws.scratch)?;
            ws.step.matmul_into(&ws.phi, &mut ws.next)?;
            std::mem::swap(&mut ws.phi, &mut ws.next);
        }
        Ok(())
    }

    /// Spectral radius of the period map: the design is asymptotically
    /// stable iff this is `< 1`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LiftedPlant::period_map`], plus eigenvalue
    /// computation failures.
    pub fn closed_loop_spectral_radius(&self, gains: &[Matrix]) -> Result<f64> {
        self.closed_loop_spectral_radius_ws(gains, &mut PeriodMapWorkspace::new())
    }

    /// [`LiftedPlant::closed_loop_spectral_radius`] with the period map
    /// built on reusable buffers: the exact `ρ(Φ)`, by Faddeev–LeVerrier
    /// and Durand–Kerner ([`cacs_linalg::spectral_radius`]).
    ///
    /// The PSO objective does not call this. It only needs to know
    /// whether `ρ(Φ)` is below the stability margin, which it certifies
    /// by a Schur–Cohn test on the coefficients of its fixed-size kernel
    /// ([`crate::LiftedKernel::characteristic_polynomial`]), root-finding
    /// only when it cannot certify. Whenever it does root-find, the
    /// radius is this function's, bit for bit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LiftedPlant::closed_loop_spectral_radius`].
    pub fn closed_loop_spectral_radius_ws(
        &self,
        gains: &[Matrix],
        ws: &mut PeriodMapWorkspace,
    ) -> Result<f64> {
        self.period_map_into(gains, ws)?;
        Ok(spectral_radius(&ws.phi)?)
    }

    /// The paper's explicit two-task `A_hol` (eq. (16), with the missing
    /// `B1·K2` term of eq. (15) restored). Only valid for `m = 2`; used to
    /// cross-check [`LiftedPlant::period_map`].
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidPlant`] unless `m == 2`.
    pub fn paper_ahol_two_tasks(&self, gains: &[Matrix]) -> Result<Matrix> {
        if self.tasks() != 2 {
            return Err(ControlError::InvalidPlant {
                reason: format!("paper A_hol is defined for m=2, have m={}", self.tasks()),
            });
        }
        self.check_gains(gains)?;
        let l = self.state_dim();
        // Paper naming: interval 0 = task 1 (gain K1, full delay, matrices
        // A1, B1); interval 1 = task 2 (gain K2, matrices A2, B12, B22).
        let a1 = &self.intervals[0].a_d;
        let b1 = &self.intervals[0].b_prev; // full-delay input matrix
        let a2 = &self.intervals[1].a_d;
        let b12 = &self.intervals[1].b_prev;
        let b22 = &self.intervals[1].b_new;
        let k1 = &gains[0];
        let k2 = &gains[1];

        let mut ahol = Matrix::zeros(2 * l, 2 * l);
        // Row 1 (x[k]): [B12 K1, A2 + B22 K2] — paper eq. (14).
        ahol.set_block(0, 0, &b12.matmul(k1)?)?;
        ahol.set_block(0, l, &a2.add_matrix(&b22.matmul(k2)?)?)?;
        // Row 2 (x[k+1]): [A1 B12 K1, A1 A2 + A1 B22 K2 + B1 K2] —
        // paper eq. (15) fully expanded.
        ahol.set_block(l, 0, &a1.matmul(&b12.matmul(k1)?)?)?;
        let lower_right = a1
            .matmul(&a2.add_matrix(&b22.matmul(k2)?)?)?
            .add_matrix(&b1.matmul(k2)?)?;
        ahol.set_block(l, l, &lower_right)?;
        Ok(ahol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacs_linalg::eigenvalues;

    fn servo_like() -> ContinuousLti {
        ContinuousLti::new(
            Matrix::from_rows(&[&[0.0, 1.0], &[0.0, -20.0]]).unwrap(),
            Matrix::column(&[0.0, 300.0]),
            Matrix::row(&[1.0, 0.0]),
        )
        .unwrap()
    }

    fn paper_like_timing() -> (Vec<f64>, Vec<f64>) {
        // Two tasks: first with full delay, second with the idle gap.
        let periods = vec![0.9e-3, 3.2e-3];
        let delays = vec![0.9e-3, 0.45e-3];
        (periods, delays)
    }

    fn small_gains(m: usize) -> Vec<Matrix> {
        (0..m)
            .map(|j| Matrix::row(&[-2.0 - j as f64, -0.05]))
            .collect()
    }

    #[test]
    fn construction_validates_lengths() {
        let p = servo_like();
        assert!(LiftedPlant::new(p.clone(), &[], &[]).is_err());
        assert!(LiftedPlant::new(p.clone(), &[1e-3], &[1e-3, 1e-3]).is_err());
        assert!(LiftedPlant::new(p.clone(), &[1e-3], &[2e-3]).is_err()); // delay > period
        assert!(LiftedPlant::new(p, &[1e-3, 2e-3], &[1e-3, 1e-3]).is_ok());
    }

    #[test]
    fn step_matrix_shape_and_structure() {
        let (h, tau) = paper_like_timing();
        let lifted = LiftedPlant::new(servo_like(), &h, &tau).unwrap();
        let gains = small_gains(2);
        let s0 = lifted.step_matrix(0, &gains).unwrap();
        assert_eq!(s0.shape(), (4, 4));
        // Top-left block is zero, top-right is identity.
        assert_eq!(s0.get(0, 0), 0.0);
        assert_eq!(s0.get(0, 2), 1.0);
        assert_eq!(s0.get(1, 3), 1.0);
    }

    /// The period map must predict exactly what step-by-step simulation of
    /// the closed-loop recursion produces — this pins down the A_hol
    /// algebra independent of the paper's typo.
    #[test]
    fn period_map_matches_bruteforce_recursion() {
        let (h, tau) = paper_like_timing();
        let lifted = LiftedPlant::new(servo_like(), &h, &tau).unwrap();
        let gains = small_gains(2);
        let l = 2;

        // Brute force: x[idx+1] = A_j x + P_j K_{j-1} x[idx-1] + Q_j K_j x[idx]
        // over one full period, starting from a random window.
        let mut x_prev = Matrix::column(&[0.3, -0.1]);
        let mut x = Matrix::column(&[-0.2, 0.5]);
        let v0 = x_prev.vstack(&x).unwrap();
        let m = lifted.tasks();
        for j in 0..m {
            let iv = &lifted.intervals()[j];
            let prev_gain = &gains[(j + m - 1) % m];
            let u_prev = prev_gain.matmul(&x_prev).unwrap().get(0, 0);
            let u_now = gains[j].matmul(&x).unwrap().get(0, 0);
            let x_next = iv
                .a_d
                .matmul(&x)
                .unwrap()
                .add_matrix(&iv.b_prev.scale(u_prev))
                .unwrap()
                .add_matrix(&iv.b_new.scale(u_now))
                .unwrap();
            x_prev = x;
            x = x_next;
        }
        let v_expected = x_prev.vstack(&x).unwrap();
        let v_mapped = lifted.period_map(&gains).unwrap().matmul(&v0).unwrap();
        assert!(
            v_mapped.approx_eq(&v_expected, 1e-10 * v_expected.max_abs().max(1.0)),
            "period map disagrees with recursion:\n{v_mapped}\nvs\n{v_expected}"
        );
        let _ = l;
    }

    /// Eigenvalues of the corrected paper A_hol agree with the period map
    /// (they are cyclic rotations of the same product).
    #[test]
    fn paper_ahol_spectrum_matches_period_map() {
        let (h, tau) = paper_like_timing();
        let lifted = LiftedPlant::new(servo_like(), &h, &tau).unwrap();
        let gains = small_gains(2);
        let phi = lifted.period_map(&gains).unwrap();
        let ahol = lifted.paper_ahol_two_tasks(&gains).unwrap();
        // A_hol = S_0 · S_1, Φ = S_1 · S_0: similar products, same spectrum.
        let mut e1: Vec<f64> = eigenvalues(&phi).unwrap().iter().map(|z| z.abs()).collect();
        let mut e2: Vec<f64> = eigenvalues(&ahol)
            .unwrap()
            .iter()
            .map(|z| z.abs())
            .collect();
        e1.sort_by(f64::total_cmp);
        e2.sort_by(f64::total_cmp);
        for (a, b) in e1.iter().zip(&e2) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn paper_ahol_equals_s0_s1_product() {
        let (h, tau) = paper_like_timing();
        let lifted = LiftedPlant::new(servo_like(), &h, &tau).unwrap();
        let gains = small_gains(2);
        let s0 = lifted.step_matrix(0, &gains).unwrap();
        let s1 = lifted.step_matrix(1, &gains).unwrap();
        let product = s0.matmul(&s1).unwrap();
        let ahol = lifted.paper_ahol_two_tasks(&gains).unwrap();
        assert!(product.approx_eq(&ahol, 1e-12 * ahol.max_abs().max(1.0)));
    }

    #[test]
    fn zero_gain_spectral_radius_of_integrating_plant_is_at_least_one() {
        let (h, tau) = paper_like_timing();
        let lifted = LiftedPlant::new(servo_like(), &h, &tau).unwrap();
        let zero = vec![Matrix::row(&[0.0, 0.0]); 2];
        // Open loop has an integrator → ρ ≥ 1 (marginally unstable).
        let rho = lifted.closed_loop_spectral_radius(&zero).unwrap();
        assert!(rho >= 1.0 - 1e-9, "rho = {rho}");
    }

    #[test]
    fn stabilising_gains_bring_radius_below_one() {
        // Stable first-order plant: even mild feedback keeps ρ < 1.
        let plant = ContinuousLti::new(
            Matrix::from_rows(&[&[-50.0]]).unwrap(),
            Matrix::column(&[50.0]),
            Matrix::row(&[1.0]),
        )
        .unwrap();
        let lifted = LiftedPlant::new(plant, &[1e-3, 4e-3], &[1e-3, 0.5e-3]).unwrap();
        let gains = vec![Matrix::row(&[-0.2]), Matrix::row(&[-0.2])];
        let rho = lifted.closed_loop_spectral_radius(&gains).unwrap();
        assert!(rho < 1.0, "rho = {rho}");
    }

    #[test]
    fn single_task_period_map() {
        // m = 1: the in-flight input couples the window; Φ is still 2l×2l.
        let (h, tau) = (vec![3e-3], vec![0.9e-3]);
        let lifted = LiftedPlant::new(servo_like(), &h, &tau).unwrap();
        let gains = small_gains(1);
        let phi = lifted.period_map(&gains).unwrap();
        assert_eq!(phi.shape(), (4, 4));
        // With m = 1, prev gain == own gain.
        let s0 = lifted.step_matrix(0, &gains).unwrap();
        assert_eq!(phi, s0);
    }

    #[test]
    fn gain_validation() {
        let (h, tau) = paper_like_timing();
        let lifted = LiftedPlant::new(servo_like(), &h, &tau).unwrap();
        assert!(lifted.period_map(&small_gains(1)).is_err()); // wrong count
        let bad = vec![Matrix::row(&[1.0]); 2]; // wrong width
        assert!(lifted.period_map(&bad).is_err());
        assert!(lifted.paper_ahol_two_tasks(&small_gains(2)).is_ok());
        let three =
            LiftedPlant::new(servo_like(), &[1e-3, 1e-3, 2e-3], &[1e-3, 1e-3, 0.4e-3]).unwrap();
        assert!(three.paper_ahol_two_tasks(&small_gains(3)).is_err());
    }

    #[test]
    fn three_task_period_map_matches_recursion() {
        let lifted = LiftedPlant::new(
            servo_like(),
            &[0.9e-3, 0.45e-3, 2.5e-3],
            &[0.9e-3, 0.45e-3, 0.45e-3],
        )
        .unwrap();
        let gains = small_gains(3);
        let m = lifted.tasks();
        let mut x_prev = Matrix::column(&[1.0, 0.0]);
        let mut x = Matrix::column(&[0.0, 1.0]);
        let v0 = x_prev.vstack(&x).unwrap();
        for j in 0..m {
            let iv = &lifted.intervals()[j];
            let u_prev = gains[(j + m - 1) % m].matmul(&x_prev).unwrap().get(0, 0);
            let u_now = gains[j].matmul(&x).unwrap().get(0, 0);
            let x_next = iv
                .a_d
                .matmul(&x)
                .unwrap()
                .add_matrix(&iv.b_prev.scale(u_prev))
                .unwrap()
                .add_matrix(&iv.b_new.scale(u_now))
                .unwrap();
            x_prev = x;
            x = x_next;
        }
        let expected = x_prev.vstack(&x).unwrap();
        let mapped = lifted.period_map(&gains).unwrap().matmul(&v0).unwrap();
        assert!(mapped.approx_eq(&expected, 1e-9 * expected.max_abs().max(1.0)));
    }
}
