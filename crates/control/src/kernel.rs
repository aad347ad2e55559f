//! Fixed-size, stack-resident kernels of the PSO objective.
//!
//! Every objective call of a synthesis builds the period map `Φ` of one
//! candidate gain set, its characteristic polynomial, the feedforward
//! gains and the worst-case step response. On the general [`Matrix`]
//! path each of those steps goes through heap matrices, a shape check
//! per operation and a bounds assertion per entry. The plants here are
//! small (state dimension `l ≤ 2` in every case study, so `Φ` is at most
//! 4×4), so [`LiftedKernel`] copies a [`LiftedPlant`]'s interval
//! matrices into arrays once per synthesis and runs each step on stack
//! arrays of compile-time size: `L = l` and `N = 2l`, with `N == 2L`
//! checked when the kernel is instantiated. Controller synthesis
//! dispatches on `l` once, up to [`MAX_STATE_DIM`].
//!
//! # Bit identity
//!
//! The Matrix path stays the public reference ([`LiftedPlant::period_map`],
//! [`cacs_linalg::EigWorkspace::characteristic_polynomial`],
//! [`crate::feedforward_gain`], [`crate::simulate_worst_case`]), and each
//! kernel repeats its operation order exactly, so both give the same
//! bits for every input, non-finite ones included (up to the sign and
//! payload of a NaN, which Rust leaves unspecified):
//!
//! * products skip exact-zero left entries and accumulate from `+0.0`
//!   (so an outer product `b·k` is `0.0 + b_i·k_j`, and `+0.0` where
//!   `b_i` is zero);
//! * traces and dot products reduce with the same `Iterator::sum`;
//! * the LU solve keeps its scale (`max |m_ij|` folded from 0 with
//!   `f64::max`, then at least 1), strict `>` pivoting, the
//!   `pivot < 1e-13·scale` singular test and zero-skipping substitution;
//! * the state update adds `x + u·b` term by term.
//!
//! `crates/control/tests/kernel_bit_identity.rs` checks this against the
//! Matrix path for `l ∈ 1..=4` and `m ∈ 1..=6` with gains that include
//! `0`, `±∞` and NaN; debug builds of the objective also re-score every
//! abandoned call on the Matrix path.
//!
//! The sampled objective timers (`control.period_map_ns`,
//! `control.simulate_worst_case_ns`) are read around these kernels by
//! the objective, not inside them.

use crate::{ControlError, LiftedPlant, Response, Result};
use cacs_linalg::{schur_cohn_within, Matrix};

/// Largest plant state dimension `l` the objective kernels are
/// instantiated for; synthesis of a larger plant fails with
/// [`ControlError::SynthesisFailed`].
pub const MAX_STATE_DIM: usize = 4;

/// Coefficient slots of the largest characteristic polynomial
/// (degree `2·MAX_STATE_DIM`).
const MAX_COEFFS: usize = 2 * MAX_STATE_DIM + 1;

/// `LuDecomposition`'s singular-pivot threshold, relative to the scale.
const SINGULARITY_TOL: f64 = 1e-13;

/// One interval's discretised matrices, copied out of a [`LiftedPlant`].
#[derive(Debug, Clone, Copy)]
struct Interval<const L: usize> {
    a_d: [[f64; L]; L],
    b_prev: [f64; L],
    b_new: [f64; L],
    b_total: [f64; L],
    h: f64,
}

/// The characteristic polynomial `det(xI − Φ)` of an `N × N` period map,
/// ascending and monic, on the stack.
#[derive(Debug, Clone, Copy)]
pub struct CharPoly<const N: usize> {
    coeffs: [f64; MAX_COEFFS],
}

impl<const N: usize> CharPoly<N> {
    /// The `N + 1` ascending coefficients.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs[..=N]
    }

    /// Schur–Cohn test ([`cacs_linalg::schur_cohn_within`]) on stack
    /// scratch: `true` only if every root lies strictly inside `radius`.
    pub fn roots_within(&self, radius: f64) -> bool {
        let (mut cur, mut next) = ([0.0; MAX_COEFFS], [0.0; MAX_COEFFS]);
        schur_cohn_within(self.coeffs(), radius, &mut cur, &mut next)
    }
}

/// The objective's view of one lifted plant: each interval's `A_d`,
/// `B_prev`, `B_new`, `B_prev + B_new` and period, plus the output row
/// `C`, as arrays of state dimension `L`; period maps are `N × N` with
/// `N = 2L`.
///
/// Gains are read straight from a PSO parameter slice: either the flat
/// `m·L` per-task layout or one shared row of width `L` that every task
/// uses.
///
/// # Example
///
/// ```
/// use cacs_control::{ContinuousLti, LiftedKernel, LiftedPlant};
/// use cacs_linalg::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let plant = ContinuousLti::new(
///     Matrix::from_rows(&[&[-80.0]])?,
///     Matrix::column(&[80.0]),
///     Matrix::row(&[1.0]),
/// )?;
/// let lifted = LiftedPlant::new(plant, &[1e-3, 3e-3], &[1e-3, 0.4e-3])?;
/// let kernel = LiftedKernel::<1, 2>::new(&lifted)?;
/// let params = [-0.4, -0.2];
/// let phi = kernel.period_map(&params);
/// let gains = [Matrix::row(&[-0.4]), Matrix::row(&[-0.2])];
/// assert_eq!(Matrix::from_fn(2, 2, |i, j| phi[i][j]), lifted.period_map(&gains)?);
/// assert!(LiftedKernel::<1, 2>::characteristic_polynomial(&phi).roots_within(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LiftedKernel<const L: usize, const N: usize> {
    intervals: Vec<Interval<L>>,
    c: [f64; L],
}

impl<const L: usize, const N: usize> LiftedKernel<L, N> {
    /// Evaluated once per instantiation: a kernel shape other than
    /// `1 ≤ L ≤ MAX_STATE_DIM`, `N = 2L` does not compile.
    const SHAPE: () = assert!(
        N == 2 * L && L >= 1 && L <= MAX_STATE_DIM,
        "a lifted kernel needs N == 2L and 1 <= L <= MAX_STATE_DIM"
    );

    /// Copies `lifted`'s interval matrices into arrays.
    ///
    /// # Errors
    ///
    /// [`ControlError::InvalidPlant`] unless `lifted` has state
    /// dimension `L`.
    pub fn new(lifted: &LiftedPlant) -> Result<Self> {
        let () = Self::SHAPE;
        if lifted.state_dim() != L {
            return Err(ControlError::InvalidPlant {
                reason: format!(
                    "a {L}-state kernel cannot hold a plant of state dimension {}",
                    lifted.state_dim()
                ),
            });
        }
        let column = |v: &Matrix| std::array::from_fn(|i| v.get(i, 0));
        let intervals = lifted
            .intervals()
            .iter()
            .zip(lifted.b_totals())
            .map(|(iv, b_total)| Interval {
                a_d: std::array::from_fn(|i| std::array::from_fn(|j| iv.a_d.get(i, j))),
                b_prev: column(&iv.b_prev),
                b_new: column(&iv.b_new),
                b_total: column(b_total),
                h: iv.h,
            })
            .collect();
        let c = lifted.plant().c();
        Ok(LiftedKernel {
            intervals,
            c: std::array::from_fn(|j| c.get(0, j)),
        })
    }

    /// Number of tasks `m`.
    pub fn tasks(&self) -> usize {
        self.intervals.len()
    }

    /// Task `j`'s gain row in `params` (flat `m·L`, or one shared row).
    ///
    /// # Panics
    ///
    /// Panics if `params` has neither `m·L` nor `L` entries.
    fn gain<'p>(&self, params: &'p [f64], j: usize) -> &'p [f64; L] {
        let start = if params.len() == self.tasks() * L {
            j * L
        } else {
            assert_eq!(params.len(), L, "gain parameters: need m·l or l entries");
            0
        };
        params[start..start + L]
            .try_into()
            .expect("a gain row has L entries")
    }

    /// The closed-loop period map `Φ = S_{m−1} ··· S_0` for the gains in
    /// `params`, bit-identical to [`LiftedPlant::period_map`].
    ///
    /// # Panics
    ///
    /// Panics if `params` has neither `m·L` nor `L` entries.
    pub fn period_map(&self, params: &[f64]) -> [[f64; N]; N] {
        let mut phi = self.step_matrix(params, 0);
        for j in 1..self.tasks() {
            let s = self.step_matrix(params, j);
            // S_j·Φ. The top half of S_j is [0, I]: its product rows are
            // the skip-zero sums `0.0 + 1.0·Φ[l + i][c]`, and 1.0·x is x.
            let mut next = [[0.0; N]; N];
            for i in 0..L {
                for c in 0..N {
                    next[i][c] = 0.0 + phi[L + i][c];
                }
            }
            for i in L..N {
                next[i] = row_times(&s[i], &phi);
            }
            phi = next;
        }
        phi
    }

    /// `S_j = [0, I; B_prev·K_{j−1}, A_d + B_new·K_j]`.
    fn step_matrix(&self, params: &[f64], j: usize) -> [[f64; N]; N] {
        let m = self.tasks();
        let iv = &self.intervals[j];
        let k_prev = self.gain(params, (j + m - 1) % m);
        let k = self.gain(params, j);
        let mut s = [[0.0; N]; N];
        for i in 0..L {
            s[i][L + i] = 1.0;
            for c in 0..L {
                s[L + i][c] = outer(iv.b_prev[i], k_prev[c]);
                s[L + i][L + c] = outer(iv.b_new[i], k[c]) + iv.a_d[i][c];
            }
        }
        s
    }

    /// `det(xI − Φ)` by the Faddeev–LeVerrier recursion, bit-identical to
    /// [`cacs_linalg::EigWorkspace::characteristic_polynomial`]:
    /// `M₀ = 0`, `M_k = Φ·M_{k−1} + c_{N−k+1}·I`, `c_{N−k} = −tr(Φ·M_k)/k`.
    pub fn characteristic_polynomial(phi: &[[f64; N]; N]) -> CharPoly<N> {
        let mut coeffs = [0.0; MAX_COEFFS];
        coeffs[N] = 1.0;
        // Φ·M₀ is formed rather than assumed zero: ∞·0 is NaN, so a
        // non-finite Φ poisons M₁ exactly as the Matrix recursion does.
        let mut am = matmul(phi, &[[0.0; N]; N]);
        for k in 1..=N {
            let mut m = am;
            for (i, row) in m.iter_mut().enumerate() {
                row[i] += coeffs[N - k + 1];
            }
            // Only the trace of the last product is read, and each entry
            // of a product is its own reduction.
            let trace = if k < N {
                am = matmul(phi, &m);
                (0..N).map(|i| am[i][i]).sum::<f64>()
            } else {
                (0..N)
                    .map(|i| dot_skip_zero(&phi[i], |r| m[r][i]))
                    .sum::<f64>()
            };
            coeffs[N - k] = -trace / k as f64;
        }
        CharPoly { coeffs }
    }

    /// Task `j`'s static feedforward gain `1 / (C (I − A_d − B·K_j)⁻¹ B)`
    /// with the interval's total input matrix `B` (paper eq. (17)),
    /// bit-identical to [`crate::feedforward_gain`], errors included.
    ///
    /// # Errors
    ///
    /// [`ControlError::SynthesisFailed`] if `I − A_d − B·K_j` is singular
    /// or the DC gain is not finite or vanishes.
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ m` or `params` has neither `m·L` nor `L` entries.
    pub fn feedforward(&self, params: &[f64], j: usize) -> Result<f64> {
        let iv = &self.intervals[j];
        let k = self.gain(params, j);
        let mut lu = [[0.0; L]; L];
        for (i, row) in lu.iter_mut().enumerate() {
            for (c, entry) in row.iter_mut().enumerate() {
                let eye = if i == c { 1.0 } else { 0.0 };
                *entry = (eye - iv.a_d[i][c]) - outer(iv.b_total[i], k[c]);
            }
        }
        let perm = lu_factor(&mut lu).ok_or_else(|| ControlError::SynthesisFailed {
            reason: "closed loop has a pole at z = 1; cannot compute feedforward".into(),
        })?;
        let x = lu_solve(&lu, &perm, &iv.b_total);
        let dc = dot_skip_zero(&self.c, |r| x[r]);
        if !dc.is_finite() || dc.abs() < 1e-12 {
            return Err(ControlError::SynthesisFailed {
                reason: format!("zero DC gain ({dc}); reference tracking impossible"),
            });
        }
        Ok(1.0 / dc)
    }

    /// The worst-case step response of [`crate::simulate_worst_case_into`]
    /// on stack state vectors, written into `out`, with a per-sample
    /// observer: after each recorded sample `(y, u)` the loop advances
    /// the clock to the next sampling instant `t_next` and calls
    /// `observe(t_next, y, u)`; `false` stops the simulation there with
    /// the samples recorded so far. Returns `Ok(true)` when the horizon
    /// was covered (or the state diverged), `Ok(false)` when the observer
    /// stopped it. With an observer that never stops, `out` is
    /// bit-identical to the Matrix simulation.
    ///
    /// # Errors
    ///
    /// * [`ControlError::InvalidPlant`] unless there are `m` feedforwards.
    /// * [`ControlError::InvalidTiming`] for a non-positive horizon.
    ///
    /// # Panics
    ///
    /// Panics if `params` has neither `m·L` nor `L` entries.
    pub fn simulate(
        &self,
        params: &[f64],
        feedforwards: &[f64],
        reference: f64,
        horizon: f64,
        out: &mut Response,
        mut observe: impl FnMut(f64, f64, f64) -> bool,
    ) -> Result<bool> {
        out.times.clear();
        out.outputs.clear();
        out.inputs.clear();
        out.reference = reference;
        let m = self.tasks();
        if feedforwards.len() != m {
            return Err(ControlError::InvalidPlant {
                reason: format!("need {m} feedforwards, got {}", feedforwards.len()),
            });
        }
        if !horizon.is_finite() || horizon <= 0.0 {
            return Err(ControlError::InvalidTiming {
                reason: format!("horizon must be positive, got {horizon}"),
            });
        }
        let min_period = self
            .intervals
            .iter()
            .map(|iv| iv.h)
            .fold(f64::INFINITY, f64::min);
        let estimated = if min_period.is_finite() && min_period > 0.0 {
            ((horizon / min_period).ceil() as usize)
                .saturating_add(2)
                .min(1 << 20)
        } else {
            16
        };
        out.times.reserve(estimated);
        out.outputs.reserve(estimated);
        out.inputs.reserve(estimated);

        let mut x = [0.0; L];
        let mut u_prev = 0.0;
        let mut t = 0.0;
        // Start at the last task: the reference steps right after its
        // sensing, so it still tracks the old reference 0.
        let mut first_sample = true;
        let mut j = m - 1;
        while t < horizon || out.times.len() < 2 {
            let r_visible = if first_sample { 0.0 } else { reference };
            first_sample = false;

            let k = self.gain(params, j);
            let u = k.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>() + feedforwards[j] * r_visible;
            let y = self.c.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>();

            out.times.push(t);
            out.outputs.push(y);
            out.inputs.push(u);

            let iv = &self.intervals[j];
            let mut x_next = [0.0; L];
            for (i, next) in x_next.iter_mut().enumerate() {
                *next = dot_skip_zero(&iv.a_d[i], |r| x[r]);
                *next += u_prev * iv.b_prev[i];
                *next += u * iv.b_new[i];
            }
            x = x_next;
            u_prev = u;
            t += iv.h;
            j = (j + 1) % m;

            if !x.iter().all(|v| v.is_finite()) {
                // Unstable loop: one diverged sample, then stop.
                out.times.push(t);
                out.outputs.push(f64::INFINITY);
                out.inputs.push(u);
                break;
            }
            if !observe(t, y, u) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// One entry of a column-by-row product `b·k`: the skip-zero sum
/// `0.0 + b·k`, or `+0.0` when `b` is zero.
#[inline(always)]
fn outer(b: f64, k: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        0.0 + b * k
    }
}

/// `Σ_r a[r]·x(r)` from `+0.0`, ascending, skipping exact-zero `a[r]`:
/// one entry of a Matrix product.
#[inline(always)]
fn dot_skip_zero<const K: usize>(a: &[f64; K], x: impl Fn(usize) -> f64) -> f64 {
    let mut acc = 0.0;
    for (r, &ar) in a.iter().enumerate() {
        if ar == 0.0 {
            continue;
        }
        acc += ar * x(r);
    }
    acc
}

/// One row of a Matrix product: `row·B`, each output entry accumulated
/// from `+0.0` over ascending `k`, skipping exact-zero `row[k]`.
#[inline(always)]
fn row_times<const N: usize>(row: &[f64; N], b: &[[f64; N]; N]) -> [f64; N] {
    let mut out = [0.0; N];
    for (k, &aik) in row.iter().enumerate() {
        if aik == 0.0 {
            continue;
        }
        for (o, r) in out.iter_mut().zip(&b[k]) {
            *o += aik * r;
        }
    }
    out
}

/// `A·B` with the Matrix product's per-entry reduction order.
#[inline(always)]
fn matmul<const N: usize>(a: &[[f64; N]; N], b: &[[f64; N]; N]) -> [[f64; N]; N] {
    std::array::from_fn(|i| row_times(&a[i], b))
}

/// `LuDecomposition::factor_in_place` on an array: partial pivoting,
/// factors left in `lu`, the row permutation returned; `None` for a
/// pivot below `1e-13·scale` (singular).
fn lu_factor<const L: usize>(lu: &mut [[f64; L]; L]) -> Option<[usize; L]> {
    let mut perm: [usize; L] = std::array::from_fn(|i| i);
    let scale = lu
        .iter()
        .flatten()
        .fold(0.0_f64, |acc, v| acc.max(v.abs()))
        .max(1.0);
    for k in 0..L {
        let mut pivot_row = k;
        let mut pivot_val = lu[k][k].abs();
        for (i, row) in lu.iter().enumerate().skip(k + 1) {
            let v = row[k].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        if pivot_val < SINGULARITY_TOL * scale {
            return None;
        }
        if pivot_row != k {
            lu.swap(k, pivot_row);
            perm.swap(k, pivot_row);
        }
        let pivot_row = lu[k];
        let pivot = pivot_row[k];
        for row in lu.iter_mut().skip(k + 1) {
            let factor = row[k] / pivot;
            row[k] = factor;
            for c in (k + 1)..L {
                row[c] -= factor * pivot_row[c];
            }
        }
    }
    Some(perm)
}

/// `LuDecomposition::solve_factored_into` for one right-hand side.
fn lu_solve<const L: usize>(lu: &[[f64; L]; L], perm: &[usize; L], b: &[f64; L]) -> [f64; L] {
    let mut x: [f64; L] = std::array::from_fn(|i| b[perm[i]]);
    // Forward substitution (L has an implicit unit diagonal).
    for i in 1..L {
        for k in 0..i {
            let l = lu[i][k];
            if l == 0.0 {
                continue;
            }
            x[i] -= l * x[k];
        }
    }
    // Back substitution.
    for i in (0..L).rev() {
        for k in (i + 1)..L {
            let u = lu[i][k];
            if u == 0.0 {
                continue;
            }
            x[i] -= u * x[k];
        }
        x[i] /= lu[i][i];
    }
    x
}
