//! Eigenvalues via the characteristic polynomial (Faddeev–LeVerrier),
//! the Durand–Kerner root finder, and a Schur–Cohn stability test on the
//! same coefficients.
//!
//! The matrices handled by this crate are closed-loop system matrices with
//! at most a couple of dozen rows, where this O(n⁴) approach is both simple
//! and accurate enough; the spectral radius is what the stability checks
//! consume.
//!
//! # Pooled path
//!
//! [`EigWorkspace`] holds every buffer of the pipeline: the two `n × n`
//! LeVerrier matrices, the coefficient vector, the Durand–Kerner iterates
//! and the Schur–Cohn reduction. Each buffer is fully overwritten before
//! use, so a reused workspace gives the same bits as a fresh one. The
//! allocating entry points [`characteristic_polynomial`],
//! [`spectral_radius`] and [`crate::Polynomial::roots`] run the same
//! kernels on a fresh workspace or fresh buffers; each kernel exists once.
//!
//! # Certified stability
//!
//! A stability test only needs to know whether every eigenvalue lies
//! inside some radius, not where the eigenvalues are.
//! [`EigWorkspace::roots_within`] answers that from the coefficients by
//! the Schur–Cohn recursion: O(n²) flops and no iteration, tens of
//! nanoseconds at the 4×4 and 6×6 lifted shapes against microseconds for
//! Durand–Kerner. In exact arithmetic the answer is exact. In floating
//! point the recursion's rounding can misjudge a root lying very close
//! to the test circle, so a caller certifies against a bound by testing
//! at a radius a small relative band below it: `true` then means every
//! root is below the bound. `false` there proves nothing (a root may lie
//! in the band, or a coefficient may be non-finite). The mirror image
//! certifies the other side: with finite coefficients, `false` at a
//! radius a band *above* the bound means some root is at or beyond the
//! bound. Between the two, the caller asks
//! [`EigWorkspace::root_radius`] for the exact `ρ`. Any value built on
//! `ρ` itself, such as a penalty that grows with it, must use that exact
//! radius: a certificate says "below" or "beyond", never by how much.

use crate::poly::{durand_kerner, schur_cohn_within};
use crate::{Complex, LinalgError, Matrix, Polynomial, Result};

/// Reusable buffers for the characteristic polynomial, its roots and the
/// Schur–Cohn test.
///
/// [`EigWorkspace::characteristic_polynomial`] stores the coefficients of
/// one matrix; [`EigWorkspace::roots_within`] and
/// [`EigWorkspace::root_radius`] then work on those stored coefficients.
/// Buffers adapt to the matrix size on use, so one workspace serves
/// matrices of different sizes back to back. Results are bit-identical
/// to the allocating free functions.
///
/// # Example
///
/// ```
/// use cacs_linalg::{spectral_radius, EigWorkspace, Matrix};
///
/// # fn main() -> Result<(), cacs_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.5, 1.0], &[0.0, -0.25]])?;
/// let mut ws = EigWorkspace::new();
/// ws.characteristic_polynomial(&a)?;
/// assert!(ws.roots_within(0.6)); // certified: every |λ| < 0.6
/// assert!(!ws.roots_within(0.5)); // λ = 0.5 is not inside 0.5
/// assert_eq!(ws.root_radius()?.to_bits(), spectral_radius(&a)?.to_bits());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EigWorkspace {
    /// LeVerrier's `M_k` (n × n).
    m: Matrix,
    /// `A·M_k` (n × n); it becomes the next `M` after the diagonal shift.
    am: Matrix,
    /// Characteristic polynomial, ascending and monic (n + 1 entries).
    coeffs: Vec<f64>,
    /// Durand–Kerner monic complex coefficients.
    monic: Vec<Complex>,
    /// Durand–Kerner root iterates; the roots after `root_radius`.
    z: Vec<Complex>,
    /// Schur–Cohn reduction buffers.
    sc_cur: Vec<f64>,
    sc_next: Vec<f64>,
}

impl Default for EigWorkspace {
    fn default() -> Self {
        EigWorkspace::new()
    }
}

impl EigWorkspace {
    /// An empty workspace; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        EigWorkspace {
            m: Matrix::zeros(1, 1),
            am: Matrix::zeros(1, 1),
            coeffs: Vec::new(),
            monic: Vec::new(),
            z: Vec::new(),
            sc_cur: Vec::new(),
            sc_next: Vec::new(),
        }
    }

    /// Computes the characteristic polynomial `det(xI − A)` by the
    /// Faddeev–LeVerrier recursion, stores it in the workspace and
    /// returns its ascending coefficients (monic, degree `n`).
    ///
    /// `M₀ = 0`, `M_k = A·M_{k−1} + c_{n−k+1}·I`,
    /// `c_{n−k} = −tr(A·M_k)/k`. The product `A·M_k` of one step is the
    /// `A·M_{k−1}` of the next, so it is formed once and reused: `n + 1`
    /// products instead of `2n`, with the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input.
    pub fn characteristic_polynomial(&mut self, a: &Matrix) -> Result<&[f64]> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if self.m.shape() != (n, n) {
            self.m = Matrix::zeros(n, n);
            self.am = Matrix::zeros(n, n);
        }
        self.coeffs.clear();
        self.coeffs.resize(n + 1, 0.0);
        self.coeffs[n] = 1.0;
        // A·M₀ is formed rather than assumed zero: ∞·0 is NaN, so a
        // non-finite A poisons M₁ exactly as the textbook recursion does.
        self.m.fill(0.0);
        a.matmul_into(&self.m, &mut self.am)?;
        for k in 1..=n {
            // M_k = A M_{k-1} + c_{n-k+1} I
            std::mem::swap(&mut self.m, &mut self.am);
            for i in 0..n {
                self.m.set(i, i, self.m.get(i, i) + self.coeffs[n - k + 1]);
            }
            a.matmul_into(&self.m, &mut self.am)?;
            self.coeffs[n - k] = -self.am.trace()? / k as f64;
        }
        Ok(&self.coeffs)
    }

    /// Schur–Cohn test on the stored polynomial: `true` only if every root
    /// lies strictly inside `|x| < radius`. See the module docs for how a
    /// safety band turns this into a certificate. `false` before the
    /// first [`EigWorkspace::characteristic_polynomial`].
    pub fn roots_within(&mut self, radius: f64) -> bool {
        let n = self.coeffs.len();
        self.sc_cur.resize(n, 0.0);
        self.sc_next.resize(n, 0.0);
        schur_cohn_within(&self.coeffs, radius, &mut self.sc_cur, &mut self.sc_next)
    }

    /// Exact spectral radius `max |λ_i|` of the stored polynomial, by
    /// Durand–Kerner (`0` for a polynomial without roots).
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotConverged`] if the root finder fails.
    pub fn root_radius(&mut self) -> Result<f64> {
        durand_kerner(&self.coeffs, &mut self.monic, &mut self.z)?;
        Ok(self.max_root_modulus())
    }

    /// [`EigWorkspace::root_radius`] of caller-held ascending
    /// coefficients (leading coefficient non-zero), e.g. a fixed-size
    /// kernel's stack array: Durand–Kerner runs on this workspace's
    /// buffers, so once they fit the degree nothing is allocated. The
    /// stored polynomial is left untouched. Bit-identical to
    /// `root_radius` after `characteristic_polynomial` stored the same
    /// coefficients.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotConverged`] if the root finder fails.
    pub fn root_radius_of(&mut self, coeffs: &[f64]) -> Result<f64> {
        durand_kerner(coeffs, &mut self.monic, &mut self.z)?;
        Ok(self.max_root_modulus())
    }

    /// `max |z_i|` over the last Durand–Kerner roots (`0` for none).
    fn max_root_modulus(&self) -> f64 {
        self.z.iter().map(|e| e.abs()).fold(0.0, f64::max)
    }

    /// [`spectral_radius`] on the workspace: the characteristic
    /// polynomial of `a`, then [`EigWorkspace::root_radius`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`spectral_radius`].
    pub fn spectral_radius(&mut self, a: &Matrix) -> Result<f64> {
        self.characteristic_polynomial(a)?;
        self.root_radius()
    }
}

/// Computes the characteristic polynomial `det(xI − A)` of a square matrix
/// using the Faddeev–LeVerrier recursion.
///
/// The returned polynomial is monic of degree `n`. Allocating wrapper of
/// [`EigWorkspace::characteristic_polynomial`].
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for rectangular input.
///
/// # Example
///
/// ```
/// use cacs_linalg::{characteristic_polynomial, Matrix, Polynomial};
///
/// # fn main() -> Result<(), cacs_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]])?;
/// let p = characteristic_polynomial(&a)?;
/// // (x-2)(x-3) = 6 - 5x + x²
/// assert!(p.approx_eq(&Polynomial::new(vec![6.0, -5.0, 1.0]), 1e-12));
/// # Ok(())
/// # }
/// ```
pub fn characteristic_polynomial(a: &Matrix) -> Result<Polynomial> {
    let mut ws = EigWorkspace::new();
    ws.characteristic_polynomial(a)?;
    Ok(Polynomial::new(ws.coeffs))
}

/// Computes all eigenvalues of a square matrix.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for rectangular input.
/// * [`LinalgError::NotConverged`] if the root finder fails (pathological
///   spectra).
///
/// # Example
///
/// ```
/// use cacs_linalg::{eigenvalues, Matrix};
///
/// # fn main() -> Result<(), cacs_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 1.0], &[-1.0, 0.0]])?;
/// let eigs = eigenvalues(&a)?; // ±i
/// assert!(eigs.iter().all(|e| (e.abs() - 1.0).abs() < 1e-9));
/// # Ok(())
/// # }
/// ```
pub fn eigenvalues(a: &Matrix) -> Result<Vec<Complex>> {
    characteristic_polynomial(a)?.roots()
}

/// Spectral radius `max |λ_i(A)|`.
///
/// A discrete-time closed loop is asymptotically stable iff its spectral
/// radius is strictly below one. Allocating wrapper of
/// [`EigWorkspace::spectral_radius`]; use the workspace in a hot loop.
///
/// # Errors
///
/// Same conditions as [`eigenvalues`].
pub fn spectral_radius(a: &Matrix) -> Result<f64> {
    EigWorkspace::new().spectral_radius(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_poly_of_companion_matrix() {
        // Companion of x³ - 6x² + 11x - 6 = (x-1)(x-2)(x-3).
        let a =
            Matrix::from_rows(&[&[0.0, 0.0, 6.0], &[1.0, 0.0, -11.0], &[0.0, 1.0, 6.0]]).unwrap();
        let p = characteristic_polynomial(&a).unwrap();
        assert!(p.approx_eq(&Polynomial::new(vec![-6.0, 11.0, -6.0, 1.0]), 1e-10));
    }

    #[test]
    fn eigenvalues_of_triangular_matrix_are_diagonal() {
        let a =
            Matrix::from_rows(&[&[0.5, 3.0, -1.0], &[0.0, -0.25, 2.0], &[0.0, 0.0, 0.75]]).unwrap();
        let mut eigs: Vec<f64> = eigenvalues(&a).unwrap().iter().map(|e| e.re).collect();
        eigs.sort_by(f64::total_cmp);
        let expected = [-0.25, 0.5, 0.75];
        for (e, x) in eigs.iter().zip(expected) {
            assert!((e - x).abs() < 1e-8, "eig {e} vs {x}");
        }
    }

    #[test]
    fn spectral_radius_of_rotation_scaled() {
        let rho = 0.9;
        let theta: f64 = 0.8;
        let a = Matrix::from_rows(&[
            &[rho * theta.cos(), -rho * theta.sin()],
            &[rho * theta.sin(), rho * theta.cos()],
        ])
        .unwrap();
        assert!((spectral_radius(&a).unwrap() - rho).abs() < 1e-9);
    }

    #[test]
    fn char_poly_constant_term_is_det_sign() {
        // det(xI - A) at x=0 equals det(-A) = (-1)^n det(A).
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let p = characteristic_polynomial(&a).unwrap();
        let det = crate::lu::LuDecomposition::new(&a).unwrap().determinant();
        assert!((p.eval_real(0.0) - det).abs() < 1e-10);
    }

    #[test]
    fn char_poly_x_coefficient_matches_trace() {
        // For monic char poly, coefficient of x^{n-1} is -tr(A).
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.5, -3.0]]).unwrap();
        let p = characteristic_polynomial(&a).unwrap();
        assert!((p.coeffs()[1] + a.trace().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(characteristic_polynomial(&a).is_err());
        assert!(eigenvalues(&a).is_err());
    }

    fn test_matrix(n: usize, shift: f64) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                shift - 0.1 * i as f64
            } else {
                0.07 * ((i * 7 + j * 3) % 5) as f64 - 0.14
            }
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn reused_workspace_matches_fresh_across_sizes() {
        // 4×4 → 6×6 → 4×4: the second 4×4 runs on buffers the 6×6 left
        // behind (resized) and must not see any of their contents.
        let mut reused = EigWorkspace::new();
        for (n, shift) in [(4, 0.6), (6, -0.3), (4, 0.2)] {
            let a = test_matrix(n, shift);
            let mut fresh = EigWorkspace::new();
            let got = bits(reused.characteristic_polynomial(&a).unwrap());
            assert_eq!(got, bits(fresh.characteristic_polynomial(&a).unwrap()));
            let rho = reused.root_radius().unwrap();
            assert_eq!(rho.to_bits(), fresh.root_radius().unwrap().to_bits());
            assert_eq!(rho.to_bits(), spectral_radius(&a).unwrap().to_bits());
            for radius in [rho * 0.999, rho * 1.001] {
                assert_eq!(reused.roots_within(radius), fresh.roots_within(radius));
            }
        }
    }

    #[test]
    fn workspace_tests_the_stored_polynomial() {
        let mut ws = EigWorkspace::new();
        assert!(!ws.roots_within(1.0), "nothing stored yet");
        let a = Matrix::from_rows(&[&[0.5, 1.0], &[0.0, -0.25]]).unwrap();
        assert_eq!(
            ws.characteristic_polynomial(&a).unwrap(),
            &[-0.125, -0.25, 1.0]
        );
        assert!(ws.roots_within(0.51));
        assert!(!ws.roots_within(0.5));
        assert!((ws.root_radius().unwrap() - 0.5).abs() < 1e-12);
        assert!(ws.characteristic_polynomial(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn non_finite_matrix_is_never_certified() {
        let mut ws = EigWorkspace::new();
        let mut a = test_matrix(3, 0.1);
        a.set(1, 2, f64::NAN);
        ws.characteristic_polynomial(&a).unwrap();
        assert!(!ws.roots_within(1.0));
        assert!(ws.root_radius().is_err());
    }

    #[test]
    fn nilpotent_matrix_spectral_radius_zero() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        assert!(spectral_radius(&a).unwrap() < 1e-6);
    }
}
