//! Real-coefficient polynomials, a Durand–Kerner root finder and a
//! Schur–Cohn root-location test.

use crate::{Complex, LinalgError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A polynomial with real coefficients stored in **ascending** order:
/// `p(x) = c[0] + c[1]·x + … + c[n]·xⁿ`.
///
/// Used for characteristic polynomials and desired pole polynomials
/// (Ackermann's formula).
///
/// # Example
///
/// ```
/// use cacs_linalg::{Complex, Polynomial};
///
/// // (x - 1)(x - 2) = 2 - 3x + x²
/// let p = Polynomial::from_roots(&[Complex::from_real(1.0), Complex::from_real(2.0)]);
/// assert!(p.approx_eq(&Polynomial::new(vec![2.0, -3.0, 1.0]), 1e-12));
/// assert!(p.eval_real(1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polynomial {
    /// Coefficients, ascending powers. Invariant: non-empty, and the last
    /// coefficient is non-zero unless the polynomial is the zero polynomial
    /// (represented as `[0.0]`).
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from ascending coefficients, trimming trailing
    /// (near-)zero terms.
    ///
    /// An empty vector yields the zero polynomial.
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut p = Polynomial { coeffs };
        p.normalize();
        p
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial { coeffs: vec![0.0] }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Polynomial { coeffs: vec![1.0] }
    }

    /// The monomial `xⁿ`.
    pub fn monomial(n: usize) -> Self {
        let mut coeffs = vec![0.0; n + 1];
        coeffs[n] = 1.0;
        Polynomial { coeffs }
    }

    /// Builds the monic polynomial with the given roots.
    ///
    /// Complex roots should come in conjugate pairs for the coefficients to
    /// be real; any residual imaginary part (from rounding) is discarded.
    pub fn from_roots(roots: &[Complex]) -> Self {
        let mut coeffs = vec![Complex::ONE];
        for &r in roots {
            // Multiply by (x - r).
            let mut next = vec![Complex::ZERO; coeffs.len() + 1];
            for (i, &c) in coeffs.iter().enumerate() {
                next[i + 1] += c;
                next[i] += -r * c;
            }
            coeffs = next;
        }
        Polynomial::new(coeffs.iter().map(|c| c.re).collect())
    }

    fn normalize(&mut self) {
        while self.coeffs.len() > 1 {
            let last = *self.coeffs.last().expect("non-empty");
            if last == 0.0 {
                self.coeffs.pop();
            } else {
                break;
            }
        }
        if self.coeffs.is_empty() {
            self.coeffs.push(0.0);
        }
    }

    /// Degree of the polynomial (0 for constants, including zero).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Coefficients in ascending order.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Leading (highest-power) coefficient.
    pub fn leading_coefficient(&self) -> f64 {
        *self.coeffs.last().expect("non-empty")
    }

    /// Returns `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.len() == 1 && self.coeffs[0] == 0.0
    }

    /// Evaluates at a real point (Horner's method).
    pub fn eval_real(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Evaluates at a complex point (Horner's method).
    pub fn eval(&self, z: Complex) -> Complex {
        self.coeffs
            .iter()
            .rev()
            .fold(Complex::ZERO, |acc, &c| acc * z + Complex::from_real(c))
    }

    /// Derivative polynomial.
    pub fn derivative(&self) -> Polynomial {
        if self.degree() == 0 {
            return Polynomial::zero();
        }
        let coeffs = self
            .coeffs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &c)| c * i as f64)
            .collect();
        Polynomial::new(coeffs)
    }

    /// Sum of two polynomials.
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut coeffs = vec![0.0; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            coeffs[i] += c;
        }
        for (i, &c) in other.coeffs.iter().enumerate() {
            coeffs[i] += c;
        }
        Polynomial::new(coeffs)
    }

    /// Difference of two polynomials.
    pub fn sub(&self, other: &Polynomial) -> Polynomial {
        self.add(&other.scale(-1.0))
    }

    /// Product of two polynomials.
    pub fn mul(&self, other: &Polynomial) -> Polynomial {
        if self.is_zero() || other.is_zero() {
            return Polynomial::zero();
        }
        let mut coeffs = vec![0.0; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in other.coeffs.iter().enumerate() {
                coeffs[i + j] += a * b;
            }
        }
        Polynomial::new(coeffs)
    }

    /// Multiplies every coefficient by `factor`.
    pub fn scale(&self, factor: f64) -> Polynomial {
        Polynomial::new(self.coeffs.iter().map(|c| c * factor).collect())
    }

    /// Divides by the leading coefficient so the polynomial becomes monic.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] for the zero polynomial.
    pub fn monic(&self) -> Result<Polynomial> {
        if self.is_zero() {
            return Err(LinalgError::InvalidArgument {
                reason: "zero polynomial cannot be made monic",
            });
        }
        Ok(self.scale(1.0 / self.leading_coefficient()))
    }

    /// Returns `true` if the coefficients differ from `other` by at most
    /// `tol` component-wise (after degree alignment).
    pub fn approx_eq(&self, other: &Polynomial, tol: f64) -> bool {
        let n = self.coeffs.len().max(other.coeffs.len());
        (0..n).all(|i| {
            let a = self.coeffs.get(i).copied().unwrap_or(0.0);
            let b = other.coeffs.get(i).copied().unwrap_or(0.0);
            (a - b).abs() <= tol
        })
    }

    /// Finds all complex roots with the Durand–Kerner (Weierstrass)
    /// iteration.
    ///
    /// Suitable for the low-degree (≤ ~24) characteristic polynomials of
    /// this crate. Constants have no roots (an empty vector is returned).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] for the zero polynomial.
    /// * [`LinalgError::NotConverged`] if the iteration does not settle
    ///   within 1000 sweeps (pathological coefficient sets).
    ///
    /// # Example
    ///
    /// ```
    /// use cacs_linalg::Polynomial;
    ///
    /// # fn main() -> Result<(), cacs_linalg::LinalgError> {
    /// let p = Polynomial::new(vec![2.0, -3.0, 1.0]); // (x-1)(x-2)
    /// let mut roots: Vec<f64> = p.roots()?.iter().map(|r| r.re).collect();
    /// roots.sort_by(f64::total_cmp);
    /// assert!((roots[0] - 1.0).abs() < 1e-9);
    /// assert!((roots[1] - 2.0).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn roots(&self) -> Result<Vec<Complex>> {
        if self.is_zero() {
            return Err(LinalgError::InvalidArgument {
                reason: "zero polynomial has every point as a root",
            });
        }
        let mut z = Vec::new();
        durand_kerner(&self.coeffs, &mut Vec::new(), &mut z)?;
        Ok(z)
    }

    /// Schur–Cohn test: `true` only if every root lies strictly inside
    /// the disk `|x| < radius`.
    ///
    /// Decides from the coefficients alone, without finding a root. It
    /// is `false` for the zero polynomial, a non-positive or non-finite
    /// radius and any non-finite coefficient. Constants have no roots, so
    /// a non-zero constant passes.
    ///
    /// # Example
    ///
    /// ```
    /// use cacs_linalg::Polynomial;
    ///
    /// let p = Polynomial::new(vec![0.125, -0.75, 1.0]); // roots 0.25, 0.5
    /// assert!(p.roots_within(0.6));
    /// assert!(!p.roots_within(0.5)); // a root on the circle is not inside
    /// ```
    pub fn roots_within(&self, radius: f64) -> bool {
        schur_cohn_within(&self.coeffs, radius, &mut Vec::new(), &mut Vec::new())
    }
}

/// Durand–Kerner (Weierstrass) iteration: all complex roots of the
/// polynomial with ascending coefficients `coeffs` (leading coefficient
/// non-zero) land in `z`. `monic` is scratch for the monic complex
/// coefficients. Both buffers are fully overwritten, so reusing them is
/// bit-identical to fresh ones. A constant leaves `z` empty.
///
/// This is the one implementation behind [`Polynomial::roots`] and the
/// pooled [`crate::EigWorkspace`] root finder.
pub(crate) fn durand_kerner(
    coeffs: &[f64],
    monic: &mut Vec<Complex>,
    z: &mut Vec<Complex>,
) -> Result<()> {
    z.clear();
    let n = coeffs.len().saturating_sub(1);
    if n == 0 {
        return Ok(());
    }
    let lead = coeffs[n];
    monic.clear();
    monic.extend(coeffs.iter().map(|&c| Complex::from_real(c / lead)));

    // Initial guesses on a circle whose radius bounds the roots
    // (Cauchy bound), with an irrational angle offset to break symmetry.
    let radius = 1.0
        + coeffs[..n]
            .iter()
            .map(|c| (c / lead).abs())
            .fold(0.0_f64, f64::max);
    z.extend((0..n).map(|k| {
        Complex::from_polar(
            radius.min(2.0 + 0.5 * k as f64 / n as f64),
            0.4 + 2.0 * std::f64::consts::PI * k as f64 / n as f64,
        )
    }));

    const MAX_SWEEPS: usize = 1000;
    const TOL: f64 = 1e-13;
    for sweep in 0..MAX_SWEEPS {
        let mut max_step = 0.0_f64;
        for i in 0..n {
            let zi = z[i];
            let p_zi = monic
                .iter()
                .rev()
                .fold(Complex::ZERO, |acc, &c| acc * zi + c);
            let mut denom = Complex::ONE;
            for (j, &zj) in z.iter().enumerate() {
                if j != i {
                    denom = denom * (zi - zj);
                }
            }
            if denom.abs_sq() < 1e-300 {
                // Perturb coincident guesses.
                z[i] = zi + Complex::new(1e-8, 1e-8);
                max_step = f64::MAX.min(1.0);
                continue;
            }
            let step = p_zi / denom;
            z[i] = zi - step;
            max_step = max_step.max(step.abs());
            if z[i].is_nan() {
                return Err(LinalgError::NotConverged {
                    algorithm: "durand-kerner",
                    iterations: sweep,
                });
            }
        }
        if max_step < TOL * radius.max(1.0) {
            return Ok(());
        }
    }
    Err(LinalgError::NotConverged {
        algorithm: "durand-kerner",
        iterations: MAX_SWEEPS,
    })
}

/// Schur–Cohn recursion on `p(radius·x)`: `true` only if every root of
/// the polynomial with ascending coefficients `coeffs` lies strictly
/// inside `|x| < radius`.
///
/// With `q(x) = p(radius·x)` of degree `d` and `k = q₀/q_d`, all roots
/// of `q` lie in the open unit disk iff `|k| < 1` and all roots of the
/// degree-`d−1` reduction `(q(x) − k·x^d·q(1/x))/x` do too (Marden,
/// *Geometry of Polynomials*, §42). The reduction's coefficients are
/// `q_{i+1} − k·q_{d−1−i}`. Any non-finite coefficient, a vanishing
/// leading coefficient or a non-positive radius answers `false`, as
/// does `|k| ≥ 1` (so a root on the circle is rejected). `cur`/`next`
/// are reduction scratch, fully overwritten.
///
/// This is the one implementation behind [`Polynomial::roots_within`]
/// and [`crate::EigWorkspace::roots_within`].
pub(crate) fn schur_cohn_within(
    coeffs: &[f64],
    radius: f64,
    cur: &mut Vec<f64>,
    next: &mut Vec<f64>,
) -> bool {
    if !(radius > 0.0 && radius.is_finite()) || coeffs.iter().any(|c| !c.is_finite()) {
        return false;
    }
    cur.clear();
    let mut power = 1.0;
    for &c in coeffs {
        cur.push(c * power);
        power *= radius;
    }
    match cur.len() {
        0 => return false,
        // A constant has no roots unless it is the zero polynomial.
        1 => return cur[0] != 0.0,
        _ => {}
    }
    while cur.len() > 1 {
        let d = cur.len() - 1;
        let k = cur[0] / cur[d];
        // 0/0 (a vanished leading coefficient) gives NaN, which fails too.
        if k.is_nan() || k.abs() >= 1.0 {
            return false;
        }
        next.clear();
        next.extend((0..d).map(|i| cur[i + 1] - k * cur[d - 1 - i]));
        std::mem::swap(cur, next);
    }
    true
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, &c) in self.coeffs.iter().enumerate().rev() {
            if c == 0.0 && self.degree() > 0 {
                continue;
            }
            if !first {
                write!(f, " {} ", if c >= 0.0 { "+" } else { "-" })?;
                write!(f, "{}", c.abs())?;
            } else {
                write!(f, "{c}")?;
                first = false;
            }
            match i {
                0 => {}
                1 => write!(f, "·x")?,
                _ => write!(f, "·x^{i}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trims_trailing_zeros() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), 1);
        assert_eq!(p.coeffs(), &[1.0, 2.0]);
    }

    #[test]
    fn zero_polynomial_properties() {
        let z = Polynomial::zero();
        assert!(z.is_zero());
        assert_eq!(z.degree(), 0);
        assert!(z.roots().is_err());
        assert!(z.monic().is_err());
    }

    #[test]
    fn evaluation_matches_horner() {
        let p = Polynomial::new(vec![1.0, -2.0, 3.0]); // 1 - 2x + 3x²
        assert_eq!(p.eval_real(2.0), 1.0 - 4.0 + 12.0);
        let z = p.eval(Complex::new(0.0, 1.0)); // 1 - 2i + 3i² = -2 - 2i
        assert!((z - Complex::new(-2.0, -2.0)).abs() < 1e-14);
    }

    #[test]
    fn from_roots_real() {
        let p = Polynomial::from_roots(&[
            Complex::from_real(1.0),
            Complex::from_real(-2.0),
            Complex::from_real(0.5),
        ]);
        for r in [1.0, -2.0, 0.5] {
            assert!(p.eval_real(r).abs() < 1e-12, "root {r} not on curve");
        }
        assert_eq!(p.leading_coefficient(), 1.0);
    }

    #[test]
    fn from_roots_conjugate_pair_gives_real_coeffs() {
        let p = Polynomial::from_roots(&[Complex::new(0.3, 0.4), Complex::new(0.3, -0.4)]);
        // (x - 0.3)² + 0.16 = x² - 0.6x + 0.25
        assert!(p.approx_eq(&Polynomial::new(vec![0.25, -0.6, 1.0]), 1e-12));
    }

    #[test]
    fn arithmetic() {
        let p = Polynomial::new(vec![1.0, 1.0]); // 1 + x
        let q = Polynomial::new(vec![-1.0, 1.0]); // -1 + x
        assert_eq!(p.mul(&q), Polynomial::new(vec![-1.0, 0.0, 1.0]));
        assert_eq!(p.add(&q), Polynomial::new(vec![0.0, 2.0]));
        assert_eq!(p.sub(&p), Polynomial::zero());
    }

    #[test]
    fn derivative() {
        let p = Polynomial::new(vec![1.0, 2.0, 3.0]); // 1 + 2x + 3x²
        assert_eq!(p.derivative(), Polynomial::new(vec![2.0, 6.0]));
        assert_eq!(Polynomial::one().derivative(), Polynomial::zero());
    }

    #[test]
    fn monomial_and_monic() {
        let m = Polynomial::monomial(3);
        assert_eq!(m.degree(), 3);
        assert_eq!(m.eval_real(2.0), 8.0);
        let p = Polynomial::new(vec![2.0, 4.0]);
        assert_eq!(p.monic().unwrap(), Polynomial::new(vec![0.5, 1.0]));
    }

    #[test]
    fn roots_of_quadratic_complex_pair() {
        // x² + 1 → ±i
        let p = Polynomial::new(vec![1.0, 0.0, 1.0]);
        let roots = p.roots().unwrap();
        assert_eq!(roots.len(), 2);
        for r in roots {
            assert!(r.re.abs() < 1e-9);
            assert!((r.im.abs() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn roots_of_wilkinson_like_product() {
        // (x-1)(x-2)(x-3)(x-4) — distinct real roots.
        let roots_in: Vec<Complex> = (1..=4).map(|k| Complex::from_real(k as f64)).collect();
        let p = Polynomial::from_roots(&roots_in);
        let mut roots: Vec<f64> = p.roots().unwrap().iter().map(|r| r.re).collect();
        roots.sort_by(f64::total_cmp);
        for (k, r) in roots.iter().enumerate() {
            assert!((r - (k + 1) as f64).abs() < 1e-7, "root {k}: {r}");
        }
    }

    #[test]
    fn roots_respect_leading_coefficient() {
        // 2(x - 3) = -6 + 2x
        let p = Polynomial::new(vec![-6.0, 2.0]);
        let roots = p.roots().unwrap();
        assert_eq!(roots.len(), 1);
        assert!((roots[0].re - 3.0).abs() < 1e-10);
    }

    #[test]
    fn constant_has_no_roots() {
        assert!(Polynomial::one().roots().unwrap().is_empty());
    }

    #[test]
    fn roots_of_repeated_root_converge_loosely() {
        // (x-1)² — Durand–Kerner converges slower near multiple roots; allow
        // a looser tolerance.
        let p = Polynomial::new(vec![1.0, -2.0, 1.0]);
        let roots = p.roots().unwrap();
        for r in roots {
            assert!((r.re - 1.0).abs() < 1e-4);
            assert!(r.im.abs() < 1e-4);
        }
    }

    #[test]
    fn schur_cohn_accepts_roots_strictly_inside() {
        // Roots 0.5, -0.25 and 0.5 ± 0.5i (modulus √0.5 ≈ 0.7071).
        let p =
            Polynomial::new(vec![-0.125, -0.25, 1.0]).mul(&Polynomial::new(vec![0.5, -1.0, 1.0]));
        assert!(p.roots_within(0.75));
        assert!(p.roots_within(1.0));
        assert!(!p.roots_within(0.7));
    }

    #[test]
    fn schur_cohn_rejects_a_root_on_or_outside_the_circle() {
        // (x - 0.5)(x + 0.25): the root 0.5 sits exactly on |x| = 0.5.
        let on = Polynomial::new(vec![-0.125, -0.25, 1.0]);
        assert!(!on.roots_within(0.5));
        assert!(on.roots_within(0.5 + 1e-9));
        // (x - 2)(x - 0.1): one root far outside the unit circle.
        let outside = Polynomial::new(vec![0.2, -2.1, 1.0]);
        assert!(!outside.roots_within(1.0));
        assert!(outside.roots_within(2.5));
    }

    #[test]
    fn schur_cohn_rejects_non_finite_input() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!Polynomial::new(vec![bad, 0.0, 1.0]).roots_within(1.0));
            assert!(!Polynomial::new(vec![0.1, bad, 1.0]).roots_within(1.0));
            assert!(!Polynomial::new(vec![0.1, 0.2, bad]).roots_within(1.0));
        }
        let p = Polynomial::new(vec![0.1, 1.0]);
        for radius in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(!p.roots_within(radius), "radius {radius}");
        }
    }

    #[test]
    fn schur_cohn_degrees_zero_and_one() {
        // A non-zero constant has no roots; the zero polynomial has all.
        assert!(Polynomial::one().roots_within(1e-3));
        assert!(!Polynomial::zero().roots_within(1e3));
        // -0.3 + x: root 0.3.
        let p = Polynomial::new(vec![-0.3, 1.0]);
        assert!(p.roots_within(0.31));
        assert!(!p.roots_within(0.3));
        assert!(!p.roots_within(0.29));
        // Leading coefficient other than one: 0.6 + 2x, root -0.3.
        let q = Polynomial::new(vec![0.6, 2.0]);
        assert!(q.roots_within(0.31));
        assert!(!q.roots_within(0.29));
    }

    #[test]
    fn schur_cohn_handles_repeated_roots() {
        // (x - 0.9)² (x - 0.05)²: Durand–Kerner converges slowly here,
        // the Schur–Cohn decision is unaffected.
        let r = [0.9, 0.9, 0.05, 0.05].map(Complex::from_real);
        let p = Polynomial::from_roots(&r);
        assert!(p.roots_within(0.91));
        assert!(!p.roots_within(0.89));
    }

    #[test]
    fn reused_root_buffers_match_fresh_ones() {
        let big = Polynomial::new(vec![0.5, -1.2, 2.0, 0.3, -0.7, 1.0]);
        let small = Polynomial::new(vec![2.0, -3.0, 1.0]);
        let (mut monic, mut z) = (Vec::new(), Vec::new());
        for p in [&big, &small, &big] {
            durand_kerner(p.coeffs(), &mut monic, &mut z).unwrap();
            let fresh = p.roots().unwrap();
            assert_eq!(z.len(), fresh.len());
            for (a, b) in z.iter().zip(&fresh) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn display_renders_powers() {
        let p = Polynomial::new(vec![1.0, 0.0, 2.0]);
        let s = p.to_string();
        assert!(s.contains("x^2"), "got: {s}");
    }
}
