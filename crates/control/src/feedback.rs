//! State feedback: Ackermann pole placement and static feedforward gains.

use crate::{ControlError, Result};
use cacs_linalg::{
    characteristic_polynomial, controllability_matrix, Complex, LuDecomposition, Matrix, Polynomial,
};

/// Ackermann's formula for SISO pole placement.
///
/// Returns the row vector `K` such that the closed loop
/// `x[k+1] = (A + B·K) x[k]` has exactly the given `poles`
/// (paper Section III, eq. (9)/(10); complex poles must come in conjugate
/// pairs).
///
/// # Errors
///
/// * [`ControlError::InvalidPlant`] if shapes mismatch or the number of
///   poles differs from the state dimension.
/// * [`ControlError::Uncontrollable`] if `(A, B)` is not controllable
///   (the controllability matrix is singular).
///
/// # Example
///
/// ```
/// use cacs_control::ackermann;
/// use cacs_linalg::{spectral_radius, Complex, Matrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]])?;
/// let b = Matrix::column(&[0.0, 1.0]);
/// let k = ackermann(&a, &b, &[Complex::from_real(0.2), Complex::from_real(0.3)])?;
/// let acl = a.add_matrix(&b.matmul(&k)?)?;
/// assert!((spectral_radius(&acl)? - 0.3).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn ackermann(a: &Matrix, b: &Matrix, poles: &[Complex]) -> Result<Matrix> {
    if !a.is_square() || b.shape() != (a.rows(), 1) {
        return Err(ControlError::InvalidPlant {
            reason: format!(
                "ackermann needs square A and column B, got {:?} and {:?}",
                a.shape(),
                b.shape()
            ),
        });
    }
    let l = a.rows();
    if poles.len() != l {
        return Err(ControlError::InvalidPlant {
            reason: format!("need exactly {l} poles, got {}", poles.len()),
        });
    }
    let ctrb = controllability_matrix(a, b)?;

    // φ(A) for the desired monic characteristic polynomial.
    let phi = Polynomial::from_roots(poles);
    let phi_a = eval_poly_at_matrix(&phi, a)?;

    // K = -eₗᵀ · Ctrb⁻¹ · φ(A), with eₗ the last standard basis vector.
    // The last row of Ctrb⁻¹ solves Ctrbᵀ y = eₗ; a singular
    // controllability matrix means the pair is not controllable.
    let mut e_last = Matrix::zeros(l, 1);
    e_last.set(l - 1, 0, 1.0);
    let last_row = LuDecomposition::new(&ctrb.transpose())
        .map_err(|e| match e {
            cacs_linalg::LinalgError::Singular => ControlError::Uncontrollable,
            other => ControlError::from(other),
        })?
        .solve(&e_last)?
        .transpose();
    let k = last_row.matmul(&phi_a)?.scale(-1.0);
    Ok(k)
}

/// Evaluates a polynomial at a square matrix (Horner's scheme).
fn eval_poly_at_matrix(p: &Polynomial, a: &Matrix) -> Result<Matrix> {
    let n = a.rows();
    let mut acc = Matrix::zeros(n, n);
    for &c in p.coeffs().iter().rev() {
        acc = acc.matmul(a)?;
        for i in 0..n {
            acc.set(i, i, acc.get(i, i) + c);
        }
    }
    Ok(acc)
}

/// Static feedforward gain for reference tracking (paper eqs. (11)/(17)):
///
/// `F = 1 / ( C (I − A − B·K)⁻¹ B )`
///
/// where `(A, B)` is the discretised interval dynamics (with `B` the total
/// input matrix of the interval) and `K` the feedback gain of the task
/// sampling at that interval's start.
///
/// # Errors
///
/// * [`ControlError::InvalidPlant`] on shape mismatch.
/// * [`ControlError::SynthesisFailed`] if `I − A − BK` is singular or the
///   DC gain is (numerically) zero — no feedforward can achieve tracking.
pub fn feedforward_gain(a: &Matrix, b: &Matrix, c: &Matrix, k: &Matrix) -> Result<f64> {
    let l = a.rows();
    if !a.is_square() || b.shape() != (l, 1) || c.shape() != (1, l) || k.shape() != (1, l) {
        return Err(ControlError::InvalidPlant {
            reason: "feedforward gain needs A (l×l), B (l×1), C (1×l), K (1×l)".into(),
        });
    }
    // M = (I − A) − B K
    let m = Matrix::identity(l)
        .sub_matrix(a)?
        .sub_matrix(&b.matmul(k)?)?;
    let lu = match LuDecomposition::new(&m) {
        Ok(lu) => lu,
        Err(cacs_linalg::LinalgError::Singular) => {
            return Err(ControlError::SynthesisFailed {
                reason: "closed loop has a pole at z = 1; cannot compute feedforward".into(),
            })
        }
        Err(e) => return Err(e.into()),
    };
    let dc = c.matmul(&lu.solve(b)?)?.get(0, 0);
    if !dc.is_finite() || dc.abs() < 1e-12 {
        return Err(ControlError::SynthesisFailed {
            reason: format!("zero DC gain ({dc}); reference tracking impossible"),
        });
    }
    Ok(1.0 / dc)
}

/// Verifies that the closed-loop characteristic polynomial matches the
/// desired poles (test/diagnostic helper).
///
/// # Errors
///
/// Propagates linear-algebra failures.
pub fn verify_pole_placement(
    a: &Matrix,
    b: &Matrix,
    k: &Matrix,
    poles: &[Complex],
    tol: f64,
) -> Result<bool> {
    let acl = a.add_matrix(&b.matmul(k)?)?;
    let achieved = characteristic_polynomial(&acl)?;
    let desired = Polynomial::from_roots(poles);
    Ok(achieved.approx_eq(&desired, tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacs_linalg::spectral_radius;

    fn discrete_double_integrator() -> (Matrix, Matrix) {
        // Sampled double integrator with h = 1.
        (
            Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap(),
            Matrix::column(&[0.5, 1.0]),
        )
    }

    #[test]
    fn deadbeat_placement() {
        let (a, b) = discrete_double_integrator();
        let k = ackermann(&a, &b, &[Complex::ZERO, Complex::ZERO]).unwrap();
        let acl = a.add_matrix(&b.matmul(&k).unwrap()).unwrap();
        // Deadbeat: A_cl is nilpotent → A_cl² = 0.
        let sq = acl.matmul(&acl).unwrap();
        assert!(sq.max_abs() < 1e-10);
    }

    #[test]
    fn real_pole_placement_verified() {
        let (a, b) = discrete_double_integrator();
        let poles = [Complex::from_real(0.5), Complex::from_real(0.25)];
        let k = ackermann(&a, &b, &poles).unwrap();
        assert!(verify_pole_placement(&a, &b, &k, &poles, 1e-9).unwrap());
    }

    #[test]
    fn complex_pair_placement() {
        let (a, b) = discrete_double_integrator();
        let poles = [Complex::new(0.6, 0.3), Complex::new(0.6, -0.3)];
        let k = ackermann(&a, &b, &poles).unwrap();
        assert!(verify_pole_placement(&a, &b, &k, &poles, 1e-9).unwrap());
        let acl = a.add_matrix(&b.matmul(&k).unwrap()).unwrap();
        let rho = spectral_radius(&acl).unwrap();
        assert!((rho - (0.6f64 * 0.6 + 0.3 * 0.3).sqrt()).abs() < 1e-7);
    }

    #[test]
    fn third_order_placement() {
        let a = Matrix::from_rows(&[&[0.9, 0.1, 0.0], &[0.0, 0.8, 0.2], &[0.1, 0.0, 0.7]]).unwrap();
        let b = Matrix::column(&[0.0, 0.0, 1.0]);
        let poles = [
            Complex::from_real(0.1),
            Complex::new(0.2, 0.2),
            Complex::new(0.2, -0.2),
        ];
        let k = ackermann(&a, &b, &poles).unwrap();
        assert!(verify_pole_placement(&a, &b, &k, &poles, 1e-8).unwrap());
    }

    #[test]
    fn uncontrollable_pair_rejected() {
        let a = Matrix::diagonal(&[0.5, 0.7]);
        let b = Matrix::column(&[1.0, 0.0]);
        assert!(matches!(
            ackermann(&a, &b, &[Complex::ZERO, Complex::ZERO]),
            Err(ControlError::Uncontrollable)
        ));
    }

    #[test]
    fn wrong_pole_count_rejected() {
        let (a, b) = discrete_double_integrator();
        assert!(ackermann(&a, &b, &[Complex::ZERO]).is_err());
    }

    #[test]
    fn feedforward_achieves_unit_dc_gain() {
        let (a, b) = discrete_double_integrator();
        let c = Matrix::row(&[1.0, 0.0]);
        let poles = [Complex::from_real(0.4), Complex::from_real(0.5)];
        let k = ackermann(&a, &b, &poles).unwrap();
        let f = feedforward_gain(&a, &b, &c, &k).unwrap();
        // Steady state: x* = (I - A - BK)^{-1} B F r, y* must equal r.
        let m = Matrix::identity(2)
            .sub_matrix(&a)
            .unwrap()
            .sub_matrix(&b.matmul(&k).unwrap())
            .unwrap();
        let xss = LuDecomposition::new(&m)
            .unwrap()
            .solve(&b.scale(f))
            .unwrap();
        let y = c.matmul(&xss).unwrap().get(0, 0);
        assert!((y - 1.0).abs() < 1e-10);
    }

    #[test]
    fn feedforward_rejects_pole_at_one() {
        // A = I, K = 0 → I - A - BK singular.
        let a = Matrix::identity(2);
        let b = Matrix::column(&[0.0, 1.0]);
        let c = Matrix::row(&[1.0, 0.0]);
        let k = Matrix::row(&[0.0, 0.0]);
        assert!(feedforward_gain(&a, &b, &c, &k).is_err());
    }

    #[test]
    fn eval_poly_at_matrix_cayley_hamilton() {
        // Every matrix annihilates its own characteristic polynomial.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let p = characteristic_polynomial(&a).unwrap();
        let z = eval_poly_at_matrix(&p, &a).unwrap();
        assert!(z.max_abs() < 1e-10);
    }
}
