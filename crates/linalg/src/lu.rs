//! LU decomposition with partial pivoting.

use crate::{LinalgError, Matrix, Result};

/// LU decomposition `P·A = L·U` of a square matrix with partial pivoting.
///
/// Use it to solve linear systems, invert matrices and compute
/// determinants. The factorisation is computed once and can be reused for
/// several right-hand sides.
///
/// # Example
///
/// ```
/// use cacs_linalg::{LuDecomposition, Matrix};
///
/// # fn main() -> Result<(), cacs_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
/// let lu = LuDecomposition::new(&a)?;
/// let x = lu.solve(&Matrix::column(&[10.0, 12.0]))?;
/// assert!((x.get(0, 0) - 1.0).abs() < 1e-12);
/// assert!((x.get(1, 0) - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (below diagonal, unit diagonal implied) and U (upper).
    lu: Matrix,
    /// Row permutation: row `i` of the factorised matrix is row `perm[i]`
    /// of the original.
    perm: Vec<usize>,
    /// Sign of the permutation, for the determinant.
    perm_sign: f64,
}

/// Pivot threshold below which the matrix is declared singular.
const SINGULARITY_TOL: f64 = 1e-13;

impl LuDecomposition {
    /// Factorises `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is rectangular.
    /// * [`LinalgError::Singular`] if a pivot is smaller than
    ///   `1e-13 * max|a|` (the matrix is singular to working precision).
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut lu = a.clone();
        let mut perm = Vec::new();
        let perm_sign = LuDecomposition::factor_in_place(&mut lu, &mut perm)?;
        Ok(LuDecomposition {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Factorises the square matrix `lu` in place on caller-owned
    /// buffers: afterwards `lu` holds the combined factors and `perm` the
    /// row permutation, as [`LuDecomposition::solve_factored_into`]
    /// expects. Returns the permutation's sign. This is the one
    /// factorisation behind [`LuDecomposition::new`]; a hot loop reuses
    /// both buffers across calls.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LuDecomposition::new`]; on
    /// [`LinalgError::Singular`] `lu` is left partly factorised.
    pub fn factor_in_place(lu: &mut Matrix, perm: &mut Vec<usize>) -> Result<f64> {
        if !lu.is_square() {
            return Err(LinalgError::NotSquare { shape: lu.shape() });
        }
        let n = lu.rows();
        perm.clear();
        perm.extend(0..n);
        let mut perm_sign = 1.0;
        let scale = lu.max_abs().max(1.0);

        for k in 0..n {
            // Partial pivoting: pick the largest |entry| in column k.
            let mut pivot_row = k;
            let mut pivot_val = lu.get(k, k).abs();
            for i in (k + 1)..n {
                let v = lu.get(i, k).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < SINGULARITY_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu.get(k, j);
                    lu.set(k, j, lu.get(pivot_row, j));
                    lu.set(pivot_row, j, tmp);
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu.get(k, k);
            for i in (k + 1)..n {
                let factor = lu.get(i, k) / pivot;
                lu.set(i, k, factor);
                for j in (k + 1)..n {
                    let v = lu.get(i, j) - factor * lu.get(k, j);
                    lu.set(i, j, v);
                }
            }
        }
        Ok(perm_sign)
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·X = B` for `X`, where `B` may have several columns.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.rows()` differs from
    /// the factorised dimension.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix> {
        let mut x = Matrix::zeros(self.dim(), b.cols());
        LuDecomposition::solve_factored_into(&self.lu, &self.perm, b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·X = B` into the caller-owned `x` (fully overwritten),
    /// from the factors [`LuDecomposition::factor_in_place`] left in `lu`
    /// and `perm`. This is the one substitution behind
    /// [`LuDecomposition::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.rows()` differs from
    /// the factorised dimension or `x` is not `b`-shaped.
    pub fn solve_factored_into(
        lu: &Matrix,
        perm: &[usize],
        b: &Matrix,
        x: &mut Matrix,
    ) -> Result<()> {
        let n = lu.rows();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "LU solve",
                left: (n, n),
                right: b.shape(),
            });
        }
        if x.shape() != b.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "LU solve output",
                left: b.shape(),
                right: x.shape(),
            });
        }
        let m = b.cols();
        // Apply permutation.
        for (i, &row) in perm.iter().enumerate() {
            for j in 0..m {
                x.set(i, j, b.get(row, j));
            }
        }
        // Forward substitution (L has implicit unit diagonal).
        for i in 1..n {
            for k in 0..i {
                let l = lu.get(i, k);
                if l == 0.0 {
                    continue;
                }
                for j in 0..m {
                    let v = x.get(i, j) - l * x.get(k, j);
                    x.set(i, j, v);
                }
            }
        }
        // Back substitution.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                let u = lu.get(i, k);
                if u == 0.0 {
                    continue;
                }
                for j in 0..m {
                    let v = x.get(i, j) - u * x.get(k, j);
                    x.set(i, j, v);
                }
            }
            let d = lu.get(i, i);
            for j in 0..m {
                x.set(i, j, x.get(i, j) / d);
            }
        }
        Ok(())
    }

    /// Matrix inverse `A⁻¹`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`LuDecomposition::solve`].
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve(&Matrix::identity(self.dim()))
    }

    /// Determinant of the factorised matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.dim() {
            det *= self.lu.get(i, i);
        }
        det
    }
}

/// Convenience wrapper: solves `A·X = B` with a fresh factorisation.
///
/// # Errors
///
/// See [`LuDecomposition::new`] and [`LuDecomposition::solve`].
pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    LuDecomposition::new(a)?.solve(b)
}

/// Convenience wrapper: inverse of `a` with a fresh factorisation.
///
/// # Errors
///
/// See [`LuDecomposition::new`].
pub fn inverse(a: &Matrix) -> Result<Matrix> {
    LuDecomposition::new(a)?.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Matrix::column(&[5.0, 10.0]);
        let x = solve(&a, &b).unwrap();
        assert!((x.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((x.get(1, 0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a =
            Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[3.0, 6.0, -4.0], &[2.0, 1.0, 8.0]]).unwrap();
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn determinant_of_triangular_matrix() {
        let a = Matrix::from_rows(&[&[2.0, 5.0], &[0.0, 3.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_tracks_permutation_sign() {
        // Swapping rows of the identity gives determinant -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::Singular)
        ));
    }

    #[test]
    fn rectangular_matrix_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_with_multiple_right_hand_sides() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[9.0, 4.0], &[8.0, 3.0]]).unwrap();
        let x = solve(&a, &b).unwrap();
        let back = a.matmul(&x).unwrap();
        assert!(back.approx_eq(&b, 1e-12));
    }

    #[test]
    fn solve_rejects_wrong_rhs_height() {
        let a = Matrix::identity(2);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(lu.solve(&Matrix::column(&[1.0, 2.0, 3.0])).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &Matrix::column(&[2.0, 3.0])).unwrap();
        assert!((x.get(0, 0) - 3.0).abs() < 1e-12);
        assert!((x.get(1, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn in_place_factor_and_solve_reuse_buffers_bit_identically() {
        let a3 =
            Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[3.0, 6.0, -4.0], &[2.0, 1.0, 8.0]]).unwrap();
        let a2 = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.5]]).unwrap();
        let mut perm = vec![9, 9, 9, 9]; // stale, longer than needed
        for a in [&a3, &a2, &a3] {
            let b = Matrix::from_fn(a.rows(), 2, |i, j| (i + 3 * j) as f64 - 1.5);
            let fresh = LuDecomposition::new(a).unwrap();
            let mut lu = a.clone();
            let sign = LuDecomposition::factor_in_place(&mut lu, &mut perm).unwrap();
            assert_eq!(sign, fresh.perm_sign);
            assert_eq!(perm, fresh.perm);
            let mut x = Matrix::from_fn(a.rows(), 2, |_, _| f64::NAN); // stale
            LuDecomposition::solve_factored_into(&lu, &perm, &b, &mut x).unwrap();
            let expect = fresh.solve(&b).unwrap();
            for (p, q) in x.as_slice().iter().zip(expect.as_slice()) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
            let mut wrong = Matrix::zeros(a.rows(), 1);
            assert!(LuDecomposition::solve_factored_into(&lu, &perm, &b, &mut wrong).is_err());
        }
        let mut singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuDecomposition::factor_in_place(&mut singular, &mut perm),
            Err(LinalgError::Singular)
        ));
    }

    #[test]
    fn ill_conditioned_but_nonsingular_still_solves() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + 1e-8]]).unwrap();
        let b = Matrix::column(&[2.0, 2.0 + 1e-8]);
        let x = solve(&a, &b).unwrap();
        // Exact solution is (1, 1).
        assert!((x.get(0, 0) - 1.0).abs() < 1e-4);
        assert!((x.get(1, 0) - 1.0).abs() < 1e-4);
    }
}
