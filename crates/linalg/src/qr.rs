//! Householder QR decomposition.

// Index-based loops mirror the textbook Householder formulation.
#![allow(clippy::needless_range_loop)]

use crate::{LinalgError, Matrix, Result};

/// QR decomposition `A = Q·R` by Householder reflections.
///
/// Supports rectangular `m × n` matrices with `m ≥ n`; used for the
/// numerical rank of controllability tests.
///
/// # Example
///
/// ```
/// use cacs_linalg::{Matrix, QrDecomposition};
///
/// # fn main() -> Result<(), cacs_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
/// let qr = QrDecomposition::new(&a)?;
/// assert_eq!(qr.rank(1e-10), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    q: Matrix,
    r: Matrix,
}

impl QrDecomposition {
    /// Factorises `a` (requires `a.rows() >= a.cols()`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `a.rows() < a.cols()`.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::InvalidArgument {
                reason: "QR requires rows >= cols",
            });
        }
        let mut r = a.clone();
        let mut q = Matrix::identity(m);

        for k in 0..n {
            // Householder vector for column k, rows k..m.
            let mut norm_sq = 0.0;
            for i in k..m {
                let v = r.get(i, k);
                norm_sq += v * v;
            }
            let norm = norm_sq.sqrt();
            if norm < 1e-300 {
                continue; // Column already zero below (and at) the diagonal.
            }
            let alpha = if r.get(k, k) >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m];
            v[k] = r.get(k, k) - alpha;
            for (i, item) in v.iter_mut().enumerate().take(m).skip(k + 1) {
                *item = r.get(i, k);
            }
            let v_norm_sq: f64 = v.iter().map(|x| x * x).sum();
            if v_norm_sq < 1e-300 {
                continue;
            }
            // Apply H = I - 2 v vᵀ / (vᵀv) to R (left) and accumulate into Q.
            for j in 0..n {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i] * r.get(i, j);
                }
                let factor = 2.0 * dot / v_norm_sq;
                for i in k..m {
                    let val = r.get(i, j) - factor * v[i];
                    r.set(i, j, val);
                }
            }
            for j in 0..m {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i] * q.get(j, i);
                }
                let factor = 2.0 * dot / v_norm_sq;
                for i in k..m {
                    let val = q.get(j, i) - factor * v[i];
                    q.set(j, i, val);
                }
            }
        }
        Ok(QrDecomposition { q, r })
    }

    /// The orthogonal factor `Q` (`m × m`).
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// The upper-triangular factor `R` (`m × n`, zero below the diagonal).
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Numerical rank: the number of diagonal entries of `R` whose absolute
    /// value exceeds `tol * max|R_ii|`.
    pub fn rank(&self, tol: f64) -> usize {
        let n = self.r.cols().min(self.r.rows());
        let max_diag = (0..n)
            .map(|i| self.r.get(i, i).abs())
            .fold(0.0_f64, f64::max);
        if max_diag == 0.0 {
            return 0;
        }
        (0..n)
            .filter(|&i| self.r.get(i, i).abs() > tol * max_diag)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qr_reconstructs_original() {
        let a = Matrix::from_rows(&[
            &[12.0, -51.0, 4.0],
            &[6.0, 167.0, -68.0],
            &[-4.0, 24.0, -41.0],
        ])
        .unwrap();
        let qr = QrDecomposition::new(&a).unwrap();
        let back = qr.q().matmul(qr.r()).unwrap();
        assert!(back.approx_eq(&a, 1e-10));
    }

    #[test]
    fn q_is_orthogonal() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let qr = QrDecomposition::new(&a).unwrap();
        let qtq = qr.q().transpose().matmul(qr.q()).unwrap();
        assert!(qtq.approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0], &[0.0, 1.0]]).unwrap();
        let qr = QrDecomposition::new(&a).unwrap();
        for i in 0..qr.r().rows() {
            for j in 0..qr.r().cols().min(i) {
                assert!(qr.r().get(i, j).abs() < 1e-12, "R not triangular");
            }
        }
    }

    #[test]
    fn rank_of_full_rank_matrix() {
        let a = Matrix::identity(3);
        let qr = QrDecomposition::new(&a).unwrap();
        assert_eq!(qr.rank(1e-10), 3);
    }

    #[test]
    fn rank_detects_deficiency() {
        // Third column = first + second.
        let a = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0], &[1.0, 1.0, 2.0]]).unwrap();
        let qr = QrDecomposition::new(&a).unwrap();
        assert_eq!(qr.rank(1e-10), 2);
    }

    #[test]
    fn wide_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        assert!(QrDecomposition::new(&a).is_err());
    }
}
