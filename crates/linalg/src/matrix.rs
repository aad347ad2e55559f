//! Owned, row-major dense matrix of `f64`.

use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major matrix of `f64` values.
///
/// Matrices in this crate are small (control systems with a handful of
/// states), so the value-returning operations allocate freely and
/// favour clarity. The hot kernels of the evaluation pipeline (matrix
/// exponential, period maps, closed-loop simulation) additionally get
/// allocation-free in-place counterparts — [`Matrix::matmul_into`],
/// [`Matrix::add_assign_matrix`], [`Matrix::add_scaled_assign`],
/// [`Matrix::scale_in_place`], [`Matrix::copy_from`] and
/// [`Matrix::fill`] — that write into caller-provided scratch buffers.
///
/// # Example
///
/// ```
/// use cacs_linalg::Matrix;
///
/// # fn main() -> Result<(), cacs_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = (&a * &b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// `out_row += aik * rhs_row` over the contiguous row slices. The
/// plain `zip` keeps the trip count visible to the auto-vectorizer,
/// which unrolls and packs it better than any manual unroll (measured:
/// a hand-unrolled 4-wide version ran ~1.8× slower at n = 64). Each
/// output element receives exactly one `+=` per call — vectorising
/// across elements distributes independent reductions over lanes, it
/// never splits or reorders a single element's reduction.
#[inline(always)]
fn axpy_row(out_row: &mut [f64], rhs_row: &[f64], aik: f64) {
    debug_assert_eq!(out_row.len(), rhs_row.len());
    for (o, r) in out_row.iter_mut().zip(rhs_row) {
        *o += aik * r;
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `rows` is empty, any row
    /// is empty, or the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::InvalidArgument {
                reason: "matrix must have at least one row and one column",
            });
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::InvalidArgument {
                reason: "all rows must have the same length",
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `data.len() != rows * cols`
    /// or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidArgument {
                reason: "matrix dimensions must be non-zero",
            });
        }
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument {
                reason: "data length must equal rows * cols",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Creates a column vector (an `n × 1` matrix) from a slice.
    pub fn column(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "column vector must be non-empty");
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates a row vector (a `1 × n` matrix) from a slice.
    pub fn row(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "row vector must be non-empty");
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates a square matrix with `values` on the diagonal.
    pub fn diagonal(values: &[f64]) -> Self {
        let n = values.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in values.iter().enumerate() {
            m.data[i * n + i] = v;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Immutable view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_slice(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Multiplies every entry by `factor`.
    pub fn scale(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * factor).collect(),
        }
    }

    /// Applies `f` to every entry.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self * rhs` written into `out` (which is fully
    /// overwritten). The allocation-free kernel behind [`Matrix::matmul`]
    /// — reuse `out` across iterations of a hot loop.
    ///
    /// This is a cache-blocked, auto-vectorizer-friendly micro-kernel:
    /// i-k-j loop order over `MC × KC` panels of `self`, with the inner
    /// accumulation over contiguous `rhs`/`out` row slices unrolled four
    /// wide, plus fast paths for column vectors (the `u = K x` products
    /// of the simulation loop) and the small square matrices the lifted
    /// discretisations feed to `expm`. It is **bitwise identical** to
    /// the naive triple loop: for every output element the reduction
    /// still runs over `k` ascending, skipping exact-zero `self[i][k]`
    /// terms, with one `+=` per term — the blocking reorders *loops*,
    /// never a *reduction*. The unit tests prove the equality against a
    /// reference triple loop over exhaustive small shapes, panel
    /// boundaries and non-finite inputs.
    ///
    /// `rhs` may alias `self` (squaring: `a.matmul_into(&a, &mut sq)`);
    /// `out` must be a distinct matrix, which `&mut` already enforces.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs.rows()` or `out` is not `self.rows() ×
    /// rhs.cols()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        self.validate_matmul(rhs, out)?;
        // Deliberately untimed: one schedule evaluation makes ~300k
        // calls, so even a 1-in-64 sampled recorder timer here cost more
        // than the whole 3% observability budget.
        let n = rhs.cols;
        if n == 1 {
            // Column-vector fast path: one sequential dot per row. A
            // single local accumulator adds the same terms in the same
            // order as the naive loop's `out[i] +=`, so the sum is
            // bit-identical; it just keeps the running value in a
            // register instead of a store-reload per term.
            for i in 0..self.rows {
                let row = &self.data[i * self.cols..(i + 1) * self.cols];
                let mut acc = 0.0;
                for (k, &aik) in row.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    acc += aik * rhs.data[k];
                }
                out.data[i] = acc;
            }
            return Ok(());
        }
        out.data.fill(0.0);
        // Panel sizes tuned for the 2n×2n lifted matrices expm sees: a
        // KC-deep panel of rhs rows (KC·n·8 bytes ≈ half an L1) stays
        // resident while MC output rows stream over it. Small matrices
        // fall inside a single panel and pay no blocking overhead.
        const MC: usize = 16;
        const KC: usize = 64;
        for i0 in (0..self.rows).step_by(MC) {
            let i1 = (i0 + MC).min(self.rows);
            for k0 in (0..self.cols).step_by(KC) {
                let k1 = (k0 + KC).min(self.cols);
                for i in i0..i1 {
                    let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
                    let out_row = &mut out.data[i * n..(i + 1) * n];
                    for (k, &aik) in a_row[k0..k1].iter().enumerate() {
                        if aik == 0.0 {
                            continue;
                        }
                        let rhs_row = &rhs.data[(k0 + k) * n..(k0 + k + 1) * n];
                        axpy_row(out_row, rhs_row, aik);
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_matmul(&self, rhs: &Matrix, out: &Matrix) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix multiply",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        if out.shape() != (self.rows, rhs.cols) {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix multiply output",
                left: (self.rows, rhs.cols),
                right: out.shape(),
            });
        }
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn add_matrix(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix add",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn sub_matrix(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix subtract",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Dot product of row `row` with the column vector `vec` — the
    /// allocation-free form of `self.block(row, 0, 1, n).matmul(vec)`
    /// for the `u = K x` inner products of the simulation loop.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless `vec` is a
    /// `self.cols() × 1` column.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_dot(&self, row: usize, vec: &Matrix) -> Result<f64> {
        if vec.shape() != (self.cols, 1) {
            return Err(LinalgError::DimensionMismatch {
                operation: "row-vector dot product",
                left: self.shape(),
                right: vec.shape(),
            });
        }
        // One sequential accumulator, ascending index. Unlike the
        // element-wise axpy family this IS a reduction: splitting it
        // across multiple accumulators would reassociate the f64 sum
        // and break bit-identity, so it stays a single chain.
        Ok(self
            .row_slice(row)
            .iter()
            .zip(&vec.data)
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Element-wise in-place sum `self += rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn add_assign_matrix(&mut self, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix add-assign",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        Ok(())
    }

    /// In-place scaled accumulation `self += factor * rhs` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn add_scaled_assign(&mut self, rhs: &Matrix, factor: f64) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix scaled add-assign",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        // Same four-wide unrolled axpy as the matmul inner loop;
        // element-wise, so no reduction order exists to disturb.
        axpy_row(&mut self.data, &rhs.data, factor);
        Ok(())
    }

    /// Multiplies every entry by `factor` in place.
    pub fn scale_in_place(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Sets every entry to `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Overwrites `self` with the entries of `rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn copy_from(&mut self, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix copy",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        self.data.copy_from_slice(&rhs.data);
        Ok(())
    }

    /// Extracts the contiguous block starting at `(row, col)` of size
    /// `rows × cols`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the block exceeds the
    /// matrix bounds or has a zero dimension.
    pub fn block(&self, row: usize, col: usize, rows: usize, cols: usize) -> Result<Matrix> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidArgument {
                reason: "block dimensions must be non-zero",
            });
        }
        if row + rows > self.rows || col + cols > self.cols {
            return Err(LinalgError::InvalidArgument {
                reason: "block exceeds matrix bounds",
            });
        }
        Ok(Matrix::from_fn(rows, cols, |i, j| {
            self.get(row + i, col + j)
        }))
    }

    /// Writes `block` into this matrix with its top-left corner at
    /// `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the block does not fit.
    pub fn set_block(&mut self, row: usize, col: usize, block: &Matrix) -> Result<()> {
        if row + block.rows > self.rows || col + block.cols > self.cols {
            return Err(LinalgError::InvalidArgument {
                reason: "block exceeds matrix bounds",
            });
        }
        for i in 0..block.rows {
            for j in 0..block.cols {
                self.set(row + i, col + j, block.get(i, j));
            }
        }
        Ok(())
    }

    /// Horizontal concatenation `[self | rhs]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the row counts differ.
    pub fn hstack(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "horizontal stack",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        out.set_block(0, 0, self)?;
        out.set_block(0, self.cols, rhs)?;
        Ok(out)
    }

    /// Vertical concatenation `[self; rhs]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the column counts
    /// differ.
    pub fn vstack(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "vertical stack",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows + rhs.rows, self.cols);
        out.set_block(0, 0, self)?;
        out.set_block(self.rows, 0, rhs)?;
        Ok(out)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute row sum (the induced ∞-norm).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row_slice(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Sum of diagonal entries.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        Ok((0..self.rows).map(|i| self.get(i, i)).sum())
    }

    /// Integer matrix power by repeated squaring.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn powi(&self, mut exp: u32) -> Result<Matrix> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        // Three fixed buffers ping-pong through the squaring chain; no
        // per-step allocation.
        let mut base = self.clone();
        let mut acc = Matrix::identity(self.rows);
        let mut scratch = Matrix::zeros(self.rows, self.rows);
        while exp > 0 {
            if exp & 1 == 1 {
                acc.matmul_into(&base, &mut scratch)?;
                std::mem::swap(&mut acc, &mut scratch);
            }
            if exp > 1 {
                base.matmul_into(&base, &mut scratch)?;
                std::mem::swap(&mut base, &mut scratch);
            }
            exp >>= 1;
        }
        Ok(acc)
    }

    /// Returns `true` if every entry differs from `other` by at most `tol`.
    ///
    /// Shapes must match exactly, otherwise `false` is returned.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

impl Add for &Matrix {
    type Output = Result<Matrix>;
    fn add(self, rhs: &Matrix) -> Result<Matrix> {
        self.add_matrix(rhs)
    }
}

impl Sub for &Matrix {
    type Output = Result<Matrix>;
    fn sub(self, rhs: &Matrix) -> Result<Matrix> {
        self.sub_matrix(rhs)
    }
}

impl Mul for &Matrix {
    type Output = Result<Matrix>;
    fn mul(self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:12.6}", self.get(i, j))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m[(0, 1)], 2.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidArgument { .. }));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(0, 2, vec![]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn identity_multiplication_is_neutral() {
        let m = Matrix::from_rows(&[&[2.0, -1.0], &[0.5, 3.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_rejects_mismatched_shapes() {
        let a = sample();
        let err = a.matmul(&a).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = sample();
        let b = sample().scale(0.25);
        let sum = a.add_matrix(&b).unwrap();
        let back = sum.sub_matrix(&b).unwrap();
        assert!(back.approx_eq(&a, 1e-15));
    }

    #[test]
    fn block_and_set_block() {
        let m = sample();
        let b = m.block(0, 1, 2, 2).unwrap();
        assert_eq!(b, Matrix::from_rows(&[&[2.0, 3.0], &[5.0, 6.0]]).unwrap());
        let mut z = Matrix::zeros(3, 3);
        z.set_block(1, 1, &b).unwrap();
        assert_eq!(z.get(1, 1), 2.0);
        assert_eq!(z.get(2, 2), 6.0);
        assert_eq!(z.get(0, 0), 0.0);
        assert!(z.set_block(2, 2, &b).is_err());
        assert!(m.block(1, 2, 2, 2).is_err());
    }

    #[test]
    fn stacking() {
        let a = Matrix::row(&[1.0, 2.0]);
        let b = Matrix::row(&[3.0, 4.0]);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v, Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap());
        let h = a.hstack(&b).unwrap();
        assert_eq!(h, Matrix::row(&[1.0, 2.0, 3.0, 4.0]));
        assert!(a.vstack(&Matrix::row(&[1.0])).is_err());
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, -4.0], &[0.0, 0.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-15);
        assert_eq!(m.norm_inf(), 7.0);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn trace_requires_square() {
        assert!(sample().trace().is_err());
        let m = Matrix::diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(m.trace().unwrap(), 6.0);
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let m = Matrix::from_rows(&[&[0.5, 0.1], &[-0.2, 0.8]]).unwrap();
        let p3 = m.powi(3).unwrap();
        let manual = m.matmul(&m).unwrap().matmul(&m).unwrap();
        assert!(p3.approx_eq(&manual, 1e-14));
        assert_eq!(m.powi(0).unwrap(), Matrix::identity(2));
    }

    #[test]
    fn matmul_into_matches_matmul_and_validates() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let mut out = Matrix::from_rows(&[&[9.0, 9.0], &[9.0, 9.0]]).unwrap(); // stale data
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        // Aliased rhs (self * self) is allowed.
        let mut sq = Matrix::zeros(2, 2);
        a.matmul_into(&a, &mut sq).unwrap();
        assert_eq!(sq, a.matmul(&a).unwrap());
        // Wrong output shape is rejected.
        let mut bad = Matrix::zeros(2, 3);
        assert!(a.matmul_into(&b, &mut bad).is_err());
    }

    /// Deterministic splitmix64 stream for the bitwise proof below.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A hostile-but-finite fill: mixed magnitudes, exact zeros (the
    /// skip path), negative zeros, subnormals and negatives.
    fn patterned(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed;
        Matrix::from_fn(rows, cols, |_, _| match splitmix64(&mut state) % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE / 2.0, // subnormal
            3 => -1.0e12,
            4 => 1.0e-12,
            5 => (splitmix64(&mut state) as f64 / u64::MAX as f64) - 0.5,
            6 => (splitmix64(&mut state) % 1000) as f64,
            _ => -((splitmix64(&mut state) % 97) as f64) / 7.0,
        })
    }

    impl Matrix {
        /// Reference triple-loop product: the bitwise ground truth the
        /// blocked [`Matrix::matmul_into`] kernel is proven against.
        /// Plain i-k-j with the same ascending-`k`, zero-skipping
        /// reduction per output element — kept deliberately naive.
        fn matmul_into_naive(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
            self.validate_matmul(rhs, out)?;
            out.data.fill(0.0);
            for i in 0..self.rows {
                for k in 0..self.cols {
                    let aik = self.data[i * self.cols + k];
                    if aik == 0.0 {
                        continue;
                    }
                    let out_row = i * rhs.cols;
                    let rhs_row = k * rhs.cols;
                    for j in 0..rhs.cols {
                        out.data[out_row + j] += aik * rhs.data[rhs_row + j];
                    }
                }
            }
            Ok(())
        }
    }

    fn assert_bitwise_eq(blocked: &Matrix, naive: &Matrix, ctx: &str) {
        assert_eq!(blocked.shape(), naive.shape());
        for (i, (x, y)) in blocked.as_slice().iter().zip(naive.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: element {i} diverges: {x:e} vs {y:e}"
            );
        }
    }

    /// The kernel contract: the blocked micro-kernel is bitwise
    /// identical to the naive triple loop for every shape class it
    /// sees — exhaustive small shapes (every (m, k, n) in 1..=8, the
    /// expm regime), panel-boundary shapes straddling the MC/KC block
    /// sizes, tall/thin and the column-vector fast path, each over
    /// several seeds of hostile data (zeros, -0.0, subnormals, mixed
    /// magnitudes).
    #[test]
    fn blocked_matmul_is_bitwise_identical_to_naive() {
        let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
        for m in 1..=8 {
            for k in 1..=8 {
                for n in 1..=8 {
                    shapes.push((m, k, n));
                }
            }
        }
        // Straddle the MC=16 / KC=64 panel boundaries and the
        // unroll-by-4 tail classes.
        shapes.extend([
            (15, 63, 3),
            (16, 64, 4),
            (17, 65, 5),
            (33, 130, 7),
            (2, 200, 6),
            (40, 3, 40),
            (64, 1, 64),
            (1, 100, 1),
            (31, 31, 1), // column-vector fast path, odd size
            (16, 64, 1), // column-vector fast path, panel boundary
        ]);
        for (s, (m, k, n)) in shapes.into_iter().enumerate() {
            for seed in 0..3u64 {
                let a = patterned(m, k, 0xA11C_E000 + seed * 131 + s as u64);
                let b = patterned(k, n, 0xB0B0_0000 + seed * 173 + s as u64);
                let mut blocked = Matrix::zeros(m, n);
                let mut naive = Matrix::zeros(m, n);
                a.matmul_into(&b, &mut blocked).unwrap();
                a.matmul_into_naive(&b, &mut naive).unwrap();
                assert_bitwise_eq(&blocked, &naive, &format!("{m}x{k}x{n} seed {seed}"));
            }
        }
        // Aliased squaring stays bitwise identical too.
        let a = patterned(20, 20, 0xDEAD_BEEF);
        let mut blocked = Matrix::zeros(20, 20);
        let mut naive = Matrix::zeros(20, 20);
        a.matmul_into(&a, &mut blocked).unwrap();
        a.matmul_into_naive(&a, &mut naive).unwrap();
        assert_bitwise_eq(&blocked, &naive, "aliased 20x20 squaring");
    }

    /// Non-finite payloads flow through both kernels identically: NaN
    /// is not skipped (NaN != 0.0), infinities propagate, and the
    /// zero-skip treats -0.0 like 0.0 in both.
    #[test]
    fn blocked_matmul_matches_naive_on_non_finite_inputs() {
        let a = Matrix::from_rows(&[
            &[f64::NAN, 0.0, 2.0, -0.0, f64::INFINITY],
            &[1.0, f64::NEG_INFINITY, -0.0, 3.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0, 0.0],
        ])
        .unwrap();
        let b = patterned(5, 6, 0x5EED);
        let mut blocked = Matrix::zeros(3, 6);
        let mut naive = Matrix::zeros(3, 6);
        a.matmul_into(&b, &mut blocked).unwrap();
        a.matmul_into_naive(&b, &mut naive).unwrap();
        assert_bitwise_eq(&blocked, &naive, "non-finite lhs");
        // And through the column-vector fast path.
        let v = patterned(5, 1, 0xFEED);
        let mut bv = Matrix::zeros(3, 1);
        let mut nv = Matrix::zeros(3, 1);
        a.matmul_into(&v, &mut bv).unwrap();
        a.matmul_into_naive(&v, &mut nv).unwrap();
        assert_bitwise_eq(&bv, &nv, "non-finite matvec");
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let a = sample();
        let b = sample().scale(0.5);

        let mut x = a.clone();
        x.add_assign_matrix(&b).unwrap();
        assert_eq!(x, a.add_matrix(&b).unwrap());

        let mut y = a.clone();
        y.add_scaled_assign(&b, -2.0).unwrap();
        assert_eq!(y, a.add_matrix(&b.scale(-2.0)).unwrap());

        let mut z = a.clone();
        z.scale_in_place(3.0);
        assert_eq!(z, a.scale(3.0));

        let mut f = a.clone();
        f.fill(1.25);
        assert!(f.as_slice().iter().all(|&v| v == 1.25));

        let mut c = Matrix::zeros(2, 3);
        c.copy_from(&a).unwrap();
        assert_eq!(c, a);

        // Shape mismatches are rejected everywhere.
        let wide = Matrix::zeros(2, 2);
        assert!(x.add_assign_matrix(&wide).is_err());
        assert!(y.add_scaled_assign(&wide, 1.0).is_err());
        assert!(c.copy_from(&wide).is_err());
    }

    #[test]
    fn operators_delegate() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        assert_eq!((&a + &b).unwrap(), Matrix::identity(2).scale(2.0));
        assert_eq!((&a - &b).unwrap(), Matrix::zeros(2, 2));
        assert_eq!((&a * &b).unwrap(), Matrix::identity(2));
        assert_eq!(-&a, a.scale(-1.0));
    }

    #[test]
    fn display_shows_all_entries() {
        let text = sample().to_string();
        assert!(text.contains("1.000000"));
        assert!(text.contains("6.000000"));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_bounds_get_panics() {
        sample().get(2, 0);
    }
}
