//! Dense linear-algebra substrate for the `cacs` framework.
//!
//! This crate provides exactly the numerical kernels needed by the
//! cache-aware control co-design pipeline of the DATE 2018 paper
//! *"Cache-Aware Task Scheduling for Maximizing Control Performance"*:
//!
//! * [`Matrix`] — a small, owned, row-major dense `f64` matrix with the
//!   usual arithmetic operators,
//! * [`LuDecomposition`] — LU with partial pivoting (solve / inverse /
//!   determinant),
//! * [`QrDecomposition`] — Householder QR (numerical rank),
//! * [`expm`] / [`expm_with_integral`] — matrix exponential by scaling and
//!   squaring with a Padé(13) approximant, plus the zero-order-hold
//!   integral `Ψ(t) = ∫₀ᵗ e^{As} ds` needed for discretisation, with
//!   [`ExpmWorkspace`] `_into`/`_ws` variants for allocation-free reuse,
//! * [`BitKey`] — the sanctioned bit-pattern cache-key helper (total
//!   `f64` equality: `NaN` payloads and `-0.0`/`0.0` distinguish),
//! * [`ExpmCache`] — a `BitKey`-keyed `(A, t) → (Φ, Ψ)` memo shared
//!   across `cacs-par` workers (bit-identical by construction),
//! * [`Polynomial`] and Durand–Kerner [`Polynomial::roots`] —
//!   characteristic polynomials and pole computations,
//! * [`eigenvalues`] / [`spectral_radius`] — via Faddeev–LeVerrier and the
//!   root finder (the matrices in this domain are tiny: 2–12 rows), with
//!   [`EigWorkspace`] for allocation-free reuse and a Schur–Cohn test
//!   that certifies "every eigenvalue inside a radius" without root
//!   finding,
//! * [`controllability_matrix`] / [`is_controllable`] — Kalman rank test.
//!
//! # Example
//!
//! ```
//! use cacs_linalg::{Matrix, expm};
//!
//! # fn main() -> Result<(), cacs_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, -2.0]])?;
//! let phi = expm(&a.scale(0.01))?; // e^{A h}, h = 10 ms
//! assert!((phi.get(0, 0) - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod complex;
mod ctrb;
mod eig;
mod error;
mod expm;
mod expm_cache;
mod key;
mod lu;
mod matrix;
mod norm;
mod poly;
mod qr;

pub use complex::Complex;
pub use ctrb::{controllability_matrix, is_controllable};
pub use eig::{characteristic_polynomial, eigenvalues, spectral_radius, EigWorkspace};
pub use error::LinalgError;
pub use expm::{expm, expm_into, expm_with_integral, expm_with_integral_ws, ExpmWorkspace};
pub use expm_cache::ExpmCache;
pub use key::BitKey;
pub use lu::{inverse, solve, LuDecomposition};
pub use matrix::Matrix;
pub use norm::spectral_norm;
pub use poly::Polynomial;
pub use qr::QrDecomposition;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
