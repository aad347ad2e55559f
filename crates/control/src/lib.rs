//! Discrete-time control substrate: delayed zero-order-hold
//! discretisation, state feedback, lifted periodic closed loops,
//! settling-time evaluation and controller synthesis.
//!
//! This crate implements Section III of the DATE 2018 paper — the
//! *holistic controller design* that maximises control performance for a
//! given cache-aware schedule:
//!
//! * [`ContinuousLti`] — the SISO LTI plant `ẋ = Ax + Bu, y = Cx` (eq. (1)
//!   is its sampled counterpart),
//! * [`discretize_delayed`] — sampling over an interval `h` with
//!   sensing-to-actuation delay `τ ≤ h`, producing
//!   `x⁺ = A_d x + B_prev·u_prev + B_new·u_new` (paper eq. (12)),
//! * [`LiftedPlant`] — the chain of such intervals for one application
//!   under a schedule; its closed-loop *period map* generalises the
//!   paper's `A_hol` (eq. (16)) to any number of consecutive tasks,
//! * [`ackermann`] — classical SISO pole placement (the paper's eq. (9)
//!   path), plus [`feedforward_gain`] for the static gains `F_j`
//!   (eq. (17)),
//! * [`simulate_worst_case`] / [`settling_time`] — step-response
//!   evaluation under the paper's conservative convention (the reference
//!   arrives right after the application's last consecutive task), and
//! * [`synthesize`] — PSO-based gain synthesis with stability and input-
//!   saturation constraints: one method, a direct search over the
//!   per-task feedback gains (Section III's PSO over pole locations plus
//!   an extended Ackermann gain match was removed, since at `m = 1` its
//!   `m·l` gains cannot match the `2l` characteristic coefficients), and
//! * [`SynthCtx`] — a pool of reusable scratch buffers
//!   ([`PeriodMapWorkspace`], [`SimWorkspace`], gain/feedforward vectors)
//!   behind [`synthesize_with`], plus [`LiftedPlant::new_cached`] for
//!   memoised discretisation via [`cacs_linalg::ExpmCache`]. Every reuse
//!   and cache path is bit-identical to the allocating, cache-free one.
//!
//! # Example
//!
//! ```
//! use cacs_control::{ContinuousLti, discretize_delayed};
//! use cacs_linalg::Matrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Double integrator sampled at 1 ms with full-period delay.
//! let plant = ContinuousLti::new(
//!     Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]])?,
//!     Matrix::column(&[0.0, 1.0]),
//!     Matrix::row(&[1.0, 0.0]),
//! )?;
//! let step = discretize_delayed(&plant, 1e-3, 1e-3)?;
//! // With τ = h the new input has no effect within the interval.
//! assert!(step.b_new.max_abs() < 1e-15);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
mod ctx;
mod dare;
mod discretize;
mod error;
mod feedback;
mod kalman;
mod lifted;
mod lqr;
mod lti;
mod observer;
mod quantize;
mod settle;
mod simulate;
mod switched;
mod synthesis;

pub use cost::{quadratic_cost, QuadraticCostSpec};
pub use ctx::{SynthCtx, SynthScratch};
pub use dare::{dlqr, periodic_dlqr, solve_dare};
pub use discretize::{discretize_delayed, discretize_delayed_cached, discretize_zoh, DelayedStep};
pub use error::ControlError;
pub use feedback::{ackermann, feedforward_gain, verify_pole_placement};
pub use kalman::{design_periodic_kalman, kalman_gain, simulate_with_kalman, KalmanResponse};
pub use lifted::{LiftedPlant, PeriodMapWorkspace, Stability};
pub use lqr::{synthesize_lqr, LqrConfig};
pub use lti::ContinuousLti;
pub use observer::{
    design_observer, design_periodic_observer, observer_error_spectral_radius,
    simulate_with_observer, ObserverResponse,
};
pub use quantize::{quantization_impact, FixedPointFormat, QuantizationImpact};
pub use settle::{settling_time, SettlingSpec};
pub use simulate::{simulate_worst_case, simulate_worst_case_into, Response, SimWorkspace};
pub use switched::{jsr_bounds, JsrBounds};
pub use synthesis::{synthesize, synthesize_with, DesignedController, SynthesisConfig};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ControlError>;
