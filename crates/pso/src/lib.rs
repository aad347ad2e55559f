//! Generic bounded particle swarm optimiser (PSO).
//!
//! The paper uses PSO for pole placement (Section III, citing \[14\]) but
//! omits the details. This crate provides a deterministic, seedable,
//! box-bounded PSO minimiser that the control crate uses both for
//! pole-location search and for direct gain synthesis.
//!
//! # Determinism
//!
//! A seeded run is a pure function of its configuration, bounds,
//! guesses and objective: the swarm draws its random numbers in fixed
//! particle order and scores particles one after another on the calling
//! thread. Parallelism lives one level up: a schedule sweep or the
//! per-app synthesis fan-out runs whole PSO runs on its lanes.
//!
//! # Bounded objectives
//!
//! The swarm reads a freshly scored value only to ask whether it beats
//! the particle's own best. So the objective receives that best as a
//! bound (`+∞` for the initial swarm) and may stop early: once it can
//! prove the exact value is `≥ bound`, it may return any value `≥ bound`.
//! Below the bound it returns the exact value. Under this contract the
//! run is bit-identical to one with an always-exact objective (see
//! [`Pso::minimize`]). The controller synthesis uses it to skip the
//! root-finder for provably unstable candidates and to cut short
//! simulations that already score worse than the particle's best.
//!
//! # Example
//!
//! ```
//! use cacs_pso::{Bounds, Pso, PsoConfig};
//!
//! # fn main() -> Result<(), cacs_pso::PsoError> {
//! // Minimise the 2-D sphere function.
//! let bounds = Bounds::symmetric(2, 5.0)?;
//! let result = Pso::new(PsoConfig::default().with_seed(7))
//!     .minimize(&bounds, |x, _bound| x.iter().map(|v| v * v).sum())?;
//! assert!(result.best_value < 1e-4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bounds;
mod optimizer;

pub use bounds::Bounds;
pub use optimizer::{Pso, PsoConfig, PsoResult};

use std::error::Error;
use std::fmt;

/// Error returned by the optimiser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PsoError {
    /// Bounds were empty, mismatched, or inverted (`lower > upper`).
    InvalidBounds {
        /// Human-readable description of the defect.
        reason: &'static str,
    },
    /// A configuration parameter was out of range.
    InvalidConfig {
        /// Which parameter was rejected.
        parameter: &'static str,
    },
    /// The objective returned NaN for every sampled point.
    DegenerateObjective,
}

impl fmt::Display for PsoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsoError::InvalidBounds { reason } => write!(f, "invalid bounds: {reason}"),
            PsoError::InvalidConfig { parameter } => {
                write!(f, "invalid PSO configuration: {parameter}")
            }
            PsoError::DegenerateObjective => {
                write!(f, "objective returned NaN for every sampled point")
            }
        }
    }
}

impl Error for PsoError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PsoError>;
