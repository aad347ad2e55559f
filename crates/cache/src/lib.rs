//! Instruction-cache modelling and WCET analysis substrate for the `cacs`
//! framework.
//!
//! The DATE 2018 paper analyses control programs on a microcontroller with
//! a small on-chip instruction cache (Infineon XC23xxB class: 128 lines of
//! 16 bytes, 1-cycle hits, 100-cycle misses at 20 MHz). This crate rebuilds
//! that analysis stack in simulation:
//!
//! * [`CacheConfig`] / [`Cache`] — a set-associative instruction-cache
//!   simulator with LRU/FIFO/tree-PLRU/direct-mapped replacement,
//! * [`Program`] — a structured control-flow model (basic blocks, sequences,
//!   bounded loops, branches),
//! * [`WcetAnalysis`] — worst-case execution time with a *cold* cache, the
//!   *guaranteed* WCET reduction when the program executes back-to-back
//!   (the quantity of Table I), and the resulting warm WCET, computed via
//!   abstract **must-cache** analysis ([`MustCache`]) in the style of
//!   Ferdinand's abstract interpretation,
//! * [`MayCache`] — the dual *may* analysis proving always-miss
//!   classifications and a best-case execution time bound ([`bcet_may`])
//!   that brackets the WCET from below,
//! * [`PersistenceState`] — younger-set *persistence* analysis proving
//!   at-most-one-miss per line over a scope, combined with must-analysis
//!   by [`wcet_combined`],
//! * [`SyntheticProgram`] — a calibration tool that constructs a synthetic
//!   program hitting prescribed cold/warm cycle counts exactly, used to
//!   reproduce the paper's Table I without the original binaries.
//!
//! # Example
//!
//! ```
//! use cacs_cache::{analyze_consecutive, CacheConfig, Program};
//!
//! # fn main() -> Result<(), cacs_cache::CacheError> {
//! let config = CacheConfig::date18(); // 128 × 16 B, hit 1, miss 100
//! let program = Program::straight_line(0x0, 256, 8)?; // 256 blocks of 8 insts
//! let analysis = analyze_consecutive(&program, &config)?;
//! assert!(analysis.warm_cycles <= analysis.cold_cycles);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod error;
mod lock;
mod may;
mod must;
mod persistence;
mod program;
mod sim;
mod synthetic;
mod wcet;

pub use config::{CacheConfig, ReplacementPolicy};
pub use error::CacheError;
pub use lock::{choose_locks_greedy, wcet_locked, LockingAnalysis};
pub use may::{bcet_may, MayCache};
pub use must::MustCache;
pub use persistence::{analyze_persistence, wcet_combined, PersistenceReport, PersistenceState};
pub use program::{BasicBlock, Cfg, Program};
pub use sim::{AccessOutcome, Cache, CacheStats};
pub use synthetic::{CalibrationTarget, SyntheticProgram};
pub use wcet::{analyze_consecutive, simulate_trace, wcet_must, WcetAnalysis};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CacheError>;
