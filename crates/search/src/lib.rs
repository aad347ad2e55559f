//! Discrete schedule-space optimisers (paper Section IV).
//!
//! Finding the schedule `(m1, …, mn)` that maximises the overall control
//! performance is a nonlinear discrete optimisation whose objective — a
//! full holistic controller design per application — is expensive. This
//! crate provides:
//!
//! * [`ScheduleEvaluator`] — the objective abstraction (implemented by
//!   `cacs-core` on top of the full pipeline, and by cheap synthetic
//!   functions in tests),
//! * [`SharedEvalCache`] — the one concurrent memo cache every search
//!   evaluates through: it counts *unique* full evaluations (the cost
//!   metric the paper reports), deduplicates in-flight requests so
//!   racing threads never evaluate a schedule twice, opens per-search
//!   [`CacheSession`] views that keep the paper's per-start cost metric
//!   exact, and carries warm-start and write-through hooks for
//!   persistence,
//! * [`EvalStore`] — a persistent, digest-addressed store of completed
//!   evaluations (append-only journal + `END`-guarded compacted
//!   snapshot, wire-compatible rank/bit-pattern encodings) so an
//!   interrupted multistart search resumes with strictly fewer fresh
//!   evaluations and bit-identical results,
//! * [`ScheduleSpace`] — the bounded box of candidate schedules, with
//!   bounds derived from the idle-time constraint and indexed access
//!   (`unrank` / `iter_from`) into its lexicographic enumeration,
//! * [`exhaustive_search`] / [`exhaustive_search_with`] — the
//!   brute-force baseline, swept by lanes claiming rank blocks in one
//!   parallel region, at constant memory and with a deterministic
//!   rank-order reduction (see [`SweepConfig`] for the claim-grain and
//!   result-retention knobs),
//! * [`exhaustive_search_range`] + [`ExhaustiveReport::merge`] — the
//!   sharding primitives: sweep one rank range of the enumeration in
//!   isolation and fold partial reports back together bit-identically
//!   (the substrate of the `cacs-distrib` multi-process coordinator),
//! * [`run_multistart`] + [`StrategyConfig`] — the **unified strategy
//!   engine** and the one way to run a search: a multistart driver
//!   that checks the run once up front, then runs any strategy over the
//!   shared cache with store-backed warm-start/write-through,
//!   deterministic per-start seeding ([`derive_start_seed`]) and typed
//!   panic surfacing — every strategy inherits caching, kill→resume and
//!   the bit-identical determinism contract from the same code path.
//!   The strategies are the paper's hybrid algorithm
//!   ([`HybridConfig`]: per-dimension 1-D quadratic gradient models,
//!   unit steps along the best feasible direction, a simulated-annealing
//!   style tolerance that accepts bounded worsening) and the classical
//!   metaheuristic baselines for evaluation-count comparisons —
//!   simulated annealing ([`AnnealConfig`]), a genetic algorithm
//!   ([`GeneticConfig`]) and tabu search ([`TabuConfig`]). A single
//!   search is a one-start run, and [`run_multistart_sequential`] is
//!   the in-order reference engine.
//!
//! # Parallelism knobs
//!
//! All parallel fan-outs go through `cacs-par` (an exhaustive sweep is
//! one region of lanes sweeping their own rank blocks): set
//! `CACS_THREADS=N` to cap the worker count, `CACS_THREADS=1` (or wrap
//! the call in [`cacs_par::sequential`]) to force the exact sequential
//! execution order when debugging. Results are deterministic at every
//! thread count.
//!
//! # Example
//!
//! ```
//! use cacs_search::{exhaustive_search, FnEvaluator, ScheduleSpace};
//! use cacs_sched::Schedule;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A toy concave objective with its peak at (3, 2).
//! let eval = FnEvaluator::new(2, |s: &Schedule| {
//!     let (a, b) = (s.counts()[0] as f64, s.counts()[1] as f64);
//!     Some(-(a - 3.0).powi(2) - (b - 2.0).powi(2))
//! });
//! let space = ScheduleSpace::new(vec![5, 5])?;
//! let report = exhaustive_search(&eval, &space)?;
//! assert_eq!(report.best.as_ref().unwrap().counts(), &[3, 2]);
//! # Ok(())
//! # }
//! ```

// Unit tests unwrap freely; the shipped library is held to
// `clippy::unwrap_used` (see [workspace.lints]).
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod anneal;
mod error;
mod evaluator;
mod exhaustive;
mod genetic;
mod hybrid;
pub mod integrity;
mod space;
pub mod store;
mod strategy;
mod tabu;

pub use anneal::AnnealConfig;
pub use error::SearchError;
pub use evaluator::{CacheSession, FnEvaluator, ScheduleEvaluator, SharedEvalCache};
pub use exhaustive::{
    exhaustive_search, exhaustive_search_range, exhaustive_search_with, ExhaustiveReport,
    SweepConfig,
};
pub use genetic::GeneticConfig;
pub use hybrid::HybridConfig;
pub use space::ScheduleSpace;
pub use store::{CompactionPolicy, EvalStore, StoreError};
pub use strategy::{
    derive_start_seed, run_multistart, run_multistart_sequential, MultistartOutcome, SearchReport,
    StrategyConfig,
};
pub use tabu::TabuConfig;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SearchError>;

/// The workspace's poison-tolerant locking idiom, re-exported from
/// [`cacs_par::sync`] (the shared definition) for this crate's
/// internal call sites. See `cacs_par::sync::lock_recover` for the
/// rationale; `cacs-lint`'s `poisoned-lock` rule enforces its use.
pub use cacs_par::sync::lock_recover;
