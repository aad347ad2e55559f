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
//! * [`hybrid_search`] — the paper's hybrid algorithm: per-dimension
//!   1-D quadratic gradient models, unit steps along the best feasible
//!   direction, a simulated-annealing style tolerance that accepts
//!   bounded worsening and parallel neighbour probes (its parallel
//!   multistart is [`run_multistart`] with [`StrategyConfig::Hybrid`]),
//! * [`exhaustive_search`] / [`exhaustive_search_with`] — the
//!   brute-force baseline, streamed chunk-by-chunk at constant memory
//!   with a deterministic lexicographic-order reduction (see
//!   [`SweepConfig`] for the chunking and result-retention knobs),
//! * [`exhaustive_search_range`] + [`ExhaustiveReport::merge`] — the
//!   sharding primitives: sweep one rank range of the enumeration in
//!   isolation and fold partial reports back together bit-identically
//!   (the substrate of the `cacs-distrib` multi-process coordinator),
//! * [`simulated_annealing`] / [`genetic_search`] / [`tabu_search`] —
//!   classical metaheuristic baselines for evaluation-count
//!   comparisons, and
//! * [`run_multistart`] + [`StrategyConfig`] — the **unified strategy
//!   engine**: one multistart driver that runs any strategy (hybrid,
//!   annealing, genetic, tabu) over the shared cache with store-backed
//!   warm-start/write-through, deterministic per-start seeding
//!   ([`derive_start_seed`]) and typed panic surfacing — every
//!   strategy inherits caching, kill→resume and the bit-identical
//!   determinism contract from the same code path.
//!
//! # Parallelism knobs
//!
//! All parallel fan-outs go through [`cacs_par::par_map`]: set
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

pub use anneal::{simulated_annealing, AnnealConfig};
pub use error::SearchError;
pub use evaluator::{
    CacheSession, CountingScheduleEvaluator, FnEvaluator, ScheduleEvaluator, SharedEvalCache,
};
pub use exhaustive::{
    exhaustive_search, exhaustive_search_range, exhaustive_search_with, ExhaustiveReport,
    SweepConfig,
};
pub use genetic::{genetic_search, GeneticConfig};
pub use hybrid::{hybrid_search, HybridConfig};
pub use space::ScheduleSpace;
pub use store::{CompactionPolicy, EvalStore, StoreError};
pub use strategy::{
    derive_start_seed, run_multistart, run_multistart_screened, run_multistart_sequential,
    MultistartOutcome, ScreenConfig, SearchReport, StrategyConfig, TwoStageOutcome,
};
pub use tabu::{tabu_search, TabuConfig};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SearchError>;

/// The workspace's poison-tolerant locking idiom, re-exported from
/// [`cacs_par::sync`] (the shared definition) for this crate's
/// internal call sites. See `cacs_par::sync::lock_recover` for the
/// rationale; `cacs-lint`'s `poisoned-lock` rule enforces its use.
pub use cacs_par::sync::lock_recover;
