//! The two-stage cache-aware control/schedule co-design framework — the
//! primary contribution of the DATE 2018 paper.
//!
//! Stage 1 ([`CodesignProblem::evaluate_schedule`]): for a *given*
//! periodic schedule, derive every application's cache-aware timing
//! (cold/warm WCETs → non-uniform sampling periods and delays), design a
//! holistic controller per application, and aggregate the weighted
//! overall control performance `P_all = Σ w_i (1 − s_i/s_i^max)`
//! (paper eq. (2)).
//!
//! Stage 2 ([`CodesignProblem::optimize_with_strategy`]): search the
//! discrete schedule space for the performance-maximising schedule with
//! the hybrid algorithm, verified by
//! [`CodesignProblem::optimize_exhaustive`].
//!
//! Every evaluation runs on an [`EvalCtx`] — a scratch-buffer pool plus
//! bit-pattern-keyed memo caches (matrix exponentials, whole app
//! syntheses) shared across parallel workers. Caches are bit-identical
//! by construction and can be disabled per problem with
//! [`CodesignProblem::set_eval_cache`] (the reference path).
//!
//! # Example
//!
//! ```no_run
//! use cacs_apps::paper_case_study;
//! use cacs_core::{CodesignProblem, EvaluationConfig};
//! use cacs_sched::Schedule;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let study = paper_case_study()?;
//! let problem = CodesignProblem::from_case_study(&study, EvaluationConfig::default())?;
//! let round_robin = problem.evaluate_schedule(&Schedule::round_robin(3)?)?;
//! println!("P_all(1,1,1) = {:?}", round_robin.overall_performance);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ctx;
mod error;
mod evaluate;
mod interleaved;
mod multicore;
mod optimize;
mod problem;
mod report;

pub use ctx::EvalCtx;
pub use error::CoreError;
pub use evaluate::{AppOutcome, ScheduleEvaluation};
pub use interleaved::{one_split_interleavings, InterleavedEvaluation};
pub use multicore::{optimize_multicore, CorePartition, MulticoreOutcome};
pub use optimize::{MultistartStats, OptimizeOutcome, SearchSummary};
pub use problem::{AppSpec, CodesignProblem, EvaluationConfig};
pub use report::{fig6_series, table1_rows, table3_rows, Fig6Series, Table1Row, Table3Row};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
