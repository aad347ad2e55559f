//! # cacs — Cache-Aware Control Scheduling
//!
//! A full Rust reproduction of **"Cache-Aware Task Scheduling for
//! Maximizing Control Performance"** (W. Chang, D. Roy, X. S. Hu,
//! S. Chakraborty — DATE 2018).
//!
//! Multiple feedback-control applications share one microcontroller with
//! a small instruction cache. Executing several tasks of one application
//! back-to-back lets the later tasks reuse the cache, shortening their
//! WCET and producing *non-uniform* sampling patterns that a holistic
//! controller design can exploit. This crate re-exports the complete
//! framework:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`linalg`] | dense matrices, LU/QR, matrix exponential, polynomials, eigenvalues, spectral norm |
//! | [`cache`] | instruction-cache simulator (LRU/FIFO/PLRU), CFG programs, WCET via must-analysis, may-analysis (BCET), persistence analysis, cache locking, Table I calibration |
//! | [`control`] | delayed ZOH discretisation, lifted periodic closed loops, PSO synthesis, settling time, DARE/periodic LQR, Luenberger observers, Kalman filtering, JSR stability certificates, fixed-point quantization |
//! | [`pso`] | generic bounded particle swarm optimiser |
//! | [`sched`] | schedules (periodic + interleaved), Section II-C timing derivation, feasibility constraints |
//! | [`search`] | unified strategy engine (one store-backed multistart driver for the hybrid search of Section IV and the annealing/genetic/tabu baselines), exhaustive streaming sweeps, persistent evaluation store |
//! | [`apps`] | the automotive case study (Tables I, II; Figure 6 plants) |
//! | [`core`] | the two-stage co-design framework (Sections III–IV), the reusable [`core::EvalCtx`] evaluation context (scratch pools + bit-identical caches), multicore/interleaved extensions, report generation |
//! | [`distrib`] | sharded multi-process sweep coordinator: rank-range leases, line-oriented wire protocol, checkpoint/resume, bit-identical merge |
//! | [`obs`] | determinism-safe observability: counters, log-spaced histograms, RAII timers behind a zero-cost-when-disabled global recorder; the one sanctioned home of the monotonic clock |
//!
//! # Quickstart
//!
//! ```no_run
//! use cacs::apps::paper_case_study;
//! use cacs::core::{CodesignProblem, EvaluationConfig};
//! use cacs::sched::Schedule;
//! use cacs::search::{HybridConfig, StrategyConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let study = paper_case_study()?;
//! let problem = CodesignProblem::from_case_study(&study, EvaluationConfig::fast())?;
//!
//! // Stage 1: evaluate the conventional round-robin schedule.
//! let baseline = problem.evaluate_schedule(&Schedule::round_robin(3)?)?;
//! println!("P_all(1,1,1) = {:?}", baseline.overall_performance);
//!
//! // Stage 2: find a better cache-aware schedule with the paper's hybrid
//! // search from two starts (no evaluation store).
//! let outcome = problem.optimize_with_strategy(
//!     &[Schedule::new(vec![4, 2, 2])?, Schedule::new(vec![1, 2, 1])?],
//!     &StrategyConfig::Hybrid(HybridConfig::default()),
//!     None,
//! )?;
//! if let Some((best, p_all)) = outcome.best {
//!     println!("optimal schedule {best} with P_all = {p_all:.3}");
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Parallel evaluation engine
//!
//! The expensive layers of the pipeline — per-application controller
//! synthesis inside one schedule evaluation and the exhaustive schedule
//! sweep — fan out through [`par::par_map`], an order-preserving map
//! over lanes of scoped threads (the sweep as one region of lanes, each
//! claiming and sweeping its own rank blocks); multistart searches run
//! one thread per start, and each PSO run scores its particles on the
//! thread that runs it. Results are
//! **deterministic at any thread count**: seeded runs are bit-identical
//! whether they execute on one thread or many.
//!
//! Knobs: `CACS_THREADS=N` caps the worker threads (`CACS_THREADS=1`
//! forces everything sequential — the recommended setting when
//! bisecting a numerical question); [`par::sequential`] does the same
//! for one closure. Parallel regions never nest (inner fan-outs run
//! inline on the outer region's workers), so composed pipelines stay
//! bounded at the thread budget. Searches that share work use
//! [`search::SharedEvalCache`], which deduplicates in-flight
//! evaluations across threads while keeping the paper's per-search
//! evaluation counts exact.

//! # The evaluation context
//!
//! Every schedule evaluation runs on a reusable [`core::EvalCtx`]:
//! scratch-buffer pools (always on — allocation, not computation, is
//! skipped) plus two bit-identical memo layers, a matrix-exponential
//! cache in [`linalg`] and an app-level synthesis cache, both keyed on
//! [`linalg::BitKey`] f64 bit patterns so a hit returns exactly the
//! bytes a fresh computation would produce. The context is shared
//! across worker threads and never feeds timing into results, so every
//! digest, resume and thread-count contract holds with the caches on
//! or off (`--no-eval-cache` / `CodesignProblem::set_eval_cache` give
//! the reference path; CI compares the two byte-for-byte).

//! # Distributed sweeps
//!
//! When a schedule box outgrows one machine, [`distrib`] shards the
//! exhaustive sweep into rank-range leases served to worker processes
//! (the `cacs-sweep-coord` / `cacs-sweep-worker` binaries, or
//! [`core`]'s `optimize_exhaustive_sharded` for the in-process variant)
//! with lease re-issue on worker death and checkpoint/resume on
//! coordinator death — and a merged report guaranteed bit-identical to
//! the single-process sweep.

//! # Resumable searches on the unified strategy engine
//!
//! Every search strategy — the paper's hybrid plus the annealing,
//! genetic and tabu baselines — runs on one multistart driver
//! ([`search::run_multistart`] with a [`search::StrategyConfig`]),
//! so all of them share the evaluation cache across parallel starts
//! and persist through [`search::EvalStore`]: every completed
//! evaluation is journalled under the problem's digest before its
//! result is used, so a killed run of any strategy resumes
//! (`cacs-opt --strategy … --store … --resume`, or [`core`]'s
//! `optimize_with_strategy`) with the **same best schedule and
//! objective bits** and strictly fewer fresh evaluations. Randomised strategies derive per-start seeds
//! deterministically, so resume replays the exact walk. Stores and
//! sweep checkpoints are digest-addressed: state written for a
//! different problem or box is refused with a typed error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use cacs_apps as apps;
pub use cacs_cache as cache;
pub use cacs_control as control;
pub use cacs_core as core;
pub use cacs_distrib as distrib;
pub use cacs_linalg as linalg;
pub use cacs_obs as obs;
pub use cacs_par as par;
pub use cacs_pso as pso;
pub use cacs_sched as sched;
pub use cacs_search as search;
