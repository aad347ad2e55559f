//! Schedules, control-timing derivation and feasibility constraints.
//!
//! A periodic schedule `(m1, m2, …, mn)` runs `m_i` consecutive tasks of
//! control application `C_i` per schedule period (paper Section II). The
//! first task of each run suffers a cold instruction cache; the following
//! `m_i − 1` tasks reuse it and finish faster. This crate derives, for any
//! schedule, the resulting *non-uniform sampling periods* `h_i(j)` and
//! *sensing-to-actuation delays* `τ_i(j)` of every application
//! (Section II-C), and checks the schedule-level feasibility constraint on
//! idle time (eq. (4)).
//!
//! Interleaved schedules (`(m1(1), m2, m1(2), m3)`, the paper's §VI future
//! work) are supported through the same timeline-based derivation via
//! [`InterleavedSchedule`].
//!
//! # Example
//!
//! ```
//! use cacs_sched::{derive_timing, ExecTimes, Schedule};
//!
//! # fn main() -> Result<(), cacs_sched::SchedError> {
//! let schedule = Schedule::new(vec![2, 2, 2])?;
//! let exec = vec![
//!     ExecTimes::new(907.55e-6, 452.15e-6)?,
//!     ExecTimes::new(645.25e-6, 175.00e-6)?,
//!     ExecTimes::new(749.15e-6, 234.35e-6)?,
//! ];
//! let timing = derive_timing(&schedule.task_sequence(), &exec)?;
//! // h1(1) = E1^wc(1) (paper eq. (6)).
//! assert!((timing.apps[0].periods[0] - 907.55e-6).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod app;
mod constraints;
mod error;
mod schedule;
mod timing;

pub use app::{validate_weights, AppParams};
pub use constraints::{check_idle_times, IdleViolation};
pub use error::SchedError;
pub use schedule::{InterleavedSchedule, Schedule, Segment, TaskSequence, TaskSlot};
pub use timing::{derive_timing, AppTiming, ExecTimes, ScheduleTiming};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SchedError>;
