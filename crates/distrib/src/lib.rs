//! Sharded multi-process exhaustive sweeps with checkpoint/resume — the
//! scaling rung above `cacs-search`'s in-process lane sweep.
//!
//! A sweep over a [`cacs_search::ScheduleSpace`] is partitioned into
//! **rank-range leases** ([`ShardPlan`]): contiguous intervals of the
//! box's lexicographic enumeration, addressed purely by rank via
//! `ScheduleSpace::unrank`/`rank`. A coordinator farms leases to worker
//! processes (child stdio or TCP — see [`wire`] for the line protocol
//! and its stability guarantee), each worker sweeps its range with
//! [`cacs_search::exhaustive_search_range`], and the coordinator folds
//! shard reports together with [`cacs_search::ExhaustiveReport::merge`].
//!
//! # The contract: bit-identical, not approximately aggregated
//!
//! Like multi-stream detection statistics that must recover the global
//! optimum exactly from independently processed streams, the subsystem's
//! invariant is that sharding is **invisible in the result**: for any
//! worker count, shard size, lease re-issue history or
//! checkpoint/resume cycle, the merged [`cacs_search::ExhaustiveReport`]
//! is bit-identical — best schedule, objective bit patterns, counters,
//! retained results and tie-breaking — to the single-process sequential
//! sweep over the same box. Objectives travel as raw IEEE-754 bit
//! patterns, schedules as ranks, and the merge algebra (commutative,
//! associative, rank-based tie-breaking) is property-tested in
//! `cacs-search`.
//!
//! # Fault tolerance
//!
//! Workers hold *leases*, not assignments: a worker that dies, hangs
//! past [`CoordinatorConfig::lease_timeout`], or speaks garbage is
//! dropped and its range re-queued — partial shard output is discarded
//! whole, so re-issues are invisible in the merged bytes
//! ([`coordinator`] module docs describe the model). On top of that
//! sits **supervision**: each worker slot may carry a respawn hook
//! ([`SupervisedWorker`]), so the coordinator *replaces* lost workers —
//! respawning dead child processes, re-admitting reconnecting TCP
//! workers via [`accept_one`] — under capped exponential backoff with
//! deterministic seeded jitter ([`RetryPolicy`]). A slot that faults
//! [`RetryPolicy::quarantine_after`] times consecutively is
//! quarantined; when every slot is dead or quarantined with ranges
//! still uncovered, the sweep fails in bounded time with
//! [`DistribError::WorkersExhausted`]. Every fault is recorded as a
//! structured [`FaultEvent`] in [`SweepStats`].
//!
//! Integrity is end to end: every wire line is CRC-32 framed
//! (protocol v2 — see [`wire`]), as is every checkpoint body line, so
//! corruption anywhere between a worker's encoder and the
//! coordinator's decoder is a typed `Corrupt` fault (worker replaced,
//! lease re-issued), never a silently wrong merge. A corrupt
//! checkpoint refuses to resume instead — the merged report is
//! indivisible. The coordinator checkpoints completed
//! coverage plus the running merged report after every lease
//! ([`checkpoint`]), atomically, so a killed coordinator resumes where
//! it left off — even under a different shard size.
//!
//! Faults are injected deterministically via [`ChaosPlan`] (die, hang,
//! garbage, truncation, byte-flip, slow start, scripted reconnect),
//! seeded and reproducible through all three transports; the
//! `chaos-soak` bench binary drives the full matrix and asserts
//! byte-identical merges.
//!
//! # Entry points
//!
//! * [`sweep_in_process`] — the full protocol over in-process channel
//!   transports; what `CodesignProblem::optimize_exhaustive_sharded`
//!   uses. [`sweep_in_process_chaos`] is the same with a per-spawn
//!   [`ChaosPlan`], faults exercised over real supervision.
//! * [`run_supervised`] — coordinator over arbitrary
//!   [`SupervisedWorker`]s (respawn hooks optional);
//!   [`run_coordinator`] is the unsupervised wrapper. Links come from
//!   [`WorkerLink::spawn_process`] / [`accept_workers`] /
//!   [`accept_one`] (the `cacs-sweep-coord` / `cacs-sweep-worker`
//!   binaries).
//! * [`worker::serve_stream`] / [`connect_and_serve`] — the worker
//!   side; [`ServeOutcome`] tells a TCP worker whether to re-dial.

// Unit tests unwrap freely; the shipped library is held to
// `clippy::unwrap_used` (see [workspace.lints]).
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod coordinator;
mod error;
pub mod link;
pub mod shard;
pub mod synthetic;
pub mod wire;
pub mod worker;

pub use checkpoint::Checkpoint;
pub use coordinator::{
    run_coordinator, run_supervised, sweep_in_process, sweep_in_process_chaos, CoordinatorConfig,
    FaultEvent, FaultKind, RespawnFn, RetryPolicy, ShardedSweep, SupervisedWorker, SweepStats,
};
pub use error::DistribError;
pub use link::{
    accept_one, accept_workers, connect_and_serve, ChannelEndpoint, LinkRecv, WorkerLink,
};
pub use shard::{coalesce, Lease, RankRange, ShardPlan};
pub use worker::{ChaosPlan, ServeOutcome};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DistribError>;
