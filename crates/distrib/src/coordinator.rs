//! The sweep coordinator: leases rank ranges to workers, re-issues them
//! on worker death or timeout, merges shard reports bit-identically, and
//! checkpoints progress after every completed lease.
//!
//! # Fault model
//!
//! A worker is trusted only while it keeps producing protocol lines. A
//! connection that hangs up, times out ([`CoordinatorConfig::lease_timeout`]
//! between lines), or sends a malformed or CRC-failing line is dropped
//! and its outstanding range goes back to the lease queue for another
//! worker — evaluations are pure functions of `(schedule, evaluator)`,
//! so re-running a range on a different worker reproduces the same bits.
//!
//! # Supervision
//!
//! A [`SupervisedWorker`] pairs a connection with an optional **respawn
//! factory**: when the connection faults, the coordinator waits out a
//! capped exponential backoff (deterministically jittered from
//! [`RetryPolicy::jitter_seed`] — never wall-clock-seeded) and asks the
//! factory for a replacement, re-running the handshake from scratch. A
//! per-slot scoreboard counts *consecutive* faults (any completed lease
//! resets it); after [`RetryPolicy::quarantine_after`] consecutive
//! faults the slot is quarantined — listed in
//! [`SweepStats::quarantined`] and never retried — so one bad host
//! cannot starve the sweep with an unbounded retry loop. Every fault is
//! recorded as a structured [`FaultEvent`]. The sweep fails with
//! [`DistribError::WorkersExhausted`] only when every slot is finished
//! or quarantined while coverage is incomplete, which the quarantine cap
//! bounds to at most `quarantine_after × (backoff_cap +
//! handshake_timeout + lease_timeout)` per slot.
//!
//! Because shard merges are commutative/associative
//! ([`ExhaustiveReport::merge`]) and tie-breaking is rank-based, none of
//! this scheduling nondeterminism — which worker got which range, in
//! what order reports arrived, how often leases were re-issued or
//! workers respawned — can change a single bit of the final report.

use crate::checkpoint::Checkpoint;
use crate::link::{LinkRecv, WorkerLink};
use crate::shard::{Lease, RankRange, ShardPlan};
use crate::wire::{CoordMsg, ReportAssembler, WorkerMsg, PROTOCOL_VERSION};
use crate::worker::{splitmix64, ChaosPlan};
use crate::{DistribError, Result};
use cacs_par::sync::lock_recover;
use cacs_search::{ExhaustiveReport, ScheduleSpace, SweepConfig};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Retry/backoff/quarantine policy for supervised workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Quarantine a slot after this many **consecutive** faults (a
    /// completed lease resets the count). Must be at least 1; also
    /// bounds how long a fleet of permanently dead workers can delay
    /// [`DistribError::WorkersExhausted`].
    pub quarantine_after: u32,
    /// Backoff before the first respawn attempt; doubles per consecutive
    /// fault.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay (jitter included).
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter. Two slots with the
    /// same seed still jitter differently (the slot index is mixed in);
    /// the same seed always reproduces the same delays.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            quarantine_after: 3,
            backoff_base: Duration::from_millis(200),
            backoff_cap: Duration::from_secs(5),
            jitter_seed: 0,
        }
    }
}

/// What kind of fault a worker exhibited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Never completed the `HELLO`/`SPACE` handshake (silent, hung up,
    /// wrong magic, or unsupported protocol version).
    Handshake,
    /// The connection closed or a write failed.
    Died,
    /// No protocol line within [`CoordinatorConfig::lease_timeout`].
    Timeout,
    /// A structurally malformed or out-of-sequence protocol line.
    Garbage,
    /// A line whose CRC-32 integrity suffix did not match its payload.
    Corrupt,
    /// The respawn factory itself failed to produce a replacement.
    Spawn,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::Handshake => "handshake",
            FaultKind::Died => "died",
            FaultKind::Timeout => "timeout",
            FaultKind::Garbage => "garbage",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Spawn => "spawn",
        })
    }
}

/// One structured fault record: who failed, on what lease, how, and how
/// many consecutive faults that slot has now accumulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Label of the faulting worker connection.
    pub worker: String,
    /// The lease range that was outstanding (and re-queued), if any.
    pub lease: Option<RankRange>,
    /// What happened.
    pub kind: FaultKind,
    /// Consecutive-fault count for the slot *after* this fault.
    pub retry: u32,
}

/// Tuning and durability knobs for a sharded sweep.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Ranks per lease. Smaller shards mean finer-grained fault
    /// recovery and steadier checkpoints; larger shards amortise
    /// protocol overhead. Never affects the merged result.
    pub shard_size: u64,
    /// Sweep knobs each worker sweeps its shard under.
    /// `max_results` is the *global* retention cap: workers retain at
    /// most that many results per shard and the coordinator re-applies
    /// the cap after the final merge, which reproduces a single capped
    /// sweep exactly (the global first-`k` results are each within the
    /// first `k` of their own shard).
    pub sweep: SweepConfig,
    /// Longest silence tolerated between protocol lines of one worker
    /// (in effect: how long one shard may compute) before its lease is
    /// re-issued elsewhere.
    pub lease_timeout: Duration,
    /// Shorter deadline for the initial `HELLO` line. A spawned worker
    /// that is alive sends its handshake within milliseconds, so waiting
    /// the full [`CoordinatorConfig::lease_timeout`] (sized for a whole
    /// shard's compute) to notice a dead spawn wasted minutes; dead
    /// workers are now detected within seconds.
    pub handshake_timeout: Duration,
    /// Retry/backoff/quarantine policy for supervised slots (ignored
    /// for workers without a respawn factory).
    pub retry: RetryPolicy,
    /// Opaque digest naming the problem being swept (e.g. the canonical
    /// `--problem` spec). Embedded in checkpoints and validated on
    /// resume so a checkpoint for a different objective over the same
    /// box fails fast ([`DistribError::ProblemMismatch`]); `None` skips
    /// the validation.
    pub problem_digest: Option<String>,
    /// Checkpoint file, rewritten atomically after every completed
    /// lease; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Resume from [`CoordinatorConfig::checkpoint`] if it exists
    /// (missing file = fresh start). Completed ranges are skipped and
    /// the saved partial merge is continued — bit-identically, even if
    /// `shard_size` changed in between.
    pub resume: bool,
    /// Stop issuing leases after this many have completed **this run**
    /// (the sweep returns partial with `halted = true`). Test/ops hook
    /// for exercising checkpoint/resume; `None` runs to completion.
    pub halt_after_leases: Option<u64>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            shard_size: 65_536,
            sweep: SweepConfig::default(),
            lease_timeout: Duration::from_secs(120),
            handshake_timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
            problem_digest: None,
            checkpoint: None,
            resume: false,
            halt_after_leases: None,
        }
    }
}

/// Bookkeeping of one coordinator run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Leases completed this run (excludes ranges resumed from a
    /// checkpoint).
    pub leases_completed: u64,
    /// Ranges returned to the queue after a worker died, timed out or
    /// spoke garbage.
    pub leases_reissued: u64,
    /// Worker connections dropped.
    pub workers_lost: usize,
    /// Ranks skipped because a resumed checkpoint had already swept
    /// them.
    pub resumed_ranks: u64,
    /// `true` when [`CoordinatorConfig::halt_after_leases`] stopped the
    /// run early — the report covers only the completed ranges.
    pub halted: bool,
    /// Every fault observed, in the order the coordinator recorded them.
    pub faults: Vec<FaultEvent>,
    /// Replacement workers successfully brought up by supervision.
    pub respawns: u64,
    /// Labels of slots quarantined after
    /// [`RetryPolicy::quarantine_after`] consecutive faults.
    pub quarantined: Vec<String>,
}

impl SweepStats {
    /// Fault totals by kind, for operator summaries.
    pub fn fault_totals(&self) -> Vec<(FaultKind, usize)> {
        let mut totals: Vec<(FaultKind, usize)> = Vec::new();
        for event in &self.faults {
            match totals.iter_mut().find(|(k, _)| *k == event.kind) {
                Some((_, n)) => *n += 1,
                None => totals.push((event.kind, 1)),
            }
        }
        totals
    }
}

/// A finished (or deliberately halted) sharded sweep.
#[derive(Debug, Clone)]
pub struct ShardedSweep {
    /// The merged report. Unless [`SweepStats::halted`], this is
    /// bit-identical to the single-process sweep over the same space and
    /// [`SweepConfig`].
    pub report: ExhaustiveReport,
    /// What it took to produce.
    pub stats: SweepStats,
}

/// Produces a replacement [`WorkerLink`] for a faulted slot; the `u32`
/// is the incarnation number (1 for the first replacement).
pub type RespawnFn<'a> = Box<dyn FnMut(u32) -> Result<WorkerLink> + Send + 'a>;

/// One supervision slot: a live connection plus the recipe to replace it.
///
/// `respawn: None` reproduces the unsupervised behaviour — the slot's
/// first fault is terminal (its lease is still re-queued for other
/// slots).
pub struct SupervisedWorker<'a> {
    /// The initial connection.
    pub link: WorkerLink,
    /// Factory for replacement connections — respawn the child process,
    /// re-accept a TCP peer, spawn a fresh in-process serve thread.
    pub respawn: Option<RespawnFn<'a>>,
}

impl std::fmt::Debug for SupervisedWorker<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedWorker")
            .field("link", &self.link)
            .field("supervised", &self.respawn.is_some())
            .finish()
    }
}

impl<'a> SupervisedWorker<'a> {
    /// Wraps a bare link with no respawn factory (legacy behaviour).
    pub fn unsupervised(link: WorkerLink) -> Self {
        SupervisedWorker {
            link,
            respawn: None,
        }
    }

    /// Wraps a link with a respawn factory.
    pub fn with_respawn(
        link: WorkerLink,
        respawn: impl FnMut(u32) -> Result<WorkerLink> + Send + 'a,
    ) -> Self {
        SupervisedWorker {
            link,
            respawn: Some(Box::new(respawn)),
        }
    }
}

struct CoordState {
    pending: VecDeque<RankRange>,
    /// Ranks not yet merged (pending + leased out).
    remaining_ranks: u64,
    checkpoint: Checkpoint,
    stats: SweepStats,
    /// A checkpoint write failed: abort the run (progress durability was
    /// requested and cannot be provided).
    fatal: Option<String>,
}

struct Shared<'a> {
    state: Mutex<CoordState>,
    wake: Condvar,
    space: &'a ScheduleSpace,
    config: &'a CoordinatorConfig,
    lease_ids: AtomicU64,
}

/// The metrics counter tracking `kind` (the structured side channel of
/// the stderr fault log; totals also live in [`SweepStats::faults`]).
fn fault_counter(kind: FaultKind) -> &'static cacs_obs::Counter {
    match kind {
        FaultKind::Handshake => &cacs_obs::metrics::FAULTS_HANDSHAKE,
        FaultKind::Died => &cacs_obs::metrics::FAULTS_DIED,
        FaultKind::Timeout => &cacs_obs::metrics::FAULTS_TIMEOUT,
        FaultKind::Garbage => &cacs_obs::metrics::FAULTS_GARBAGE,
        FaultKind::Corrupt => &cacs_obs::metrics::FAULTS_CORRUPT,
        FaultKind::Spawn => &cacs_obs::metrics::FAULTS_SPAWN,
    }
}

impl Shared<'_> {
    /// Records a fault event; re-queues the outstanding range, if any.
    fn fault(&self, label: &str, lease: Option<RankRange>, kind: FaultKind, retry: u32, why: &str) {
        fault_counter(kind).incr();
        let mut st = lock_recover(&self.state);
        match lease {
            Some(range) => {
                eprintln!(
                    "cacs-sweep-coord: worker {label} fault #{retry} ({kind}: {why}); \
                     re-issuing range {range}"
                );
                st.pending.push_back(range);
                st.stats.leases_reissued += 1;
                cacs_obs::metrics::LEASES_REISSUED.incr();
            }
            None => eprintln!("cacs-sweep-coord: worker {label} fault #{retry} ({kind}: {why})"),
        }
        st.stats.workers_lost += 1;
        st.stats.faults.push(FaultEvent {
            worker: label.to_string(),
            lease,
            kind,
            retry,
        });
        self.wake.notify_all();
    }

    fn note_respawn(&self, label: &str, incarnation: u32) {
        cacs_obs::metrics::RESPAWNS.incr();
        let mut st = lock_recover(&self.state);
        eprintln!("cacs-sweep-coord: worker {label} respawned (incarnation {incarnation})");
        st.stats.respawns += 1;
    }

    fn quarantine(&self, label: &str) {
        cacs_obs::metrics::QUARANTINED_WORKERS.incr();
        let mut st = lock_recover(&self.state);
        eprintln!(
            "cacs-sweep-coord: worker {label} quarantined after {} consecutive faults",
            self.config.retry.quarantine_after
        );
        st.stats.quarantined.push(label.to_string());
        self.wake.notify_all();
    }
}

/// Runs a sharded sweep over the given worker connections and returns
/// the merged report — the unsupervised entry point: every fault is
/// terminal for its worker. See [`run_supervised`] for respawning
/// slots, [`sweep_in_process`] for the zero-setup entry point.
///
/// # Errors
///
/// As [`run_supervised`].
pub fn run_coordinator(
    space: &ScheduleSpace,
    workers: Vec<WorkerLink>,
    config: &CoordinatorConfig,
) -> Result<ShardedSweep> {
    run_supervised(
        space,
        workers
            .into_iter()
            .map(SupervisedWorker::unsupervised)
            .collect(),
        config,
    )
}

/// Runs a sharded sweep over supervised worker slots: each slot's
/// connection is respawned on fault (backoff, scoreboard and quarantine
/// per the [`RetryPolicy`]) until the sweep completes, the slot
/// exhausts its respawn factory, or it is quarantined. See the module
/// docs for the full model.
///
/// # Errors
///
/// * [`DistribError::Config`] on an empty worker set, zero shard size,
///   or a zero `quarantine_after`,
/// * [`DistribError::Checkpoint`] / [`DistribError::Io`] on resume or
///   checkpoint-write failures,
/// * [`DistribError::WorkersExhausted`] when every slot is gone with
///   coverage incomplete.
pub fn run_supervised(
    space: &ScheduleSpace,
    workers: Vec<SupervisedWorker<'_>>,
    config: &CoordinatorConfig,
) -> Result<ShardedSweep> {
    if config.retry.quarantine_after == 0 {
        return Err(DistribError::Config {
            parameter: "quarantine_after must be at least 1",
        });
    }
    let retain = config.sweep.max_results;
    let mut checkpoint = match (&config.checkpoint, config.resume) {
        (Some(path), true) if path.exists() => {
            Checkpoint::load(path, space, retain, config.problem_digest.as_deref())?
        }
        _ => Checkpoint::new(space, retain),
    };
    // Re-validate resumed coverage against this space.
    let resumed_ranks = checkpoint.completed_ranks();
    let plan = ShardPlan::for_gaps(space.len(), &checkpoint.completed, config.shard_size)?;
    let remaining = plan.total_ranks();
    if remaining > 0 && workers.is_empty() {
        return Err(DistribError::Config {
            parameter: "at least one worker is required",
        });
    }
    checkpoint.retain = retain;
    // A digest-less config must not strip the digest a resumed
    // checkpoint already carries — that would silently disable the
    // mismatch protection for good.
    if config.problem_digest.is_some() {
        checkpoint.problem = config.problem_digest.clone();
    }

    let shared = Shared {
        state: Mutex::new(CoordState {
            pending: plan.ranges().iter().copied().collect(),
            remaining_ranks: remaining,
            checkpoint,
            stats: SweepStats {
                resumed_ranks,
                ..SweepStats::default()
            },
            fatal: None,
        }),
        wake: Condvar::new(),
        space,
        config,
        lease_ids: AtomicU64::new(1),
    };

    std::thread::scope(|s| {
        for (slot, worker) in workers.into_iter().enumerate() {
            let shared = &shared;
            s.spawn(move || drive_slot(slot as u64, worker, shared));
        }
    });

    let st = shared.state.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(reason) = st.fatal {
        return Err(DistribError::Checkpoint { reason });
    }
    let stats = st.stats;
    if st.remaining_ranks > 0 && !stats.halted {
        return Err(DistribError::WorkersExhausted {
            remaining_ranks: st.remaining_ranks,
        });
    }
    let mut report = st.checkpoint.report;
    if !stats.halted {
        report.apply_retention(retain);
    }
    Ok(ShardedSweep { report, stats })
}

/// Deterministic capped exponential backoff: `base × 2^(attempt-1)`,
/// scaled by a seeded jitter in `[1, 2)`, clamped to `cap`.
fn backoff_delay(retry: &RetryPolicy, slot: u64, attempt: u32) -> Duration {
    let attempt = attempt.max(1);
    let base = u64::try_from(retry.backoff_base.as_nanos()).unwrap_or(u64::MAX);
    let cap = u64::try_from(retry.backoff_cap.as_nanos()).unwrap_or(u64::MAX);
    let exp = base.saturating_mul(1u64 << u64::from(attempt - 1).min(20));
    let jitter = splitmix64(retry.jitter_seed ^ (slot << 32) ^ u64::from(attempt));
    let frac = (jitter % 1000) as f64 / 1000.0;
    let scaled = (exp as f64 * (1.0 + frac)) as u64;
    Duration::from_nanos(scaled.min(cap))
}

/// Sleeps up to `delay`, waking early (and returning `true`) if the
/// sweep finishes, halts or goes fatal in the meantime — a backing-off
/// slot must not delay the scope join of a sweep that no longer needs
/// it.
fn sleep_unless_done(shared: &Shared<'_>, delay: Duration) -> bool {
    // Supervision deadlines read the sanctioned clock; backoff timing
    // never reaches the merged report.
    let deadline = cacs_obs::now() + delay;
    let mut st = lock_recover(&shared.state);
    loop {
        if st.fatal.is_some() || st.stats.halted || st.remaining_ranks == 0 {
            return true;
        }
        let now = cacs_obs::now();
        if now >= deadline {
            return false;
        }
        let (guard, _) = shared
            .wake
            .wait_timeout(st, deadline - now)
            .unwrap_or_else(|e| e.into_inner());
        st = guard;
    }
}

/// Drives one supervision slot: runs the current connection to
/// completion or fault, then (when a respawn factory is present)
/// backs off, respawns and goes again until the sweep ends, the slot is
/// quarantined, or the factory fails terminally.
fn drive_slot(slot: u64, worker: SupervisedWorker<'_>, shared: &Shared<'_>) {
    let mut respawn = worker.respawn;
    let mut consecutive: u32 = 0;
    let mut incarnation: u32 = 0;
    let mut last_label = worker.link.label().to_string();
    let mut next_link = Some(worker.link);
    loop {
        if let Some(link) = next_link.take() {
            last_label = link.label().to_string();
            if matches!(
                drive_worker(link, shared, &mut consecutive),
                WorkerExit::Finished
            ) {
                return;
            }
        }
        // Fault path: quarantine, back off, respawn.
        if respawn.is_none() {
            return; // unsupervised: the first fault is terminal
        }
        if consecutive >= shared.config.retry.quarantine_after {
            shared.quarantine(&last_label);
            return;
        }
        if sleep_unless_done(
            shared,
            backoff_delay(&shared.config.retry, slot, consecutive),
        ) {
            return;
        }
        incarnation += 1;
        match respawn.as_mut().expect("checked above")(incarnation) {
            Ok(link) => {
                shared.note_respawn(link.label(), incarnation);
                next_link = Some(link);
            }
            Err(e) => {
                consecutive += 1;
                shared.fault(
                    &last_label,
                    None,
                    FaultKind::Spawn,
                    consecutive,
                    &e.to_string(),
                );
            }
        }
    }
}

/// Why a worker connection stopped being driven.
enum WorkerExit {
    /// Clean shutdown (sweep done or halted).
    Finished,
    /// The connection faulted; the fault was recorded and any
    /// outstanding range re-queued.
    Lost,
}

fn drive_worker(mut link: WorkerLink, shared: &Shared<'_>, consecutive: &mut u32) -> WorkerExit {
    let label = link.label().to_string();
    // Handshake: HELLO, then SPACE. A live worker answers within
    // milliseconds, so the handshake runs under its own (much shorter)
    // deadline — a dead spawn is detected promptly instead of after a
    // full lease_timeout sized for shard compute.
    let handshake_start = cacs_obs::stamp();
    let handshake_why: Option<String> = match link.recv_deadline(shared.config.handshake_timeout) {
        LinkRecv::Line(line) => match WorkerMsg::decode(&line) {
            Ok(WorkerMsg::Hello { version }) if version == PROTOCOL_VERSION => None,
            Ok(WorkerMsg::Hello { version }) => Some(format!(
                "protocol version {version}, expected {PROTOCOL_VERSION}"
            )),
            _ => Some("bad handshake".to_string()),
        },
        LinkRecv::Closed => Some("hung up before handshake".to_string()),
        LinkRecv::TimedOut => Some("handshake timeout".to_string()),
    };
    if let Some(why) = handshake_why {
        *consecutive += 1;
        shared.fault(&label, None, FaultKind::Handshake, *consecutive, &why);
        return WorkerExit::Lost;
    }
    cacs_obs::metrics::HANDSHAKE_NS.observe_since(&handshake_start);
    if link
        .send(&CoordMsg::Space(shared.space.max_counts().to_vec()).encode_framed())
        .is_err()
    {
        *consecutive += 1;
        shared.fault(
            &label,
            None,
            FaultKind::Died,
            *consecutive,
            "failed to send SPACE",
        );
        return WorkerExit::Lost;
    }

    loop {
        // Claim the next range, or wait for one to be re-queued.
        let range = {
            let mut st = lock_recover(&shared.state);
            loop {
                if st.fatal.is_some() || st.stats.halted || st.remaining_ranks == 0 {
                    drop(st);
                    let _ = link.send(&CoordMsg::Exit.encode_framed());
                    return WorkerExit::Finished;
                }
                if let Some(range) = st.pending.pop_front() {
                    break range;
                }
                st = shared.wake.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };

        let lease = Lease {
            id: shared.lease_ids.fetch_add(1, Ordering::Relaxed),
            range,
        };
        let sweep = &shared.config.sweep;
        let msg = CoordMsg::Sweep {
            lease: lease.id,
            start: range.start,
            end: range.end,
            grain: sweep.dispatch_grain,
            retain: sweep.max_results,
        };
        let lease_start = cacs_obs::stamp();
        if link.send(&msg.encode_framed()).is_err() {
            *consecutive += 1;
            shared.fault(
                link.label(),
                Some(range),
                FaultKind::Died,
                *consecutive,
                "failed to send SWEEP",
            );
            return WorkerExit::Lost;
        }

        match collect_report(&mut link, shared, &lease) {
            Ok(report) => {
                cacs_obs::metrics::LEASE_NS.observe_since(&lease_start);
                cacs_obs::metrics::LEASES_COMPLETED.incr();
                *consecutive = 0;
                let mut st = lock_recover(&shared.state);
                let space = shared.space;
                st.checkpoint.record(space, range, &report);
                st.remaining_ranks -= range.len();
                st.stats.leases_completed += 1;
                if let Some(path) = &shared.config.checkpoint {
                    let saved = {
                        let _t = cacs_obs::time(&cacs_obs::metrics::CHECKPOINT_WRITE_NS);
                        st.checkpoint.save(space, path)
                    };
                    if let Err(e) = saved {
                        st.fatal = Some(format!(
                            "failed to write checkpoint {}: {e}",
                            path.display()
                        ));
                    }
                }
                if let Some(halt_after) = shared.config.halt_after_leases {
                    if st.stats.leases_completed >= halt_after {
                        st.stats.halted = true;
                    }
                }
                shared.wake.notify_all();
            }
            Err((kind, why)) => {
                *consecutive += 1;
                shared.fault(link.label(), Some(range), kind, *consecutive, &why);
                return WorkerExit::Lost;
            }
        }
    }
}

/// Reads one full shard report (`REPORT`, `R`…, `DONE`) off the link,
/// enforcing the per-line deadline. Any failure comes back as a typed
/// fault kind plus a description so the caller can record the event and
/// requeue the lease.
fn collect_report(
    link: &mut WorkerLink,
    shared: &Shared<'_>,
    lease: &Lease,
) -> std::result::Result<ExhaustiveReport, (FaultKind, String)> {
    let timeout = shared.config.lease_timeout;
    let mut assembler: Option<ReportAssembler> = None;
    let decode_fault = |e: &DistribError| {
        let kind = match e {
            DistribError::Corrupt { .. } => FaultKind::Corrupt,
            _ => FaultKind::Garbage,
        };
        (kind, e.to_string())
    };
    loop {
        match link.recv_deadline(timeout) {
            LinkRecv::Line(line) => {
                let msg = WorkerMsg::decode(&line).map_err(|e| decode_fault(&e))?;
                match assembler.as_mut() {
                    None => {
                        let a = ReportAssembler::new(shared.space, &msg)
                            .map_err(|e| decode_fault(&e))?;
                        if a.lease() != lease.id {
                            return Err((
                                FaultKind::Garbage,
                                format!("report for lease {}, expected {lease}", a.lease()),
                            ));
                        }
                        assembler = Some(a);
                    }
                    Some(a) => {
                        if let Some((_, report)) = a.push(msg).map_err(|e| decode_fault(&e))? {
                            return Ok(report);
                        }
                    }
                }
            }
            LinkRecv::Closed => {
                return Err((FaultKind::Died, "connection closed mid-lease".to_string()))
            }
            LinkRecv::TimedOut => {
                return Err((
                    FaultKind::Timeout,
                    format!("no line within {}s", timeout.as_secs_f64()),
                ))
            }
        }
    }
}

/// Runs a sharded sweep entirely inside the current process: `workers`
/// threads each serve the full wire protocol over an in-process channel
/// transport — the same lease/merge/requeue machinery as a multi-process
/// deployment, with zero setup. The result is bit-identical to
/// [`cacs_search::exhaustive_search_with`] under the same [`SweepConfig`].
///
/// # Errors
///
/// As [`run_supervised`].
pub fn sweep_in_process<E: cacs_search::ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    space: &ScheduleSpace,
    workers: usize,
    config: &CoordinatorConfig,
) -> Result<ShardedSweep> {
    sweep_in_process_chaos(evaluator, space, workers, config, |_, _| {
        ChaosPlan::default()
    })
}

/// [`sweep_in_process`] with per-worker chaos injection and full
/// supervision: `chaos(slot, incarnation)` decides the fault plan of
/// each worker incarnation (incarnation 0 is the initial spawn), and
/// faulted workers are respawned as fresh serve threads per the
/// config's [`RetryPolicy`]. The chaos-soak harness drives its whole
/// fault matrix through this entry point and asserts the merged report
/// stays bit-identical.
///
/// # Errors
///
/// As [`run_supervised`].
pub fn sweep_in_process_chaos<E: cacs_search::ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    space: &ScheduleSpace,
    workers: usize,
    config: &CoordinatorConfig,
    chaos: impl Fn(usize, u32) -> ChaosPlan + Sync,
) -> Result<ShardedSweep> {
    if workers == 0 {
        return Err(DistribError::Config {
            parameter: "at least one worker is required",
        });
    }
    let chaos = &chaos;
    std::thread::scope(|s| {
        let mut slots = Vec::with_capacity(workers);
        for i in 0..workers {
            let spawn_serve = move |incarnation: u32| -> Result<WorkerLink> {
                let (link, endpoint) =
                    WorkerLink::channel_pair(format!("in-process-{i}.{incarnation}"));
                let plan = chaos(i, incarnation);
                s.spawn(move || {
                    // Serve errors surface on the coordinator side as a
                    // lost worker; a clean EXIT returns Ok.
                    let _ = endpoint.serve(evaluator, plan);
                });
                Ok(link)
            };
            let link = spawn_serve(0)?;
            slots.push(SupervisedWorker {
                link,
                respawn: Some(Box::new(spawn_serve)),
            });
        }
        run_supervised(space, slots, config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacs_sched::Schedule;
    use cacs_search::{exhaustive_search_with, FnEvaluator};

    fn gnarly(
    ) -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync, impl Fn(&Schedule) -> bool + Sync>
    {
        FnEvaluator::with_idle_check(
            3,
            |s: &Schedule| {
                let c = s.counts();
                let mix = u64::from(c[0]) * 31 + u64::from(c[1]) * 17 + u64::from(c[2]) * 3;
                if mix % 13 == 0 {
                    None
                } else {
                    Some((mix % 7) as f64 * 0.125)
                }
            },
            |s: &Schedule| s.counts().iter().sum::<u32>() % 11 != 0,
        )
    }

    fn assert_identical(a: &ExhaustiveReport, b: &ExhaustiveReport, context: &str) {
        // Best first for a readable diagnostic; the full bit-for-bit
        // comparison is centralised in ExhaustiveReport::bit_identical.
        assert_eq!(a.best, b.best, "{context}: best schedule");
        assert!(
            a.bit_identical(b),
            "{context}: reports differ bitwise:\n{a:?}\nvs\n{b:?}"
        );
    }

    /// A retry policy with test-scale delays.
    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            quarantine_after: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(40),
            jitter_seed: 7,
        }
    }

    #[test]
    fn in_process_sweep_matches_single_process_bitwise() {
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![5, 6, 5]).unwrap();
        let single = exhaustive_search_with(&eval, &space, &SweepConfig::default()).unwrap();
        for (workers, shard_size) in [(1, 7), (2, 13), (3, 150), (2, 1000)] {
            let sharded = sweep_in_process(
                &eval,
                &space,
                workers,
                &CoordinatorConfig {
                    shard_size,
                    ..CoordinatorConfig::default()
                },
            )
            .unwrap();
            assert!(!sharded.stats.halted);
            assert_eq!(sharded.stats.leases_reissued, 0);
            assert!(sharded.stats.faults.is_empty());
            assert_identical(
                &sharded.report,
                &single,
                &format!("{workers} workers, shard {shard_size}"),
            );
        }
    }

    #[test]
    fn capped_retention_matches_single_process() {
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![4, 5, 4]).unwrap();
        for cap in [0usize, 5, 500] {
            let sweep = SweepConfig {
                max_results: Some(cap),
                ..SweepConfig::default()
            };
            let single = exhaustive_search_with(&eval, &space, &sweep).unwrap();
            let sharded = sweep_in_process(
                &eval,
                &space,
                2,
                &CoordinatorConfig {
                    shard_size: 9,
                    sweep,
                    ..CoordinatorConfig::default()
                },
            )
            .unwrap();
            assert_identical(&sharded.report, &single, &format!("cap {cap}"));
        }
    }

    #[test]
    fn dead_worker_lease_is_reissued() {
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![5, 5, 5]).unwrap();
        let single = exhaustive_search_with(&eval, &space, &SweepConfig::default()).unwrap();
        let config = CoordinatorConfig {
            shard_size: 10,
            lease_timeout: Duration::from_secs(30),
            ..CoordinatorConfig::default()
        };
        let sharded = std::thread::scope(|s| {
            let eval = &eval;
            let mut links = Vec::new();
            // The flaky worker dies while handling its first lease; the
            // steady worker deliberately withholds its handshake until
            // that death is certain, so exactly one lease is re-issued.
            let (died_tx, died_rx) = std::sync::mpsc::channel::<()>();
            let (link, endpoint) = WorkerLink::channel_pair("flaky");
            s.spawn(move || {
                let _ = endpoint.serve(
                    eval,
                    ChaosPlan {
                        die_on_lease: Some(1),
                        ..ChaosPlan::default()
                    },
                );
                let _ = died_tx.send(());
            });
            links.push(link);
            let (link, endpoint) = WorkerLink::channel_pair("steady");
            s.spawn(move || {
                died_rx.recv().expect("flaky worker reports its death");
                let _ = endpoint.serve(eval, ChaosPlan::default());
            });
            links.push(link);
            run_coordinator(&space, links, &config)
        })
        .unwrap();
        assert_eq!(sharded.stats.leases_reissued, 1);
        assert_eq!(sharded.stats.workers_lost, 1);
        // The fault is recorded as a structured event with its lease.
        assert_eq!(sharded.stats.faults.len(), 1);
        let event = &sharded.stats.faults[0];
        assert_eq!(event.worker, "flaky");
        assert_eq!(event.kind, FaultKind::Died);
        assert!(event.lease.is_some());
        assert_eq!(event.retry, 1);
        assert_identical(&sharded.report, &single, "after worker death");
    }

    #[test]
    fn all_workers_dying_exhausts_the_sweep() {
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![5, 5, 5]).unwrap();
        let config = CoordinatorConfig {
            shard_size: 10,
            ..CoordinatorConfig::default()
        };
        let result = std::thread::scope(|s| {
            let eval = &eval;
            let mut links = Vec::new();
            for i in 0..2 {
                let (link, endpoint) = WorkerLink::channel_pair(format!("doomed-{i}"));
                s.spawn(move || {
                    let _ = endpoint.serve(
                        eval,
                        ChaosPlan {
                            die_on_lease: Some(1),
                            ..ChaosPlan::default()
                        },
                    );
                });
                links.push(link);
            }
            run_coordinator(&space, links, &config)
        });
        assert!(matches!(result, Err(DistribError::WorkersExhausted { .. })));
    }

    #[test]
    fn supervised_sweep_survives_every_worker_dying_repeatedly() {
        // Every slot dies on its first lease of every incarnation except
        // the third — without respawn this sweep is unfinishable.
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![5, 6, 5]).unwrap();
        let single = exhaustive_search_with(&eval, &space, &SweepConfig::default()).unwrap();
        let config = CoordinatorConfig {
            shard_size: 25,
            retry: fast_retry(),
            ..CoordinatorConfig::default()
        };
        let sharded = sweep_in_process_chaos(&eval, &space, 2, &config, |_, incarnation| {
            if incarnation < 2 {
                ChaosPlan {
                    die_on_lease: Some(1),
                    ..ChaosPlan::default()
                }
            } else {
                ChaosPlan::default()
            }
        })
        .unwrap();
        assert!(sharded.stats.respawns >= 2);
        assert!(!sharded.stats.faults.is_empty());
        assert!(sharded.stats.quarantined.is_empty());
        assert_identical(&sharded.report, &single, "after repeated deaths");
    }

    #[test]
    fn consecutive_faults_quarantine_a_slot() {
        // Slot 0 dies on every incarnation: it must be quarantined after
        // exactly quarantine_after consecutive faults while slot 1
        // finishes the sweep; the result is still bit-identical.
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![5, 5, 5]).unwrap();
        let single = exhaustive_search_with(&eval, &space, &SweepConfig::default()).unwrap();
        let config = CoordinatorConfig {
            shard_size: 20,
            retry: RetryPolicy {
                quarantine_after: 3,
                backoff_base: Duration::from_millis(2),
                backoff_cap: Duration::from_millis(10),
                jitter_seed: 7,
            },
            ..CoordinatorConfig::default()
        };
        // Slot 1 starts slow so slot 0 deterministically burns through
        // its quarantine budget before the sweep can finish without it.
        let sharded = sweep_in_process_chaos(&eval, &space, 2, &config, |slot, _| {
            if slot == 0 {
                ChaosPlan {
                    die_on_lease: Some(1),
                    ..ChaosPlan::default()
                }
            } else {
                ChaosPlan {
                    slow_start: Some(Duration::from_secs(1)),
                    ..ChaosPlan::default()
                }
            }
        })
        .unwrap();
        assert_eq!(sharded.stats.quarantined.len(), 1);
        assert!(sharded.stats.quarantined[0].starts_with("in-process-0"));
        let slot0_faults = sharded
            .stats
            .faults
            .iter()
            .filter(|f| f.worker.starts_with("in-process-0"))
            .count() as u32;
        assert_eq!(slot0_faults, config.retry.quarantine_after);
        assert_identical(&sharded.report, &single, "with one slot quarantined");
    }

    #[test]
    fn permanently_dead_fleet_exhausts_in_bounded_time() {
        // All slots die on every lease of every incarnation. The sweep
        // must fail with WorkersExhausted within the quarantine bound —
        // no unbounded retry loop.
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![5, 5, 5]).unwrap();
        let retry = RetryPolicy {
            quarantine_after: 2,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(25),
            jitter_seed: 3,
        };
        let config = CoordinatorConfig {
            shard_size: 20,
            lease_timeout: Duration::from_secs(2),
            handshake_timeout: Duration::from_millis(500),
            retry: retry.clone(),
            ..CoordinatorConfig::default()
        };
        let t = cacs_obs::now();
        let result = sweep_in_process_chaos(&eval, &space, 2, &config, |_, _| ChaosPlan {
            die_on_lease: Some(1),
            ..ChaosPlan::default()
        });
        let bound = (config.lease_timeout + config.handshake_timeout + retry.backoff_cap)
            * retry.quarantine_after;
        assert!(matches!(result, Err(DistribError::WorkersExhausted { .. })));
        assert!(
            t.elapsed() < 2 * bound,
            "exhaustion took {:?}, bound was 2×{bound:?}",
            t.elapsed()
        );
    }

    #[test]
    fn failing_respawn_factory_counts_as_spawn_faults() {
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![4, 4, 4]).unwrap();
        let config = CoordinatorConfig {
            shard_size: 100,
            retry: RetryPolicy {
                quarantine_after: 2,
                ..fast_retry()
            },
            ..CoordinatorConfig::default()
        };
        let result = std::thread::scope(|s| {
            let eval = &eval;
            // The one worker dies on its first lease; every respawn
            // attempt fails.
            let (link, endpoint) = WorkerLink::channel_pair("doomed");
            s.spawn(move || {
                let _ = endpoint.serve(
                    eval,
                    ChaosPlan {
                        die_on_lease: Some(1),
                        ..ChaosPlan::default()
                    },
                );
            });
            let slot = SupervisedWorker::with_respawn(link, |_| {
                Err(DistribError::Config {
                    parameter: "no more workers",
                })
            });
            run_supervised(&space, vec![slot], &config)
        });
        assert!(matches!(result, Err(DistribError::WorkersExhausted { .. })));
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let retry = RetryPolicy::default();
        let a = backoff_delay(&retry, 0, 1);
        let b = backoff_delay(&retry, 0, 1);
        assert_eq!(a, b, "same seed, slot and attempt must reproduce");
        assert_ne!(
            backoff_delay(&retry, 0, 1),
            backoff_delay(&retry, 1, 1),
            "slots jitter independently"
        );
        // Base delay with jitter stays within [base, 2*base].
        assert!(a >= retry.backoff_base && a <= retry.backoff_base * 2);
        // High attempts clamp to the cap.
        assert_eq!(backoff_delay(&retry, 0, 30), retry.backoff_cap);
        // Zero-quarantine configs are rejected up front.
        let space = ScheduleSpace::new(vec![3, 3, 3]).unwrap();
        let config = CoordinatorConfig {
            retry: RetryPolicy {
                quarantine_after: 0,
                ..RetryPolicy::default()
            },
            ..CoordinatorConfig::default()
        };
        assert!(matches!(
            run_supervised(&space, Vec::new(), &config),
            Err(DistribError::Config { .. })
        ));
    }

    #[test]
    fn checkpoint_halt_and_resume_is_bit_identical() {
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![5, 6, 5]).unwrap();
        let single = exhaustive_search_with(&eval, &space, &SweepConfig::default()).unwrap();
        let dir = std::env::temp_dir().join(format!("cacs-coord-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("resume.ckpt");

        // Phase 1: halt after 4 leases.
        let partial = sweep_in_process(
            &eval,
            &space,
            2,
            &CoordinatorConfig {
                shard_size: 11,
                checkpoint: Some(ckpt.clone()),
                halt_after_leases: Some(4),
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
        assert!(partial.stats.halted);
        assert!(partial.stats.leases_completed >= 4);
        assert!(partial.report.enumerated < single.enumerated);
        assert!(ckpt.exists());

        // Phase 2: resume with a *different* shard size and finish.
        let resumed = sweep_in_process(
            &eval,
            &space,
            2,
            &CoordinatorConfig {
                shard_size: 17,
                checkpoint: Some(ckpt.clone()),
                resume: true,
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
        assert!(!resumed.stats.halted);
        // At least 4 leases completed before the halt; the shortest
        // possible lease under shard_size 11 on a 150-rank box is 7.
        assert!(resumed.stats.resumed_ranks >= 40);
        assert_identical(&resumed.report, &single, "after resume");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_without_checkpoint_file_starts_fresh() {
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![4, 4, 4]).unwrap();
        let single = exhaustive_search_with(&eval, &space, &SweepConfig::default()).unwrap();
        let ckpt =
            std::env::temp_dir().join(format!("cacs-coord-fresh-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&ckpt);
        let sharded = sweep_in_process(
            &eval,
            &space,
            2,
            &CoordinatorConfig {
                shard_size: 8,
                checkpoint: Some(ckpt.clone()),
                resume: true,
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
        assert_eq!(sharded.stats.resumed_ranks, 0);
        assert_identical(&sharded.report, &single, "fresh resume");
        std::fs::remove_file(&ckpt).unwrap();
    }

    #[test]
    fn silent_worker_fails_handshake_promptly() {
        // A link that never produces a line (a dead spawn) must be
        // dropped after handshake_timeout, not after the lease_timeout
        // sized for shard compute.
        let space = ScheduleSpace::new(vec![4, 4, 4]).unwrap();
        let (_tx, rx) = std::sync::mpsc::channel::<String>();
        let link = WorkerLink::from_parts("silent", |_| Ok(()), rx);
        let config = CoordinatorConfig {
            handshake_timeout: Duration::from_millis(50),
            lease_timeout: Duration::from_secs(120),
            ..CoordinatorConfig::default()
        };
        let t = cacs_obs::now();
        let result = run_coordinator(&space, vec![link], &config);
        assert!(matches!(result, Err(DistribError::WorkersExhausted { .. })));
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "handshake took {:?} — the lease timeout leaked into the handshake",
            t.elapsed()
        );
    }

    #[test]
    fn framed_hello_with_an_old_version_is_refused() {
        // A correctly framed HELLO naming an earlier protocol version
        // (1, or 2 with its `<chunk>` SWEEP field) is refused at the
        // handshake, whether or not a good worker stands by.
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![4, 4, 4]).unwrap();
        let single = exhaustive_search_with(&eval, &space, &SweepConfig::default()).unwrap();
        let old_peer = |version: u32| {
            let (link, endpoint) = WorkerLink::channel_pair("old-peer");
            endpoint
                .outgoing
                .send(WorkerMsg::Hello { version }.encode_framed())
                .unwrap();
            link
        };
        let config = CoordinatorConfig {
            shard_size: 30,
            ..CoordinatorConfig::default()
        };

        for version in 1..PROTOCOL_VERSION {
            let alone = run_coordinator(&space, vec![old_peer(version)], &config);
            assert!(
                matches!(alone, Err(DistribError::WorkersExhausted { .. })),
                "version {version}"
            );
        }

        let sharded = std::thread::scope(|s| {
            let (link, endpoint) = WorkerLink::channel_pair("steady");
            let eval = &eval;
            s.spawn(move || endpoint.serve(eval, ChaosPlan::default()));
            run_coordinator(&space, vec![old_peer(PROTOCOL_VERSION - 1), link], &config)
        })
        .unwrap();
        assert_eq!(sharded.stats.faults.len(), 1);
        assert_eq!(sharded.stats.faults[0].worker, "old-peer");
        assert_eq!(sharded.stats.faults[0].kind, FaultKind::Handshake);
        assert_identical(&sharded.report, &single, "after refusing the old peer");
    }

    #[test]
    fn resume_with_mismatched_problem_digest_fails_fast() {
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![5, 5, 5]).unwrap();
        let dir = std::env::temp_dir().join(format!("cacs-coord-digest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("digest.ckpt");

        // Halted sweep checkpointed under problem "alpha"…
        let partial = sweep_in_process(
            &eval,
            &space,
            2,
            &CoordinatorConfig {
                shard_size: 10,
                problem_digest: Some("alpha".to_string()),
                checkpoint: Some(ckpt.clone()),
                halt_after_leases: Some(2),
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
        assert!(partial.stats.halted);

        // …must refuse to resume as problem "beta" over the same box…
        let result = sweep_in_process(
            &eval,
            &space,
            2,
            &CoordinatorConfig {
                shard_size: 10,
                problem_digest: Some("beta".to_string()),
                checkpoint: Some(ckpt.clone()),
                resume: true,
                ..CoordinatorConfig::default()
            },
        );
        assert!(matches!(
            result,
            Err(DistribError::ProblemMismatch { expected, found })
                if expected == "beta" && found == "alpha"
        ));

        // …and still resume cleanly under the right digest.
        let resumed = sweep_in_process(
            &eval,
            &space,
            2,
            &CoordinatorConfig {
                shard_size: 10,
                problem_digest: Some("alpha".to_string()),
                checkpoint: Some(ckpt.clone()),
                resume: true,
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
        let single = exhaustive_search_with(&eval, &space, &SweepConfig::default()).unwrap();
        assert_identical(&resumed.report, &single, "resume under matching digest");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digestless_resume_preserves_the_checkpoint_digest() {
        // Resuming a checkpoint through a config without a digest
        // (e.g. the in-process API) must not strip the embedded digest
        // on the next save — that would silently disable the mismatch
        // protection for good.
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![5, 5, 5]).unwrap();
        let dir = std::env::temp_dir().join(format!("cacs-coord-keep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("keep.ckpt");

        let base = CoordinatorConfig {
            shard_size: 10,
            checkpoint: Some(ckpt.clone()),
            halt_after_leases: Some(2),
            ..CoordinatorConfig::default()
        };
        sweep_in_process(
            &eval,
            &space,
            2,
            &CoordinatorConfig {
                problem_digest: Some("alpha".to_string()),
                ..base.clone()
            },
        )
        .unwrap();
        // Digest-less resume that halts again and re-saves.
        sweep_in_process(
            &eval,
            &space,
            2,
            &CoordinatorConfig {
                resume: true,
                ..base
            },
        )
        .unwrap();
        let text = std::fs::read_to_string(&ckpt).unwrap();
        let second = text.lines().nth(1).unwrap_or_default();
        assert!(
            text.starts_with("CACS-SWEEP-CHECKPOINT 3\n") && second.starts_with("PROBLEM alpha"),
            "digest stripped on digest-less resume:\n{}",
            text.lines().take(2).collect::<Vec<_>>().join("\n")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_workers_rejected() {
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![3, 3, 3]).unwrap();
        assert!(matches!(
            sweep_in_process(&eval, &space, 0, &CoordinatorConfig::default()),
            Err(DistribError::Config { .. })
        ));
        assert!(matches!(
            run_coordinator(&space, Vec::new(), &CoordinatorConfig::default()),
            Err(DistribError::Config { .. })
        ));
    }
}
