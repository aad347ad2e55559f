//! Digest-addressed persistent evaluation store: every completed
//! schedule evaluation is journalled to disk so an interrupted hybrid
//! multistart (or any other evaluation-hungry search) can be resumed
//! without re-paying for a single completed evaluation.
//!
//! # Addressing
//!
//! A store is bound to one `(problem digest, schedule space)` pair.
//! The *problem digest* is an opaque caller-supplied token (e.g. the
//! canonical `--problem` specification of the sweep binaries) that
//! names the exact objective; the space pins the rank encoding. Both
//! are embedded in the snapshot header, and [`EvalStore::open`] fails
//! fast with a typed error ([`StoreError::ProblemMismatch`] /
//! [`StoreError::SpaceMismatch`]) when an existing store was written
//! for a different problem or box — a resumed search can therefore
//! never silently mix evaluations of two different objectives.
//!
//! # On-disk layout
//!
//! Two sibling files:
//!
//! * `<path>` — the **compacted snapshot**, a line-oriented text file
//!   sharing the report digest's primitive encodings
//!   (schedules as enumeration ranks, objectives as 16-hex-digit
//!   `f64::to_bits` patterns — the currency of the repo's bit-identical
//!   contract):
//!
//!   ```text
//!   CACS-EVAL-STORE 2
//!   PROBLEM <digest>
//!   SPACE <n> <m1> … <mn>
//!   NRECORDS <k>
//!   E <rank> <bits|none> *<crc>   (× k, sorted by rank)
//!   END
//!   ```
//!
//!   Snapshots are written through a sibling temp file and an atomic
//!   rename, and loads refuse files without the `END` trailer, so a
//!   process killed mid-compaction can never corrupt the store.
//!
//! * `<path>.log` — the **append-only journal** of records since the
//!   last compaction, one `E` line per completed evaluation, flushed
//!   per record. A torn final line (the process was killed mid-append)
//!   is tolerated and ignored on replay; everything before it is kept.
//!
//! # Integrity (format version 2)
//!
//! Every `E` record — in the snapshot and in the journal — carries a
//! [CRC-32 suffix](crate::integrity) covering its payload. Store
//! records are independent facts: a record whose CRC is missing or fails, whose payload does
//! not parse, or whose rank lies outside the space is **quarantined** —
//! skipped with a count surfaced through
//! [`EvalStore::quarantined_records`] — and every other record is kept.
//! The affected evaluations are simply re-computed by the resumed
//! search. Structural damage (bad header, missing `END` trailer,
//! mismatched digest or space) refuses the open, and a torn *final*
//! journal line (no trailing `\n`) is silently tolerated: it is an
//! interrupted append, not corruption.
//!
//! [`EvalStore::open`] replays the journal into the snapshot and
//! compacts, so steady-state reads are a single sequential parse.
//! During a run, a [`CompactionPolicy`] additionally schedules
//! compaction from inside [`EvalStore::record`] once the journal
//! outgrows a configurable multiple of the snapshot (default 4×, with
//! a 64-KiB floor), bounding the store footprint and the resume replay
//! cost of multi-million-evaluation runs.
//!
//! # Concurrency
//!
//! [`EvalStore::record`] is safe to call from many threads (the
//! multistart searches write through concurrently) and recovers from
//! poisoned locks — a panicking evaluator on one search thread never
//! wedges persistence for the others. Write failures are additionally
//! *latched* ([`EvalStore::take_write_error`]) so fire-and-forget
//! write-through hooks cannot silently drop durability errors.

use crate::integrity::{append_crc, verify_line};
use crate::{lock_recover, ScheduleSpace};
use cacs_sched::Schedule;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const HEADER: &str = "CACS-EVAL-STORE 2";

/// Error returned by [`EvalStore`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// A filesystem operation failed. Stored as kind + rendered message
    /// so the error stays `Clone`/`PartialEq` across crate boundaries.
    Io {
        /// The failed operation's [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
        /// The rendered I/O error.
        message: String,
    },
    /// The store on disk was written for a different problem digest —
    /// resuming would mix evaluations of two different objectives.
    ProblemMismatch {
        /// Digest the caller is resuming with.
        expected: String,
        /// Digest found in the store.
        found: String,
    },
    /// The store on disk was written over a different schedule space —
    /// its rank encoding does not address this box.
    SpaceMismatch {
        /// Per-dimension maxima the caller is resuming with.
        expected: Vec<u32>,
        /// Per-dimension maxima found in the store.
        found: Vec<u32>,
    },
    /// The snapshot file was malformed or truncated (missing `END`
    /// trailer, bad record line, …).
    Corrupt {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A problem digest contained whitespace or was empty — it could
    /// not be embedded in the line-oriented header unambiguously.
    InvalidDigest {
        /// The rejected digest.
        digest: String,
    },
    /// A schedule outside the store's space was recorded or looked up —
    /// it has no rank under the store's encoding.
    OutOfSpace {
        /// The rejected schedule's task counts.
        counts: Vec<u32>,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { message, .. } => write!(f, "evaluation store I/O: {message}"),
            StoreError::ProblemMismatch { expected, found } => write!(
                f,
                "evaluation store problem mismatch: store was written for {found:?}, \
                 refusing to resume {expected:?}"
            ),
            StoreError::SpaceMismatch { expected, found } => write!(
                f,
                "evaluation store space mismatch: store was written over box {found:?}, \
                 refusing to resume over {expected:?}"
            ),
            StoreError::Corrupt { reason } => write!(f, "evaluation store corrupt: {reason}"),
            StoreError::InvalidDigest { digest } => write!(
                f,
                "problem digest {digest:?} is empty or contains whitespace"
            ),
            StoreError::OutOfSpace { counts } => {
                write!(f, "schedule {counts:?} lies outside the store's space")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

/// Store-operation result alias.
pub type StoreResult<T> = std::result::Result<T, StoreError>;

/// When the store folds its append-only journal back into the compacted
/// snapshot on its own.
///
/// Compaction always happens at [`EvalStore::open`] and on explicit
/// [`EvalStore::compact`] calls; this policy additionally schedules it
/// **during** a run, from inside [`EvalStore::record`], once the
/// journal has grown past a configurable multiple of the snapshot —
/// without it, a multi-million-evaluation run replays an ever-growing
/// journal on every resume. Auto-compaction is invisible to readers:
/// the snapshot rewrite is atomic (temp file + rename, `END`-guarded)
/// and a process killed mid-compaction replays to the identical record
/// set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Auto-compact once the journal holds more than this many times
    /// the snapshot's bytes. The default of `4` bounds the total store
    /// footprint at ~5× the compacted size while keeping compaction
    /// cost amortised (each record is rewritten at most a constant
    /// number of times per doubling).
    pub max_journal_ratio: u64,
    /// Never auto-compact while the journal is smaller than this many
    /// bytes — tiny runs stay a single flat journal regardless of the
    /// ratio.
    pub min_journal_bytes: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_journal_ratio: 4,
            min_journal_bytes: 64 * 1024,
        }
    }
}

impl CompactionPolicy {
    /// Disables in-run auto-compaction entirely (compaction still
    /// happens at open and on demand) — the pre-policy behaviour.
    pub fn never() -> Self {
        CompactionPolicy {
            max_journal_ratio: u64::MAX,
            min_journal_bytes: u64::MAX,
        }
    }

    /// `true` when a journal of `journal_bytes` behind a snapshot of
    /// `snapshot_bytes` is due for compaction under this policy.
    fn due(&self, journal_bytes: u64, snapshot_bytes: u64) -> bool {
        journal_bytes >= self.min_journal_bytes
            && journal_bytes / self.max_journal_ratio.max(1) >= snapshot_bytes
    }
}

/// Encodes one evaluation record as its line form: `E <rank>
/// <bits|none>`, where `<bits>` is the objective's `f64::to_bits` as 16
/// lower-case hex digits and `none` marks an infeasible evaluation —
/// the encoding of the report digest's `R` lines, frozen within a store
/// format version.
pub fn encode_record(rank: u64, value_bits: Option<u64>) -> String {
    match value_bits {
        Some(bits) => format!("E {rank} {bits:016x}"),
        None => format!("E {rank} none"),
    }
}

/// Decodes one `E` record line (inverse of [`encode_record`]).
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] on anything but a well-formed `E`
/// line.
pub fn decode_record(line: &str) -> StoreResult<(u64, Option<u64>)> {
    let bad = || StoreError::Corrupt {
        reason: format!("malformed record line {line:?}"),
    };
    let mut fields = line.split_whitespace();
    if fields.next() != Some("E") {
        return Err(bad());
    }
    let rank: u64 = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
    let value_bits = match fields.next() {
        Some("none") => None,
        Some(hex) if hex.len() == 16 => Some(u64::from_str_radix(hex, 16).map_err(|_| bad())?),
        _ => return Err(bad()),
    };
    if fields.next().is_some() {
        return Err(bad());
    }
    Ok((rank, value_bits))
}

/// Verifies and decodes one stored record line: strips and checks its
/// mandatory CRC-32 frame (see [`crate::integrity`]), then decodes the
/// payload and validates its rank against `space`.
///
/// Any `Err` from this function is *record-level* damage: the callers
/// quarantine the line (skip it and count it) rather than refusing the
/// store, because each record is an independent fact.
fn decode_stored_record(line: &str, space: &ScheduleSpace) -> StoreResult<(u64, Option<u64>)> {
    let payload = verify_line(line).map_err(|why| StoreError::Corrupt {
        reason: format!("record {why}"),
    })?;
    let (rank, bits) = decode_record(payload)?;
    if rank >= space.len() {
        return Err(StoreError::Corrupt {
            reason: format!("record rank {rank} outside the space"),
        });
    }
    Ok((rank, bits))
}

/// Mutable state behind the store's lock: the in-memory index plus the
/// open journal handle.
struct StoreInner {
    /// rank → objective bits (`None` = infeasible). A `BTreeMap` keeps
    /// snapshots and compactions sorted by rank for free.
    records: BTreeMap<u64, Option<u64>>,
    /// Open append handle on the journal.
    log: File,
    /// Journal bytes appended since the last compaction.
    journal_bytes: u64,
    /// Size of the compacted snapshot written by the last compaction.
    snapshot_bytes: u64,
    /// Compactions performed over this handle's lifetime (including the
    /// one at open).
    compactions: u64,
    /// Scheduled compactions that failed (the records stayed durable in
    /// the journal; the fold into the snapshot did not happen).
    failed_compactions: u64,
    /// First write failure, latched for fire-and-forget callers.
    write_error: Option<StoreError>,
    /// Damaged record lines quarantined (skipped) while loading this
    /// handle — CRC failures, unparseable payloads, out-of-space ranks.
    quarantined: u64,
}

/// A persistent, digest-addressed store of completed schedule
/// evaluations. See the [module docs](self) for the format and
/// durability model.
///
/// # Example
///
/// ```no_run
/// use cacs_search::{EvalStore, ScheduleSpace};
/// use cacs_sched::Schedule;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = ScheduleSpace::new(vec![6, 6])?;
/// let store = EvalStore::open("run.store".as_ref(), "paper-fast", &space)?;
/// store.record(&Schedule::new(vec![3, 2])?, Some(0.18))?;
/// drop(store);
/// // A later process resumes with every completed evaluation intact.
/// let resumed = EvalStore::open("run.store".as_ref(), "paper-fast", &space)?;
/// assert_eq!(resumed.len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct EvalStore {
    path: PathBuf,
    log_path: PathBuf,
    problem: String,
    space: ScheduleSpace,
    policy: CompactionPolicy,
    inner: Mutex<StoreInner>,
}

impl fmt::Debug for EvalStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalStore")
            .field("path", &self.path)
            .field("problem", &self.problem)
            .field("space", &self.space.max_counts())
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl EvalStore {
    /// The journal path belonging to a snapshot path: `<path>.log`.
    fn log_path_for(path: &Path) -> PathBuf {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".log");
        path.with_file_name(name)
    }

    /// `true` when a store (snapshot or journal) already exists at
    /// `path` — what a CLI uses to refuse accidental reuse without an
    /// explicit `--resume`.
    pub fn exists(path: &Path) -> bool {
        path.exists() || Self::log_path_for(path).exists()
    }

    /// Opens (or creates) the store at `path` for the given problem
    /// digest and space.
    ///
    /// A fresh store immediately writes an empty snapshot, pinning the
    /// digest and space on disk before the first evaluation completes.
    /// An existing store is validated against both, its journal is
    /// replayed (a torn final line is ignored), and the result is
    /// compacted back into the snapshot.
    ///
    /// # Errors
    ///
    /// * [`StoreError::InvalidDigest`] — `problem` is empty or contains
    ///   whitespace,
    /// * [`StoreError::ProblemMismatch`] / [`StoreError::SpaceMismatch`]
    ///   — the store on disk belongs to a different problem or box,
    /// * [`StoreError::Corrupt`] — malformed or truncated snapshot,
    /// * [`StoreError::Io`] — filesystem failures.
    pub fn open(path: &Path, problem: &str, space: &ScheduleSpace) -> StoreResult<Self> {
        Self::open_with_policy(path, problem, space, CompactionPolicy::default())
    }

    /// [`EvalStore::open`] with an explicit in-run [`CompactionPolicy`]
    /// (the default auto-compacts once the journal outgrows 4× the
    /// snapshot; [`CompactionPolicy::never`] restores journal-only
    /// appends between opens).
    ///
    /// # Errors
    ///
    /// As [`EvalStore::open`].
    pub fn open_with_policy(
        path: &Path,
        problem: &str,
        space: &ScheduleSpace,
        policy: CompactionPolicy,
    ) -> StoreResult<Self> {
        if problem.is_empty() || problem.chars().any(char::is_whitespace) {
            return Err(StoreError::InvalidDigest {
                digest: problem.to_string(),
            });
        }
        let log_path = Self::log_path_for(path);
        let mut records = BTreeMap::new();
        let mut quarantined = 0u64;
        if path.exists() {
            let text = std::fs::read_to_string(path)?;
            records = parse_snapshot(&text, problem, space, &mut quarantined)?;
        }
        if log_path.exists() {
            let text = std::fs::read_to_string(&log_path)?;
            replay_journal(&text, &mut records, space, &mut quarantined)?;
        }
        if quarantined > 0 {
            eprintln!(
                "cacs-search: warning — quarantined {quarantined} damaged record line(s) \
                 while loading evaluation store {}; the affected evaluations will be \
                 re-computed",
                path.display()
            );
        }

        let store = EvalStore {
            path: path.to_path_buf(),
            log_path: log_path.clone(),
            problem: problem.to_string(),
            space: space.clone(),
            policy,
            inner: Mutex::new(StoreInner {
                records,
                // Placeholder handle; compact_locked below re-opens the
                // journal after truncating it.
                log: OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&log_path)?,
                journal_bytes: 0,
                snapshot_bytes: 0,
                compactions: 0,
                failed_compactions: 0,
                write_error: None,
                quarantined,
            }),
        };
        // Fold the journal into the snapshot (also pins digest + space
        // on disk for a fresh store).
        let mut inner = lock_recover(&store.inner);
        store.compact_locked(&mut inner)?;
        drop(inner);
        Ok(store)
    }

    /// The snapshot path this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The problem digest this store is addressed by.
    pub fn problem(&self) -> &str {
        &self.problem
    }

    /// The schedule space pinning the store's rank encoding.
    pub fn space(&self) -> &ScheduleSpace {
        &self.space
    }

    /// Number of distinct evaluations stored.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).records.len()
    }

    /// `true` when the store holds no evaluations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a stored evaluation: `None` = not stored,
    /// `Some(None)` = stored as infeasible, `Some(Some(v))` = stored
    /// objective.
    pub fn get(&self, schedule: &Schedule) -> Option<Option<f64>> {
        let rank = self.space.rank(schedule)?;
        lock_recover(&self.inner)
            .records
            .get(&rank)
            .map(|bits| bits.map(f64::from_bits))
    }

    /// All stored evaluations in rank (enumeration) order — the
    /// warm-start payload for
    /// [`SharedEvalCache::warm_start`](crate::SharedEvalCache::warm_start).
    pub fn entries(&self) -> Vec<(Schedule, Option<f64>)> {
        let inner = lock_recover(&self.inner);
        inner
            .records
            .iter()
            .map(|(&rank, bits)| {
                let schedule = self
                    .space
                    .unrank(rank)
                    .expect("stored ranks are validated against the space on load");
                (schedule, bits.map(f64::from_bits))
            })
            .collect()
    }

    /// Journals one completed evaluation (append + flush). Recording a
    /// schedule that is already stored is a no-op — the store is
    /// append-only per key, and an evaluation is a pure function of
    /// `(problem, schedule)` so the first recorded value is as good as
    /// any.
    ///
    /// Safe to call concurrently from many threads; the first write
    /// failure is also latched for [`EvalStore::take_write_error`].
    ///
    /// # Errors
    ///
    /// * [`StoreError::OutOfSpace`] — `schedule` has no rank in the
    ///   store's space,
    /// * [`StoreError::Io`] — the append failed.
    pub fn record(&self, schedule: &Schedule, value: Option<f64>) -> StoreResult<()> {
        let Some(rank) = self.space.rank(schedule) else {
            let e = StoreError::OutOfSpace {
                counts: schedule.counts().to_vec(),
            };
            let mut inner = lock_recover(&self.inner);
            inner.write_error.get_or_insert(e.clone());
            return Err(e);
        };
        let bits = value.map(f64::to_bits);
        let mut inner = lock_recover(&self.inner);
        if inner.records.contains_key(&rank) {
            return Ok(());
        }
        let line = format!("{}\n", append_crc(&encode_record(rank, bits)));
        let result = inner
            .log
            .write_all(line.as_bytes())
            .and_then(|()| inner.log.flush());
        if let Err(e) = result {
            let e = StoreError::from(e);
            inner.write_error.get_or_insert(e.clone());
            return Err(e);
        }
        inner.records.insert(rank, bits);
        inner.journal_bytes += line.len() as u64;
        // Scheduled compaction: fold the journal into the snapshot once
        // it outgrows the policy's multiple of the snapshot size. The
        // rewrite is atomic, so a kill at any point here still resumes
        // to the identical record set. A *failed* compaction is
        // best-effort only — the record above is already durable in the
        // journal, so it must neither fail this call nor latch a write
        // error and sink an otherwise-successful run. Resetting the
        // byte counter backs the retry off by a full threshold's worth
        // of appends (the next open retries too); the lapse stays
        // observable through [`EvalStore::failed_compactions`] and a
        // one-time stderr warning.
        if self.policy.due(inner.journal_bytes, inner.snapshot_bytes)
            && self.compact_locked(&mut inner).is_err()
        {
            inner.journal_bytes = 0;
            inner.failed_compactions += 1;
            if inner.failed_compactions == 1 {
                eprintln!(
                    "cacs-search: warning — scheduled compaction of evaluation store {} \
                     failed; records stay durable in the journal, which will keep \
                     growing until a compaction succeeds",
                    self.path.display()
                );
            }
        }
        Ok(())
    }

    /// Compactions performed over this handle's lifetime (including the
    /// one at open) — observability for the scheduling policy.
    pub fn compactions(&self) -> u64 {
        lock_recover(&self.inner).compactions
    }

    /// Scheduled compactions that failed over this handle's lifetime.
    /// A non-zero value means the journal is not being folded into the
    /// snapshot (e.g. the filesystem is full) — every record is still
    /// durable, but the journal grows unbounded and resume replays it
    /// in full.
    pub fn failed_compactions(&self) -> u64 {
        lock_recover(&self.inner).failed_compactions
    }

    /// Damaged record lines quarantined (skipped) while this handle was
    /// opened: CRC failures, unparseable payloads, and out-of-space
    /// ranks — each an independent record, so the rest of the store
    /// loaded normally and the affected evaluations will simply be
    /// re-computed. A non-zero value means the store file was damaged
    /// at rest (disk fault, partial overwrite, external edit); the
    /// first successful compaction rewrites a clean file.
    pub fn quarantined_records(&self) -> u64 {
        lock_recover(&self.inner).quarantined
    }

    /// Takes (and clears) the first write failure latched by
    /// [`EvalStore::record`] — callers using the store through a
    /// fire-and-forget write-through hook check this once at the end of
    /// a search instead of after every evaluation.
    pub fn take_write_error(&self) -> Option<StoreError> {
        lock_recover(&self.inner).write_error.take()
    }

    /// Folds the journal into the snapshot: atomically rewrites
    /// `<path>` (temp file + rename, `END`-trailer guarded) with every
    /// known record, then truncates the journal. Interrupting the
    /// process at any point leaves either the old or the new state —
    /// never a mix.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn compact(&self) -> StoreResult<()> {
        let mut inner = lock_recover(&self.inner);
        self.compact_locked(&mut inner)
    }

    fn compact_locked(&self, inner: &mut StoreInner) -> StoreResult<()> {
        let mut text = String::new();
        text.push_str(HEADER);
        text.push('\n');
        text.push_str(&format!("PROBLEM {}\n", self.problem));
        text.push_str(&format!("SPACE {}", self.space.app_count()));
        for m in self.space.max_counts() {
            text.push_str(&format!(" {m}"));
        }
        text.push('\n');
        text.push_str(&format!("NRECORDS {}\n", inner.records.len()));
        for (&rank, &bits) in &inner.records {
            text.push_str(&append_crc(&encode_record(rank, bits)));
            text.push('\n');
        }
        text.push_str("END\n");

        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // The snapshot now covers everything: restart the journal. A
        // plain write handle truncated to zero appends sequentially —
        // all writes go through this one handle under the store's lock.
        inner.log = File::create(&self.log_path)?;
        inner.journal_bytes = 0;
        inner.snapshot_bytes = text.len() as u64;
        inner.compactions += 1;
        Ok(())
    }
}

/// Parses a snapshot and validates digest + space. Structural damage
/// (header, digest, space, `NRECORDS`, `END`) refuses the load;
/// damaged *record* lines are quarantined — skipped and counted into
/// `quarantined` — because each record is independent.
fn parse_snapshot(
    text: &str,
    problem: &str,
    space: &ScheduleSpace,
    quarantined: &mut u64,
) -> StoreResult<BTreeMap<u64, Option<u64>>> {
    let bad = |reason: &str| StoreError::Corrupt {
        reason: reason.to_string(),
    };
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return Err(bad("missing or unsupported header"));
    }
    let problem_line = lines.next().ok_or_else(|| bad("missing PROBLEM line"))?;
    let found = problem_line
        .strip_prefix("PROBLEM ")
        .ok_or_else(|| bad("missing PROBLEM line"))?;
    if found != problem {
        return Err(StoreError::ProblemMismatch {
            expected: problem.to_string(),
            found: found.to_string(),
        });
    }
    let space_line = lines.next().ok_or_else(|| bad("missing SPACE line"))?;
    let rest = space_line
        .strip_prefix("SPACE ")
        .ok_or_else(|| bad("missing SPACE line"))?;
    let mut fields = rest.split_whitespace();
    let n: usize = fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| bad("malformed SPACE dimension count"))?;
    let found_maxes: Vec<u32> = fields
        .map(|f| f.parse().map_err(|_| bad("malformed SPACE dimension")))
        .collect::<StoreResult<_>>()?;
    if found_maxes.len() != n {
        return Err(bad("SPACE dimension count mismatch"));
    }
    if found_maxes != space.max_counts() {
        return Err(StoreError::SpaceMismatch {
            expected: space.max_counts().to_vec(),
            found: found_maxes,
        });
    }
    let nrecords_line = lines.next().ok_or_else(|| bad("missing NRECORDS line"))?;
    let nrecords: u64 = nrecords_line
        .strip_prefix("NRECORDS ")
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| bad("malformed NRECORDS line"))?;
    let mut records = BTreeMap::new();
    for _ in 0..nrecords {
        let line = lines
            .next()
            .ok_or_else(|| bad("truncated record list (missing END trailer?)"))?;
        match decode_stored_record(line, space) {
            Ok((rank, bits)) => {
                records.insert(rank, bits);
            }
            Err(_) => *quarantined += 1,
        }
    }
    if lines.next() != Some("END") {
        return Err(bad("missing END trailer (truncated write?)"));
    }
    Ok(records)
}

/// Replays journal lines into `records`. A malformed **final** line
/// with no trailing newline is a torn append (the process died
/// mid-write) and is silently ignored; a damaged line anywhere else is
/// at-rest corruption of one independent record and is quarantined —
/// skipped and counted into `quarantined` — so everything else replays.
fn replay_journal(
    text: &str,
    records: &mut BTreeMap<u64, Option<u64>>,
    space: &ScheduleSpace,
    quarantined: &mut u64,
) -> StoreResult<()> {
    let lines: Vec<&str> = text.split('\n').filter(|l| !l.is_empty()).collect();
    // A journal whose text does not end in '\n' had its last append torn.
    let torn_tail = !text.is_empty() && !text.ends_with('\n');
    for (i, line) in lines.iter().enumerate() {
        let last = i + 1 == lines.len();
        match decode_stored_record(line, space) {
            Ok((rank, bits)) => {
                // The snapshot-covered value wins ties; journal entries
                // behind an existing key are redundant re-records.
                records.entry(rank).or_insert(bits);
            }
            Err(_) => {
                // A torn append can only leave a prefix with no
                // trailing newline; a complete ('\n'-terminated) line
                // that fails to verify or parse is genuine damage to
                // one record — quarantine it and keep the rest.
                if last && torn_tail {
                    break; // torn final append: everything before it is good
                }
                *quarantined += 1;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cacs-store-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("evals.store")
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    fn space() -> ScheduleSpace {
        ScheduleSpace::new(vec![6, 7]).unwrap()
    }

    #[test]
    fn record_reopen_round_trip() {
        let path = temp_store_path("roundtrip");
        let space = space();
        let store = EvalStore::open(&path, "test-problem", &space).unwrap();
        store
            .record(&Schedule::new(vec![3, 2]).unwrap(), Some(0.5))
            .unwrap();
        store
            .record(&Schedule::new(vec![1, 1]).unwrap(), None)
            .unwrap();
        store
            .record(&Schedule::new(vec![6, 7]).unwrap(), Some(-0.0))
            .unwrap();
        assert_eq!(store.len(), 3);
        drop(store);

        let back = EvalStore::open(&path, "test-problem", &space).unwrap();
        assert_eq!(back.len(), 3);
        let entries = back.entries();
        // Rank order: (1,1) < (3,2) < (6,7).
        assert_eq!(entries[0].0.counts(), &[1, 1]);
        assert_eq!(entries[0].1, None);
        assert_eq!(entries[1].0.counts(), &[3, 2]);
        assert_eq!(entries[1].1, Some(0.5));
        // -0.0 survives bit-exactly.
        assert_eq!(entries[2].1.unwrap().to_bits(), (-0.0f64).to_bits());
        cleanup(&path);
    }

    #[test]
    fn duplicate_records_are_no_ops() {
        let path = temp_store_path("dup");
        let space = space();
        let store = EvalStore::open(&path, "p", &space).unwrap();
        let s = Schedule::new(vec![2, 2]).unwrap();
        store.record(&s, Some(1.0)).unwrap();
        store.record(&s, Some(2.0)).unwrap(); // ignored: append-only per key
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&s), Some(Some(1.0)));
        cleanup(&path);
    }

    #[test]
    fn problem_mismatch_is_typed_and_fails_fast() {
        let path = temp_store_path("problem-mismatch");
        let space = space();
        drop(EvalStore::open(&path, "problem-a", &space).unwrap());
        let err = EvalStore::open(&path, "problem-b", &space).unwrap_err();
        assert_eq!(
            err,
            StoreError::ProblemMismatch {
                expected: "problem-b".to_string(),
                found: "problem-a".to_string(),
            }
        );
        cleanup(&path);
    }

    #[test]
    fn space_mismatch_is_typed() {
        let path = temp_store_path("space-mismatch");
        drop(EvalStore::open(&path, "p", &space()).unwrap());
        let other = ScheduleSpace::new(vec![6, 8]).unwrap();
        assert!(matches!(
            EvalStore::open(&path, "p", &other),
            Err(StoreError::SpaceMismatch { .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn whitespace_digest_rejected() {
        let path = temp_store_path("bad-digest");
        assert!(matches!(
            EvalStore::open(&path, "two words", &space()),
            Err(StoreError::InvalidDigest { .. })
        ));
        assert!(matches!(
            EvalStore::open(&path, "", &space()),
            Err(StoreError::InvalidDigest { .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn truncated_snapshot_refused() {
        let path = temp_store_path("truncated");
        let space = space();
        let store = EvalStore::open(&path, "p", &space).unwrap();
        store
            .record(&Schedule::new(vec![2, 3]).unwrap(), Some(0.25))
            .unwrap();
        store.compact().unwrap();
        drop(store);
        // Cut the END trailer off the snapshot → refused.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.trim_end().strip_suffix("END").unwrap();
        std::fs::write(&path, cut).unwrap();
        assert!(matches!(
            EvalStore::open(&path, "p", &space),
            Err(StoreError::Corrupt { .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn torn_journal_tail_is_tolerated() {
        let path = temp_store_path("torn");
        let space = space();
        let store = EvalStore::open(&path, "p", &space).unwrap();
        store
            .record(&Schedule::new(vec![1, 2]).unwrap(), Some(0.125))
            .unwrap();
        drop(store);
        // Simulate a kill mid-append: a partial record with no newline.
        let log = EvalStore::log_path_for(&path);
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(b"E 17 3fc00").unwrap(); // torn halfway through the bits
        drop(f);
        let back = EvalStore::open(&path, "p", &space).unwrap();
        assert_eq!(back.len(), 1); // the torn record is dropped, the good one kept
        cleanup(&path);
    }

    #[test]
    fn corrupt_mid_journal_is_quarantined_not_refused() {
        // One unparseable interior record quarantines that record only:
        // the store still opens and the healthy record behind it
        // replays — records are independent facts.
        let path = temp_store_path("mid-corrupt");
        let space = space();
        drop(EvalStore::open(&path, "p", &space).unwrap());
        let log = EvalStore::log_path_for(&path);
        let text = format!(
            "{}\n{}\n",
            append_crc("E zz garbage"),
            append_crc("E 3 none")
        );
        std::fs::write(&log, text).unwrap();
        let store = EvalStore::open(&path, "p", &space).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.quarantined_records(), 1);
        cleanup(&path);
    }

    #[test]
    fn complete_corrupt_final_line_is_quarantined() {
        // A '\n'-terminated final line is a *completed* append — if it
        // does not parse, that is damage to one record (not a torn
        // write), so it is quarantined and counted, however short.
        let path = temp_store_path("short-corrupt");
        let space = space();
        drop(EvalStore::open(&path, "p", &space).unwrap());
        let log = EvalStore::log_path_for(&path);
        std::fs::write(
            &log,
            format!("{}\n{}\n", append_crc("E 3 none"), append_crc("E 5")),
        )
        .unwrap();
        let store = EvalStore::open(&path, "p", &space).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.quarantined_records(), 1);
        cleanup(&path);
    }

    #[test]
    fn byte_flip_mid_journal_quarantines_only_that_record() {
        // The satellite regression test: flip one byte inside an
        // interior journal record. Its CRC must catch the damage, the
        // record must be quarantined, and every other record must
        // replay intact.
        let path = temp_store_path("byte-flip");
        let space = space();
        let store = EvalStore::open(&path, "p", &space).unwrap();
        for m in 1..=4u32 {
            store
                .record(&Schedule::new(vec![m, 1]).unwrap(), Some(f64::from(m)))
                .unwrap();
        }
        drop(store);

        let log = EvalStore::log_path_for(&path);
        let mut bytes = std::fs::read(&log).unwrap();
        // Flip a digit inside the second record's objective bits — the
        // payload stays syntactically plausible, only the CRC knows.
        let second_line_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let target = second_line_start + 6; // inside "E <rank> <bits…"
        bytes[target] = if bytes[target] == b'7' { b'8' } else { b'7' };
        std::fs::write(&log, &bytes).unwrap();

        let back = EvalStore::open(&path, "p", &space).unwrap();
        assert_eq!(back.quarantined_records(), 1);
        assert_eq!(back.len(), 3);
        // The three survivors carry their exact original values.
        for (schedule, value) in back.entries() {
            let m = schedule.counts()[0];
            assert_eq!(value.unwrap().to_bits(), f64::from(m).to_bits());
        }
        cleanup(&path);
    }

    #[test]
    fn pre_integrity_store_header_is_refused() {
        // Version 1 predates the CRC frame; no writer emits it, so its
        // header is structural damage like any other unknown header.
        let path = temp_store_path("pre-integrity");
        std::fs::write(
            &path,
            "CACS-EVAL-STORE 1\nPROBLEM p\nSPACE 2 6 7\nNRECORDS 2\nE 0 none\nE 9 3ff0000000000000\nEND\n",
        )
        .unwrap();
        assert!(matches!(
            EvalStore::open(&path, "p", &space()),
            Err(StoreError::Corrupt { .. })
        ));
        cleanup(&path);
    }

    /// Rewrites line `index` of `path` without its CRC suffix.
    fn strip_crc(path: &Path, index: usize) {
        let text = std::fs::read_to_string(path).unwrap();
        let stripped: String = text
            .lines()
            .enumerate()
            .map(|(i, l)| match verify_line(l) {
                Ok(payload) if i == index => format!("{payload}\n"),
                _ => format!("{l}\n"),
            })
            .collect();
        assert_ne!(stripped, text, "no record line was stripped");
        std::fs::write(path, stripped).unwrap();
    }

    #[test]
    fn v2_snapshot_record_stripped_of_its_crc_is_quarantined() {
        // Snapshots are written fully framed, so a record line
        // *without* a CRC suffix in one is itself damage (e.g. a
        // partial overwrite pasted older content in) — quarantined.
        let path = temp_store_path("v2-stripped");
        let space = space();
        let store = EvalStore::open(&path, "p", &space).unwrap();
        store
            .record(&Schedule::new(vec![2, 2]).unwrap(), Some(0.5))
            .unwrap();
        store
            .record(&Schedule::new(vec![3, 3]).unwrap(), Some(1.5))
            .unwrap();
        store.compact().unwrap();
        drop(store);
        strip_crc(&path, 4); // the first record, behind the 4 header lines

        let back = EvalStore::open(&path, "p", &space).unwrap();
        assert_eq!(back.quarantined_records(), 1);
        assert_eq!(back.len(), 1);
        cleanup(&path);
    }

    #[test]
    fn journal_record_stripped_of_its_crc_is_quarantined() {
        // A complete ('\n'-terminated) journal line without its frame
        // is damage, not a torn append: quarantined, the rest replays.
        let path = temp_store_path("journal-stripped");
        let space = space();
        let store = EvalStore::open(&path, "p", &space).unwrap();
        for m in 1..=3u32 {
            store
                .record(&Schedule::new(vec![m, 1]).unwrap(), Some(f64::from(m)))
                .unwrap();
        }
        drop(store);
        strip_crc(&EvalStore::log_path_for(&path), 1);

        let back = EvalStore::open(&path, "p", &space).unwrap();
        assert_eq!(back.quarantined_records(), 1);
        assert_eq!(back.len(), 2);
        for (schedule, value) in back.entries() {
            assert_ne!(schedule.counts()[0], 2, "stripped record replayed");
            assert_eq!(
                value.unwrap().to_bits(),
                f64::from(schedule.counts()[0]).to_bits()
            );
        }
        cleanup(&path);
    }

    #[test]
    fn compaction_absorbs_the_journal() {
        let path = temp_store_path("compact");
        let space = space();
        let store = EvalStore::open(&path, "p", &space).unwrap();
        for m in 1..=5u32 {
            store
                .record(&Schedule::new(vec![m, 1]).unwrap(), Some(f64::from(m)))
                .unwrap();
        }
        store.compact().unwrap();
        // Journal is empty after compaction…
        let log = EvalStore::log_path_for(&path);
        assert_eq!(std::fs::read_to_string(&log).unwrap(), "");
        // …and the snapshot alone reproduces everything.
        drop(store);
        let back = EvalStore::open(&path, "p", &space).unwrap();
        assert_eq!(back.len(), 5);
        cleanup(&path);
    }

    #[test]
    fn out_of_space_schedule_rejected_and_latched() {
        let path = temp_store_path("oos");
        let space = space();
        let store = EvalStore::open(&path, "p", &space).unwrap();
        let outside = Schedule::new(vec![7, 1]).unwrap();
        assert!(matches!(
            store.record(&outside, Some(1.0)),
            Err(StoreError::OutOfSpace { .. })
        ));
        assert!(matches!(
            store.take_write_error(),
            Some(StoreError::OutOfSpace { .. })
        ));
        assert!(store.take_write_error().is_none()); // cleared
        cleanup(&path);
    }

    #[test]
    fn concurrent_records_from_many_threads() {
        let path = temp_store_path("concurrent");
        let space = ScheduleSpace::new(vec![8, 8]).unwrap();
        let store = EvalStore::open(&path, "p", &space).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let store = &store;
                scope.spawn(move || {
                    for m in 1..=8u32 {
                        store
                            .record(
                                &Schedule::new(vec![m, t + 1]).unwrap(),
                                Some(f64::from(m * (t + 1))),
                            )
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(store.len(), 32);
        drop(store);
        let back = EvalStore::open(&path, "p", &space).unwrap();
        assert_eq!(back.len(), 32);
        cleanup(&path);
    }

    #[test]
    fn long_run_triggers_scheduled_compaction_without_changing_replay() {
        // An aggressive policy: compact as soon as the journal holds at
        // least 256 bytes and exceeds 1× the snapshot size. A long run
        // must then auto-compact (several times), the journal must have
        // been reset mid-run, and a reopened store must replay exactly
        // the record set of an identical run with compaction disabled.
        let tight = CompactionPolicy {
            max_journal_ratio: 1,
            min_journal_bytes: 256,
        };
        let path = temp_store_path("auto-compact");
        let space = ScheduleSpace::new(vec![64, 64]).unwrap();
        let store = EvalStore::open_with_policy(&path, "p", &space, tight).unwrap();
        let baseline_compactions = store.compactions(); // the one at open
        for m in 1..=64u32 {
            for k in 1..=4u32 {
                store
                    .record(
                        &Schedule::new(vec![m, k]).unwrap(),
                        Some(f64::from(m) * 0.5 - f64::from(k)),
                    )
                    .unwrap();
            }
        }
        assert!(
            store.compactions() > baseline_compactions,
            "a 256-record run under a 256-byte threshold must auto-compact"
        );
        // The journal was folded in: it is much smaller than the full
        // record set (~35 bytes/record × 256 records ≈ 9 KiB).
        let journal = std::fs::read_to_string(EvalStore::log_path_for(&path)).unwrap();
        assert!(
            journal.len() < 4096,
            "journal still holds {} bytes — never compacted mid-run",
            journal.len()
        );
        drop(store);

        // Reference: the identical run with auto-compaction disabled.
        let ref_path = temp_store_path("auto-compact-ref");
        let reference =
            EvalStore::open_with_policy(&ref_path, "p", &space, CompactionPolicy::never()).unwrap();
        for m in 1..=64u32 {
            for k in 1..=4u32 {
                reference
                    .record(
                        &Schedule::new(vec![m, k]).unwrap(),
                        Some(f64::from(m) * 0.5 - f64::from(k)),
                    )
                    .unwrap();
            }
        }
        drop(reference);

        let compacted = EvalStore::open(&path, "p", &space).unwrap();
        let plain = EvalStore::open(&ref_path, "p", &space).unwrap();
        assert_eq!(compacted.len(), 256);
        let a = compacted.entries();
        let b = plain.entries();
        assert_eq!(a.len(), b.len());
        for ((sa, va), (sb, vb)) in a.iter().zip(&b) {
            assert_eq!(sa, sb);
            assert_eq!(va.map(f64::to_bits), vb.map(f64::to_bits));
        }
        cleanup(&path);
        cleanup(&ref_path);
    }

    #[test]
    fn failed_scheduled_compaction_is_survivable_and_observable() {
        // A directory squatting on the snapshot's temp path makes every
        // compaction attempt fail (File::create on a directory). The
        // records must keep succeeding (they are durable in the
        // journal), no write error may be latched, and the lapse must
        // be visible through failed_compactions(); once the blocker is
        // gone, compaction recovers and folds everything in.
        let tight = CompactionPolicy {
            max_journal_ratio: 1,
            min_journal_bytes: 64,
        };
        let path = temp_store_path("compact-fails");
        let space = ScheduleSpace::new(vec![64, 64]).unwrap();
        let store = EvalStore::open_with_policy(&path, "p", &space, tight).unwrap();
        let tmp_blocker = path.with_extension("tmp");
        std::fs::create_dir(&tmp_blocker).unwrap();

        for m in 1..=32u32 {
            store
                .record(&Schedule::new(vec![m, 2]).unwrap(), Some(f64::from(m)))
                .unwrap(); // records succeed despite the failing compactions
        }
        assert!(
            store.failed_compactions() > 0,
            "the blocked temp path must have failed at least one scheduled compaction"
        );
        assert!(store.take_write_error().is_none());
        assert_eq!(store.len(), 32);

        // Unblock: the next threshold crossing compacts successfully.
        std::fs::remove_dir(&tmp_blocker).unwrap();
        let before = store.compactions();
        for m in 1..=32u32 {
            store
                .record(&Schedule::new(vec![m, 3]).unwrap(), Some(-f64::from(m)))
                .unwrap();
        }
        assert!(store.compactions() > before, "compaction did not recover");
        drop(store);
        let back = EvalStore::open(&path, "p", &space).unwrap();
        assert_eq!(back.len(), 64, "records lost across the failure window");
        cleanup(&path);
    }

    #[test]
    fn default_policy_leaves_small_runs_uncompacted() {
        // The default 64-KiB floor keeps paper-scale runs journal-only:
        // no mid-run compaction happens below it.
        let path = temp_store_path("no-auto-compact");
        let space = space();
        let store = EvalStore::open(&path, "p", &space).unwrap();
        let at_open = store.compactions();
        for m in 1..=6u32 {
            store
                .record(&Schedule::new(vec![m, 1]).unwrap(), Some(f64::from(m)))
                .unwrap();
        }
        assert_eq!(store.compactions(), at_open);
        assert!(!std::fs::read_to_string(EvalStore::log_path_for(&path))
            .unwrap()
            .is_empty());
        cleanup(&path);
    }

    #[test]
    fn exists_reports_snapshot_or_journal() {
        let path = temp_store_path("exists");
        assert!(!EvalStore::exists(&path));
        drop(EvalStore::open(&path, "p", &space()).unwrap());
        assert!(EvalStore::exists(&path));
        cleanup(&path);
    }
}
