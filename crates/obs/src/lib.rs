//! Determinism-safe observability for the `cacs` workspace: counters,
//! monotonic-time histograms and timer guards behind a global recorder
//! that is **disabled by default** and zero-cost when off.
//!
//! # The recorder model
//!
//! Every metric in the workspace lives in the fixed registry of
//! [`metrics`] — a static set of named [`Counter`]s and [`Histogram`]s
//! declared here, in sorted key order. Library crates record into that
//! registry through the free functions of this crate ([`time`],
//! [`stamp`], `Counter::add`, …); whether anything is actually recorded
//! is decided by one process-global switch:
//!
//! * [`enable`] / [`disable`] — flipped **only** by binaries and
//!   benches (e.g. when `--metrics <path>` is passed). Libraries never
//!   touch the switch.
//! * While disabled (the default), every record path is a single
//!   relaxed atomic load and an early return — no clock is read, no
//!   atomic is written. Library behaviour is bit-for-bit unaffected.
//!
//! Metrics are a **side channel**: they must never feed a digest, a
//! report, or any search decision. The workspace linter enforces this
//! at the source level (`cacs-lint`'s `metrics-in-digest` rule forbids
//! `cacs_obs` tokens in digest/merge/report-emission files, and its
//! `wall-clock` rule makes `crates/obs` the one sanctioned home for
//! `Instant::now` — other crates read time through [`now`] or the
//! timer guards).
//!
//! # Histograms
//!
//! [`Histogram`] buckets are fixed powers of two: bucket `i` counts
//! values in `[2^(i-1), 2^i)` (bucket 0 counts zeros). For
//! nanosecond-scale timings this spans 1 ns to ~584 years in 64
//! buckets, so the bucket layout — and with it the JSON schema — never
//! depends on the data.
//!
//! The innermost per-objective-call timers
//! (`control.period_map_ns`, `control.simulate_worst_case_ns`) use
//! [`time_sampled`] with [`HOT_PATH_SAMPLE`]: they fire thousands of
//! times per schedule evaluation, so only one call in 64 reads the
//! clock (deterministically, by a tick each PSO objective keeps, so
//! unsampled calls touch no state shared between threads). Their
//! `count` and `sum` therefore describe the sampled calls; use
//! `pso.objective_calls` for true call volume.
//!
//! # The metrics document
//!
//! [`snapshot_json`] renders the whole registry as one JSON document
//! with a **byte-stable schema**: the key set, key order (sorted) and
//! nesting are identical for every run of every binary; only the
//! numeric values vary. [`summary`] renders the human companion that
//! the binaries print to stderr. [`json_keys`] extracts the key
//! sequence of a document, which is what the schema round-trip tests
//! compare.
//!
//! # Example
//!
//! ```
//! // A binary that opted in:
//! cacs_obs::enable();
//! {
//!     let _t = cacs_obs::time(&cacs_obs::metrics::EXPM_NS);
//!     // … hot-path work …
//! } // guard drop records the elapsed nanoseconds
//! cacs_obs::metrics::PSO_OBJECTIVE_CALLS.add(42);
//! let doc = cacs_obs::snapshot_json();
//! assert!(doc.contains("\"pso.objective_calls\""));
//! # cacs_obs::disable();
//! # cacs_obs::reset();
//! ```

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------
// The global switch.
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the recorder on. Called by binaries/benches only (e.g. when
/// `--metrics` is passed) — never by library code.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the recorder off (the default state).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the recorder is currently on. A single relaxed load — this
/// is the entire cost of every record path while disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The workspace's one sanctioned monotonic clock read. Code outside
/// `crates/obs` that needs a deadline or an elapsed time calls this (or
/// uses [`time`]/[`stamp`]) instead of `Instant::now()` — the
/// `wall-clock` lint rule allowlists only this crate.
///
/// Note this reads the clock unconditionally (deadlines must work with
/// the recorder off); only the *metric* paths are gated on [`enabled`].
#[must_use]
pub fn now() -> Instant {
    Instant::now()
}

// ---------------------------------------------------------------------
// Counter.
// ---------------------------------------------------------------------

/// A named monotonically increasing counter. Recording while the
/// recorder is disabled is a no-op.
#[derive(Debug)]
pub struct Counter {
    key: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter (used by the registry; metrics live in
    /// [`metrics`], not in ad-hoc statics).
    #[must_use]
    pub const fn new(key: &'static str) -> Self {
        Counter {
            key,
            value: AtomicU64::new(0),
        }
    }

    /// The registry key (e.g. `pso.objective_calls`).
    #[must_use]
    pub fn key(&self) -> &'static str {
        self.key
    }

    /// Adds `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 (no-op while disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------

/// Number of power-of-two buckets: bucket 0 counts zeros, bucket `i`
/// counts values in `[2^(i-1), 2^i)`, bucket 63 absorbs everything
/// from `2^62` up.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A named histogram over `u64` values (typically nanoseconds) with
/// fixed log-spaced (power-of-two) buckets, so the bucket layout never
/// depends on the data. Recording while the recorder is disabled is a
/// no-op.
#[derive(Debug)]
pub struct Histogram {
    key: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// Creates a histogram (used by the registry).
    #[must_use]
    pub const fn new(key: &'static str) -> Self {
        Histogram {
            key,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    /// The registry key (e.g. `linalg.expm_ns`).
    #[must_use]
    pub fn key(&self) -> &'static str {
        self.key
    }

    /// Index of the bucket covering `v`: 0 for 0, else
    /// `floor(log2(v)) + 1`, capped at the last bucket.
    #[must_use]
    pub fn bucket_index(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one value (no-op while disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the nanoseconds elapsed since `stamp` (no-op while
    /// disabled **or** when the stamp was taken while disabled — a
    /// half-enabled interval would be a lie).
    #[inline]
    pub fn observe_since(&self, stamp: &Stamp) {
        if let Some(start) = stamp.0 {
            if enabled() {
                self.record(elapsed_ns(start));
            }
        }
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Snapshot of the bucket counts.
    #[must_use]
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// Approximate quantile (0.0–1.0) from the bucket upper bounds —
    /// good to a factor of two, which is all a log-bucketed histogram
    /// promises. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let buckets = self.buckets();
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Upper bound of bucket i (bucket 0 holds zeros).
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max()
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// Timer guards and stamps.
// ---------------------------------------------------------------------

/// RAII timer: created by [`time`], records the elapsed nanoseconds
/// into its histogram on drop. When the recorder is disabled the guard
/// holds nothing and drop does nothing — no clock is read at all.
#[derive(Debug)]
#[must_use = "the timer records on drop; binding it to `_` discards the measurement immediately"]
pub struct TimerGuard {
    inner: Option<(Instant, &'static Histogram)>,
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        if let Some((start, hist)) = self.inner.take() {
            hist.record(elapsed_ns(start));
        }
    }
}

/// Starts timing into `hist`; the returned guard records on drop.
/// Zero-cost while the recorder is disabled.
#[inline]
pub fn time(hist: &'static Histogram) -> TimerGuard {
    TimerGuard {
        inner: enabled().then(|| (Instant::now(), hist)),
    }
}

/// Sampling rate of the innermost per-objective-call timers
/// (`control.period_map_ns`, `control.simulate_worst_case_ns`), which
/// fire thousands of times per schedule evaluation. On hosts where the
/// monotonic clock is a real syscall, timing every call costs more than
/// the work being measured; 1-in-64 keeps the latency distribution
/// while holding the enabled-recorder overhead under the perf-baseline
/// 3% budget.
pub const HOT_PATH_SAMPLE: u64 = 64;

/// Like [`time`], but reads the clock for only one in `one_in` calls
/// (deterministically: ticks 0, `one_in`, `2*one_in`, … of the
/// caller's `tick` are the ones measured). The tick belongs to the call
/// site's owner (e.g. one PSO objective), so an unsampled call bumps a
/// plain local counter and touches no state shared between threads;
/// the histogram's `count`/`sum`/buckets then describe the *sampled*
/// calls only. Zero-cost while the recorder is disabled — the tick does
/// not advance, so enabling mid-run always measures the first call it
/// sees.
#[inline]
pub fn time_sampled(hist: &'static Histogram, tick: &mut u64, one_in: u64) -> TimerGuard {
    if !enabled() {
        return TimerGuard { inner: None };
    }
    let sampled = tick.is_multiple_of(one_in.max(1));
    *tick = tick.wrapping_add(1);
    TimerGuard {
        inner: sampled.then(|| (Instant::now(), hist)),
    }
}

/// A moment captured by [`stamp`] — the start of an interval that may
/// end on another thread, finished by [`Histogram::observe_since`].
/// Empty (and free) while the recorder is disabled.
#[derive(Debug, Clone, Copy)]
pub struct Stamp(Option<Instant>);

/// Captures the current instant if the recorder is enabled.
#[must_use]
pub fn stamp() -> Stamp {
    Stamp(enabled().then(Instant::now))
}

// ---------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------

macro_rules! registry {
    (
        counters { $($cname:ident => $ckey:literal,)* }
        histograms { $($hname:ident => $hkey:literal,)* }
    ) => {
        /// The workspace's fixed metric registry, in sorted key order.
        ///
        /// Instrumented crates reference these statics directly
        /// (`cacs_obs::metrics::EXPM_NS` …); the fixed set is what
        /// makes [`crate::snapshot_json`]'s schema byte-stable.
        pub mod metrics {
            use super::{Counter, Histogram};
            $(pub static $cname: Counter = Counter::new($ckey);)*
            $(pub static $hname: Histogram = Histogram::new($hkey);)*
        }

        static ALL_COUNTERS: &[&Counter] = &[$(&metrics::$cname,)*];
        static ALL_HISTOGRAMS: &[&Histogram] = &[$(&metrics::$hname,)*];

        /// Every registered counter, in sorted key order.
        #[must_use]
        pub fn all_counters() -> &'static [&'static Counter] {
            ALL_COUNTERS
        }

        /// Every registered histogram, in sorted key order.
        #[must_use]
        pub fn all_histograms() -> &'static [&'static Histogram] {
            ALL_HISTOGRAMS
        }
    };
}

registry! {
    counters {
        // Synthesis retry loop restarts (control::synthesize).
        SYNTHESIS_RETRIES => "control.synthesis_retries",
        // EvalCtx app-level synthesis cache: per-app results served
        // from the memo vs synthesised fresh.
        EVAL_APP_SYNTH_CACHE_HITS => "eval.app_synth_cache_hits",
        EVAL_APP_SYNTH_CACHE_MISSES => "eval.app_synth_cache_misses",
        // Whole-schedule evaluations through CodesignProblem.
        EVAL_SCHEDULES => "eval.schedules",
        // Synthesis scratch sets served from the SynthCtx pool instead
        // of freshly allocated (one per controller synthesis, which
        // runs all its objective calls on that set).
        EVAL_SCRATCH_REUSES => "eval.scratch_reuses",
        // Bit-pattern-keyed (A, t) → (Φ, Ψ) discretisation memo.
        EXPM_CACHE_HITS => "linalg.expm_cache_hits",
        EXPM_CACHE_MISSES => "linalg.expm_cache_misses",
        // Parallel regions run inline (sequential fallback) vs spread
        // over lanes of scoped threads (the key predates the scoped
        // lanes and is kept for existing readers).
        PAR_INLINE_BATCHES => "par.inline_batches",
        PAR_POOL_BATCHES => "par.pool_batches",
        // Bounded PSO objective calls that stopped once they proved the
        // candidate cannot beat its particle's best: certified unstable
        // without root-finding, or worst-case simulation cut short.
        PSO_ABANDONED_SIM => "pso.abandoned_sim",
        PSO_ABANDONED_UNSTABLE => "pso.abandoned_unstable",
        // Bounded PSO objective calls that root-found ρ(Φ) by
        // Durand–Kerner: neither Schur–Cohn certificate applied.
        PSO_EXACT_RHO => "pso.exact_rho",
        // PSO objective closure invocations (the eval-cost driver).
        PSO_OBJECTIVE_CALLS => "pso.objective_calls",
        PSO_RUNS => "pso.runs",
        // Shared evaluation cache: requests served from cache vs fresh.
        CACHE_HITS => "search.cache_hits",
        CACHE_MISSES => "search.cache_misses",
        // run_multistart outcome stats (Section-V accounting).
        SEARCH_FRESH_EVALUATIONS => "search.fresh_evaluations",
        SEARCH_UNIQUE_EVALUATIONS => "search.unique_evaluations",
        SEARCH_WARM_STARTED => "search.warm_started",
        // Persistent EvalStore health.
        STORE_COMPACTIONS => "store.compactions",
        STORE_QUARANTINED_RECORDS => "store.quarantined_records",
    }
    histograms {
        // Eval hot path: closed-loop period map, PSO phases, the
        // worst-case simulation, and whole synthesis attempts.
        PERIOD_MAP_NS => "control.period_map_ns",
        PHASE_A_NS => "control.phase_a_ns",
        PHASE_B_NS => "control.phase_b_ns",
        SIMULATE_WORST_CASE_NS => "control.simulate_worst_case_ns",
        SYNTHESIS_NS => "control.synthesis_ns",
        EVAL_SCHEDULE_NS => "eval.schedule_ns",
        EXPM_NS => "linalg.expm_ns",
        // Parallel-region telemetry: items per region and per-lane
        // busy time (lane utilisation).
        PAR_BATCH_ITEMS => "par.batch_items",
        PAR_TASK_NS => "par.task_ns",
        STORE_WRITE_THROUGH_NS => "store.write_through_ns",
    }
}

/// Zeroes every metric (the enable switch is untouched). For benches
/// and tests that need a clean slate per configuration.
pub fn reset() {
    for c in all_counters() {
        c.reset();
    }
    for h in all_histograms() {
        h.reset();
    }
}

// ---------------------------------------------------------------------
// The metrics document.
// ---------------------------------------------------------------------

/// Schema identifier embedded in every metrics document.
pub const SCHEMA: &str = "cacs-obs-v1";

/// Renders the full registry as one JSON document with a byte-stable
/// schema: the key set, (sorted) key order and nesting are identical
/// for every run; only the numeric values vary. Every registered
/// metric appears whether or not it recorded anything.
#[must_use]
pub fn snapshot_json() -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("{\n  \"counters\": {\n");
    let counters = all_counters();
    for (i, c) in counters.iter().enumerate() {
        let sep = if i + 1 == counters.len() { "" } else { "," };
        out.push_str(&format!("    \"{}\": {}{sep}\n", c.key(), c.get()));
    }
    out.push_str("  },\n  \"histograms\": {\n");
    let histograms = all_histograms();
    for (i, h) in histograms.iter().enumerate() {
        let sep = if i + 1 == histograms.len() { "" } else { "," };
        let buckets = h.buckets();
        let buckets: Vec<String> = buckets.iter().map(ToString::to_string).collect();
        out.push_str(&format!(
            "    \"{}\": {{ \"buckets\": [{}], \"count\": {}, \"max\": {}, \"sum\": {} }}{sep}\n",
            h.key(),
            buckets.join(","),
            h.count(),
            h.max(),
            h.sum(),
        ));
    }
    out.push_str(&format!("  }},\n  \"schema\": \"{SCHEMA}\"\n}}\n"));
    out
}

/// Extracts the sequence of JSON object keys from a document produced
/// by [`snapshot_json`] (any string immediately followed by `:`), in
/// order of appearance. Two documents have the same schema iff their
/// key sequences are equal — this is what the round-trip tests and the
/// CI schema check compare.
#[must_use]
pub fn json_keys(doc: &str) -> Vec<String> {
    let bytes = doc.as_bytes();
    let mut keys = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != b'"' {
                // The registry keys contain no escapes; skip them
                // defensively anyway.
                if bytes[j] == b'\\' {
                    j += 1;
                }
                j += 1;
            }
            let end = j.min(bytes.len());
            let mut k = end + 1;
            while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                k += 1;
            }
            if k < bytes.len() && bytes[k] == b':' {
                keys.push(String::from_utf8_lossy(&bytes[start..end]).into_owned());
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    keys
}

fn format_ns(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let ns_f = ns as f64;
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns_f / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns_f / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns_f / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the human stderr companion of [`snapshot_json`]: every
/// metric that recorded anything, with totals, approximate p50/p99 and
/// max for time histograms. Returns a "(no metrics recorded)" stub
/// when nothing fired.
#[must_use]
pub fn summary() -> String {
    let mut out = String::from("metrics summary\n");
    let mut any = false;
    for h in all_histograms() {
        let count = h.count();
        if count == 0 {
            continue;
        }
        any = true;
        if h.key().ends_with("_ns") {
            out.push_str(&format!(
                "  {:<32} count {:>8}  total {:>10}  mean {:>10}  p50 ~{:>10}  p99 ~{:>10}  max {:>10}\n",
                h.key(),
                count,
                format_ns(h.sum()),
                format_ns(h.sum() / count.max(1)),
                format_ns(h.quantile(0.5)),
                format_ns(h.quantile(0.99)),
                format_ns(h.max()),
            ));
        } else {
            out.push_str(&format!(
                "  {:<32} count {:>8}  total {:>10}  mean {:>10}  max {:>10}\n",
                h.key(),
                count,
                h.sum(),
                h.sum() / count.max(1),
                h.max(),
            ));
        }
    }
    for c in all_counters() {
        let v = c.get();
        if v == 0 {
            continue;
        }
        any = true;
        out.push_str(&format!("  {:<32} {v}\n", c.key()));
    }
    if !any {
        out.push_str("  (no metrics recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The recorder switch and registry are process-global; tests that
    /// flip or read them serialise here.
    static GLOBAL: Mutex<()> = Mutex::new(());

    /// Serialises a test on [`GLOBAL`]. cacs-obs sits below cacs-par in
    /// the dependency graph, so `lock_recover` is out of reach here.
    fn serialize() -> std::sync::MutexGuard<'static, ()> {
        // cacs-lint: allow(poisoned-lock, reason = "test-only mutex; cacs-par (lock_recover) depends on this crate, so it cannot be used here")
        GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_recorder<R>(f: impl FnOnce() -> R) -> R {
        let _guard = serialize();
        enable();
        reset();
        let r = f();
        disable();
        reset();
        r
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _guard = serialize();
        disable();
        reset();
        metrics::PSO_OBJECTIVE_CALLS.add(5);
        metrics::EXPM_NS.record(1_000);
        let t = time(&metrics::EXPM_NS);
        drop(t);
        assert_eq!(metrics::PSO_OBJECTIVE_CALLS.get(), 0);
        assert_eq!(metrics::EXPM_NS.count(), 0);
    }

    #[test]
    fn counters_and_histograms_record_when_enabled() {
        with_recorder(|| {
            metrics::PSO_OBJECTIVE_CALLS.add(5);
            metrics::PSO_OBJECTIVE_CALLS.incr();
            assert_eq!(metrics::PSO_OBJECTIVE_CALLS.get(), 6);

            metrics::EXPM_NS.record(0);
            metrics::EXPM_NS.record(1);
            metrics::EXPM_NS.record(1_000_000);
            assert_eq!(metrics::EXPM_NS.count(), 3);
            assert_eq!(metrics::EXPM_NS.sum(), 1_000_001);
            assert_eq!(metrics::EXPM_NS.max(), 1_000_000);
            let buckets = metrics::EXPM_NS.buckets();
            assert_eq!(buckets[0], 1); // the zero
            assert_eq!(buckets[1], 1); // the 1
            assert_eq!(buckets[Histogram::bucket_index(1_000_000)], 1);
        });
    }

    #[test]
    fn timer_guard_records_on_drop() {
        with_recorder(|| {
            {
                let _t = time(&metrics::SYNTHESIS_NS);
                std::hint::black_box(0u64);
            }
            assert_eq!(metrics::SYNTHESIS_NS.count(), 1);
        });
    }

    #[test]
    fn sampled_timer_measures_one_in_n() {
        with_recorder(|| {
            let mut tick = 0;
            for _ in 0..129 {
                let _t = time_sampled(&metrics::PERIOD_MAP_NS, &mut tick, 64);
            }
            // Ticks 0, 64 and 128 are the measured ones.
            assert_eq!(tick, 129);
            assert_eq!(metrics::PERIOD_MAP_NS.count(), 3);
        });
        // A fresh tick (a new owner) samples its first call again.
        with_recorder(|| {
            let _t = time_sampled(&metrics::PERIOD_MAP_NS, &mut 0, 64);
            drop(_t);
            assert_eq!(metrics::PERIOD_MAP_NS.count(), 1);
        });
    }

    #[test]
    fn sampled_timer_is_inert_while_disabled() {
        let _guard = serialize();
        disable();
        reset();
        let mut tick = 0;
        for _ in 0..10 {
            let _t = time_sampled(&metrics::PERIOD_MAP_NS, &mut tick, 64);
        }
        // No ticks advanced, nothing recorded.
        assert_eq!(tick, 0);
        enable();
        let _t = time_sampled(&metrics::PERIOD_MAP_NS, &mut tick, 64);
        drop(_t);
        disable();
        assert_eq!(metrics::PERIOD_MAP_NS.count(), 1);
        reset();
    }

    #[test]
    fn stamp_spans_threads() {
        with_recorder(|| {
            let s = stamp();
            std::thread::scope(|scope| {
                scope.spawn(|| metrics::STORE_WRITE_THROUGH_NS.observe_since(&s));
            });
            assert_eq!(metrics::STORE_WRITE_THROUGH_NS.count(), 1);
        });
    }

    #[test]
    fn stamp_taken_while_disabled_never_records() {
        let _guard = serialize();
        disable();
        reset();
        let s = stamp();
        enable();
        metrics::STORE_WRITE_THROUGH_NS.observe_since(&s);
        disable();
        assert_eq!(metrics::STORE_WRITE_THROUGH_NS.count(), 0);
        reset();
    }

    #[test]
    fn bucket_index_is_log2_shaped() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every bucket's lower bound lands in its own bucket.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(Histogram::bucket_index(1u64 << (i - 1)), i, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        with_recorder(|| {
            for v in [10u64, 100, 1_000, 10_000] {
                metrics::STORE_WRITE_THROUGH_NS.record(v);
            }
            let p50 = metrics::STORE_WRITE_THROUGH_NS.quantile(0.5);
            // p50 is the upper bound of the bucket holding 100.
            assert_eq!(p50, 1u64 << Histogram::bucket_index(100));
            assert_eq!(metrics::STORE_WRITE_THROUGH_NS.quantile(1.0), 16_384);
            // q=0 → the first occupied bucket's upper bound ([8,16) holds 10).
            assert_eq!(metrics::STORE_WRITE_THROUGH_NS.quantile(0.0), 16);
        });
    }

    #[test]
    fn registry_keys_are_sorted_and_unique() {
        let keys: Vec<&str> = all_counters().iter().map(|c| c.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "counter keys must be sorted and unique");
        let keys: Vec<&str> = all_histograms().iter().map(|h| h.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "histogram keys must be sorted and unique");
    }

    #[test]
    fn snapshot_schema_is_byte_stable_across_values() {
        let (empty_keys, full_keys, full_doc) = with_recorder(|| {
            let empty = snapshot_json();
            for c in all_counters() {
                c.add(17);
            }
            for h in all_histograms() {
                h.record(123_456);
                h.record(7);
            }
            let full = snapshot_json();
            (json_keys(&empty), json_keys(&full), full)
        });
        assert_eq!(empty_keys, full_keys, "schema must not depend on values");
        assert!(full_doc.contains("\"schema\": \"cacs-obs-v1\""));
        // Every registered metric appears exactly once.
        for c in all_counters() {
            assert_eq!(full_keys.iter().filter(|k| *k == c.key()).count(), 1);
        }
        for h in all_histograms() {
            assert_eq!(full_keys.iter().filter(|k| *k == h.key()).count(), 1);
        }
    }

    #[test]
    fn summary_lists_only_active_metrics() {
        with_recorder(|| {
            metrics::EXPM_NS.record(2_500_000);
            metrics::PSO_OBJECTIVE_CALLS.add(9);
            let s = summary();
            assert!(s.contains("linalg.expm_ns"));
            assert!(s.contains("pso.objective_calls"));
            assert!(!s.contains("store.write_through_ns"));
        });
        let _guard = serialize();
        assert!(summary().contains("(no metrics recorded)"));
    }

    #[test]
    fn json_keys_extracts_keys_not_string_values() {
        let doc = r#"{ "a": 1, "b": { "c": "not:me" }, "d": ["x"], "e": 2 }"#;
        assert_eq!(json_keys(doc), vec!["a", "b", "c", "d", "e"]);
    }
}
