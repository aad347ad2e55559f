//! The reusable evaluation context: scratch pools and bit-identical
//! cross-layer caches for the schedule-evaluation hot path.
//!
//! [`EvalCtx`] owns three layers of reuse, ordered by scope:
//!
//! 1. a [`SynthCtx`] scratch-buffer pool (always on — reuse skips no
//!    computation, so it is not a cache),
//! 2. an [`ExpmCache`] memoising `(A, t) → (Φ, Ψ)` across all
//!    discretisations (a schedule's consecutive same-app tasks repeat
//!    the triple `(A, h, τ=h)` exactly), and
//! 3. an application-synthesis cache keyed by every input of one app's
//!    holistic design, so re-evaluated schedules (selfcheck reruns,
//!    resumed sweeps, repeated strategy probes) skip the whole PSO run.
//!
//! All cache keys are [`BitKey`] bit patterns — total `f64` equality, no
//! float `==`, no wall clock — and every key covers the complete input
//! set of the computation it guards. A hit therefore returns exactly the
//! bytes a fresh compute would produce, which makes the caches
//! bit-identical by construction and safe to share across `cacs-par`
//! workers: racing inserts store identical values, and only the hit/miss
//! counters (metrics, never digests) depend on thread timing.

use crate::AppOutcome;
use cacs_control::SynthCtx;
use cacs_linalg::{BitKey, ExpmCache};
use cacs_par::sync::lock_recover;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Hard cap on memoised application outcomes. Insertion stops at the
/// cap (no eviction), so the resident key set never depends on thread
/// timing. Schedule spaces in this domain are a few hundred entries ×
/// a handful of apps; the cap is a safety valve, not a working limit.
const MAX_APP_ENTRIES: usize = 1 << 12;

/// Per-evaluator context: scratch pools plus the optional memo layers.
///
/// Construct with [`EvalCtx::cached`] (the default inside
/// `CodesignProblem`) or [`EvalCtx::uncached`] to disable the memo
/// caches — the scratch pool stays on either way, since buffer reuse is
/// not a cache. Shareable across threads; clones of a `CodesignProblem`
/// share one context through an `Arc`.
#[derive(Debug)]
pub struct EvalCtx {
    expm: Option<ExpmCache>,
    synth: SynthCtx,
    apps: Option<Mutex<HashMap<BitKey, AppOutcome>>>,
    app_hits: AtomicU64,
    app_misses: AtomicU64,
}

impl EvalCtx {
    /// A context with all cache layers enabled.
    #[must_use]
    pub fn cached() -> Self {
        EvalCtx {
            expm: Some(ExpmCache::default()),
            synth: SynthCtx::new(),
            apps: Some(Mutex::new(HashMap::new())),
            app_hits: AtomicU64::new(0),
            app_misses: AtomicU64::new(0),
        }
    }

    /// A context with the memo caches disabled (scratch pool only).
    /// Every evaluation recomputes from scratch — the reference path the
    /// cached context must match bit for bit.
    #[must_use]
    pub fn uncached() -> Self {
        EvalCtx {
            expm: None,
            synth: SynthCtx::new(),
            apps: None,
            app_hits: AtomicU64::new(0),
            app_misses: AtomicU64::new(0),
        }
    }

    /// `true` when the memo caches are enabled.
    pub fn caches_enabled(&self) -> bool {
        self.apps.is_some()
    }

    /// The shared discretisation memo, when enabled.
    pub fn expm_cache(&self) -> Option<&ExpmCache> {
        self.expm.as_ref()
    }

    /// The synthesis scratch pool (always available).
    pub fn synth(&self) -> &SynthCtx {
        &self.synth
    }

    /// App-synthesis cache hits observed so far.
    pub fn app_cache_hits(&self) -> u64 {
        self.app_hits.load(Ordering::Relaxed)
    }

    /// App-synthesis cache misses observed so far.
    pub fn app_cache_misses(&self) -> u64 {
        self.app_misses.load(Ordering::Relaxed)
    }

    /// Looks up a memoised application outcome. Returns `None` (without
    /// touching the counters) when the cache layer is disabled.
    pub(crate) fn lookup_app(&self, key: &BitKey) -> Option<AppOutcome> {
        let cache = self.apps.as_ref()?;
        let hit = lock_recover(cache).get(key).cloned();
        match &hit {
            Some(_) => {
                self.app_hits.fetch_add(1, Ordering::Relaxed);
                cacs_obs::metrics::EVAL_APP_SYNTH_CACHE_HITS.incr();
            }
            None => {
                self.app_misses.fetch_add(1, Ordering::Relaxed);
                cacs_obs::metrics::EVAL_APP_SYNTH_CACHE_MISSES.incr();
            }
        }
        hit
    }

    /// Stores a freshly computed outcome. A racing duplicate insert
    /// writes an identical value, so last-writer-wins is harmless.
    pub(crate) fn store_app(&self, key: BitKey, outcome: &AppOutcome) {
        if let Some(cache) = &self.apps {
            let mut map = lock_recover(cache);
            if map.len() < MAX_APP_ENTRIES {
                map.insert(key, outcome.clone());
            }
        }
    }
}

impl Default for EvalCtx {
    fn default() -> Self {
        EvalCtx::cached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncached_context_never_stores_or_counts() {
        let ctx = EvalCtx::uncached();
        assert!(!ctx.caches_enabled());
        assert!(ctx.expm_cache().is_none());
        let mut key = BitKey::new();
        key.push_u64(7);
        assert!(ctx.lookup_app(&key).is_none());
        assert_eq!(ctx.app_cache_hits(), 0);
        assert_eq!(ctx.app_cache_misses(), 0);
    }

    #[test]
    fn cached_context_counts_misses() {
        let ctx = EvalCtx::cached();
        assert!(ctx.caches_enabled());
        let mut key = BitKey::new();
        key.push_f64(-0.0);
        assert!(ctx.lookup_app(&key).is_none());
        assert_eq!(ctx.app_cache_misses(), 1);
        // A key built from +0.0 is distinct from the -0.0 one.
        let mut other = BitKey::new();
        other.push_f64(0.0);
        assert_ne!(key, other);
    }
}
