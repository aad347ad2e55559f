//! Synthesis-side evaluation context: a pool of reusable scratch
//! buffers for the PSO objective hot path.
//!
//! One controller synthesis evaluates its objective thousands of times.
//! Its period map, characteristic polynomial, feedforward LU and
//! simulation state live on the stack of the fixed-size objective
//! kernel ([`crate::LiftedKernel`]); what remains on the heap is the
//! worst-case simulation trace and the per-task feedforward vector.
//! [`SynthCtx`] keeps finished [`SynthScratch`] sets in a pool behind a
//! poison-tolerant mutex ([`cacs_par::sync::lock_recover`]): each
//! synthesis pops one (or builds a fresh one on first use / under peak
//! parallelism), runs every objective call of its attempts and the
//! final design check on it, and pushes it back, so the mutex is taken
//! twice per synthesis rather than per objective call.
//!
//! Scratch reuse is *not* a cache — no computation is skipped and every
//! buffer is fully overwritten before use — so results are
//! bit-identical whether a buffer is fresh or reused, and the pool
//! order (which does depend on thread timing) is unobservable.

use crate::Response;
use cacs_par::sync::lock_recover;
use std::sync::Mutex;

/// Every buffer an objective call of a synthesis needs.
///
/// The vectors keep their capacity across objective calls and
/// syntheses, so a scratch set serves apps of any shape back to back.
#[derive(Debug)]
pub struct SynthScratch {
    /// Worst-case simulation trace (vectors reused, capacity kept).
    pub(crate) response: Response,
    /// Per-task feedforward gains.
    pub(crate) feedforwards: Vec<f64>,
}

impl SynthScratch {
    pub(crate) fn new() -> Self {
        SynthScratch {
            response: Response {
                times: Vec::new(),
                outputs: Vec::new(),
                inputs: Vec::new(),
                reference: 0.0,
            },
            feedforwards: Vec::new(),
        }
    }
}

/// A shared pool of [`SynthScratch`] sets, safe to use from PSO
/// objectives running concurrently on the lanes of a `cacs-par` region
/// (or inline).
#[derive(Debug, Default)]
pub struct SynthCtx {
    pool: Mutex<Vec<SynthScratch>>,
}

impl SynthCtx {
    /// An empty context (buffers are built on demand).
    #[must_use]
    pub fn new() -> Self {
        SynthCtx::default()
    }

    /// Pops a scratch set from the pool, or builds a fresh one when the
    /// pool is empty (first calls, or more lanes than returned sets).
    pub(crate) fn take(&self) -> SynthScratch {
        let pooled = lock_recover(&self.pool).pop();
        match pooled {
            Some(s) => {
                cacs_obs::metrics::EVAL_SCRATCH_REUSES.incr();
                s
            }
            None => SynthScratch::new(),
        }
    }

    /// Returns a scratch set to the pool for the next synthesis.
    pub(crate) fn put(&self, scratch: SynthScratch) {
        lock_recover(&self.pool).push(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_round_trips_and_reuses() {
        let ctx = SynthCtx::new();
        let a = ctx.take(); // fresh
        ctx.put(a);
        let b = ctx.take(); // reused
        ctx.put(b);
        assert_eq!(lock_recover(&ctx.pool).len(), 1);
    }
}
