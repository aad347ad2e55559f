//! A sweep lane allocates nothing per rank: it walks one schedule
//! cursor, re-seeked to each claimed block and stepped in place, and
//! clones it only into the best or a retained result. A counting global
//! allocator checks that a sweep four times as long makes no more
//! allocations than the short one plus a small per-lane constant. The
//! counter is process-global, so this file holds a single test.

#![allow(clippy::unwrap_used)] // tests unwrap freely

use cacs_sched::Schedule;
use cacs_search::{exhaustive_search_range, FnEvaluator, ScheduleSpace, SweepConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: both methods forward their arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches
// no memory handed out. `realloc` and `alloc_zeroed` keep their default
// bodies, which go through `alloc`/`dealloc` and so are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_sweep_allocates_nothing_per_rank() {
    const LANES: u64 = 2;
    std::env::set_var("CACS_THREADS", LANES.to_string());
    // Allocation-free objective and idle filter. The objective takes
    // three values, so each lane's best improves at most twice.
    let eval = FnEvaluator::with_idle_check(
        3,
        |s: &Schedule| Some(f64::from(s.counts()[2] % 3)),
        |s: &Schedule| s.counts()[0] != 7,
    );
    let space = ScheduleSpace::new(vec![50, 50, 80]).unwrap();
    let config = SweepConfig {
        dispatch_grain: 64,
        ..SweepConfig::constant_memory()
    };
    let allocations = |end: u64| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = exhaustive_search_range(&eval, &space, 0, end, &config).unwrap();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(report.enumerated, end);
        after - before
    };

    // The first sweep also pays one-off process set-up.
    allocations(50_000);
    let short = allocations(50_000);
    let long = allocations(200_000);
    // Per lane: its cursor, its best (a clone per improvement) and the
    // thread itself.
    let slack = 16 * LANES;
    assert!(
        long <= short + slack,
        "a 200k-rank sweep made {long} allocations against {short} for 50k ranks"
    );
}
