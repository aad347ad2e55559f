//! One sweep opens exactly one parallel region: the lanes enumerate,
//! filter, evaluate and reduce their own rank blocks, so a range of
//! many blocks must not fan out once per block (or per batch of
//! candidates). The region count is read from the `par.pool_batches`
//! counter, which is process-global — this file holds a single test so
//! no other test in the process can touch it.

#![allow(clippy::unwrap_used)] // tests unwrap freely

use cacs_sched::Schedule;
use cacs_search::{exhaustive_search_range, FnEvaluator, ScheduleSpace, SweepConfig};

#[test]
fn a_sweep_of_many_blocks_is_one_pool_batch() {
    std::env::set_var("CACS_THREADS", "2");
    let eval = FnEvaluator::with_idle_check(
        3,
        |s: &Schedule| Some(f64::from(s.counts().iter().sum::<u32>() % 4)),
        |s: &Schedule| s.counts()[0] != 2,
    );
    let space = ScheduleSpace::new(vec![20, 20, 20]).unwrap();
    let config = SweepConfig {
        dispatch_grain: 64,
        ..SweepConfig::constant_memory()
    };

    cacs_obs::reset();
    cacs_obs::enable();
    let report = exhaustive_search_range(&eval, &space, 5, 7_990, &config).unwrap();
    cacs_obs::disable();

    assert_eq!(report.enumerated, 7_985);
    // 125 blocks of 64 ranks, and thousands of candidates: one region
    // per block or per few-thousand-candidate batch would show here.
    assert_eq!(cacs_obs::metrics::PAR_POOL_BATCHES.get(), 1);
    assert_eq!(cacs_obs::metrics::PAR_INLINE_BATCHES.get(), 0);
}
