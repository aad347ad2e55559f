//! Sweep equivalence: the lane sweep behind `exhaustive_search` must be
//! **bit-identical** to the sequential sweep for every dispatch grain,
//! thread count and retention cap — best schedule, tie-breaking,
//! objective bits, counters and retained results alike.
//!
//! Thread counts are exercised both via `cacs_par::sequential` (forced
//! inline) and by temporarily pinning `CACS_THREADS` around the sweep. The env fiddling is serialised by a local mutex; it is
//! harmless to concurrent tests because every parallel region in the
//! workspace is deterministic at any thread count.

#![allow(clippy::unwrap_used)] // tests unwrap freely

use cacs_sched::Schedule;
use cacs_search::{
    exhaustive_search_range, exhaustive_search_with, ExhaustiveReport, FnEvaluator,
    ScheduleEvaluator, ScheduleSpace, SweepConfig,
};
use proptest::prelude::*;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `CACS_THREADS` pinned to `threads`, restoring the
/// previous value afterwards.
fn with_threads<R>(threads: &str, f: impl FnOnce() -> R) -> R {
    let _guard = cacs_par::sync::lock_recover(&ENV_LOCK);
    let saved = std::env::var("CACS_THREADS").ok();
    std::env::set_var("CACS_THREADS", threads);
    let result = f();
    match saved {
        Some(v) => std::env::set_var("CACS_THREADS", v),
        None => std::env::remove_var("CACS_THREADS"),
    }
    result
}

/// Objective with plateaus (ties), deadline violations and an idle
/// filter, so every result class and the tie-breaking rule participate.
fn gnarly(
    seed: u64,
) -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync, impl Fn(&Schedule) -> bool + Sync> {
    FnEvaluator::with_idle_check(
        3,
        move |s: &Schedule| {
            let c = s.counts();
            let mix = u64::from(c[0]) * 31 + u64::from(c[1]) * 17 + u64::from(c[2]) * 3 + seed;
            if mix.is_multiple_of(13) {
                None // "deadline violation"
            } else {
                // Quantised to a handful of levels: many exact ties, so
                // a wrong reduction order is actually observable.
                Some((mix % 7) as f64 * 0.125)
            }
        },
        move |s: &Schedule| !(u64::from(s.counts().iter().sum::<u32>()) + seed).is_multiple_of(11),
    )
}

fn assert_reports_identical(a: &ExhaustiveReport, b: &ExhaustiveReport, context: &str) {
    assert_eq!(a.best, b.best, "{context}: best schedule");
    assert_eq!(
        a.best_value.to_bits(),
        b.best_value.to_bits(),
        "{context}: best value bits"
    );
    assert_eq!(a.enumerated, b.enumerated, "{context}: enumerated");
    assert_eq!(a.evaluated, b.evaluated, "{context}: evaluated");
    assert_eq!(a.feasible, b.feasible, "{context}: feasible");
    assert_eq!(a.results.len(), b.results.len(), "{context}: result count");
    for ((sa, va), (sb, vb)) in a.results.iter().zip(&b.results) {
        assert_eq!(sa, sb, "{context}: result order");
        assert_eq!(
            va.map(f64::to_bits),
            vb.map(f64::to_bits),
            "{context}: objective bits for {sa}"
        );
    }
}

/// Dispatch grains {1, 7, whole box} × `CACS_THREADS` {1, 4}, against
/// the single-block forced-sequential sweep as the reference.
fn check_streaming_grid<E: ScheduleEvaluator>(eval: &E, space: &ScheduleSpace) {
    let whole_box = usize::try_from(space.len()).expect("test boxes are small");
    let reference = cacs_par::sequential(|| {
        exhaustive_search_with(
            eval,
            space,
            &SweepConfig {
                dispatch_grain: whole_box.max(1),
                max_results: None,
            },
        )
        .unwrap()
    });
    for grain in [1, 7, whole_box.max(1)] {
        let config = SweepConfig {
            dispatch_grain: grain,
            max_results: None,
        };
        for threads in ["1", "4"] {
            let report = with_threads(threads, || {
                exhaustive_search_with(eval, space, &config).unwrap()
            });
            assert_reports_identical(
                &report,
                &reference,
                &format!("grain {grain}, {threads} threads"),
            );
        }
        // And under the scoped sequential escape hatch.
        let inline = cacs_par::sequential(|| exhaustive_search_with(eval, space, &config).unwrap());
        assert_reports_identical(&inline, &reference, &format!("grain {grain}, inline"));
    }
}

/// The obvious sweep, written without the engine: unrank every rank of
/// `[start, end)` in order, idle-filter, evaluate, keep the first strict
/// improvement and the first `cap` results.
fn naive_range_sweep<E: ScheduleEvaluator>(
    eval: &E,
    space: &ScheduleSpace,
    start: u64,
    end: u64,
    cap: Option<usize>,
) -> ExhaustiveReport {
    let mut report = ExhaustiveReport::empty();
    for rank in start..end.min(space.len()) {
        let schedule = space.unrank(rank).unwrap();
        report.enumerated += 1;
        if !eval.idle_feasible(&schedule) {
            continue;
        }
        report.evaluated += 1;
        let value = eval.evaluate(&schedule);
        if let Some(v) = value {
            report.feasible += 1;
            if v > report.best_value {
                report.best_value = v;
                report.best = Some(schedule.clone());
            }
        }
        if cap.is_none_or(|c| report.results.len() < c) {
            report.results.push((schedule, value));
        }
    }
    report.results_truncated = (report.results.len() as u64) < report.evaluated;
    report
}

/// The lane sweep over `[start, end)` at grains {1, 2, 7, 1024, whole
/// range} × `CACS_THREADS` {1, 2, 4} × retention {all, 0, 5}, each
/// compared bit for bit with [`naive_range_sweep`].
fn check_lane_grid<E: ScheduleEvaluator>(eval: &E, space: &ScheduleSpace, start: u64, end: u64) {
    let whole_range = usize::try_from(end.saturating_sub(start)).expect("test ranges are small");
    for cap in [None, Some(0), Some(5)] {
        let reference = naive_range_sweep(eval, space, start, end, cap);
        for grain in [1, 2, 7, 1024, whole_range.max(1)] {
            let config = SweepConfig {
                dispatch_grain: grain,
                max_results: cap,
            };
            for threads in ["1", "2", "4"] {
                let report = with_threads(threads, || {
                    exhaustive_search_range(eval, space, start, end, &config).unwrap()
                });
                assert!(
                    report.bit_identical(&reference),
                    "[{start}, {end}), grain {grain}, {threads} threads, cap {cap:?}:\n\
                     {report:?}\nvs\n{reference:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn streaming_matches_materialised_sequential(
        seed in 0u64..1000,
        maxes in prop::collection::vec(1u32..6, 3),
    ) {
        let eval = gnarly(seed);
        let space = ScheduleSpace::new(maxes).unwrap();
        check_streaming_grid(&eval, &space);
    }

    #[test]
    fn lane_sweep_matches_a_naive_loop(
        seed in 0u64..1000,
        maxes in prop::collection::vec(1u32..6, 3),
        a in 0u64..126,
        b in 0u64..126,
    ) {
        let eval = gnarly(seed);
        let space = ScheduleSpace::new(maxes).unwrap();
        // Arbitrary, generally grain-unaligned ends inside the box.
        let (x, y) = (a % (space.len() + 1), b % (space.len() + 1));
        check_lane_grid(&eval, &space, x.min(y), x.max(y));
    }

    #[test]
    fn bounded_retention_is_a_prefix_at_any_grain(
        seed in 0u64..1000,
        cap in 0usize..20,
    ) {
        let eval = gnarly(seed);
        let space = ScheduleSpace::new(vec![4, 3, 4]).unwrap();
        let full = cacs_par::sequential(|| {
            exhaustive_search_with(&eval, &space, &SweepConfig::default()).unwrap()
        });
        for grain in [1, 7, 48] {
            let capped = exhaustive_search_with(
                &eval,
                &space,
                &SweepConfig {
                    dispatch_grain: grain,
                    max_results: Some(cap),
                },
            )
            .unwrap();
            let kept = full.results.len().min(cap);
            prop_assert_eq!(&capped.results[..], &full.results[..kept]);
            prop_assert_eq!(capped.results_truncated, full.results.len() > cap);
            prop_assert_eq!(&capped.best, &full.best);
            prop_assert_eq!(capped.best_value.to_bits(), full.best_value.to_bits());
            prop_assert_eq!(capped.evaluated, full.evaluated);
            prop_assert_eq!(capped.feasible, full.feasible);
        }
    }
}

#[test]
fn all_infeasible_box_is_identical_across_chunkings() {
    // Idle filter admits schedules, evaluation rejects every one.
    let eval = FnEvaluator::new(3, |_: &Schedule| None);
    let space = ScheduleSpace::new(vec![3, 4, 3]).unwrap();
    check_streaming_grid(&eval, &space);
    let report = exhaustive_search_with(
        &eval,
        &space,
        &SweepConfig {
            dispatch_grain: 5,
            max_results: None,
        },
    )
    .unwrap();
    assert!(report.best.is_none());
    assert_eq!(report.feasible, 0);
    assert_eq!(report.evaluated, 36);

    // Idle filter rejects everything: nothing is ever evaluated.
    let filtered = FnEvaluator::with_idle_check(3, |_: &Schedule| Some(1.0), |_: &Schedule| false);
    check_streaming_grid(&filtered, &space);
    let report = exhaustive_search_with(&filtered, &space, &SweepConfig::default()).unwrap();
    assert_eq!(report.evaluated, 0);
    assert_eq!(report.enumerated, 36);
    assert!(report.best.is_none());
}

#[test]
fn tie_breaking_keeps_first_in_enumeration_order_across_chunkings() {
    // A constant objective ties everywhere: the winner must always be
    // the first enumerated schedule, whatever the grain/thread split.
    let eval = FnEvaluator::new(3, |_: &Schedule| Some(0.25));
    let space = ScheduleSpace::new(vec![3, 3, 3]).unwrap();
    check_streaming_grid(&eval, &space);
    for grain in [1, 2, 7, 27] {
        let report = exhaustive_search_with(
            &eval,
            &space,
            &SweepConfig {
                dispatch_grain: grain,
                max_results: None,
            },
        )
        .unwrap();
        assert_eq!(report.best.unwrap().counts(), &[1, 1, 1]);
    }
}

#[test]
fn lane_sweep_edge_ranges_match_a_naive_loop() {
    let eval = gnarly(5);
    let space = ScheduleSpace::new(vec![4, 5, 3]).unwrap();
    let len = space.len();
    // Empty ranges (including an inverted one and one past the box).
    check_lane_grid(&eval, &space, 9, 9);
    check_lane_grid(&eval, &space, 20, 3);
    check_lane_grid(&eval, &space, len + 4, len + 9);
    // One or two blocks against up to four lanes.
    check_lane_grid(&eval, &space, 17, 18);
    check_lane_grid(&eval, &space, 17, 19);
    // Unaligned ends on both sides, and an end clamped to the box.
    check_lane_grid(&eval, &space, 3, len - 2);
    check_lane_grid(&eval, &space, 1, len + 100);
}
