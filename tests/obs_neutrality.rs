//! Recorder neutrality: enabling the process-global `cacs-obs` recorder
//! must not change a single byte of any digest nor a single Section-V
//! evaluation count, and its JSON snapshot has a fixed schema.

mod neutrality;

use neutrality::{
    all_strategies, check_exhaustive_sweep, check_rows, hybrid_only, recorder_lock, round_robin,
    Toggle,
};

/// Every strategy on the synthetic surrogate, recorder off vs. on.
#[test]
fn every_strategy_digest_is_recorder_neutral() {
    check_rows(&[(
        Toggle::Recorder,
        "synthetic:5x5x5",
        round_robin(),
        all_strategies(),
    )]);
}

/// The real evaluation pipeline against the paper problem, with the
/// PSO/synthesis/expm timers all firing.
#[test]
fn paper_fast_hybrid_digest_is_recorder_neutral() {
    check_rows(&[(Toggle::Recorder, "paper-fast", round_robin(), hybrid_only())]);
}

/// The sweep's lanes recording concurrently must not change a byte of
/// the reduced report.
#[test]
fn exhaustive_sweep_digest_is_recorder_neutral() {
    check_exhaustive_sweep(Toggle::Recorder, "synthetic:8x8x8");
}

#[test]
fn metrics_json_schema_is_byte_stable() {
    let _guard = recorder_lock();
    let idle = cacs::obs::snapshot_json();

    // Record a spread of activity; the schema must not grow or shrink.
    cacs::obs::enable();
    cacs::obs::metrics::EVAL_SCHEDULES.add(3);
    cacs::obs::metrics::EXPM_NS.record(12_345);
    cacs::obs::metrics::CACHE_HITS.incr();
    let busy = cacs::obs::snapshot_json();
    cacs::obs::disable();
    cacs::obs::reset();

    let idle_keys = cacs::obs::json_keys(&idle);
    let busy_keys = cacs::obs::json_keys(&busy);
    assert_eq!(idle_keys, busy_keys, "schema changed with activity");

    // Each section lists its metrics in sorted key order.
    let counters_at = idle_keys
        .iter()
        .position(|k| k == "counters")
        .expect("counters");
    let histograms_at = idle_keys
        .iter()
        .position(|k| k == "histograms")
        .expect("histograms");
    let counter_keys = &idle_keys[counters_at + 1..histograms_at];
    let histogram_keys: Vec<&String> = idle_keys[histograms_at + 1..]
        .iter()
        .filter(|k| k.contains('.'))
        .collect();
    assert!(!counter_keys.is_empty() && !histogram_keys.is_empty());
    assert!(counter_keys.windows(2).all(|w| w[0] < w[1]));
    assert!(histogram_keys.windows(2).all(|w| w[0] < w[1]));

    assert!(busy.contains("\"schema\": \"cacs-obs-v1\""));
    assert!(busy.contains("\"eval.schedules\": 3"));
}
