//! Eval-cache neutrality: the `EvalCtx` memo layers (expm memo +
//! app-synthesis cache) must not change a single byte of any digest nor
//! a single Section-V evaluation count. Off is `--no-eval-cache`.

mod neutrality;

use neutrality::{
    all_strategies, check_rows, check_sharded_sweep, check_store_kill_resume_cycle, hybrid_only,
    round_robin, run_opt, Toggle,
};

/// Every strategy on the synthetic surrogate, cached vs. uncached.
#[test]
fn every_strategy_digest_is_cache_neutral() {
    check_rows(&[(
        Toggle::EvalCache,
        "synthetic:5x5x5",
        round_robin(),
        all_strategies(),
    )]);
}

/// The real evaluation pipeline against the paper problem, with expm
/// and app-synthesis memo hits.
#[test]
fn paper_fast_hybrid_digest_is_cache_neutral() {
    check_rows(&[(
        Toggle::EvalCache,
        "paper-fast",
        round_robin(),
        hybrid_only(),
    )]);
}

/// Two sweep workers share one `EvalCtx`: racing inserts must not
/// change a byte of the merged report.
#[test]
fn sharded_sweep_digest_is_cache_neutral() {
    check_sharded_sweep(Toggle::EvalCache, "paper-fast");
}

/// Kill → resume with the caches on; the resumed digest must equal a
/// storeless `--no-eval-cache` run's bytes.
#[test]
fn store_kill_resume_cycle_is_cache_neutral() {
    check_store_kill_resume_cycle("eval-cache", &[], "4", &["--no-eval-cache"]);
}

/// `--no-eval-cache --selfcheck` must pass end to end: the cache-free
/// path self-checks against its own in-memory rerun (and the usage
/// surface accepts the flag for every strategy, since it is not a
/// strategy knob).
#[test]
fn no_eval_cache_selfcheck_passes_for_tabu() {
    let (code, _, stderr) = run_opt(&["--strategy", "tabu", "--no-eval-cache", "--selfcheck"]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert!(stderr.contains("selfcheck OK"), "stderr:\n{stderr}");
}
