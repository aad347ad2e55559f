//! Shared harness of the determinism-neutrality tests: the evaluation
//! caches ([`cacs::core::EvalCtx`] expm memo + app-synthesis cache) and
//! the `cacs-obs` recorder must not change a single byte of any digest
//! nor a single Section-V evaluation count. Each test runs table rows,
//! one per toggle: the same search, sweep or `cacs-opt` run with the
//! toggle off (the reference path), then on, and compares bytes.
//! `eval_cache_neutrality.rs` and `obs_neutrality.rs` hold the rows of
//! their toggle.
//!
//! The recorder switch is process-global, so every test that evaluates
//! in-process serialises on one mutex (other integration-test binaries
//! are separate processes and unaffected).

// Each test binary uses only the rows and helpers of its own toggle.
#![allow(dead_code)]

use cacs::cli::{multistart_digest, ProblemSpec, StrategyKind};
use cacs::distrib::{sweep_in_process, CoordinatorConfig};
use cacs::sched::Schedule;
use cacs::search::{
    run_multistart, AnnealConfig, GeneticConfig, HybridConfig, SearchReport, StrategyConfig,
    TabuConfig,
};
use std::path::Path;
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

static RECORDER: Mutex<()> = Mutex::new(());

pub type Strategy = (StrategyKind, StrategyConfig);
/// (toggle, problem spec, starts, strategies)
pub type Row<'a> = (Toggle, &'a str, Vec<Schedule>, Vec<Strategy>);

/// Takes the recorder lock and leaves the recorder off and empty.
pub fn recorder_lock() -> MutexGuard<'static, ()> {
    let guard = cacs::par::sync::lock_recover(&RECORDER);
    cacs::obs::disable();
    cacs::obs::reset();
    guard
}

#[derive(Clone, Copy, Debug)]
pub enum Toggle {
    /// The `EvalCtx` memo layers; off is `--no-eval-cache`.
    EvalCache,
    /// The process-global `cacs-obs` recorder.
    Recorder,
}

/// Runs `f` with the toggle's global state (the recorder) switched as
/// requested, leaving the recorder off and empty.
fn with_recorder<R>(toggle: Toggle, on: bool, f: impl FnOnce() -> R) -> R {
    if matches!(toggle, Toggle::Recorder) && on {
        cacs::obs::enable();
    }
    let out = f();
    cacs::obs::disable();
    cacs::obs::reset();
    out
}

pub fn all_strategies() -> Vec<Strategy> {
    vec![
        (
            StrategyKind::Hybrid,
            StrategyConfig::Hybrid(HybridConfig::default()),
        ),
        (
            StrategyKind::Anneal,
            StrategyConfig::Anneal(AnnealConfig::default()),
        ),
        (
            StrategyKind::Genetic,
            StrategyConfig::Genetic(GeneticConfig::default()),
        ),
        (
            StrategyKind::Tabu,
            StrategyConfig::Tabu(TabuConfig::default()),
        ),
    ]
}

pub fn hybrid_only() -> Vec<Strategy> {
    all_strategies().into_iter().take(1).collect()
}

/// What a multistart run exposes to the contract: its digest and every
/// search it reports, in start order.
struct Run {
    digest: String,
    reports: Vec<SearchReport>,
}

/// One cold multistart run of `strategy` from `starts`, with `toggle`
/// off or on.
fn search(
    spec: &ProblemSpec,
    starts: &[Schedule],
    (kind, strategy): &Strategy,
    toggle: Toggle,
    on: bool,
) -> Run {
    let space = spec.space().expect("space");
    let evaluator = spec
        .evaluator_with_cache(on || !matches!(toggle, Toggle::EvalCache))
        .expect("evaluator");
    with_recorder(toggle, on, || {
        let outcome =
            run_multistart(evaluator.as_ref(), &space, starts, strategy, None).expect("search");
        let digest = multistart_digest(*kind, &space, starts, &outcome.reports).expect("digest");
        Run {
            digest,
            reports: outcome.reports,
        }
    })
}

/// The contract: the toggled run prints the reference digest byte for
/// byte, and every search equals the same start's search in the
/// reference run — best schedule, objective bits, Section-V evaluation
/// count.
fn assert_neutral(tag: &str, off: &Run, on: &Run) {
    assert_eq!(
        on.digest.as_bytes(),
        off.digest.as_bytes(),
        "{tag}: digest changed"
    );
    assert_eq!(on.reports.len(), off.reports.len(), "{tag}: search count");
    for (idx, (report, reference)) in on.reports.iter().zip(&off.reports).enumerate() {
        assert_eq!(report.best, reference.best, "{tag} start {idx}: best");
        assert_eq!(
            report.best_value.to_bits(),
            reference.best_value.to_bits(),
            "{tag} start {idx}: objective bits"
        );
        assert_eq!(
            report.evaluations, reference.evaluations,
            "{tag} start {idx}: Section-V evaluation count"
        );
    }
}

/// Each strategy of each row: its toggled run must be neutral against
/// its reference run.
pub fn check_rows(rows: &[Row]) {
    let _guard = recorder_lock();
    for (toggle, name, starts, strategies) in rows {
        let spec = ProblemSpec::parse(name).expect("problem spec");
        for strategy in strategies {
            let tag = format!("{toggle:?} {name} {}", strategy.0.name());
            let off = search(&spec, starts, strategy, *toggle, false);
            let on = search(&spec, starts, strategy, *toggle, true);
            assert_neutral(&tag, &off, &on);
        }
    }
}

/// The round-robin start of the single-start rows.
pub fn round_robin() -> Vec<Schedule> {
    vec![Schedule::round_robin(3).expect("start")]
}

/// Two sweep workers share one evaluator — with the caches on, one
/// `EvalCtx`, so racing inserts must not change a byte of the merged
/// report; likewise with the recorder on.
pub fn check_sharded_sweep(toggle: Toggle, spec: &str) {
    let _guard = recorder_lock();
    let config = CoordinatorConfig {
        shard_size: 64,
        ..CoordinatorConfig::default()
    };
    let spec = ProblemSpec::parse(spec).expect("problem spec");
    let space = spec.space().expect("space");
    let digest = |on: bool| {
        let cache = on || !matches!(toggle, Toggle::EvalCache);
        let evaluator = spec.evaluator_with_cache(cache).expect("evaluator");
        with_recorder(toggle, on, || {
            let sweep = sweep_in_process(evaluator.as_ref(), &space, 2, &config).expect("sweep");
            cacs::cli::report_digest(&space, &sweep.report).expect("digest")
        })
    };
    assert_eq!(
        digest(false).as_bytes(),
        digest(true).as_bytes(),
        "{toggle:?}: merged sweep report changed"
    );
}

fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cacs-neutrality-it-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("opt.store")
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

pub fn run_opt(extra: &[&str]) -> (Option<i32>, String, String) {
    let bin = env!("CARGO_BIN_EXE_cacs-opt");
    let output = Command::new(bin)
        .args(["--problem", "paper-fast"])
        .args(extra)
        .output()
        .expect("run cacs-opt");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Kill → resume across real processes with the toggle on: phase 1
/// (`args`, store attached) is killed mid-run by the deterministic
/// injection after `kill_after` fresh evaluations, phase 2 resumes with
/// `--selfcheck` (byte-identity and strictly fewer fresh evaluations
/// against an uninterrupted in-memory rerun), and phase 3 cross-checks
/// the resumed digest against a storeless `reference_args` run.
pub fn check_store_kill_resume_cycle(
    tag: &str,
    args: &[&str],
    kill_after: &str,
    reference_args: &[&str],
) {
    let store = temp_store(tag);
    let store_arg = store.to_str().unwrap();

    let (code, _, stderr) = run_opt(
        &[
            args,
            &["--store", store_arg, "--kill-after-fresh-evals", kill_after],
        ]
        .concat(),
    );
    assert_eq!(
        code,
        Some(9),
        "{tag}: expected the injected kill; stderr:\n{stderr}"
    );

    let (code, resumed_digest, stderr) =
        run_opt(&[args, &["--store", store_arg, "--resume", "--selfcheck"]].concat());
    assert_eq!(
        code,
        Some(0),
        "{tag}: resume/selfcheck failed; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("selfcheck OK"),
        "{tag}: missing selfcheck confirmation; stderr:\n{stderr}"
    );

    let (code, reference_digest, stderr) = run_opt(reference_args);
    assert_eq!(
        code,
        Some(0),
        "{tag}: reference run failed; stderr:\n{stderr}"
    );
    assert_eq!(
        resumed_digest, reference_digest,
        "{tag}: store-resumed digest differs from the storeless reference run's"
    );
    cleanup(&store);
}
