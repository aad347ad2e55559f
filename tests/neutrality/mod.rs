//! Shared harness of the determinism-neutrality tests: the evaluation
//! caches ([`cacs::core::EvalCtx`] expm memo + app-synthesis cache), the
//! `cacs-obs` recorder and two-stage screening must not change a single
//! byte of any digest nor a single Section-V evaluation count. Each test
//! runs table rows, one per toggle: the same search, sweep or `cacs-opt`
//! run with the toggle off (the reference path), then on, and compares
//! bytes. `eval_cache_neutrality.rs`, `obs_neutrality.rs` and
//! `two_stage_neutrality.rs` hold the rows of their toggle.
//!
//! Screening is the one toggle that may drop work: it re-runs only the
//! surviving starts exactly. Its contract is that every survivor's
//! search is bit-identical to the same start's search in the
//! single-stage run (stage 2 replays it under the original per-start
//! seed), and a survivor fraction of 1.0 reproduces the whole digest.
//! The exact evaluator seeds every application's PSO from the evaluated
//! schedule alone, so a start's exact search is the same whichever
//! starts run before or beside it.
//!
//! The recorder switch is process-global, so every test that evaluates
//! in-process serialises on one mutex (other integration-test binaries
//! are separate processes and unaffected).

// Each test binary uses only the rows and helpers of its own toggle.
#![allow(dead_code)]

use cacs::cli::{multistart_digest, screened_digest, ProblemSpec, StrategyKind};
use cacs::distrib::{sweep_in_process, CoordinatorConfig};
use cacs::sched::Schedule;
use cacs::search::{
    run_multistart, run_multistart_screened, AnnealConfig, GeneticConfig, HybridConfig,
    ScheduleEvaluator, ScreenConfig, SearchReport, StrategyConfig, TabuConfig,
};
use std::path::Path;
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

static RECORDER: Mutex<()> = Mutex::new(());

type Evaluator = Box<dyn ScheduleEvaluator>;
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
    /// Two-stage screening with the reduced PSO budget (0.3) at this
    /// survivor fraction; off is the single-stage run.
    Screening(f64),
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

pub fn starts(tuples: &[[u32; 3]]) -> Vec<Schedule> {
    tuples
        .iter()
        .map(|c| Schedule::new(c.to_vec()).expect("start"))
        .collect()
}

/// Starts of the synthetic screening rows (all idle-feasible under the
/// surrogate: no count sum is a multiple of 16).
pub fn synthetic_starts() -> Vec<Schedule> {
    starts(&[[1, 1, 1], [5, 5, 5], [2, 3, 4], [4, 4, 4]])
}

/// What a multistart run exposes to the contract: its digest and every
/// search it reports, keyed by original start index.
struct Run {
    digest: String,
    searches: Vec<(usize, SearchReport)>,
    screen_evaluations: usize,
}

/// One multistart run of `strategy` from `starts`, with `toggle` off or
/// on. `shared` is a screening row's (exact, screening) evaluator pair,
/// reused across the row's runs; the other rows evaluate cold.
fn search(
    spec: &ProblemSpec,
    starts: &[Schedule],
    (kind, strategy): &Strategy,
    toggle: Toggle,
    on: bool,
    shared: Option<&(Evaluator, Evaluator)>,
) -> Run {
    let space = spec.space().expect("space");
    if let (Toggle::Screening(survivor_frac), Some((exact, screen)), true) = (toggle, shared, on) {
        let two = run_multistart_screened(
            screen.as_ref(),
            exact.as_ref(),
            &space,
            starts,
            strategy,
            &ScreenConfig { survivor_frac },
            None,
        )
        .expect("screened run");
        let digest = screened_digest(*kind, &space, starts, &two.survivors, &two.exact.reports)
            .expect("screened digest");
        return Run {
            digest,
            searches: two.survivors.into_iter().zip(two.exact.reports).collect(),
            screen_evaluations: two.screen_evaluations,
        };
    }
    let cold;
    let exact = match shared {
        Some((exact, _)) => exact,
        None => {
            cold = spec
                .evaluator_with_cache(on || !matches!(toggle, Toggle::EvalCache))
                .expect("evaluator");
            &cold
        }
    };
    with_recorder(toggle, on, || {
        let outcome =
            run_multistart(exact.as_ref(), &space, starts, strategy, None).expect("search");
        let digest = multistart_digest(*kind, &space, starts, &outcome.reports).expect("digest");
        Run {
            digest,
            searches: outcome.reports.into_iter().enumerate().collect(),
            screen_evaluations: 0,
        }
    })
}

/// The contract: every search the toggled run reports equals the same
/// start's search in the reference run — digest line, best schedule,
/// objective bits, Section-V evaluation count — and a run that reports
/// every start prints the reference digest byte for byte. A screened
/// run below fraction 1.0 must really screen: a strict, non-empty
/// survivor subset, paid for by screening evaluations.
fn assert_neutral(tag: &str, toggle: Toggle, off: &Run, on: &Run) {
    let reference_lines: Vec<&str> = off.digest.lines().collect();
    for line in on.digest.lines().filter(|l| l.starts_with("SEARCH ")) {
        assert!(
            reference_lines.contains(&line),
            "{tag}: line {line:?} not byte-identical to the reference run"
        );
    }
    for (idx, report) in &on.searches {
        let (_, reference) = &off.searches[*idx];
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
    if on.searches.len() == off.searches.len() {
        assert_eq!(
            on.digest.as_bytes(),
            off.digest.as_bytes(),
            "{tag}: digest changed"
        );
    }
    if let Toggle::Screening(frac) = toggle {
        assert!(on.screen_evaluations > 0, "{tag}: nothing was screened");
        if frac < 1.0 {
            assert!(
                !on.searches.is_empty() && on.searches.len() < off.searches.len(),
                "{tag}: expected a strict survivor subset"
            );
        }
    }
}

/// Each strategy of each row: its toggled run must be neutral against
/// its reference run.
pub fn check_rows(rows: &[Row]) {
    let _guard = recorder_lock();
    for (toggle, name, starts, strategies) in rows {
        let spec = ProblemSpec::parse(name).expect("problem spec");
        let shared = matches!(toggle, Toggle::Screening(_)).then(|| {
            (
                spec.evaluator().expect("exact evaluator"),
                spec.screening_evaluator(0.3, true)
                    .expect("screening evaluator"),
            )
        });
        for strategy in strategies {
            let tag = format!("{toggle:?} {name} {}", strategy.0.name());
            let off = search(&spec, starts, strategy, *toggle, false, shared.as_ref());
            let on = search(&spec, starts, strategy, *toggle, true, shared.as_ref());
            assert_neutral(&tag, *toggle, &off, &on);
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
