//! Determinism of the two-stage evaluation pipeline.
//!
//! Two-stage contract: reduced-fidelity screening only *ranks* starts —
//! every surviving start's exact search must be bit-identical (same
//! best, same objective bits, same Section-V evaluation count) to the
//! same start's search in a no-screen run, because stage 2 replays it
//! under the original per-start seed. Screening values never reach the
//! digest. The exact evaluator seeds every application's PSO from the
//! evaluated schedule alone, so a start's exact search is the same
//! whichever starts run before or beside it.

use cacs::cli::{multistart_digest, screened_digest, ProblemSpec, StrategyKind};
use cacs::sched::Schedule;
use cacs::search::{
    run_multistart, run_multistart_screened, AnnealConfig, GeneticConfig, HybridConfig,
    ScreenConfig, StrategyConfig, TabuConfig,
};
use std::path::Path;
use std::process::Command;

/// Starts used by the engine-level synthetic tests (all idle-feasible
/// under the surrogate: no count sum is a multiple of 16).
fn synthetic_starts() -> Vec<Schedule> {
    [[1u32, 1, 1], [5, 5, 5], [2, 3, 4], [4, 4, 4]]
        .iter()
        .map(|c| Schedule::new(c.to_vec()).expect("start"))
        .collect()
}

fn all_strategies() -> [(StrategyKind, StrategyConfig); 4] {
    [
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

/// Every strategy, screened on the synthetic surrogate: each survivor's
/// `SEARCH` line (original index, exact bits, exact Section-V count)
/// must appear verbatim in the no-screen digest, and survivor fraction
/// 1.0 must reproduce the full digest byte for byte.
#[test]
fn every_strategy_survivor_lines_are_screen_neutral() {
    let spec = ProblemSpec::parse("synthetic:5x5x5").expect("spec");
    let space = spec.space().expect("space");
    let eval = spec.evaluator().expect("evaluator");
    let starts = synthetic_starts();
    for (kind, strategy) in &all_strategies() {
        let plain =
            run_multistart(eval.as_ref(), &space, &starts, strategy, None).expect("no-screen run");
        let plain_digest =
            multistart_digest(*kind, &space, &starts, &plain.reports).expect("digest");
        let plain_lines: Vec<&str> = plain_digest.lines().collect();
        for frac in [0.5, 1.0] {
            let two = run_multistart_screened(
                eval.as_ref(),
                eval.as_ref(),
                &space,
                &starts,
                strategy,
                &ScreenConfig {
                    survivor_frac: frac,
                },
                None,
            )
            .expect("screened run");
            let screened =
                screened_digest(*kind, &space, &starts, &two.survivors, &two.exact.reports)
                    .expect("screened digest");
            for line in screened.lines().filter(|l| l.starts_with("SEARCH ")) {
                assert!(
                    plain_lines.contains(&line),
                    "{} frac {frac}: screened line {line:?} not byte-identical to the \
                     no-screen run",
                    kind.name()
                );
            }
            if frac == 1.0 {
                assert_eq!(
                    screened.as_bytes(),
                    plain_digest.as_bytes(),
                    "{}: survivor fraction 1.0 must reproduce the full digest",
                    kind.name()
                );
            }
        }
    }
}

/// The real pipeline: paper-fast screened with the reduced-budget
/// screening evaluator. Survivor reports must match the no-screen run
/// bit for bit — best schedule, objective bits, Section-V evaluation
/// counts — for every strategy.
#[test]
fn paper_fast_survivor_reports_are_screen_neutral() {
    let spec = ProblemSpec::parse("paper-fast").expect("spec");
    let space = spec.space().expect("space");
    let exact = spec.evaluator().expect("exact evaluator");
    let screen = spec
        .screening_evaluator(0.3, true)
        .expect("screening evaluator");
    let starts = vec![
        Schedule::new(vec![4, 2, 2]).expect("start"),
        Schedule::new(vec![1, 2, 1]).expect("start"),
        Schedule::new(vec![2, 2, 2]).expect("start"),
    ];
    for (kind, strategy) in &all_strategies() {
        let plain =
            run_multistart(exact.as_ref(), &space, &starts, strategy, None).expect("no-screen");
        let two = run_multistart_screened(
            screen.as_ref(),
            exact.as_ref(),
            &space,
            &starts,
            strategy,
            &ScreenConfig { survivor_frac: 0.5 },
            None,
        )
        .expect("screened");
        assert!(
            !two.survivors.is_empty() && two.survivors.len() < starts.len(),
            "{}: expected a strict survivor subset",
            kind.name()
        );
        assert!(two.screen_evaluations > 0, "{}", kind.name());
        for (&idx, report) in two.survivors.iter().zip(&two.exact.reports) {
            let reference = &plain.reports[idx];
            assert_eq!(
                report.best,
                reference.best,
                "{} start {idx}: best schedule changed under screening",
                kind.name()
            );
            assert_eq!(
                report.best_value.to_bits(),
                reference.best_value.to_bits(),
                "{} start {idx}: objective bits changed under screening",
                kind.name()
            );
            assert_eq!(
                report.evaluations,
                reference.evaluations,
                "{} start {idx}: Section-V evaluation count changed under screening",
                kind.name()
            );
        }
    }
}

fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cacs-twostage-it-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("opt.store")
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

fn run_opt(extra: &[&str]) -> (Option<i32>, String, String) {
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

/// Process-level screening contract: `--no-screen` spells the default
/// path (same bytes as no flags), and a screened run with survivor
/// fraction 1.0 prints the reference digest byte for byte.
#[test]
fn cli_screen_flags_honour_the_reference_path() {
    let starts = ["--starts", "4x2x2,1x2x1"];
    let (code, reference, stderr) = run_opt(&starts);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    let (code, no_screen, stderr) = run_opt(&[&starts[..], &["--no-screen"]].concat());
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert_eq!(no_screen, reference, "--no-screen changed the digest");
    let (code, full_frac, stderr) = run_opt(
        &[
            &starts[..],
            &["--screen-budget", "0.3", "--survivor-frac", "1.0"],
        ]
        .concat(),
    );
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert_eq!(
        full_frac, reference,
        "screened run with survivor fraction 1.0 must print the reference digest"
    );
    // Contradictory flags are a usage error.
    let (code, _, _) = run_opt(&["--no-screen", "--screen-budget", "0.3"]);
    assert_eq!(code, Some(2));
    // Out-of-range fractions are usage errors, not panics.
    let (code, _, _) = run_opt(&["--screen-budget", "1.5"]);
    assert_eq!(code, Some(2));
    let (code, _, _) = run_opt(&["--survivor-frac", "0.0"]);
    assert_eq!(code, Some(2));
    // The retired neighbour warm-start flag is an unknown option.
    let (code, _, _) = run_opt(&["--warm-start"]);
    assert_eq!(code, Some(2));
}

/// Kill → resume with screening on: the injected kill lands in stage 2
/// (only exact evaluations pass the kill wrapper), the resumed run
/// re-screens deterministically, warm-starts the surviving exact
/// searches from the store, and must self-check byte-identical against
/// an uninterrupted in-memory two-stage rerun.
#[test]
fn screened_store_kill_resume_cycle_selfchecks() {
    let store = temp_store("cycle");
    let store_arg = store.to_str().unwrap();
    let screen = ["--screen-budget", "0.3", "--survivor-frac", "0.5"];
    let starts = ["--starts", "4x2x2,1x2x1"];

    let (code, _, stderr) = run_opt(
        &[
            &starts[..],
            &screen[..],
            &["--store", store_arg, "--kill-after-fresh-evals", "2"],
        ]
        .concat(),
    );
    assert_eq!(
        code,
        Some(9),
        "expected the injected kill; stderr:\n{stderr}"
    );

    let (code, resumed_digest, stderr) = run_opt(
        &[
            &starts[..],
            &screen[..],
            &["--store", store_arg, "--resume", "--selfcheck"],
        ]
        .concat(),
    );
    assert_eq!(code, Some(0), "resume/selfcheck failed; stderr:\n{stderr}");
    assert!(
        stderr.contains("selfcheck OK"),
        "missing selfcheck confirmation; stderr:\n{stderr}"
    );

    // The resumed screened digest equals a storeless screened run's.
    let (code, fresh_digest, stderr) = run_opt(&[&starts[..], &screen[..]].concat());
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert_eq!(
        resumed_digest, fresh_digest,
        "store-resumed screened digest differs from the storeless screened run's"
    );
    cleanup(&store);
}
