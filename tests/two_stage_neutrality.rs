//! Two-stage screening neutrality: screening re-runs only the surviving
//! starts exactly, and every survivor's search must be bit-identical to
//! the same start's search in the single-stage run; a survivor fraction
//! of 1.0 reproduces the whole digest.

mod neutrality;

use neutrality::{
    all_strategies, check_rows, check_store_kill_resume_cycle, run_opt, starts, synthetic_starts,
    Toggle,
};

/// Every strategy, screened on the synthetic surrogate: each survivor's
/// `SEARCH` line (original index, exact bits, exact Section-V count)
/// must appear verbatim in the single-stage digest, and survivor
/// fraction 1.0 must reproduce the full digest byte for byte.
#[test]
fn every_strategy_survivor_lines_are_screen_neutral() {
    check_rows(&[
        (
            Toggle::Screening(0.5),
            "synthetic:5x5x5",
            synthetic_starts(),
            all_strategies(),
        ),
        (
            Toggle::Screening(1.0),
            "synthetic:5x5x5",
            synthetic_starts(),
            all_strategies(),
        ),
    ]);
}

/// The real pipeline: paper-fast screened with the reduced-budget
/// screening evaluator. Survivor reports must match the single-stage
/// run bit for bit — best schedule, objective bits, Section-V
/// evaluation counts — for every strategy.
#[test]
fn paper_fast_survivor_reports_are_screen_neutral() {
    check_rows(&[(
        Toggle::Screening(0.5),
        "paper-fast",
        starts(&[[4, 2, 2], [1, 2, 1], [2, 2, 2]]),
        all_strategies(),
    )]);
}

/// Process-level screening contract: a screened run with survivor
/// fraction 1.0 prints the default single-stage digest byte for byte.
#[test]
fn cli_screen_flags_honour_the_reference_path() {
    let starts = ["--starts", "4x2x2,1x2x1"];
    let (code, reference, stderr) = run_opt(&starts);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
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
    // Out-of-range fractions are usage errors, not panics.
    let (code, _, _) = run_opt(&["--screen-budget", "1.5"]);
    assert_eq!(code, Some(2));
    let (code, _, _) = run_opt(&["--survivor-frac", "0.0"]);
    assert_eq!(code, Some(2));
    // The retired neighbour warm-start and no-screen flags are unknown
    // options.
    for retired in ["--warm-start", "--no-screen"] {
        let (code, _, _) = run_opt(&[retired]);
        assert_eq!(code, Some(2), "{retired}");
    }
}

/// Kill → resume with screening on: the injected kill lands in stage 2
/// (only exact evaluations pass the kill wrapper), the resumed run
/// re-screens deterministically and must self-check byte-identical
/// against an uninterrupted in-memory two-stage rerun.
#[test]
fn screened_store_kill_resume_cycle_selfchecks() {
    let screened = [
        "--starts",
        "4x2x2,1x2x1",
        "--screen-budget",
        "0.3",
        "--survivor-frac",
        "0.5",
    ];
    check_store_kill_resume_cycle("screening", &screened, "2", &screened);
}
