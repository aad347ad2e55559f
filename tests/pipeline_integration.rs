//! Cross-crate integration tests: the full pipeline from cache geometry
//! to overall control performance, on reduced budgets.

use cacs::apps::paper_case_study;
use cacs::cache::{analyze_consecutive, Cache, CacheConfig};
use cacs::core::{table1_rows, CodesignProblem, EvaluationConfig};
use cacs::sched::{check_idle_times, derive_timing, Schedule};

fn fast_problem() -> CodesignProblem {
    let study = paper_case_study().expect("case study builds");
    CodesignProblem::from_case_study(&study, EvaluationConfig::fast()).expect("problem builds")
}

/// Table I flows unchanged from the cache substrate through the core
/// report generation.
#[test]
fn table1_pipeline_end_to_end() {
    let problem = fast_problem();
    let rows = table1_rows(&problem).unwrap();
    assert_eq!(rows.len(), 3);
    let expected = [
        (907.55, 455.40, 452.15),
        (645.25, 470.25, 175.00),
        (749.15, 514.80, 234.35),
    ];
    for (row, (cold, red, warm)) in rows.iter().zip(expected) {
        assert!((row.cold_us - cold).abs() < 1e-9);
        assert!((row.reduction_us - red).abs() < 1e-9);
        assert!((row.warm_us - warm).abs() < 1e-9);
        assert!((row.cold_us - row.reduction_us - row.warm_us).abs() < 1e-9);
    }
}

/// The abstract WCETs that drive the pipeline agree with concrete cache
/// simulation for the calibrated (branch-free) programs.
#[test]
fn abstract_wcets_match_concrete_simulation() {
    let study = paper_case_study().unwrap();
    for app in &study.apps {
        let analysis = analyze_consecutive(app.program.program(), &study.platform).unwrap();
        let mut cache = Cache::new(study.platform).unwrap();
        let cold = cache.run_trace(app.program.program().trace_first_path());
        let warm = cache.run_trace(app.program.program().trace_first_path());
        assert_eq!(analysis.cold_cycles, cold);
        assert_eq!(analysis.warm_cycles, warm);
    }
}

/// The idle-feasible region is determined by Tables I and II alone; the
/// paper reports 76 schedules, our timing model yields 77 (one boundary
/// corner differs — see EXPERIMENTS.md).
#[test]
fn idle_feasible_region_matches_paper_within_one() {
    let problem = fast_problem();
    let space = problem.schedule_space().unwrap();
    let count = space
        .iter()
        .filter(|s| problem.idle_feasible_schedule(s))
        .count();
    assert!(
        (76..=78).contains(&count),
        "idle-feasible count {count} drifted from the paper's 76"
    );
    // The paper's reported optimum and both its search start points are in
    // the region.
    for counts in [vec![3, 2, 3], vec![4, 2, 2], vec![1, 2, 1]] {
        assert!(problem.idle_feasible_schedule(&Schedule::new(counts).unwrap()));
    }
}

/// Stage-1 evaluation of the round-robin baseline is feasible and its
/// per-application settling times respect every constraint.
#[test]
fn round_robin_baseline_is_feasible() {
    let problem = fast_problem();
    let eval = problem
        .evaluate_schedule(&Schedule::round_robin(3).unwrap())
        .unwrap();
    let p_all = eval.overall_performance.expect("baseline feasible");
    assert!(p_all > 0.0 && p_all < 1.0);
    for (outcome, app) in eval.apps.iter().zip(problem.apps()) {
        assert!(outcome.settling_time < app.params.settling_deadline);
        assert!(outcome.controller.spectral_radius < 1.0);
        assert!(outcome.controller.max_input <= app.umax * (1.0 + 1e-9));
    }
}

/// A denser cache-aware schedule beats round-robin on overall
/// performance — the paper's headline claim, on a reduced budget.
#[test]
fn cache_aware_schedule_beats_round_robin() {
    let problem = fast_problem();
    let baseline = problem
        .evaluate_schedule(&Schedule::round_robin(3).unwrap())
        .unwrap()
        .overall_performance
        .expect("baseline feasible");
    // (1,2,2) is a known good cache-aware schedule for this case study.
    let aware = problem
        .evaluate_schedule(&Schedule::new(vec![1, 2, 2]).unwrap())
        .unwrap()
        .overall_performance
        .expect("cache-aware schedule feasible");
    assert!(
        aware > baseline,
        "cache-aware (1,2,2) P_all {aware} should beat round-robin {baseline}"
    );
}

/// Timing derivation sanity on the real WCETs: every application's
/// periods tile the schedule period, delays equal own WCETs and the idle
/// constraint calculation is consistent with Table II.
#[test]
fn timing_invariants_on_paper_wcets() {
    let problem = fast_problem();
    let exec = problem.exec_times();
    for counts in [vec![1, 1, 1], vec![2, 2, 2], vec![3, 2, 3], vec![4, 2, 2]] {
        let schedule = Schedule::new(counts).unwrap();
        let timing = derive_timing(&schedule.task_sequence(), exec).unwrap();
        for (i, at) in timing.apps.iter().enumerate() {
            assert_eq!(at.tasks() as u32, schedule.count_of(i));
            assert!((at.total() - timing.period).abs() < 1e-12);
            for (&d, &h) in at.delays.iter().zip(&at.periods) {
                assert!(d <= h + 1e-15);
            }
        }
        let params: Vec<_> = problem.apps().iter().map(|a| a.params.clone()).collect();
        // check_idle_times agrees with the problem's own feasibility view.
        let violations = check_idle_times(&timing, &params).unwrap();
        assert_eq!(
            violations.is_empty(),
            problem.idle_feasible_schedule(&schedule)
        );
    }
}

/// The custom-platform path works end-to-end (not just the paper's
/// platform).
#[test]
fn custom_platform_pipeline() {
    use cacs::cache::{CalibrationTarget, SyntheticProgram};
    use cacs::control::ContinuousLti;
    use cacs::core::AppSpec;
    use cacs::linalg::Matrix;
    use cacs::sched::AppParams;

    let platform = CacheConfig {
        lines: 64,
        miss_cycles: 50,
        ..CacheConfig::date18()
    };
    let program = SyntheticProgram::calibrate(
        CalibrationTarget {
            cold_cycles: 5_000,
            warm_cycles: 5_000 - 49 * 20,
        },
        &platform,
        0,
    )
    .unwrap();
    let plant = ContinuousLti::new(
        Matrix::from_rows(&[&[-120.0]]).unwrap(),
        Matrix::column(&[120.0]),
        Matrix::row(&[1.0]),
    )
    .unwrap();
    let problem = CodesignProblem::new(
        platform,
        vec![AppSpec {
            params: AppParams::new("solo", 1.0, 50e-3, 10e-3).unwrap(),
            plant,
            reference: 1.0,
            umax: 10.0,
            program: program.program().clone(),
        }],
        EvaluationConfig::fast(),
    )
    .unwrap();
    let eval = problem
        .evaluate_schedule(&Schedule::new(vec![1]).unwrap())
        .unwrap();
    assert!(eval.overall_performance.is_some());
}

/// The scientific anchor: the cold, schedule-seeded exhaustive sweep of
/// the paper case study enumerates 192 schedules, evaluates 77 and
/// finds 54 feasible, with best `(1,4,3)` at a fixed `P_all` bit
/// pattern. A CRC-32 of the full report digest pins every retained
/// objective's bits and the digest format itself. The constant is the
/// same under `CACS_THREADS=1`, so a parallel run that drifts from the
/// sequential one fails here without a second sweep.
#[test]
fn paper_sweep_matches_the_scientific_anchor() {
    let problem = fast_problem();
    let single = problem.optimize_exhaustive().unwrap();
    assert_eq!(
        (single.enumerated, single.evaluated, single.feasible),
        (192, 77, 54)
    );
    assert_eq!(single.best, Some(Schedule::new(vec![1, 4, 3]).unwrap()));
    assert_eq!(single.best_value.to_bits(), 0x3fc7_65a0_7803_13c0);
    assert_eq!(single.results.len(), 77);
    let digest = cacs::cli::report_digest(&problem.schedule_space().unwrap(), &single).unwrap();
    assert_eq!(
        cacs::search::integrity::crc32(digest.as_bytes()),
        0xfac3_0933,
        "paper report digest:\n{digest}"
    );
}
