//! The resume contract, end to end and in-process: a hybrid multistart
//! run killed mid-flight (a panicking evaluator — the worst case, since
//! it also poisons the shared cache's locks) leaves every completed
//! evaluation durable in the [`EvalStore`]; resuming with the same
//! store reproduces the uninterrupted run's reports **bit for bit**
//! while executing exactly `uninterrupted − stored` fresh evaluations.

#![allow(clippy::unwrap_used)] // tests unwrap freely

use cacs_sched::Schedule;
use cacs_search::{
    run_multistart, EvalStore, FnEvaluator, HybridConfig, ScheduleEvaluator, ScheduleSpace,
    SearchError, StrategyConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A deterministic, plateau-rich objective with infeasibility holes —
/// enough structure that the searches take many steps.
fn objective(s: &Schedule) -> Option<f64> {
    let c = s.counts();
    let mix = u64::from(c[0]) * 31 + u64::from(c[1]) * 17 + u64::from(c[2]) * 3;
    if mix % 23 == 0 {
        None
    } else {
        let (a, b, d) = (f64::from(c[0]), f64::from(c[1]), f64::from(c[2]));
        Some(1.0 - 0.01 * ((a - 9.0).powi(2) + (b - 4.0).powi(2) + (d - 11.0).powi(2)))
    }
}

fn evaluator() -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync> {
    FnEvaluator::new(3, objective)
}

/// Delegates to [`objective`] but panics on its `panic_at`-th call —
/// the in-process stand-in for a process killed mid-multistart.
struct PanicAt {
    calls: AtomicUsize,
    panic_at: usize,
}

impl ScheduleEvaluator for PanicAt {
    fn app_count(&self) -> usize {
        3
    }
    fn evaluate(&self, s: &Schedule) -> Option<f64> {
        if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.panic_at {
            panic!("injected mid-multistart death");
        }
        objective(s)
    }
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cacs-search-resume-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("evals.store")
}

fn starts() -> Vec<Schedule> {
    vec![
        Schedule::new(vec![2, 2, 2]).unwrap(),
        Schedule::new(vec![14, 3, 1]).unwrap(),
        Schedule::new(vec![5, 5, 15]).unwrap(),
    ]
}

#[test]
fn killed_multistart_resumes_bit_identically_with_fewer_fresh_evaluations() {
    let space = ScheduleSpace::new(vec![16, 8, 16]).unwrap();
    let starts = starts();
    let strategy = StrategyConfig::Hybrid(HybridConfig::default());

    // The uninterrupted reference run (no store, fresh cache).
    let eval = evaluator();
    let reference = run_multistart(&eval, &space, &starts, &strategy, None).unwrap();
    let reference_fresh = reference.fresh_evaluations;
    assert!(
        reference_fresh > 12,
        "objective too easy to exercise resume"
    );

    // Phase 1: one evaluation panics mid-run. The sibling searches must
    // finish (poison recovery) and everything completed must be durable.
    let path = temp_store("kill");
    let store = EvalStore::open(&path, "resume-test", &space).unwrap();
    let dying = PanicAt {
        calls: AtomicUsize::new(0),
        panic_at: 9,
    };
    let killed = run_multistart(&dying, &space, &starts, &strategy, Some(&store));
    assert!(matches!(killed, Err(SearchError::SearchPanicked { .. })));
    let stored = store.len();
    assert!(
        stored >= 8,
        "everything evaluated before the panic must be journalled (got {stored})"
    );
    drop(store);

    // Phase 2: resume with a healthy evaluator and the same store.
    let store = EvalStore::open(&path, "resume-test", &space).unwrap();
    assert_eq!(store.len(), stored, "journal replay lost records");
    let eval = evaluator();
    let resumed = run_multistart(&eval, &space, &starts, &strategy, Some(&store)).unwrap();

    // Bit-identical reports: best schedule, objective bits, Section-V
    // evaluation counts and full trajectories.
    assert_eq!(resumed.reports.len(), reference.reports.len());
    for (i, (r, q)) in resumed.reports.iter().zip(&reference.reports).enumerate() {
        assert_eq!(r.best, q.best, "search {i}: best schedule");
        assert_eq!(
            r.best_value.to_bits(),
            q.best_value.to_bits(),
            "search {i}: objective bits"
        );
        assert_eq!(r.evaluations, q.evaluations, "search {i}: cost metric");
        assert_eq!(r.trajectory, q.trajectory, "search {i}: trajectory");
    }

    // Exact evaluation accounting: everything the killed run persisted
    // is work the resumed run does not repeat — no more, no less. (The
    // stored set is a subset of the deterministic request set, so the
    // saving is exactly the store size.)
    assert_eq!(resumed.warm_started, stored);
    assert_eq!(resumed.fresh_evaluations, reference_fresh - stored);
    assert!(resumed.fresh_evaluations < reference_fresh);
    assert_eq!(resumed.unique_evaluations, reference.unique_evaluations);

    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn fully_completed_run_resumes_with_zero_fresh_evaluations() {
    let space = ScheduleSpace::new(vec![16, 8, 16]).unwrap();
    let starts = starts();
    let strategy = StrategyConfig::Hybrid(HybridConfig::default());
    let path = temp_store("complete");

    let store = EvalStore::open(&path, "resume-test", &space).unwrap();
    let eval = evaluator();
    let first = run_multistart(&eval, &space, &starts, &strategy, Some(&store)).unwrap();
    assert!(first.fresh_evaluations > 0);
    drop(store);

    let store = EvalStore::open(&path, "resume-test", &space).unwrap();
    let eval = evaluator();
    let second = run_multistart(&eval, &space, &starts, &strategy, Some(&store)).unwrap();
    assert_eq!(second.fresh_evaluations, 0);
    assert_eq!(second.unique_evaluations, first.unique_evaluations);
    for (r, q) in second.reports.iter().zip(&first.reports) {
        assert_eq!(r.best, q.best);
        assert_eq!(r.best_value.to_bits(), q.best_value.to_bits());
        assert_eq!(r.evaluations, q.evaluations);
    }
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn store_for_a_different_space_is_refused() {
    let path = temp_store("wrong-space");
    let store_space = ScheduleSpace::new(vec![4, 4, 4]).unwrap();
    let store = EvalStore::open(&path, "resume-test", &store_space).unwrap();
    let search_space = ScheduleSpace::new(vec![16, 8, 16]).unwrap();
    let eval = evaluator();
    let strategy = StrategyConfig::Hybrid(HybridConfig::default());
    let result = run_multistart(&eval, &search_space, &starts(), &strategy, Some(&store));
    assert!(matches!(
        result,
        Err(SearchError::Store(
            cacs_search::StoreError::SpaceMismatch { .. }
        ))
    ));
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}
