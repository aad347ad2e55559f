//! Brute-force schedule search (the paper's verification baseline),
//! swept over the box in one parallel region.
//!
//! The sweep is embarrassingly parallel: every idle-feasible schedule is
//! an independent full evaluation. [`exhaustive_search_range`] opens a
//! single parallel region of up to `thread_budget()` **lanes**. Each
//! lane repeatedly claims the next block of
//! [`SweepConfig::dispatch_grain`] consecutive ranks from a shared claim
//! counter and, inside the block, enumerates, idle-filters, evaluates
//! and folds each schedule into its own partial report. A lane
//! enumerates with one schedule cursor, re-seeked to each claimed block
//! and stepped in place, and keeps no candidate buffer, so the sweep
//! allocates nothing per rank and memory stays constant no matter how
//! many million schedules the box holds. Claims are handed out in
//! increasing rank order, so each lane sees its ranks in enumeration
//! order and its strict-`>` running best is the first-seen best of the
//! ranks it swept. The caller folds the lane partials with
//! [`ExhaustiveReport::merge_owned`]
//! (the commutative, associative merge the distributed coordinator
//! also relies on), which makes the selected best schedule, its
//! tie-breaking, every counter and the retained results bit-identical
//! to a plain sequential loop over the box at any thread count and any
//! grain. Under `CACS_THREADS=1`, [`cacs_par::sequential`] or inside
//! another parallel region the lanes run inline on the calling thread,
//! one after another, so the first lane sweeps the whole range.

use crate::{Result, ScheduleEvaluator, ScheduleSpace, SearchError};
use cacs_sched::Schedule;

/// Tuning knobs for an exhaustive sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// Cap on how many evaluated `(schedule, objective)` pairs
    /// [`ExhaustiveReport::results`] retains (first-come in enumeration
    /// order). `None` keeps everything — fine for paper-sized boxes,
    /// an OOM for multi-million-schedule sweeps, which should pass
    /// `Some(0)` (counters and the best are always exact regardless).
    /// Each lane retains at most this many results of its own, so the
    /// memory high-water mark of a capped sweep is independent of the
    /// box size.
    pub max_results: Option<usize>,
    /// Ranks per lane claim: each lane takes this many consecutive
    /// ranks from the shared claim counter at a time. The default of 1
    /// load-balances expensive evaluators (full co-design runs, such as
    /// the paper's 77 evaluations); µs-scale synthetic objectives
    /// should raise it so the per-claim overhead (one atomic increment
    /// and one cursor seek) is amortised. Never affects the outcome,
    /// only the work-distribution granularity.
    pub dispatch_grain: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            max_results: None,
            dispatch_grain: 1,
        }
    }
}

impl SweepConfig {
    /// A constant-memory configuration for huge boxes: no per-schedule
    /// result retention.
    pub fn constant_memory() -> Self {
        SweepConfig {
            max_results: Some(0),
            ..SweepConfig::default()
        }
    }
}

/// Outcome of an exhaustive sweep over the schedule space (or, for a
/// sharded sweep, over one rank range of it — see
/// [`exhaustive_search_range`] and [`ExhaustiveReport::merge`]).
#[derive(Debug, Clone)]
pub struct ExhaustiveReport {
    /// Best feasible schedule (`None` if every schedule was infeasible).
    pub best: Option<Schedule>,
    /// Objective at [`ExhaustiveReport::best`].
    pub best_value: f64,
    /// Schedules enumerated in the box.
    pub enumerated: u64,
    /// Schedules passing the a-priori idle-time check — these are the
    /// ones that had to be *evaluated* (the paper's "76 schedules").
    pub evaluated: u64,
    /// Evaluated schedules that were fully feasible (the paper's "74").
    pub feasible: u64,
    /// Evaluated schedules with their objectives (`None` = violated the
    /// settling-deadline constraint), in enumeration order, truncated to
    /// [`SweepConfig::max_results`]. [`ExhaustiveReport::results_truncated`]
    /// says whether anything was dropped.
    pub results: Vec<(Schedule, Option<f64>)>,
    /// `true` when [`ExhaustiveReport::results`] holds fewer entries than
    /// were evaluated (retention was capped).
    pub results_truncated: bool,
}

/// The total order on best values used by [`ExhaustiveReport::merge`]:
/// non-NaN values numerically (±0.0 compare equal, exactly like the
/// sequential sweep's strict-`>` improvement rule treats them), every
/// non-NaN above every NaN, NaN-vs-NaN by raw `f64::to_bits` pattern
/// (the wire encoding).
fn merge_value_order(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.partial_cmp(&b).expect("both non-NaN"),
        (false, true) => std::cmp::Ordering::Greater,
        (true, false) => std::cmp::Ordering::Less,
        (true, true) => a.to_bits().cmp(&b.to_bits()),
    }
}

impl ExhaustiveReport {
    /// The identity of [`ExhaustiveReport::merge`]: a report over zero
    /// schedules — no best, zero counters, no results. Also exactly what
    /// [`exhaustive_search_range`] returns for an empty range.
    pub fn empty() -> Self {
        ExhaustiveReport {
            best: None,
            best_value: f64::NEG_INFINITY,
            enumerated: 0,
            evaluated: 0,
            feasible: 0,
            results: Vec::new(),
            results_truncated: false,
        }
    }

    /// Merges two partial reports over **disjoint** rank ranges of the
    /// same `space` into the report a single sweep over their union would
    /// have produced — bit-identically: the merged best keeps the
    /// sequential sweep's tie-breaking (equal objectives go to the
    /// lower-ranked schedule, i.e. the one a sequential sweep would have
    /// seen first), counters add, and retained results interleave back
    /// into enumeration order.
    ///
    /// The operation is **commutative** and **associative**, with
    /// [`ExhaustiveReport::empty`] as identity — shards can arrive in any
    /// order, be merged in any grouping (coordinator trees, checkpoint
    /// resume), and still reduce to the exact sequential result.
    ///
    /// # Ordering of best values (including NaN)
    ///
    /// Best selection uses a **total** order so the reduction stays
    /// commutative/associative on *any* input, including reports that
    /// arrive off the wire with pathological objectives:
    ///
    /// * non-NaN values compare numerically; an exact tie — including
    ///   `-0.0` vs `+0.0`, which the sequential sweep's strict
    ///   `>`-improvement also treats as a tie — goes to the lower rank
    ///   (the schedule a sequential sweep would have seen first);
    /// * any non-NaN best beats any NaN best (a sequential sweep never
    ///   selects a NaN best: NaN loses every strict comparison);
    /// * between two NaN bests, the larger raw bit pattern
    ///   (`f64::to_bits`, the wire encoding) wins, ties by lower rank —
    ///   an arbitrary but *defined* and documented order, so merging
    ///   NaN-bearing shards in any grouping yields one deterministic
    ///   result instead of undefined behaviour.
    ///
    /// For reports actually produced by [`exhaustive_search_range`] the
    /// NaN clauses are unreachable, and the result is bit-identical to
    /// the historical partial-order merge.
    ///
    /// # Panics
    ///
    /// Panics if a best/retained schedule of either report lies outside
    /// `space` — the reports being merged must come from sweeps over
    /// (ranges of) this very space.
    #[must_use = "merge returns the combined report without modifying its inputs"]
    pub fn merge(&self, other: &ExhaustiveReport, space: &ScheduleSpace) -> ExhaustiveReport {
        self.clone().merge_owned(other, space)
    }

    /// [`ExhaustiveReport::merge`] consuming the left operand: the
    /// accumulator's own results are *moved* into the merged report
    /// instead of deep-cloned, so folding many shards into a running
    /// report (the coordinator's per-lease path) costs one traversal per
    /// merge rather than re-cloning everything accumulated so far. Only
    /// `other`'s (per-shard, small) results are cloned.
    ///
    /// # Panics
    ///
    /// As [`ExhaustiveReport::merge`].
    #[must_use = "merge_owned returns the combined report"]
    pub fn merge_owned(self, other: &ExhaustiveReport, space: &ScheduleSpace) -> ExhaustiveReport {
        let rank_of = |s: &Schedule| {
            space
                .rank(s)
                .expect("merged reports must cover ranges of the given space")
        };
        // Best selection replicates the sequential reduction ("first
        // strict improvement in enumeration order") under the total
        // order documented on `merge`: numeric comparison with exact
        // ties (incl. ±0.0) to the lower rank, NaN below every number,
        // NaN-vs-NaN by raw bit pattern. Totality is what keeps the
        // reduction commutative and associative on *every* input.
        let (best, best_value) = match (self.best, &other.best) {
            (None, None) => (None, f64::NEG_INFINITY),
            (Some(a), None) => (Some(a), self.best_value),
            (None, Some(b)) => (Some(b.clone()), other.best_value),
            (Some(a), Some(b)) => {
                let keep_left = match merge_value_order(self.best_value, other.best_value) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => rank_of(&a) <= rank_of(b),
                };
                if keep_left {
                    (Some(a), self.best_value)
                } else {
                    (Some(b.clone()), other.best_value)
                }
            }
        };
        // Each report's results are already sorted by rank (enumeration
        // order within its range); a two-way merge restores global order.
        let mut results = Vec::with_capacity(self.results.len() + other.results.len());
        let mut mine = self.results.into_iter().peekable();
        let mut j = 0;
        while let Some((schedule, _)) = mine.peek() {
            if j >= other.results.len() {
                break;
            }
            if rank_of(schedule) <= rank_of(&other.results[j].0) {
                results.push(mine.next().expect("peeked"));
            } else {
                results.push(other.results[j].clone());
                j += 1;
            }
        }
        results.extend(mine);
        results.extend_from_slice(&other.results[j..]);

        ExhaustiveReport {
            best,
            best_value,
            enumerated: self.enumerated + other.enumerated,
            evaluated: self.evaluated + other.evaluated,
            feasible: self.feasible + other.feasible,
            results,
            results_truncated: self.results_truncated || other.results_truncated,
        }
    }

    /// `true` when the two reports agree **bit for bit**: same best
    /// schedule, same objective bit patterns (`f64::to_bits`, so
    /// `0.0`/`-0.0` and NaN payloads are distinguished), same counters,
    /// same retained results in the same order, same truncation flag.
    /// This is the equivalence the sharded and lane sweep machinery
    /// guarantees against the sequential sweep, and the single predicate
    /// every self-check and test asserts.
    pub fn bit_identical(&self, other: &ExhaustiveReport) -> bool {
        self.best == other.best
            && self.best_value.to_bits() == other.best_value.to_bits()
            && self.enumerated == other.enumerated
            && self.evaluated == other.evaluated
            && self.feasible == other.feasible
            && self.results_truncated == other.results_truncated
            && self.results.len() == other.results.len()
            && self
                .results
                .iter()
                .zip(&other.results)
                .all(|((sa, va), (sb, vb))| {
                    sa == sb && va.map(f64::to_bits) == vb.map(f64::to_bits)
                })
    }

    /// Re-applies a [`SweepConfig::max_results`]-style retention cap
    /// after merging: keeps the first `cap` results in enumeration order
    /// and recomputes [`ExhaustiveReport::results_truncated`] the way a
    /// single capped sweep would have set it (`true` exactly when fewer
    /// results are retained than schedules were evaluated). `None` leaves
    /// the results alone but still recomputes the flag.
    pub fn apply_retention(&mut self, cap: Option<usize>) {
        if let Some(cap) = cap {
            self.results.truncate(cap);
        }
        self.results_truncated = (self.results.len() as u64) < self.evaluated;
    }
}

/// Evaluates every idle-feasible schedule in the space and returns the
/// best (paper Section V's brute-force verification), using the default
/// [`SweepConfig`] — one-rank claims, full result retention.
///
/// # Errors
///
/// Returns [`SearchError::AppCountMismatch`] if evaluator and space
/// disagree on the application count.
///
/// # Example
///
/// ```
/// use cacs_search::{exhaustive_search, FnEvaluator, ScheduleSpace};
/// use cacs_sched::Schedule;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let eval = FnEvaluator::new(1, |s: &Schedule| Some(-(s.counts()[0] as f64 - 2.0).abs()));
/// let space = ScheduleSpace::new(vec![5])?;
/// let report = exhaustive_search(&eval, &space)?;
/// assert_eq!(report.best.as_ref().unwrap().counts(), &[2]);
/// assert_eq!(report.enumerated, 5);
/// # Ok(())
/// # }
/// ```
pub fn exhaustive_search<E: ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    space: &ScheduleSpace,
) -> Result<ExhaustiveReport> {
    exhaustive_search_with(evaluator, space, &SweepConfig::default())
}

/// [`exhaustive_search`] with explicit sweep knobs.
///
/// The box is swept in one parallel region: lanes claim blocks of
/// [`SweepConfig::dispatch_grain`] consecutive ranks and enumerate,
/// idle-filter, evaluate and reduce each block themselves, keeping no
/// candidate buffer, so peak memory is bounded by the retained results
/// (see [`SweepConfig::max_results`]) at any box size. The grain and
/// the thread count provably cannot change the outcome: each lane keeps
/// the first-seen strict improvement over its ranks, and the lane
/// partials merge with ties going to the lower rank, exactly like a
/// sequential loop over the whole box.
///
/// # Errors
///
/// Returns [`SearchError::AppCountMismatch`] if evaluator and space
/// disagree on the application count.
pub fn exhaustive_search_with<E: ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    space: &ScheduleSpace,
    config: &SweepConfig,
) -> Result<ExhaustiveReport> {
    exhaustive_search_range(evaluator, space, 0, space.len(), config)
}

/// Sweeps one **rank range** `[start, end)` of the space's lexicographic
/// enumeration — the shard primitive behind distributed sweeps: partition
/// `[0, space.len())` into ranges, sweep each independently (any process,
/// any host), then fold the partial reports back together with
/// [`ExhaustiveReport::merge`]. The result over a range is bit-identical
/// to what a full sweep contributes over those ranks; an empty range
/// (`start >= end`) yields [`ExhaustiveReport::empty`].
///
/// In-process the range is swept the same way, one level down: up to
/// `thread_budget()` lanes claim rank blocks from a shared counter (see
/// the module docs) and their partials are merged and re-capped with
/// [`ExhaustiveReport::apply_retention`].
///
/// `end` is clamped to `space.len()`.
///
/// # Errors
///
/// Returns [`SearchError::AppCountMismatch`] if evaluator and space
/// disagree on the application count.
pub fn exhaustive_search_range<E: ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    space: &ScheduleSpace,
    start: u64,
    end: u64,
    config: &SweepConfig,
) -> Result<ExhaustiveReport> {
    if evaluator.app_count() != space.app_count() {
        return Err(SearchError::AppCountMismatch {
            expected: evaluator.app_count(),
            actual: space.app_count(),
        });
    }
    let retain = config.max_results.unwrap_or(usize::MAX);
    // Each lane folds its ranks into one partial report. A lane's
    // successive claims have increasing ranks, so the strict-`>` rule
    // keeps its first-seen best and its retained results come out
    // sorted; capping them at `retain` is safe because the sweep's first
    // `retain` results are a subset of the lanes' first `retain`. The
    // lane's cursor is cloned only into the best or a retained result.
    let partials = space.fold_rank_blocks(
        start,
        end,
        config.dispatch_grain,
        ExhaustiveReport::empty,
        |part, schedule| {
            part.enumerated += 1;
            if !evaluator.idle_feasible(schedule) {
                return;
            }
            part.evaluated += 1;
            let value = evaluator.evaluate(schedule);
            if let Some(v) = value {
                part.feasible += 1;
                if v > part.best_value {
                    part.best_value = v;
                    part.best = Some(schedule.clone());
                }
            }
            if part.results.len() < retain {
                part.results.push((schedule.clone(), value));
            }
        },
    );
    let mut report = partials
        .into_iter()
        .reduce(|acc, part| acc.merge_owned(&part, space))
        .unwrap_or_else(ExhaustiveReport::empty);
    report.apply_retention(config.max_results);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnEvaluator;

    #[test]
    fn sweeps_the_whole_box() {
        let eval = FnEvaluator::new(2, |s: &Schedule| {
            let c = s.counts();
            Some(-((c[0] as f64 - 3.0).powi(2) + (c[1] as f64 - 2.0).powi(2)))
        });
        let space = ScheduleSpace::new(vec![4, 4]).unwrap();
        let r = exhaustive_search(&eval, &space).unwrap();
        assert_eq!(r.enumerated, 16);
        assert_eq!(r.evaluated, 16);
        assert_eq!(r.feasible, 16);
        assert!(!r.results_truncated);
        assert_eq!(r.results.len(), 16);
        assert_eq!(r.best.unwrap().counts(), &[3, 2]);
    }

    #[test]
    fn idle_infeasible_schedules_are_not_evaluated() {
        let eval = FnEvaluator::with_idle_check(
            2,
            |s: &Schedule| Some(f64::from(s.counts().iter().sum::<u32>())),
            |s: &Schedule| s.counts().iter().sum::<u32>() <= 4,
        );
        let space = ScheduleSpace::new(vec![3, 3]).unwrap();
        let r = exhaustive_search(&eval, &space).unwrap();
        assert_eq!(r.enumerated, 9);
        // Sums <= 4: (1,1),(1,2),(1,3),(2,1),(2,2),(3,1) = 6 schedules.
        assert_eq!(r.evaluated, 6);
        assert_eq!(r.best.unwrap().counts(), &[1, 3]); // ties broken by iteration order
    }

    #[test]
    fn deadline_violations_counted_separately() {
        // Evaluation returns None for the two corner schedules.
        let eval = FnEvaluator::new(2, |s: &Schedule| {
            let c = s.counts();
            if c[0] == 2 && c[1] == 2 {
                None
            } else {
                Some(f64::from(c[0] + c[1]))
            }
        });
        let space = ScheduleSpace::new(vec![2, 2]).unwrap();
        let r = exhaustive_search(&eval, &space).unwrap();
        assert_eq!(r.evaluated, 4);
        assert_eq!(r.feasible, 3);
        // (1,2) and (2,1) tie at 3; iteration order visits (1,2) first.
        assert_eq!(r.best.unwrap().counts(), &[1, 2]);
    }

    #[test]
    fn all_infeasible_yields_none() {
        let eval = FnEvaluator::new(1, |_: &Schedule| None);
        let space = ScheduleSpace::new(vec![3]).unwrap();
        let r = exhaustive_search(&eval, &space).unwrap();
        assert!(r.best.is_none());
        assert_eq!(r.feasible, 0);
        assert_eq!(r.evaluated, 3);
    }

    #[test]
    fn dispatch_grain_is_invisible_in_the_outcome() {
        let eval = FnEvaluator::with_idle_check(
            2,
            |s: &Schedule| {
                let c = s.counts();
                // Plateaus force tie-breaking through the reduction.
                Some(f64::from((c[0] + 2 * c[1]) % 5))
            },
            |s: &Schedule| s.counts().iter().sum::<u32>() % 7 != 0,
        );
        let space = ScheduleSpace::new(vec![6, 6]).unwrap();
        let reference = exhaustive_search_with(
            &eval,
            &space,
            &SweepConfig {
                dispatch_grain: usize::MAX,
                max_results: None,
            },
        )
        .unwrap();
        for grain in [1, 2, 3, 7, 36] {
            let r = exhaustive_search_with(
                &eval,
                &space,
                &SweepConfig {
                    dispatch_grain: grain,
                    max_results: None,
                },
            )
            .unwrap();
            assert_eq!(r.best, reference.best, "grain {grain}");
            assert_eq!(r.best_value.to_bits(), reference.best_value.to_bits());
            assert_eq!(r.enumerated, reference.enumerated);
            assert_eq!(r.evaluated, reference.evaluated);
            assert_eq!(r.feasible, reference.feasible);
            assert_eq!(r.results, reference.results);
        }
    }

    #[test]
    fn result_retention_is_bounded() {
        let eval = FnEvaluator::new(2, |s: &Schedule| Some(f64::from(s.counts()[0])));
        let space = ScheduleSpace::new(vec![4, 4]).unwrap();
        let full = exhaustive_search(&eval, &space).unwrap();

        let capped = exhaustive_search_with(
            &eval,
            &space,
            &SweepConfig {
                dispatch_grain: 3,
                max_results: Some(5),
            },
        )
        .unwrap();
        assert_eq!(capped.results.len(), 5);
        assert!(capped.results_truncated);
        assert_eq!(capped.results[..], full.results[..5]);
        assert_eq!(capped.best, full.best);
        assert_eq!(capped.evaluated, full.evaluated);
        assert_eq!(capped.feasible, full.feasible);

        let none = exhaustive_search_with(&eval, &space, &SweepConfig::constant_memory()).unwrap();
        assert!(none.results.is_empty());
        assert!(none.results_truncated);
        assert_eq!(none.best, full.best);

        // A cap that happens to cover everything is not "truncated".
        let roomy = exhaustive_search_with(
            &eval,
            &space,
            &SweepConfig {
                dispatch_grain: 4,
                max_results: Some(100),
            },
        )
        .unwrap();
        assert_eq!(roomy.results, full.results);
        assert!(!roomy.results_truncated);
    }

    #[test]
    fn a_range_ending_near_u64_max_stops_without_wrapping() {
        // The box's true size overflows u64, so `len()` saturates and
        // the last claims sit right below u64::MAX: block offsets past
        // the end must stop the lane instead of wrapping to rank 0.
        let eval = FnEvaluator::new(3, |s: &Schedule| Some(f64::from(s.counts()[2] % 3)));
        let space = ScheduleSpace::new(vec![u32::MAX; 3]).unwrap();
        assert_eq!(space.len(), u64::MAX);
        for grain in [1, 2, 4, usize::MAX] {
            let config = SweepConfig {
                dispatch_grain: grain,
                max_results: None,
            };
            let r =
                exhaustive_search_range(&eval, &space, u64::MAX - 5, u64::MAX, &config).unwrap();
            assert_eq!(r.enumerated, 5, "grain {grain}");
            assert_eq!(r.results.len(), 5);
            let ranks: Vec<u64> = r
                .results
                .iter()
                .map(|(s, _)| space.rank(s).unwrap())
                .collect();
            assert_eq!(ranks, (u64::MAX - 5..u64::MAX).collect::<Vec<_>>());
        }
    }

    #[test]
    fn app_count_mismatch() {
        let eval = FnEvaluator::new(2, |_: &Schedule| Some(0.0));
        let space = ScheduleSpace::new(vec![3]).unwrap();
        assert!(matches!(
            exhaustive_search(&eval, &space),
            Err(SearchError::AppCountMismatch { .. })
        ));
    }

    fn assert_identical(a: &ExhaustiveReport, b: &ExhaustiveReport, context: &str) {
        // Best first for a readable diagnostic; the full bit-for-bit
        // comparison is centralised in ExhaustiveReport::bit_identical.
        assert_eq!(a.best, b.best, "{context}: best schedule");
        assert!(
            a.bit_identical(b),
            "{context}: reports differ bitwise:\n{a:?}\nvs\n{b:?}"
        );
    }

    /// A tie-heavy evaluator with idle filtering and deadline violations,
    /// so range splits exercise every report component.
    fn gnarly(
    ) -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync, impl Fn(&Schedule) -> bool + Sync>
    {
        FnEvaluator::with_idle_check(
            2,
            |s: &Schedule| {
                let c = s.counts();
                let mix = u64::from(c[0]) * 31 + u64::from(c[1]) * 17;
                if mix % 13 == 0 {
                    None
                } else {
                    Some((mix % 5) as f64 * 0.25)
                }
            },
            |s: &Schedule| s.counts().iter().sum::<u32>() % 7 != 0,
        )
    }

    #[test]
    fn range_sweeps_merge_to_the_full_sweep() {
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![6, 7]).unwrap();
        let full = exhaustive_search(&eval, &space).unwrap();
        let config = SweepConfig::default();
        // Every 2-way and a 3-way split of [0, 42).
        for cut in 0..=space.len() {
            let lo = exhaustive_search_range(&eval, &space, 0, cut, &config).unwrap();
            let hi = exhaustive_search_range(&eval, &space, cut, space.len(), &config).unwrap();
            assert_identical(&lo.merge(&hi, &space), &full, &format!("cut {cut}"));
            // Merge order must not matter.
            assert_identical(&hi.merge(&lo, &space), &full, &format!("swapped cut {cut}"));
        }
        let a = exhaustive_search_range(&eval, &space, 0, 10, &config).unwrap();
        let b = exhaustive_search_range(&eval, &space, 10, 29, &config).unwrap();
        let c = exhaustive_search_range(&eval, &space, 29, space.len(), &config).unwrap();
        // Out-of-order, re-grouped reduction.
        let merged = c.merge(&a, &space).merge(&b, &space);
        assert_identical(&merged, &full, "3-way out of order");
    }

    #[test]
    fn empty_range_is_the_merge_identity() {
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![5, 5]).unwrap();
        let full = exhaustive_search(&eval, &space).unwrap();
        let nothing =
            exhaustive_search_range(&eval, &space, 7, 7, &SweepConfig::default()).unwrap();
        assert_identical(&nothing, &ExhaustiveReport::empty(), "empty range");
        assert_identical(&full.merge(&nothing, &space), &full, "right identity");
        assert_identical(&nothing.merge(&full, &space), &full, "left identity");
        // Ranges beyond the box are clamped to empty.
        let beyond = exhaustive_search_range(
            &eval,
            &space,
            space.len().saturating_add(3),
            u64::MAX,
            &SweepConfig::default(),
        )
        .unwrap();
        assert_identical(&beyond, &ExhaustiveReport::empty(), "beyond the box");
    }

    #[test]
    fn merge_breaks_ties_toward_the_lower_rank() {
        // Constant objective: everything ties, so the merged best must be
        // the lowest-ranked schedule regardless of merge order.
        let eval = FnEvaluator::new(2, |_: &Schedule| Some(0.5));
        let space = ScheduleSpace::new(vec![3, 3]).unwrap();
        let config = SweepConfig::default();
        let lo = exhaustive_search_range(&eval, &space, 0, 4, &config).unwrap();
        let hi = exhaustive_search_range(&eval, &space, 4, 9, &config).unwrap();
        assert_eq!(lo.merge(&hi, &space).best.unwrap().counts(), &[1, 1]);
        assert_eq!(hi.merge(&lo, &space).best.unwrap().counts(), &[1, 1]);
    }

    /// Hand-crafts a shard report with a given best (the NaN cases can
    /// never come out of `exhaustive_search_range` itself).
    fn report_with_best(space: &ScheduleSpace, rank: u64, value: f64) -> ExhaustiveReport {
        let mut r = ExhaustiveReport::empty();
        r.best = Some(space.unrank(rank).unwrap());
        r.best_value = value;
        r.enumerated = 1;
        r.evaluated = 1;
        r.feasible = 1;
        r
    }

    #[test]
    fn merge_orders_nan_below_every_number() {
        let space = ScheduleSpace::new(vec![4, 4]).unwrap();
        let nan = report_with_best(&space, 9, f64::NAN);
        let low = report_with_best(&space, 3, -1e300);
        let neg_inf = report_with_best(&space, 5, f64::NEG_INFINITY);
        // Any real number — even -inf — beats a NaN best, either way round.
        assert_eq!(nan.merge(&low, &space).best, low.best);
        assert_eq!(low.merge(&nan, &space).best, low.best);
        assert_eq!(nan.merge(&neg_inf, &space).best, neg_inf.best);
        assert_eq!(neg_inf.merge(&nan, &space).best, neg_inf.best);
        // +inf wins over every finite value as usual.
        let pos_inf = report_with_best(&space, 7, f64::INFINITY);
        assert_eq!(pos_inf.merge(&low, &space).best, pos_inf.best);
    }

    #[test]
    fn merge_nan_vs_nan_is_deterministic_by_bit_pattern() {
        let space = ScheduleSpace::new(vec![4, 4]).unwrap();
        let quiet = report_with_best(&space, 2, f64::from_bits(0x7ff8_0000_0000_0000));
        let payload = report_with_best(&space, 11, f64::from_bits(0x7ff8_0000_0000_0001));
        // Larger bit pattern wins, independent of merge order.
        let ab = quiet.merge(&payload, &space);
        let ba = payload.merge(&quiet, &space);
        assert_eq!(ab.best, payload.best);
        assert_eq!(ab.best, ba.best);
        assert_eq!(ab.best_value.to_bits(), ba.best_value.to_bits());
        // Identical NaN bits tie → lower rank.
        let same_bits = report_with_best(&space, 1, f64::from_bits(0x7ff8_0000_0000_0000));
        assert_eq!(quiet.merge(&same_bits, &space).best, same_bits.best);
        assert_eq!(same_bits.merge(&quiet, &space).best, same_bits.best);
    }

    #[test]
    fn merge_signed_zero_ties_break_by_rank() {
        // The sequential sweep's strict-`>` rule treats -0.0 and +0.0 as
        // a tie (first seen wins); the merge order must agree — a
        // bit-pattern comparison here would wrongly prefer +0.0.
        let space = ScheduleSpace::new(vec![4, 4]).unwrap();
        let neg = report_with_best(&space, 2, -0.0);
        let pos = report_with_best(&space, 6, 0.0);
        assert_eq!(neg.merge(&pos, &space).best, neg.best);
        assert_eq!(pos.merge(&neg, &space).best, neg.best);
        // The winning report's own bit pattern is preserved.
        assert_eq!(
            neg.merge(&pos, &space).best_value.to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn apply_retention_matches_a_capped_sweep() {
        let eval = gnarly();
        let space = ScheduleSpace::new(vec![6, 7]).unwrap();
        for cap in [0usize, 3, 100] {
            let capped = exhaustive_search_with(
                &eval,
                &space,
                &SweepConfig {
                    max_results: Some(cap),
                    ..SweepConfig::default()
                },
            )
            .unwrap();
            let lo =
                exhaustive_search_range(&eval, &space, 0, 20, &SweepConfig::default()).unwrap();
            let hi =
                exhaustive_search_range(&eval, &space, 20, space.len(), &SweepConfig::default())
                    .unwrap();
            let mut merged = lo.merge(&hi, &space);
            merged.apply_retention(Some(cap));
            assert_identical(&merged, &capped, &format!("cap {cap}"));
        }
    }
}
