//! Shared plumbing of the `cacs-opt` binary: problem specifications and
//! the stable, bit-exact digests it prints.
//!
//! A run is launched against a *problem specification* string, which
//! also names the run's persistent state (an evaluation store is
//! addressed by [`ProblemSpec::digest`]):
//!
//! * `paper-fast` / `paper-full` — the paper case study under the
//!   reduced resp. paper-accuracy synthesis budget,
//! * `synthetic:<m1>x<m2>x…` — the ns-scale surrogate objective of the
//!   streaming benchmark ([`cacs_distrib::synthetic::surrogate`]) over
//!   the given box.

use cacs_core::{CodesignProblem, EvaluationConfig};
use cacs_sched::Schedule;
use cacs_search::{ExhaustiveReport, ScheduleEvaluator, ScheduleSpace};
use std::error::Error;

pub mod driver;
pub mod metrics;

/// A parsed `--problem` argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemSpec {
    /// Paper case study, reduced synthesis budget.
    PaperFast,
    /// Paper case study, paper-accuracy synthesis budget.
    PaperFull,
    /// Synthetic surrogate over an explicit box.
    Synthetic(Vec<u32>),
}

impl ProblemSpec {
    /// Parses a `--problem` argument.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown specs or malformed boxes.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "paper-fast" => Ok(ProblemSpec::PaperFast),
            "paper-full" => Ok(ProblemSpec::PaperFull),
            _ => match spec.strip_prefix("synthetic:") {
                Some(dims) => Ok(ProblemSpec::Synthetic(
                    cacs_distrib::synthetic::parse_box(dims)?,
                )),
                None => Err(format!(
                    "unknown problem {spec:?}; expected paper-fast, paper-full or synthetic:<m1>x<m2>x…"
                )),
            },
        }
    }

    /// The canonical digest naming this problem — the address of an
    /// evaluation store: two processes resolve the same digest to the
    /// same objective, so a store written under it can be resumed
    /// safely, and one written under any other digest is refused with a
    /// typed error.
    pub fn digest(&self) -> String {
        match self {
            ProblemSpec::PaperFast => "paper-fast".to_string(),
            ProblemSpec::PaperFull => "paper-full".to_string(),
            ProblemSpec::Synthetic(dims) => {
                let dims: Vec<String> = dims.iter().map(ToString::to_string).collect();
                format!("synthetic:{}", dims.join("x"))
            }
        }
    }

    /// Builds the evaluator this spec describes (what a run searches
    /// with, and what `--selfcheck` reruns against).
    ///
    /// # Errors
    ///
    /// Propagates case-study construction failures.
    pub fn evaluator(&self) -> Result<Box<dyn ScheduleEvaluator>, Box<dyn Error>> {
        self.evaluator_with_cache(true)
    }

    /// [`ProblemSpec::evaluator`] with the evaluation memo caches
    /// toggled explicitly (`--no-eval-cache` passes `false`). Disabling
    /// gives the reference cache-free path; results are bit-identical
    /// either way — `tests/eval_cache_neutrality.rs`
    /// enforce it on the digest bytes. Every application's PSO is seeded from the
    /// evaluated schedule alone, so results never depend on evaluation
    /// order. The synthetic surrogate has no caches, so the flag is a
    /// no-op there.
    ///
    /// # Errors
    ///
    /// Propagates case-study construction failures.
    pub fn evaluator_with_cache(
        &self,
        eval_cache: bool,
    ) -> Result<Box<dyn ScheduleEvaluator>, Box<dyn Error>> {
        Ok(self.instance(eval_cache)?.1)
    }

    /// Derives the schedule space a run searches.
    ///
    /// # Errors
    ///
    /// Propagates space-derivation failures.
    pub fn space(&self) -> Result<ScheduleSpace, Box<dyn Error>> {
        Ok(self.instance(true)?.0)
    }

    /// The schedule space and the evaluator of one run, from a single
    /// problem build (the paper problem's case study and WCET analysis
    /// run once): the space is derived from the very problem that then
    /// evaluates. `eval_cache` as in [`ProblemSpec::evaluator_with_cache`].
    ///
    /// # Errors
    ///
    /// Propagates case-study construction and space-derivation failures.
    pub fn instance(
        &self,
        eval_cache: bool,
    ) -> Result<(ScheduleSpace, Box<dyn ScheduleEvaluator>), Box<dyn Error>> {
        let config = match self {
            ProblemSpec::PaperFast => EvaluationConfig::fast(),
            ProblemSpec::PaperFull => EvaluationConfig::default(),
            ProblemSpec::Synthetic(dims) => {
                return Ok((
                    ScheduleSpace::new(dims.clone())?,
                    Box::new(cacs_distrib::synthetic::surrogate(dims.len())),
                ));
            }
        };
        let mut problem = paper_problem(config)?;
        let space = problem.schedule_space()?;
        if !eval_cache {
            problem.set_eval_cache(false);
        }
        Ok((space, Box::new(problem)))
    }
}

fn paper_problem(config: EvaluationConfig) -> Result<CodesignProblem, Box<dyn Error>> {
    let study = cacs_apps::paper_case_study()?;
    Ok(CodesignProblem::from_case_study(&study, config)?)
}

/// A parsed `--strategy` argument: which search strategy the unified
/// engine runs. Defaults come from the corresponding
/// [`cacs_search::StrategyConfig`] variant's config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// The paper's hybrid gradient search (Section IV).
    Hybrid,
    /// Simulated annealing.
    Anneal,
    /// Genetic algorithm.
    Genetic,
    /// Tabu search.
    Tabu,
}

impl StrategyKind {
    /// Every strategy, in canonical (paper Section V) order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::Hybrid,
        StrategyKind::Anneal,
        StrategyKind::Genetic,
        StrategyKind::Tabu,
    ];

    /// Parses a `--strategy` argument.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown strategy names.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "hybrid" => Ok(StrategyKind::Hybrid),
            "anneal" => Ok(StrategyKind::Anneal),
            "genetic" => Ok(StrategyKind::Genetic),
            "tabu" => Ok(StrategyKind::Tabu),
            _ => Err(format!(
                "unknown strategy {spec:?}; expected hybrid, anneal, genetic or tabu"
            )),
        }
    }

    /// Canonical lower-case name (what [`StrategyKind::parse`] accepts).
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Hybrid => "hybrid",
            StrategyKind::Anneal => "anneal",
            StrategyKind::Genetic => "genetic",
            StrategyKind::Tabu => "tabu",
        }
    }

    /// Upper-case digest header label. For [`StrategyKind::Hybrid`]
    /// this is `HYBRID` — the pre-engine hybrid-only header — so
    /// refactoring onto the unified engine changed no byte of the
    /// hybrid digest.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Hybrid => "HYBRID",
            StrategyKind::Anneal => "ANNEAL",
            StrategyKind::Genetic => "GENETIC",
            StrategyKind::Tabu => "TABU",
        }
    }
}

/// The enumeration rank of `schedule` in `space`, or an error naming a
/// schedule that lies outside it.
fn rank_in(space: &ScheduleSpace, schedule: &Schedule) -> Result<u64, Box<dyn Error>> {
    space
        .rank(schedule)
        .ok_or_else(|| format!("schedule {schedule} outside the space").into())
}

/// Renders an exhaustive report as a stable, bit-exact textual digest:
/// two reports are byte-identical here if and only if they agree on
/// every counter, the best schedule, and every retained objective's bit
/// pattern. Schedules appear as enumeration ranks and objectives as
/// 16-hex `f64` bit patterns. The CI smoke job and the scientific-anchor
/// test compare these bytes.
///
/// ```text
/// REPORT 0 <enumerated> <evaluated> <feasible> <rank>:<bits>|none <truncated 0|1> <nresults>
/// R <rank> <bits>|none
/// DONE 0
/// ```
///
/// with one `R` line per retained result, in report order.
///
/// # Errors
///
/// Returns an error when the report holds a schedule outside `space`
/// (it has no rank).
pub fn report_digest(
    space: &ScheduleSpace,
    report: &ExhaustiveReport,
) -> Result<String, Box<dyn Error>> {
    let best = match &report.best {
        Some(s) => format!(
            "{}:{:016x}",
            rank_in(space, s)?,
            report.best_value.to_bits()
        ),
        None => "none".to_string(),
    };
    let mut digest = format!(
        "REPORT 0 {} {} {} {best} {} {}\n",
        report.enumerated,
        report.evaluated,
        report.feasible,
        u8::from(report.results_truncated),
        report.results.len()
    );
    for (schedule, value) in &report.results {
        let value = match value {
            Some(v) => format!("{:016x}", v.to_bits()),
            None => "none".to_string(),
        };
        digest.push_str(&format!("R {} {value}\n", rank_in(space, schedule)?));
    }
    digest.push_str("DONE 0\n");
    Ok(digest)
}

/// Renders a multistart's results as a stable, bit-exact textual
/// digest (ranks + 16-hex `f64` bit patterns, as in [`report_digest`]):
/// two runs are byte-identical here if and only if every search found the
/// same best schedule with the same objective bits at the same
/// Section-V evaluation cost. This is the currency of the resume
/// contract — a resumed run's digest must equal the uninterrupted
/// run's; `cacs-opt --selfcheck` and the CI smoke job compare these
/// bytes. Fresh-evaluation counts are deliberately **not** part of the
/// digest (they are exactly what resume changes).
///
/// ```text
/// <LABEL> <nstarts>
/// SEARCH <i> <start-rank> <rank>:<bits>|none <evaluations>
/// BEST <rank>:<bits>|none
/// DONE
/// ```
///
/// The header carries the strategy's [`StrategyKind::label`] (so
/// digests of different strategies can never be confused for one
/// another). For [`StrategyKind::Hybrid`] the output is byte-identical
/// to the pre-engine hybrid digest.
///
/// # Errors
///
/// Returns an error when a start or best schedule lies outside `space`
/// (it has no rank).
pub fn multistart_digest(
    strategy: StrategyKind,
    space: &ScheduleSpace,
    starts: &[Schedule],
    reports: &[cacs_search::SearchReport],
) -> Result<String, Box<dyn Error>> {
    let mut digest = format!("{} {}\n", strategy.label(), reports.len());
    let mut best: Option<(u64, u64)> = None;
    for (i, (start, report)) in starts.iter().zip(reports).enumerate() {
        let found = match &report.best {
            Some(s) => {
                let pair = (rank_in(space, s)?, report.best_value.to_bits());
                // Replicates the run-level selection: strictly greater
                // wins, first start wins ties (start order is part of
                // the run's definition).
                if report.best_value.is_finite()
                    && best.is_none_or(|(_, b)| report.best_value > f64::from_bits(b))
                {
                    best = Some(pair);
                }
                format!("{}:{:016x}", pair.0, pair.1)
            }
            None => "none".to_string(),
        };
        digest.push_str(&format!(
            "SEARCH {i} {} {found} {}\n",
            rank_in(space, start)?,
            report.evaluations
        ));
    }
    match best {
        Some((rank, bits)) => digest.push_str(&format!("BEST {rank}:{bits:016x}\n")),
        None => digest.push_str("BEST none\n"),
    }
    digest.push_str("DONE\n");
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse() {
        assert_eq!(ProblemSpec::parse("paper-fast"), Ok(ProblemSpec::PaperFast));
        assert_eq!(ProblemSpec::parse("paper-full"), Ok(ProblemSpec::PaperFull));
        assert_eq!(
            ProblemSpec::parse("synthetic:24x24x24"),
            Ok(ProblemSpec::Synthetic(vec![24, 24, 24]))
        );
        assert!(ProblemSpec::parse("bogus").is_err());
        assert!(ProblemSpec::parse("synthetic:0x4").is_err());
    }

    #[test]
    fn synthetic_spec_builds_consistent_parts() {
        let spec = ProblemSpec::parse("synthetic:5x6x7").unwrap();
        let space = spec.space().unwrap();
        assert_eq!(space.max_counts(), &[5, 6, 7]);
        let eval = spec.evaluator().unwrap();
        assert_eq!(eval.app_count(), 3);
    }

    #[test]
    fn one_problem_build_gives_the_space_and_its_evaluator() {
        for spec in ["paper-fast", "synthetic:5x6x7"] {
            let spec = ProblemSpec::parse(spec).unwrap();
            for eval_cache in [true, false] {
                let (space, eval) = spec.instance(eval_cache).unwrap();
                assert_eq!(space, spec.space().unwrap(), "{spec:?}");
                assert_eq!(eval.app_count(), space.app_count(), "{spec:?}");
            }
        }
    }

    #[test]
    fn problem_digest_is_canonical() {
        assert_eq!(
            ProblemSpec::parse("paper-fast").unwrap().digest(),
            "paper-fast"
        );
        let spec = ProblemSpec::parse("synthetic:24x24x24").unwrap();
        assert_eq!(spec.digest(), "synthetic:24x24x24");
        // Round-trips through parse: the digest is itself a valid spec.
        assert_eq!(ProblemSpec::parse(&spec.digest()), Ok(spec));
    }

    #[test]
    fn hybrid_digest_is_byte_stable_and_rank_addressed() {
        let spec = ProblemSpec::parse("synthetic:6x6x6").unwrap();
        let space = spec.space().unwrap();
        let eval = spec.evaluator().unwrap();
        let starts = vec![
            cacs_sched::Schedule::new(vec![2, 2, 2]).unwrap(),
            cacs_sched::Schedule::new(vec![5, 1, 3]).unwrap(),
        ];
        let reports = cacs_search::run_multistart(
            eval.as_ref(),
            &space,
            &starts,
            &cacs_search::StrategyConfig::Hybrid(cacs_search::HybridConfig::default()),
            None,
        )
        .unwrap()
        .reports;
        let a = multistart_digest(StrategyKind::Hybrid, &space, &starts, &reports).unwrap();
        let b = multistart_digest(StrategyKind::Hybrid, &space, &starts, &reports).unwrap();
        assert_eq!(a, b);
        assert!(a.starts_with("HYBRID 2\nSEARCH 0 "));
        assert!(a.trim_end().ends_with("DONE"));
        assert!(a.contains("\nBEST "));
    }

    /// Golden pin of the refactored hybrid digest to the **pre-engine**
    /// bytes: these strings were captured from the hybrid-only binary
    /// before the unified strategy engine existed. If this
    /// test fails, the engine refactor changed observable hybrid
    /// behaviour — which the whole PR contract forbids.
    #[test]
    fn hybrid_digest_pins_pre_engine_bytes() {
        let cases: [(&str, &[&[u32]], &str); 2] = [
            (
                "synthetic:16x16x16",
                &[&[8, 8, 8], &[2, 3, 4]],
                "HYBRID 2\n\
                 SEARCH 0 1911 1896:3fee700000000000 16\n\
                 SEARCH 1 291 259:3fe6ea0000000000 16\n\
                 BEST 1896:3fee700000000000\n\
                 DONE\n",
            ),
            (
                "synthetic:6x6x6",
                &[&[2, 2, 2], &[5, 1, 3]],
                "HYBRID 2\n\
                 SEARCH 0 43 44:3fee6a0000000000 12\n\
                 SEARCH 1 146 146:3fec220000000000 6\n\
                 BEST 44:3fee6a0000000000\n\
                 DONE\n",
            ),
        ];
        for (problem, starts, golden) in cases {
            let spec = ProblemSpec::parse(problem).unwrap();
            let space = spec.space().unwrap();
            let eval = spec.evaluator().unwrap();
            let starts: Vec<cacs_sched::Schedule> = starts
                .iter()
                .map(|c| cacs_sched::Schedule::new(c.to_vec()).unwrap())
                .collect();
            let outcome = cacs_search::run_multistart(
                eval.as_ref(),
                &space,
                &starts,
                &cacs_search::StrategyConfig::Hybrid(cacs_search::HybridConfig::default()),
                None,
            )
            .unwrap();
            let digest =
                multistart_digest(StrategyKind::Hybrid, &space, &starts, &outcome.reports).unwrap();
            assert_eq!(
                digest, golden,
                "{problem}: digest drifted from pre-engine bytes"
            );
        }
    }

    /// Golden pin of the report digest's line format: ranks, 16-hex bit
    /// patterns, `none` for infeasible objectives and for a report with
    /// no best, and the truncation flag of a capped sweep.
    /// `tests/pipeline_integration.rs` pins the paper sweep's digest by
    /// CRC.
    #[test]
    fn report_digest_pins_its_line_format() {
        use cacs_search::{exhaustive_search_with, FnEvaluator, SweepConfig};
        let space = ScheduleSpace::new(vec![3, 4]).unwrap();
        let mixed = FnEvaluator::with_idle_check(
            2,
            |s: &Schedule| {
                let c = s.counts();
                if (c[0] + c[1]).is_multiple_of(5) {
                    None
                } else {
                    Some(f64::from(c[0] * 7 + c[1] * 3) / 10.0 - 1.5)
                }
            },
            |s: &Schedule| s.counts().iter().sum::<u32>() % 4 != 0,
        );
        let infeasible = FnEvaluator::new(2, |_: &Schedule| None);
        let digest = |eval: &dyn ScheduleEvaluator, max_results| {
            let config = SweepConfig {
                max_results,
                ..SweepConfig::default()
            };
            let report = exhaustive_search_with(eval, &space, &config).unwrap();
            report_digest(&space, &report).unwrap()
        };
        assert_eq!(
            digest(&mixed, None),
            "REPORT 0 12 9 6 11:3ffccccccccccccc 0 9\n\
             R 0 bfe0000000000000\n\
             R 1 bfc9999999999998\n\
             R 3 none\n\
             R 4 3fc9999999999998\n\
             R 6 none\n\
             R 7 3ff199999999999a\n\
             R 9 none\n\
             R 10 3ff8000000000000\n\
             R 11 3ffccccccccccccc\n\
             DONE 0\n"
        );
        assert_eq!(
            digest(&mixed, Some(3)),
            "REPORT 0 12 9 6 11:3ffccccccccccccc 1 3\n\
             R 0 bfe0000000000000\n\
             R 1 bfc9999999999998\n\
             R 3 none\n\
             DONE 0\n"
        );
        assert_eq!(
            digest(&infeasible, Some(0)),
            "REPORT 0 12 12 0 none 1 0\nDONE 0\n"
        );
    }

    #[test]
    fn strategy_kinds_parse_and_label() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(kind.name()), Ok(kind));
            assert_eq!(kind.label().to_lowercase(), kind.name());
        }
        assert!(StrategyKind::parse("bogus").is_err());
    }

    #[test]
    fn multistart_digest_headers_distinguish_strategies() {
        let spec = ProblemSpec::parse("synthetic:6x6x6").unwrap();
        let space = spec.space().unwrap();
        let eval = spec.evaluator().unwrap();
        let starts = vec![cacs_sched::Schedule::new(vec![2, 2, 2]).unwrap()];
        let outcome = cacs_search::run_multistart(
            eval.as_ref(),
            &space,
            &starts,
            &cacs_search::StrategyConfig::Tabu(cacs_search::TabuConfig::default()),
            None,
        )
        .unwrap();
        let digest =
            multistart_digest(StrategyKind::Tabu, &space, &starts, &outcome.reports).unwrap();
        assert!(digest.starts_with("TABU 1\nSEARCH 0 "));
        assert!(digest.trim_end().ends_with("DONE"));
    }

    #[test]
    fn digest_is_byte_stable() {
        let spec = ProblemSpec::parse("synthetic:4x4").unwrap();
        let space = spec.space().unwrap();
        let eval = spec.evaluator().unwrap();
        let report = cacs_search::exhaustive_search(eval.as_ref(), &space).unwrap();
        let a = report_digest(&space, &report).unwrap();
        let b = report_digest(&space, &report).unwrap();
        assert_eq!(a, b);
        assert!(a.starts_with("REPORT "));
        assert!(a.trim_end().ends_with("DONE 0"));
    }
}
