//! Shared plumbing for the `cacs-sweep-coord` / `cacs-sweep-worker`
//! binaries: problem specifications and the stable report digest.
//!
//! Coordinator and workers must agree **exactly** on the objective, so a
//! sweep is launched against a *problem specification* string that both
//! sides resolve independently:
//!
//! * `paper-fast` / `paper-full` — the paper case study under the
//!   reduced resp. paper-accuracy synthesis budget,
//! * `synthetic:<m1>x<m2>x…` — the µs-scale surrogate objective of the
//!   streaming benchmark ([`cacs_distrib::synthetic::surrogate`]) over
//!   the given box.

use cacs_core::{CodesignProblem, EvaluationConfig};
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

    /// The canonical digest naming this problem — the address of
    /// persistent state (evaluation stores, sweep checkpoints): two
    /// processes resolve the same digest to the same objective, so
    /// state written under it can be resumed safely, and state written
    /// under any other digest is refused with a typed error.
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

    /// Builds the evaluator this spec describes (what workers sweep
    /// with, and what the coordinator self-checks against).
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
        let config = match self {
            ProblemSpec::PaperFast => EvaluationConfig::fast(),
            ProblemSpec::PaperFull => EvaluationConfig::default(),
            ProblemSpec::Synthetic(dims) => {
                return Ok(Box::new(cacs_distrib::synthetic::surrogate(dims.len())));
            }
        };
        let mut problem = paper_problem(config)?;
        if !eval_cache {
            problem.set_eval_cache(false);
        }
        Ok(Box::new(problem))
    }

    /// Derives the schedule space the coordinator announces to workers.
    ///
    /// # Errors
    ///
    /// Propagates space-derivation failures.
    pub fn space(&self) -> Result<ScheduleSpace, Box<dyn Error>> {
        match self {
            ProblemSpec::PaperFast => {
                Ok(paper_problem(EvaluationConfig::fast())?.schedule_space()?)
            }
            ProblemSpec::PaperFull => {
                Ok(paper_problem(EvaluationConfig::default())?.schedule_space()?)
            }
            ProblemSpec::Synthetic(dims) => Ok(ScheduleSpace::new(dims.clone())?),
        }
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

/// Renders a report in the wire encoding (`REPORT` header, `R` result
/// lines, `DONE`) — a stable, bit-exact textual digest: two reports are
/// byte-identical here if and only if they agree on every counter, the
/// best schedule, and every retained objective's bit pattern. The CI
/// smoke job and `--selfcheck` compare these bytes.
///
/// # Errors
///
/// Propagates encoding failures (a report not produced over `space`).
pub fn report_digest(
    space: &ScheduleSpace,
    report: &ExhaustiveReport,
) -> Result<String, Box<dyn Error>> {
    let mut digest = cacs_distrib::wire::report_to_lines(space, 0, report)?.join("\n");
    digest.push('\n');
    Ok(digest)
}

/// Renders a multistart's results as a stable, bit-exact textual
/// digest (ranks + 16-hex `f64` bit patterns, the wire encodings): two
/// runs are byte-identical here if and only if every search found the
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
    starts: &[cacs_sched::Schedule],
    reports: &[cacs_search::SearchReport],
) -> Result<String, Box<dyn Error>> {
    let rank_of = |s: &cacs_sched::Schedule| -> Result<u64, Box<dyn Error>> {
        space
            .rank(s)
            .ok_or_else(|| format!("schedule {s} outside the space").into())
    };
    let mut digest = format!("{} {}\n", strategy.label(), reports.len());
    let mut best: Option<(u64, u64)> = None;
    for (i, (start, report)) in starts.iter().zip(reports).enumerate() {
        let found = match &report.best {
            Some(s) => {
                let pair = (rank_of(s)?, report.best_value.to_bits());
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
            rank_of(start)?,
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
