//! One cold repetition of a benchmark workload per process.
//!
//! ```text
//! perfbench rep    --workload W --seed N --mode plain|sequential|traced
//! perfbench verify --workload W --seed N --schedules 1x4x3,2x3x2,…
//! ```
//!
//! `rep` builds a fresh problem (so no memo state carries over), times
//! set-up and the workload, and prints one JSON record on stdout.
//! `plain` calls the public entry points the CLIs call, `sequential`
//! the same call with parallelism off, and `traced` routes every
//! schedule evaluation through a timing replica built from public calls
//! (see `trace.rs`). `verify` re-evaluates the given schedules on a
//! fresh problem and prints their objective bit patterns. `run.py`
//! drives both and aggregates the records.

mod json;
mod measure;
mod replay;
mod trace;
mod workload;

use cacs_core::CodesignProblem;
use cacs_sched::Schedule;
use cacs_search::{ScheduleEvaluator, ScheduleSpace};
use json::Obj;
use measure::{median, peak_rss_mib, process_cpu_s, secs_since};
use std::sync::Mutex;
use workload::{schedule_tag, value_tag, Res, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Sequential,
    Traced,
}

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    mode: Mode,
    schedules: Vec<Schedule>,
}

fn parse_args() -> Res<Args> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (rep | verify)")?;
    let (mut workload, mut seed, mut mode, mut schedules) = (None, None, Mode::Plain, Vec::new());
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>()?),
            "--mode" => {
                mode = match value.as_str() {
                    "plain" => Mode::Plain,
                    "sequential" => Mode::Sequential,
                    "traced" => Mode::Traced,
                    _ => return Err(format!("unknown mode {value}").into()),
                }
            }
            "--schedules" => {
                schedules = value
                    .split(',')
                    .filter(|t| !t.is_empty())
                    .map(workload::parse_schedule)
                    .collect::<Res<_>>()?;
            }
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        mode,
        schedules,
    })
}

fn main() {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "rep" => rep(&args),
        "verify" => verify(&args),
        other => Err(format!("unknown command {other}").into()),
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What one timed phase produced, whatever the workload.
#[derive(Default)]
struct Outcome {
    best: Option<(Schedule, f64)>,
    enumerated: u64,
    evaluated: u64,
    feasible: u64,
    /// Evaluations requested by the searches (before the shared cache).
    requests: u64,
    /// Evaluations actually computed.
    fresh: u64,
}

/// Set-up samples per process. Each sample times a batch of builds
/// long enough (at least `SETUP_BATCH_MIN_S`) for the clock to resolve
/// it, so µs-scale set-ups still give a steady median.
const SETUP_SAMPLES: usize = 7;
const SETUP_BATCH_MIN_S: f64 = 1e-3;

/// Runs `build` repeatedly and returns the last result with the median
/// per-build set-up time. Every build starts from nothing, so the value
/// returned is as cold (memo-free) as the first.
fn timed_setups<T>(mut build: impl FnMut() -> Res<T>) -> Res<(T, f64)> {
    let mut batch = 1usize;
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    loop {
        let t = cacs_obs::now();
        let mut value = build()?;
        for _ in 1..batch {
            value = build()?;
        }
        let secs = secs_since(t);
        if secs < SETUP_BATCH_MIN_S && samples.is_empty() && batch < 1 << 24 {
            batch *= 2;
            continue;
        }
        samples.push(secs / batch as f64);
        if samples.len() == SETUP_SAMPLES {
            return Ok((value, median(&samples)));
        }
    }
}

fn rep(args: &Args) -> Res<String> {
    let record = match args.workload {
        Workload::SyntheticSweep => {
            let (space, setup_s) = timed_setups(|| workload::setup_synthetic(args.seed))?;
            rep_synthetic(args, &space, setup_s)?
        }
        _ => {
            let ((problem, space), setup_s) = timed_setups(workload::setup_paper)?;
            rep_paper(args, &problem, &space, setup_s)?
        }
    };
    Ok(record.finish())
}

/// The common head of every `rep` record.
fn head(args: &Args, setup_s: f64, wall_s: f64, cpu_s: f64, outcome: &Outcome) -> Obj {
    let (best, best_bits) = match &outcome.best {
        Some((s, v)) => (schedule_tag(s), value_tag(Some(*v))),
        None => (String::new(), value_tag(None)),
    };
    Obj::new()
        .str("mode", mode_name(args.mode))
        .int("seed", args.seed)
        .num("setup_s", setup_s)
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .num("peak_rss_mib", peak_rss_mib())
        .int("threads", cacs_par::thread_budget() as u64)
        .int("logical_cores", logical_cores())
        .str(
            "cacs_threads",
            &std::env::var("CACS_THREADS").unwrap_or_default(),
        )
        .str("best", &best)
        .str("best_bits", &best_bits)
        .int("enumerated", outcome.enumerated)
        .int("evaluated", outcome.evaluated)
        .int("feasible", outcome.feasible)
        .int("requests", outcome.requests)
        .int("fresh", outcome.fresh)
}

fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Plain => "plain",
        Mode::Sequential => "sequential",
        Mode::Traced => "traced",
    }
}

fn logical_cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn rep_paper(
    args: &Args,
    problem: &CodesignProblem,
    space: &ScheduleSpace,
    setup_s: f64,
) -> Res<Obj> {
    let ctx = problem.eval_ctx();
    let expm = |f: fn(&cacs_linalg::ExpmCache) -> u64| ctx.expm_cache().map_or(0, f);
    let memo_hits_before = ctx.app_cache_hits() + expm(cacs_linalg::ExpmCache::hits);
    let starts = workload::multistart_starts(args.seed)?;
    let strategy = workload::multistart_strategy();

    if args.mode == Mode::Traced {
        return trace::traced_paper(args.workload, args.seed, problem, space, &starts, setup_s)
            .map(|o| o.int("memo_hits_before", memo_hits_before));
    }

    let cpu0 = process_cpu_s();
    let t0 = cacs_obs::now();
    let outcome = match (args.workload, args.mode) {
        (Workload::PaperExhaustive, Mode::Plain) => {
            exhaustive_outcome(problem.optimize_exhaustive()?)
        }
        (Workload::PaperExhaustive, _) => {
            exhaustive_outcome(cacs_par::sequential(|| problem.optimize_exhaustive())?)
        }
        (_, Mode::Plain) => {
            let out = problem.optimize_with_strategy(&starts, &strategy, None)?;
            Outcome {
                best: out.best,
                requests: out
                    .searches
                    .iter()
                    .map(|s| s.report.evaluations as u64)
                    .sum(),
                fresh: out.stats.fresh_evaluations as u64,
                ..Outcome::default()
            }
        }
        _ => {
            // The multistart's parallelism is one thread per start, not
            // cacs-par; its sequential form runs the starts in order.
            let out =
                cacs_search::run_multistart_sequential(problem, space, &starts, &strategy, None)?;
            Outcome {
                best: multistart_best(&out.reports),
                requests: out.reports.iter().map(|r| r.evaluations as u64).sum(),
                fresh: out.fresh_evaluations as u64,
                ..Outcome::default()
            }
        }
    };
    let wall_s = secs_since(t0);
    let cpu_s = process_cpu_s() - cpu0;
    let record = head(args, setup_s, wall_s, cpu_s, &outcome)
        .int("memo_hits_before", memo_hits_before)
        .int("app_memo_hits", ctx.app_cache_hits())
        .int("app_memo_misses", ctx.app_cache_misses())
        .int("expm_hits", expm(cacs_linalg::ExpmCache::hits))
        .int("expm_misses", expm(cacs_linalg::ExpmCache::misses));

    // After the timed phase: count evaluations that returned an error.
    // Successful outcomes are served by the app memo here, so only
    // failing ones (never memoised) are recomputed.
    let errors = count_errors(args.workload, problem, space, &starts)?;
    Ok(record.int("errors", errors))
}

fn exhaustive_outcome(report: cacs_search::ExhaustiveReport) -> Outcome {
    Outcome {
        best: report.best.map(|s| (s, report.best_value)),
        enumerated: report.enumerated,
        evaluated: report.evaluated,
        feasible: report.feasible,
        requests: report.evaluated,
        fresh: report.evaluated,
    }
}

/// The best of several search reports, first strict improvement in
/// start order (the rule `CodesignProblem::optimize_with_strategy` uses).
pub fn multistart_best(reports: &[cacs_search::SearchReport]) -> Option<(Schedule, f64)> {
    let mut best: Option<(Schedule, f64)> = None;
    for r in reports {
        if let Some(s) = &r.best {
            let better = best.as_ref().is_none_or(|(_, v)| r.best_value > *v);
            if better && r.best_value.is_finite() {
                best = Some((s.clone(), r.best_value));
            }
        }
    }
    best
}

/// Replays the workload's evaluations through `evaluate_schedule` and
/// counts the ones that return an error.
fn count_errors(
    workload: Workload,
    problem: &CodesignProblem,
    space: &ScheduleSpace,
    starts: &[Schedule],
) -> Res<u64> {
    let recorder = Recorder {
        problem,
        errors: Mutex::new(0),
    };
    match workload {
        Workload::PaperMultistart => {
            cacs_search::run_multistart(
                &recorder,
                space,
                starts,
                &workload::multistart_strategy(),
                None,
            )?;
        }
        _ => {
            cacs_search::exhaustive_search(&recorder, space)?;
        }
    }
    let errors = *cacs_par::sync::lock_recover(&recorder.errors);
    Ok(errors)
}

struct Recorder<'a> {
    problem: &'a CodesignProblem,
    errors: Mutex<u64>,
}

impl ScheduleEvaluator for Recorder<'_> {
    fn app_count(&self) -> usize {
        self.problem.app_count()
    }

    fn idle_feasible(&self, schedule: &Schedule) -> bool {
        self.problem.idle_feasible_schedule(schedule)
    }

    fn evaluate(&self, schedule: &Schedule) -> Option<f64> {
        match self.problem.evaluate_schedule(schedule) {
            Ok(eval) => eval.overall_performance,
            Err(_) => {
                *cacs_par::sync::lock_recover(&self.errors) += 1;
                None
            }
        }
    }
}

fn rep_synthetic(args: &Args, space: &ScheduleSpace, setup_s: f64) -> Res<Obj> {
    let eval = cacs_distrib::synthetic::surrogate(space.app_count());
    let config = workload::synthetic_sweep_config();
    if args.mode == Mode::Traced {
        return trace::traced_synthetic(args.seed, space, &config, setup_s);
    }
    let cpu0 = process_cpu_s();
    let t0 = cacs_obs::now();
    let report = match args.mode {
        Mode::Plain => cacs_search::exhaustive_search_with(&eval, space, &config)?,
        _ => cacs_par::sequential(|| cacs_search::exhaustive_search_with(&eval, space, &config))?,
    };
    let wall_s = secs_since(t0);
    let cpu_s = process_cpu_s() - cpu0;
    let outcome = exhaustive_outcome(report);
    Ok(head(args, setup_s, wall_s, cpu_s, &outcome)
        .int("memo_hits_before", 0)
        .int("errors", 0))
}

/// Re-evaluates `args.schedules` on a fresh problem (or a fresh
/// surrogate) and reports each objective's bit pattern.
fn verify(args: &Args) -> Res<String> {
    let tags: Vec<String> = args.schedules.iter().map(schedule_tag).collect();
    let values: Vec<String> = match args.workload {
        Workload::SyntheticSweep => {
            let space = workload::setup_synthetic(args.seed)?;
            let eval = cacs_distrib::synthetic::surrogate(space.app_count());
            args.schedules
                .iter()
                .map(|s| {
                    if space.contains(s) && eval.idle_feasible(s) {
                        value_tag(eval.evaluate(s))
                    } else {
                        "infeasible".to_string()
                    }
                })
                .collect()
        }
        _ => {
            let (problem, _) = workload::setup_paper()?;
            cacs_par::par_map(&args.schedules, |_, s| match problem.evaluate_schedule(s) {
                Ok(eval) => value_tag(eval.overall_performance),
                Err(_) => "error".to_string(),
            })
        }
    };
    Ok(Obj::new()
        .strs("schedules", &tags)
        .strs("values", &values)
        .finish())
}
