//! The engine behind the `cacs-opt` strategy CLI (any strategy via
//! `--strategy`, hybrid by default).
//!
//! It exposes identical persistence semantics for **every** strategy,
//! inherited from the unified engine ([`cacs_search::run_multistart`]):
//!
//! * `--store FILE` journals each completed evaluation before its
//!   result is used; an existing store is refused without `--resume`;
//! * `--resume` warm-starts from the store (digest- and
//!   space-validated, typed refusal on mismatch);
//! * `--kill-after-fresh-evals N` injects a deterministic hard
//!   `exit(9)` at the entry of fresh evaluation `N + 1`;
//! * `--selfcheck` reruns the search uninterrupted in memory and exits
//!   3 unless the digests are byte-identical — and, when the store
//!   warmed this run, unless strictly fewer fresh evaluations were
//!   executed.
//!
//! The machine-readable output on stdout is the byte-stable digest
//! (see [`crate::cli::multistart_digest`]); diagnostics go to stderr.

use crate::cli::{multistart_digest, ProblemSpec, StrategyKind};
use cacs_sched::Schedule;
use cacs_search::{
    run_multistart, AnnealConfig, EvalStore, GeneticConfig, HybridConfig, MultistartOutcome,
    ScheduleEvaluator, StrategyConfig, TabuConfig,
};
use std::error::Error;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Exit status of a deliberate `--kill-after-fresh-evals` kill, so
/// scripts can tell the injected fault from a real failure.
const EXIT_KILLED: i32 = 9;
/// Exit status of a failed `--selfcheck`.
const EXIT_SELFCHECK: i32 = 3;

struct Args {
    problem: String,
    strategy: StrategyKind,
    starts: Option<Vec<Schedule>>,
    store: Option<PathBuf>,
    resume: bool,
    kill_after: Option<usize>,
    selfcheck: bool,
    metrics: Option<PathBuf>,
    no_eval_cache: bool,
    // Strategy knobs; `None` keeps the strategy's default.
    tolerance: Option<f64>,
    max_steps: Option<usize>,
    seed: Option<u64>,
    steps: Option<usize>,
    initial_temperature: Option<f64>,
    cooling: Option<f64>,
    population: Option<usize>,
    generations: Option<usize>,
    iterations: Option<usize>,
    tenure: Option<usize>,
    stall_limit: Option<usize>,
}

fn usage(bin: &str) -> ! {
    eprintln!(
        "usage: {bin} --problem <paper-fast|paper-full|synthetic:AxBxC> \
         [--strategy hybrid|anneal|genetic|tabu] \
         [--starts m1xm2x…[,m1xm2x…]] [--store FILE] [--resume] \
         [--kill-after-fresh-evals N] [--selfcheck] [--metrics FILE] \
         [--no-eval-cache] \
         [--tolerance F] [--max-steps N] (hybrid) \
         [--seed N] [--steps N] [--initial-temperature F] [--cooling F] (anneal) \
         [--seed N] [--population N] [--generations N] (genetic) \
         [--iterations N] [--tenure N] [--stall-limit N] (tabu)"
    );
    std::process::exit(2)
}

fn parse_args(bin: &str) -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut args = Args {
        problem: String::new(),
        strategy: StrategyKind::Hybrid,
        starts: None,
        store: None,
        resume: false,
        kill_after: None,
        selfcheck: false,
        metrics: None,
        no_eval_cache: false,
        tolerance: None,
        max_steps: None,
        seed: None,
        steps: None,
        initial_temperature: None,
        cooling: None,
        population: None,
        generations: None,
        iterations: None,
        tenure: None,
        stall_limit: None,
    };
    let mut i = 1;
    let value = |i: &mut usize| -> String {
        let v = argv.get(*i + 1).cloned().unwrap_or_else(|| usage(bin));
        *i += 2;
        v
    };
    macro_rules! parsed {
        ($i:expr) => {
            value($i).parse().unwrap_or_else(|_| usage(bin))
        };
    }
    while i < argv.len() {
        match argv[i].as_str() {
            "--problem" => args.problem = value(&mut i),
            "--strategy" => {
                args.strategy = StrategyKind::parse(&value(&mut i)).unwrap_or_else(|e| {
                    eprintln!("{bin}: {e}");
                    std::process::exit(2)
                });
            }
            "--starts" => {
                args.starts = Some(parse_starts(&value(&mut i)).unwrap_or_else(|e| {
                    eprintln!("{bin}: {e}");
                    usage(bin)
                }));
            }
            "--store" => args.store = Some(PathBuf::from(value(&mut i))),
            "--resume" => {
                args.resume = true;
                i += 1;
            }
            "--kill-after-fresh-evals" => args.kill_after = Some(parsed!(&mut i)),
            "--selfcheck" => {
                args.selfcheck = true;
                i += 1;
            }
            "--metrics" => args.metrics = Some(PathBuf::from(value(&mut i))),
            "--no-eval-cache" => {
                args.no_eval_cache = true;
                i += 1;
            }
            "--tolerance" => args.tolerance = Some(parsed!(&mut i)),
            "--max-steps" => args.max_steps = Some(parsed!(&mut i)),
            "--seed" => args.seed = Some(parsed!(&mut i)),
            "--steps" => args.steps = Some(parsed!(&mut i)),
            "--initial-temperature" => args.initial_temperature = Some(parsed!(&mut i)),
            "--cooling" => args.cooling = Some(parsed!(&mut i)),
            "--population" => args.population = Some(parsed!(&mut i)),
            "--generations" => args.generations = Some(parsed!(&mut i)),
            "--iterations" => args.iterations = Some(parsed!(&mut i)),
            "--tenure" => args.tenure = Some(parsed!(&mut i)),
            "--stall-limit" => args.stall_limit = Some(parsed!(&mut i)),
            _ => usage(bin),
        }
    }
    if args.problem.is_empty() {
        usage(bin);
    }
    reject_foreign_knobs(bin, &args);
    args
}

/// A strategy knob passed for a strategy that does not consume it is a
/// usage error (exit 2), not a silent no-op — `--strategy tabu --seed 7`
/// would otherwise run with the flag dropped.
fn reject_foreign_knobs(bin: &str, args: &Args) {
    use StrategyKind::{Anneal, Genetic, Hybrid, Tabu};
    let knobs: [(&str, bool, &[StrategyKind]); 11] = [
        ("--tolerance", args.tolerance.is_some(), &[Hybrid]),
        ("--max-steps", args.max_steps.is_some(), &[Hybrid]),
        ("--seed", args.seed.is_some(), &[Anneal, Genetic]),
        ("--steps", args.steps.is_some(), &[Anneal]),
        (
            "--initial-temperature",
            args.initial_temperature.is_some(),
            &[Anneal],
        ),
        ("--cooling", args.cooling.is_some(), &[Anneal]),
        ("--population", args.population.is_some(), &[Genetic]),
        ("--generations", args.generations.is_some(), &[Genetic]),
        ("--iterations", args.iterations.is_some(), &[Tabu]),
        ("--tenure", args.tenure.is_some(), &[Tabu]),
        ("--stall-limit", args.stall_limit.is_some(), &[Tabu]),
    ];
    for (flag, set, strategies) in knobs {
        if set && !strategies.contains(&args.strategy) {
            eprintln!(
                "{bin}: {flag} does not apply to the {} strategy",
                args.strategy.name()
            );
            std::process::exit(2);
        }
    }
}

/// Assembles the engine's [`StrategyConfig`] from the parsed knobs
/// (unset knobs keep the strategy's documented defaults).
fn build_strategy(args: &Args) -> StrategyConfig {
    match args.strategy {
        StrategyKind::Hybrid => {
            let d = HybridConfig::default();
            StrategyConfig::Hybrid(HybridConfig {
                tolerance: args.tolerance.unwrap_or(d.tolerance),
                max_steps: args.max_steps.unwrap_or(d.max_steps),
            })
        }
        StrategyKind::Anneal => {
            let d = AnnealConfig::default();
            StrategyConfig::Anneal(AnnealConfig {
                initial_temperature: args.initial_temperature.unwrap_or(d.initial_temperature),
                cooling: args.cooling.unwrap_or(d.cooling),
                steps: args.steps.unwrap_or(d.steps),
                seed: args.seed.unwrap_or(d.seed),
            })
        }
        StrategyKind::Genetic => {
            let d = GeneticConfig::default();
            StrategyConfig::Genetic(GeneticConfig {
                population: args.population.unwrap_or(d.population),
                generations: args.generations.unwrap_or(d.generations),
                seed: args.seed.unwrap_or(d.seed),
                ..d
            })
        }
        StrategyKind::Tabu => {
            let d = TabuConfig::default();
            StrategyConfig::Tabu(TabuConfig {
                iterations: args.iterations.unwrap_or(d.iterations),
                tenure: args.tenure.unwrap_or(d.tenure),
                stall_limit: args.stall_limit.unwrap_or(d.stall_limit),
            })
        }
    }
}

/// Parses `--starts`: comma-separated `m1xm2x…` tuples. A malformed
/// tuple is a usage error; a well-formed start outside the problem's
/// space is refused later, when the space is known.
fn parse_starts(spec: &str) -> Result<Vec<Schedule>, Box<dyn Error>> {
    spec.split(',')
        .map(|tuple| {
            let counts = cacs_distrib::synthetic::parse_box(tuple)?;
            Ok(Schedule::new(counts)?)
        })
        .collect()
}

/// Deterministic kill injection: delegates every call to the inner
/// evaluator, but exits the whole process (status 9) at the *entry* of
/// fresh evaluation `limit + 1` — so exactly `limit` evaluations
/// completed and, with a store attached, were journalled (the
/// write-through appends before the result is published). Only fresh
/// evaluations reach this wrapper; store hits are served above it.
struct KillAfter<'a> {
    bin: &'a str,
    inner: &'a dyn ScheduleEvaluator,
    limit: Option<usize>,
    calls: AtomicUsize,
}

impl ScheduleEvaluator for KillAfter<'_> {
    fn app_count(&self) -> usize {
        self.inner.app_count()
    }

    fn idle_feasible(&self, schedule: &Schedule) -> bool {
        self.inner.idle_feasible(schedule)
    }

    fn evaluate(&self, schedule: &Schedule) -> Option<f64> {
        if let Some(limit) = self.limit {
            if self.calls.fetch_add(1, Ordering::SeqCst) >= limit {
                eprintln!(
                    "{}: killing the process before fresh evaluation #{} \
                     (--kill-after-fresh-evals {limit})",
                    self.bin,
                    limit + 1
                );
                std::process::exit(EXIT_KILLED);
            }
        }
        self.inner.evaluate(schedule)
    }
}

/// The whole CLI: parse `std::env::args`, run the strategy, print the
/// digest, self-check, exit. `--strategy` picks the strategy (default
/// hybrid).
/// Never returns — the process exits with 0 on success, 2 on usage
/// errors, 3 on a failed `--selfcheck`, 9 on an injected kill, 1 on
/// everything else.
pub fn cli_main(bin: &'static str) -> ! {
    match run(bin) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("{bin}: {e}");
            std::process::exit(1);
        }
    }
}

fn run(bin: &'static str) -> Result<(), Box<dyn Error>> {
    let args = parse_args(bin);
    if args.metrics.is_some() {
        // Recording stays off unless explicitly requested; metrics are
        // reporting-only and never reach the digest printed below.
        crate::cli::metrics::enable_recording();
    }
    let spec = ProblemSpec::parse(&args.problem).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        std::process::exit(2)
    });
    let strategy = build_strategy(&args);
    let space = spec.space()?;
    // `--no-eval-cache` runs the reference cache-free evaluation path;
    // the digest printed below is bit-identical either way (the CI
    // eval-cache smoke job compares the bytes).
    let evaluator = spec.evaluator_with_cache(!args.no_eval_cache)?;
    let starts = match &args.starts {
        Some(starts) => starts.clone(),
        None => vec![Schedule::round_robin(space.app_count())?],
    };
    eprintln!(
        "{bin}: {} search, problem {} over space {:?} ({} schedules), {} start(s)",
        strategy.name(),
        spec.digest(),
        space.max_counts(),
        space.len(),
        starts.len()
    );

    if args.resume && args.store.is_none() {
        eprintln!("{bin}: --resume requires --store (nothing to resume from)");
        std::process::exit(2);
    }
    let store = match &args.store {
        Some(path) => {
            if !args.resume && EvalStore::exists(path) {
                eprintln!(
                    "{bin}: store {} already exists; pass --resume to continue \
                     it or remove it for a fresh run",
                    path.display()
                );
                std::process::exit(2);
            }
            if args.resume && !EvalStore::exists(path) {
                // A missing file is a fresh start, but loudly: a
                // mistyped path would otherwise silently re-pay every
                // evaluation.
                eprintln!(
                    "{bin}: warning — store {} does not exist; starting fresh \
                     (check the path if you expected to resume)",
                    path.display()
                );
            }
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)?;
            }
            let store = EvalStore::open(path, &spec.digest(), &space)?;
            eprintln!(
                "{bin}: store {} holds {} evaluation(s)",
                path.display(),
                store.len()
            );
            Some(store)
        }
        None => None,
    };

    // One engine dispatch shared by the measured run and the selfcheck
    // reference.
    let execute = |evaluator: &dyn ScheduleEvaluator,
                   store: Option<&EvalStore>|
     -> Result<(MultistartOutcome, String), Box<dyn Error>> {
        let outcome = run_multistart(evaluator, &space, &starts, &strategy, store)?;
        let digest = multistart_digest(args.strategy, &space, &starts, &outcome.reports)?;
        Ok((outcome, digest))
    };

    let killer = KillAfter {
        bin,
        inner: evaluator.as_ref(),
        limit: args.kill_after,
        calls: AtomicUsize::new(0),
    };
    let t = crate::cli::metrics::RunTimer::start();
    let (outcome, digest) = execute(&killer, store.as_ref())?;
    let wall_ms = t.elapsed_ms();

    report_outcome(bin, &outcome, wall_ms);
    print!("{digest}");

    // Snapshot before --selfcheck so the JSON reflects only the run
    // whose digest was just printed, not the in-memory reference rerun.
    if let Some(path) = &args.metrics {
        crate::cli::metrics::emit(bin, path)?;
    }

    if args.selfcheck {
        eprintln!("{bin}: selfcheck — uninterrupted in-memory run…");
        // Fresh evaluator, no store, no kill wrapper: the reference is
        // what a single untouched process would have produced.
        let reference_eval = spec.evaluator_with_cache(!args.no_eval_cache)?;
        let (reference, reference_digest) = execute(reference_eval.as_ref(), None)?;
        if digest.as_bytes() != reference_digest.as_bytes() {
            eprintln!("{bin}: SELFCHECK FAILED — digests differ");
            eprintln!("--- this run ---\n{digest}--- uninterrupted ---\n{reference_digest}");
            std::process::exit(EXIT_SELFCHECK);
        }
        if outcome.warm_started > 0 && outcome.fresh_evaluations >= reference.fresh_evaluations {
            eprintln!(
                "{bin}: SELFCHECK FAILED — resumed run executed {} fresh \
                 evaluations, not strictly fewer than the uninterrupted run's {}",
                outcome.fresh_evaluations, reference.fresh_evaluations
            );
            std::process::exit(EXIT_SELFCHECK);
        }
        eprintln!(
            "{bin}: selfcheck OK — digest byte-identical ({} bytes), \
             {} vs {} fresh evaluations ({} saved by the store)",
            digest.len(),
            outcome.fresh_evaluations,
            reference.fresh_evaluations,
            reference
                .fresh_evaluations
                .saturating_sub(outcome.fresh_evaluations)
        );
    }
    Ok(())
}

fn report_outcome(bin: &str, outcome: &MultistartOutcome, wall_ms: f64) {
    for (i, report) in outcome.reports.iter().enumerate() {
        match &report.best {
            Some(best) => eprintln!(
                "{bin}: search {i}: best {best} with objective {:.12} \
                 ({} evaluations)",
                report.best_value, report.evaluations
            ),
            None => eprintln!(
                "{bin}: search {i}: nothing feasible ({} evaluations)",
                report.evaluations
            ),
        }
    }
    eprintln!(
        "{bin}: {} unique schedule(s) requested, {} fresh evaluation(s) \
         executed, {} warm-started from the store, {:.1} ms",
        outcome.unique_evaluations, outcome.fresh_evaluations, outcome.warm_started, wall_ms
    );
}
