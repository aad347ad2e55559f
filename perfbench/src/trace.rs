//! The traced run: spans at the search→evaluator boundary and around
//! each stage of a schedule evaluation, recorded from this package's
//! own code so the program itself stays unmodified.
//!
//! Paper workloads evaluate through [`TracingEvaluator`], a replica of
//! `CodesignProblem::evaluate_schedule` assembled from public calls
//! (`derive_timing` → `check_idle_times` → `LiftedPlant::new_cached` →
//! `synthesis_config_for` → `synthesize_with`) with a timer around each
//! stage. It runs on the problem's own evaluation context, so it does
//! the same work in the same order; `run.py` checks that every value it
//! produces is bit-identical to `evaluate_schedule` on a fresh problem.
//! Spans are kept in memory and summarised when the run ends.

use crate::json::Obj;
use crate::measure::{median, process_cpu_s, quantile, secs_since, thread_cpu_s};
use crate::replay;
use crate::workload::{schedule_tag, value_tag, Res, Workload};
use cacs_control::{synthesize_with, DesignedController, LiftedPlant, SynthesisConfig};
use cacs_core::CodesignProblem;
use cacs_par::sync::lock_recover;
use cacs_sched::{check_idle_times, derive_timing, AppParams, Schedule};
use cacs_search::{ScheduleEvaluator, ScheduleSpace, SweepConfig};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One application's design inside a traced evaluation.
pub struct AppTrace {
    pub app: usize,
    /// Whole per-app span: configuration, lift, synthesis, `P_i`.
    pub span_s: f64,
    pub lift_s: f64,
    pub synth_s: f64,
    /// Thread CPU time of the lift and the synthesis.
    pub lift_cpu_s: f64,
    pub synth_cpu_s: f64,
    pub lifted: LiftedPlant,
    pub controller: DesignedController,
    pub config: SynthesisConfig,
    performance: f64,
}

/// One evaluation span at the search→core boundary.
pub struct EvalTrace {
    pub schedule: Schedule,
    /// Span bounds, seconds since the timed phase started.
    pub start_s: f64,
    pub end_s: f64,
    /// Thread CPU time over the span (evaluations run inline on one
    /// thread on every workload here: nested `cacs-par` regions do).
    pub cpu_s: f64,
    /// `derive_timing` + `check_idle_times`.
    pub timing_s: f64,
    pub value: Option<f64>,
    pub error: bool,
    pub apps: Vec<AppTrace>,
}

struct TracingEvaluator<'a> {
    problem: &'a CodesignProblem,
    t0: Instant,
    spans: Mutex<Vec<EvalTrace>>,
}

impl ScheduleEvaluator for TracingEvaluator<'_> {
    fn app_count(&self) -> usize {
        self.problem.app_count()
    }

    fn idle_feasible(&self, schedule: &Schedule) -> bool {
        self.problem.idle_feasible_schedule(schedule)
    }

    fn evaluate(&self, schedule: &Schedule) -> Option<f64> {
        let start_s = secs_since(self.t0);
        let cpu0 = thread_cpu_s();
        let result = self.replica(schedule);
        let cpu_s = thread_cpu_s() - cpu0;
        let end_s = secs_since(self.t0);
        let (value, error, timing_s, apps) = match result {
            Ok((value, timing_s, apps)) => (value, false, timing_s, apps),
            Err(_) => (None, true, 0.0, Vec::new()),
        };
        lock_recover(&self.spans).push(EvalTrace {
            schedule: schedule.clone(),
            start_s,
            end_s,
            cpu_s,
            timing_s,
            value,
            error,
            apps,
        });
        value
    }
}

type Replica = (Option<f64>, f64, Vec<AppTrace>);

impl TracingEvaluator<'_> {
    /// `evaluate_schedule` stage by stage. The app memo is internal to
    /// `cacs-core`, so the replica skips it; on these workloads every
    /// app key is new anyway (the PSO seed is derived from the whole
    /// schedule), which the plain runs' memo counters confirm.
    fn replica(&self, schedule: &Schedule) -> Res<Replica> {
        let problem = self.problem;
        let ctx = problem.eval_ctx();
        let t = cacs_obs::now();
        let timing = derive_timing(&schedule.task_sequence(), problem.exec_times())?;
        let params: Vec<AppParams> = problem.apps().iter().map(|a| a.params.clone()).collect();
        let violations = check_idle_times(&timing, &params)?;
        let timing_s = secs_since(t);
        if !violations.is_empty() {
            return Err(format!("{schedule} violates idle-time constraints").into());
        }
        let apps = cacs_par::try_par_map(problem.apps(), |i, app| {
            let t_app = cacs_obs::now();
            let at = &timing.apps[i];
            let config = problem.synthesis_config_for(i, schedule);
            let (t, cpu) = (cacs_obs::now(), thread_cpu_s());
            let lifted = LiftedPlant::new_cached(
                app.plant.clone(),
                &at.periods,
                &at.delays,
                ctx.expm_cache(),
            )
            .map_err(|e| e.to_string())?;
            let (lift_s, lift_cpu_s) = (secs_since(t), thread_cpu_s() - cpu);
            let (t, cpu) = (cacs_obs::now(), thread_cpu_s());
            let controller =
                synthesize_with(&lifted, &config, ctx.synth()).map_err(|e| e.to_string())?;
            let (synth_s, synth_cpu_s) = (secs_since(t), thread_cpu_s() - cpu);
            let performance = app.params.performance(controller.settling_time);
            Ok::<AppTrace, String>(AppTrace {
                app: i,
                span_s: secs_since(t_app),
                lift_s,
                synth_s,
                lift_cpu_s,
                synth_cpu_s,
                lifted,
                controller,
                config,
                performance,
            })
        })?;
        let feasible = apps.iter().all(|o| o.performance >= 0.0);
        let value = if feasible {
            Some(
                apps.iter()
                    .zip(problem.apps())
                    .map(|(o, a)| a.params.weight * o.performance)
                    .sum(),
            )
        } else {
            None
        };
        Ok((value, timing_s, apps))
    }
}

/// `cache.wcet_ms`: `analyze_consecutive` over the case study's
/// programs, median of repeated analyses.
fn wcet_ms() -> Res<f64> {
    let study = cacs_apps::paper_case_study()?;
    let mut samples = Vec::new();
    for _ in 0..9 {
        let t = cacs_obs::now();
        for app in &study.apps {
            std::hint::black_box(cacs_cache::analyze_consecutive(
                app.program.program(),
                &study.platform,
            )?);
        }
        samples.push(secs_since(t) * 1e3);
    }
    Ok(median(&samples))
}

/// Length of the union of `[start, end)` intervals.
fn covered(spans: &[EvalTrace]) -> f64 {
    let mut iv: Vec<(f64, f64)> = spans.iter().map(|s| (s.start_s, s.end_s)).collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut cur) = (0.0, None::<(f64, f64)>);
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

pub fn traced_paper(
    workload: Workload,
    seed: u64,
    problem: &CodesignProblem,
    space: &ScheduleSpace,
    starts: &[Schedule],
    setup_s: f64,
) -> Res<Obj> {
    let wcet_ms = wcet_ms()?;
    let tracer = TracingEvaluator {
        problem,
        t0: cacs_obs::now(),
        spans: Mutex::new(Vec::new()),
    };
    let cpu0 = process_cpu_s();
    let (requests, threads, best) = match workload {
        Workload::PaperMultistart => {
            let strategy = crate::workload::multistart_strategy();
            let out = cacs_search::run_multistart(&tracer, space, starts, &strategy, None)?;
            let requests: usize = out.reports.iter().map(|r| r.evaluations).sum();
            (
                requests as u64,
                starts.len(),
                crate::multistart_best(&out.reports),
            )
        }
        _ => {
            let r = cacs_search::exhaustive_search_with(&tracer, space, &SweepConfig::default())?;
            let best = r.best.map(|s| (s, r.best_value));
            (r.evaluated, cacs_par::thread_budget(), best)
        }
    };
    let wall_s = secs_since(tracer.t0);
    let cpu_s = process_cpu_s() - cpu0;
    let expm_misses = problem
        .eval_ctx()
        .expm_cache()
        .map_or(0, cacs_linalg::ExpmCache::misses);
    let mut spans = tracer.spans.into_inner().unwrap_or_else(|e| e.into_inner());
    spans.sort_by(|a, b| a.schedule.counts().cmp(b.schedule.counts()));

    let durations: Vec<f64> = spans.iter().map(|s| s.end_s - s.start_s).collect();
    let busy_s: f64 = durations.iter().sum();
    let apps: Vec<&AppTrace> = spans.iter().flat_map(|s| &s.apps).collect();
    let sum = |f: fn(&AppTrace) -> f64| apps.iter().map(|a| f(a)).sum::<f64>();
    let (app_span_s, lift_s, synth_s) = (sum(|a| a.span_s), sum(|a| a.lift_s), sum(|a| a.synth_s));
    let (lift_cpu_s, synth_cpu_s) = (sum(|a| a.lift_cpu_s), sum(|a| a.synth_cpu_s));
    let eval_cpu_s: f64 = spans.iter().map(|s| s.cpu_s).sum();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timing_s: f64 = spans.iter().map(|s| s.timing_s).sum();
    let objective_calls: u64 = apps.iter().map(|a| a.controller.evaluations as u64).sum();
    let designs = apps.len().max(1) as f64;
    let n = spans.len().max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let kernels = replay::run(&spans, seed)?;
    // Per-call costs come from thread CPU time, so they stay comparable
    // when the multistart runs more threads than cores.
    let objective_us = ratio(synth_cpu_s * 1e6, objective_calls as f64);

    let best_tags = match &best {
        Some((s, v)) => (schedule_tag(s), value_tag(Some(*v))),
        None => (String::new(), value_tag(None)),
    };
    let layers = Obj::new()
        .int("core.evals", spans.len() as u64)
        .int(
            "core.errors",
            spans.iter().filter(|s| s.error).count() as u64,
        )
        .num("core.eval_busy_s", busy_s)
        .num("core.eval_p50_ms", quantile(&durations, 0.5) * 1e3)
        .num("core.eval_p90_ms", quantile(&durations, 0.9) * 1e3)
        .int("search.requests", requests)
        .int("search.fresh", spans.len() as u64)
        .num(
            "search.dedup_ratio",
            ratio(spans.len() as f64, requests as f64),
        )
        .num("search.idle_s", (wall_s - covered(&spans)).max(0.0))
        .int("par.threads", threads as u64)
        .num("par.busy_share", ratio(busy_s, wall_s * threads as f64))
        .num(
            "par.cpu_busy_share",
            ratio(eval_cpu_s, wall_s * threads.min(cores) as f64),
        )
        .num("core.eval_cpu_s", eval_cpu_s)
        .num("control.lift_ms", lift_cpu_s / designs * 1e3)
        .num("control.synth_ms", synth_cpu_s / designs * 1e3)
        .int("pso.objective_calls", objective_calls)
        .num("pso.objective_us", objective_us)
        .num("sched.timing_us", timing_s / n * 1e6)
        .num("cache.wcet_ms", wcet_ms)
        .num("cov.run", ratio(covered(&spans), wall_s))
        .num("cov.core_eval", ratio(timing_s + app_span_s, busy_s))
        .num("cov.core_app", ratio(lift_s + synth_s, app_span_s))
        .num(
            "cov.control_lift_est",
            ratio(expm_misses as f64 * kernels.expm_us * 1e-6, lift_cpu_s),
        )
        .num(
            "cov.pso_objective_est_lo",
            ratio(kernels.rho_unstable_us, objective_us),
        )
        .num(
            "cov.pso_objective_est_hi",
            ratio(
                kernels.rho_stable_us + kernels.feedforward_us + kernels.simulate_us,
                objective_us,
            ),
        );
    let layers = kernels.write(layers);

    let tags: Vec<String> = spans.iter().map(|s| schedule_tag(&s.schedule)).collect();
    let values: Vec<String> = spans
        .iter()
        .map(|s| {
            if s.error {
                "error".into()
            } else {
                value_tag(s.value)
            }
        })
        .collect();
    Ok(Obj::new()
        .str("mode", "traced")
        .int("seed", seed)
        .num("setup_s", setup_s)
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .str("best", &best_tags.0)
        .str("best_bits", &best_tags.1)
        .obj("layers", layers)
        .strs("schedules", &tags)
        .strs("values", &values)
        .nums(
            "span_start_s",
            &spans.iter().map(|s| s.start_s).collect::<Vec<_>>(),
        )
        .nums(
            "span_end_s",
            &spans.iter().map(|s| s.end_s).collect::<Vec<_>>(),
        ))
}

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Every `SAMPLE_EVERY`-th call on each thread is timed.
const SAMPLE_EVERY: u64 = 64;

/// The synthetic objective costs tens of nanoseconds, so a span per
/// call would swamp it: this wrapper counts every call and times a
/// fixed 1-in-64 sample per thread, from which busy time is estimated.
struct SampledEvaluator<'a, E: ScheduleEvaluator> {
    inner: &'a E,
    sampled_ns: AtomicU64,
    samples: AtomicU64,
}

impl<E: ScheduleEvaluator> ScheduleEvaluator for SampledEvaluator<'_, E> {
    fn app_count(&self) -> usize {
        self.inner.app_count()
    }

    fn idle_feasible(&self, schedule: &Schedule) -> bool {
        self.inner.idle_feasible(schedule)
    }

    fn evaluate(&self, schedule: &Schedule) -> Option<f64> {
        let call = CALLS.with(|c| {
            c.set(c.get() + 1);
            c.get()
        });
        if !call.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.evaluate(schedule);
        }
        let t = cacs_obs::now();
        let value = self.inner.evaluate(schedule);
        let ns = t.elapsed().as_nanos() as u64;
        self.sampled_ns.fetch_add(ns, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
        value
    }
}

/// Cost of one `now()`/`elapsed()` pair, subtracted from each sample.
fn timer_overhead_ns() -> f64 {
    let mut samples = Vec::new();
    for _ in 0..2001 {
        let t = cacs_obs::now();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

pub fn traced_synthetic(
    seed: u64,
    space: &ScheduleSpace,
    config: &SweepConfig,
    setup_s: f64,
) -> Res<Obj> {
    let inner = cacs_distrib::synthetic::surrogate(space.app_count());
    let tracer = SampledEvaluator {
        inner: &inner,
        sampled_ns: AtomicU64::new(0),
        samples: AtomicU64::new(0),
    };
    let overhead_ns = timer_overhead_ns();
    let threads = cacs_par::thread_budget();
    let cpu0 = process_cpu_s();
    let t0 = cacs_obs::now();
    let report = cacs_search::exhaustive_search_with(&tracer, space, config)?;
    let wall_s = secs_since(t0);
    let cpu_s = process_cpu_s() - cpu0;
    let samples = tracer.samples.load(Ordering::Relaxed).max(1) as f64;
    let per_eval_ns =
        (tracer.sampled_ns.load(Ordering::Relaxed) as f64 / samples - overhead_ns).max(0.0);
    let busy_est_s = per_eval_ns * report.evaluated as f64 * 1e-9;
    let enumerated = report.enumerated.max(1) as f64;
    let layers = Obj::new()
        .int("search.requests", report.evaluated)
        .int("search.fresh", report.evaluated)
        .num("search.dedup_ratio", 1.0)
        .num("search.ns_per_rank", wall_s / enumerated * 1e9)
        .num("search.eval_ns_est", per_eval_ns)
        .int("par.threads", threads as u64)
        .num("par.busy_share", busy_est_s / (wall_s * threads as f64));
    Ok(Obj::new()
        .str("mode", "traced")
        .int("seed", seed)
        .num("setup_s", setup_s)
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .str(
            "best",
            &report.best.as_ref().map(schedule_tag).unwrap_or_default(),
        )
        .str(
            "best_bits",
            &value_tag(report.best.as_ref().map(|_| report.best_value)),
        )
        .obj("layers", layers)
        .strs("schedules", &[])
        .strs("values", &[]))
}
