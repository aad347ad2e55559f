//! `perf-baseline`: the self-check of the perf contracts that no test
//! covers. It writes four machine-readable files:
//!
//! * `BENCH_strategy_shootout.json` — the paper's Section-V strategy
//!   comparison on the unified engine: best schedule, objective bit
//!   pattern and fresh-evaluation count for each of hybrid / anneal /
//!   genetic / tabu, each run doubling as a store-backed resume
//!   self-check (bit-identical, zero fresh evaluations on resume —
//!   enforced for all four);
//! * `BENCH_eval_cost.json` — per-schedule stage-1 evaluations (the
//!   Section-V observation that cost grows with the task counts `m_i`),
//!   run cache-off (the reference path), cache-cold and cache-warm on a
//!   fresh `EvalCtx`: the caching speed-up (gated ≥ 1.5×), the
//!   app-synthesis `cache_hit_rate` and `bit_identical_with_cache_off`;
//! * `BENCH_obs_overhead.json` — one cache-off full evaluation with the
//!   `cacs-obs` recorder disabled and enabled (gated < 3%, result bits
//!   unchanged, every evaluation recorded);
//! * `BENCH_streaming_sweep.json` — the answers of the streaming
//!   exhaustive engine on a synthetic 2,097,152-schedule box and the
//!   peak-RSS growth proving constant-memory operation.
//!
//! Every file also records a `host` block (hostname, logical cores, raw
//! `CACS_THREADS`) so files from different machines are diffable.
//! Each floor is a ratio of two measurements taken in this one process;
//! the pipeline's own timings come from `perfbench/` (cold, one process
//! per repetition), and its answers are pinned by the tier-1 tests.
//!
//! ```text
//! cargo run --release -p cacs-bench --bin perf-baseline [--full] [--out DIR]
//! ```
//!
//! `--fast` (default) uses the reduced synthesis budget; `--full` uses
//! the paper-accuracy budget (slow). `CACS_THREADS` caps the worker
//! threads; the file records the count used. The binary exits non-zero
//! when any gate fails.

use cacs_apps::paper_case_study;
use cacs_bench::host_metadata_json;
use cacs_core::{CodesignProblem, EvaluationConfig};
use cacs_sched::Schedule;
use cacs_search::{
    exhaustive_search_with, AnnealConfig, EvalStore, GeneticConfig, HybridConfig, ScheduleSpace,
    StrategyConfig, SweepConfig, TabuConfig,
};
use std::fmt::Write as _;
use std::path::PathBuf;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Process peak resident-set size (`VmHWM`) in KiB; `None` off Linux.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak-RSS growth allowed across the streaming sweep. Materialising the
/// 2M-schedule box costs hundreds of MiB; the lane sweep buffers no
/// candidates (each lane holds one schedule at a time), so 64 MiB is
/// generous headroom.
const STREAMING_RSS_LIMIT_KIB: u64 = 64 * 1024;

/// Dimensions of the synthetic streaming box: 128³ = 2,097,152
/// schedules, the scale the paper's 77-schedule sweep grows into.
const STREAMING_BOX: [u32; 3] = [128, 128, 128];

/// Repetitions per recorder state in the obs-overhead measurement; the
/// minimum of each side is compared, so a slow rep cannot fail the
/// gate. Thirty, because one full evaluation (~40 ms at the fast
/// budget) varies by several percent between reps on a shared host.
const OBS_OVERHEAD_REPS: usize = 30;

/// Ceiling on the recorder-enabled slowdown of one full evaluation.
const OBS_OVERHEAD_LIMIT_PCT: f64 = 3.0;

/// Floor on the EvalCtx caching speed-up over the cache-disabled
/// reference path (mean over the eval-cost schedules, cold/warm mean
/// vs cache-off). A warm re-evaluation skips the whole PSO run, so the
/// cold+warm mean sits near 2×; 1.5 leaves headroom for noise while
/// still failing loudly if the caches stop hitting.
const EVAL_CACHE_SPEEDUP_FLOOR: f64 = 1.5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    std::fs::create_dir_all(&out_dir)?;

    let config = if full {
        EvaluationConfig::default()
    } else {
        EvaluationConfig::fast()
    };
    let study = paper_case_study()?;
    let problem = CodesignProblem::from_case_study(&study, config)?;
    let threads = cacs_par::thread_budget();
    let budget = format!("{}x{}", config.pso_particles, config.pso_iterations);

    let starts = [Schedule::new(vec![4, 2, 2])?, Schedule::new(vec![1, 2, 1])?];
    let problem_digest = if full { "paper-full" } else { "paper-fast" };
    let space = problem.schedule_space()?;
    let host = host_metadata_json();

    // ----- strategy shootout ----------------------------------------
    // The paper's Section-V comparison as a tracked baseline: every
    // strategy of the unified engine (hybrid, annealing, genetic, tabu)
    // runs the same multistart on the paper problem, recording what it
    // found (best schedule + objective bit pattern) and what it paid
    // (fresh-evaluation count). Each run doubles as a store-resume
    // self-check: the run is journalled to a fresh EvalStore, resumed,
    // and the resumed reports must be bit-identical with strictly fewer
    // fresh evaluations — the engine's resume contract, enforced for
    // all four strategies (non-zero exit on any divergence).
    eprintln!("perf-baseline: strategy shootout (hybrid / anneal / genetic / tabu)…");
    let strategies: [StrategyConfig; 4] = [
        StrategyConfig::Hybrid(HybridConfig::default()),
        StrategyConfig::Anneal(AnnealConfig::default()),
        StrategyConfig::Genetic(GeneticConfig::default()),
        StrategyConfig::Tabu(TabuConfig::default()),
    ];
    let shootout_dir =
        std::env::temp_dir().join(format!("cacs-bench-shootout-{}", std::process::id()));
    // A previous run that errored out mid-shootout (or a recycled pid)
    // may have left stores behind; a stale warm store would corrupt the
    // "first run pays everything" accounting below.
    if shootout_dir.exists() {
        std::fs::remove_dir_all(&shootout_dir)?;
    }
    std::fs::create_dir_all(&shootout_dir)?;
    struct ShootoutRow {
        name: &'static str,
        best: Option<(String, f64)>,
        fresh: usize,
        unique: usize,
        resumed_fresh: usize,
        resume_identical: bool,
    }
    let mut shootout_rows: Vec<ShootoutRow> = Vec::new();
    for strategy in &strategies {
        eprintln!("perf-baseline: shootout — {}…", strategy.name());
        let store_path = shootout_dir.join(format!("{}.store", strategy.name()));
        let store = EvalStore::open(&store_path, problem_digest, &space)?;
        let first = problem.optimize_with_strategy(&starts, strategy, Some(&store))?;
        drop(store);
        let store = EvalStore::open(&store_path, problem_digest, &space)?;
        let resumed = problem.optimize_with_strategy(&starts, strategy, Some(&store))?;
        drop(store);
        // The first run starts from an empty store, so it must pay at
        // least one fresh evaluation, and the resumed run — the store
        // holds the complete request set — must pay exactly zero.
        let resume_identical = first.searches.len() == resumed.searches.len()
            && first.searches.iter().zip(&resumed.searches).all(|(a, b)| {
                a.report.best == b.report.best
                    && a.report.best_value.to_bits() == b.report.best_value.to_bits()
                    && a.report.evaluations == b.report.evaluations
                    && a.report.trajectory == b.report.trajectory
            })
            && first.stats.fresh_evaluations > 0
            && resumed.stats.fresh_evaluations == 0;
        shootout_rows.push(ShootoutRow {
            name: strategy.name(),
            best: first.best.as_ref().map(|(s, v)| (s.to_string(), *v)),
            fresh: first.stats.fresh_evaluations,
            unique: first.stats.unique_evaluations,
            resumed_fresh: resumed.stats.fresh_evaluations,
            resume_identical,
        });
    }
    std::fs::remove_dir_all(&shootout_dir)?;
    let shootout_ok = shootout_rows.iter().all(|r| r.resume_identical);

    let mut shootout_json = String::new();
    writeln!(shootout_json, "{{")?;
    writeln!(shootout_json, "  \"bench\": \"strategy_shootout\",")?;
    writeln!(
        shootout_json,
        "  \"problem\": \"{}\",",
        json_escape(problem_digest)
    )?;
    writeln!(shootout_json, "  \"budget\": \"{}\",", json_escape(&budget))?;
    writeln!(shootout_json, "  \"threads\": {threads},")?;
    writeln!(shootout_json, "  \"host\": {host},")?;
    writeln!(
        shootout_json,
        "  \"starts\": [{}],",
        starts
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    )?;
    writeln!(shootout_json, "  \"strategies\": [")?;
    for (i, r) in shootout_rows.iter().enumerate() {
        let sep = if i + 1 == shootout_rows.len() {
            ""
        } else {
            ","
        };
        let (best, p_all, bits) = match &r.best {
            Some((s, v)) => (
                format!("\"{}\"", json_escape(s)),
                format!("{v:.12}"),
                format!("\"{:016x}\"", v.to_bits()),
            ),
            None => (
                "null".to_string(),
                "null".to_string(),
                "\"none\"".to_string(),
            ),
        };
        writeln!(
            shootout_json,
            "    {{ \"strategy\": \"{}\", \"best_schedule\": {best}, \"best_p_all\": {p_all}, \
             \"best_p_all_bits\": {bits}, \"fresh_evaluations\": {}, \"unique_evaluations\": {}, \
             \"resumed_fresh_evaluations\": {}, \"resume_bit_identical\": {} }}{sep}",
            r.name, r.fresh, r.unique, r.resumed_fresh, r.resume_identical,
        )?;
    }
    writeln!(shootout_json, "  ],")?;
    writeln!(
        shootout_json,
        "  \"all_strategies_resume_bit_identical\": {shootout_ok}"
    )?;
    writeln!(shootout_json, "}}")?;
    let shootout_path = out_dir.join("BENCH_strategy_shootout.json");
    std::fs::write(&shootout_path, &shootout_json)?;
    eprintln!("perf-baseline: wrote {}", shootout_path.display());

    // ----- per-schedule evaluation-cost baseline --------------------
    // Section V: evaluating one schedule grows with the task counts.
    // Each schedule is evaluated three times: on a cache-disabled
    // problem (the reference path), then cold and warm on a problem
    // with a fresh EvalCtx — fresh so hits from the earlier sections
    // cannot leak in. The warm pass models what searches actually pay
    // on re-probed schedules (selfcheck reruns, repeated strategy
    // probes); the cache-on cost is the cold/warm mean, and every P_all
    // bit pattern must agree across all three runs.
    let cost_schedules = [
        vec![1u32, 1, 1],
        vec![2, 1, 1],
        vec![1, 2, 1],
        vec![2, 2, 2],
        vec![3, 2, 3],
        vec![4, 2, 2],
    ];
    let cost_problem = CodesignProblem::from_case_study(&study, config)?;
    let mut uncached_problem = CodesignProblem::from_case_study(&study, config)?;
    uncached_problem.set_eval_cache(false);
    struct CostRow {
        name: String,
        total_m: u32,
        off_ms: f64,
        cold_ms: f64,
        warm_ms: f64,
        pso_evals: usize,
        p_all: Option<f64>,
        bits_agree: bool,
    }
    let mut rows: Vec<CostRow> = Vec::new();
    for counts in &cost_schedules {
        let schedule = Schedule::new(counts.clone())?;
        if !cost_problem.idle_feasible_schedule(&schedule) {
            continue;
        }
        eprintln!("perf-baseline: evaluating {schedule} (cache off / cold / warm)…");
        let t = cacs_obs::now();
        let off = uncached_problem.evaluate_schedule(&schedule)?;
        let off_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = cacs_obs::now();
        let cold = cost_problem.evaluate_schedule(&schedule)?;
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = cacs_obs::now();
        let warm = cost_problem.evaluate_schedule(&schedule)?;
        let warm_ms = t.elapsed().as_secs_f64() * 1e3;
        let bits = |p: Option<f64>| p.map(f64::to_bits);
        let bits_agree = bits(off.overall_performance) == bits(cold.overall_performance)
            && bits(cold.overall_performance) == bits(warm.overall_performance);
        let pso_evals: usize = cold.apps.iter().map(|a| a.controller.evaluations).sum();
        rows.push(CostRow {
            name: schedule.to_string(),
            total_m: counts.iter().sum::<u32>(),
            off_ms,
            cold_ms,
            warm_ms,
            pso_evals,
            p_all: cold.overall_performance,
            bits_agree,
        });
    }
    let app_hits = cost_problem.eval_ctx().app_cache_hits();
    let app_misses = cost_problem.eval_ctx().app_cache_misses();
    let cache_hit_rate = app_hits as f64 / ((app_hits + app_misses) as f64).max(1.0);
    let mean = |f: &dyn Fn(&CostRow) -> f64| -> f64 {
        rows.iter().map(f).sum::<f64>() / (rows.len() as f64).max(1.0)
    };
    let mean_off = mean(&|r| r.off_ms);
    let mean_on = mean(&|r| (r.cold_ms + r.warm_ms) / 2.0);
    let eval_cache_speedup = mean_off / mean_on.max(1e-9);
    let eval_cache_identical = !rows.is_empty() && rows.iter().all(|r| r.bits_agree);
    let eval_cache_fast_enough = eval_cache_speedup >= EVAL_CACHE_SPEEDUP_FLOOR;

    let mut cost_json = String::new();
    writeln!(cost_json, "{{")?;
    writeln!(cost_json, "  \"bench\": \"eval_cost\",")?;
    writeln!(cost_json, "  \"budget\": \"{}\",", json_escape(&budget))?;
    writeln!(cost_json, "  \"threads\": {threads},")?;
    writeln!(cost_json, "  \"host\": {host},")?;
    writeln!(cost_json, "  \"schedules\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let p = r.p_all.map_or("null".to_string(), |v| format!("{v:.12}"));
        writeln!(
            cost_json,
            "    {{ \"schedule\": \"{}\", \"total_tasks\": {}, \"pso_evaluations\": {}, \
             \"p_all\": {p} }}{sep}",
            json_escape(&r.name),
            r.total_m,
            r.pso_evals,
        )?;
    }
    writeln!(cost_json, "  ],")?;
    writeln!(cost_json, "  \"mean_wall_ms_cache_off\": {mean_off:.1},")?;
    writeln!(cost_json, "  \"mean_wall_ms_cache_on\": {mean_on:.1},")?;
    writeln!(
        cost_json,
        "  \"speedup_vs_cache_off\": {eval_cache_speedup:.3},"
    )?;
    writeln!(
        cost_json,
        "  \"speedup_floor\": {EVAL_CACHE_SPEEDUP_FLOOR:.1},"
    )?;
    writeln!(cost_json, "  \"cache_hit_rate\": {cache_hit_rate:.3},")?;
    writeln!(
        cost_json,
        "  \"bit_identical_with_cache_off\": {eval_cache_identical}"
    )?;
    writeln!(cost_json, "}}")?;
    let cost_path = out_dir.join("BENCH_eval_cost.json");
    std::fs::write(&cost_path, &cost_json)?;
    eprintln!(
        "perf-baseline: wrote {} (cache speedup {eval_cache_speedup:.2}x, hit rate {cache_hit_rate:.2})",
        cost_path.display()
    );

    // ----- observability-overhead baseline --------------------------
    // The cacs-obs contract measured: a full stage-1 evaluation with the
    // recorder enabled must cost < OBS_OVERHEAD_LIMIT_PCT more than with
    // it disabled, and must produce bit-identical scientific results.
    // The cache-off problem makes every rep a full synthesis; on a
    // cached one each rep after the first is an app-memo hit. Disabled
    // and enabled reps alternate, so drift in host load hits both sides
    // alike, and min-of-N on each side cancels scheduler noise; the
    // warmup rep keeps cold CPU caches and allocator pages out of the
    // first disabled rep.
    let obs_schedule = Schedule::new(vec![4, 2, 2])?;
    eprintln!(
        "perf-baseline: obs overhead — {OBS_OVERHEAD_REPS}× {obs_schedule} with the recorder \
         disabled and enabled, alternating…"
    );
    // One timed evaluation: (wall ms, P_all bit pattern).
    let time_eval = || -> Result<(f64, Option<u64>), Box<dyn std::error::Error>> {
        let t = cacs_obs::now();
        let eval = uncached_problem.evaluate_schedule(&obs_schedule)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        Ok((ms, eval.overall_performance.map(f64::to_bits)))
    };
    cacs_obs::reset();
    let (_, reference_bits) = time_eval()?; // warmup, recorder disabled
    let (mut disabled_ms, mut enabled_ms) = (f64::INFINITY, f64::INFINITY);
    let mut digest_unchanged = reference_bits.is_some();
    for _ in 0..OBS_OVERHEAD_REPS {
        let (ms, bits) = time_eval()?;
        disabled_ms = disabled_ms.min(ms);
        digest_unchanged &= bits == reference_bits;
        cacs_obs::enable();
        let (ms, bits) = time_eval()?;
        cacs_obs::disable();
        enabled_ms = enabled_ms.min(ms);
        digest_unchanged &= bits == reference_bits;
    }
    let recorded_evals = cacs_obs::metrics::EVAL_SCHEDULES.get();
    let overhead_pct = (enabled_ms - disabled_ms) / disabled_ms.max(1e-9) * 100.0;
    // The recorder only saw the enabled reps.
    let recorder_saw_all = recorded_evals == OBS_OVERHEAD_REPS as u64;
    let obs_overhead_ok = overhead_pct < OBS_OVERHEAD_LIMIT_PCT;

    let mut obs_json = String::new();
    writeln!(obs_json, "{{")?;
    writeln!(obs_json, "  \"bench\": \"obs_overhead\",")?;
    writeln!(obs_json, "  \"budget\": \"{}\",", json_escape(&budget))?;
    writeln!(obs_json, "  \"threads\": {threads},")?;
    writeln!(obs_json, "  \"host\": {host},")?;
    writeln!(obs_json, "  \"schedule\": \"{obs_schedule}\",")?;
    writeln!(obs_json, "  \"reps\": {OBS_OVERHEAD_REPS},")?;
    writeln!(obs_json, "  \"wall_ms_disabled\": {disabled_ms:.3},")?;
    writeln!(obs_json, "  \"wall_ms_enabled\": {enabled_ms:.3},")?;
    writeln!(obs_json, "  \"overhead_pct\": {overhead_pct:.3},")?;
    writeln!(
        obs_json,
        "  \"overhead_limit_pct\": {OBS_OVERHEAD_LIMIT_PCT:.1},"
    )?;
    writeln!(obs_json, "  \"overhead_ok\": {obs_overhead_ok},")?;
    writeln!(
        obs_json,
        "  \"p_all_bits\": \"{:016x}\",",
        reference_bits.unwrap_or(0)
    )?;
    writeln!(
        obs_json,
        "  \"recorder_saw_all_evals\": {recorder_saw_all},"
    )?;
    writeln!(obs_json, "  \"digest_unchanged\": {digest_unchanged}")?;
    writeln!(obs_json, "}}")?;
    let obs_path = out_dir.join("BENCH_obs_overhead.json");
    std::fs::write(&obs_path, &obs_json)?;
    eprintln!(
        "perf-baseline: wrote {} (overhead {overhead_pct:+.2}%)",
        obs_path.display()
    );

    // ----- streaming-sweep baseline ---------------------------------
    // The multi-million-schedule engine: a 128³ synthetic box swept
    // at constant memory, checked against a peak-RSS growth bound.
    let eval = cacs_distrib::synthetic::surrogate(STREAMING_BOX.len());
    let space = ScheduleSpace::new(STREAMING_BOX.to_vec())?;
    let sweep = SweepConfig {
        // µs-scale objective: amortise the per-claim dispatch overhead.
        dispatch_grain: 1024,
        ..SweepConfig::constant_memory()
    };

    eprintln!(
        "perf-baseline: streaming sweep of {} schedules ({threads} threads)…",
        space.len()
    );
    let rss_before_kib = peak_rss_kib();
    let stream = exhaustive_search_with(&eval, &space, &sweep)?;
    let rss_after_kib = peak_rss_kib();

    let rss_delta_kib = match (rss_before_kib, rss_after_kib) {
        (Some(before), Some(after)) => Some(after.saturating_sub(before)),
        _ => None,
    };
    let constant_memory_ok = rss_delta_kib.is_none_or(|d| d <= STREAMING_RSS_LIMIT_KIB);
    let stream_best = stream
        .best
        .clone()
        .ok_or("streaming sweep found nothing feasible")?;

    let mut stream_json = String::new();
    writeln!(stream_json, "{{")?;
    writeln!(stream_json, "  \"bench\": \"streaming_sweep\",")?;
    writeln!(stream_json, "  \"threads\": {threads},")?;
    writeln!(stream_json, "  \"host\": {host},")?;
    writeln!(
        stream_json,
        "  \"box\": \"{}x{}x{}\",",
        STREAMING_BOX[0], STREAMING_BOX[1], STREAMING_BOX[2]
    )?;
    writeln!(
        stream_json,
        "  \"dispatch_grain\": {},",
        sweep.dispatch_grain
    )?;
    writeln!(stream_json, "  \"enumerated\": {},", stream.enumerated)?;
    writeln!(stream_json, "  \"evaluated\": {},", stream.evaluated)?;
    writeln!(stream_json, "  \"feasible\": {},", stream.feasible)?;
    writeln!(stream_json, "  \"best_schedule\": \"{stream_best}\",")?;
    writeln!(stream_json, "  \"best_value\": {:.12},", stream.best_value)?;
    match rss_delta_kib {
        Some(d) => writeln!(stream_json, "  \"peak_rss_delta_kib\": {d},")?,
        None => writeln!(stream_json, "  \"peak_rss_delta_kib\": null,")?,
    }
    writeln!(
        stream_json,
        "  \"peak_rss_limit_kib\": {STREAMING_RSS_LIMIT_KIB},"
    )?;
    writeln!(
        stream_json,
        "  \"constant_memory_ok\": {constant_memory_ok}"
    )?;
    writeln!(stream_json, "}}")?;
    let stream_path = out_dir.join("BENCH_streaming_sweep.json");
    std::fs::write(&stream_path, &stream_json)?;
    eprintln!("perf-baseline: wrote {}", stream_path.display());

    if !shootout_ok {
        let broken: Vec<&str> = shootout_rows
            .iter()
            .filter(|r| !r.resume_identical)
            .map(|r| r.name)
            .collect();
        return Err(format!(
            "strategy shootout resume contract broken for: {}",
            broken.join(", ")
        )
        .into());
    }
    if !eval_cache_identical {
        return Err("cached evaluation diverged bitwise from the cache-off reference path".into());
    }
    if !eval_cache_fast_enough {
        return Err(format!(
            "EvalCtx caching speedup {eval_cache_speedup:.2}x is below the \
             {EVAL_CACHE_SPEEDUP_FLOOR}x floor ({mean_off:.1} ms cache-off vs {mean_on:.1} ms \
             cache-on mean)"
        )
        .into());
    }
    if !constant_memory_ok {
        return Err(format!(
            "streaming sweep peak RSS grew by {} KiB (limit {} KiB) — not constant-memory",
            rss_delta_kib.unwrap_or(0),
            STREAMING_RSS_LIMIT_KIB
        )
        .into());
    }
    if !digest_unchanged {
        return Err(format!(
            "an evaluation diverged from the recorder-off reference bits {reference_bits:?}"
        )
        .into());
    }
    if !recorder_saw_all {
        return Err(format!(
            "recorder missed evaluations: saw {recorded_evals}, expected {OBS_OVERHEAD_REPS}"
        )
        .into());
    }
    if !obs_overhead_ok {
        return Err(format!(
            "obs recording overhead {overhead_pct:.2}% exceeds the {OBS_OVERHEAD_LIMIT_PCT}% budget \
             ({disabled_ms:.3} ms disabled vs {enabled_ms:.3} ms enabled)"
        )
        .into());
    }
    Ok(())
}
