//! Shared fixtures for the `cacs` benchmark harness.
//!
//! Each bench target regenerates one experiment of the paper (see
//! DESIGN.md §4 for the experiment index):
//!
//! * `wcet_analysis` — Table I (cold/warm WCETs, guaranteed reduction),
//! * `controller_design` — stage-1 holistic design cost behind Table III
//!   and Figure 6,
//! * `eval_cost_vs_m` — the Section V observation that evaluating one
//!   schedule grows from seconds (`m = 1`) towards hours (`m > 5`),
//! * `schedule_search` — hybrid vs exhaustive evaluation economy
//!   (Section IV/V),
//! * `search_ablation` — tolerance / multistart ablation and the
//!   GA/tabu baseline economy comparison (DESIGN.md §6),
//! * `cache_analyses` — cost of the may/persistence/locking analyses
//!   relative to plain must-analysis,
//! * `linalg_kernels`, `cache_sim` — substrate microbenchmarks.
//!
//! The `paper-tables` binary (`src/bin/paper_tables.rs`) regenerates
//! every table as machine-readable CSV-ish lines plus the Figure 6 CSV
//! files.

#![forbid(unsafe_code)]

use cacs_apps::{paper_case_study, CaseStudy};
use cacs_core::{CodesignProblem, EvaluationConfig};

/// The paper's case study, built once per bench target.
pub fn case_study() -> CaseStudy {
    paper_case_study().expect("paper case study builds")
}

/// The machine's hostname, for the host-metadata block: kernel value on
/// Linux, `HOSTNAME` elsewhere, `"unknown"` as last resort.
pub fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .ok()
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok().filter(|s| !s.is_empty()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host-metadata JSON object recorded in every `BENCH_*.json`, so
/// baselines from different machines are diffable (the committed
/// baselines were recorded on a 1-core container — a multi-core number
/// next to them must be recognisable as a different host): hostname,
/// logical core count, and the raw `CACS_THREADS` setting (distinct
/// from the *effective* thread count, which each bench reports
/// separately as `threads`).
pub fn host_metadata_json() -> String {
    let logical_cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let cacs_threads = match std::env::var("CACS_THREADS") {
        Ok(v) => format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")),
        Err(_) => "null".to_string(),
    };
    format!(
        "{{ \"hostname\": \"{}\", \"logical_cores\": {logical_cores}, \"cacs_threads_env\": {cacs_threads} }}",
        hostname().replace('\\', "\\\\").replace('"', "\\\"")
    )
}

/// A co-design problem with a benchmark-sized synthesis budget. The
/// reduced `fast()` budget (24 particles × 80 iterations) is the smallest
/// that reliably synthesises a feasible design for every case-study
/// application — smaller budgets fail on the brake loop's tight
/// saturation bound, and a bench that times failures measures nothing.
pub fn bench_problem() -> CodesignProblem {
    CodesignProblem::from_case_study(&case_study(), EvaluationConfig::fast())
        .expect("problem builds")
}
