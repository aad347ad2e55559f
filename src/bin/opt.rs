//! `cacs-opt`: strategy-aware resumable multistart search over a
//! problem's schedule space — one CLI for the paper's hybrid search and
//! the annealing / genetic / tabu baselines, all on the unified
//! strategy engine with the persistent digest-addressed evaluation
//! store.
//!
//! ```text
//! cacs-opt --problem <spec> [--strategy hybrid|anneal|genetic|tabu]
//!     [--starts m1xm2x…[,m1xm2x…]]           start points (default: round-robin)
//!     [--store FILE] [--resume]              persistent evaluation store
//!     [--kill-after-fresh-evals N]           exit(9) before fresh evaluation N+1
//!     [--selfcheck]                          compare against the uninterrupted
//!                                            in-memory run, byte for byte
//!     …strategy knobs (see --help text)
//! ```
//!
//! Every strategy inherits the store/resume semantics the hybrid search
//! pioneered: kill→resume cycles are bit-identical with strictly fewer
//! fresh evaluations, enforced by `--selfcheck` (exit 3 on divergence)
//! and the CI `cli-smoke` job. See [`cacs::cli::driver`] for the
//! full contract.

fn main() {
    cacs::cli::driver::cli_main("cacs-opt")
}
