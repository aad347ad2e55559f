# Developer entry points for the cacs workspace.

# Full tier-1 verification: release build + complete test suite.
verify:
    cargo build --release
    cargo test -q

# Lint exactly like CI does: format, clippy, then the workspace
# determinism-and-robustness linter (see README "Determinism
# invariants" and crates/lint).
lint:
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings
    cargo run --release -p cacs-lint -- --deny-all --json BENCH_lint.json

# Run the perf-baseline self-checks and rewrite their BENCH_*.json at
# the repo root: the strategy shootout's answers and resume check, the
# eval-cache speed-up floor, the <3% recorder overhead and the
# streaming sweep's constant memory. Exits non-zero when a gate
# fails. Timings come from perfbench (python3 perfbench/run.py), not
# from here. Uses the reduced synthesis budget; pass FLAGS="--full" for
# the paper-accuracy budget. CACS_THREADS caps the worker threads.
bench FLAGS="":
    cargo run --release -p cacs-bench --bin perf-baseline -- {{FLAGS}}

# Regenerate the paper's tables/figures as machine-readable output.
tables FLAGS="--fast":
    cargo run --release -p cacs-bench --bin paper-tables -- {{FLAGS}}

# Criterion-style microbenchmarks (vendored harness, wall-clock only).
microbench:
    cargo bench -p cacs-bench

# Profile a search with the cacs-obs recorder on: per-phase timing
# histograms (synthesis phases, expm, full evaluations), cache
# hit/miss and PSO call counts on stderr, plus the byte-stable metrics
# JSON at OUT. Digests are unchanged by profiling — the recorder is
# reporting-only (BENCH_obs_overhead.json gates its cost on a full,
# cache-off evaluation at <3%).
profile PROBLEM="paper-fast" STRATEGY="hybrid" OUT="/tmp/cacs-profile.json" FLAGS="":
    cargo build --release --bin cacs-opt
    target/release/cacs-opt --problem {{PROBLEM}} --strategy {{STRATEGY}} \
        --metrics {{OUT}} {{FLAGS}}

# Strategy-aware resumable multistart search: STRATEGY is hybrid,
# anneal, genetic or tabu — all four run on the unified engine with
# identical store/resume/selfcheck semantics (see `cacs-opt` for the
# per-strategy knobs and `BENCH_strategy_shootout.json` for the
# tracked comparison).
opt STRATEGY="hybrid" PROBLEM="paper-fast" STARTS="4x2x2,1x2x1" FLAGS="":
    cargo build --release --bin cacs-opt
    target/release/cacs-opt --problem {{PROBLEM}} --strategy {{STRATEGY}} \
        --starts {{STARTS}} {{FLAGS}}

# Resumable hybrid search demo: kill a multistart run hard after N
# fresh evaluations, then resume it from the persistent store and
# self-check that the resumed run is byte-identical to an uninterrupted
# one with strictly fewer fresh evaluations (the CI cli-smoke
# gate). PROBLEM and STARTS as for cacs-opt.
hybrid-resume PROBLEM="paper-fast" STARTS="4x2x2,1x2x1" KILL_AFTER="5":
    cargo build --release --bin cacs-opt
    rm -f /tmp/cacs-opt-hybrid-demo.store /tmp/cacs-opt-hybrid-demo.store.log
    -target/release/cacs-opt --problem {{PROBLEM}} --strategy hybrid --starts {{STARTS}} \
        --store /tmp/cacs-opt-hybrid-demo.store --kill-after-fresh-evals {{KILL_AFTER}}
    target/release/cacs-opt --problem {{PROBLEM}} --strategy hybrid --starts {{STARTS}} \
        --store /tmp/cacs-opt-hybrid-demo.store --resume --selfcheck
