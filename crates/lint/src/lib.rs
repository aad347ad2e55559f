//! `cacs-lint` — the workspace determinism-and-robustness linter.
//!
//! Every guarantee this reproduction trades on — byte-identical
//! parallel-vs-sequential sweeps, kill→resume digests, the
//! `CACS_THREADS` contract — rests on source-level invariants that
//! runtime tests can only sample: no wall-clock reads in decision
//! paths, poison-tolerant locking, checked rank arithmetic, CRC-framed
//! wire writes, no unordered iteration where bytes are emitted. This
//! crate machine-checks those invariants over the whole workspace and
//! fails CI when one drifts.
//!
//! # Architecture
//!
//! * [`lexer`] — a hand-rolled Rust tokeniser (the build is offline, so
//!   no `syn`): comments, all string/char/lifetime forms, float vs
//!   integer vs range disambiguation, multi-char operators. Pattern
//!   text inside strings or comments never reaches a rule.
//! * [`rules`] — the invariant rules as token-sequence matchers, each
//!   with an explicit path scope and a one-line statement of the
//!   contract it protects. See [`rules::RULES`].
//! * [`suppress`] — the in-source escape hatch:
//!   `// cacs-lint: allow(<rule>, reason = "…")`. The reason is
//!   mandatory; a malformed, unknown-rule or unmatched allow is itself
//!   a diagnostic, so the suppression inventory can only shrink by
//!   deleting violations.
//! * [`engine`] — per-file orchestration plus the workspace walker
//!   (vendored crates, `target/` and the fixture corpus are excluded).
//! * [`report`] — byte-stable JSON (`BENCH_lint.json`) recording rules,
//!   files scanned, violations and every suppression with its reason:
//!   the committed inventory of intentional contract exceptions.
//!
//! # The rules
//!
//! | rule | protects |
//! |------|----------|
//! | `wall-clock` | search decisions keyed on eval counts + objective bits, never time |
//! | `poisoned-lock` | `lock_recover` everywhere, so a panicking evaluation cannot abort unrelated searches |
//! | `raw-spawn` | all threads come from cacs-par / the strategy engine (`CACS_THREADS`) |
//! | `unchecked-rank-math` | rank/length arithmetic is `checked_`/`saturating_` (the PR-2 overflow class) |
//! | `hash-iter-in-digest` | digest/merge/emission code never iterates unordered containers |
//! | `float-eq` | `f64` equality only via `to_bits()` or the documented total order |
//! | `unframed-wire-write` | every hand-built wire line is CRC-framed end to end |
//!
//! Two meta-diagnostics police the escape hatch itself:
//! `bad-suppression` (malformed / missing reason / unknown rule) and
//! `unused-suppression` (an allow that matched nothing). Neither can be
//! suppressed.
//!
//! # Usage
//!
//! ```text
//! cargo run -p cacs-lint -- --deny-all            # the CI gate: exit 1 on any violation
//! cargo run -p cacs-lint -- --json BENCH_lint.json
//! cargo run -p cacs-lint -- --list-rules
//! cargo run -p cacs-lint -- path/to/file.rs       # lint specific files
//! ```
//!
//! The linter is single-threaded, reads no clocks and sorts everything
//! it emits — its own output is held to the determinism bar it
//! enforces.

#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod suppress;

pub use engine::{collect_workspace_files, lint_source, Diagnostic, FileOutcome, UsedSuppression};
pub use report::{render_json, RunSummary};
pub use rules::{RuleInfo, RULES};
