//! The fixture corpus: one known-bad and one suppressed snippet per
//! rule, asserting exact diagnostics (rule id, path, line), plus the
//! suppression-syntax error cases.
//!
//! Rules are path-scoped, so each fixture is linted under a *virtual*
//! path inside the rule's scope via the library API; the binary-level
//! exit-code contract is exercised by staging the same fixture at its
//! virtual path inside a temp tree and running the real `cacs-lint`
//! executable with `--deny-all`.

use cacs_lint::engine::lint_source;
use std::path::{Path, PathBuf};
use std::process::Command;

/// (rule id, fixture stem, virtual path inside the rule's scope,
/// expected violation line in the bad fixture).
const CASES: &[(&str, &str, &str, u32)] = &[
    ("wall-clock", "wall_clock", "crates/search/src/hybrid.rs", 4),
    (
        "poisoned-lock",
        "poisoned_lock",
        "crates/core/src/problem.rs",
        4,
    ),
    ("raw-spawn", "raw_spawn", "crates/core/src/optimize.rs", 4),
    (
        "unchecked-rank-math",
        "unchecked_rank_math",
        "crates/search/src/space.rs",
        4,
    ),
    (
        "hash-iter-in-digest",
        "hash_iter_in_digest",
        "crates/search/src/store.rs",
        4,
    ),
    ("float-eq", "float_eq", "crates/search/src/strategy.rs", 4),
    ("float-key", "float_key", "crates/core/src/ctx.rs", 4),
    (
        "unframed-wire-write",
        "unframed_wire_write",
        "src/bin/opt.rs",
        4,
    ),
    (
        "metrics-in-digest",
        "metrics_in_digest",
        "crates/core/src/report.rs",
        4,
    ),
];

fn fixture(kind: &str, stem: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
        .join(format!("{stem}.rs"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn every_bad_fixture_yields_exactly_its_diagnostic() {
    for &(rule, stem, virtual_path, line) in CASES {
        let out = lint_source(virtual_path, &fixture("bad", stem));
        let got: Vec<(String, String, u32)> = out
            .violations
            .iter()
            .map(|d| (d.rule.clone(), d.path.clone(), d.line))
            .collect();
        assert_eq!(
            got,
            vec![(rule.to_string(), virtual_path.to_string(), line)],
            "bad/{stem}.rs under {virtual_path}"
        );
        assert!(out.suppressions.is_empty(), "bad/{stem}.rs");
    }
}

#[test]
fn every_suppressed_fixture_is_clean_and_records_its_reason() {
    for &(rule, stem, virtual_path, _) in CASES {
        let out = lint_source(virtual_path, &fixture("suppressed", stem));
        assert!(
            out.violations.is_empty(),
            "suppressed/{stem}.rs under {virtual_path}: {:?}",
            out.violations
        );
        assert_eq!(out.suppressions.len(), 1, "suppressed/{stem}.rs");
        let s = &out.suppressions[0];
        assert_eq!(s.rules, vec![rule.to_string()]);
        assert!(
            s.reason.starts_with("fixture:"),
            "suppressed/{stem}.rs reason: {}",
            s.reason
        );
    }
}

#[test]
fn allow_without_reason_is_itself_an_error_and_suppresses_nothing() {
    let out = lint_source(
        "crates/search/src/hybrid.rs",
        &fixture("bad", "missing_reason"),
    );
    let got: Vec<(&str, u32)> = out
        .violations
        .iter()
        .map(|d| (d.rule.as_str(), d.line))
        .collect();
    assert_eq!(got, vec![("bad-suppression", 3), ("wall-clock", 5)]);
}

#[test]
fn allow_naming_an_unknown_rule_is_an_error() {
    let out = lint_source(
        "crates/search/src/hybrid.rs",
        &fixture("bad", "unknown_rule"),
    );
    let got: Vec<(&str, u32)> = out
        .violations
        .iter()
        .map(|d| (d.rule.as_str(), d.line))
        .collect();
    assert_eq!(got, vec![("bad-suppression", 3)]);
}

// ------------------------------------------------------- binary contract

/// Stages `source` at `virtual_path` under a fresh temp root and runs
/// the real binary on it.
fn run_binary_on(virtual_path: &str, source: &str, unique: &str) -> std::process::Output {
    let root =
        std::env::temp_dir().join(format!("cacs-lint-fixture-{}-{unique}", std::process::id()));
    let staged = root.join(virtual_path);
    std::fs::create_dir_all(staged.parent().expect("parent")).expect("create temp tree");
    std::fs::write(&staged, source).expect("stage fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_cacs-lint"))
        .arg("--deny-all")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run cacs-lint");
    std::fs::remove_dir_all(&root).ok();
    out
}

#[test]
fn binary_exits_nonzero_on_each_bad_fixture_and_zero_on_each_suppressed_one() {
    for &(rule, stem, virtual_path, line) in CASES {
        let out = run_binary_on(virtual_path, &fixture("bad", stem), stem);
        assert_eq!(
            out.status.code(),
            Some(1),
            "bad/{stem}.rs should fail --deny-all"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("{virtual_path}:{line}: [{rule}]")),
            "bad/{stem}.rs diagnostic missing from:\n{stdout}"
        );

        let out = run_binary_on(virtual_path, &fixture("suppressed", stem), stem);
        assert_eq!(
            out.status.code(),
            Some(0),
            "suppressed/{stem}.rs should pass --deny-all: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn binary_reports_the_suppression_inventory_in_json() {
    let root = std::env::temp_dir().join(format!("cacs-lint-json-{}", std::process::id()));
    let staged = root.join("crates/search/src/hybrid.rs");
    std::fs::create_dir_all(staged.parent().expect("parent")).expect("create temp tree");
    std::fs::write(&staged, fixture("suppressed", "wall_clock")).expect("stage fixture");
    let json_path = root.join("report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_cacs-lint"))
        .arg("--deny-all")
        .arg("--root")
        .arg(&root)
        .arg("--json")
        .arg(&json_path)
        .output()
        .expect("run cacs-lint");
    assert_eq!(out.status.code(), Some(0));
    let json = std::fs::read_to_string(&json_path).expect("read report");
    std::fs::remove_dir_all(&root).ok();
    assert!(json.contains("\"violation_count\": 0"), "{json}");
    assert!(json.contains("\"suppression_count\": 1"), "{json}");
    assert!(
        json.contains("fixture: elapsed display only, never a decision"),
        "{json}"
    );
    // Every rule's contract is described in the report.
    for r in cacs_lint::rules::RULES {
        assert!(json.contains(r.id), "{json}");
    }
}

#[test]
fn the_workspace_itself_is_lint_clean_under_deny_all() {
    // The acceptance gate, from inside the test suite: the repo at HEAD
    // has zero violations (fixes or reason-carrying suppressions only).
    let workspace_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let out = Command::new(env!("CARGO_BIN_EXE_cacs-lint"))
        .arg("--deny-all")
        .arg("--root")
        .arg(&workspace_root)
        .output()
        .expect("run cacs-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace has lint violations:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
