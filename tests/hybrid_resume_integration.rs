//! Integration tests for resumable hybrid searches at the outermost
//! layer: the `cacs-opt --strategy hybrid` **binary** as a real child
//! process. A run is killed mid-multistart by the deterministic
//! `--kill-after-fresh-evals` injection (a hard `exit(9)` from inside
//! an evaluation — nothing unwinds, nothing flushes afterwards), then
//! resumed from the store in a fresh process; the resumed digest must
//! be byte-identical to an uninterrupted run's, with strictly fewer
//! fresh evaluations (the binary's own `--selfcheck` enforces both,
//! and the test additionally compares digests across processes). A
//! resume under a different problem digest must be refused.

use std::path::Path;
use std::process::Command;

const PROBLEM: &str = "synthetic:16x16x16";
const STARTS: &str = "8x8x8,2x3x4";

fn run_hybrid(extra: &[&str]) -> (Option<i32>, String, String) {
    let bin = env!("CARGO_BIN_EXE_cacs-opt");
    let output = Command::new(bin)
        .args(["--problem", PROBLEM, "--starts", STARTS])
        .args(["--strategy", "hybrid"])
        .args(extra)
        .output()
        .expect("run cacs-opt");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cacs-opt-hybrid-it-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("hybrid.store")
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// Kill → resume across real processes: phase 1 exits hard (status 9)
/// after 6 fresh evaluations, phase 2 resumes with `--selfcheck` (which
/// itself verifies byte-identity and strictly-fewer fresh evaluations
/// against an uninterrupted in-process run), and the test cross-checks
/// the resumed digest against a third, storeless process's digest.
#[test]
fn process_kill_resume_cycle_is_bit_identical() {
    let store = temp_store("cycle");
    let store_arg = store.to_str().unwrap();

    // Phase 1: killed mid-run. Exit code 9 tells the injected death
    // apart from a real failure; the store must exist afterwards.
    let (code, _, stderr) = run_hybrid(&["--store", store_arg, "--kill-after-fresh-evals", "6"]);
    assert_eq!(
        code,
        Some(9),
        "expected the injected kill; stderr:\n{stderr}"
    );
    assert!(store.exists() || store.with_extension("store.log").exists());

    // Phase 2: resume + selfcheck in a fresh process.
    let (code, resumed_digest, stderr) =
        run_hybrid(&["--store", store_arg, "--resume", "--selfcheck"]);
    assert_eq!(code, Some(0), "resume/selfcheck failed; stderr:\n{stderr}");
    assert!(
        stderr.contains("selfcheck OK"),
        "missing selfcheck confirmation; stderr:\n{stderr}"
    );

    // Cross-process check: an uninterrupted storeless run in yet
    // another process prints the same bytes.
    let (code, reference_digest, stderr) = run_hybrid(&[]);
    assert_eq!(code, Some(0), "reference run failed; stderr:\n{stderr}");
    assert_eq!(
        resumed_digest, reference_digest,
        "resumed digest differs from the uninterrupted run's"
    );
    cleanup(&store);
}

/// Resuming a store that was written for a different problem must fail
/// fast — same box sizes are not enough, the digest decides.
#[test]
fn resume_under_a_different_problem_is_refused() {
    let store = temp_store("mismatch");
    let store_arg = store.to_str().unwrap();
    let (code, _, stderr) = run_hybrid(&["--store", store_arg, "--kill-after-fresh-evals", "3"]);
    assert_eq!(code, Some(9), "stderr:\n{stderr}");

    let bin = env!("CARGO_BIN_EXE_cacs-opt");
    let output = Command::new(bin)
        .args([
            "--problem",
            "synthetic:9x9x9",
            "--starts",
            "2x2x2",
            "--strategy",
            "hybrid",
            "--store",
            store_arg,
            "--resume",
        ])
        .output()
        .expect("run cacs-opt");
    assert!(
        !output.status.success(),
        "a mismatched problem digest must be refused"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("problem mismatch"),
        "expected the typed mismatch error; stderr:\n{stderr}"
    );
    cleanup(&store);
}

/// An existing store without `--resume` is refused (no silent reuse).
#[test]
fn existing_store_without_resume_is_refused() {
    let store = temp_store("noresume");
    let store_arg = store.to_str().unwrap();
    let (code, _, stderr) = run_hybrid(&["--store", store_arg, "--kill-after-fresh-evals", "3"]);
    assert_eq!(code, Some(9), "stderr:\n{stderr}");
    let (code, _, stderr) = run_hybrid(&["--store", store_arg]);
    assert_eq!(code, Some(2), "expected refusal; stderr:\n{stderr}");
    assert!(stderr.contains("pass --resume"));
    cleanup(&store);
}
