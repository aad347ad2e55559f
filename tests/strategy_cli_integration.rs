//! Integration tests for the strategy-aware `cacs-opt` binary as a
//! real child process: every strategy passes `--selfcheck`, a
//! non-hybrid strategy survives a hard kill→resume cycle bit for bit,
//! `cacs-opt --strategy hybrid` prints the pinned pre-engine hybrid
//! digest bytes, and bad or retired flags are usage errors.

use std::path::Path;
use std::process::Command;

const PROBLEM: &str = "synthetic:16x16x16";
const STARTS: &str = "8x8x8,2x3x4";

fn run_opt(extra: &[&str]) -> (Option<i32>, String, String) {
    let bin = env!("CARGO_BIN_EXE_cacs-opt");
    let output = Command::new(bin)
        .args(["--problem", PROBLEM, "--starts", STARTS])
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
    let dir = std::env::temp_dir().join(format!("cacs-opt-it-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("opt.store")
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// All four strategies pass `--selfcheck` (digest byte-identical to the
/// uninterrupted in-memory reference) and label their digest header
/// with the strategy name.
#[test]
fn every_strategy_passes_selfcheck() {
    for (strategy, header) in [
        ("hybrid", "HYBRID"),
        ("anneal", "ANNEAL"),
        ("genetic", "GENETIC"),
        ("tabu", "TABU"),
    ] {
        let (code, stdout, stderr) = run_opt(&["--strategy", strategy, "--selfcheck"]);
        assert_eq!(
            code,
            Some(0),
            "{strategy}: selfcheck failed; stderr:\n{stderr}"
        );
        assert!(
            stderr.contains("selfcheck OK"),
            "{strategy}: missing confirmation; stderr:\n{stderr}"
        );
        assert!(
            stdout.starts_with(&format!("{header} 2\n")),
            "{strategy}: unexpected digest header; stdout:\n{stdout}"
        );
    }
}

/// Kill → resume across real processes for a **non-hybrid** strategy:
/// phase 1 exits hard (status 9) after 6 fresh evaluations, phase 2
/// resumes with `--selfcheck`, and the test cross-checks the resumed
/// digest against a third, storeless process's digest.
#[test]
fn anneal_process_kill_resume_cycle_is_bit_identical() {
    let store = temp_store("anneal-cycle");
    let store_arg = store.to_str().unwrap();

    let (code, _, stderr) = run_opt(&[
        "--strategy",
        "anneal",
        "--store",
        store_arg,
        "--kill-after-fresh-evals",
        "6",
    ]);
    assert_eq!(
        code,
        Some(9),
        "expected the injected kill; stderr:\n{stderr}"
    );

    let (code, resumed_digest, stderr) = run_opt(&[
        "--strategy",
        "anneal",
        "--store",
        store_arg,
        "--resume",
        "--selfcheck",
    ]);
    assert_eq!(code, Some(0), "resume/selfcheck failed; stderr:\n{stderr}");
    assert!(stderr.contains("selfcheck OK"), "stderr:\n{stderr}");

    let (code, reference_digest, stderr) = run_opt(&["--strategy", "anneal"]);
    assert_eq!(code, Some(0), "reference run failed; stderr:\n{stderr}");
    assert_eq!(
        resumed_digest, reference_digest,
        "resumed anneal digest differs from the uninterrupted run's"
    );
    cleanup(&store);
}

/// `cacs-opt --strategy hybrid` prints, byte for byte, the first
/// golden digest of `cli::tests::hybrid_digest_pins_pre_engine_bytes`
/// — the pre-engine hybrid bytes, pinned at the binary level.
#[test]
fn opt_hybrid_prints_the_pre_engine_golden_bytes() {
    let (code, digest, stderr) = run_opt(&["--strategy", "hybrid"]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert_eq!(
        digest,
        "HYBRID 2\n\
         SEARCH 0 1911 1896:3fee700000000000 16\n\
         SEARCH 1 291 259:3fe6ea0000000000 16\n\
         BEST 1896:3fee700000000000\n\
         DONE\n"
    );
}

/// An unknown strategy name is a usage error with a helpful message.
#[test]
fn unknown_strategy_is_refused() {
    let (code, _, stderr) = run_opt(&["--strategy", "bogus"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown strategy"), "stderr:\n{stderr}");
}

/// A knob belonging to a different strategy is a usage error, not a
/// silent no-op — tuning flags must never be quietly dropped.
#[test]
fn foreign_strategy_knobs_are_refused() {
    let (code, _, stderr) = run_opt(&["--strategy", "tabu", "--seed", "7"]);
    assert_eq!(code, Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("--seed does not apply to the tabu strategy"),
        "stderr:\n{stderr}"
    );

    // The hybrid strategy (the default) refuses the other strategies'
    // flags and accepts its own.
    let (code, _, stderr) = run_opt(&["--population", "32"]);
    assert_eq!(code, Some(2), "stderr:\n{stderr}");
    let (code, _, stderr) = run_opt(&["--strategy", "hybrid", "--tolerance", "0.01"]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
}

/// Retired flags are unknown options: a usage error (exit 2), not a
/// panic and not a silent no-op.
#[test]
fn retired_flags_are_usage_errors() {
    for retired in [
        &["--warm-start"][..],
        &["--no-screen"],
        &["--screen-budget", "0.3"],
        &["--survivor-frac", "0.5"],
    ] {
        let (code, _, stderr) = run_opt(retired);
        assert_eq!(code, Some(2), "{retired:?}; stderr:\n{stderr}");
        assert!(stderr.contains("usage:"), "{retired:?}; stderr:\n{stderr}");
    }
}
