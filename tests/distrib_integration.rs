//! Integration tests for the distributed-sweep subsystem at the two
//! outermost layers:
//!
//! * `CodesignProblem::optimize_exhaustive_sharded` on the real paper
//!   pipeline — the sharded report must match the single-process
//!   exhaustive verification bit for bit;
//! * the `cacs-sweep-coord` / `cacs-sweep-worker` **binaries** as real
//!   child processes, including a worker killed mid-lease and a
//!   checkpoint → halt → resume cycle, asserting the digest printed by
//!   the coordinator is byte-identical to the locally computed
//!   single-process digest.

use cacs::cli::{report_digest, ProblemSpec};
use cacs::core::{CodesignProblem, EvaluationConfig};
use cacs::distrib::CoordinatorConfig;
use cacs::sched::Schedule;
use cacs::search::{exhaustive_search_with, ExhaustiveReport, SweepConfig};
use std::process::Command;

fn assert_reports_identical(a: &ExhaustiveReport, b: &ExhaustiveReport, context: &str) {
    // Best first for a readable diagnostic; the full bit-for-bit
    // comparison is centralised in ExhaustiveReport::bit_identical.
    assert_eq!(a.best, b.best, "{context}: best schedule");
    assert!(
        a.bit_identical(b),
        "{context}: reports differ bitwise:\n{a:?}\nvs\n{b:?}"
    );
}

/// The real pipeline, sharded: every schedule evaluation runs the full
/// cache-aware co-design, and the merged report still matches the
/// single-process exhaustive verification bit for bit. The single
/// report also pins the scientific anchor of the cold, schedule-seeded
/// pipeline: 192 enumerated / 77 evaluated / 54 feasible, best
/// `(1,4,3)` at a fixed `P_all` bit pattern, and a CRC-32 of the full
/// report digest (every retained objective's bits). The constant is
/// the same under `CACS_THREADS=1`, so a parallel run that drifts from
/// the sequential one fails here without a second sweep.
#[test]
fn sharded_paper_sweep_is_bit_identical() {
    let study = cacs::apps::paper_case_study().unwrap();
    let problem = CodesignProblem::from_case_study(&study, EvaluationConfig::fast()).unwrap();
    let single = problem.optimize_exhaustive().unwrap();
    assert_eq!(
        (single.enumerated, single.evaluated, single.feasible),
        (192, 77, 54)
    );
    assert_eq!(single.best, Some(Schedule::new(vec![1, 4, 3]).unwrap()));
    assert_eq!(single.best_value.to_bits(), 0x3fc7_65a0_7803_13c0);
    assert_eq!(single.results.len(), 77);
    let digest = report_digest(&problem.schedule_space().unwrap(), &single).unwrap();
    assert_eq!(
        cacs::search::integrity::crc32(digest.as_bytes()),
        0xfac3_0933,
        "paper report digest:\n{digest}"
    );
    let sharded = problem
        .optimize_exhaustive_sharded(
            2,
            &CoordinatorConfig {
                shard_size: 16, // 192 ranks → 12 leases across 2 workers
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
    assert!(!sharded.stats.halted);
    assert_eq!(sharded.stats.leases_reissued, 0);
    assert_reports_identical(&sharded.report, &single, "paper pipeline");
}

/// Runs the coordinator binary with the given extra args over a small
/// synthetic box and returns (exit_ok, stdout).
fn run_coord(extra: &[&str]) -> (bool, String) {
    let coord = env!("CARGO_BIN_EXE_cacs-sweep-coord");
    let worker = env!("CARGO_BIN_EXE_cacs-sweep-worker");
    let output = Command::new(coord)
        .args([
            "--problem",
            "synthetic:16x16x16",
            "--workers",
            "2",
            "--worker-cmd",
            worker,
            "--shard-size",
            "256",
        ])
        .args(extra)
        .output()
        .expect("run cacs-sweep-coord");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// The digest the coordinator must print for `synthetic:16x16x16` under
/// its default retention (constant-memory, `--retain 0`).
fn expected_digest() -> String {
    let spec = ProblemSpec::parse("synthetic:16x16x16").unwrap();
    let space = spec.space().unwrap();
    let eval = spec.evaluator().unwrap();
    let single = cacs::par::sequential(|| {
        exhaustive_search_with(
            eval.as_ref(),
            &space,
            &SweepConfig {
                max_results: Some(0),
                ..SweepConfig::default()
            },
        )
    })
    .unwrap();
    report_digest(&space, &single).unwrap()
}

/// Two real worker processes over stdio pipes; one is killed mid-lease
/// by fault injection. The coordinator re-issues the lease and the
/// digest is byte-identical to the sequential sweep (also re-checked by
/// the coordinator's own `--selfcheck`).
#[test]
fn process_workers_survive_a_killed_worker() {
    let (ok, stdout) = run_coord(&["--chaos-die-mid-lease", "1", "--selfcheck"]);
    assert!(ok, "coordinator failed; stdout:\n{stdout}");
    assert_eq!(stdout, expected_digest(), "digest after worker kill");
}

/// Corrupting wire bytes (a garbage line, then a flipped byte in a
/// framed report) must be caught by the protocol's CRC layer, the
/// worker replaced, and the digest still byte-identical — end to end
/// through real child processes.
#[test]
fn process_workers_survive_corrupted_wire_bytes() {
    for chaos in [
        ["--chaos-garbage-mid-lease", "1"],
        ["--chaos-flip-byte-mid-lease", "2"],
    ] {
        let (ok, stdout) = run_coord(&[chaos[0], chaos[1], "--selfcheck"]);
        assert!(ok, "coordinator failed under {chaos:?}; stdout:\n{stdout}");
        assert_eq!(stdout, expected_digest(), "digest under {chaos:?}");
    }
}

/// A stdio worker that stops serving after one lease (the scripted
/// disconnect) simply exits; the supervisor must spawn a replacement
/// child and the sweep must still complete byte-identically.
#[test]
fn process_worker_disconnect_is_respawned() {
    let (ok, stdout) = run_coord(&["--chaos-reconnect-after", "1", "--selfcheck"]);
    assert!(ok, "coordinator failed; stdout:\n{stdout}");
    assert_eq!(stdout, expected_digest(), "digest after disconnect+respawn");
}

/// With supervision disabled, a killed worker stays dead — but the
/// survivor still finishes the sweep with the identical digest (the
/// pre-supervision recovery path).
#[test]
fn process_workers_survive_a_kill_without_respawn() {
    let (ok, stdout) = run_coord(&["--chaos-die-mid-lease", "1", "--no-respawn", "--selfcheck"]);
    assert!(ok, "coordinator failed; stdout:\n{stdout}");
    assert_eq!(stdout, expected_digest(), "digest without respawn");
}

/// A checkpoint with one flipped byte must refuse the resume: the
/// merged report is indivisible, so a damaged line cannot be skipped
/// the way a store record can.
#[test]
fn process_coordinator_refuses_a_corrupt_checkpoint() {
    let dir = std::env::temp_dir().join(format!("cacs-distrib-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("sweep.ckpt");
    let ckpt_arg = ckpt.to_str().unwrap();

    let (ok, _) = run_coord(&["--checkpoint", ckpt_arg, "--halt-after-leases", "3"]);
    assert!(ok, "halted phase failed");

    // Flip one digit inside a CRC-framed body line, leaving its stale
    // CRC suffix in place.
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let body = lines
        .iter_mut()
        .skip(1) // the version header is unframed
        .find(|l| l.contains(|c: char| c.is_ascii_digit()))
        .expect("checkpoint body line with a digit");
    let pos = body.find(|c: char| c.is_ascii_digit()).unwrap();
    let digit = body.as_bytes()[pos];
    body.replace_range(pos..=pos, if digit == b'7' { "8" } else { "7" });
    std::fs::write(&ckpt, lines.join("\n") + "\n").unwrap();

    let (ok, stdout) = run_coord(&["--checkpoint", ckpt_arg, "--resume"]);
    assert!(
        !ok,
        "resume from a corrupted checkpoint must fail; stdout:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoint → halt → resume across two coordinator *processes*: the
/// resumed run must complete the sweep and reproduce the sequential
/// digest byte for byte.
#[test]
fn process_coordinator_checkpoint_resume_cycle() {
    let dir = std::env::temp_dir().join(format!("cacs-distrib-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("sweep.ckpt");
    let ckpt_arg = ckpt.to_str().unwrap();

    // Phase 1: halt after 3 of 16 leases, leaving a checkpoint behind.
    let (ok, _) = run_coord(&["--checkpoint", ckpt_arg, "--halt-after-leases", "3"]);
    assert!(ok, "halted phase failed");
    assert!(ckpt.exists(), "halted run must leave a checkpoint");

    // Phase 2: a fresh coordinator process resumes and finishes; the
    // killed worker chaos rides along for good measure.
    let (ok, stdout) = run_coord(&[
        "--checkpoint",
        ckpt_arg,
        "--resume",
        "--chaos-die-mid-lease",
        "2",
        "--selfcheck",
    ]);
    assert!(ok, "resumed phase failed; stdout:\n{stdout}");
    assert_eq!(stdout, expected_digest(), "digest after resume");
    std::fs::remove_dir_all(&dir).unwrap();
}
