//! `cacs-sweep-coord`: coordinator of a distributed exhaustive sweep.
//!
//! Partitions the schedule box into rank-range leases, farms them to
//! workers (spawned locally over stdio pipes, or accepted over TCP for
//! cross-host runs), re-issues leases lost to dead/hung workers,
//! checkpoints progress after every lease, and prints the merged
//! report's byte-stable digest (see [`cacs::cli::report_digest`]) on
//! stdout.
//!
//! ```text
//! cacs-sweep-coord --problem <spec>
//!     [--workers N] [--worker-cmd PATH]      spawn N local workers (default 2)
//!     [--listen HOST:PORT --expect N]        …or accept N TCP workers
//!     [--shard-size R] [--grain G] [--retain all|K]
//!                                            ranks per lease, ranks per
//!                                            lane claim in a worker's
//!                                            sweep, results kept
//!     [--checkpoint FILE] [--resume]
//!     [--lease-timeout SECS] [--handshake-timeout SECS]
//!     [--halt-after-leases N]
//!     [--quarantine-after K] [--backoff-ms MS] [--backoff-cap-ms MS]
//!     [--jitter-seed S] [--no-respawn]       supervision policy
//!     [--chaos-die-mid-lease N] [--chaos-hang-mid-lease N]
//!     [--chaos-hang-secs S] [--chaos-garbage-mid-lease N]
//!     [--chaos-truncate-mid-lease N] [--chaos-flip-byte-mid-lease N]
//!     [--chaos-reconnect-after N] [--chaos-seed S]
//!                                            fault-inject the first worker
//!     [--selfcheck]                          compare against the
//!                                            single-process sweep, byte for byte
//! ```
//!
//! # Supervision
//!
//! Spawned workers are **supervised** by default: a worker that dies,
//! hangs past the lease timeout, or speaks garbage is replaced — the
//! coordinator re-spawns the child (without any chaos flags, so an
//! injected fault triggers exactly once) after a capped, deterministic
//! exponential backoff, and quarantines the slot after
//! `--quarantine-after` consecutive faults. TCP workers are re-admitted
//! the same way: the listener stays open and a reconnecting worker is
//! accepted back into the faulted slot. `--no-respawn` restores the
//! pre-supervision behaviour (a lost worker is lost for good; losing
//! all of them aborts the sweep with `WorkersExhausted`).
//!
//! `--selfcheck` exits with status 3 unless the sharded digest is
//! byte-identical to the single-process sequential sweep's — the
//! acceptance gate the CI chaos jobs enforce, including under worker
//! kills, disconnects and checkpoint/resume cycles
//! (`--halt-after-leases` + `--resume`).

use cacs::cli::{report_digest, ProblemSpec};
use cacs::distrib::{
    accept_one, accept_workers, run_supervised, CoordinatorConfig, RetryPolicy, ShardedSweep,
    SupervisedWorker, WorkerLink,
};
use cacs::search::{exhaustive_search_with, SweepConfig};
use std::error::Error;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

struct Args {
    problem: String,
    workers: usize,
    worker_cmd: Option<PathBuf>,
    listen: Option<String>,
    expect: usize,
    shard_size: u64,
    grain: usize,
    retain: Option<usize>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    lease_timeout: Duration,
    handshake_timeout: Duration,
    halt_after_leases: Option<u64>,
    retry: RetryPolicy,
    no_respawn: bool,
    /// Chaos flags forwarded to the first spawned worker, already in
    /// `cacs-sweep-worker` flag form (`--die-mid-lease 1 …`).
    chaos_args: Vec<String>,
    selfcheck: bool,
    metrics: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: cacs-sweep-coord --problem <paper-fast|paper-full|synthetic:AxBxC> \
         [--workers N] [--worker-cmd PATH] [--listen HOST:PORT --expect N] \
         [--shard-size R] [--grain G] [--retain all|K] \
         [--checkpoint FILE] [--resume] [--lease-timeout SECS] \
         [--handshake-timeout SECS] [--halt-after-leases N] \
         [--quarantine-after K] [--backoff-ms MS] [--backoff-cap-ms MS] \
         [--jitter-seed S] [--no-respawn] \
         [--chaos-die-mid-lease N] [--chaos-hang-mid-lease N] [--chaos-hang-secs S] \
         [--chaos-garbage-mid-lease N] [--chaos-truncate-mid-lease N] \
         [--chaos-flip-byte-mid-lease N] [--chaos-reconnect-after N] \
         [--chaos-seed S] [--selfcheck] [--metrics FILE]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut args = Args {
        problem: String::new(),
        workers: 2,
        worker_cmd: None,
        listen: None,
        expect: 2,
        shard_size: 65_536,
        grain: SweepConfig::default().dispatch_grain,
        retain: Some(0),
        checkpoint: None,
        resume: false,
        lease_timeout: Duration::from_secs(120),
        handshake_timeout: Duration::from_secs(10),
        halt_after_leases: None,
        retry: RetryPolicy::default(),
        no_respawn: false,
        chaos_args: Vec::new(),
        selfcheck: false,
        metrics: None,
    };
    let mut i = 1;
    let value = |i: &mut usize| -> String {
        let v = argv.get(*i + 1).cloned().unwrap_or_else(|| usage());
        *i += 2;
        v
    };
    while i < argv.len() {
        let flag = argv[i].clone();
        // `--chaos-X V` forwards to the first spawned worker as `--X V`
        // (validated as a number here so a typo fails fast). The seed
        // flag is named `--chaos-seed` on both sides.
        if let Some(worker_flag) = flag.strip_prefix("--chaos-") {
            let v = value(&mut i);
            let _: u64 = v.parse().unwrap_or_else(|_| usage());
            if worker_flag == "seed" {
                args.chaos_args.push("--chaos-seed".to_string());
            } else {
                args.chaos_args.push(format!("--{worker_flag}"));
            }
            args.chaos_args.push(v);
            continue;
        }
        match flag.as_str() {
            "--problem" => args.problem = value(&mut i),
            "--workers" => args.workers = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--worker-cmd" => args.worker_cmd = Some(PathBuf::from(value(&mut i))),
            "--listen" => args.listen = Some(value(&mut i)),
            "--expect" => args.expect = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--shard-size" => args.shard_size = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--grain" => args.grain = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--retain" => {
                let v = value(&mut i);
                args.retain = if v == "all" {
                    None
                } else {
                    Some(v.parse().unwrap_or_else(|_| usage()))
                };
            }
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value(&mut i))),
            "--resume" => {
                args.resume = true;
                i += 1;
            }
            "--lease-timeout" => {
                args.lease_timeout =
                    Duration::from_secs(value(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--handshake-timeout" => {
                args.handshake_timeout =
                    Duration::from_secs(value(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--halt-after-leases" => {
                args.halt_after_leases = Some(value(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--quarantine-after" => {
                args.retry.quarantine_after = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--backoff-ms" => {
                args.retry.backoff_base =
                    Duration::from_millis(value(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--backoff-cap-ms" => {
                args.retry.backoff_cap =
                    Duration::from_millis(value(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--jitter-seed" => {
                args.retry.jitter_seed = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--no-respawn" => {
                args.no_respawn = true;
                i += 1;
            }
            "--selfcheck" => {
                args.selfcheck = true;
                i += 1;
            }
            "--metrics" => args.metrics = Some(PathBuf::from(value(&mut i))),
            _ => usage(),
        }
    }
    if args.problem.is_empty() {
        usage();
    }
    args
}

/// The worker binary to spawn: explicit `--worker-cmd`, or the
/// `cacs-sweep-worker` sitting next to this executable.
fn worker_command(args: &Args) -> Result<PathBuf, Box<dyn Error>> {
    if let Some(cmd) = &args.worker_cmd {
        return Ok(cmd.clone());
    }
    let mut path = std::env::current_exe()?;
    path.set_file_name("cacs-sweep-worker");
    Ok(path)
}

/// Spawns one local worker child. Chaos flags apply only when `chaos`
/// is set (the initial spawn of worker 0); supervised replacements are
/// always spawned clean, so an injected fault triggers exactly once.
fn spawn_one(
    cmd: &PathBuf,
    problem: &str,
    label: String,
    chaos: &[String],
) -> cacs::distrib::Result<WorkerLink> {
    let mut command = Command::new(cmd);
    command.arg("--problem").arg(problem).arg("--stdio");
    for arg in chaos {
        command.arg(arg);
    }
    WorkerLink::spawn_process(label, &mut command)
}

fn main() -> Result<(), Box<dyn Error>> {
    let args = parse_args();
    if args.metrics.is_some() {
        // Reporting-only: the recorder feeds the --metrics JSON and the
        // stderr summary, never the report digest printed on stdout.
        cacs::cli::metrics::enable_recording();
    }
    let spec = ProblemSpec::parse(&args.problem).unwrap_or_else(|e| {
        eprintln!("cacs-sweep-coord: {e}");
        std::process::exit(2)
    });
    let space = spec.space()?;
    eprintln!(
        "cacs-sweep-coord: space {:?} = {} schedules",
        space.max_counts(),
        space.len()
    );

    let config = CoordinatorConfig {
        shard_size: args.shard_size,
        sweep: SweepConfig {
            max_results: args.retain,
            dispatch_grain: args.grain,
        },
        lease_timeout: args.lease_timeout,
        handshake_timeout: args.handshake_timeout,
        retry: args.retry.clone(),
        // Embedded in checkpoints and validated on --resume: a
        // checkpoint written for a different problem over the same box
        // is refused with a typed error instead of silently merged.
        problem_digest: Some(spec.digest()),
        checkpoint: args.checkpoint.clone(),
        resume: args.resume,
        halt_after_leases: args.halt_after_leases,
    };

    // Kept alive for the whole run in TCP mode so faulted slots can
    // re-admit reconnecting workers through the same listener.
    let listener = match &args.listen {
        Some(addr) => Some(std::net::TcpListener::bind(addr)?),
        None => None,
    };

    let workers: Vec<SupervisedWorker<'_>> = match &listener {
        Some(listener) => {
            eprintln!(
                "cacs-sweep-coord: listening on {} for {} workers…",
                listener.local_addr()?,
                args.expect
            );
            let links = accept_workers(listener, args.expect, Duration::from_secs(300))?;
            links
                .into_iter()
                .map(|link| {
                    if args.no_respawn {
                        SupervisedWorker::unsupervised(link)
                    } else {
                        // Re-admission: the next connection to dial the
                        // still-open listener takes over the slot.
                        let window = args.handshake_timeout;
                        SupervisedWorker::with_respawn(link, move |_incarnation| {
                            accept_one(listener, window)
                        })
                    }
                })
                .collect()
        }
        None => {
            let cmd = worker_command(&args)?;
            eprintln!("cacs-sweep-coord: spawning {} local workers…", args.workers);
            let mut workers = Vec::with_capacity(args.workers);
            for w in 0..args.workers {
                let chaos: &[String] = if w == 0 { &args.chaos_args } else { &[] };
                let link = spawn_one(
                    &cmd,
                    &args.problem,
                    format!("proc-{w}:{}", cmd.display()),
                    chaos,
                )?;
                if args.no_respawn {
                    workers.push(SupervisedWorker::unsupervised(link));
                } else {
                    let cmd = cmd.clone();
                    let problem = args.problem.clone();
                    workers.push(SupervisedWorker::with_respawn(link, move |incarnation| {
                        spawn_one(
                            &cmd,
                            &problem,
                            format!("proc-{w}.{incarnation}:{}", cmd.display()),
                            &[],
                        )
                    }));
                }
            }
            workers
        }
    };

    // Elapsed wall time reaches stderr only; the report bytes never
    // depend on it, and the clock is the sanctioned `cacs::obs` one.
    let t = cacs::obs::now();
    let ShardedSweep { report, stats } = run_supervised(&space, workers, &config)?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "cacs-sweep-coord: {} leases completed, {} re-issued, {} workers lost, \
         {} ranks resumed, {:.1} ms{}",
        stats.leases_completed,
        stats.leases_reissued,
        stats.workers_lost,
        stats.resumed_ranks,
        wall_ms,
        if stats.halted { " (HALTED early)" } else { "" }
    );
    if !stats.faults.is_empty() || stats.respawns > 0 || !stats.quarantined.is_empty() {
        let totals = stats
            .fault_totals()
            .into_iter()
            .map(|(kind, n)| format!("{kind}×{n}"))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!(
            "cacs-sweep-coord: faults: {} ({totals}), {} respawn(s), {} slot(s) quarantined{}",
            stats.faults.len(),
            stats.respawns,
            stats.quarantined.len(),
            if stats.quarantined.is_empty() {
                String::new()
            } else {
                format!(" [{}]", stats.quarantined.join(", "))
            }
        );
    }
    match &report.best {
        Some(best) => eprintln!(
            "cacs-sweep-coord: best {best} with objective {:.12} over {} evaluated",
            report.best_value, report.evaluated
        ),
        None => eprintln!("cacs-sweep-coord: nothing feasible"),
    }

    // The byte-stable digest is the machine-readable output.
    print!("{}", report_digest(&space, &report)?);

    // The fault summary printed above is also in the JSON: the
    // supervision layer counts every fault kind, respawn, quarantine
    // and lease into the same registry the snapshot serialises.
    if let Some(path) = &args.metrics {
        cacs::cli::metrics::emit("cacs-sweep-coord", path)?;
    }

    if stats.halted {
        match &args.checkpoint {
            Some(path) => eprintln!(
                "cacs-sweep-coord: halted before completion; resume with \
                 --checkpoint {} --resume",
                path.display()
            ),
            None => eprintln!(
                "cacs-sweep-coord: halted before completion; nothing was \
                 checkpointed (no --checkpoint), a rerun starts from scratch"
            ),
        }
        if args.selfcheck {
            // The contract of --selfcheck is "exit 0 only after a verified
            // byte-identical sweep"; a partial report cannot satisfy it.
            eprintln!("cacs-sweep-coord: SELFCHECK IMPOSSIBLE — run halted early");
            std::process::exit(4);
        }
        return Ok(());
    }
    if args.selfcheck {
        eprintln!("cacs-sweep-coord: selfcheck — single-process sequential sweep…");
        let evaluator = spec.evaluator()?;
        let single = cacs::par::sequential(|| {
            exhaustive_search_with(evaluator.as_ref(), &space, &config.sweep)
        })?;
        let sharded_digest = report_digest(&space, &report)?;
        let single_digest = report_digest(&space, &single)?;
        if sharded_digest.as_bytes() == single_digest.as_bytes() {
            eprintln!(
                "cacs-sweep-coord: selfcheck OK — sharded digest byte-identical \
                 to the sequential sweep ({} bytes)",
                sharded_digest.len()
            );
        } else {
            eprintln!("cacs-sweep-coord: SELFCHECK FAILED — digests differ");
            eprintln!("--- sharded ---\n{sharded_digest}--- sequential ---\n{single_digest}");
            std::process::exit(3);
        }
    }
    Ok(())
}
