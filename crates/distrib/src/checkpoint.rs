//! Coordinator checkpoint: completed coverage + running merged report,
//! durable across coordinator crashes.
//!
//! The file is a line-oriented text format sharing the wire protocol's
//! primitive encodings (ranks, 16-hex-digit `f64` bit patterns — see
//! [`crate::wire`] for the stability guarantee) under its own header:
//!
//! ```text
//! CACS-SWEEP-CHECKPOINT 3
//! PROBLEM <digest>              (omitted when no digest is known)
//! SPACE <n> <m1> … <mn>
//! RETAIN all|<cap>
//! DONE <start> <end>            (per coalesced completed range)
//! COUNTERS <enumerated> <evaluated> <feasible>
//! BEST none|<rank>:<bits>
//! TRUNCATED 0|1
//! NRESULTS <k>
//! R <rank> <bits|none>          (× k)
//! END
//! ```
//!
//! Every line after the header carries the CRC-32 suffix of
//! [`cacs_search::integrity`] (`<payload> *<8 hex>`): bit rot in a
//! checkpoint — a flipped hex digit inside a bit pattern would
//! otherwise parse fine and silently poison every resumed sweep — or a
//! line missing its suffix is the typed [`DistribError::Corrupt`] and
//! the resume is **refused** (unlike store records, a checkpoint line
//! cannot be skipped: the merged report is one indivisible value).
//! Files with any other header, including the unframed versions 1 and
//! 2, are refused with [`DistribError::Checkpoint`].
//!
//! The **problem digest** (an opaque token naming the exact objective,
//! e.g. the canonical `--problem` spec) makes a resume against a
//! checkpoint written for a *different* problem over the same box fail
//! fast with [`DistribError::ProblemMismatch`] instead of silently
//! merging two sweeps.
//!
//! Writes go through a sibling temp file and an atomic rename, and loads
//! refuse files without the `END` trailer, so a coordinator killed
//! mid-write can never resume from a half-written state. Because the
//! running report is stored with exact bit patterns and merged via
//! [`ExhaustiveReport::merge`], a resumed sweep remains bit-identical to
//! an uninterrupted one.

use crate::shard::{coalesce, RankRange};
use crate::wire::{parse_bits, ReportAssembler, WorkerMsg};
use crate::{DistribError, Result};
use cacs_search::integrity::{append_crc, verify_line};
use cacs_search::{ExhaustiveReport, ScheduleSpace};
use std::io::Write as _;
use std::path::Path;

const HEADER: &str = "CACS-SWEEP-CHECKPOINT 3";

/// The durable state of a partially completed sharded sweep.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Opaque digest of the problem being swept (resume validates it
    /// when both sides carry one). `None` = unknown, e.g. an API caller
    /// without a canonical problem name.
    pub problem: Option<String>,
    /// Per-dimension maxima of the swept space (resume validates these).
    pub space_maxes: Vec<u32>,
    /// The retention cap the sweep runs under (resume validates it —
    /// shards completed under a different cap would not merge
    /// bit-identically).
    pub retain: Option<usize>,
    /// Completed rank ranges, coalesced and sorted.
    pub completed: Vec<RankRange>,
    /// Merge of every completed shard's report.
    pub report: ExhaustiveReport,
}

impl Checkpoint {
    /// A fresh checkpoint with nothing completed.
    pub fn new(space: &ScheduleSpace, retain: Option<usize>) -> Self {
        Checkpoint {
            problem: None,
            space_maxes: space.max_counts().to_vec(),
            retain,
            completed: Vec::new(),
            report: ExhaustiveReport::empty(),
        }
    }

    /// Ranks covered by the completed ranges.
    pub fn completed_ranks(&self) -> u64 {
        self.completed.iter().map(RankRange::len).sum()
    }

    /// Folds one completed shard into the checkpoint. Uses the by-value
    /// [`ExhaustiveReport::merge_owned`] so the running report's
    /// accumulated results are moved, not re-cloned, on every lease.
    pub fn record(&mut self, space: &ScheduleSpace, range: RankRange, shard: &ExhaustiveReport) {
        let running = std::mem::replace(&mut self.report, ExhaustiveReport::empty());
        self.report = running.merge_owned(shard, space);
        self.completed.push(range);
        self.completed = coalesce(&self.completed);
    }

    /// Serialises the checkpoint to its text form.
    ///
    /// # Errors
    ///
    /// Returns [`DistribError::Protocol`] if the report references
    /// schedules outside the space (cannot be encoded as ranks).
    pub fn to_text(&self, space: &ScheduleSpace) -> Result<String> {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        // Every line below the header is CRC-framed.
        let mut push = |line: &str| {
            out.push_str(&append_crc(line));
            out.push('\n');
        };
        if let Some(digest) = &self.problem {
            push(&format!("PROBLEM {digest}"));
        }
        let mut space_line = format!("SPACE {}", self.space_maxes.len());
        for m in &self.space_maxes {
            space_line.push_str(&format!(" {m}"));
        }
        push(&space_line);
        match self.retain {
            Some(k) => push(&format!("RETAIN {k}")),
            None => push("RETAIN all"),
        }
        for r in &self.completed {
            push(&format!("DONE {} {}", r.start, r.end));
        }
        // The report body reuses the wire encoding: REPORT header fields
        // split over named lines, then the R lines verbatim.
        let lines = crate::wire::report_to_lines(space, 0, &self.report)?;
        let WorkerMsg::Report {
            enumerated,
            evaluated,
            feasible,
            best,
            truncated,
            nresults,
            ..
        } = WorkerMsg::decode_payload(&lines[0])?
        else {
            unreachable!("report_to_lines starts with a REPORT header");
        };
        push(&format!("COUNTERS {enumerated} {evaluated} {feasible}"));
        match best {
            Some((rank, bits)) => push(&format!("BEST {rank}:{bits:016x}")),
            None => push("BEST none"),
        }
        push(&format!("TRUNCATED {}", u8::from(truncated)));
        push(&format!("NRESULTS {nresults}"));
        for line in &lines[1..lines.len() - 1] {
            push(line);
        }
        push("END");
        Ok(out)
    }

    /// Parses a checkpoint and validates it against the space — and,
    /// when both sides carry one, the problem digest — being resumed.
    ///
    /// # Errors
    ///
    /// Returns [`DistribError::Checkpoint`] on malformed or truncated
    /// text or when the checkpoint's space/retention disagree with the
    /// resumed sweep's, [`DistribError::Corrupt`] when a line fails (or
    /// is missing) its CRC — the resume is refused rather than
    /// continued from poisoned state — and
    /// [`DistribError::ProblemMismatch`] when the checkpoint names a
    /// different problem than `problem`. A checkpoint without a
    /// `PROBLEM` line is accepted regardless of `problem` — it carries
    /// nothing to validate.
    pub fn from_text(
        text: &str,
        space: &ScheduleSpace,
        retain: Option<usize>,
        problem: Option<&str>,
    ) -> Result<Self> {
        let bad = |reason: &str| DistribError::Checkpoint {
            reason: reason.to_string(),
        };
        let mut raw = text.lines();
        if raw.next() != Some(HEADER) {
            return Err(bad("missing or unsupported header"));
        }
        // Verify and strip the CRC frame of every line up front.
        let body: Vec<&str> = raw
            .map(|line| {
                verify_line(line).map_err(|reason| DistribError::Corrupt {
                    context: format!("{reason} in checkpoint line {line:?}"),
                })
            })
            .collect::<Result<_>>()?;
        let mut lines = body.into_iter().peekable();
        // The PROBLEM line is optional: digest-less API callers omit it.
        let saved_problem = lines
            .next_if(|l| l.starts_with("PROBLEM "))
            .and_then(|l| l.strip_prefix("PROBLEM "))
            .map(str::to_string);
        if let (Some(expected), Some(found)) = (problem, &saved_problem) {
            if expected != found {
                return Err(DistribError::ProblemMismatch {
                    expected: expected.to_string(),
                    found: found.clone(),
                });
            }
        }
        let space_line = lines.next().ok_or_else(|| bad("missing SPACE line"))?;
        let space_maxes = match crate::wire::CoordMsg::decode_payload(space_line) {
            Ok(crate::wire::CoordMsg::Space(maxes)) => maxes,
            _ => return Err(bad("malformed SPACE line")),
        };
        if space_maxes != space.max_counts() {
            return Err(bad(&format!(
                "checkpoint space {space_maxes:?} != resumed space {:?}",
                space.max_counts()
            )));
        }
        let retain_line = lines.next().ok_or_else(|| bad("missing RETAIN line"))?;
        let saved_retain = match retain_line.strip_prefix("RETAIN ") {
            Some("all") => None,
            Some(k) => Some(k.parse().map_err(|_| bad("malformed RETAIN cap"))?),
            None => return Err(bad("missing RETAIN line")),
        };
        if saved_retain != retain {
            return Err(bad(&format!(
                "checkpoint retention {saved_retain:?} != configured {retain:?}"
            )));
        }

        let mut completed = Vec::new();
        let mut line = lines.next();
        while let Some(l) = line {
            let Some(rest) = l.strip_prefix("DONE ") else {
                break;
            };
            let mut f = rest.split_whitespace();
            let start: u64 = f
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad("malformed DONE start"))?;
            let end: u64 = f
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad("malformed DONE end"))?;
            if end > space.len() || start > end {
                return Err(bad(&format!(
                    "DONE range [{start}, {end}) outside the space"
                )));
            }
            completed.push(RankRange::new(start, end));
            line = lines.next();
        }

        let counters = line.ok_or_else(|| bad("missing COUNTERS line"))?;
        let rest = counters
            .strip_prefix("COUNTERS ")
            .ok_or_else(|| bad("missing COUNTERS line"))?;
        let mut f = rest.split_whitespace();
        let mut counter = || -> Result<u64> {
            f.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad("malformed COUNTERS line"))
        };
        let (enumerated, evaluated, feasible) = (counter()?, counter()?, counter()?);

        let best_line = lines.next().ok_or_else(|| bad("missing BEST line"))?;
        let best = match best_line.strip_prefix("BEST ") {
            Some("none") => None,
            Some(pair) => {
                let (rank, bits) = pair.split_once(':').ok_or_else(|| bad("malformed BEST"))?;
                let rank = rank.parse().map_err(|_| bad("malformed BEST rank"))?;
                let bits = parse_bits(bits).ok_or_else(|| bad("malformed BEST bits"))?;
                Some((rank, bits))
            }
            None => return Err(bad("missing BEST line")),
        };
        let truncated_line = lines.next().ok_or_else(|| bad("missing TRUNCATED line"))?;
        let truncated = match truncated_line.strip_prefix("TRUNCATED ") {
            Some("0") => false,
            Some("1") => true,
            _ => return Err(bad("malformed TRUNCATED line")),
        };
        let nresults_line = lines.next().ok_or_else(|| bad("missing NRESULTS line"))?;
        let nresults: u64 = nresults_line
            .strip_prefix("NRESULTS ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("malformed NRESULTS line"))?;

        // Reassemble the report body through the wire decoder.
        let header = WorkerMsg::Report {
            lease: 0,
            enumerated,
            evaluated,
            feasible,
            best,
            truncated,
            nresults,
        };
        let mut assembler =
            ReportAssembler::new(space, &header).map_err(|e| DistribError::Checkpoint {
                reason: format!("report header: {e}"),
            })?;
        for _ in 0..nresults {
            let l = lines.next().ok_or_else(|| bad("truncated result list"))?;
            let msg = WorkerMsg::decode_payload(l).map_err(|e| DistribError::Checkpoint {
                reason: format!("result line: {e}"),
            })?;
            assembler.push(msg).map_err(|e| DistribError::Checkpoint {
                reason: format!("result line: {e}"),
            })?;
        }
        let (_, report) = assembler
            .push(WorkerMsg::Done { lease: 0 })
            .map_err(|e| DistribError::Checkpoint {
                reason: format!("closing report: {e}"),
            })?
            .expect("DONE closes the report");
        if lines.next() != Some("END") {
            return Err(bad("missing END trailer (truncated write?)"));
        }
        Ok(Checkpoint {
            problem: saved_problem,
            space_maxes,
            retain,
            completed: coalesce(&completed),
            report,
        })
    }

    /// Atomically writes the checkpoint: serialise to `<path>.tmp`, then
    /// rename over `path`.
    ///
    /// # Errors
    ///
    /// Propagates serialisation and filesystem errors.
    pub fn save(&self, space: &ScheduleSpace, path: &Path) -> Result<()> {
        let text = self.to_text(space)?;
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads and validates a checkpoint file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, [`DistribError::Checkpoint`] parse
    /// failures and [`DistribError::ProblemMismatch`].
    pub fn load(
        path: &Path,
        space: &ScheduleSpace,
        retain: Option<usize>,
        problem: Option<&str>,
    ) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_text(&text, space, retain, problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacs_sched::Schedule;
    use cacs_search::{exhaustive_search_range, FnEvaluator, SweepConfig};

    fn eval(
    ) -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync, impl Fn(&Schedule) -> bool + Sync>
    {
        FnEvaluator::with_idle_check(
            2,
            |s: &Schedule| {
                let mix = u64::from(s.counts()[0]) * 31 + u64::from(s.counts()[1]) * 17;
                if mix % 13 == 0 {
                    None
                } else {
                    Some((mix % 5) as f64 * 0.25)
                }
            },
            |s: &Schedule| s.counts().iter().sum::<u32>() % 7 != 0,
        )
    }

    fn sample() -> (ScheduleSpace, Checkpoint) {
        let space = ScheduleSpace::new(vec![6, 7]).unwrap();
        let mut ck = Checkpoint::new(&space, None);
        let e = eval();
        for (lo, hi) in [(0u64, 11u64), (30, 42)] {
            let shard =
                exhaustive_search_range(&e, &space, lo, hi, &SweepConfig::default()).unwrap();
            ck.record(&space, RankRange::new(lo, hi), &shard);
        }
        (space, ck)
    }

    fn assert_reports_identical(a: &ExhaustiveReport, b: &ExhaustiveReport) {
        // Best first for a readable diagnostic; the full bit-for-bit
        // comparison is centralised in ExhaustiveReport::bit_identical.
        assert_eq!(a.best, b.best, "best schedule");
        assert!(
            a.bit_identical(b),
            "reports differ bitwise:\n{a:?}\nvs\n{b:?}"
        );
    }

    #[test]
    fn text_round_trip_is_bit_exact() {
        let (space, ck) = sample();
        let text = ck.to_text(&space).unwrap();
        let back = Checkpoint::from_text(&text, &space, None, None).unwrap();
        assert_eq!(back.space_maxes, ck.space_maxes);
        assert_eq!(back.completed, ck.completed);
        assert_eq!(back.completed_ranks(), 23);
        assert_reports_identical(&back.report, &ck.report);
    }

    #[test]
    fn save_load_round_trip() {
        let (space, ck) = sample();
        let dir = std::env::temp_dir().join(format!("cacs-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        ck.save(&space, &path).unwrap();
        let back = Checkpoint::load(&path, &space, None, None).unwrap();
        assert_reports_identical(&back.report, &ck.report);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_refused() {
        let (space, ck) = sample();
        let text = ck.to_text(&space).unwrap();
        // Drop the (framed) END trailer line → refused.
        let cut: String = text
            .lines()
            .take(text.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(Checkpoint::from_text(&cut, &space, None, None).is_err());
        // Drop half the lines → refused.
        let half: String = text
            .lines()
            .take(text.lines().count() / 2)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(Checkpoint::from_text(&half, &space, None, None).is_err());
    }

    #[test]
    fn mismatched_space_or_retention_refused() {
        let (space, ck) = sample();
        let text = ck.to_text(&space).unwrap();
        let other = ScheduleSpace::new(vec![6, 8]).unwrap();
        assert!(Checkpoint::from_text(&text, &other, None, None).is_err());
        assert!(Checkpoint::from_text(&text, &space, Some(5), None).is_err());
    }

    #[test]
    fn problem_digest_round_trips_and_mismatch_is_typed() {
        let (space, mut ck) = sample();
        ck.problem = Some("paper-fast".to_string());
        let text = ck.to_text(&space).unwrap();
        assert!(text.starts_with("CACS-SWEEP-CHECKPOINT 3\n"));
        let second = text.lines().nth(1).unwrap();
        assert!(second.starts_with("PROBLEM paper-fast *"));

        // Same digest (or no expectation): accepted, digest preserved.
        let back = Checkpoint::from_text(&text, &space, None, Some("paper-fast")).unwrap();
        assert_eq!(back.problem.as_deref(), Some("paper-fast"));
        assert_reports_identical(&back.report, &ck.report);
        assert!(Checkpoint::from_text(&text, &space, None, None).is_ok());

        // A checkpoint written for a different problem over the *same*
        // space fails fast with the typed error — the regression this
        // guards: `--resume` used to accept it silently.
        let err = Checkpoint::from_text(&text, &space, None, Some("synthetic:6x7")).unwrap_err();
        assert_eq!(
            err,
            DistribError::ProblemMismatch {
                expected: "synthetic:6x7".to_string(),
                found: "paper-fast".to_string(),
            }
        );
    }

    #[test]
    fn pre_integrity_checkpoint_headers_are_refused() {
        // Versions 1 and 2 predate the CRC frame (and version 1 the
        // PROBLEM line); no writer emits them.
        let (space, mut ck) = sample();
        ck.problem = Some("paper-fast".to_string());
        let text = ck.to_text(&space).unwrap();
        let body: Vec<&str> = text
            .lines()
            .skip(1)
            .map(|l| verify_line(l).unwrap())
            .collect();
        for (version, first) in [(1, 1), (2, 0)] {
            let old = format!(
                "CACS-SWEEP-CHECKPOINT {version}\n{}\n",
                body[first..].join("\n")
            );
            let err = Checkpoint::from_text(&old, &space, None, None).unwrap_err();
            assert!(
                matches!(err, DistribError::Checkpoint { .. }),
                "version {version}: expected Checkpoint, got {err:?}"
            );
        }
    }

    #[test]
    fn v3_digestless_checkpoint_loads_without_a_problem_line() {
        let (space, ck) = sample();
        assert!(ck.problem.is_none());
        let text = ck.to_text(&space).unwrap();
        assert!(!text.contains("PROBLEM"));
        let back = Checkpoint::from_text(&text, &space, None, Some("anything")).unwrap();
        assert!(back.problem.is_none());
        assert_reports_identical(&back.report, &ck.report);
    }

    #[test]
    fn corrupted_v3_line_refuses_the_resume() {
        let (space, ck) = sample();
        let text = ck.to_text(&space).unwrap();
        // Flip one digit inside the COUNTERS payload, keeping the (now
        // stale) CRC suffix: this used to parse fine and silently poison
        // the resumed merge.
        let corrupted: String = text
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("COUNTERS ") {
                    let tampered = rest.replacen(
                        rest.chars().next().unwrap(),
                        if rest.starts_with('1') { "2" } else { "1" },
                        1,
                    );
                    format!("COUNTERS {tampered}\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        assert_ne!(corrupted, text);
        let err = Checkpoint::from_text(&corrupted, &space, None, None).unwrap_err();
        assert!(
            matches!(err, DistribError::Corrupt { .. }),
            "expected Corrupt, got {err:?}"
        );
    }

    #[test]
    fn v3_line_stripped_of_its_crc_refuses_the_resume() {
        let (space, ck) = sample();
        let text = ck.to_text(&space).unwrap();
        // Remove the CRC suffix from one line: a checkpoint must not
        // accept unframed lines (that would let truncation-by-suffix pass).
        let stripped: String = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 2 {
                    format!("{}\n", verify_line(l).unwrap())
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let err = Checkpoint::from_text(&stripped, &space, None, None).unwrap_err();
        assert!(
            matches!(err, DistribError::Corrupt { .. }),
            "expected Corrupt, got {err:?}"
        );
    }

    #[test]
    fn adjacent_ranges_coalesce_in_the_checkpoint() {
        let space = ScheduleSpace::new(vec![5, 5]).unwrap();
        let mut ck = Checkpoint::new(&space, Some(0));
        let e = eval();
        for (lo, hi) in [(0u64, 5u64), (5, 10), (20, 25)] {
            let shard = exhaustive_search_range(
                &e,
                &space,
                lo,
                hi,
                &SweepConfig {
                    max_results: Some(0),
                    ..SweepConfig::default()
                },
            )
            .unwrap();
            ck.record(&space, RankRange::new(lo, hi), &shard);
        }
        assert_eq!(
            ck.completed,
            vec![RankRange::new(0, 10), RankRange::new(20, 25)]
        );
        let text = ck.to_text(&space).unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("DONE")).count(), 2);
        let back = Checkpoint::from_text(&text, &space, Some(0), None).unwrap();
        assert_eq!(back.completed, ck.completed);
    }
}
