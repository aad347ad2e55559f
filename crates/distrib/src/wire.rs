//! The line-oriented wire protocol between sweep coordinator and workers.
//!
//! # Format
//!
//! Every message is one `\n`-terminated ASCII line of space-separated
//! fields; the first field names the message. Schedules never travel on
//! the wire — both sides share the [`ScheduleSpace`] (sent once at
//! handshake), so a schedule is identified by its enumeration **rank**
//! and objectives travel as the raw IEEE-754 bit pattern in hex, which
//! is what makes the merged report *bit*-identical to a single-process
//! sweep rather than merely "close".
//!
//! ```text
//! worker → coord   HELLO cacs-sweep <version>
//! coord  → worker  SPACE <n> <m1> … <mn>
//! coord  → worker  SWEEP <lease> <start> <end> <grain> <retain>
//! worker → coord   REPORT <lease> <enumerated> <evaluated> <feasible> <best> <truncated> <nresults>
//! worker → coord   R <rank> <bits|none>          (× nresults)
//! worker → coord   DONE <lease>
//! coord  → worker  EXIT
//! ```
//!
//! where `<best>` is `none` or `<rank>:<bits>`, `<bits>` is the
//! objective's `f64::to_bits` as 16 lower-case hex digits, `<grain>` is
//! the ranks per lane claim of the worker's sweep
//! ([`cacs_search::SweepConfig::dispatch_grain`]), and `<retain>` is
//! `all` or a result-count cap.
//!
//! # Integrity (since protocol version 2)
//!
//! Every line a peer emits is **framed** with a CRC-32 suffix (see
//! [`cacs_search::integrity`]): `<payload> *<8 hex>`. The decoder
//! verifies and strips the suffix before parsing; a missing or
//! mismatching suffix is the typed [`DistribError::Corrupt`] — distinct
//! from a structurally malformed line — and the coordinator treats it
//! like any other fault: the worker is dropped and its lease re-issued,
//! so a transport that flips a bit inside an objective's hex pattern,
//! or cuts a line short, can no longer smuggle wrong bits into the
//! merged report.
//!
//! # Stability guarantee
//!
//! The protocol is versioned by [`PROTOCOL_VERSION`], exchanged in the
//! `HELLO` line; a coordinator refuses workers speaking any other
//! version. Within one version the format is **frozen**:
//! fields are only ever appended behind a version bump, never reordered
//! or re-encoded, so a coordinator and workers built from the same
//! major protocol version interoperate across hosts and binary builds.
//! The checkpoint file reuses the same primitive encodings (ranks + hex
//! bit patterns) under its own header, with the same guarantee.
//! Decoding is deliberately strict: unknown *trailing* fields are
//! rejected rather than ignored, `<bits>` must be exactly 16 lower-case
//! hex digits and the truncated flag exactly `0` or `1`.

use crate::{DistribError, Result};
use cacs_search::integrity::{append_crc, verify_line};
use cacs_search::{ExhaustiveReport, ScheduleSpace};

/// Version tag exchanged in the `HELLO` handshake. Bump on any breaking
/// change to the line formats documented in this module.
///
/// Version 2 added the per-line CRC-32 framing; version 3 dropped the
/// `<chunk>` field of `SWEEP` (the sweep buffers no candidates).
pub const PROTOCOL_VERSION: u32 = 3;

/// Magic token of the `HELLO` line, so a coordinator fails fast when
/// pointed at something that is not a sweep worker at all.
pub const HELLO_MAGIC: &str = "cacs-sweep";

/// A message sent by the coordinator to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordMsg {
    /// The shared schedule space: per-dimension maxima.
    Space(Vec<u32>),
    /// Sweep the rank range `[start, end)` under the given sweep knobs
    /// and report back.
    Sweep {
        /// Lease identifier, echoed back by the worker's report.
        lease: u64,
        /// First rank (inclusive).
        start: u64,
        /// One past the last rank (exclusive).
        end: u64,
        /// Ranks per lane claim in the worker's sweep.
        grain: usize,
        /// Per-shard result retention cap (`None` = keep everything).
        retain: Option<usize>,
    },
    /// Shut down cleanly.
    Exit,
}

/// A message sent by a worker to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerMsg {
    /// Handshake: magic + protocol version.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Header of a shard report (counters + best as `(rank, value_bits)`).
    Report {
        /// Lease being answered.
        lease: u64,
        /// Ranks enumerated.
        enumerated: u64,
        /// Idle-feasible schedules evaluated.
        evaluated: u64,
        /// Fully feasible schedules.
        feasible: u64,
        /// Best schedule as `(rank, f64 bits)`, `None` if the shard held
        /// nothing feasible.
        best: Option<(u64, u64)>,
        /// Whether the shard's own retention cap dropped results.
        truncated: bool,
        /// Number of `R` lines that follow.
        nresults: u64,
    },
    /// One retained result: rank + objective bits (`None` = settling
    /// deadline violated).
    Result {
        /// Enumeration rank of the schedule.
        rank: u64,
        /// `f64::to_bits` of the objective, `None` for infeasible.
        value_bits: Option<u64>,
    },
    /// Trailer of a shard report.
    Done {
        /// Lease being answered.
        lease: u64,
    },
}

fn bits_to_hex(bits: u64) -> String {
    format!("{bits:016x}")
}

fn protocol_err(line: &str, why: &str) -> DistribError {
    DistribError::Protocol {
        context: format!("{why} in line {line:?}"),
    }
}

/// Verifies and strips the mandatory CRC frame before parsing.
fn unframe(line: &str) -> Result<&str> {
    verify_line(line).map_err(|reason| DistribError::Corrupt {
        context: format!("{reason} in line {line:?}"),
    })
}

/// Rejects unknown trailing fields — see the module docs on strictness.
fn expect_end(fields: &mut std::str::SplitWhitespace<'_>, line: &str) -> Result<()> {
    if fields.next().is_some() {
        return Err(protocol_err(line, "unexpected trailing fields"));
    }
    Ok(())
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, line: &str, what: &str) -> Result<T> {
    field
        .ok_or_else(|| protocol_err(line, &format!("missing {what}")))?
        .parse()
        .map_err(|_| protocol_err(line, &format!("malformed {what}")))
}

/// Parses a `<bits>` field: exactly 16 lower-case hex digits.
pub(crate) fn parse_bits(hex: &str) -> Option<u64> {
    let digits = hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if hex.len() != 16 || !digits {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn parse_opt_bits(field: Option<&str>, line: &str) -> Result<Option<u64>> {
    match field {
        Some("none") => Ok(None),
        Some(hex) => parse_bits(hex)
            .map(Some)
            .ok_or_else(|| protocol_err(line, "malformed value bits")),
        None => Err(protocol_err(line, "missing value bits")),
    }
}

impl CoordMsg {
    /// Renders the message as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            CoordMsg::Space(maxes) => {
                let mut line = format!("SPACE {}", maxes.len());
                for m in maxes {
                    line.push(' ');
                    line.push_str(&m.to_string());
                }
                line
            }
            CoordMsg::Sweep {
                lease,
                start,
                end,
                grain,
                retain,
            } => {
                let retain = match retain {
                    Some(k) => k.to_string(),
                    None => "all".to_string(),
                };
                format!("SWEEP {lease} {start} {end} {grain} {retain}")
            }
            CoordMsg::Exit => "EXIT".to_string(),
        }
    }

    /// Renders the message CRC-framed, as a current-version peer puts it on
    /// the wire: [`CoordMsg::encode`] plus the integrity suffix.
    pub fn encode_framed(&self) -> String {
        append_crc(&self.encode())
    }

    /// Parses one coordinator line, verifying and stripping its CRC
    /// frame.
    ///
    /// # Errors
    ///
    /// Returns [`DistribError::Protocol`] on unknown or malformed lines
    /// and [`DistribError::Corrupt`] on a missing or mismatching CRC.
    pub fn decode(line: &str) -> Result<Self> {
        Self::decode_payload(unframe(line)?)
    }

    /// Parses an already-verified payload (see [`CoordMsg::decode`]).
    pub(crate) fn decode_payload(line: &str) -> Result<Self> {
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("SPACE") => {
                let n: usize = parse_field(fields.next(), line, "dimension count")?;
                let maxes: Vec<u32> = fields
                    .map(|f| {
                        f.parse()
                            .map_err(|_| protocol_err(line, "malformed dimension"))
                    })
                    .collect::<Result<_>>()?;
                if maxes.len() != n {
                    return Err(protocol_err(line, "dimension count mismatch"));
                }
                Ok(CoordMsg::Space(maxes))
            }
            Some("SWEEP") => {
                let lease = parse_field(fields.next(), line, "lease id")?;
                let start = parse_field(fields.next(), line, "range start")?;
                let end = parse_field(fields.next(), line, "range end")?;
                let grain = parse_field(fields.next(), line, "dispatch grain")?;
                let retain = match fields.next() {
                    Some("all") => None,
                    other => Some(parse_field(other, line, "retention cap")?),
                };
                expect_end(&mut fields, line)?;
                Ok(CoordMsg::Sweep {
                    lease,
                    start,
                    end,
                    grain,
                    retain,
                })
            }
            Some("EXIT") => {
                expect_end(&mut fields, line)?;
                Ok(CoordMsg::Exit)
            }
            _ => Err(protocol_err(line, "unknown coordinator message")),
        }
    }
}

impl WorkerMsg {
    /// Renders the message as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            WorkerMsg::Hello { version } => format!("HELLO {HELLO_MAGIC} {version}"),
            WorkerMsg::Report {
                lease,
                enumerated,
                evaluated,
                feasible,
                best,
                truncated,
                nresults,
            } => {
                let best = match best {
                    Some((rank, bits)) => format!("{rank}:{}", bits_to_hex(*bits)),
                    None => "none".to_string(),
                };
                let truncated = u8::from(*truncated);
                format!(
                    "REPORT {lease} {enumerated} {evaluated} {feasible} {best} {truncated} {nresults}"
                )
            }
            WorkerMsg::Result { rank, value_bits } => {
                let value = match value_bits {
                    Some(bits) => bits_to_hex(*bits),
                    None => "none".to_string(),
                };
                format!("R {rank} {value}")
            }
            WorkerMsg::Done { lease } => format!("DONE {lease}"),
        }
    }

    /// Renders the message CRC-framed, as a current-version peer puts it on
    /// the wire: [`WorkerMsg::encode`] plus the integrity suffix.
    pub fn encode_framed(&self) -> String {
        append_crc(&self.encode())
    }

    /// Parses one worker line, verifying and stripping its CRC frame.
    ///
    /// # Errors
    ///
    /// Returns [`DistribError::Protocol`] on unknown or malformed lines
    /// and [`DistribError::Corrupt`] on a missing or mismatching CRC.
    pub fn decode(line: &str) -> Result<Self> {
        Self::decode_payload(unframe(line)?)
    }

    /// Parses an already-verified payload (see [`WorkerMsg::decode`]).
    pub(crate) fn decode_payload(line: &str) -> Result<Self> {
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("HELLO") => {
                if fields.next() != Some(HELLO_MAGIC) {
                    return Err(protocol_err(line, "wrong hello magic"));
                }
                let version = parse_field(fields.next(), line, "protocol version")?;
                expect_end(&mut fields, line)?;
                Ok(WorkerMsg::Hello { version })
            }
            Some("REPORT") => {
                let lease = parse_field(fields.next(), line, "lease id")?;
                let enumerated = parse_field(fields.next(), line, "enumerated counter")?;
                let evaluated = parse_field(fields.next(), line, "evaluated counter")?;
                let feasible = parse_field(fields.next(), line, "feasible counter")?;
                let best = match fields.next() {
                    Some("none") => None,
                    Some(pair) => {
                        let (rank, bits) = pair
                            .split_once(':')
                            .ok_or_else(|| protocol_err(line, "malformed best"))?;
                        let rank = rank
                            .parse()
                            .map_err(|_| protocol_err(line, "malformed best rank"))?;
                        let bits = parse_bits(bits)
                            .ok_or_else(|| protocol_err(line, "malformed best bits"))?;
                        Some((rank, bits))
                    }
                    None => return Err(protocol_err(line, "missing best")),
                };
                let truncated = match fields.next() {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err(protocol_err(line, "malformed truncated flag")),
                };
                let nresults = parse_field(fields.next(), line, "result count")?;
                expect_end(&mut fields, line)?;
                Ok(WorkerMsg::Report {
                    lease,
                    enumerated,
                    evaluated,
                    feasible,
                    best,
                    truncated,
                    nresults,
                })
            }
            Some("R") => {
                let rank = parse_field(fields.next(), line, "result rank")?;
                let value_bits = parse_opt_bits(fields.next(), line)?;
                expect_end(&mut fields, line)?;
                Ok(WorkerMsg::Result { rank, value_bits })
            }
            Some("DONE") => {
                let lease = parse_field(fields.next(), line, "lease id")?;
                expect_end(&mut fields, line)?;
                Ok(WorkerMsg::Done { lease })
            }
            _ => Err(protocol_err(line, "unknown worker message")),
        }
    }
}

/// Renders a shard report as its wire line payloads (`REPORT`, `R`…,
/// `DONE`), unframed: callers frame each with
/// [`cacs_search::integrity::append_crc`] before sending.
///
/// # Errors
///
/// Returns [`DistribError::Protocol`] if the report's best or retained
/// schedules lie outside `space` (they cannot be expressed as ranks).
pub fn report_to_lines(
    space: &ScheduleSpace,
    lease: u64,
    report: &ExhaustiveReport,
) -> Result<Vec<String>> {
    let rank_of = |s: &cacs_sched::Schedule| {
        space.rank(s).ok_or_else(|| DistribError::Protocol {
            context: format!("schedule {s} outside the shared space"),
        })
    };
    let best = match &report.best {
        Some(s) => Some((rank_of(s)?, report.best_value.to_bits())),
        None => None,
    };
    let mut lines = Vec::with_capacity(report.results.len() + 2);
    lines.push(
        WorkerMsg::Report {
            lease,
            enumerated: report.enumerated,
            evaluated: report.evaluated,
            feasible: report.feasible,
            best,
            truncated: report.results_truncated,
            nresults: report.results.len() as u64,
        }
        .encode(),
    );
    for (schedule, value) in &report.results {
        lines.push(
            WorkerMsg::Result {
                rank: rank_of(schedule)?,
                value_bits: value.map(f64::to_bits),
            }
            .encode(),
        );
    }
    lines.push(WorkerMsg::Done { lease }.encode());
    Ok(lines)
}

/// Incrementally reassembles a shard report from its wire lines. Feed it
/// every worker line after the `REPORT` header has been recognised;
/// [`ReportAssembler::push`] returns the finished report when the `DONE`
/// trailer arrives.
#[derive(Debug)]
pub struct ReportAssembler {
    space: ScheduleSpace,
    lease: u64,
    report: ExhaustiveReport,
    expected_results: u64,
}

impl ReportAssembler {
    /// Starts assembling from a decoded `REPORT` header.
    ///
    /// # Errors
    ///
    /// Returns [`DistribError::Protocol`] if `header` is not a
    /// [`WorkerMsg::Report`] or references a rank outside `space`.
    pub fn new(space: &ScheduleSpace, header: &WorkerMsg) -> Result<Self> {
        let WorkerMsg::Report {
            lease,
            enumerated,
            evaluated,
            feasible,
            best,
            truncated,
            nresults,
        } = header
        else {
            return Err(DistribError::Protocol {
                context: format!("expected REPORT header, got {header:?}"),
            });
        };
        let (best_schedule, best_value) = match best {
            Some((rank, bits)) => {
                let schedule = space.unrank(*rank).ok_or_else(|| DistribError::Protocol {
                    context: format!("best rank {rank} outside the shared space"),
                })?;
                (Some(schedule), f64::from_bits(*bits))
            }
            None => (None, f64::NEG_INFINITY),
        };
        let mut report = ExhaustiveReport::empty();
        report.best = best_schedule;
        report.best_value = best_value;
        report.enumerated = *enumerated;
        report.evaluated = *evaluated;
        report.feasible = *feasible;
        report.results_truncated = *truncated;
        // Pre-size within reason only: nresults is peer-controlled, and a
        // garbled header must surface as a protocol error on the excess
        // `R` line (requeueing the lease), not as an allocation panic
        // that would take the whole coordinator down.
        report
            .results
            .reserve(usize::try_from(*nresults).unwrap_or(0).min(65_536));
        Ok(ReportAssembler {
            space: space.clone(),
            lease: *lease,
            report,
            expected_results: *nresults,
        })
    }

    /// The lease this report answers.
    pub fn lease(&self) -> u64 {
        self.lease
    }

    /// Feeds the next worker line; returns the completed `(lease,
    /// report)` once the `DONE` trailer is consumed.
    ///
    /// # Errors
    ///
    /// Returns [`DistribError::Protocol`] on out-of-sequence or
    /// malformed lines (wrong lease, too many/few results, bad rank).
    pub fn push(&mut self, msg: WorkerMsg) -> Result<Option<(u64, ExhaustiveReport)>> {
        match msg {
            WorkerMsg::Result { rank, value_bits } => {
                if self.report.results.len() as u64 >= self.expected_results {
                    return Err(DistribError::Protocol {
                        context: format!("more than {} results", self.expected_results),
                    });
                }
                let schedule = self
                    .space
                    .unrank(rank)
                    .ok_or_else(|| DistribError::Protocol {
                        context: format!("result rank {rank} outside the shared space"),
                    })?;
                self.report
                    .results
                    .push((schedule, value_bits.map(f64::from_bits)));
                Ok(None)
            }
            WorkerMsg::Done { lease } => {
                if lease != self.lease {
                    return Err(DistribError::Protocol {
                        context: format!("DONE for lease {lease}, expected {}", self.lease),
                    });
                }
                if self.report.results.len() as u64 != self.expected_results {
                    return Err(DistribError::Protocol {
                        context: format!(
                            "report closed with {} of {} results",
                            self.report.results.len(),
                            self.expected_results
                        ),
                    });
                }
                Ok(Some((
                    self.lease,
                    std::mem::replace(&mut self.report, ExhaustiveReport::empty()),
                )))
            }
            other => Err(DistribError::Protocol {
                context: format!("unexpected {other:?} inside a report"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacs_search::{exhaustive_search, FnEvaluator};

    #[test]
    fn coord_messages_round_trip() {
        let msgs = [
            CoordMsg::Space(vec![4, 9, 7]),
            CoordMsg::Sweep {
                lease: 3,
                start: 100,
                end: 260,
                grain: 64,
                retain: Some(12),
            },
            CoordMsg::Sweep {
                lease: 0,
                start: 0,
                end: 1,
                grain: 1,
                retain: None,
            },
            CoordMsg::Exit,
        ];
        for msg in &msgs {
            assert_eq!(&CoordMsg::decode(&msg.encode_framed()).unwrap(), msg);
        }
    }

    #[test]
    fn worker_messages_round_trip() {
        let msgs = [
            WorkerMsg::Hello {
                version: PROTOCOL_VERSION,
            },
            WorkerMsg::Report {
                lease: 9,
                enumerated: 160,
                evaluated: 150,
                feasible: 140,
                best: Some((42, 0.125f64.to_bits())),
                truncated: true,
                nresults: 2,
            },
            WorkerMsg::Report {
                lease: 10,
                enumerated: 5,
                evaluated: 0,
                feasible: 0,
                best: None,
                truncated: false,
                nresults: 0,
            },
            WorkerMsg::Result {
                rank: 7,
                value_bits: Some((-0.0f64).to_bits()),
            },
            WorkerMsg::Result {
                rank: 8,
                value_bits: None,
            },
            WorkerMsg::Done { lease: 9 },
        ];
        for msg in &msgs {
            assert_eq!(&WorkerMsg::decode(&msg.encode_framed()).unwrap(), msg);
        }
    }

    #[test]
    fn malformed_lines_rejected() {
        // Framed, so each case reaches the field parser.
        for line in [
            "",
            "BOGUS 1 2",
            "SPACE 3 4 9",              // count mismatch
            "SPACE x",                  // malformed count
            "SWEEP 1 2",                // missing fields
            "HELLO other-magic 1",      // wrong magic
            "REPORT 1 2 3 4",           // missing best
            "REPORT 1 2 3 4 5:zz 0 0",  // bad hex
            "REPORT 1 2 3 4 5:3fc 0 0", // short bits
            "REPORT 1 2 3 4 none 2 0",  // truncated flag not 0/1
            "R 5",                      // missing value
            "R x none",                 // bad rank
            "R 5 3fc",                  // short bits
            "R 5 3FC765A0780313C0",     // upper-case bits
            "DONE",                     // missing lease
            "EXIT now",                 // trailing junk
            "DONE 3 x",                 // trailing junk
            "R 5 none extra",           // trailing junk
            "HELLO cacs-sweep 3 !",     // trailing junk
            "SWEEP 1 2 3 4 all 6",      // trailing junk
            "SWEEP 1 2 3 4 5 all",      // version-2 field layout (with <chunk>)
        ] {
            let framed = append_crc(line);
            assert!(
                CoordMsg::decode(&framed).is_err() && WorkerMsg::decode(&framed).is_err(),
                "line {framed:?} should not parse"
            );
        }
    }

    #[test]
    fn corrupted_frames_are_typed_corrupt_errors() {
        let framed = WorkerMsg::Done { lease: 3 }.encode_framed();
        // Flip one payload byte, keep the (now stale) checksum.
        let corrupted = framed.replacen("DONE 3", "DONE 7", 1);
        match WorkerMsg::decode(&corrupted) {
            Err(DistribError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        match CoordMsg::decode(&CoordMsg::Exit.encode_framed().replacen("EXIT", "EXIX", 1)) {
            Err(DistribError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn damaged_crc_suffix_degrades_to_a_parse_error_not_acceptance() {
        // Mutating the `*` marker makes the suffix unrecognisable, and a
        // line without a suffix is rejected before any field is read.
        let framed = WorkerMsg::Done { lease: 3 }.encode_framed();
        let damaged = framed.replacen(" *", " x", 1);
        assert!(matches!(
            WorkerMsg::decode(&damaged),
            Err(DistribError::Corrupt { .. })
        ));
    }

    #[test]
    fn report_survives_the_wire_bit_identically() {
        let eval = FnEvaluator::with_idle_check(
            2,
            |s: &cacs_sched::Schedule| {
                let mix = u64::from(s.counts()[0]) * 31 + u64::from(s.counts()[1]) * 17;
                if mix % 13 == 0 {
                    None
                } else {
                    Some((mix % 5) as f64 * 0.25)
                }
            },
            |s: &cacs_sched::Schedule| s.counts().iter().sum::<u32>() % 7 != 0,
        );
        let space = ScheduleSpace::new(vec![6, 7]).unwrap();
        let report = exhaustive_search(&eval, &space).unwrap();

        let lines = report_to_lines(&space, 5, &report).unwrap();
        let header = WorkerMsg::decode(&append_crc(&lines[0])).unwrap();
        let mut assembler = ReportAssembler::new(&space, &header).unwrap();
        let mut finished = None;
        for line in &lines[1..] {
            finished = assembler
                .push(WorkerMsg::decode(&append_crc(line)).unwrap())
                .unwrap();
        }
        let (lease, decoded) = finished.expect("DONE closes the report");
        assert_eq!(lease, 5);
        assert_eq!(decoded.best, report.best);
        assert_eq!(decoded.best_value.to_bits(), report.best_value.to_bits());
        assert_eq!(decoded.enumerated, report.enumerated);
        assert_eq!(decoded.evaluated, report.evaluated);
        assert_eq!(decoded.feasible, report.feasible);
        assert_eq!(decoded.results.len(), report.results.len());
        for ((sa, va), (sb, vb)) in decoded.results.iter().zip(&report.results) {
            assert_eq!(sa, sb);
            assert_eq!(va.map(f64::to_bits), vb.map(f64::to_bits));
        }
        assert_eq!(decoded.results_truncated, report.results_truncated);
    }

    #[test]
    fn assembler_rejects_protocol_violations() {
        let space = ScheduleSpace::new(vec![3, 3]).unwrap();
        let header = WorkerMsg::Report {
            lease: 1,
            enumerated: 9,
            evaluated: 9,
            feasible: 9,
            best: None,
            truncated: false,
            nresults: 1,
        };
        // Early DONE: result count mismatch.
        let mut a = ReportAssembler::new(&space, &header).unwrap();
        assert!(a.push(WorkerMsg::Done { lease: 1 }).is_err());
        // Wrong lease on DONE.
        let mut a = ReportAssembler::new(&space, &header).unwrap();
        a.push(WorkerMsg::Result {
            rank: 0,
            value_bits: None,
        })
        .unwrap();
        assert!(a.push(WorkerMsg::Done { lease: 2 }).is_err());
        // Result rank outside the box.
        let mut a = ReportAssembler::new(&space, &header).unwrap();
        assert!(a
            .push(WorkerMsg::Result {
                rank: 99,
                value_bits: None,
            })
            .is_err());
        // Hello inside a report body.
        let mut a = ReportAssembler::new(&space, &header).unwrap();
        assert!(a.push(WorkerMsg::Hello { version: 1 }).is_err());
        // Best rank outside the box.
        let bad_header = WorkerMsg::Report {
            lease: 1,
            enumerated: 9,
            evaluated: 9,
            feasible: 9,
            best: Some((99, 0)),
            truncated: false,
            nresults: 1,
        };
        assert!(ReportAssembler::new(&space, &bad_header).is_err());
    }
}
