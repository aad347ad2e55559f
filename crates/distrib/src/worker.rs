//! The worker side of the sweep protocol: a serve loop generic over any
//! [`ScheduleEvaluator`] and any line transport (child stdio, TCP, or
//! in-process channels), plus the deterministic chaos-injection plan the
//! soak harness and CI drive through it.

use crate::wire::{report_to_lines, CoordMsg, WorkerMsg, PROTOCOL_VERSION};
use crate::{DistribError, Result};
use cacs_search::integrity::append_crc;
use cacs_search::{exhaustive_search_range, ScheduleEvaluator, ScheduleSpace, SweepConfig};
use std::time::Duration;

/// Deterministic fault injection for tests and the chaos soak harness.
///
/// Every trigger is keyed to the 1-based ordinal of the `SWEEP` request
/// this worker incarnation receives, and every byte-level corruption is
/// derived from `seed` with splitmix64 — the same plan against the same
/// sweep always injects the identical fault, which is what lets the soak
/// driver assert byte-identical merged reports across a whole fault
/// matrix. At most one trigger fires per sweep; they are checked in the
/// order the fields are declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed for the deterministic corruption choices (garbage content,
    /// flip-byte position).
    pub seed: u64,
    /// Die (return [`DistribError::InjectedFault`] without replying)
    /// while handling the `n`-th `SWEEP` — a worker lost mid-shard,
    /// after the lease was issued but before any report line went out.
    pub die_on_lease: Option<u64>,
    /// Sleep [`ChaosPlan::hang_for`] while handling the `n`-th `SWEEP`,
    /// then die — a wedged worker the coordinator must time out.
    pub hang_on_lease: Option<u64>,
    /// How long a [`ChaosPlan::hang_on_lease`] trigger sleeps. Defaults
    /// to 10 minutes, i.e. effectively forever next to any sane lease
    /// timeout; in-process tests set it small so scoped threads join.
    pub hang_for: Duration,
    /// Answer the `n`-th `SWEEP` with one undecodable garbage line
    /// instead of a report, then keep serving.
    pub garbage_on_lease: Option<u64>,
    /// Answer the `n`-th `SWEEP` with only the first half of its
    /// `REPORT` header line — a partial write — then keep serving.
    pub truncate_on_lease: Option<u64>,
    /// Corrupt one seed-chosen byte somewhere in the `n`-th sweep's
    /// report lines (after CRC framing, so the frame must catch it).
    pub flip_byte_on_lease: Option<u64>,
    /// Sleep this long before sending `HELLO` — a slow-starting worker
    /// the coordinator's handshake timeout must tolerate or reject.
    pub slow_start: Option<Duration>,
    /// After `n` fully answered leases, stop serving and return
    /// [`ServeOutcome::ReconnectRequested`] — a flaky peer that drops
    /// the connection and dials back in.
    pub reconnect_after: Option<u64>,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan {
            seed: 0,
            die_on_lease: None,
            hang_on_lease: None,
            hang_for: Duration::from_secs(600),
            garbage_on_lease: None,
            truncate_on_lease: None,
            flip_byte_on_lease: None,
            slow_start: None,
            reconnect_after: None,
        }
    }
}

impl ChaosPlan {
    /// `true` when no trigger is armed — the production configuration.
    pub fn is_inert(&self) -> bool {
        self.die_on_lease.is_none()
            && self.hang_on_lease.is_none()
            && self.garbage_on_lease.is_none()
            && self.truncate_on_lease.is_none()
            && self.flip_byte_on_lease.is_none()
            && self.slow_start.is_none()
            && self.reconnect_after.is_none()
    }
}

/// splitmix64: the deterministic mixing function behind every seeded
/// choice in the chaos plan and the coordinator's backoff jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How a serve loop ended, other than by error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// Coordinator sent `EXIT` or hung up: clean shutdown.
    Done,
    /// The chaos plan's `reconnect_after` trigger fired: the caller
    /// should drop the transport and dial the coordinator again.
    ReconnectRequested,
}

/// Flips one deterministically-chosen byte in one of `lines`, keeping
/// the result ASCII so it still travels as a text line.
fn flip_one_byte(lines: &mut [String], seed: u64) {
    if lines.is_empty() {
        return;
    }
    let line_idx = (splitmix64(seed) % lines.len() as u64) as usize;
    let line = &mut lines[line_idx];
    if line.is_empty() {
        return;
    }
    let byte_idx = (splitmix64(seed ^ 0x00C0_FFEE) % line.len() as u64) as usize;
    let mut bytes = line.clone().into_bytes();
    bytes[byte_idx] = if bytes[byte_idx] == b'7' { b'8' } else { b'7' };
    *line = String::from_utf8(bytes).expect("ASCII replacement keeps the line UTF-8");
}

/// Serves the sweep protocol over a pair of line callbacks until the
/// coordinator sends `EXIT` or hangs up: sends `HELLO`, expects `SPACE`,
/// then answers each `SWEEP` with a shard report produced by
/// [`exhaustive_search_range`] — bit-identical to what a single-process
/// sweep computes over the same ranks. All outgoing lines are CRC-framed
/// (protocol version 2).
///
/// `next_line` returns `None` on end-of-stream; `send_line` must deliver
/// (and flush) one protocol line.
///
/// # Errors
///
/// Returns [`DistribError::Protocol`] on malformed coordinator lines,
/// [`DistribError::Io`] when the transport fails, and
/// [`DistribError::InjectedFault`] when a die/hang chaos trigger fires.
pub fn serve_lines<E: ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    mut next_line: impl FnMut() -> Option<String>,
    mut send_line: impl FnMut(&str) -> std::io::Result<()>,
    chaos: ChaosPlan,
) -> Result<ServeOutcome> {
    if let Some(delay) = chaos.slow_start {
        std::thread::sleep(delay);
    }
    send_line(
        &WorkerMsg::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode_framed(),
    )?;
    let Some(space_line) = next_line() else {
        return Ok(ServeOutcome::Done); // coordinator hung up before the handshake
    };
    let CoordMsg::Space(maxes) = CoordMsg::decode(&space_line)? else {
        return Err(DistribError::Protocol {
            context: format!("expected SPACE after HELLO, got {space_line:?}"),
        });
    };
    let space = ScheduleSpace::new(maxes)?;
    if space.app_count() != evaluator.app_count() {
        return Err(DistribError::Protocol {
            context: format!(
                "coordinator space has {} dimensions, evaluator models {}",
                space.app_count(),
                evaluator.app_count()
            ),
        });
    }

    let mut sweeps_handled = 0u64;
    let mut leases_completed = 0u64;
    while let Some(line) = next_line() {
        match CoordMsg::decode(&line)? {
            CoordMsg::Sweep {
                lease,
                start,
                end,
                grain,
                retain,
            } => {
                sweeps_handled += 1;
                if chaos.die_on_lease == Some(sweeps_handled) {
                    return Err(DistribError::InjectedFault);
                }
                if chaos.hang_on_lease == Some(sweeps_handled) {
                    std::thread::sleep(chaos.hang_for);
                    return Err(DistribError::InjectedFault);
                }
                if chaos.garbage_on_lease == Some(sweeps_handled) {
                    let noise = splitmix64(chaos.seed ^ lease);
                    // cacs-lint: allow(unframed-wire-write, reason = "chaos injection: the garbage line must be corrupt to exercise rejection")
                    send_line(&format!("?garbage {noise:016x}"))?;
                    continue;
                }
                let config = SweepConfig {
                    max_results: retain,
                    dispatch_grain: grain,
                };
                let report = exhaustive_search_range(evaluator, &space, start, end, &config)?;
                let mut lines: Vec<String> = report_to_lines(&space, lease, &report)?
                    .iter()
                    .map(|l| append_crc(l))
                    .collect();
                if chaos.truncate_on_lease == Some(sweeps_handled) {
                    let cut = &lines[0][..lines[0].len() / 2];
                    send_line(cut)?;
                    continue;
                }
                if chaos.flip_byte_on_lease == Some(sweeps_handled) {
                    flip_one_byte(&mut lines, chaos.seed ^ lease);
                }
                for l in &lines {
                    send_line(l)?;
                }
                leases_completed += 1;
                if chaos.reconnect_after == Some(leases_completed) {
                    return Ok(ServeOutcome::ReconnectRequested);
                }
            }
            CoordMsg::Exit => return Ok(ServeOutcome::Done),
            CoordMsg::Space(_) => {
                return Err(DistribError::Protocol {
                    context: "SPACE sent twice".to_string(),
                })
            }
        }
    }
    Ok(ServeOutcome::Done) // coordinator hung up: treated as shutdown
}

/// [`serve_lines`] over buffered reader/writer halves — the shape the
/// stdio and TCP worker binaries use.
///
/// # Errors
///
/// As [`serve_lines`].
pub fn serve_stream<E: ScheduleEvaluator + ?Sized>(
    evaluator: &E,
    reader: impl std::io::BufRead,
    mut writer: impl std::io::Write,
    chaos: ChaosPlan,
) -> Result<ServeOutcome> {
    let mut lines = reader.lines();
    serve_lines(
        evaluator,
        move || lines.next().and_then(|l| l.ok()),
        move |l| {
            writer.write_all(l.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()
        },
        chaos,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacs_sched::Schedule;
    use cacs_search::{exhaustive_search, FnEvaluator};

    fn eval() -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync> {
        FnEvaluator::new(2, |s: &Schedule| {
            Some(f64::from(s.counts()[0] * 10 + s.counts()[1]))
        })
    }

    fn drive_chaos(input: &[String], chaos: ChaosPlan) -> (Result<ServeOutcome>, Vec<String>) {
        let mut sent = Vec::new();
        let mut it = input.iter().cloned();
        let result = serve_lines(
            &eval(),
            move || it.next(),
            |l| {
                sent.push(l.to_string());
                Ok(())
            },
            chaos,
        );
        (result, sent)
    }

    fn drive(input: &[String]) -> (Result<ServeOutcome>, Vec<String>) {
        drive_chaos(input, ChaosPlan::default())
    }

    fn sweep(lease: u64, start: u64, end: u64) -> String {
        CoordMsg::Sweep {
            lease,
            start,
            end,
            grain: 1,
            retain: None,
        }
        .encode_framed()
    }

    #[test]
    fn serves_a_sweep_and_exits() {
        let space = ScheduleSpace::new(vec![3, 4]).unwrap();
        let input = vec![
            CoordMsg::Space(vec![3, 4]).encode_framed(),
            CoordMsg::Sweep {
                lease: 1,
                start: 2,
                end: 9,
                grain: 3,
                retain: None,
            }
            .encode_framed(),
            CoordMsg::Exit.encode_framed(),
        ];
        let (result, sent) = drive(&input);
        assert_eq!(result.unwrap(), ServeOutcome::Done);
        assert_eq!(
            WorkerMsg::decode(&sent[0]).unwrap(),
            WorkerMsg::Hello {
                version: PROTOCOL_VERSION
            }
        );
        // Every outgoing line is CRC-framed.
        for line in &sent {
            assert!(
                cacs_search::integrity::verify_line(line).is_ok(),
                "line {line:?} is not framed"
            );
        }
        let WorkerMsg::Report {
            lease,
            enumerated,
            evaluated,
            nresults,
            ..
        } = WorkerMsg::decode(&sent[1]).unwrap()
        else {
            panic!("expected REPORT, got {:?}", sent[1]);
        };
        assert_eq!((lease, enumerated, evaluated, nresults), (1, 7, 7, 7));
        assert_eq!(
            WorkerMsg::decode(sent.last().unwrap()).unwrap(),
            WorkerMsg::Done { lease: 1 }
        );
        // The reported range matches a direct range sweep.
        let direct = exhaustive_search_range(
            &eval(),
            &space,
            2,
            9,
            &cacs_search::SweepConfig {
                max_results: None,
                dispatch_grain: 3,
            },
        )
        .unwrap();
        assert_eq!(direct.evaluated, 7);
        let _ = exhaustive_search(&eval(), &space).unwrap();
    }

    #[test]
    fn hangup_before_handshake_is_clean() {
        let (result, sent) = drive(&[]);
        assert_eq!(result.unwrap(), ServeOutcome::Done);
        assert_eq!(sent.len(), 1); // just the HELLO
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let input = vec![CoordMsg::Space(vec![3, 4, 5]).encode_framed()];
        let (result, _) = drive(&input);
        assert!(matches!(result, Err(DistribError::Protocol { .. })));
    }

    #[test]
    fn rejects_double_space() {
        let input = vec![
            CoordMsg::Space(vec![3, 4]).encode_framed(),
            CoordMsg::Space(vec![3, 4]).encode_framed(),
        ];
        let (result, _) = drive(&input);
        assert!(matches!(result, Err(DistribError::Protocol { .. })));
    }

    #[test]
    fn die_chaos_kills_the_requested_lease() {
        let input = [
            CoordMsg::Space(vec![3, 4]).encode_framed(),
            sweep(1, 0, 4),
            sweep(2, 4, 8),
        ];
        let (result, sent) = drive_chaos(
            &input,
            ChaosPlan {
                die_on_lease: Some(2),
                ..ChaosPlan::default()
            },
        );
        assert!(matches!(result, Err(DistribError::InjectedFault)));
        // Lease 1 answered fully, lease 2 not at all.
        assert!(sent
            .iter()
            .any(|l| matches!(WorkerMsg::decode(l), Ok(WorkerMsg::Done { lease: 1 }))));
        assert!(!sent.iter().any(|l| l.contains("DONE 2")));
    }

    #[test]
    fn garbage_chaos_sends_an_undecodable_line_then_keeps_serving() {
        let input = [
            CoordMsg::Space(vec![3, 4]).encode_framed(),
            sweep(1, 0, 4),
            sweep(2, 4, 8),
            CoordMsg::Exit.encode_framed(),
        ];
        let (result, sent) = drive_chaos(
            &input,
            ChaosPlan {
                garbage_on_lease: Some(1),
                ..ChaosPlan::default()
            },
        );
        assert_eq!(result.unwrap(), ServeOutcome::Done);
        // The garbage line (sent[1], right after HELLO) must not decode;
        // the second lease is answered normally afterwards.
        assert!(WorkerMsg::decode(&sent[1]).is_err());
        assert!(sent
            .iter()
            .any(|l| matches!(WorkerMsg::decode(l), Ok(WorkerMsg::Done { lease: 2 }))));
    }

    #[test]
    fn truncate_chaos_cuts_the_report_header_mid_line() {
        let input = [
            CoordMsg::Space(vec![3, 4]).encode_framed(),
            sweep(1, 0, 4),
            CoordMsg::Exit.encode_framed(),
        ];
        let (result, sent) = drive_chaos(
            &input,
            ChaosPlan {
                truncate_on_lease: Some(1),
                ..ChaosPlan::default()
            },
        );
        assert_eq!(result.unwrap(), ServeOutcome::Done);
        assert_eq!(sent.len(), 2); // HELLO + the cut header, nothing else
        assert!(WorkerMsg::decode(&sent[1]).is_err());
    }

    #[test]
    fn flip_byte_chaos_corrupts_exactly_one_framed_line() {
        let input = [
            CoordMsg::Space(vec![3, 4]).encode_framed(),
            sweep(1, 0, 6),
            CoordMsg::Exit.encode_framed(),
        ];
        let (clean_result, clean) = drive(&input);
        assert_eq!(clean_result.unwrap(), ServeOutcome::Done);
        let (result, sent) = drive_chaos(
            &input,
            ChaosPlan {
                seed: 42,
                flip_byte_on_lease: Some(1),
                ..ChaosPlan::default()
            },
        );
        assert_eq!(result.unwrap(), ServeOutcome::Done);
        assert_eq!(sent.len(), clean.len());
        let differing: Vec<usize> = (0..sent.len()).filter(|&i| sent[i] != clean[i]).collect();
        assert_eq!(differing.len(), 1, "exactly one line corrupted");
        // The CRC frame (or strict parse) must reject the corrupted line.
        assert!(WorkerMsg::decode(&sent[differing[0]]).is_err());
        // Determinism: the same plan corrupts the same byte.
        let (_, again) = drive_chaos(
            &input,
            ChaosPlan {
                seed: 42,
                flip_byte_on_lease: Some(1),
                ..ChaosPlan::default()
            },
        );
        assert_eq!(sent, again);
    }

    #[test]
    fn reconnect_chaos_stops_after_the_requested_lease() {
        let input = [
            CoordMsg::Space(vec![3, 4]).encode_framed(),
            sweep(1, 0, 4),
            sweep(2, 4, 8),
        ];
        let (result, sent) = drive_chaos(
            &input,
            ChaosPlan {
                reconnect_after: Some(1),
                ..ChaosPlan::default()
            },
        );
        assert_eq!(result.unwrap(), ServeOutcome::ReconnectRequested);
        // Lease 1 fully answered, lease 2 never picked up.
        assert!(sent
            .iter()
            .any(|l| matches!(WorkerMsg::decode(l), Ok(WorkerMsg::Done { lease: 1 }))));
        assert!(!sent.iter().any(|l| l.contains("DONE 2")));
    }

    #[test]
    fn inert_plan_reports_as_such() {
        assert!(ChaosPlan::default().is_inert());
        assert!(!ChaosPlan {
            die_on_lease: Some(1),
            ..ChaosPlan::default()
        }
        .is_inert());
    }
}
