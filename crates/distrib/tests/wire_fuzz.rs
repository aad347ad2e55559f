//! Fuzzing the wire parser: random byte insertions, deletions and
//! flips against every message shape of the protocol. The decoder must
//! always return a typed error — never panic — and the CRC frame must
//! reject **every** single-byte substitution of a framed line, which is
//! the end-to-end integrity guarantee the chaos soak leans on.

#![allow(clippy::unwrap_used)] // tests unwrap freely

use cacs_distrib::wire::{CoordMsg, WorkerMsg};
use proptest::prelude::*;

/// One representative framed line per message shape, both directions.
fn corpus() -> Vec<(bool, String)> {
    // `true` = a coordinator→worker line (decoded by CoordMsg::decode).
    vec![
        (true, CoordMsg::Space(vec![7, 9, 11]).encode_framed()),
        (
            true,
            CoordMsg::Sweep {
                lease: 42,
                start: 1_000,
                end: 2_000,
                chunk: 512,
                grain: 64,
                retain: Some(8),
            }
            .encode_framed(),
        ),
        (
            true,
            CoordMsg::Sweep {
                lease: 7,
                start: 0,
                end: 65_536,
                chunk: 1024,
                grain: 128,
                retain: None,
            }
            .encode_framed(),
        ),
        (true, CoordMsg::Exit.encode_framed()),
        (false, WorkerMsg::Hello { version: 2 }.encode_framed()),
        (
            false,
            WorkerMsg::Report {
                lease: 42,
                enumerated: 1_000,
                evaluated: 900,
                feasible: 17,
                best: Some((1_234, 0x3fd5_5555_5555_5555)),
                truncated: false,
                nresults: 2,
            }
            .encode_framed(),
        ),
        (
            false,
            WorkerMsg::Report {
                lease: 9,
                enumerated: 10,
                evaluated: 0,
                feasible: 0,
                best: None,
                truncated: true,
                nresults: 0,
            }
            .encode_framed(),
        ),
        (
            false,
            WorkerMsg::Result {
                rank: 77,
                value_bits: Some(0x8000_0000_0000_0000),
            }
            .encode_framed(),
        ),
        (
            false,
            WorkerMsg::Result {
                rank: 78,
                value_bits: None,
            }
            .encode_framed(),
        ),
        (false, WorkerMsg::Done { lease: 42 }.encode_framed()),
    ]
}

/// Decodes `line` with the decoder matching its direction, discarding
/// the result — the property under fuzz is "typed error, no panic".
fn decode(coord_line: bool, line: &str) -> bool {
    if coord_line {
        CoordMsg::decode(line).is_ok()
    } else {
        WorkerMsg::decode(line).is_ok()
    }
}

#[test]
fn pristine_corpus_decodes() {
    for (coord_line, line) in corpus() {
        assert!(decode(coord_line, &line), "corpus line rejected: {line:?}");
    }
}

/// The heart of the integrity story: a framed line with any ONE byte
/// substituted must be rejected. CRC-32 catches every single-byte
/// change of payload or suffix; substituting the frame marker or
/// bending a suffix digit out of lowercase hex leaves the line without
/// a well-formed suffix, which the decoders refuse before reading a
/// field. Exhaustive over every position and all 255 substitute bytes.
#[test]
fn framed_lines_reject_every_single_byte_substitution() {
    for (coord_line, line) in corpus() {
        let bytes = line.as_bytes();
        for pos in 0..bytes.len() {
            for substitute in 0u8..=255 {
                if substitute == bytes[pos] {
                    continue;
                }
                let mut mutated = bytes.to_vec();
                mutated[pos] = substitute;
                let Ok(mutated) = String::from_utf8(mutated) else {
                    continue; // a reader would fail such a line upstream
                };
                assert!(
                    !decode(coord_line, &mutated),
                    "accepted a corrupted line: {line:?} with byte {pos} -> {substitute:#04x}"
                );
            }
        }
    }
}

/// A line cut short anywhere (a truncated read, a half-flushed write)
/// must be rejected too: without its full suffix it is not framed, so
/// no prefix can decode to a shorter field with wrong bits.
#[test]
fn every_proper_prefix_of_a_framed_line_is_rejected() {
    for (coord_line, line) in corpus() {
        for end in 0..line.len() {
            assert!(
                !decode(coord_line, &line[..end]),
                "accepted the prefix {:?} of {line:?}",
                &line[..end]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random edit scripts (flip / insert / delete, up to 4 edits)
    /// against random corpus lines: the decoder returns `Ok` or a typed
    /// error, never panics — and an edited line that still decodes must
    /// be byte-identical to the original (edits that cancel out).
    #[test]
    fn random_edits_never_panic_the_decoder(
        pick in 0usize..10,
        edits in prop::collection::vec((0usize..3, 0usize..4096, 0u8..=255), 1..5),
    ) {
        let (coord_line, line) = corpus().swap_remove(pick);
        let mut bytes = line.clone().into_bytes();
        for (op, pos, byte) in edits {
            if bytes.is_empty() {
                break;
            }
            let pos = pos % bytes.len();
            match op {
                0 => bytes[pos] = byte,          // flip
                1 => bytes.insert(pos, byte),    // insert
                _ => {
                    bytes.remove(pos);           // delete
                }
            }
        }
        // Non-UTF-8 edits would fail in the line reader upstream.
        prop_assume!(std::str::from_utf8(&bytes).is_ok());
        let mutated = String::from_utf8(bytes).unwrap();
        let accepted = decode(coord_line, &mutated);
        if accepted && mutated != line {
            // Multi-edit collisions against CRC-32 are possible in
            // principle but unreachable by 4 random edits; surfacing
            // one would mean the frame check is not being consulted.
            prop_assert!(false, "accepted an edited line: {mutated:?}");
        }
    }

    /// Arbitrary byte soup (lossily decoded to UTF-8) never panics
    /// either decoder.
    #[test]
    fn arbitrary_lines_never_panic_the_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..80),
    ) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let _ = CoordMsg::decode(&line);
        let _ = WorkerMsg::decode(&line);
    }
}
