//! End-to-end integrity primitives of the workspace's durable line
//! format: the evaluation store's snapshot and journal records, plus
//! the CRC-32 that pins the scientific anchor's report digest.
//!
//! The store's records are line-oriented ASCII whose corruption used to be
//! detected only by accident of parse failure — a flipped hex digit in
//! an objective's bit pattern still parses and would have been silently
//! merged. A per-line CRC-32 suffix closes that hole: bit rot, partial
//! writes and transport-mangled lines become *typed* errors at the exact
//! record, which the caller can then quarantine (skip and count) or
//! refuse, instead of folding wrong bits into a result that is supposed
//! to be bit-identical to a sequential computation.
//!
//! # Framed line format
//!
//! ```text
//! <payload> *<crc32 as exactly 8 lower-case hex digits>
//! ```
//!
//! The checksum is CRC-32 (IEEE 802.3, reflected polynomial
//! `0xEDB88320`) over the raw payload bytes — everything before the
//! ` *` marker. Payload fields in the covered formats never contain
//! `*`, so the suffix is unambiguous. The frame is mandatory:
//! [`verify_line`] rejects a line without one, and the checksum must be
//! exactly 8 lower-case hex digits, so neither a single-byte mutation
//! of a framed line (payload, marker, or checksum — including case
//! changes) nor a proper prefix of one can pass verification.

/// CRC-32 lookup table (IEEE 802.3 reflected polynomial), built at
/// compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Frames a payload line with its CRC-32 suffix: `<line> *<8 hex>`.
pub fn append_crc(line: &str) -> String {
    format!("{line} *{:08x}", crc32(line.as_bytes()))
}

/// `true` when `line` ends in a well-formed CRC suffix (` *` + exactly
/// 8 lower-case hex digits). Says nothing about whether it verifies.
fn has_crc_suffix(line: &str) -> bool {
    let bytes = line.as_bytes();
    bytes.len() >= 10
        && bytes[bytes.len() - 10] == b' '
        && bytes[bytes.len() - 9] == b'*'
        && bytes[bytes.len() - 8..]
            .iter()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(b))
}

/// Verifies a CRC-framed line and returns its payload.
///
/// # Errors
///
/// Returns a human-readable reason when the line lacks a well-formed
/// suffix or the checksum does not match the payload — the caller wraps
/// it in its own typed `Corrupt` error.
pub fn verify_line(line: &str) -> Result<&str, String> {
    if !has_crc_suffix(line) {
        return Err("missing CRC suffix".to_string());
    }
    let payload = &line[..line.len() - 10];
    let stated = u32::from_str_radix(&line[line.len() - 8..], 16)
        .expect("has_crc_suffix guarantees 8 hex digits");
    let actual = crc32(payload.as_bytes());
    if stated != actual {
        return Err(format!(
            "CRC mismatch: line states {stated:08x}, payload hashes to {actual:08x}"
        ));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn framed_lines_round_trip() {
        for payload in ["R 17 3fc0000000000000", "E 0 none", "EXIT", ""] {
            assert_eq!(verify_line(&append_crc(payload)), Ok(payload));
        }
    }

    #[test]
    fn unframed_lines_are_rejected() {
        for line in ["R 17 3fc0000000000000", "DONE 3", "", "ends with *short"] {
            assert!(verify_line(line).is_err(), "{line:?} accepted");
        }
    }

    #[test]
    fn every_single_byte_mutation_of_a_framed_line_is_rejected() {
        let framed = append_crc("REPORT 9 160 150 140 42:3fc0000000000000 1 2");
        let bytes = framed.as_bytes();
        for i in 0..bytes.len() {
            for replacement in [b'0', b'9', b'a', b'f', b'A', b'x', b' ', b'*', b'~'] {
                if bytes[i] == replacement {
                    continue;
                }
                let mut mutated = bytes.to_vec();
                mutated[i] = replacement;
                let mutated = String::from_utf8(mutated).unwrap();
                assert!(
                    verify_line(&mutated).is_err(),
                    "mutation at {i} to {replacement:?} slipped through"
                );
            }
        }
    }

    #[test]
    fn uppercase_checksums_are_not_a_valid_suffix() {
        // Hex parsing is case-insensitive, so an upper-case suffix would
        // let `a`→`A` mutations through; the suffix grammar forbids it.
        let framed = append_crc("DONE 3");
        assert!(verify_line(&framed.to_uppercase()).is_err());
    }
}
