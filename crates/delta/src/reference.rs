//! The original, naive encoder — retained verbatim as a correctness oracle.
//!
//! This is the pre-optimization implementation of [`crate::encode`](fn@crate::encode): a
//! per-call `HashMap<u32, Vec<usize>>` block index, per-probe FNV
//! recomputation, byte-at-a-time match extension, and an `Inst` vector that
//! is serialized in a second pass. It is deliberately *not* fast; its job is
//! to define the wire format. The optimized hot path in [`crate::encode`](fn@crate::encode)
//! must produce byte-identical [`Delta`] output (same payload, same header
//! fields) for every input — property tests in `tests/` and the unit tests
//! here hold the two implementations against each other.
//!
//! Do not "fix" or optimize this module. If the wire format changes, change
//! both encoders and the decoder together.

use std::collections::HashMap;

use bytes::{Bytes, BytesMut};

use crate::encode::{Delta, EncodeParams};
use crate::inst::{write_insts, Inst};
use crate::stats::EncodeReport;
use crate::strong::fnv1a;

/// Encode `target` against `source` with the original algorithm. Same
/// contract as [`crate::encode::encode_with_report`], kept as the oracle.
pub fn encode_with_report_reference(
    source: &[u8],
    target: &[u8],
    params: &EncodeParams,
) -> (Delta, EncodeReport) {
    let bs = params.block_size.max(4);
    let mut insts: Vec<Inst> = Vec::new();
    let mut report = EncodeReport {
        source_bytes: source.len() as u64,
        target_bytes: target.len() as u64,
        pages: 1,
        ..Default::default()
    };

    // --- 1. Index source blocks by weak hash.
    let mut table: HashMap<u32, Vec<usize>> = HashMap::new();
    if source.len() >= bs {
        let mut off = 0;
        while off + bs <= source.len() {
            let weak = crate::rolling::RollingHash::new(&source[off..off + bs]).digest();
            table.entry(weak).or_default().push(off);
            off += bs;
        }
    }

    // --- 2. Scan target.
    let mut literal_start = 0usize; // start of pending literal run
    let mut pos = 0usize;
    if target.len() >= bs && !table.is_empty() {
        let mut roll = crate::rolling::RollingHash::new(&target[0..bs]);
        loop {
            let mut matched = false;
            if let Some(cands) = table.get(&roll.digest()) {
                let window = &target[pos..pos + bs];
                let wstrong = fnv1a(window);
                for &src_off in cands.iter().take(params.max_probe) {
                    let sblock = &source[src_off..src_off + bs];
                    if fnv1a(sblock) == wstrong && sblock == window {
                        // Extend forwards.
                        let mut len = bs;
                        while pos + len < target.len()
                            && src_off + len < source.len()
                            && target[pos + len] == source[src_off + len]
                        {
                            len += 1;
                        }
                        // Extend backwards into the pending literal.
                        let mut back = 0usize;
                        while pos - back > literal_start
                            && src_off > back
                            && target[pos - back - 1] == source[src_off - back - 1]
                        {
                            back += 1;
                        }
                        let m_src = src_off - back;
                        let m_pos = pos - back;
                        let m_len = len + back;
                        if m_pos > literal_start {
                            let lit = &target[literal_start..m_pos];
                            report.literal_bytes += lit.len() as u64;
                            insts.push(Inst::Add(Bytes::copy_from_slice(lit)));
                        }
                        insts.push(Inst::Copy {
                            src_off: m_src as u64,
                            len: m_len as u64,
                        });
                        report.matched_bytes += m_len as u64;
                        pos = m_pos + m_len;
                        literal_start = pos;
                        matched = true;
                        break;
                    }
                }
            }
            if matched {
                if pos + bs > target.len() {
                    break;
                }
                roll = crate::rolling::RollingHash::new(&target[pos..pos + bs]);
            } else {
                if pos + bs >= target.len() {
                    break;
                }
                roll.roll(target[pos], target[pos + bs]);
                pos += 1;
            }
        }
    }
    // --- 3. Trailing literal.
    if literal_start < target.len() {
        let lit = &target[literal_start..];
        report.literal_bytes += lit.len() as u64;
        insts.push(Inst::Add(Bytes::copy_from_slice(lit)));
    }

    let mut payload = BytesMut::with_capacity(target.len() / 4 + 16);
    write_insts(&insts, &mut payload);

    let delta = Delta {
        source_len: source.len() as u64,
        target_len: target.len() as u64,
        target_checksum: fnv1a(target),
        payload: payload.freeze(),
    };
    report.delta_bytes = delta.wire_len();
    (delta, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;

    #[test]
    fn reference_roundtrips() {
        let source = b"abcdefgh".repeat(512);
        let mut target = source.clone();
        target[64..96].fill(0x5A);
        let params = EncodeParams {
            block_size: 16,
            max_probe: 8,
        };
        let (delta, report) = encode_with_report_reference(&source, &target, &params);
        assert_eq!(decode(&source, &delta).unwrap(), target);
        assert!(report.matched_bytes > 0);
    }
}
