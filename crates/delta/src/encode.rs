//! The rsync-style block-matching delta encoder (optimized hot path).
//!
//! Algorithm (MacDonald's Xdelta / Tridgell's rsync):
//!
//! 1. Hash every `block_size`-aligned block of the **source** into a
//!    [`SourceIndex`] keyed by the weak rolling checksum, with the strong
//!    FNV digest precomputed per block for confirmation.
//! 2. Slide a `block_size` window over the **target** with the rolling
//!    hash. On a weak hit confirmed strong (and byte-equal), extend the
//!    match forwards (and backwards into pending literals) a word at a
//!    time, emit a COPY, and jump past it.
//! 3. Bytes not covered by any match become ADD literals.
//!
//! The encoder is exact: decode(source, encode(source, target)) == target,
//! always — compression quality only varies with input similarity.
//!
//! ## Hot-path structure
//!
//! [`encode_into`] is the allocation-free core: it takes a prebuilt
//! [`SourceIndex`] (rebuilt in place per page by [`crate::pa`]) and
//! appends the instruction payload directly to a caller-owned [`BytesMut`]
//! arena, so a steady-state caller that recycles both performs **zero heap
//! allocations per page**. Match extension compares 32 bytes per step
//! (paired `u128` loads, XOR, count trailing/leading zero bytes — see
//! [`common_prefix`]) with 16/8-byte and scalar tails, and candidate
//! confirmation compares whole blocks in 16-byte lanes ([`blocks_equal`]).
//!
//! [`encode_with_report`] wraps it for one-shot callers. Its output is
//! bit-identical to the retained naive implementation in
//! [`crate::reference`] — property-tested.

use bytes::{Bytes, BytesMut};

use crate::index::SourceIndex;
use crate::inst::{put_add, put_copy, put_end, put_varint, varint_len};
use crate::stats::EncodeReport;
use crate::strong::{block_filter, fnv1a};

/// Encoder tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeParams {
    /// Source block size in bytes. Smaller blocks find finer matches at
    /// higher table cost. The page-aligned codec uses 16; whole-file deltas
    /// use 64.
    pub block_size: usize,
    /// Maximum number of candidate source offsets checked per weak-hash hit
    /// (bounds worst-case quadratic behaviour on pathological inputs).
    pub max_probe: usize,
}

impl Default for EncodeParams {
    fn default() -> Self {
        EncodeParams {
            block_size: 64,
            max_probe: 8,
        }
    }
}

/// A serialized delta: magic, lengths, target checksum, instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Declared source length (decode validates against the actual source).
    pub source_len: u64,
    /// Declared target length.
    pub target_len: u64,
    /// FNV-1a digest of the target (integrity check after decode).
    pub target_checksum: u64,
    /// Serialized instruction stream.
    pub payload: Bytes,
}

/// Container magic: "ADLT".
pub const DELTA_MAGIC: [u8; 4] = *b"ADLT";

impl Delta {
    /// Total on-the-wire size of this delta (header + payload), the number
    /// that enters the paper's delta size `ds`. Computed arithmetically —
    /// no scratch buffer.
    pub fn wire_len(&self) -> u64 {
        wire_len_parts(
            self.source_len,
            self.target_len,
            self.target_checksum,
            self.payload.len(),
        )
    }

    /// Serialize to the standalone container format (magic `ADLT`, varint
    /// header, instruction payload) — what a delta looks like as a file.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.payload.len() + 32);
        buf.extend_from_slice(&DELTA_MAGIC);
        put_varint(&mut buf, self.source_len);
        put_varint(&mut buf, self.target_len);
        put_varint(&mut buf, self.target_checksum);
        put_varint(&mut buf, self.payload.len() as u64);
        buf.extend_from_slice(&self.payload);
        buf.freeze()
    }

    /// Parse a standalone delta container. Returns `None` on bad magic,
    /// truncation, or trailing garbage.
    pub fn from_bytes(mut data: Bytes) -> Option<Delta> {
        use bytes::Buf;
        if data.len() < 4 || data[0..4] != DELTA_MAGIC {
            return None;
        }
        data.advance(4);
        let source_len = crate::inst::get_varint(&mut data)?;
        let target_len = crate::inst::get_varint(&mut data)?;
        let target_checksum = crate::inst::get_varint(&mut data)?;
        let payload_len = crate::inst::get_varint(&mut data)? as usize;
        if data.remaining() != payload_len {
            return None;
        }
        Some(Delta {
            source_len,
            target_len,
            target_checksum,
            payload: data,
        })
    }
}

/// `Delta::wire_len` from its parts, usable before the `Delta` exists (the
/// raw-vs-delta decision in [`crate::pa`] runs on the arena range alone).
#[inline]
pub fn wire_len_parts(source_len: u64, target_len: u64, checksum: u64, payload_len: usize) -> u64 {
    4 + varint_len(source_len) as u64
        + varint_len(target_len) as u64
        + varint_len(checksum) as u64
        + payload_len as u64
}

/// Little-endian `u128` load of `s[off..off + 16]`.
#[inline(always)]
fn load16_le(s: &[u8], off: usize) -> u128 {
    u128::from_le_bytes(s[off..off + 16].try_into().unwrap())
}

/// Little-endian `u64` load of `s[off..off + 8]`.
#[inline(always)]
fn load8_le(s: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(s[off..off + 8].try_into().unwrap())
}

/// Length of the common prefix of `a` and `b`.
///
/// Wide compare ladder: 32-byte lanes (two `u128` loads per step, which the
/// compiler lowers to SIMD registers where available), then one 16-byte
/// lane, one 8-byte word, and a scalar tail. A mismatching lane locates the
/// first differing byte via `trailing_zeros` of the XOR (LE load: the
/// lowest set bit belongs to the earliest byte).
#[inline]
pub fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 32 <= n {
        let d0 = load16_le(a, i) ^ load16_le(b, i);
        if d0 != 0 {
            return i + (d0.trailing_zeros() >> 3) as usize;
        }
        let d1 = load16_le(a, i + 16) ^ load16_le(b, i + 16);
        if d1 != 0 {
            return i + 16 + (d1.trailing_zeros() >> 3) as usize;
        }
        i += 32;
    }
    if i + 16 <= n {
        let diff = load16_le(a, i) ^ load16_le(b, i);
        if diff != 0 {
            return i + (diff.trailing_zeros() >> 3) as usize;
        }
        i += 16;
    }
    if i + 8 <= n {
        let diff = load8_le(a, i) ^ load8_le(b, i);
        if diff != 0 {
            return i + (diff.trailing_zeros() >> 3) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Length of the common suffix of `a` and `b`.
///
/// Same wide-compare ladder as [`common_prefix`], walking backwards from
/// the slice ends; a mismatching lane locates the last differing byte via
/// `leading_zeros` (the final slice byte is the most-significant byte of an
/// LE load).
#[inline]
pub fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (la, lb) = (a.len(), b.len());
    let mut i = 0;
    while i + 32 <= n {
        let d0 = load16_le(a, la - i - 16) ^ load16_le(b, lb - i - 16);
        if d0 != 0 {
            return i + (d0.leading_zeros() >> 3) as usize;
        }
        let d1 = load16_le(a, la - i - 32) ^ load16_le(b, lb - i - 32);
        if d1 != 0 {
            return i + 16 + (d1.leading_zeros() >> 3) as usize;
        }
        i += 32;
    }
    if i + 16 <= n {
        let diff = load16_le(a, la - i - 16) ^ load16_le(b, lb - i - 16);
        if diff != 0 {
            return i + (diff.leading_zeros() >> 3) as usize;
        }
        i += 16;
    }
    if i + 8 <= n {
        let diff = load8_le(a, la - i - 8) ^ load8_le(b, lb - i - 8);
        if diff != 0 {
            return i + (diff.leading_zeros() >> 3) as usize;
        }
        i += 8;
    }
    while i < n && a[la - 1 - i] == b[lb - 1 - i] {
        i += 1;
    }
    i
}

/// Exact equality of two equal-length slices, compared in 16-byte lanes
/// with a scalar tail — the block-confirmation compare of the rolling-hash
/// scan (candidate blocks are `block_size` long, typically 16 or 64, so the
/// byte-wise `==` this replaces was the last narrow compare on the scan
/// path). Equality is equality: behavior-identical to `a == b`.
#[inline]
pub fn blocks_equal(a: &[u8], b: &[u8]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut i = 0;
    while i + 16 <= n {
        if load16_le(a, i) != load16_le(b, i) {
            return false;
        }
        i += 16;
    }
    if i + 8 <= n {
        if load8_le(a, i) != load8_le(b, i) {
            return false;
        }
        i += 8;
    }
    a[i..] == b[i..]
}

/// Allocation-free encode core: append the instruction payload for
/// (`source` → `target`) to `arena` and return `(payload range within the
/// arena, target checksum, report)`.
///
/// `index` must have been built over `source` with this `params.block_size`
/// (checked in debug builds). The caller owns both the index and the arena,
/// which is what makes steady-state encoding allocation-free: the pool
/// workers in `aic-ckpt` reuse one arena per shard and rebuild one scratch
/// index in place per page.
///
/// The emitted bytes — and the returned report — are bit-identical to
/// [`crate::reference::encode_with_report_reference`] on the same inputs.
pub fn encode_into(
    source: &[u8],
    target: &[u8],
    index: &SourceIndex,
    params: &EncodeParams,
    arena: &mut BytesMut,
) -> (std::ops::Range<usize>, u64, EncodeReport) {
    let bs = params.block_size.max(4);
    debug_assert!(
        index.is_empty() || index.block_size() == bs,
        "index built with block_size {} but params want {}",
        index.block_size(),
        bs
    );
    let start = arena.len();
    let mut report = EncodeReport {
        source_bytes: source.len() as u64,
        target_bytes: target.len() as u64,
        pages: 1,
        ..Default::default()
    };

    let mut literal_start = 0usize; // start of pending literal run
    let mut pos = 0usize;
    if target.len() >= bs && !index.is_empty() {
        let mut roll = crate::rolling::RollingHash::new(&target[0..bs]);
        loop {
            let mut matched = false;
            let cands = index.candidates(roll.digest());
            if !cands.is_empty() {
                let window = &target[pos..pos + bs];
                // Filter digest, compared against the index's precomputed
                // per-block digests; `blocks_equal` below decides the match,
                // so the filter choice never reaches the output bytes.
                let wstrong = block_filter(window);
                for &blk in cands.iter().take(params.max_probe) {
                    let src_off = blk as usize * bs;
                    let sblock = &source[src_off..src_off + bs];
                    if index.strong(blk) == wstrong && blocks_equal(sblock, window) {
                        // Extend forwards, word at a time. The scalar loop
                        // stopped at min(target.len()-pos, source.len()-src_off).
                        let fwd_cap = (target.len() - pos).min(source.len() - src_off);
                        let len = bs
                            + common_prefix(
                                &target[pos + bs..pos + fwd_cap],
                                &source[src_off + bs..src_off + fwd_cap],
                            );
                        // Extend backwards into the pending literal; capped
                        // by the literal run and the source start.
                        let back_cap = (pos - literal_start).min(src_off);
                        let back = common_suffix(
                            &target[pos - back_cap..pos],
                            &source[src_off - back_cap..src_off],
                        );
                        let m_src = src_off - back;
                        let m_pos = pos - back;
                        let m_len = len + back;
                        if m_pos > literal_start {
                            let lit = &target[literal_start..m_pos];
                            report.literal_bytes += lit.len() as u64;
                            put_add(arena, lit);
                        }
                        put_copy(arena, m_src as u64, m_len as u64);
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
    // Trailing literal.
    if literal_start < target.len() {
        let lit = &target[literal_start..];
        report.literal_bytes += lit.len() as u64;
        put_add(arena, lit);
    }
    put_end(arena);

    let checksum = fnv1a(target);
    let end = arena.len();
    report.delta_bytes = wire_len_parts(
        source.len() as u64,
        target.len() as u64,
        checksum,
        end - start,
    );
    (start..end, checksum, report)
}

/// Encode `target` against `source`. Also returns the work accounting used
/// by the latency cost model.
///
/// One-shot wrapper over [`encode_into`]: builds the [`SourceIndex`] and
/// arena locally. Hot paths (the page codec, the pool) reuse both instead.
pub fn encode_with_report(
    source: &[u8],
    target: &[u8],
    params: &EncodeParams,
) -> (Delta, EncodeReport) {
    let index = SourceIndex::build(source, params.block_size);
    let mut arena = BytesMut::with_capacity(target.len() / 4 + 16);
    let (range, checksum, report) = encode_into(source, target, &index, params, &mut arena);
    let payload = arena.freeze().slice(range);
    let delta = Delta {
        source_len: source.len() as u64,
        target_len: target.len() as u64,
        target_checksum: checksum,
        payload,
    };
    debug_assert_eq!(report.delta_bytes, delta.wire_len());
    (delta, report)
}

/// Encode `target` against `source` (report discarded).
pub fn encode(source: &[u8], target: &[u8], params: &EncodeParams) -> Delta {
    encode_with_report(source, target, params).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::reference::encode_with_report_reference;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(source: &[u8], target: &[u8], params: &EncodeParams) -> Delta {
        let delta = encode(source, target, params);
        assert_eq!(decode(source, &delta).unwrap(), target, "round-trip failed");
        // Every round-trip doubles as a bit-identity check vs. the oracle.
        let (reference, _) = encode_with_report_reference(source, target, params);
        assert_eq!(delta, reference, "optimized != reference");
        delta
    }

    #[test]
    fn identical_inputs_compress_to_one_copy() {
        let data = vec![42u8; 4096];
        let delta = roundtrip(&data, &data, &EncodeParams::default());
        assert!(delta.wire_len() < 64, "wire_len={}", delta.wire_len());
    }

    #[test]
    fn empty_target() {
        let delta = roundtrip(b"source", b"", &EncodeParams::default());
        assert_eq!(delta.target_len, 0);
    }

    #[test]
    fn empty_source_is_all_literal() {
        let target = vec![7u8; 1000];
        let (delta, report) = encode_with_report(&[], &target, &EncodeParams::default());
        assert_eq!(report.literal_bytes, 1000);
        assert_eq!(decode(&[], &delta).unwrap(), target);
    }

    #[test]
    fn partial_overlap_compresses_partially() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut source = vec![0u8; 4096];
        rng.fill(&mut source[..]);
        let mut target = source.clone();
        // Replace the middle 25% with new random bytes.
        let mut fresh = vec![0u8; 1024];
        rng.fill(&mut fresh[..]);
        target[1536..2560].copy_from_slice(&fresh);

        let params = EncodeParams {
            block_size: 16,
            max_probe: 8,
        };
        let (delta, report) = encode_with_report(&source, &target, &params);
        assert_eq!(decode(&source, &delta).unwrap(), target);
        // Matched at least the untouched 75% minus block-alignment slack.
        assert!(
            report.matched_bytes > 2800,
            "matched={}",
            report.matched_bytes
        );
        assert!(delta.wire_len() < 4096 / 2, "wire={}", delta.wire_len());
    }

    #[test]
    fn disjoint_random_inputs_do_not_blow_up() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut source = vec![0u8; 4096];
        let mut target = vec![0u8; 4096];
        rng.fill(&mut source[..]);
        rng.fill(&mut target[..]);
        let delta = roundtrip(&source, &target, &EncodeParams::default());
        // Incompressible: delta is roughly target size + small overhead.
        assert!(delta.wire_len() < 4096 + 256);
    }

    #[test]
    fn shifted_content_is_found() {
        // rsync's claim to fame: detect content moved to a different offset.
        let mut rng = StdRng::seed_from_u64(3);
        let mut source = vec![0u8; 8192];
        rng.fill(&mut source[..]);
        let mut target = Vec::with_capacity(8192 + 100);
        target.extend_from_slice(&[0u8; 100]); // 100-byte insertion at front
        target.extend_from_slice(&source[..8092]);
        let params = EncodeParams {
            block_size: 64,
            max_probe: 8,
        };
        let (delta, report) = encode_with_report(&source, &target, &params);
        assert_eq!(decode(&source, &delta).unwrap(), target);
        assert!(
            report.matched_bytes > 7900,
            "matched={}",
            report.matched_bytes
        );
    }

    #[test]
    fn target_smaller_than_block_is_literal() {
        let source = vec![1u8; 4096];
        let target = vec![1u8; 10];
        let (_, report) = encode_with_report(&source, &target, &EncodeParams::default());
        assert_eq!(report.literal_bytes, 10);
        roundtrip(&source, &target, &EncodeParams::default());
    }

    #[test]
    fn container_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut source = vec![0u8; 2048];
        rng.fill(&mut source[..]);
        let mut target = source.clone();
        target[100..200].fill(0xEE);
        let delta = encode(&source, &target, &EncodeParams::default());

        let bytes = delta.to_bytes();
        let parsed = Delta::from_bytes(bytes.clone()).unwrap();
        assert_eq!(parsed, delta);
        assert_eq!(decode(&source, &parsed).unwrap(), target);

        // Corruption is rejected structurally (magic, trailing bytes).
        assert!(Delta::from_bytes(Bytes::from_static(b"NOPE")).is_none());
        let mut longer = bytes.to_vec();
        longer.push(0);
        assert!(Delta::from_bytes(Bytes::from(longer)).is_none());
        let truncated = bytes.slice(0..bytes.len() - 1);
        assert!(Delta::from_bytes(truncated).is_none());
    }

    #[test]
    fn pathological_repetition_bounded_by_max_probe() {
        // All-identical blocks: thousands of weak-hash candidates.
        let source = vec![0xAA; 1 << 16];
        let target = vec![0xAA; 1 << 16];
        let params = EncodeParams {
            block_size: 16,
            max_probe: 4,
        };
        let delta = roundtrip(&source, &target, &params);
        assert!(delta.wire_len() < 1024);
    }

    #[test]
    fn common_prefix_suffix_agree_with_scalar() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let n = rng.gen_range(0..100);
            let mut a: Vec<u8> = (0..n).map(|_| rng.gen_range(0..3)).collect();
            let b: Vec<u8> = (0..n).map(|_| rng.gen_range(0..3)).collect();
            if rng.gen_bool(0.3) {
                a = b.clone(); // force full-length agreement sometimes
            }
            let scalar_pre = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
            let scalar_suf = a
                .iter()
                .rev()
                .zip(b.iter().rev())
                .take_while(|(x, y)| x == y)
                .count();
            assert_eq!(common_prefix(&a, &b), scalar_pre);
            assert_eq!(common_suffix(&a, &b), scalar_suf);
        }
        // Mixed lengths.
        assert_eq!(common_prefix(b"abcdefgh_xyz", b"abcdefgh_abc"), 9);
        assert_eq!(common_suffix(b"xyz_abcdefgh", b"abc_abcdefgh"), 9);
        assert_eq!(common_prefix(b"", b"anything"), 0);
        assert_eq!(common_suffix(b"short", b"loooooong_short"), 5);
    }

    #[test]
    fn wide_prefix_suffix_exact_at_every_alignment_offset() {
        // Pin the wide-lane paths at every alignment offset 0..32: the
        // mismatch byte must land in each position of the 32-byte lane, the
        // 16-byte lane, the 8-byte word, and the scalar tail, for lengths
        // that exercise every tail combination.
        let mut rng = StdRng::seed_from_u64(21);
        for len in [
            0usize, 1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 47, 48, 63, 64, 65, 96, 100,
        ] {
            let a: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            // Identical buffers: full-length agreement.
            assert_eq!(common_prefix(&a, &a), len);
            assert_eq!(common_suffix(&a, &a), len);
            for offset in 0..32usize.min(len) {
                // Flip exactly one byte at `offset` from the front / back.
                let mut b = a.clone();
                b[offset] ^= 0x5A;
                assert_eq!(common_prefix(&a, &b), offset, "len={len} off={offset}");
                let mut c = a.clone();
                c[len - 1 - offset] ^= 0x5A;
                assert_eq!(common_suffix(&a, &c), offset, "len={len} off={offset}");
            }
        }
        // Misaligned slice starts: the loads must be position-independent.
        let base: Vec<u8> = (0..160).map(|_| rng.gen::<u8>()).collect();
        for skew in 0..32usize {
            let a = &base[skew..skew + 64];
            let mut bv = a.to_vec();
            bv[40] ^= 1;
            assert_eq!(common_prefix(a, &bv), 40, "skew={skew}");
            assert_eq!(common_suffix(a, &bv), 64 - 41, "skew={skew}");
        }
    }

    #[test]
    fn blocks_equal_agrees_with_slice_eq() {
        let mut rng = StdRng::seed_from_u64(22);
        for len in [0usize, 1, 4, 8, 15, 16, 17, 31, 32, 33, 64, 100] {
            let a: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            assert!(blocks_equal(&a, &a));
            for off in 0..len {
                let mut b = a.clone();
                b[off] ^= 0xFF;
                assert!(!blocks_equal(&a, &b), "len={len} off={off}");
            }
        }
    }

    #[test]
    fn encode_into_reuses_arena_without_allocating_between_calls() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut source = vec![0u8; 4096];
        rng.fill(&mut source[..]);
        let mut target = source.clone();
        target[512..640].fill(0x17);

        let params = EncodeParams {
            block_size: 16,
            max_probe: 8,
        };
        let index = SourceIndex::build(&source, params.block_size);
        let mut arena = BytesMut::with_capacity(8192);

        // Two encodes into the same arena: ranges are disjoint, both decode.
        let (r1, c1, _) = encode_into(&source, &target, &index, &params, &mut arena);
        let (r2, c2, _) = encode_into(&source, &source, &index, &params, &mut arena);
        assert_eq!(r1.end, r2.start, "second payload appended after first");
        let frozen = arena.freeze();
        for (range, checksum, expect) in [(r1, c1, &target), (r2, c2, &source)] {
            let delta = Delta {
                source_len: source.len() as u64,
                target_len: expect.len() as u64,
                target_checksum: checksum,
                payload: frozen.slice(range),
            };
            assert_eq!(&decode(&source, &delta).unwrap(), expect);
        }
    }
}
