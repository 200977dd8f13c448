//! Content-addressed dedup chunk store, layered on [`crate::log`].
//!
//! At fleet scale most ranks and tenants dirty near-identical pages (same
//! binaries, shared datasets), yet without dedup every rank encodes, ships
//! and stores its own copy. This module makes identical page versions
//! **stored once, shipped once**:
//!
//! * Checkpoint payloads are split at the page-granular spans
//!   [`crate::format::CheckpointFile::to_bytes_with_page_spans`] reports —
//!   the runs of verbatim page bytes inside the serialized file. Each span
//!   is addressed by its widened word-parallel [`wide_filter`] digest.
//! * A span whose digest is already live in the level's log is **not
//!   re-appended**: the record becomes a *reference frame* (`"AIDD"`)
//!   naming the existing chunk record by log sequence number, and the
//!   chunk's refcount rises. A span seen for the first time is appended
//!   once as a [`CheckpointKind::Chunk`] record and referenced thereafter.
//!
//! [`CheckpointKind::Chunk`]: crate::format::CheckpointKind::Chunk
//! * Refcounts ride the log's existing liveness machinery: when the last
//!   referencing record is truncated, the chunk record is marked dead and
//!   reclaimed by the same compaction + epoch protocol as any other
//!   record, so pinned recovery readers never observe a chunk freed under
//!   them.
//!
//! **Collision safety.** The 128-bit digest only narrows the search; a
//! hash hit must *byte-verify* against the stored chunk before reuse —
//! exact equality decides. A digest hit whose bytes differ is counted as a verify
//! failure and the span stays inline in the frame's residual (first
//! content keeps the hash slot; conservative and correct).
//!
//! The in-memory map (digest → chunk seq, refcount, verify copy) is an
//! acceleration structure, not the durable truth: reference frames name
//! chunks by log seq, so resolution ([`Frame::decode`] + log reads) needs
//! no map at all — a reopened or repopulated level can always reassemble
//! its records. The verify copies are cheap `Bytes` slices of the commit
//! payloads (refcounted views, not copies).

use std::collections::HashMap;

use bytes::{BufMut, Bytes, BytesMut};

use aic_delta::inst::{get_varint, put_varint};
use aic_delta::strong::wide_filter;
use aic_memsim::PAGE_SIZE;

/// Chunk records occupy a disjoint sequence-number space above every
/// checkpoint sequence, so chain truncations (which walk committed
/// checkpoint seqs) can never collect a chunk by accident — only
/// [`LevelDedup::forget_record`] kills chunks, when their refcount drains.
pub const CHUNK_SEQ_BASE: u64 = 1 << 63;

/// Reference-frame magic: "AIDD".
const FRAME_MAGIC: [u8; 4] = *b"AIDD";

/// Cumulative dedup statistics for one level (the `aicctl dedup` surface).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Spans that byte-verified against a live chunk and became references.
    pub hits: u64,
    /// Spans stored as new chunks (first sight of that content).
    pub misses: u64,
    /// Digest hits whose bytes differed — reuse rejected by the backstop.
    pub verify_failures: u64,
    /// Chunks reclaimed because their last reference was truncated.
    pub reclaims: u64,
    /// Payload bytes not re-stored thanks to hits (net of frame overhead).
    pub stored_bytes_saved: u64,
    /// Chunks currently live (refcount > 0).
    pub live_chunks: u64,
    /// Bytes held by live chunks.
    pub live_chunk_bytes: u64,
}

/// One live chunk: where it lives in the log, how many record references
/// keep it alive, and the verify copy the collision backstop compares
/// against.
#[derive(Debug)]
struct ChunkEntry {
    seq: u64,
    refs: u64,
    bytes: Bytes,
}

/// What [`LevelDedup::install`] produced for one record.
#[derive(Debug)]
pub struct InstallOutcome {
    /// The bytes to append at the record's own sequence number: a
    /// reference frame when any span deduplicated, or the original
    /// payload unchanged when there was nothing to split.
    pub payload: Bytes,
    /// Chunk records to append (kind [`CheckpointKind::Chunk`], at these
    /// seqs) **before** the frame record, so a log scan never sees a
    /// dangling reference.
    ///
    /// [`CheckpointKind::Chunk`]: crate::format::CheckpointKind::Chunk
    pub new_chunks: Vec<(u64, Bytes)>,
    /// Spans that became references to pre-existing chunks.
    pub hits: u64,
    /// Spans stored as new chunks.
    pub misses: u64,
    /// Digest collisions rejected by the byte-verify backstop.
    pub verify_failures: u64,
    /// Payload bytes the level did not have to store again
    /// (original payload length minus frame + new chunk bytes; zero when
    /// the frame overhead outweighed the hits).
    pub stored_saved: u64,
}

/// Per-level content-addressed chunk store.
///
/// One instance fronts one [`crate::log::CheckpointLog`]; the caller owns
/// the log and performs the appends/mark-deads this store prescribes, so
/// the store itself never touches bandwidth models or segments.
#[derive(Debug, Default)]
pub struct LevelDedup {
    chunks: HashMap<u128, ChunkEntry>,
    /// Record seq → digests it references (duplicates allowed: a record
    /// referencing one chunk twice holds two refs).
    by_record: HashMap<u64, Vec<u128>>,
    next_chunk: u64,
    stats: DedupStats,
}

impl LevelDedup {
    /// An empty store.
    pub fn new() -> Self {
        LevelDedup {
            next_chunk: CHUNK_SEQ_BASE,
            ..Default::default()
        }
    }

    /// Split `payload` at `spans` (ascending, non-overlapping byte offsets
    /// of `PAGE_SIZE`-long page runs, as
    /// [`to_bytes_with_page_spans`](crate::format::CheckpointFile::to_bytes_with_page_spans)
    /// reports them) and fold it into the store under `record_seq`.
    pub fn install(&mut self, record_seq: u64, payload: &Bytes, spans: &[usize]) -> InstallOutcome {
        debug_assert!(
            spans.windows(2).all(|w| w[0] + PAGE_SIZE <= w[1]),
            "spans must be ascending and non-overlapping"
        );
        debug_assert!(spans.iter().all(|&s| s + PAGE_SIZE <= payload.len()));
        if spans.is_empty() {
            return InstallOutcome {
                payload: payload.clone(),
                new_chunks: Vec::new(),
                hits: 0,
                misses: 0,
                verify_failures: 0,
                stored_saved: 0,
            };
        }

        let mut refs: Vec<(usize, u64)> = Vec::with_capacity(spans.len());
        let mut digests: Vec<u128> = Vec::with_capacity(spans.len());
        let mut new_chunks: Vec<(u64, Bytes)> = Vec::new();
        let (mut hits, mut misses, mut verify_failures) = (0u64, 0u64, 0u64);

        for &off in spans {
            let page = payload.slice(off..off + PAGE_SIZE);
            let digest = wide_filter(&page);
            match self.chunks.get_mut(&digest) {
                Some(e) if e.bytes == page => {
                    e.refs += 1;
                    refs.push((off, e.seq));
                    digests.push(digest);
                    hits += 1;
                }
                Some(_) => {
                    // Digest collision with different bytes: the backstop
                    // rejects reuse and the span stays inline.
                    verify_failures += 1;
                }
                None => {
                    let seq = self.next_chunk;
                    self.next_chunk += 1;
                    self.chunks.insert(
                        digest,
                        ChunkEntry {
                            seq,
                            refs: 1,
                            bytes: page.clone(),
                        },
                    );
                    new_chunks.push((seq, page));
                    refs.push((off, seq));
                    digests.push(digest);
                    misses += 1;
                }
            }
        }

        let outcome = if refs.is_empty() {
            // Every span collided — nothing to reference, keep the payload.
            InstallOutcome {
                payload: payload.clone(),
                new_chunks,
                hits,
                misses,
                verify_failures,
                stored_saved: 0,
            }
        } else {
            self.by_record.insert(record_seq, digests);
            let frame = encode_frame(payload, &refs);
            let appended: u64 =
                frame.len() as u64 + new_chunks.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
            InstallOutcome {
                payload: frame,
                new_chunks,
                hits,
                misses,
                verify_failures,
                stored_saved: (payload.len() as u64).saturating_sub(appended),
            }
        };

        self.stats.hits += hits;
        self.stats.misses += misses;
        self.stats.verify_failures += verify_failures;
        self.stats.stored_bytes_saved += outcome.stored_saved;
        outcome
    }

    /// Wire-byte estimate of what [`LevelDedup::install`] would append for
    /// this payload *against the store's current contents*, without
    /// mutating anything — what a write-behind commit quotes the transport
    /// before the drain's eventual ack installs for real. Between quote
    /// and ack other acks may install overlapping chunks, so the actual
    /// appended bytes can only be smaller; the quote is a conservative
    /// overcount.
    pub fn quote(&self, payload: &Bytes, spans: &[usize]) -> u64 {
        if spans.is_empty() {
            return payload.len() as u64;
        }
        let mut seen: Vec<u128> = Vec::new();
        let mut refs = 0usize;
        let mut new_bytes = 0u64;
        for &off in spans {
            let page = &payload[off..off + PAGE_SIZE];
            let digest = wide_filter(page);
            match self.chunks.get(&digest) {
                Some(e) if &e.bytes[..] == page => refs += 1,
                Some(_) => continue, // collision: stays inline
                None => {
                    if !seen.contains(&digest) {
                        seen.push(digest);
                        new_bytes += PAGE_SIZE as u64;
                    }
                    refs += 1;
                }
            }
        }
        if refs == 0 {
            return payload.len() as u64;
        }
        // Frame: magic + total_len + span count + per-span varint pair
        // (≤ 10 bytes each) + residual.
        let residual = payload.len() - refs * PAGE_SIZE;
        let frame = 4 + varint_len(payload.len() as u64) + varint_len(refs as u64) + 20 * refs;
        (frame + residual) as u64 + new_bytes
    }

    /// Is this page's exact content live in the store? The encoder-side
    /// probe: a `true` answer means a commit of this page will become a
    /// reference, so encoding it is wasted work. Byte-verified, never
    /// probabilistic.
    pub fn contains_page(&self, page: &[u8]) -> bool {
        self.contains_page_hashed(wide_filter(page), page)
    }

    /// [`LevelDedup::contains_page`] with the digest already computed —
    /// lets a caller probing several levels hash the page once.
    pub fn contains_page_hashed(&self, digest: u128, page: &[u8]) -> bool {
        self.chunks
            .get(&digest)
            .is_some_and(|e| &e.bytes[..] == page)
    }

    /// Drop `record_seq`'s references. Returns the log sequence numbers of
    /// chunks whose refcount drained to zero — the caller must mark those
    /// records dead so compaction reclaims them.
    pub fn forget_record(&mut self, record_seq: u64) -> Vec<u64> {
        let Some(digests) = self.by_record.remove(&record_seq) else {
            return Vec::new();
        };
        let mut dead = Vec::new();
        for d in digests {
            if let Some(e) = self.chunks.get_mut(&d) {
                e.refs -= 1;
                if e.refs == 0 {
                    dead.push(e.seq);
                    self.chunks.remove(&d);
                    self.stats.reclaims += 1;
                }
            }
        }
        dead
    }

    /// Cumulative statistics, with the live-chunk gauges refreshed.
    pub fn stats(&self) -> DedupStats {
        let mut s = self.stats;
        s.live_chunks = self.chunks.len() as u64;
        s.live_chunk_bytes = self.chunks.values().map(|e| e.bytes.len() as u64).sum();
        s
    }

    /// Number of live (referenced) chunks.
    pub fn live_chunks(&self) -> usize {
        self.chunks.len()
    }
}

/// Errors decoding or resolving a reference frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Not a frame, or a structurally invalid one.
    Malformed,
    /// A referenced chunk record was missing from the log.
    ChunkMissing(u64),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Malformed => write!(f, "malformed dedup reference frame"),
            FrameError::ChunkMissing(seq) => {
                write!(f, "dedup frame references missing chunk record {seq}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Does this record body carry a reference frame (vs a plain payload)?
/// Plain payloads start with "AICK", frames with "AIDD" — the checkpoint
/// magic makes the discrimination unambiguous.
pub fn is_frame(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[0..4] == FRAME_MAGIC
}

/// A decoded reference frame: which chunk fills each span, and the
/// residual (non-deduplicated) bytes in between.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Length of the reconstructed payload.
    pub total_len: usize,
    /// `(offset, chunk_seq)` per span, ascending offsets, each span
    /// exactly [`PAGE_SIZE`] bytes.
    pub spans: Vec<(usize, u64)>,
    /// Payload bytes outside the spans, in order.
    pub residual: Bytes,
}

/// Serialize a frame: `"AIDD" | total_len | n | n×(gap, seq−BASE) |
/// residual`, all varints, span offsets delta-encoded as the gap since the
/// previous span's end.
fn encode_frame(payload: &Bytes, refs: &[(usize, u64)]) -> Bytes {
    let mut out = BytesMut::with_capacity(payload.len() - refs.len() * PAGE_SIZE + 16 * refs.len());
    out.put_slice(&FRAME_MAGIC);
    put_varint(&mut out, payload.len() as u64);
    put_varint(&mut out, refs.len() as u64);
    let mut prev_end = 0usize;
    for &(off, seq) in refs {
        put_varint(&mut out, (off - prev_end) as u64);
        put_varint(&mut out, seq - CHUNK_SEQ_BASE);
        prev_end = off + PAGE_SIZE;
    }
    prev_end = 0;
    for &(off, _) in refs {
        out.put_slice(&payload[prev_end..off]);
        prev_end = off + PAGE_SIZE;
    }
    out.put_slice(&payload[prev_end..]);
    out.freeze()
}

impl Frame {
    /// Parse a serialized frame.
    pub fn decode(bytes: &Bytes) -> Result<Frame, FrameError> {
        if !is_frame(bytes) {
            return Err(FrameError::Malformed);
        }
        let mut buf = bytes.slice(4..);
        let total_len = get_varint(&mut buf).ok_or(FrameError::Malformed)? as usize;
        let n = get_varint(&mut buf).ok_or(FrameError::Malformed)? as usize;
        if n * PAGE_SIZE > total_len {
            return Err(FrameError::Malformed);
        }
        let mut spans = Vec::with_capacity(n);
        let mut prev_end = 0usize;
        for _ in 0..n {
            let gap = get_varint(&mut buf).ok_or(FrameError::Malformed)? as usize;
            let seq_rel = get_varint(&mut buf).ok_or(FrameError::Malformed)?;
            let off = prev_end + gap;
            if off + PAGE_SIZE > total_len {
                return Err(FrameError::Malformed);
            }
            spans.push((off, CHUNK_SEQ_BASE + seq_rel));
            prev_end = off + PAGE_SIZE;
        }
        let residual = buf;
        if residual.len() != total_len - n * PAGE_SIZE {
            return Err(FrameError::Malformed);
        }
        Ok(Frame {
            total_len,
            spans,
            residual,
        })
    }

    /// Reassemble the original payload given each span's chunk bytes (in
    /// span order, each exactly [`PAGE_SIZE`] long).
    pub fn reassemble(&self, chunks: &[Bytes]) -> Result<Bytes, FrameError> {
        if chunks.len() != self.spans.len() || chunks.iter().any(|c| c.len() != PAGE_SIZE) {
            return Err(FrameError::Malformed);
        }
        let mut out = BytesMut::with_capacity(self.total_len);
        let mut res = 0usize;
        for ((off, _), chunk) in self.spans.iter().zip(chunks) {
            let lead = off - out.len();
            out.put_slice(&self.residual[res..res + lead]);
            res += lead;
            out.put_slice(chunk);
        }
        out.put_slice(&self.residual[res..]);
        if out.len() != self.total_len {
            return Err(FrameError::Malformed);
        }
        Ok(out.freeze())
    }
}

/// Serialized length of one varint.
fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn page_bytes(seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = vec![0u8; PAGE_SIZE];
        rng.fill(&mut b[..]);
        b
    }

    /// A fake payload: header junk, then pages at recorded spans, then a
    /// trailer.
    fn payload_with_pages(seeds: &[u64]) -> (Bytes, Vec<usize>) {
        let mut out = BytesMut::new();
        out.put_slice(b"AICKheaderjunk");
        let mut spans = Vec::new();
        for (i, &s) in seeds.iter().enumerate() {
            out.put_slice(format!("sep{i}").as_bytes());
            spans.push(out.len());
            out.put_slice(&page_bytes(s));
        }
        out.put_slice(b"trailer");
        (out.freeze(), spans)
    }

    #[test]
    fn first_sight_chunks_second_sight_references() {
        let mut d = LevelDedup::new();
        let (p1, s1) = payload_with_pages(&[1, 2]);
        let o1 = d.install(10, &p1, &s1);
        assert_eq!((o1.hits, o1.misses), (0, 2));
        assert_eq!(o1.new_chunks.len(), 2);
        assert!(is_frame(&o1.payload));

        // Same content again, different record: all hits, no new chunks.
        let (p2, s2) = payload_with_pages(&[1, 2]);
        let o2 = d.install(11, &p2, &s2);
        assert_eq!((o2.hits, o2.misses), (2, 0));
        assert!(o2.new_chunks.is_empty());
        assert!(o2.stored_saved > 2 * (PAGE_SIZE as u64) - 100);
        assert_eq!(d.live_chunks(), 2);
    }

    #[test]
    fn frame_roundtrips_through_chunk_resolution() {
        let mut d = LevelDedup::new();
        let (p1, s1) = payload_with_pages(&[3, 4, 3]); // duplicate inside one record
        let o1 = d.install(20, &p1, &s1);
        // The duplicated page is one chunk referenced twice.
        assert_eq!(o1.new_chunks.len(), 2);
        assert_eq!((o1.hits, o1.misses), (1, 2));

        let chunk_map: HashMap<u64, Bytes> = o1.new_chunks.iter().cloned().collect();
        let frame = Frame::decode(&o1.payload).unwrap();
        assert_eq!(frame.total_len, p1.len());
        let chunks: Vec<Bytes> = frame
            .spans
            .iter()
            .map(|&(_, seq)| chunk_map.get(&seq).unwrap().clone())
            .collect();
        assert_eq!(frame.reassemble(&chunks).unwrap(), p1);
    }

    #[test]
    fn empty_spans_pass_payload_through_unframed() {
        let mut d = LevelDedup::new();
        let payload = Bytes::from_static(b"AICK just a tiny record");
        let o = d.install(1, &payload, &[]);
        assert_eq!(o.payload, payload);
        assert!(!is_frame(&o.payload));
        assert!(o.new_chunks.is_empty());
        assert_eq!(d.live_chunks(), 0);
    }

    #[test]
    fn forget_record_reclaims_only_when_last_reference_drops() {
        let mut d = LevelDedup::new();
        let (p1, s1) = payload_with_pages(&[5]);
        let (p2, s2) = payload_with_pages(&[5]);
        let o1 = d.install(30, &p1, &s1);
        let chunk_seq = o1.new_chunks[0].0;
        d.install(31, &p2, &s2);

        assert!(d.forget_record(30).is_empty(), "record 31 still references");
        assert_eq!(d.live_chunks(), 1);
        assert_eq!(d.forget_record(31), vec![chunk_seq]);
        assert_eq!(d.live_chunks(), 0);
        assert_eq!(d.stats().reclaims, 1);
        // Idempotent: forgetting again is a no-op.
        assert!(d.forget_record(31).is_empty());
    }

    #[test]
    fn quote_matches_install_appended_bytes() {
        let mut d = LevelDedup::new();
        let (p0, s0) = payload_with_pages(&[7, 8]);
        d.install(40, &p0, &s0);

        // Mixed: one known page, one new.
        let (p1, s1) = payload_with_pages(&[7, 9]);
        let quoted = d.quote(&p1, &s1);
        let o1 = d.install(41, &p1, &s1);
        let actual = o1.payload.len() as u64
            + o1.new_chunks
                .iter()
                .map(|(_, b)| b.len() as u64)
                .sum::<u64>();
        assert!(quoted >= actual, "quote {quoted} under actual {actual}");
        // The quote's slack is only the worst-case varint padding.
        assert!(quoted - actual <= 20 * s1.len() as u64);
        // And both are far below the raw payload at 50% overlap.
        assert!(actual < p1.len() as u64);
    }

    #[test]
    fn contains_page_is_byte_verified_membership() {
        let mut d = LevelDedup::new();
        let (p, s) = payload_with_pages(&[11]);
        d.install(50, &p, &s);
        assert!(d.contains_page(&page_bytes(11)));
        assert!(!d.contains_page(&page_bytes(12)));
    }

    #[test]
    fn frame_decode_rejects_garbage() {
        assert_eq!(
            Frame::decode(&Bytes::from_static(b"AICK....")),
            Err(FrameError::Malformed)
        );
        assert_eq!(
            Frame::decode(&Bytes::from_static(b"AIDD")),
            Err(FrameError::Malformed)
        );
        // Span past total_len.
        let mut bad = BytesMut::new();
        bad.put_slice(b"AIDD");
        put_varint(&mut bad, 10); // total_len far below PAGE_SIZE
        put_varint(&mut bad, 1);
        put_varint(&mut bad, 0);
        put_varint(&mut bad, 0);
        assert_eq!(Frame::decode(&bad.freeze()), Err(FrameError::Malformed));
    }

    #[test]
    fn byte_verify_backstop_rejects_a_seeded_digest_collision() {
        // `wide_filter` collisions cannot be synthesized on demand, so seed
        // one: poison the digest slot a page would land in with a chunk
        // holding *different* bytes — exactly what a weak-collision pair
        // would look like to the store. Every reuse path must reject it.
        let mut d = LevelDedup::new();
        let victim = Bytes::from(page_bytes(77));
        let imposter = Bytes::from(page_bytes(78));
        let digest = wide_filter(&victim);
        d.chunks.insert(
            digest,
            ChunkEntry {
                seq: CHUNK_SEQ_BASE,
                refs: 1,
                bytes: imposter.clone(),
            },
        );

        // The membership probe must not claim the victim page is stored.
        assert!(!d.contains_page(&victim));
        assert!(!d.contains_page_hashed(digest, &victim));

        // The quote must price the colliding span as inline payload, and
        // install must keep it in the residual rather than reference the
        // imposter chunk.
        let (p, s) = payload_with_pages(&[77]);
        assert_eq!(d.quote(&p, &s), p.len() as u64);
        let o = d.install(70, &p, &s);
        assert_eq!(o.verify_failures, 1);
        assert_eq!((o.hits, o.misses), (0, 0));
        assert!(o.new_chunks.is_empty(), "collision must not mint a chunk");
        assert_eq!(o.payload, p, "colliding span must stay inline");
        assert_eq!(d.stats().verify_failures, 1);

        // The slot's actual occupant still byte-verifies — the backstop
        // rejects the mismatched pairing, not the slot.
        assert!(d.contains_page_hashed(digest, &imposter));
    }
}
