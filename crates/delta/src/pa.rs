//! **Xdelta3-PA** — the paper's page-aligned delta compressor — plus the
//! whole-file (non-aligned) mode it is compared against in Table 3.
//!
//! Page-aligned differencing encodes *each* dirty page against its own
//! previous version (a *hot page* is a dirty page that also existed in the
//! previous checkpoint, Section IV.C). Pages without a previous version —
//! or whose delta would not actually be smaller — are stored raw. Being
//! per-page is what lets AIC's predictor estimate the compression cost at
//! page granularity and lets decompression touch only the pages it needs.
//!
//! It also makes the encode shardable: [`plan_shards`] cuts the dirty set
//! into contiguous runs, [`pa_encode_shard_scratch`] encodes one run, and
//! [`pa_assemble`] concatenates the runs in order into exactly the serial
//! [`pa_encode`] output. This crate spawns no threads; the compressor pool
//! that runs shards in parallel lives in `aic_ckpt::concurrent`.

use std::ops::Range;

use bytes::{BufMut, Bytes, BytesMut};

use aic_memsim::{Page, PageIdx, Snapshot, PAGE_SIZE};

use crate::decode::{decode, DecodeError};
use crate::encode::{encode_into, encode_with_report, Delta, EncodeParams};
use crate::index::{SourceIndex, WeakSet};
use crate::rolling::RollingHash;
use crate::stats::EncodeReport;

/// Parameters for page-aligned encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaParams {
    /// Block size for per-page matching. The paper uses fine blocks so that
    /// small in-page edits are found; 16 bytes is the crate default.
    pub block_size: usize,
    /// Candidate probe bound per weak-hash bucket.
    pub max_probe: usize,
}

impl Default for PaParams {
    fn default() -> Self {
        PaParams {
            block_size: 16,
            max_probe: 8,
        }
    }
}

impl PaParams {
    fn encode_params(&self) -> EncodeParams {
        EncodeParams {
            block_size: self.block_size,
            max_probe: self.max_probe,
        }
    }
}

/// One page in a page-aligned delta file.
#[derive(Debug, Clone, PartialEq)]
pub enum PageRecord {
    /// Full page contents (new page, or delta would not shrink it).
    Raw {
        /// Virtual page number.
        idx: PageIdx,
        /// The complete page bytes.
        data: Bytes,
    },
    /// Delta against the same page in the previous checkpoint.
    Delta {
        /// Virtual page number.
        idx: PageIdx,
        /// Per-page delta.
        delta: Delta,
    },
}

impl PageRecord {
    /// The page number this record reconstructs.
    pub fn idx(&self) -> PageIdx {
        match self {
            PageRecord::Raw { idx, .. } | PageRecord::Delta { idx, .. } => *idx,
        }
    }

    /// On-the-wire size of this record.
    pub fn wire_len(&self) -> u64 {
        // 1 tag byte + 8-byte page index + payload
        match self {
            PageRecord::Raw { data, .. } => 9 + data.len() as u64,
            PageRecord::Delta { delta, .. } => 9 + delta.wire_len(),
        }
    }
}

/// A page-aligned delta file: the compressed payload of one incremental
/// checkpoint, ready for transmission to L2/L3.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PaDeltaFile {
    /// Per-page records, ascending page order.
    pub records: Vec<PageRecord>,
}

impl PaDeltaFile {
    /// Total wire size — the paper's delta size `ds`.
    pub fn wire_len(&self) -> u64 {
        8 + self.records.iter().map(PageRecord::wire_len).sum::<u64>()
    }

    /// Number of pages stored as deltas (vs raw).
    pub fn delta_page_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r, PageRecord::Delta { .. }))
            .count()
    }
}

/// Page-aligned encode: compress the `dirty` snapshot against `prev`.
///
/// *Hot* pages (present in `prev`) are delta-encoded; a delta that fails to
/// beat the raw page is discarded in favour of the raw bytes, so
/// `ds ≤ incremental checkpoint size + per-page overhead` always holds.
///
/// This serial encode and the sharded encode of a compressor pool run the
/// same per-page decisions through the one shard encoder
/// ([`pa_encode_shard_scratch`]) — here all of `dirty` as one shard, with
/// throwaway scratch — which is what makes their outputs bit-identical by
/// construction.
pub fn pa_encode(
    prev: &Snapshot,
    dirty: &Snapshot,
    params: &PaParams,
) -> (PaDeltaFile, EncodeReport) {
    let shard = Shard {
        start: 0,
        end: dirty.len(),
    };
    let mut scratch = ShardScratch::new();
    pa_assemble(std::iter::once(pa_encode_shard_scratch(
        prev,
        dirty,
        shard,
        params,
        &mut scratch,
    )))
}

/// Spread segments sampled by the match-rate probe.
pub const PROBE_SEGMENTS: usize = 3;

/// Rolled windows per probe segment. Must be at least the block size so a
/// segment covers a full block-alignment cycle: if the segment's span of
/// the target is unmodified, one of its windows necessarily lines up with
/// a source block and the probe cannot miss it.
pub const PROBE_WINDOWS: usize = 128;

/// The first-N-windows match-rate probe: roll [`PROBE_WINDOWS`] windows at
/// [`PROBE_SEGMENTS`] evenly spread starting points (first segment at the
/// start of the target, last ending at its final window) and report whether
/// *any* sampled window's weak hash occurs in the source's block set,
/// short-circuiting on the first hit.
///
/// `weaks` is the exact weak-hash set of the source's blocks, so the verdict
/// is a deterministic function of `(source, target, block_size)` alone,
/// independent of shard boundaries. That is what keeps every PA path's bail
/// decision, and therefore their output bytes, identical.
///
/// A `false` verdict means a full scan would almost certainly end in the
/// raw fallback anyway (hot pages with *any* surviving aligned content hit
/// within one alignment cycle); bailing out skips the index build and the
/// full rolling scan, which is what makes the cold path cheaper than the
/// reference encoder even on fresh (incompressible) pages.
///
/// Segments advance **breadth-first** — one window per segment per round —
/// rather than each segment rolling to exhaustion before the next starts.
/// The verdict ("does *any* probed window hit") depends only on the set of
/// probed windows, which is identical either way; the order just moves the
/// short-circuit earlier when only one segment lands in surviving content
/// (a partially rewritten page hits within one alignment cycle ≈ `bs`
/// rounds instead of after a full segment's [`PROBE_WINDOWS`] misses).
fn probe_finds_match(target: &[u8], bs: usize, weaks: &WeakSet) -> bool {
    if target.len() < bs {
        return false;
    }
    let last = target.len() - bs; // last valid window start
    let spread = last.saturating_sub(PROBE_WINDOWS - 1);
    let mut pos = [0usize; PROBE_SEGMENTS];
    let mut end = [0usize; PROBE_SEGMENTS];
    let mut rolls: [RollingHash; PROBE_SEGMENTS] = std::array::from_fn(|s| {
        let start = spread * s / (PROBE_SEGMENTS - 1);
        pos[s] = start;
        end[s] = (start + PROBE_WINDOWS - 1).min(last);
        RollingHash::new(&target[start..start + bs])
    });
    // Round 0: every segment's initial window.
    for roll in &rolls {
        if weaks.contains(roll.digest()) {
            return true;
        }
    }
    // Later rounds: each unexhausted segment rolls forward one window.
    loop {
        let mut advanced = false;
        for s in 0..PROBE_SEGMENTS {
            if pos[s] < end[s] {
                let p = pos[s];
                rolls[s].roll(target[p], target[p + bs]);
                pos[s] = p + 1;
                advanced = true;
                if weaks.contains(rolls[s].digest()) {
                    return true;
                }
            }
        }
        if !advanced {
            return false;
        }
    }
}

/// Page-aligned decode: reconstruct the dirty snapshot given the previous
/// checkpoint's pages.
pub fn pa_decode(prev: &Snapshot, file: &PaDeltaFile) -> Result<Snapshot, DecodeError> {
    let mut out = Snapshot::new();
    for rec in &file.records {
        match rec {
            PageRecord::Raw { idx, data } => {
                out.insert(*idx, Page::from_bytes(data));
            }
            PageRecord::Delta { idx, delta } => {
                let old = prev.get(*idx).ok_or(DecodeError::SourceLenMismatch {
                    expected: PAGE_SIZE as u64,
                    actual: 0,
                })?;
                let bytes = decode(old.as_slice(), delta)?;
                out.insert(*idx, Page::from_bytes(&bytes));
            }
        }
    }
    Ok(out)
}

/// A contiguous run of dirty-page positions (in snapshot iteration order)
/// compressed as one unit by a single worker.
///
/// Shards — not single pages — are the scheduling granule: a page encodes in
/// tens of microseconds, so per-page dispatch would drown the pool in channel
/// traffic. Contiguous runs also keep the reassembled record order identical
/// to [`pa_encode`]'s by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// First dirty-page position covered (inclusive).
    pub start: usize,
    /// One past the last dirty-page position covered.
    pub end: usize,
}

impl Shard {
    /// Number of pages in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard covers no pages.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Minimum pages per shard: below this, dispatch overhead beats the win
/// from overlapping compression.
pub const MIN_SHARD_PAGES: usize = 4;

/// Shards handed out per worker, for load balancing when page encode cost
/// is skewed (raw fallbacks are much cheaper than dense deltas).
pub const SHARDS_PER_WORKER: usize = 4;

/// Plan the shard decomposition of an `n_pages`-page encode across
/// `workers` workers.
///
/// Contiguous, covering, non-overlapping, sizes differing by at most one
/// page; at most `workers * SHARDS_PER_WORKER` shards and never smaller
/// than [`MIN_SHARD_PAGES`] (except when fewer pages exist in total). With
/// `workers == 1` the plan is a single shard, so a one-worker pool degrades
/// to exactly the serial encode.
pub fn plan_shards(n_pages: usize, workers: usize) -> Vec<Shard> {
    if n_pages == 0 {
        return Vec::new();
    }
    let workers = workers.max(1);
    // Capping at n/MIN keeps every shard at or above the size floor.
    let by_floor = (n_pages / MIN_SHARD_PAGES).max(1);
    let count = (workers * SHARDS_PER_WORKER).min(by_floor);
    let count = if workers == 1 { 1 } else { count };

    let base = n_pages / count;
    let extra = n_pages % count; // first `extra` shards get one more page
    let mut shards = Vec::with_capacity(count);
    let mut start = 0;
    for i in 0..count {
        let len = base + usize::from(i < extra);
        shards.push(Shard {
            start,
            end: start + len,
        });
        start += len;
    }
    debug_assert_eq!(start, n_pages);
    shards
}

/// A record whose payload range in the shard arena is known but whose
/// `Bytes` cannot exist until the arena is frozen.
struct PendingRec {
    idx: PageIdx,
    range: Range<usize>,
    /// `Some(target_checksum)` for a delta record, `None` for raw bytes.
    delta_checksum: Option<u64>,
}

/// Reusable per-worker scratch for the shard encoder: the source index and
/// the weak-hash set consulted by the match-rate probe. Pool workers hold
/// one per thread and reuse it across every shard of every job, so
/// steady-state encoding allocates nothing per page and the buffers'
/// high-water capacity is paid once per worker, not per shard.
#[derive(Debug, Default)]
pub struct ShardScratch {
    index: SourceIndex,
    weaks: WeakSet,
}

impl ShardScratch {
    /// Fresh (empty) scratch buffers.
    pub fn new() -> Self {
        ShardScratch::default()
    }
}

/// Encode one shard: the dirty pages at positions `[shard.start, shard.end)`
/// of `dirty`'s iteration order, each against its previous version in
/// `prev` — the allocation-free shard encoder behind every PA path.
///
/// Same per-page decisions as [`pa_encode`] restricted to the shard, so
/// concatenating shard outputs in shard order reproduces the serial encode
/// byte for byte (see [`pa_assemble`]).
///
/// All page payloads — delta instruction streams and raw fallbacks — are
/// emitted into **one** `BytesMut` arena, frozen once per shard; each
/// record's `Bytes` is a zero-copy slice of that arena. (The arena itself
/// cannot be recycled across shards: the delivered records keep zero-copy
/// slices of it alive, so its memory *is* the output.) Every hot page's
/// source index is rebuilt in place in the scratch index, reused across
/// pages, shards and jobs: a page's source is its previous checkpointed
/// version, which no earlier encode indexed. Steady state allocates nothing
/// per page: no per-call hash map, no `Vec<Inst>`, no literal double-copy.
///
/// Before paying for an index build or a full rolling scan, every hot page
/// runs the match-rate probe (see [`PROBE_WINDOWS`]): if none of the
/// sampled windows' weak hashes occur in the source's block set, the page
/// is stored raw immediately — same record and report as the raw fallback
/// below, but without the index-build + scan cost that made cold encodes of
/// incompressible pages slower than the reference encoder. The verdict
/// depends only on `(source, target, block_size)`, so every shard plan
/// agrees.
///
/// A delta that fails to beat the raw page is *rewound* — the arena is
/// truncated back to the record start and the raw bytes are appended
/// instead — so the failed attempt costs no memory either.
pub fn pa_encode_shard_scratch(
    prev: &Snapshot,
    dirty: &Snapshot,
    shard: Shard,
    params: &PaParams,
    scratch: &mut ShardScratch,
) -> (Vec<PageRecord>, EncodeReport) {
    let ep = params.encode_params();
    let bs = ep.block_size.max(4);
    let mut total = EncodeReport::default();
    let mut pending: Vec<PendingRec> = Vec::with_capacity(shard.len());
    let mut arena = BytesMut::with_capacity(shard.len() * (PAGE_SIZE / 4) + 64);

    for (idx, page) in dirty.iter().skip(shard.start).take(shard.len()) {
        let Some(old) = prev.get(idx) else {
            // New page: no previous version to difference against.
            let start = arena.len();
            arena.put_slice(page.as_slice());
            pending.push(PendingRec {
                idx,
                range: start..arena.len(),
                delta_checksum: None,
            });
            total.merge(&EncodeReport {
                target_bytes: PAGE_SIZE as u64,
                literal_bytes: PAGE_SIZE as u64,
                delta_bytes: PAGE_SIZE as u64,
                pages: 1,
                ..Default::default()
            });
            continue;
        };

        // The weak set costs a fraction of a full index build (no strong
        // hashes, no table), so the probe runs before the build.
        scratch.weaks.rebuild(old.as_slice(), bs);
        if !probe_finds_match(page.as_slice(), bs, &scratch.weaks) {
            // Bail: store raw without building an index or scanning. Same
            // record and report as the raw fallback below, so the only
            // observable difference is the time saved.
            let start = arena.len();
            arena.put_slice(page.as_slice());
            pending.push(PendingRec {
                idx,
                range: start..arena.len(),
                delta_checksum: None,
            });
            total.merge(&EncodeReport {
                source_bytes: PAGE_SIZE as u64,
                target_bytes: PAGE_SIZE as u64,
                literal_bytes: PAGE_SIZE as u64,
                delta_bytes: PAGE_SIZE as u64,
                pages: 1,
                ..Default::default()
            });
            continue;
        }

        // The probe above just weak-hashed every source block — hand those
        // hashes to the index build so it only pays the strong-hash and
        // table passes.
        scratch
            .index
            .rebuild_with_weaks(old.as_slice(), bs, scratch.weaks.block_weaks());
        let (range, checksum, mut report) = encode_into(
            old.as_slice(),
            page.as_slice(),
            &scratch.index,
            &ep,
            &mut arena,
        );
        if report.delta_bytes < PAGE_SIZE as u64 {
            pending.push(PendingRec {
                idx,
                range,
                delta_checksum: Some(checksum),
            });
        } else {
            // Delta did not pay off: rewind the arena over the
            // failed attempt and store the raw page (paper keeps
            // the incremental page as-is in this case).
            report.delta_bytes = PAGE_SIZE as u64;
            report.literal_bytes = PAGE_SIZE as u64;
            report.matched_bytes = 0;
            arena.truncate(range.start);
            let start = arena.len();
            arena.put_slice(page.as_slice());
            pending.push(PendingRec {
                idx,
                range: start..arena.len(),
                delta_checksum: None,
            });
        }
        total.merge(&report);
    }

    // One freeze per shard; every record shares the arena allocation.
    let frozen = arena.freeze();
    let records = pending
        .into_iter()
        .map(|rec| match rec.delta_checksum {
            Some(target_checksum) => PageRecord::Delta {
                idx: rec.idx,
                delta: Delta {
                    source_len: PAGE_SIZE as u64,
                    target_len: PAGE_SIZE as u64,
                    target_checksum,
                    payload: frozen.slice(rec.range),
                },
            },
            None => PageRecord::Raw {
                idx: rec.idx,
                data: frozen.slice(rec.range),
            },
        })
        .collect();
    (records, total)
}

/// Stand-in for the source-index cache this crate used to keep, so that
/// the frozen fleet benchmark (`fleetbench`), which still imports it with
/// [`pa_encode_cached`], builds unchanged. It caches nothing: a page's
/// source is its previous checkpointed version, which no earlier encode
/// indexed, so the cache almost never hit. Delete it, and
/// [`pa_encode_cached`], when the benchmark next changes.
#[derive(Debug, Default)]
pub struct SourceIndexCache;

impl SourceIndexCache {
    /// The stand-in (it holds nothing).
    pub fn new() -> Self {
        SourceIndexCache
    }

    /// Always 0: there is no cache to hit.
    pub fn hits(&self) -> u64 {
        0
    }

    /// Always 0: there is no cache to look up.
    pub fn misses(&self) -> u64 {
        0
    }
}

/// [`pa_encode`], under the name the frozen fleet benchmark imports; the
/// [`SourceIndexCache`] is ignored. Delete it with that type.
pub fn pa_encode_cached(
    prev: &Snapshot,
    dirty: &Snapshot,
    params: &PaParams,
    _cache: &SourceIndexCache,
) -> (PaDeltaFile, EncodeReport) {
    pa_encode(prev, dirty, params)
}

/// Reassemble shard outputs — supplied in shard order — into the final
/// delta file and report, identical to what [`pa_encode`] produces.
pub fn pa_assemble(
    parts: impl IntoIterator<Item = (Vec<PageRecord>, EncodeReport)>,
) -> (PaDeltaFile, EncodeReport) {
    let mut file = PaDeltaFile::default();
    let mut total = EncodeReport::default();
    for (records, report) in parts {
        total.merge(&report);
        file.records.extend(records);
    }
    total.delta_bytes = file.wire_len();
    (file, total)
}

/// Whole-file (non-page-aligned) delta: the stand-in for stock **Xdelta3**.
///
/// Source = concatenation of every page in `prev`; target = concatenation of
/// the dirty pages. Finds cross-page matches PA cannot, but provides no
/// per-page cost visibility — which is why the paper builds PA despite
/// comparable compression (Table 3).
pub fn full_encode(
    prev: &Snapshot,
    dirty: &Snapshot,
    params: &EncodeParams,
) -> (Delta, EncodeReport) {
    let mut source = Vec::with_capacity(prev.len() * PAGE_SIZE);
    for (_, page) in prev.iter() {
        source.extend_from_slice(page.as_slice());
    }
    let mut target = Vec::with_capacity(dirty.len() * PAGE_SIZE);
    for (_, page) in dirty.iter() {
        target.extend_from_slice(page.as_slice());
    }
    let (delta, mut report) = encode_with_report(&source, &target, params);
    report.pages = dirty.len() as u64;
    (delta, report)
}

/// Whole-file decode: reconstruct the dirty snapshot (page indices are taken
/// from `indices`, which must match the encode-time dirty set order).
pub fn full_decode(
    prev: &Snapshot,
    delta: &Delta,
    indices: &[PageIdx],
) -> Result<Snapshot, DecodeError> {
    let mut source = Vec::with_capacity(prev.len() * PAGE_SIZE);
    for (_, page) in prev.iter() {
        source.extend_from_slice(page.as_slice());
    }
    let bytes = decode(&source, delta)?;
    if bytes.len() != indices.len() * PAGE_SIZE {
        return Err(DecodeError::TargetLenMismatch {
            expected: (indices.len() * PAGE_SIZE) as u64,
            actual: bytes.len() as u64,
        });
    }
    let mut out = Snapshot::new();
    for (i, &idx) in indices.iter().enumerate() {
        out.insert(
            idx,
            Page::from_bytes(&bytes[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_page(rng: &mut StdRng) -> Page {
        let mut buf = vec![0u8; PAGE_SIZE];
        rng.fill(&mut buf[..]);
        Page::from_bytes(&buf)
    }

    fn mutated(page: &Page, from: usize, to: usize, rng: &mut StdRng) -> Page {
        let mut bytes = page.as_slice().to_vec();
        for b in &mut bytes[from..to] {
            *b = rng.gen();
        }
        Page::from_bytes(&bytes)
    }

    /// A compressor pool's encode without the threads: `plan_shards` at
    /// `workers`, every shard through `pa_encode_shard_scratch` — last
    /// shard first, as out-of-order workers may finish — and `pa_assemble`
    /// in shard order.
    fn sharded(prev: &Snapshot, dirty: &Snapshot, workers: usize) -> (PaDeltaFile, EncodeReport) {
        let mut scratch = ShardScratch::new();
        let mut parts: Vec<_> = plan_shards(dirty.len(), workers)
            .into_iter()
            .rev()
            .map(|s| pa_encode_shard_scratch(prev, dirty, s, &PaParams::default(), &mut scratch))
            .collect();
        parts.reverse();
        pa_assemble(parts)
    }

    #[test]
    fn hot_pages_are_delta_encoded() {
        let mut rng = StdRng::seed_from_u64(1);
        let p0 = random_page(&mut rng);
        let prev = Snapshot::from_pages([(0, p0.clone())]);
        let p0_new = mutated(&p0, 0, 256, &mut rng); // 6% changed
        let dirty = Snapshot::from_pages([(0, p0_new.clone())]);

        let (file, report) = pa_encode(&prev, &dirty, &PaParams::default());
        assert_eq!(file.delta_page_count(), 1);
        assert!(report.delta_bytes < PAGE_SIZE as u64 / 2);
        let restored = pa_decode(&prev, &file).unwrap();
        assert_eq!(restored.get(0).unwrap(), &p0_new);
    }

    #[test]
    fn new_pages_are_stored_raw() {
        let mut rng = StdRng::seed_from_u64(2);
        let prev = Snapshot::new();
        let dirty = Snapshot::from_pages([(5, random_page(&mut rng))]);
        let (file, report) = pa_encode(&prev, &dirty, &PaParams::default());
        assert_eq!(file.delta_page_count(), 0);
        assert_eq!(report.literal_bytes, PAGE_SIZE as u64);
        let restored = pa_decode(&prev, &file).unwrap();
        assert_eq!(restored, dirty);
    }

    #[test]
    fn incompressible_page_falls_back_to_raw() {
        let mut rng = StdRng::seed_from_u64(3);
        let old = random_page(&mut rng);
        let new = random_page(&mut rng); // completely unrelated
        let prev = Snapshot::from_pages([(0, old)]);
        let dirty = Snapshot::from_pages([(0, new.clone())]);
        let (file, _) = pa_encode(&prev, &dirty, &PaParams::default());
        assert_eq!(file.delta_page_count(), 0);
        assert!(file.wire_len() <= PAGE_SIZE as u64 + 32);
        assert_eq!(pa_decode(&prev, &file).unwrap().get(0).unwrap(), &new);
    }

    #[test]
    fn mixed_file_roundtrips() {
        let mut rng = StdRng::seed_from_u64(4);
        let pages: Vec<Page> = (0..8).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        dirty.insert(0, mutated(&pages[0], 0, 64, &mut rng)); // hot, small edit
        dirty.insert(3, random_page(&mut rng)); // hot, full rewrite
        dirty.insert(100, random_page(&mut rng)); // new page
        let (file, _) = pa_encode(&prev, &dirty, &PaParams::default());
        assert_eq!(pa_decode(&prev, &file).unwrap(), dirty);
    }

    #[test]
    fn identical_page_shrinks_to_almost_nothing() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = random_page(&mut rng);
        let prev = Snapshot::from_pages([(0, p.clone())]);
        let dirty = Snapshot::from_pages([(0, p)]);
        let (file, report) = pa_encode(&prev, &dirty, &PaParams::default());
        assert!(file.wire_len() < 64, "wire={}", file.wire_len());
        assert!(report.ratio() < 0.02);
    }

    #[test]
    fn full_encode_roundtrips() {
        let mut rng = StdRng::seed_from_u64(6);
        let pages: Vec<Page> = (0..6).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        dirty.insert(1, mutated(&pages[1], 100, 300, &mut rng));
        dirty.insert(4, mutated(&pages[4], 0, 50, &mut rng));
        let (delta, report) = full_encode(&prev, &dirty, &EncodeParams::default());
        assert!(report.matched_bytes > 0);
        let indices: Vec<_> = dirty.indices().collect();
        let restored = full_decode(&prev, &delta, &indices).unwrap();
        assert_eq!(restored, dirty);
    }

    #[test]
    fn full_encode_finds_cross_page_duplication() {
        // A page whose content equals a *different* page of prev: PA cannot
        // compress it (indexes differ) but the whole-file codec can.
        let mut rng = StdRng::seed_from_u64(7);
        let p = random_page(&mut rng);
        let prev = Snapshot::from_pages([(0, p.clone())]);
        let dirty = Snapshot::from_pages([(9, p.clone())]); // same bytes, new index
        let (pa_file, _) = pa_encode(&prev, &dirty, &PaParams::default());
        let (full, _) = full_encode(&prev, &dirty, &EncodeParams::default());
        assert!(full.wire_len() < 64);
        assert!(pa_file.wire_len() >= PAGE_SIZE as u64);
    }

    #[test]
    fn sharded_encode_is_bit_identical_to_serial_across_widths() {
        let mut rng = StdRng::seed_from_u64(44);
        let pages: Vec<Page> = (0..32).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        for i in (0..32).step_by(3) {
            dirty.insert(i as u64, mutated(&pages[i], 0, 200 + i * 10, &mut rng));
        }
        dirty.insert(100, random_page(&mut rng)); // fresh page

        let (serial, serial_report) = pa_encode(&prev, &dirty, &PaParams::default());
        for workers in [1, 2, 4, 8] {
            assert_eq!(
                plan_shards(dirty.len(), workers).len() > 1,
                workers > 1,
                "workers={workers}"
            );
            let (file, report) = sharded(&prev, &dirty, workers);
            assert_eq!(serial, file, "workers={workers}");
            assert_eq!(serial_report, report, "workers={workers}");
            assert_eq!(pa_decode(&prev, &file).unwrap(), dirty);
        }
    }

    #[test]
    fn shard_plan_is_contiguous_covering_and_balanced() {
        for n_pages in [0usize, 1, 3, 4, 5, 17, 64, 257, 1000] {
            for workers in [1usize, 2, 3, 4, 8, 64] {
                let shards = plan_shards(n_pages, workers);
                if n_pages == 0 {
                    assert!(shards.is_empty());
                    continue;
                }
                // Contiguous cover of [0, n_pages).
                assert_eq!(shards[0].start, 0);
                assert_eq!(shards.last().unwrap().end, n_pages);
                for w in shards.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                // Balanced: sizes differ by at most one page.
                let min = shards.iter().map(Shard::len).min().unwrap();
                let max = shards.iter().map(Shard::len).max().unwrap();
                assert!(
                    max - min <= 1,
                    "n={n_pages} w={workers} min={min} max={max}"
                );
                // Bounded fan-out and shard-size floor.
                assert!(shards.len() <= workers * SHARDS_PER_WORKER);
                if shards.len() > 1 {
                    assert!(min >= MIN_SHARD_PAGES.min(n_pages));
                }
            }
        }
    }

    #[test]
    fn single_worker_plan_is_one_shard() {
        // N=1 must reproduce the serial path exactly: one shard, no split.
        let shards = plan_shards(1000, 1);
        assert_eq!(
            shards,
            vec![Shard {
                start: 0,
                end: 1000
            }]
        );
    }

    #[test]
    fn raw_fallback_rewind_keeps_neighbouring_records_intact() {
        // A shard mixing [compressible, incompressible, compressible] pages
        // exercises the arena truncate-and-append rewind between records.
        let mut rng = StdRng::seed_from_u64(64);
        let pages: Vec<Page> = (0..3).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        dirty.insert(0, mutated(&pages[0], 0, 64, &mut rng));
        dirty.insert(1, random_page(&mut rng)); // unrelated: raw fallback
        dirty.insert(2, mutated(&pages[2], 2000, 2100, &mut rng));

        let shard = Shard { start: 0, end: 3 };
        let (records, report) = pa_encode_shard_scratch(
            &prev,
            &dirty,
            shard,
            &PaParams::default(),
            &mut ShardScratch::new(),
        );
        assert!(matches!(records[0], PageRecord::Delta { .. }));
        assert!(matches!(records[1], PageRecord::Raw { .. }));
        assert!(matches!(records[2], PageRecord::Delta { .. }));
        let (expect_records, expect_report) = pa_encode(&prev, &dirty, &PaParams::default());
        let (file, _) = pa_assemble(std::iter::once((records, report)));
        assert_eq!(file, expect_records);
        assert_eq!(
            {
                let mut r = report;
                r.delta_bytes = file.wire_len();
                r
            },
            expect_report
        );
        assert_eq!(pa_decode(&prev, &file).unwrap(), dirty);
    }

    #[test]
    fn probe_bail_stores_raw_without_building_index() {
        // An incompressible hot page must be stored raw WITHOUT the scratch
        // index ever being built: the match-rate probe bails before the
        // build, which is the whole cold-path fix.
        let mut rng = StdRng::seed_from_u64(70);
        let old = random_page(&mut rng);
        let new = random_page(&mut rng); // unrelated content: zero matches
        let prev = Snapshot::from_pages([(0, old)]);
        let dirty = Snapshot::from_pages([(0, new.clone())]);

        let mut scratch = ShardScratch::new();
        let shard = Shard { start: 0, end: 1 };
        let part =
            pa_encode_shard_scratch(&prev, &dirty, shard, &PaParams::default(), &mut scratch);
        assert_eq!(
            scratch.index.block_size(),
            0,
            "bail must skip the index build"
        );
        let (file, report) = pa_assemble(std::iter::once(part));
        assert_eq!(file.delta_page_count(), 0);
        assert_eq!(report.matched_bytes, 0);
        assert_eq!(report.source_bytes, PAGE_SIZE as u64, "hot page, not new");
        assert_eq!(pa_decode(&prev, &file).unwrap().get(0).unwrap(), &new);
    }

    #[test]
    fn probe_bail_is_identical_across_every_encode_path() {
        // The bail verdict is a pure function of (source, target,
        // block_size), so serial and sharded at any width must produce the
        // same bytes AND the same report for a bailing mix.
        let mut rng = StdRng::seed_from_u64(71);
        let pages: Vec<Page> = (0..20).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        for (i, page) in pages.iter().enumerate() {
            let p = match i % 3 {
                0 => random_page(&mut rng),           // bails (no matches)
                1 => mutated(page, 0, 256, &mut rng), // compresses
                _ => page.clone(),                    // compresses to nothing
            };
            dirty.insert(i as u64, p);
        }

        let (serial, serial_report) = pa_encode(&prev, &dirty, &PaParams::default());
        for workers in [1, 2, 4, 8] {
            let (file, report) = sharded(&prev, &dirty, workers);
            assert_eq!(serial, file, "workers={workers}");
            assert_eq!(serial_report, report, "workers={workers}");
        }
        assert_eq!(pa_decode(&prev, &serial).unwrap(), dirty);
    }

    #[test]
    fn cache_adapter_is_pa_encode_and_never_hits() {
        // The stand-in kept for the fleet benchmark: its output is the
        // serial encode's, and encoding the same (page, source) pair twice
        // still counts no lookup, because there is no cache behind it.
        let mut rng = StdRng::seed_from_u64(60);
        let pages: Vec<Page> = (0..12).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        for (i, page) in pages.iter().enumerate() {
            dirty.insert(i as u64, mutated(page, 0, 64 + i * 13, &mut rng));
        }
        dirty.insert(50, random_page(&mut rng)); // new page

        let expect = pa_encode(&prev, &dirty, &PaParams::default());
        let cache = SourceIndexCache::new();
        for _ in 0..2 {
            let got = pa_encode_cached(&prev, &dirty, &PaParams::default(), &cache);
            assert_eq!(got, expect);
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn pa_decode_missing_source_page_errors() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = random_page(&mut rng);
        let prev = Snapshot::from_pages([(0, p.clone())]);
        let dirty = Snapshot::from_pages([(0, mutated(&p, 0, 10, &mut rng))]);
        let (file, _) = pa_encode(&prev, &dirty, &PaParams::default());
        let empty = Snapshot::new();
        assert!(pa_decode(&empty, &file).is_err());
    }
}
