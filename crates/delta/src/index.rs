//! Flat, open-addressed index over the source's fixed-size blocks.
//!
//! The encoder's first step is a lookup table from the weak rolling hash of
//! every `block_size`-aligned source block to the offsets where that hash
//! occurs. The original implementation used `HashMap<u32, Vec<usize>>` —
//! one heap `Vec` per distinct hash, rebuilt from scratch on every page of
//! every interval. [`SourceIndex`] replaces it with four flat arrays:
//!
//! * `strongs` — the [`block_filter`] digest of each block, by block
//!   number, so match confirmation is a single `u64` compare instead of
//!   re-hashing the source block on every probe. The filter digest is
//!   internal (never serialized): matches are *decided* by the byte
//!   compare, the digest only rejects weak collisions early, so it uses
//!   the word-parallel filter hash rather than byte-serial FNV — the
//!   strong pass was the dominant cost of a cold index build;
//! * `entries` — block numbers grouped by weak hash (a CSR payload array),
//!   ascending within each group, which preserves the original candidate
//!   probe order exactly (insertion order was ascending offset);
//! * `slots` — an open-addressed, linearly-probed table (≤ 50% load,
//!   power-of-two capacity) mapping a weak hash to its group's range in
//!   `entries`;
//! * `present` — a 16-Kbit presence filter over the weak hashes, checked
//!   before `slots`, so a window with no candidates (almost every window
//!   of rewritten content) costs one bit test instead of a slot probe.
//!
//! An index depends only on the source bytes and the block size.
//! [`SourceIndex::rebuild`] reuses the internal buffers, so the page-aligned
//! encoder in [`crate::pa`], which recycles one `SourceIndex` across pages,
//! allocates nothing in steady state.

use crate::rolling::RollingHash;
use crate::strong::block_filter;

/// One open-addressed slot: a weak hash and its group's range in `entries`.
/// `len == 0` marks an empty slot (every real group has at least one entry).
#[derive(Debug, Clone, Copy)]
struct Slot {
    weak: u32,
    start: u32,
    len: u32,
}

const EMPTY: Slot = Slot {
    weak: 0,
    start: 0,
    len: 0,
};

/// Fibonacci multiplier for slot placement (Knuth's 2^32 / φ).
const HASH_MUL: u32 = 0x9E37_79B9;

/// Bits in the presence filter (see [`SourceIndex`]'s `present`).
const FILTER_BITS: usize = 1 << 14;

/// The presence-filter bit of weak hash `weak`: the top bits of its
/// Fibonacci product.
#[inline]
fn filter_bit(weak: u32) -> usize {
    (weak.wrapping_mul(HASH_MUL) >> (32 - FILTER_BITS.trailing_zeros())) as usize
}

/// Precomputed block index of one source buffer. See the module docs for
/// the layout; build once per source version, probe many times.
#[derive(Debug, Default, Clone)]
pub struct SourceIndex {
    block_size: usize,
    n_blocks: usize,
    /// FNV-1a digest per block, by block number.
    strongs: Vec<u64>,
    /// Block numbers grouped by weak hash, ascending within each group.
    entries: Vec<u32>,
    /// Open-addressed table from weak hash to `entries` range.
    slots: Vec<Slot>,
    /// One bit per [`filter_bit`] value, set for every indexed weak hash.
    /// Rewritten content gives the scan a window with no candidates at
    /// almost every byte, and a clear bit answers that without the slot
    /// probe, whose length varies per window and defeats branch
    /// prediction.
    present: Vec<u64>,
    /// Sort scratch: `(weak, block)` pairs, retained for reuse.
    pairs: Vec<(u32, u32)>,
}

impl SourceIndex {
    /// An empty index (matches nothing). Useful as a reusable scratch:
    /// call [`SourceIndex::rebuild`] to point it at a source.
    pub fn new() -> Self {
        SourceIndex::default()
    }

    /// Build a fresh index over `source` with the given block size.
    pub fn build(source: &[u8], block_size: usize) -> Self {
        let mut idx = SourceIndex::new();
        idx.rebuild(source, block_size);
        idx
    }

    /// Re-point this index at `source`, reusing the existing allocations.
    pub fn rebuild(&mut self, source: &[u8], block_size: usize) {
        self.rebuild_inner(source, block_size, None);
    }

    /// [`SourceIndex::rebuild`] reusing per-block weak hashes the caller
    /// already computed — `weaks[b]` must be the rolling digest of block
    /// `b`, exactly as [`WeakSet::rebuild`] produces them. The match-rate
    /// probe in [`crate::pa`] hashes every source block to decide whether
    /// an index is worth building at all; when the answer is yes, this
    /// entry point stops the index build from paying that pass twice.
    pub fn rebuild_with_weaks(&mut self, source: &[u8], block_size: usize, weaks: &[u32]) {
        self.rebuild_inner(source, block_size, Some(weaks));
    }

    fn rebuild_inner(&mut self, source: &[u8], block_size: usize, weaks: Option<&[u32]>) {
        let bs = block_size.max(4);
        self.block_size = bs;
        self.n_blocks = if source.len() >= bs {
            source.len() / bs
        } else {
            0
        };
        self.strongs.clear();
        self.entries.clear();
        self.pairs.clear();
        self.slots.clear();
        self.present.clear();
        if self.n_blocks == 0 {
            return;
        }

        // Pass 1: weak + strong hash of every block (weak hashes reused
        // from the caller when supplied).
        if let Some(weaks) = weaks {
            debug_assert_eq!(weaks.len(), self.n_blocks, "stale weak hashes");
        }
        self.strongs.reserve(self.n_blocks);
        self.pairs.reserve(self.n_blocks);
        for b in 0..self.n_blocks {
            let block = &source[b * bs..b * bs + bs];
            let weak = match weaks {
                Some(w) => w[b],
                None => RollingHash::new(block).digest(),
            };
            self.pairs.push((weak, b as u32));
            self.strongs.push(block_filter(block));
        }

        // Pass 2: group by weak hash. Sorting by (weak, block) keeps blocks
        // ascending within a group — the probe order the original
        // `HashMap<weak, Vec<offset>>` produced by insertion.
        self.pairs.sort_unstable();

        // Pass 3: fill the open-addressed table, one slot per group.
        // Capacity 2·n_blocks (≥ 2·groups) keeps load ≤ 50%.
        let cap = (self.n_blocks * 2).next_power_of_two();
        self.slots.resize(cap, EMPTY);
        self.present.resize(FILTER_BITS / 64, 0);
        let mask = cap - 1;
        let mut i = 0;
        while i < self.pairs.len() {
            let weak = self.pairs[i].0;
            let start = i;
            while i < self.pairs.len() && self.pairs[i].0 == weak {
                self.entries.push(self.pairs[i].1);
                i += 1;
            }
            let bit = filter_bit(weak);
            self.present[bit / 64] |= 1 << (bit % 64);
            let mut h = (weak.wrapping_mul(HASH_MUL) as usize) & mask;
            while self.slots[h].len != 0 {
                h = (h + 1) & mask;
            }
            self.slots[h] = Slot {
                weak,
                start: start as u32,
                len: (i - start) as u32,
            };
        }
    }

    /// Block size this index was built with.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of indexed source blocks.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// True if the index holds no blocks (source shorter than one block).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_blocks == 0
    }

    /// Block numbers whose weak hash equals `weak`, ascending. Empty slice
    /// when the hash is absent.
    #[inline]
    pub fn candidates(&self, weak: u32) -> &[u32] {
        if self.slots.is_empty() {
            return &[];
        }
        let bit = filter_bit(weak);
        if self.present[bit / 64] & (1 << (bit % 64)) == 0 {
            return &[];
        }
        let mask = self.slots.len() - 1;
        let mut h = (weak.wrapping_mul(HASH_MUL) as usize) & mask;
        loop {
            let slot = self.slots[h];
            if slot.len == 0 {
                return &[];
            }
            if slot.weak == weak {
                return &self.entries[slot.start as usize..(slot.start + slot.len) as usize];
            }
            h = (h + 1) & mask;
        }
    }

    /// Precomputed [`block_filter`] digest of block `block`. Compare
    /// against `block_filter(window)` only — the digest is an internal
    /// collision filter, not a portable checksum.
    #[inline]
    pub fn strong(&self, block: u32) -> u64 {
        self.strongs[block as usize]
    }
}

/// The set of weak rolling hashes of a source's blocks — nothing more.
///
/// [`WeakSet::contains`]`(w)` answers exactly the same question as
/// `!SourceIndex::candidates(w).is_empty()` over the same `(source,
/// block_size)` — both sets are `{weak(block_i)}` — but building it skips
/// the strong-hash pass and the open-addressed table, so it is the cheap
/// front end for the match-rate probe in [`crate::pa`]: decide whether a
/// full index is worth building *before* paying for one. Exact by
/// construction (a sorted, deduplicated `Vec<u32>`), never probabilistic —
/// a filter with false answers could make shards of one encode disagree
/// with the serial encode on the bail decision and break their
/// bit-identity.
#[derive(Debug, Default, Clone)]
pub struct WeakSet {
    /// Sorted, deduplicated hashes — the membership set.
    sorted: Vec<u32>,
    /// The same hashes in block order (`in_order[b]` = weak hash of block
    /// `b`), retained so a subsequent [`SourceIndex::rebuild_with_weaks`]
    /// over the same `(source, block_size)` can skip its weak-hash pass.
    in_order: Vec<u32>,
}

impl WeakSet {
    /// An empty set (contains nothing). Call [`WeakSet::rebuild`] to point
    /// it at a source; the allocations are reused across rebuilds.
    pub fn new() -> Self {
        WeakSet::default()
    }

    /// Recompute the set over `source`'s `block_size`-aligned blocks,
    /// reusing the existing allocations.
    pub fn rebuild(&mut self, source: &[u8], block_size: usize) {
        let bs = block_size.max(4);
        self.sorted.clear();
        self.in_order.clear();
        if source.len() < bs {
            return;
        }
        let n_blocks = source.len() / bs;
        self.in_order.reserve(n_blocks);
        for b in 0..n_blocks {
            self.in_order
                .push(RollingHash::new(&source[b * bs..b * bs + bs]).digest());
        }
        self.sorted.extend_from_slice(&self.in_order);
        self.sorted.sort_unstable();
        self.sorted.dedup();
    }

    /// True if `weak` is the rolling hash of at least one source block.
    #[inline]
    pub fn contains(&self, weak: u32) -> bool {
        self.sorted.binary_search(&weak).is_ok()
    }

    /// Per-block weak hashes in block order, exactly as
    /// [`SourceIndex::rebuild_with_weaks`] expects them.
    #[inline]
    pub fn block_weaks(&self) -> &[u32] {
        &self.in_order
    }

    /// True if the set holds no hashes (source shorter than one block).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The original table, for cross-checking.
    fn reference_table(source: &[u8], bs: usize) -> HashMap<u32, Vec<usize>> {
        let mut table: HashMap<u32, Vec<usize>> = HashMap::new();
        if source.len() >= bs {
            let mut off = 0;
            while off + bs <= source.len() {
                let weak = RollingHash::new(&source[off..off + bs]).digest();
                table.entry(weak).or_default().push(off);
                off += bs;
            }
        }
        table
    }

    #[test]
    fn matches_reference_table_on_random_input() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(len, bs) in &[
            (0usize, 16usize),
            (10, 16),
            (4096, 16),
            (4096, 64),
            (4099, 32),
        ] {
            let source: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let idx = SourceIndex::build(&source, bs);
            let reference = reference_table(&source, bs);
            assert_eq!(
                idx.n_blocks(),
                reference.values().map(Vec::len).sum::<usize>(),
                "len={len} bs={bs}"
            );
            for (&weak, offsets) in &reference {
                let got: Vec<usize> = idx
                    .candidates(weak)
                    .iter()
                    .map(|&b| b as usize * bs)
                    .collect();
                assert_eq!(&got, offsets, "weak={weak:#x} len={len} bs={bs}");
            }
            // Absent hashes return no candidates.
            for _ in 0..100 {
                let w: u32 = rng.gen();
                if !reference.contains_key(&w) {
                    assert!(idx.candidates(w).is_empty());
                }
            }
        }
    }

    #[test]
    fn repeated_blocks_group_in_ascending_order() {
        // All-identical blocks: one group containing every block, ascending.
        let source = vec![0xAA_u8; 64 * 16];
        let idx = SourceIndex::build(&source, 16);
        let weak = RollingHash::new(&source[0..16]).digest();
        let cands = idx.candidates(weak);
        assert_eq!(cands.len(), 64);
        for (i, &b) in cands.iter().enumerate() {
            assert_eq!(b as usize, i);
        }
    }

    #[test]
    fn strong_hashes_match_block_filter_of_each_block() {
        let mut rng = StdRng::seed_from_u64(2);
        let source: Vec<u8> = (0..1024).map(|_| rng.gen()).collect();
        let idx = SourceIndex::build(&source, 32);
        for b in 0..idx.n_blocks() {
            assert_eq!(
                idx.strong(b as u32),
                block_filter(&source[b * 32..b * 32 + 32]),
                "block {b}"
            );
        }
    }

    #[test]
    fn rebuild_reuses_and_replaces() {
        let mut rng = StdRng::seed_from_u64(3);
        let a: Vec<u8> = (0..2048).map(|_| rng.gen()).collect();
        let b: Vec<u8> = (0..512).map(|_| rng.gen()).collect();
        let mut idx = SourceIndex::build(&a, 16);
        assert_eq!(idx.n_blocks(), 128);
        idx.rebuild(&b, 16);
        assert_eq!(idx.n_blocks(), 32);
        // Old content is gone: a's blocks are no longer indexed (unless a
        // weak collision happens to land in b's table, in which case the
        // strong hash check downstream rejects it — spot-check counts only).
        let fresh = SourceIndex::build(&b, 16);
        for blk in 0..32u32 {
            assert_eq!(idx.strong(blk), fresh.strong(blk));
        }
    }

    #[test]
    fn weak_set_membership_matches_index_candidates() {
        // The bail probe's correctness hinges on this equivalence: for any
        // weak hash, WeakSet::contains == !SourceIndex::candidates.is_empty.
        let mut rng = StdRng::seed_from_u64(4);
        for &(len, bs) in &[(0usize, 16usize), (10, 16), (4096, 16), (4099, 32)] {
            let source: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let idx = SourceIndex::build(&source, bs);
            let mut set = WeakSet::new();
            set.rebuild(&source, bs);
            assert_eq!(set.is_empty(), idx.is_empty());
            // Every indexed block's weak hash is present.
            if source.len() >= bs {
                for b in 0..source.len() / bs {
                    let w = RollingHash::new(&source[b * bs..b * bs + bs]).digest();
                    assert!(set.contains(w));
                    assert!(!idx.candidates(w).is_empty());
                }
            }
            // Random hashes agree in both directions.
            for _ in 0..200 {
                let w: u32 = rng.gen();
                assert_eq!(
                    set.contains(w),
                    !idx.candidates(w).is_empty(),
                    "len={len} bs={bs} weak={w:#x}"
                );
            }
        }
        // Rebuild replaces the old contents.
        let a = vec![0xAA_u8; 256];
        let b: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let mut set = WeakSet::new();
        set.rebuild(&a, 16);
        let wa = RollingHash::new(&a[0..16]).digest();
        assert!(set.contains(wa));
        set.rebuild(&b, 16);
        assert_eq!(
            set.contains(wa),
            !SourceIndex::build(&b, 16).candidates(wa).is_empty()
        );
    }

    #[test]
    fn tiny_and_empty_sources() {
        let idx = SourceIndex::build(&[], 16);
        assert!(idx.is_empty());
        assert!(idx.candidates(0).is_empty());
        let idx = SourceIndex::build(&[1, 2, 3], 16);
        assert!(idx.is_empty(), "source shorter than one block");
    }
}
