//! Checkpoint storage levels with bandwidth models.
//!
//! The paper's testbed (Fig. 10) keeps L1 on the physical node's disk and
//! *simulates* L2 (RAID-5 node group) and L3 (remote storage) through their
//! bandwidth parameters. We do the same — but the RAID-5 group is a real
//! implementation: checkpoint bytes are striped across a node group with
//! rotating XOR parity, a node can be failed, and reads reconstruct the
//! missing stripe chunks from parity (degraded mode), which is exactly the
//! resilience L2 buys against a single total-node failure.
//!
//! Host work follows the bytes an operation touches, not the object they
//! land in: an append copies only the appended bytes, and a ranged read
//! ([`Store::read_range`]) only the bytes it returns. The checkpoint log
//! appends every record to, and reads every record out of, a multi-MiB
//! segment object.

use std::collections::HashMap;
use std::ops::Range;

use bytes::{Bytes, BytesMut};

#[cfg(test)]
mod oracle;

/// Simulated transfer timing for a store operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Receipt {
    /// Bytes written.
    pub bytes: u64,
    /// Seconds the transfer occupied the store's channel.
    pub seconds: f64,
}

/// A bandwidth-limited channel: fixed setup latency plus bytes/bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Sustained bandwidth, bytes per second.
    pub bytes_per_sec: f64,
    /// Per-operation setup latency, seconds.
    pub latency: f64,
}

impl BandwidthModel {
    /// Construct; bandwidth must be positive.
    pub fn new(bytes_per_sec: f64, latency: f64) -> Self {
        assert!(bytes_per_sec > 0.0 && latency >= 0.0);
        BandwidthModel {
            bytes_per_sec,
            latency,
        }
    }

    /// Transfer time for `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bytes_per_sec
    }

    fn receipt(&self, bytes: u64) -> Receipt {
        Receipt {
            bytes,
            seconds: self.transfer_time(bytes),
        }
    }
}

/// A named checkpoint object store.
pub trait Store {
    /// Write an object, returning the simulated transfer receipt.
    fn put(&mut self, name: &str, data: Bytes) -> Receipt;
    /// Append bytes to an object (creating it if absent), billing only the
    /// appended traffic — the substrate operation of the append-only
    /// checkpoint log, where per-object `put` would re-bill the whole
    /// segment on every record.
    fn append(&mut self, name: &str, data: Bytes) -> Receipt;
    /// An object's length in bytes (None if absent).
    fn len(&self, name: &str) -> Option<usize>;
    /// Read `len` bytes at offset `off` of an object — one log record out
    /// of its segment — touching only those bytes. None if the object is
    /// absent, the range runs past its end, or a byte of it is
    /// unrecoverable.
    fn read_range(&self, name: &str, off: usize, len: usize) -> Option<Bytes>;
    /// Read an object back whole (None if absent or unrecoverable).
    fn get(&self, name: &str) -> Option<Bytes>;
    /// Simulated cost of reading the object through this store's own
    /// channel model (None if absent). A degraded store may charge more
    /// than a healthy one for the same object.
    fn read_receipt(&self, name: &str) -> Option<Receipt>;
    /// Delete an object; returns true if it existed.
    fn delete(&mut self, name: &str) -> bool;
    /// Total bytes held.
    fn stored_bytes(&self) -> u64;
}

/// L1 / L3: a flat object store behind a bandwidth model (local disk or
/// remote parallel file system — same mechanics, different constants).
/// An object is kept as the pieces it was written in, so an append is a
/// push and a read inside one piece is a zero-copy slice.
#[derive(Debug, Clone)]
pub struct FlatStore {
    bw: BandwidthModel,
    objects: HashMap<String, Pieces>,
}

/// One object: its non-empty pieces in order, each with its offset.
#[derive(Debug, Clone, Default)]
struct Pieces {
    parts: Vec<(usize, Bytes)>,
    len: usize,
}

impl Pieces {
    fn push(&mut self, data: Bytes) {
        if !data.is_empty() {
            let at = self.len;
            self.len += data.len();
            self.parts.push((at, data));
        }
    }

    fn range(&self, off: usize, len: usize) -> Option<Bytes> {
        let end = off.checked_add(len)?;
        if end > self.len {
            return None;
        }
        if len == 0 {
            return Some(Bytes::new());
        }
        // The last piece starting at or before `off`; the first starts at 0.
        let first = self.parts.partition_point(|(at, _)| *at <= off) - 1;
        let (at, part) = &self.parts[first];
        if end <= at + part.len() {
            return Some(part.slice(off - at..end - at));
        }
        let mut out = BytesMut::with_capacity(len);
        for (at, part) in self.parts[first..].iter().take_while(|(at, _)| *at < end) {
            out.extend_from_slice(&part[off.max(*at) - at..end.min(at + part.len()) - at]);
        }
        Some(out.freeze())
    }
}

impl FlatStore {
    /// New store with the given channel model.
    pub fn new(bw: BandwidthModel) -> Self {
        FlatStore {
            bw,
            objects: HashMap::new(),
        }
    }
}

impl Store for FlatStore {
    fn put(&mut self, name: &str, data: Bytes) -> Receipt {
        self.objects.remove(name);
        self.append(name, data)
    }

    fn append(&mut self, name: &str, data: Bytes) -> Receipt {
        let r = self.bw.receipt(data.len() as u64);
        self.objects.entry(name.to_string()).or_default().push(data);
        r
    }

    fn len(&self, name: &str) -> Option<usize> {
        self.objects.get(name).map(|o| o.len)
    }

    fn read_range(&self, name: &str, off: usize, len: usize) -> Option<Bytes> {
        self.objects.get(name)?.range(off, len)
    }

    fn get(&self, name: &str) -> Option<Bytes> {
        let o = self.objects.get(name)?;
        o.range(0, o.len)
    }

    fn read_receipt(&self, name: &str) -> Option<Receipt> {
        Some(self.bw.receipt(self.len(name)? as u64))
    }

    fn delete(&mut self, name: &str) -> bool {
        self.objects.remove(name).is_some()
    }

    fn stored_bytes(&self) -> u64 {
        self.objects.values().map(|o| o.len as u64).sum()
    }
}

/// L2: a RAID-5 group of `n` nodes. Objects are split into stripe rows of
/// `n − 1` data chunks plus one parity chunk; the parity position rotates
/// per row. Any single failed node can be reconstructed from the others.
///
/// Chunks are mutable buffers: an append writes its bytes into the
/// object's open (last) row and XORs them into that row's parity in
/// place, adding rows only when the bytes run past it. A chunk grows in
/// zeroed blocks only as far as bytes are written to it, so opening a row
/// allocates nothing. Reads, degraded ones included, touch only the chunk
/// bytes they return.
#[derive(Debug, Clone)]
pub struct Raid5Group {
    bw: BandwidthModel,
    chunk_size: usize,
    /// Per-node chunk maps: `nodes[i][name]` = node i's chunk of each
    /// stripe row of the object.
    nodes: Vec<HashMap<String, Vec<Chunk>>>,
    /// Object sizes, needed to strip padding on read.
    sizes: HashMap<String, usize>,
    /// Currently failed node, if any.
    failed: Option<usize>,
}

impl Raid5Group {
    /// Create a group of `n ≥ 3` nodes with the given stripe chunk size.
    pub fn new(n: usize, chunk_size: usize, bw: BandwidthModel) -> Self {
        assert!(n >= 3, "RAID-5 needs at least 3 nodes");
        assert!(chunk_size > 0);
        Raid5Group {
            bw,
            chunk_size,
            nodes: vec![HashMap::new(); n],
            sizes: HashMap::new(),
            failed: None,
        }
    }

    /// Number of nodes in the group.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Fail a node: its chunks become unreadable until
    /// [`Raid5Group::repair_node`].
    pub fn fail_node(&mut self, node: usize) {
        assert!(node < self.nodes.len());
        assert!(self.failed.is_none(), "RAID-5 tolerates one failure");
        self.failed = Some(node);
    }

    /// Fail a node **and** lose its contents — the disk died with it, so
    /// every chunk it held becomes genuinely missing and the eventual
    /// [`Raid5Group::repair_node`] rebuilds (and bills) the full set onto
    /// the replacement. [`Raid5Group::fail_node`] alone models a transient
    /// outage where the data survives the downtime. This is the f2
    /// semantics of the storage hierarchy.
    pub fn fail_node_losing_data(&mut self, node: usize) {
        self.fail_node(node);
        self.nodes[node].clear();
    }

    /// True while a node is failed and reads run in degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.failed.is_some()
    }

    /// Repair the failed node: reconstruct exactly the chunks it is
    /// *missing* from the surviving nodes and mark it healthy again. An
    /// object written, overwritten or appended to while the node was down
    /// left no copy on it — those are the chunks the rebuild recreates and
    /// bills; chunks the node still holds from before the failure were
    /// never lost and cost nothing. The receipt bills one read of the n−1
    /// surviving chunks plus one write of the reconstruction per missing
    /// chunk.
    pub fn repair_node(&mut self) -> Receipt {
        let Some(dead) = self.failed else {
            return Receipt {
                bytes: 0,
                seconds: 0.0,
            };
        };
        let mut rebuilt_chunks = 0u64;
        let names: Vec<String> = self.sizes.keys().cloned().collect();
        for name in names {
            // Row count comes from whichever surviving node holds the
            // object — per-node absence must not panic (a peer that missed
            // a degraded write simply contributes no rows).
            let rows = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != dead)
                .filter_map(|(_, node)| node.get(&name))
                .map(Vec::len)
                .max()
                .unwrap_or(0);
            if self.nodes[dead].get(&name).map_or(0, Vec::len) == rows {
                // The node kept its pre-failure copy intact: nothing to
                // rebuild, nothing to bill.
                continue;
            }
            // Each chunk is the XOR of its row's survivors, as far as they
            // were written.
            let rebuilt: Option<Vec<Chunk>> = (0..rows)
                .map(|row| {
                    let mut chunk = Chunk::new(self.chunk_size);
                    for (i, node) in self.nodes.iter().enumerate() {
                        if i != dead {
                            chunk.xor_chunk(node.get(&name)?.get(row)?);
                        }
                    }
                    Some(chunk)
                })
                .collect();
            // A surviving chunk that is itself absent leaves the entry
            // missing rather than a partial reconstruction; reads fall
            // through to the next storage level.
            if let Some(rebuilt) = rebuilt {
                rebuilt_chunks += rows as u64;
                self.nodes[dead].insert(name, rebuilt);
            }
        }
        self.failed = None;
        self.bw
            .receipt(rebuilt_chunks * self.nodes.len() as u64 * self.chunk_size as u64)
    }

    /// Bytes `range` of node `dead`'s chunk in `row`, rebuilt as the XOR of
    /// every other node's chunk there. None if a survivor lacks its chunk.
    fn reconstruct(
        &self,
        name: &str,
        row: usize,
        dead: usize,
        range: Range<usize>,
    ) -> Option<Vec<u8>> {
        let mut acc = vec![0u8; range.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if i != dead {
                node.get(name)?.get(row)?.xor_range(&mut acc, range.clone());
            }
        }
        Some(acc)
    }

    /// Data bytes per stripe row.
    fn row_bytes(&self) -> usize {
        self.chunk_size * (self.nodes.len() - 1)
    }

    /// Stripe rows an object of `len` bytes occupies (an empty one still
    /// has one).
    fn rows_for(&self, len: usize) -> usize {
        len.div_ceil(self.row_bytes()).max(1)
    }

    /// Row `row` keeps its parity on node `n-1 - row mod n`.
    fn parity_node(&self, row: usize) -> usize {
        let n = self.nodes.len();
        (n - 1) - (row % n)
    }

    /// Where the object's byte `off` lives: `(row, node, offset in the
    /// chunk)`. A row's data chunks fill its non-parity nodes in order.
    fn locate(&self, off: usize) -> (usize, usize, usize) {
        let row = off / self.row_bytes();
        let d = off % self.row_bytes() / self.chunk_size;
        let node = if d < self.parity_node(row) { d } else { d + 1 };
        (row, node, off % self.chunk_size)
    }

    /// Write `data` at the end of `name`, first adding empty rows on every
    /// reachable node to hold it. Each byte lands on zero padding, so
    /// storing it in its data chunk and folding it into its row's parity
    /// are the same XOR, and no older byte is read. The failed node, if
    /// any, gets nothing: it must hold no copy of the object.
    fn extend(&mut self, name: &str, data: &[u8]) {
        let start = self.sizes[name];
        let (rows, cs) = (self.rows_for(start + data.len()), self.chunk_size);
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if Some(i) != self.failed {
                node.get_mut(name)
                    .expect("every reachable node holds the object")
                    .resize_with(rows, || Chunk::new(cs));
            }
        }
        let mut done = 0;
        while done < data.len() {
            let (row, node, pos) = self.locate(start + done);
            let piece = &data[done..data.len().min(done + cs - pos)];
            for target in [node, self.parity_node(row)] {
                if Some(target) != self.failed {
                    self.nodes[target].get_mut(name).expect("resized above")[row]
                        .xor_at(pos, piece);
                }
            }
            done += piece.len();
        }
        *self.sizes.get_mut(name).expect("object exists") = start + data.len();
    }

    /// Bill `rows` stripe rows: what actually hits the wire is one chunk
    /// per *reachable* node per row (n-1 data, possibly zero-padded, plus
    /// one parity — minus the failed node's share while degraded), not
    /// just the caller's payload bytes.
    fn bill_rows(&self, rows: usize) -> Receipt {
        let writes_per_row = self.nodes.len() - usize::from(self.failed.is_some());
        self.bw
            .receipt((rows * writes_per_row * self.chunk_size) as u64)
    }
}

fn xor_into(acc: &mut [u8], src: &[u8]) {
    for (a, b) in acc.iter_mut().zip(src) {
        *a ^= b;
    }
}

/// Most bytes a RAID chunk grows by at once: large enough that a read or
/// a put moves a few long runs, small enough that a record opening a row
/// allocates a quarter of a 256 KiB chunk.
const BLOCK: usize = 64 << 10;

/// One node's chunk of one stripe row. It grows in zeroed blocks as far
/// as bytes are written to it and never moves what it holds, so an append
/// costs the bytes it writes (in a clone of the group too); the rest of
/// the chunk reads as zero.
#[derive(Debug, Clone)]
struct Chunk {
    /// Block length: [`BLOCK`], or the whole chunk when that is smaller.
    block: usize,
    blocks: Vec<Box<[u8]>>,
}

impl Chunk {
    /// An empty chunk of a group whose chunks are `chunk_size` long.
    fn new(chunk_size: usize) -> Self {
        Chunk {
            block: chunk_size.min(BLOCK),
            blocks: Vec::new(),
        }
    }

    /// XOR `src` into the chunk at byte `pos`, first adding the zeroed
    /// blocks it reaches.
    fn xor_at(&mut self, pos: usize, src: &[u8]) {
        let bl = self.block;
        while self.blocks.len() * bl < pos + src.len() {
            self.blocks.push(vec![0u8; bl].into_boxed_slice());
        }
        let mut done = 0;
        while done < src.len() {
            let (block, off) = ((pos + done) / bl, (pos + done) % bl);
            let n = (bl - off).min(src.len() - done);
            xor_into(&mut self.blocks[block][off..off + n], &src[done..done + n]);
            done += n;
        }
    }

    /// The written bytes of `range`, block by block, each with its offset
    /// in `range`. The bytes of `range` past the last block are zero.
    fn pieces(&self, range: Range<usize>) -> impl Iterator<Item = (usize, &[u8])> {
        let bl = self.block;
        let end = range.end.min(self.blocks.len() * bl);
        (range.start / bl..end.div_ceil(bl)).map(move |b| {
            let base = b * bl;
            let (lo, hi) = (base.max(range.start), (base + bl).min(end));
            (lo - range.start, &self.blocks[b][lo - base..hi - base])
        })
    }

    /// Append the chunk's bytes `range` to `out`.
    fn read_into(&self, out: &mut Vec<u8>, range: Range<usize>) {
        let start = out.len();
        for (_, piece) in self.pieces(range.clone()) {
            out.extend_from_slice(piece);
        }
        out.resize(start + range.len(), 0);
    }

    /// XOR the chunk's bytes `range` into `acc`, which is `range` long.
    fn xor_range(&self, acc: &mut [u8], range: Range<usize>) {
        for (at, piece) in self.pieces(range) {
            xor_into(&mut acc[at..at + piece.len()], piece);
        }
    }

    /// XOR all of `other`, a chunk of the same group, into this one.
    fn xor_chunk(&mut self, other: &Chunk) {
        for (i, block) in other.blocks.iter().enumerate() {
            self.xor_at(i * other.block, block);
        }
    }
}

impl Store for Raid5Group {
    fn put(&mut self, name: &str, data: Bytes) -> Receipt {
        // Replace any previous version. A failed node cannot accept
        // writes: its stale copy (if any) is removed so it can never
        // resurface after an overwrite-while-degraded, and
        // [`Raid5Group::repair_node`] rebuilds exactly that missing set.
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if Some(i) == self.failed {
                node.remove(name);
            } else {
                node.insert(name.to_string(), Vec::new());
            }
        }
        self.sizes.insert(name.to_string(), 0);
        self.extend(name, &data);
        self.bill_rows(self.rows_for(data.len()))
    }

    fn append(&mut self, name: &str, data: Bytes) -> Receipt {
        let Some(&old_len) = self.sizes.get(name) else {
            return self.put(name, data);
        };
        let rows = self.rows_for(old_len);
        let intact = (0..self.nodes.len())
            .filter(|&i| Some(i) != self.failed)
            .all(|i| self.nodes[i].get(name).is_some_and(|c| c.len() == rows));
        if intact {
            // The failed node's copy would go stale, so it goes: repair
            // rebuilds the object whole.
            if let Some(dead) = self.failed {
                self.nodes[dead].remove(name);
            }
            self.extend(name, &data);
        } else {
            // A reachable node lost its copy outside the one-failure model:
            // rewrite whatever still reads back, or start the object over.
            let mut whole = self.get(name).map_or_else(Vec::new, |b| b.to_vec());
            whole.extend_from_slice(&data);
            self.put(name, whole.into());
        }
        // Only the rows from the append point onward change, so only they
        // are billed.
        let touched = self
            .rows_for(self.sizes[name])
            .saturating_sub(old_len / self.row_bytes());
        self.bill_rows(touched.max(1))
    }

    fn len(&self, name: &str) -> Option<usize> {
        self.sizes.get(name).copied()
    }

    fn read_range(&self, name: &str, off: usize, len: usize) -> Option<Bytes> {
        let end = off.checked_add(len)?;
        if end > *self.sizes.get(name)? {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        let mut at = off;
        while at < end {
            let (row, node, pos) = self.locate(at);
            let range = pos..self.chunk_size.min(pos + end - at);
            at += range.len();
            if Some(node) == self.failed {
                // Degraded read: rebuild just these bytes from parity.
                out.extend_from_slice(&self.reconstruct(name, row, node, range)?);
            } else {
                let chunk = self.nodes[node].get(name)?.get(row)?;
                chunk.read_into(&mut out, range);
            }
        }
        Some(Bytes::from(out))
    }

    fn get(&self, name: &str) -> Option<Bytes> {
        self.read_range(name, 0, *self.sizes.get(name)?)
    }

    fn read_receipt(&self, name: &str) -> Option<Receipt> {
        self.sizes.get(name)?;
        let n = self.nodes.len();
        let rows = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != self.failed)
            .find_map(|(_, node)| node.get(name))
            .map(Vec::len)?;
        // A healthy read pulls the n-1 data chunks of each row. When the
        // failed node held a data chunk for a row (i.e. it was not that
        // row's parity position), reconstruction additionally reads the
        // row's parity chunk.
        let mut chunks = rows as u64 * (n as u64 - 1);
        if let Some(dead) = self.failed {
            chunks += (0..rows)
                .filter(|&row| self.parity_node(row) != dead)
                .count() as u64;
        }
        Some(self.bw.receipt(chunks * self.chunk_size as u64))
    }

    fn delete(&mut self, name: &str) -> bool {
        let existed = self.sizes.remove(name).is_some();
        for node in &mut self.nodes {
            node.remove(name);
        }
        existed
    }

    /// A stripe row counts a whole chunk on every node that holds it,
    /// however much of the chunk was written: RAID stores the padding.
    fn stored_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .flat_map(|n| n.values())
            .map(|rows| (rows.len() * self.chunk_size) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bytes(len: usize, seed: u64) -> Bytes {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = vec![0u8; len];
        rng.fill(&mut v[..]);
        Bytes::from(v)
    }

    #[test]
    fn bandwidth_math() {
        let bw = BandwidthModel::new(100.0, 0.5);
        assert!((bw.transfer_time(1000) - 10.5).abs() < 1e-12);
    }

    #[test]
    fn flat_store_roundtrip() {
        let mut s = FlatStore::new(BandwidthModel::new(1e6, 0.0));
        let data = random_bytes(1234, 1);
        let r = s.put("ckpt", data.clone());
        assert_eq!(r.bytes, 1234);
        assert_eq!(s.get("ckpt").unwrap(), data);
        assert!(s.delete("ckpt"));
        assert!(s.get("ckpt").is_none());
    }

    #[test]
    fn raid5_roundtrip_various_sizes() {
        for (i, len) in [0usize, 1, 100, 1024, 4096, 10_000, 65_537]
            .iter()
            .enumerate()
        {
            let mut g = Raid5Group::new(4, 1024, BandwidthModel::new(1e9, 0.0));
            let data = random_bytes(*len, i as u64);
            g.put("x", data.clone());
            assert_eq!(g.get("x").unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn raid5_survives_any_single_node_failure() {
        let data = random_bytes(50_000, 9);
        for dead in 0..5 {
            let mut g = Raid5Group::new(5, 512, BandwidthModel::new(1e9, 0.0));
            g.put("ckpt", data.clone());
            g.fail_node(dead);
            assert_eq!(g.get("ckpt").unwrap(), data, "failed node {dead}");
        }
    }

    #[test]
    fn raid5_repair_then_second_failure() {
        let data = random_bytes(20_000, 10);
        let mut g = Raid5Group::new(4, 256, BandwidthModel::new(1e9, 0.0));
        g.put("ckpt", data.clone());
        g.fail_node(1);
        g.repair_node();
        g.fail_node(3); // a different node fails after repair
        assert_eq!(g.get("ckpt").unwrap(), data);
    }

    #[test]
    #[should_panic(expected = "one failure")]
    fn raid5_double_failure_rejected() {
        let mut g = Raid5Group::new(3, 256, BandwidthModel::new(1e9, 0.0));
        g.fail_node(0);
        g.fail_node(1);
    }

    #[test]
    fn raid5_overwrite_replaces() {
        let mut g = Raid5Group::new(3, 128, BandwidthModel::new(1e9, 0.0));
        g.put("x", random_bytes(1000, 11));
        let newer = random_bytes(500, 12);
        g.put("x", newer.clone());
        assert_eq!(g.get("x").unwrap(), newer);
    }

    #[test]
    fn raid5_storage_overhead_is_parity_fraction() {
        let mut g = Raid5Group::new(5, 1000, BandwidthModel::new(1e9, 0.0));
        let data = random_bytes(40_000, 13); // exactly 10 rows of 4 chunks
        g.put("x", data);
        // 40k data + 10 rows × 1k parity = 50k total.
        assert_eq!(g.stored_bytes(), 50_000);
    }

    #[test]
    fn flat_read_receipt_uses_channel_model() {
        let mut s = FlatStore::new(BandwidthModel::new(100.0, 0.5));
        s.put("x", random_bytes(1000, 20));
        let r = s.read_receipt("x").unwrap();
        assert_eq!(r.bytes, 1000);
        assert!((r.seconds - 10.5).abs() < 1e-12);
        assert!(s.read_receipt("missing").is_none());
    }

    #[test]
    fn raid5_put_bills_parity_and_padding() {
        let mut g = Raid5Group::new(5, 1000, BandwidthModel::new(1e6, 0.0));
        // Exactly 10 rows of 4 data chunks: 40k payload → 50k on the wire.
        let r = g.put("x", random_bytes(40_000, 21));
        assert_eq!(r.bytes, 50_000);
        assert!((r.seconds - 0.05).abs() < 1e-12);
        // A 1-byte object still writes one full stripe row.
        let r = g.put("tiny", random_bytes(1, 22));
        assert_eq!(r.bytes, 5_000);
    }

    #[test]
    fn raid5_read_receipt_healthy_vs_degraded() {
        let mut g = Raid5Group::new(4, 1000, BandwidthModel::new(1e6, 0.0));
        g.put("x", random_bytes(12_000, 23)); // 4 rows of 3 data chunks
        let healthy = g.read_receipt("x").unwrap();
        assert_eq!(healthy.bytes, 12_000);

        // Node 3 is parity for row 0 only; rows 1-3 need the extra parity
        // chunk to reconstruct its data chunks.
        g.fail_node(3);
        let degraded = g.read_receipt("x").unwrap();
        assert_eq!(degraded.bytes, 12_000 + 3 * 1000);
        assert!(degraded.seconds > healthy.seconds);

        // The node still holds its pre-failure chunks — nothing was lost,
        // so the repair reconstructs (and bills) nothing.
        let repair = g.repair_node();
        assert_eq!(repair.bytes, 0);
        assert!(!g.is_degraded());
        assert_eq!(g.read_receipt("x").unwrap(), healthy);
    }

    #[test]
    fn raid5_repair_on_healthy_group_is_free() {
        let mut g = Raid5Group::new(3, 128, BandwidthModel::new(1e9, 0.0));
        g.put("x", random_bytes(1000, 24));
        let r = g.repair_node();
        assert_eq!(r.bytes, 0);
        assert_eq!(r.seconds, 0.0);
    }

    #[test]
    fn degraded_put_leaves_failed_node_empty_and_bills_survivors() {
        let mut g = Raid5Group::new(4, 1000, BandwidthModel::new(1e6, 0.0));
        g.fail_node(2);
        // 4 rows of 3 data chunks.
        let data = random_bytes(12_000, 30);
        let r = g.put("x", data.clone());
        // Only the 3 reachable nodes receive chunks: 4 rows × 3 × 1000.
        assert_eq!(r.bytes, 12_000);
        assert!(!g.nodes[2].contains_key("x"), "dead node took a write");
        // Degraded reads reconstruct the absent chunks from parity.
        assert_eq!(g.get("x").unwrap(), data);
    }

    #[test]
    fn overwrite_while_degraded_discards_the_stale_copy() {
        let mut g = Raid5Group::new(4, 256, BandwidthModel::new(1e9, 0.0));
        g.put("x", random_bytes(5_000, 31));
        g.fail_node(1);
        let newer = random_bytes(5_000, 32);
        g.put("x", newer.clone());
        // The dead node's pre-failure chunks are dropped, not refreshed:
        // nothing written during degradation may "survive" on it.
        assert!(!g.nodes[1].contains_key("x"), "stale copy resurrected");
        assert_eq!(g.get("x").unwrap(), newer);
        // Repair rebuilds the overwritten object from parity; a different
        // node can then fail and the *new* data still reads back.
        g.repair_node();
        g.fail_node(3);
        assert_eq!(g.get("x").unwrap(), newer);
    }

    #[test]
    fn repair_bills_only_genuinely_missing_chunks() {
        let mut g = Raid5Group::new(4, 1000, BandwidthModel::new(1e6, 0.0));
        // "kept" is written while healthy: the failed node retains its
        // copy, so repair must not re-reconstruct (or re-bill) it.
        g.put("kept", random_bytes(12_000, 33)); // 4 rows
        g.fail_node(2);
        // "lost" is written while degraded: every one of its rows is
        // missing on the dead node.
        g.put("lost", random_bytes(6_000, 34)); // 2 rows
        let r = g.repair_node();
        // Each missing chunk reads n-1 survivors + writes 1 rebuild:
        // 2 rows × 4 nodes × 1000 B — the 4 "kept" rows cost nothing.
        assert_eq!(r.bytes, 2 * 4 * 1000);
        assert!(!g.is_degraded());
        // Both objects survive a different node's failure afterwards.
        g.fail_node(0);
        assert_eq!(g.get("kept").unwrap().len(), 12_000);
        assert_eq!(g.get("lost").unwrap().len(), 6_000);
    }

    #[test]
    fn repair_tolerates_per_node_absence_without_panicking() {
        let mut g = Raid5Group::new(4, 256, BandwidthModel::new(1e9, 0.0));
        g.fail_node(0);
        let data = random_bytes(2_000, 35);
        g.put("x", data.clone());
        // Simulate a survivor that also lost the object (e.g. a partial
        // wipe): reconstruction is impossible, but repair must degrade
        // gracefully — no panic, entry left absent, nothing billed for it.
        g.nodes[1].remove("x");
        let r = g.repair_node();
        assert_eq!(r.bytes, 0);
        assert!(!g.nodes[0].contains_key("x"));
        // The object is unrecoverable at this level; get reports that
        // instead of panicking, so callers fall through to the next level.
        assert!(g.get("x").is_none());
    }

    #[test]
    fn append_after_a_peer_lost_its_copy_rewrites_the_object() {
        let mut g = Raid5Group::new(4, 256, BandwidthModel::new(1e9, 0.0));
        let (a, b) = (random_bytes(700, 43), random_bytes(300, 44));
        // One row: node 3 holds only its parity, so the data still reads.
        g.put("x", a.clone());
        g.nodes[3].remove("x");
        g.append("x", b.clone());
        let mut want = a.to_vec();
        want.extend_from_slice(&b);
        assert_eq!(g.get("x").unwrap().to_vec(), want);
        assert!(g.nodes.iter().all(|n| n.contains_key("x")));
        g.fail_node(3);
        assert_eq!(g.get("x").unwrap().to_vec(), want);
        g.repair_node();
        // A data node lost its copy: nothing reads back, so the append
        // starts the object over.
        g.nodes[0].remove("x");
        assert!(g.get("x").is_none());
        g.append("x", b.clone());
        assert_eq!(g.get("x").unwrap(), b);
    }

    #[test]
    fn flat_append_bills_only_the_new_bytes() {
        let mut s = FlatStore::new(BandwidthModel::new(100.0, 0.5));
        let a = random_bytes(600, 36);
        let b = random_bytes(400, 37);
        let r1 = s.append("seg", a.clone());
        assert_eq!(r1.bytes, 600);
        let r2 = s.append("seg", b.clone());
        assert_eq!(r2.bytes, 400);
        assert!((r2.seconds - (0.5 + 4.0)).abs() < 1e-12);
        let mut want = a.to_vec();
        want.extend_from_slice(&b);
        assert_eq!(s.get("seg").unwrap().to_vec(), want);
        assert_eq!(s.stored_bytes(), 1000);
    }

    #[test]
    fn raid_append_bills_only_touched_rows_and_roundtrips() {
        let mut g = Raid5Group::new(4, 1000, BandwidthModel::new(1e6, 0.0));
        // 2 full rows (6000 B of data capacity per 2 rows × 3 chunks).
        let a = random_bytes(6_000, 38);
        let r = g.append("seg", a.clone());
        assert_eq!(r.bytes, 2 * 4 * 1000, "first append bills like put");
        // Appending 1 KiB lands entirely in row 2: one new row touched.
        let b = random_bytes(1_000, 39);
        let r = g.append("seg", b.clone());
        assert_eq!(r.bytes, 4 * 1000);
        // Appending 2.5 KiB rewrites the partial row 2 and adds row 3.
        let c = random_bytes(2_500, 40);
        let r = g.append("seg", c.clone());
        assert_eq!(r.bytes, 2 * 4 * 1000);
        let mut want = a.to_vec();
        want.extend_from_slice(&b);
        want.extend_from_slice(&c);
        assert_eq!(g.get("seg").unwrap().to_vec(), want);
        // The appended object survives any single-node failure.
        for dead in 0..4 {
            let mut g2 = g.clone();
            g2.fail_node(dead);
            assert_eq!(g2.get("seg").unwrap().to_vec(), want, "node {dead}");
        }
    }

    #[test]
    fn raid_append_while_degraded_skips_the_dead_node() {
        let mut g = Raid5Group::new(4, 1000, BandwidthModel::new(1e6, 0.0));
        let a = random_bytes(3_000, 41); // 1 row
        g.append("seg", a.clone());
        g.fail_node(1);
        let b = random_bytes(3_000, 42); // adds row 1
        let r = g.append("seg", b.clone());
        assert_eq!(r.bytes, 3 * 1000, "degraded append writes n-1 chunks");
        assert!(!g.nodes[1].contains_key("seg"));
        let mut want = a.to_vec();
        want.extend_from_slice(&b);
        assert_eq!(g.get("seg").unwrap().to_vec(), want);
        // Repair rebuilds the whole (re-striped) object on the dead node.
        let rep = g.repair_node();
        assert_eq!(rep.bytes, 2 * 4 * 1000);
        g.fail_node(3);
        assert_eq!(g.get("seg").unwrap().to_vec(), want);
    }

    #[test]
    fn raid5_delete() {
        let mut g = Raid5Group::new(3, 128, BandwidthModel::new(1e9, 0.0));
        g.put("x", random_bytes(100, 14));
        assert!(g.delete("x"));
        assert!(g.get("x").is_none());
        assert_eq!(g.stored_bytes(), 0);
    }

    /// The incremental stores against the whole-object reference models
    /// in `oracle`: random puts, appends from 0 B to several rows,
    /// deletes, node failures (with and without data loss) and repairs,
    /// with every read surface compared after every step.
    mod against_the_oracle {
        use super::super::oracle;
        use super::*;
        use proptest::prelude::*;

        const NAMES: [&str; 3] = ["a", "b", "c"];

        /// A ranged read of `name` at `off`, `len` long.
        type Probe = (&'static str, usize, usize);

        /// Reads that straddle chunk and row boundaries, cover the ends,
        /// and run past them.
        fn probes(len: usize, chunk: usize, row: usize) -> Vec<(usize, usize)> {
            let mut out = vec![(0, len), (0, 0), (len, 0), (len.saturating_sub(1), 1)];
            for edge in [chunk, row, row + chunk, 2 * row] {
                for (back, span) in [(1, 2), (3, chunk + 5), (0, 1)] {
                    out.push((edge.saturating_sub(back), span));
                }
            }
            out.push((len / 2, len.max(1)));
            out
        }

        fn assert_agree<S: Store, O: Store>(
            s: &S,
            o: &O,
            chunk: usize,
            row: usize,
            extra: Option<Probe>,
            ctx: &str,
        ) {
            assert_eq!(s.stored_bytes(), o.stored_bytes(), "stored_bytes, {ctx}");
            for name in NAMES {
                assert_eq!(s.get(name), o.get(name), "get {name}, {ctx}");
                assert_eq!(s.len(name), o.len(name), "len {name}, {ctx}");
                let (r, want) = (s.read_receipt(name), o.read_receipt(name));
                assert_eq!(r, want, "read_receipt {name}, {ctx}");
                for (off, len) in probes(o.len(name).unwrap_or(0), chunk, row) {
                    let (got, want) = (s.read_range(name, off, len), o.read_range(name, off, len));
                    assert_eq!(got, want, "read_range({name}, {off}, {len}), {ctx}");
                }
            }
            if let Some((name, off, len)) = extra {
                let (got, want) = (s.read_range(name, off, len), o.read_range(name, off, len));
                assert_eq!(got, want, "read_range({name}, {off}, {len}), {ctx}");
            }
        }

        /// Apply the op both stores share; `None` for a read-only probe.
        /// Lengths run from 0 B to four rows, with short appends common.
        fn apply_common<S: Store, O: Store>(
            s: &mut S,
            o: &mut O,
            (kind, name, a, b): (u8, usize, u64, u64),
            row: usize,
        ) -> Option<Probe> {
            let name = NAMES[name];
            let len = if a % 3 == 0 {
                (a / 3 % 40) as usize
            } else {
                (a / 3 % (4 * row as u64 + 1)) as usize
            };
            let data = random_bytes(len, b);
            match kind {
                0 => assert_eq!(s.put(name, data.clone()), o.put(name, data), "put"),
                1..=3 => assert_eq!(s.append(name, data.clone()), o.append(name, data), "append"),
                4 => assert_eq!(s.delete(name), o.delete(name), "delete"),
                _ => {
                    let size = o.len(name).unwrap_or(0);
                    return Some((
                        name,
                        (a as usize) % (size + 2),
                        (b as usize) % (2 * row + 1),
                    ));
                }
            }
            None
        }

        proptest! {
            #[test]
            fn raid_matches_the_whole_object_oracle(
                nodes in 3usize..6,
                chunk in 1usize..40,
                ops in prop_vec((0u8..11, 0usize..3, any::<u64>(), any::<u64>()), 1..48),
            ) {
                let bw = BandwidthModel::new(1e6, 1e-3);
                let mut s = Raid5Group::new(nodes, chunk, bw);
                let mut o = oracle::Raid5Group::new(nodes, chunk, bw);
                let row = chunk * (nodes - 1);
                for (step, op) in ops.iter().enumerate() {
                    let ctx = format!("step {step} {op:?} ({nodes} nodes, chunk {chunk})");
                    let (kind, _, _, b) = *op;
                    let victim = b as usize % nodes;
                    let extra = match kind {
                        8 | 9 if !s.is_degraded() => {
                            if kind == 8 {
                                s.fail_node(victim);
                                o.fail_node(victim);
                            } else {
                                s.fail_node_losing_data(victim);
                                o.fail_node_losing_data(victim);
                            }
                            None
                        }
                        8..=10 => {
                            prop_assert_eq!(s.repair_node(), o.repair_node(), "repair, {}", ctx);
                            None
                        }
                        _ => apply_common(&mut s, &mut o, *op, row),
                    };
                    assert_agree(&s, &o, chunk, row, extra, &ctx);
                }
            }

            #[test]
            fn flat_matches_the_whole_object_oracle(
                ops in prop_vec((0u8..7, 0usize..3, any::<u64>(), any::<u64>()), 1..48),
            ) {
                let bw = BandwidthModel::new(1e6, 1e-3);
                let mut s = FlatStore::new(bw);
                let mut o = oracle::FlatStore::new(bw);
                for (step, op) in ops.iter().enumerate() {
                    let extra = apply_common(&mut s, &mut o, *op, 64);
                    assert_agree(&s, &o, 16, 64, extra, &format!("step {step} {op:?}"));
                }
            }
        }
    }
}
