//! Reference models for the stores' property test: the whole-object
//! [`FlatStore`] and [`Raid5Group`] the stores in [`super`] replaced.
//!
//! Every append here rebuilds the object whole (the RAID group reads it
//! back, re-stripes it and recomputes every row's parity), and every
//! ranged read fetches the object whole and slices it. That is slow but
//! obviously right, which is what an oracle is for: the incremental
//! stores must agree with these on every read, length, receipt and
//! stored byte.

use std::collections::HashMap;

use bytes::{Bytes, BytesMut};

use super::{BandwidthModel, Receipt, Store};

/// Whole-object flat store.
#[derive(Debug, Clone)]
pub struct FlatStore {
    bw: BandwidthModel,
    objects: HashMap<String, Bytes>,
}

impl FlatStore {
    pub fn new(bw: BandwidthModel) -> Self {
        FlatStore {
            bw,
            objects: HashMap::new(),
        }
    }
}

impl Store for FlatStore {
    fn put(&mut self, name: &str, data: Bytes) -> Receipt {
        let r = Receipt {
            bytes: data.len() as u64,
            seconds: self.bw.transfer_time(data.len() as u64),
        };
        self.objects.insert(name.to_string(), data);
        r
    }

    fn append(&mut self, name: &str, data: Bytes) -> Receipt {
        let r = Receipt {
            bytes: data.len() as u64,
            seconds: self.bw.transfer_time(data.len() as u64),
        };
        match self.objects.get_mut(name) {
            Some(existing) => {
                let mut b = BytesMut::with_capacity(existing.len() + data.len());
                b.extend_from_slice(existing);
                b.extend_from_slice(&data);
                *existing = b.freeze();
            }
            None => {
                self.objects.insert(name.to_string(), data);
            }
        }
        r
    }

    fn len(&self, name: &str) -> Option<usize> {
        self.objects.get(name).map(Bytes::len)
    }

    fn read_range(&self, name: &str, off: usize, len: usize) -> Option<Bytes> {
        slice(self.get(name)?, off, len)
    }

    fn get(&self, name: &str) -> Option<Bytes> {
        self.objects.get(name).cloned()
    }

    fn read_receipt(&self, name: &str) -> Option<Receipt> {
        let len = self.objects.get(name)?.len() as u64;
        Some(Receipt {
            bytes: len,
            seconds: self.bw.transfer_time(len),
        })
    }

    fn delete(&mut self, name: &str) -> bool {
        self.objects.remove(name).is_some()
    }

    fn stored_bytes(&self) -> u64 {
        self.objects.values().map(|b| b.len() as u64).sum()
    }
}

fn slice(whole: Bytes, off: usize, len: usize) -> Option<Bytes> {
    let end = off.checked_add(len)?;
    (end <= whole.len()).then(|| whole.slice(off..end))
}

/// Whole-object RAID-5 group.
#[derive(Debug, Clone)]
pub struct Raid5Group {
    bw: BandwidthModel,
    chunk_size: usize,
    nodes: Vec<HashMap<String, Vec<Bytes>>>,
    sizes: HashMap<String, usize>,
    failed: Option<usize>,
}

impl Raid5Group {
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

    pub fn fail_node(&mut self, node: usize) {
        assert!(node < self.nodes.len());
        assert!(self.failed.is_none(), "RAID-5 tolerates one failure");
        self.failed = Some(node);
    }

    pub fn fail_node_losing_data(&mut self, node: usize) {
        self.fail_node(node);
        self.nodes[node].clear();
    }

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
                continue;
            }
            let mut rebuilt = Vec::with_capacity(rows);
            for row in 0..rows {
                match self.reconstruct_chunk(&name, row, dead) {
                    Some(c) => rebuilt.push(c),
                    None => break,
                }
            }
            if rebuilt.len() == rows {
                rebuilt_chunks += rows as u64;
                self.nodes[dead].insert(name, rebuilt);
            }
        }
        self.failed = None;
        let bytes = rebuilt_chunks * self.nodes.len() as u64 * self.chunk_size as u64;
        Receipt {
            bytes,
            seconds: self.bw.transfer_time(bytes),
        }
    }

    fn reconstruct_chunk(&self, name: &str, row: usize, dead: usize) -> Option<Bytes> {
        let mut acc = vec![0u8; self.chunk_size];
        for (i, node) in self.nodes.iter().enumerate() {
            if i == dead {
                continue;
            }
            let chunk = node.get(name)?.get(row)?;
            for (a, b) in acc.iter_mut().zip(chunk.iter()) {
                *a ^= b;
            }
        }
        Some(Bytes::from(acc))
    }

    fn stripe(&mut self, name: &str, data: &Bytes) -> usize {
        let n = self.nodes.len();
        let data_chunks_per_row = n - 1;
        self.sizes.insert(name.to_string(), data.len());
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if Some(i) == self.failed {
                node.remove(name);
            } else {
                node.insert(name.to_string(), Vec::new());
            }
        }
        let row_bytes = self.chunk_size * data_chunks_per_row;
        let total_rows = if data.is_empty() {
            1
        } else {
            data.len().div_ceil(row_bytes)
        };
        for row in 0..total_rows {
            let mut chunks: Vec<Vec<u8>> = Vec::with_capacity(data_chunks_per_row);
            for d in 0..data_chunks_per_row {
                let start = (row * row_bytes + d * self.chunk_size).min(data.len());
                let end = (start + self.chunk_size).min(data.len());
                let mut c = vec![0u8; self.chunk_size];
                c[..end - start].copy_from_slice(&data[start..end]);
                chunks.push(c);
            }
            let mut parity = vec![0u8; self.chunk_size];
            for c in &chunks {
                for (p, b) in parity.iter_mut().zip(c.iter()) {
                    *p ^= b;
                }
            }
            let parity_node = (n - 1) - (row % n);
            let mut data_iter = chunks.into_iter();
            for node_idx in 0..n {
                let chunk = if node_idx == parity_node {
                    Bytes::from(parity.clone())
                } else {
                    Bytes::from(data_iter.next().expect("one data chunk per node"))
                };
                if Some(node_idx) == self.failed {
                    continue;
                }
                self.nodes[node_idx]
                    .get_mut(name)
                    .expect("initialized above")
                    .push(chunk);
            }
        }
        total_rows
    }

    fn writes_per_row(&self) -> usize {
        self.nodes.len() - usize::from(self.failed.is_some())
    }
}

impl Store for Raid5Group {
    fn put(&mut self, name: &str, data: Bytes) -> Receipt {
        let total_rows = self.stripe(name, &data);
        let wire_bytes = (total_rows * self.writes_per_row() * self.chunk_size) as u64;
        Receipt {
            bytes: wire_bytes,
            seconds: self.bw.transfer_time(wire_bytes),
        }
    }

    fn append(&mut self, name: &str, data: Bytes) -> Receipt {
        let Some(&old_len) = self.sizes.get(name) else {
            return self.put(name, data);
        };
        let row_bytes = self.chunk_size * (self.nodes.len() - 1);
        let combined = match self.get(name) {
            Some(existing) => {
                let mut b = BytesMut::with_capacity(existing.len() + data.len());
                b.extend_from_slice(&existing);
                b.extend_from_slice(&data);
                b.freeze()
            }
            None => data,
        };
        let first_dirty_row = old_len / row_bytes;
        let total_rows = self.stripe(name, &combined);
        let touched = total_rows.saturating_sub(first_dirty_row).max(1);
        let wire_bytes = (touched * self.writes_per_row() * self.chunk_size) as u64;
        Receipt {
            bytes: wire_bytes,
            seconds: self.bw.transfer_time(wire_bytes),
        }
    }

    fn len(&self, name: &str) -> Option<usize> {
        self.sizes.get(name).copied()
    }

    fn read_range(&self, name: &str, off: usize, len: usize) -> Option<Bytes> {
        slice(self.get(name)?, off, len)
    }

    fn get(&self, name: &str) -> Option<Bytes> {
        let size = *self.sizes.get(name)?;
        let n = self.nodes.len();
        let rows = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != self.failed)
            .find_map(|(_, node)| node.get(name))
            .map(Vec::len)?;
        let mut out = BytesMut::with_capacity(size);
        for row in 0..rows {
            let parity_node = (n - 1) - (row % n);
            for node_idx in 0..n {
                if node_idx == parity_node {
                    continue;
                }
                let chunk: Bytes = if Some(node_idx) == self.failed {
                    self.reconstruct_chunk(name, row, node_idx)?
                } else {
                    self.nodes[node_idx].get(name)?.get(row)?.clone()
                };
                out.extend_from_slice(&chunk);
            }
        }
        let mut bytes = out.freeze();
        if bytes.len() < size {
            return None;
        }
        Some(bytes.split_to(size))
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
        let mut chunks = rows as u64 * (n as u64 - 1);
        if let Some(dead) = self.failed {
            chunks += (0..rows).filter(|row| (n - 1) - (row % n) != dead).count() as u64;
        }
        let bytes = chunks * self.chunk_size as u64;
        Some(Receipt {
            bytes,
            seconds: self.bw.transfer_time(bytes),
        })
    }

    fn delete(&mut self, name: &str) -> bool {
        let existed = self.sizes.remove(name).is_some();
        for node in &mut self.nodes {
            node.remove(name);
        }
        existed
    }

    fn stored_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .flat_map(|n| n.values())
            .flat_map(|rows| rows.iter())
            .map(|c| c.len() as u64)
            .sum()
    }
}
