//! Encode accounting and the deterministic latency cost model.
//!
//! The paper's AIC predicts the *delta latency* `dl` (time to read two
//! checkpoints, run delta compression, and write the delta back). In our
//! simulated testbed the compression runs on real data but virtual time, so
//! latency is charged through a [`CostModel`]: a linear model over the work
//! the encoder actually performed ([`EncodeReport`]). `repro bench`
//! measures the true wall-clock cost of the identical code path, keeping
//! the model honest.

/// What an encode run actually did — the drivers of its latency.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EncodeReport {
    /// Bytes of source data hashed into the block table.
    pub source_bytes: u64,
    /// Bytes of target data scanned.
    pub target_bytes: u64,
    /// Target bytes covered by COPY instructions (cheap: skipped in blocks).
    pub matched_bytes: u64,
    /// Target bytes emitted as ADD literals (expensive: rolled byte-by-byte
    /// and copied into the output).
    pub literal_bytes: u64,
    /// Size of the produced delta payload in bytes.
    pub delta_bytes: u64,
    /// Number of pages (or chunks) processed.
    pub pages: u64,
}

impl EncodeReport {
    /// Merge another report into this one (summing all counters).
    pub fn merge(&mut self, other: &EncodeReport) {
        self.source_bytes += other.source_bytes;
        self.target_bytes += other.target_bytes;
        self.matched_bytes += other.matched_bytes;
        self.literal_bytes += other.literal_bytes;
        self.delta_bytes += other.delta_bytes;
        self.pages += other.pages;
    }

    /// Compression ratio: delta bytes / target bytes (lower is better,
    /// matching the paper's Table 3 definition of *mean compression ratio*).
    pub fn ratio(&self) -> f64 {
        if self.target_bytes == 0 {
            0.0
        } else {
            self.delta_bytes as f64 / self.target_bytes as f64
        }
    }
}

/// Linear latency model for delta compression on the checkpointing core.
///
/// `latency = pages·page_overhead + (source+target)/scan_bw +
/// literal/literal_bw + delta/io_bw`
///
/// The compute constants are **re-derived from the optimized encoder's
/// measured throughput** (`repro bench` medians, `BENCH_delta.json`; hot
/// path, 4 KiB pages, so 8192 scanned bytes per page). Two calibration
/// points pin the three compute terms:
///
/// * small-edit hot ≈ 10 µs/page with ~150 literal bytes
///   → `2 µs + 8192/1.6e9 (≈5.1 µs) + 150/50e6 (≈3 µs)`;
/// * half-rewrite hot ≈ 48 µs/page with ~2048 literal bytes
///   → `2 µs + 5.1 µs + 2048/50e6 (≈41 µs)`.
///
/// `literal_bw` is deliberately low: an unmatched byte is not just copied,
/// it is *rolled over* byte-by-byte by the scan (hash roll + table probe
/// per byte), and that scan dominates literal-heavy encodes. Pages stored
/// raw (probe bail / failed delta) report `literal_bytes = PAGE_SIZE` and
/// are therefore overcharged — the raw store skips the scan — which keeps
/// the model a conservative upper bound on those pages. `io_bw` models the
/// testbed's local disk (paper's 7200-RPM SATA class), not the encoder,
/// and is unchanged by encoder optimizations; it dominates big deltas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-page overhead in seconds (fault bookkeeping, cache/probe
    /// setup). Paper footnote 1: per-hot-page metric cost is below 100 µs.
    pub page_overhead_s: f64,
    /// Source-hashing + target-scanning bandwidth, bytes/second.
    pub scan_bw: f64,
    /// Literal (unmatched byte) processing bandwidth, bytes/second.
    pub literal_bw: f64,
    /// Local-disk bandwidth for reading checkpoints and writing the delta,
    /// bytes/second.
    pub io_bw: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            page_overhead_s: 2e-6,
            scan_bw: 1.6e9,
            literal_bw: 50.0e6,
            io_bw: 100.0e6,
        }
    }
}

impl CostModel {
    /// Delta latency (seconds) for the work in `report`: read both
    /// checkpoints from local disk, compress, write the delta back —
    /// the paper's `dl` definition (Section II.B).
    pub fn delta_latency(&self, report: &EncodeReport) -> f64 {
        self.pooled_delta_latency(report, 1)
    }

    /// Delta latency when the page-wise compression is sharded over a pool
    /// of `cores` workers. Per-page compute (page bookkeeping, scanning,
    /// literal handling) divides across the pool; the local-disk I/O term
    /// is one spindle no matter how many cores compress, so it stays
    /// serial — an Amdahl split. `cores == 1` is exactly
    /// [`CostModel::delta_latency`].
    pub fn pooled_delta_latency(&self, report: &EncodeReport, cores: usize) -> f64 {
        let cores = cores.max(1) as f64;
        let io =
            (report.source_bytes + report.target_bytes + report.delta_bytes) as f64 / self.io_bw;
        let scan = (report.source_bytes + report.target_bytes) as f64 / self.scan_bw;
        let literal = report.literal_bytes as f64 / self.literal_bw;
        let compute = report.pages as f64 * self.page_overhead_s + scan + literal;
        io + compute / cores
    }

    /// Latency of plain (uncompressed) checkpoint I/O of `bytes`.
    pub fn raw_io_latency(&self, bytes: u64) -> f64 {
        bytes as f64 / self.io_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_basics() {
        let r = EncodeReport {
            target_bytes: 1000,
            delta_bytes: 250,
            ..Default::default()
        };
        assert!((r.ratio() - 0.25).abs() < 1e-12);
        assert_eq!(EncodeReport::default().ratio(), 0.0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = EncodeReport {
            source_bytes: 1,
            target_bytes: 2,
            matched_bytes: 3,
            literal_bytes: 4,
            delta_bytes: 5,
            pages: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.pages, 12);
        assert_eq!(a.delta_bytes, 10);
    }

    #[test]
    fn latency_monotone_in_literals() {
        let cm = CostModel::default();
        let mut low = EncodeReport {
            source_bytes: 1 << 20,
            target_bytes: 1 << 20,
            matched_bytes: 1 << 20,
            literal_bytes: 0,
            delta_bytes: 1 << 10,
            pages: 256,
        };
        let high = EncodeReport {
            literal_bytes: 1 << 20,
            delta_bytes: 1 << 20,
            ..low
        };
        low.delta_bytes = 1 << 10;
        assert!(cm.delta_latency(&high) > cm.delta_latency(&low));
    }

    #[test]
    fn pooled_latency_divides_compute_but_not_io() {
        let cm = CostModel::default();
        let r = EncodeReport {
            source_bytes: 64 << 20,
            target_bytes: 64 << 20,
            matched_bytes: 32 << 20,
            literal_bytes: 32 << 20,
            delta_bytes: 8 << 20,
            pages: 16384,
        };
        let serial = cm.pooled_delta_latency(&r, 1);
        assert!((serial - cm.delta_latency(&r)).abs() < 1e-15);
        let mut last = serial;
        for cores in [2usize, 4, 8] {
            let pooled = cm.pooled_delta_latency(&r, cores);
            assert!(pooled < last, "cores={cores}: {pooled} !< {last}");
            last = pooled;
        }
        // The serial I/O term is the floor no pool width can beat.
        let io_floor = (r.source_bytes + r.target_bytes + r.delta_bytes) as f64 / cm.io_bw;
        assert!(cm.pooled_delta_latency(&r, 1_000_000) >= io_floor);
    }

    #[test]
    fn latency_positive_and_scales_with_pages() {
        let cm = CostModel::default();
        let one = EncodeReport {
            pages: 1,
            ..Default::default()
        };
        let thousand = EncodeReport {
            pages: 1000,
            ..Default::default()
        };
        assert!(cm.delta_latency(&one) > 0.0);
        assert!(cm.delta_latency(&thousand) > 500.0 * cm.delta_latency(&one));
    }
}
