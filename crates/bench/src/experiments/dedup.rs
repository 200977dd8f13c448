//! `repro dedup` (extension — the content-addressed dedup store).
//!
//! At fleet scale most ranks dirty near-identical pages (same binaries,
//! shared dataset shards). This experiment drives a
//! [`SharedDatasetFleet`] persona — ≥4 ranks checkpointing into **one**
//! storage hierarchy as separate jobs — through the same commit schedule
//! twice, dedup off and dedup on, sweeping the shared fraction 0→100%:
//!
//! * **stored bytes** (L2 + L3): identical pages collapse to one chunk
//!   record plus per-rank reference frames;
//! * **wire bytes** (the write-behind L3 drain): a rank whose content the
//!   remote already holds ships a reference frame, not the payload;
//! * **encode time**: a dedup probe ([`StorageHierarchy::dedup_contains_page`])
//!   short-circuits identical pages past the encoder entirely — the probe
//!   is billed inside the measured window, so the reported saving is net
//!   of its cost.
//!
//! Full anchors at rounds 0 and 2 exercise the refcount path: a chunk
//! shared by four jobs is reclaimed only after the *last* job's anchor GC
//! drops its reference. The dedup-on hierarchy then proves per-rank
//! recovery bit-identical **before**, **mid-** (a crash-injected
//! compaction pass with reader pins held) and **after** compaction.

use std::time::Instant;

use aic_ckpt::dedup::DedupStats;
use aic_ckpt::fleet::SharedDatasetFleet;
use aic_ckpt::format::CheckpointFile;
use aic_ckpt::recovery::{CompactionPolicy, RecoveryError, StorageHierarchy};
use aic_delta::pa::{pa_encode, PaDeltaFile, PaParams, PageRecord};
use aic_memsim::{Page, PageIdx, Snapshot};
use bytes::Bytes;

use crate::experiments::RunScale;
use crate::output::{f, markdown_table};

/// Dirty pages split by the dedup probe: `(index, page)` borrows.
type PageRefs<'a> = Vec<(PageIdx, &'a Page)>;

/// Ranks sharing the dataset (the acceptance gate wants ≥ 4).
pub const RANKS: usize = 4;
/// Checkpoint rounds per rank (round 0 full, round 2 full anchor).
pub const ROUNDS: u64 = 4;
/// The round whose commit is a full anchor (triggers per-job GC).
const ANCHOR_ROUND: u64 = 2;

/// One overlap point of the sweep: both modes, same schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct DedupRow {
    /// Shared fraction of each rank's pages, percent.
    pub overlap_pct: u32,
    /// L2+L3 stored bytes, dedup off.
    pub stored_off: u64,
    /// L2+L3 stored bytes, dedup on.
    pub stored_on: u64,
    /// Write-behind wire bytes, dedup off.
    pub wire_off: u64,
    /// Write-behind wire bytes, dedup on.
    pub wire_on: u64,
    /// Encode wall-clock, dedup off (probe-free), nanoseconds: each
    /// commit's median run, summed.
    pub encode_ns_off: u64,
    /// Encode wall-clock, dedup on (probe cost included), nanoseconds:
    /// `encode_ns_off` plus each commit's median paired difference.
    pub encode_ns_on: u64,
    /// Dedup hits (spans that became references), L2+L3.
    pub hits: u64,
    /// Dedup misses (spans stored as new chunks), L2+L3.
    pub misses: u64,
    /// Byte-verify rejections of hash hits, L2+L3.
    pub verify_failures: u64,
    /// Chunks reclaimed after their last reference dropped, L2+L3.
    pub reclaims: u64,
    /// Every rank recovered bit-identically before compaction.
    pub identical_before: bool,
    /// …while a crashed compaction's orphan segments were present.
    pub identical_during: bool,
    /// …after the clean compaction pass + reclaim.
    pub identical_after: bool,
}

impl DedupRow {
    /// Stored-byte saving, `1 - on/off`.
    pub fn stored_saving(&self) -> f64 {
        1.0 - self.stored_on as f64 / self.stored_off as f64
    }

    /// Wire-byte saving, `1 - on/off`.
    pub fn wire_saving(&self) -> f64 {
        1.0 - self.wire_on as f64 / self.wire_off as f64
    }

    /// Encoder nanoseconds saved (negative = the probe cost more than it
    /// short-circuited).
    pub fn encode_saving_ns(&self) -> i64 {
        self.encode_ns_off as i64 - self.encode_ns_on as i64
    }
}

/// The full report of one `repro dedup` run.
#[derive(Debug, Clone, PartialEq)]
pub struct DedupReport {
    /// Ranks in the fleet.
    pub ranks: usize,
    /// Rounds committed per rank.
    pub rounds: u64,
    /// Pages per rank.
    pub pages_per_rank: usize,
    /// One row per overlap point, ascending.
    pub rows: Vec<DedupRow>,
}

impl DedupReport {
    /// The acceptance gate. Returns all violations (empty = pass):
    ///
    /// * recovery bit-identical per rank before/during/after compaction at
    ///   every overlap;
    /// * stored and wire savings monotone non-decreasing in overlap;
    /// * at 100% overlap: ≥ 60% stored and wire saving, positive net
    ///   encode saving, hits and refcount reclaims observed;
    /// * at 0% overlap: stored, wire and encode overhead each ≤ 5%.
    pub fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for r in &self.rows {
            if !(r.identical_before && r.identical_during && r.identical_after) {
                violations.push(format!(
                    "overlap {}%: recovery diverged (before={} during={} after={})",
                    r.overlap_pct, r.identical_before, r.identical_during, r.identical_after
                ));
            }
            if r.verify_failures > 0 {
                violations.push(format!(
                    "overlap {}%: {} byte-verify failures (hash collisions in a tiny fleet?)",
                    r.overlap_pct, r.verify_failures
                ));
            }
        }
        for pair in self.rows.windows(2) {
            if pair[1].stored_saving() + 1e-3 < pair[0].stored_saving() {
                violations.push(format!(
                    "stored saving not monotone: {:.1}% @ {}% > {:.1}% @ {}%",
                    pair[0].stored_saving() * 100.0,
                    pair[0].overlap_pct,
                    pair[1].stored_saving() * 100.0,
                    pair[1].overlap_pct
                ));
            }
            if pair[1].wire_saving() + 1e-3 < pair[0].wire_saving() {
                violations.push(format!(
                    "wire saving not monotone: {:.1}% @ {}% > {:.1}% @ {}%",
                    pair[0].wire_saving() * 100.0,
                    pair[0].overlap_pct,
                    pair[1].wire_saving() * 100.0,
                    pair[1].overlap_pct
                ));
            }
        }
        if let Some(first) = self.rows.first().filter(|r| r.overlap_pct == 0) {
            if first.stored_on as f64 > first.stored_off as f64 * 1.05 {
                violations.push(format!(
                    "0% overlap: stored overhead {:.1}% > 5%",
                    -first.stored_saving() * 100.0
                ));
            }
            if first.wire_on as f64 > first.wire_off as f64 * 1.05 {
                violations.push(format!(
                    "0% overlap: wire overhead {:.1}% > 5%",
                    -first.wire_saving() * 100.0
                ));
            }
            if first.encode_ns_on as f64 > first.encode_ns_off as f64 * 1.05 {
                violations.push(format!(
                    "0% overlap: probe overhead {}ns on {}ns encode > 5%",
                    -first.encode_saving_ns(),
                    first.encode_ns_off
                ));
            }
        }
        if let Some(last) = self.rows.last().filter(|r| r.overlap_pct == 100) {
            if last.stored_saving() < 0.60 {
                violations.push(format!(
                    "100% overlap: stored saving {:.1}% < 60%",
                    last.stored_saving() * 100.0
                ));
            }
            if last.wire_saving() < 0.60 {
                violations.push(format!(
                    "100% overlap: wire saving {:.1}% < 60%",
                    last.wire_saving() * 100.0
                ));
            }
            if last.encode_saving_ns() <= 0 {
                violations.push(format!(
                    "100% overlap: no net encode saving ({}ns)",
                    last.encode_saving_ns()
                ));
            }
            if last.hits == 0 {
                violations.push("100% overlap: no dedup hits".into());
            }
            if last.reclaims == 0 {
                violations.push("100% overlap: anchor GC reclaimed no chunks".into());
            }
        }
        violations
    }
}

/// What one mode (dedup on or off) of one overlap point produced.
struct ModeOutcome {
    stored: u64,
    wire: u64,
    /// Probe + encode nanoseconds (dedup-on runs only, else 0).
    encode_ns_on: u64,
    /// Paired probe-free baseline encode of the same dirty sets, measured
    /// back-to-back in the same run so scheduler jitter cancels (dedup-on
    /// runs only, else 0).
    encode_ns_off: u64,
    stats: Option<[DedupStats; 2]>,
    hier: StorageHierarchy,
}

/// Wall-clock nanoseconds of one run of `work`, plus its result.
fn time_ns<T>(work: &mut impl FnMut() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = work();
    (out, started.elapsed().as_nanos() as u64)
}

/// Back-to-back pairs of timed runs per paired measurement.
const PAIRED_RUNS: usize = 15;

/// Time `off` and `on` back to back, [`PAIRED_RUNS`] pairs (`off` first
/// when `off_first`). Returns `on`'s output with the two times `(on, off)`:
/// `off`'s median run, and that plus the median per-pair difference
/// `on - off`. Both runs of a pair see the same host load, so a spike or a
/// lull cancels out of their difference; per-side minima do not pair up,
/// and one lucky run on either side moves them.
fn time_paired<T, U>(
    off_first: bool,
    mut off: impl FnMut() -> U,
    mut on: impl FnMut() -> T,
) -> (T, u64, u64) {
    let mut off_ns = Vec::with_capacity(PAIRED_RUNS);
    let mut diff_ns = Vec::with_capacity(PAIRED_RUNS);
    let mut out = None;
    for _ in 0..PAIRED_RUNS {
        let mut off_run = 0;
        if off_first {
            off_run = time_ns(&mut off).1;
        }
        let (o, on_run) = time_ns(&mut on);
        out = Some(o);
        if !off_first {
            off_run = time_ns(&mut off).1;
        }
        off_ns.push(off_run);
        diff_ns.push(on_run as i64 - off_run as i64);
    }
    off_ns.sort_unstable();
    diff_ns.sort_unstable();
    let off_median = off_ns[PAIRED_RUNS / 2];
    let on_ns = off_median.saturating_add_signed(diff_ns[PAIRED_RUNS / 2]);
    (out.expect("at least one pair"), on_ns, off_median)
}

/// Drive the fleet through the commit schedule against a fresh hierarchy.
fn run_mode(fleet: &SharedDatasetFleet, rounds: u64, dedup_on: bool) -> ModeOutcome {
    let mut hier = StorageHierarchy::coastal(4);
    if dedup_on {
        hier.enable_dedup();
    }
    // Dead prefixes stay on disk until the explicit compaction phase, so
    // the stored-byte comparison sees everything each mode appended.
    hier.set_compaction(CompactionPolicy {
        auto: false,
        garbage_threshold: 0.5,
    });
    let params = PaParams::default();
    let pages: Vec<PageIdx> = (0..fleet.pages_per_rank() as u64).collect();
    let mut prev: Vec<Snapshot> = (0..fleet.ranks()).map(|k| fleet.snapshot(k, 0)).collect();
    let mut wire = 0u64;
    let mut encode_ns_on = 0u64;
    let mut encode_ns_off = 0u64;

    for round in 0..rounds {
        // `prev` is updated per rank after the commit, so the index is real.
        #[allow(clippy::needless_range_loop)]
        for rank in 0..fleet.ranks() {
            let seq = round * fleet.ranks() as u64 + rank as u64 + 1;
            let file = if round == 0 || round == ANCHOR_ROUND {
                CheckpointFile::full(rank as u64, seq, fleet.snapshot(rank, round), Bytes::new())
            } else {
                let dirty = fleet.dirty(rank, round);
                let mut records = if dedup_on {
                    // The dedup probe: pages whose exact content is already
                    // a live chunk skip the encoder and commit raw — the
                    // store turns them into references. Timed back-to-back
                    // against the probe-free baseline on the same state
                    // (order alternating by seq) so the reported saving is
                    // a paired measurement, net of probe cost.
                    let probe_and_encode = || {
                        let (skip, encode): (PageRefs, PageRefs) = dirty
                            .iter()
                            .partition(|(_, page)| hier.dedup_contains_page(page.as_slice()));
                        let df = if skip.is_empty() {
                            pa_encode(&prev[rank], &dirty, &params).0
                        } else {
                            let rest = Snapshot::from_pages(
                                encode.iter().map(|(idx, page)| (*idx, (*page).clone())),
                            );
                            pa_encode(&prev[rank], &rest, &params).0
                        };
                        (df, skip)
                    };
                    let baseline = || pa_encode(&prev[rank], &dirty, &params);
                    let ((df, skip), on_ns, off_ns) =
                        time_paired(seq.is_multiple_of(2), baseline, probe_and_encode);
                    encode_ns_on += on_ns;
                    encode_ns_off += off_ns;
                    let mut records = df.records;
                    records.extend(skip.into_iter().map(|(idx, page)| PageRecord::Raw {
                        idx,
                        data: Bytes::copy_from_slice(page.as_slice()),
                    }));
                    records
                } else {
                    pa_encode(&prev[rank], &dirty, &params).0.records
                };
                records.sort_by_key(PageRecord::idx);
                CheckpointFile::delta(
                    rank as u64,
                    seq,
                    PaDeltaFile { records },
                    pages.clone(),
                    Bytes::new(),
                )
            };
            let (_receipt, w) = hier.commit_write_behind(&file).unwrap();
            wire += w;
            hier.ack_remote(seq).unwrap();
            if round > 0 {
                prev[rank] = fleet.snapshot(rank, round);
            }
        }
    }

    let stored = hier.stored_bytes();
    ModeOutcome {
        stored: stored[1] + stored[2],
        wire,
        encode_ns_on,
        encode_ns_off,
        stats: hier.dedup_stats(),
        hier,
    }
}

/// Per-rank bit-identity of L2 and L3 recovery against the fleet truth.
fn ranks_identical(hier: &StorageHierarchy, fleet: &SharedDatasetFleet, round: u64) -> bool {
    (0..fleet.ranks()).all(|rank| {
        let truth = fleet.snapshot(rank, round);
        [2usize, 3].iter().all(|&level| {
            hier.recover_job(level, rank as u64)
                .map(|img| img.snapshot == truth)
                .unwrap_or(false)
        })
    })
}

/// Run the overlap sweep. `quick` (CI) sweeps {0, 50, 100}; the full run
/// adds the quartile points.
pub fn run(scale: &RunScale) -> DedupReport {
    let quick = scale.footprint < 1.0;
    let overlaps: &[u32] = if quick {
        &[0, 50, 100]
    } else {
        &[0, 25, 50, 75, 100]
    };
    let pages_per_rank = if quick { 24 } else { 64 };
    let rows = overlaps
        .iter()
        .map(|&overlap_pct| {
            let fleet = SharedDatasetFleet::new(RANKS, pages_per_rank, overlap_pct, scale.seed);
            let off = run_mode(&fleet, ROUNDS, false);
            let on = run_mode(&fleet, ROUNDS, true);
            let [l2, l3] = on.stats.expect("dedup-on mode must report stats");

            // Recovery identity on the dedup-on hierarchy: before, during a
            // crash-injected compaction (pins held), and after the clean
            // pass + reclaim.
            let mut hier = on.hier;
            let last = ROUNDS - 1;
            let identical_before = ranks_identical(&hier, &fleet, last);
            let pins = hier.pin_readers();
            let mut identical_during = true;
            for level in 2..=3usize {
                match hier.compact_level(level, Some(1)) {
                    Ok(_) | Err(RecoveryError::CompactionCrashed) => {}
                    Err(e) => panic!("L{level} compaction failed: {e}"),
                }
                identical_during &= ranks_identical(&hier, &fleet, last);
            }
            hier.unpin_readers(pins);
            hier.compact().unwrap();
            hier.try_reclaim_all();
            let identical_after = ranks_identical(&hier, &fleet, last);

            DedupRow {
                overlap_pct,
                stored_off: off.stored,
                stored_on: on.stored,
                wire_off: off.wire,
                wire_on: on.wire,
                encode_ns_off: on.encode_ns_off,
                encode_ns_on: on.encode_ns_on,
                hits: l2.hits + l3.hits,
                misses: l2.misses + l3.misses,
                verify_failures: l2.verify_failures + l3.verify_failures,
                reclaims: l2.reclaims + l3.reclaims,
                identical_before,
                identical_during,
                identical_after,
            }
        })
        .collect();
    DedupReport {
        ranks: RANKS,
        rounds: ROUNDS,
        pages_per_rank,
        rows,
    }
}

/// Render the report.
pub fn render(report: &DedupReport) -> String {
    let mut out = format!(
        "{} ranks × {} rounds × {} pages, write-behind L3, anchors at rounds 0 and {}\n\n",
        report.ranks, report.rounds, report.pages_per_rank, ANCHOR_ROUND
    );
    out.push_str(&markdown_table(
        &[
            "overlap",
            "stored off (KiB)",
            "stored on (KiB)",
            "saved",
            "wire off (KiB)",
            "wire on (KiB)",
            "saved",
            "encode saved (µs)",
            "hits",
            "reclaims",
            "identity",
        ],
        &report
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}%", r.overlap_pct),
                    f(r.stored_off as f64 / 1024.0),
                    f(r.stored_on as f64 / 1024.0),
                    format!("{:.1}%", r.stored_saving() * 100.0),
                    f(r.wire_off as f64 / 1024.0),
                    f(r.wire_on as f64 / 1024.0),
                    format!("{:.1}%", r.wire_saving() * 100.0),
                    f(r.encode_saving_ns() as f64 / 1000.0),
                    r.hits.to_string(),
                    r.reclaims.to_string(),
                    if r.identical_before && r.identical_during && r.identical_after {
                        "yes".to_string()
                    } else {
                        "NO".to_string()
                    },
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_sweep_passes_its_own_gate() {
        let report = run(&RunScale::quick());
        let violations = report.check();
        assert!(violations.is_empty(), "{violations:#?}");
        let last = report.rows.last().unwrap();
        assert!(last.stored_saving() >= 0.60, "{last:?}");
        assert!(last.wire_saving() >= 0.60, "{last:?}");
        assert!(last.misses > 0, "first-sight chunks must be stored");
        let rendered = render(&report);
        assert!(rendered.contains("overlap"));
    }

    #[test]
    fn dedup_off_and_on_recover_the_same_images() {
        let fleet = SharedDatasetFleet::new(RANKS, 12, 50, 9);
        let off = run_mode(&fleet, ROUNDS, false);
        let on = run_mode(&fleet, ROUNDS, true);
        for rank in 0..RANKS {
            let a = off.hier.recover_job(3, rank as u64).unwrap().snapshot;
            let b = on.hier.recover_job(3, rank as u64).unwrap().snapshot;
            assert_eq!(a, b, "rank {rank} diverged between modes");
            assert_eq!(a, fleet.snapshot(rank, ROUNDS - 1), "rank {rank} wrong");
        }
    }
}
