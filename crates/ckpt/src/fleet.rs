//! Fleet execution: several processes sharing **one** checkpointing core.
//!
//! Fig. 7 models the sharing factor analytically (worst-case even split of
//! the core's resources). This module measures it operationally instead:
//! every process runs its own checkpoint policy, but compression + remote
//! transfer jobs from all of them enter a single FIFO on the shared core's
//! virtual timeline. Queueing delay — not an assumed even split — is what
//! stretches each checkpoint's effective transfer window, and a process may
//! not cut again until its previous job has drained (the paper's
//! single-core rule, now contended).

use aic_core::{CheckpointPolicy, Decision, DecisionCtx, IntervalRecord};
use aic_delta::pa::{pa_encode, PaParams};
use aic_memsim::{Page, SimProcess, SimTime, Snapshot, PAGE_SIZE};
use aic_model::nonstatic::IntervalParams;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::engine::{score_net2, Compressor, EngineConfig, EngineReport, TICK};

/// Per-process outcome of a fleet run (an [`EngineReport`] with the shared
/// core's queueing baked into the interval parameters).
pub type FleetReport = EngineReport;

/// Shared-dataset fleet persona: `ranks` processes checkpointing one
/// logical dataset (the dedup study's workload shape).
///
/// Each rank's address space holds `pages_per_rank` pages. A configurable
/// fraction (`overlap_pct`) is **shared**: those pages hold bytes identical
/// across every rank (same binaries, same dataset shards) and each round
/// rewrites them *identically* on every rank — full-page rewrites with
/// fresh round-keyed content, the regime where the delta encoder stores
/// raw pages and the dedup store can collapse the fleet's copies to one.
/// The remaining pages are **private**: per-rank base content that each
/// round perturbs with a small (≈256-byte) rank-and-round-keyed edit — the
/// per-rank private deltas that must keep flowing through the encoder
/// untouched by dedup.
///
/// Everything is a pure function of `(seed, rank, page, round)`, so any
/// state at any round can be reconstructed independently — the experiment
/// harness uses this for bit-identity checks after recovery.
///
/// Working-set sizes may differ per rank ([`Self::heterogeneous`]): a
/// shared page's content depends only on `(seed, page, round)`, never on
/// the rank, so shared pages dedup across ranks of *different* sizes too
/// (smaller ranks simply hold a prefix of the shared region).
#[derive(Debug, Clone)]
pub struct SharedDatasetFleet {
    /// Pages held by each rank (`len()` is the rank count).
    pages: Vec<usize>,
    overlap_pct: u32,
    seed: u64,
}

impl SharedDatasetFleet {
    /// A fleet of `ranks` processes with `pages_per_rank` pages each, of
    /// which `overlap_pct`% (0–100) are shared across all ranks.
    pub fn new(ranks: usize, pages_per_rank: usize, overlap_pct: u32, seed: u64) -> Self {
        assert!(ranks >= 1);
        Self::heterogeneous(vec![pages_per_rank; ranks], overlap_pct, seed)
    }

    /// A fleet with per-rank working-set sizes (`pages_per_rank[r]` pages
    /// on rank `r`), of which `overlap_pct`% are shared. Shared content is
    /// rank-independent, so two ranks of different sizes still hold
    /// identical bytes over their common shared-page prefix.
    pub fn heterogeneous(pages_per_rank: Vec<usize>, overlap_pct: u32, seed: u64) -> Self {
        assert!(!pages_per_rank.is_empty(), "a fleet needs at least 1 rank");
        assert!(
            pages_per_rank.iter().all(|&p| p >= 1),
            "every rank needs at least 1 page"
        );
        assert!(overlap_pct <= 100, "overlap is a percentage");
        SharedDatasetFleet {
            pages: pages_per_rank,
            overlap_pct,
            seed,
        }
    }

    /// Number of ranks in the fleet.
    pub fn ranks(&self) -> usize {
        self.pages.len()
    }

    /// Pages per rank, for uniform fleets built with
    /// [`SharedDatasetFleet::new`].
    ///
    /// # Panics
    /// If the fleet is heterogeneous — use [`Self::pages_of`] then.
    pub fn pages_per_rank(&self) -> usize {
        let first = self.pages[0];
        assert!(
            self.pages.iter().all(|&p| p == first),
            "pages_per_rank() on a heterogeneous fleet; use pages_of(rank)"
        );
        first
    }

    /// Pages held by `rank`.
    pub fn pages_of(&self, rank: usize) -> usize {
        self.pages[rank]
    }

    /// How many of each rank's pages are shared across the fleet, for
    /// uniform fleets (see [`Self::pages_per_rank`]).
    pub fn shared_pages(&self) -> usize {
        self.pages_per_rank() * self.overlap_pct as usize / 100
    }

    /// How many of `rank`'s pages are shared across the fleet.
    pub fn shared_pages_of(&self, rank: usize) -> usize {
        self.pages_of(rank) * self.overlap_pct as usize / 100
    }

    fn rng(&self, tag: u64, a: u64, b: u64, c: u64) -> StdRng {
        // Distinct odd multipliers keep (tag, rank, page, round) streams
        // independent; StdRng's seeding mixes the result further.
        StdRng::seed_from_u64(
            self.seed
                ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ a.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ b.wrapping_mul(0x2545_F491_4F6C_DD1D)
                ^ c.wrapping_mul(0xFF51_AFD7_ED55_8CCD),
        )
    }

    fn page(&self, rank: usize, idx: u64, round: u64) -> Page {
        let mut page = Page::zeroed();
        if (idx as usize) < self.shared_pages_of(rank) {
            // Shared: identical on every rank, fully rewritten each round.
            self.rng(1, 0, idx, round).fill_bytes(page.as_mut_slice());
        } else {
            // Private: stable per-rank base + one small round-keyed edit.
            self.rng(2, rank as u64, idx, 0)
                .fill_bytes(page.as_mut_slice());
            if round > 0 {
                let mut edit = self.rng(3, rank as u64, idx, round);
                let offset = edit.gen_range(0..PAGE_SIZE - 256);
                let mut patch = [0u8; 256];
                edit.fill_bytes(&mut patch);
                page.write_at(offset, &patch);
            }
        }
        page
    }

    /// The full state of `rank` at `round` (round 0 is the initial state).
    pub fn snapshot(&self, rank: usize, round: u64) -> Snapshot {
        assert!(rank < self.ranks());
        Snapshot::from_pages(
            (0..self.pages_of(rank) as u64).map(|idx| (idx, self.page(rank, idx, round))),
        )
    }

    /// The pages of `rank` dirtied by `round` (≥ 1): every shared page
    /// (fully rewritten) and every private page (small edit moved).
    pub fn dirty(&self, rank: usize, round: u64) -> Snapshot {
        assert!(round >= 1, "round 0 is the initial full state");
        self.snapshot(rank, round)
    }
}

/// Run `processes` under their `policies` with one shared checkpointing
/// core. All processes advance on the same virtual clock in one-second
/// decision ticks. Only [`Compressor::PaDelta`] is supported (the fleet
/// exists to study the compression core).
pub fn run_fleet(
    processes: Vec<SimProcess>,
    mut policies: Vec<Box<dyn CheckpointPolicy>>,
    config: &EngineConfig,
) -> Vec<FleetReport> {
    assert_eq!(processes.len(), policies.len());
    let pa = match config.compressor {
        Compressor::PaDelta(p) => p,
        _ => PaParams::default(),
    };

    struct Slot {
        process: SimProcess,
        prev_state: Snapshot,
        records: Vec<IntervalRecord>,
        last_cut: f64,
        seq: u64,
        /// Virtual time when this process's in-flight job finishes on the
        /// shared core (drain rule).
        job_done_at: f64,
        blocking: f64,
        initial_params: IntervalParams,
    }

    let mut slots: Vec<Slot> = processes
        .into_iter()
        .map(|mut p| {
            p.run_until(SimTime::ZERO);
            let full = p.snapshot();
            let c1_full = config.cost_model.raw_io_latency(full.bytes());
            let initial_params = IntervalParams::symmetric(
                c1_full,
                c1_full + full.bytes() as f64 / config.b2,
                c1_full + full.bytes() as f64 / config.b3,
            );
            p.cut_interval();
            Slot {
                prev_state: full,
                process: p,
                records: Vec::new(),
                last_cut: 0.0,
                seq: 0,
                job_done_at: 0.0,
                blocking: c1_full,
                initial_params,
            }
        })
        .collect();

    // The shared core's FIFO horizon.
    let mut core_busy_until = 0.0f64;

    loop {
        let all_done = slots.iter().all(|s| s.process.is_done());
        if all_done {
            break;
        }
        // Advance every process one tick (they share the virtual clock).
        let tick_to = slots
            .iter()
            .map(|s| s.process.now().as_secs())
            .fold(0.0, f64::max)
            + TICK;
        for s in &mut slots {
            s.process.run_until(SimTime::from_secs(tick_to));
        }
        let now = tick_to;

        for (i, s) in slots.iter_mut().enumerate() {
            if s.process.is_done() {
                continue;
            }
            let ctx = DecisionCtx {
                now,
                elapsed: now - s.last_cut,
                interval_index: s.seq,
                dirty_pages: s.process.space().dirty_page_count(),
                space: s.process.space(),
                prev_pages: &s.prev_state,
                last_record: s.records.last(),
            };
            s.blocking += policies[i].decision_cost();
            let mut want = policies[i].decide(&ctx) == Decision::Checkpoint;
            if want && now < s.job_done_at {
                want = false; // own transfer still draining
            }
            if !want {
                continue;
            }

            // Cut: compress against this process's previous state; the job
            // enters the shared core FIFO.
            let dirty_log = s.process.cut_interval();
            let dirty = s.process.snapshot_pages(dirty_log.iter().map(|d| d.page));
            let raw_bytes = dirty.bytes();
            let (file, report) = pa_encode(&s.prev_state, &dirty, &pa);
            let ds = file.wire_len();
            let c1 = config.cost_model.raw_io_latency(raw_bytes);
            let dl = config.cost_model.delta_latency(&report);
            let job_len = dl + ds as f64 / config.b2 + ds as f64 / config.b3;
            let start = core_busy_until.max(now);
            let finish = start + job_len;
            core_busy_until = finish;
            s.job_done_at = finish;

            // Effective level costs include the queueing delay: the window
            // during which this checkpoint is not yet remote stretches to
            // the job's actual completion on the contended core.
            let c3_eff = c1 + (finish - now);
            let c2_eff = (c1 + dl + ds as f64 / config.b2).min(c3_eff);
            let rec = IntervalRecord {
                seq: s.seq,
                w: now - s.last_cut,
                c1,
                dl,
                ds_bytes: ds,
                raw_bytes,
                dirty_pages: dirty.len(),
                params: IntervalParams::symmetric(c1, c2_eff, c3_eff),
            };
            policies[i].observe(&rec);
            s.records.push(rec);
            s.blocking += c1;

            let live: Vec<u64> = s.process.space().page_indices().collect();
            s.prev_state.overlay(&dirty);
            let keep: std::collections::BTreeSet<u64> = live.into_iter().collect();
            s.prev_state.retain_indices(&keep);
            s.last_cut = now;
            s.seq += 1;
        }
    }

    slots
        .into_iter()
        .zip(policies.iter())
        .map(|(mut s, policy)| {
            let base_time = s.process.base_time().as_secs();
            let tail = s.process.now().as_secs() - s.last_cut;
            if tail > 1e-9 {
                s.records.push(IntervalRecord::tail(s.seq, tail, 0));
            }
            let net2 = score_net2(&s.records, &s.initial_params, &config.rates, base_time);
            EngineReport {
                workload: s.process.name().to_string(),
                policy: policy.name().to_string(),
                base_time,
                wall_time: base_time + s.blocking,
                intervals: s.records,
                net2,
                initial_params: s.initial_params,
                chain: None,
                final_state: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aic_core::baselines::FixedIntervalPolicy;
    use aic_memsim::workloads::generic::StreamingWorkload;
    use aic_memsim::workloads::WriteStyle;
    use aic_model::FailureRates;

    fn config() -> EngineConfig {
        let mut cfg =
            EngineConfig::testbed(FailureRates::three(2e-7, 1.8e-6, 4e-7).with_total(1e-3));
        cfg.b3 = 300e3; // congested remote share: contention is visible
        cfg
    }

    fn fleet(n: usize, secs: f64) -> (Vec<SimProcess>, Vec<Box<dyn CheckpointPolicy>>) {
        let processes = (0..n)
            .map(|i| {
                SimProcess::new(Box::new(StreamingWorkload::new(
                    format!("p{i}"),
                    i as u64 + 1,
                    256,
                    3,
                    WriteStyle::PartialEntropy(400),
                    SimTime::from_secs(secs),
                )))
            })
            .collect();
        let policies = (0..n)
            .map(|_| Box::new(FixedIntervalPolicy::new(8.0)) as Box<dyn CheckpointPolicy>)
            .collect();
        (processes, policies)
    }

    #[test]
    fn shared_dataset_pages_are_identical_across_ranks_and_private_pages_are_not() {
        let fleet = SharedDatasetFleet::new(4, 10, 50, 42);
        assert_eq!(fleet.shared_pages(), 5);
        for round in 0..3u64 {
            let snaps: Vec<Snapshot> = (0..4).map(|r| fleet.snapshot(r, round)).collect();
            for idx in 0..10u64 {
                let p0 = snaps[0].get(idx).unwrap();
                for s in &snaps[1..] {
                    let p = s.get(idx).unwrap();
                    if idx < 5 {
                        assert_eq!(p0.as_slice(), p.as_slice(), "shared page {idx} diverged");
                    } else {
                        assert_ne!(p0.as_slice(), p.as_slice(), "private page {idx} collided");
                    }
                }
            }
        }
    }

    #[test]
    fn shared_dataset_rounds_rewrite_shared_fully_and_private_slightly() {
        let fleet = SharedDatasetFleet::new(2, 8, 50, 7);
        let before = fleet.snapshot(0, 1);
        let after = fleet.dirty(0, 2);
        for idx in 0..8u64 {
            let d = before.get(idx).unwrap().diff_bytes(after.get(idx).unwrap());
            if idx < 4 {
                assert!(d > PAGE_SIZE / 2, "shared page {idx}: only {d} bytes moved");
            } else {
                assert!(
                    d > 0 && d <= 512,
                    "private page {idx}: {d} bytes moved, want a small edit"
                );
            }
        }
        // Determinism: any (rank, round) state reconstructs bit-identically.
        let again = fleet.snapshot(0, 2);
        for idx in 0..8u64 {
            assert_eq!(
                after.get(idx).unwrap().as_slice(),
                again.get(idx).unwrap().as_slice()
            );
        }
    }

    #[test]
    fn shared_dataset_overlap_extremes() {
        let none = SharedDatasetFleet::new(3, 6, 0, 1);
        assert_eq!(none.shared_pages(), 0);
        let all = SharedDatasetFleet::new(3, 6, 100, 1);
        assert_eq!(all.shared_pages(), 6);
        let a = all.snapshot(0, 1);
        let b = all.snapshot(2, 1);
        for idx in 0..6u64 {
            assert_eq!(
                a.get(idx).unwrap().as_slice(),
                b.get(idx).unwrap().as_slice()
            );
        }
    }

    #[test]
    fn heterogeneous_fleet_keeps_purity_and_shares_common_prefix() {
        let fleet = SharedDatasetFleet::heterogeneous(vec![4, 12, 8], 50, 11);
        assert_eq!(fleet.ranks(), 3);
        assert_eq!(fleet.pages_of(1), 12);
        assert_eq!(fleet.shared_pages_of(1), 6);
        assert_eq!(fleet.shared_pages_of(0), 2);
        for round in 0..3u64 {
            // Shared content is rank-independent: the small rank's shared
            // pages match the big rank's over the common prefix.
            let small = fleet.snapshot(0, round);
            let big = fleet.snapshot(1, round);
            for idx in 0..2u64 {
                assert_eq!(
                    small.get(idx).unwrap().as_slice(),
                    big.get(idx).unwrap().as_slice(),
                    "shared page {idx} diverged across rank sizes"
                );
            }
            // Purity: any (rank, round) state reconstructs bit-identically.
            assert_eq!(big, fleet.snapshot(1, round));
        }
    }

    #[test]
    #[should_panic(expected = "heterogeneous")]
    fn pages_per_rank_panics_on_heterogeneous_fleet() {
        let _ = SharedDatasetFleet::heterogeneous(vec![2, 3], 0, 1).pages_per_rank();
    }

    #[test]
    fn fleet_runs_all_processes_to_completion() {
        let (p, pol) = fleet(3, 40.0);
        let reports = run_fleet(p, pol, &config());
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.net2 >= 1.0);
            assert!(
                r.intervals.iter().filter(|x| x.raw_bytes > 0).count() >= 2,
                "{}: too few checkpoints",
                r.workload
            );
        }
    }

    #[test]
    fn contention_stretches_effective_windows() {
        // The same workload alone vs in an 8-way fleet: the fleet's
        // effective c3 must be larger (queueing), and NET² no better.
        let cfg = config();
        let (p1, pol1) = fleet(1, 40.0);
        let alone = run_fleet(p1, pol1, &cfg);
        let (p8, pol8) = fleet(8, 40.0);
        let shared = run_fleet(p8, pol8, &cfg);

        let mean_c3 = |r: &EngineReport| {
            let cks: Vec<&IntervalRecord> =
                r.intervals.iter().filter(|x| x.raw_bytes > 0).collect();
            cks.iter().map(|x| x.params.c[2]).sum::<f64>() / cks.len() as f64
        };
        let c3_alone = mean_c3(&alone[0]);
        let c3_shared = mean_c3(&shared[0]);
        assert!(
            c3_shared > c3_alone * 1.5,
            "alone {c3_alone:.2}s vs shared {c3_shared:.2}s"
        );
        assert!(shared[0].net2 >= alone[0].net2 - 1e-9);
    }

    #[test]
    fn drain_rule_holds_per_process() {
        let (p, pol) = fleet(4, 40.0);
        let reports = run_fleet(p, pol, &config());
        for r in &reports {
            let cks: Vec<&IntervalRecord> =
                r.intervals.iter().filter(|x| x.raw_bytes > 0).collect();
            for pair in cks.windows(2) {
                // Next cut happens after the previous job drained: the gap
                // is at least the previous effective window minus c1, minus
                // one decision tick of quantization.
                assert!(
                    pair[1].w + 1.0 + 1e-6 >= pair[0].params.transfer(3),
                    "{}: w={} transfer={}",
                    r.workload,
                    pair[1].w,
                    pair[0].params.transfer(3)
                );
            }
        }
    }
}
