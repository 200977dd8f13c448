//! The degraded-commit matrix and the checkpoint-log epoch properties.
//!
//! The storage hierarchy persists through append-only logs with mark-dead
//! truncation, compaction and epoch-based reclamation. These tests pin the
//! interleavings that made the old per-object stores lose data:
//!
//! * committing **while the RAID group is degraded** (every victim node),
//!   then recovering bit-identically from each surviving level;
//! * a failure landing **between** a write-behind anchor's L1/L2
//!   truncation and its own L3 acknowledgement — the window where L3's
//!   only durable chain is the superseded one;
//! * a compaction pass **crashing mid-copy** (seeds x crash points), with
//!   reader pins held across the crash;
//! * a proptest that a pinned reader never observes a reclaimed segment,
//!   whatever mark-dead/compact/reclaim schedule runs under it.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use aic::ckpt::format::{CheckpointFile, CheckpointKind};
use aic::ckpt::log::CheckpointLog;
use aic::ckpt::recovery::{CompactionPolicy, RecoveryError, RecoveryLevel, StorageHierarchy};
use aic::ckpt::storage::{BandwidthModel, FlatStore, Raid5Group};
use aic::memsim::{Page, Snapshot, PAGE_SIZE};

fn page(seed: u64) -> Page {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = vec![0u8; PAGE_SIZE];
    rng.fill(&mut b[..]);
    Page::from_bytes(&b)
}

/// Coastal channel models with a fine-grained (1 KiB chunk) RAID stripe so
/// storage assertions see real byte movement, not row quantization.
fn hierarchy() -> StorageHierarchy {
    StorageHierarchy::new(
        FlatStore::new(BandwidthModel::new(100e6, 1e-3)),
        Raid5Group::new(4, 1024, BandwidthModel::new(471.7e6, 1e-3)),
        FlatStore::new(BandwidthModel::new(2e6, 10e-3)),
    )
}

/// Commit a 3-checkpoint chain seeded from `seed`; returns the hierarchy
/// and the expected final image.
fn committed_chain(seed: u64) -> (StorageHierarchy, Snapshot) {
    let mut h = hierarchy();
    let full = Snapshot::from_pages([(0, page(seed)), (1, page(seed + 1)), (2, page(seed + 2))]);
    h.commit(&CheckpointFile::full(1, 0, full.clone(), Bytes::new()))
        .unwrap();
    let mut state = full;
    state.insert(1, page(seed + 10));
    h.commit(&CheckpointFile::incremental(
        1,
        1,
        Snapshot::from_pages([(1, page(seed + 10))]),
        vec![0, 1, 2],
        Bytes::new(),
    ))
    .unwrap();
    state.insert(0, page(seed + 20));
    h.commit(&CheckpointFile::incremental(
        1,
        2,
        Snapshot::from_pages([(0, page(seed + 20))]),
        vec![0, 1, 2],
        Bytes::new(),
    ))
    .unwrap();
    (h, state)
}

#[test]
fn commits_while_raid_degraded_recover_bit_identically_everywhere() {
    for victim in 0..4usize {
        let (mut h, mut state) = committed_chain(victim as u64 * 100);
        h.fail_job(1, 2).unwrap();
        h.fail_raid_node(victim);
        assert!(h.raid().is_degraded());

        // Keep committing while degraded — including a full anchor, so
        // truncation and auto-compaction both run against the degraded
        // group. The failed node must stay empty throughout (satellite-1
        // semantics: degraded writes never resurrect a dead node).
        state.insert(2, page(1000 + victim as u64));
        h.commit(&CheckpointFile::incremental(
            1,
            3,
            Snapshot::from_pages([(2, page(1000 + victim as u64))]),
            vec![0, 1, 2],
            Bytes::new(),
        ))
        .unwrap();
        let anchor = Snapshot::from_pages([(0, page(2000)), (1, page(2001))]);
        h.commit(&CheckpointFile::full(1, 4, anchor.clone(), Bytes::new()))
            .unwrap();
        state = anchor;

        // The post-failure commits repopulated L1 going forward, so every
        // level serves the exact post-anchor image — the degraded group
        // included (reads reconstruct the dead node's chunks from parity).
        assert_eq!(
            h.recover_cheapest(1, 1).unwrap().snapshot,
            state,
            "victim {victim}: probe diverged"
        );
        let img = h.recover_job(2, 1).unwrap();
        assert!(img.degraded, "victim {victim}");
        assert_eq!(img.snapshot, state, "victim {victim}: degraded L2 diverged");
        assert_eq!(
            h.recover_job(3, 1).unwrap().snapshot,
            state,
            "victim {victim}: L3 diverged"
        );

        // Repair rebuilds the missing chunks (bytes > 0: the node's disk
        // died with its data and the degraded-era commits never touched
        // it), after which a *different* node can fail and the group still
        // serves the same image.
        let r = h.repair_raid();
        assert!(r.bytes > 0, "victim {victim}: repair billed nothing");
        h.fail_job(1, 2).unwrap();
        h.fail_raid_node((victim + 1) % 4);
        let img = h.recover_job(2, 1).unwrap();
        assert!(img.degraded);
        assert!(h.repair_raid().bytes > 0, "victim {victim}");
        assert_eq!(
            img.snapshot, state,
            "victim {victim}: post-repair L2 diverged"
        );

        // The second f2 took L1 again with no commits after it: L1 cannot
        // serve until the job's next anchor re-baselines it.
        assert!(h.recover_job(1, 1).is_err(), "victim {victim}");
    }
}

#[test]
fn f3_between_l12_truncation_and_anchor_ack_serves_the_superseded_chain() {
    let mut h = hierarchy();
    let full = Snapshot::from_pages([(0, page(1)), (1, page(2))]);
    h.commit(&CheckpointFile::full(1, 0, full.clone(), Bytes::new()))
        .unwrap();
    let mut old_state = full;
    old_state.insert(1, page(20));
    let (_, wire) = h
        .commit_write_behind(&CheckpointFile::incremental(
            1,
            1,
            Snapshot::from_pages([(1, page(20))]),
            vec![0, 1],
            Bytes::new(),
        ))
        .unwrap();
    assert!(wire > 0);
    h.ack_remote(1).unwrap();

    // The write-behind anchor truncates L1/L2 immediately...
    let anchor = Snapshot::from_pages([(0, page(40)), (1, page(41))]);
    h.commit_write_behind(&CheckpointFile::full(1, 2, anchor.clone(), Bytes::new()))
        .unwrap();
    assert_eq!(h.recover_job(1, 1).unwrap().snapshot, anchor);

    // ...and the node dies before the anchor's own drain acknowledges.
    // L3's only durable chain is the superseded one — recovery must serve
    // it bit-identically, not the half-truncated anchor state.
    h.fail_job(1, 3).unwrap();
    assert!(h.pending_remote_seqs().is_empty());
    let img = h.recover_cheapest(1, 1).unwrap();
    assert_eq!(img.level, RecoveryLevel::Remote);
    assert_eq!(img.seq, 1);
    assert_eq!(img.snapshot, old_state, "superseded chain diverged");

    // The job resumes: a fresh synchronous anchor re-baselines all levels.
    let fresh = Snapshot::from_pages([(0, page(50))]);
    h.commit(&CheckpointFile::full(1, 3, fresh.clone(), Bytes::new()))
        .unwrap();
    for level in 1..=3 {
        assert_eq!(h.recover_job(level, 1).unwrap().snapshot, fresh);
    }
}

#[test]
fn f2_in_the_anchor_ack_window_serves_the_anchor_from_l12() {
    let mut h = hierarchy();
    let full = Snapshot::from_pages([(0, page(1))]);
    h.commit(&CheckpointFile::full(1, 0, full, Bytes::new()))
        .unwrap();
    let anchor = Snapshot::from_pages([(0, page(9)), (1, page(10))]);
    h.commit_write_behind(&CheckpointFile::full(1, 1, anchor.clone(), Bytes::new()))
        .unwrap();

    // f2 inside the window: L1 is gone, but the anchor is on the (now
    // degraded) RAID log and the pending drain survives.
    h.fail_job(1, 2).unwrap();
    h.fail_raid_node(1);
    let img = h.recover_cheapest(1, 1).unwrap();
    assert_eq!(img.level, RecoveryLevel::Raid);
    assert_eq!(img.snapshot, anchor);
    // L3 still serves the superseded full until the ack lands...
    assert_eq!(h.recover_job(3, 1).unwrap().seq, 0);
    // ...and the drain completes from the surviving copies.
    h.ack_remote(1).unwrap();
    let img = h.recover_job(3, 1).unwrap();
    assert_eq!(img.seq, 1);
    assert_eq!(img.snapshot, anchor);
    assert_eq!(h.committed(), vec![1]);
}

#[test]
fn crash_mid_compaction_matrix_recovers_bit_identically() {
    for seed in [1u64, 7, 13] {
        for crash_after in [0usize, 1, 2, 5] {
            let (mut h, state) = committed_chain(seed);
            h.set_compaction(CompactionPolicy {
                auto: false,
                garbage_threshold: 0.5,
            });
            // Anchor with auto-compaction off: the prefix is dead but
            // physically present — the worst case for a crashing pass.
            let anchor = Snapshot::from_pages([(0, page(seed + 40)), (1, page(seed + 41))]);
            h.commit(&CheckpointFile::full(1, 3, anchor.clone(), Bytes::new()))
                .unwrap();
            let _ = state;

            let pins = h.pin_readers();
            for level in 1..=3usize {
                match h.compact_level(level, Some(crash_after)) {
                    // A pass with more live records than the crash point
                    // crashes; a smaller one completes. Both must leave
                    // recovery untouched.
                    Err(RecoveryError::CompactionCrashed) | Ok(_) => {}
                    Err(e) => panic!("seed {seed} crash {crash_after} L{level}: {e}"),
                }
                assert_eq!(
                    h.recover_job(level, 1).unwrap().snapshot,
                    anchor,
                    "seed {seed} crash {crash_after} L{level}: mid-compaction recovery drifted"
                );
            }
            h.unpin_readers(pins);

            // A clean pass after the crash converges: storage shrinks and
            // recovery is still bit-identical everywhere.
            let before = h.stored_bytes();
            h.compact().unwrap();
            h.try_reclaim_all();
            let after = h.stored_bytes();
            for level in 1..=3usize {
                assert!(
                    after[level - 1] < before[level - 1],
                    "seed {seed} crash {crash_after} L{level}: {before:?} -> {after:?}"
                );
                assert_eq!(h.recover_job(level, 1).unwrap().snapshot, anchor);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever mark-dead / compact / reclaim schedule runs underneath it,
    /// a reader that pinned the epoch keeps every record location it
    /// captured readable — reclamation never frees a segment under a pin.
    /// After the pin drops, reclamation drains the retired set completely.
    #[test]
    fn pinned_reader_never_observes_a_reclaimed_segment(
        sizes in vec(1usize..1500, 2..24),
        dead in vec(any::<bool>(), 24..25),
        seg_capacity in 128usize..2048,
    ) {
        let mut log = CheckpointLog::new(
            FlatStore::new(BandwidthModel::new(1e9, 0.0)),
            seg_capacity,
        );
        let mut records = Vec::new();
        for (i, len) in sizes.iter().enumerate() {
            let payload = Bytes::from(vec![i as u8; *len]);
            let (loc, _) = log.append(i as u64, CheckpointKind::Full, &payload);
            records.push((i as u64, loc, payload));
        }

        // The reader pins, then captures every location it plans to walk.
        let pin = log.pin();
        let walk = records.clone();

        // A concurrent truncation + compaction cycle runs to completion.
        for (i, (seq, _, _)) in records.iter().enumerate() {
            if dead[i % dead.len()] {
                log.mark_dead(*seq);
            }
        }
        log.compact(None).unwrap();
        log.try_reclaim();

        // Every captured location still decodes to the original payload —
        // including dead records, whose segments the compactor retired but
        // whose bytes the pin keeps on disk.
        for (seq, loc, payload) in &walk {
            let got = log.read_at(*loc);
            prop_assert_eq!(
                got.as_ref(),
                Some(payload),
                "seq {} vanished under an active pin",
                seq
            );
        }

        // Dropping the pin releases the epoch: reclamation frees every
        // retired segment and none remain.
        log.unpin(pin);
        log.try_reclaim();
        prop_assert_eq!(log.stats().retired_segments, 0);
        // The live records survived the whole cycle.
        for (i, (seq, _, payload)) in records.iter().enumerate() {
            if !dead[i % dead.len()] {
                prop_assert_eq!(log.read(*seq).as_ref(), Some(payload));
            }
        }
    }
}
