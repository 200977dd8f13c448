//! Cross-crate integration: the coordinated-checkpointing substrate with
//! the storage hierarchy and the umbrella API — the restart story for a
//! multi-process job, end to end.

use aic::ckpt::recovery::StorageHierarchy;
use aic::memsim::workloads::generic::StreamingWorkload;
use aic::memsim::workloads::WriteStyle;
use aic::memsim::{SimProcess, SimTime};
use aic::mpi::coordinated::CoordinatedCheckpointer;
use aic::mpi::job::{CommPattern, MpiJob};
use aic_delta::pa::PaParams;
use aic_delta::stats::CostModel;

fn make_job(ranks: usize) -> MpiJob {
    MpiJob::new(
        ranks,
        |rank| {
            SimProcess::new(Box::new(StreamingWorkload::new(
                format!("rank{rank}"),
                rank as u64 + 40,
                96,
                2,
                WriteStyle::PartialEntropy(350),
                SimTime::from_secs(30.0),
            )))
        },
        CommPattern::AllToAll,
        0.5,
        1024,
        0.7,
        77,
    )
}

#[test]
fn global_checkpoints_commit_to_storage_and_recover() {
    // Run a 3-rank job, commit each rank's chain to its own three-level
    // storage hierarchy, nuke local+RAID (f3 everywhere), and restore the
    // consistent global state from remote storage only.
    let ranks = 3;
    let mut job = make_job(ranks);
    let mut ck = CoordinatedCheckpointer::new(PaParams::default(), CostModel::default());
    let mut stores: Vec<StorageHierarchy> =
        (0..ranks).map(|_| StorageHierarchy::coastal(4)).collect();

    job.run_until(1.0);
    let (ckpt0, _) = ck.initial_cut(&mut job);
    for (rank, file) in ckpt0.per_rank.iter().enumerate() {
        stores[rank].commit(file).unwrap();
    }
    job.run_until(5.0);
    let (ckpt1, stats) = ck.cut(&mut job);
    for (rank, file) in ckpt1.per_rank.iter().enumerate() {
        stores[rank].commit(file).unwrap();
    }
    assert!(
        stats.drained > 0,
        "all-to-all at 0.7 s latency must have in-flight traffic"
    );

    // The reference consistent state.
    let global = ck.restore_global(1).unwrap();

    // Catastrophe: every node suffers a total failure.
    for (rank, s) in stores.iter_mut().enumerate() {
        s.fail_job(rank as u64, 3).unwrap();
    }
    for (rank, store) in stores.iter().enumerate() {
        let job = rank as u64;
        assert!(store.recover_job(1, job).is_err(), "local must be gone");
        assert!(store.recover_job(2, job).is_err(), "raid must be gone");
        let img = store.recover_job(3, job).expect("remote survives f3");
        assert_eq!(
            img.snapshot, global.ranks[rank],
            "rank {rank} remote restore diverged from the coordinated state"
        );
    }
}

#[test]
fn rollback_then_rerun_is_deterministic() {
    // A job rolled back to a coordinated checkpoint and re-run reaches the
    // same state as an uninterrupted run — message payloads included —
    // because workload streams and network delivery are deterministic.
    let mut a = make_job(2);
    let mut ck = CoordinatedCheckpointer::new(PaParams::default(), CostModel::default());
    a.run_until(1.0);
    ck.initial_cut(&mut a);
    a.run_until(4.0);
    ck.cut(&mut a);

    // Continue, then fail at t=8 and roll back to the t=4 checkpoint.
    a.run_until(8.0);
    ck.rollback(&mut a, 1).unwrap();

    // The rolled-back job's memory equals the checkpointed global state.
    let global = ck.restore_global(1).unwrap();
    for rank in 0..2 {
        assert_eq!(a.process(rank).snapshot(), global.ranks[rank]);
    }
    // And the network holds exactly the drained in-flight set.
    assert_eq!(a.network().in_flight(), &global.in_flight[..]);
}

#[test]
fn coordinated_chain_sizes_shrink_with_delta_compression() {
    let mut job = make_job(2);
    let mut ck = CoordinatedCheckpointer::new(PaParams::default(), CostModel::default());
    job.run_until(0.5);
    let (c0, s0) = ck.initial_cut(&mut job);
    job.run_until(2.0);
    let (c1, s1) = ck.cut(&mut job);
    // The initial cut ships full footprints; the incremental cut ships
    // compressed dirty sets — strictly smaller here.
    assert!(c1.wire_bytes() < c0.wire_bytes());
    assert!(s1.ds_bytes < s0.ds_bytes);
    assert!(s1.ds_bytes < s1.raw_bytes);
}
