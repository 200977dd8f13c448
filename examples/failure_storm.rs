//! Failure storm: exercise the full recovery path end to end, with real
//! storage.
//!
//! ```text
//! cargo run --release --example failure_storm
//! ```
//!
//! A process runs with delta-compressed incremental checkpointing; every
//! checkpoint file is written to the local disk, striped over a RAID-5
//! node group (L2) and copied to remote storage (L3). Failures of
//! increasing severity are then injected:
//!
//! 1. a transient fault — restore from the local chain;
//! 2. a RAID node loss — degraded-mode read reconstructs the chain from
//!    parity;
//! 3. a total node failure (local disk gone) — restore entirely from
//!    remote storage.
//!
//! Every restore is verified byte-for-byte against the true process image.

use aic::ckpt::chain::CheckpointChain;
use aic::ckpt::engine::{run_engine, EngineConfig};
use aic::ckpt::format::CheckpointFile;
use aic::ckpt::storage::{BandwidthModel, FlatStore, Raid5Group, Store};
use aic::core::baselines::FixedIntervalPolicy;
use aic::memsim::workloads::generic::GrowShrinkWorkload;
use aic::memsim::{SimProcess, SimTime};
use aic::model::FailureRates;

fn main() {
    // A workload that allocates and frees pages, so restores must handle
    // page frees (Scenario 1 of the paper).
    let workload = GrowShrinkWorkload::new("storm", 3, 256, 64, SimTime::from_secs(40.0));

    let rates = FailureRates::three(2e-7, 1.8e-6, 4e-7).with_total(1e-3);
    let mut config = EngineConfig::testbed(rates);
    config.keep_files = true;

    let mut policy = FixedIntervalPolicy::new(5.0);
    let report = run_engine(SimProcess::new(Box::new(workload)), &mut policy, &config);
    let chain = report.chain.expect("keep_files was set");
    println!(
        "run complete: {} checkpoints, {} KiB total chain",
        chain.len(),
        chain.total_wire_bytes() / 1024
    );

    // Ship every checkpoint file to the three levels.
    let mut local = FlatStore::new(BandwidthModel::new(100e6, 1e-3));
    let mut raid = Raid5Group::new(5, 64 << 10, BandwidthModel::new(471.7e6, 1e-3));
    let mut remote = FlatStore::new(BandwidthModel::new(2e6, 5e-3));
    for file in chain.files() {
        let name = format!("ckpt-{}", file.seq);
        let bytes = file.to_bytes();
        let r1 = local.put(&name, bytes.clone());
        let r2 = raid.put(&name, bytes.clone());
        let r3 = remote.put(&name, bytes);
        println!(
            "  {name}: {:>9} B  L1 {:.3}s  L2 {:.3}s  L3 {:.3}s",
            r1.bytes, r1.seconds, r2.seconds, r3.seconds
        );
    }

    let truth = chain.restore_latest().expect("chain restores");

    // --- 1. Transient fault: local chain still there.
    let restored = rebuild_chain(&local, chain.len()).restore_latest().unwrap();
    assert_eq!(restored, truth);
    println!(
        "f1 (transient): restored from L1 — {} pages OK",
        restored.len()
    );

    // --- 2. RAID node dies: degraded read.
    raid.fail_node(2);
    let restored = rebuild_chain(&raid, chain.len()).restore_latest().unwrap();
    assert_eq!(restored, truth);
    println!("f2 (node loss): restored from degraded RAID-5 — parity reconstruction OK");
    raid.repair_node();

    // --- 3. Total node failure: only remote storage remains.
    let restored = rebuild_chain(&remote, chain.len())
        .restore_latest()
        .unwrap();
    assert_eq!(restored, truth);
    println!(
        "f3 (total loss): restored from remote storage — {} pages OK",
        restored.len()
    );

    println!("\nall three recovery levels verified byte-for-byte");
}

/// Pull checkpoint files back out of a store and rebuild the chain.
fn rebuild_chain(store: &dyn Store, count: usize) -> CheckpointChain {
    let mut chain = CheckpointChain::new();
    for seq in 0..count as u64 {
        let bytes = store
            .get(&format!("ckpt-{seq}"))
            .expect("checkpoint present in store");
        let file = CheckpointFile::from_bytes(bytes).expect("checkpoint parses");
        chain.push(file);
    }
    chain
}
