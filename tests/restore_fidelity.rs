//! End-to-end restore fidelity: the whole pipeline — workload → engine →
//! delta-compressed checkpoint chain → storage levels → restore — must
//! reproduce process memory byte-for-byte at every checkpoint.

use bytes::Bytes;

use aic::ckpt::chain::CheckpointChain;
use aic::ckpt::engine::{run_engine, Compressor, EngineConfig};
use aic::ckpt::format::CheckpointFile;
use aic::ckpt::storage::{BandwidthModel, FlatStore, Raid5Group, Store};
use aic::core::baselines::FixedIntervalPolicy;
use aic::memsim::workloads::generic::{GrowShrinkWorkload, StreamingWorkload};
use aic::memsim::workloads::WriteStyle;
use aic::memsim::{SimProcess, SimTime};
use aic::model::FailureRates;

fn config(compressor: Compressor) -> EngineConfig {
    let mut cfg = EngineConfig::testbed(FailureRates::three(2e-7, 1.8e-6, 4e-7).with_total(1e-3));
    cfg.compressor = compressor;
    cfg.keep_files = true;
    cfg
}

/// Reference replay: run the same deterministic workload again and capture
/// the true memory image at a given virtual time.
fn reference_state(make: impl Fn() -> SimProcess, at: f64) -> aic::memsim::Snapshot {
    let mut p = make();
    p.run_until(SimTime::from_secs(at));
    p.snapshot()
}

#[test]
fn delta_chain_restores_every_checkpoint_exactly() {
    let make = || {
        SimProcess::new(Box::new(StreamingWorkload::new(
            "fidelity",
            9,
            128,
            3,
            WriteStyle::PartialEntropy(400),
            SimTime::from_secs(20.0),
        )))
    };
    let mut policy = FixedIntervalPolicy::new(4.0);
    let report = run_engine(
        make(),
        &mut policy,
        &config(Compressor::PaDelta(Default::default())),
    );
    let chain = report.chain.unwrap();
    assert!(
        chain.len() >= 3,
        "need several checkpoints, got {}",
        chain.len()
    );

    // Every checkpoint in the chain must equal the true state at its cut
    // time. Cut times come from the engine's own interval records (exact
    // float values, so the reference replay stops on the same step
    // boundary).
    let mut cut_times = vec![0.0f64];
    let mut acc = 0.0;
    for rec in report.intervals.iter().filter(|r| r.raw_bytes > 0) {
        acc += rec.w;
        cut_times.push(acc);
    }
    for (file, &cut_time) in chain.files().iter().zip(&cut_times) {
        let restored = chain.restore_at(file.seq).unwrap();
        let truth = reference_state(make, cut_time);
        assert_eq!(
            restored, truth,
            "checkpoint seq {} (t={cut_time}) diverged",
            file.seq
        );
    }
}

#[test]
fn restore_handles_allocation_and_frees() {
    let make = || {
        SimProcess::new(Box::new(GrowShrinkWorkload::new(
            "growshrink",
            5,
            64,
            32,
            SimTime::from_secs(12.0),
        )))
    };
    let mut policy = FixedIntervalPolicy::new(3.0);
    let report = run_engine(
        make(),
        &mut policy,
        &config(Compressor::PaDelta(Default::default())),
    );
    let chain = report.chain.unwrap();
    let restored = chain.restore_latest().unwrap();
    let last_cut: f64 = report
        .intervals
        .iter()
        .filter(|r| r.raw_bytes > 0)
        .map(|r| r.w)
        .sum();
    let truth = reference_state(make, last_cut);
    assert_eq!(restored, truth);
}

#[test]
fn incremental_raw_and_delta_chains_restore_identically() {
    let make = || {
        aic_bench::experiments::scaled_persona(
            "sjeng",
            &aic_bench::experiments::RunScale {
                footprint: 0.25,
                duration: 0.08,
                seed: 21,
            },
        )
    };
    // Note: personas are deterministic per seed, so two engine runs see the
    // same memory history regardless of compressor.
    let mut p1 = FixedIntervalPolicy::new(5.0);
    let raw = run_engine(make(), &mut p1, &config(Compressor::IncrementalRaw));
    let mut p2 = FixedIntervalPolicy::new(5.0);
    let pa = run_engine(
        make(),
        &mut p2,
        &config(Compressor::PaDelta(Default::default())),
    );

    // Stop the comparison at the shorter chain (decision quantization can
    // differ by one tick at the tail).
    let n = raw
        .chain
        .as_ref()
        .unwrap()
        .len()
        .min(pa.chain.as_ref().unwrap().len());
    // Only compare a couple of mid-chain points (restores replay the whole
    // prefix, and sjeng runs 661 virtual seconds — keep the test snappy).
    for seq in [1, n as u64 / 2] {
        let a = raw.chain.as_ref().unwrap().restore_at(seq).unwrap();
        let b = pa.chain.as_ref().unwrap().restore_at(seq).unwrap();
        assert_eq!(a, b, "raw vs delta restore diverged at seq {seq}");
    }
}

#[test]
fn chain_survives_serialization_through_all_stores() {
    let make = || {
        SimProcess::new(Box::new(StreamingWorkload::new(
            "stores",
            13,
            96,
            2,
            WriteStyle::PartialEntropy(300),
            SimTime::from_secs(15.0),
        )))
    };
    let mut policy = FixedIntervalPolicy::new(5.0);
    let report = run_engine(
        make(),
        &mut policy,
        &config(Compressor::PaDelta(Default::default())),
    );
    let chain = report.chain.unwrap();
    let truth = chain.restore_latest().unwrap();

    let mut local = FlatStore::new(BandwidthModel::new(100e6, 0.0));
    let mut raid = Raid5Group::new(4, 32 << 10, BandwidthModel::new(400e6, 0.0));
    let mut remote = FlatStore::new(BandwidthModel::new(2e6, 0.0));
    for f in chain.files() {
        let bytes = f.to_bytes();
        local.put(&format!("c{}", f.seq), bytes.clone());
        raid.put(&format!("c{}", f.seq), bytes.clone());
        remote.put(&format!("c{}", f.seq), bytes);
    }
    raid.fail_node(0); // degraded L2

    for store in [&local as &dyn Store, &raid, &remote] {
        let mut rebuilt = CheckpointChain::new();
        for seq in 0..chain.len() as u64 {
            let bytes = store.get(&format!("c{seq}")).unwrap();
            rebuilt.push(CheckpointFile::from_bytes(bytes).unwrap());
        }
        assert_eq!(rebuilt.restore_latest().unwrap(), truth);
    }
}

#[test]
fn cpu_state_blob_is_preserved() {
    let snap = aic::memsim::Snapshot::new();
    let file = CheckpointFile::full(3, 0, snap, Bytes::from_static(b"registers+fds"));
    let parsed = CheckpointFile::from_bytes(file.to_bytes()).unwrap();
    assert_eq!(&parsed.cpu_state[..], b"registers+fds");
}
