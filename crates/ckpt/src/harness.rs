//! End-to-end fault-injection harness.
//!
//! Closes the loop the paper's evaluation depends on: the engine commits
//! every checkpoint through the [`StorageHierarchy`]
//! (`EngineConfig::storage`), a [`FailureSchedule`] injects f1/f2/f3
//! failures mid-run, recovery reads the chain back from the cheapest
//! surviving level, the process resumes from the restored image (memory +
//! clock + workload control state), and the finished run's final memory
//! image is **bit-identical** to a failure-free reference run — the
//! property the tests in this module pin down for every failure level.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use aic_core::CheckpointPolicy;
use aic_memsim::SimProcess;
use aic_model::FailureRates;

use crate::engine::{lock_storage, run_engine_with_faults, EngineConfig, EngineReport};
use crate::failure::FailureInjector;
use crate::recovery::{RecoveryError, RecoveryLevel, StorageHierarchy};

/// One scheduled failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Virtual time of the failure, seconds.
    pub at: f64,
    /// Failure level (1 = transient, 2 = partial node, 3 = total node).
    pub level: usize,
    /// Which RAID node an f2 takes down (reduced modulo the group size).
    pub raid_victim: usize,
}

/// An ordered set of failures to inject into one engine run.
#[derive(Debug, Clone, Default)]
pub struct FailureSchedule {
    specs: Vec<FaultSpec>,
}

impl FailureSchedule {
    /// No failures (the reference-run schedule).
    pub fn none() -> Self {
        Self::default()
    }

    /// A single failure.
    pub fn single(at: f64, level: usize, raid_victim: usize) -> Self {
        Self::from_specs(vec![FaultSpec {
            at,
            level,
            raid_victim,
        }])
    }

    /// Build from explicit specs; they are sorted by time.
    pub fn from_specs(mut specs: Vec<FaultSpec>) -> Self {
        specs.sort_by(|a, b| a.at.total_cmp(&b.at));
        FailureSchedule { specs }
    }

    /// Sample a schedule from the per-level exponential failure process
    /// (seeded, reproducible): every failure up to `horizon` seconds.
    pub fn seeded(rates: FailureRates, horizon: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut injector = FailureInjector::new(rates);
        let specs = injector
            .failures_until(horizon, &mut rng)
            .into_iter()
            .map(|e| FaultSpec {
                at: e.at,
                level: e.level,
                raid_victim: rng.gen::<u32>() as usize,
            })
            .collect();
        FailureSchedule { specs }
    }

    /// The scheduled failures, in time order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of scheduled failures.
    pub fn len(&self) -> usize {
        self.specs.len()
    }
}

/// What one injected failure cost, as observed by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Scheduled failure time, virtual seconds.
    pub at: f64,
    /// Injected failure level.
    pub level: usize,
    /// Storage level that served the recovery (cheapest surviving).
    pub served: RecoveryLevel,
    /// Sequence number of the checkpoint the process resumed from.
    pub restored_seq: u64,
    /// Chain read time through the serving store's channel model.
    pub read_seconds: f64,
    /// RAID rebuild time (0 unless the group was degraded).
    pub repair_seconds: f64,
    /// Lost work re-executed after the restore.
    pub rework_seconds: f64,
    /// True if the recovery read ran against a degraded RAID group.
    pub degraded: bool,
}

/// Results of a faulted run.
#[derive(Debug)]
pub struct FaultReport {
    /// The engine report (wall time includes read + repair + rework).
    pub report: EngineReport,
    /// One event per injected failure, in order.
    pub faults: Vec<FaultEvent>,
    /// Bytes held per level `[L1, L2, L3]` at the end of the run.
    pub stored_bytes: [u64; 3],
}

/// Run `process` under `policy` with the failures in `schedule` injected,
/// committing checkpoints through `config.storage` (a coastal hierarchy is
/// installed if the config has none).
pub fn run_with_faults(
    process: SimProcess,
    policy: &mut dyn CheckpointPolicy,
    mut config: EngineConfig,
    schedule: &FailureSchedule,
) -> Result<FaultReport, RecoveryError> {
    let storage = config
        .storage
        .get_or_insert_with(|| Arc::new(Mutex::new(StorageHierarchy::coastal(4))))
        .clone();
    let (report, faults) = run_engine_with_faults(process, policy, &config, schedule)?;
    let stored_bytes = lock_storage(&storage)?.stored_bytes();
    Ok(FaultReport {
        report,
        faults,
        stored_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aic_core::baselines::FixedIntervalPolicy;
    use aic_memsim::workloads::generic::StreamingWorkload;
    use aic_memsim::workloads::WriteStyle;
    use aic_memsim::{SimTime, Snapshot};

    fn stream_process(secs: f64) -> SimProcess {
        SimProcess::new(Box::new(StreamingWorkload::new(
            "stream",
            11,
            96,
            2,
            WriteStyle::PartialEntropy(300),
            SimTime::from_secs(secs),
        )))
    }

    fn faulted_config() -> EngineConfig {
        let mut cfg = EngineConfig::testbed(aic_model::FailureRates::three(2e-7, 1.8e-6, 4e-7));
        cfg.keep_files = true;
        cfg.full_every = Some(4);
        cfg
    }

    /// Failure-free reference image: the workload is deterministic, so the
    /// final memory image is a pure function of (workload, base time).
    fn reference_image(secs: f64) -> Snapshot {
        let mut p = stream_process(secs);
        p.run_until(SimTime::from_secs(secs * 10.0));
        assert!(p.is_done());
        p.snapshot()
    }

    #[test]
    fn each_failure_level_resumes_bit_identically() {
        let truth = reference_image(24.0);
        for level in 1..=3usize {
            let mut policy = FixedIntervalPolicy::new(3.0);
            let out = run_with_faults(
                stream_process(24.0),
                &mut policy,
                faulted_config(),
                &FailureSchedule::single(13.0, level, 1),
            )
            .unwrap_or_else(|e| panic!("level {level}: {e}"));

            assert_eq!(out.faults.len(), 1, "level {level}");
            let f = &out.faults[0];
            assert_eq!(f.level, level);
            // Cheapest surviving level serves: f1 → local, f2 → degraded
            // RAID, f3 → remote.
            let expect = match level {
                1 => RecoveryLevel::Local,
                2 => RecoveryLevel::Raid,
                _ => RecoveryLevel::Remote,
            };
            assert_eq!(f.served, expect, "level {level}");
            assert_eq!(f.degraded, level == 2);
            assert!(f.read_seconds > 0.0);
            assert!(f.rework_seconds > 0.0, "mid-interval fault loses work");
            if level == 2 {
                assert!(f.repair_seconds > 0.0, "degraded RAID must be rebuilt");
            }

            // The tentpole property: the resumed run's final memory image
            // is bit-identical to the failure-free reference.
            let final_state = out.report.final_state.as_ref().expect("keep_files");
            assert_eq!(final_state, &truth, "level {level} diverged");

            // Recovery + rework show up in wall time.
            let mut clean_policy = FixedIntervalPolicy::new(3.0);
            let clean = crate::engine::run_engine(
                stream_process(24.0),
                &mut clean_policy,
                &faulted_config(),
            );
            assert!(out.report.wall_time > clean.wall_time, "level {level}");
        }
    }

    #[test]
    fn fault_before_first_checkpoint_restores_initial_full() {
        let truth = reference_image(10.0);
        let mut policy = FixedIntervalPolicy::new(6.0);
        let out = run_with_faults(
            stream_process(10.0),
            &mut policy,
            faulted_config(),
            &FailureSchedule::single(2.0, 3, 0),
        )
        .unwrap();
        assert_eq!(out.faults[0].restored_seq, 0, "only seq 0 was committed");
        assert_eq!(out.report.final_state.as_ref().unwrap(), &truth);
    }

    #[test]
    fn truncation_bounds_storage_and_recovery_replays_from_anchor() {
        let mut cfg = faulted_config();
        cfg.full_every = Some(3);
        let storage = Arc::new(Mutex::new(StorageHierarchy::coastal(4)));
        cfg.storage = Some(storage.clone());

        let mut policy = FixedIntervalPolicy::new(2.0);
        let out = run_with_faults(
            stream_process(40.0),
            &mut policy,
            cfg,
            &FailureSchedule::none(),
        )
        .unwrap();

        let hier = storage.lock().unwrap();
        // Many checkpoints were cut, but GC keeps only the current chain:
        // one full anchor plus at most full_every-1 followers.
        let ckpts = out
            .report
            .intervals
            .iter()
            .filter(|r| r.raw_bytes > 0)
            .count();
        assert!(ckpts > 6, "need several chains, got {ckpts} checkpoints");
        assert!(
            hier.committed().len() <= 3,
            "retained {:?}",
            hier.committed()
        );
        // Recovery replays the bounded suffix, ending at the newest seq.
        let img = hier.recover_cheapest(1, 1).unwrap();
        assert_eq!(img.seq, *hier.committed().last().unwrap());
        // All three levels hold exactly the retained chain, not history.
        for (level, bytes) in out.stored_bytes.iter().enumerate() {
            assert!(*bytes > 0, "level {level} empty");
        }
    }

    #[test]
    fn stored_bytes_stay_bounded_under_repeated_faults() {
        // Two f2s and an f3 interleaved with periodic fulls: every recovery
        // re-baselines, so storage ends bounded by one chain and the final
        // image still matches.
        let truth = reference_image(36.0);
        let schedule = FailureSchedule::from_specs(vec![
            FaultSpec {
                at: 8.0,
                level: 2,
                raid_victim: 0,
            },
            FaultSpec {
                at: 17.0,
                level: 3,
                raid_victim: 0,
            },
            FaultSpec {
                at: 27.0,
                level: 2,
                raid_victim: 2,
            },
        ]);
        let mut policy = FixedIntervalPolicy::new(2.5);
        let out = run_with_faults(
            stream_process(36.0),
            &mut policy,
            faulted_config(),
            &schedule,
        )
        .unwrap();
        assert_eq!(out.faults.len(), 3);
        assert_eq!(out.report.final_state.as_ref().unwrap(), &truth);
        // Later faults recover from re-populated levels: the f2 after the
        // f3 must still be served (RAID was re-anchored by the forced full).
        assert_eq!(out.faults[2].served, RecoveryLevel::Raid);
    }

    #[test]
    fn seeded_schedule_is_reproducible_and_survivable() {
        let rates = aic_model::FailureRates::three(0.02, 0.02, 0.01);
        let a = FailureSchedule::seeded(rates.clone(), 30.0, 9);
        let b = FailureSchedule::seeded(rates, 30.0, 9);
        assert_eq!(a.specs(), b.specs());
        assert!(!a.is_empty(), "rates × horizon should yield failures");

        let truth = reference_image(30.0);
        let mut policy = FixedIntervalPolicy::new(3.0);
        let out = run_with_faults(stream_process(30.0), &mut policy, faulted_config(), &a).unwrap();
        assert_eq!(out.faults.len(), a.len());
        assert_eq!(out.report.final_state.as_ref().unwrap(), &truth);
    }

    #[test]
    fn write_behind_mid_drain_f3_resumes_bit_identically() {
        // Slow L3 + write-behind: at the f3 the queue still holds undrained
        // intervals. Recovery falls back to the acknowledged remote prefix,
        // re-executes the lost tail, and the final image must still match
        // the failure-free reference at every queue depth.
        let truth = reference_image(24.0);
        for depth in [1usize, 2, 4] {
            let storage = Arc::new(Mutex::new(StorageHierarchy::coastal(4)));
            let mut cfg = faulted_config();
            cfg.b3 = 20e3;
            cfg.storage = Some(storage.clone());
            cfg.transport = Some(crate::transport::WriteBehindConfig::with_depth(depth));
            let mut policy = FixedIntervalPolicy::new(3.0);
            let out = run_with_faults(
                stream_process(24.0),
                &mut policy,
                cfg,
                &FailureSchedule::single(13.0, 3, 1),
            )
            .unwrap_or_else(|e| panic!("depth {depth}: {e}"));

            let f = &out.faults[0];
            assert_eq!(f.served, RecoveryLevel::Remote, "depth {depth}");
            assert!(f.rework_seconds > 0.0, "depth {depth}: lost tail rework");
            let final_state = out.report.final_state.as_ref().expect("keep_files");
            assert_eq!(final_state, &truth, "depth {depth} diverged");

            // The run's epilogue drained the post-recovery chain fully.
            let hier = storage.lock().unwrap();
            assert!(hier.pending_remote_seqs().is_empty(), "depth {depth}");
            assert_eq!(
                hier.remote_frontier_of(1),
                hier.committed().last().copied(),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn write_behind_f2_keeps_the_drain_alive_through_recovery() {
        // An f2 loses L1 and degrades the RAID group but the write-behind
        // queue survives: the run finishes, every drain lands, and the
        // final image is bit-identical.
        let truth = reference_image(24.0);
        let storage = Arc::new(Mutex::new(StorageHierarchy::coastal(4)));
        let mut cfg = faulted_config();
        cfg.b3 = 20e3;
        cfg.storage = Some(storage.clone());
        cfg.transport = Some(crate::transport::WriteBehindConfig::with_depth(2));
        let mut policy = FixedIntervalPolicy::new(3.0);
        let out = run_with_faults(
            stream_process(24.0),
            &mut policy,
            cfg,
            &FailureSchedule::single(13.0, 2, 1),
        )
        .unwrap();
        assert_eq!(out.faults[0].served, RecoveryLevel::Raid);
        assert!(out.faults[0].degraded);
        assert_eq!(out.report.final_state.as_ref().unwrap(), &truth);
        let hier = storage.lock().unwrap();
        assert!(hier.pending_remote_seqs().is_empty());
    }

    #[test]
    fn bad_schedule_level_is_a_typed_error_not_a_panic() {
        let mut policy = FixedIntervalPolicy::new(3.0);
        let err = run_with_faults(
            stream_process(10.0),
            &mut policy,
            faulted_config(),
            &FailureSchedule::single(2.0, 9, 0),
        )
        .unwrap_err();
        assert_eq!(err, RecoveryError::BadLevel(9));
    }

    #[test]
    fn poisoned_storage_mutex_is_a_typed_error_not_a_panic() {
        let storage = Arc::new(Mutex::new(StorageHierarchy::coastal(4)));
        // Poison the mutex: a thread panics while holding the lock, the way
        // a crashed commit would leave it in a real run.
        let poisoner = storage.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("simulated crash while holding the storage lock");
        })
        .join();
        assert!(storage.is_poisoned());

        let mut cfg = faulted_config();
        cfg.storage = Some(storage);
        let mut policy = FixedIntervalPolicy::new(3.0);
        let err = run_with_faults(
            stream_process(10.0),
            &mut policy,
            cfg,
            &FailureSchedule::single(2.0, 1, 0),
        )
        .unwrap_err();
        assert!(matches!(err, RecoveryError::StorageUnavailable(_)));
        assert!(err.to_string().contains("poisoned"));
    }
}
