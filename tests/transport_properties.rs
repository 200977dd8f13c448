//! Property-based tests over the network-transport invariants: seeded
//! retry schedules are deterministic, bounded-queue back-pressure always
//! terminates (no deadlocked drain), the outcome is invariant under clock
//! stepping granularity, and a mid-drain f3 failure recovers bit-identical
//! at every write-behind queue depth.

use std::sync::{Arc, Mutex};

use proptest::collection::vec;
use proptest::prelude::*;

use aic::ckpt::engine::EngineConfig;
use aic::ckpt::harness::{run_with_faults, FailureSchedule};
use aic::ckpt::recovery::StorageHierarchy;
use aic::ckpt::transport::{
    LinkConfig, NetworkTransport, RetryPolicy, TransportEvent, TransportFaults, WriteBehindConfig,
};
use aic::core::baselines::FixedIntervalPolicy;
use aic::memsim::workloads::generic::PhasedWorkload;
use aic::memsim::{SimProcess, SimTime};
use aic::model::params::CoastalProfile;

/// A lively fault profile: every fault class enabled, drops frequent
/// enough that multi-attempt schedules are the norm, not the tail.
fn faults(seed: u64) -> TransportFaults {
    TransportFaults {
        seed,
        drop_prob: 0.25,
        timeout_prob: 0.1,
        slow_prob: 0.2,
        slow_factor: 0.3,
        timeout_after: 0.8,
    }
}

fn transport(depth: usize, seed: u64, max_attempts: u32) -> NetworkTransport {
    NetworkTransport::new(
        LinkConfig::new(5e3, 0.01, 2.0),
        WriteBehindConfig {
            queue_depth: depth,
            retry: RetryPolicy {
                max_attempts,
                base_backoff: 0.1,
                max_backoff: 1.0,
            },
            faults: Some(faults(seed)),
        },
    )
}

/// Run `shares` through a fresh transport: enqueue at the given times,
/// then quiesce. Returns every terminal event plus the total stall time.
fn drain_all(mut t: NetworkTransport, shares: &[(u64, f64)]) -> (Vec<TransportEvent>, f64, f64) {
    let mut events = Vec::new();
    let mut stalled = 0.0;
    let mut clock: f64 = 0.0;
    for (seq, (bytes, gap)) in shares.iter().enumerate() {
        clock += gap;
        let out = t.enqueue(seq as u64, 1 + bytes % 20_000, clock.max(t.now()));
        stalled += out.stalled_for;
        events.extend(out.events);
    }
    let (tail, finished) = t.quiesce();
    events.extend(tail);
    assert_eq!(t.in_flight(), 0, "quiesce left transfers in flight");
    (events, stalled, finished)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same seed, same workload → byte-identical event schedule: every
    /// ack/give-up fires at the same virtual time with the same attempt
    /// count, and back-pressure stalls for exactly as long.
    #[test]
    fn seeded_retry_schedules_are_deterministic(
        seed in any::<u64>(),
        depth in 1usize..5,
        shares in vec((1u64..200_000, 0.0f64..3.0), 1..12),
    ) {
        let a = drain_all(transport(depth, seed, 6), &shares);
        let b = drain_all(transport(depth, seed, 6), &shares);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        prop_assert_eq!(a.2.to_bits(), b.2.to_bits());
    }

    /// Bounded queues back-pressure but never deadlock: every enqueue
    /// returns with a finite stall, the drain terminates, and each
    /// admitted transfer reaches exactly one terminal state.
    #[test]
    fn backpressure_never_deadlocks_the_drain(
        seed in any::<u64>(),
        depth in 1usize..4,
        max_attempts in 1u32..5,
        shares in vec((1u64..150_000, 0.0f64..1.5), 1..16),
    ) {
        let (events, stalled, finished) =
            drain_all(transport(depth, seed, max_attempts), &shares);
        prop_assert!(stalled.is_finite() && stalled >= 0.0);
        prop_assert!(finished.is_finite());
        let mut seqs: Vec<u64> = events.iter().map(TransportEvent::seq).collect();
        seqs.sort_unstable();
        let expected: Vec<u64> = (0..shares.len() as u64).collect();
        prop_assert_eq!(seqs, expected, "terminal events must cover each seq once");
        // Terminal times never run backwards.
        let times: Vec<f64> = events
            .iter()
            .map(|e| match *e {
                TransportEvent::Acked { at, .. } | TransportEvent::GaveUp { at, .. } => at,
            })
            .collect();
        prop_assert!(times.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    }

    /// The discrete-event simulation is invariant under clock stepping:
    /// advancing in many small increments before the final quiesce yields
    /// the same terminal schedule — same seqs, kinds, and attempt counts
    /// in the same order, times equal up to float-summation noise — as
    /// quiescing in one shot.
    #[test]
    fn stepping_granularity_does_not_change_outcomes(
        seed in any::<u64>(),
        shares in vec((1u64..100_000, 0.0f64..2.0), 1..8),
        step in 0.05f64..0.5,
    ) {
        let coarse = drain_all(transport(2, seed, 6), &shares);

        let mut t = transport(2, seed, 6);
        let mut events = Vec::new();
        let mut stalled = 0.0;
        let mut clock: f64 = 0.0;
        for (seq, (bytes, gap)) in shares.iter().enumerate() {
            let target = clock + gap;
            // Crawl to the enqueue time in small steps.
            while t.now() + step < target {
                let now = t.now();
                events.extend(t.advance_to(now + step));
            }
            clock = target;
            let out = t.enqueue(seq as u64, 1 + bytes % 20_000, clock.max(t.now()));
            stalled += out.stalled_for;
            events.extend(out.events);
        }
        let (tail, finished) = t.quiesce();
        events.extend(tail);

        prop_assert_eq!(coarse.0.len(), events.len());
        for (c, f) in coarse.0.iter().zip(events.iter()) {
            match (*c, *f) {
                (
                    TransportEvent::Acked { seq: s1, at: t1, bytes: b1, wasted: w1, attempts: a1 },
                    TransportEvent::Acked { seq: s2, at: t2, bytes: b2, wasted: w2, attempts: a2 },
                ) => {
                    prop_assert_eq!((s1, b1, w1, a1), (s2, b2, w2, a2));
                    prop_assert!((t1 - t2).abs() < 1e-6, "ack times {t1} vs {t2}");
                }
                (
                    TransportEvent::GaveUp { seq: s1, at: t1, attempts: a1 },
                    TransportEvent::GaveUp { seq: s2, at: t2, attempts: a2 },
                ) => {
                    prop_assert_eq!((s1, a1), (s2, a2));
                    prop_assert!((t1 - t2).abs() < 1e-6, "give-up times {t1} vs {t2}");
                }
                (c, f) => prop_assert!(false, "event kind mismatch: {c:?} vs {f:?}"),
            }
        }
        prop_assert!((coarse.1 - stalled).abs() < 1e-6);
        prop_assert!((coarse.2 - finished).abs() < 1e-6);
    }
}

fn process(secs: f64) -> SimProcess {
    SimProcess::new(Box::new(PhasedWorkload::new(
        "transport-prop".to_string(),
        9,
        512,
        8.0,
        2.0,
        1,
        15,
        SimTime::from_secs(secs),
    )))
}

/// Mid-drain f3 — node, RAID peer, and the pending write-behind queue all
/// lost — must recover bit-identical to the failure-free image at every
/// queue depth, with or without transport faults.
#[test]
fn mid_drain_f3_recovers_bit_identical_at_every_queue_depth() {
    let secs = 24.0;
    let mut reference = process(secs);
    reference.run_until(SimTime::from_secs(secs * 10.0));
    assert!(reference.is_done());
    let truth = reference.snapshot();

    let rates = CoastalProfile::default().rates().with_total(1e-3);
    for depth in 1..=6usize {
        for transport_faults in [None, Some(TransportFaults::mixed(7))] {
            let mut cfg = EngineConfig::testbed(rates.clone());
            cfg.b3 = 20e3; // slow enough that drains are pending at the fault
            cfg.keep_files = true;
            cfg.full_every = Some(3);
            cfg.storage = Some(Arc::new(Mutex::new(StorageHierarchy::coastal(4))));
            cfg.transport = Some(WriteBehindConfig {
                queue_depth: depth,
                faults: transport_faults,
                ..WriteBehindConfig::default()
            });
            let mut policy = FixedIntervalPolicy::new(3.0);
            let out = run_with_faults(
                process(secs),
                &mut policy,
                cfg,
                &FailureSchedule::single(13.0, 3, 1),
            )
            .unwrap_or_else(|e| panic!("depth {depth} faults {transport_faults:?}: {e}"));
            assert_eq!(out.faults.len(), 1);
            assert_eq!(
                out.report.final_state.as_ref(),
                Some(&truth),
                "depth {depth} faults {transport_faults:?}: diverged image"
            );
        }
    }
}

/// Per-tenant wire attribution under SF-way fair share: attributing each
/// terminal ack's `bytes + wasted` to the enqueueing tenant must sum
/// exactly to the aggregate link-byte counters — no shared-link byte is
/// double-counted or orphaned, even with drops and retries in play.
#[test]
fn per_tenant_wire_attribution_sums_to_aggregate_link_bytes() {
    use aic::obs::Obs;

    const TENANTS: u64 = 3;
    let obs = Arc::new(Obs::new());
    let mut t = transport(4, 1234, 8);
    t.attach_obs(&obs);

    // Interleaved tenants (seq % TENANTS) pushing uneven payloads.
    let mut per_tenant = vec![0u64; TENANTS as usize];
    let mut events = Vec::new();
    let mut clock: f64 = 0.0;
    for seq in 0..12u64 {
        clock += 0.4;
        let bytes = 1_000 + 3_700 * (seq % 5);
        let out = t.enqueue(seq, bytes, clock.max(t.now()));
        events.extend(out.events);
    }
    let (tail, _) = t.quiesce();
    events.extend(tail);

    let mut aggregate = 0u64;
    for ev in &events {
        if let TransportEvent::Acked {
            seq, bytes, wasted, ..
        } = ev
        {
            per_tenant[(seq % TENANTS) as usize] += bytes + wasted;
            aggregate += bytes + wasted;
        }
    }
    assert!(aggregate > 0, "fault seed must ack at least one transfer");
    assert_eq!(
        per_tenant.iter().sum::<u64>(),
        aggregate,
        "attribution must partition the aggregate"
    );
    let snap = obs.metrics.deterministic_snapshot();
    let link_bytes = snap.counter("transport.bytes_acked").unwrap_or(0)
        + snap.counter("transport.bytes_wasted").unwrap_or(0);
    assert_eq!(
        aggregate, link_bytes,
        "per-tenant sums must equal the link's own accounting"
    );
}

/// An f3 failure of tenant A mid-drain — pending drains cancelled, its
/// unacked L3 suffix gap-cut — must leave tenant B's acknowledged L3
/// prefix untouched: same remote frontier, still recoverable
/// bit-identical, and B's still-pending drain survives the selective
/// cancellation and lands afterwards.
#[test]
fn f3_mid_drain_for_one_tenant_leaves_the_others_acked_prefix_untouched() {
    use aic::ckpt::format::CheckpointFile;
    use aic::memsim::{Page, Snapshot, PAGE_SIZE};
    use bytes::Bytes;

    let snap_of = |job: u64, round: u64| {
        let mut s = Snapshot::new();
        for idx in 0..3u64 {
            s.insert(
                idx,
                Page::from_bytes(&[(job * 40 + round * 7 + idx) as u8; PAGE_SIZE]),
            );
        }
        s
    };
    let state_of = |round: u64| Bytes::copy_from_slice(&round.to_le_bytes());

    let mut hier = StorageHierarchy::coastal(4);
    // Slow link so later drains are still pending when the fault lands.
    let mut t = NetworkTransport::new(
        LinkConfig::new(20e3, 1e-3, 1.0),
        WriteBehindConfig::with_depth(8),
    );

    const A: u64 = 1;
    const B: u64 = 2;
    let commit = |hier: &mut StorageHierarchy,
                  t: &mut NetworkTransport,
                  job: u64,
                  seq: u64,
                  round: u64,
                  at: f64| {
        let file = CheckpointFile::full(job, seq, snap_of(job, round), state_of(round));
        let (_, wire) = hier.commit_write_behind(&file).expect("commit");
        let out = t.enqueue(seq, wire, at);
        assert!(out.events.is_empty() && out.stalled_for == 0.0);
    };

    // Round 1 for both tenants; let both drains ack.
    commit(&mut hier, &mut t, A, 1, 1, 0.0);
    commit(&mut hier, &mut t, B, 2, 1, 0.0);
    for ev in t.advance_to(10.0) {
        match ev {
            TransportEvent::Acked { seq, .. } => {
                hier.ack_remote(seq).expect("ack");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(hier.remote_frontier_of(A), Some(1));
    assert_eq!(hier.remote_frontier_of(B), Some(2));

    // Round 2 for both; keep the drains in flight (mid-drain).
    commit(&mut hier, &mut t, A, 3, 2, 10.0);
    commit(&mut hier, &mut t, B, 4, 2, 10.0);
    assert_eq!(t.pending_seqs(), vec![3, 4]);

    // f3 kills tenant A: its pending drain is lost and cancelled, its
    // unacked records gap-cut. Selective cancellation must not touch B.
    let lost = hier.fail_job(A, 3).expect("fail_job");
    assert_eq!(lost, vec![3]);
    assert_eq!(t.cancel_seqs(&lost), 1);
    assert_eq!(t.pending_seqs(), vec![4], "B's drain must survive");

    // B's acknowledged prefix is untouched and bit-identical.
    assert_eq!(hier.remote_frontier_of(B), Some(2));
    let img_b = hier.recover_job(3, B).expect("B must recover its prefix");
    let want = snap_of(B, 1);
    assert_eq!(img_b.snapshot.len(), want.len());
    assert!(
        img_b
            .snapshot
            .iter()
            .zip(want.iter())
            .all(|((ia, pa), (ib, pb))| ia == ib && pa.as_slice() == pb.as_slice()),
        "B's recovered image diverged after A's f3"
    );

    // A keeps exactly its acked prefix too (seq 1).
    let img_a = hier.recover_job(3, A).expect("A's durable prefix survives");
    assert_eq!(img_a.seq, 1);

    // B's in-flight drain still lands and extends B's frontier.
    let (events, _) = t.quiesce();
    for ev in events {
        match ev {
            TransportEvent::Acked { seq, .. } => {
                assert_eq!(seq, 4);
                hier.ack_remote(seq).expect("late ack");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(hier.remote_frontier_of(B), Some(4));
    assert_eq!(hier.recover_job(3, B).expect("recover").seq, 4);
}
