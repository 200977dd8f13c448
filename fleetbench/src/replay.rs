//! Stage replay: a traced loop's operations, regenerated from the seed and
//! pushed through the layers' public functions in the server's order, one
//! span per call:
//!
//! 1. `SharedDatasetFleet::snapshot`/`dirty`
//! 2. `pa_encode_cached`
//! 3. `CheckpointFile::{full,delta}` + `to_bytes_with_page_spans`
//! 4. `StorageHierarchy::commit_write_behind`
//! 5. `NetworkTransport::advance_to`/`enqueue`
//! 6. `StorageHierarchy::ack_remote`
//! 7. `fail_job`/`recover_job` at crashes, `recover_job`/`remove_job` at
//!    departures
//!
//! plus the adaptive solve (`sic_optimal_w_pooled`) each commit runs. Every
//! replayed commit's `payload_digest` must equal the one the server
//! returned: that proves the replay timed the same work.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use aic_ckpt::engine::{Compressor, EngineConfig};
use aic_ckpt::fleet::SharedDatasetFleet;
use aic_ckpt::policies::sic_optimal_w_pooled;
use aic_ckpt::recovery::{RecoveryError, StorageHierarchy};
use aic_ckpt::script::{image_digest, payload_digest};
use aic_ckpt::service::ServiceConfig;
use aic_ckpt::storage::{BandwidthModel, FlatStore, Raid5Group};
use aic_ckpt::transport::{LinkConfig, NetworkTransport, TransportEvent, WriteBehindConfig};
use aic_ckpt::CheckpointFile;
use aic_delta::pa::{pa_encode_cached, PageRecord, SourceIndexCache};
use aic_memsim::PAGE_SIZE;

use crate::ops::{expected_image_digest, round_state, Op};
use crate::report::{median, Metrics, Tally};
use crate::spans::Spans;

/// The hierarchy exactly as the fleet service builds it.
pub fn hierarchy(cfg: &ServiceConfig) -> StorageHierarchy {
    let mut hier = StorageHierarchy::with_segments(
        FlatStore::new(BandwidthModel::new(100e6, 1e-3)),
        Raid5Group::new(4, 256 << 10, BandwidthModel::new(471.7e6, 1e-3)),
        FlatStore::new(BandwidthModel::new(cfg.b3, cfg.link_latency)),
        cfg.seg_capacity,
    );
    if cfg.dedup {
        hier.enable_dedup();
    }
    hier
}

/// The write-behind transport exactly as the fleet service builds it.
pub fn transport(cfg: &ServiceConfig) -> NetworkTransport {
    NetworkTransport::new(
        LinkConfig::new(cfg.b3, cfg.link_latency, cfg.sharing_factor),
        WriteBehindConfig {
            queue_depth: cfg.queue_depth,
            faults: cfg.faults,
            ..WriteBehindConfig::default()
        },
    )
}

/// The solver view of the service config (what the server's adaptive
/// tenants re-solve against after every commit).
pub fn solver_config(cfg: &ServiceConfig) -> EngineConfig {
    let mut s = EngineConfig::testbed(cfg.rates.clone());
    s.b3 = cfg.b3;
    s.sharing_factor = cfg.sharing_factor;
    s.cores = cfg.cores;
    s.cost_model = cfg.cost_model;
    s.compressor = Compressor::PaDelta(cfg.pa);
    s
}

#[derive(Default)]
struct Tenant {
    persona: usize,
    seqs: HashSet<u64>,
    n: f64,
    sum_c1: f64,
    sum_dl: f64,
    sum_ds: f64,
}

#[derive(Default)]
struct Acc {
    cuts: u64,
    digests_checked: u64,
    enc_pages: u64,
    enc_ns: u64,
    enc_records: u64,
    enc_raw: u64,
    enc_delta_bytes: u64,
    enc_user_bytes: u64,
    user_bytes: u64,
    bytes_l: [u64; 3],
    quoted: HashMap<u64, u64>,
    acked_quote: u64,
    acked_bytes: u64,
    enqueues: u64,
    stalled: u64,
    cancelled: u64,
    in_flight_sum: u64,
    chain_records: Vec<f64>,
    /// Per commit: bytes held by every level ÷ live tenants' state bytes.
    stored_ratio: Vec<f64>,
    /// Per commit: live dedup chunks on L2 + L3.
    live_chunks: Vec<f64>,
}

/// Replay `ops` until they run out or `budget` passes. Returns the
/// per-layer metrics, the correctness tally, and the spans.
pub fn replay(
    fleet: &SharedDatasetFleet,
    cfg: &ServiceConfig,
    horizon: u64,
    ops: &[(f64, Op)],
    budget: Duration,
) -> (Metrics, Tally, Spans) {
    let epoch = Instant::now();
    let mut sp = Spans::new(epoch, true);
    let mut tally = Tally::default();
    let mut hier = hierarchy(cfg);
    let mut tr = transport(cfg);
    let solver = solver_config(cfg);
    let cache = SourceIndexCache::new();
    let mut tenants: HashMap<u64, Tenant> = HashMap::new();
    let mut acc = Acc::default();
    let mut seq_next = 1u64;
    let t0_at = ops.first().map_or(0.0, |o| o.0);

    for (at, op) in ops {
        if epoch.elapsed() > budget {
            break;
        }
        let now = (at - t0_at).max(tr.now());
        tally.attempt();
        let res: Result<(), RecoveryError> = match op {
            Op::Join { job, persona } => {
                tenants.insert(
                    *job,
                    Tenant {
                        persona: *persona,
                        ..Tenant::default()
                    },
                );
                Ok(())
            }
            Op::Cut {
                job,
                persona,
                round,
                full,
                ordinal,
                digest,
            } => {
                let (job, persona, round, full) = (*job, *persona, *round, *full);
                let pages = fleet.pages_of(persona);
                let raw = (pages * PAGE_SIZE) as u64;
                acc.user_bytes += raw;
                acc.cuts += 1;
                let (mut file, dl, ds) = if full {
                    let snap = sp.time("fleet.snapshot", job, |_| fleet.snapshot(persona, round));
                    let file = sp.time("format.serialize", job, |_| {
                        let f = CheckpointFile::full(job, 0, snap, round_state(round));
                        black_box(f.to_bytes_with_page_spans());
                        f
                    });
                    (file, 0.0, raw as f64)
                } else {
                    let (prev, dirty) = sp.time("fleet.snapshot", job, |_| {
                        (
                            fleet.snapshot(persona, round - 1),
                            fleet.dirty(persona, round),
                        )
                    });
                    let t = Instant::now();
                    let (pa_file, report) = sp.time("encode.pa_encode_cached", job, |_| {
                        pa_encode_cached(&prev, &dirty, &cfg.pa, &cache)
                    });
                    acc.enc_ns += t.elapsed().as_nanos() as u64;
                    acc.enc_pages += dirty.len() as u64;
                    acc.enc_records += pa_file.records.len() as u64;
                    acc.enc_raw += pa_file
                        .records
                        .iter()
                        .filter(|r| matches!(r, PageRecord::Raw { .. }))
                        .count() as u64;
                    acc.enc_delta_bytes += report.delta_bytes;
                    acc.enc_user_bytes += dirty.bytes();
                    let dl = cfg.cost_model.pooled_delta_latency(&report, cfg.cores);
                    let file = sp.time("format.serialize", job, |_| {
                        let f = CheckpointFile::delta(
                            job,
                            0,
                            pa_file,
                            (0..pages as u64).collect(),
                            round_state(round),
                        );
                        black_box(f.to_bytes_with_page_spans());
                        f
                    });
                    (file, dl, report.delta_bytes as f64)
                };
                let got = payload_digest(&file, *ordinal);
                acc.digests_checked += 1;
                tally.check(got == *digest, || {
                    format!("replay job {job} ordinal {ordinal}: digest {got:016x} != server {digest:016x}")
                });
                let seq = seq_next;
                seq_next += 1;
                file.seq = seq;
                (|| {
                    let events = sp.time("transport.advance_to", job, |_| tr.advance_to(now));
                    ack(&mut hier, &mut sp, &mut acc, &events)?;
                    let (receipt, wire) = sp.time("storage.commit_write_behind", job, |_| {
                        hier.commit_write_behind(&file)
                    })?;
                    acc.bytes_l[0] += receipt.local.bytes;
                    acc.bytes_l[1] += receipt.raid.bytes;
                    acc.quoted.insert(seq, wire);
                    let me = tenants.entry(job).or_default();
                    if full {
                        let stale: Vec<u64> = tr
                            .pending_seqs()
                            .into_iter()
                            .filter(|s| me.seqs.contains(s))
                            .collect();
                        acc.cancelled += tr.cancel_seqs(&stale) as u64;
                    }
                    me.seqs.insert(seq);
                    let live_state: u64 = tenants
                        .values()
                        .map(|t| (fleet.pages_of(t.persona) * PAGE_SIZE) as u64)
                        .sum();
                    acc.stored_ratio.push(
                        hier.stored_bytes().iter().sum::<u64>() as f64 / live_state.max(1) as f64,
                    );
                    let [l2, l3] = hier.dedup_stats().unwrap_or_default();
                    acc.live_chunks
                        .push((l2.live_chunks + l3.live_chunks) as f64);
                    let out = sp.time("transport.enqueue", job, |_| {
                        tr.enqueue(seq, wire, now + receipt.raid.seconds)
                    });
                    acc.enqueues += 1;
                    acc.stalled += u64::from(out.stalled_for > 0.0);
                    acc.in_flight_sum += tr.in_flight() as u64;
                    ack(&mut hier, &mut sp, &mut acc, &out.events)?;
                    let me = tenants.entry(job).or_default();
                    me.n += 1.0;
                    me.sum_c1 += cfg.cost_model.raw_io_latency(raw);
                    me.sum_dl += dl;
                    me.sum_ds += ds;
                    let (c1, dlm, dsm) = (me.sum_c1 / me.n, me.sum_dl / me.n, me.sum_ds / me.n);
                    // The server amortizes over horizon × the adaptive
                    // policy's 3 s bootstrap interval.
                    let base_time = horizon as f64 * 3.0;
                    sp.time("policies.sic_optimal_w_pooled", job, |_| {
                        black_box(sic_optimal_w_pooled(
                            c1, dlm, dsm, &solver, base_time, cfg.cores,
                        ))
                    });
                    Ok(())
                })()
            }
            Op::Crash { job, level } => {
                let (job, level) = (*job, *level);
                (|| {
                    let seqs = tenants
                        .get(&job)
                        .map(|t| t.seqs.clone())
                        .unwrap_or_default();
                    if level == 3 {
                        // The server's drain barrier: the tenant's own L3
                        // drains ack before the crash.
                        while tr.pending_seqs().iter().any(|s| seqs.contains(s)) {
                            let t = tr.now() + 0.01;
                            let events = sp.time("transport.advance_to", job, |_| tr.advance_to(t));
                            ack(&mut hier, &mut sp, &mut acc, &events)?;
                        }
                    }
                    let name = [
                        "recovery.fail_job.l1",
                        "recovery.fail_job.l2",
                        "recovery.fail_job.l3",
                    ][level - 1];
                    let lost = sp.time(name, job, |_| hier.fail_job(job, level))?;
                    tr.cancel_seqs(&lost);
                    recover(
                        fleet, &hier, &mut sp, &mut acc, &mut tally, &tenants, job, level,
                    );
                    Ok(())
                })()
            }
            Op::Recover { .. } => Ok(()),
            Op::Leave { job } => {
                let job = *job;
                sp.time("recovery.leave_verify", job, |sp| {
                    recover(fleet, &hier, sp, &mut acc, &mut tally, &tenants, job, 1);
                    let (_, lost) = hier.remove_job(job);
                    let mine: Vec<u64> = tr
                        .pending_seqs()
                        .into_iter()
                        .filter(|s| {
                            lost.contains(s)
                                || tenants.get(&job).is_some_and(|t| t.seqs.contains(s))
                        })
                        .collect();
                    acc.cancelled += tr.cancel_seqs(&mine) as u64;
                });
                tenants.remove(&job);
                Ok(())
            }
        };
        if let Err(e) = res {
            tally.fail(format!("replay: {e}"));
        }
    }

    let mut m = Metrics::default();
    let p50 = |name: &str| median(&sp.self_ms(name));
    let cuts = acc.cuts.max(1) as f64;
    let user = acc.user_bytes.max(1) as f64;
    m.set("fleet.snapshot_ms", p50("fleet.snapshot"), "ms");
    m.set("encode.ms_per_cut", p50("encode.pa_encode_cached"), "ms");
    m.set(
        "encode.ns_per_page",
        acc.enc_ns as f64 / acc.enc_pages.max(1) as f64,
        "ns",
    );
    m.set(
        "encode.raw_page_ratio",
        acc.enc_raw as f64 / acc.enc_records.max(1) as f64,
        "ratio",
    );
    m.set(
        "encode.delta_bytes_per_user_byte",
        acc.enc_delta_bytes as f64 / acc.enc_user_bytes.max(1) as f64,
        "ratio",
    );
    let lookups = cache.hits() + cache.misses();
    m.set(
        "encode.index_cache_hit_ratio",
        cache.hits() as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.set("format.serialize_ms", p50("format.serialize"), "ms");
    m.set(
        "policies.w_solve_us",
        p50("policies.sic_optimal_w_pooled") * 1e3,
        "us",
    );
    m.set(
        "storage.commit_ms",
        p50("storage.commit_write_behind"),
        "ms",
    );
    m.set("storage.ack_ms", p50("storage.ack_remote"), "ms");
    m.set(
        "storage.l1_bytes_per_user_byte",
        acc.bytes_l[0] as f64 / user,
        "ratio",
    );
    m.set(
        "storage.l2_bytes_per_user_byte",
        acc.bytes_l[1] as f64 / user,
        "ratio",
    );
    m.set(
        "storage.l3_bytes_per_user_byte",
        acc.bytes_l[2] as f64 / user,
        "ratio",
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.set(
        "storage.stored_bytes_per_user_byte",
        mean(&acc.stored_ratio),
        "ratio",
    );
    let logs = hier.log_stats();
    m.set(
        "log.garbage_ratio",
        logs.iter().map(|l| l.garbage_ratio).sum::<f64>() / 3.0,
        "ratio",
    );
    m.set(
        "log.segments",
        logs.iter().map(|l| l.segments).sum::<u64>() as f64,
        "count",
    );
    let [l2, l3] = hier.dedup_stats().unwrap_or_default();
    let hit = |d: &aic_ckpt::dedup::DedupStats| d.hits as f64 / (d.hits + d.misses).max(1) as f64;
    m.set("dedup.hit_ratio.l2", hit(&l2), "ratio");
    m.set("dedup.hit_ratio.l3", hit(&l3), "ratio");
    m.set(
        "dedup.verify_failures",
        (l2.verify_failures + l3.verify_failures) as f64,
        "count",
    );
    m.set("dedup.live_chunks", mean(&acc.live_chunks), "count");
    m.set(
        "dedup.quote_overcount",
        acc.acked_quote as f64 / acc.acked_bytes.max(1) as f64,
        "ratio",
    );
    let enq = acc.enqueues.max(1) as f64;
    m.set("transport.enqueue_us", p50("transport.enqueue") * 1e3, "us");
    m.set(
        "transport.advance_us",
        p50("transport.advance_to") * 1e3,
        "us",
    );
    m.set(
        "transport.in_flight_mean",
        acc.in_flight_sum as f64 / enq,
        "count",
    );
    m.set(
        "transport.backpressure_ratio",
        acc.stalled as f64 / enq,
        "ratio",
    );
    m.set(
        "transport.cancelled_ratio",
        acc.cancelled as f64 / enq,
        "ratio",
    );
    for (lvl, name) in [
        "recovery.crash_ms.l1",
        "recovery.crash_ms.l2",
        "recovery.crash_ms.l3",
    ]
    .iter()
    .enumerate()
    {
        let span = [
            "recovery.fail_job.l1",
            "recovery.fail_job.l2",
            "recovery.fail_job.l3",
        ][lvl];
        m.set(*name, p50(span), "ms");
    }
    m.set("recovery.recover_job_ms", p50("recovery.recover_job"), "ms");
    m.set("recovery.chain_records", mean(&acc.chain_records), "count");
    m.set(
        "recovery.leave_verify_ms",
        p50("recovery.leave_verify"),
        "ms",
    );
    m.set("replay.cuts", cuts, "count");
    m.set(
        "replay.digests_checked",
        acc.digests_checked as f64,
        "count",
    );
    (m, tally, sp)
}

/// Land the acks among `events` (stale acks for retired records are
/// skipped, as the server does).
fn ack(
    hier: &mut StorageHierarchy,
    sp: &mut Spans,
    acc: &mut Acc,
    events: &[TransportEvent],
) -> Result<(), RecoveryError> {
    for ev in events {
        if let TransportEvent::Acked { seq, .. } = ev {
            if hier.pending_remote_seqs().binary_search(seq).is_ok() {
                let a = sp.time("storage.ack_remote", 0, |_| hier.ack_remote(*seq))?;
                acc.bytes_l[2] += a.remote.bytes;
                acc.acked_bytes += a.remote.bytes;
                acc.acked_quote += acc.quoted.remove(seq).unwrap_or(0);
            }
        }
    }
    Ok(())
}

/// Recover `job` from the cheapest level at or above `from`; the image
/// must equal the persona's state at the recovered round.
#[allow(clippy::too_many_arguments)]
fn recover(
    fleet: &SharedDatasetFleet,
    hier: &StorageHierarchy,
    sp: &mut Spans,
    acc: &mut Acc,
    tally: &mut Tally,
    tenants: &HashMap<u64, Tenant>,
    job: u64,
    from: usize,
) {
    let Some(t) = tenants.get(&job) else {
        return;
    };
    for lvl in from..=3 {
        let Ok(img) = sp.time("recovery.recover_job", job, |_| hier.recover_job(lvl, job)) else {
            continue;
        };
        acc.chain_records.push(
            hier.live_record_seqs(lvl)
                .iter()
                .filter(|s| t.seqs.contains(s))
                .count() as f64,
        );
        let round = img.cpu_state.as_ref().try_into().map(u64::from_le_bytes);
        let ok =
            round.is_ok_and(|r| image_digest(&img) == expected_image_digest(fleet, t.persona, r));
        tally.check(ok, || {
            format!("replay job {job}: level-{lvl} image differs from the persona")
        });
        return;
    }
}
