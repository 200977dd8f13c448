//! Microbenchmarks for stages no workload isolates: log append at a given
//! segment fill, RAID-5 put/get/degraded get, dedup install/quote, an AIRF
//! frame round trip, and transport enqueue/advance. Each reports the
//! median of repeated timed calls into the layer's public API.

use std::hint::black_box;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use aic_ckpt::dedup::LevelDedup;
use aic_ckpt::fleet::SharedDatasetFleet;
use aic_ckpt::log::{CheckpointLog, RECORD_HEADER_BYTES};
use aic_ckpt::rpc::{read_frame, write_frame, KIND_CUT, RESP_BIT};
use aic_ckpt::storage::{BandwidthModel, FlatStore, Raid5Group, Store};
use aic_ckpt::transport::{LinkConfig, NetworkTransport, WriteBehindConfig};
use aic_ckpt::{CheckpointFile, CheckpointKind};
use aic_memsim::PAGE_SIZE;
use bytes::Bytes;

use crate::ops::round_state;
use crate::report::{median, Metrics};

/// Median microseconds of `f` over up to `reps` calls, stopping early once
/// `budget` is spent (at least three calls).
fn time_us(reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::with_capacity(reps);
    for i in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        if i >= 2 && start.elapsed() > budget {
            break;
        }
    }
    median(&samples)
}

fn page_bytes(n: usize, salt: u8) -> Bytes {
    Bytes::from(
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
            .collect::<Vec<u8>>(),
    )
}

/// Fill `log` to `fill` of its active segment with big records, so the
/// fill is reached in few appends.
fn fill_to<S: Store>(log: &mut CheckpointLog<S>, seq: &mut u64, cap: usize, fill: f64) {
    let target = (cap as f64 * fill) as usize;
    let mut used = 0usize;
    while used + RECORD_HEADER_BYTES + 1 < target {
        let len = (target - used - RECORD_HEADER_BYTES).min(256 << 10);
        log.append(*seq, CheckpointKind::Chunk, &page_bytes(len, *seq as u8));
        *seq += 1;
        used += len + RECORD_HEADER_BYTES;
    }
}

/// 4 KiB appends into a segment at 0/50/90% fill; `prefix` names the
/// store (`log.append_us` over `FlatStore`, `log.raid_append_us` over
/// `Raid5Group`).
fn log_append<S: Store + Clone>(
    m: &mut Metrics,
    prefix: &str,
    store: S,
    cap: usize,
    budget: Duration,
) {
    let rec = page_bytes(PAGE_SIZE, 7);
    let mut log = CheckpointLog::new(store, cap);
    let mut seq = 1u64;
    let mut filled = 0.0;
    for (fill, tag) in [(0.0, "seg0"), (0.5, "seg50"), (0.9, "seg90")] {
        fill_to(&mut log, &mut seq, cap, fill - filled);
        filled = fill;
        // Each sample appends to its own copy of the log at this fill; the
        // copy (reference-counted segment bytes) stays outside the timing.
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 200 && (samples.len() < 3 || start.elapsed() < budget / 3) {
            let mut l = log.clone();
            let t = Instant::now();
            black_box(l.append(seq, CheckpointKind::DeltaCompressed, &rec));
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        m.set(format!("{prefix}.{tag}"), median(&samples), "us");
    }
}

/// Everything at once, within `budget`.
pub fn run(fleet: &SharedDatasetFleet, seg_capacity: usize, budget: Duration) -> Metrics {
    let mut m = Metrics::default();
    let slice = budget / 6;

    let flat = FlatStore::new(BandwidthModel::new(100e6, 1e-3));
    log_append(&mut m, "log.append_us", flat, seg_capacity, slice);
    let raid = Raid5Group::new(4, 256 << 10, BandwidthModel::new(471.7e6, 1e-3));
    log_append(
        &mut m,
        "log.raid_append_us",
        raid.clone(),
        seg_capacity,
        slice,
    );

    // RAID-5 object put / get / degraded get, per MiB.
    let mib = page_bytes(1 << 20, 3);
    let mut g = raid.clone();
    m.set(
        "raid.put_us_per_mib",
        time_us(50, slice / 3, || {
            black_box(g.put("obj", mib.clone()));
        }),
        "us",
    );
    m.set(
        "raid.get_us_per_mib",
        time_us(50, slice / 3, || {
            black_box(g.get("obj"));
        }),
        "us",
    );
    g.fail_node(1);
    m.set(
        "raid.degraded_get_us_per_mib",
        time_us(50, slice / 3, || {
            black_box(g.get("obj"));
        }),
        "us",
    );

    // Dedup: a full checkpoint of the largest persona, installed into an
    // empty store (all misses) and into one that holds it (all hits).
    let persona = (0..fleet.ranks())
        .max_by_key(|&r| fleet.pages_of(r))
        .unwrap_or(0);
    let file = CheckpointFile::full(1, 1, fleet.snapshot(persona, 1), round_state(1));
    let (payload, spans) = file.to_bytes_with_page_spans();
    let pages = spans.len().max(1) as f64;
    let mut seq = 10u64;
    let cold = time_us(100, slice / 3, || {
        let mut d = LevelDedup::new();
        black_box(d.install(1, &payload, &spans));
    });
    let mut warm_store = LevelDedup::new();
    warm_store.install(1, &payload, &spans);
    let warm = time_us(100, slice / 3, || {
        seq += 1;
        black_box(warm_store.install(seq, &payload, &spans));
        warm_store.forget_record(seq);
    });
    m.set(
        "dedup.install_us_per_page",
        (cold + warm) / 2.0 / pages,
        "us",
    );
    m.set(
        "dedup.quote_us_per_page",
        time_us(100, slice / 3, || {
            black_box(warm_store.quote(&payload, &spans));
        }) / pages,
        "us",
    );

    // AIRF: a cut request and its 33-byte reply over a socket pair.
    if let Ok((mut a, mut b)) = UnixStream::pair() {
        let echo = std::thread::spawn(move || {
            while let Ok((kind, _)) = read_frame(&mut b) {
                if write_frame(&mut b, kind | RESP_BIT, &[0u8; 33]).is_err() {
                    break;
                }
            }
        });
        let us = time_us(2000, slice, || {
            write_frame(&mut a, KIND_CUT, &[]).expect("frame write");
            black_box(read_frame(&mut a).expect("frame read"));
        });
        m.set("rpc.frame_roundtrip_us", us, "us");
        let _ = a.flush();
        drop(a);
        let _ = echo.join();
    }

    // Transport: enqueue a 16 KiB drain and step the link.
    let mut tr = NetworkTransport::new(
        LinkConfig::new(2.0e6, 1e-3, 1.0),
        WriteBehindConfig::with_depth(64),
    );
    let mut t = 0.0;
    let mut s = 0u64;
    m.set(
        "transport.micro.enqueue_us",
        time_us(2000, slice / 2, || {
            s += 1;
            t += 0.004;
            black_box(tr.enqueue(s, 16 << 10, t));
        }),
        "us",
    );
    m.set(
        "transport.micro.advance_us",
        time_us(2000, slice / 2, || {
            t += 0.004;
            black_box(tr.advance_to(t));
        }),
        "us",
    );
    m
}
