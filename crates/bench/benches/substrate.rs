//! Criterion benches for the substrates: the simulated address space
//! (write-fault tracking throughput), RAID-5 striping, checkpoint
//! serialization, and the real checkpointing-core thread.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use aic_ckpt::concurrent::{CompressorPool, SOLO_QUANTUM};
use aic_ckpt::format::CheckpointFile;
use aic_ckpt::storage::{BandwidthModel, Raid5Group, Store};
use aic_delta::pa::PaParams;
use aic_memsim::{AddressSpace, Page, SimTime, Snapshot, PAGE_SIZE};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_address_space(c: &mut Criterion) {
    let mut group = c.benchmark_group("memsim");
    group.throughput(Throughput::Bytes(PAGE_SIZE as u64));
    group.bench_function("write_faulting_page", |b| {
        let mut sp = AddressSpace::new();
        sp.allocate(0, 1024);
        let data = vec![7u8; PAGE_SIZE];
        let mut i = 0u64;
        b.iter(|| {
            if i.is_multiple_of(1024) {
                sp.begin_interval(); // re-protect so every write faults
            }
            sp.write_page(i % 1024, 0, &data, SimTime::ZERO);
            i += 1;
        });
    });
    group.bench_function("write_unprotected_page", |b| {
        let mut sp = AddressSpace::new();
        sp.allocate(0, 16);
        let data = vec![7u8; PAGE_SIZE];
        sp.begin_interval();
        for p in 0..16 {
            sp.write_page(p, 0, &data, SimTime::ZERO); // take the faults once
        }
        let mut i = 0u64;
        b.iter(|| {
            sp.write_page(i % 16, 0, &data, SimTime::ZERO);
            i += 1;
        });
    });
    group.finish();
}

fn snapshot(pages: usize, seed: u64) -> Snapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    Snapshot::from_pages((0..pages).map(|i| {
        let mut buf = vec![0u8; PAGE_SIZE];
        rng.fill(&mut buf[..]);
        (i as u64, Page::from_bytes(&buf))
    }))
}

fn bench_raid5(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let mut payload = vec![0u8; 1 << 20];
    rng.fill(&mut payload[..]);
    let payload = Bytes::from(payload);

    let mut group = c.benchmark_group("raid5");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("put_1MiB", |b| {
        let mut g = Raid5Group::new(5, 64 << 10, BandwidthModel::new(1e9, 0.0));
        b.iter(|| g.put("x", payload.clone()));
    });
    group.bench_function("get_1MiB", |b| {
        let mut g = Raid5Group::new(5, 64 << 10, BandwidthModel::new(1e9, 0.0));
        g.put("x", payload.clone());
        b.iter(|| g.get("x").unwrap());
    });
    group.bench_function("degraded_get_1MiB", |b| {
        let mut g = Raid5Group::new(5, 64 << 10, BandwidthModel::new(1e9, 0.0));
        g.put("x", payload.clone());
        g.fail_node(2);
        b.iter(|| g.get("x").unwrap());
    });
    group.finish();
}

fn bench_checkpoint_format(c: &mut Criterion) {
    let snap = snapshot(256, 11);
    let file = CheckpointFile::full(1, 0, snap, Bytes::from_static(b"cpu"));
    let bytes = file.to_bytes();
    let mut group = c.benchmark_group("checkpoint_format");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("serialize_1MiB", |b| {
        b.iter(|| file.to_bytes());
    });
    group.bench_function("parse_1MiB", |b| {
        b.iter(|| CheckpointFile::from_bytes(bytes.clone()).unwrap());
    });
    group.finish();
}

fn bench_checkpointing_core(c: &mut Criterion) {
    // Round-trip latency of submitting a compression job to the dedicated
    // core thread and waiting for the result.
    let prev = snapshot(64, 13);
    let dirty = snapshot(64, 14);
    c.bench_with_input(
        BenchmarkId::new("core_submit_recv", "64pages"),
        &(prev, dirty),
        |b, (prev, dirty)| {
            let core = CompressorPool::spawn(1, SOLO_QUANTUM, None);
            b.iter(|| {
                core.submit(0, prev.clone(), dirty.clone(), PaParams::default())
                    .wait()
            });
        },
    );
}

criterion_group!(
    benches,
    bench_address_space,
    bench_raid5,
    bench_checkpoint_format,
    bench_checkpointing_core
);
criterion_main!(benches);
