//! Criterion benches for the delta codecs (Table 3's latency columns,
//! measured as real wall-clock time on this machine).
//!
//! Three codecs (Xdelta3-PA, whole-file Xdelta3, XOR/RLE) over three
//! similarity regimes (small contiguous edits, half-page rewrites, fresh
//! entropy), which bound the workloads' behaviour.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use aic_ckpt::concurrent::{CompressorPool, SOLO_QUANTUM};
use aic_delta::encode::{encode_into, encode_with_report, EncodeParams};
use aic_delta::pa::{full_encode, pa_encode, PaParams, SourceIndexCache};
use aic_delta::reference::encode_with_report_reference;
use aic_delta::xor::xor_encode;
use aic_memsim::{Page, Snapshot, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PAGES: usize = 256; // 1 MiB per snapshot

fn snapshot(seed: u64) -> Snapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    Snapshot::from_pages((0..PAGES).map(|i| {
        let mut buf = vec![0u8; PAGE_SIZE];
        rng.fill(&mut buf[..]);
        (i as u64, Page::from_bytes(&buf))
    }))
}

/// Dirty snapshot in one of three similarity regimes.
fn dirty(prev: &Snapshot, regime: &str, seed: u64) -> Snapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    Snapshot::from_pages(prev.iter().map(|(idx, page)| {
        let mut bytes = page.as_slice().to_vec();
        match regime {
            "small-edit" => {
                let start = rng.gen_range(0..PAGE_SIZE - 128);
                for b in &mut bytes[start..start + 128] {
                    *b = rng.gen();
                }
            }
            "half-rewrite" => {
                for b in &mut bytes[..PAGE_SIZE / 2] {
                    *b = rng.gen();
                }
            }
            "fresh" => rng.fill(&mut bytes[..]),
            _ => unreachable!(),
        }
        (idx, Page::from_bytes(&bytes))
    }))
}

fn bench_codecs(c: &mut Criterion) {
    let prev = snapshot(1);
    let mut group = c.benchmark_group("delta_codec");
    group.throughput(Throughput::Bytes((PAGES * PAGE_SIZE) as u64));

    for regime in ["small-edit", "half-rewrite", "fresh"] {
        let target = dirty(&prev, regime, 2);
        group.bench_with_input(
            BenchmarkId::new("xdelta3-pa", regime),
            &target,
            |b, target| {
                b.iter(|| pa_encode(&prev, target, &PaParams::default()));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("xdelta3-whole", regime),
            &target,
            |b, target| {
                b.iter(|| full_encode(&prev, target, &EncodeParams::default()));
            },
        );
        group.bench_with_input(BenchmarkId::new("xor-rle", regime), &target, |b, target| {
            b.iter(|| xor_encode(&prev, target));
        });
    }
    group.finish();
}

fn bench_page_encode(c: &mut Criterion) {
    // Single-page encode, three ways (the tentpole comparison): the retained
    // naive encoder, the optimized encoder building its flat index per call
    // (cache miss), and the optimized encoder served from a warmed
    // SourceIndexCache with direct arena emission (cache hit — the engine's
    // steady state when sources repeat across intervals).
    let mut rng = StdRng::seed_from_u64(5);
    let mut src = vec![0u8; PAGE_SIZE];
    rng.fill(&mut src[..]);
    let src_page = Page::from_bytes(&src);
    let mut tgt = src.clone();
    let start = 1000;
    for b in &mut tgt[start..start + 128] {
        *b = rng.gen();
    }
    let params = EncodeParams {
        block_size: PaParams::default().block_size,
        max_probe: PaParams::default().max_probe,
    };

    let mut group = c.benchmark_group("page_encode");
    group.throughput(Throughput::Bytes(PAGE_SIZE as u64));
    group.bench_function("reference", |b| {
        b.iter(|| encode_with_report_reference(src_page.as_slice(), &tgt, &params));
    });
    group.bench_function("optimized-cold", |b| {
        b.iter(|| encode_with_report(src_page.as_slice(), &tgt, &params));
    });
    let cache = SourceIndexCache::new();
    let mut arena = BytesMut::new();
    group.bench_function("cache-hot", |b| {
        b.iter(|| {
            let cached = cache.get_or_build(0, &src_page, params.block_size);
            arena.truncate(0);
            encode_into(
                src_page.as_slice(),
                &tgt,
                cached.index(),
                &params,
                &mut arena,
            )
        });
    });
    group.finish();
}

fn bench_parallel_speedup(c: &mut Criterion) {
    // Serial (the paper's single dedicated core) vs a `CompressorPool`
    // encode at each width — identical outputs by test (the pool's
    // bit-identity tests). All 256 pages are dirty, well past the 64-page
    // floor where sharding pays; real speedup needs that many host cores,
    // so compare widths on multicore hardware.
    let prev = snapshot(7);
    let target = dirty(&prev, "half-rewrite", 8);
    let mut group = c.benchmark_group("pool_scaling");
    group.throughput(Throughput::Bytes((PAGES * PAGE_SIZE) as u64));
    group.bench_function("serial", |b| {
        b.iter(|| pa_encode(&prev, &target, &PaParams::default()));
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                let pool = CompressorPool::spawn(workers, SOLO_QUANTUM, None);
                b.iter(|| pool.encode(0, prev.clone(), target.clone(), PaParams::default()));
            },
        );
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let prev = snapshot(3);
    let target = dirty(&prev, "half-rewrite", 4);
    let (file, _) = pa_encode(&prev, &target, &PaParams::default());
    let mut group = c.benchmark_group("delta_decode");
    group.throughput(Throughput::Bytes((PAGES * PAGE_SIZE) as u64));
    group.bench_function("xdelta3-pa", |b| {
        b.iter(|| aic_delta::pa::pa_decode(&prev, &file).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_codecs,
    bench_page_encode,
    bench_parallel_speedup,
    bench_decode
);
criterion_main!(benches);
