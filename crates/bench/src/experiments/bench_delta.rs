//! `repro bench` (extension — engineering benchmark, no paper counterpart):
//! wall-clock microbenchmarks of the Xdelta3-PA encode hot path.
//!
//! Three per-page encode regimes over the same snapshot pairs as the
//! criterion `delta_codec` benches:
//!
//! * **reference** — the retained naive encoder (`HashMap` table rebuilt
//!   per call, byte-at-a-time extension, double-copied literals);
//! * **cold** — the optimized encoder with a fresh [`SourceIndex`] built
//!   per page (every page is a cache miss);
//! * **hot** — the optimized encoder served from a warmed
//!   [`SourceIndexCache`] (every page is a pointer-equal cache hit).
//!
//! plus a sweep of the [`CompressorPool`]'s encode over N ∈ {1,2,4,8}
//! workers with a warm pool cache. Results are medians of wall-clock
//! samples in ns/page; `repro bench` writes them to `BENCH_delta.json`.
//!
//! [`SourceIndex`]: aic_delta::SourceIndex
//! [`SourceIndexCache`]: aic_delta::SourceIndexCache

use std::time::Instant;

use aic_ckpt::concurrent::{CompressorPool, SOLO_QUANTUM};
use aic_delta::encode::EncodeParams;
use aic_delta::pa::{pa_encode, pa_encode_cached, plan_shards, PaParams, SourceIndexCache};
use aic_delta::reference::encode_with_report_reference;
use aic_memsim::{Page, Snapshot, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::experiments::RunScale;
use crate::output::{f, markdown_table};

/// Pool widths swept by the pooled section.
pub const DEFAULT_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Per-regime medians, ns per page.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeRow {
    /// Similarity regime name (`small-edit`, `half-rewrite`, `fresh`).
    pub regime: &'static str,
    /// Retained naive encoder (pre-optimization baseline).
    pub reference_ns_per_page: f64,
    /// Optimized encoder, index rebuilt per page (cache miss).
    pub cold_ns_per_page: f64,
    /// Optimized encoder, warmed index cache (cache hit).
    pub hot_ns_per_page: f64,
}

impl RegimeRow {
    /// Speedup of the cache-hot path over the naive baseline.
    pub fn speedup_hot_vs_reference(&self) -> f64 {
        self.reference_ns_per_page / self.hot_ns_per_page.max(1e-9)
    }

    /// Speedup of a cache hit over a cache miss (the index-build cost).
    pub fn speedup_hot_vs_cold(&self) -> f64 {
        self.cold_ns_per_page / self.hot_ns_per_page.max(1e-9)
    }
}

/// One pooled-encode measurement.
///
/// Widths that resolve to the same *effective* plan (same thread count
/// after the pool clamps to the machine's parallelism, same shard count)
/// are measured **once** and share the number: they run byte-for-byte the
/// same code, so measuring them separately would only record scheduler
/// noise as fake (anti-)scaling.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolPoint {
    /// Pool width as requested (the shard plan's key).
    pub workers: usize,
    /// OS threads the pool actually spawned (clamped to the machine).
    pub threads: usize,
    /// Shards the job is planned into at this width.
    pub shards: usize,
    /// Median wall-clock ns per page for this width's effective plan
    /// (warm cache).
    pub ns_per_page: f64,
}

/// The full sweep, serialized to `BENCH_delta.json` by `repro bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Pages per snapshot.
    pub pages: usize,
    /// Wall-clock samples per median.
    pub samples: usize,
    /// Per-regime encode medians.
    pub regimes: Vec<RegimeRow>,
    /// Pooled sweep (half-rewrite regime, warm cache).
    pub pool: Vec<PoolPoint>,
    /// True when every swept width encodes on the same number of threads
    /// (a single-core host, or a snapshot too small to shard): the sweep
    /// cannot show scaling, so [`BenchReport::check`] skips the pool gate
    /// and the sweep passes **vacuously** — it verified nothing about
    /// scaling.
    pub degenerate: bool,
}

impl BenchReport {
    /// Hand-rolled JSON (the harness carries no serializer dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"bench\": \"delta_codec\",\n  \"pages\": {},\n  \"page_size\": {},\n  \"samples\": {},\n",
            self.pages, PAGE_SIZE, self.samples
        ));
        s.push_str("  \"regimes\": [\n");
        for (i, r) in self.regimes.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"regime\": \"{}\", \"reference_ns_per_page\": {:.1}, \
                 \"cold_ns_per_page\": {:.1}, \"hot_ns_per_page\": {:.1}, \
                 \"speedup_hot_vs_reference\": {:.2}, \"speedup_hot_vs_cold\": {:.2}}}{}\n",
                r.regime,
                r.reference_ns_per_page,
                r.cold_ns_per_page,
                r.hot_ns_per_page,
                r.speedup_hot_vs_reference(),
                r.speedup_hot_vs_cold(),
                if i + 1 < self.regimes.len() { "," } else { "" }
            ));
        }
        s.push_str(&format!(
            "  ],\n  \"degenerate\": {},\n  \"pool\": [\n",
            self.degenerate
        ));
        for (i, p) in self.pool.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"workers\": {}, \"threads\": {}, \"shards\": {}, \"ns_per_page\": {:.1}}}{}\n",
                p.workers,
                p.threads,
                p.shards,
                p.ns_per_page,
                if i + 1 < self.pool.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Regression gate over the sweep (the bench-smoke CI check):
    ///
    /// * in every regime the cold path must beat the reference encoder —
    ///   the cold-encode regression this report exists to keep fixed;
    /// * unless the sweep is [`degenerate`](BenchReport::degenerate), the
    ///   pool sweep must be monotone non-increasing from the narrowest to
    ///   the widest width, within a 5% noise allowance between adjacent
    ///   points — and with **zero** allowance for the endpoints: the widest
    ///   width must never be slower than one worker (anti-scaling).
    ///
    /// Returns every violation found (empty = pass).
    pub fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for r in &self.regimes {
            if r.cold_ns_per_page >= r.reference_ns_per_page {
                violations.push(format!(
                    "regime {}: cold {:.1} ns/page loses to reference {:.1} ns/page",
                    r.regime, r.cold_ns_per_page, r.reference_ns_per_page
                ));
            }
        }
        if self.degenerate {
            return violations;
        }
        for pair in self.pool.windows(2) {
            if pair[1].ns_per_page > pair[0].ns_per_page * 1.05 {
                violations.push(format!(
                    "pool: {} workers {:.1} ns/page > {} workers {:.1} ns/page (+5%)",
                    pair[1].workers, pair[1].ns_per_page, pair[0].workers, pair[0].ns_per_page
                ));
            }
        }
        if let (Some(first), Some(last)) = (self.pool.first(), self.pool.last()) {
            if last.ns_per_page > first.ns_per_page {
                violations.push(format!(
                    "pool anti-scales: {} workers {:.1} ns/page > {} workers {:.1} ns/page",
                    last.workers, last.ns_per_page, first.workers, first.ns_per_page
                ));
            }
        }
        violations
    }

    /// Non-fatal caveats about what [`BenchReport::check`] could actually
    /// verify on this machine (the CI bench-smoke job prints these).
    pub fn warnings(&self) -> Vec<String> {
        let mut warnings = Vec::new();
        if self.degenerate {
            warnings.push(
                "pool sweep is degenerate: every width encodes on the same number of \
                 threads on this host, so the monotonicity gate passed vacuously"
                    .to_string(),
            );
        }
        warnings
    }
}

/// Random snapshot of `pages` full-entropy pages.
fn snapshot(pages: usize, seed: u64) -> Snapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    Snapshot::from_pages((0..pages).map(|i| {
        let mut buf = vec![0u8; PAGE_SIZE];
        rng.fill(&mut buf[..]);
        (i as u64, Page::from_bytes(&buf))
    }))
}

/// Dirty copy of `prev` in one of the three similarity regimes.
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

/// One wall-clock timing of `op`, in nanoseconds.
fn time_ns(op: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    op();
    t0.elapsed().as_nanos() as f64
}

/// Median of pre-collected timings.
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Threads that can encode one job's shards at once at this point.
fn parallelism(p: &PoolPoint) -> usize {
    p.threads.min(p.shards)
}

/// Run the full sweep.
pub fn run(scale: &RunScale) -> BenchReport {
    let pages = ((256.0 * scale.footprint) as usize).clamp(32, 1024);
    let samples = if scale.duration >= 1.0 { 9 } else { 3 };
    let params = PaParams::default();
    let eparams = EncodeParams {
        block_size: params.block_size,
        max_probe: params.max_probe,
    };
    let prev = snapshot(pages, scale.seed);

    let regimes = ["small-edit", "half-rewrite", "fresh"]
        .into_iter()
        .map(|regime| {
            let target = dirty(&prev, regime, scale.seed + 1);
            let cache = SourceIndexCache::new();
            pa_encode_cached(&prev, &target, &params, &cache); // warm-up: populate
                                                               // Interleave the three variants within each sample round so a
                                                               // load spike on a shared machine inflates all three columns of
                                                               // that round instead of just one — check()'s cold-vs-reference
                                                               // comparison then sees paired medians, not decorrelated noise.
            let mut reference_t = Vec::with_capacity(samples);
            let mut cold_t = Vec::with_capacity(samples);
            let mut hot_t = Vec::with_capacity(samples);
            for _ in 0..samples {
                reference_t.push(time_ns(&mut || {
                    for (idx, page) in target.iter() {
                        let src = prev.get(idx).unwrap();
                        std::hint::black_box(encode_with_report_reference(
                            src.as_slice(),
                            page.as_slice(),
                            &eparams,
                        ));
                    }
                }));
                cold_t.push(time_ns(&mut || {
                    std::hint::black_box(pa_encode(&prev, &target, &params));
                }));
                hot_t.push(time_ns(&mut || {
                    std::hint::black_box(pa_encode_cached(&prev, &target, &params, &cache));
                }));
            }
            RegimeRow {
                regime,
                reference_ns_per_page: median(reference_t) / pages as f64,
                cold_ns_per_page: median(cold_t) / pages as f64,
                hot_ns_per_page: median(hot_t) / pages as f64,
            }
        })
        .collect();

    let target = dirty(&prev, "half-rewrite", scale.seed + 1);
    // Measure each *effective* plan once; widths that clamp to the same
    // (threads, shards) share the measurement (see [`PoolPoint`]). The
    // plans take turns within each sample round, so a change in host load
    // lands on every plan of that round instead of on one plan's series.
    let mut pools: Vec<((usize, usize), CompressorPool)> = Vec::new();
    let mut widths = Vec::with_capacity(DEFAULT_WORKERS.len());
    for workers in DEFAULT_WORKERS {
        let pool = CompressorPool::spawn(workers, SOLO_QUANTUM, None);
        let plan = (pool.threads(), plan_shards(pages, workers).len());
        if pools.iter().all(|(p, _)| *p != plan) {
            pools.push((plan, pool));
        }
        widths.push((workers, plan));
    }
    let encode = |pool: &CompressorPool| pool.encode(0, prev.clone(), target.clone(), params);
    for (_, pool) in &pools {
        encode(pool); // warm-up: populate the pool's index cache
    }
    let mut times = vec![Vec::with_capacity(samples); pools.len()];
    for _ in 0..samples {
        for ((_, pool), t) in pools.iter().zip(&mut times) {
            t.push(time_ns(&mut || {
                std::hint::black_box(encode(pool));
            }));
        }
    }
    let measured: Vec<((usize, usize), f64)> = pools
        .iter()
        .zip(times)
        .map(|((plan, _), t)| (*plan, median(t) / pages as f64))
        .collect();
    let pool: Vec<PoolPoint> = widths
        .into_iter()
        .map(|(workers, plan)| PoolPoint {
            workers,
            threads: plan.0,
            shards: plan.1,
            ns_per_page: measured
                .iter()
                .find(|(p, _)| *p == plan)
                .expect("measured")
                .1,
        })
        .collect();

    // Widths that all encode on one thread count cannot scale, so the
    // monotonicity gate has nothing to verify (see `BenchReport::check`).
    let degenerate = pool.iter().all(|p| parallelism(p) == parallelism(&pool[0]));

    BenchReport {
        pages,
        samples,
        regimes,
        pool,
        degenerate,
    }
}

/// Render both sweeps as markdown tables.
pub fn render(report: &BenchReport) -> String {
    let mut out = format!(
        "{} pages x {} samples, median ns/page (this machine)\n\n",
        report.pages, report.samples
    );
    out.push_str(&markdown_table(
        &[
            "regime",
            "reference (ns)",
            "cold (ns)",
            "hot (ns)",
            "hot vs reference",
            "hot vs cold",
        ],
        &report
            .regimes
            .iter()
            .map(|r| {
                vec![
                    r.regime.to_string(),
                    f(r.reference_ns_per_page),
                    f(r.cold_ns_per_page),
                    f(r.hot_ns_per_page),
                    format!("{:.2}x", r.speedup_hot_vs_reference()),
                    format!("{:.2}x", r.speedup_hot_vs_cold()),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out.push_str("\npooled encode, half-rewrite, warm cache:\n\n");
    out.push_str(&markdown_table(
        &["workers", "threads", "shards", "ns/page"],
        &report
            .pool
            .iter()
            .map(|p| {
                vec![
                    p.workers.to_string(),
                    p.threads.to_string(),
                    p.shards.to_string(),
                    f(p.ns_per_page),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_all_rows_and_valid_json() {
        let scale = RunScale {
            footprint: 0.12,
            duration: 0.12,
            seed: 3,
        };
        let report = run(&scale);
        assert_eq!(report.pages, 32);
        assert_eq!(report.regimes.len(), 3);
        assert_eq!(report.pool.len(), DEFAULT_WORKERS.len());
        for r in &report.regimes {
            assert!(r.reference_ns_per_page > 0.0, "{r:?}");
            assert!(r.cold_ns_per_page > 0.0, "{r:?}");
            assert!(r.hot_ns_per_page > 0.0, "{r:?}");
        }
        for p in &report.pool {
            assert!(p.ns_per_page > 0.0, "{p:?}");
            assert!(p.threads >= 1 && p.threads <= p.workers, "{p:?}");
        }
        // Widths collapsing to the same effective plan must share their
        // measurement — identical code paths must report identical numbers.
        for (a, b) in report.pool.iter().zip(report.pool.iter().skip(1)) {
            assert_eq!(b.shards, plan_shards(report.pages, b.workers).len());
            if (a.threads, a.shards) == (b.threads, b.shards) {
                assert_eq!(a.ns_per_page, b.ns_per_page, "{a:?} vs {b:?}");
            }
        }
        // The flag must agree with the thread counts it reports.
        let parallel: std::collections::HashSet<_> = report.pool.iter().map(parallelism).collect();
        assert_eq!(report.degenerate, parallel.len() <= 1, "{report:?}");
        let json = report.to_json();
        for key in [
            "\"bench\": \"delta_codec\"",
            "\"regimes\"",
            "\"pool\"",
            "\"degenerate\"",
            "\"speedup_hot_vs_reference\"",
            "\"workers\": 8",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces/brackets — the file must parse as JSON.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
        let rendered = render(&report);
        assert!(rendered.contains("half-rewrite"));
        assert!(rendered.contains("workers"));
    }

    #[test]
    fn check_flags_cold_regressions_and_pool_anti_scaling() {
        let row = |regime, reference, cold| RegimeRow {
            regime,
            reference_ns_per_page: reference,
            cold_ns_per_page: cold,
            hot_ns_per_page: 1.0,
        };
        let point = |workers, ns| PoolPoint {
            workers,
            threads: 1,
            shards: 1,
            ns_per_page: ns,
        };
        let good = BenchReport {
            pages: 32,
            samples: 3,
            regimes: vec![row("small-edit", 10.0, 5.0), row("fresh", 10.0, 9.9)],
            pool: vec![point(1, 10.0), point(2, 10.0), point(8, 9.0)],
            degenerate: false,
        };
        assert!(good.check().is_empty(), "{:?}", good.check());
        assert!(good.warnings().is_empty(), "{:?}", good.warnings());

        // A degenerate sweep passes the gate but carries a warning: one
        // thread count cannot scale, so its pool numbers are not gated.
        let degenerate = BenchReport {
            pool: vec![point(1, 10.0), point(2, 12.0), point(8, 10.4)],
            degenerate: true,
            ..good.clone()
        };
        assert!(degenerate.check().is_empty());
        let warnings = degenerate.warnings();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("vacuously"), "{warnings:?}");
        assert!(degenerate.to_json().contains("\"degenerate\": true"));

        let cold_loses = BenchReport {
            regimes: vec![row("fresh", 10.0, 10.5)],
            ..good.clone()
        };
        assert_eq!(cold_loses.check().len(), 1);

        // Adjacent +5% tolerance, but endpoints compared exactly.
        let anti_scaling = BenchReport {
            pool: vec![point(1, 10.0), point(8, 10.4)],
            ..good.clone()
        };
        let violations = anti_scaling.check();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("anti-scales"), "{violations:?}");

        let jump = BenchReport {
            pool: vec![point(1, 10.0), point(2, 12.0), point(8, 9.0)],
            ..good
        };
        let violations = jump.check();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("+5%"), "{violations:?}");
    }
}
