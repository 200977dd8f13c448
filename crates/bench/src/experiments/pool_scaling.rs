//! Pool scaling (extension — no paper counterpart): how a multi-worker
//! delta-compression pool changes the checkpointing economics.
//!
//! The paper dedicates *one* core to checkpointing (Section III). Pages are
//! independent delta units under Xdelta3-PA, so the compression step is
//! embarrassingly parallel: a pool of `cores` workers divides the compute
//! term of the delta latency while the IO term stays serial (an Amdahl
//! split; see `CostModel::pooled_delta_latency`). This experiment sweeps
//! the pool width and reports, per width:
//!
//! * the wall-clock time of one encode through a `CompressorPool` of that
//!   width, warm source-index cache (measured, this machine),
//! * the engine-recorded mean delta latency `dl` (model, deployment units),
//! * the SIC plan `w*` for that width from a single-core calibration
//!   (`sic_optimal_w_pooled`), and the NET² of running that plan.
//!
//! Wider pools should shorten both `dl` and `w*` — cheaper checkpoints are
//! worth taking more often — and NET² should not degrade. The wall-clock
//! column only shows real speedup when the host has that many cores; the
//! bit-identity of the pooled output is asserted by the pool's own tests.

use std::time::Instant;

use aic_ckpt::concurrent::{CompressorPool, SOLO_QUANTUM};
use aic_ckpt::engine::run_engine;
use aic_ckpt::policies::{calibration_means, sic_optimal_w_pooled, FixedIntervalPolicy};
use aic_delta::pa::{pa_encode_cached, PaParams, SourceIndexCache};
use aic_memsim::{Page, Snapshot, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::experiments::{scaled_persona, testbed_engine, RunScale};
use crate::output::{f, markdown_table};

/// One pool-width measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolRow {
    /// Compression workers in the pool.
    pub cores: usize,
    /// Wall-clock milliseconds for one pooled PA encode (min of 5).
    pub encode_ms: f64,
    /// Wall-clock speedup over the serial encode on this host.
    pub speedup: f64,
    /// Engine-recorded mean delta latency at this width, seconds.
    pub mean_dl: f64,
    /// SIC's pooled plan `w*` from the single-core calibration, seconds.
    pub w_star: f64,
    /// NET² of running the pooled plan at this width.
    pub net2: f64,
}

/// Default pool widths.
pub const DEFAULT_CORES: [usize; 4] = [1, 2, 4, 8];

/// Synthetic 256-page snapshot pair (half-page rewrites — the regime where
/// compression compute dominates and sharding has the most to win).
fn encode_pair(seed: u64) -> (Snapshot, Snapshot) {
    const PAGES: usize = 256;
    let mut rng = StdRng::seed_from_u64(seed);
    let prev = Snapshot::from_pages((0..PAGES).map(|i| {
        let mut buf = vec![0u8; PAGE_SIZE];
        rng.fill(&mut buf[..]);
        (i as u64, Page::from_bytes(&buf))
    }));
    let target = Snapshot::from_pages(prev.iter().map(|(idx, page)| {
        let mut bytes = page.as_slice().to_vec();
        for b in &mut bytes[..PAGE_SIZE / 2] {
            *b = rng.gen();
        }
        (idx, Page::from_bytes(&bytes))
    }));
    (prev, target)
}

fn min_wall_ms(mut encode: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            encode();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Run the pool-width sweep.
pub fn run(cores: &[usize], scale: &RunScale) -> Vec<PoolRow> {
    // --- Single-core calibration: the means the pooled planner starts from.
    let cal_cfg = testbed_engine();
    let cal_interval = (20.0 * scale.duration).max(2.0);
    let mut cal_policy = FixedIntervalPolicy::new(cal_interval);
    let cal = run_engine(
        scaled_persona("libquantum", scale),
        &mut cal_policy,
        &cal_cfg,
    );
    let means = calibration_means(&cal.intervals);

    // --- Wall-clock baseline: the serial encode. Both sides encode through
    // a source-index cache, so the best of five runs is cache-warm on each.
    let (prev, target) = encode_pair(scale.seed);
    let params = PaParams::default();
    let cache = SourceIndexCache::new();
    let serial_ms = min_wall_ms(|| {
        pa_encode_cached(&prev, &target, &params, &cache);
    });

    cores
        .iter()
        .map(|&n| {
            let pool = CompressorPool::spawn(n, SOLO_QUANTUM, None);
            let encode_ms = min_wall_ms(|| {
                pool.encode(0, prev.clone(), target.clone(), params);
            });
            let w_star =
                sic_optimal_w_pooled(means.c1, means.dl, means.ds, &cal_cfg, cal.base_time, n)
                    .clamp(2.0, cal.base_time);
            let mut cfg = testbed_engine();
            cfg.cores = n;
            let mut policy = FixedIntervalPolicy::new(w_star);
            let report = run_engine(scaled_persona("libquantum", scale), &mut policy, &cfg);
            let mean_dl = calibration_means(&report.intervals).dl;
            PoolRow {
                cores: n,
                encode_ms,
                speedup: serial_ms / encode_ms.max(1e-9),
                mean_dl,
                w_star,
                net2: report.net2,
            }
        })
        .collect()
}

/// Render the sweep.
pub fn render(rows: &[PoolRow]) -> String {
    markdown_table(
        &[
            "cores",
            "encode (ms)",
            "speedup",
            "mean dl (s)",
            "SIC w* (s)",
            "NET²",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.cores.to_string(),
                    f(r.encode_ms),
                    format!("{:.2}x", r.speedup),
                    f(r.mean_dl),
                    f(r.w_star),
                    f(r.net2),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_pools_shrink_dl_and_plan_shorter_spans() {
        let scale = RunScale {
            footprint: 0.12,
            duration: 0.12,
            seed: 11,
        };
        let rows = run(&[1, 4], &scale);
        assert_eq!(rows.len(), 2);
        let (one, four) = (&rows[0], &rows[1]);
        // Model-level effects are deterministic regardless of host cores:
        // the pooled dl and the pooled plan both shrink.
        assert!(four.mean_dl < one.mean_dl, "{four:?} vs {one:?}");
        assert!(four.w_star <= one.w_star, "{four:?} vs {one:?}");
        // Cheaper checkpoints must not make the outcome worse.
        assert!(four.net2 <= one.net2 * 1.05, "{four:?} vs {one:?}");
        for r in &rows {
            assert!(r.encode_ms > 0.0 && r.speedup > 0.0);
            assert!(r.net2 >= 1.0);
        }
    }
}
