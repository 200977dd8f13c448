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
//! * the engine-recorded mean delta latency `dl` (model, deployment units),
//! * the SIC plan `w*` for that width from a single-core calibration
//!   (`sic_optimal_w` at that width), and the NET² of running that plan.
//!
//! Wider pools should shorten both `dl` and `w*` — cheaper checkpoints are
//! worth taking more often — and NET² should not degrade. Every column is
//! computed on the virtual clock, so the output is deterministic. The
//! pool's wall-clock encode time per width is `repro bench`'s pool sweep.

use aic_ckpt::engine::run_engine;
use aic_core::baselines::{calibration_means, sic_optimal_w, FixedIntervalPolicy};

use crate::experiments::{scaled_persona, sic_calibration, testbed_engine, RunScale};
use crate::output::{f, markdown_table};

/// One pool-width measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolRow {
    /// Compression workers in the pool.
    pub cores: usize,
    /// Engine-recorded mean delta latency at this width, seconds.
    pub mean_dl: f64,
    /// SIC's pooled plan `w*` from the single-core calibration, seconds.
    pub w_star: f64,
    /// NET² of running the pooled plan at this width.
    pub net2: f64,
}

/// Default pool widths.
pub const DEFAULT_CORES: [usize; 4] = [1, 2, 4, 8];

/// Run the pool-width sweep.
pub fn run(cores: &[usize], scale: &RunScale) -> Vec<PoolRow> {
    // --- Single-core calibration: the means the pooled planner starts from.
    let (means, base_time) = sic_calibration("libquantum", scale, &testbed_engine());

    cores
        .iter()
        .map(|&n| {
            let mut cfg = testbed_engine();
            cfg.cores = n;
            let env = cfg.policy_env();
            let w_star =
                sic_optimal_w(means.c1, means.dl, means.ds, &env, base_time).clamp(2.0, base_time);
            let mut policy = FixedIntervalPolicy::new(w_star);
            let report = run_engine(scaled_persona("libquantum", scale), &mut policy, &cfg);
            let mean_dl = calibration_means(&report.intervals).dl;
            PoolRow {
                cores: n,
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
        &["cores", "mean dl (s)", "SIC w* (s)", "NET²"],
        &rows
            .iter()
            .map(|r| vec![r.cores.to_string(), f(r.mean_dl), f(r.w_star), f(r.net2)])
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
            assert!(r.net2 >= 1.0);
        }
    }
}
