//! Operational sharing factor (extension of Fig. 7).
//!
//! Fig. 7's analytic treatment assumes the worst case: all SF processes
//! checkpoint simultaneously and split the core evenly. The fleet engine
//! measures the real thing — FIFO contention on one shared checkpointing
//! core — so this experiment reports, per sharing factor, both the
//! operational NET² (mean across fleet members) and the analytic
//! worst-case prediction. The operational numbers should sit at or below
//! the worst-case curve.

use aic_ckpt::engine::EngineConfig;
use aic_ckpt::fleet::run_fleet;
use aic_core::baselines::FixedIntervalPolicy;
use aic_core::CheckpointPolicy;
use aic_model::concurrent::{net2_at, ConcurrentModel};
use aic_model::params::LevelCosts;

use crate::experiments::{geometry_scaled_engine, scaled_persona, RunScale};
use crate::output::{f, markdown_table};

/// One sharing-factor measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRow {
    /// Number of processes sharing the core.
    pub sf: usize,
    /// Mean operational NET² across fleet members.
    pub net2_operational: f64,
    /// Analytic worst-case NET² at the same mean measured costs.
    pub net2_model: f64,
    /// Mean effective transfer window (c3 − c1) including queueing, s.
    pub mean_window: f64,
}

/// Default sharing factors.
pub const DEFAULT_SFS: [usize; 3] = [1, 3, 7];

/// Run the sweep on `persona` with a fixed per-process cadence.
pub fn run(persona: &str, sfs: &[usize], scale: &RunScale) -> Vec<FleetRow> {
    let config: EngineConfig = geometry_scaled_engine(scale);
    let interval = (30.0 * scale.duration).max(4.0);
    sfs.iter()
        .map(|&sf| {
            let processes = (0..sf)
                .map(|i| {
                    scaled_persona(
                        persona,
                        &RunScale {
                            seed: scale.seed + i as u64,
                            ..*scale
                        },
                    )
                })
                .collect();
            let policies: Vec<Box<dyn CheckpointPolicy>> = (0..sf)
                .map(|_| Box::new(FixedIntervalPolicy::new(interval)) as Box<dyn CheckpointPolicy>)
                .collect();
            let reports = run_fleet(processes, policies, &config);

            let net2_operational =
                reports.iter().map(|r| r.net2).sum::<f64>() / reports.len() as f64;
            let cks: Vec<f64> = reports
                .iter()
                .flat_map(|r| r.intervals.iter())
                .filter(|x| x.raw_bytes > 0)
                .map(|x| x.params.transfer(3))
                .collect();
            let mean_window = cks.iter().sum::<f64>() / cks.len().max(1) as f64;

            // Analytic worst-case at the fleet's mean measured costs.
            let mean_c1 = reports
                .iter()
                .flat_map(|r| r.intervals.iter())
                .filter(|x| x.raw_bytes > 0)
                .map(|x| x.c1)
                .sum::<f64>()
                / cks.len().max(1) as f64;
            let sf1_window = {
                // Uncontended window at the same mean ds/dl.
                let mean_dl = reports
                    .iter()
                    .flat_map(|r| r.intervals.iter())
                    .filter(|x| x.raw_bytes > 0)
                    .map(|x| x.dl)
                    .sum::<f64>()
                    / cks.len().max(1) as f64;
                let mean_ds = reports
                    .iter()
                    .flat_map(|r| r.intervals.iter())
                    .filter(|x| x.raw_bytes > 0)
                    .map(|x| x.ds_bytes as f64)
                    .sum::<f64>()
                    / cks.len().max(1) as f64;
                mean_dl + mean_ds / config.b2 + mean_ds / config.b3
            };
            let costs = LevelCosts::symmetric(
                mean_c1,
                mean_c1 + sf1_window.min(1e6) * 0.1,
                mean_c1 + sf1_window,
            )
            .with_sharing_factor(sf as f64);
            let w_lo = costs.transfer(3).max(interval);
            let net2_model = net2_at(ConcurrentModel::L2L3, w_lo, &costs, &config.rates);

            FleetRow {
                sf,
                net2_operational,
                net2_model,
                mean_window,
            }
        })
        .collect()
}

/// Render the sweep.
pub fn render(rows: &[FleetRow]) -> String {
    markdown_table(
        &[
            "SF",
            "operational NET²",
            "worst-case model NET²",
            "eff. window (s)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.sf.to_string(),
                    f(r.net2_operational),
                    f(r.net2_model),
                    f(r.mean_window),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_grows_with_sf_and_stays_below_worst_case() {
        let scale = RunScale {
            footprint: 0.12,
            duration: 0.12,
            seed: 23,
        };
        let rows = run("libquantum", &[1, 7], &scale);
        assert!(
            rows[1].mean_window > rows[0].mean_window,
            "windows: {rows:?}"
        );
        assert!(rows[1].net2_operational >= rows[0].net2_operational - 1e-6);
        // FIFO contention is no worse than the all-at-once worst case.
        assert!(
            rows[1].net2_operational <= rows[1].net2_model * 1.1,
            "operational {:.4} vs worst-case {:.4}",
            rows[1].net2_operational,
            rows[1].net2_model
        );
    }
}
