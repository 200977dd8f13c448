//! Fig. 11: NET² of the six benchmarks under AIC, SIC, and Moody.
//!
//! Protocol (Section V.C):
//!
//! * **Moody** — full uncompressed checkpoints on the optimal sequential
//!   multi-level schedule; NET² from the Moody model at the measured full
//!   checkpoint cost.
//! * **SIC** — incremental + Xdelta3-PA at the *fixed* interval that the
//!   static L2L3 model deems optimal for the benchmark's mean measured
//!   costs (a calibration pass provides the averages, as the paper's SIC
//!   gets them offline).
//! * **AIC** — the adaptive policy, no prior knowledge.
//!
//! AIC and SIC are scored by Eq. (1) over their measured intervals;
//! λ = 10⁻³ split in Coastal proportions.

use aic_ckpt::engine::{run_engine, EngineConfig};
use aic_core::baselines::{moody_config, sic_optimal_w, FixedIntervalPolicy};
use aic_core::policy::{AicConfig, AicPolicy};
use aic_memsim::workloads::spec::ALL_PERSONAS;

use crate::experiments::{scaled_persona, sic_calibration, RunScale};
use crate::output::{f, markdown_table, pct};

/// One benchmark's three-way comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Benchmark name.
    pub name: String,
    /// NET² under AIC.
    pub aic: f64,
    /// NET² under SIC at its static optimum interval.
    pub sic: f64,
    /// NET² of the Moody configuration.
    pub moody: f64,
    /// SIC's chosen static interval, seconds.
    pub sic_w: f64,
}

impl Fig11Row {
    /// AIC's improvement over SIC (the paper's headline metric).
    pub fn aic_vs_sic(&self) -> f64 {
        1.0 - self.aic / self.sic
    }
}

/// Evaluate one benchmark under the three schemes. `config` carries the
/// bandwidths (scaled variants feed Fig. 12).
pub fn measure(name: &str, scale: &RunScale, config: &EngineConfig) -> Fig11Row {
    // --- SIC at its static optimum, from a calibration pass.
    let (means, base_time) = sic_calibration(name, scale, config);
    let env = config.policy_env();
    let w_star = sic_optimal_w(means.c1, means.dl, means.ds, &env, base_time).clamp(2.0, base_time);
    let mut sic_policy = FixedIntervalPolicy::new(w_star);
    let sic = run_engine(scaled_persona(name, scale), &mut sic_policy, config);

    // --- AIC.
    let mut aic_cfg = AicConfig::testbed();
    aic_cfg.bootstrap_interval = (15.0 * scale.duration).max(2.0);
    let mut aic_policy = AicPolicy::new(aic_cfg, &env);
    let aic = run_engine(scaled_persona(name, scale), &mut aic_policy, config);

    // --- Moody: full-footprint checkpoints on its own model's optimum.
    // Footprint from the process itself: rerun init cheaply.
    let mut p = scaled_persona(name, scale);
    p.run_until(aic_memsim::SimTime::from_secs(0.0));
    let moody = moody_config(p.space().footprint_bytes(), &env, &config.rates).net2;

    Fig11Row {
        name: name.to_string(),
        aic: aic.net2,
        sic: sic.net2,
        moody,
        sic_w: w_star,
    }
}

/// Run all six benchmarks at the testbed configuration (bandwidths scaled
/// by the geometry ratio — see [`crate::experiments::geometry_scaled_engine`]).
pub fn run(scale: &RunScale) -> Vec<Fig11Row> {
    let config = crate::experiments::geometry_scaled_engine(scale);
    ALL_PERSONAS
        .iter()
        .map(|n| measure(n, scale, &config))
        .collect()
}

/// Render as a markdown table.
pub fn render(rows: &[Fig11Row]) -> String {
    markdown_table(
        &[
            "Benchmark",
            "AIC",
            "SIC",
            "Moody",
            "AIC vs SIC",
            "SIC w* (s)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    f(r.aic),
                    f(r.sic),
                    f(r.moody),
                    pct(r.aic_vs_sic()),
                    f(r.sic_w),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Testbed rates re-export for binaries.
pub fn rates() -> aic_model::FailureRates {
    crate::experiments::testbed_rates()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_schemes_beat_moody_and_aic_not_worse_than_sic() {
        let scale = RunScale {
            footprint: 0.12,
            duration: 0.12,
            seed: 9,
        };
        let config = crate::experiments::testbed_engine();
        for name in ["milc", "sphinx3"] {
            let row = measure(name, &scale, &config);
            assert!(
                row.aic < row.moody && row.sic < row.moody,
                "{name}: {row:?}"
            );
            assert!(
                row.aic <= row.sic * 1.08,
                "{name}: AIC {} vs SIC {}",
                row.aic,
                row.sic
            );
            assert!(row.aic >= 1.0);
        }
    }
}
