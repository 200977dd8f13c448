//! The SIC solve in the `EngineConfig` form the fleet benchmark
//! (`fleetbench/`) calls. The solve and every decider live in `aic_core`.

use aic_core::baselines::sic_optimal_w;
use aic_core::PolicyEnv;

use crate::engine::EngineConfig;

/// `aic_core::baselines::sic_optimal_w` for `config`'s deployment, planned
/// at `cores` workers from a single-core `mean_dl`.
pub fn sic_optimal_w_pooled(
    mean_c1: f64,
    mean_dl: f64,
    mean_ds_bytes: f64,
    config: &EngineConfig,
    base_time: f64,
    cores: usize,
) -> f64 {
    let env = PolicyEnv {
        cores,
        ..config.policy_env()
    };
    sic_optimal_w(mean_c1, mean_dl, mean_ds_bytes, &env, base_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Compressor;
    use crate::service::ServiceConfig;
    use aic_model::FailureRates;

    #[test]
    fn fleet_env_and_the_adapter_match_the_engine_view_of_the_fleet() {
        let mut cfg = ServiceConfig::fleet_default(FailureRates::three(2e-7, 1.8e-6, 4e-7));
        cfg.b3 = 1.5e6;
        cfg.sharing_factor = 2.0;
        cfg.cores = 3;
        cfg.cost_model.io_bw = 80.0e6;
        // The engine view of the fleet, built the way the fleet benchmark
        // builds it.
        let mut s = EngineConfig::testbed(cfg.rates.clone());
        s.b3 = cfg.b3;
        s.sharing_factor = cfg.sharing_factor;
        s.cores = cfg.cores;
        s.cost_model = cfg.cost_model;
        s.compressor = Compressor::PaDelta(cfg.pa);
        assert_eq!(cfg.policy_env(), s.policy_env());

        for (c1, dl, ds, base_time) in [(0.1, 30.0, 1e6, 800.0), (0.02, 0.5, 4e5, 24.0)] {
            let adapted = sic_optimal_w_pooled(c1, dl, ds, &s, base_time, cfg.cores);
            let solved = sic_optimal_w(c1, dl, ds, &cfg.policy_env(), base_time);
            assert_eq!(adapted.to_bits(), solved.to_bits());
        }
    }
}
