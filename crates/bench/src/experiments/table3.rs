//! Table 3: the six target benchmarks with their compressor performance
//! (Xdelta3 vs Xdelta3-PA compression ratio and delta latency) and AIC's
//! failure-free execution-time overhead.

use aic_ckpt::engine::{run_engine, Compressor, EngineReport};
use aic_core::baselines::{sic_optimal_w, FixedIntervalPolicy};
use aic_core::policy::{AicConfig, AicPolicy};
use aic_delta::encode::EncodeParams;
use aic_delta::pa::PaParams;
use aic_memsim::workloads::spec::ALL_PERSONAS;

use crate::experiments::{
    scaled_persona, sic_calibration, testbed_engine, testbed_rates, RunScale,
};
use crate::output::{f, markdown_table, pct};

/// One Table 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Base execution time `t` (scaled), seconds.
    pub base_time: f64,
    /// Mean compression ratio under whole-file Xdelta3.
    pub ratio_xdelta3: f64,
    /// Mean compression ratio under page-aligned Xdelta3-PA.
    pub ratio_pa: f64,
    /// Mean delta latency under Xdelta3, seconds.
    pub dl_xdelta3: f64,
    /// Mean delta latency under Xdelta3-PA, seconds.
    pub dl_pa: f64,
    /// AIC execution time (failure-free wall time), seconds.
    pub aic_time: f64,
    /// AIC overhead fraction over base.
    pub aic_overhead: f64,
}

fn fixed_run(name: &str, scale: &RunScale, compressor: Compressor, interval: f64) -> EngineReport {
    // Codec comparison wants a fixed cadence; the unscaled testbed keeps
    // the drain rule from stretching intervals.
    let mut config = testbed_engine();
    config.compressor = compressor;
    let mut policy = FixedIntervalPolicy::new(interval);
    run_engine(scaled_persona(name, scale), &mut policy, &config)
}

/// Measure one benchmark.
pub fn measure(name: &str, scale: &RunScale) -> Table3Row {
    // The paper runs SIC with both compressors, i.e. at the benchmark's
    // own static-optimal interval — calibrate first, then compare codecs
    // at that cadence (sphinx3's tiny deltas make its interval short, so
    // its per-page changes stay small and compress well; Table 3's CR
    // contrast depends on this).
    let config = testbed_engine();
    let env = config.policy_env();
    let (means, base_time) = sic_calibration(name, scale, &config);
    let interval =
        sic_optimal_w(means.c1, means.dl, means.ds, &env, base_time).clamp(2.0, base_time / 2.0);

    let pa = fixed_run(
        name,
        scale,
        Compressor::PaDelta(PaParams::default()),
        interval,
    );
    let xd = fixed_run(
        name,
        scale,
        Compressor::WholeFile(EncodeParams::default()),
        interval,
    );

    // AIC overhead run.
    let mut aic_cfg = AicConfig::testbed(testbed_rates());
    aic_cfg.bootstrap_interval = (15.0 * scale.duration).max(2.0);
    let mut aic = AicPolicy::new(aic_cfg, &env);
    let aic_report = run_engine(scaled_persona(name, scale), &mut aic, &config);

    Table3Row {
        name: name.to_string(),
        base_time: aic_report.base_time,
        ratio_xdelta3: xd.mean_ratio(),
        ratio_pa: pa.mean_ratio(),
        dl_xdelta3: xd.mean_dl(),
        dl_pa: pa.mean_dl(),
        aic_time: aic_report.wall_time,
        aic_overhead: aic_report.overhead_frac(),
    }
}

/// Run all six benchmarks.
pub fn run(scale: &RunScale) -> Vec<Table3Row> {
    ALL_PERSONAS.iter().map(|n| measure(n, scale)).collect()
}

/// Render as the paper's Table 3 layout.
pub fn render(rows: &[Table3Row]) -> String {
    markdown_table(
        &[
            "Benchmark",
            "base t (s)",
            "CR Xdelta3",
            "CR Xdelta3-PA",
            "DL Xdelta3 (s)",
            "DL Xdelta3-PA (s)",
            "AIC time (s)",
            "AIC overhead",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    f(r.base_time),
                    f(r.ratio_xdelta3),
                    f(r.ratio_pa),
                    f(r.dl_xdelta3),
                    f(r.dl_pa),
                    f(r.aic_time),
                    pct(r.aic_overhead),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunScale {
        RunScale {
            footprint: 0.12,
            duration: 0.12,
            seed: 5,
        }
    }

    #[test]
    fn milc_compresses_worse_than_sphinx3() {
        // Table 3's extremes: milc CR ≈ 0.79–0.94, sphinx3 ≈ 0.14–0.27.
        let milc = measure("milc", &quick());
        let sphinx = measure("sphinx3", &quick());
        assert!(
            milc.ratio_pa > 2.0 * sphinx.ratio_pa.max(0.01),
            "milc {} vs sphinx3 {}",
            milc.ratio_pa,
            sphinx.ratio_pa
        );
        assert!(milc.ratio_pa > 0.5, "milc PA ratio {}", milc.ratio_pa);
        assert!(
            sphinx.ratio_pa < 0.4,
            "sphinx3 PA ratio {}",
            sphinx.ratio_pa
        );
    }

    #[test]
    fn pa_and_whole_file_comparable() {
        // The paper's point: PA compresses about as well as stock Xdelta3.
        let r = measure("bzip2", &quick());
        assert!(
            (r.ratio_pa - r.ratio_xdelta3).abs() < 0.30,
            "PA {} vs Xdelta3 {}",
            r.ratio_pa,
            r.ratio_xdelta3
        );
    }

    #[test]
    fn aic_overhead_small() {
        // Paper bound: ≤ 2.6% (we allow a little slack at reduced scale,
        // where fixed per-decision costs amortize over less work).
        let r = measure("libquantum", &quick());
        assert!(r.aic_overhead < 0.08, "overhead {}", r.aic_overhead);
        assert!(r.aic_time > r.base_time);
    }
}
