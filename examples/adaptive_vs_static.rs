//! Adaptive (AIC) vs static (SIC) vs Moody, head to head on one benchmark.
//!
//! ```text
//! cargo run --release --example adaptive_vs_static [persona] [duration-scale]
//! ```
//!
//! Reproduces a single cell of the paper's Fig. 11 comparison with full
//! visibility into what each scheme did: the calibration pass, SIC's chosen
//! static interval, AIC's adaptive cut times, and the resulting NET².

use aic::ckpt::engine::run_engine;
use aic::core::baselines::{calibration_means, moody_config, sic_optimal_w, FixedIntervalPolicy};
use aic::core::policy::{AicConfig, AicPolicy};
use aic_bench::experiments::{geometry_scaled_engine, scaled_persona, RunScale};

fn main() {
    let mut args = std::env::args().skip(1);
    let persona = args.next().unwrap_or_else(|| "milc".to_string());
    let duration: f64 = args
        .next()
        .map(|s| s.parse().expect("duration scale must be a number"))
        .unwrap_or(0.25);

    let scale = RunScale {
        footprint: 0.25,
        duration,
        seed: 42,
    };
    let config = geometry_scaled_engine(&scale);

    println!(
        "benchmark {persona} at footprint x{}, duration x{duration}",
        scale.footprint
    );
    println!(
        "bandwidths: B2 = {:.1} MB/s, B3 = {:.1} KB/s (geometry-scaled Coastal)\n",
        config.b2 / 1e6,
        config.b3 / 1e3
    );

    // --- Calibration pass: what SIC is given offline.
    let mut cal = FixedIntervalPolicy::new((20.0 * duration).max(2.0));
    let cal_report = run_engine(scaled_persona(&persona, &scale), &mut cal, &config);
    let means = calibration_means(&cal_report.intervals);
    println!(
        "calibration: mean c1 = {:.3} s, mean dl = {:.3} s, mean ds = {:.2} MB",
        means.c1,
        means.dl,
        means.ds / 1e6
    );

    // --- SIC.
    let w_star = sic_optimal_w(
        means.c1,
        means.dl,
        means.ds,
        &config.policy_env(),
        cal_report.base_time,
    )
    .clamp(2.0, cal_report.base_time);
    let mut sic = FixedIntervalPolicy::new(w_star);
    let sic_report = run_engine(scaled_persona(&persona, &scale), &mut sic, &config);
    println!(
        "SIC: static interval w* = {w_star:.1} s → NET^2 = {:.4}",
        sic_report.net2
    );

    // --- AIC.
    let mut aic_cfg = AicConfig::testbed();
    aic_cfg.bootstrap_interval = (15.0 * duration).max(2.0);
    let mut aic = AicPolicy::new(aic_cfg, &config.policy_env());
    let aic_report = run_engine(scaled_persona(&persona, &scale), &mut aic, &config);
    println!(
        "AIC: {} cuts ({} adaptive) → NET^2 = {:.4}",
        aic_report
            .intervals
            .iter()
            .filter(|r| r.raw_bytes > 0)
            .count(),
        aic.adaptive_cuts(),
        aic_report.net2
    );

    // --- Moody.
    let mut probe = scaled_persona(&persona, &scale);
    probe.run_until(aic::memsim::SimTime::ZERO);
    let moody = moody_config(
        probe.space().footprint_bytes(),
        &config.policy_env(),
        &config.rates,
    );
    println!(
        "Moody: w = {:.1} s, schedule n1={} n2={} → NET^2 = {:.4}",
        moody.w, moody.sched.n1, moody.sched.n2, moody.net2
    );

    println!();
    let gain = 1.0 - aic_report.net2 / sic_report.net2;
    println!("AIC vs SIC : {:+.2}% NET^2", -gain * 100.0);
    println!(
        "AIC vs Moody: {:+.2}% NET^2",
        -(1.0 - aic_report.net2 / moody.net2) * 100.0
    );

    println!("\nAIC interval log (w, predicted-cheap moments have small ds):");
    for rec in aic_report.intervals.iter().filter(|r| r.raw_bytes > 0) {
        println!(
            "  seq {:2}: w = {:6.1} s, ds = {:8.2} MB, c3 = {:7.1} s",
            rec.seq,
            rec.w,
            rec.ds_bytes as f64 / 1e6,
            rec.params.c[2]
        );
    }
}
