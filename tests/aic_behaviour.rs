//! Behavioural tests of the adaptive policy, end to end: AIC must place
//! checkpoints at the moments the paper's mechanism predicts — when the
//! in-memory contents are most similar to the previous checkpoint — and
//! must beat the static baseline precisely because of that.

use aic::ckpt::engine::{run_engine, EngineConfig};
use aic::core::baselines::{calibration_means, sic_optimal_w, FixedIntervalPolicy};
use aic::core::policy::{AicConfig, AicPolicy};
use aic::model::FailureRates;
use aic_bench::experiments::{geometry_scaled_engine, scaled_persona, RunScale};

fn rates() -> FailureRates {
    FailureRates::three(2e-7, 1.8e-6, 4e-7).with_total(1e-3)
}

fn scale() -> RunScale {
    RunScale {
        footprint: 0.2,
        duration: 0.25,
        seed: 33,
    }
}

fn aic_run(name: &str, config: &EngineConfig) -> (aic::ckpt::engine::EngineReport, u64) {
    let mut cfg = AicConfig::testbed();
    cfg.bootstrap_interval = 4.0;
    let mut policy = AicPolicy::new(cfg, &config.policy_env());
    let report = run_engine(scaled_persona(name, &scale()), &mut policy, config);
    (report, policy.adaptive_cuts())
}

#[test]
fn aic_exploits_milc_parity_phases() {
    // milc's delta size oscillates with the sweep parity. After bootstrap,
    // AIC's adaptive cuts should land disproportionately on cheap moments:
    // its mean compression ratio must be smaller than a fixed-interval
    // policy's on the same workload. (Longer horizon than the other tests
    // so several adaptive cuts happen.)
    let long = RunScale {
        duration: 0.6,
        ..scale()
    };
    // 4× remote congestion (Fig. 12's right edge): the cost of cutting at
    // an unlucky moment is large, so adaptive timing matters.
    let mut config = geometry_scaled_engine(&long);
    config.b3 /= 4.0;
    let mut cfg = AicConfig::testbed();
    cfg.bootstrap_interval = 4.0;
    let mut policy = AicPolicy::new(cfg, &config.policy_env());
    let aic_report = run_engine(scaled_persona("milc", &long), &mut policy, &config);
    let adaptive = policy.adaptive_cuts();
    assert!(
        adaptive >= 2,
        "AIC barely adapted ({adaptive} adaptive cuts)"
    );

    let mut fixed = FixedIntervalPolicy::new(40.0);
    let fixed_report = run_engine(scaled_persona("milc", &long), &mut fixed, &config);

    assert!(
        aic_report.net2 < fixed_report.net2,
        "AIC NET² {:.4} vs fixed {:.4}",
        aic_report.net2,
        fixed_report.net2
    );
}

#[test]
fn aic_beats_calibrated_sic_on_milc() {
    let config = geometry_scaled_engine(&scale());

    let mut cal = FixedIntervalPolicy::new(6.0);
    let cal_report = run_engine(scaled_persona("milc", &scale()), &mut cal, &config);
    let means = calibration_means(&cal_report.intervals);
    let w_star = sic_optimal_w(
        means.c1,
        means.dl,
        means.ds,
        &config.policy_env(),
        cal_report.base_time,
    )
    .clamp(2.0, cal_report.base_time);
    let mut sic = FixedIntervalPolicy::new(w_star);
    let sic_report = run_engine(scaled_persona("milc", &scale()), &mut sic, &config);

    let (aic_report, _) = aic_run("milc", &config);
    assert!(
        aic_report.net2 <= sic_report.net2 * 1.02,
        "AIC {:.4} vs SIC {:.4}",
        aic_report.net2,
        sic_report.net2
    );
}

#[test]
fn aic_overhead_bounded_across_personas() {
    // Table 3's claim: ≤ 2.6% failure-free overhead. Allow modest slack at
    // reduced scale (fixed per-decision costs amortize over less work).
    let config = EngineConfig::testbed(rates());
    for name in ["bzip2", "sjeng", "sphinx3"] {
        let (report, _) = aic_run(name, &config);
        assert!(
            report.overhead_frac() < 0.06,
            "{name}: overhead {:.2}%",
            report.overhead_frac() * 100.0
        );
    }
}

#[test]
fn aic_predictor_learns_the_workload_online() {
    // After a run, the predictor must be bootstrapped, have selected at
    // most 3 features per target, and its ds prediction should correlate
    // with the measured outcomes (no profiling was ever provided).
    let config = geometry_scaled_engine(&scale());
    let mut cfg = AicConfig::testbed();
    cfg.bootstrap_interval = 4.0;
    let mut policy = AicPolicy::new(cfg, &config.policy_env());
    let report = run_engine(scaled_persona("sjeng", &scale()), &mut policy, &config);

    assert!(policy.predictor().ready());
    for sel in policy.predictor().selected_features() {
        assert!(sel.len() <= 3, "stepwise overshot: {sel:?}");
    }
    assert!(policy.predictor().observations() >= 4);
    assert!(report.intervals.iter().filter(|r| r.raw_bytes > 0).count() >= 4);
}

#[test]
fn aic_respects_the_core_drain_rule() {
    // Consecutive checkpoint cuts must be separated by at least the
    // previous transfer window (single checkpointing core, Section III.B).
    let config = geometry_scaled_engine(&scale());
    let (report, _) = aic_run("lbm", &config);
    let cks: Vec<_> = report
        .intervals
        .iter()
        .filter(|r| r.raw_bytes > 0)
        .collect();
    for pair in cks.windows(2) {
        let min_gap = pair[0].params.transfer(3);
        // Decision ticks are 1 s apart; allow one tick of quantization.
        assert!(
            pair[1].w + 1.0 + 1e-6 >= min_gap,
            "interval {} (w={:.1}) violates drain after transfer {:.1}",
            pair[1].seq,
            pair[1].w,
            min_gap
        );
    }
}
