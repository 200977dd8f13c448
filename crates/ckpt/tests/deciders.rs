//! The `aic-core` deciders driven by the checkpoint engine.
//!
//! The deciders live in `aic-core`, which sits beneath this crate and
//! cannot run the engine itself, so their engine-running tests live here:
//! `policy` for AIC, `baselines` for the oracle and running-mean ablation
//! deciders, and `policies` for the static baselines and the SIC/Moody
//! solves.

mod policy {
    use std::sync::Arc;

    use aic_ckpt::engine::{run_engine, EngineConfig};
    use aic_core::baselines::{calibration_means, sic_optimal_w, FixedIntervalPolicy};
    use aic_core::policy::{AicConfig, AicPolicy};
    use aic_core::CheckpointPolicy;
    use aic_memsim::workloads::generic::PhasedWorkload;
    use aic_memsim::{SimProcess, SimTime};
    use aic_model::FailureRates;
    use aic_obs::Obs;

    fn rates() -> FailureRates {
        FailureRates::three(2e-7, 1.8e-6, 4e-7).with_total(1e-3)
    }

    fn phased_process(seed: u64, secs: f64) -> SimProcess {
        // Strongly phased workload: AIC should checkpoint in the quiet
        // valleys rather than right after bursts.
        SimProcess::new(Box::new(PhasedWorkload::new(
            "phased",
            seed,
            1024,
            12.0,
            3.0,
            1,
            40,
            SimTime::from_secs(secs),
        )))
    }

    #[test]
    fn aic_bootstraps_then_adapts() {
        let config = EngineConfig::testbed(rates());
        let mut policy = AicPolicy::new(AicConfig::testbed(rates()), &config.policy_env());
        let report = run_engine(phased_process(1, 180.0), &mut policy, &config);
        assert!(policy.predictor().ready(), "predictor never bootstrapped");
        assert!(
            policy.adaptive_cuts() >= 1,
            "no adaptive checkpoints were cut"
        );
        assert!(report.net2 >= 1.0);
    }

    #[test]
    fn aic_overhead_is_small() {
        // Table 3: AIC lengthens failure-free execution by ≤ 2.6%.
        let config = EngineConfig::testbed(rates());
        let mut policy = AicPolicy::new(AicConfig::testbed(rates()), &config.policy_env());
        let report = run_engine(phased_process(2, 120.0), &mut policy, &config);
        assert!(
            report.overhead_frac() < 0.05,
            "overhead {:.2}%",
            report.overhead_frac() * 100.0
        );
    }

    #[test]
    fn aic_beats_or_matches_static_on_phased_workload() {
        let config = EngineConfig::testbed(rates());

        // Calibrate SIC offline (the paper gives SIC its averages upfront).
        let mut cal = FixedIntervalPolicy::new(15.0);
        let cal_report = run_engine(phased_process(3, 180.0), &mut cal, &config);
        let means = calibration_means(&cal_report.intervals);
        let w_star = sic_optimal_w(means.c1, means.dl, means.ds, &config.policy_env(), 180.0);
        let mut sic = FixedIntervalPolicy::new(w_star.clamp(5.0, 60.0));
        let sic_report = run_engine(phased_process(3, 180.0), &mut sic, &config);

        let mut aic = AicPolicy::new(AicConfig::testbed(rates()), &config.policy_env());
        let aic_report = run_engine(phased_process(3, 180.0), &mut aic, &config);

        // AIC must not be substantially worse; on phased workloads it
        // should usually win (Fig. 11's claim).
        assert!(
            aic_report.net2 <= sic_report.net2 * 1.05,
            "AIC {:.4} vs SIC {:.4}",
            aic_report.net2,
            sic_report.net2
        );
    }

    #[test]
    fn attached_obs_traces_predicted_vs_realized_intervals() {
        let mut config = EngineConfig::testbed(rates());
        config.obs = Some(Arc::new(Obs::new()));
        let mut policy = AicPolicy::new(AicConfig::testbed(rates()), &config.policy_env());
        let _ = run_engine(phased_process(5, 180.0), &mut policy, &config);
        assert!(policy.predictor().ready());

        let obs = config.obs.as_ref().unwrap();
        let snap = obs.metrics.snapshot();
        let predictions = snap.counter("aic.predictions").unwrap();
        assert!(predictions >= 1, "ready predictor never predicted");
        assert!(snap.counter("aic.bootstrap_cuts").unwrap() >= 1);
        assert_eq!(
            snap.counter("aic.adaptive_cuts"),
            Some(policy.adaptive_cuts())
        );
        let wstar = snap.gauge("aic.wstar_s").unwrap();
        assert!(wstar.is_finite() && wstar > 0.0, "w* gauge: {wstar}");

        // Each adaptive cut that materializes (the engine's core-drain rule
        // can veto one) leaves a predicted-vs-realized point carrying both
        // halves of the comparison.
        let points: Vec<_> = obs
            .spans
            .events()
            .into_iter()
            .filter(|e| e.name == "aic.predict")
            .collect();
        assert!(!points.is_empty(), "no aic.predict points were emitted");
        assert!(points.len() as u64 <= policy.adaptive_cuts());
        for p in &points {
            let keys: Vec<&str> = p.fields.iter().map(|(k, _)| *k).collect();
            for want in [
                "seq", "pred_c1", "pred_dl", "pred_ds", "c1", "dl", "ds_bytes", "wstar",
            ] {
                assert!(keys.contains(&want), "missing field {want}");
            }
        }
    }

    #[test]
    fn decision_cost_reflects_sampling() {
        let config = EngineConfig::testbed(rates());
        let mut policy = AicPolicy::new(AicConfig::testbed(rates()), &config.policy_env());
        assert_eq!(policy.decision_cost(), 0.0);
        let _ = run_engine(phased_process(4, 60.0), &mut policy, &config);
        // After a run the last tick carried some cost.
        assert!(policy.decision_cost() >= policy.cfg.decide_cost * 0.0);
        assert!(policy.decisions > 0);
    }
}

mod baselines {
    use aic_ckpt::engine::{run_engine, EngineConfig};
    use aic_core::baselines::{MeanPolicy, OraclePolicy};
    use aic_memsim::workloads::generic::PhasedWorkload;
    use aic_memsim::{SimProcess, SimTime};
    use aic_model::FailureRates;

    fn rates() -> FailureRates {
        FailureRates::three(2e-7, 1.8e-6, 4e-7).with_total(1e-3)
    }

    fn process(seed: u64) -> SimProcess {
        SimProcess::new(Box::new(PhasedWorkload::new(
            "ph",
            seed,
            1024,
            10.0,
            3.0,
            1,
            20,
            SimTime::from_secs(90.0),
        )))
    }

    #[test]
    fn oracle_runs_and_counts_trials() {
        let config = EngineConfig::testbed(rates());
        let mut oracle = OraclePolicy::new(&config.policy_env(), 5.0);
        let report = run_engine(process(1), &mut oracle, &config);
        assert!(oracle.trial_compressions() > 10);
        assert!(report.net2 >= 1.0);
        assert!(report.intervals.iter().filter(|r| r.raw_bytes > 0).count() >= 2);
    }

    #[test]
    fn mean_policy_behaves_like_static_after_warmup() {
        let config = EngineConfig::testbed(rates());
        let mut mean = MeanPolicy::new(&config.policy_env(), 5.0);
        let report = run_engine(process(2), &mut mean, &config);
        let cks: Vec<f64> = report
            .intervals
            .iter()
            .filter(|r| r.raw_bytes > 0)
            .map(|r| r.w)
            .collect();
        assert!(cks.len() >= 3);
        // Post-warmup intervals should stabilize (mean inputs converge).
        let tail = &cks[4.min(cks.len() - 1)..];
        if tail.len() >= 2 {
            let spread = tail.iter().fold(0.0f64, |m, &w| m.max(w))
                - tail.iter().fold(f64::INFINITY, |m, &w| m.min(w));
            assert!(spread < 30.0, "tail spread {spread} (tail {tail:?})");
        }
    }

    #[test]
    fn oracle_not_worse_than_mean_policy() {
        let config = EngineConfig::testbed(rates());
        let mut oracle = OraclePolicy::new(&config.policy_env(), 5.0);
        let o = run_engine(process(3), &mut oracle, &config);
        let mut mean = MeanPolicy::new(&config.policy_env(), 5.0);
        let m = run_engine(process(3), &mut mean, &config);
        assert!(
            o.net2 <= m.net2 * 1.03,
            "oracle {:.4} vs mean {:.4}",
            o.net2,
            m.net2
        );
    }
}

mod policies {
    use aic_ckpt::engine::{run_engine, Compressor, EngineConfig};
    use aic_core::baselines::{
        calibration_means, moody_config, sic_optimal_w, DirtyBudgetPolicy, FixedIntervalPolicy,
    };
    use aic_core::PolicyEnv;
    use aic_memsim::workloads::generic::StreamingWorkload;
    use aic_memsim::workloads::WriteStyle;
    use aic_memsim::{SimProcess, SimTime};
    use aic_model::FailureRates;

    fn testbed() -> EngineConfig {
        EngineConfig::testbed(FailureRates::three(2e-7, 1.8e-6, 4e-7).with_total(1e-3))
    }

    fn proc(secs: f64) -> SimProcess {
        SimProcess::new(Box::new(StreamingWorkload::new(
            "cal",
            3,
            256,
            2,
            WriteStyle::PartialEntropy(400),
            SimTime::from_secs(secs),
        )))
    }

    #[test]
    fn calibration_means_skip_tail() {
        let mut policy = FixedIntervalPolicy::new(5.0);
        let report = run_engine(proc(22.0), &mut policy, &testbed());
        let means = calibration_means(&report.intervals);
        assert!(means.c1 > 0.0);
        assert!(means.ds > 0.0 && means.ds <= means.raw * 1.05);
    }

    #[test]
    fn sic_optimal_w_reasonable() {
        let cfg = testbed();
        // 10 MB deltas at the testbed rate λ=1e-3.
        let w = sic_optimal_w(0.1, 0.5, 10e6, &cfg.policy_env(), 800.0);
        // Must respect the drain bound (c3−c1 ≈ 0.5 + 5 s) and not exceed
        // the search ceiling.
        assert!((5.0..4.0 * 800.0 + 1.0).contains(&w), "w={w}");
    }

    #[test]
    fn pooled_sic_plans_shorter_spans_on_wider_pools() {
        let cfg = testbed();
        // Compression-dominated regime: dl = 30 s per checkpoint.
        let w1 = sic_optimal_w(
            0.1,
            30.0,
            1e6,
            &PolicyEnv {
                cores: 1,
                ..cfg.policy_env()
            },
            800.0,
        );
        let w4 = sic_optimal_w(
            0.1,
            30.0,
            1e6,
            &PolicyEnv {
                cores: 4,
                ..cfg.policy_env()
            },
            800.0,
        );
        assert!(w4 < w1, "w4={w4} w1={w1}");
        // cores = 1 matches the plain SIC path exactly.
        assert_eq!(w1, sic_optimal_w(0.1, 30.0, 1e6, &cfg.policy_env(), 800.0));
    }

    #[test]
    fn moody_config_scales_with_footprint() {
        let cfg = testbed();
        let rates = cfg.rates.with_total(1e-3);
        let small = moody_config(100 << 20, &cfg.policy_env(), &rates);
        let large = moody_config(1 << 30, &cfg.policy_env(), &rates);
        // Bigger checkpoints → longer optimal intervals.
        assert!(large.w > small.w, "large={} small={}", large.w, small.w);
    }

    #[test]
    fn dirty_budget_policy_fires_on_pages() {
        let mut policy = DirtyBudgetPolicy::new(100, 1e9);
        let mut cfg = testbed();
        cfg.compressor = Compressor::IncrementalRaw;
        let report = run_engine(proc(20.0), &mut policy, &cfg);
        let cks: Vec<_> = report
            .intervals
            .iter()
            .filter(|r| r.raw_bytes > 0)
            .collect();
        assert!(!cks.is_empty());
        for rec in cks {
            // Fires shortly after crossing 100 dirty pages (decision ticks
            // are 1 s apart; the stream dirties ~200 pages/s).
            assert!(rec.dirty_pages >= 100, "{}", rec.dirty_pages);
        }
    }
}
