//! Ablation baselines for the AIC decider.
//!
//! Two policies isolate the contribution of the *predictor* from the
//! contribution of the *decision rule*:
//!
//! * [`OraclePolicy`] — the same EVT + Newton–Raphson rule fed with the
//!   **exact** cost of checkpointing right now, obtained by trial-running
//!   the page-aligned compressor against the live dirty set each decision
//!   second. No real system can afford this (it is the entire compression
//!   done speculatively per second); it upper-bounds what any predictor
//!   could achieve. Its decision cost is charged as zero by definition.
//! * [`MeanPolicy`] — the same rule fed with the **running mean** of past
//!   measured costs (a predictor with no content awareness). The gap
//!   between [`MeanPolicy`] and `AicPolicy` is what the paper's
//!   lightweight-metrics predictor actually buys; the gap between
//!   `AicPolicy` and [`OraclePolicy`] is what is left on the table.

use aic_ckpt::engine::{CheckpointPolicy, Decision, DecisionCtx, EngineConfig, IntervalRecord};
use aic_delta::pa::{pa_encode, PaParams};
use aic_delta::stats::CostModel;
use aic_memsim::Snapshot;
use aic_model::nonstatic::{steady_state_wstar, IntervalParams};
use aic_model::FailureRates;

/// The clairvoyant decider: exact costs via trial compression.
pub struct OraclePolicy {
    b2: f64,
    b3: f64,
    rates: FailureRates,
    cost_model: CostModel,
    pa: PaParams,
    bootstrap_interval: f64,
    warmed: bool,
    last_wstar: Option<f64>,
    trial_compressions: u64,
}

impl OraclePolicy {
    /// Build from the engine config (bandwidths, rates, cost model).
    pub fn new(config: &EngineConfig, bootstrap_interval: f64) -> Self {
        OraclePolicy {
            b2: config.b2,
            b3: config.b3,
            rates: config.rates.clone(),
            cost_model: config.cost_model,
            pa: PaParams::default(),
            bootstrap_interval,
            warmed: false,
            last_wstar: None,
            trial_compressions: 0,
        }
    }

    /// How many speculative compressions the oracle performed (the cost a
    /// real system would have to pay).
    pub fn trial_compressions(&self) -> u64 {
        self.trial_compressions
    }
}

impl CheckpointPolicy for OraclePolicy {
    fn name(&self) -> &str {
        "oracle"
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        if !self.warmed {
            // One fixed-cadence cut so an L2-recoverable checkpoint exists.
            if ctx.elapsed + 1e-9 >= self.bootstrap_interval {
                self.warmed = true;
                return Decision::Checkpoint;
            }
            return Decision::Continue;
        }
        // Exact costs: trial-compress the live dirty set.
        let dirty: Snapshot = {
            let pages = ctx.space.dirty_log().iter().map(|d| d.page);
            let mut snap = Snapshot::new();
            for p in pages {
                if let Some(page) = ctx.space.page(p) {
                    snap.insert(p, page.clone());
                }
            }
            snap
        };
        self.trial_compressions += 1;
        let (file, report) = pa_encode(ctx.prev_pages, &dirty, &self.pa);
        let c1 = self.cost_model.raw_io_latency(dirty.bytes());
        let dl = self.cost_model.delta_latency(&report);
        let ds = file.wire_len() as f64;
        let params = IntervalParams::from_measurement(c1, dl, ds, self.b2, self.b3);
        if steady_state_wstar(&params, &self.rates, ctx.elapsed, &mut self.last_wstar)
            <= ctx.elapsed
        {
            Decision::Checkpoint
        } else {
            Decision::Continue
        }
    }

    // Decision cost intentionally zero: the oracle is a bound, not a system.
}

/// The content-blind decider: running-mean costs.
pub struct MeanPolicy {
    b2: f64,
    b3: f64,
    rates: FailureRates,
    bootstrap_interval: f64,
    seen: u64,
    mean_c1: f64,
    mean_dl: f64,
    mean_ds: f64,
    last_wstar: Option<f64>,
}

impl MeanPolicy {
    /// Build from the engine config.
    pub fn new(config: &EngineConfig, bootstrap_interval: f64) -> Self {
        MeanPolicy {
            b2: config.b2,
            b3: config.b3,
            rates: config.rates.clone(),
            bootstrap_interval,
            seen: 0,
            mean_c1: 0.0,
            mean_dl: 0.0,
            mean_ds: 0.0,
            last_wstar: None,
        }
    }
}

impl CheckpointPolicy for MeanPolicy {
    fn name(&self) -> &str {
        "mean-predictor"
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        if self.seen < 4 {
            return if ctx.elapsed + 1e-9 >= self.bootstrap_interval {
                Decision::Checkpoint
            } else {
                Decision::Continue
            };
        }
        let params = IntervalParams::from_measurement(
            self.mean_c1,
            self.mean_dl,
            self.mean_ds,
            self.b2,
            self.b3,
        );
        if steady_state_wstar(&params, &self.rates, ctx.elapsed, &mut self.last_wstar)
            <= ctx.elapsed
        {
            Decision::Checkpoint
        } else {
            Decision::Continue
        }
    }

    fn observe(&mut self, rec: &IntervalRecord) {
        self.seen += 1;
        let n = self.seen as f64;
        self.mean_c1 += (rec.c1 - self.mean_c1) / n;
        self.mean_dl += (rec.dl - self.mean_dl) / n;
        self.mean_ds += (rec.ds_bytes as f64 - self.mean_ds) / n;
    }

    fn decision_cost(&self) -> f64 {
        50e-6 // one model solve, no metric computation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aic_ckpt::engine::run_engine;
    use aic_memsim::workloads::generic::PhasedWorkload;
    use aic_memsim::{SimProcess, SimTime};

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
        let mut oracle = OraclePolicy::new(&config, 5.0);
        let report = run_engine(process(1), &mut oracle, &config);
        assert!(oracle.trial_compressions() > 10);
        assert!(report.net2 >= 1.0);
        assert!(report.intervals.iter().filter(|r| r.raw_bytes > 0).count() >= 2);
    }

    #[test]
    fn mean_policy_behaves_like_static_after_warmup() {
        let config = EngineConfig::testbed(rates());
        let mut mean = MeanPolicy::new(&config, 5.0);
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
        let mut oracle = OraclePolicy::new(&config, 5.0);
        let o = run_engine(process(3), &mut oracle, &config);
        let mut mean = MeanPolicy::new(&config, 5.0);
        let m = run_engine(process(3), &mut mean, &config);
        assert!(
            o.net2 <= m.net2 * 1.03,
            "oracle {:.4} vs mean {:.4}",
            o.net2,
            m.net2
        );
    }
}
