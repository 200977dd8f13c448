//! The deciders AIC is compared with, and the offline solves that
//! configure them.
//!
//! * **Static baselines.** [`FixedIntervalPolicy`] checkpoints every `w`
//!   seconds, [`DirtyBudgetPolicy`] at a dirty-page or time budget. The
//!   paper's SIC is a fixed interval at the span [`sic_optimal_w`] solves
//!   with the concurrent L2L3 model; Moody's configuration comes from its
//!   sequential model ([`moody_config`]). Both take the mean checkpoint
//!   cost of a calibration run ([`calibration_means`]), exactly as Section
//!   V.A describes ("Both Moody and SIC require the average checkpoint
//!   latency beforehand").
//! * **Ablation deciders.** Two policies isolate the contribution of the
//!   *predictor* from the contribution of the *decision rule*.
//!   [`OraclePolicy`] is the same EVT + Newton–Raphson rule fed with the
//!   **exact** cost of checkpointing right now, obtained by trial-running
//!   the page-aligned compressor against the live dirty set each decision
//!   second. No real system can afford this (it is the entire compression
//!   done speculatively per second); it upper-bounds what any predictor
//!   could achieve. Its decision cost is charged as zero by definition.
//!   [`MeanPolicy`] is the same rule fed with the **running mean** of past
//!   measured costs (a predictor with no content awareness). The gap
//!   between [`MeanPolicy`] and `AicPolicy` is what the paper's
//!   lightweight-metrics predictor actually buys; the gap between
//!   `AicPolicy` and [`OraclePolicy`] is what is left on the table.

use aic_delta::pa::{pa_encode, PaParams};
use aic_memsim::Snapshot;
use aic_model::concurrent::{net2_at, ConcurrentModel};
use aic_model::moody::{moody_optimize, MoodyOptimum};
use aic_model::nonstatic::{steady_state_wstar, IntervalParams};
use aic_model::optimize::golden_minimize;
use aic_model::params::LevelCosts;
use aic_model::FailureRates;

use crate::decider::{CheckpointPolicy, Decision, DecisionCtx, IntervalRecord, PolicyEnv};

/// Checkpoint every `w` virtual seconds of work.
#[derive(Debug, Clone)]
pub struct FixedIntervalPolicy {
    w: f64,
    name: String,
}

impl FixedIntervalPolicy {
    /// Policy cutting a checkpoint every `w` seconds.
    pub fn new(w: f64) -> Self {
        assert!(w > 0.0);
        FixedIntervalPolicy {
            w,
            name: format!("fixed[w={w:.1}s]"),
        }
    }
}

impl CheckpointPolicy for FixedIntervalPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        Decision::cut_if(ctx.elapsed + 1e-9 >= self.w)
    }
}

/// SIC's static optimal work span from calibration measurements: mean
/// `c1`, `dl`, `ds` define static level costs, and the concurrent L2L3
/// model is minimized over `w` (Section V.A).
///
/// The solve plans for `env.cores` compression workers: `mean_dl` is the
/// **single-core** compression latency, which the interval model scales
/// by `1/cores` (pages are independent delta units) before the `w` search,
/// so a wider pool plans cheaper checkpoints and shorter spans. Means from
/// a calibration run at the deployment's own pool width are already in
/// deployment units (the engine records `dl` at its configured `cores`):
/// solve those at `cores: 1`. `dl` and `ds` are stretched by
/// `env.sharing_factor`.
pub fn sic_optimal_w(
    mean_c1: f64,
    mean_dl: f64,
    mean_ds_bytes: f64,
    env: &PolicyEnv,
    base_time: f64,
) -> f64 {
    let sf = env.sharing_factor;
    let params = IntervalParams::from_measurement_with_cores(
        mean_c1,
        mean_dl * sf,
        mean_ds_bytes * sf,
        env.b2,
        env.b3,
        env.cores,
    );
    let costs = LevelCosts {
        c: params.c,
        r: params.r,
    };
    let w_lo = params.w_lower_bound();
    let w_hi = (base_time * 4.0).max(w_lo * 2.0);
    golden_minimize(
        |w| net2_at(ConcurrentModel::L2L3, w, &costs, &env.rates),
        w_lo,
        w_hi,
        1e-6,
    )
    .x
}

/// Mean interval measurements from a calibration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationMeans {
    /// Mean local checkpoint latency.
    pub c1: f64,
    /// Mean delta latency.
    pub dl: f64,
    /// Mean compressed size, bytes.
    pub ds: f64,
    /// Mean uncompressed incremental size, bytes.
    pub raw: f64,
}

/// Average the checkpointed intervals of a run (calibration for SIC/Moody).
pub fn calibration_means(records: &[IntervalRecord]) -> CalibrationMeans {
    let cks: Vec<&IntervalRecord> = records.iter().filter(|r| r.raw_bytes > 0).collect();
    assert!(!cks.is_empty(), "calibration needs at least one checkpoint");
    let n = cks.len() as f64;
    CalibrationMeans {
        c1: cks.iter().map(|r| r.c1).sum::<f64>() / n,
        dl: cks.iter().map(|r| r.dl).sum::<f64>() / n,
        ds: cks.iter().map(|r| r.ds_bytes as f64).sum::<f64>() / n,
        raw: cks.iter().map(|r| r.raw_bytes as f64).sum::<f64>() / n,
    }
}

/// Compute the Moody baseline's optimal configuration for a full-checkpoint
/// payload of `full_bytes` (Moody ships the entire footprint every time).
pub fn moody_config(full_bytes: u64, env: &PolicyEnv, rates: &FailureRates) -> MoodyOptimum {
    // Sequential level costs: c1 = local write; c2/c3 add the transfer at
    // the level's bandwidth (blocking, Fig. 3(c)).
    let c1 = env.cost_model.raw_io_latency(full_bytes);
    let c2 = c1 + full_bytes as f64 / env.b2;
    let c3 = c1 + full_bytes as f64 / env.b3;
    let costs = LevelCosts::symmetric(c1, c2, c3);
    // Cap the search at ~10 MTBFs: beyond that the interval never survives
    // and the chain solver degenerates (probability underflow).
    let w_lo = c3.max(1.0);
    let w_hi = (10.0 / rates.total().max(1e-12)).clamp(w_lo * 1.5, 5.0e7);
    moody_optimize(&costs, rates, w_lo, w_hi)
}

/// A dirty-page budget policy (simple adaptive baseline used in ablations):
/// checkpoint when the interval has accumulated `max_dirty` pages or
/// `max_elapsed` seconds, whichever first.
#[derive(Debug, Clone)]
pub struct DirtyBudgetPolicy {
    max_dirty: usize,
    max_elapsed: f64,
    name: String,
}

impl DirtyBudgetPolicy {
    /// Policy checkpointing at `max_dirty` pages or `max_elapsed` seconds.
    pub fn new(max_dirty: usize, max_elapsed: f64) -> Self {
        assert!(max_dirty > 0 && max_elapsed > 0.0);
        DirtyBudgetPolicy {
            max_dirty,
            max_elapsed,
            name: format!("dirty-budget[{max_dirty}p/{max_elapsed:.0}s]"),
        }
    }
}

impl CheckpointPolicy for DirtyBudgetPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        Decision::cut_if(
            ctx.dirty_pages >= self.max_dirty || ctx.elapsed + 1e-9 >= self.max_elapsed,
        )
    }
}

/// The clairvoyant decider: exact costs via trial compression.
pub struct OraclePolicy {
    env: PolicyEnv,
    pa: PaParams,
    bootstrap_interval: f64,
    warmed: bool,
    last_wstar: Option<f64>,
    trial_compressions: u64,
}

impl OraclePolicy {
    /// Build for `env` (bandwidths, rates, cost model).
    pub fn new(env: &PolicyEnv, bootstrap_interval: f64) -> Self {
        OraclePolicy {
            env: env.clone(),
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
            self.warmed = ctx.elapsed + 1e-9 >= self.bootstrap_interval;
            return Decision::cut_if(self.warmed);
        }
        // Exact costs: trial-compress the live dirty set.
        let dirty = Snapshot::from_pages(ctx.space.dirty_log().iter().filter_map(|d| {
            let page = ctx.space.page(d.page)?;
            Some((d.page, page.clone()))
        }));
        self.trial_compressions += 1;
        let (file, report) = pa_encode(ctx.prev_pages, &dirty, &self.pa);
        let c1 = self.env.cost_model.raw_io_latency(dirty.bytes());
        let dl = self.env.cost_model.delta_latency(&report);
        let params = self.env.params(c1, dl, file.wire_len() as f64);
        let wstar = steady_state_wstar(&params, &self.env.rates, ctx.elapsed, &mut self.last_wstar);
        Decision::cut_if(wstar <= ctx.elapsed)
    }

    // Decision cost intentionally zero: the oracle is a bound, not a system.
}

/// The content-blind decider: running-mean costs.
pub struct MeanPolicy {
    env: PolicyEnv,
    bootstrap_interval: f64,
    seen: u64,
    mean_c1: f64,
    mean_dl: f64,
    mean_ds: f64,
    last_wstar: Option<f64>,
}

impl MeanPolicy {
    /// Build for `env` (bandwidths, rates).
    pub fn new(env: &PolicyEnv, bootstrap_interval: f64) -> Self {
        MeanPolicy {
            env: env.clone(),
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
            return Decision::cut_if(ctx.elapsed + 1e-9 >= self.bootstrap_interval);
        }
        let params = self.env.params(self.mean_c1, self.mean_dl, self.mean_ds);
        let wstar = steady_state_wstar(&params, &self.env.rates, ctx.elapsed, &mut self.last_wstar);
        Decision::cut_if(wstar <= ctx.elapsed)
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

    #[test]
    fn fixed_interval_fires_on_schedule() {
        let mut p = FixedIntervalPolicy::new(3.0);
        let space = aic_memsim::AddressSpace::new();
        let prev = aic_memsim::Snapshot::new();
        let ctx_at = |elapsed| DecisionCtx {
            now: 10.0,
            elapsed,
            dirty_pages: 5,
            space: &space,
            prev_pages: &prev,
        };
        assert_eq!(p.decide(&ctx_at(1.0)), Decision::Continue);
        assert_eq!(p.decide(&ctx_at(3.0)), Decision::Checkpoint);
    }
}
