//! The Checkpoint Decider slot (paper Section III.E), which the checkpoint
//! engine (`aic_ckpt::engine`) consults every virtual second. AIC
//! ([`crate::policy::AicPolicy`]) and every baseline it is compared with
//! ([`crate::baselines`]) fill it, each planning for one [`PolicyEnv`].

use std::sync::Arc;

use aic_delta::stats::CostModel;
use aic_memsim::{AddressSpace, Snapshot};
use aic_model::nonstatic::IntervalParams;
use aic_model::FailureRates;
use aic_obs::Obs;

/// The deployment a decider plans for: the only engine settings the
/// deciders and the SIC/Moody solves read. `aic_ckpt`'s `EngineConfig`
/// and `ServiceConfig` each build one with `policy_env()`.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEnv {
    /// Failure rates AIC, the static solves and the ablation deciders
    /// plan with.
    pub rates: FailureRates,
    /// Per-node L2 bandwidth, bytes/s.
    pub b2: f64,
    /// Per-node L3 bandwidth, bytes/s.
    pub b3: f64,
    /// Latency model for the delta compressor / local disk.
    pub cost_model: CostModel,
    /// Computation cores per checkpointing core (≥ 1).
    pub sharing_factor: f64,
    /// Compression workers in the checkpointing-core pool (≥ 1).
    pub cores: usize,
}

impl PolicyEnv {
    /// Level costs of an interval measured (or predicted) at `c1`, `dl` and
    /// `ds` bytes, at this deployment's L2/L3 bandwidths.
    pub fn params(&self, c1: f64, dl: f64, ds: f64) -> IntervalParams {
        IntervalParams::from_measurement(c1, dl, ds, self.b2, self.b3)
    }
}

/// One checkpoint interval's measurements (paper Section V.A: `c1(i)`,
/// checkpoint size, `dl(i)`, `ds(i)`; `c2`/`c3` derived from bandwidths).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// Interval index (0 = the run-up to the first checkpoint after full).
    pub seq: u64,
    /// Virtual work accomplished this interval, seconds.
    pub w: f64,
    /// Local (blocking) checkpoint latency, seconds.
    pub c1: f64,
    /// Delta-compression latency on the checkpointing core, seconds.
    pub dl: f64,
    /// Compressed payload size shipped to L2/L3, bytes.
    pub ds_bytes: u64,
    /// Uncompressed incremental checkpoint size, bytes.
    pub raw_bytes: u64,
    /// Dirty pages in the interval.
    pub dirty_pages: usize,
    /// Level costs implied by this interval's measurements.
    pub params: IntervalParams,
}

impl IntervalRecord {
    /// The trailing partial interval: `w` seconds of work after the last
    /// cut. No checkpoint is cut, so it carries zero costs and bytes.
    pub fn tail(seq: u64, w: f64, dirty_pages: usize) -> Self {
        IntervalRecord {
            seq,
            w,
            c1: 0.0,
            dl: 0.0,
            ds_bytes: 0,
            raw_bytes: 0,
            dirty_pages,
            params: IntervalParams::symmetric(0.0, 0.0, 0.0),
        }
    }

    /// Compression ratio `ds / raw` (lower is better). An interval that
    /// checkpointed nothing compressed nothing: its ratio is the neutral
    /// `1.0`, not a fictitious perfect `0.0` that would skew aggregates.
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.ds_bytes as f64 / self.raw_bytes as f64
        }
    }
}

/// What the policy sees at each decision tick.
#[derive(Debug)]
pub struct DecisionCtx<'a> {
    /// Current virtual time.
    pub now: f64,
    /// Virtual work since the last checkpoint cut.
    pub elapsed: f64,
    /// Dirty pages so far this interval.
    pub dirty_pages: usize,
    /// The live address space (for content metrics).
    pub space: &'a AddressSpace,
    /// The previous checkpoint's page contents.
    pub prev_pages: &'a Snapshot,
}

/// A policy's verdict at a decision tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Keep working.
    Continue,
    /// Cut a checkpoint now.
    Checkpoint,
}

impl Decision {
    /// `Checkpoint` when `cut` holds, `Continue` otherwise.
    pub fn cut_if(cut: bool) -> Self {
        if cut {
            Decision::Checkpoint
        } else {
            Decision::Continue
        }
    }
}

/// A checkpoint policy: decides *when* to checkpoint (the paper's
/// Checkpoint Decider slot).
pub trait CheckpointPolicy {
    /// Human-readable policy name.
    fn name(&self) -> &str;
    /// Decide at a tick.
    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision;
    /// Feed back the measured interval (the paper's predictor update path).
    fn observe(&mut self, _rec: &IntervalRecord) {}
    /// Compute-core seconds charged per decision tick (predictor cost).
    fn decision_cost(&self) -> f64 {
        0.0
    }
    /// Share the run's observability bundle with the policy (called once at
    /// engine start when `EngineConfig::obs` is set). Policies that emit
    /// predicted-vs-realized metrics keep the handle; the default ignores it.
    fn attach_obs(&mut self, _obs: &Arc<Obs>) {}
}
