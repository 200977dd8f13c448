//! The AIC checkpoint decider (paper Sections III.E, IV).
//!
//! Every decision second the policy:
//!
//! 1. ingests the interval's new dirty pages into the hot-page
//!    [`SampleBuffer`] (computing JD/DI for group representatives),
//! 2. forms the lightweight metrics `{DP, t, JD, DI}`,
//! 3. asks the [`AicPredictor`] for this instant's `c1(i)`, `dl(i)`,
//!    `ds(i)` — hence `c2(i)`, `c3(i)` via the L2/L3 bandwidths,
//! 4. solves the non-static L2L3 model for the locally optimal work span
//!    `w*_L` (Extreme Value Theorem + Newton–Raphson), and
//! 5. **checkpoints immediately if `w*_L` is not larger than the elapsed
//!    interval time** — i.e. if the model says the best moment to cut has
//!    arrived (or passed).
//!
//! Until the predictor has its four bootstrap samples, checkpoints are cut
//! at a fixed bootstrap cadence.

use std::sync::Arc;

use aic_model::nonstatic::steady_state_wstar;
use aic_model::FailureRates;
use aic_obs::{Counter, Gauge, Obs};

use crate::decider::{CheckpointPolicy, Decision, DecisionCtx, IntervalRecord, PolicyEnv};
use crate::features::BaseMetrics;
use crate::predictor::AicPredictor;
use crate::sample::SampleBuffer;

/// The policy's registered metric handles plus the shared bundle (kept for
/// the `aic.predict` span stream).
#[derive(Debug, Clone)]
struct PolicyObs {
    obs: Arc<Obs>,
    predictions: Counter,
    bootstrap_cuts: Counter,
    adaptive_cuts: Counter,
    wstar: Gauge,
}

impl PolicyObs {
    fn new(obs: &Arc<Obs>) -> Self {
        let m = &obs.metrics;
        PolicyObs {
            predictions: m.counter("aic.predictions"),
            bootstrap_cuts: m.counter("aic.bootstrap_cuts"),
            adaptive_cuts: m.counter("aic.adaptive_cuts"),
            wstar: m.gauge("aic.wstar_s"),
            obs: Arc::clone(obs),
        }
    }
}

/// AIC tuning knobs.
#[derive(Debug, Clone)]
pub struct AicConfig {
    /// Failure rates used in the decision model.
    pub rates: FailureRates,
    /// Fixed cadence (seconds) used while gathering bootstrap samples.
    pub bootstrap_interval: f64,
    /// Sample-buffer capacity (group representatives).
    pub sb_capacity: usize,
    /// Initial arrival-grouping threshold `T_g`, seconds.
    pub tg0: f64,
    /// Compute-core cost charged per sampled hot page (paper: < 100 µs).
    pub metric_cost: f64,
    /// Fixed compute-core cost per decision tick (prediction + NR search).
    pub decide_cost: f64,
    /// Samples whose JD/DI are recomputed per decision tick (bounded so the
    /// per-tick cost stays constant).
    pub refresh_per_tick: usize,
    /// Inter-version metric (paper: Jaccard Distance; footnote 1 ablation:
    /// cosine).
    pub similarity: crate::sample::SimilarityMetric,
    /// Intra-page metric (paper: Divergence Index; ablation: M2).
    pub variation: crate::sample::VariationMetric,
}

impl AicConfig {
    /// Testbed defaults matching the paper's evaluation (Section V.C):
    /// 8-MB sample buffer (2048 page samples), 1-second decisions (the
    /// engine's tick), bootstrap cadence 15 s. The bandwidths come from the
    /// [`PolicyEnv`] ([`AicPolicy::new`]).
    pub fn testbed(rates: FailureRates) -> Self {
        AicConfig {
            rates,
            bootstrap_interval: 15.0,
            sb_capacity: 2048,
            tg0: 0.05,
            metric_cost: 100e-6,
            decide_cost: 250e-6,
            refresh_per_tick: 64,
            similarity: crate::sample::SimilarityMetric::Jaccard,
            variation: crate::sample::VariationMetric::Divergence,
        }
    }
}

/// The adaptive incremental checkpointing policy.
#[derive(Debug, Clone)]
pub struct AicPolicy {
    /// The tuning knobs this policy runs with. Set them before
    /// [`AicPolicy::new`]: the sample buffer is built from them there.
    pub cfg: AicConfig,
    /// The deployment; the decision model reads its L2/L3 bandwidths.
    env: PolicyEnv,
    predictor: AicPredictor,
    sb: SampleBuffer,
    dirty_seen: usize,
    tick_metrics: Option<BaseMetrics>,
    last_tick_cost: f64,
    last_wstar: Option<f64>,
    /// Decision ticks seen so far.
    pub decisions: u64,
    adaptive_cuts: u64,
    obs: Option<PolicyObs>,
    /// Prediction in force when the current interval is cut: `(c1, dl, ds)`
    /// from the decide tick, compared against the realized interval in
    /// [`CheckpointPolicy::observe`].
    last_prediction: Option<(f64, f64, f64)>,
    /// Virtual time of the most recent decide tick (timestamp for the
    /// `aic.predict` span events).
    last_now: f64,
}

impl AicPolicy {
    /// Build an AIC policy. Its decision model takes `env`'s per-node
    /// L2/L3 bandwidths unscaled, so like every decider here it models a
    /// sharing factor of 1: under a `sharing_factor` above 1 it sees the
    /// stretched delta latency through the measured `dl`, but not the
    /// stretched transfers.
    pub fn new(cfg: AicConfig, env: &PolicyEnv) -> Self {
        let sb =
            SampleBuffer::new(cfg.sb_capacity, cfg.tg0).with_metrics(cfg.similarity, cfg.variation);
        AicPolicy {
            env: env.clone(),
            predictor: AicPredictor::default(),
            sb,
            dirty_seen: 0,
            tick_metrics: None,
            last_tick_cost: 0.0,
            last_wstar: None,
            decisions: 0,
            adaptive_cuts: 0,
            obs: None,
            last_prediction: None,
            last_now: 0.0,
            cfg,
        }
    }

    /// The underlying predictor (for introspection in tests/benches).
    pub fn predictor(&self) -> &AicPredictor {
        &self.predictor
    }

    /// Checkpoints cut by the adaptive rule (vs bootstrap cadence).
    pub fn adaptive_cuts(&self) -> u64 {
        self.adaptive_cuts
    }

    fn ingest_dirty(&mut self, ctx: &DecisionCtx<'_>) -> usize {
        let log = ctx.space.dirty_log();
        let mut inserted = 0;
        for rec in log.iter().skip(self.dirty_seen) {
            if let Some(current) = ctx.space.page(rec.page) {
                let previous = ctx.prev_pages.get(rec.page);
                if self
                    .sb
                    .offer(rec.page, rec.arrival.as_secs(), current, previous)
                {
                    inserted += 1;
                }
            }
        }
        self.dirty_seen = log.len();
        inserted
    }
}

impl CheckpointPolicy for AicPolicy {
    fn name(&self) -> &str {
        "AIC"
    }

    fn attach_obs(&mut self, obs: &Arc<Obs>) {
        self.obs = Some(PolicyObs::new(obs));
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        self.decisions += 1;
        self.last_now = ctx.now;
        let inserted = self.ingest_dirty(ctx);
        // Keep sampled metrics current: pages mutate after their first
        // fault, and the similarity AIC hunts for can *improve* over time
        // (content reverting toward the previous checkpoint).
        let (sim, var) = (self.cfg.similarity, self.cfg.variation);
        let refreshed = self.sb.refresh(self.cfg.refresh_per_tick, |page| {
            ctx.space
                .page(page)
                .map(|cur| crate::sample::compute_pair(sim, var, cur, ctx.prev_pages.get(page)))
        });
        self.last_tick_cost =
            self.cfg.decide_cost + (inserted + refreshed) as f64 * self.cfg.metric_cost;

        let metrics = BaseMetrics {
            dp: ctx.dirty_pages as f64,
            t: ctx.elapsed,
            jd: self.sb.mean_jd(),
            di: self.sb.mean_di(),
        };
        self.tick_metrics = Some(metrics);

        if !self.predictor.ready() {
            return if ctx.elapsed + 1e-9 >= self.cfg.bootstrap_interval {
                if let Some(o) = &self.obs {
                    o.bootstrap_cuts.inc();
                }
                Decision::Checkpoint
            } else {
                Decision::Continue
            };
        }

        let pred = self
            .predictor
            .predict(&metrics)
            .expect("ready predictor must predict");
        // The predictor trains on the engine's measured `dl`, which is
        // already the pool-width latency (`PolicyEnv::cores`), so the
        // predicted costs are in deployment units — no cores rescaling here
        // (that would double-count the pool; see
        // `IntervalParams::from_measurement_with_cores` for planning from
        // single-core measurements).
        let cur = self.env.params(pred.c1, pred.dl, pred.ds);
        let wstar = steady_state_wstar(&cur, &self.cfg.rates, ctx.elapsed, &mut self.last_wstar);
        self.last_prediction = Some((pred.c1, pred.dl, pred.ds));
        if let Some(o) = &self.obs {
            o.predictions.inc();
            o.wstar.set(wstar);
        }

        if wstar <= ctx.elapsed {
            self.adaptive_cuts += 1;
            if let Some(o) = &self.obs {
                o.adaptive_cuts.inc();
            }
            Decision::Checkpoint
        } else {
            Decision::Continue
        }
    }

    fn observe(&mut self, rec: &IntervalRecord) {
        let metrics = self.tick_metrics.unwrap_or(BaseMetrics {
            dp: rec.dirty_pages as f64,
            t: rec.w,
            jd: 0.0,
            di: 0.0,
        });
        self.predictor
            .observe(&metrics, rec.c1, rec.dl, rec.ds_bytes as f64);
        // Predicted-vs-realized trace: the prediction in force when this
        // interval was cut, against the interval the engine measured.
        if let Some(o) = &self.obs {
            if let Some((pc1, pdl, pds)) = self.last_prediction.take() {
                o.obs.spans.point(
                    "aic.predict",
                    self.last_now,
                    vec![
                        ("seq", rec.seq.into()),
                        ("pred_c1", pc1.into()),
                        ("pred_dl", pdl.into()),
                        ("pred_ds", pds.into()),
                        ("c1", rec.c1.into()),
                        ("dl", rec.dl.into()),
                        ("ds_bytes", rec.ds_bytes.into()),
                        ("wstar", self.last_wstar.unwrap_or(0.0).into()),
                    ],
                );
            }
        }
        self.sb.end_interval();
        self.dirty_seen = 0;
    }

    fn decision_cost(&self) -> f64 {
        self.last_tick_cost
    }
}
