//! Regret analysis: AIC vs the offline-optimal cut sequence (extension).
//!
//! How much of the adaptivity headroom does AIC actually capture? We
//! instrument a persona run — snapshotting memory at every decision tick —
//! so the *true* cost of cutting at tick `b` after a cut at tick `a` can be
//! computed in hindsight (compress the exact dirty set between the two
//! states). The DP of [`aic_model::planner`] then yields the offline
//! optimum, and three numbers tell the story:
//!
//! * `SIC` — best fixed interval on the same grid,
//! * `AIC` — the online policy's measured NET²,
//! * `OPT` — the offline plan's NET².
//!
//! `SIC − AIC` is what the paper's predictor earns; `AIC − OPT` is the
//! regret it leaves on the table.

use aic_ckpt::engine::run_engine;
use aic_core::baselines::FixedIntervalPolicy;
use aic_core::policy::{AicConfig, AicPolicy};
use aic_delta::pa::{pa_encode, PaParams};
use aic_delta::stats::CostModel;
use aic_memsim::{SimTime, Snapshot};
use aic_model::nonstatic::IntervalParams;
use aic_model::planner::plan_offline;

use crate::experiments::{geometry_scaled_engine, scaled_persona, RunScale};
use crate::output::{f, markdown_table, pct};

/// The three-way comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RegretReport {
    /// Benchmark name.
    pub persona: String,
    /// Best fixed interval's NET² (grid over the same tick granularity).
    pub sic: f64,
    /// AIC's measured NET².
    pub aic: f64,
    /// Offline-optimal NET².
    pub opt: f64,
    /// The offline plan's cut ticks.
    pub plan_cuts: Vec<usize>,
}

impl RegretReport {
    /// Fraction of the SIC→OPT headroom that AIC captured.
    pub fn captured(&self) -> f64 {
        let headroom = self.sic - self.opt;
        if headroom <= 1e-12 {
            1.0
        } else {
            ((self.sic - self.aic) / headroom).clamp(0.0, 1.0)
        }
    }
}

/// Instrumented profile: per-tick snapshots and dirty sets.
struct Profile {
    snaps: Vec<Snapshot>,
    dirty_per_tick: Vec<Vec<u64>>,
    tick_len: f64,
}

fn capture_profile(persona: &str, scale: &RunScale, ticks: usize, tick_len: f64) -> Profile {
    let mut p = scaled_persona(persona, scale);
    p.run_until(SimTime::ZERO);
    p.cut_interval();
    let mut snaps = vec![p.snapshot()];
    let mut dirty_per_tick = Vec::with_capacity(ticks);
    for t in 1..=ticks {
        p.run_until(SimTime::from_secs(t as f64 * tick_len));
        let log = p.cut_interval();
        dirty_per_tick.push(log.iter().map(|d| d.page).collect());
        snaps.push(p.snapshot());
    }
    Profile {
        snaps,
        dirty_per_tick,
        tick_len,
    }
}

impl Profile {
    /// True interval parameters of a cut at tick `b` following one at `a`.
    fn cost(&self, a: usize, b: usize, cm: &CostModel, b2: f64, b3: f64) -> IntervalParams {
        let mut pages: Vec<u64> = self.dirty_per_tick[a..b]
            .iter()
            .flatten()
            .copied()
            .collect();
        pages.sort_unstable();
        pages.dedup();
        let mut dirty = Snapshot::new();
        for pg in pages {
            if let Some(page) = self.snaps[b].get(pg) {
                dirty.insert(pg, page.clone());
            }
        }
        let (file, report) = pa_encode(&self.snaps[a], &dirty, &PaParams::default());
        let c1 = cm.raw_io_latency(dirty.bytes());
        let dl = cm.delta_latency(&report);
        IntervalParams::from_measurement(c1, dl, file.wire_len() as f64, b2, b3)
    }
}

/// Run the regret analysis. `ticks` decision ticks of `tick_len` seconds
/// (the instrumented horizon; AIC and SIC run over the same horizon).
pub fn run(persona: &str, scale: &RunScale, ticks: usize, tick_len: f64) -> RegretReport {
    let config = geometry_scaled_engine(scale);
    let cm = config.cost_model;
    let horizon = ticks as f64 * tick_len;

    // --- Offline optimum from the instrumented profile.
    let profile = capture_profile(persona, scale, ticks, tick_len);
    let max_span = (ticks / 2).max(4);
    let plan = plan_offline(
        ticks,
        profile.tick_len,
        max_span,
        |a, b| profile.cost(a, b, &cm, config.b2, config.b3),
        &config.rates,
    );

    // --- Horizon-clipped engine runs for AIC and the best fixed interval.
    let clipped = |seed_shift: u64| {
        let mut s = *scale;
        s.seed += seed_shift;
        // Clip the persona's duration to the instrumented horizon.
        let base = scaled_persona(persona, &s).base_time().as_secs();
        s.duration *= (horizon / base).min(1.0);
        s
    };
    let mut best_fixed = f64::INFINITY;
    for interval in [4.0, 8.0, 12.0, 20.0, 30.0] {
        if interval > horizon {
            continue;
        }
        let mut policy = FixedIntervalPolicy::new(interval);
        let rep = run_engine(scaled_persona(persona, &clipped(0)), &mut policy, &config);
        best_fixed = best_fixed.min(rep.net2);
    }
    let mut aic_cfg = AicConfig::testbed(config.rates.clone());
    aic_cfg.bootstrap_interval = (horizon / 12.0).max(2.0);
    let mut aic_policy = AicPolicy::new(aic_cfg, &config.policy_env());
    let aic = run_engine(
        scaled_persona(persona, &clipped(0)),
        &mut aic_policy,
        &config,
    );

    RegretReport {
        persona: persona.to_string(),
        sic: best_fixed,
        aic: aic.net2,
        opt: plan.net2,
        plan_cuts: plan.cuts,
    }
}

/// Render one report.
pub fn render(r: &RegretReport) -> String {
    let table = markdown_table(
        &["scheme", "NET²"],
        &[
            vec!["best fixed (SIC)".into(), f(r.sic)],
            vec!["AIC (online)".into(), f(r.aic)],
            vec!["offline optimal".into(), f(r.opt)],
        ],
    );
    format!(
        "{table}\nheadroom captured by AIC: {} (plan cuts at ticks {:?})\n",
        pct(r.captured()),
        r.plan_cuts
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offline_not_worse_and_aic_in_band() {
        let scale = RunScale {
            footprint: 0.06,
            duration: 1.0,
            seed: 29,
        };
        let r = run("milc", &scale, 24, 1.0);
        // The offline plan must dominate (allowing scoring noise between
        // the instrumented profile and the engine's own measurements).
        assert!(r.opt <= r.sic * 1.02 && r.opt <= r.aic * 1.02, "{r:?}");
        assert!(r.aic >= 1.0 && r.sic >= 1.0);
        let c = r.captured();
        assert!((0.0..=1.0).contains(&c));
    }
}
