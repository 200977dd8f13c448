//! Deterministic golden replay (observability acceptance harness).
//!
//! One fixed-seed end-to-end run — AIC policy, compression pool width 2,
//! L1/L2/L3 storage, write-behind L3 commits through the fault-injected
//! network transport, a mid-run f2 fault — with the observability bundle
//! attached, reduced to a canonical text snapshot: the deterministic metric
//! registry as JSONL, the span/event stream as JSONL, and an FNV-1a digest
//! of the final memory image. The snapshot is a pure function of the
//! [`RunScale`], so two same-seed runs must produce byte-identical text and
//! the golden-replay test can pin it against a checked-in file.
//!
//! Volatile (wall-clock derived) metrics are excluded by construction via
//! [`aic_obs::MetricsRegistry::deterministic_snapshot`]; span timestamps are
//! virtual-clock seconds and therefore replayable.

use std::sync::Arc;

use aic_ckpt::engine::EngineConfig;
use aic_ckpt::fleet::SharedDatasetFleet;
use aic_ckpt::harness::{run_with_faults, FailureSchedule};
use aic_ckpt::service::{run_service, ServiceConfig, TenantPolicy, TenantSpec};
use aic_ckpt::transport::{TransportFaults, WriteBehindConfig};
use aic_core::policy::{AicConfig, AicPolicy};
use aic_delta::strong::Fnv1a;
use aic_memsim::Snapshot;
use aic_obs::Obs;

use crate::experiments::{geometry_scaled_engine, scaled_persona, testbed_rates, RunScale};

/// Everything the golden test pins, plus the human-facing run summary.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Deterministic metric registry, JSONL (volatile metrics excluded).
    pub metrics_jsonl: String,
    /// Structured span/event stream, JSONL (virtual-clock timestamps).
    pub spans_jsonl: String,
    /// FNV-1a digest of the final memory image (sorted page order).
    pub image_fnv1a: u64,
    /// Deterministic `fleet.*` registry of the single-tenant service run,
    /// JSONL (its own registry, so the engine metrics above are untouched).
    pub fleet_metrics_jsonl: String,
    /// Span stream of the single-tenant service run, JSONL.
    pub fleet_spans_jsonl: String,
    /// The single tenant's w* after every cut — pinned byte-identical by
    /// the golden file.
    pub fleet_w_trajectory: Vec<f64>,
    /// Checkpoints cut during the run.
    pub checkpoints: usize,
    /// NET² of the run.
    pub net2: f64,
    /// Wall time of the run, virtual seconds.
    pub wall_s: f64,
}

impl ReplayOutcome {
    /// The canonical snapshot text the golden file pins: metrics JSONL,
    /// then span JSONL, then the image digest line.
    pub fn snapshot_text(&self) -> String {
        let w = self
            .fleet_w_trajectory
            .iter()
            .map(|v| format!("{v:.9}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{}{}final_image_fnv1a={:016x}\n{}{}fleet_w_trajectory=[{w}]\n",
            self.metrics_jsonl,
            self.spans_jsonl,
            self.image_fnv1a,
            self.fleet_metrics_jsonl,
            self.fleet_spans_jsonl,
        )
    }

    /// Human-facing summary (the golden diff lives in the snapshot text).
    pub fn render(&self) -> String {
        format!(
            "checkpoints {}, NET2 {:.4}, wall {:.2}s, image fnv1a {:016x}\n\
             metrics lines {}, span lines {}\n",
            self.checkpoints,
            self.net2,
            self.wall_s,
            self.image_fnv1a,
            self.metrics_jsonl.lines().count(),
            self.spans_jsonl.lines().count(),
        )
    }
}

/// Digest a memory image in sorted page order (little-endian index, then
/// page bytes) so the digest is independent of snapshot iteration order.
pub fn image_digest(snapshot: &Snapshot) -> u64 {
    let mut pages: Vec<(u64, &[u8])> = snapshot.iter().map(|(i, p)| (i, p.as_slice())).collect();
    pages.sort_by_key(|(i, _)| *i);
    let mut h = Fnv1a::new();
    for (idx, bytes) in pages {
        h.update(&idx.to_le_bytes());
        h.update(bytes);
    }
    h.digest()
}

fn replay_engine(scale: &RunScale) -> EngineConfig {
    let mut cfg = geometry_scaled_engine(scale);
    cfg.keep_files = true;
    cfg.full_every = Some(4);
    cfg.cores = 2;
    // Write-behind remote commits with seeded transport faults: the golden
    // snapshot pins the drain queue/retry metrics and the f2 recovery that
    // keeps the pending drain alive.
    cfg.transport = Some(WriteBehindConfig {
        queue_depth: 2,
        faults: Some(TransportFaults::mixed(scale.seed)),
        ..WriteBehindConfig::default()
    });
    cfg
}

/// Run the fixed-seed instrumented scenario and reduce it to a snapshot.
pub fn run(scale: &RunScale) -> ReplayOutcome {
    let obs = Arc::new(Obs::new());
    let mut cfg = replay_engine(scale);
    cfg.obs = Some(Arc::clone(&obs));

    let process = scaled_persona("libquantum", scale);
    let base = process.base_time().as_secs();

    // Lower the bootstrap cadence so the AIC predictor gets its four
    // samples and starts adapting even at CI scale.
    let mut aic_cfg = AicConfig::testbed(cfg.rates.clone());
    aic_cfg.bootstrap_interval = (base / 12.0).clamp(1.0, 15.0);
    let mut policy = AicPolicy::new(aic_cfg, &cfg.policy_env());

    let schedule = FailureSchedule::single(base * 0.55, 2, 1);
    let out = run_with_faults(process, &mut policy, cfg, &schedule)
        .expect("replay scenario must recover");

    let final_state = out
        .report
        .final_state
        .as_ref()
        .expect("keep_files run returns the final image");

    let (fleet_obs, fleet_w) = fleet_section(scale);

    ReplayOutcome {
        metrics_jsonl: obs.metrics.deterministic_snapshot().to_jsonl(),
        // Stable-class events only: Volatile wall-clock spans (none are
        // emitted on the simulated path, but the filter makes it a
        // guarantee) can never perturb the golden bytes.
        spans_jsonl: obs.spans.deterministic_jsonl(),
        image_fnv1a: image_digest(final_state),
        fleet_metrics_jsonl: fleet_obs.metrics.deterministic_snapshot().to_jsonl(),
        fleet_spans_jsonl: fleet_obs.spans.deterministic_jsonl(),
        fleet_w_trajectory: fleet_w,
        checkpoints: out.report.intervals.len(),
        net2: out.report.net2,
        wall_s: out.report.wall_time,
    }
}

/// The single-tenant `aicd` service scenario the golden file pins: one
/// adaptive tenant with a mid-run f2 crash and seeded transport faults,
/// on its own observability registry so every `fleet.*` series lands in
/// the artifact and the tenant's w* trajectory is byte-reproducible.
fn fleet_section(scale: &RunScale) -> (Arc<Obs>, Vec<f64>) {
    let obs = Arc::new(Obs::new());
    let fleet = SharedDatasetFleet::heterogeneous(vec![6], 30, scale.seed);
    let mut cfg = ServiceConfig::fleet_default(testbed_rates());
    cfg.cores = 2;
    cfg.faults = Some(TransportFaults::mixed(scale.seed));
    cfg.obs = Some(Arc::clone(&obs));
    let specs = vec![TenantSpec {
        persona: 0,
        policy: TenantPolicy::Adaptive { bootstrap: 3.0 },
        join_at: 0.0,
        rounds: 5,
        crashes: vec![(7.0, 2)],
    }];
    let report = run_service(&fleet, &specs, &cfg).expect("replay fleet section must run");
    assert_eq!(
        report.isolation_violations, 0,
        "replay fleet section violated isolation"
    );
    (obs, report.per_tenant[0].w_trajectory.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_deterministic_and_carries_every_layer() {
        let scale = RunScale::quick();
        let a = run(&scale);
        let b = run(&scale);
        assert_eq!(
            a.snapshot_text(),
            b.snapshot_text(),
            "same-seed replays diverged"
        );

        let text = a.snapshot_text();
        // Every instrumented layer contributes to the snapshot.
        for needle in [
            "\"metric\":\"engine.checkpoints\"",
            "\"metric\":\"storage.commits\"",
            "\"metric\":\"aic.predictions\"",
            "\"name\":\"engine.protect\"",
            "\"name\":\"engine.recover\"",
            "\"name\":\"aic.predict\"",
            "final_image_fnv1a=",
            "\"metric\":\"fleet.cuts\"",
            "\"metric\":\"fleet.tenants_admitted\"",
            "\"metric\":\"fleet.isolation_violations\"",
            "\"name\":\"fleet.join\"",
            "\"name\":\"fleet.leave\"",
            "fleet_w_trajectory=[",
        ] {
            assert!(text.contains(needle), "snapshot missing {needle}");
        }
        // Volatile wall-clock metrics must not leak in.
        assert!(!text.contains("\"class\":\"volatile\""));
        assert!(a.checkpoints >= 2);
        assert!(a.net2 >= 1.0);
    }

    #[test]
    fn different_seeds_produce_different_span_streams() {
        let a = run(&RunScale::quick());
        let b = run(&RunScale {
            seed: 43,
            ..RunScale::quick()
        });
        assert_ne!(a.snapshot_text(), b.snapshot_text());
    }
}
