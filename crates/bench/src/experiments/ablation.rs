//! Ablation studies beyond the paper's evaluation.
//!
//! The paper motivates several design choices without isolating them; these
//! experiments do:
//!
//! * [`compressors`] — what the *compressor choice* buys: full checkpoints,
//!   raw incrementals, XOR/RLE, whole-file Xdelta3, page-aligned
//!   Xdelta3-PA, all else equal;
//! * [`policies`] — what the *decider* buys: AIC vs a fixed interval vs a
//!   naive dirty-page budget;
//! * [`sample_buffer`] — the cost/benefit of the hot-page sample budget
//!   (Section IV.E's 8-MB buffer).

use aic_ckpt::engine::{run_engine, Compressor, EngineConfig};
use aic_core::baselines::{DirtyBudgetPolicy, FixedIntervalPolicy, MeanPolicy, OraclePolicy};
use aic_core::policy::{AicConfig, AicPolicy};
use aic_core::CheckpointPolicy;
use aic_delta::encode::EncodeParams;
use aic_delta::pa::PaParams;

use crate::experiments::{geometry_scaled_engine, scaled_persona, testbed_rates, RunScale};
use crate::output::{f, markdown_table, pct};

/// One ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// NET² (Eq. (1) over the run's measured intervals).
    pub net2: f64,
    /// Mean compressed bytes shipped per checkpoint.
    pub mean_ds: f64,
    /// Mean delta-compression latency.
    pub mean_dl: f64,
    /// Failure-free wall-clock overhead fraction.
    pub overhead: f64,
}

fn row(variant: &str, report: &aic_ckpt::engine::EngineReport) -> AblationRow {
    AblationRow {
        variant: variant.to_string(),
        net2: report.net2,
        mean_ds: report.mean_ds(),
        mean_dl: report.mean_dl(),
        overhead: report.overhead_frac(),
    }
}

/// Compressor ablation on `persona` at a fixed 20-second cadence.
pub fn compressors(persona: &str, scale: &RunScale) -> Vec<AblationRow> {
    let variants: [(&str, Compressor); 5] = [
        ("full (Moody payload)", Compressor::FullOnly),
        ("incremental raw", Compressor::IncrementalRaw),
        ("incremental + XOR/RLE", Compressor::Xor),
        (
            "incremental + Xdelta3",
            Compressor::WholeFile(EncodeParams::default()),
        ),
        (
            "incremental + Xdelta3-PA",
            Compressor::PaDelta(PaParams::default()),
        ),
    ];
    variants
        .iter()
        .map(|(name, compressor)| {
            let mut config = geometry_scaled_engine(scale);
            config.compressor = *compressor;
            let mut policy = FixedIntervalPolicy::new((20.0 * scale.duration).max(3.0));
            let report = run_engine(scaled_persona(persona, scale), &mut policy, &config);
            row(name, &report)
        })
        .collect()
}

/// Decider ablation on `persona`: AIC vs static vs dirty-budget, each
/// decider in the same slot of the same engine.
pub fn policies(persona: &str, scale: &RunScale) -> Vec<AblationRow> {
    let config: EngineConfig = geometry_scaled_engine(scale);
    let env = config.policy_env();
    let bootstrap = (15.0 * scale.duration).max(2.0);
    let mut aic_cfg = AicConfig::testbed(testbed_rates());
    aic_cfg.bootstrap_interval = bootstrap;
    let fixed = FixedIntervalPolicy::new((20.0 * scale.duration).max(3.0));
    let budget = DirtyBudgetPolicy::new(1024, (60.0 * scale.duration).max(5.0));
    let deciders: [(&str, Box<dyn CheckpointPolicy>); 5] = [
        ("fixed interval", Box::new(fixed)),
        ("dirty-page budget", Box::new(budget)),
        ("mean-predictor", Box::new(MeanPolicy::new(&env, bootstrap))),
        ("AIC (adaptive)", Box::new(AicPolicy::new(aic_cfg, &env))),
        (
            "oracle (exact costs)",
            Box::new(OraclePolicy::new(&env, bootstrap)),
        ),
    ];
    deciders
        .into_iter()
        .map(|(label, mut policy)| {
            let report = run_engine(scaled_persona(persona, scale), policy.as_mut(), &config);
            row(label, &report)
        })
        .collect()
}

/// Metric-choice ablation (the paper's footnote 1): JD/DI vs cosine/M2
/// feeding the same predictor and decider.
pub fn metric_choice(persona: &str, scale: &RunScale) -> Vec<AblationRow> {
    use aic_core::sample::{SimilarityMetric, VariationMetric};
    let config: EngineConfig = geometry_scaled_engine(scale);
    [
        (
            "JD/DI (paper)",
            SimilarityMetric::Jaccard,
            VariationMetric::Divergence,
        ),
        (
            "cosine/M2 (footnote 1)",
            SimilarityMetric::Cosine,
            VariationMetric::M2,
        ),
    ]
    .into_iter()
    .map(|(label, sim, var)| {
        let mut aic_cfg = AicConfig::testbed(testbed_rates());
        aic_cfg.bootstrap_interval = (15.0 * scale.duration).max(2.0);
        aic_cfg.similarity = sim;
        aic_cfg.variation = var;
        let mut aic = AicPolicy::new(aic_cfg, &config.policy_env());
        let report = run_engine(scaled_persona(persona, scale), &mut aic, &config);
        row(label, &report)
    })
    .collect()
}

/// Sample-buffer budget ablation: AIC with different sample capacities.
pub fn sample_buffer(persona: &str, scale: &RunScale, capacities: &[usize]) -> Vec<AblationRow> {
    let config: EngineConfig = geometry_scaled_engine(scale);
    capacities
        .iter()
        .map(|&cap| {
            let mut aic_cfg = AicConfig::testbed(testbed_rates());
            aic_cfg.bootstrap_interval = (15.0 * scale.duration).max(2.0);
            aic_cfg.sb_capacity = cap;
            let mut aic = AicPolicy::new(aic_cfg, &config.policy_env());
            let report = run_engine(scaled_persona(persona, scale), &mut aic, &config);
            row(&format!("SB = {cap} samples"), &report)
        })
        .collect()
}

/// Render ablation rows.
pub fn render(rows: &[AblationRow]) -> String {
    markdown_table(
        &["variant", "NET²", "mean ds (MB)", "mean dl (s)", "overhead"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    f(r.net2),
                    f(r.mean_ds / 1e6),
                    f(r.mean_dl),
                    pct(r.overhead),
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
            seed: 17,
        }
    }

    #[test]
    fn compression_strictly_improves_shipping_volume() {
        let rows = compressors("bzip2", &quick());
        let by = |name: &str| {
            rows.iter()
                .find(|r| r.variant.contains(name))
                .unwrap_or_else(|| panic!("missing {name}"))
                .clone()
        };
        // Full > incremental ≥ delta-compressed in shipped bytes.
        assert!(by("full").mean_ds > by("incremental raw").mean_ds);
        assert!(by("incremental raw").mean_ds >= by("Xdelta3-PA").mean_ds);
        // And NET² follows the same ordering (smaller payloads → less
        // exposure), at least full vs PA.
        assert!(by("full").net2 >= by("Xdelta3-PA").net2);
    }

    #[test]
    fn adaptive_policy_not_worse_than_naive_baselines() {
        let rows = policies("milc", &quick());
        let aic = rows.iter().find(|r| r.variant.contains("AIC")).unwrap();
        for other in rows.iter().filter(|r| !r.variant.contains("AIC")) {
            assert!(
                aic.net2 <= other.net2 * 1.05,
                "AIC {:.4} vs {} {:.4}",
                aic.net2,
                other.variant,
                other.net2
            );
        }
    }

    #[test]
    fn metric_choice_roughly_equivalent() {
        // Footnote 1's finding: cosine/M2 track JD/DI on these workloads.
        let rows = metric_choice("sjeng", &quick());
        assert_eq!(rows.len(), 2);
        let (a, b) = (&rows[0], &rows[1]);
        assert!(
            (a.net2 - b.net2).abs() / a.net2 < 0.05,
            "JD/DI {:.4} vs cosine/M2 {:.4}",
            a.net2,
            b.net2
        );
    }

    #[test]
    fn tiny_sample_buffer_still_functions() {
        let rows = sample_buffer("sjeng", &quick(), &[16, 512]);
        for r in &rows {
            assert!(r.net2 >= 1.0 && r.net2 < 2.0, "{r:?}");
            assert!(r.overhead < 0.1);
        }
    }
}
