//! Fault-injection sweep (extension — the recovery story, end to end).
//!
//! The paper's evaluation assumes the multi-level storage hierarchy of its
//! Section II.C can always serve a restart; this experiment *demonstrates*
//! it. A persona runs under the engine with every checkpoint committed
//! through L1/L2/L3, a single failure is injected at a chosen fraction of
//! the base time, recovery reads the chain back from the cheapest
//! surviving level, and the resumed run's final memory image is compared
//! bit-for-bit against a failure-free reference. The sweep crosses the
//! failure level (f1 transient, f2 local + one RAID node, f3 local + RAID)
//! with the failure time, and reports per cell which level served, what
//! the read/repair/rework cost, and whether the image matched.

use aic_ckpt::engine::EngineConfig;
use aic_ckpt::harness::{run_with_faults, FailureSchedule};
use aic_ckpt::recovery::RecoveryLevel;
use aic_core::baselines::FixedIntervalPolicy;
use aic_memsim::SimTime;

use crate::experiments::{scaled_persona, testbed_rates, RunScale};
use crate::output::{f, markdown_table};

/// One (failure level × failure time) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRow {
    /// Injected failure level (1–3).
    pub level: usize,
    /// Failure time as a fraction of the persona's base time.
    pub at_frac: f64,
    /// Storage level that served the recovery.
    pub served: RecoveryLevel,
    /// True if the recovery read ran against a degraded RAID group.
    pub degraded: bool,
    /// Chain read time through the serving store's channel model, seconds.
    pub read_s: f64,
    /// RAID rebuild time, seconds (0 unless degraded).
    pub repair_s: f64,
    /// Work re-executed after the restore, seconds.
    pub rework_s: f64,
    /// Total wall time of the faulted run, seconds.
    pub wall_s: f64,
    /// Bytes held per level `[L1, L2, L3]` at the end of the run.
    pub stored: [u64; 3],
    /// Final image bit-identical to the failure-free reference.
    pub identical: bool,
}

/// Default failure-time fractions (early, mid, late in the run).
pub const DEFAULT_FRACTIONS: [f64; 3] = [0.25, 0.55, 0.85];

fn faulted_engine() -> EngineConfig {
    let mut cfg = EngineConfig::testbed(testbed_rates());
    // Keep files so the engine can commit them and hand back the final
    // image; periodic fulls anchor the chain so GC stays bounded.
    cfg.keep_files = true;
    cfg.full_every = Some(4);
    cfg
}

/// Run the (level × time) sweep on `persona`.
pub fn run(persona: &str, fractions: &[f64], scale: &RunScale) -> Vec<FaultRow> {
    // Failure-free reference: the workload is deterministic, so the final
    // image is a pure function of (persona, scale).
    let mut reference = scaled_persona(persona, scale);
    let base = reference.base_time().as_secs();
    reference.run_until(SimTime::from_secs(base * 10.0));
    assert!(reference.is_done(), "reference run must finish");
    let truth = reference.snapshot();

    let interval = (base / 8.0).max(0.5);
    let mut rows = Vec::new();
    for level in 1..=3usize {
        for &at_frac in fractions {
            let mut policy = FixedIntervalPolicy::new(interval);
            let schedule = FailureSchedule::single(base * at_frac, level, 1);
            let out = run_with_faults(
                scaled_persona(persona, scale),
                &mut policy,
                faulted_engine(),
                &schedule,
            )
            .unwrap_or_else(|e| panic!("level {level} at {at_frac}: {e}"));
            let ev = out.faults[0];
            let identical = out.report.final_state.as_ref() == Some(&truth);
            rows.push(FaultRow {
                level,
                at_frac,
                served: ev.served,
                degraded: ev.degraded,
                read_s: ev.read_seconds,
                repair_s: ev.repair_seconds,
                rework_s: ev.rework_seconds,
                wall_s: out.report.wall_time,
                stored: out.stored_bytes,
                identical,
            });
        }
    }
    rows
}

fn served_name(level: RecoveryLevel) -> &'static str {
    match level {
        RecoveryLevel::Local => "L1 local",
        RecoveryLevel::Raid => "L2 raid",
        RecoveryLevel::Remote => "L3 remote",
    }
}

/// Render the sweep.
pub fn render(rows: &[FaultRow]) -> String {
    markdown_table(
        &[
            "fail",
            "at",
            "served by",
            "read (s)",
            "repair (s)",
            "rework (s)",
            "wall (s)",
            "stored (MiB)",
            "identical",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("f{}", r.level),
                    format!("{:.0}%", r.at_frac * 100.0),
                    format!(
                        "{}{}",
                        served_name(r.served),
                        if r.degraded { " (degraded)" } else { "" }
                    ),
                    f(r.read_s),
                    f(r.repair_s),
                    f(r.rework_s),
                    f(r.wall_s),
                    f(r.stored.iter().sum::<u64>() as f64 / (1024.0 * 1024.0)),
                    if r.identical { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// CSV rows (machine-readable, for the CI matrix).
pub fn csv_rows(rows: &[FaultRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.level.to_string(),
                r.at_frac.to_string(),
                served_name(r.served).replace(' ', "_"),
                r.degraded.to_string(),
                r.read_s.to_string(),
                r.repair_s.to_string(),
                r.rework_s.to_string(),
                r.wall_s.to_string(),
                r.stored[0].to_string(),
                r.stored[1].to_string(),
                r.stored[2].to_string(),
                r.identical.to_string(),
            ]
        })
        .collect()
}

/// CSV header matching [`csv_rows`].
pub const CSV_HEADERS: [&str; 12] = [
    "level",
    "at_frac",
    "served",
    "degraded",
    "read_s",
    "repair_s",
    "rework_s",
    "wall_s",
    "l1_bytes",
    "l2_bytes",
    "l3_bytes",
    "identical",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_recovers_identically_at_every_level() {
        let scale = RunScale::quick();
        let rows = run("libquantum", &[0.5], &scale);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.identical, "{r:?}");
            assert!(r.read_s > 0.0, "{r:?}");
            assert!(r.rework_s > 0.0, "{r:?}");
        }
        // Cheapest surviving level serves each failure class.
        assert_eq!(rows[0].served, RecoveryLevel::Local);
        assert_eq!(rows[1].served, RecoveryLevel::Raid);
        assert!(rows[1].degraded && rows[1].repair_s > 0.0);
        assert_eq!(rows[2].served, RecoveryLevel::Remote);
    }
}
