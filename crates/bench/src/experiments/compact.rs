//! `repro compact` (extension — the checkpoint-log compaction story).
//!
//! The storage hierarchy persists through append-only logs: anchors mark
//! the superseded prefix *dead*, but the bytes stay on disk until a
//! compaction pass folds the survivors into fresh segments. This
//! experiment runs the same persona/engine configuration as `repro faults`
//! with automatic compaction **disabled**, so every superseded chain is
//! still physically present at the end of the run — then demonstrates, per
//! level:
//!
//! * compaction strictly shrinks `stored_bytes` (the dead prefixes are
//!   real and reclaimable);
//! * recovery is bit-identical **before**, **mid-** (a crash injected
//!   after N record copies, with reader pins held) and **after** the pass —
//!   compaction is invisible to restart.

use std::sync::{Arc, Mutex};

use aic_ckpt::engine::run_engine;
use aic_ckpt::recovery::{CompactionPolicy, RecoveryError, StorageHierarchy};
use aic_core::baselines::FixedIntervalPolicy;
use aic_memsim::Snapshot;

use crate::experiments::{scaled_persona, RunScale};
use crate::output::{f, markdown_table};

/// Per-level outcome of the compaction pass.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactRow {
    /// Storage level (1 = local, 2 = RAID, 3 = remote).
    pub level: usize,
    /// Bytes held before any compaction (dead prefixes included).
    pub before_bytes: u64,
    /// Bytes held after the clean pass + reclaim.
    pub after_bytes: u64,
    /// Dead-byte fraction the run accumulated at this level.
    pub garbage_ratio: f64,
    /// Recovery image identical to the pre-compaction image, read while a
    /// crashed pass's orphan segments were still present (pins held).
    pub identical_mid: bool,
    /// Recovery image identical after the clean pass.
    pub identical_after: bool,
}

/// The full report of one `repro compact` run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactReport {
    /// Persona driven through the engine.
    pub persona: String,
    /// Record-copy count after which the injected pass crashed
    /// (`None` = no crash injection, clean pass only).
    pub crash_after: Option<usize>,
    /// Whether the injected pass actually hit its crash point (a pass
    /// with fewer live records than the crash point completes instead).
    pub crashed: bool,
    /// Per-level outcomes.
    pub rows: Vec<CompactRow>,
}

impl CompactReport {
    /// Gate: every level must shrink strictly and recover identically at
    /// every stage. Returns all violations (empty = pass).
    pub fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for r in &self.rows {
            if r.after_bytes >= r.before_bytes {
                violations.push(format!(
                    "L{}: compaction did not shrink storage ({} -> {} bytes)",
                    r.level, r.before_bytes, r.after_bytes
                ));
            }
            if !r.identical_mid {
                violations.push(format!("L{}: mid-compaction recovery diverged", r.level));
            }
            if !r.identical_after {
                violations.push(format!("L{}: post-compaction recovery diverged", r.level));
            }
        }
        violations
    }
}

/// Run the persona through the engine (auto-compaction off), then compact
/// with an optional injected crash after `crash_after` record copies.
pub fn run(persona: &str, scale: &RunScale, crash_after: Option<usize>) -> CompactReport {
    let storage = Arc::new(Mutex::new(StorageHierarchy::coastal(4)));
    {
        let mut hier = storage.lock().unwrap();
        hier.set_compaction(CompactionPolicy {
            auto: false,
            garbage_threshold: 0.5,
        });
    }
    let mut cfg = crate::experiments::testbed_engine();
    cfg.keep_files = true;
    cfg.full_every = Some(4);
    cfg.storage = Some(storage.clone());
    let process = scaled_persona(persona, scale);
    let base = process.base_time().as_secs();
    let mut policy = FixedIntervalPolicy::new((base / 8.0).max(0.5));
    let _report = run_engine(process, &mut policy, &cfg);

    let mut hier = storage.lock().unwrap();
    let before = hier.stored_bytes();
    let stats = hier.log_stats();
    // Reference images, read from the dead-byte-laden logs.
    let truth: Vec<Snapshot> = (1..=3)
        .map(|l| hier.recover_job(l, cfg.job).unwrap().snapshot)
        .collect();

    // Crash a pass mid-copy on every level while reader pins are held:
    // the orphan output segments must not perturb recovery, and the pins
    // must keep every segment a reader could still walk.
    let mut crashed = false;
    let mut identical_mid = [true; 3];
    if let Some(n) = crash_after {
        let pins = hier.pin_readers();
        for level in 1..=3usize {
            match hier.compact_level(level, Some(n)) {
                Err(RecoveryError::CompactionCrashed) => crashed = true,
                Ok(_) => {}
                Err(e) => panic!("L{level} compaction failed: {e}"),
            }
            identical_mid[level - 1] =
                hier.recover_job(level, cfg.job).unwrap().snapshot == truth[level - 1];
        }
        hier.unpin_readers(pins);
    }

    // Clean pass + reclaim, then the final identity check.
    hier.compact().unwrap();
    hier.try_reclaim_all();
    let after = hier.stored_bytes();
    let rows = (1..=3usize)
        .map(|level| CompactRow {
            level,
            before_bytes: before[level - 1],
            after_bytes: after[level - 1],
            garbage_ratio: stats[level - 1].garbage_ratio,
            identical_mid: identical_mid[level - 1],
            identical_after: hier.recover_job(level, cfg.job).unwrap().snapshot == truth[level - 1],
        })
        .collect();

    CompactReport {
        persona: persona.to_string(),
        crash_after,
        crashed,
        rows,
    }
}

/// Render the report.
pub fn render(report: &CompactReport) -> String {
    let mut out = markdown_table(
        &[
            "level",
            "before (MiB)",
            "after (MiB)",
            "garbage",
            "identical mid",
            "identical after",
        ],
        &report
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("L{}", r.level),
                    f(r.before_bytes as f64 / (1024.0 * 1024.0)),
                    f(r.after_bytes as f64 / (1024.0 * 1024.0)),
                    format!("{:.0}%", r.garbage_ratio * 100.0),
                    if r.identical_mid { "yes" } else { "NO" }.to_string(),
                    if r.identical_after { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    if let Some(n) = report.crash_after {
        out.push_str(&format!(
            "\ncrash injected after {n} record copies: {}\n",
            if report.crashed {
                "pass crashed, orphan segments left, recovery unperturbed"
            } else {
                "pass finished before the crash point"
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_shrinks_storage_and_recovery_is_identical_throughout() {
        let report = run("libquantum", &RunScale::quick(), Some(1));
        assert!(report.crashed, "crash point 1 must fire: {report:?}");
        let violations = report.check();
        assert!(violations.is_empty(), "{violations:?}");
        for r in &report.rows {
            assert!(r.garbage_ratio > 0.0, "no garbage accumulated: {r:?}");
        }
        let rendered = render(&report);
        assert!(rendered.contains("crash injected after 1"));
    }
}
