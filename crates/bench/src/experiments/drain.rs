//! `repro drain` — write-behind vs synchronous L3 commits (extension).
//!
//! The transport layer's bet is that parking the slow remote leg on an
//! asynchronous drain queue beats holding the checkpointing core until L3
//! acknowledges. This sweep quantifies the bet across the two knobs that
//! govern it: the **sharing factor** (SF computation cores contending for
//! the remote link — larger SF, slower drains) and the write-behind
//! **queue depth** (more outstanding drains before back-pressure stalls
//! the compute core).
//!
//! Every cell runs the same persona twice: a clean run for the overhead
//! numbers (NET², cuts taken, wall-time overhead) and a fault-injected run
//! — an f3 failure mid-run *plus* seeded transient transport faults
//! (drops, timeouts, slow links) — whose resumed final image must match
//! the failure-free reference bit for bit. The synchronous column is the
//! same engine with the transport disabled: every level durable before the
//! interval record is cut.
//!
//! The paper-aligned expectation, enforced by [`write_behind_wins`]: once
//! SF ≥ 3 stretches the drain well past the interval length, the
//! synchronous core-drain rule starves the policy and write-behind shows
//! strictly lower total overhead at every queue depth.

use aic_ckpt::engine::{EngineConfig, EngineReport};
use aic_ckpt::harness::{run_with_faults, FailureSchedule};
use aic_ckpt::transport::{TransportFaults, WriteBehindConfig};
use aic_core::baselines::FixedIntervalPolicy;
use aic_memsim::SimTime;

use crate::experiments::{geometry_scaled_engine, scaled_persona, RunScale};
use crate::output::{f, markdown_table};

/// One measured configuration: synchronous (`depth == None`) or
/// write-behind at a queue depth.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainCell {
    /// Write-behind queue depth; `None` = synchronous commits.
    pub depth: Option<usize>,
    /// NET² with the measured per-interval parameters — the total-overhead
    /// figure of merit.
    pub net2: f64,
    /// Checkpoints actually cut (the core-drain rule suppresses cuts while
    /// the checkpointing core is busy).
    pub cuts: usize,
    /// Failure-free wall-time overhead fraction (includes back-pressure
    /// stalls charged to the compute core).
    pub overhead_frac: f64,
    /// The fault-injected twin (mid-run f3 + seeded transport faults)
    /// resumed to a final image bit-identical to the reference.
    pub identical: bool,
}

/// One sharing-factor row of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainRow {
    /// Sharing factor applied to the engine (and thus the transport link).
    pub sf: f64,
    /// Synchronous baseline followed by one cell per queue depth.
    pub cells: Vec<DrainCell>,
}

/// Default sharing factors: dedicated link, the paper's profitable knee,
/// and deep contention.
pub const DEFAULT_SFS: [f64; 3] = [1.0, 3.0, 7.0];

/// Default write-behind queue depths.
pub const DEFAULT_DEPTHS: [usize; 3] = [1, 2, 4];

fn engine_for(sf: f64, depth: Option<usize>, seed: u64, scale: &RunScale) -> EngineConfig {
    let mut cfg = geometry_scaled_engine(scale);
    cfg.sharing_factor = sf;
    cfg.keep_files = true;
    cfg.full_every = Some(4);
    cfg.transport = depth.map(|d| WriteBehindConfig {
        queue_depth: d,
        faults: Some(TransportFaults::mixed(seed)),
        ..WriteBehindConfig::default()
    });
    cfg
}

fn measure(
    persona: &str,
    scale: &RunScale,
    sf: f64,
    depth: Option<usize>,
    interval: f64,
    base: f64,
    truth: &aic_memsim::Snapshot,
) -> DrainCell {
    // Clean run: overhead numbers. Transport faults stay on — retries are
    // part of the drain cost being measured — but no node failure.
    let mut policy = FixedIntervalPolicy::new(interval);
    let clean = run_with_faults(
        scaled_persona(persona, scale),
        &mut policy,
        engine_for(sf, depth, scale.seed, scale),
        &FailureSchedule::none(),
    )
    .unwrap_or_else(|e| panic!("sf {sf} depth {depth:?} clean: {e}"));

    // Faulted twin: f3 mid-run (node, RAID peer, and the pending drain
    // queue all lost) on top of the same transport fault plan.
    let mut policy = FixedIntervalPolicy::new(interval);
    let faulted = run_with_faults(
        scaled_persona(persona, scale),
        &mut policy,
        engine_for(sf, depth, scale.seed, scale),
        &FailureSchedule::single(base * 0.55, 3, 1),
    )
    .unwrap_or_else(|e| panic!("sf {sf} depth {depth:?} faulted: {e}"));

    DrainCell {
        depth,
        net2: clean.report.net2,
        cuts: cuts(&clean.report),
        overhead_frac: clean.report.overhead_frac(),
        identical: faulted.report.final_state.as_ref() == Some(truth),
    }
}

fn cuts(report: &EngineReport) -> usize {
    report.intervals.iter().filter(|r| r.raw_bytes > 0).count()
}

/// Run the SF × queue-depth sweep on `persona`.
pub fn run(persona: &str, sfs: &[f64], depths: &[usize], scale: &RunScale) -> Vec<DrainRow> {
    // Failure-free reference image: a pure function of (persona, scale).
    let mut reference = scaled_persona(persona, scale);
    let base = reference.base_time().as_secs();
    reference.run_until(SimTime::from_secs(base * 10.0));
    assert!(reference.is_done(), "reference run must finish");
    let truth = reference.snapshot();

    let interval = (base / 8.0).max(0.5);
    sfs.iter()
        .map(|&sf| {
            let mut cells = vec![measure(persona, scale, sf, None, interval, base, &truth)];
            cells.extend(
                depths
                    .iter()
                    .map(|&d| measure(persona, scale, sf, Some(d), interval, base, &truth)),
            );
            DrainRow { sf, cells }
        })
        .collect()
}

/// True iff at every SF ≥ 3 each write-behind depth beats the synchronous
/// baseline on NET² — the acceptance bar for the transport layer.
pub fn write_behind_wins(rows: &[DrainRow]) -> bool {
    rows.iter().filter(|r| r.sf >= 3.0).all(|r| {
        let sync = r.cells[0].net2;
        r.cells[1..].iter().all(|c| c.net2 < sync)
    })
}

/// Render the sweep: one row per SF, `NET² (cuts)` per configuration, and
/// a trailing bit-identity verdict over each row's fault-injected twins.
pub fn render(rows: &[DrainRow]) -> String {
    let mut headers: Vec<String> = vec!["SF".into()];
    if let Some(first) = rows.first() {
        headers.extend(first.cells.iter().map(|c| match c.depth {
            None => "sync".to_string(),
            Some(d) => format!("wb d={d}"),
        }));
    }
    headers.push("overhead (sync→best)".into());
    headers.push("identical".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    markdown_table(
        &header_refs,
        &rows
            .iter()
            .map(|r| {
                let mut cells = vec![format!("{}", r.sf)];
                cells.extend(
                    r.cells
                        .iter()
                        .map(|c| format!("{} ({})", f(c.net2), c.cuts)),
                );
                let best = r.cells[1..]
                    .iter()
                    .map(|c| c.overhead_frac)
                    .fold(f64::INFINITY, f64::min);
                cells.push(format!(
                    "{:.1}% → {:.1}%",
                    r.cells[0].overhead_frac * 100.0,
                    best * 100.0
                ));
                cells.push(
                    if r.cells.iter().all(|c| c.identical) {
                        "yes"
                    } else {
                        "NO"
                    }
                    .to_string(),
                );
                cells
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_behind_beats_sync_at_sf3_and_recovers_identically() {
        let scale = RunScale::quick();
        let rows = run("libquantum", &[3.0], &[1, 4], &scale);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cells.len(), 3);
        assert!(
            write_behind_wins(&rows),
            "sync {} vs wb {:?}",
            rows[0].cells[0].net2,
            rows[0].cells[1..]
                .iter()
                .map(|c| c.net2)
                .collect::<Vec<_>>()
        );
        for c in &rows[0].cells {
            assert!(c.identical, "{c:?}");
            assert!(c.cuts > 0, "{c:?}");
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let scale = RunScale::quick();
        let a = run("libquantum", &[3.0], &[2], &scale);
        let b = run("libquantum", &[3.0], &[2], &scale);
        assert_eq!(a, b);
    }
}
