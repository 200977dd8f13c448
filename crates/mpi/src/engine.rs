//! Job-level checkpoint engine for coordinated multi-process jobs.
//!
//! Runs an [`MpiJob`] under coordinated checkpointing — either on a fixed
//! interval (the static discipline every prior MPI checkpointing system
//! uses) or **similarity-coordinated**: the adaptive variant the paper
//! leaves as future work, which "tracks similarity degrees of all MPI
//! processes" and cuts when the *aggregate* predicted delta is cheap.
//!
//! Failure semantics are the MPI ones of Section III.D: a failure of any
//! rank fails the job, so the job-level failure rate is the per-process
//! rate scaled by the rank count — precisely why Fig. 5's MPI curves
//! degrade with system size while Fig. 6's RMS curves do not.

use aic_delta::pa::PaParams;
use aic_delta::stats::CostModel;
use aic_model::nonstatic::{interval_time_l2l3, steady_state_wstar, IntervalParams};
use aic_model::FailureRates;

use crate::coordinated::CoordinatedCheckpointer;
use crate::job::MpiJob;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct MpiEngineConfig {
    /// Per-node L2 bandwidth, bytes/s.
    pub b2: f64,
    /// Per-node L3 bandwidth, bytes/s.
    pub b3: f64,
    /// Compressor parameters.
    pub pa: PaParams,
    /// Latency cost model.
    pub cost: CostModel,
    /// **Per-process** failure rates; the engine scales them by the rank
    /// count for job-level scoring.
    pub rates: FailureRates,
    /// Fixed checkpoint interval, seconds (also the adaptive bootstrap).
    pub interval: f64,
    /// Similarity-coordinated adaptive cutting.
    pub adaptive: bool,
    /// Dirty pages sampled per rank for the adaptive aggregate estimate.
    pub sample_pages: usize,
}

impl MpiEngineConfig {
    /// Testbed defaults (Coastal per-node bandwidths, λ = 10⁻³ split).
    pub fn testbed(interval: f64) -> Self {
        MpiEngineConfig {
            b2: 483.0e9 / 1024.0,
            b3: 2.0e6,
            pa: PaParams::default(),
            cost: CostModel::default(),
            rates: FailureRates::three(2e-7, 1.8e-6, 4e-7).with_total(1e-3),
            interval,
            adaptive: false,
            sample_pages: 16,
        }
    }
}

/// One coordinated interval's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpiIntervalRecord {
    /// Work accomplished, seconds.
    pub w: f64,
    /// Blocking coordinated c1 (max rank + barrier).
    pub c1: f64,
    /// Delta-compression latency (max rank).
    pub dl: f64,
    /// Total compressed bytes (all ranks + message log).
    pub ds_bytes: u64,
    /// Total uncompressed dirty bytes.
    pub raw_bytes: u64,
    /// In-flight messages drained.
    pub drained: usize,
    /// Level costs implied (per-node transfer share).
    pub params: IntervalParams,
}

/// Results of a job run.
#[derive(Debug)]
pub struct MpiReport {
    /// Rank count.
    pub ranks: usize,
    /// Base (shortest) job time.
    pub base_time: f64,
    /// Per-interval measurements (trailing tail included with c1 = 0).
    pub intervals: Vec<MpiIntervalRecord>,
    /// NET² under **job-level** failure rates (per-process × ranks).
    pub net2: f64,
    /// Coordinated cuts taken (excluding the initial full one).
    pub cuts: u64,
    /// Wall time: base + blocking overheads.
    pub wall_time: f64,
}

fn params_from(
    c1: f64,
    dl: f64,
    ds_total: u64,
    ranks: usize,
    cfg: &MpiEngineConfig,
) -> IntervalParams {
    // Each node ships its own rank's share concurrently.
    let per_node = ds_total as f64 / ranks as f64;
    IntervalParams::from_measurement(c1, dl, per_node, cfg.b2, cfg.b3)
}

/// Run the job to completion under coordinated checkpointing.
pub fn run_mpi_engine(mut job: MpiJob, cfg: &MpiEngineConfig) -> MpiReport {
    assert!(cfg.interval > 0.0);
    let ranks = job.ranks();
    let job_rates = cfg.rates.scaled(ranks as f64);
    let base_time = job.base_time();

    let mut ck = CoordinatedCheckpointer::new(cfg.pa, cfg.cost);
    job.run_until(0.0);
    let (_, init_stats) = ck.initial_cut(&mut job);
    let initial_params = params_from(init_stats.c1, 0.0, init_stats.ds_bytes, ranks, cfg);

    let mut blocking = init_stats.c1;
    let mut intervals: Vec<MpiIntervalRecord> = Vec::new();
    let mut last_cut = job.now();
    let mut last_wstar: Option<f64> = None;
    let mut core_free_at = 0.0f64;

    while job.run_superstep() {
        let now = job.now();
        let elapsed = now - last_cut;
        if now < core_free_at {
            continue; // single checkpointing core per node: drain first
        }

        let mut want = elapsed + 1e-9 >= cfg.interval;
        if cfg.adaptive && ck.cuts() >= 2 {
            // Aggregate similarity estimate: sample dirty pages per rank,
            // extrapolate the global compressed size, then apply the same
            // EVT + Newton–Raphson rule as single-process AIC.
            let (est_ds, est_raw) = estimate_global_ds(&job, &ck, cfg);
            let est_dl = cfg.cost.raw_io_latency((est_raw / 4.0) as u64); // scan share
            let c1 = cfg.cost.raw_io_latency(est_raw as u64) + ck.barrier_overhead;
            let params = params_from(c1, est_dl, est_ds as u64, ranks, cfg);
            want = steady_state_wstar(&params, &job_rates, elapsed, &mut last_wstar) <= elapsed;
        }

        if want {
            let (_, stats) = ck.cut(&mut job);
            let params = params_from(stats.c1, stats.dl, stats.ds_bytes, ranks, cfg);
            intervals.push(MpiIntervalRecord {
                w: elapsed,
                c1: stats.c1,
                dl: stats.dl,
                ds_bytes: stats.ds_bytes,
                raw_bytes: stats.raw_bytes,
                drained: stats.drained,
                params,
            });
            blocking += stats.c1;
            core_free_at = now + params.transfer(3);
            last_cut = now;
        }
    }
    let tail = job.now() - last_cut;
    if tail > 1e-9 {
        intervals.push(MpiIntervalRecord {
            w: tail,
            c1: 0.0,
            dl: 0.0,
            ds_bytes: 0,
            raw_bytes: 0,
            drained: 0,
            params: IntervalParams::symmetric(0.0, 0.0, 0.0),
        });
    }

    // Eq. (1) under job-level rates.
    let mut total = 0.0;
    let mut prev = initial_params;
    for rec in &intervals {
        if rec.w <= 1e-9 {
            continue;
        }
        total += interval_time_l2l3(rec.w, &rec.params, &prev, &job_rates);
        if rec.raw_bytes > 0 {
            prev = rec.params;
        }
    }

    MpiReport {
        ranks,
        base_time,
        net2: total / base_time,
        cuts: ck.cuts().saturating_sub(1),
        wall_time: base_time + blocking,
        intervals,
    }
}

/// Sample-based aggregate delta estimate across all ranks.
fn estimate_global_ds(
    job: &MpiJob,
    ck: &CoordinatedCheckpointer,
    cfg: &MpiEngineConfig,
) -> (f64, f64) {
    let mut est_ds = 0.0f64;
    let mut raw = 0.0f64;
    for rank in 0..job.ranks() {
        let log = job.process(rank).dirty_log();
        raw += log.len() as f64 * aic_memsim::PAGE_SIZE as f64;
        if log.is_empty() {
            continue;
        }
        let stride = (log.len() / cfg.sample_pages.max(1)).max(1);
        let mut sampled = 0usize;
        let mut sampled_bytes = 0u64;
        for rec in log.iter().step_by(stride).take(cfg.sample_pages) {
            if let Some(cur) = job.process(rank).space().page(rec.page) {
                let per_page = match ck.previous_page(rank, rec.page) {
                    Some(old) => {
                        let (delta, _) = aic_delta::encode::encode_with_report(
                            old.as_slice(),
                            cur.as_slice(),
                            &aic_delta::encode::EncodeParams {
                                block_size: cfg.pa.block_size,
                                max_probe: cfg.pa.max_probe,
                            },
                        );
                        delta.wire_len().min(aic_memsim::PAGE_SIZE as u64)
                    }
                    None => aic_memsim::PAGE_SIZE as u64,
                };
                sampled += 1;
                sampled_bytes += per_page;
            }
        }
        if sampled > 0 {
            est_ds += sampled_bytes as f64 / sampled as f64 * log.len() as f64;
        }
    }
    (est_ds, raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::CommPattern;
    use aic_memsim::workloads::generic::PhasedWorkload;
    use aic_memsim::workloads::WriteStyle;
    use aic_memsim::{SimProcess, SimTime};

    fn job(ranks: usize, secs: f64) -> MpiJob {
        MpiJob::new(
            ranks,
            move |rank| {
                SimProcess::new(Box::new(PhasedWorkload::new(
                    format!("rank{rank}"),
                    rank as u64 + 1,
                    512,
                    8.0,
                    2.0,
                    1,
                    15,
                    SimTime::from_secs(secs),
                )))
            },
            CommPattern::Ring,
            0.5,
            1024,
            0.1,
            11,
        )
    }

    fn quiet_job(ranks: usize, secs: f64) -> MpiJob {
        MpiJob::new(
            ranks,
            move |rank| {
                SimProcess::new(Box::new(
                    aic_memsim::workloads::generic::StreamingWorkload::new(
                        format!("rank{rank}"),
                        rank as u64 + 1,
                        128,
                        1,
                        WriteStyle::PartialEntropy(300),
                        SimTime::from_secs(secs),
                    ),
                ))
            },
            CommPattern::Ring,
            0.5,
            256,
            0.1,
            12,
        )
    }

    #[test]
    fn fixed_interval_engine_runs_to_completion() {
        let cfg = MpiEngineConfig::testbed(10.0);
        let report = run_mpi_engine(job(3, 60.0), &cfg);
        assert_eq!(report.ranks, 3);
        assert!(report.cuts >= 3, "cuts={}", report.cuts);
        assert!(report.net2 >= 1.0);
        assert!(report.wall_time > report.base_time);
        // Messages were drained into at least one checkpoint.
        assert!(report.intervals.iter().any(|r| r.drained > 0));
    }

    #[test]
    fn job_level_rates_scale_with_ranks() {
        // Same per-rank workload, different rank counts: the larger job
        // must have worse NET² (any process failure kills everyone).
        let cfg = MpiEngineConfig::testbed(10.0);
        let small = run_mpi_engine(quiet_job(2, 60.0), &cfg);
        let large = run_mpi_engine(quiet_job(8, 60.0), &cfg);
        assert!(
            large.net2 > small.net2,
            "large {:.5} vs small {:.5}",
            large.net2,
            small.net2
        );
    }

    #[test]
    fn adaptive_engine_not_worse_than_fixed() {
        let mut cfg = MpiEngineConfig::testbed(10.0);
        // Slow remote pipe so cut timing matters.
        cfg.b3 = 100e3;
        let fixed = run_mpi_engine(job(3, 80.0), &cfg);
        cfg.adaptive = true;
        let adaptive = run_mpi_engine(job(3, 80.0), &cfg);
        assert!(
            adaptive.net2 <= fixed.net2 * 1.05,
            "adaptive {:.4} vs fixed {:.4}",
            adaptive.net2,
            fixed.net2
        );
    }

    #[test]
    fn drain_rule_spaces_cuts() {
        let mut cfg = MpiEngineConfig::testbed(3.0);
        cfg.b3 = 50e3; // long transfers
        let report = run_mpi_engine(quiet_job(2, 40.0), &cfg);
        let cks: Vec<&MpiIntervalRecord> = report
            .intervals
            .iter()
            .filter(|r| r.raw_bytes > 0)
            .collect();
        for pair in cks.windows(2) {
            assert!(
                pair[1].w + 0.5 + 1e-6 >= pair[0].params.transfer(3),
                "cut spacing {} < transfer {}",
                pair[1].w,
                pair[0].params.transfer(3)
            );
        }
    }
}
