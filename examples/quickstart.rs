//! Quickstart: run a synthetic workload under AIC and print what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Demonstrates the core public API in one screen: build a workload,
//! configure the engine with the paper's testbed parameters, run the
//! adaptive policy, and inspect per-interval measurements and NET².

use aic::ckpt::engine::{run_engine, EngineConfig};
use aic::core::policy::{AicConfig, AicPolicy};
use aic::memsim::workloads::generic::PhasedWorkload;
use aic::memsim::{SimProcess, SimTime};
use aic::model::FailureRates;

fn main() {
    // The paper's testbed failure profile: λ = 10⁻³/s, split in the LLNL
    // Coastal cluster's level proportions (8.3% / 75% / 16.7%).
    let rates = FailureRates::three(2e-7, 1.8e-6, 4e-7).with_total(1e-3);

    // Engine: 1-second checkpoint decisions, Coastal bandwidths, Xdelta3-PA
    // delta compression on the (modelled) checkpointing core.
    let config = EngineConfig::testbed(rates);

    // A bursty workload: 10 s quiet / 3 s burst phases over 16 MiB — the
    // kind of dynamics where adaptive checkpoint timing pays off.
    let workload = PhasedWorkload::new(
        "quickstart",
        7,    // seed
        4096, // footprint pages (16 MiB)
        10.0,
        3.0, // quiet / burst seconds
        1,
        8, // pages dirtied per 10 ms step in each phase
        SimTime::from_secs(120.0),
    );

    // The paper's contribution: adaptive incremental checkpointing
    // (online stepwise-regression predictor + Newton–Raphson decider).
    let mut policy = AicPolicy::new(AicConfig::testbed(), &config.policy_env());
    let report = run_engine(SimProcess::new(Box::new(workload)), &mut policy, &config);

    println!("workload : {}", report.workload);
    println!("policy   : {}", report.policy);
    println!("base time: {:.1} s", report.base_time);
    println!(
        "wall time: {:.1} s  (failure-free overhead {:.2}%)",
        report.wall_time,
        report.overhead_frac() * 100.0
    );
    println!(
        "NET^2    : {:.4}  (expected turnaround / base time)",
        report.net2
    );
    println!();
    println!("checkpointed intervals:");
    println!("  seq     w(s)    c1(s)    dl(s)   dirty    ds(KiB)  ratio");
    for rec in report.intervals.iter().filter(|r| r.raw_bytes > 0) {
        println!(
            "  {:3} {:8.1} {:8.4} {:8.4} {:7} {:10.1} {:6.3}",
            rec.seq,
            rec.w,
            rec.c1,
            rec.dl,
            rec.dirty_pages,
            rec.ds_bytes as f64 / 1024.0,
            rec.ratio()
        );
    }
    println!();
    println!(
        "adaptive cuts: {} (after the 4-sample bootstrap the decider places \
         checkpoints where the predicted delta is cheap)",
        policy.adaptive_cuts()
    );
}
