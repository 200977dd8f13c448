//! RMS fleet: several independent processes share one *real* checkpointing
//! core thread.
//!
//! ```text
//! cargo run --release --example rms_fleet [n-processes]
//! ```
//!
//! The paper's Section II.C argues an idle core is usually available and
//! Section III.D asks how many processes can share it (the sharing factor).
//! This example runs a small fleet of RMS processes (no inter-process
//! communication), submits every checkpoint's delta compression to one
//! dedicated one-worker [`CompressorPool`] (the paper's single checkpointing
//! core, shared by deficit round robin with each process as a tenant),
//! waits for the results, and reports per-process results plus the
//! model's verdict on the sharing factor used.

use std::time::Instant;

use aic::ckpt::concurrent::CompressorPool;
use aic::delta::pa::PaParams;
use aic::memsim::workloads::spec::ALL_PERSONAS;
use aic::memsim::SimTime;
use aic::model::concurrent::{net2_at, ConcurrentModel};
use aic::model::optimize::golden_minimize;
use aic::model::params::{CoastalProfile, LevelCosts};
use aic_bench::experiments::{scaled_persona, RunScale};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("n must be a number"))
        .unwrap_or(3);

    let scale = RunScale {
        footprint: 0.1,
        duration: 0.05,
        seed: 11,
    };

    // One dedicated checkpointing core for the whole fleet (SF = n),
    // crediting each process 64 KiB of encode work per round.
    let core = CompressorPool::spawn(1, 64 << 10, None);
    let mut total_raw = 0u64;
    let mut pending = Vec::new();
    let started = Instant::now();

    println!("fleet of {n} processes, one shared checkpointing core\n");
    for i in 0..n {
        let name = ALL_PERSONAS[i % ALL_PERSONAS.len()];
        let mut process = scaled_persona(name, &scale);
        process.run_until(SimTime::ZERO);
        let mut prev = process.snapshot();
        process.cut_interval();

        // Checkpoint every ~5 virtual seconds; compression happens on the
        // shared core while this (compute) thread keeps simulating.
        let mut cuts = 0;
        while !process.is_done() {
            process.run_for(SimTime::from_secs(5.0));
            let dirty_pages: Vec<u64> = process.dirty_log().iter().map(|d| d.page).collect();
            let dirty = process.snapshot_pages(dirty_pages);
            process.cut_interval();
            total_raw += dirty.bytes();
            pending.push(core.submit(i as u64, prev.clone(), dirty.clone(), PaParams::default()));
            cuts += 1;
            prev.overlay(&dirty);
        }
        println!("  process {i} ({name}): {cuts} checkpoints submitted");
    }

    // Wait for the core and summarize.
    let jobs = pending.len();
    let compressed: u64 = pending.into_iter().map(|p| p.wait().0.wire_len()).sum();
    let wall = started.elapsed().as_secs_f64();
    println!(
        "\ncheckpointing core: {} jobs, {:.1} MiB raw → {:.1} MiB compressed \
         (ratio {:.2}); {:.2} s wall, simulation included",
        jobs,
        total_raw as f64 / (1 << 20) as f64,
        compressed as f64 / (1 << 20) as f64,
        compressed as f64 / total_raw.max(1) as f64,
        wall
    );

    // What does the analytic model say about this sharing factor?
    let p = CoastalProfile::default();
    let costs: LevelCosts = p.costs().with_sharing_factor(n as f64);
    let rates = p.rates();
    let w_lo = costs.transfer(3).max(60.0);
    let shared = golden_minimize(
        |w| net2_at(ConcurrentModel::L2L3, w, &costs, &rates),
        w_lo,
        1e6,
        1e-6,
    );
    let alone_costs = p.costs();
    let alone = golden_minimize(
        |w| net2_at(ConcurrentModel::L2L3, w, &alone_costs, &rates),
        alone_costs.transfer(3).max(60.0),
        1e6,
        1e-6,
    );
    println!(
        "\nmodel (Coastal, Fig. 7): NET^2 = {:.4} at SF={n} vs {:.4} dedicated — \
         sharing costs {:+.2}%",
        shared.value,
        alone.value,
        (shared.value / alone.value - 1.0) * 100.0
    );
}
