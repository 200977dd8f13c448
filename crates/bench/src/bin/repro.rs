//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all                 # everything, paper-scale where feasible
//! repro fig2|table1|fig5|fig6|fig7|table3|fig11|fig12
//! repro fig11 --quick       # reduced footprint/duration (CI-sized)
//! repro table3 --footprint 0.5 --duration 0.5 --seed 7
//! repro fig12 --csv         # machine-readable series
//! repro dedup --quick --check
//!                           # content-addressed dedup: stored/wire/encode
//!                           # savings vs overlap, recovery identity per
//!                           # rank before/during/after compaction
//! repro compact --quick --crash 2
//!                           # checkpoint-log compaction: storage shrinks,
//!                           # recovery stays bit-identical even when a
//!                           # pass crashes after 2 record copies
//! repro replay --quick --metrics-out run.jsonl
//!                           # deterministic instrumented run; write the
//!                           # metric + span snapshot (same seed => same
//!                           # bytes)
//! repro fleet --quick --check
//!                           # multi-tenant aicd service sweep (1 -> 10k
//!                           # tenants, {1,16,256} under --quick) over one
//!                           # shared pool/transport/log; gates: zero
//!                           # isolation violations, bit-identical
//!                           # departures, w* within 5% of the solo
//!                           # oracle, throughput monotone to saturation
//! repro fleet --wallclock --quick --check
//!                           # oracle contract (DESIGN.md §10): replay one
//!                           # fixed tenant-script set through the
//!                           # virtual-clock and real-thread executors and
//!                           # diff the record streams; on mismatch writes
//!                           # fleet-wallclock-diff.txt
//! repro sharing             # operational sharing factor (the old
//!                           # `fleet` experiment; extension of Fig. 7)
//! ```

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use aic_bench::experiments::{
    ablation, bench_delta, compact, dedup, drain, faults, fig11, fig12, fig2, fig5, fig6, fig7,
    fleet_service, fleet_sharing, mpi_scaling, pool_scaling, regret, replay, table1, table3,
    validate, RunScale,
};
use aic_bench::output::csv;

#[derive(Debug, Clone)]
struct Args {
    experiment: String,
    scale: RunScale,
    csv: bool,
    jobs: usize,
    metrics_out: Option<PathBuf>,
    check: bool,
    crash: Option<usize>,
    wallclock: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        experiment: String::new(),
        scale: RunScale::default(),
        csv: false,
        jobs: 2_000,
        metrics_out: None,
        check: false,
        crash: None,
        wallclock: false,
    };
    let mut it = env::args().skip(1);
    let Some(exp) = it.next() else {
        return Err("missing experiment".into());
    };
    args.experiment = exp;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.scale = RunScale::quick(),
            "--csv" => args.csv = true,
            "--footprint" => {
                args.scale.footprint = it
                    .next()
                    .ok_or("--footprint needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --footprint: {e}"))?;
            }
            "--duration" => {
                args.scale.duration = it
                    .next()
                    .ok_or("--duration needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --duration: {e}"))?;
            }
            "--seed" => {
                args.scale.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--jobs" => {
                args.jobs = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
            }
            "--metrics-out" => {
                args.metrics_out = Some(PathBuf::from(
                    it.next().ok_or("--metrics-out needs a value")?,
                ));
            }
            "--check" => args.check = true,
            "--wallclock" => args.wallclock = true,
            "--crash" => {
                args.crash = Some(
                    it.next()
                        .ok_or("--crash needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --crash: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run_one(args: &Args) -> Result<(), String> {
    let scale = &args.scale;
    match args.experiment.as_str() {
        "fig2" => {
            println!("## Fig. 2 — normalized delta latency/size vs checkpoint time\n");
            let series = fig2::run(scale);
            if args.csv {
                for s in &series {
                    println!("# {}", s.name);
                    let rows: Vec<Vec<String>> = s
                        .points
                        .iter()
                        .map(|(t, dl, ds)| vec![t.to_string(), dl.to_string(), ds.to_string()])
                        .collect();
                    print!("{}", csv(&["t", "norm_dl", "norm_ds"], &rows));
                }
            } else {
                print!("{}", fig2::render(&series));
                for s in &series {
                    println!(
                        "{}: size swing {:.1}x (mean dl {:.3}s, mean ds {:.0} B)",
                        s.name,
                        fig2::size_swing(s),
                        s.mean_latency,
                        s.mean_size
                    );
                }
            }
        }
        "table1" => {
            println!(
                "## Table 1 — LANL candidate jobs ({} synthetic jobs/system)\n",
                args.jobs
            );
            let rows = table1::run(args.jobs, scale.seed);
            print!("{}", table1::render(&rows));
        }
        "fig5" => {
            println!("## Fig. 5 — NET² of the MPI job vs system size\n");
            let rows = fig5::run(&fig5::DEFAULT_SIZES);
            print!("{}", fig5::render(&rows));
        }
        "fig6" => {
            println!("## Fig. 6 — NET² of the RMS job vs system size\n");
            let rows = fig6::run(&fig6::DEFAULT_SIZES);
            print!("{}", fig6::render(&rows));
        }
        "fig7" => {
            println!("## Fig. 7 — NET² of L2L3 vs sharing factor\n");
            let rows = fig7::run(&fig7::DEFAULT_SIZES, &fig7::DEFAULT_SFS);
            print!("{}", fig7::render(&rows));
            println!("\nLargest profitable SF per size (beats Moody):");
            for (size, sf) in fig7::profitable_sf(&rows) {
                println!("  {size}x: SF <= {sf}");
            }
        }
        "table3" => {
            println!("## Table 3 — compressor performance and AIC overhead\n");
            let rows = table3::run(scale);
            print!("{}", table3::render(&rows));
        }
        "fig11" => {
            println!("## Fig. 11 — NET² under AIC / SIC / Moody\n");
            let rows = fig11::run(scale);
            print!("{}", fig11::render(&rows));
        }
        "ablation" => {
            println!("## Ablations (milc persona)\n");
            println!(
                "### Compressors\n{}",
                ablation::render(&ablation::compressors("milc", scale))
            );
            println!(
                "### Deciders\n{}",
                ablation::render(&ablation::policies("milc", scale))
            );
            println!(
                "### Metric choice (footnote 1)\n{}",
                ablation::render(&ablation::metric_choice("sjeng", scale))
            );
            println!(
                "### Sample-buffer budget\n{}",
                ablation::render(&ablation::sample_buffer("sjeng", scale, &[16, 256, 2048]))
            );
        }
        "sharing" => {
            println!("## Operational sharing factor (extension of Fig. 7)\n");
            let rows = fleet_sharing::run("libquantum", &fleet_sharing::DEFAULT_SFS, scale);
            print!("{}", fleet_sharing::render(&rows));
        }
        "fleet" if args.wallclock => {
            println!("## Wall-clock fleet — script replay vs the simulator oracle\n");
            let cmp = fleet_service::run_wallclock(scale);
            print!("{}", fleet_service::render_wallclock(&cmp));
            if args.check {
                let violations = cmp.check();
                if !violations.is_empty() {
                    let path = "fleet-wallclock-diff.txt";
                    std::fs::write(path, cmp.diff_artifact())
                        .map_err(|e| format!("writing {path}: {e}"))?;
                    eprintln!("wrote {path}");
                    return Err(format!(
                        "wall-clock oracle gate failed:\n  {}",
                        violations.join("\n  ")
                    ));
                }
                println!("\ncheck passed: wall-clock and simulated replays produced identical record streams, zero isolation violations in both modes");
            }
        }
        "fleet" => {
            println!("## Multi-tenant fleet service — shared pool/transport/log sweep\n");
            let sweep = fleet_service::run(scale);
            if args.csv {
                print!(
                    "{}",
                    csv(
                        &fleet_service::CSV_HEADERS,
                        &fleet_service::csv_rows(&sweep)
                    )
                );
            } else {
                print!("{}", fleet_service::render(&sweep));
            }
            if args.check {
                let violations = sweep.check();
                if !violations.is_empty() {
                    return Err(format!("fleet gate failed:\n  {}", violations.join("\n  ")));
                }
                println!("\ncheck passed: zero isolation violations, every departure bit-identical, w* within 5% of the solo oracle, throughput monotone to saturation, same-seed cells byte-identical");
            }
        }
        "regret" => {
            println!("## Regret vs the offline-optimal plan (extension)\n");
            let ticks = (60.0 * scale.duration).max(20.0) as usize;
            let r = regret::run("milc", scale, ticks, 1.0);
            print!("{}", regret::render(&r));
        }
        "mpi" => {
            println!("## MPI scaling (operational; extension)\n");
            let rows = mpi_scaling::run(&mpi_scaling::DEFAULT_RANKS, scale);
            print!("{}", mpi_scaling::render(&rows));
        }
        "pool" => {
            println!("## Compression-pool scaling (extension)\n");
            let rows = pool_scaling::run(&pool_scaling::DEFAULT_CORES, scale);
            print!("{}", pool_scaling::render(&rows));
        }
        "faults" => {
            println!("## Fault injection — recovery cost and bit-identity by level x time\n");
            let rows = faults::run("libquantum", &faults::DEFAULT_FRACTIONS, scale);
            if args.csv {
                print!("{}", csv(&faults::CSV_HEADERS, &faults::csv_rows(&rows)));
            } else {
                print!("{}", faults::render(&rows));
            }
            if let Some(bad) = rows.iter().find(|r| !r.identical) {
                return Err(format!(
                    "f{} at {:.0}% of base time resumed to a diverged image",
                    bad.level,
                    bad.at_frac * 100.0
                ));
            }
        }
        "drain" => {
            println!("## Write-behind drain — NET² (cuts) by sharing factor x queue depth\n");
            let rows = drain::run(
                "libquantum",
                &drain::DEFAULT_SFS,
                &drain::DEFAULT_DEPTHS,
                scale,
            );
            print!("{}", drain::render(&rows));
            if let Some(bad) = rows
                .iter()
                .flat_map(|r| r.cells.iter().map(move |c| (r.sf, c)))
                .find(|(_, c)| !c.identical)
            {
                return Err(format!(
                    "sf {} depth {:?}: fault-injected run resumed to a diverged image",
                    bad.0, bad.1.depth
                ));
            }
            if !drain::write_behind_wins(&rows) {
                return Err("write-behind did not beat synchronous commits at SF >= 3".into());
            }
            println!("\nwrite-behind beats synchronous commits at every SF >= 3");
        }
        "bench" => {
            println!("## Microbenchmarks — encode regimes, pool widths, named calls\n");
            let report = bench_delta::run(scale);
            print!("{}", bench_delta::render(&report));
            std::fs::write("BENCH_delta.json", report.to_json())
                .map_err(|e| format!("writing BENCH_delta.json: {e}"))?;
            println!("\nwrote BENCH_delta.json");
            if args.check {
                let violations = report.check();
                if !violations.is_empty() {
                    return Err(format!(
                        "bench regression gate failed:\n  {}",
                        violations.join("\n  ")
                    ));
                }
                println!("check passed: cold beats reference in every regime, pool sweep monotone");
            }
            for w in report.warnings() {
                println!("warning: {w}");
            }
        }
        "compact" => {
            println!("## Checkpoint-log compaction — reclaim and recovery identity by level\n");
            let report = compact::run("libquantum", scale, args.crash);
            print!("{}", compact::render(&report));
            let violations = report.check();
            if !violations.is_empty() {
                return Err(format!(
                    "compaction gate failed:\n  {}",
                    violations.join("\n  ")
                ));
            }
            println!("\nevery level shrank and recovered bit-identically before, during and after compaction");
        }
        "dedup" => {
            println!("## Content-addressed dedup — stored/wire/encode savings vs overlap\n");
            let report = dedup::run(scale);
            print!("{}", dedup::render(&report));
            if args.check {
                let violations = report.check();
                if !violations.is_empty() {
                    return Err(format!("dedup gate failed:\n  {}", violations.join("\n  ")));
                }
                println!("\ncheck passed: savings monotone in overlap, >=60% stored+wire saving at 100%, recovery bit-identical per rank before/during/after compaction");
            }
        }
        "replay" => {
            println!("## Golden replay — deterministic instrumented run\n");
            let outcome = replay::run(scale);
            print!("{}", outcome.render());
            if let Some(path) = &args.metrics_out {
                std::fs::write(path, outcome.snapshot_text())
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!("wrote {}", path.display());
            }
        }
        "validate" => {
            println!("## Model vs Monte-Carlo validation\n");
            let rows = validate::run(400, scale.seed);
            print!("{}", validate::render(&rows));
        }
        "fig12" => {
            println!("## Fig. 12 — milc: AIC vs SIC across system scales\n");
            let rows = fig12::run(&fig12::DEFAULT_SIZES, scale);
            print!("{}", fig12::render(&rows));
        }
        "all" => {
            for exp in [
                "table1", "fig5", "fig6", "fig7", "fig2", "table3", "fig11", "fig12", "validate",
                "ablation", "mpi", "pool", "bench", "sharing", "fleet", "regret", "faults",
                "drain", "compact", "dedup", "replay",
            ] {
                let sub = Args {
                    experiment: exp.to_string(),
                    ..args.clone()
                };
                run_one(&sub)?;
                println!();
            }
        }
        other => return Err(format!("unknown experiment {other:?}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => match run_one(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: repro <fig2|table1|fig5|fig6|fig7|table3|fig11|fig12|validate|ablation|mpi|pool|bench|sharing|fleet|regret|faults|drain|compact|replay|all> \
                 [--quick] [--csv] [--check] [--wallclock] [--crash N] [--footprint F] [--duration D] [--seed N] [--jobs N] [--metrics-out FILE]"
            );
            ExitCode::FAILURE
        }
    }
}
