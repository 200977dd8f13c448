//! `fleetbench` — the fleet checkpoint service's benchmark.
//!
//! ```text
//! fleetbench --workload NAME --seed N --seconds S --trace 0|1 [--aicd PATH]
//! ```
//!
//! Drives the service from outside through its public API — an in-process
//! `FleetServer`, `FleetClient` connections to a child `aicd --wallclock`,
//! and `service::run_service` — on one of four closed-loop workloads
//! (`private-delta`, `shared-dedup`, `rpc-churn`, `sim-fleet`). Every input
//! is generated from `--seed`.
//!
//! With `--trace 0` the run measures for `--seconds` and prints the
//! end-to-end metrics; with `--trace 1` it splits `--seconds` between an
//! untraced and a traced loop, a stage replay of the traced loop's
//! operations through each layer's public functions, and microbenchmarks,
//! and prints the per-layer metrics. Either way the last stdout line is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`; the line
//! before it records host facts and workload parameters. The run exits
//! non-zero when any output fails its check.

mod inproc;
mod micro;
mod ops;
mod replay;
mod report;
mod rpcload;
mod simfleet;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{json_num, json_object, json_str, result_line, Metrics};
use workloads::{Run, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    aicd: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut aicd = std::env::var_os("FLEETBENCH_AICD").map(PathBuf::from);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--aicd" => aicd = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        aicd,
    })
}

/// Keep exactly the metrics the mode promises, zero-filling a layer the
/// workload never called.
fn select(all: &Metrics, names: &[(&str, &'static str)]) -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in names {
        m.set(*name, all.get(name).unwrap_or(0.0), unit);
    }
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fleetbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--aicd PATH]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_dir = Path::new(".fleetbench-out");
    let run = Run {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        aicd: args.aicd.as_deref(),
        out_dir,
        cores,
    };
    let outcome = match workloads::run(&run) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.traced {
        let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        spans::write_jsonl(&path, &outcome.spans);
    }
    let metrics = select(
        &outcome.metrics,
        if args.traced { PER_LAYER } else { END_TO_END },
    );
    let correct = outcome.tally.failed == 0;
    let mut facts = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", u8::from(args.traced).to_string()),
        ("available_parallelism", cores.to_string()),
        ("degenerate", (cores < 2).to_string()),
        (
            "build_profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "commit",
            json_str(&std::env::var("FLEETBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
    ];
    facts.extend(outcome.facts);
    let problems: Vec<String> = outcome.tally.problems.iter().map(|p| json_str(p)).collect();
    facts.push(("problems", format!("[{}]", problems.join(", "))));
    println!("{}", json_object(&[("host", json_object(&facts))]));
    for p in &outcome.tally.problems {
        eprintln!("fleetbench: check failed: {p}");
    }
    println!("{}", result_line(correct, &outcome.tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
