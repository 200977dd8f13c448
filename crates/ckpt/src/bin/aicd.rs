//! `aicd` — run the multi-tenant fleet checkpoint service.
//!
//! ```text
//! aicd [--tenants N] [--rounds R] [--seed S] [--slots K] [--cores C]
//!      [--overlap PCT] [--fixed W] [--crash T:LEVEL[,T:LEVEL...]]
//!      [--faults] [--jsonl FILE]
//! aicd --wallclock --socket PATH [--tenants N] [--seed S] [--slots K]
//!      [--cores C] [--overlap PCT]
//! ```
//!
//! **Simulated mode** (default): admits `N` simulated tenants
//! (heterogeneous working sets drawn from one shared-dataset fleet with
//! `--overlap` percent shared pages) into one service instance: one
//! compressor pool, one write-behind transport, one checkpoint log per
//! storage level. Each tenant cuts `R` checkpoints under the adaptive
//! policy (or a fixed `--fixed W` interval), optionally crashing per
//! `--crash` (applied to tenant 0), then departs; departure recovery is
//! verified bit-identical against the tenant's pure-function working set.
//! Prints the per-tenant and aggregate report; `--jsonl` additionally
//! dumps the deterministic `fleet.*` metric registry and span stream.
//! Exits non-zero if any isolation invariant was violated. The run is a
//! pure function of its flags: same invocation, same bytes.
//!
//! **Wall-clock mode** (`--wallclock`): starts the real-thread fleet
//! server on the same storage/transport machinery and serves AIRF-framed
//! RPCs (`join`/`cut`/`crash`/`recover`/`leave`/`stats`) on the Unix
//! socket at `--socket` until killed. Tenants are driven externally —
//! `aicctl fleet run`/`aicctl fleet stats` — and `--tenants` only sizes
//! the persona pool. Fault injection stays simulator-only, so `--faults`,
//! `--rounds`, `--fixed`, `--crash`, and `--jsonl` are rejected in this
//! mode. See OPERATIONS.md §6 for the operator walkthrough and DESIGN.md
//! §10 for the oracle contract tying this mode to the simulator.

use std::os::unix::net::UnixListener;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use aic_obs::Obs;

use aic_ckpt::fleet::SharedDatasetFleet;
use aic_ckpt::rpc;
use aic_ckpt::service::{run_service, ServiceConfig, TenantPolicy, TenantSpec};
use aic_ckpt::transport::TransportFaults;
use aic_ckpt::wallclock::FleetServer;
use aic_model::params::CoastalProfile;

#[derive(Debug, Clone)]
struct Args {
    tenants: usize,
    rounds: u64,
    seed: u64,
    slots: usize,
    cores: usize,
    overlap: u32,
    fixed: Option<f64>,
    crashes: Vec<(f64, usize)>,
    faults: bool,
    jsonl: Option<String>,
    wallclock: bool,
    socket: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tenants: 4,
        rounds: 4,
        seed: 42,
        slots: 64,
        cores: 4,
        overlap: 30,
        fixed: None,
        crashes: Vec::new(),
        faults: false,
        jsonl: None,
        wallclock: false,
        socket: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--tenants" => args.tenants = parse(&val("--tenants")?, "--tenants")?,
            "--rounds" => args.rounds = parse(&val("--rounds")?, "--rounds")?,
            "--seed" => args.seed = parse(&val("--seed")?, "--seed")?,
            "--slots" => args.slots = parse(&val("--slots")?, "--slots")?,
            "--cores" => args.cores = parse(&val("--cores")?, "--cores")?,
            "--overlap" => args.overlap = parse(&val("--overlap")?, "--overlap")?,
            "--fixed" => args.fixed = Some(parse(&val("--fixed")?, "--fixed")?),
            "--crash" => {
                for part in val("--crash")?.split(',') {
                    let (t, level) = part
                        .split_once(':')
                        .ok_or_else(|| format!("--crash wants T:LEVEL, got {part:?}"))?;
                    args.crashes
                        .push((parse(t, "--crash time")?, parse(level, "--crash level")?));
                }
            }
            "--faults" => args.faults = true,
            "--jsonl" => args.jsonl = Some(val("--jsonl")?),
            "--wallclock" => args.wallclock = true,
            "--socket" => args.socket = Some(val("--socket")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.tenants == 0 {
        return Err("--tenants must be >= 1".into());
    }
    if args.rounds == 0 {
        return Err("--rounds must be >= 1".into());
    }
    if args.slots == 0 {
        return Err("--slots must be >= 1".into());
    }
    if args.cores == 0 {
        return Err("--cores must be >= 1".into());
    }
    if args.overlap > 100 {
        return Err(format!("--overlap must be 0..=100, got {}", args.overlap));
    }
    if let Some((_, level)) = args.crashes.iter().find(|(_, l)| !(1..=3).contains(l)) {
        return Err(format!("--crash level must be 1..=3, got {level}"));
    }
    if args.wallclock {
        if args.socket.is_none() {
            return Err("--wallclock needs --socket PATH".into());
        }
        if args.faults {
            return Err("--faults is simulator-only (the wall-clock oracle \
                        contract requires a fault-free transport)"
                .into());
        }
        if args.fixed.is_some() || !args.crashes.is_empty() || args.jsonl.is_some() {
            return Err(
                "--fixed/--crash/--jsonl are per-tenant script knobs: in wall-clock \
                 mode tenants are driven over the socket (see `aicctl fleet`)"
                    .into(),
            );
        }
    } else if args.socket.is_some() {
        return Err("--socket requires --wallclock".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad {name}: {e}"))
}

/// Wall-clock serve mode: start the real-thread fleet server and answer
/// AIRF RPCs on the Unix socket until the process is killed.
fn serve_wallclock(args: &Args) -> Result<(), String> {
    let path = args.socket.as_deref().expect("checked by parse_args");
    let pages: Vec<usize> = (0..args.tenants).map(|i| [4, 6, 9, 12][i % 4]).collect();
    let fleet = SharedDatasetFleet::heterogeneous(pages, args.overlap, args.seed);
    let obs = Arc::new(Obs::new());
    let mut cfg = ServiceConfig::fleet_default(CoastalProfile::default().rates().with_total(1e-3));
    cfg.slots = args.slots;
    cfg.cores = args.cores;
    cfg.obs = Some(obs);
    let server = FleetServer::start(fleet, cfg);
    // A stale socket from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("binding {path}: {e}"))?;
    println!(
        "aicd: wall-clock fleet server on {path} ({} personas, {} slots, {} cores)",
        args.tenants, args.slots, args.cores
    );
    let stop = AtomicBool::new(false);
    rpc::serve(listener, &server, &stop).map_err(|e| format!("serving {path}: {e}"))
}

fn run(args: &Args) -> Result<bool, String> {
    let pages: Vec<usize> = (0..args.tenants).map(|i| [4, 6, 9, 12][i % 4]).collect();
    let fleet = SharedDatasetFleet::heterogeneous(pages, args.overlap, args.seed);
    let obs = Arc::new(Obs::new());
    let mut cfg = ServiceConfig::fleet_default(CoastalProfile::default().rates().with_total(1e-3));
    cfg.slots = args.slots;
    cfg.cores = args.cores;
    cfg.obs = Some(Arc::clone(&obs));
    if args.faults {
        cfg.faults = Some(TransportFaults::mixed(args.seed));
    }
    let policy = match args.fixed {
        Some(w) => TenantPolicy::Fixed(w),
        None => TenantPolicy::Adaptive { bootstrap: 3.0 },
    };
    let specs: Vec<TenantSpec> = (0..args.tenants)
        .map(|i| TenantSpec {
            persona: i,
            policy,
            join_at: 0.0,
            rounds: args.rounds,
            crashes: if i == 0 {
                args.crashes.clone()
            } else {
                Vec::new()
            },
        })
        .collect();

    let report = run_service(&fleet, &specs, &cfg).map_err(|e| format!("service: {e}"))?;

    println!(
        "aicd: {} tenants, {} checkpoints in {:.2}s virtual ({:.3} ckpt/s)",
        report.tenants, report.cuts, report.makespan, report.throughput_cps
    );
    println!(
        "wire {} B (incl. retries), block p99 {:.6}s mean {:.6}s, max admission wait {:.2}s",
        report.wire_bytes, report.p99_block, report.mean_block, report.max_admission_wait
    );
    println!(
        "isolation violations {}, transfers gave up {}",
        report.isolation_violations, report.gave_up
    );
    for t in &report.per_tenant {
        println!(
            "  tenant {:>4}: cuts {:>3}, w* {:>9.4}s, wire {:>9} B, wait {:>6.2}s, recoveries {}, verified {}",
            t.id,
            t.cuts,
            t.final_w,
            t.wire_bytes,
            t.admission_wait,
            t.recoveries,
            match t.verified {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            }
        );
    }

    if let Some(path) = &args.jsonl {
        let text = format!(
            "{}{}",
            obs.metrics.deterministic_snapshot().to_jsonl(),
            obs.spans.to_jsonl()
        );
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }

    Ok(report.clean())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) if args.wallclock => match serve_wallclock(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(args) => match run(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("error: isolation invariants violated");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: aicd [--tenants N] [--rounds R] [--seed S] [--slots K] [--cores C] \
                 [--overlap PCT] [--fixed W] [--crash T:LEVEL[,...]] [--faults] [--jsonl FILE]\n\
                 \x20      aicd --wallclock --socket PATH [--tenants N] [--seed S] [--slots K] \
                 [--cores C] [--overlap PCT]"
            );
            ExitCode::FAILURE
        }
    }
}
