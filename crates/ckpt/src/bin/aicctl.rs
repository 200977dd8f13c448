//! `aicctl` — inspect, verify and restore on-disk checkpoint chains.
//!
//! ```text
//! aicctl demo <dir>              # write a demo chain of .ckpt files
//! aicctl inspect <file.ckpt>     # dump one checkpoint's header + stats
//! aicctl verify <dir>            # parse + replay a chain, report health
//! aicctl restore <dir> <out.img> # restore the newest image to a flat file
//! aicctl faults [--secs S] [--level 1|2|3] [--at T] [--seed N]
//!               [--write-behind DEPTH]
//!                                # inject a failure mid-run, recover from
//!                                # the cheapest surviving storage level,
//!                                # and check the final image bit-for-bit;
//!                                # --write-behind commits L3 through the
//!                                # async transport (bounded queue DEPTH,
//!                                # seeded transient network faults)
//! aicctl stats [--secs S] [--seed N] [--jsonl FILE] [--write-behind DEPTH]
//!                                # run an instrumented engine pass (with a
//!                                # mid-run L2 fault) and dump the metrics
//!                                # registry; --jsonl also writes the
//!                                # metric + span streams as JSONL
//! aicctl dedup <dir>             # replay a chain into a dedup-enabled
//!                                # hierarchy and report what the
//!                                # content-addressed chunk store saves
//!                                # (hits, misses, verify failures,
//!                                # reclaims, stored bytes per level)
//! aicctl log [--secs S] [--seed N] [--compact]
//!                                # run an engine pass and print each
//!                                # level's checkpoint-log statistics
//!                                # (segments, live records, garbage
//!                                # ratio, epoch); --compact then folds
//!                                # the logs and prints what was reclaimed
//! aicctl fleet run --socket PATH [--persona P] [--cuts N] [--fixed W]
//!               [--crash K:LEVEL[,K:LEVEL...]]
//!                                # drive one tenant session against a
//!                                # wall-clock `aicd --wallclock` server:
//!                                # join, cut N checkpoints (crashing at
//!                                # level LEVEL after the K-th cut, then
//!                                # recovering), leave; prints every
//!                                # commit's ordinal/digest/w and the
//!                                # departure verdict
//! aicctl fleet stats --socket PATH
//!                                # print the server's live fleet.wc.*
//!                                # counters
//! ```
//!
//! Checkpoint files are the same serialized format the engine ships to the
//! storage levels (`CheckpointFile::to_bytes`), written as
//! `<dir>/ckpt-<seq>.ckpt`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use bytes::Bytes;

use aic_obs::Obs;

use aic_ckpt::chain::CheckpointChain;
use aic_ckpt::engine::{run_engine, EngineConfig};
use aic_ckpt::format::{CheckpointFile, CheckpointKind, Payload};
use aic_ckpt::harness::{run_with_faults, FailureSchedule};
use aic_ckpt::recovery::{RecoveryLevel, StorageHierarchy};
use aic_ckpt::transport::{TransportFaults, WriteBehindConfig};
use aic_core::baselines::FixedIntervalPolicy;
use aic_delta::pa::{pa_encode, PaParams};
use aic_memsim::workloads::generic::StreamingWorkload;
use aic_memsim::workloads::WriteStyle;
use aic_memsim::{Page, SimProcess, SimTime, Snapshot, PAGE_SIZE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("demo") if args.len() == 2 => demo(Path::new(&args[1])),
        Some("inspect") if args.len() == 2 => inspect(Path::new(&args[1])),
        Some("verify") if args.len() == 2 => verify(Path::new(&args[1])).map(|_| ()),
        Some("restore") if args.len() == 3 => restore(Path::new(&args[1]), Path::new(&args[2])),
        Some("faults") => faults(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("log") => log_stats(&args[1..]),
        Some("dedup") if args.len() == 2 => dedup_report(Path::new(&args[1])),
        Some("fleet") => fleet(&args[1..]),
        _ => {
            eprintln!(
                "usage: aicctl <demo <dir> | inspect <file.ckpt> | verify <dir> | restore <dir> <out.img> | faults [--secs S] [--level L] [--at T] [--seed N] [--write-behind DEPTH] | stats [--secs S] [--seed N] [--jsonl FILE] [--write-behind DEPTH] | log [--secs S] [--seed N] [--compact] | dedup <dir> | fleet <run|stats> --socket PATH [--persona P] [--cuts N] [--fixed W] [--crash K:LEVEL[,...]]>"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult<T = ()> = Result<T, String>;

fn chain_paths(dir: &Path) -> CliResult<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .ckpt files in {}", dir.display()));
    }
    Ok(paths)
}

fn load(path: &Path) -> CliResult<CheckpointFile> {
    let bytes = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    CheckpointFile::from_bytes(Bytes::from(bytes)).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_chain(dir: &Path) -> CliResult<CheckpointChain> {
    let mut chain = CheckpointChain::new();
    for path in chain_paths(dir)? {
        chain.push(load(&path)?);
    }
    Ok(chain)
}

/// Write a small demonstration chain (full + incremental + delta).
fn demo(dir: &Path) -> CliResult {
    fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let page = |b: u8| {
        let mut p = Page::zeroed();
        p.write_at(0, &vec![b; PAGE_SIZE]);
        p
    };

    let full = Snapshot::from_pages((0..8u64).map(|i| (i, page(i as u8))));
    let files = {
        let f0 = CheckpointFile::full(7, 0, full.clone(), Bytes::from_static(b"cpu"));
        let mut state1 = full.clone();
        state1.insert(2, page(0xAA));
        let dirty1 = Snapshot::from_pages([(2, page(0xAA))]);
        let f1 = CheckpointFile::incremental(7, 1, dirty1, (0..8).collect(), Bytes::new());
        let mut dirty2_page = state1.get(3).unwrap().clone();
        dirty2_page.write_at(100, &[9; 64]);
        let dirty2 = Snapshot::from_pages([(3, dirty2_page)]);
        let (df, _) = pa_encode(&state1, &dirty2, &PaParams::default());
        let f2 = CheckpointFile::delta(7, 2, df, (0..8).collect(), Bytes::new());
        [f0, f1, f2]
    };
    for f in &files {
        let path = dir.join(format!("ckpt-{:08}.ckpt", f.seq));
        fs::write(&path, f.to_bytes()).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn kind_name(kind: CheckpointKind) -> &'static str {
    match kind {
        CheckpointKind::Full => "full",
        CheckpointKind::Incremental => "incremental",
        CheckpointKind::DeltaCompressed => "delta-compressed",
        CheckpointKind::Chunk => "dedup-chunk",
    }
}

fn inspect(path: &Path) -> CliResult {
    let file = load(path)?;
    println!("{}", path.display());
    println!("  job           : {}", file.job);
    println!("  seq           : {}", file.seq);
    println!("  kind          : {}", kind_name(file.kind));
    println!("  live pages    : {}", file.live_pages.len());
    println!("  cpu state     : {} B", file.cpu_state.len());
    match &file.payload {
        Payload::Pages(snap) => {
            println!(
                "  payload       : {} raw pages ({} KiB)",
                snap.len(),
                snap.bytes() / 1024
            );
        }
        Payload::Delta(df) => {
            println!(
                "  payload       : {} page records ({} delta, {} raw), {} KiB on the wire",
                df.records.len(),
                df.delta_page_count(),
                df.records.len() - df.delta_page_count(),
                df.wire_len() / 1024
            );
        }
    }
    println!("  serialized    : {} B", file.wire_len());
    Ok(())
}

fn verify(dir: &Path) -> CliResult<Snapshot> {
    let chain = load_chain(dir)?;
    let snapshot = chain
        .restore_latest()
        .map_err(|e| format!("chain replay failed: {e}"))?;
    let newest = chain
        .latest_seq()
        .ok_or("chain replayed to nothing: no checkpoints loaded")?;
    println!(
        "chain OK: {} checkpoints, {} KiB on the wire, newest seq {}, image {} pages",
        chain.len(),
        chain.total_wire_bytes() / 1024,
        newest,
        snapshot.len()
    );
    Ok(snapshot)
}

fn restore(dir: &Path, out: &Path) -> CliResult {
    let snapshot = verify(dir)?;
    // Flat image: concatenated (page index, page bytes) records.
    let mut img = Vec::with_capacity(snapshot.len() * (PAGE_SIZE + 8));
    for (idx, page) in snapshot.iter() {
        img.extend_from_slice(&idx.to_le_bytes());
        img.extend_from_slice(page.as_slice());
    }
    fs::write(out, &img).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!(
        "restored image -> {} ({} KiB)",
        out.display(),
        img.len() / 1024
    );
    Ok(())
}

/// Translate the `--write-behind DEPTH` flag into an engine transport
/// config: a bounded commit queue of DEPTH with the standard mixed
/// transient-fault plan (drops, timeouts, slow links) seeded from `seed` so
/// retry schedules replay identically.
fn write_behind_config(
    depth: Option<usize>,
    seed: u64,
) -> Result<Option<WriteBehindConfig>, String> {
    match depth {
        None => Ok(None),
        Some(0) => Err("--write-behind depth must be at least 1".into()),
        Some(d) => Ok(Some(WriteBehindConfig {
            queue_depth: d,
            faults: Some(TransportFaults::mixed(seed)),
            ..WriteBehindConfig::default()
        })),
    }
}

fn stream_process(secs: f64, seed: u64) -> SimProcess {
    SimProcess::new(Box::new(StreamingWorkload::new(
        "aicctl",
        seed,
        96,
        2,
        WriteStyle::PartialEntropy(300),
        SimTime::from_secs(secs),
    )))
}

/// Inject one failure mid-run, recover through the storage hierarchy, and
/// verify the resumed run against a failure-free reference, bit for bit.
fn faults(opts: &[String]) -> CliResult {
    let mut secs = 24.0f64;
    let mut level = 2usize;
    let mut at: Option<f64> = None;
    let mut seed = 11u64;
    let mut write_behind: Option<usize> = None;
    let mut it = opts.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--secs" => {
                secs = val("--secs")?.parse().map_err(|e| format!("--secs: {e}"))?;
            }
            "--level" => {
                level = val("--level")?
                    .parse()
                    .map_err(|e| format!("--level: {e}"))?;
            }
            "--at" => {
                at = Some(val("--at")?.parse().map_err(|e| format!("--at: {e}"))?);
            }
            "--seed" => {
                seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--write-behind" => {
                write_behind = Some(
                    val("--write-behind")?
                        .parse()
                        .map_err(|e| format!("--write-behind: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(1..=3).contains(&level) {
        return Err(format!("--level must be 1, 2 or 3, got {level}"));
    }
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!("--secs must be positive, got {secs}"));
    }
    let at = at.unwrap_or(secs * 0.55);
    if !at.is_finite() || at <= 0.0 {
        return Err(format!("--at must be positive, got {at}"));
    }

    // Failure-free reference: the workload is deterministic under the seed.
    let mut reference = stream_process(secs, seed);
    reference.run_until(SimTime::from_secs(secs * 10.0));
    let truth = reference.snapshot();

    let mut cfg = EngineConfig::testbed(aic_model::FailureRates::three(2e-7, 1.8e-6, 4e-7));
    cfg.keep_files = true;
    cfg.full_every = Some(4);
    cfg.transport = write_behind_config(write_behind, seed)?;
    let mut policy = FixedIntervalPolicy::new((secs / 8.0).max(0.5));
    let out = run_with_faults(
        stream_process(secs, seed),
        &mut policy,
        cfg,
        &FailureSchedule::single(at, level, 1),
    )
    .map_err(|e| format!("recovery failed: {e}"))?;

    for ev in &out.faults {
        let served = match ev.served {
            RecoveryLevel::Local => "L1 local",
            RecoveryLevel::Raid => "L2 raid",
            RecoveryLevel::Remote => "L3 remote",
        };
        println!(
            "f{} at {:.2}s: served by {}{}, restored seq {}, read {:.3}s, repair {:.3}s, rework {:.3}s",
            ev.level,
            ev.at,
            served,
            if ev.degraded { " (degraded)" } else { "" },
            ev.restored_seq,
            ev.read_seconds,
            ev.repair_seconds,
            ev.rework_seconds,
        );
    }
    println!(
        "wall time {:.2}s; stored bytes L1 {} / L2 {} / L3 {}",
        out.report.wall_time, out.stored_bytes[0], out.stored_bytes[1], out.stored_bytes[2],
    );

    let final_state = out
        .report
        .final_state
        .as_ref()
        .ok_or("engine returned no final image")?;
    if final_state != &truth {
        return Err("final image diverged from the failure-free reference".into());
    }
    println!(
        "final image bit-identical to the failure-free reference ({} pages)",
        truth.len()
    );
    Ok(())
}

/// Run one instrumented engine pass (fixed-interval policy, mid-run L2
/// fault) and dump the metrics registry. With `--jsonl FILE`, also write the
/// full metric snapshot plus the span/event stream as JSONL.
fn stats(opts: &[String]) -> CliResult {
    let mut secs = 24.0f64;
    let mut seed = 11u64;
    let mut jsonl: Option<PathBuf> = None;
    let mut write_behind: Option<usize> = None;
    let mut it = opts.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--secs" => {
                secs = val("--secs")?.parse().map_err(|e| format!("--secs: {e}"))?;
            }
            "--seed" => {
                seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--jsonl" => jsonl = Some(PathBuf::from(val("--jsonl")?)),
            "--write-behind" => {
                write_behind = Some(
                    val("--write-behind")?
                        .parse()
                        .map_err(|e| format!("--write-behind: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!("--secs must be positive, got {secs}"));
    }

    let obs = Arc::new(Obs::new());
    let mut cfg = EngineConfig::testbed(aic_model::FailureRates::three(2e-7, 1.8e-6, 4e-7));
    cfg.keep_files = true;
    cfg.full_every = Some(4);
    cfg.transport = write_behind_config(write_behind, seed)?;
    cfg.obs = Some(Arc::clone(&obs));
    let mut policy = FixedIntervalPolicy::new((secs / 8.0).max(0.5));
    let out = run_with_faults(
        stream_process(secs, seed),
        &mut policy,
        cfg,
        &FailureSchedule::single(secs * 0.55, 2, 1),
    )
    .map_err(|e| format!("instrumented run failed: {e}"))?;

    println!(
        "run: {} checkpoints over {:.2}s wall, NET2 {:.4}",
        out.report.intervals.len(),
        out.report.wall_time,
        out.report.net2
    );
    print!("{}", obs.metrics.snapshot().render());
    println!(
        "spans: {} events held, {} dropped",
        obs.spans.len(),
        obs.spans.dropped()
    );

    if let Some(path) = jsonl {
        let mut text = obs.metrics.snapshot().to_jsonl();
        text.push_str(&obs.spans.to_jsonl());
        fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Replay an on-disk chain into two fresh hierarchies — dedup off and on —
/// and report what the content-addressed chunk store would save.
fn dedup_report(dir: &Path) -> CliResult {
    let files: Vec<CheckpointFile> = chain_paths(dir)?
        .iter()
        .map(|p| load(p))
        .collect::<CliResult<_>>()?;
    let mut plain = StorageHierarchy::coastal(4);
    let mut deduped = StorageHierarchy::coastal(4);
    deduped.enable_dedup();
    for f in &files {
        plain
            .commit(f)
            .map_err(|e| format!("commit seq {} (dedup off): {e}", f.seq))?;
        deduped
            .commit(f)
            .map_err(|e| format!("commit seq {} (dedup on): {e}", f.seq))?;
    }
    let off = plain.stored_bytes();
    let on = deduped.stored_bytes();
    println!(
        "{} checkpoints replayed from {}",
        files.len(),
        dir.display()
    );
    for (i, label) in ["L2 raid", "L3 remote"].iter().enumerate() {
        let level = i + 1; // stored_bytes() is [L1, L2, L3]; dedup covers L2/L3
        let saved = off[level].saturating_sub(on[level]);
        println!(
            "  {label}: {} B stored without dedup, {} B with ({saved} B saved)",
            off[level], on[level]
        );
    }
    let stats = deduped.dedup_stats().expect("dedup enabled above");
    for (s, label) in stats.iter().zip(["L2 raid", "L3 remote"]) {
        println!(
            "  {label}: {} hits, {} misses, {} verify failures, {} reclaims, {} live chunks ({} B), {} B payload saved",
            s.hits, s.misses, s.verify_failures, s.reclaims, s.live_chunks, s.live_chunk_bytes, s.stored_bytes_saved
        );
    }
    Ok(())
}

/// Run one engine pass and print each storage level's checkpoint-log
/// statistics; with `--compact`, then fold the logs and print the delta.
fn log_stats(opts: &[String]) -> CliResult {
    let mut secs = 24.0f64;
    let mut seed = 11u64;
    let mut do_compact = false;
    let mut it = opts.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--secs" => {
                secs = val("--secs")?.parse().map_err(|e| format!("--secs: {e}"))?;
            }
            "--seed" => {
                seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--compact" => do_compact = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!("--secs must be positive, got {secs}"));
    }

    let storage = std::sync::Arc::new(std::sync::Mutex::new(StorageHierarchy::coastal(4)));
    let mut cfg = EngineConfig::testbed(aic_model::FailureRates::three(2e-7, 1.8e-6, 4e-7));
    cfg.keep_files = true;
    cfg.full_every = Some(4);
    cfg.storage = Some(storage.clone());
    let mut policy = FixedIntervalPolicy::new((secs / 8.0).max(0.5));
    let report = run_engine(stream_process(secs, seed), &mut policy, &cfg);
    println!(
        "run: {} checkpoints over {:.2}s wall\n",
        report.intervals.len(),
        report.wall_time
    );

    let mut hier = storage
        .lock()
        .map_err(|_| "storage mutex poisoned".to_string())?;
    let print_stats = |hier: &StorageHierarchy| {
        println!(
            "{:<6} {:>9} {:>9} {:>9} {:>7} {:>12} {:>12} {:>8} {:>6}",
            "level",
            "segments",
            "retired",
            "records",
            "live",
            "live B",
            "stored B",
            "garbage",
            "epoch"
        );
        for (i, s) in hier.log_stats().iter().enumerate() {
            println!(
                "L{:<5} {:>9} {:>9} {:>9} {:>7} {:>12} {:>12} {:>7.0}% {:>6}",
                i + 1,
                s.segments,
                s.retired_segments,
                s.records,
                s.live_records,
                s.live_bytes,
                s.stored_bytes,
                s.garbage_ratio * 100.0,
                s.epoch,
            );
        }
    };
    print_stats(&hier);
    if do_compact {
        let before: u64 = hier.stored_bytes().iter().sum();
        // compact() reclaims unpinned retired segments as it goes; the
        // stored-bytes delta is the honest summary of what it freed.
        hier.compact().map_err(|e| format!("compaction: {e}"))?;
        let after: u64 = hier.stored_bytes().iter().sum();
        println!("\ncompacted: stored bytes {before} -> {after}\n");
        print_stats(&hier);
    }
    Ok(())
}

/// `aicctl fleet <run|stats>` — drive a wall-clock `aicd --wallclock`
/// server over its Unix socket.
fn fleet(opts: &[String]) -> CliResult {
    let Some(verb) = opts.first() else {
        return Err("fleet wants a verb: run or stats".into());
    };
    let mut socket: Option<String> = None;
    let mut persona = 0usize;
    let mut cuts = 4u64;
    let mut fixed: Option<f64> = None;
    let mut crashes: Vec<(u64, usize)> = Vec::new();
    let mut it = opts[1..].iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--socket" => socket = Some(val("--socket")?),
            "--persona" => {
                persona = val("--persona")?
                    .parse()
                    .map_err(|e| format!("--persona: {e}"))?;
            }
            "--cuts" => {
                cuts = val("--cuts")?.parse().map_err(|e| format!("--cuts: {e}"))?;
            }
            "--fixed" => {
                fixed = Some(
                    val("--fixed")?
                        .parse()
                        .map_err(|e| format!("--fixed: {e}"))?,
                );
            }
            "--crash" => {
                for part in val("--crash")?.split(',') {
                    let (k, level) = part
                        .split_once(':')
                        .ok_or_else(|| format!("--crash wants K:LEVEL, got {part:?}"))?;
                    let k: u64 = k.parse().map_err(|e| format!("--crash cut index: {e}"))?;
                    let level: usize = level.parse().map_err(|e| format!("--crash level: {e}"))?;
                    if !(1..=3).contains(&level) {
                        return Err(format!("--crash level must be 1..=3, got {level}"));
                    }
                    crashes.push((k, level));
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let socket = socket.ok_or("fleet needs --socket PATH")?;
    let mut client =
        aic_ckpt::rpc::FleetClient::connect(&socket).map_err(|e| format!("{socket}: {e}"))?;
    match verb.as_str() {
        "stats" => {
            print!("{}", client.stats().map_err(|e| format!("stats: {e}"))?);
            Ok(())
        }
        "run" => {
            if cuts == 0 {
                return Err("--cuts must be >= 1".into());
            }
            let policy = match fixed {
                Some(w) => aic_ckpt::service::TenantPolicy::Fixed(w),
                None => aic_ckpt::service::TenantPolicy::Adaptive { bootstrap: 3.0 },
            };
            let id = client
                .join(persona, policy, cuts)
                .map_err(|e| format!("join: {e}"))?;
            println!("joined as tenant {id} (persona {persona})");
            for k in 1..=cuts {
                let c = client.cut().map_err(|e| format!("cut {k}: {e}"))?;
                println!(
                    "cut {k}: ordinal {} round {} {} payload {:016x} w {:.4}s",
                    c.ordinal,
                    c.round,
                    if c.full { "full " } else { "delta" },
                    c.payload_digest,
                    f64::from_bits(c.w_bits),
                );
                for &(at, level) in crashes.iter().filter(|&&(at, _)| at == k) {
                    let _ = at;
                    client.crash(level).map_err(|e| format!("crash: {e}"))?;
                    let r = client.recover().map_err(|e| format!("recover: {e}"))?;
                    println!(
                        "crash level {level}: recovered from L{} at round {} image {:016x}",
                        r.level, r.round, r.image_digest
                    );
                }
            }
            let l = client.leave().map_err(|e| format!("leave: {e}"))?;
            println!(
                "left: verified {} leaked {}",
                match l.verified {
                    Some(true) => "yes",
                    Some(false) => "NO",
                    None => "-",
                },
                l.leaked
            );
            if l.verified == Some(false) || l.leaked != 0 {
                return Err("departure verification failed".into());
            }
            Ok(())
        }
        other => Err(format!("unknown fleet verb {other:?} (run or stats)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_verify_restore_roundtrip() {
        let dir = std::env::temp_dir().join(format!("aicctl-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        demo(&dir).unwrap();

        let snap = verify(&dir).unwrap();
        assert_eq!(snap.len(), 8);
        // Page 2 was overwritten by the incremental, page 3 by the delta.
        assert_eq!(snap.get(2).unwrap().as_slice()[0], 0xAA);
        assert_eq!(snap.get(3).unwrap().as_slice()[100], 9);

        let out = dir.join("image.bin");
        restore(&dir, &out).unwrap();
        let img = fs::read(&out).unwrap();
        assert_eq!(img.len(), 8 * (PAGE_SIZE + 8));

        // Inspect parses every file without error.
        for p in chain_paths(&dir).unwrap() {
            inspect(&p).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_rejects_corrupt_chain() {
        let dir = std::env::temp_dir().join(format!("aicctl-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        demo(&dir).unwrap();
        // Corrupt the middle checkpoint.
        let victim = chain_paths(&dir).unwrap()[1].clone();
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&victim, bytes).unwrap();
        assert!(verify(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_an_error() {
        assert!(verify(Path::new("/nonexistent/aicctl")).is_err());
    }

    #[test]
    fn faults_subcommand_verifies_each_level() {
        let args = |level: &str| {
            vec![
                "--secs".to_string(),
                "12".to_string(),
                "--level".to_string(),
                level.to_string(),
                "--at".to_string(),
                "7".to_string(),
            ]
        };
        for level in ["1", "2", "3"] {
            faults(&args(level)).unwrap_or_else(|e| panic!("level {level}: {e}"));
        }
    }

    #[test]
    fn faults_subcommand_rejects_bad_flags() {
        assert!(faults(&["--level".into(), "4".into()]).is_err());
        assert!(faults(&["--secs".into(), "-1".into()]).is_err());
        assert!(faults(&["--bogus".into()]).is_err());
        assert!(faults(&["--seed".into()]).is_err());
        assert!(faults(&["--write-behind".into(), "0".into()]).is_err());
        assert!(faults(&["--write-behind".into(), "x".into()]).is_err());
    }

    #[test]
    fn faults_subcommand_recovers_with_write_behind() {
        // An f3 mid-drain with a bounded queue and transient network faults
        // must still restore a bit-identical image.
        faults(&[
            "--secs".into(),
            "16".into(),
            "--level".into(),
            "3".into(),
            "--write-behind".into(),
            "2".into(),
        ])
        .unwrap();
    }

    #[test]
    fn log_subcommand_prints_and_compacts() {
        log_stats(&["--secs".into(), "12".into()]).unwrap();
        log_stats(&["--secs".into(), "12".into(), "--compact".into()]).unwrap();
        assert!(log_stats(&["--secs".into(), "0".into()]).is_err());
        assert!(log_stats(&["--bogus".into()]).is_err());
    }

    #[test]
    fn stats_subcommand_writes_metrics_jsonl() {
        let path = std::env::temp_dir().join(format!("aicctl-stats-{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        stats(&[
            "--secs".into(),
            "12".into(),
            "--jsonl".into(),
            path.display().to_string(),
        ])
        .unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"metric\":\"engine.checkpoints\""));
        assert!(text.contains("\"metric\":\"storage.commits\""));
        assert!(text.contains("\"name\":\"engine.recover\""));
        let _ = fs::remove_file(&path);
        assert!(stats(&["--secs".into(), "0".into()]).is_err());
        assert!(stats(&["--frobnicate".into()]).is_err());
    }
}
