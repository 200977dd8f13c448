//! The four workloads, and how each turns into the end-to-end metrics
//! (untraced run) or the per-layer metrics (traced run).

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use aic_ckpt::fleet::SharedDatasetFleet;
use aic_ckpt::rpc::RPC_HEADER_BYTES;
use aic_ckpt::service::{ServiceConfig, TenantPolicy};
use aic_ckpt::wallclock::{FleetServer, FleetStats};
use aic_model::params::CoastalProfile;
use aic_obs::{Obs, SampleValue};

use crate::inproc::{self, LoopOut};
use crate::ops;
use crate::report::{json_num, json_str, median, percentile, Metrics, Tally};
use crate::rpcload::{self, Daemon};
use crate::simfleet;
use crate::spans::Spans;
use crate::{micro, replay};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ckpt_per_s", "1/s"),
    ("cut_p50_ms", "ms"),
    ("join_p50_ms", "ms"),
    ("wire_bytes_per_user_byte", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// never calls reports 0 there. The `client.*` percentiles and the peak
/// RSS are end-to-end quantities whose run-to-run spread on a 2-core host
/// exceeds any bound a gate could use, so they are recorded here,
/// unbounded.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.cut_p99_ms", "ms"),
    ("client.recover_p50_ms", "ms"),
    ("client.recover_p95_ms", "ms"),
    ("process.peak_rss_mb", "MB"),
    ("fleet.snapshot_ms", "ms"),
    ("encode.ms_per_cut", "ms"),
    ("encode.ns_per_page", "ns"),
    ("encode.raw_page_ratio", "ratio"),
    ("encode.delta_bytes_per_user_byte", "ratio"),
    ("encode.index_cache_hit_ratio", "ratio"),
    ("wallclock.shards_per_cut", "count"),
    ("wallclock.preemptions_per_cut", "count"),
    ("wallclock.drr_rounds_per_cut", "count"),
    ("wallclock.cut_block_ms_p50", "ms"),
    ("wallclock.cut_block_ms_p99", "ms"),
    ("wallclock.cut_block_ms_mean", "ms"),
    ("wallclock.unaccounted_ms", "ms"),
    ("wallclock.admission_waiting_max", "count"),
    ("format.serialize_ms", "ms"),
    ("policies.w_solve_us", "us"),
    ("storage.commit_ms", "ms"),
    ("storage.ack_ms", "ms"),
    ("storage.l1_bytes_per_user_byte", "ratio"),
    ("storage.l2_bytes_per_user_byte", "ratio"),
    ("storage.l3_bytes_per_user_byte", "ratio"),
    ("storage.stored_bytes_per_user_byte", "ratio"),
    ("log.append_us.seg0", "us"),
    ("log.append_us.seg50", "us"),
    ("log.append_us.seg90", "us"),
    ("log.raid_append_us.seg0", "us"),
    ("log.raid_append_us.seg50", "us"),
    ("log.raid_append_us.seg90", "us"),
    ("log.garbage_ratio", "ratio"),
    ("log.segments", "count"),
    ("raid.put_us_per_mib", "us"),
    ("raid.get_us_per_mib", "us"),
    ("raid.degraded_get_us_per_mib", "us"),
    ("dedup.hit_ratio.l2", "ratio"),
    ("dedup.hit_ratio.l3", "ratio"),
    ("dedup.verify_failures", "count"),
    ("dedup.live_chunks", "count"),
    ("dedup.install_us_per_page", "us"),
    ("dedup.quote_us_per_page", "us"),
    ("dedup.quote_overcount", "ratio"),
    ("transport.enqueue_us", "us"),
    ("transport.advance_us", "us"),
    ("transport.in_flight_mean", "count"),
    ("transport.backpressure_ratio", "ratio"),
    ("transport.cancelled_ratio", "ratio"),
    ("transport.gave_up", "count"),
    ("transport.micro.enqueue_us", "us"),
    ("transport.micro.advance_us", "us"),
    ("rpc.frame_roundtrip_us", "us"),
    ("rpc.join_overhead_ms", "ms"),
    ("rpc.bytes_per_cut", "bytes"),
    ("recovery.crash_ms.l1", "ms"),
    ("recovery.crash_ms.l2", "ms"),
    ("recovery.crash_ms.l3", "ms"),
    ("recovery.recover_job_ms", "ms"),
    ("recovery.chain_records", "count"),
    ("recovery.leave_verify_ms", "ms"),
    ("service.drr_rounds", "count"),
    ("service.admission_stalls", "count"),
    ("service.encode_shards", "count"),
    ("service.wire_wasted_bytes", "bytes"),
    ("service.ckpt_per_s", "1/s"),
    ("client.cut_self_ms_p50", "ms"),
    ("client.crash_self_ms_p50", "ms"),
    ("client.recover_self_ms_p50", "ms"),
    ("client.join_self_ms_p50", "ms"),
    ("client.leave_self_ms_p50", "ms"),
    ("trace.ckpt_per_s_untraced", "1/s"),
    ("trace.ckpt_per_s_traced", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("replay.cuts", "count"),
    ("replay.digests_checked", "count"),
];

/// The four workloads, by the names `BENCHMARK.json` uses.
pub const WORKLOADS: &[&str] = &["private-delta", "shared-dedup", "rpc-churn", "sim-fleet"];

/// How many recorded commits an untraced run recomputes after its window.
const VERIFY_CUTS: usize = 160;

/// Run parameters shared by every workload.
pub struct Run<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub aicd: Option<&'a Path>,
    /// Scratch directory for sockets and span files.
    pub out_dir: &'a Path,
    pub cores: usize,
}

/// A finished run: metrics, the correctness ledger, and facts (already
/// JSON-encoded values) describing what ran.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    pub facts: Vec<(&'static str, String)>,
    pub spans: Spans,
}

/// The service config `aicd` runs with (its failure rates and defaults).
pub fn service_config() -> ServiceConfig {
    ServiceConfig::fleet_default(CoastalProfile::default().rates().with_total(1e-3))
}

const POLICY: TenantPolicy = TenantPolicy::Adaptive { bootstrap: 3.0 };

/// The in-process generator for `private-delta` / `shared-dedup`, and
/// the wall-clock probe `sim-fleet` takes its latencies from.
fn inproc_spec(workload: &str, seed: u64, cores: usize) -> inproc::Spec {
    let mut cfg = service_config();
    cfg.obs = Some(Arc::new(Obs::new()));
    match workload {
        "private-delta" | "shared-dedup" => {
            let overlap = if workload == "shared-dedup" { 90 } else { 0 };
            // A link fast enough never to back-pressure.
            cfg.b3 = 1e12;
            inproc::Spec {
                fleet: SharedDatasetFleet::new(8, 32, overlap, seed),
                cfg,
                threads: if workload == "shared-dedup" {
                    1
                } else {
                    2.min(cores)
                },
                tenants: 8,
                warmup_cuts: 4,
                policy: POLICY,
                horizon: 64,
            }
        }
        _ => inproc::Spec {
            fleet: simfleet::fleet(&SIM, seed),
            cfg,
            threads: 1,
            tenants: 8,
            warmup_cuts: 1,
            policy: POLICY,
            horizon: 8,
        },
    }
}

const SIM: simfleet::Spec = simfleet::Spec {
    tenants: 64,
    rounds: 4,
    overlap: 30,
    slots: 16,
    cores: 4,
};

fn rpc_spec(cores: usize) -> rpcload::Spec {
    rpcload::Spec {
        connections: 2.min(cores),
        cuts_per_cycle: 8,
        policy: POLICY,
    }
}

fn stats_map(s: &FleetStats) -> [f64; 5] {
    [
        s.cuts as f64,
        s.wire_bytes as f64,
        s.shards as f64,
        s.preemptions as f64,
        s.drr_rounds as f64,
    ]
}

fn rpc_stats(d: &Daemon, tally: &mut Tally) -> [f64; 6] {
    match d.stats() {
        Ok(m) => {
            let g = |k: &str| m.get(k).copied().unwrap_or(0.0);
            [
                g("fleet.wc.cuts"),
                g("fleet.wc.wire_bytes"),
                g("fleet.wc.encode_shards"),
                g("fleet.wc.preemptions"),
                g("fleet.wc.drr_rounds"),
                g("fleet.wc.isolation_violations"),
            ]
        }
        Err(e) => {
            tally.fail(format!("stats RPC failed: {e}"));
            [0.0; 6]
        }
    }
}

/// Windows an untraced run measures one after another on the same server,
/// each for an equal share of `--seconds`. Latency medians are medians of
/// the per-window medians, so a passing disturbance on the host moves
/// them less.
const REPS: usize = 4;

/// The end-to-end metrics of `REPS` windows: throughput over all of them,
/// latencies as the median of the per-window medians. Cut metrics come
/// from `cuts`, join from `lives` (the same windows on `rpc-churn`).
fn loop_metrics(m: &mut Metrics, cuts: &[LoopOut], lives: &[LoopOut]) {
    let per = |outs: &[LoopOut], f: &dyn Fn(&LoopOut) -> f64| {
        median(&outs.iter().map(f).collect::<Vec<f64>>())
    };
    let (n, secs) = cuts
        .iter()
        .fold((0, 0.0), |(n, s), o| (n + o.cuts, s + o.wall_s));
    m.set("ckpt_per_s", n as f64 / secs.max(1e-9), "1/s");
    m.set("cut_p50_ms", per(cuts, &|o| median(&o.lat.cut_ms)), "ms");
    m.set("join_p50_ms", per(lives, &|o| median(&o.lat.join_ms)), "ms");
}

/// `a`'s operations followed by `b`'s, `b`'s clock shifted to start where
/// `a`'s ends — one log for the replay.
fn then(a: &LoopOut, b: &LoopOut) -> LoopOut {
    let shift = a.ops.last().map_or(0.0, |o| o.0);
    let mut ops = a.ops.clone();
    ops.extend(b.ops.iter().map(|(t, op)| (t + shift, op.clone())));
    LoopOut {
        ops,
        ..LoopOut::default()
    }
}

/// Share of an in-process run's window spent in the cut loop; the rest
/// measures the lifecycle (crash/recover, leave/join).
const CUT_SHARE: f64 = 0.7;

fn sample_facts(cuts: &[LoopOut], lives: &[LoopOut], facts: &mut Vec<(&'static str, String)>) {
    let n = |outs: &[LoopOut], f: &dyn Fn(&LoopOut) -> usize| outs.iter().map(f).sum::<usize>();
    facts.push(("reps", cuts.len().to_string()));
    facts.push(("cut_samples", n(cuts, &|o| o.lat.cut_ms.len()).to_string()));
    facts.push((
        "recover_samples",
        n(lives, &|o| o.lat.recover_ms.len()).to_string(),
    ));
    facts.push((
        "join_samples",
        n(lives, &|o| o.lat.join_ms.len()).to_string(),
    ));
}

/// Bucketed cut-blocking time from the server's Volatile
/// `fleet.wc.cut_block_us` histogram, as `(p50, p99, mean)` ms over the
/// observations between two snapshots.
fn block_ms(
    obs: &Obs,
    before: &Option<(Vec<u64>, u64)>,
) -> (f64, f64, f64, Option<(Vec<u64>, u64)>) {
    let snap = obs.metrics.snapshot();
    let Some(SampleValue::Histogram {
        bounds,
        counts,
        sum,
    }) = snap.get("fleet.wc.cut_block_us").map(|s| s.value.clone())
    else {
        return (0.0, 0.0, 0.0, None);
    };
    let (c0, s0) = before.clone().unwrap_or((vec![0; counts.len()], 0));
    let diff: Vec<u64> = counts.iter().zip(&c0).map(|(a, b)| a - b).collect();
    let n: u64 = diff.iter().sum();
    let q = |p: f64| {
        let want = (p * n as f64).ceil() as u64;
        let mut acc = 0;
        for (i, c) in diff.iter().enumerate() {
            acc += c;
            if acc >= want.max(1) {
                return *bounds.get(i).unwrap_or(bounds.last().unwrap_or(&0)) as f64 / 1e3;
            }
        }
        0.0
    };
    let mean = (sum - s0) as f64 / n.max(1) as f64 / 1e3;
    (q(0.5), q(0.99), mean, Some((counts, sum)))
}

/// Poll `waiting()` while a traced segment runs; returns the maximum.
fn waiting_sampler<'s>(
    sc: &'s thread::Scope<'s, '_>,
    stop: &'s AtomicBool,
    max: &'s AtomicU64,
    poll: impl Fn() -> u64 + Send + 's,
) {
    sc.spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            max.fetch_max(poll(), Ordering::Relaxed);
            thread::sleep(Duration::from_millis(10));
        }
    });
}

/// Per-layer metrics every traced run shares: client span self times,
/// untraced tails, tracing overhead, and the unaccounted remainder of the
/// untraced cut.
fn client_and_trace(
    m: &mut Metrics,
    spans: &Spans,
    untraced: &LoopOut,
    untraced_life: &LoopOut,
    traced: &LoopOut,
) {
    m.set(
        "client.cut_p99_ms",
        percentile(&untraced.lat.cut_ms, 0.99),
        "ms",
    );
    m.set(
        "client.recover_p50_ms",
        median(&untraced_life.lat.recover_ms),
        "ms",
    );
    m.set(
        "client.recover_p95_ms",
        percentile(&untraced_life.lat.recover_ms, 0.95),
        "ms",
    );
    for (metric, span) in [
        ("client.cut_self_ms_p50", "client.cut"),
        ("client.crash_self_ms_p50", "client.crash"),
        ("client.recover_self_ms_p50", "client.recover"),
        ("client.join_self_ms_p50", "client.join"),
        ("client.leave_self_ms_p50", "client.leave"),
    ] {
        m.set(metric, median(&spans.self_ms(span)), "ms");
    }
    let (u, t) = (untraced.ckpt_per_s(), traced.ckpt_per_s());
    m.set("trace.ckpt_per_s_untraced", u, "1/s");
    m.set("trace.ckpt_per_s_traced", t, "1/s");
    m.set(
        "trace.overhead_ratio",
        if t > 0.0 { u / t - 1.0 } else { 0.0 },
        "ratio",
    );
    m.set("trace.spans", spans.spans.len() as f64, "count");
    let stages: f64 = [
        "fleet.snapshot_ms",
        "encode.ms_per_cut",
        "format.serialize_ms",
        "storage.commit_ms",
    ]
    .iter()
    .map(|k| m.get(k).unwrap_or(0.0))
    .sum::<f64>()
        + [
            "transport.enqueue_us",
            "transport.advance_us",
            "policies.w_solve_us",
        ]
        .iter()
        .map(|k| m.get(k).unwrap_or(0.0) / 1e3)
        .sum::<f64>();
    m.set(
        "wallclock.unaccounted_ms",
        median(&untraced.lat.cut_ms) - stages,
        "ms",
    );
}

/// Replay + microbenchmarks: the stage half of a traced run.
#[allow(clippy::too_many_arguments)]
fn stages(
    m: &mut Metrics,
    tally: &mut Tally,
    spans: &mut Spans,
    fleet: &SharedDatasetFleet,
    cfg: &ServiceConfig,
    horizon: u64,
    out: &LoopOut,
    seconds: f64,
) {
    let budget = Duration::from_secs_f64(seconds * 0.3);
    let (rm, rt, rs) = replay::replay(fleet, cfg, horizon, &out.ops, budget);
    m.absorb(rm);
    tally.merge(rt);
    spans.append(rs);
    m.absorb(micro::run(
        fleet,
        cfg.seg_capacity,
        Duration::from_secs_f64(seconds * 0.2),
    ));
}

pub fn run(r: &Run<'_>) -> Result<Outcome, String> {
    match r.workload {
        "private-delta" | "shared-dedup" => Ok(run_inproc(r)),
        "rpc-churn" => run_rpc(r),
        "sim-fleet" => Ok(run_sim(r)),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn run_inproc(r: &Run<'_>) -> Outcome {
    let spec = inproc_spec(r.workload, r.seed, r.cores);
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut facts = vec![
        ("generator_threads", spec.threads.to_string()),
        ("tenants", spec.tenants.to_string()),
        ("pages_per_tenant", "32".to_string()),
        (
            "overlap_pct",
            (spec.fleet.shared_pages() * 100 / 32).to_string(),
        ),
        ("cut_share", json_num(CUT_SHARE)),
        ("b3_bytes_per_s", json_num(spec.cfg.b3)),
        ("dedup", spec.cfg.dedup.to_string()),
        ("full_every", spec.cfg.full_every.to_string()),
    ];
    let setup = inproc::setup_s(&spec, if r.traced { 3 } else { 9 });
    let mut spans = Spans::new(Instant::now(), false);
    if !r.traced {
        let (mut cuts, mut lives, mut wire) = (Vec::new(), Vec::new(), 0.0);
        let share = r.seconds / REPS as f64;
        let server = inproc::start(&spec);
        for _ in 0..REPS {
            let s0 = stats_map(&server.stats());
            let (c, _) = inproc::run(&server, &spec, share * CUT_SHARE, false);
            let s1 = stats_map(&server.stats());
            let (l, _) = inproc::lifecycle(&server, &spec, share * (1.0 - CUT_SHARE), false);
            wire += s1[1] - s0[1];
            cuts.push(c);
            lives.push(l);
        }
        tally.check(server.violations() == 0, || {
            format!("{} isolation violations", server.violations())
        });
        drop(server);
        for out in cuts.iter().chain(&lives) {
            tally.merge(out.tally.clone());
            let n = VERIFY_CUTS / (2 * REPS);
            tally.merge(ops::verify(&spec.fleet, &spec.cfg.pa, &out.ops, n));
        }
        loop_metrics(&mut m, &cuts, &lives);
        let user: u64 = cuts.iter().map(|c| c.user_bytes).sum();
        m.set(
            "wire_bytes_per_user_byte",
            wire / user.max(1) as f64,
            "ratio",
        );
        m.set("setup_s", setup, "s");
        sample_facts(&cuts, &lives, &mut facts);
        return Outcome {
            metrics: m,
            tally,
            facts,
            spans,
        };
    }
    let server = inproc::start(&spec);
    let obs = spec.cfg.obs.clone().expect("obs configured");
    let (untraced, _) = inproc::run(&server, &spec, r.seconds * 0.15, false);
    let (untraced_life, _) = inproc::lifecycle(&server, &spec, r.seconds * 0.05, false);
    let s0 = stats_map(&server.stats());
    let (_, _, _, h0) = block_ms(&obs, &None);
    let stop = AtomicBool::new(false);
    let waiting = AtomicU64::new(0);
    let (traced, tspans) = thread::scope(|sc| {
        waiting_sampler(sc, &stop, &waiting, || server.stats().waiting);
        let res = inproc::run(&server, &spec, r.seconds * 0.15, true);
        stop.store(true, Ordering::Relaxed);
        res
    });
    let s1 = stats_map(&server.stats());
    let (b50, b99, bmean, _) = block_ms(&obs, &h0);
    let (traced_life, lspans) = inproc::lifecycle(&server, &spec, r.seconds * 0.05, true);
    tally.check(server.violations() == 0, || {
        format!("{} isolation violations", server.violations())
    });
    drop(server);
    let cuts = (s1[0] - s0[0]).max(1.0);
    m.set("wallclock.shards_per_cut", (s1[2] - s0[2]) / cuts, "count");
    m.set(
        "wallclock.preemptions_per_cut",
        (s1[3] - s0[3]) / cuts,
        "count",
    );
    m.set(
        "wallclock.drr_rounds_per_cut",
        (s1[4] - s0[4]) / cuts,
        "count",
    );
    m.set("wallclock.cut_block_ms_p50", b50, "ms");
    m.set("wallclock.cut_block_ms_p99", b99, "ms");
    m.set("wallclock.cut_block_ms_mean", bmean, "ms");
    m.set(
        "wallclock.admission_waiting_max",
        waiting.load(Ordering::Relaxed) as f64,
        "count",
    );
    for out in [&untraced, &untraced_life, &traced, &traced_life] {
        tally.merge(out.tally.clone());
    }
    spans.append(tspans);
    spans.append(lspans);
    stages(
        &mut m,
        &mut tally,
        &mut spans,
        &spec.fleet,
        &spec.cfg,
        spec.horizon,
        &then(&traced, &traced_life),
        r.seconds,
    );
    client_and_trace(&mut m, &spans, &untraced, &untraced_life, &traced);
    m.set(
        "process.peak_rss_mb",
        crate::report::peak_rss_mb("self"),
        "MB",
    );
    facts.push(("traced_cuts", traced.cuts.to_string()));
    Outcome {
        metrics: m,
        tally,
        facts,
        spans,
    }
}

fn run_rpc(r: &Run<'_>) -> Result<Outcome, String> {
    let aicd = r
        .aicd
        .ok_or("rpc-churn needs the aicd binary (--aicd PATH)")?;
    let spec = rpc_spec(r.cores);
    let fleet = rpcload::aicd_fleet(r.seed);
    let mut cfg = service_config();
    cfg.obs = None;
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut facts = vec![
        ("connections", spec.connections.to_string()),
        ("cuts_per_cycle", spec.cuts_per_cycle.to_string()),
        ("aicd_personas", rpcload::AICD_TENANTS.to_string()),
        ("overlap_pct", rpcload::AICD_OVERLAP.to_string()),
        ("b3_bytes_per_s", json_num(cfg.b3)),
    ];
    let sock_dir = r.out_dir.join("sock");
    let spawn =
        || Daemon::spawn(aicd, &sock_dir, r.seed).map_err(|e| format!("starting aicd: {e}"));
    let (setup, warm) = rpcload::setup(
        aicd,
        &sock_dir,
        &fleet,
        spec,
        r.seed,
        if r.traced { 3 } else { 9 },
    )
    .map_err(|e| format!("starting aicd: {e}"))?;
    tally.merge(warm);
    let mut spans = Spans::new(Instant::now(), false);
    if !r.traced {
        let (mut outs, mut wire) = (Vec::new(), 0.0);
        let daemon = spawn()?;
        for _ in 0..REPS {
            let s0 = rpc_stats(&daemon, &mut tally);
            let (out, _) = rpcload::run(&fleet, &daemon.sock, spec, r.seconds / REPS as f64, false);
            let s1 = rpc_stats(&daemon, &mut tally);
            wire += s1[1] - s0[1];
            tally.check(s1[5] == 0.0, || format!("{} isolation violations", s1[5]));
            tally.merge(out.tally.clone());
            tally.merge(ops::verify(&fleet, &cfg.pa, &out.ops, VERIFY_CUTS / REPS));
            outs.push(out);
        }
        drop(daemon);
        loop_metrics(&mut m, &outs, &outs);
        let user: u64 = outs.iter().map(|c| c.user_bytes).sum();
        m.set(
            "wire_bytes_per_user_byte",
            wire / user.max(1) as f64,
            "ratio",
        );
        m.set("setup_s", setup, "s");
        sample_facts(&outs, &outs, &mut facts);
        return Ok(Outcome {
            metrics: m,
            tally,
            facts,
            spans,
        });
    }
    let daemon = spawn()?;
    let (untraced, _) = rpcload::run(&fleet, &daemon.sock, spec, r.seconds * 0.25, false);
    let s0 = rpc_stats(&daemon, &mut tally);
    let stop = AtomicBool::new(false);
    let waiting = AtomicU64::new(0);
    let (traced, tspans) = thread::scope(|sc| {
        waiting_sampler(sc, &stop, &waiting, || {
            daemon
                .stats()
                .ok()
                .and_then(|s| s.get("fleet.wc.tenants_waiting").copied())
                .unwrap_or(0.0) as u64
        });
        let res = rpcload::run(&fleet, &daemon.sock, spec, r.seconds * 0.25, true);
        stop.store(true, Ordering::Relaxed);
        res
    });
    let s1 = rpc_stats(&daemon, &mut tally);
    tally.check(s1[5] == 0.0, || format!("{} isolation violations", s1[5]));
    m.set("process.peak_rss_mb", daemon.peak_rss_mb(), "MB");
    drop(daemon);
    let cuts = (s1[0] - s0[0]).max(1.0);
    m.set("wallclock.shards_per_cut", (s1[2] - s0[2]) / cuts, "count");
    m.set(
        "wallclock.preemptions_per_cut",
        (s1[3] - s0[3]) / cuts,
        "count",
    );
    m.set(
        "wallclock.drr_rounds_per_cut",
        (s1[4] - s0[4]) / cuts,
        "count",
    );
    m.set(
        "wallclock.admission_waiting_max",
        waiting.load(Ordering::Relaxed) as f64,
        "count",
    );
    // The in-process join the RPC join wraps, on the same config.
    let server = FleetServer::start(fleet.clone(), cfg.clone());
    let local_join: Vec<f64> = (0..64)
        .map(|i| {
            let t = Instant::now();
            let s = server.join(i % rpcload::AICD_TENANTS, spec.policy, spec.cuts_per_cycle);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(s);
            ms
        })
        .collect();
    drop(server);
    m.set(
        "rpc.join_overhead_ms",
        median(&untraced.lat.join_ms) - median(&local_join),
        "ms",
    );
    // A cut request is a bare header; its reply carries 33 payload bytes.
    m.set(
        "rpc.bytes_per_cut",
        (2 * RPC_HEADER_BYTES + 33) as f64,
        "bytes",
    );
    tally.merge(untraced.tally.clone());
    tally.merge(traced.tally.clone());
    spans.append(tspans);
    stages(
        &mut m,
        &mut tally,
        &mut spans,
        &fleet,
        &cfg,
        spec.cuts_per_cycle,
        &traced,
        r.seconds,
    );
    client_and_trace(&mut m, &spans, &untraced, &untraced, &traced);
    facts.push(("traced_cuts", traced.cuts.to_string()));
    facts.push((
        "unobserved",
        json_str(
            "wallclock.cut_block_ms_*: aicd's stats RPC does not export the cut-blocking histogram",
        ),
    ));
    Ok(Outcome {
        metrics: m,
        tally,
        facts,
        spans,
    })
}

/// `run_service` episodes for `seconds` (at least one); returns the
/// summed episode cuts/wall/wire/user and the service counters.
struct Episodes {
    cuts: u64,
    wall_s: f64,
    wire: u64,
    user: u64,
    gave_up: u64,
    count: u64,
    counters: [u64; 4],
}

impl Episodes {
    fn ckpt_per_s(&self) -> f64 {
        self.cuts as f64 / self.wall_s.max(1e-9)
    }
}

fn episodes(seed: u64, seconds: f64, first: u64, tally: &mut Tally, spans: &mut Spans) -> Episodes {
    let mut e = Episodes {
        cuts: 0,
        wall_s: 0.0,
        wire: 0,
        user: 0,
        gave_up: 0,
        count: 0,
        counters: [0; 4],
    };
    let t0 = Instant::now();
    let mut i = first;
    while e.count == 0 || t0.elapsed().as_secs_f64() < seconds {
        let ep_seed = seed.wrapping_mul(1_000_003).wrapping_add(i);
        i += 1;
        let Some(ep) = spans.time("service.run_service", i, |_| {
            simfleet::episode(&SIM, ep_seed, tally)
        }) else {
            break;
        };
        e.count += 1;
        e.cuts += ep.report.cuts;
        e.wall_s += ep.wall_s;
        e.wire += ep.report.wire_bytes;
        e.user += ep.user_bytes;
        e.gave_up += ep.report.gave_up;
        let snap = ep.obs.metrics.deterministic_snapshot();
        for (slot, name) in [
            "fleet.drr_rounds",
            "fleet.admission_stalls",
            "fleet.encode_shards",
            "fleet.wire_wasted_bytes",
        ]
        .iter()
        .enumerate()
        {
            e.counters[slot] += snap.counter(name).unwrap_or(0);
        }
    }
    e
}

fn run_sim(r: &Run<'_>) -> Outcome {
    let probe = inproc_spec(r.workload, r.seed, r.cores);
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut facts = vec![
        ("episode_tenants", SIM.tenants.to_string()),
        ("episode_rounds", SIM.rounds.to_string()),
        ("episode_slots", SIM.slots.to_string()),
        ("overlap_pct", SIM.overlap.to_string()),
        (
            "transport_faults",
            json_str("TransportFaults::mixed(episode seed)"),
        ),
        ("probe_tenants", probe.tenants.to_string()),
        ("probe_threads", probe.threads.to_string()),
    ];
    let setup = inproc::setup_s(&probe, if r.traced { 3 } else { 9 });
    let mut spans = Spans::new(Instant::now(), r.traced);
    if !r.traced {
        let mut quiet = Spans::new(Instant::now(), false);
        let ep = episodes(r.seed, r.seconds * 0.6, 0, &mut tally, &mut quiet);
        let (mut cuts, mut lives) = (Vec::new(), Vec::new());
        let share = r.seconds * 0.4 / REPS as f64;
        let server = inproc::start(&probe);
        for _ in 0..REPS {
            let (c, _) = inproc::run(&server, &probe, share * 0.5, false);
            let (l, _) = inproc::lifecycle(&server, &probe, share * 0.5, false);
            cuts.push(c);
            lives.push(l);
        }
        tally.check(server.violations() == 0, || {
            format!("{} isolation violations", server.violations())
        });
        drop(server);
        for out in cuts.iter().chain(&lives) {
            tally.merge(out.tally.clone());
            let n = VERIFY_CUTS / (2 * REPS);
            tally.merge(ops::verify(&probe.fleet, &probe.cfg.pa, &out.ops, n));
        }
        loop_metrics(&mut m, &cuts, &lives);
        m.set("ckpt_per_s", ep.ckpt_per_s(), "1/s");
        m.set(
            "wire_bytes_per_user_byte",
            ep.wire as f64 / ep.user.max(1) as f64,
            "ratio",
        );
        m.set("setup_s", setup, "s");
        sample_facts(&cuts, &lives, &mut facts);
        facts.push(("episodes", ep.count.to_string()));
        return Outcome {
            metrics: m,
            tally,
            facts,
            spans,
        };
    }
    let mut quiet = Spans::new(Instant::now(), false);
    let e_untraced = episodes(r.seed, r.seconds * 0.15, 0, &mut tally, &mut quiet);
    let e_traced = episodes(r.seed, r.seconds * 0.15, 1000, &mut tally, &mut spans);
    let server = inproc::start(&probe);
    let (untraced, _) = inproc::run(&server, &probe, r.seconds * 0.05, false);
    let (untraced_life, _) = inproc::lifecycle(&server, &probe, r.seconds * 0.05, false);
    let (traced, tspans) = inproc::run(&server, &probe, r.seconds * 0.05, true);
    let (traced_life, lspans) = inproc::lifecycle(&server, &probe, r.seconds * 0.05, true);
    tally.check(server.violations() == 0, || {
        format!("{} isolation violations", server.violations())
    });
    drop(server);
    let n = e_traced.count.max(1) as f64;
    m.set(
        "service.drr_rounds",
        e_traced.counters[0] as f64 / n,
        "count",
    );
    m.set(
        "service.admission_stalls",
        e_traced.counters[1] as f64 / n,
        "count",
    );
    m.set(
        "service.encode_shards",
        e_traced.counters[2] as f64 / n,
        "count",
    );
    m.set(
        "service.wire_wasted_bytes",
        e_traced.counters[3] as f64 / n,
        "bytes",
    );
    m.set("service.ckpt_per_s", e_traced.ckpt_per_s(), "1/s");
    m.set("transport.gave_up", e_traced.gave_up as f64 / n, "count");
    for out in [&untraced, &untraced_life, &traced, &traced_life] {
        tally.merge(out.tally.clone());
    }
    spans.append(tspans);
    spans.append(lspans);
    stages(
        &mut m,
        &mut tally,
        &mut spans,
        &probe.fleet,
        &probe.cfg,
        probe.horizon,
        &then(&traced, &traced_life),
        r.seconds,
    );
    client_and_trace(&mut m, &spans, &untraced, &untraced_life, &traced);
    m.set(
        "process.peak_rss_mb",
        crate::report::peak_rss_mb("self"),
        "MB",
    );
    // Overhead on the executor this workload is about: a span around each
    // run_service episode.
    let (u, t) = (e_untraced.ckpt_per_s(), e_traced.ckpt_per_s());
    m.set("trace.ckpt_per_s_untraced", u, "1/s");
    m.set("trace.ckpt_per_s_traced", t, "1/s");
    m.set(
        "trace.overhead_ratio",
        if t > 0.0 { u / t - 1.0 } else { 0.0 },
        "ratio",
    );
    facts.push(("episodes", (e_untraced.count + e_traced.count).to_string()));
    Outcome {
        metrics: m,
        tally,
        facts,
        spans,
    }
}
