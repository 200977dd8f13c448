//! `aicd` — the multi-tenant fleet checkpoint service, simulated mode.
//!
//! [`run_service`] is the deterministic discrete-event driver of the fleet
//! core: the one tenant commit/crash/recover/leave state machine that the
//! script-replay and wall-clock executors run too (DESIGN.md §9). It admits
//! N simulated tenants, each with its own checkpoint policy, crash
//! schedule, and working-set persona (a rank of a
//! [`crate::fleet::SharedDatasetFleet`]), all sharing:
//!
//! * **one [`CompressorPool`]** — every tenant's real encode work is
//!   submitted to the same shared pool, tagged with the tenant, and each
//!   tick waits for its cutters' jobs in cutter order; *virtual* encode
//!   time is dealt onto `cores` virtual encode cores by the pool's own
//!   deficit-round-robin (DRR) scheduler, so one heavy-dirty tenant cannot
//!   starve the light ones;
//! * **one write-behind [`crate::transport::NetworkTransport`]** — every
//!   tenant's L3 drain contends on the same SF-way fair-shared link behind
//!   one bounded queue (back-pressure stalls the cutter, it never drops);
//! * **one [`crate::recovery::StorageHierarchy`]** — a single
//!   `CheckpointLog` per level with per-tenant liveness marks (`job`-scoped
//!   anchor GC, gap-cuts, and departure reclamation) and epoch pins, so one
//!   tenant's recovery never races another tenant's compaction or anchor GC.
//!
//! What only this driver does: time advances in one-second ticks of a
//! virtual clock; admission is a bounded tenant-slot table plus
//! encode-demand back-pressure (while the virtual encode backlog exceeds
//! 30 s, waiting tenants **stall** in a FIFO queue — they are never
//! rejected); a recovery window closes once the recovery's read time has
//! passed; and the outcome is a [`ServiceReport`] with per-tenant wire
//! bytes attributed from acks, plus the `fleet.*` metrics, where
//! `fleet.drr_rounds` counts one round per tenant credit as the pool's
//! `PoolStats::rounds` does. The same seed and specs produce a byte-identical
//! report. Isolation invariants (bit-identical recovery against the
//! persona's pure-function state, pinned-reader safety under concurrent
//! compaction, full reclamation of departed tenants) are counted, not
//! panicked on, so sweeps can gate on
//! [`ServiceReport::isolation_violations`]` == 0`.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use aic_core::PolicyEnv;
use aic_delta::pa::{plan_shards, PaDeltaFile, PaParams};
use aic_delta::stats::{CostModel, EncodeReport};
use aic_model::FailureRates;
use aic_obs::{Counter, Field, Gauge, Histogram, Obs};

use crate::clock::{ClockSource, VirtualClock};
use crate::concurrent::{CompressorPool, Sched};
use crate::engine::{EngineConfig, TICK};
use crate::fleet::SharedDatasetFleet;
use crate::fleetcore::{
    build_cut, local_write_latency, FleetCore, RecoveryWindow, TenantCore, BLOCK_US_BUCKETS,
};
use crate::recovery::RecoveryError;
use crate::transport::{TransportEvent, TransportFaults};

/// When a tenant cuts: a fixed interval, or the adaptive w* recomputed
/// from its own running calibration means after every checkpoint.
#[derive(Debug, Clone, Copy)]
pub enum TenantPolicy {
    /// Cut every `w` virtual seconds of work.
    Fixed(f64),
    /// AIC: start from `bootstrap`, then re-solve the pooled w* from the
    /// tenant's running mean `c1`/`dl`/`ds`. The solver only ever sees the
    /// tenant's *intrinsic* encode latency (queue-free, full pool width),
    /// so its trajectory matches the solo-run oracle.
    Adaptive {
        /// Interval used until the first checkpoint calibrates the solver.
        bootstrap: f64,
    },
}

impl TenantPolicy {
    pub(crate) fn initial_w(self) -> f64 {
        match self {
            TenantPolicy::Fixed(w) => w,
            TenantPolicy::Adaptive { bootstrap } => bootstrap,
        }
    }
}

/// One tenant's static description: who it is, when it arrives, how it
/// checkpoints, and when it crashes.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Rank in the shared dataset fleet (the working-set persona).
    pub persona: usize,
    /// Checkpoint policy.
    pub policy: TenantPolicy,
    /// Virtual arrival time (admission may stall it further).
    pub join_at: f64,
    /// Checkpoints to cut before departing (≥ 1).
    pub rounds: u64,
    /// Crash schedule: `(virtual time, failure level 1..=3)`.
    pub crashes: Vec<(f64, usize)>,
}

/// Encode-demand back-pressure: admissions stall while the earliest virtual
/// core is busier than this many seconds ahead of now.
const BACKLOG_LIMIT: f64 = 30.0;

/// Fleet service knobs. All timing is virtual; one config + one spec list +
/// one fleet seed is one deterministic run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission slots: tenants concurrently active (≥ 1).
    pub slots: usize,
    /// Virtual encode cores (also the shared pool's plan width).
    pub cores: usize,
    /// DRR quantum, bytes of encode work credited per scheduling round.
    pub quantum_bytes: u64,
    /// Write-behind transport queue depth.
    pub queue_depth: usize,
    /// Shared L3 link bandwidth, bytes/s.
    pub b3: f64,
    /// SF-way fair-share factor on the link.
    pub sharing_factor: f64,
    /// Per-attempt link setup latency, seconds.
    pub link_latency: f64,
    /// Optional seeded transport faults.
    pub faults: Option<TransportFaults>,
    /// Log segment capacity per level, bytes.
    pub seg_capacity: usize,
    /// Content-addressed dedup on L2/L3 (shared pages stored once).
    pub dedup: bool,
    /// Cut a full anchor every N checkpoints per tenant.
    pub full_every: u64,
    /// Encode/disk latency model.
    pub cost_model: CostModel,
    /// Delta compressor parameters.
    pub pa: PaParams,
    /// Failure rates for the adaptive w* solver.
    pub rates: FailureRates,
    /// Observability bundle for `fleet.*` metrics and spans.
    pub obs: Option<Arc<Obs>>,
}

impl ServiceConfig {
    /// Small-fleet defaults: 2 MB/s shared link, 4 virtual cores, dedup
    /// on.
    pub fn fleet_default(rates: FailureRates) -> Self {
        ServiceConfig {
            slots: 64,
            cores: 4,
            quantum_bytes: 64 << 10,
            queue_depth: 64,
            b3: 2.0e6,
            sharing_factor: 1.0,
            link_latency: 1e-3,
            faults: None,
            seg_capacity: 4 << 20,
            dedup: true,
            full_every: 4,
            cost_model: CostModel::default(),
            pa: PaParams::default(),
            rates,
            obs: None,
        }
    }

    /// The testbed engine's deployment with this fleet's link, model and pool.
    pub fn policy_env(&self) -> PolicyEnv {
        PolicyEnv {
            b3: self.b3,
            cost_model: self.cost_model,
            sharing_factor: self.sharing_factor,
            cores: self.cores,
            ..EngineConfig::testbed(self.rates.clone()).policy_env()
        }
    }
}

/// Registered `fleet.*` metrics. [`register_metrics`] creates (and thereby
/// registers) every series, so replay artifacts carry the full catalogue
/// even for counters that stay zero.
#[derive(Debug, Clone)]
pub struct FleetObs {
    obs: Arc<Obs>,
    admitted: Counter,
    active: Gauge,
    waiting: Gauge,
    admission_stalls: Counter,
    cuts: Counter,
    block_us: Histogram,
    shards: Counter,
    drr_rounds: Counter,
    wire_bytes: Counter,
    wire_wasted: Counter,
    recoveries: Counter,
    pin_windows: Counter,
    violations: Counter,
    departures: Counter,
    gave_up: Counter,
}

/// Register the full `fleet.*` metric catalogue on `obs` and return the
/// handles. Idempotent per registry (names are stable statics).
pub fn register_metrics(obs: &Arc<Obs>) -> FleetObs {
    let m = &obs.metrics;
    FleetObs {
        obs: Arc::clone(obs),
        admitted: m.counter("fleet.tenants_admitted"),
        active: m.gauge("fleet.tenants_active"),
        waiting: m.gauge("fleet.tenants_waiting"),
        admission_stalls: m.counter("fleet.admission_stalls"),
        cuts: m.counter("fleet.cuts"),
        block_us: m.histogram("fleet.cut_block_us", &BLOCK_US_BUCKETS),
        shards: m.counter("fleet.encode_shards"),
        drr_rounds: m.counter("fleet.drr_rounds"),
        wire_bytes: m.counter("fleet.wire_bytes"),
        wire_wasted: m.counter("fleet.wire_wasted_bytes"),
        recoveries: m.counter("fleet.recoveries"),
        pin_windows: m.counter("fleet.pin_windows"),
        violations: m.counter("fleet.isolation_violations"),
        departures: m.counter("fleet.departures"),
        gave_up: m.counter("fleet.transfers_gave_up"),
    }
}

/// Per-tenant outcome of a service run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant id (index into the spec list).
    pub id: usize,
    /// Checkpoints committed (replays after a crash count).
    pub cuts: u64,
    /// Final checkpoint interval.
    pub final_w: f64,
    /// w after every cut, in cut order — the solo-divergence observable.
    pub w_trajectory: Vec<f64>,
    /// Worst cut-blocking time, seconds.
    pub max_block: f64,
    /// p99 cut-blocking time, seconds.
    pub p99_block: f64,
    /// Wire bytes attributed to this tenant (shipped + wasted retries).
    pub wire_bytes: u64,
    /// Seconds between arrival and admission.
    pub admission_wait: f64,
    /// Crash recoveries performed.
    pub recoveries: u64,
    /// Departure-time recovery verified bit-identical (`None` when
    /// nothing was recoverable).
    pub verified: Option<bool>,
}

/// Aggregate outcome of a service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Tenants served.
    pub tenants: usize,
    /// Total checkpoints committed.
    pub cuts: u64,
    /// Virtual makespan: last cut completion / final ack, seconds.
    pub makespan: f64,
    /// Aggregate checkpoint throughput, checkpoints per virtual second.
    pub throughput_cps: f64,
    /// Total wire bytes (shipped + wasted) across all tenants.
    pub wire_bytes: u64,
    /// p99 cut-blocking time across every cut of every tenant, seconds.
    pub p99_block: f64,
    /// Mean cut-blocking time, seconds.
    pub mean_block: f64,
    /// Worst admission wait, seconds.
    pub max_admission_wait: f64,
    /// Isolation invariant violations (must be 0).
    pub isolation_violations: u64,
    /// Transfers that exhausted their retry budget.
    pub gave_up: u64,
    /// Per-tenant breakdown, by tenant id.
    pub per_tenant: Vec<TenantReport>,
}

impl ServiceReport {
    /// True when every isolation invariant held and every verified tenant
    /// recovered bit-identically.
    pub fn clean(&self) -> bool {
        self.isolation_violations == 0 && self.per_tenant.iter().all(|t| t.verified != Some(false))
    }
}

/// `q`-th percentile (0..=1) of an unsorted sample, by sorted index.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    // Nearest-rank: the smallest value ≥ q of the distribution.
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.saturating_sub(1).min(s.len() - 1)]
}

#[derive(Debug)]
enum TenantState {
    NotJoined,
    Waiting,
    Working,
    Cutting,
    /// Down until `until`, holding the recovery's pinned read window.
    Recovering {
        until: f64,
        window: RecoveryWindow,
    },
    Departed,
}

/// One cut's encode job: when the cut started, when its local write is
/// done, and a delta's payload (already encoded by the shared pool; none
/// for an anchor). The cut itself is built when the job commits.
#[derive(Debug)]
struct EncodeJob {
    started: f64,
    ready: f64,
    delta: Option<(PaDeltaFile, EncodeReport)>,
}

#[derive(Debug)]
struct Tenant {
    spec: TenantSpec,
    core: TenantCore,
    state: TenantState,
    work_done: f64,
    busy_until: f64,
    crash_idx: usize,
    w_trajectory: Vec<f64>,
    blockings: Vec<f64>,
    wire_bytes: u64,
    admission_wait: f64,
    recoveries: u64,
    verified: Option<bool>,
}

impl Tenant {
    fn new(spec: TenantSpec, id: usize) -> Self {
        Tenant {
            core: TenantCore::new(spec.persona, spec.policy, spec.rounds, id),
            spec,
            state: TenantState::NotJoined,
            work_done: 0.0,
            busy_until: 0.0,
            crash_idx: 0,
            w_trajectory: Vec::new(),
            blockings: Vec::new(),
            wire_bytes: 0,
            admission_wait: 0.0,
            recoveries: 0,
            verified: None,
        }
    }

    fn is_active(&self) -> bool {
        matches!(
            self.state,
            TenantState::Working | TenantState::Cutting | TenantState::Recovering { .. }
        )
    }
}

/// A matured encode job waiting for its virtual completion time so it can
/// commit in global `(time, tenant)` order.
#[derive(Debug)]
struct MaturedJob {
    /// Completion: the ready time, raised to the end of every shard the
    /// job's encode placed on a virtual core.
    at: f64,
    tenant: usize,
    job: EncodeJob,
}

/// The simulated driver: the fleet core plus what only this driver keeps —
/// tenant schedules and reports, per-tenant wire attribution, matured jobs
/// and the run totals.
struct Service<'a> {
    fleet: &'a SharedDatasetFleet,
    cfg: &'a ServiceConfig,
    fobs: Option<FleetObs>,
    core: FleetCore,
    tenants: Vec<Tenant>,
    /// Global seq → owning tenant, for wire attribution.
    seq_owner: HashMap<u64, usize>,
    matured: Vec<MaturedJob>,
    total_cuts: u64,
    total_wire: u64,
    gave_up: u64,
    horizon: f64,
}

impl Service<'_> {
    /// Account terminal transport events (their acks already landed):
    /// attribute wire bytes (shipped + wasted retries) to the owning tenant.
    fn account(&mut self, events: &[TransportEvent]) {
        for ev in events {
            match *ev {
                TransportEvent::Acked {
                    seq,
                    at,
                    bytes,
                    wasted,
                    ..
                } => {
                    self.horizon = self.horizon.max(at);
                    let shipped = bytes + wasted;
                    if let Some(&id) = self.seq_owner.get(&seq) {
                        self.tenants[id].wire_bytes += shipped;
                    }
                    self.total_wire += shipped;
                    if let Some(o) = &self.fobs {
                        o.wire_bytes.add(bytes);
                        o.wire_wasted.add(wasted);
                    }
                }
                TransportEvent::GaveUp { at, .. } => {
                    self.horizon = self.horizon.max(at);
                    self.gave_up += 1;
                    if let Some(o) = &self.fobs {
                        o.gave_up.inc();
                    }
                }
            }
        }
    }

    /// Commit a matured job at its virtual completion time; the tenant
    /// departs after its last round.
    fn commit(&mut self, m: MaturedJob) -> Result<(), RecoveryError> {
        let id = m.tenant;
        if !matches!(self.tenants[id].state, TenantState::Cutting) {
            return Ok(()); // crashed while the job was in flight
        }
        let t = &mut self.tenants[id].core;
        let cut = build_cut(self.fleet, self.cfg, t, || {
            m.job.delta.expect("a delta job carries its payload")
        });
        let c = self.core.commit(t, cut, m.at)?;
        self.seq_owner.insert(c.seq, id);
        self.account(&c.events);
        let cut_end = m.at + c.c2 + c.stalled_for;
        let blocking = cut_end - m.job.started;
        self.horizon = self.horizon.max(cut_end);
        self.total_cuts += 1;
        let t = &mut self.tenants[id];
        t.blockings.push(blocking);
        t.w_trajectory.push(t.core.w);
        t.work_done = 0.0;
        t.busy_until = cut_end;
        t.state = TenantState::Working;
        if let Some(o) = &self.fobs {
            o.cuts.inc();
            o.block_us.observe((blocking * 1e6).round() as u64);
        }
        if t.core.commits >= t.spec.rounds {
            self.depart(id);
        }
        Ok(())
    }

    /// Crash tenant `id` at `level`: its in-flight cut dies with the node,
    /// and the recovery window stays open for the recovery's read time.
    fn crash(&mut self, id: usize, level: usize, now: f64) -> Result<(), RecoveryError> {
        self.matured.retain(|m| m.tenant != id);
        let t = &mut self.tenants[id];
        let (window, _) = self.core.crash(self.fleet, &mut t.core, level)?;
        t.recoveries += 1;
        let tenant: Field = ("tenant", (id as u64).into());
        if let Some(o) = &self.fobs {
            o.recoveries.inc();
            let level = ("level", (level as u64).into());
            o.obs
                .spans
                .point("fleet.crash", now, vec![tenant.clone(), level]);
        }
        if window.level == 0 {
            // Nothing recoverable anywhere (crashed before the first
            // anchor acked): restart from scratch.
            t.work_done = 0.0;
            t.busy_until = now;
            t.state = TenantState::Working;
            if let Some(o) = &self.fobs {
                let fields = vec![tenant, ("from_scratch", true.into())];
                o.obs.spans.point("fleet.recover", now, fields);
            }
            return Ok(());
        }
        if let Some(o) = &self.fobs {
            o.pin_windows.inc();
            let fields = vec![
                tenant,
                ("level", (window.level as u64).into()),
                ("round", window.round.into()),
                ("identical", window.identical.into()),
            ];
            o.obs.spans.point("fleet.recover", now, fields);
        }
        t.state = TenantState::Recovering {
            until: now + window.read_seconds.max(TICK),
            window,
        };
        Ok(())
    }

    /// Depart tenant `id` through the core's leave step.
    fn depart(&mut self, id: usize) {
        let t = &mut self.tenants[id];
        t.verified = self.core.leave(self.fleet, &t.core).verified;
        t.state = TenantState::Departed;
        if let Some(o) = &self.fobs {
            o.departures.inc();
            o.obs.spans.point(
                "fleet.leave",
                t.busy_until,
                vec![
                    ("tenant", (id as u64).into()),
                    ("cuts", t.core.commits.into()),
                ],
            );
        }
    }

    fn active(&self) -> usize {
        self.tenants.iter().filter(|t| t.is_active()).count()
    }
}

/// Run the fleet service to completion: every tenant joins, cuts its
/// rounds (crashing and recovering per its schedule), and departs. The
/// fleet's pure-function personas double as the solo-run oracle: a
/// recovered image is correct iff it equals `fleet.snapshot(persona, r)`
/// for the recovered round `r`.
///
/// Deterministic: same fleet (seed), specs, and config produce an
/// identical report.
pub fn run_service(
    fleet: &SharedDatasetFleet,
    specs: &[TenantSpec],
    cfg: &ServiceConfig,
) -> Result<ServiceReport, RecoveryError> {
    assert!(cfg.slots >= 1, "need at least one admission slot");
    assert!(cfg.cores >= 1, "need at least one encode core");
    assert!(cfg.full_every >= 1, "full_every must be >= 1");
    for s in specs {
        assert!(s.rounds >= 1, "tenants must cut at least one checkpoint");
        assert!(s.persona < fleet.ranks(), "persona outside the fleet");
    }

    let fobs = cfg.obs.as_ref().map(register_metrics);
    let core = FleetCore::new(cfg, fobs.as_ref().map(|o| o.violations.clone()));
    let pool = CompressorPool::spawn(cfg.cores, cfg.quantum_bytes, cfg.obs.as_ref());
    let mut svc = Service {
        fleet,
        cfg,
        fobs,
        core,
        tenants: specs
            .iter()
            .enumerate()
            .map(|(i, s)| Tenant::new(s.clone(), i))
            .collect(),
        seq_owner: HashMap::new(),
        matured: Vec::new(),
        total_cuts: 0,
        total_wire: 0,
        gave_up: 0,
        horizon: 0.0,
    };
    let mut admission_q: VecDeque<usize> = VecDeque::new();
    let mut cores: Vec<f64> = vec![0.0; cfg.cores];
    let clock = VirtualClock::new();
    let mut ticks: u64 = 0;

    loop {
        let now = clock.now();
        ticks += 1;
        assert!(
            ticks < 50_000_000,
            "fleet service failed to converge (virtual clock {now:.1}s)"
        );

        // 1. Network: drains that completed by this tick.
        let events = svc.core.land_acks(now)?;
        svc.account(&events);

        // 2. Matured encode jobs commit in global (completion, tenant)
        // order — the log's global seq order is exactly this order.
        svc.matured
            .sort_by(|a, b| a.at.total_cmp(&b.at).then(a.tenant.cmp(&b.tenant)));
        let (due, rest): (Vec<MaturedJob>, Vec<MaturedJob>) =
            svc.matured.drain(..).partition(|m| m.at <= now);
        svc.matured = rest;
        for m in due {
            svc.commit(m)?;
        }

        // 3. Crashes due by now (Working or Cutting tenants only; a tenant
        // mid-recovery defers its next crash until it is back up).
        let mut crashes: Vec<(f64, usize, usize)> = Vec::new();
        for (id, t) in svc.tenants.iter().enumerate() {
            if !matches!(t.state, TenantState::Working | TenantState::Cutting) {
                continue;
            }
            if let Some(&(at, level)) = t.spec.crashes.get(t.crash_idx) {
                if at <= now {
                    crashes.push((at, id, level));
                }
            }
        }
        crashes.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (_, id, level) in crashes {
            svc.tenants[id].crash_idx += 1;
            svc.crash(id, level, now)?;
        }

        // 4. Recovery windows that close by now: the pinned locations must
        // still be readable, then the pins release and the tenant resumes.
        for t in svc.tenants.iter_mut() {
            match std::mem::replace(&mut t.state, TenantState::Working) {
                TenantState::Recovering { until, window } if until <= now => {
                    svc.core.close_window(window);
                    t.work_done = 0.0;
                    t.busy_until = now;
                }
                other => t.state = other,
            }
        }

        // 5. Admission: arrivals queue FIFO; the gate admits while slots
        // are free and the encode backlog is under the limit. A blocked
        // head stalls (counted) — it is never dropped.
        for (id, t) in svc.tenants.iter_mut().enumerate() {
            if matches!(t.state, TenantState::NotJoined) && t.spec.join_at <= now {
                t.state = TenantState::Waiting;
                admission_q.push_back(id);
            }
        }
        let backlog = cores.iter().copied().fold(f64::INFINITY, f64::min) - now;
        while let Some(&head) = admission_q.front() {
            if svc.active() >= cfg.slots || backlog > BACKLOG_LIMIT {
                if let Some(o) = &svc.fobs {
                    o.admission_stalls.inc();
                }
                break;
            }
            admission_q.pop_front();
            let t = &mut svc.tenants[head];
            t.admission_wait = now - t.spec.join_at;
            t.busy_until = now;
            t.state = TenantState::Working;
            if let Some(o) = &svc.fobs {
                o.admitted.inc();
                o.obs.spans.point(
                    "fleet.join",
                    now,
                    vec![
                        ("tenant", (head as u64).into()),
                        ("waited_us", ((t.admission_wait * 1e6) as u64).into()),
                    ],
                );
            }
        }
        if let Some(o) = &svc.fobs {
            o.active.set(svc.active() as f64);
            o.waiting.set(admission_q.len() as f64);
        }

        // 6. Work accrual and cut decisions, tenant order. Every delta
        // cutter's real encode is submitted to the shared pool before any
        // is waited for; virtual encode time is scheduled below.
        let mut cutters: Vec<usize> = Vec::new();
        for (id, t) in svc.tenants.iter_mut().enumerate() {
            if !matches!(t.state, TenantState::Working) || t.busy_until > now {
                continue;
            }
            t.work_done += TICK;
            if t.work_done + 1e-9 >= t.core.w {
                cutters.push(id);
            }
        }
        let mut pending = Vec::new();
        for &id in &cutters {
            let t = &svc.tenants[id].core;
            if !t.next_is_full(cfg.full_every) {
                let (prev, dirty) = t.delta_inputs(fleet);
                pending.push(pool.submit(t.job, prev, dirty, cfg.pa));
            }
        }
        let mut pending = pending.into_iter();
        let mut sched = Sched::default();
        let mut jobs = Vec::with_capacity(cutters.len());
        for &id in &cutters {
            let t = &mut svc.tenants[id];
            let ready = now + local_write_latency(fleet, cfg, t.core.persona);
            let (plan, delta) = if t.core.next_is_full(cfg.full_every) {
                (Vec::new(), None)
            } else {
                let encoded = pending.next().expect("one pool job per delta cut").wait();
                let pages = fleet.pages_of(t.core.persona);
                (plan_shards(pages, cfg.cores), Some(encoded))
            };
            t.state = TenantState::Cutting;
            sched.push(id as u64, jobs.len(), plan);
            let job = EncodeJob {
                started: now,
                ready,
                delta,
            };
            jobs.push(MaturedJob {
                at: ready,
                tenant: id,
                job,
            });
        }

        // 7. Virtual encode time: the pool's deficit-round-robin scheduler
        // deals this tick's jobs, shards planned over each persona's pages
        // (an anchor has none and matures at its ready time). Each shard
        // runs on the earliest-free virtual core for its page share of the
        // job's delta latency, so one heavy-dirty tenant cannot starve the
        // light ones. Every tick drains the scheduler, so no credit carries
        // over.
        while let Some((i, shard)) = sched.pick(cfg.quantum_bytes.max(1)) {
            let Some((_, shard)) = shard else { continue };
            let m = &mut jobs[i];
            let (_, report) = m.job.delta.as_ref().expect("a delta job has shards");
            let pages = fleet.pages_of(svc.tenants[m.tenant].core.persona);
            let secs = cfg.cost_model.delta_latency(report) * shard.len() as f64 / pages as f64;
            let core = cores
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("cores is non-empty");
            let start = m.job.ready.max(cores[core]).max(now);
            cores[core] = start + secs;
            m.at = m.at.max(cores[core]);
            if let Some(o) = &svc.fobs {
                o.shards.inc();
            }
        }
        if let Some(o) = &svc.fobs {
            o.drr_rounds.add(sched.rounds);
        }
        svc.matured.extend(jobs);

        if svc
            .tenants
            .iter()
            .all(|t| matches!(t.state, TenantState::Departed))
        {
            break;
        }
        clock.advance(TICK);
    }
    let now = clock.now();

    // Late drains of the final commits (everything else was cancelled at
    // departure) settle the clock.
    let (events, idle_at) = svc.core.quiesce()?;
    svc.account(&events);
    let horizon = svc.horizon.max(idle_at.min(now)).max(now);
    svc.core.hier.try_reclaim_all();
    // Every tenant departed and was retired, so a live byte on any level
    // is a leak — a departed tenant's records were not fully reclaimed.
    for stats in svc.core.hier.log_stats() {
        if stats.live_bytes != 0 || stats.live_records != 0 {
            svc.core.note_violation();
        }
    }

    let tenants = &svc.tenants;
    let all_block: Vec<f64> = tenants.iter().flat_map(|t| t.blockings.clone()).collect();
    let mean_block = if all_block.is_empty() {
        0.0
    } else {
        all_block.iter().sum::<f64>() / all_block.len() as f64
    };
    let per_tenant = tenants
        .iter()
        .enumerate()
        .map(|(id, t)| TenantReport {
            id,
            cuts: t.core.commits,
            final_w: t.core.w,
            w_trajectory: t.w_trajectory.clone(),
            max_block: t.blockings.iter().copied().fold(0.0, f64::max),
            p99_block: percentile(&t.blockings, 0.99),
            wire_bytes: t.wire_bytes,
            admission_wait: t.admission_wait,
            recoveries: t.recoveries,
            verified: t.verified,
        })
        .collect();
    Ok(ServiceReport {
        tenants: tenants.len(),
        cuts: svc.total_cuts,
        makespan: horizon,
        throughput_cps: if horizon > 0.0 {
            svc.total_cuts as f64 / horizon
        } else {
            0.0
        },
        wire_bytes: svc.total_wire,
        p99_block: percentile(&all_block, 0.99),
        mean_block,
        max_admission_wait: tenants.iter().map(|t| t.admission_wait).fold(0.0, f64::max),
        isolation_violations: svc.core.violations(),
        gave_up: svc.gave_up,
        per_tenant,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aic_model::FailureRates;

    fn rates() -> FailureRates {
        FailureRates::new(vec![3e-4, 2e-4, 1e-4])
    }

    fn small_cfg() -> ServiceConfig {
        let mut cfg = ServiceConfig::fleet_default(rates());
        cfg.cores = 2;
        cfg.slots = 8;
        cfg.b3 = 1.0e6;
        cfg.full_every = 3;
        cfg
    }

    fn spec(persona: usize, rounds: u64) -> TenantSpec {
        TenantSpec {
            persona,
            policy: TenantPolicy::Fixed(3.0),
            join_at: 0.0,
            rounds,
            crashes: Vec::new(),
        }
    }

    #[test]
    fn two_tenants_run_clean_and_deterministic() {
        let fleet = SharedDatasetFleet::heterogeneous(vec![4, 7], 50, 9);
        let specs = vec![spec(0, 4), spec(1, 4)];
        let cfg = small_cfg();
        let a = run_service(&fleet, &specs, &cfg).unwrap();
        let b = run_service(&fleet, &specs, &cfg).unwrap();
        assert!(a.clean(), "violations: {}", a.isolation_violations);
        assert_eq!(a.cuts, 8);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.wire_bytes, b.wire_bytes);
        assert_eq!(a.p99_block.to_bits(), b.p99_block.to_bits());
        for (x, y) in a.per_tenant.iter().zip(&b.per_tenant) {
            assert_eq!(x.cuts, y.cuts);
            assert_eq!(x.final_w.to_bits(), y.final_w.to_bits());
            assert_eq!(x.verified, Some(true));
        }
    }

    #[test]
    fn crash_recovers_bit_identical_and_pins_hold() {
        let fleet = SharedDatasetFleet::heterogeneous(vec![5, 5, 9], 40, 21);
        let mut specs = vec![spec(0, 5), spec(1, 5), spec(2, 5)];
        specs[1].crashes = vec![(8.0, 1), (14.0, 3)];
        specs[2].crashes = vec![(11.0, 2)];
        let cfg = small_cfg();
        let rep = run_service(&fleet, &specs, &cfg).unwrap();
        assert!(rep.clean(), "violations: {}", rep.isolation_violations);
        assert!(rep.per_tenant[1].recoveries >= 1);
        assert!(rep.per_tenant[2].recoveries >= 1);
        assert!(rep.per_tenant.iter().all(|t| t.verified == Some(true)));
    }

    #[test]
    fn admission_gate_stalls_but_serves_everyone() {
        let fleet = SharedDatasetFleet::new(6, 4, 25, 5);
        let specs: Vec<TenantSpec> = (0..6).map(|i| spec(i, 2)).collect();
        let mut cfg = small_cfg();
        cfg.slots = 2;
        let rep = run_service(&fleet, &specs, &cfg).unwrap();
        assert!(rep.clean());
        assert_eq!(rep.cuts, 12, "every stalled tenant still served");
        assert!(rep.max_admission_wait > 0.0, "slots forced a wait");
    }

    #[test]
    fn adaptive_policy_matches_solo_oracle_exactly() {
        let fleet = SharedDatasetFleet::heterogeneous(vec![4, 12], 50, 33);
        let adaptive = |p: usize| TenantSpec {
            persona: p,
            policy: TenantPolicy::Adaptive { bootstrap: 3.0 },
            join_at: 0.0,
            rounds: 5,
            crashes: Vec::new(),
        };
        let cfg = small_cfg();
        let shared = run_service(&fleet, &[adaptive(0), adaptive(1)], &cfg).unwrap();
        for (i, t) in shared.per_tenant.iter().enumerate() {
            let solo = run_service(&fleet, &[adaptive(i)], &cfg).unwrap();
            assert_eq!(
                t.w_trajectory, solo.per_tenant[0].w_trajectory,
                "tenant {i} w* trajectory diverged from its solo oracle"
            );
        }
    }

    /// Pins the multi-tenant virtual encode schedule, which the
    /// single-tenant golden replay cannot exercise: eight heterogeneous
    /// tenants (Adaptive and two Fixed intervals) join in pairs through
    /// five slots onto three virtual cores, and a one-page quantum makes
    /// every shard wait for credit, so deficit round robin preempts at
    /// every shard boundary; crashes hit levels 1-3. A change to any of
    /// these bits is a change to the schedule.
    #[test]
    fn multi_tenant_virtual_schedule_is_pinned() {
        let fleet = SharedDatasetFleet::heterogeneous(vec![3, 9, 5, 14, 7, 11, 4, 8], 40, 17);
        let mut cfg = small_cfg();
        cfg.cores = 3;
        cfg.slots = 5;
        cfg.quantum_bytes = aic_memsim::PAGE_SIZE as u64;
        let crashes = [
            vec![],
            vec![(9.0, 1)],
            vec![(7.0, 3)],
            vec![(12.0, 2)],
            vec![],
            vec![(15.0, 3), (24.0, 1)],
            vec![(10.0, 2)],
            vec![],
        ];
        let specs: Vec<TenantSpec> = crashes
            .into_iter()
            .enumerate()
            .map(|(i, crashes)| TenantSpec {
                persona: i,
                policy: if i % 3 == 0 {
                    TenantPolicy::Adaptive { bootstrap: 2.0 }
                } else {
                    TenantPolicy::Fixed(2.0 + (i % 2) as f64)
                },
                join_at: (i / 2) as f64 * 2.0,
                rounds: 6,
                crashes,
            })
            .collect();
        let rep = run_service(&fleet, &specs, &cfg).unwrap();
        assert!(rep.clean(), "violations: {}", rep.isolation_violations);
        assert_eq!(rep.cuts, 48);
        assert_eq!(rep.makespan.to_bits(), 0x4041000000000000);
        assert_eq!(rep.p99_block.to_bits(), 0x3fa765577cee4400);
        assert_eq!(rep.mean_block.to_bits(), 0x3f8e3d51de978a48);
        let (one, two, three) = (0x3ff00000bcf3d874, 0x4000000000000000, 0x4008000000000000);
        let adaptive3 = [
            0x3ff61f03c4b9147a,
            0x3ff61e3f505962f4,
            0x3ff61e0cb959c5ac,
            0x3ff61e3f505962f4,
            0x3ff61e1f7bd853ae,
            0x3ff61e0b3f7214c6,
        ];
        let want: [(u64, [u64; 6]); 8] = [
            (0x3f8aa77cb6c06800, [one; 6]),
            (0x3f9e14950e56ea00, [three; 6]),
            (0x3f8ad26fd484c800, [two; 6]),
            (0x3fa765577cee4400, adaptive3),
            (0x3f9418757bab0a00, [two; 6]),
            (0x3fa4085a50816600, [three; 6]),
            (0x3f90ab5d24148400, [one; 6]),
            (0x3f9abcf645a29800, [three; 6]),
        ];
        for (t, (max_block, w)) in rep.per_tenant.iter().zip(want) {
            assert_eq!(t.max_block.to_bits(), max_block, "tenant {}", t.id);
            let bits: Vec<u64> = t.w_trajectory.iter().map(|w| w.to_bits()).collect();
            assert_eq!(bits, w, "tenant {}", t.id);
        }
    }

    #[test]
    fn percentile_is_sorted_index() {
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[5.0], 0.5), 5.0);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
    }
}
