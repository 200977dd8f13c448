//! The wall-clock fleet server: real threads, real contention, same records.
//!
//! [`FleetServer`] runs the multi-tenant checkpoint service in *wall-clock*
//! mode. Each [`TenantSession`] is a driver of the same fleet core —
//! the one tenant commit/crash/recover/leave state machine that
//! [`crate::service::run_service`] and [`crate::script::run_script_sim`]
//! run (DESIGN.md §9) — over the same storage hierarchy, write-behind
//! transport, checkpoint logs, dedup store and adaptive solver. Only what
//! really differs lives here:
//!
//! * time comes from a [`MonotonicClock`]; tenant sessions live on OS
//!   threads, and admission **blocks real callers**: a joiner takes a FIFO
//!   ticket (its session id) and waits on the shared state's condvar until
//!   its ticket is served and a slot is free;
//! * every session encodes through one shared [`CompressorPool`], tagged
//!   with its tenant, so cuts are scheduled preemptively across the workers
//!   at **shard granularity** (deficit round robin);
//! * transport back-pressure blocks the cutting caller, and a level-3
//!   crash polls until the tenant's own L3 drains are acknowledged;
//! * a recovery window stays open until the session's `recover` call;
//! * the output is the session's record stream plus `fleet.wc.*` metrics.
//!
//! That is what makes the oracle contract (DESIGN.md §10) checkable:
//! replaying one tenant script through [`run_script_wallclock`] and through
//! [`crate::script::run_script_sim`] must yield identical
//! [`FleetStreams`], even though every timing and interleaving differs.
//!
//! Wall-clock observability is **Volatile-class** end to end: the
//! `fleet.wc.*` metrics and span points registered here are excluded from
//! deterministic snapshots, so the golden-replay artifacts are untouched
//! by this mode existing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use aic_obs::{Counter, Gauge, Histogram, Obs, Volatility};

use crate::clock::{ClockSource, MonotonicClock};
use crate::concurrent::{CompressorPool, PoolStats};
use crate::fleet::SharedDatasetFleet;
use crate::fleetcore::{build_cut, FleetCore, RecoveryWindow, TenantCore, BLOCK_US_BUCKETS};
use crate::recovery::RecoveryError;
use crate::script::{FleetStreams, RecordStream, Recorder, StreamEvent, TenantCmd, TenantScript};
use crate::service::{ServiceConfig, TenantPolicy};

/// How often blocked callers re-poll shared state (admission is
/// condvar-driven and does not poll; this is for transport back-pressure
/// and the level-3 drain barrier).
const POLL: Duration = Duration::from_micros(200);

/// How often the background drainer applies completed transport drains.
const DRAIN_TICK: Duration = Duration::from_millis(1);

// ---------------------------------------------------------------------------
// Wall-clock observability (Volatile-class)
// ---------------------------------------------------------------------------

/// Volatile `fleet.wc.*` metric handles. Every series registered here is
/// [`Volatility::Volatile`]: wall-clock runs never contaminate a
/// deterministic snapshot, keeping the golden-replay artifacts stable.
struct WcObs {
    obs: Arc<Obs>,
    admitted: Counter,
    active: Gauge,
    cuts: Counter,
    block_us: Histogram,
    shards: Counter,
    preemptions: Counter,
    drr_rounds: Counter,
    wire_bytes: Counter,
    recoveries: Counter,
    departures: Counter,
    violations: Counter,
}

fn wc_metrics(obs: &Arc<Obs>) -> WcObs {
    let m = &obs.metrics;
    let v = Volatility::Volatile;
    WcObs {
        obs: Arc::clone(obs),
        admitted: m.counter_with("fleet.wc.tenants_admitted", v),
        active: m.gauge_with("fleet.wc.tenants_active", v),
        cuts: m.counter_with("fleet.wc.cuts", v),
        block_us: m.histogram_with("fleet.wc.cut_block_us", &BLOCK_US_BUCKETS, v),
        shards: m.counter_with("fleet.wc.encode_shards", v),
        preemptions: m.counter_with("fleet.wc.preemptions", v),
        drr_rounds: m.counter_with("fleet.wc.drr_rounds", v),
        wire_bytes: m.counter_with("fleet.wc.wire_bytes", v),
        recoveries: m.counter_with("fleet.wc.recoveries", v),
        departures: m.counter_with("fleet.wc.departures", v),
        violations: m.counter_with("fleet.wc.isolation_violations", v),
    }
}

impl WcObs {
    /// Advance the encode counters from `seen` to the pool's totals `now`
    /// (monotone, so the differences are never negative).
    fn mirror_pool(&self, seen: &mut PoolStats, now: PoolStats) {
        self.shards.add(now.shards - seen.shards);
        self.preemptions.add(now.preemptions - seen.preemptions);
        self.drr_rounds.add(now.rounds - seen.rounds);
        *seen = now;
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// State every session thread shares under one mutex: the fleet core (the
/// storage hierarchy, the write-behind transport, the global commit seq)
/// and the server's counters. Commit + enqueue + GC happen in one critical
/// section, so the per-tenant observables the oracle compares are
/// race-free by construction.
struct Shared {
    core: FleetCore,
    /// Admission tickets handed out; a joiner's ticket is its session id.
    next_session: usize,
    /// Sessions admitted, which is also the ticket being served.
    admitted: u64,
    active: u64,
    cuts: u64,
    wire_bytes: u64,
    recoveries: u64,
    departures: u64,
    /// Pool counters already mirrored into `fleet.wc.*`.
    pool_seen: PoolStats,
}

impl Shared {
    /// Wake the joiners if a ticket is waiting: the next one may now be at
    /// the head with a free slot. Nobody waiting, no wakeup.
    fn wake_next(&self, admit: &Condvar) {
        if self.next_session as u64 > self.admitted {
            admit.notify_all();
        }
    }
}

/// Live snapshot of the server's counters — the `stats` RPC payload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetStats {
    /// Seconds since the server started.
    pub uptime: f64,
    /// Sessions currently admitted.
    pub active: u64,
    /// Sessions admitted since start.
    pub admitted: u64,
    /// Callers waiting for their admission ticket right now.
    pub waiting: u64,
    /// Checkpoints committed.
    pub cuts: u64,
    /// Crash recoveries served.
    pub recoveries: u64,
    /// Sessions departed.
    pub departures: u64,
    /// Isolation violations observed (must stay 0).
    pub violations: u64,
    /// Bytes handed to the write-behind transport.
    pub wire_bytes: u64,
    /// L3 drains currently in flight.
    pub in_flight: u64,
    /// Encode shards completed by the shared pool.
    pub shards: u64,
    /// Tenants preempted at a shard boundary.
    pub preemptions: u64,
    /// DRR credit rounds.
    pub drr_rounds: u64,
}

impl FleetStats {
    /// One `name value` pair per line, sorted — what `aicctl fleet stats`
    /// prints and what the RPC ships.
    pub fn render(&self) -> String {
        format!(
            "fleet.wc.uptime_s {:.3}\nfleet.wc.tenants_active {}\nfleet.wc.tenants_admitted {}\nfleet.wc.tenants_waiting {}\nfleet.wc.cuts {}\nfleet.wc.recoveries {}\nfleet.wc.departures {}\nfleet.wc.isolation_violations {}\nfleet.wc.wire_bytes {}\nfleet.wc.drains_in_flight {}\nfleet.wc.encode_shards {}\nfleet.wc.preemptions {}\nfleet.wc.drr_rounds {}\n",
            self.uptime,
            self.active,
            self.admitted,
            self.waiting,
            self.cuts,
            self.recoveries,
            self.departures,
            self.violations,
            self.wire_bytes,
            self.in_flight,
            self.shards,
            self.preemptions,
            self.drr_rounds,
        )
    }
}

/// The wall-clock fleet service: the fleet core behind a blocking,
/// thread-safe session API.
///
/// Sessions ([`TenantSession`]) borrow the server, so the server outlives
/// every session by construction; dropping the server joins the encode
/// workers and the background drainer.
pub struct FleetServer {
    fleet: SharedDatasetFleet,
    cfg: ServiceConfig,
    clock: MonotonicClock,
    pool: CompressorPool,
    shared: Arc<Mutex<Shared>>,
    /// Wakes joiners waiting on `shared` for their admission ticket.
    admit: Condvar,
    wc: Option<WcObs>,
    stop: Arc<AtomicBool>,
    drainer: Option<thread::JoinHandle<()>>,
}

impl FleetServer {
    /// Start the server: build the fleet core from `cfg` (exactly as the
    /// simulator does), spawn the encode pool (`cfg.cores` wide, crediting
    /// `cfg.quantum_bytes` per DRR round) and the transport drainer.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.slots` is 0: every JOIN would wait forever for
    /// admission. Panics if `cfg.faults` is set: fault injection remains
    /// simulator-only — a wall-clock transfer that gave up would park the
    /// level-3 drain barrier forever and break the oracle contract.
    pub fn start(fleet: SharedDatasetFleet, cfg: ServiceConfig) -> Self {
        assert!(cfg.slots >= 1, "need at least one admission slot");
        assert!(
            cfg.faults.is_none(),
            "wall-clock mode requires a fault-free transport"
        );
        let wc = cfg.obs.as_ref().map(wc_metrics);
        // The hierarchy/transport get no Stable-class obs in this mode:
        // wall-clock interleavings would write nondeterministic values
        // into series the deterministic snapshot considers reproducible.
        let mut quiet = cfg.clone();
        quiet.obs = None;
        let shared = Arc::new(Mutex::new(Shared {
            core: FleetCore::new(&quiet, wc.as_ref().map(|o| o.violations.clone())),
            next_session: 0,
            admitted: 0,
            active: 0,
            cuts: 0,
            wire_bytes: 0,
            recoveries: 0,
            departures: 0,
            pool_seen: PoolStats::default(),
        }));
        let clock = MonotonicClock::new();
        let stop = Arc::new(AtomicBool::new(false));
        let drainer = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let clock = clock.clone();
            thread::Builder::new()
                .name("aic-drainer".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let mut sh = shared.lock().unwrap();
                        sh.core
                            .land_acks(clock.now())
                            .expect("drainer applies acks");
                        drop(sh);
                        thread::sleep(DRAIN_TICK);
                    }
                })
                .expect("spawn drainer")
        };
        // No obs: the pool's `pool.*` series are Stable-class, and
        // wall-clock scheduling would write nondeterministic values into
        // them. `fleet.wc.*` mirrors the pool's counters instead.
        let pool = CompressorPool::spawn(cfg.cores, cfg.quantum_bytes, None);
        FleetServer {
            fleet,
            cfg,
            clock,
            pool,
            shared,
            admit: Condvar::new(),
            wc,
            stop,
            drainer: Some(drainer),
        }
    }

    /// The shared dataset fleet this server checkpoints.
    pub fn fleet(&self) -> &SharedDatasetFleet {
        &self.fleet
    }

    /// The config the server was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Join the fleet: blocks (FIFO, bounded-wait) until an admission slot
    /// frees up. `rounds` is the tenant's calibration horizon — the cut
    /// count the adaptive solver amortizes its base time over.
    pub fn join(&self, persona: usize, policy: TenantPolicy, rounds: u64) -> TenantSession<'_> {
        assert!(persona < self.fleet.ranks(), "persona outside the fleet");
        let (id, active) = {
            // FIFO tickets: wait until every earlier ticket is admitted and
            // a slot is free. The head is never overtaken and never dropped.
            let mut sh = self.shared.lock().unwrap();
            let id = sh.next_session;
            sh.next_session += 1;
            while !(sh.admitted == id as u64 && sh.active < self.cfg.slots as u64) {
                sh = self
                    .admit
                    .wait(sh)
                    .expect("a session panicked holding the shared state");
            }
            sh.admitted += 1;
            sh.active += 1;
            sh.wake_next(&self.admit);
            (id, sh.active)
        };
        if let Some(o) = &self.wc {
            o.admitted.inc();
            o.active.set(active as f64);
            o.obs.spans.point_volatile(
                "fleet.wc.join",
                self.clock.now(),
                vec![("tenant", (id as u64).into())],
            );
        }
        TenantSession {
            server: self,
            core: TenantCore::new(persona, policy, rounds, id),
            stream: Recorder::default(),
            state: SessState::Up,
            released: false,
        }
    }

    /// Live counter snapshot (the `stats` RPC).
    pub fn stats(&self) -> FleetStats {
        let pool = self.pool.stats();
        let sh = self.shared.lock().unwrap();
        FleetStats {
            uptime: self.clock.now(),
            active: sh.active,
            admitted: sh.admitted,
            waiting: sh.next_session as u64 - sh.admitted,
            cuts: sh.cuts,
            recoveries: sh.recoveries,
            departures: sh.departures,
            violations: sh.core.violations(),
            wire_bytes: sh.wire_bytes,
            in_flight: sh.core.transport.in_flight() as u64,
            shards: pool.shards,
            preemptions: pool.preemptions,
            drr_rounds: pool.rounds,
        }
    }

    /// Isolation violations observed so far (must be 0).
    pub fn violations(&self) -> u64 {
        self.shared.lock().unwrap().core.violations()
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.drainer.take() {
            let _ = h.join();
        }
        // The pool's own Drop joins the encode workers.
    }
}

enum SessState {
    Up,
    /// Crashed: the recovery window stays open (pins held) until
    /// `recover`, which then records the `Recover` event.
    Down(RecoveryWindow, StreamEvent),
    Left,
}

/// One tenant session on the wall-clock server. Methods block under real
/// back-pressure; dropping a session mid-flight (e.g. its RPC connection
/// died) releases its pins, retires its records, and frees its admission
/// slot.
pub struct TenantSession<'a> {
    server: &'a FleetServer,
    core: TenantCore,
    stream: Recorder,
    state: SessState,
    released: bool,
}

impl TenantSession<'_> {
    /// This session's tenant id (the record-owner job id minus one).
    pub fn id(&self) -> usize {
        self.core.job as usize - 1
    }

    /// The tenant's current checkpoint interval.
    pub fn w(&self) -> f64 {
        self.core.w
    }

    /// The session's record stream so far.
    pub fn events(&self) -> &[StreamEvent] {
        &self.stream.events
    }

    /// Whether the session crashed and awaits [`recover`]: `cut`, `crash`
    /// and `leave` require an up session, `recover` a down one.
    ///
    /// [`recover`]: TenantSession::recover
    pub fn is_down(&self) -> bool {
        matches!(self.state, SessState::Down(..))
    }

    /// Cut one checkpoint: encode (preemptible), solve w* and digest the
    /// payload outside every lock, then commit + enqueue the L3 drain in
    /// one critical section. Blocks while the write-behind queue is full —
    /// transport back-pressure reaches the real caller.
    pub fn cut(&mut self) -> Result<&StreamEvent, RecoveryError> {
        assert!(matches!(self.state, SessState::Up), "cut on a down session");
        let srv = self.server;

        // Phase 1 — encode, solve and digest, no locks held. Snapshots are
        // pure functions of (persona, round); the pool's output is
        // bit-identical to the serial encoder's, so the payload is
        // mode-invariant.
        let cut = build_cut(&srv.fleet, &srv.cfg, &self.core, || {
            let (prev, dirty) = self.core.delta_inputs(&srv.fleet);
            srv.pool.encode(self.core.job, prev, dirty, srv.cfg.pa)
        });
        let digest = Recorder::digest(&self.core, &cut);

        // Phase 2 — commit under back-pressure: wait for queue room, then
        // seq assignment, commit, anchor GC, enqueue, and live-set capture
        // in one critical section.
        let t0 = srv.clock.now();
        let (mut guard, now) = loop {
            let mut guard = srv.shared.lock().unwrap();
            let now = srv.clock.now();
            guard.core.land_acks(now)?;
            if guard.core.transport.in_flight() < srv.cfg.queue_depth {
                break (guard, now);
            }
            drop(guard);
            thread::sleep(POLL);
        };
        let sh = &mut *guard;
        let c = sh.core.commit(&mut self.core, cut, now)?;
        self.stream.commit(&self.core, &c, digest, &sh.core.hier);
        sh.cuts += 1;
        sh.wire_bytes += c.wire;
        if let Some(o) = &srv.wc {
            o.cuts.inc();
            o.wire_bytes.add(c.wire);
            o.block_us
                .observe(((srv.clock.now() - t0) * 1e6).round() as u64);
            o.mirror_pool(&mut sh.pool_seen, srv.pool.stats());
        }
        Ok(self.stream.events.last().expect("cut recorded a commit"))
    }

    /// Crash at `level` (1..=3): fail the tenant's storage, recover from
    /// the cheapest surviving level, and open the pinned read window. The
    /// session stays **down** — pins are held — until [`recover`] closes
    /// the window (mirroring the simulator's recovery window).
    ///
    /// A level-3 crash first waits for the tenant's own in-flight L3
    /// drains to ack (the drain barrier), so the surviving remote chain is
    /// mode-invariant.
    ///
    /// [`recover`]: TenantSession::recover
    pub fn crash(&mut self, level: usize) -> Result<(), RecoveryError> {
        assert!(
            matches!(self.state, SessState::Up),
            "crash on a down session"
        );
        assert!((1..=3).contains(&level), "crash level must be 1..=3");
        let srv = self.server;
        let mut guard = srv.shared.lock().unwrap();
        if level == 3 {
            // Drain barrier: loop until none of this tenant's seqs are
            // pending on the wire or awaiting ack in the hierarchy.
            loop {
                let core = &mut guard.core;
                core.land_acks(srv.clock.now())?;
                let mine_pending = core
                    .transport
                    .pending_seqs()
                    .iter()
                    .chain(core.hier.pending_remote_seqs().iter())
                    .any(|s| self.core.seqs.contains(s));
                if !mine_pending {
                    break;
                }
                drop(guard);
                thread::sleep(POLL);
                guard = srv.shared.lock().unwrap();
            }
        }
        let (window, img) = guard.core.crash(&srv.fleet, &mut self.core, level)?;
        guard.recoveries += 1;
        drop(guard);
        self.stream.events.push(StreamEvent::Crash { level });
        if let Some(o) = &srv.wc {
            o.recoveries.inc();
            o.obs.spans.point_volatile(
                "fleet.wc.crash",
                srv.clock.now(),
                vec![
                    ("tenant", (self.id() as u64).into()),
                    ("level", (level as u64).into()),
                ],
            );
        }
        let event = StreamEvent::recover(&window, img.as_ref());
        self.state = SessState::Down(window, event);
        Ok(())
    }

    /// Close the recovery window opened by [`crash`]: verify the pinned
    /// locations stayed readable (the epoch-isolation invariant), release
    /// the pins, and resume at the recovered round.
    ///
    /// [`crash`]: TenantSession::crash
    pub fn recover(&mut self) -> Result<&StreamEvent, RecoveryError> {
        let SessState::Down(window, event) = std::mem::replace(&mut self.state, SessState::Up)
        else {
            panic!("recover on a session that is not down");
        };
        let srv = self.server;
        let level = window.level;
        srv.shared.lock().unwrap().core.close_window(window);
        self.stream.events.push(event);
        if let Some(o) = &srv.wc {
            o.obs.spans.point_volatile(
                "fleet.wc.recover",
                srv.clock.now(),
                vec![
                    ("tenant", (self.id() as u64).into()),
                    ("level", (level as u64).into()),
                ],
            );
        }
        Ok(self
            .stream
            .events
            .last()
            .expect("recover recorded an event"))
    }

    /// Depart: verify recovery one last time, retire every record, cancel
    /// in-flight drains, check nothing leaked, release the admission slot.
    /// Returns the session's complete record stream.
    pub fn leave(mut self) -> Vec<StreamEvent> {
        assert!(
            matches!(self.state, SessState::Up),
            "leave on a down session (recover first)"
        );
        self.release(true);
        let srv = self.server;
        if let Some(o) = &srv.wc {
            o.departures.inc();
            o.obs.spans.point_volatile(
                "fleet.wc.leave",
                srv.clock.now(),
                vec![("tenant", (self.id() as u64).into())],
            );
        }
        std::mem::take(&mut self.stream.events)
    }

    /// Take the session out of the fleet and free its admission slot: a
    /// leave goes through the core's leave step (verify, retire, leak
    /// check); an abandoned session closes any window it holds and is
    /// retired without the final verification.
    fn release(&mut self, leave: bool) {
        let srv = self.server;
        {
            let mut guard = srv.shared.lock().unwrap();
            let sh = &mut *guard;
            if let SessState::Down(window, _) = std::mem::replace(&mut self.state, SessState::Left)
            {
                sh.core.close_window(window);
            }
            if leave {
                let d = sh.core.leave(&srv.fleet, &self.core);
                self.stream.events.push(StreamEvent::Leave {
                    verified: d.verified,
                    leaked: d.leaked,
                });
                sh.departures += 1;
            } else {
                sh.core.retire(&self.core);
            }
            sh.active = sh.active.saturating_sub(1);
            sh.wake_next(&srv.admit);
            if let Some(o) = &srv.wc {
                o.active.set(sh.active as f64);
            }
        }
        self.released = true;
    }
}

impl Drop for TenantSession<'_> {
    /// A session dropped without [`TenantSession::leave`] — its RPC
    /// connection died, or its thread panicked — must not strand shared
    /// state: release held pins, retire the tenant's records, cancel its
    /// drains, and free the admission slot.
    fn drop(&mut self) {
        if !self.released {
            self.release(false);
        }
    }
}

// ---------------------------------------------------------------------------
// Script replay (the wall-clock side of the oracle contract)
// ---------------------------------------------------------------------------

/// Replay `scripts` on a real-thread [`FleetServer`] — one OS thread per
/// tenant session, commands back-to-back — and collect the resulting
/// record streams keyed by script index.
///
/// The output must equal [`crate::script::run_script_sim`] on the same
/// inputs: that equality **is** the oracle contract, enforced by
/// `tests/fleet_wallclock.rs` and the `fleet-wallclock-smoke` CI job.
///
/// Sessions are admitted up front in script order (so tenant job ids — a
/// digest input — match the simulator's); `cfg.slots` must therefore be
/// ≥ `scripts.len()`. Admission *contention* is exercised by the admission
/// stress tests instead, where stream equality is not at stake.
pub fn run_script_wallclock(
    fleet: &SharedDatasetFleet,
    scripts: &[TenantScript],
    cfg: &ServiceConfig,
) -> Result<FleetStreams, RecoveryError> {
    assert!(
        cfg.faults.is_none(),
        "script replay requires a fault-free transport (oracle contract)"
    );
    assert!(
        cfg.slots >= scripts.len(),
        "script replay admits every session up front"
    );
    let server = FleetServer::start(fleet.clone(), cfg.clone());
    let sessions: Vec<TenantSession<'_>> = scripts
        .iter()
        .map(|s| server.join(s.persona, s.policy, s.rounds()))
        .collect();
    let results: Vec<Result<Vec<StreamEvent>, RecoveryError>> = thread::scope(|sc| {
        let handles: Vec<_> = sessions
            .into_iter()
            .zip(scripts)
            .map(|(mut sess, script)| {
                sc.spawn(move || -> Result<Vec<StreamEvent>, RecoveryError> {
                    for cmd in &script.cmds {
                        match *cmd {
                            TenantCmd::Cut => {
                                sess.cut()?;
                            }
                            TenantCmd::Crash { level } => {
                                sess.crash(level)?;
                                sess.recover()?;
                            }
                        }
                    }
                    Ok(sess.leave())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let mut streams = Vec::with_capacity(results.len());
    for (i, r) in results.into_iter().enumerate() {
        streams.push(RecordStream {
            tenant: i,
            events: r?,
        });
    }
    let violations = server.violations();
    Ok(FleetStreams {
        streams,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::run_script_sim;
    use aic_model::FailureRates;

    fn cfg() -> ServiceConfig {
        let mut cfg = ServiceConfig::fleet_default(FailureRates::new(vec![3e-4, 2e-4, 1e-4]));
        cfg.cores = 2;
        cfg.b3 = 1.0e6;
        cfg.full_every = 3;
        cfg
    }

    #[test]
    fn wallclock_matches_sim_on_a_small_fleet() {
        let fleet = SharedDatasetFleet::heterogeneous(vec![4, 7], 50, 9);
        let scripts = vec![
            TenantScript::cuts(0, TenantPolicy::Adaptive { bootstrap: 3.0 }, 4),
            TenantScript {
                persona: 1,
                policy: TenantPolicy::Fixed(3.0),
                cmds: vec![
                    TenantCmd::Cut,
                    TenantCmd::Cut,
                    TenantCmd::Crash { level: 2 },
                    TenantCmd::Cut,
                ],
            },
        ];
        let sim = run_script_sim(&fleet, &scripts, &cfg()).unwrap();
        let wall = run_script_wallclock(&fleet, &scripts, &cfg()).unwrap();
        assert!(
            sim.diff(&wall).is_empty(),
            "streams diverged:\n{}",
            sim.diff(&wall).join("\n")
        );
        assert_eq!(wall.violations, 0);
    }

    #[test]
    fn dropped_session_releases_slot_and_pins() {
        let fleet = SharedDatasetFleet::heterogeneous(vec![4, 4], 0, 1);
        let mut c = cfg();
        c.slots = 1;
        let server = FleetServer::start(fleet, c);
        {
            let mut sess = server.join(0, TenantPolicy::Fixed(2.0), 4);
            sess.cut().unwrap();
            sess.crash(1).unwrap();
            // Dropped while down: pins held, slot held.
        }
        // Slot and pins are free again: the next join must not block and
        // its whole session must run clean.
        let mut sess = server.join(1, TenantPolicy::Fixed(2.0), 2);
        sess.cut().unwrap();
        sess.cut().unwrap();
        let events = sess.leave();
        assert!(matches!(
            events.last(),
            Some(StreamEvent::Leave { leaked: 0, .. })
        ));
        assert_eq!(server.violations(), 0);
        assert_eq!(server.stats().active, 0);
    }
}
