//! The fleet core: one tenant commit/crash/recover/leave state machine.
//!
//! In the paper, fault tolerance is one state machine per job: every cut
//! commits through L1/L2/L3, and after a level-k failure the job recovers
//! from the cheapest surviving level ≥ k. [`FleetCore`] owns what the
//! fleet's tenants share — one [`StorageHierarchy`], one write-behind
//! [`NetworkTransport`], the global commit seq and the isolation-violation
//! count — and implements each lifecycle step once:
//!
//! * **land acks** up to `now` ([`FleetCore::land_acks`]);
//! * **commit** a cut: seq, `commit_write_behind`, anchor supersession,
//!   enqueue, calibration ([`FleetCore::commit`]); the cut arrives from
//!   [`build_cut`] with its w* already solved, so a commit only touches
//!   shared state;
//! * **crash**: fail the tenant's storage, cancel its lost drains, recover
//!   from the cheapest surviving level, verify against the persona, and
//!   open a pinned read window ([`FleetCore::crash`]);
//! * **close the recovery window**: re-read the pinned locations, unpin
//!   ([`FleetCore::close_window`]);
//! * **leave**: verify, retire, cancel, leak check ([`FleetCore::leave`]).
//!
//! [`TenantCore`] is the per-tenant half: policy, anchor cadence, the
//! solver's calibration sums and the seqs the tenant committed. Three
//! drivers run the machine and keep only what really differs — time and
//! interleaving, the encoder, the L3 drain barrier, when a recovery window
//! closes, and what they report: [`crate::service::run_service`],
//! [`crate::script::run_script_sim`] and [`crate::wallclock::TenantSession`]
//! (DESIGN.md §9).

use std::collections::HashSet;

use bytes::Bytes;

use aic_core::baselines::sic_optimal_w;
use aic_delta::pa::PaDeltaFile;
use aic_delta::stats::EncodeReport;
use aic_memsim::{Snapshot, PAGE_SIZE};
use aic_obs::Counter;

use crate::fleet::SharedDatasetFleet;
use crate::format::CheckpointFile;
use crate::log::RecordLoc;
use crate::recovery::{RecoveredImage, RecoveryError, StorageHierarchy};
use crate::service::{ServiceConfig, TenantPolicy};
use crate::storage::{BandwidthModel, FlatStore, Raid5Group};
use crate::transport::{LinkConfig, NetworkTransport, TransportEvent, WriteBehindConfig};

/// Cut-blocking histogram buckets, microseconds.
pub(crate) static BLOCK_US_BUCKETS: [u64; 10] = [
    100,
    1_000,
    10_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    60_000_000,
    600_000_000,
];

/// The canonical `cpu_state` blob for a fleet tenant: the round number,
/// little-endian — all the "process state" a persona needs to resume.
fn round_state(round: u64) -> Bytes {
    Bytes::copy_from_slice(&round.to_le_bytes())
}

/// Bit-identical snapshot comparison (page indices and contents).
fn snapshots_identical(a: &Snapshot, b: &Snapshot) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|((ia, pa), (ib, pb))| ia == ib && pa.as_slice() == pb.as_slice())
}

/// One tenant's side of the state machine. Everything in here is a pure
/// function of the tenant's own command history, which is what makes its
/// w* trajectory and record stream executor-invariant.
#[derive(Debug)]
pub(crate) struct TenantCore {
    /// Rank in the shared dataset fleet (the working-set persona).
    pub persona: usize,
    /// Record-owner job id: tenant id + 1.
    pub job: u64,
    policy: TenantPolicy,
    /// Calibration horizon: the cuts the adaptive solver amortizes over.
    rounds: u64,
    /// Current checkpoint interval.
    pub w: f64,
    /// Round of the last commit, or the round a recovery resumed at.
    pub round: u64,
    has_anchor: bool,
    cuts_since_full: u64,
    /// Checkpoints committed (replays after a crash count).
    pub commits: u64,
    sum_c1: f64,
    sum_dl: f64,
    sum_ds: f64,
    /// Global seqs this tenant committed (all time, incl. GC'd).
    pub seqs: HashSet<u64>,
}

impl TenantCore {
    pub fn new(persona: usize, policy: TenantPolicy, rounds: u64, id: usize) -> Self {
        TenantCore {
            persona,
            job: id as u64 + 1,
            policy,
            rounds,
            w: policy.initial_w(),
            round: 0,
            has_anchor: false,
            cuts_since_full: 0,
            commits: 0,
            sum_c1: 0.0,
            sum_dl: 0.0,
            sum_ds: 0.0,
            seqs: HashSet::new(),
        }
    }

    /// Whether the next cut must be a full anchor.
    pub fn next_is_full(&self, full_every: u64) -> bool {
        !self.has_anchor || self.cuts_since_full + 1 >= full_every
    }

    /// The next cut's encode inputs: the previous round's image and this
    /// round's dirty pages.
    pub fn delta_inputs(&self, fleet: &SharedDatasetFleet) -> (Snapshot, Snapshot) {
        let round = self.round + 1;
        (
            fleet.snapshot(self.persona, round - 1),
            fleet.dirty(self.persona, round),
        )
    }

    /// The interval after committing a cut that costs `c1`, `dl` and `ds`:
    /// an adaptive tenant re-solves w* over its running means with the cut
    /// included, and a fixed one keeps its w. The solver only ever sees
    /// intrinsic (queue-free, full pool width) encode latency, so the
    /// trajectory matches a solo run.
    fn solve_w(&self, c1: f64, dl: f64, ds: f64, cfg: &ServiceConfig) -> f64 {
        let TenantPolicy::Adaptive { bootstrap } = self.policy else {
            return self.w;
        };
        let n = (self.commits + 1) as f64;
        sic_optimal_w(
            (self.sum_c1 + c1) / n,
            (self.sum_dl + dl) / n,
            (self.sum_ds + ds) / n,
            &cfg.policy_env(),
            self.rounds as f64 * bootstrap,
        )
    }

    /// Calibration, run on every successful commit: anchor cadence, the
    /// running means, and the w* that [`build_cut`] solved for this cut,
    /// applied now.
    fn calibrate(&mut self, cut: &Cut) {
        self.round = cut.round;
        self.commits += 1;
        if cut.full {
            self.has_anchor = true;
            self.cuts_since_full = 0;
        } else {
            self.cuts_since_full += 1;
        }
        self.sum_c1 += cut.c1;
        self.sum_dl += cut.dl;
        self.sum_ds += cut.ds;
        self.w = cut.w;
    }
}

/// A cut ready to commit: the file (its seq is assigned at commit), the
/// solver's calibration inputs and the w* they solve to.
#[derive(Debug)]
pub(crate) struct Cut {
    /// Workload round the cut captures.
    pub round: u64,
    /// Full anchor (true) or delta (false).
    pub full: bool,
    /// The checkpoint; its seq stays 0 until the commit assigns one.
    pub file: CheckpointFile,
    /// Local write latency, seconds.
    pub c1: f64,
    /// Intrinsic delta latency, seconds (0 for an anchor).
    pub dl: f64,
    /// Payload bytes.
    pub ds: f64,
    /// The tenant's interval once this cut commits.
    pub w: f64,
}

/// Seconds to write tenant `persona`'s full image to the local level —
/// the `c1` of every cut, anchor or delta.
pub(crate) fn local_write_latency(
    fleet: &SharedDatasetFleet,
    cfg: &ServiceConfig,
    persona: usize,
) -> f64 {
    cfg.cost_model
        .raw_io_latency((fleet.pages_of(persona) * PAGE_SIZE) as u64)
}

/// Build tenant `t`'s next cut. An anchor snapshots the persona; a delta
/// takes its payload from `encode` — the serial encoder or a pool result —
/// which must encode [`TenantCore::delta_inputs`] and is only called for
/// deltas. It also solves the w* the tenant runs at once the cut commits,
/// so `run_service`, `run_script_sim` and the wall-clock session each
/// build the cut right before they commit it, the session outside the
/// fleet's lock.
pub(crate) fn build_cut(
    fleet: &SharedDatasetFleet,
    cfg: &ServiceConfig,
    t: &TenantCore,
    encode: impl FnOnce() -> (PaDeltaFile, EncodeReport),
) -> Cut {
    let round = t.round + 1;
    let full = t.next_is_full(cfg.full_every);
    let (file, dl, ds) = if full {
        let snap = fleet.snapshot(t.persona, round);
        let raw = snap.bytes() as f64;
        (
            CheckpointFile::full(t.job, 0, snap, round_state(round)),
            0.0,
            raw,
        )
    } else {
        let (delta, report) = encode();
        let live = (0..fleet.pages_of(t.persona) as u64).collect();
        let file = CheckpointFile::delta(t.job, 0, delta, live, round_state(round));
        let dl = cfg.cost_model.pooled_delta_latency(&report, cfg.cores);
        (file, dl, report.delta_bytes as f64)
    };
    let c1 = local_write_latency(fleet, cfg, t.persona);
    Cut {
        round,
        full,
        file,
        c1,
        dl,
        ds,
        w: t.solve_w(c1, dl, ds, cfg),
    }
}

/// What a commit did, for the driver's own accounting.
#[derive(Debug)]
pub(crate) struct Committed {
    /// Global log seq the cut committed as.
    pub seq: u64,
    /// Full anchor (true) or delta (false).
    pub full: bool,
    /// Bytes handed to the write-behind transport.
    pub wire: u64,
    /// L2 (RAID) commit seconds; the L3 drain is enqueued after them.
    pub c2: f64,
    /// Seconds the enqueue stalled on a full write-behind queue.
    pub stalled_for: f64,
    /// Transport events that fired while enqueueing; their acks landed.
    pub events: Vec<TransportEvent>,
}

/// A crash's pinned read window: every record location serving the
/// recovery must stay readable until the driver closes it, even as other
/// tenants' anchors compact the logs.
#[derive(Debug)]
pub(crate) struct RecoveryWindow {
    /// Level that served the recovery (0 = nothing was recoverable and the
    /// tenant restarts from scratch).
    pub level: usize,
    /// Round the tenant resumes at.
    pub round: u64,
    /// The recovered image is bit-identical to the persona's.
    pub identical: bool,
    /// Seconds to read the served chain back.
    pub read_seconds: f64,
    pins: Option<[u64; 3]>,
    locs: Vec<RecordLoc>,
}

/// What a departure found.
#[derive(Debug)]
pub(crate) struct Departure {
    /// Departure-time recovery verified bit-identical (None when nothing
    /// was recoverable).
    pub verified: Option<bool>,
    /// The tenant's records still live after retirement (must be 0).
    pub leaked: u64,
}

/// The shared state of a fleet and the lifecycle steps every tenant goes
/// through (see the module docs).
pub(crate) struct FleetCore {
    pub hier: StorageHierarchy,
    pub transport: NetworkTransport,
    seq_next: u64,
    violations: u64,
    violation_counter: Option<Counter>,
}

impl FleetCore {
    /// Build the hierarchy (testbed store models, `cfg`'s segment capacity
    /// and dedup, `cfg.obs` attached) and the transport.
    /// `violation_counter` mirrors [`FleetCore::violations`] into a metric.
    pub fn new(cfg: &ServiceConfig, violation_counter: Option<Counter>) -> Self {
        let mut hier = StorageHierarchy::with_segments(
            FlatStore::new(BandwidthModel::new(100e6, 1e-3)),
            Raid5Group::new(4, 256 << 10, BandwidthModel::new(471.7e6, 1e-3)),
            FlatStore::new(BandwidthModel::new(cfg.b3, cfg.link_latency)),
            cfg.seg_capacity,
        );
        if cfg.dedup {
            hier.enable_dedup();
        }
        let mut transport = NetworkTransport::new(
            LinkConfig::new(cfg.b3, cfg.link_latency, cfg.sharing_factor),
            WriteBehindConfig {
                queue_depth: cfg.queue_depth,
                faults: cfg.faults,
                ..WriteBehindConfig::default()
            },
        );
        if let Some(o) = &cfg.obs {
            hier.attach_obs(o);
            transport.attach_obs(o);
        }
        FleetCore {
            hier,
            transport,
            seq_next: 1,
            violations: 0,
            violation_counter,
        }
    }

    /// Isolation violations observed so far (must stay 0).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Count one isolation violation.
    pub fn note_violation(&mut self) {
        self.violations += 1;
        if let Some(c) = &self.violation_counter {
            c.inc();
        }
    }

    /// Advance the transport to `now` and land the acks that fired. The
    /// events are returned for the driver's own accounting.
    pub fn land_acks(&mut self, now: f64) -> Result<Vec<TransportEvent>, RecoveryError> {
        let events = self.transport.advance_to(now);
        self.hier.apply_acks(&events)?;
        Ok(events)
    }

    /// Drain the transport completely and land every ack; also returns the
    /// time the link went idle.
    pub fn quiesce(&mut self) -> Result<(Vec<TransportEvent>, f64), RecoveryError> {
        let (events, idle_at) = self.transport.quiesce();
        self.hier.apply_acks(&events)?;
        Ok((events, idle_at))
    }

    /// Commit tenant `t`'s cut at time `at`: assign the next global seq,
    /// commit through L1/L2 with the L3 copy write-behind, let an anchor
    /// cancel the tenant's own superseded drains, enqueue the L3 drain once
    /// L2 is durable, and calibrate the tenant. A failed commit leaves the
    /// tenant's w as it was.
    pub fn commit(
        &mut self,
        t: &mut TenantCore,
        mut cut: Cut,
        at: f64,
    ) -> Result<Committed, RecoveryError> {
        let seq = self.seq_next;
        self.seq_next += 1;
        cut.file.seq = seq;
        let (receipt, wire) = self.hier.commit_write_behind(&cut.file)?;
        t.seqs.insert(seq);
        if cut.full {
            // Selective cancel leaves other tenants' transfers untouched.
            let stale: Vec<u64> = self
                .transport
                .pending_seqs()
                .into_iter()
                .filter(|s| *s < seq && t.seqs.contains(s))
                .collect();
            self.transport.cancel_seqs(&stale);
        }
        let c2 = receipt.raid.seconds;
        let out = self.transport.enqueue(seq, wire, at + c2);
        self.hier.apply_acks(&out.events)?;
        t.calibrate(&cut);
        Ok(Committed {
            seq,
            full: cut.full,
            wire,
            c2,
            stalled_for: out.stalled_for,
            events: out.events,
        })
    }

    /// The round `img` resumes at, and whether it is bit-identical to the
    /// persona's image of that round — the fleet's oracle.
    fn verify(fleet: &SharedDatasetFleet, persona: usize, img: &RecoveredImage) -> (u64, bool) {
        let round = img.cpu_state[..]
            .try_into()
            .map(u64::from_le_bytes)
            .unwrap_or(u64::MAX);
        let identical = round != u64::MAX
            && snapshots_identical(&fleet.snapshot(persona, round), &img.snapshot);
        (round, identical)
    }

    /// Crash tenant `t` at failure level `level` (1..=3): fail its storage,
    /// cancel the drains that died with it, recover from the cheapest
    /// surviving level ≥ `level`, verify the image against the persona and
    /// open the pinned read window. The tenant resumes at the recovered
    /// round — or from scratch when nothing was recoverable. The image is
    /// returned for drivers that digest it.
    pub fn crash(
        &mut self,
        fleet: &SharedDatasetFleet,
        t: &mut TenantCore,
        level: usize,
    ) -> Result<(RecoveryWindow, Option<RecoveredImage>), RecoveryError> {
        let lost = self.hier.fail_job(t.job, level)?;
        self.transport.cancel_seqs(&lost);
        let Ok(img) = self.hier.recover_cheapest(level, t.job) else {
            t.round = 0;
            t.has_anchor = false;
            t.cuts_since_full = 0;
            let window = RecoveryWindow {
                level: 0,
                round: 0,
                identical: true,
                read_seconds: 0.0,
                pins: None,
                locs: Vec::new(),
            };
            return Ok((window, None));
        };
        let (round, identical) = Self::verify(fleet, t.persona, &img);
        if !identical {
            self.note_violation();
        }
        let lvl = img.level.number();
        let pins = self.hier.pin_readers();
        let locs = self
            .hier
            .live_record_seqs(lvl)
            .into_iter()
            .filter(|s| t.seqs.contains(s))
            .filter_map(|s| self.hier.loc_of(lvl, s))
            .collect();
        t.round = round;
        let window = RecoveryWindow {
            level: lvl,
            round,
            identical,
            read_seconds: img.read_seconds,
            pins: Some(pins),
            locs,
        };
        Ok((window, Some(img)))
    }

    /// Close a recovery window: every pinned location must still be
    /// readable (the epoch-isolation invariant), then the pins release.
    pub fn close_window(&mut self, window: RecoveryWindow) {
        for loc in &window.locs {
            if self.hier.read_at(window.level, *loc).is_none() {
                self.note_violation();
            }
        }
        if let Some(pins) = window.pins {
            self.hier.unpin_readers(pins);
        }
    }

    /// Depart: verify the tenant's recovery one last time, then
    /// [`retire`](FleetCore::retire) it.
    pub fn leave(&mut self, fleet: &SharedDatasetFleet, t: &TenantCore) -> Departure {
        let verified = self
            .hier
            .recover_cheapest(1, t.job)
            .ok()
            .map(|img| Self::verify(fleet, t.persona, &img).1);
        if verified == Some(false) {
            self.note_violation();
        }
        Departure {
            verified,
            leaked: self.retire(t),
        }
    }

    /// Retire every record the tenant holds, cancel everything of it still
    /// on the wire (the dropped pendings plus any transfer whose ack nobody
    /// will consume), and count its records still live on any level — a
    /// leak, which is an isolation violation.
    pub fn retire(&mut self, t: &TenantCore) -> u64 {
        let (_, lost) = self.hier.remove_job(t.job);
        let mine: Vec<u64> = self
            .transport
            .pending_seqs()
            .into_iter()
            .filter(|s| t.seqs.contains(s) || lost.contains(s))
            .collect();
        self.transport.cancel_seqs(&mine);
        let leaked: u64 = (1..=3)
            .map(|lvl| {
                self.hier
                    .live_record_seqs(lvl)
                    .iter()
                    .filter(|s| t.seqs.contains(s))
                    .count() as u64
            })
            .sum();
        if leaked != 0 {
            self.note_violation();
        }
        leaked
    }
}

#[cfg(test)]
mod tests {
    use aic_model::FailureRates;

    use crate::fleet::SharedDatasetFleet;
    use crate::script::{run_script_sim, FleetStreams, StreamEvent, TenantScript};
    use crate::service::{run_service, ServiceConfig, TenantPolicy, TenantSpec};
    use crate::wallclock::run_script_wallclock;

    fn w_bits(streams: &FleetStreams, tenant: usize) -> Vec<u64> {
        streams.streams[tenant]
            .events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Commit { w_bits, .. } => Some(*w_bits),
                _ => None,
            })
            .collect()
    }

    /// Every driver calibrates through the same core, so a crash-free
    /// tenant's w* trajectory is bit-identical in `run_service`'s report
    /// and in both script replays' record streams.
    #[test]
    fn wstar_trajectory_is_bit_identical_across_the_three_drivers() {
        let fleet = SharedDatasetFleet::heterogeneous(vec![4, 6, 9, 12], 30, 7);
        let mut cfg = ServiceConfig::fleet_default(FailureRates::new(vec![3e-4, 2e-4, 1e-4]));
        cfg.cores = 3;
        cfg.full_every = 3;
        let policy = |i: usize| {
            if i.is_multiple_of(2) {
                TenantPolicy::Adaptive { bootstrap: 3.0 }
            } else {
                TenantPolicy::Fixed(3.0)
            }
        };
        let specs: Vec<TenantSpec> = (0..4)
            .map(|i| TenantSpec {
                persona: i,
                policy: policy(i),
                join_at: 0.0,
                rounds: 6,
                crashes: Vec::new(),
            })
            .collect();
        let scripts: Vec<TenantScript> = (0..4)
            .map(|i| TenantScript::cuts(i, policy(i), 6))
            .collect();
        let service = run_service(&fleet, &specs, &cfg).unwrap();
        let sim = run_script_sim(&fleet, &scripts, &cfg).unwrap();
        let wall = run_script_wallclock(&fleet, &scripts, &cfg).unwrap();
        for (i, t) in service.per_tenant.iter().enumerate() {
            let expect: Vec<u64> = t.w_trajectory.iter().map(|w| w.to_bits()).collect();
            assert_eq!(expect.len(), 6, "tenant {i} cut every round");
            assert_eq!(w_bits(&sim, i), expect, "tenant {i}: script replay");
            assert_eq!(w_bits(&wall, i), expect, "tenant {i}: wall-clock replay");
        }
        // Adaptive tenants re-solve on every commit, so the pin covers a
        // moving trajectory, not just a constant bootstrap.
        let w = &service.per_tenant[2].w_trajectory;
        assert!(w.windows(2).any(|p| p[0] != p[1]), "w* never moved: {w:?}");
    }
}
