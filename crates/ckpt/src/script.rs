//! Tenant scripts, the oracle record stream, and the script-replay driver.
//!
//! A [`TenantScript`] is the mode-portable description of one tenant
//! session: a persona, a checkpoint policy, and a command list (`Cut`,
//! `Crash{level}`). The same script can be replayed by the deterministic
//! script driver ([`run_script_sim`]) and by the real-thread wall-clock
//! server ([`crate::wallclock::run_script_wallclock`]). Both drive the same
//! fleet core — the one tenant commit/crash/recover/leave state machine
//! `run_service` runs too (DESIGN.md §9) — so the stream compares two
//! drivers of one machine, not two implementations.
//!
//! # The oracle contract
//!
//! Replaying one script set in both modes must produce **identical
//! [`FleetStreams`]** even though wall-clock timings, thread
//! interleavings, and global log sequence numbers all differ. The stream
//! therefore records only *mode-invariant* observables:
//!
//! * per-tenant **commit ordinals** (1, 2, 3, … per tenant) instead of the
//!   interleaving-dependent global log seqs;
//! * the **payload digest**: FNV-1a over the checkpoint file's canonical
//!   serialization with the global seq replaced by the tenant ordinal —
//!   bit-identical payloads are guaranteed because both modes encode with
//!   the same `pa_encode` primitives over the same pure-function persona
//!   state;
//! * the **w\* trajectory** (exact f64 bits): the adaptive solver only ever
//!   sees intrinsic (queue-free) encode latency derived from the
//!   deterministic [`aic_delta::stats::EncodeReport`], never wall time;
//! * the **anchor GC set**: which of the tenant's ordinals are still live
//!   on L1 and L2 after each commit — anchors truncate those levels
//!   synchronously, so the set is a pure function of the tenant's own
//!   commit history;
//! * crash/recovery outcomes: the serving level, the resumed round, and a
//!   bit-exact **image digest** of the recovered memory + cpu state.
//!
//! Deliberately **absent** (mode-dependent): global seqs, wire-byte
//! counts (dedup reference frames depend on cross-tenant commit order),
//! L3 liveness (depends on ack timing), and every timing/blocking figure.
//!
//! A level-3 crash kills the tenant's pending write-behind drains, so its
//! surviving remote prefix would depend on ack timing. Each driver
//! therefore runs a **drain barrier** first, making the post-crash remote
//! chain (and hence the recovery image) mode-invariant: [`run_script_sim`]
//! quiesces the whole transport, and a wall-clock session polls until its
//! own drains are acknowledged. Levels 1 and 2 need no barrier: those
//! commits are synchronous.
//!
//! Recording the stream is the script and wall-clock drivers' half of a
//! commit; `run_service` records none, so it never digests a payload.

use std::collections::HashMap;
use std::fmt::Write as _;

use aic_delta::pa::pa_encode;
use aic_delta::strong::fnv1a;

use crate::clock::{ClockSource, VirtualClock};
use crate::engine::TICK;
use crate::fleet::SharedDatasetFleet;
use crate::fleetcore::{build_cut, Committed, Cut, FleetCore, RecoveryWindow, TenantCore};
use crate::format::CheckpointFile;
use crate::recovery::{RecoveredImage, RecoveryError, StorageHierarchy};
use crate::service::{ServiceConfig, TenantPolicy};

/// One command in a tenant session, executed strictly in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantCmd {
    /// Work for one interval (the tenant's current w), then cut and commit
    /// a checkpoint.
    Cut,
    /// Fail at level 1..=3 and recover from the cheapest surviving level.
    Crash {
        /// Failure level, 1..=3 (see `StorageHierarchy::fail_job`).
        level: usize,
    },
}

/// One tenant session: who it is, how it checkpoints, and what it does.
/// Leaving (verify + retire + slot release) is implicit after the last
/// command.
#[derive(Debug, Clone)]
pub struct TenantScript {
    /// Rank in the shared dataset fleet (the working-set persona).
    pub persona: usize,
    /// Checkpoint policy.
    pub policy: TenantPolicy,
    /// The command sequence.
    pub cmds: Vec<TenantCmd>,
}

impl TenantScript {
    /// A plain session: `cuts` checkpoints, no crashes.
    pub fn cuts(persona: usize, policy: TenantPolicy, cuts: usize) -> Self {
        TenantScript {
            persona,
            policy,
            cmds: vec![TenantCmd::Cut; cuts],
        }
    }

    /// Number of `Cut` commands (the solver's calibration horizon).
    pub fn rounds(&self) -> u64 {
        self.cmds
            .iter()
            .filter(|c| matches!(c, TenantCmd::Cut))
            .count() as u64
    }
}

/// One mode-invariant observable in a tenant's record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// A checkpoint committed.
    Commit {
        /// Per-tenant commit ordinal (1-based) — the mode-invariant
        /// stand-in for the global log seq.
        ordinal: u64,
        /// Workload round the checkpoint captures.
        round: u64,
        /// Full anchor (true) or delta (false).
        full: bool,
        /// FNV-1a over the file's canonical bytes with seq := ordinal.
        payload_digest: u64,
        /// The tenant's w after this commit, exact bits.
        w_bits: u64,
        /// The tenant's ordinals still live on L1 after this commit (the
        /// anchor GC set: an anchor truncates the superseded prefix).
        live_l1: Vec<u64>,
        /// Same for L2.
        live_l2: Vec<u64>,
    },
    /// The tenant failed at `level`.
    Crash {
        /// Failure level, 1..=3.
        level: usize,
    },
    /// The tenant recovered. `level == 0` means nothing was recoverable
    /// anywhere (crash before the first anchor) and the tenant restarted
    /// from scratch at round 0.
    Recover {
        /// Level that served the recovery (0 = from scratch).
        level: usize,
        /// Round the tenant resumed at.
        round: u64,
        /// FNV-1a over the recovered pages + cpu state (0 when from
        /// scratch) — "recovery images bit-identical" is this field.
        image_digest: u64,
    },
    /// The tenant departed.
    Leave {
        /// Departure-time recovery verified bit-identical against the
        /// persona (None when nothing was recoverable).
        verified: Option<bool>,
        /// The tenant's records still live on any level after retirement
        /// (must be 0 — a leak is an isolation violation).
        leaked: u64,
    },
}

impl StreamEvent {
    fn render_into(&self, out: &mut String) {
        match self {
            StreamEvent::Commit {
                ordinal,
                round,
                full,
                payload_digest,
                w_bits,
                live_l1,
                live_l2,
            } => {
                let _ = write!(
                    out,
                    "commit ord={ordinal} round={round} full={full} payload={payload_digest:016x} w={w_bits:016x} l1={live_l1:?} l2={live_l2:?}"
                );
            }
            StreamEvent::Crash { level } => {
                let _ = write!(out, "crash level={level}");
            }
            StreamEvent::Recover {
                level,
                round,
                image_digest,
            } => {
                let _ = write!(
                    out,
                    "recover level={level} round={round} image={image_digest:016x}"
                );
            }
            StreamEvent::Leave { verified, leaked } => {
                let _ = write!(out, "leave verified={verified:?} leaked={leaked}");
            }
        }
    }
}

/// One tenant's ordered record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordStream {
    /// Index of the tenant's script in the script list.
    pub tenant: usize,
    /// The events, in session order.
    pub events: Vec<StreamEvent>,
}

/// Every tenant's record stream — what the oracle contract compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStreams {
    /// One stream per script, by script index.
    pub streams: Vec<RecordStream>,
    /// Isolation violations observed while producing the streams (pinned
    /// locations unreadable, recovered image mismatching the persona,
    /// departed records leaking). Mode-invariant: must be 0 in both modes.
    pub violations: u64,
}

impl FleetStreams {
    /// Canonical text rendering, one line per event — the diff unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.streams {
            for (i, e) in s.events.iter().enumerate() {
                let _ = write!(out, "t{} #{i} ", s.tenant);
                e.render_into(&mut out);
                out.push('\n');
            }
        }
        let _ = writeln!(out, "violations {}", self.violations);
        out
    }

    /// Line-level diff against another stream set (`self` labelled `a`,
    /// `other` labelled `b`). Empty iff the streams are identical — the
    /// oracle contract's pass condition.
    pub fn diff(&self, other: &FleetStreams) -> Vec<String> {
        let ra = self.render();
        let rb = other.render();
        let la: Vec<&str> = ra.lines().collect();
        let lb: Vec<&str> = rb.lines().collect();
        let mut out = Vec::new();
        for i in 0..la.len().max(lb.len()) {
            match (la.get(i), lb.get(i)) {
                (Some(x), Some(y)) if x == y => {}
                (x, y) => out.push(format!(
                    "line {i}: a={} b={}",
                    x.copied().unwrap_or("<missing>"),
                    y.copied().unwrap_or("<missing>")
                )),
            }
        }
        out
    }
}

/// FNV-1a over the file's canonical serialization with the global seq
/// replaced by the tenant ordinal — the mode-invariant payload digest.
/// (Global seqs differ across modes because tenants interleave
/// differently; everything else about the payload is a pure function of
/// the persona and the round.)
pub fn payload_digest(file: &CheckpointFile, ordinal: u64) -> u64 {
    let mut shadow = file.clone();
    shadow.seq = ordinal;
    fnv1a(&shadow.to_bytes())
}

/// FNV-1a over a recovered image: page indices + page bytes in index
/// order, then the cpu-state blob. Bit-identical recovery ⇔ equal digests.
pub fn image_digest(img: &RecoveredImage) -> u64 {
    let mut buf = Vec::new();
    for (idx, page) in img.snapshot.iter() {
        buf.extend_from_slice(&idx.to_le_bytes());
        buf.extend_from_slice(page.as_slice());
    }
    buf.extend_from_slice(&img.cpu_state);
    fnv1a(&buf)
}

impl StreamEvent {
    /// The `Recover` event for a closed recovery window; `img` is the
    /// recovered image (None when the tenant restarted from scratch).
    pub(crate) fn recover(window: &RecoveryWindow, img: Option<&RecoveredImage>) -> Self {
        StreamEvent::Recover {
            level: window.level,
            round: window.round,
            image_digest: img.map_or(0, image_digest),
        }
    }
}

/// One tenant's record stream under construction: the stream-recording
/// half of the state machine, which only the script and wall-clock
/// drivers run.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    /// Global seq → tenant ordinal, for live-set translation.
    seq_ordinal: HashMap<u64, u64>,
    pub events: Vec<StreamEvent>,
}

impl Recorder {
    /// The payload digest `cut` records once it commits as `t`'s next
    /// ordinal. The ordinal, not the seq the commit will assign, goes into
    /// the digest, so it can be taken before the commit (and outside any
    /// lock).
    pub fn digest(t: &TenantCore, cut: &Cut) -> u64 {
        payload_digest(&cut.file, t.commits + 1)
    }

    /// Record the commit `t` just made: ordinal, the payload digest its cut
    /// had ([`Recorder::digest`]), w* bits and the anchor GC sets, captured
    /// while the hierarchy still shows exactly this commit's effect.
    pub fn commit(&mut self, t: &TenantCore, c: &Committed, digest: u64, hier: &StorageHierarchy) {
        let ordinal = t.commits;
        self.seq_ordinal.insert(c.seq, ordinal);
        let live = |level| {
            let mut v: Vec<u64> = hier
                .live_record_seqs(level)
                .into_iter()
                .filter_map(|s| self.seq_ordinal.get(&s).copied())
                .collect();
            v.sort_unstable();
            v
        };
        let ev = StreamEvent::Commit {
            ordinal,
            round: t.round,
            full: c.full,
            payload_digest: digest,
            w_bits: t.w.to_bits(),
            live_l1: live(1),
            live_l2: live(2),
        };
        self.events.push(ev);
    }
}

/// Replay `scripts` on the deterministic script driver — the oracle side
/// of the contract. Commands interleave round-robin across tenants on a
/// [`VirtualClock`], each encoded serially with `pa_encode`; a recovery
/// window closes as soon as it opens. The resulting [`FleetStreams`] must
/// be identical to what [`crate::wallclock::run_script_wallclock`]
/// produces for the same inputs.
///
/// Requires `cfg.faults.is_none()`: a transfer that gives up would leave a
/// level-3 drain barrier waiting forever in wall-clock mode, and the
/// surviving remote prefix would depend on retry timing.
pub fn run_script_sim(
    fleet: &SharedDatasetFleet,
    scripts: &[TenantScript],
    cfg: &ServiceConfig,
) -> Result<FleetStreams, RecoveryError> {
    assert!(
        cfg.faults.is_none(),
        "script replay requires a fault-free transport (oracle contract)"
    );
    for s in scripts {
        assert!(s.persona < fleet.ranks(), "persona outside the fleet");
    }
    let mut core = FleetCore::new(cfg, None);
    let clock = VirtualClock::new();
    let mut tenants: Vec<(TenantCore, Recorder)> = scripts
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let t = TenantCore::new(s.persona, s.policy, s.rounds(), i);
            (t, Recorder::default())
        })
        .collect();
    let mut cursors = vec![0usize; scripts.len()];
    let mut left = vec![false; scripts.len()];

    // Round-robin: one command per tenant per pass, until every session
    // has run its script and departed.
    while left.contains(&false) {
        for (id, script) in scripts.iter().enumerate() {
            if left[id] {
                continue;
            }
            clock.advance(TICK);
            core.land_acks(clock.now())?;
            let (t, rec) = &mut tenants[id];
            match script.cmds.get(cursors[id]).copied() {
                Some(TenantCmd::Cut) => {
                    let cut = build_cut(fleet, cfg, t, || {
                        let (prev, dirty) = t.delta_inputs(fleet);
                        pa_encode(&prev, &dirty, &cfg.pa)
                    });
                    let digest = Recorder::digest(t, &cut);
                    let c = core.commit(t, cut, clock.now())?;
                    clock.advance_to(core.transport.now());
                    rec.commit(t, &c, digest, &core.hier);
                }
                Some(TenantCmd::Crash { level }) => {
                    assert!((1..=3).contains(&level), "crash level must be 1..=3");
                    if level == 3 {
                        // Drain barrier. Quiescing the whole transport
                        // subsumes the per-tenant wait and is itself
                        // deterministic.
                        let (_, idle_at) = core.quiesce()?;
                        clock.advance_to(idle_at);
                    }
                    let (window, img) = core.crash(fleet, t, level)?;
                    rec.events.push(StreamEvent::Crash { level });
                    rec.events.push(StreamEvent::recover(&window, img.as_ref()));
                    core.close_window(window);
                }
                None => {
                    let d = core.leave(fleet, t);
                    rec.events.push(StreamEvent::Leave {
                        verified: d.verified,
                        leaked: d.leaked,
                    });
                    left[id] = true;
                }
            }
            cursors[id] += 1;
        }
    }

    Ok(FleetStreams {
        streams: tenants
            .into_iter()
            .enumerate()
            .map(|(i, (_, rec))| RecordStream {
                tenant: i,
                events: rec.events,
            })
            .collect(),
        violations: core.violations(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aic_model::FailureRates;

    fn cfg() -> ServiceConfig {
        let mut cfg = ServiceConfig::fleet_default(FailureRates::new(vec![3e-4, 2e-4, 1e-4]));
        cfg.cores = 2;
        cfg.b3 = 1.0e6;
        cfg.full_every = 3;
        cfg
    }

    fn scripts() -> Vec<TenantScript> {
        vec![
            TenantScript::cuts(0, TenantPolicy::Adaptive { bootstrap: 3.0 }, 5),
            TenantScript {
                persona: 1,
                policy: TenantPolicy::Fixed(3.0),
                cmds: vec![
                    TenantCmd::Cut,
                    TenantCmd::Cut,
                    TenantCmd::Crash { level: 1 },
                    TenantCmd::Cut,
                    TenantCmd::Crash { level: 3 },
                    TenantCmd::Cut,
                ],
            },
        ]
    }

    #[test]
    fn sim_replay_is_deterministic_and_clean() {
        let fleet = SharedDatasetFleet::heterogeneous(vec![4, 7], 50, 9);
        let a = run_script_sim(&fleet, &scripts(), &cfg()).unwrap();
        let b = run_script_sim(&fleet, &scripts(), &cfg()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.violations, 0);
        assert!(a.diff(&b).is_empty());
        // Tenant 1: 2 commits, crash+recover, commit, crash+recover,
        // commit, leave = 9 events.
        assert_eq!(a.streams[1].events.len(), 9);
        assert!(matches!(
            a.streams[1].events.last(),
            Some(StreamEvent::Leave {
                verified: Some(true),
                leaked: 0
            })
        ));
        // Recovery after the level-3 crash resumed at the last committed
        // round (the drain barrier guarantees the full acked prefix).
        let rec = a.streams[1]
            .events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Recover { level, round, .. } => Some((*level, *round)),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert_eq!(rec, vec![(1, 2), (3, 3)]);
    }

    #[test]
    fn anchor_gc_set_shrinks_at_fulls() {
        let fleet = SharedDatasetFleet::heterogeneous(vec![4], 0, 3);
        let s = vec![TenantScript::cuts(0, TenantPolicy::Fixed(2.0), 7)];
        let out = run_script_sim(&fleet, &s, &cfg()).unwrap();
        let live: Vec<Vec<u64>> = out.streams[0]
            .events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Commit { live_l1, .. } => Some(live_l1.clone()),
                _ => None,
            })
            .collect();
        // full_every = 3: ordinals 1 (full), 2, 3, 4 (full), 5, 6, 7 (full).
        assert_eq!(live[0], vec![1]);
        assert_eq!(live[2], vec![1, 2, 3]);
        assert_eq!(live[3], vec![4], "anchor truncated the prefix");
        assert_eq!(live[6], vec![7]);
    }
}
