//! Closed-loop tenant generators against an in-process `FleetServer`.
//!
//! [`run`]: each generator thread owns a fixed set of sessions and cuts
//! them round-robin. [`lifecycle`]: one thread walks the sessions,
//! crashing each at every level (1, 2, 3) and recovering it, then leaving
//! (which must come back verified with nothing leaked) and joining again —
//! the control-plane latencies, measured apart from the cut loop so that
//! neither perturbs the other.

use std::sync::{Barrier, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use aic_ckpt::fleet::SharedDatasetFleet;
use aic_ckpt::script::StreamEvent;
use aic_ckpt::service::{ServiceConfig, TenantPolicy};
use aic_ckpt::wallclock::{FleetServer, TenantSession};
use aic_memsim::PAGE_SIZE;

use crate::ops::{Op, OpLog};
use crate::report::{median, Latencies, Tally};
use crate::spans::Spans;

/// A closed-loop in-process workload.
#[derive(Clone)]
pub struct Spec {
    pub fleet: SharedDatasetFleet,
    pub cfg: ServiceConfig,
    /// Generator threads; sessions are split evenly between them.
    pub threads: usize,
    /// Tenants (personas `0..tenants`).
    pub tenants: usize,
    /// Cuts per session before the measured window opens.
    pub warmup_cuts: u64,
    pub policy: TenantPolicy,
    /// Calibration horizon declared at join.
    pub horizon: u64,
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct LoopOut {
    pub lat: Latencies,
    pub tally: Tally,
    pub ops: OpLog,
    /// Cuts committed inside the window.
    pub cuts: u64,
    /// Working-set bytes those cuts protected.
    pub user_bytes: u64,
    pub wall_s: f64,
}

impl LoopOut {
    pub fn ckpt_per_s(&self) -> f64 {
        self.cuts as f64 / self.wall_s.max(1e-9)
    }

    pub fn merge(&mut self, other: LoopOut) {
        self.lat.extend(other.lat);
        self.tally.merge(other.tally);
        self.ops.extend(other.ops);
        self.cuts += other.cuts;
        self.user_bytes += other.user_bytes;
        self.wall_s += other.wall_s;
    }
}

pub fn start(spec: &Spec) -> FleetServer {
    FleetServer::start(spec.fleet.clone(), spec.cfg.clone())
}

/// Set-up time: everything before a measured window opens — start a
/// server, admit every tenant, and cut the warm-up checkpoints (each
/// tenant's first anchor among them). Median of `reps` fresh set-ups.
pub fn setup_s(spec: &Spec, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let server = start(spec);
            let mut sessions: Vec<TenantSession<'_>> = (0..spec.tenants)
                .map(|p| server.join(p, spec.policy, spec.horizon))
                .collect();
            for _ in 0..spec.warmup_cuts {
                for s in &mut sessions {
                    // A failed warm-up cut surfaces again in the measured run.
                    let _ = s.cut();
                }
            }
            let s = t0.elapsed().as_secs_f64();
            drop(sessions);
            drop(server);
            s
        })
        .collect();
    median(&samples)
}

struct Slot<'a> {
    sess: TenantSession<'a>,
    persona: usize,
    job: u64,
    last_ordinal: u64,
}

impl<'a> Slot<'a> {
    fn new(sess: TenantSession<'a>, persona: usize) -> Self {
        let job = sess.id() as u64 + 1;
        Slot {
            sess,
            persona,
            job,
            last_ordinal: 0,
        }
    }
}

/// Per-thread generator state.
struct Gen<'a> {
    spec: &'a Spec,
    server: &'a FleetServer,
    start: Instant,
    out: LoopOut,
    spans: Spans,
    crashes: u64,
}

impl<'a> Gen<'a> {
    fn new(spec: &'a Spec, server: &'a FleetServer, start: Instant, traced: bool) -> Self {
        Gen {
            spec,
            server,
            start,
            out: LoopOut::default(),
            spans: Spans::new(start, traced),
            crashes: 0,
        }
    }

    fn push(&mut self, op: Op) {
        let at = self.start.elapsed().as_secs_f64();
        self.out.ops.push((at, op));
    }

    fn cut(&mut self, slot: &mut Slot<'a>, counted: bool) {
        self.out.tally.attempt();
        let t0 = Instant::now();
        let job = slot.job;
        let res = self
            .spans
            .time("client.cut", job, |_| slot.sess.cut().cloned());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(StreamEvent::Commit {
                ordinal,
                round,
                full,
                payload_digest,
                ..
            }) => {
                self.out.tally.check(ordinal == slot.last_ordinal + 1, || {
                    format!("job {job}: ordinal {ordinal} after {}", slot.last_ordinal)
                });
                slot.last_ordinal = ordinal;
                if counted {
                    self.out.lat.cut_ms.push(ms);
                    self.out.cuts += 1;
                    self.out.user_bytes +=
                        (self.spec.fleet.pages_of(slot.persona) * PAGE_SIZE) as u64;
                }
                self.push(Op::Cut {
                    job,
                    persona: slot.persona,
                    round,
                    full,
                    ordinal,
                    digest: payload_digest,
                });
            }
            Ok(other) => self
                .out
                .tally
                .fail(format!("job {job}: cut returned {other:?}")),
            Err(e) => self.out.tally.fail(format!("job {job}: cut failed: {e}")),
        }
    }

    fn crash_recover(&mut self, slot: &mut Slot<'a>) {
        self.out.tally.attempt();
        let level = 1 + (self.crashes % 3) as usize;
        self.crashes += 1;
        let job = slot.job;
        self.push(Op::Crash { job, level });
        let t0 = Instant::now();
        let res = self.spans.time("client.crash_recover", job, |sp| {
            sp.time("client.crash", job, |_| slot.sess.crash(level))?;
            sp.time("client.recover", job, |_| slot.sess.recover().cloned())
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(StreamEvent::Recover {
                level,
                round,
                image_digest,
            }) => {
                self.out.lat.recover_ms.push(ms);
                self.push(Op::Recover {
                    persona: slot.persona,
                    level,
                    round,
                    image_digest,
                });
            }
            Ok(other) => self
                .out
                .tally
                .fail(format!("job {job}: recover returned {other:?}")),
            Err(e) => self
                .out
                .tally
                .fail(format!("job {job}: crash/recover failed: {e}")),
        }
    }

    fn leave(&mut self, slot: Slot<'a>) {
        self.out.tally.attempt();
        let job = slot.job;
        let events = self.spans.time("client.leave", job, |_| slot.sess.leave());
        self.push(Op::Leave { job });
        match events.last() {
            Some(StreamEvent::Leave {
                verified: Some(true),
                leaked: 0,
            }) => {}
            other => self.out.tally.fail(format!(
                "job {job}: unverified or leaky departure {other:?}"
            )),
        }
    }

    fn join(&mut self, persona: usize, counted: bool) -> Slot<'a> {
        self.out.tally.attempt();
        let t0 = Instant::now();
        let idx = self.spans.spans.len();
        let sess = self.spans.time("client.join", 0, |_| {
            self.server
                .join(persona, self.spec.policy, self.spec.horizon)
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let slot = Slot::new(sess, persona);
        // The tenant id is known only once join returns.
        if let Some(s) = self.spans.spans.get_mut(idx) {
            s.trace = slot.job;
        }
        if counted {
            self.out.lat.join_ms.push(ms);
        }
        self.push(Op::Join {
            job: slot.job,
            persona,
        });
        slot
    }
}

/// Run the cut loop for `seconds` on `server`, spans on when `traced`.
/// Returns the window's outcome and every thread's spans.
pub fn run(server: &FleetServer, spec: &Spec, seconds: f64, traced: bool) -> (LoopOut, Spans) {
    let threads = spec.threads.max(1);
    let barrier = Barrier::new(threads);
    let start_cell: OnceLock<Instant> = OnceLock::new();
    let epoch = Instant::now();
    let merged: Mutex<(LoopOut, Spans, Option<Instant>)> =
        Mutex::new((LoopOut::default(), Spans::new(epoch, traced), None));
    thread::scope(|sc| {
        for t in 0..threads {
            let personas: Vec<usize> = (0..spec.tenants).filter(|p| p % threads == t).collect();
            let (barrier, start_cell, merged) = (&barrier, &start_cell, &merged);
            sc.spawn(move || {
                let mut g = Gen::new(spec, server, epoch, traced);
                let mut slots: Vec<Slot<'_>> = personas.iter().map(|&p| g.join(p, false)).collect();
                for _ in 0..spec.warmup_cuts {
                    for s in &mut slots {
                        g.cut(s, false);
                    }
                }
                barrier.wait();
                let start = *start_cell.get_or_init(Instant::now);
                let deadline = start + Duration::from_secs_f64(seconds);
                'window: loop {
                    for slot in &mut slots {
                        if Instant::now() >= deadline {
                            break 'window;
                        }
                        g.cut(slot, true);
                    }
                }
                let end = Instant::now();
                for slot in slots {
                    g.leave(slot);
                }
                let mut m = merged.lock().expect("generator thread panicked");
                m.0.merge(g.out);
                m.1.append(g.spans);
                m.2 = Some(m.2.map_or(end, |e: Instant| e.max(end)));
            });
        }
    });
    let (mut out, spans, end) = merged.into_inner().expect("generator thread panicked");
    let start = *start_cell.get().expect("window opened");
    out.wall_s = end.map_or(0.0, |e| (e - start).as_secs_f64());
    out.ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    (out, spans)
}

/// Run the lifecycle loop for `seconds` on one thread: per session, crash
/// and recover once at each level (1, 2, 3), leave, join, and cut the new
/// session's anchor (so its next departure has a checkpoint to verify).
pub fn lifecycle(
    server: &FleetServer,
    spec: &Spec,
    seconds: f64,
    traced: bool,
) -> (LoopOut, Spans) {
    let epoch = Instant::now();
    let mut g = Gen::new(spec, server, epoch, traced);
    let mut slots: Vec<Slot<'_>> = (0..spec.tenants).map(|p| g.join(p, false)).collect();
    for s in &mut slots {
        g.cut(s, false);
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        let mut slot = slots.swap_remove(i);
        for _ in 0..3 {
            g.crash_recover(&mut slot);
        }
        let persona = slot.persona;
        g.leave(slot);
        let mut slot = g.join(persona, true);
        g.cut(&mut slot, false);
        slots.push(slot);
        let last = slots.len() - 1;
        slots.swap(i, last);
        i = (i + 1) % slots.len();
    }
    let end = Instant::now();
    for slot in slots {
        g.leave(slot);
    }
    let mut out = g.out;
    out.wall_s = (end - start).as_secs_f64();
    (out, g.spans)
}
