//! Closed-loop `FleetClient` generators against a child `aicd --wallclock`.
//!
//! Each connection cycles: connect, join, cut K times, crash at a level
//! cycling 1 → 2 → 3, recover, leave. The leave must come back verified
//! with nothing leaked, and cut ordinals must run 1..=K without a gap.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use aic_ckpt::fleet::SharedDatasetFleet;
use aic_ckpt::rpc::FleetClient;
use aic_ckpt::service::TenantPolicy;
use aic_memsim::PAGE_SIZE;

use crate::inproc::LoopOut;
use crate::ops::Op;
use crate::report::{median, peak_rss_mb, Tally};
use crate::spans::Spans;

/// Personas `aicd --wallclock` serves by default (`--tenants 4`), with its
/// working-set sizes and overlap: the fleet the benchmark recomputes
/// digests against.
pub const AICD_TENANTS: usize = 4;
pub const AICD_OVERLAP: u32 = 30;

pub fn aicd_fleet(seed: u64) -> SharedDatasetFleet {
    crate::simfleet::aicd_shaped(AICD_TENANTS, AICD_OVERLAP, seed)
}

/// A running `aicd --wallclock`; dropping it kills and reaps the child.
pub struct Daemon {
    child: Child,
    pub sock: PathBuf,
}

impl Daemon {
    /// Spawn the daemon on a fresh socket in `dir` and wait until the
    /// socket accepts.
    pub fn spawn(aicd: &Path, dir: &Path, seed: u64) -> io::Result<Daemon> {
        static SPAWNED: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let n = SPAWNED.fetch_add(1, Ordering::Relaxed);
        let sock = dir.join(format!("aicd-{}-{n}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let t0 = Instant::now();
        let child = Command::new(aicd)
            .arg("--wallclock")
            .arg("--socket")
            .arg(&sock)
            .arg("--seed")
            .arg(seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let mut d = Daemon { child, sock };
        loop {
            if FleetClient::connect(&d.sock).is_ok() {
                return Ok(d);
            }
            if let Some(status) = d.child.try_wait()? {
                return Err(io::Error::other(format!("aicd exited early: {status}")));
            }
            if t0.elapsed() > Duration::from_secs(20) {
                return Err(io::Error::other("aicd socket never accepted"));
            }
            thread::sleep(Duration::from_micros(200));
        }
    }

    /// VmHWM of the daemon process, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// The daemon's live counters (`name value` lines of the stats RPC).
    pub fn stats(&self) -> io::Result<HashMap<String, f64>> {
        let text = FleetClient::connect(&self.sock)?.stats()?;
        Ok(text
            .lines()
            .filter_map(|l| l.split_once(' '))
            .filter_map(|(k, v)| v.trim().parse().ok().map(|v| (k.to_string(), v)))
            .collect())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// Set-up time: spawn the daemon, wait until its socket accepts, and run
/// one warm-up cycle per connection. Median of `reps` fresh daemons, with
/// the warm-ups' correctness tally.
pub fn setup(
    aicd: &Path,
    dir: &Path,
    fleet: &SharedDatasetFleet,
    spec: Spec,
    seed: u64,
    reps: usize,
) -> io::Result<(f64, Tally)> {
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let d = Daemon::spawn(aicd, dir, seed)?;
        let (warm, _) = run(fleet, &d.sock, spec, 0.0, false);
        samples.push(t0.elapsed().as_secs_f64());
        tally.merge(warm.tally);
    }
    Ok((median(&samples), tally))
}

/// The rpc-churn generator's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub connections: usize,
    pub cuts_per_cycle: u64,
    pub policy: TenantPolicy,
}

struct Gen<'a> {
    fleet: &'a SharedDatasetFleet,
    sock: &'a Path,
    spec: Spec,
    epoch: Instant,
    out: LoopOut,
    spans: Spans,
    cycles: u64,
}

impl<'a> Gen<'a> {
    fn new(
        fleet: &'a SharedDatasetFleet,
        sock: &'a Path,
        spec: Spec,
        epoch: Instant,
        traced: bool,
        cycles: u64,
    ) -> Self {
        Gen {
            fleet,
            sock,
            spec,
            epoch,
            out: LoopOut::default(),
            spans: Spans::new(epoch, traced),
            cycles,
        }
    }

    fn push(&mut self, op: Op) {
        let at = self.epoch.elapsed().as_secs_f64();
        self.out.ops.push((at, op));
    }

    /// One connect → join → K cuts → crash/recover → leave cycle. An I/O
    /// or `KIND_ERROR` reply fails the operation and abandons the cycle
    /// (the dropped connection releases the session).
    fn cycle(&mut self, conn: usize, counted: bool) {
        let persona = (conn + 2 * self.cycles as usize) % AICD_TENANTS;
        let level = 1 + (self.cycles % 3) as usize;
        self.cycles += 1;
        let k = self.spec.cuts_per_cycle;
        let res = (|| -> io::Result<()> {
            self.out.tally.attempt();
            let t0 = Instant::now();
            let idx = self.spans.spans.len();
            let (mut client, id) = self.spans.time("client.join", 0, |sp| {
                let mut c = sp.time("client.connect", 0, |_| FleetClient::connect(self.sock))?;
                let id = c.join(persona, self.spec.policy, k)?;
                io::Result::Ok((c, id))
            })?;
            let job = id + 1;
            for s in &mut self.spans.spans[idx..] {
                s.trace = job;
            }
            if counted {
                self.out.lat.join_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            self.push(Op::Join { job, persona });
            for want in 1..=k {
                self.out.tally.attempt();
                let t0 = Instant::now();
                let r = self.spans.time("client.cut", job, |_| client.cut())?;
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                self.out.tally.check(r.ordinal == want, || {
                    format!("job {job}: ordinal {} where {want} was due", r.ordinal)
                });
                if counted {
                    self.out.lat.cut_ms.push(ms);
                    self.out.cuts += 1;
                    self.out.user_bytes += (self.fleet.pages_of(persona) * PAGE_SIZE) as u64;
                }
                self.push(Op::Cut {
                    job,
                    persona,
                    round: r.round,
                    full: r.full,
                    ordinal: r.ordinal,
                    digest: r.payload_digest,
                });
            }
            self.out.tally.attempt();
            self.push(Op::Crash { job, level });
            let t0 = Instant::now();
            let rr = self.spans.time("client.crash_recover", job, |sp| {
                sp.time("client.crash", job, |_| client.crash(level))?;
                sp.time("client.recover", job, |_| client.recover())
            })?;
            if counted {
                self.out
                    .lat
                    .recover_ms
                    .push(t0.elapsed().as_secs_f64() * 1e3);
            }
            self.push(Op::Recover {
                persona,
                level: rr.level as usize,
                round: rr.round,
                image_digest: rr.image_digest,
            });
            self.out.tally.attempt();
            let lr = self.spans.time("client.leave", job, |_| client.leave())?;
            self.push(Op::Leave { job });
            self.out
                .tally
                .check(lr.verified == Some(true) && lr.leaked == 0, || {
                    format!("job {job}: unverified or leaky departure {lr:?}")
                });
            Ok(())
        })();
        if let Err(e) = res {
            self.out
                .tally
                .fail(format!("rpc cycle on connection {conn}: {e}"));
        }
    }
}

/// Run the churn loop for `seconds`; cycles in flight at the deadline
/// finish (every session leaves).
pub fn run(
    fleet: &SharedDatasetFleet,
    sock: &Path,
    spec: Spec,
    seconds: f64,
    traced: bool,
) -> (LoopOut, Spans) {
    let epoch = Instant::now();
    let merged = Mutex::new((LoopOut::default(), Spans::new(epoch, traced)));
    // One warm-up cycle per connection: first connects and page faults
    // stay out of the window.
    thread::scope(|sc| {
        for conn in 0..spec.connections {
            let merged = &merged;
            sc.spawn(move || {
                let mut g = Gen::new(fleet, sock, spec, epoch, traced, 0);
                g.cycle(conn, false);
                let mut m = merged.lock().expect("generator thread panicked");
                m.0.merge(g.out);
            });
        }
    });
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    thread::scope(|sc| {
        for conn in 0..spec.connections {
            let merged = &merged;
            sc.spawn(move || {
                let mut g = Gen::new(fleet, sock, spec, epoch, traced, conn as u64);
                while Instant::now() < deadline {
                    g.cycle(conn, true);
                }
                let mut m = merged.lock().expect("generator thread panicked");
                m.0.merge(g.out);
                m.1.append(g.spans);
            });
        }
    });
    let (mut out, spans) = merged.into_inner().expect("generator thread panicked");
    out.wall_s = start.elapsed().as_secs_f64();
    out.ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    (out, spans)
}
