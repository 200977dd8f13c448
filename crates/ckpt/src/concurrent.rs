//! Real dedicated checkpointing core(s): the workspace's one encode pool.
//!
//! The analytic models *assume* compression and remote transfer can run on
//! spare cores without perturbing the application (Section II.C). This
//! module implements that mechanism for real: a [`CompressorPool`] owns the
//! delta compressors; a caller [`submit`](CompressorPool::submit)s
//! `(previous pages, dirty pages)` jobs and keeps executing until it
//! [`wait`](Pending::wait)s for the result. This is the moral equivalent of
//! the paper pinning Xdelta3-PA to a core with `taskset` — generalized from
//! one spare core to `N`, shared by many tenants.
//!
//! Because pages are independent delta units in `pa_encode`, each job is
//! split page-wise into contiguous shards (see `plan_shards`), shards are
//! compressed out of order across the workers, and the last worker to
//! finish a job reassembles it, so the delivered [`PaDeltaFile`] is
//! byte-for-byte what the serial encoder would have produced.
//!
//! Every job is tagged with a tenant, and workers deal shards by **deficit
//! round robin**: each tenant queue is credited `quantum_bytes` once per
//! head arrival, and between any two shards a worker re-runs the pick, so
//! a tenant whose head shard no longer fits its deficit is preempted and
//! the next tenant is served. A drained queue forfeits its deficit. The
//! fleet server, the simulated service and the engine (on more than one
//! core) all encode here; `CompressorPool::spawn(1, ..)` is the paper's
//! single dedicated core: one worker plans exactly one shard per job. The
//! scheduler itself is generic over the job handle, so the simulated
//! service also deals its *virtual* encode cores with it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use aic_delta::pa::{
    pa_assemble, pa_encode_shard_scratch, plan_shards, PaDeltaFile, PaParams, PageRecord, Shard,
    ShardScratch,
};
use aic_delta::stats::EncodeReport;
use aic_memsim::{Snapshot, PAGE_SIZE};
use aic_obs::{Counter, Gauge, Histogram, HistogramShard, Obs, Volatility};

/// Shard encode latency buckets, nanoseconds (1 µs .. 100 ms).
static SHARD_NS_BUCKETS: [u64; 6] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// DRR quantum for a pool that serves one tenant: the credit never runs
/// out, so shards are dealt back to back and nothing is ever preempted.
pub const SOLO_QUANTUM: u64 = u64::MAX;

/// The pool's registered metric handles.
///
/// `pool.shard_encode_ns` is wall-clock derived and therefore registered
/// [`Volatility::Volatile`] — it never appears in deterministic snapshots.
/// The job/shard counters are counted at submission, so they are exact and
/// caller-ordered and stay stable.
#[derive(Debug)]
struct PoolObs {
    jobs: Counter,
    queue_depth: Gauge,
    shards: Counter,
    shard_ns: Histogram,
}

impl PoolObs {
    fn new(obs: &Arc<Obs>) -> Self {
        let m = &obs.metrics;
        PoolObs {
            jobs: m.counter("pool.jobs"),
            queue_depth: m.gauge("pool.queue_depth"),
            shards: m.counter("pool.shards"),
            shard_ns: m.histogram_with(
                "pool.shard_encode_ns",
                &SHARD_NS_BUCKETS,
                Volatility::Volatile,
            ),
        }
    }
}

/// An assembled job: the delta file plus its work report.
type Encoded = (PaDeltaFile, EncodeReport);

/// One finished shard: its page records plus the per-shard report.
type ShardPart = (Vec<PageRecord>, EncodeReport);

/// One submitted job. Each shard writes its own slot, and whichever worker
/// finishes last assembles the parts in shard order and delivers them.
struct Job {
    prev: Snapshot,
    dirty: Snapshot,
    params: PaParams,
    parts: Box<[Mutex<Option<ShardPart>>]>,
    remaining: AtomicUsize,
    tx: SyncSender<Encoded>,
}

impl Job {
    fn new(
        prev: Snapshot,
        dirty: Snapshot,
        params: PaParams,
        shards: usize,
        tx: SyncSender<Encoded>,
    ) -> Arc<Self> {
        Arc::new(Job {
            prev,
            dirty,
            params,
            parts: (0..shards).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(shards),
            tx,
        })
    }
}

/// A job's undealt shards, each tagged with its plan index.
type ShardQueue = VecDeque<(usize, Shard)>;

/// One tenant's pending encode work: jobs in submission order, each with
/// its undealt shards.
struct TenantQ<J> {
    deficit: u64,
    credited: bool,
    jobs: VecDeque<(J, ShardQueue)>,
}

/// The deficit-round-robin scheduler over tenant-tagged jobs of handle
/// type `J`. The pool keeps one behind its lock and deals real shards to
/// its workers; the simulated service builds one per tick and deals
/// virtual shards onto its virtual cores.
pub(crate) struct Sched<J> {
    /// Round-robin order of tenants with pending jobs; front is served.
    rr: VecDeque<u64>,
    queues: HashMap<u64, TenantQ<J>>,
    /// DRR credit rounds so far.
    pub(crate) rounds: u64,
    /// Tenants preempted at a shard boundary so far.
    pub(crate) preemptions: u64,
}

impl<J> Default for Sched<J> {
    fn default() -> Self {
        Sched {
            rr: VecDeque::new(),
            queues: HashMap::new(),
            rounds: 0,
            preemptions: 0,
        }
    }
}

impl<J: Clone> Sched<J> {
    /// Queue `job`'s shard plan behind `tenant`'s earlier jobs; a tenant
    /// with nothing pending joins the back of the round-robin ring.
    pub(crate) fn push(&mut self, tenant: u64, job: J, plan: Vec<Shard>) {
        let q = self.queues.entry(tenant).or_insert_with(|| TenantQ {
            deficit: 0,
            credited: false,
            jobs: VecDeque::new(),
        });
        let was_idle = q.jobs.is_empty();
        q.jobs
            .push_back((job, plan.into_iter().enumerate().collect()));
        if was_idle {
            self.rr.push_back(tenant);
        }
    }

    /// The DRR pick, run between every two shards a worker encodes — the
    /// preemption point. The front tenant is credited `quantum` once per
    /// head arrival; if its head shard exceeds the remaining deficit it is
    /// preempted (moved to the back, credit cleared). A job planned with
    /// no shards is handed out once as `(job, None)` and spends nothing. A
    /// drained queue forfeits its deficit. `None` when no job is pending.
    pub(crate) fn pick(&mut self, quantum: u64) -> Option<(J, Option<(usize, Shard)>)> {
        loop {
            let tid = *self.rr.front()?;
            let q = self.queues.get_mut(&tid).expect("queued tenant");
            if !q.credited {
                q.deficit = q.deficit.saturating_add(quantum);
                q.credited = true;
                self.rounds += 1;
            }
            let Some((job, shards)) = q.jobs.front_mut() else {
                self.queues.remove(&tid);
                self.rr.pop_front();
                continue;
            };
            if let Some(&(_, shard)) = shards.front() {
                let bytes = shard.len() as u64 * PAGE_SIZE as u64;
                if bytes > q.deficit {
                    self.preemptions += 1;
                    q.credited = false;
                    self.rr.rotate_left(1);
                    continue;
                }
                q.deficit -= bytes;
            }
            // `None` for a job planned with no shards: it is dealt once.
            let shard = shards.pop_front();
            let job = job.clone();
            if shards.is_empty() {
                q.jobs.pop_front();
                if q.jobs.is_empty() {
                    self.queues.remove(&tid);
                    self.rr.pop_front();
                }
            }
            return Some((job, shard));
        }
    }
}

/// Why a pool lock can fail: a pool thread panicked while holding it.
const POISONED: &str = "a pool thread panicked holding the scheduler lock";

/// The scheduler and the shutdown flag, behind the pool's one lock.
#[derive(Default)]
struct Queue {
    sched: Sched<Arc<Job>>,
    shutdown: bool,
}

/// What the pool's workers share.
struct Shared {
    queue: Mutex<Queue>,
    work: Condvar,
    quantum: u64,
    /// Shards encoded so far.
    shards: AtomicU64,
    /// `pool.shard_encode_ns`, when the pool has obs attached.
    shard_ns: Option<Histogram>,
}

/// Lifetime scheduling counters of a [`CompressorPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Shards encoded.
    pub shards: u64,
    /// Tenants preempted at a shard boundary.
    pub preemptions: u64,
    /// DRR credit rounds.
    pub rounds: u64,
}

/// Handle to a pool of dedicated compression workers.
///
/// Dropping the pool finishes every submitted job, then joins the workers.
pub struct CompressorPool {
    shared: Arc<Shared>,
    workers: usize,
    threads: Vec<JoinHandle<()>>,
    /// Jobs submitted but not yet waited for (the `pool.queue_depth`).
    in_flight: AtomicU64,
    obs: Option<PoolObs>,
}

/// A submitted job; [`Pending::wait`] blocks until it is assembled.
#[must_use = "a job's result is only delivered through `wait`"]
pub struct Pending<'a> {
    pool: &'a CompressorPool,
    rx: Receiver<Encoded>,
}

impl Pending<'_> {
    /// Block until every shard of the job is encoded and assembled.
    pub fn wait(self) -> (PaDeltaFile, EncodeReport) {
        let out = self.rx.recv().expect("pool worker delivered the job");
        self.pool.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.pool.refresh_queue_depth();
        out
    }
}

impl CompressorPool {
    /// Spawn a pool planning `workers`-wide shards, crediting each tenant
    /// `quantum_bytes` per DRR round.
    ///
    /// The shard *plan* is keyed by the requested `workers`, so the
    /// delivered bytes and the `pool.shards` counter are machine-independent;
    /// the number of OS threads is clamped to the machine's available
    /// parallelism — on a small host extra threads would only add
    /// context-switch and lock-handoff overhead.
    ///
    /// With `obs` attached the pool reports job/shard counts, the
    /// caller-visible queue depth and wall-clock shard encode latency
    /// (volatile, batched per worker in a [`HistogramShard`]) under
    /// `pool.*`.
    pub fn spawn(workers: usize, quantum_bytes: u64, obs: Option<&Arc<Obs>>) -> Self {
        let obs = obs.map(PoolObs::new);
        let workers = workers.max(1);
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            quantum: quantum_bytes.max(1),
            shards: AtomicU64::new(0),
            shard_ns: obs.as_ref().map(|o| o.shard_ns.clone()),
        });
        let threads = (0..workers.min(hw))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("aic-ckpt-core-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        CompressorPool {
            shared,
            workers,
            threads,
            in_flight: AtomicU64::new(0),
            obs,
        }
    }

    /// Queue one encode job for `tenant` and return at once; the result is
    /// collected with [`Pending::wait`]. Fair across tenants at shard
    /// granularity.
    pub fn submit(
        &self,
        tenant: u64,
        prev: Snapshot,
        dirty: Snapshot,
        params: PaParams,
    ) -> Pending<'_> {
        let plan = plan_shards(dirty.len(), self.workers);
        let (tx, rx) = sync_channel(1);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.jobs.inc();
            o.shards.add(plan.len() as u64);
        }
        self.refresh_queue_depth();
        let job = Job::new(prev, dirty, params, plan.len(), tx);
        let mut queue = self.shared.queue.lock().expect(POISONED);
        queue.sched.push(tenant, job, plan);
        self.shared.work.notify_all();
        Pending { pool: self, rx }
    }

    /// [`submit`](CompressorPool::submit) and wait: encode one job for
    /// `tenant`, blocking until the assembled file is ready.
    pub fn encode(
        &self,
        tenant: u64,
        prev: Snapshot,
        dirty: Snapshot,
        params: PaParams,
    ) -> (PaDeltaFile, EncodeReport) {
        self.submit(tenant, prev, dirty, params).wait()
    }

    /// Refresh the caller-facing `pool.queue_depth` gauge.
    fn refresh_queue_depth(&self) {
        if let Some(o) = &self.obs {
            o.queue_depth
                .set(self.in_flight.load(Ordering::Relaxed) as f64);
        }
    }

    /// OS threads actually encoding (the plan width clamped to the host).
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Shards encoded, preemptions and DRR rounds so far.
    pub fn stats(&self) -> PoolStats {
        let sched = &self.shared.queue.lock().expect(POISONED).sched;
        PoolStats {
            shards: self.shared.shards.load(Ordering::Relaxed),
            preemptions: sched.preemptions,
            rounds: sched.rounds,
        }
    }
}

impl Drop for CompressorPool {
    fn drop(&mut self) {
        // Drop must not panic: a poisoned lock still takes the flag.
        let queue = self.shared.queue.lock();
        queue.unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.shared.work.notify_all();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// A worker: pick a shard under the scheduler lock, encode it outside the
/// lock, and assemble the job if this was its last shard (a job with no
/// shards is assembled at once). Exits once the pool is shutting down and
/// no job is left.
fn worker_loop(shared: &Shared) {
    let mut scratch = ShardScratch::new();
    let mut shard_ns = shared.shard_ns.clone().map(HistogramShard::new);
    loop {
        let (job, shard) = {
            let mut queue = shared.queue.lock().expect(POISONED);
            loop {
                if let Some(picked) = queue.sched.pick(shared.quantum) {
                    break picked;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.work.wait(queue).expect(POISONED);
            }
        };
        if let Some((slot, shard)) = shard {
            let t0 = shard_ns.is_some().then(Instant::now);
            let part =
                pa_encode_shard_scratch(&job.prev, &job.dirty, shard, &job.params, &mut scratch);
            if let (Some(h), Some(t0)) = (&mut shard_ns, t0) {
                h.observe(t0.elapsed().as_nanos() as u64);
            }
            shared.shards.fetch_add(1, Ordering::Relaxed);
            *job.parts[slot].lock().unwrap() = Some(part);
            if job.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
                continue;
            }
        }
        let parts = job
            .parts
            .iter()
            .map(|p| p.lock().unwrap().take().expect("shard encoded"));
        let _ = job.tx.send(pa_assemble(parts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::SharedDatasetFleet;
    use aic_delta::pa::{pa_decode, pa_encode};
    use aic_memsim::Page;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn snapshot(pages: usize, seed: u64) -> Snapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        Snapshot::from_pages((0..pages).map(|i| {
            let mut b = vec![0u8; PAGE_SIZE];
            rng.fill(&mut b[..]);
            (i as u64, Page::from_bytes(&b))
        }))
    }

    fn mutate(snap: &Snapshot, seed: u64) -> Snapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        Snapshot::from_pages(snap.iter().map(|(i, p)| {
            let mut b = p.as_slice().to_vec();
            for x in &mut b[0..128] {
                *x = rng.gen();
            }
            (i, Page::from_bytes(&b))
        }))
    }

    /// Every third page rewritten (the match-rate probe bails to raw), one
    /// in three lightly edited, one in three untouched.
    fn probe_bail_mix(prev: &Snapshot, seed: u64) -> Snapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        Snapshot::from_pages(prev.iter().map(|(i, p)| {
            let mut b = p.as_slice().to_vec();
            match i % 3 {
                0 => rng.fill(&mut b[..]),
                1 => rng.fill(&mut b[..256]),
                _ => {}
            }
            (i, Page::from_bytes(&b))
        }))
    }

    #[test]
    fn drr_pick_serves_the_light_tenant_and_forfeits_drained_deficit() {
        // Driven without threads, like a worker would: a heavy tenant with
        // 8 queued shards, a light one with 1, quantum = 2 shards.
        const SHARD_PAGES: usize = 4;
        let quantum = 2 * (SHARD_PAGES * PAGE_SIZE) as u64;
        let plan = |n: usize| -> Vec<Shard> {
            (0..n)
                .map(|i| Shard {
                    start: i * SHARD_PAGES,
                    end: (i + 1) * SHARD_PAGES,
                })
                .collect()
        };
        let mut s = Sched::default();
        s.push(1, "H", plan(8));
        s.push(2, "L", plan(1));
        let take = |s: &mut Sched<&str>, n: usize| -> Vec<String> {
            (0..n)
                .map(|_| {
                    let (name, shard) = s.pick(quantum).expect("a shard is pending");
                    let (slot, _) = shard.expect("every job here has shards");
                    format!("{name}{slot}")
                })
                .collect()
        };

        // Heavy spends its quantum on two shards, is preempted, and the
        // light tenant is served before heavy's third shard.
        let mut order = take(&mut s, 3);
        assert_eq!(s.preemptions, 1);
        assert_eq!(s.rounds, 2);
        assert!(!s.queues.contains_key(&2), "drained queue is dropped");

        // The light tenant left one shard of credit unspent when it
        // drained; it forfeited that, so its next 3-shard job is dealt two
        // shards per round (with banked credit it would take all three).
        s.push(2, "M", plan(3));
        order.extend(take(&mut s, 9));
        assert!(s.pick(quantum).is_none(), "everything dealt");
        assert_eq!(
            order,
            ["H0", "H1", "L0", "H2", "H3", "M0", "M1", "H4", "H5", "M2", "H6", "H7"]
        );
        assert_eq!(s.preemptions, 4);
        assert_eq!(s.rounds, 7);
        assert!(s.rr.is_empty() && s.queues.is_empty());

        // A job planned with no shards is handed out once, as `None`. It
        // takes one credit round and spends none of it, so the same
        // tenant's next job still gets both shards of that credit; then
        // the ring moves on.
        s.push(3, "Z", Vec::new());
        s.push(3, "Y", plan(2));
        s.push(4, "X", plan(1));
        assert_eq!(s.pick(quantum), Some(("Z", None)));
        assert_eq!(s.rounds, 8);
        assert_eq!(take(&mut s, 3), ["Y0", "Y1", "X0"]);
        assert!(s.pick(quantum).is_none());
        assert_eq!(s.preemptions, 4);
        assert_eq!(s.rounds, 9);
        assert!(s.rr.is_empty() && s.queues.is_empty());
    }

    #[test]
    fn pool_output_is_bit_identical_to_serial_encode() {
        // The acceptance bar for the pool: at every plan width (whatever
        // the thread count it clamps to) and for snapshots of 0, 1 and many
        // pages (including the probe-bail mix), the delivered PaDeltaFile
        // is byte-for-byte the serial pa_encode output, and it decodes back
        // to the dirty set.
        let base = snapshot(67, 10);
        let cases: Vec<(Snapshot, Snapshot)> = vec![
            (base.clone(), Snapshot::new()),              // empty dirty set
            (base.clone(), mutate(&snapshot(1, 11), 12)), // single page
            (base.clone(), mutate(&base, 13)),            // many pages
            (base.clone(), probe_bail_mix(&base, 15)),    // bails mixed in
            (Snapshot::new(), snapshot(9, 14)),           // all pages new
        ];
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        for workers in [1usize, 2, 4, 8] {
            let pool = CompressorPool::spawn(workers, 64 << 10, None);
            assert_eq!(pool.threads(), workers.min(hw), "threads clamp to the host");
            let pending: Vec<_> = cases
                .iter()
                .map(|(prev, dirty)| {
                    pool.submit(7, prev.clone(), dirty.clone(), PaParams::default())
                })
                .collect();
            for (p, (prev, dirty)) in pending.into_iter().zip(&cases) {
                let (file, report) = p.wait();
                let (serial, serial_report) = pa_encode(prev, dirty, &PaParams::default());
                assert_eq!(file, serial, "workers={workers}");
                assert_eq!(report, serial_report, "workers={workers}");
                assert_eq!(&pa_decode(prev, &file).unwrap(), dirty);
            }
        }
    }

    #[test]
    fn concurrent_tenants_get_serial_bytes() {
        // Tenants submitting from several threads at once, each with its
        // own persona and rounds, interleave on the workers and preempt
        // each other, and every one still gets the serial encoder's bytes.
        let fleet = SharedDatasetFleet::heterogeneous(vec![12, 5, 30], 30, 4);
        let pool = CompressorPool::spawn(4, 16 << 10, None);
        std::thread::scope(|sc| {
            for persona in 0..fleet.ranks() {
                let (fleet, pool) = (&fleet, &pool);
                sc.spawn(move || {
                    for round in 1..4u64 {
                        let prev = fleet.snapshot(persona, round - 1);
                        let dirty = fleet.dirty(persona, round);
                        let params = PaParams::default();
                        let (serial, serial_report) = pa_encode(&prev, &dirty, &params);
                        let (file, report) = pool.encode(persona as u64 + 1, prev, dirty, params);
                        assert_eq!(file, serial, "persona {persona} round {round}");
                        assert_eq!(report, serial_report, "persona {persona} round {round}");
                    }
                });
            }
        });
        let stats = pool.stats();
        assert!(stats.shards > 0);
        assert!(stats.rounds > 0);
    }

    #[test]
    fn repeated_jobs_give_identical_bytes_and_one_credit_each() {
        // Encode the same (prev, dirty) job three times on one tenant: every
        // run delivers the serial encoder's bytes, the solo quantum never
        // preempts, and each job takes one DRR credit.
        let prev = snapshot(24, 50);
        let dirty = mutate(&prev, 51);
        let pool = CompressorPool::spawn(4, SOLO_QUANTUM, None);
        let r0 = pool.encode(0, prev.clone(), dirty.clone(), PaParams::default());
        assert_eq!(r0, pa_encode(&prev, &dirty, &PaParams::default()));
        for _ in 0..2 {
            let r = pool.encode(0, prev.clone(), dirty.clone(), PaParams::default());
            assert_eq!(r, r0);
        }
        let stats = pool.stats();
        assert_eq!(stats.preemptions, 0, "a solo quantum never preempts");
        assert_eq!(stats.rounds, 3, "one credit per job");
    }

    #[test]
    fn attached_obs_counts_jobs_shards_and_latency() {
        let obs = Arc::new(Obs::new());
        let prev = snapshot(24, 60);
        let dirty = mutate(&prev, 61);
        let pool = CompressorPool::spawn(4, SOLO_QUANTUM, Some(&obs));
        let pending: Vec<_> = (0..3)
            .map(|_| pool.submit(0, prev.clone(), dirty.clone(), PaParams::default()))
            .collect();
        for p in pending {
            p.wait();
        }
        let shards = pool.stats().shards;
        // Dropping the pool joins the workers, which flushes their local
        // latency samples into the shared histogram.
        drop(pool);

        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("pool.jobs"), Some(3));
        assert_eq!(snap.counter("pool.shards"), Some(shards));
        assert_eq!(shards, 3 * plan_shards(24, 4).len() as u64);
        assert_eq!(snap.gauge("pool.queue_depth"), Some(0.0));
        match &snap.get("pool.shard_encode_ns").unwrap().value {
            aic_obs::SampleValue::Histogram { counts, .. } => {
                let total: u64 = counts.iter().sum();
                assert_eq!(total, shards, "one latency observation per shard");
            }
            other => panic!("expected histogram, got {other:?}"),
        }

        // Wall-clock latency is volatile: it must not leak into the
        // deterministic snapshot, while the exact counters stay.
        let det = obs.metrics.deterministic_snapshot();
        assert!(det.get("pool.shard_encode_ns").is_none());
        assert_eq!(det.counter("pool.jobs"), Some(3));
        assert_eq!(det.counter("pool.shards"), Some(shards));
    }

    #[test]
    fn submit_returns_at_once_and_drop_finishes_unwaited_jobs() {
        // The caller keeps computing while the core compresses: submit
        // queues and returns. Jobs nobody waits for are still encoded, and
        // dropping the pool joins its workers without hanging.
        let prev = snapshot(64, 2);
        let pool = CompressorPool::spawn(1, SOLO_QUANTUM, None);
        let pending: Vec<_> = (0..3)
            .map(|seed| {
                pool.submit(
                    0,
                    prev.clone(),
                    mutate(&prev, 7 + seed),
                    PaParams::default(),
                )
            })
            .collect();
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_add(i.wrapping_mul(2654435761));
        }
        assert_ne!(acc, 0);
        let mut pending = pending.into_iter();
        let (file, _) = pending.next().unwrap().wait();
        assert_eq!(pa_decode(&prev, &file).unwrap(), mutate(&prev, 7));
        drop(pending);
        let _ = pool.submit(0, prev.clone(), mutate(&prev, 9), PaParams::default());
        drop(pool); // must not hang or panic
    }

    /// The anti-scaling regression bar: on the small-edit regime, a pool
    /// asked for 8 workers must not be slower than a single worker beyond
    /// 10% noise. (On a small host both clamp to few threads and this
    /// checks pure scheduling overhead; on a multicore host it checks
    /// genuine scaling.) The two pools are timed alternately within each
    /// round and each side keeps its best, so a load spike on a shared
    /// host lands on both sides of one round instead of on one pool's
    /// whole series.
    #[test]
    fn pool_does_not_anti_scale_on_small_edits() {
        const PAGES: usize = 256;
        let prev = snapshot(PAGES, 80);
        let dirty = mutate(&prev, 81); // 128-byte edit per page
        let pools = [
            CompressorPool::spawn(1, SOLO_QUANTUM, None),
            CompressorPool::spawn(8, SOLO_QUANTUM, None),
        ];
        let ns_per_page = |pool: &CompressorPool| {
            let (prev, dirty) = (prev.clone(), dirty.clone());
            let t0 = Instant::now();
            pool.encode(0, prev, dirty, PaParams::default());
            t0.elapsed().as_nanos() as f64 / PAGES as f64
        };
        for pool in &pools {
            ns_per_page(pool); // warm the threads
        }
        let mut best = [f64::INFINITY; 2];
        for _ in 1..16 {
            for (b, pool) in best.iter_mut().zip(&pools) {
                *b = b.min(ns_per_page(pool));
            }
        }
        let [one, eight] = best;
        assert!(
            eight <= one * 1.1,
            "pool anti-scales: 1 worker {one:.0} ns/page, 8 workers {eight:.0} ns/page"
        );
    }
}
