//! Real dedicated checkpointing core(s): a pool of compression workers.
//!
//! The analytic models *assume* compression and remote transfer can run on
//! spare cores without perturbing the application (Section II.C). This
//! module implements that mechanism for real: a [`CompressorPool`] owns the
//! delta compressors; the compute thread hands it `(previous pages, dirty
//! pages)` jobs over a channel and keeps executing. This is the moral
//! equivalent of the paper pinning Xdelta3-PA to a core with `taskset` —
//! generalized from one spare core to `N`.
//!
//! Because pages are independent delta units in `pa_encode`, each job is
//! split page-wise into contiguous shards (see `plan_shards`), shards are
//! compressed out of order across the workers, and the per-shard outputs
//! are reassembled so the delivered [`PaDeltaFile`] is byte-for-byte what
//! the serial encoder would have produced. Results are always delivered in
//! job *submission* order, and every stage of the pipeline is bounded, so
//! a pool that falls behind pushes back on `submit` — the paper's
//! single-core drain rule, generalized. `CompressorPool::spawn(1, depth)`
//! is the paper's single dedicated core: one worker plans exactly one
//! shard per job.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};

use aic_delta::pa::{
    pa_assemble, pa_encode_shard_scratch, plan_shards, PaDeltaFile, PaParams, PageRecord, Shard,
    ShardScratch, SourceIndexCache, SHARDS_PER_WORKER,
};
use aic_delta::stats::EncodeReport;
use aic_memsim::Snapshot;
use aic_obs::{Counter, CounterShard, Gauge, Histogram, HistogramShard, Obs, Volatility};

/// Shard encode latency buckets, nanoseconds (1 µs .. 100 ms).
static SHARD_NS_BUCKETS: [u64; 6] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// The pool's registered metric handles.
///
/// `pool.shard_encode_ns` is wall-clock derived and therefore registered
/// [`Volatility::Volatile`] — it never appears in deterministic snapshots.
/// The job/shard counters are exact and caller-ordered, so they stay stable.
#[derive(Debug, Clone)]
struct PoolObs {
    jobs: Counter,
    queue_depth: Gauge,
    shards: Counter,
    shard_ns: Histogram,
    cache_hits: Gauge,
    cache_misses: Gauge,
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
            cache_hits: m.gauge("pool.cache.hits"),
            cache_misses: m.gauge("pool.cache.misses"),
        }
    }
}

/// A compression job for the checkpointing core(s).
#[derive(Debug)]
pub struct CompressJob {
    /// Checkpoint sequence number (echoed back in the result).
    pub seq: u64,
    /// Previous checkpoint's page contents (delta sources).
    pub prev: Snapshot,
    /// Dirty pages to compress.
    pub dirty: Snapshot,
    /// Compressor parameters.
    pub params: PaParams,
}

/// The pool's answer.
#[derive(Debug)]
pub struct CompressResult {
    /// Sequence number of the job.
    pub seq: u64,
    /// The compressed page-aligned delta file.
    pub file: PaDeltaFile,
    /// Work accounting (feeds the latency cost model / predictor).
    pub report: EncodeReport,
    /// Wall-clock span from dispatch to the last shard finishing — the
    /// *service* latency the `dl` predictor should see for this pool width.
    pub wall: Duration,
    /// Time the job spent queued behind earlier jobs before dispatch. Kept
    /// separate from `wall` so a backed-up pool does not inflate the
    /// predictor's view of compression cost.
    pub queued: Duration,
}

/// One shard of one job, as handed to a pool worker.
struct ShardTask {
    job: Arc<CompressJob>,
    state: Arc<JobState>,
    slot: usize,
    shard: Shard,
}

/// Shared reassembly state for one in-flight job.
struct JobState {
    /// Submission index — the delivery-order key (independent of `seq`,
    /// which callers are free to assign arbitrarily).
    order: u64,
    dispatched_at: Instant,
    queued: Duration,
    /// One independently locked slot per shard: a worker finishing shard
    /// `i` touches only slot `i`, so result write-back never contends
    /// across workers (a single `Mutex<Vec<_>>` here serialized every
    /// write-back of every worker behind one lock).
    parts: Box<[Mutex<Option<ShardOutput>>]>,
    remaining: AtomicUsize,
}

/// One shard's encoded records plus its partial report.
type ShardOutput = (Vec<PageRecord>, EncodeReport);

/// Tracks how many shards sit in the [`ShardQueues`] and whether the pool
/// is shutting down.
struct Gate {
    queued: usize,
    closed: bool,
}

/// Work-stealing shard scheduler: one double-ended queue per worker thread
/// plus a shared gate carrying the total queued count, the capacity bound
/// and the shutdown flag.
///
/// The dispatcher deals shards round-robin onto the per-worker queues; a
/// worker pops from the *front* of its own queue and, when that is empty,
/// steals from the *back* of a sibling's. A single shared channel — the
/// old design — made every push and every pop contend on one lock and let
/// an idle worker sit empty-handed while a straggler's queue backed up;
/// here the common case (worker pops its own queue) touches a lock nobody
/// else wants, and stragglers are automatically relieved by theft.
///
/// The gate bounds the total queued shards, so a dispatcher outrunning the
/// workers blocks in [`ShardQueues::push`] — the pool's internal stage of
/// the submit back-pressure chain.
struct ShardQueues {
    queues: Vec<Mutex<VecDeque<ShardTask>>>,
    gate: Mutex<Gate>,
    available: Condvar,
    room: Condvar,
    capacity: usize,
}

impl ShardQueues {
    fn new(threads: usize, capacity: usize) -> Self {
        ShardQueues {
            queues: (0..threads.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            gate: Mutex::new(Gate {
                queued: 0,
                closed: false,
            }),
            available: Condvar::new(),
            room: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue onto worker `home`'s queue; blocks while at capacity.
    /// Returns `Err` if the pool shut down underneath the dispatcher.
    fn push(&self, home: usize, task: ShardTask) -> Result<(), ()> {
        let mut gate = self.gate.lock().unwrap();
        while gate.queued >= self.capacity && !gate.closed {
            gate = self.room.wait(gate).unwrap();
        }
        if gate.closed {
            return Err(());
        }
        // Insert *before* the count increment (still under the gate), so a
        // positive count always means the task is already findable.
        self.queues[home % self.queues.len()]
            .lock()
            .unwrap()
            .push_back(task);
        gate.queued += 1;
        drop(gate);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeue for worker `who`: own queue front first, then steal from
    /// siblings' backs. Blocks until a task is available; returns `None`
    /// once the pool is closed *and* every queued shard has been taken.
    fn pop(&self, who: usize) -> Option<ShardTask> {
        {
            let mut gate = self.gate.lock().unwrap();
            loop {
                if gate.queued > 0 {
                    gate.queued -= 1;
                    break;
                }
                if gate.closed {
                    return None;
                }
                gate = self.available.wait(gate).unwrap();
            }
        }
        self.room.notify_one();
        // The decrement above entitles this worker to exactly one task,
        // and pushes land before the count goes up — so a full scan can
        // only come up empty if a racing sibling momentarily over-took;
        // retry until our task materializes.
        let n = self.queues.len();
        loop {
            if let Some(t) = self.queues[who % n].lock().unwrap().pop_front() {
                return Some(t);
            }
            for k in 1..n {
                if let Some(t) = self.queues[(who + k) % n].lock().unwrap().pop_back() {
                    return Some(t);
                }
            }
            std::thread::yield_now();
        }
    }

    /// Begin shutdown: queued shards still drain, new pushes fail, and
    /// workers whose queues empty out exit instead of sleeping.
    fn close(&self) {
        self.gate.lock().unwrap().closed = true;
        self.available.notify_all();
        self.room.notify_all();
    }
}

/// An assembled job on its way to the in-order collector.
struct Done {
    order: u64,
    result: CompressResult,
}

/// Handle to a pool of dedicated compression workers.
///
/// Jobs complete in submission order regardless of how their shards race.
/// Dropping the handle shuts the pool down cleanly: pending jobs are
/// finished first and every thread is joined, even if the caller never
/// received a single result.
pub struct CompressorPool {
    tx: Option<Sender<(CompressJob, Instant)>>,
    rx: Receiver<CompressResult>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    submitted: AtomicU64,
    received: AtomicU64,
    /// Cross-interval per-page source-index cache, shared by every worker.
    /// A cache hit skips the per-page indexing pass; a hit is only taken on
    /// exact source equality, so pooled output stays bit-identical to the
    /// serial encoder. The engine invalidates it on restore/recovery.
    cache: Arc<SourceIndexCache>,
    obs: Option<PoolObs>,
}

impl CompressorPool {
    /// Spawn `workers` compression threads behind a bounded queue of
    /// `queue_depth` jobs.
    ///
    /// Every internal stage is bounded too, so when the pool falls behind
    /// and nobody drains results, `submit` blocks after a fixed number of
    /// in-flight jobs — back-pressure, not unbounded buffering. With
    /// `workers == 1` each job is planned as a single shard and the pool
    /// degenerates to the paper's single dedicated core.
    pub fn spawn(workers: usize, queue_depth: usize) -> Self {
        Self::spawn_with_obs(workers, queue_depth, None)
    }

    /// [`CompressorPool::spawn`] with an observability bundle attached: the
    /// pool reports job/shard counts, caller-visible queue depth, wall-clock
    /// shard encode latency (volatile), and the shared source-index cache's
    /// hit/miss totals. Workers batch their shard counts in a local
    /// [`CounterShard`] and their latency samples in a [`HistogramShard`],
    /// merged into the shared metrics when the worker exits — no extra
    /// atomic traffic on the encode path.
    ///
    /// The shard *plan* is always keyed by the requested `workers`, so the
    /// delivered bytes and the deterministic obs counters (`pool.shards`)
    /// are machine-independent; the number of OS threads actually spawned
    /// is clamped to the machine's available parallelism — on a small host
    /// the extra threads would only add context-switch and lock-handoff
    /// overhead (the measured cause of the pool's former anti-scaling).
    pub fn spawn_with_obs(workers: usize, queue_depth: usize, obs: Option<&Arc<Obs>>) -> Self {
        let pool_obs = obs.map(PoolObs::new);
        let workers = workers.max(1);
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = workers.min(hw);
        let depth = queue_depth.max(1);
        let (job_tx, job_rx) = bounded::<(CompressJob, Instant)>(depth);
        let shard_queues = Arc::new(ShardQueues::new(threads, workers * SHARDS_PER_WORKER));
        let (done_tx, done_rx) = bounded::<Done>(depth + workers);
        let (res_tx, res_rx) = bounded::<CompressResult>(depth * 2);

        let mut handles = Vec::with_capacity(threads + 2);
        let cache = Arc::new(SourceIndexCache::new());

        // Dispatcher: shards each job and deals the shards round-robin
        // onto the workers' queues.
        let dispatcher_done = done_tx.clone();
        let dispatcher_queues = Arc::clone(&shard_queues);
        handles.push(
            std::thread::Builder::new()
                .name("aic-ckpt-dispatch".into())
                .spawn(move || {
                    let mut order: u64 = 0;
                    let mut home: usize = 0;
                    'jobs: while let Ok((job, enqueued_at)) = job_rx.recv() {
                        let dispatched_at = Instant::now();
                        let queued = dispatched_at.duration_since(enqueued_at);
                        let shards = plan_shards(job.dirty.len(), workers);
                        if shards.is_empty() {
                            // Empty snapshot: nothing to compress, assemble
                            // the empty file right here.
                            let (file, report) = pa_assemble(std::iter::empty());
                            let sent = dispatcher_done.send(Done {
                                order,
                                result: CompressResult {
                                    seq: job.seq,
                                    file,
                                    report,
                                    wall: dispatched_at.elapsed(),
                                    queued,
                                },
                            });
                            if sent.is_err() {
                                break 'jobs;
                            }
                        } else {
                            let parts = (0..shards.len()).map(|_| Mutex::new(None)).collect();
                            let state = Arc::new(JobState {
                                order,
                                dispatched_at,
                                queued,
                                parts,
                                remaining: AtomicUsize::new(shards.len()),
                            });
                            let job = Arc::new(job);
                            for (slot, shard) in shards.into_iter().enumerate() {
                                let task = ShardTask {
                                    job: Arc::clone(&job),
                                    state: Arc::clone(&state),
                                    slot,
                                    shard,
                                };
                                if dispatcher_queues.push(home, task).is_err() {
                                    break 'jobs;
                                }
                                home = home.wrapping_add(1);
                            }
                        }
                        order += 1;
                    }
                    // Job feed is gone (handle dropped) or the pool is
                    // already closing: let the workers drain and exit.
                    dispatcher_queues.close();
                })
                .expect("spawn pool dispatcher"),
        );

        // Workers: compress shards; whoever finishes a job's last shard
        // assembles the file and hands it to the collector.
        for i in 0..threads {
            let queues = Arc::clone(&shard_queues);
            let done_tx = done_tx.clone();
            let cache = Arc::clone(&cache);
            let worker_obs = pool_obs.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("aic-ckpt-core-{i}"))
                    .spawn(move || {
                        // Worker-local obs batches: one shared merge per
                        // worker lifetime (both shards flush on drop),
                        // zero shared-atomic traffic per shard. Scratch
                        // buffers likewise live for the worker's lifetime.
                        let mut local = CounterShard::new();
                        let shard_slot = worker_obs.as_ref().map(|o| local.slot(o.shards.clone()));
                        let mut ns_local = worker_obs
                            .as_ref()
                            .map(|o| HistogramShard::new(o.shard_ns.clone()));
                        let mut scratch = ShardScratch::new();
                        while let Some(task) = queues.pop(i) {
                            let t0 = Instant::now();
                            let part = pa_encode_shard_scratch(
                                &task.job.prev,
                                &task.job.dirty,
                                task.shard,
                                &task.job.params,
                                Some(&cache),
                                &mut scratch,
                            );
                            if let Some(slot) = shard_slot {
                                local.inc(slot);
                            }
                            if let Some(h) = &mut ns_local {
                                h.observe(t0.elapsed().as_nanos() as u64);
                            }
                            *task.state.parts[task.slot].lock().unwrap() = Some(part);
                            if task.state.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
                                continue; // other shards still in flight
                            }
                            let parts =
                                task.state.parts.iter().map(|slot| {
                                    slot.lock().unwrap().take().expect("shard encoded")
                                });
                            let (file, report) = pa_assemble(parts);
                            let sent = done_tx.send(Done {
                                order: task.state.order,
                                result: CompressResult {
                                    seq: task.job.seq,
                                    file,
                                    report,
                                    wall: task.state.dispatched_at.elapsed(),
                                    queued: task.state.queued,
                                },
                            });
                            if sent.is_err() {
                                return;
                            }
                        }
                    })
                    .expect("spawn pool worker"),
            );
        }
        drop(done_tx);

        // Collector: re-sequences out-of-order job completions so results
        // leave the pool in submission order.
        handles.push(
            std::thread::Builder::new()
                .name("aic-ckpt-collect".into())
                .spawn(move || {
                    let mut next: u64 = 0;
                    let mut pending: BTreeMap<u64, CompressResult> = BTreeMap::new();
                    while let Ok(done) = done_rx.recv() {
                        pending.insert(done.order, done.result);
                        while let Some(result) = pending.remove(&next) {
                            if res_tx.send(result).is_err() {
                                return;
                            }
                            next += 1;
                        }
                    }
                })
                .expect("spawn pool collector"),
        );

        CompressorPool {
            tx: Some(job_tx),
            rx: res_rx,
            handles,
            workers,
            submitted: AtomicU64::new(0),
            received: AtomicU64::new(0),
            cache,
            obs: pool_obs,
        }
    }

    /// Refresh the caller-facing gauges: current queue depth and the shared
    /// cache's cumulative hit/miss totals. Called on every submit/receive,
    /// i.e. from the single caller thread, so the gauge writes are ordered.
    fn refresh_gauges(&self) {
        if let Some(o) = &self.obs {
            o.queue_depth.set(self.in_flight() as f64);
            o.cache_hits.set(self.cache.hits() as f64);
            o.cache_misses.set(self.cache.misses() as f64);
        }
    }

    /// Number of compression workers in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The pool's shared cross-interval source-index cache (hit/miss
    /// counters, footprint inspection).
    pub fn index_cache(&self) -> &Arc<SourceIndexCache> {
        &self.cache
    }

    /// Drop every cached source index. **Must** be called whenever the
    /// caller's notion of "previous state" jumps to a different version —
    /// restore from checkpoint, recovery rollback — *before* the next job
    /// is submitted. The per-entry equality check would reject stale
    /// entries anyway (hits require exact source equality), so this is
    /// defense in depth plus a memory release, not a correctness patch.
    ///
    /// Callers must not invalidate while jobs that should use the old
    /// entries are in flight; the engine only calls this at a recovery
    /// barrier where the pipeline has been cut.
    pub fn invalidate_cache(&self) {
        self.cache.invalidate_all();
    }

    /// Submit a job; blocks if the queue is full.
    pub fn submit(&self, job: CompressJob) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.jobs.inc();
        }
        self.refresh_gauges();
        self.tx
            .as_ref()
            .expect("pool is live")
            .send((job, Instant::now()))
            .expect("compressor pool died");
    }

    /// Number of jobs submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Jobs submitted but not yet received — the pool's current depth as
    /// seen by the caller (queued + compressing + awaiting pickup).
    pub fn in_flight(&self) -> u64 {
        self.submitted() - self.received.load(Ordering::Relaxed)
    }

    /// Receive the next completed result, blocking.
    pub fn recv(&self) -> CompressResult {
        let r = self.rx.recv().expect("compressor pool died");
        self.received.fetch_add(1, Ordering::Relaxed);
        self.refresh_gauges();
        r
    }

    /// Receive a completed result if one is ready.
    pub fn try_recv(&self) -> Option<CompressResult> {
        let r = self.rx.try_recv().ok()?;
        self.received.fetch_add(1, Ordering::Relaxed);
        self.refresh_gauges();
        Some(r)
    }

    /// Shut down: wait for all pending jobs and collect their results
    /// (those not already taken via `recv`).
    pub fn drain(mut self) -> Vec<CompressResult> {
        drop(self.tx.take());
        let mut out = Vec::new();
        while let Ok(r) = self.rx.recv() {
            self.received.fetch_add(1, Ordering::Relaxed);
            out.push(r);
        }
        self.refresh_gauges();
        // Drop joins the (now finished) threads.
        out
    }
}

impl Drop for CompressorPool {
    fn drop(&mut self) {
        drop(self.tx.take());
        // Keep draining results while the pipeline winds down: a bounded
        // result channel full of unread results must never wedge a worker
        // (and thereby the join below). Pending jobs still get compressed —
        // the job channel is closed, not the pipeline.
        while self.rx.recv().is_ok() {}
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aic_delta::pa::{pa_decode, pa_encode};
    use aic_memsim::{Page, PAGE_SIZE};
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

    #[test]
    fn results_arrive_in_order_and_decode() {
        let prev = snapshot(16, 1);
        let core = CompressorPool::spawn(1, 4);
        let mut dirties = Vec::new();
        for seq in 0..5u64 {
            let dirty = mutate(&prev, 100 + seq);
            dirties.push(dirty.clone());
            core.submit(CompressJob {
                seq,
                prev: prev.clone(),
                dirty,
                params: PaParams::default(),
            });
        }
        let results = core.drain();
        assert_eq!(results.len(), 5);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            let restored = pa_decode(&prev, &r.file).unwrap();
            assert_eq!(restored, dirties[i]);
            assert!(r.report.delta_bytes > 0);
        }
    }

    #[test]
    fn compute_thread_overlaps_with_compression() {
        // While the core compresses a sizeable job, the "compute" thread
        // keeps making progress. We assert overlap structurally: the
        // compute loop finishes its work before the blocking recv returns
        // a late-submitted job batch.
        let prev = snapshot(256, 2);
        let core = CompressorPool::spawn(1, 2);
        for seq in 0..3 {
            core.submit(CompressJob {
                seq,
                prev: prev.clone(),
                dirty: mutate(&prev, 7 + seq),
                params: PaParams::default(),
            });
        }
        // Compute work proceeds while the core chews.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_add(i.wrapping_mul(2654435761));
        }
        assert_ne!(acc, 0);
        let results = core.drain();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.wall > Duration::ZERO));
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let prev = snapshot(4, 3);
        let core = CompressorPool::spawn(1, 1);
        core.submit(CompressJob {
            seq: 0,
            prev: prev.clone(),
            dirty: mutate(&prev, 9),
            params: PaParams::default(),
        });
        drop(core); // must not hang or panic
    }

    #[test]
    fn drop_with_full_result_queue_does_not_deadlock() {
        // Regression test: with a tiny queue and many completed-but-unread
        // results, the bounded result channel fills up and the pipeline
        // stalls mid-delivery. Drop must drain it while joining instead of
        // wedging on a worker blocked in send().
        let prev = snapshot(2, 30);
        let pool = CompressorPool::spawn(2, 1);
        for seq in 0..8u64 {
            pool.submit(CompressJob {
                seq,
                prev: prev.clone(),
                dirty: mutate(&prev, 40 + seq),
                params: PaParams::default(),
            });
        }
        // Give the pipeline time to fill every bounded stage.
        std::thread::sleep(Duration::from_millis(50));
        drop(pool); // must not hang or panic
    }

    #[test]
    fn pool_output_is_bit_identical_to_serial_encode() {
        // The acceptance bar for the pool: for N ∈ {1, 4} and snapshots of
        // 0, 1, and many pages, the delivered PaDeltaFile is byte-for-byte
        // the serial pa_encode output.
        for &workers in &[1usize, 4] {
            let base = snapshot(67, 10);
            let cases: Vec<(Snapshot, Snapshot)> = vec![
                (base.clone(), Snapshot::new()),              // empty dirty set
                (base.clone(), mutate(&snapshot(1, 11), 12)), // single page
                (base.clone(), mutate(&base, 13)),            // many pages
                (Snapshot::new(), snapshot(9, 14)),           // all pages new
            ];
            let pool = CompressorPool::spawn(workers, 4);
            for (seq, (prev, dirty)) in cases.iter().enumerate() {
                pool.submit(CompressJob {
                    seq: seq as u64,
                    prev: prev.clone(),
                    dirty: dirty.clone(),
                    params: PaParams::default(),
                });
            }
            let results = pool.drain();
            assert_eq!(results.len(), cases.len());
            for (r, (prev, dirty)) in results.iter().zip(&cases) {
                let (file, report) = pa_encode(prev, dirty, &PaParams::default());
                assert_eq!(r.file, file, "workers={workers} seq={}", r.seq);
                assert_eq!(r.report, report, "workers={workers} seq={}", r.seq);
            }
        }
    }

    #[test]
    fn pool_cache_warms_across_jobs_and_output_stays_identical() {
        // Submit the same (prev, dirty) job twice: the second run should be
        // served from the shared index cache (hits == hot pages) and still
        // produce bit-identical output. Then invalidate and confirm the
        // next job rebuilds from scratch. The first job must be fully
        // received before the second is submitted — concurrent jobs may
        // race on cache population and split the hit/miss counts.
        let prev = snapshot(24, 50);
        let dirty = mutate(&prev, 51);
        let pool = CompressorPool::spawn(4, 4);
        pool.submit(CompressJob {
            seq: 0,
            prev: prev.clone(),
            dirty: dirty.clone(),
            params: PaParams::default(),
        });
        let r0 = pool.recv();
        pool.submit(CompressJob {
            seq: 1,
            prev: prev.clone(),
            dirty: dirty.clone(),
            params: PaParams::default(),
        });
        let r1 = pool.recv();
        assert_eq!(r0.file, r1.file);
        assert_eq!(r0.report, r1.report);
        let (serial, serial_report) = pa_encode(&prev, &dirty, &PaParams::default());
        assert_eq!(r0.file, serial);
        assert_eq!(r0.report, serial_report);
        let cache = pool.index_cache();
        assert_eq!(cache.misses(), 24, "first job built every hot-page index");
        assert_eq!(cache.hits(), 24, "second job hit every one");

        pool.invalidate_cache();
        assert!(cache.is_empty());
        pool.submit(CompressJob {
            seq: 2,
            prev: prev.clone(),
            dirty: dirty.clone(),
            params: PaParams::default(),
        });
        let r2 = pool.recv();
        assert_eq!(r2.file, serial);
        assert_eq!(cache.misses(), 48, "post-invalidation job rebuilt all 24");
    }

    #[test]
    fn attached_obs_counts_jobs_shards_and_cache_traffic() {
        let obs = Arc::new(Obs::new());
        let prev = snapshot(24, 60);
        let dirty = mutate(&prev, 61);
        let pool = CompressorPool::spawn_with_obs(4, 4, Some(&obs));
        for seq in 0..3u64 {
            pool.submit(CompressJob {
                seq,
                prev: prev.clone(),
                dirty: dirty.clone(),
                params: PaParams::default(),
            });
        }
        // drain() consumes the pool, joining the workers, which flushes
        // their local shard tallies into the shared counter.
        let results = pool.drain();
        assert_eq!(results.len(), 3);

        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("pool.jobs"), Some(3));
        let shards = snap.counter("pool.shards").unwrap();
        assert!(shards >= 3, "each job is at least one shard, got {shards}");
        assert_eq!(snap.gauge("pool.queue_depth"), Some(0.0));
        // 3 jobs x 24 pages = 72 cache lookups. The hit/miss split is not
        // exactly 48/24: two workers racing on the same cold page may both
        // miss (a benign double build), so only the totals are pinned.
        let misses = snap.gauge("pool.cache.misses").unwrap();
        let hits = snap.gauge("pool.cache.hits").unwrap();
        assert_eq!(hits + misses, 72.0, "hits {hits} + misses {misses}");
        assert!(misses >= 24.0, "first job builds every hot-page index");
        assert!(hits >= 24.0, "later jobs must mostly hit, got {hits}");
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
    fn shard_queues_steal_and_drain_on_close() {
        // Direct scheduler test: tasks dealt to worker 0's queue must be
        // stealable by worker 1, queued tasks drain after close, and a
        // post-drain pop reports shutdown.
        let job = Arc::new(CompressJob {
            seq: 0,
            prev: Snapshot::new(),
            dirty: Snapshot::new(),
            params: PaParams::default(),
        });
        let mk = |slot: usize| ShardTask {
            job: Arc::clone(&job),
            state: Arc::new(JobState {
                order: 0,
                dispatched_at: Instant::now(),
                queued: Duration::ZERO,
                parts: Box::new([]),
                remaining: AtomicUsize::new(1),
            }),
            slot,
            shard: Shard { start: 0, end: 0 },
        };
        let q = ShardQueues::new(2, 8);
        for slot in 0..3 {
            q.push(0, mk(slot)).unwrap(); // all on worker 0's queue
        }
        // Worker 1 owns an empty queue: it must steal from the BACK of
        // worker 0's queue (LIFO for thieves, FIFO for the owner).
        assert_eq!(q.pop(1).unwrap().slot, 2, "thief takes the back");
        assert_eq!(q.pop(0).unwrap().slot, 0, "owner takes the front");
        q.close();
        assert_eq!(q.pop(1).unwrap().slot, 1, "queued work drains post-close");
        assert!(q.pop(0).is_none(), "empty + closed = shutdown");
        assert!(q.push(0, mk(9)).is_err(), "pushes fail after close");
    }

    /// The anti-scaling regression bar: on the small-edit regime, a pool
    /// asked for 8 workers must not be slower than a single worker beyond
    /// 10% noise. (On a small host both clamp to the same thread count and
    /// this checks pure scheduling overhead; on a multicore host it checks
    /// genuine scaling.) The two pools are timed alternately within each
    /// round and each side keeps its best, so a load spike on a shared
    /// host lands on both sides of one round instead of on one pool's
    /// whole series. Excluded under `--cfg ci_slow`: wall-clock assertions
    /// are meaningless on starved shared runners.
    #[cfg(not(ci_slow))]
    #[test]
    fn pool_does_not_anti_scale_on_small_edits() {
        const PAGES: usize = 256;
        let prev = snapshot(PAGES, 80);
        let dirty = mutate(&prev, 81); // 128-byte edit per page
        let pools = [CompressorPool::spawn(1, 4), CompressorPool::spawn(8, 4)];
        let ns_per_page = |pool: &CompressorPool, seq: u64| {
            pool.submit(CompressJob {
                seq,
                prev: prev.clone(),
                dirty: dirty.clone(),
                params: PaParams::default(),
            });
            pool.recv().wall.as_nanos() as f64 / PAGES as f64
        };
        for pool in &pools {
            ns_per_page(pool, 0); // warm the cache and the threads
        }
        let mut best = [f64::INFINITY; 2];
        for seq in 1..16 {
            for (b, pool) in best.iter_mut().zip(&pools) {
                *b = b.min(ns_per_page(pool, seq));
            }
        }
        let [one, eight] = best;
        assert!(
            eight <= one * 1.1,
            "pool anti-scales: 1 worker {one:.0} ns/page, 8 workers {eight:.0} ns/page"
        );
    }

    #[test]
    fn submit_blocks_when_pipeline_is_full() {
        // Back-pressure: with nobody receiving, a submitter must block
        // after a bounded number of in-flight jobs instead of buffering
        // them all — independent of how fast the workers compress, because
        // every pipeline stage is a bounded channel. Receiving then
        // unblocks it and every result arrives in submission order.
        const JOBS: u64 = 64;
        let prev = snapshot(1, 20);
        let dirty = mutate(&prev, 21);
        let pool = Arc::new(CompressorPool::spawn(1, 2));
        let progress = Arc::new(AtomicU64::new(0));

        let submitter = std::thread::spawn({
            let pool = Arc::clone(&pool);
            let progress = Arc::clone(&progress);
            let (prev, dirty) = (prev.clone(), dirty.clone());
            move || {
                for seq in 0..JOBS {
                    pool.submit(CompressJob {
                        seq,
                        prev: prev.clone(),
                        dirty: dirty.clone(),
                        params: PaParams::default(),
                    });
                    progress.store(seq + 1, Ordering::SeqCst);
                }
            }
        });

        std::thread::sleep(Duration::from_millis(300));
        let high_water = progress.load(Ordering::SeqCst);
        assert!(
            high_water < JOBS,
            "submit never blocked: all {JOBS} jobs entered a \"bounded\" pipeline"
        );

        for seq in 0..JOBS {
            assert_eq!(pool.recv().seq, seq);
        }
        submitter.join().unwrap();
        assert_eq!(pool.in_flight(), 0);
    }
}
