//! The simulated shared-network transport for remote (L3) checkpoint
//! traffic: write-behind drains, SF-way contention, and seeded faults.
//!
//! The paper's remote level is a Lustre share at 2 MB/s per node whose
//! contention is modelled by the sharing factor SF (Section III.D). The
//! synchronous engine charged `c3 − c1` on the checkpointing core for every
//! commit; this module instead gives the engine a **write-behind commit
//! queue**: an interval becomes *locally durable* at L1/L2 and its delta is
//! handed to [`NetworkTransport`], which drains it to L3 asynchronously
//! while the application keeps running.
//!
//! Semantics, in the order they matter:
//!
//! * **Fair-share contention.** All in-flight transfers multiplex on one
//!   link. With `k` transfers active and sharing factor `SF`, each flow
//!   gets `B / (SF − 1 + k)` bytes/s — the arithmetic lives in
//!   [`aic_model::sharing::SharingModel`], the same model the closed-form
//!   [`aic_model::params::LevelCosts::with_sharing_factor`] stretches costs
//!   with, so a lone transfer drains in exactly `SF ×` its dedicated time,
//!   the stretch `repro fig7` applies in closed form.
//! * **Bounded queue + back-pressure.** At most `queue_depth` transfers may
//!   be outstanding. [`NetworkTransport::enqueue`] past that bound *stalls
//!   the caller*: the transport advances its own clock until a slot frees
//!   and reports the stall, which the engine charges as blocking overhead.
//! * **Faults + retry.** Each attempt may (deterministically, seeded per
//!   `(seq, attempt)`) suffer a transient **drop** (fails mid-transfer, the
//!   shipped prefix is wasted), a **timeout** (the attempt hangs and fails
//!   after a detection window) or a **slow link** (the attempt crawls at a
//!   fraction of its fair share). Failed attempts retry after a capped
//!   exponential backoff until [`RetryPolicy::max_attempts`], then give up
//!   — the checkpoint stays pending and the L3 chain's drained prefix ends
//!   before it.
//! * **Selective cancel.** [`NetworkTransport::cancel_seqs`] abandons a
//!   chosen set of transfers — the drains an anchor superseded, or those a
//!   crash or departure lost with its job — and leaves every other flow on
//!   the link untouched.
//! * **Virtual clock.** The transport never looks at the host clock; the
//!   engine advances it explicitly, so every metric, span and retry
//!   schedule is bit-reproducible under a fixed seed.

#![deny(missing_docs)]

use std::sync::Arc;

use aic_model::sharing::SharingModel;
use aic_obs::{Counter, FieldValue, Gauge, Obs, Span};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative tolerance when matching a computed event time to the step that
/// was actually taken (floating-point ties).
const TIE_EPS: f64 = 1e-12;

/// The physical link: bandwidth, per-attempt setup latency, and the
/// sharing factor that loads it with background claimants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Link bandwidth in bytes/s (the per-node L3 share, e.g. 2 MB/s).
    pub bytes_per_sec: f64,
    /// Per-attempt connection setup latency, seconds.
    pub latency: f64,
    /// Fair-share contention model (SF-way sharing).
    pub sharing: SharingModel,
}

impl LinkConfig {
    /// A link with the given bandwidth/latency and sharing factor `sf`.
    pub fn new(bytes_per_sec: f64, latency: f64, sf: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "link bandwidth must be positive");
        assert!(latency >= 0.0, "link latency must be non-negative");
        LinkConfig {
            bytes_per_sec,
            latency,
            sharing: SharingModel::new(sf),
        }
    }
}

/// Capped exponential backoff between attempts of one transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Give up after this many attempts (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, seconds.
    pub base_backoff: f64,
    /// Backoff ceiling, seconds.
    pub max_backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: 0.25,
            max_backoff: 8.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff after the `failed`-th failed attempt (1-based):
    /// `min(base · 2^(failed−1), cap)`.
    pub fn backoff_after(&self, failed: u32) -> f64 {
        let exp = failed.saturating_sub(1).min(32);
        (self.base_backoff * f64::from(1u32 << exp)).min(self.max_backoff)
    }
}

/// The transient fault classes the transport can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The attempt fails partway through; shipped bytes are wasted.
    Drop,
    /// The attempt hangs and is declared dead after a detection window.
    Timeout,
    /// The attempt crawls at a fraction of its fair share (but completes).
    SlowLink,
}

impl FaultKind {
    /// Static label for metrics and span fields.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Timeout => "timeout",
            FaultKind::SlowLink => "slow_link",
        }
    }
}

/// Seeded per-attempt fault injection.
///
/// Every attempt's fate is drawn from an RNG keyed by
/// `(seed, seq, attempt)` — **not** from a shared stream — so the schedule
/// for a given transfer is independent of when other transfers run, and a
/// whole run replays identically under one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportFaults {
    /// Master seed.
    pub seed: u64,
    /// Per-attempt probability of a transient drop.
    pub drop_prob: f64,
    /// Per-attempt probability of a hang-then-timeout.
    pub timeout_prob: f64,
    /// Per-attempt probability of a slow-link attempt.
    pub slow_prob: f64,
    /// Rate multiplier for a slow-link attempt (in `(0, 1]`).
    pub slow_factor: f64,
    /// Seconds before a hung attempt is declared dead.
    pub timeout_after: f64,
}

impl TransportFaults {
    /// A moderate mixed-fault profile for harness runs.
    pub fn mixed(seed: u64) -> Self {
        TransportFaults {
            seed,
            drop_prob: 0.08,
            timeout_prob: 0.04,
            slow_prob: 0.08,
            slow_factor: 0.25,
            timeout_after: 1.5,
        }
    }

    fn validate(&self) {
        assert!(
            self.slow_factor > 0.0 && self.slow_factor <= 1.0,
            "slow_factor must be in (0, 1], got {}",
            self.slow_factor
        );
        assert!(self.timeout_after > 0.0, "timeout_after must be positive");
        for p in [self.drop_prob, self.timeout_prob, self.slow_prob] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault probability {p} not in [0,1]"
            );
        }
    }

    /// The fate of attempt `attempt` (1-based) of transfer `seq`.
    fn plan(&self, seq: u64, attempt: u32) -> AttemptPlan {
        let mut rng = StdRng::seed_from_u64(mix3(self.seed, seq, u64::from(attempt)));
        // Fixed draw order keeps the plan stable if probabilities change
        // one at a time.
        let d: f64 = rng.gen();
        let t: f64 = rng.gen();
        let s: f64 = rng.gen();
        let frac: f64 = rng.gen();
        if d < self.drop_prob {
            AttemptPlan::Drop { at_fraction: frac }
        } else if t < self.timeout_prob {
            AttemptPlan::Timeout
        } else if s < self.slow_prob {
            AttemptPlan::Slow {
                factor: self.slow_factor,
            }
        } else {
            AttemptPlan::Clean
        }
    }
}

/// SplitMix64 finalizer — decorrelates nearby seeds.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix3(seed: u64, a: u64, b: u64) -> u64 {
    splitmix(seed ^ splitmix(a ^ splitmix(b)))
}

/// What the fault model decided for one attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AttemptPlan {
    Clean,
    Drop { at_fraction: f64 },
    Timeout,
    Slow { factor: f64 },
}

/// Write-behind tuning: everything about the drain except the link itself
/// (the engine derives the [`LinkConfig`] from its own `b3`/SF knobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteBehindConfig {
    /// Maximum outstanding (unacknowledged) transfers before `enqueue`
    /// back-pressures the caller.
    pub queue_depth: usize,
    /// Retry/backoff policy for failed attempts.
    pub retry: RetryPolicy,
    /// Optional seeded fault injection.
    pub faults: Option<TransportFaults>,
}

impl Default for WriteBehindConfig {
    fn default() -> Self {
        WriteBehindConfig {
            queue_depth: 4,
            retry: RetryPolicy::default(),
            faults: None,
        }
    }
}

impl WriteBehindConfig {
    /// Fault-free write-behind with the given queue depth.
    pub fn with_depth(queue_depth: usize) -> Self {
        WriteBehindConfig {
            queue_depth,
            ..WriteBehindConfig::default()
        }
    }
}

/// A terminal transfer outcome, surfaced to the caller by
/// [`NetworkTransport::advance_to`] and friends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransportEvent {
    /// The transfer fully drained to the remote store.
    Acked {
        /// Checkpoint sequence number.
        seq: u64,
        /// Transport-clock completion time.
        at: f64,
        /// Payload bytes shipped (excluding wasted retransmissions).
        bytes: u64,
        /// Bytes shipped by failed attempts of this transfer (dropped
        /// prefixes) — `bytes + wasted` is what actually crossed the
        /// link, the quantity per-tenant wire accounting must attribute.
        wasted: u64,
        /// Attempts used (1 = clean first try).
        attempts: u32,
    },
    /// The transfer exhausted its retry budget and was abandoned; the
    /// checkpoint stays pending and the L3 drained prefix ends before it.
    GaveUp {
        /// Checkpoint sequence number.
        seq: u64,
        /// Transport-clock time of abandonment.
        at: f64,
        /// Attempts used.
        attempts: u32,
    },
}

impl TransportEvent {
    /// The sequence number this event is about.
    pub fn seq(&self) -> u64 {
        match *self {
            TransportEvent::Acked { seq, .. } | TransportEvent::GaveUp { seq, .. } => seq,
        }
    }
}

/// Result of an [`NetworkTransport::enqueue`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct EnqueueOutcome {
    /// Seconds the caller was stalled by back-pressure before the transfer
    /// was admitted (0 when a slot was free).
    pub stalled_for: f64,
    /// Terminal events that fired while the caller waited.
    pub events: Vec<TransportEvent>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TransferState {
    /// Connection setup; counts toward the sharing divisor but ships no
    /// bytes yet. Remaining setup seconds inside.
    Setup(f64),
    /// Shipping bytes at the fair-share rate (times `rate_factor`).
    Transmitting,
    /// A timed-out attempt: hung, fails at the stored deadline.
    Hung { dead_at: f64 },
    /// Waiting out a backoff; re-attempts at the stored wakeup.
    Backoff { until: f64 },
}

#[derive(Debug, Clone, Copy)]
struct Transfer {
    seq: u64,
    bytes: f64,
    remaining: f64,
    attempt: u32,
    state: TransferState,
    rate_factor: f64,
    /// For a planned drop: fail once `remaining` falls to this.
    drop_below: Option<f64>,
    enqueued_at: f64,
    wasted_bytes: f64,
}

/// Registered transport metrics (see [`NetworkTransport::attach_obs`]).
#[derive(Debug, Clone)]
struct TransportObs {
    obs: Arc<Obs>,
    enqueued: Counter,
    acked: Counter,
    bytes_acked: Counter,
    bytes_wasted: Counter,
    retries: Counter,
    drops: Counter,
    timeouts: Counter,
    slow_links: Counter,
    gave_up: Counter,
    cancelled: Counter,
    bp_stalls: Counter,
    bp_wait: Gauge,
    queue_depth: Gauge,
    in_flight: Gauge,
}

impl TransportObs {
    fn new(obs: &Arc<Obs>) -> Self {
        let m = &obs.metrics;
        TransportObs {
            obs: Arc::clone(obs),
            enqueued: m.counter("transport.enqueued"),
            acked: m.counter("transport.acked"),
            bytes_acked: m.counter("transport.bytes_acked"),
            bytes_wasted: m.counter("transport.bytes_wasted"),
            retries: m.counter("transport.retries"),
            drops: m.counter("transport.drops"),
            timeouts: m.counter("transport.timeouts"),
            slow_links: m.counter("transport.slow_links"),
            gave_up: m.counter("transport.gave_up"),
            cancelled: m.counter("transport.cancelled"),
            bp_stalls: m.counter("transport.backpressure_stalls"),
            bp_wait: m.gauge("transport.backpressure_wait_s"),
            queue_depth: m.gauge("transport.queue_depth"),
            in_flight: m.gauge("transport.in_flight"),
        }
    }
}

/// The shared-network drain: a processor-sharing link simulation with a
/// bounded write-behind queue. See the module docs for semantics.
#[derive(Debug)]
pub struct NetworkTransport {
    link: LinkConfig,
    cfg: WriteBehindConfig,
    now: f64,
    transfers: Vec<Transfer>,
    backpressure_wait: f64,
    obs: Option<TransportObs>,
}

impl NetworkTransport {
    /// A transport over `link` with write-behind tuning `cfg`.
    ///
    /// # Panics
    /// On nonsensical tuning: zero queue depth, zero attempts, or fault
    /// probabilities/factors outside their domains.
    pub fn new(link: LinkConfig, cfg: WriteBehindConfig) -> Self {
        assert!(cfg.queue_depth >= 1, "queue depth must be ≥ 1");
        assert!(cfg.retry.max_attempts >= 1, "need ≥ 1 attempt");
        assert!(cfg.retry.base_backoff >= 0.0 && cfg.retry.max_backoff >= 0.0);
        if let Some(f) = &cfg.faults {
            f.validate();
        }
        NetworkTransport {
            link,
            cfg,
            now: 0.0,
            transfers: Vec::new(),
            backpressure_wait: 0.0,
            obs: None,
        }
    }

    /// Register transport metrics (queue depth, in-flight, retries, …) and
    /// emit `transport.drain` spans into `obs`.
    pub fn attach_obs(&mut self, obs: &Arc<Obs>) {
        let t = TransportObs::new(obs);
        t.queue_depth.set(self.cfg.queue_depth as f64);
        t.in_flight.set(self.transfers.len() as f64);
        self.obs = Some(t);
    }

    /// Current transport-clock time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The link profile this transport runs over.
    pub fn link(&self) -> &LinkConfig {
        &self.link
    }

    /// The write-behind tuning this transport runs with.
    pub fn config(&self) -> &WriteBehindConfig {
        &self.cfg
    }

    /// Outstanding (unacknowledged) transfers.
    pub fn in_flight(&self) -> usize {
        self.transfers.len()
    }

    /// True when nothing is outstanding.
    pub fn is_idle(&self) -> bool {
        self.transfers.is_empty()
    }

    /// Total seconds callers have been stalled by back-pressure.
    pub fn backpressure_wait(&self) -> f64 {
        self.backpressure_wait
    }

    /// Sequence numbers still outstanding, in submission order.
    pub fn pending_seqs(&self) -> Vec<u64> {
        self.transfers.iter().map(|t| t.seq).collect()
    }

    /// Admit a transfer of `bytes` payload bytes for checkpoint `seq` at
    /// caller time `at` (must not precede the transport clock).
    ///
    /// If the queue is full the call **blocks the caller**: the transport
    /// advances until a slot frees and the outcome reports the stall, which
    /// the engine charges as blocking overhead. Events that fired while
    /// waiting (including the ack that freed the slot) are returned.
    pub fn enqueue(&mut self, seq: u64, bytes: u64, at: f64) -> EnqueueOutcome {
        let mut events = self.advance_to(at);
        let mut stalled = 0.0;
        if self.transfers.len() >= self.cfg.queue_depth {
            let start = self.now;
            while self.transfers.len() >= self.cfg.queue_depth {
                let drained = self.step_until_event();
                debug_assert!(
                    !drained.is_empty() || self.transfers.len() < self.cfg.queue_depth,
                    "back-pressure wait made no progress"
                );
                events.extend(drained);
            }
            stalled = self.now - start;
            self.backpressure_wait += stalled;
            if let Some(o) = &self.obs {
                o.bp_stalls.inc();
                o.bp_wait.set(self.backpressure_wait);
                o.obs.spans.point(
                    "transport.backpressure",
                    self.now,
                    vec![
                        ("seq", seq.into()),
                        ("stalled_s", stalled.into()),
                        ("depth", self.cfg.queue_depth.into()),
                    ],
                );
            }
        }
        self.admit(seq, bytes as f64);
        if let Some(o) = &self.obs {
            o.enqueued.inc();
            o.in_flight.set(self.transfers.len() as f64);
        }
        EnqueueOutcome {
            stalled_for: stalled,
            events,
        }
    }

    /// Admit a transfer of `bytes` payload bytes now (the queue has room).
    fn admit(&mut self, seq: u64, bytes: f64) {
        debug_assert!(self.transfers.len() < self.cfg.queue_depth);
        let mut tr = Transfer {
            seq,
            bytes,
            remaining: bytes,
            attempt: 0,
            state: TransferState::Setup(0.0),
            rate_factor: 1.0,
            drop_below: None,
            enqueued_at: self.now,
            wasted_bytes: 0.0,
        };
        self.start_attempt(&mut tr, self.now);
        self.transfers.push(tr);
    }

    /// Begin the next attempt of `tr` at transport time `now`: samples the
    /// fault plan and arms setup/hang state.
    fn start_attempt(&self, tr: &mut Transfer, now: f64) {
        tr.attempt += 1;
        tr.remaining = tr.bytes;
        tr.rate_factor = 1.0;
        tr.drop_below = None;
        tr.state = TransferState::Setup(self.link.latency);
        let Some(faults) = self.cfg.faults else {
            return;
        };
        match faults.plan(tr.seq, tr.attempt) {
            AttemptPlan::Clean => {}
            AttemptPlan::Drop { at_fraction } => {
                // Fail once this much is left (i.e. `at_fraction` shipped).
                tr.drop_below = Some(tr.bytes * (1.0 - at_fraction));
            }
            AttemptPlan::Timeout => {
                tr.state = TransferState::Hung {
                    dead_at: now + faults.timeout_after,
                };
            }
            AttemptPlan::Slow { factor } => {
                tr.rate_factor = factor;
                if let Some(o) = &self.obs {
                    o.slow_links.inc();
                }
            }
        }
    }

    /// Count of transfers occupying a link share (everything not in
    /// backoff — setup and hung attempts hold their connection).
    fn active_flows(&self) -> usize {
        self.transfers
            .iter()
            .filter(|t| !matches!(t.state, TransferState::Backoff { .. }))
            .count()
    }

    /// Advance the virtual clock to `t`, draining transfers; returns the
    /// terminal events that fired, in firing order.
    pub fn advance_to(&mut self, t: f64) -> Vec<TransportEvent> {
        let mut events = Vec::new();
        while self.now < t {
            match self.next_event_in(t - self.now) {
                StepPlan::Quiet => {
                    // No terminal event inside the horizon, but in-flight
                    // transfers still ship bytes for the remaining stretch.
                    events.extend(self.take_step(t - self.now));
                    break;
                }
                StepPlan::Step(dt) => {
                    events.extend(self.take_step(dt));
                }
            }
        }
        events
    }

    /// Run forward until at least one terminal event fires (used for
    /// back-pressure waits and quiesce). Must only be called with
    /// outstanding transfers.
    fn step_until_event(&mut self) -> Vec<TransportEvent> {
        debug_assert!(!self.transfers.is_empty());
        loop {
            match self.next_event_in(f64::INFINITY) {
                StepPlan::Quiet => unreachable!("outstanding transfers always have a next event"),
                StepPlan::Step(dt) => {
                    let events = self.take_step(dt);
                    if !events.is_empty() {
                        return events;
                    }
                }
            }
        }
    }

    /// Drain everything outstanding, however long it takes; returns the
    /// events and the transport-clock time the link went idle. Terminates
    /// because every state has a finite next event and attempts are capped.
    pub fn quiesce(&mut self) -> (Vec<TransportEvent>, f64) {
        let mut events = Vec::new();
        while !self.transfers.is_empty() {
            events.extend(self.step_until_event());
        }
        (events, self.now)
    }

    /// Cancel a specific set of outstanding transfers — an anchor
    /// superseded them, or the job that enqueued them crashed or departed —
    /// while every other transfer on the link keeps progressing. Returns
    /// how many were cancelled (slots freed immediately).
    pub fn cancel_seqs(&mut self, seqs: &[u64]) -> usize {
        let before = self.transfers.len();
        let now = self.now;
        let obs = self.obs.clone();
        self.transfers.retain(|t| {
            let keep = !seqs.contains(&t.seq);
            if !keep {
                if let Some(o) = &obs {
                    o.cancelled.inc();
                    o.obs.spans.point(
                        "transport.cancel",
                        now,
                        vec![("seq", t.seq.into()), ("selective", true.into())],
                    );
                }
            }
            keep
        });
        let cancelled = before - self.transfers.len();
        if let Some(o) = &self.obs {
            o.in_flight.set(self.transfers.len() as f64);
        }
        cancelled
    }

    /// Fault-free estimate of when checkpoint `seq` will be acknowledged,
    /// as seconds from the transport's current clock. `None` if `seq` is
    /// not outstanding (already acked, given up, or never enqueued).
    ///
    /// Assumes no further arrivals and no faults: under processor sharing
    /// every active flow progresses at the same per-flow rate, so flows
    /// complete in ascending order of remaining bytes. Per-attempt setup
    /// latency is ignored (it is milliseconds against multi-second
    /// drains); the estimate is exact for latency-free links.
    pub fn eta_of(&self, seq: u64) -> Option<f64> {
        self.transfers.iter().find(|t| t.seq == seq)?;
        let mut flows: Vec<(u64, f64)> = self
            .transfers
            .iter()
            .map(|t| {
                let remaining = match t.state {
                    TransferState::Transmitting => t.remaining,
                    // Setup has shipped nothing; hung/backed-off attempts
                    // restart from scratch.
                    _ => t.bytes,
                };
                (t.seq, remaining)
            })
            .collect();
        flows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let b = self.link.bytes_per_sec;
        let mut t_acc = 0.0;
        let mut shipped = 0.0; // bytes every live flow has shipped so far
        for (i, &(flow_seq, remaining)) in flows.iter().enumerate() {
            let k = flows.len() - i;
            let divisor = self.link.sharing.rate_divisor(k);
            t_acc += (remaining - shipped).max(0.0) * divisor / b;
            shipped = remaining.max(shipped);
            if flow_seq == seq {
                return Some(t_acc);
            }
        }
        None
    }

    /// Plan the next discrete step, bounded by `horizon` seconds.
    fn next_event_in(&self, horizon: f64) -> StepPlan {
        let mut dt = horizon;
        let mut any = false;
        let active = self.active_flows();
        for tr in &self.transfers {
            let candidate = match tr.state {
                TransferState::Setup(left) => left,
                TransferState::Hung { dead_at } => dead_at - self.now,
                TransferState::Backoff { until } => until - self.now,
                TransferState::Transmitting => {
                    let to_event = match tr.drop_below {
                        Some(floor) => (tr.remaining - floor).max(0.0),
                        None => tr.remaining,
                    };
                    let divisor = self.link.sharing.rate_divisor(active.max(1));
                    to_event * divisor / (self.link.bytes_per_sec * tr.rate_factor)
                }
            };
            let candidate = candidate.max(0.0);
            if candidate < dt {
                dt = candidate;
                any = true;
            } else if candidate <= dt * (1.0 + TIE_EPS) {
                any = true;
            }
        }
        if !any && horizon.is_infinite() {
            // Only reachable with no transfers; callers guard against it.
            return StepPlan::Quiet;
        }
        if dt >= horizon {
            if horizon.is_finite() {
                return StepPlan::Quiet;
            }
            StepPlan::Step(dt)
        } else {
            StepPlan::Step(dt)
        }
    }

    /// Advance all transfers by `dt` and process the events that land
    /// exactly at the step boundary.
    fn take_step(&mut self, dt: f64) -> Vec<TransportEvent> {
        let active = self.active_flows();
        let end = self.now + dt;
        let tie = |candidate: f64| candidate <= dt * (1.0 + TIE_EPS) + f64::EPSILON;
        let mut events = Vec::new();
        let mut idx = 0;
        while idx < self.transfers.len() {
            let tr = &mut self.transfers[idx];
            let mut remove = false;
            match tr.state {
                TransferState::Setup(left) => {
                    if tie(left) {
                        tr.state = TransferState::Transmitting;
                    } else {
                        tr.state = TransferState::Setup(left - dt);
                    }
                }
                TransferState::Hung { dead_at } => {
                    if tie(dead_at - self.now) {
                        let ev = Self::fail_attempt(
                            tr,
                            FaultKind::Timeout,
                            end,
                            &self.cfg.retry,
                            self.obs.as_ref(),
                        );
                        if let Some(e) = ev {
                            events.push(e);
                            remove = true;
                        }
                    }
                }
                TransferState::Backoff { until } => {
                    if tie(until - self.now) {
                        // Re-attempt from scratch.
                        let mut t = *tr;
                        self.start_attempt(&mut t, end);
                        self.transfers[idx] = t;
                    }
                }
                TransferState::Transmitting => {
                    let divisor = self.link.sharing.rate_divisor(active.max(1));
                    let rate = self.link.bytes_per_sec * tr.rate_factor / divisor;
                    let to_event = match tr.drop_below {
                        Some(floor) => (tr.remaining - floor).max(0.0),
                        None => tr.remaining,
                    };
                    if tie(to_event / rate) {
                        match tr.drop_below {
                            Some(floor) => {
                                // Transient drop: the shipped prefix is lost.
                                tr.wasted_bytes += tr.bytes - floor;
                                let ev = Self::fail_attempt(
                                    tr,
                                    FaultKind::Drop,
                                    end,
                                    &self.cfg.retry,
                                    self.obs.as_ref(),
                                );
                                if let Some(e) = ev {
                                    events.push(e);
                                    remove = true;
                                }
                            }
                            None => {
                                let ev = TransportEvent::Acked {
                                    seq: tr.seq,
                                    at: end,
                                    bytes: tr.bytes.round() as u64,
                                    wasted: tr.wasted_bytes.round() as u64,
                                    attempts: tr.attempt,
                                };
                                if let Some(o) = &self.obs {
                                    o.acked.inc();
                                    o.bytes_acked.add(tr.bytes.round() as u64);
                                    o.bytes_wasted.add(tr.wasted_bytes.round() as u64);
                                    let span = Span::enter(
                                        &o.obs.spans,
                                        "transport.drain",
                                        tr.enqueued_at,
                                        vec![
                                            ("seq", tr.seq.into()),
                                            ("bytes", FieldValue::U64(tr.bytes.round() as u64)),
                                        ],
                                    );
                                    span.exit_with(
                                        end,
                                        vec![
                                            ("attempts", u64::from(tr.attempt).into()),
                                            (
                                                "wasted_bytes",
                                                FieldValue::U64(tr.wasted_bytes.round() as u64),
                                            ),
                                        ],
                                    );
                                }
                                events.push(ev);
                                remove = true;
                            }
                        }
                    } else {
                        tr.remaining -= rate * dt;
                    }
                }
            }
            if remove {
                self.transfers.remove(idx);
            } else {
                idx += 1;
            }
        }
        self.now = end;
        if let Some(o) = &self.obs {
            o.in_flight.set(self.transfers.len() as f64);
        }
        events
    }

    /// Handle a failed attempt: schedule a retry with capped exponential
    /// backoff, or give up past the attempt budget (returning the terminal
    /// event; the caller removes the transfer).
    fn fail_attempt(
        tr: &mut Transfer,
        kind: FaultKind,
        at: f64,
        retry: &RetryPolicy,
        obs: Option<&TransportObs>,
    ) -> Option<TransportEvent> {
        if let Some(o) = obs {
            match kind {
                FaultKind::Drop => o.drops.inc(),
                FaultKind::Timeout => o.timeouts.inc(),
                FaultKind::SlowLink => {}
            }
        }
        if tr.attempt >= retry.max_attempts {
            if let Some(o) = obs {
                o.gave_up.inc();
                o.obs.spans.point(
                    "transport.gave_up",
                    at,
                    vec![
                        ("seq", tr.seq.into()),
                        ("attempts", u64::from(tr.attempt).into()),
                        ("kind", kind.label().into()),
                    ],
                );
            }
            return Some(TransportEvent::GaveUp {
                seq: tr.seq,
                at,
                attempts: tr.attempt,
            });
        }
        let backoff = retry.backoff_after(tr.attempt);
        if let Some(o) = obs {
            o.retries.inc();
            o.obs.spans.point(
                "transport.retry",
                at,
                vec![
                    ("seq", tr.seq.into()),
                    ("attempt", u64::from(tr.attempt).into()),
                    ("kind", kind.label().into()),
                    ("backoff_s", backoff.into()),
                ],
            );
        }
        tr.state = TransferState::Backoff {
            until: at + backoff,
        };
        None
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum StepPlan {
    /// Nothing fires within the horizon.
    Quiet,
    /// Step forward this many seconds (an event lands at the boundary).
    Step(f64),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(b: f64, sf: f64) -> LinkConfig {
        LinkConfig::new(b, 0.0, sf)
    }

    #[test]
    fn lone_transfer_drains_at_full_bandwidth_when_dedicated() {
        let mut t = NetworkTransport::new(link(1e6, 1.0), WriteBehindConfig::with_depth(2));
        let out = t.enqueue(0, 2_000_000, 0.0);
        assert_eq!(out.stalled_for, 0.0);
        let (events, at) = t.quiesce();
        assert_eq!(
            events,
            vec![TransportEvent::Acked {
                seq: 0,
                at: 2.0,
                bytes: 2_000_000,
                wasted: 0,
                attempts: 1
            }]
        );
        assert_eq!(at, 2.0);
    }

    #[test]
    fn sharing_factor_stretches_a_lone_drain_by_sf() {
        for sf in [1.0, 3.0, 7.0] {
            let mut t = NetworkTransport::new(link(1e6, sf), WriteBehindConfig::with_depth(1));
            t.enqueue(0, 1_000_000, 0.0);
            let (_, at) = t.quiesce();
            assert!((at - sf).abs() < 1e-9, "sf={sf} drained at {at}");
        }
    }

    #[test]
    fn setup_latency_precedes_bytes() {
        let mut t = NetworkTransport::new(
            LinkConfig::new(1e6, 0.5, 1.0),
            WriteBehindConfig::with_depth(1),
        );
        t.enqueue(0, 1_000_000, 0.0);
        let (_, at) = t.quiesce();
        assert!((at - 1.5).abs() < 1e-9, "drained at {at}");
    }

    #[test]
    fn concurrent_transfers_fair_share_the_link() {
        // Two equal transfers on a dedicated link: each gets B/2 until the
        // first completes... but they're equal, so both finish together at
        // 2x the lone duration.
        let mut t = NetworkTransport::new(link(1e6, 1.0), WriteBehindConfig::with_depth(2));
        t.enqueue(0, 1_000_000, 0.0);
        t.enqueue(1, 1_000_000, 0.0);
        let (events, at) = t.quiesce();
        assert_eq!(events.len(), 2);
        assert!((at - 2.0).abs() < 1e-9, "finished at {at}");
    }

    #[test]
    fn unequal_transfers_complete_shortest_first() {
        let mut t = NetworkTransport::new(link(1e6, 1.0), WriteBehindConfig::with_depth(2));
        t.enqueue(0, 1_500_000, 0.0);
        t.enqueue(1, 500_000, 0.0);
        let (events, at) = t.quiesce();
        // Shared until seq 1 finishes at 1.0s (0.5 MB at 0.5 MB/s), then
        // seq 0's remaining 1.0 MB at full rate: total 2.0s.
        match events[0] {
            TransportEvent::Acked { seq, at, .. } => {
                assert_eq!(seq, 1);
                assert!((at - 1.0).abs() < 1e-9);
            }
            _ => panic!("expected ack"),
        }
        assert!((at - 2.0).abs() < 1e-9);
    }

    #[test]
    fn backpressure_stalls_caller_until_slot_frees() {
        let mut t = NetworkTransport::new(link(1e6, 1.0), WriteBehindConfig::with_depth(1));
        t.enqueue(0, 1_000_000, 0.0);
        let out = t.enqueue(1, 1_000_000, 0.2);
        // Seq 0 still needs 0.8s at t=0.2.
        assert!((out.stalled_for - 0.8).abs() < 1e-9, "{}", out.stalled_for);
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].seq(), 0);
        assert!((t.backpressure_wait() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn advance_between_events_is_exact() {
        let mut t = NetworkTransport::new(link(1e6, 1.0), WriteBehindConfig::with_depth(2));
        t.enqueue(0, 1_000_000, 0.0);
        assert!(t.advance_to(0.25).is_empty());
        assert!(t.advance_to(0.5).is_empty());
        let events = t.advance_to(10.0);
        assert_eq!(events.len(), 1);
        match events[0] {
            TransportEvent::Acked { at, .. } => assert!((at - 1.0).abs() < 1e-9),
            _ => panic!("expected ack"),
        }
        assert_eq!(t.now(), 10.0);
    }

    #[test]
    fn exhausted_retry_budget_gives_up() {
        let faults = TransportFaults {
            seed: 7,
            drop_prob: 1.0, // every attempt drops
            timeout_prob: 0.0,
            slow_prob: 0.0,
            slow_factor: 0.5,
            timeout_after: 1.0,
        };
        let retry = RetryPolicy {
            max_attempts: 3,
            base_backoff: 0.25,
            max_backoff: 1.0,
        };
        let mut t = NetworkTransport::new(
            link(1e6, 1.0),
            WriteBehindConfig {
                queue_depth: 1,
                retry,
                faults: Some(faults),
            },
        );
        t.enqueue(0, 1_000_000, 0.0);
        let (events, _) = t.quiesce();
        assert_eq!(events.len(), 1);
        match events[0] {
            TransportEvent::GaveUp { seq, attempts, .. } => {
                assert_eq!(seq, 0);
                assert_eq!(attempts, 3);
            }
            _ => panic!("expected give-up, got {:?}", events[0]),
        }
    }

    #[test]
    fn dropped_attempts_retry_then_succeed() {
        let faults = TransportFaults {
            seed: 3,
            drop_prob: 0.7,
            timeout_prob: 0.0,
            slow_prob: 0.0,
            slow_factor: 0.5,
            timeout_after: 1.0,
        };
        let mut cfg = WriteBehindConfig::with_depth(1);
        cfg.faults = Some(faults);
        cfg.retry = RetryPolicy {
            max_attempts: 64,
            base_backoff: 0.25,
            max_backoff: 2.0,
        };
        let mut t = NetworkTransport::new(link(1e6, 1.0), cfg);
        t.enqueue(0, 1_000_000, 0.0);
        let (events, at) = t.quiesce();
        match events.as_slice() {
            [TransportEvent::Acked { attempts, .. }] => {
                assert!(*attempts > 1, "seed 3 at p=0.7 must retry at least once");
                // Retried drains cost wasted bytes + backoff: strictly
                // slower than the clean 1.0 s drain.
                assert!(at > 1.0, "drained suspiciously fast: {at}");
            }
            other => panic!("expected a single ack, got {other:?}"),
        }
    }

    #[test]
    fn mixed_faults_eventually_drain_with_enough_attempts() {
        let mut cfg = WriteBehindConfig::with_depth(4);
        cfg.faults = Some(TransportFaults::mixed(42));
        cfg.retry = RetryPolicy {
            max_attempts: 32,
            base_backoff: 0.1,
            max_backoff: 2.0,
        };
        let mut t = NetworkTransport::new(link(2e6, 3.0), cfg);
        let mut events = Vec::new();
        for seq in 0..8u64 {
            events.extend(
                t.enqueue(seq, 400_000 + seq * 30_000, seq as f64 * 0.5)
                    .events,
            );
        }
        events.extend(t.quiesce().0);
        assert_eq!(events.len(), 8);
        assert!(events
            .iter()
            .all(|e| matches!(e, TransportEvent::Acked { .. })));
        assert!(t.is_idle());
    }

    #[test]
    fn retry_schedule_is_deterministic_and_order_independent() {
        let faults = TransportFaults::mixed(1234);
        // Plans depend only on (seed, seq, attempt).
        for seq in 0..32u64 {
            for attempt in 1..6u32 {
                assert_eq!(
                    faults.plan(seq, attempt),
                    faults.plan(seq, attempt),
                    "plan must be a pure function"
                );
            }
        }
        // Two transports with interleaved vs batched arrivals produce the
        // same terminal event multiset for the same seqs.
        let run = |staggered: bool| {
            let mut cfg = WriteBehindConfig::with_depth(8);
            cfg.faults = Some(faults);
            cfg.retry.max_attempts = 16;
            let mut t = NetworkTransport::new(link(1e6, 2.0), cfg);
            let mut events = Vec::new();
            for seq in 0..4u64 {
                let at = if staggered { seq as f64 * 0.3 } else { 0.0 };
                events.extend(t.enqueue(seq, 250_000, at).events);
            }
            events.extend(t.quiesce().0);
            let mut kinds: Vec<(u64, u32)> = events
                .iter()
                .map(|e| match *e {
                    TransportEvent::Acked { seq, attempts, .. }
                    | TransportEvent::GaveUp { seq, attempts, .. } => (seq, attempts),
                })
                .collect();
            kinds.sort_unstable();
            kinds
        };
        // Attempt counts per seq match exactly: the fault plan is keyed by
        // (seq, attempt), not by arrival order.
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RetryPolicy {
            max_attempts: 10,
            base_backoff: 0.5,
            max_backoff: 3.0,
        };
        assert_eq!(r.backoff_after(1), 0.5);
        assert_eq!(r.backoff_after(2), 1.0);
        assert_eq!(r.backoff_after(3), 2.0);
        assert_eq!(r.backoff_after(4), 3.0); // capped
        assert_eq!(r.backoff_after(9), 3.0);
    }

    #[test]
    fn cancel_seqs_is_selective_and_leaves_other_flows_untouched() {
        // One tenant's drains, an anchor's superseded prefix, and every
        // outstanding transfer (the lost drains of a link's only job).
        for cancel in [&[1, 3][..], &[0, 1, 2], &[0, 1, 2, 3]] {
            let mut t = NetworkTransport::new(link(1e4, 1.0), WriteBehindConfig::with_depth(4));
            for seq in 0..4u64 {
                t.enqueue(seq, 100_000, 0.0);
            }
            let keep: Vec<u64> = (0..4).filter(|s| !cancel.contains(s)).collect();
            assert_eq!(t.cancel_seqs(cancel), cancel.len());
            assert_eq!(t.pending_seqs(), keep);
            assert_eq!(t.is_idle(), keep.is_empty());
            let (events, _) = t.quiesce();
            let acked: Vec<u64> = events.iter().map(|e| e.seq()).collect();
            assert_eq!(acked, keep);
            // Cancelling seqs that are not outstanding is a no-op.
            assert_eq!(t.cancel_seqs(&[0, 7]), 0);
        }
    }

    #[test]
    fn eta_of_lone_transfer_matches_drain() {
        let mut t = NetworkTransport::new(link(1e6, 3.0), WriteBehindConfig::with_depth(2));
        t.enqueue(0, 1_000_000, 0.0);
        let eta = t.eta_of(0).unwrap();
        let (_, at) = t.quiesce();
        assert!((eta - at).abs() < 1e-9, "eta {eta} vs actual {at}");
        assert_eq!(t.eta_of(0), None);
    }

    #[test]
    fn obs_counts_queue_activity() {
        let obs = Arc::new(Obs::new());
        let mut cfg = WriteBehindConfig::with_depth(1);
        cfg.retry.max_attempts = 4;
        let mut t = NetworkTransport::new(link(1e6, 1.0), cfg);
        t.attach_obs(&obs);
        t.enqueue(0, 500_000, 0.0);
        t.enqueue(1, 500_000, 0.0); // stalls behind seq 0
        t.quiesce();
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("transport.enqueued"), Some(2));
        assert_eq!(snap.counter("transport.acked"), Some(2));
        assert_eq!(snap.counter("transport.backpressure_stalls"), Some(1));
        assert!(snap.gauge("transport.backpressure_wait_s").unwrap() > 0.0);
        assert_eq!(snap.gauge("transport.in_flight"), Some(0.0));
        // Drain spans made it into the log.
        let names: Vec<&str> = obs.spans.events().iter().map(|e| e.name).collect();
        assert!(names.contains(&"transport.drain"));
        assert!(names.contains(&"transport.backpressure"));
    }

    #[test]
    fn quiesce_terminates_under_hostile_faults() {
        // Worst case short of give-up: heavy fault probabilities, many
        // transfers, deep queue. Liveness: quiesce must return.
        let mut cfg = WriteBehindConfig::with_depth(8);
        cfg.faults = Some(TransportFaults {
            seed: 99,
            drop_prob: 0.45,
            timeout_prob: 0.3,
            slow_prob: 0.2,
            slow_factor: 0.1,
            timeout_after: 0.5,
        });
        cfg.retry = RetryPolicy {
            max_attempts: 64,
            base_backoff: 0.05,
            max_backoff: 0.4,
        };
        let mut t = NetworkTransport::new(link(5e6, 4.0), cfg);
        let mut events = Vec::new();
        for seq in 0..16u64 {
            events.extend(t.enqueue(seq, 200_000, 0.0).events);
        }
        events.extend(t.quiesce().0);
        assert_eq!(events.len(), 16);
        assert!(t.is_idle());
    }
}
