//! # aic-ckpt — the checkpoint engine and its storage/failure substrate
//!
//! Everything between the simulated process ([`aic_memsim`]) and the
//! analytic models ([`aic_model`]): the moving parts of the paper's testbed
//! (Fig. 9 / Fig. 10). The deciders that choose when to checkpoint (AIC,
//! SIC, Moody and the ablation baselines) live one layer below, in
//! [`aic_core`].
//!
//! * [`format`](mod@format) — checkpoint files: full, incremental, and delta-compressed
//!   payloads with live-page sets, serialization and integrity checksums;
//! * [`chain`] — checkpoint chains and **restore**: last full checkpoint +
//!   every later incremental/delta replayed in order;
//! * [`storage`] — the three checkpoint levels: L1 local disk, L2 RAID-5
//!   node group (real striping + parity + degraded-mode reconstruction),
//!   L3 remote storage, each behind a bandwidth model;
//! * [`log`](mod@log) — the append-only checkpoint log the hierarchy persists
//!   through: fixed-capacity segment rotation over any [`storage::Store`],
//!   per-record CRC framing with torn-tail detection, compaction that
//!   rewrites live records into fresh segments, and epoch-based
//!   reclamation so pinned recovery readers never lose a segment mid-walk;
//! * [`dedup`](mod@dedup) — the content-addressed chunk store: identical
//!   page versions stored once per level as refcounted chunk records,
//!   checkpoint records become reference frames, reclaimed through the
//!   log's liveness + epoch machinery;
//! * [`failure`] — exponential per-level failure injection;
//! * [`recovery`] — the multi-level storage hierarchy and restart path:
//!   commit to L1/L2/L3, fail one job's copies at level k, recover the
//!   job from the cheapest surviving level ≥ k;
//! * [`engine`] — runs a workload under a pluggable checkpoint *policy*,
//!   producing per-interval records (`w`, `c1`, `dl`, `ds`, `c2`, `c3`) and
//!   the run's NET² via the non-static model (Eq. (1)); with a storage
//!   hierarchy attached it commits every checkpoint through L1/L2/L3 and
//!   can inject failures mid-run;
//! * [`harness`] — the end-to-end fault-injection harness: seeded failure
//!   schedules, recovery from the cheapest surviving level, bit-identical
//!   resumption;
//! * [`fleet`] — several processes sharing one checkpointing core (the
//!   sharing factor of Fig. 7, measured through real FIFO contention
//!   instead of an assumed even split);
//! * [`policies`] — the SIC solve in the `EngineConfig` form the fleet
//!   benchmark calls;
//! * [`sim`] — an *independently coded* discrete-event Monte-Carlo
//!   simulator of the concurrent-L2L3 and Moody operational semantics, used
//!   to cross-validate the Markov models;
//! * [`concurrent`] — the real dedicated checkpointing core(s): the one
//!   encode pool, whose workers deal tenant-tagged page shards by deficit
//!   round robin off the caller's critical path;
//! * [`transport`] — the simulated shared network the L3 drain rides:
//!   SF-way fair-share contention, a bounded **write-behind** commit queue
//!   with back-pressure, and seeded transient faults (drop / timeout /
//!   slow link) retried with capped exponential backoff;
//! * [`clock`](mod@clock) — the [`clock::ClockSource`] trait splitting the
//!   simulated [`clock::VirtualClock`] from the wall-clock
//!   [`clock::MonotonicClock`];
//! * [`service`] — the multi-tenant `aicd` fleet daemon in simulated mode.
//!   It, [`script`](mod@script) and [`wallclock`] are three drivers of one
//!   crate-private fleet core: the tenant commit/crash/recover/leave state
//!   machine over the shared storage hierarchy and transport;
//! * [`script`](mod@script) — mode-portable tenant scripts, the
//!   mode-invariant record stream, and the deterministic script-replay
//!   driver (the oracle side of the wall-clock contract);
//! * [`wallclock`] — the real-thread fleet server: tenant sessions on OS
//!   threads encoding through one shared pool, blocking admission and
//!   transport back-pressure, a background drainer;
//! * [`rpc`](mod@rpc) — the `aicd` fleet socket protocol: AIRF
//!   length-prefixed frames (AILR conventions), `join`/`cut`/`crash`/
//!   `recover`/`leave`/`stats` verbs, a blocking client.

#![deny(missing_docs)]

pub mod chain;
pub mod clock;
pub mod concurrent;
pub mod dedup;
pub mod engine;
pub mod failure;
pub mod fleet;
mod fleetcore;
pub mod format;
pub mod harness;
pub mod log;
pub mod policies;
pub mod recovery;
pub mod rpc;
pub mod script;
pub mod service;
pub mod sim;
pub mod storage;
pub mod transport;
pub mod wallclock;

pub use chain::CheckpointChain;
pub use clock::{ClockSource, MonotonicClock, VirtualClock};
pub use engine::{run_engine, run_engine_with_faults, EngineConfig, EngineReport};
pub use format::{CheckpointFile, CheckpointKind};
pub use harness::{run_with_faults, FailureSchedule, FaultEvent, FaultReport, FaultSpec};
pub use transport::{
    LinkConfig, NetworkTransport, RetryPolicy, TransportEvent, TransportFaults, WriteBehindConfig,
};
