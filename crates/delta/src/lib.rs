//! # aic-delta — delta compression for checkpoint files
//!
//! The paper's AIC reduces remote-checkpoint size by *delta compression*:
//! each dirty page of the current checkpoint is differenced against its
//! previous version, and only the difference (the *delta*) is shipped to the
//! RAID-5 group (L2) and remote storage (L3).
//!
//! The authors derive **Xdelta3-PA** from Josh MacDonald's Xdelta3, itself
//! based on the rsync algorithm (Tridgell): hash fixed-size blocks of the
//! *source* (the old page) and scan the *target* (the new page) with a
//! rolling hash to find the longest matches, emitting a COPY/ADD instruction
//! stream. This crate reimplements that family from scratch:
//!
//! * [`encode`](fn@encode)/[`decode`](fn@decode) — the general rsync-style codec over arbitrary
//!   byte buffers, the stand-in for stock **Xdelta3** (used by the SIC
//!   comparison in Table 3);
//! * [`pa`] — the **page-aligned** variant the paper contributes: per-page
//!   differencing over checkpoint snapshots, which is what enables per-page
//!   cost prediction (Section IV.C);
//! * [`xor`] — the classic XOR + zero-run-length baseline (Plank's
//!   "compressed differences"), the simple scheme the paper's related work
//!   contrasts against;
//! * [`stats`] — encode reports and the deterministic latency **cost model**
//!   used by the simulated experiments (`repro bench` measures the real
//!   wall-clock cost of the same code paths).
//!
//! ## Round-trip guarantee
//!
//! Every codec in this crate is lossless; property tests
//! (`proptest`) drive random source/target pairs through encode→decode and
//! assert byte equality.
//!
//! ```
//! use aic_delta::{encode, decode, EncodeParams};
//!
//! let source = b"the quick brown fox jumps over the lazy dog".repeat(100);
//! let mut target = source.clone();
//! target[100..130].copy_from_slice(b"JUMPED OVER THIRTY NEW BYTES!!");
//!
//! let delta = encode(&source, &target, &EncodeParams::default());
//! assert!(delta.payload.len() < target.len() / 4);
//! assert_eq!(decode(&source, &delta).unwrap(), target);
//! ```

#![deny(missing_docs)]

pub mod decode;
pub mod encode;
pub mod index;
pub mod inst;
pub mod pa;
pub mod reference;
pub mod rolling;
pub mod stats;
pub mod strong;
pub mod xor;

pub use decode::{decode, DecodeError};
pub use encode::{encode, encode_into, Delta, EncodeParams};
pub use index::SourceIndex;
pub use pa::{pa_decode, pa_encode, PaDeltaFile, PaParams};
pub use stats::{CostModel, EncodeReport};
