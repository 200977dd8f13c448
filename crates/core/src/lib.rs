//! # aic-core — Adaptive Incremental Checkpointing (the paper's contribution)
//!
//! AIC decides **when** to take each incremental checkpoint so that the
//! delta-compressed remote checkpoint is cheap, by predicting the
//! checkpoint-cost parameters online and solving the non-static L2L3 model
//! for the locally optimal work span (Sections III.E and IV):
//!
//! * [`metrics`] — the lightweight page metrics: **Jaccard Distance** (JD,
//!   inter-version dissimilarity), **Divergence Index** (DI, intra-page
//!   dissimilarity), plus the cosine-similarity and Gibbs–Poston M2
//!   alternatives the paper's footnote 1 examined;
//! * [`sample`] — **hot-page selection**: arrival-time grouping with the
//!   adaptive threshold `T_g` and a fixed-size Sample Buffer (Section IV.E);
//! * [`regress`] / [`stepwise`] — least-squares fitting and forward
//!   **stepwise regression** over the candidate features
//!   `{C1^γ·C2^ζ | C1,C2 ∈ {DP, t, JD, DI}, 1 ≤ γ+ζ ≤ 2}`;
//! * [`online`] — the **normalized gradient descent** weight update
//!   (Cesa-Bianchi et al.) that adapts the model after every checkpoint;
//! * [`predictor`] — the three-target predictor (`c1(i)`, `dl(i)`, `ds(i)`)
//!   bootstrapped from four samples, then updated online — no profiling;
//! * [`policy`] — the **AIC checkpoint decider**: every decision second,
//!   predict the current interval's cost, solve for `w*_L` by EVT +
//!   Newton–Raphson, and checkpoint if `w*_L` is already behind us;
//! * [`decider`] — the decider slot every policy fills: the
//!   [`CheckpointPolicy`] trait, what it sees each tick ([`DecisionCtx`]),
//!   what it learns from each cut ([`IntervalRecord`]), and the deployment
//!   it plans for ([`PolicyEnv`]);
//! * [`baselines`] — the deciders AIC is compared with: fixed-interval SIC
//!   with its offline solve, the Moody configuration, a dirty-page budget,
//!   and two ablation deciders (a clairvoyant oracle with exact costs via
//!   trial compression, and a content-blind running-mean predictor).
//!
//! This crate is the policy layer beneath `aic-ckpt`: the checkpoint engine
//! there consults a [`CheckpointPolicy`] every tick (its module docs run
//! AIC end to end).

#![warn(missing_docs)]

pub mod baselines;
pub mod decider;
pub mod features;
pub mod metrics;
pub mod online;
pub mod policy;
pub mod predictor;
pub mod regress;
pub mod sample;
pub mod stepwise;

pub use decider::{CheckpointPolicy, Decision, DecisionCtx, IntervalRecord, PolicyEnv};
pub use policy::{AicConfig, AicPolicy};
pub use predictor::AicPredictor;
