//! The sharing-factor contention model (Section III.D, Fig. 7).
//!
//! The paper models `SF` computation cores sharing one checkpointing core
//! (and, symmetrically, `SF` nodes sharing one remote-link allotment) as a
//! worst-case even split of the contended resource: a transfer that would
//! take `t` seconds alone takes `t · SF` seconds under `SF`-way sharing,
//! while the blocking local part `c1` is unchanged.
//!
//! This module is the **single source of truth** for that arithmetic. Both
//! consumers derive from it:
//!
//! * the closed-form [`LevelCosts::with_sharing_factor`]
//!   (`crate::params`) stretches the `c2`/`c3` transfer segments by
//!   [`SharingModel::stretch`], and
//! * `aic_ckpt::transport::NetworkTransport` divides link bandwidth by
//!   [`SharingModel::rate_divisor`] among its in-flight transfers, so the
//!   discrete-event drain of a single transfer reproduces the closed form
//!   exactly.
//!
//! `repro fig7` stretches its costs with the closed form. The one
//! operational measurement of the sharing factor is
//! `aic_ckpt::fleet::run_fleet` (`repro sharing`), where queueing on one
//! shared checkpointing core, not an assumed even split, stretches each
//! transfer.
//!
//! The generalisation beyond the paper: with `k ≥ 1` of *our* transfers in
//! flight plus the `SF − 1` background claimants the model posits, fair
//! share gives each flow `B / (SF − 1 + k)`. At `k = 1` this is the paper's
//! `B / SF`; at `SF = 1` a lone transfer gets the full link.

use crate::params::LevelCosts;

/// Fair-share contention on a single contended resource.
///
/// `sf ≥ 1` is the paper's sharing factor: the total number of claimants
/// when exactly one of our transfers is in flight (`sf − 1` of them are
/// background load that never goes away).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharingModel {
    /// The sharing factor `SF ≥ 1` (1 = dedicated resource, no contention).
    pub sf: f64,
}

impl SharingModel {
    /// A model with sharing factor `sf`.
    ///
    /// # Panics
    /// If `sf < 1` — a resource cannot be shared fewer than one way.
    pub fn new(sf: f64) -> Self {
        assert!(sf >= 1.0, "sharing factor must be ≥ 1, got {sf}");
        SharingModel { sf }
    }

    /// The dedicated (uncontended) resource.
    pub fn dedicated() -> Self {
        SharingModel { sf: 1.0 }
    }

    /// Number of background claimants that contend with our transfers
    /// (`SF − 1`; fractional values model partial background load).
    pub fn background_flows(&self) -> f64 {
        self.sf - 1.0
    }

    /// The divisor applied to the link bandwidth when `in_flight ≥ 1` of
    /// our transfers share it with the background load: `SF − 1 + k`.
    ///
    /// # Panics
    /// If `in_flight == 0` — an idle link has no per-flow rate.
    pub fn rate_divisor(&self, in_flight: usize) -> f64 {
        assert!(in_flight >= 1, "rate divisor needs ≥ 1 in-flight transfer");
        self.background_flows() + in_flight as f64
    }

    /// Per-flow fair-share rate for a link of `bandwidth` bytes/s with
    /// `in_flight` of our transfers active.
    pub fn fair_share_rate(&self, bandwidth: f64, in_flight: usize) -> f64 {
        bandwidth / self.rate_divisor(in_flight)
    }

    /// The single-flow stretch factor: a lone transfer under `SF`-way
    /// sharing takes `stretch()` times its dedicated duration. Equal to
    /// `rate_divisor(1)`, i.e. the paper's `SF` itself.
    pub fn stretch(&self) -> f64 {
        self.rate_divisor(1)
    }

    /// Apply the single-flow stretch to the transfer segments of a cost
    /// profile: `c_k − c_1` stretches by [`Self::stretch`], `c1` and all
    /// recovery times are unchanged (Section III.D).
    pub fn stretch_costs(&self, base: &LevelCosts) -> LevelCosts {
        let s = self.stretch();
        let c1 = base.c[0];
        LevelCosts {
            c: [c1, c1 + (base.c[1] - c1) * s, c1 + (base.c[2] - c1) * s],
            r: base.r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_link_gets_full_bandwidth() {
        let m = SharingModel::dedicated();
        assert_eq!(m.fair_share_rate(2e6, 1), 2e6);
        assert_eq!(m.stretch(), 1.0);
    }

    #[test]
    fn single_flow_stretch_is_sf() {
        for sf in [1.0, 3.0, 7.0, 15.0] {
            assert_eq!(SharingModel::new(sf).stretch(), sf);
        }
    }

    #[test]
    fn fair_share_divides_among_our_flows_and_background() {
        let m = SharingModel::new(3.0);
        // One of ours + 2 background = B/3 (the paper's SF stretch).
        assert!((m.fair_share_rate(6e6, 1) - 2e6).abs() < 1e-9);
        // Two of ours + 2 background = B/4 each.
        assert!((m.fair_share_rate(6e6, 2) - 1.5e6).abs() < 1e-9);
    }

    #[test]
    fn stretch_costs_matches_with_sharing_factor() {
        let base = LevelCosts::symmetric(0.5, 4.5, 1052.0);
        for sf in [1.0, 2.0, 3.0, 7.0, 15.0] {
            let a = SharingModel::new(sf).stretch_costs(&base);
            let b = base.with_sharing_factor(sf);
            assert_eq!(a, b, "sf={sf}");
        }
    }

    #[test]
    #[should_panic(expected = "sharing factor")]
    fn sub_unit_sf_rejected() {
        let _ = SharingModel::new(0.99);
    }

    #[test]
    #[should_panic(expected = "in-flight")]
    fn idle_link_has_no_rate() {
        let _ = SharingModel::new(2.0).rate_divisor(0);
    }
}
