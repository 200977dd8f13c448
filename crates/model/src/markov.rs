//! Generic absorbing Markov chain with timed edges.
//!
//! States are annotated with a nominal duration; edges carry a transition
//! probability and the expected time spent in the old state before the
//! transition (paper Section III.C). The expected time-to-absorption from
//! the start state solves the linear system
//!
//! `E[s] = Σ_e  p_e · (t_e + E[dest_e])`,  `E[DONE] = 0`,
//!
//! which we do exactly with Gaussian elimination. A Monte-Carlo sampler over
//! the same chain cross-validates the solver in tests.

use rand::Rng;

use crate::failure::FailureRates;
use crate::linalg::solve;

/// Handle to a chain state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateId(pub(crate) usize);

#[derive(Debug, Clone)]
struct Edge {
    dest: usize,
    prob: f64,
    time: f64,
}

#[derive(Debug, Clone)]
struct State {
    name: String,
    edges: Vec<Edge>,
    absorbing: bool,
}

/// A fully built chain, ready to solve or sample.
#[derive(Debug, Clone)]
pub struct Chain {
    states: Vec<State>,
    start: usize,
}

/// Incremental chain builder.
///
/// Typical usage: create all states with [`ChainBuilder::state`] /
/// [`ChainBuilder::absorbing`], then wire them with
/// [`ChainBuilder::exposure`] (the paper's state pattern: one success edge
/// plus one failure edge per level) or raw [`ChainBuilder::edge`] calls.
#[derive(Debug, Default)]
pub struct ChainBuilder {
    states: Vec<State>,
}

impl ChainBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a normal state.
    pub fn state(&mut self, name: impl Into<String>) -> StateId {
        self.states.push(State {
            name: name.into(),
            edges: Vec::new(),
            absorbing: false,
        });
        StateId(self.states.len() - 1)
    }

    /// Add an absorbing (terminal) state.
    pub fn absorbing(&mut self, name: impl Into<String>) -> StateId {
        self.states.push(State {
            name: name.into(),
            edges: Vec::new(),
            absorbing: true,
        });
        StateId(self.states.len() - 1)
    }

    /// Add a raw edge.
    pub fn edge(&mut self, from: StateId, to: StateId, prob: f64, time: f64) {
        assert!(
            (0.0..=1.0 + 1e-12).contains(&prob),
            "prob {prob} out of range"
        );
        assert!(time >= 0.0 && time.is_finite(), "bad edge time {time}");
        self.states[from.0].edges.push(Edge {
            dest: to.0,
            prob,
            time,
        });
    }

    /// Wire `from` as a failure-exposed state of nominal duration `tau`:
    ///
    /// * success (no failure in `tau`): probability `e^{−λτ}`, expected time
    ///   `success_time` (normally `tau`; the concurrent-transfer states pass
    ///   0 because the application performs next-interval work during the
    ///   window — see Fig. 3(a) discussion), destination `ok`;
    /// * for each level `k`: probability `(λ_k/λ)(1−e^{−λτ})`, expected time
    ///   `E[elapsed | failure]`, destination `on_fail[k-1]`.
    ///
    /// `on_fail` must have one destination per level in `rates`.
    pub fn exposure(
        &mut self,
        from: StateId,
        tau: f64,
        success_time: f64,
        ok: StateId,
        on_fail: &[StateId],
        rates: &FailureRates,
    ) {
        assert_eq!(on_fail.len(), rates.levels(), "one destination per level");
        assert!(tau >= 0.0 && tau.is_finite(), "bad tau {tau}");
        self.edge(from, ok, rates.p_survive(tau), success_time);
        let t_fail = rates.expected_time_to_fail(tau);
        for (k, dest) in on_fail.iter().enumerate() {
            let p = rates.p_fail_level(k + 1, tau);
            if p > 0.0 {
                self.edge(from, *dest, p, t_fail);
            }
        }
    }

    /// Finish the chain with the given start state.
    ///
    /// # Panics
    /// Panics if any non-absorbing state's edge probabilities do not sum to
    /// 1 (within 1e-9), or an absorbing state has outgoing edges.
    pub fn build(self, start: StateId) -> Chain {
        for s in &self.states {
            if s.absorbing {
                assert!(s.edges.is_empty(), "absorbing state {} has edges", s.name);
            } else {
                let sum: f64 = s.edges.iter().map(|e| e.prob).sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "state {} probabilities sum to {sum}",
                    s.name
                );
            }
        }
        Chain {
            states: self.states,
            start: start.0,
        }
    }
}

impl Chain {
    /// Expected time from the start state to absorption, solved exactly.
    ///
    /// Returns `None` if absorption is not reachable (singular system).
    pub fn expected_time(&self) -> Option<f64> {
        let live: Vec<usize> = (0..self.states.len())
            .filter(|&i| !self.states[i].absorbing)
            .collect();
        if live.is_empty() {
            return Some(0.0);
        }
        let index_of: std::collections::HashMap<usize, usize> =
            live.iter().enumerate().map(|(row, &s)| (s, row)).collect();

        let n = live.len();
        let mut a = vec![vec![0.0; n]; n];
        let mut b = vec![0.0; n];
        for (row, &s) in live.iter().enumerate() {
            a[row][row] = 1.0;
            for e in &self.states[s].edges {
                b[row] += e.prob * e.time;
                if let Some(&col) = index_of.get(&e.dest) {
                    a[row][col] -= e.prob;
                }
            }
        }
        let x = solve(a, b)?;
        // If absorption is unreachable from some live state (e.g. the
        // success probability underflowed to exactly 0 for an enormous
        // exposure), the system is singular in exact arithmetic but float
        // round-off can still "solve" it — to garbage. Reject any solution
        // with a negative or non-finite expected time.
        if x.iter().any(|v| !v.is_finite() || *v < -1e-9) {
            return None;
        }
        if self.states[self.start].absorbing {
            return Some(0.0);
        }
        Some(x[index_of[&self.start]])
    }

    /// Sample one walk from start to absorption; returns total time.
    ///
    /// Uses the *edge-level* semantics (expected sojourn per edge), so the
    /// sample mean converges to [`Chain::expected_time`] — used by tests to
    /// cross-validate the linear solve.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let mut total = 0.0;
        let mut cur = self.start;
        let mut hops = 0u64;
        while !self.states[cur].absorbing {
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut chosen = None;
            for e in &self.states[cur].edges {
                acc += e.prob;
                if u <= acc {
                    chosen = Some(e);
                    break;
                }
            }
            let e = chosen.unwrap_or_else(|| self.states[cur].edges.last().unwrap());
            total += e.time;
            cur = e.dest;
            hops += 1;
            assert!(hops < 100_000_000, "chain failed to absorb");
        }
        total
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if the chain has no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Single state, fixed time, then absorb.
    #[test]
    fn trivial_chain() {
        let mut b = ChainBuilder::new();
        let s = b.state("S");
        let done = b.absorbing("DONE");
        b.edge(s, done, 1.0, 42.0);
        let c = b.build(s);
        assert_eq!(c.expected_time().unwrap(), 42.0);
    }

    /// Geometric retry: succeed w.p. p, else retry after time t.
    /// E = t_succ + (1-p)/p * t_retry ... closed form: E = (p·t₁ + (1−p)·(t₂+E))
    #[test]
    fn geometric_retry_matches_closed_form() {
        let p = 0.25;
        let mut b = ChainBuilder::new();
        let s = b.state("S");
        let done = b.absorbing("DONE");
        b.edge(s, done, p, 1.0);
        b.edge(s, s, 1.0 - p, 3.0);
        let c = b.build(s);
        // E = p(1) + (1-p)(3 + E)  =>  E = (p + 3(1-p)) / p = (0.25 + 2.25)/0.25 = 10
        assert!((c.expected_time().unwrap() - 10.0).abs() < 1e-9);
    }

    /// Young/Daly-style single-level checkpoint chain built via `exposure`.
    #[test]
    fn exposure_edges_are_consistent() {
        let rates = FailureRates::new(vec![1e-3]);
        let w = 100.0;
        let r = 10.0;
        let mut b = ChainBuilder::new();
        let work = b.state("work");
        let rec = b.state("recover");
        let done = b.absorbing("done");
        b.exposure(work, w, w, done, &[rec], &rates);
        b.exposure(rec, r, r, work, &[rec], &rates);
        let c = b.build(work);
        let e = c.expected_time().unwrap();
        // Must exceed w (failures cost time), and be finite/reasonable.
        assert!(e > w && e < 2.0 * w, "E={e}");
    }

    #[test]
    fn solver_matches_monte_carlo() {
        let rates = FailureRates::three(2e-4, 8e-4, 1e-4);
        let mut b = ChainBuilder::new();
        let s1 = b.state("S1");
        let s2 = b.state("S2");
        let r1 = b.state("R1");
        let r3 = b.state("R3");
        let done = b.absorbing("DONE");
        b.exposure(s1, 500.0, 500.0, s2, &[r1, r3, r3], &rates);
        b.exposure(s2, 50.0, 0.0, done, &[r1, r3, r3], &rates);
        b.exposure(r1, 5.0, 5.0, s1, &[r1, r3, r3], &rates);
        b.exposure(r3, 60.0, 60.0, s1, &[r3, r3, r3], &rates);
        let c = b.build(s1);

        let exact = c.expected_time().unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let n = 60_000;
        let mean: f64 = (0..n).map(|_| c.sample(&mut rng)).sum::<f64>() / n as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.02, "exact={exact} mc={mean} rel={rel}");
    }

    #[test]
    #[should_panic(expected = "probabilities sum")]
    fn unnormalized_state_rejected() {
        let mut b = ChainBuilder::new();
        let s = b.state("S");
        let done = b.absorbing("DONE");
        b.edge(s, done, 0.5, 1.0);
        let _ = b.build(s);
    }

    #[test]
    fn zero_rate_levels_get_no_edges() {
        let rates = FailureRates::three(1e-3, 0.0, 0.0);
        let mut b = ChainBuilder::new();
        let s = b.state("S");
        let r = b.state("R");
        let done = b.absorbing("DONE");
        b.exposure(s, 10.0, 10.0, done, &[r, r, r], &rates);
        b.exposure(r, 1.0, 1.0, s, &[r, r, r], &rates);
        let c = b.build(s);
        assert!(c.expected_time().unwrap() > 10.0);
    }

    #[test]
    fn start_at_absorbing_is_zero() {
        let mut b = ChainBuilder::new();
        let done = b.absorbing("DONE");
        let c = b.build(done);
        assert_eq!(c.expected_time().unwrap(), 0.0);
    }
}
