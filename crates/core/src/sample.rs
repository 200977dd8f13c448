//! Hot-page selection: arrival-time grouping with an adaptive threshold and
//! a fixed-size Sample Buffer (paper Section IV.E).
//!
//! AIC cannot afford to compute JD/DI for every dirty page. It groups hot
//! pages by arrival time — two pages fall in different groups if their
//! first-write times are more than `T_g` apart — and buffers only the
//! *first* page of each group. `T_g` adapts: it doubles when the buffer
//! fills (too many groups) and halves when the buffer is more than half
//! empty (too few), so the buffer tracks the workload's dirtying tempo.

use aic_memsim::Page;

use crate::metrics::{cosine_similarity, divergence_index, jaccard_distance, m2_index};

/// Which inter-version dissimilarity metric feeds the predictor. The paper
/// adopts Jaccard Distance; footnote 1 reports cosine similarity behaving
/// equivalently at higher cost — both are provided for the ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimilarityMetric {
    /// `JD(P, P') = 1 − m/p` (the paper's choice).
    #[default]
    Jaccard,
    /// `1 − cos(P, P')` over byte vectors.
    Cosine,
}

/// Which intra-page variation metric feeds the predictor. The paper adopts
/// the Divergence Index; footnote 1's alternative is the Gibbs–Poston M2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VariationMetric {
    /// `DI(P) = 1 − v/p` (the paper's choice).
    #[default]
    Divergence,
    /// Gibbs–Poston qualitative-variation index.
    M2,
}

/// One buffered group representative with its metrics, computed at
/// insertion time (the paper's "below 100 µs per hot page" costs happen
/// here, off the decision path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Virtual page number of the representative.
    pub page: u64,
    /// First-write time of the group.
    pub arrival: f64,
    /// Jaccard Distance vs the previous checkpoint (None for fresh pages
    /// with no previous version — they have no delta to predict).
    pub jd: Option<f64>,
    /// Divergence Index of the current content.
    pub di: f64,
}

/// Compute an `(inter-version, intra-page)` metric pair with explicit
/// metric choices (the borrow-friendly free-function form).
pub fn compute_pair(
    similarity: SimilarityMetric,
    variation: VariationMetric,
    current: &Page,
    previous: Option<&Page>,
) -> (Option<f64>, f64) {
    let sim = previous.map(|old| match similarity {
        SimilarityMetric::Jaccard => jaccard_distance(current, old),
        SimilarityMetric::Cosine => 1.0 - cosine_similarity(current, old),
    });
    let var = match variation {
        VariationMetric::Divergence => divergence_index(current),
        VariationMetric::M2 => m2_index(current),
    };
    (sim, var)
}

/// Fixed-size sample buffer with adaptive arrival-time grouping.
#[derive(Debug, Clone)]
pub struct SampleBuffer {
    capacity: usize,
    tg: f64,
    tg_min: f64,
    tg_max: f64,
    samples: Vec<Sample>,
    current_group_start: Option<f64>,
    /// Total hot pages offered this interval (incl. ones not sampled).
    offered: u64,
    /// Round-robin cursor for metric refresh.
    refresh_cursor: usize,
    similarity: SimilarityMetric,
    variation: VariationMetric,
}

impl SampleBuffer {
    /// A buffer holding at most `capacity` samples, starting with grouping
    /// threshold `tg` seconds.
    pub fn new(capacity: usize, tg: f64) -> Self {
        assert!(capacity > 0 && tg > 0.0);
        SampleBuffer {
            capacity,
            tg,
            tg_min: 1e-4,
            tg_max: 60.0,
            samples: Vec::with_capacity(capacity),
            current_group_start: None,
            offered: 0,
            refresh_cursor: 0,
            similarity: SimilarityMetric::default(),
            variation: VariationMetric::default(),
        }
    }

    /// Select the metric pair (footnote 1 ablation). Defaults are the
    /// paper's JD/DI.
    pub fn with_metrics(
        mut self,
        similarity: SimilarityMetric,
        variation: VariationMetric,
    ) -> Self {
        self.similarity = similarity;
        self.variation = variation;
        self
    }

    /// Compute the configured `(inter-version, intra-page)` metric pair for
    /// a page (used at offer time and by decision-time refresh).
    pub fn compute_metrics(&self, current: &Page, previous: Option<&Page>) -> (Option<f64>, f64) {
        compute_pair(self.similarity, self.variation, current, previous)
    }

    /// Current grouping threshold `T_g`.
    pub fn tg(&self) -> f64 {
        self.tg
    }

    /// Number of buffered samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples are buffered.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples inserted this interval (i.e. number of metric computations
    /// performed — the quantity the decision-cost model charges for).
    pub fn inserted(&self) -> usize {
        self.samples.len()
    }

    /// Offer a dirty page to the buffer. Only the first page of each
    /// arrival-time group is sampled; for that page, JD (vs `previous`, if
    /// any) and DI are computed immediately.
    ///
    /// Returns `true` if the page became a sample (metrics were computed).
    pub fn offer(
        &mut self,
        page_idx: u64,
        arrival: f64,
        current: &Page,
        previous: Option<&Page>,
    ) -> bool {
        self.offered += 1;
        let new_group = match self.current_group_start {
            None => true,
            Some(start) => arrival - start > self.tg,
        };
        if !new_group {
            return false;
        }
        self.current_group_start = Some(arrival);
        if self.samples.len() >= self.capacity {
            // Buffer full: drop the oldest sample to admit the new group
            // (the paper drops "accordingly"; recency tracks the working
            // set better than seniority).
            self.samples.remove(0);
        }
        let (jd, di) = self.compute_metrics(current, previous);
        self.samples.push(Sample {
            page: page_idx,
            arrival,
            jd,
            di,
        });
        true
    }

    /// Mean JD over sampled hot pages (pages with a previous version).
    /// Returns 0.0 with no evidence — "no hot pages" means nothing to
    /// delta-compress, i.e. maximal similarity.
    pub fn mean_jd(&self) -> f64 {
        let hot: Vec<f64> = self.samples.iter().filter_map(|s| s.jd).collect();
        if hot.is_empty() {
            0.0
        } else {
            hot.iter().sum::<f64>() / hot.len() as f64
        }
    }

    /// Mean DI over all sampled pages.
    pub fn mean_di(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|s| s.di).sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Recompute metrics for up to `limit` samples (round-robin), using `f`
    /// to map a page number to its fresh `(JD, DI)`; `f` returning `None`
    /// leaves the cached values (page vanished). Returns how many samples
    /// were refreshed — the decision-cost model charges per refresh.
    ///
    /// Sampled pages keep being written after their group's first fault, so
    /// metrics computed only at insertion go stale; a bounded refresh per
    /// decision tick keeps the mean JD tracking the *current* similarity
    /// (the signal AIC's whole premise rests on) at fixed cost.
    pub fn refresh<F>(&mut self, limit: usize, mut f: F) -> usize
    where
        F: FnMut(u64) -> Option<(Option<f64>, f64)>,
    {
        let n = self.samples.len();
        if n == 0 {
            return 0;
        }
        let mut updated = 0;
        for _ in 0..limit.min(n) {
            self.refresh_cursor %= n;
            let s = &mut self.samples[self.refresh_cursor];
            if let Some((jd, di)) = f(s.page) {
                s.jd = jd;
                s.di = di;
                updated += 1;
            }
            self.refresh_cursor += 1;
        }
        updated
    }

    /// End the interval: adapt `T_g` (double if the buffer filled, halve if
    /// more than half empty) and clear the samples.
    pub fn end_interval(&mut self) {
        if self.samples.len() >= self.capacity {
            self.tg = (self.tg * 2.0).min(self.tg_max);
        } else if self.samples.len() < self.capacity / 2 {
            self.tg = (self.tg / 2.0).max(self.tg_min);
        }
        self.samples.clear();
        self.current_group_start = None;
        self.offered = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aic_memsim::PAGE_SIZE;

    fn page_with(b: u8) -> Page {
        let mut p = Page::zeroed();
        p.write_at(0, &vec![b; PAGE_SIZE]);
        p
    }

    #[test]
    fn groups_by_arrival_time() {
        let mut sb = SampleBuffer::new(16, 1.0);
        let p = page_with(1);
        assert!(sb.offer(0, 0.0, &p, None)); // first page starts a group
        assert!(!sb.offer(1, 0.5, &p, None)); // same group (Δ ≤ 1.0)
        assert!(!sb.offer(2, 1.0, &p, None)); // still within 1.0 of start
        assert!(sb.offer(3, 1.5, &p, None)); // new group
        assert_eq!(sb.len(), 2);
    }

    #[test]
    fn full_buffer_drops_oldest() {
        let mut sb = SampleBuffer::new(2, 0.1);
        let p = page_with(1);
        sb.offer(0, 0.0, &p, None);
        sb.offer(1, 1.0, &p, None);
        sb.offer(2, 2.0, &p, None);
        assert_eq!(sb.len(), 2);
        let pages: Vec<u64> = sb.samples.iter().map(|s| s.page).collect();
        assert_eq!(pages, vec![1, 2]);
    }

    #[test]
    fn tg_doubles_when_full_halves_when_sparse() {
        let mut sb = SampleBuffer::new(4, 1.0);
        let p = page_with(1);
        // Fill the buffer (4 groups).
        for i in 0..4 {
            sb.offer(i, i as f64 * 2.0, &p, None);
        }
        sb.end_interval();
        assert_eq!(sb.tg(), 2.0);
        // One sample only: less than half of capacity → halve.
        sb.offer(0, 0.0, &p, None);
        sb.end_interval();
        assert_eq!(sb.tg(), 1.0);
    }

    #[test]
    fn tg_respects_bounds() {
        let mut sb = SampleBuffer::new(2, 0.001);
        sb.end_interval(); // empty → halve, clamped at tg_min
        for _ in 0..20 {
            sb.end_interval();
        }
        assert!(sb.tg() >= 1e-4);
        let mut sb = SampleBuffer::new(1, 50.0);
        let p = page_with(1);
        for round in 0..5 {
            sb.offer(0, round as f64 * 1000.0, &p, None);
            sb.end_interval(); // full (capacity 1) → double, clamped
        }
        assert!(sb.tg() <= 60.0);
    }

    #[test]
    fn metrics_aggregate_over_samples() {
        let mut sb = SampleBuffer::new(8, 0.1);
        let old = page_with(0);
        let quarter = {
            let mut p = page_with(0);
            p.write_at(0, &vec![9u8; PAGE_SIZE / 4]);
            p
        };
        sb.offer(0, 0.0, &quarter, Some(&old)); // JD = 0.25
        sb.offer(1, 1.0, &old, Some(&old)); // JD = 0.0
        assert!((sb.mean_jd() - 0.125).abs() < 1e-12);
        assert!(sb.mean_di() >= 0.0);
    }

    #[test]
    fn fresh_pages_excluded_from_jd() {
        let mut sb = SampleBuffer::new(8, 0.1);
        let p = page_with(5);
        sb.offer(0, 0.0, &p, None); // fresh: no JD
        assert_eq!(sb.mean_jd(), 0.0);
        sb.offer(1, 1.0, &p, Some(&page_with(5))); // identical: JD 0
        assert_eq!(sb.mean_jd(), 0.0);
    }

    #[test]
    fn end_interval_clears() {
        let mut sb = SampleBuffer::new(8, 0.1);
        sb.offer(0, 0.0, &page_with(1), None);
        sb.end_interval();
        assert!(sb.is_empty());
        // A page arriving at an "old" time after reset starts a new group.
        assert!(sb.offer(9, 0.0, &page_with(1), None));
    }
}
