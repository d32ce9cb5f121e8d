//! Shared counters and simple statistics.
//!
//! Modules publish [`Counter`]s (shared `u64` cells) that both the datapath
//! and register spaces can read — mirroring the per-module statistics
//! registers of the real reference designs. [`Histogram`] supports the
//! latency percentiles reported by the experiments.

use std::cell::Cell;
use std::rc::Rc;

/// A shared monotonically increasing counter. Two counters compare equal
/// when they read the same value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Overwrite the value — for level-style cells (queue depths, pool
    /// occupancy) that share the counter plumbing but track a level, not
    /// a monotone count.
    pub fn set(&self, v: u64) {
        self.0.set(v);
    }

    /// Reset to zero (registers expose this as write-to-clear).
    pub fn clear(&self) {
        self.0.set(0);
    }
}

/// An exact-value histogram over `u64` samples (stores sorted samples; fine
/// at simulation scale) used for latency percentiles.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record a sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|&v| v as f64).sum::<f64>() / self.samples.len() as f64)
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (0..=100, nearest-rank), or `None` if empty.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let rank = ((p / 100.0) * (self.samples.len() as f64 - 1.0)).round() as usize;
        Some(self.samples[rank.min(self.samples.len() - 1)])
    }

    /// Discard all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sorted = false;
    }
}

/// Jain's fairness index over a set of per-flow throughputs: 1.0 is
/// perfectly fair, 1/n is maximally unfair. Used by the scheduler ablation.
pub fn jain_fairness(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shared_between_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.incr();
        c2.add(4);
        assert_eq!(c.get(), 5);
        c.clear();
        assert_eq!(c2.get(), 0);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(50.0), Some(51));
        assert_eq!(h.percentile(100.0), Some(100));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 50.5).abs() < 1e-9);
        h.clear();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn histogram_unsorted_insertion() {
        let mut h = Histogram::new();
        for v in [9u64, 1, 5, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(100.0), Some(9));
        // Record after sorting re-sorts lazily.
        h.record(0);
        assert_eq!(h.percentile(0.0), Some(0));
    }

    #[test]
    fn jain_index() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let unfair = jain_fairness(&[1.0, 0.0, 0.0, 0.0]);
        assert!((unfair - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }
}
