//! Run metrics: named counters, plus the histogram the scheduler profiler
//! samples queue depth into.
//!
//! Experiments read counters after a run to produce the rows in
//! `EXPERIMENTS.md`. Everything is plain data — no atomics — because a
//! simulation run is single-threaded by construction.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A registry of named counters.
///
/// # Examples
///
/// ```
/// use malsim_kernel::metrics::Metrics;
///
/// let mut m = Metrics::new();
/// m.incr("hosts_infected");
/// m.incr_by("bytes_exfiltrated", 1024);
/// assert_eq!(m.counter("hosts_infected"), 1);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
}

/// Observed values, queried by nearest rank.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Histogram {
    values: Vec<f64>,
    sorted_cache: Option<Vec<f64>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds 1 to a counter, creating it at zero if absent.
    pub fn incr(&mut self, name: &str) {
        self.incr_by(name, 1);
    }

    /// Adds `n` to a counter.
    pub fn incr_by(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += n;
    }

    /// Current counter value (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "counter {k} = {v}")?;
        }
        Ok(())
    }
}

impl Histogram {
    /// Records one value.
    pub fn observe(&mut self, value: f64) {
        self.values.push(value);
        self.sorted_cache = None;
    }

    /// Nearest-rank percentile, `p` in `[0, 100]` (0.0 when empty).
    ///
    /// Sorts a fresh copy on every call; prefer [`Histogram::quantile`] when
    /// the histogram is mutable and queried repeatedly.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        match &self.sorted_cache {
            Some(sorted) => Self::rank_of(sorted, p / 100.0),
            None => {
                let mut sorted = self.values.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
                Self::rank_of(&sorted, p / 100.0)
            }
        }
    }

    /// Nearest-rank quantile, `q` in `[0, 1]` (0.0 when empty).
    ///
    /// The sorted order is computed on first call and cached until the next
    /// [`Histogram::observe`], so p50/p95/p99 sequences sort once.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let sorted = self.sorted_cache.get_or_insert_with(|| {
            let mut sorted = self.values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
            sorted
        });
        Self::rank_of(sorted, q)
    }

    fn rank_of(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x");
        m.incr_by("x", 4);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(50.0), 3.0);
        assert_eq!(h.percentile(100.0), 5.0);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::default();
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_agrees_with_percentile() {
        let mut h = Histogram::default();
        for v in [9.0, 7.0, 5.0, 3.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0] {
            h.observe(v);
        }
        for p in [0.0, 25.0, 50.0, 95.0, 99.0, 100.0] {
            let via_percentile = h.percentile(p);
            assert_eq!(h.quantile(p / 100.0), via_percentile, "p={p}");
        }
        assert_eq!(h.quantile(0.5), 6.0, "nearest rank rounds 4.5 up");
        assert_eq!(h.quantile(1.0), 10.0);
    }

    #[test]
    fn quantile_cache_invalidates_on_observe() {
        let mut h = Histogram::default();
        h.observe(1.0);
        h.observe(3.0);
        assert_eq!(h.quantile(1.0), 3.0);
        h.observe(2.0);
        assert_eq!(h.quantile(0.5), 2.0, "new observation re-sorts");
        assert_eq!(h.quantile(1.0), 3.0);
    }

    #[test]
    fn display_lists_metrics() {
        let mut m = Metrics::new();
        m.incr("infections");
        let s = m.to_string();
        assert!(s.contains("counter infections = 1"));
    }
}
