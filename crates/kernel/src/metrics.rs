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

    /// Adds `n` to a counter, creating it at zero if absent. The name is
    /// copied only when the counter is created.
    pub fn incr_by(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(count) => *count += n,
            None => {
                self.counters.insert(name.to_owned(), n);
            }
        }
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
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 5.0);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_takes_the_nearest_rank() {
        let mut h = Histogram::default();
        for v in [9.0, 7.0, 5.0, 3.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0] {
            h.observe(v);
        }
        // Rank round(q * 9) of the sorted values 1..=10.
        let table = [(0.0, 1.0), (0.1, 2.0), (0.25, 3.0), (0.75, 8.0), (0.95, 10.0), (1.0, 10.0)];
        for (q, want) in table {
            assert_eq!(h.quantile(q), want, "q={q}");
        }
        assert_eq!(h.quantile(0.5), 6.0, "nearest rank rounds 4.5 up");
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
    fn counters_are_created_once_and_listed_in_name_order() {
        let mut m = Metrics::new();
        m.incr_by("zeta", 0);
        m.incr("alpha");
        m.incr_by("alpha", 2);
        m.incr_by("zeta", 5);
        m.incr("mid");
        assert_eq!((m.counter("alpha"), m.counter("mid"), m.counter("zeta")), (3, 1, 5));
        assert_eq!(m.to_string(), "counter alpha = 3\ncounter mid = 1\ncounter zeta = 5\n");
        let mut zero = Metrics::new();
        zero.incr_by("never", 0);
        assert_eq!(zero.to_string(), "counter never = 0\n", "a zero add still creates the counter");
    }

    #[test]
    fn display_lists_metrics() {
        let mut m = Metrics::new();
        m.incr("infections");
        let s = m.to_string();
        assert!(s.contains("counter infections = 1"));
    }
}
