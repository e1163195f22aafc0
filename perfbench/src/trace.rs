//! In-memory spans recorded around calls into each layer, and the
//! statistics the report draws from them.
//!
//! A span has a name, a start, an end and the span that caused it; every
//! span of one iteration carries that iteration's number as its run id.
//! Spans stay in memory while the benchmark measures and are written out
//! once, at exit. With tracing off every method returns after one branch
//! and reads no clock.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent == 0` marks an iteration's root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub run: u32,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where a new span hangs: the iteration it belongs to and its parent span.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub run: u32,
    pub id: u64,
}

impl Ctx {
    /// The context of iteration `run`, above its root span.
    pub fn iteration(run: u32) -> Ctx {
        Ctx { run, id: 0 }
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the tracer was made; 0 with tracing off.
    pub fn now_ns(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// A fresh span id under `parent`, for a span whose start and end are
    /// taken by the caller and handed to [`Tracer::record`].
    pub fn child(&self, parent: Ctx) -> Ctx {
        Ctx { run: parent.run, id: if self.on { self.next_id.fetch_add(1, Ordering::Relaxed) } else { 0 } }
    }

    pub fn record(&self, me: Ctx, parent: Ctx, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.on {
            let span = Span { run: me.run, id: me.id, parent: parent.id, name, start_ns, end_ns };
            self.spans.lock().expect("span store lock never held across a panic").push(span);
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<T>(&self, parent: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> T) -> T {
        if !self.on {
            return f(parent);
        }
        let me = self.child(parent);
        let start = self.now_ns();
        let out = f(me);
        self.record(me, parent, name, start, self.now_ns());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock never held across a panic").clone()
    }

    /// Writes every span as one JSON line, tagged with `bench_run`.
    pub fn write_jsonl(&self, path: &Path, bench_run: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"bench_run\":\"{bench_run}\",\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per `(run, span name)` in seconds: each span's duration minus
/// the part of its interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<(u32, &'static str), f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<(u32, &'static str), f64> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        *out.entry((s.run, s.name)).or_default() += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    clipped.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Median over the iterations in `runs` of the self time of spans named
/// `name` (an iteration with no such span counts as 0).
pub fn median_self_s(selfs: &BTreeMap<(u32, &'static str), f64>, runs: &[u32], name: &str) -> f64 {
    let per_run: Vec<f64> = runs.iter().map(|&r| selfs.get(&(r, name)).copied().unwrap_or(0.0)).collect();
    median(&per_run)
}

/// Durations in seconds of every span named `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9).collect()
}

/// Sum of the durations in seconds of spans named `name` in iteration `run`.
pub fn total_s(spans: &[Span], run: u32, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.run == run && s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum()
}

/// The `q` quantile (0..=1) by linear interpolation; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns| Span { run: 0, id, parent, name: "x", start_ns, end_ns };
        // Parent 0..100 with overlapping children 10..40 and 30..60 and one
        // child running past the parent's end.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 60), span(4, 1, 90, 120)];
        assert_eq!(covered_ns(&[(10, 40), (30, 60), (90, 120)], 0, 100), 60);
        let selfs = self_times(&spans);
        // 40 ns for the parent, plus the children's own durations.
        let expected = (40 + 30 + 30 + 30) as f64 * 1e-9;
        assert!((selfs[&(0, "x")] - expected).abs() < 1e-15);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }
}
