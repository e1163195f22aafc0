//! Layered benchmark for malsim.
//!
//! Usage: `cargo run --release --manifest-path perfbench/Cargo.toml --
//!   --workload <aramco|kernel_churn|tenants> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON object as the last line of standard output: whether every
//! output check passed, how many checked operations were attempted and
//! failed, and every metric by name with its unit. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is the traced run and reports the
//! per-layer metrics. `perfbench/README.md` explains the workloads and what
//! each metric should move.

mod aramco;
mod churn;
mod storage;
mod tenants;
mod trace;

use std::sync::Arc;
use std::time::{Duration, Instant};

use malsim::report::Json;
use malsim::telemetry;

use trace::{median, quantile, Span, Tracer};

/// The seed whose outputs are pinned: E9 at this seed is the committed
/// `e9_shamoon_aramco` row of `BENCH_sweep.json`.
pub const DEFAULT_SEED: u64 = 815;

/// Where the benchmark writes its journals and span files.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("the benchmark's output directory can be created");
    dir
}

/// Deterministic splitmix64, the generator idiom of `tests/sched_model.rs`.
pub struct Gen(pub u64);

impl Gen {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// What one measured iteration of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    pub setup_s: f64,
    pub run_s: f64,
    /// Kernel events dispatched in the run phase.
    pub events: u64,
    /// Result points produced.
    pub points: u64,
    /// Time from the start of the run phase until the high-priority work
    /// finished.
    pub high_done_s: f64,
    /// Checked operations, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub layer: LayerCounts,
}

/// Per-layer counts a workload reports from its own outputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    pub newly_infected: u64,
    pub schedules: u64,
    pub cancels: u64,
    pub fuel_used: u64,
    pub cache_hits: u64,
    pub cache_base: u64,
    pub evaluated_points: u64,
    pub workers: u64,
    pub fsyncs: u64,
    pub bytes: u64,
}

pub trait Workload {
    /// Whether one untimed (but checked) iteration runs before timing.
    const WARMUP: bool;

    /// Setup times measured before each iteration, on top of the
    /// iteration's own.
    fn extra_setups(&mut self) -> Vec<f64> {
        Vec::new()
    }

    /// Runs iteration `run`, recording spans into `tracer`.
    fn iterate(&mut self, tracer: &Arc<Tracer>, run: u32) -> Iteration;
}

/// Calls `f` with 0, 1, 2, … for about `budget`: always once, and again
/// only while the last call's length still fits in the time left.
fn repeat_for(budget: Duration, mut f: impl FnMut(u32)) {
    let start = Instant::now();
    for run in 0.. {
        let t = Instant::now();
        f(run);
        if start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn absorb(&mut self, it: &Iteration) {
        self.attempted += it.attempted;
        self.failed += it.failed;
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn to_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                (name.to_owned(), Json::obj([("value", Json::F64(value)), ("unit", unit.into())]))
            })
            .collect();
        Json::obj([
            ("correct", self.correct.into()),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_compact_string()
    }
}

/// Peak resident set size in MB, from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run: tracing off, telemetry unarmed.
fn measure<W: Workload>(mut w: W, budget: Duration) -> Report {
    let tracer = Arc::new(Tracer::new(false));
    let mut report = Report::default();
    if W::WARMUP {
        report.absorb(&w.iterate(&tracer, 0));
    }
    // Extra setups run before every iteration rather than all at the start,
    // so they sample the host at several moments of the run.
    let (mut setups, mut iters) = (Vec::new(), Vec::new());
    repeat_for(budget, |run| {
        setups.extend(w.extra_setups());
        iters.push(w.iterate(&tracer, run));
    });
    for it in &iters {
        report.absorb(it);
    }
    setups.extend(iters.iter().map(|it| it.setup_s));
    eprintln!("{} timed iterations, {} timed setups", iters.len(), setups.len());
    // Run-phase figures are means over the iterations, not medians: on a
    // shared 2-core host, iteration times switch for seconds at a time
    // between a fast and a ~1.5x slower mode, and a per-run median jumps
    // between the modes where the mean moves with the share of time in each.
    let sum = |f: &dyn Fn(&Iteration) -> f64| iters.iter().map(f).sum::<f64>();
    let run_total_s = sum(&|it| it.run_s);
    report.metric("setup_s", median(&setups), "s");
    report.metric("run_s", run_total_s / iters.len() as f64, "s");
    report.metric("events_per_s", sum(&|it| it.events as f64) / run_total_s, "1/s");
    report.metric("points_per_s", sum(&|it| it.points as f64) / run_total_s, "1/s");
    report.metric("high_prio_done_s", sum(&|it| it.high_done_s) / iters.len() as f64, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report
}

/// Deterministic kernel and job-queue counters of one traced iteration,
/// read from the telemetry registry.
#[derive(Debug, Clone, Copy, Default)]
struct Registry {
    dispatches: u64,
    untraced_dispatches: u64,
    queue_depth_max: u64,
    resizes: u64,
    tombstone_reaps: u64,
    cursor_pullbacks: u64,
    wfq_lag_max: u64,
}

impl Registry {
    fn read() -> Registry {
        let det = telemetry::deterministic_json();
        let int = |name: &str| det.get(name).and_then(Json::as_u64).unwrap_or(0);
        let labeled = |name: &str| match det.get(name) {
            Some(Json::Obj(items)) => {
                items.iter().map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0))).collect()
            }
            _ => Vec::new(),
        };
        let dispatches = labeled("malsim_sched_dispatches_total");
        Registry {
            dispatches: dispatches.iter().map(|(_, n)| n).sum(),
            untraced_dispatches: dispatches.iter().find(|(k, _)| k == "untraced").map_or(0, |(_, n)| *n),
            queue_depth_max: int("malsim_sched_queue_depth_max"),
            resizes: int("malsim_calq_resizes_total"),
            tombstone_reaps: int("malsim_calq_tombstone_reaps_total"),
            cursor_pullbacks: int("malsim_calq_cursor_pullbacks_total"),
            wfq_lag_max: labeled("malsim_jobs_wfq_lag").iter().map(|(_, n)| *n).max().unwrap_or(0),
        }
    }
}

/// The traced run: half the budget untraced for the overhead baseline, then
/// telemetry armed (one-way, so only now) and half the budget traced.
fn measure_traced<W: Workload>(mut w: W, budget: Duration, spans_path: &std::path::Path) -> Report {
    let mut report = Report::default();
    let off = Arc::new(Tracer::new(false));
    if W::WARMUP {
        report.absorb(&w.iterate(&off, 0));
    }
    let mut untraced = Vec::new();
    repeat_for(budget / 2, |run| untraced.push(w.iterate(&off, run)));

    telemetry::arm();
    let tracer = Arc::new(Tracer::new(true));
    let mut traced = Vec::new();
    repeat_for(budget / 2, |run| {
        telemetry::reset();
        let it = w.iterate(&tracer, run);
        traced.push((it, Registry::read()));
    });
    for it in untraced.iter().chain(traced.iter().map(|(it, _)| it)) {
        report.absorb(it);
    }
    if let Err(e) = tracer.write_jsonl(spans_path, &spans_path.display().to_string()) {
        eprintln!("warning: cannot write {}: {e}", spans_path.display());
    }

    let spans = tracer.spans();
    let runs: Vec<u32> = (0..traced.len() as u32).collect();
    let selfs = trace::self_times(&spans);
    let self_s = |name: &str| trace::median_self_s(&selfs, &runs, name);
    let per = |f: &dyn Fn(&Iteration, &Registry, u32) -> f64| {
        median(&traced.iter().zip(&runs).map(|((it, reg), &run)| f(it, reg, run)).collect::<Vec<_>>())
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let span_s = |spans: &[Span], run: u32, name: &str| trace::total_s(spans, run, name);
    let quantile_us = |name: &str, q: f64| quantile(&trace::durations_s(&spans, name), q) * 1e6;

    report.metric(
        "sched.ns_per_event",
        per(&|it, _, run| ratio(span_s(&spans, run, "sched.run_until") * 1e9, it.events as f64)),
        "ns",
    );
    report.metric(
        "sched.schedule_ns",
        per(&|it, _, run| ratio(span_s(&spans, run, "sched.schedule") * 1e9, it.layer.schedules as f64)),
        "ns",
    );
    report.metric(
        "sched.cancel_ns",
        per(&|it, _, run| ratio(span_s(&spans, run, "sched.cancel") * 1e9, it.layer.cancels as f64)),
        "ns",
    );
    report.metric("sched.dispatches", per(&|_, reg, _| reg.dispatches as f64), "count");
    report.metric("sched.queue_depth_max", per(&|_, reg, _| reg.queue_depth_max as f64), "count");
    report.metric("calq.resizes", per(&|_, reg, _| reg.resizes as f64), "count");
    report.metric("calq.tombstone_reaps", per(&|_, reg, _| reg.tombstone_reaps as f64), "count");
    report.metric("calq.cursor_pullbacks", per(&|_, reg, _| reg.cursor_pullbacks as f64), "count");
    report.metric("sched.run_until_s", self_s("sched.run_until"), "s");
    report.metric(
        "shamoon.infect_yield",
        per(&|it, reg, _| ratio(it.layer.newly_infected as f64, reg.untraced_dispatches as f64)),
        "ratio",
    );
    report.metric("scenario.build_s", self_s("scenario.build"), "s");
    report.metric("armory.arm_s", self_s("armory.arm"), "s");
    report.metric("malware.seed_s", self_s("malware.seed"), "s");
    report.metric("script.run_us_p50", quantile_us("script.run", 0.5), "us");
    report.metric("script.run_us_p90", quantile_us("script.run", 0.9), "us");
    report.metric("script.fuel_used", per(&|it, _, _| it.layer.fuel_used as f64), "count");
    // Capacity is the queue's run span times its workers; points fill it,
    // and the rest is dispatch, journal and idle time.
    let capacity_s = |it: &Iteration, run: u32| span_s(&spans, run, "jobs.run") * it.layer.workers as f64;
    report.metric(
        "sweep.busy_frac",
        per(&|it, _, run| ratio(span_s(&spans, run, "sweep.point"), capacity_s(it, run))),
        "ratio",
    );
    report.metric("jobs.submit_us", median(&trace::durations_s(&spans, "jobs.submit")) * 1e6, "us");
    report.metric(
        "jobs.overhead_per_point_us",
        per(&|it, _, run| {
            let idle = capacity_s(it, run) - span_s(&spans, run, "sweep.point");
            ratio(idle * 1e6, it.layer.evaluated_points as f64)
        }),
        "us",
    );
    report.metric("jobs.self_s", self_s("jobs.run"), "s");
    report.metric("jobs.cache_hits", per(&|it, _, _| it.layer.cache_hits as f64), "count");
    report.metric("jobs.cache_hit_base", per(&|it, _, _| it.layer.cache_base as f64), "count");
    report.metric(
        "jobs.cache_hit_ratio",
        per(&|it, _, _| ratio(it.layer.cache_hits as f64, it.layer.cache_base as f64)),
        "ratio",
    );
    report.metric("jobs.wfq_lag", per(&|_, reg, _| reg.wfq_lag_max as f64), "count");
    report.metric("storage.fsyncs", per(&|it, _, _| it.layer.fsyncs as f64), "count");
    report.metric("storage.bytes", per(&|it, _, _| it.layer.bytes as f64), "bytes");
    report.metric("storage.fsync_us_p50", quantile_us("storage.fsync", 0.5), "us");
    report.metric("storage.fsync_us_p90", quantile_us("storage.fsync", 0.9), "us");
    report.metric(
        "storage.busy_s",
        per(&|_, _, run| {
            ["storage.open", "storage.append", "storage.flush", "storage.fsync"]
                .iter()
                .map(|name| span_s(&spans, run, name))
                .sum()
        }),
        "s",
    );
    report.metric("report.render_s", self_s("report.render"), "s");
    let untraced_run_s = median(&untraced.iter().map(|it| it.run_s).collect::<Vec<_>>());
    let traced_run_s = median(&traced.iter().map(|(it, _)| it.run_s).collect::<Vec<_>>());
    report.metric("bench.trace_overhead_frac", ratio(traced_run_s - untraced_run_s, untraced_run_s), "ratio");
    report.metric("bench.error_rate", ratio(report.failed as f64, report.attempted as f64), "ratio");
    report.metric("bench.traced_iterations", traced.len() as f64, "count");
    report
}

fn run<W: Workload>(w: W, traced: bool, budget: Duration, spans_path: &std::path::Path) -> Report {
    if traced {
        measure_traced(w, budget, spans_path)
    } else {
        measure(w, budget)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: malsim-perfbench --workload <aramco|kernel_churn|tenants> [--seed <n>] [--seconds <s>] \
         [--trace <0|1>]"
    );
    std::process::exit(2);
}

fn main() {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, DEFAULT_SEED, 10u64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    let budget = Duration::from_secs(seconds.max(1));
    let spans_path = out_dir().join(format!("spans-{workload}-{seed}.jsonl"));
    let mut report = match workload.as_str() {
        "aramco" => run(aramco::Aramco::new(seed), traced, budget, &spans_path),
        "kernel_churn" => run(churn::Churn::new(seed), traced, budget, &spans_path),
        "tenants" => run(tenants::Tenants::new(seed), traced, budget, &spans_path),
        _ => usage(),
    };
    report.correct = report.failed == 0 && report.metrics.iter().all(|(_, v, _)| v.is_finite());
    for &(name, value, unit) in &report.metrics {
        eprintln!("{name:<28} {value:>16.6} {unit}");
    }
    println!("{}", report.to_line());
}
