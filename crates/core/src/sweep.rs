//! Deterministic parallel sweep runner.
//!
//! Every experiment in [`crate::experiments`] is a parameter sweep: a grid of
//! points (patch rates, LAN sizes, takedown fractions, action rates), each
//! evaluated by an independent simulation. [`run`] fans those points across
//! scoped worker threads and returns the results **in point order**, with a
//! hard determinism contract: the output is byte-identical at every thread
//! count, including 1.
//!
//! The contract holds because a point's randomness comes only from its
//! [`SweepCtx`] — either the stable derived stream seed
//! ([`SweepCtx::derived_seed`], keyed on `(experiment, point, seed)` via
//! [`SimRng::derive_stream_seed`]) or, for *paired* designs, the shared base
//! seed — never from shared mutable state, thread identity, or execution
//! order.
//!
//! ## Derived vs paired seeding
//!
//! Independent points (E2's patch rates, E4's LAN sizes, E6's takedown
//! fractions, E11's action rates) seed their scenario from
//! [`SweepCtx::derived_seed`], so each point explores its own world.
//! Ablation pairs and monotone sweeps that compare points against each other
//! (E3, E8, E12, E13) instead seed every point from
//! [`SweepCtx::base_seed`]: the arms then share corpora, topologies, and
//! fault prefixes, and differ only in the treatment — the paired design the
//! shape tests rely on.
//!
//! The contract survives hostile storage, too: the checkpointed runner
//! ([`crate::checkpoint`]) persists through a [`crate::chaosfs`] backend
//! that retries transient I/O faults and quarantines on fatal ones, so a
//! failing disk can cost durability but never perturb the sweep's bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use malsim_kernel::invariant::InvariantViolation;
use malsim_kernel::rng::SimRng;
use malsim_kernel::sched::{ProfileSummary, StopReason, Watchdog};

use crate::telemetry;

/// The identity of one sweep point: which experiment, which point index, and
/// the sweep's base seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCtx {
    /// Stable experiment label (e.g. `"e2"`); part of the stream key.
    pub experiment: &'static str,
    /// Zero-based index of the point in the grid.
    pub point: usize,
    /// The seed the whole sweep was invoked with.
    pub base_seed: u64,
}

impl SweepCtx {
    /// The stable per-point seed derived from `(experiment, point,
    /// base_seed)`. Use for independent points.
    pub fn derived_seed(&self) -> u64 {
        SimRng::derive_stream_seed(self.base_seed, self.experiment, self.point as u64)
    }

    /// An rng seeded from [`SweepCtx::derived_seed`], for point-local draws
    /// outside a simulation.
    pub fn rng(&self) -> SimRng {
        SimRng::for_stream(self.base_seed, self.experiment, self.point as u64)
    }
}

/// Worker-pool sizing shared by every parallel surface: plain sweeps, the
/// supervised and checkpointed runners, and the multi-tenant
/// [`JobQueue`](crate::jobs::JobQueue).
///
/// There is exactly one sizing rule in the workspace — this type — so an
/// explicit per-run override and the `MALSIM_THREADS` environment knob can
/// never disagree about what a "default" worker count means. The resolved
/// count never changes *what* a run computes, only how fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolConfig {
    /// Explicit worker count (clamped to ≥ 1 on resolve). `None` defers to
    /// `MALSIM_THREADS`, then to the machine's available parallelism.
    pub threads: Option<usize>,
}

impl PoolConfig {
    /// Defer entirely to the environment (`MALSIM_THREADS`, then core count).
    pub fn from_env() -> PoolConfig {
        PoolConfig { threads: None }
    }

    /// A fixed worker count, ignoring the environment.
    pub const fn explicit(threads: usize) -> PoolConfig {
        PoolConfig { threads: Some(threads) }
    }

    /// The effective worker count: the explicit override if set (minimum 1),
    /// else `MALSIM_THREADS` (minimum 1, unparsable values read as 1), else
    /// the machine's available parallelism.
    pub fn resolve(&self) -> usize {
        match self.threads {
            Some(n) => n.max(1),
            None => match std::env::var("MALSIM_THREADS") {
                Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
                Err(_) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            },
        }
    }
}

/// Worker-thread count for sweeps: `MALSIM_THREADS` if set (minimum 1),
/// otherwise the machine's available parallelism. Shorthand for
/// [`PoolConfig::from_env`]`.resolve()`.
pub fn threads_from_env() -> usize {
    PoolConfig::from_env().resolve()
}

/// Evaluates `run_point` over every point of `points` on up to `threads`
/// worker threads, returning results in point order.
///
/// Scheduling is work-stealing over an atomic point index, so stragglers
/// (e.g. E13's 0%-takedown point, which uploads the most) don't serialize
/// the sweep; determinism is unaffected because results are placed by index
/// and each point's randomness is keyed, not sequenced.
///
/// # Panics
///
/// Propagates a panic from any worker (the sweep is aborted).
pub fn run<P, R, F>(
    experiment: &'static str,
    base_seed: u64,
    points: &[P],
    threads: usize,
    run_point: F,
) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&SweepCtx, &P) -> R + Sync,
{
    let ctx = |point: usize| SweepCtx { experiment, point, base_seed };
    let threads = threads.clamp(1, points.len().max(1));
    if threads == 1 {
        return points.iter().enumerate().map(|(i, p)| run_point(&ctx(i), p)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(points.len()).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = points.get(i) else { break };
                        mine.push((i, run_point(&ctx(i), p)));
                    }
                    mine
                })
            })
            .collect();
        for worker in workers {
            for (i, r) in worker.join().expect("sweep worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every sweep point is computed exactly once")).collect()
}

/// Supervision policy for a sweep: retry budget for panicking points, the
/// per-point [`Watchdog`] limits, and whether to arm the runtime invariant
/// checker inside each point's simulation.
///
/// The default supervisor imposes nothing: no retries, no limits, checker
/// off — [`supervised_point`] then only adds panic isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepSupervisor {
    /// How many times a panicking point is re-attempted before it is
    /// quarantined as [`PointOutcome::Poisoned`].
    pub retries: u32,
    /// Deterministic per-point event budget (see [`Watchdog::max_events`]).
    pub event_budget: Option<u64>,
    /// Host-clock per-point deadline in milliseconds; nondeterministic, for
    /// runaway protection only (see [`Watchdog::deadline_ms`]).
    pub deadline_ms: Option<u64>,
    /// Arm the kernel invariant checker (non-strict) inside each point.
    pub check_invariants: bool,
    /// Host-clock sleep before each point starts, in milliseconds. Zero in
    /// normal use; nonzero only to widen the kill window in resume drills.
    pub stagger_ms: u64,
    /// Host-clock backoff between panic re-attempts, in milliseconds; the
    /// sleep grows linearly with the attempt number (`backoff × attempts`).
    /// Zero (the default) retries immediately. Backoff is pure pacing: it
    /// never changes what a retried point computes.
    pub retry_backoff_ms: u64,
}

impl SweepSupervisor {
    /// The per-point watchdog this policy implies.
    pub fn watchdog(&self) -> Watchdog {
        Watchdog { max_events: self.event_budget, deadline_ms: self.deadline_ms }
    }
}

/// Why a point's simulation was cut short by the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truncation {
    /// The deterministic event budget ran out.
    EventBudget,
    /// The host-clock deadline passed (nondeterministic).
    HostDeadline,
}

impl Truncation {
    /// Maps a watched run's stop reason; `Completed` is not a truncation.
    pub fn from_stop(reason: StopReason) -> Option<Truncation> {
        match reason {
            StopReason::Completed => None,
            StopReason::EventBudget => Some(Truncation::EventBudget),
            StopReason::HostDeadline => Some(Truncation::HostDeadline),
        }
    }

    /// Stable lower-case label (`"event_budget"` / `"host_deadline"`).
    pub fn label(&self) -> &'static str {
        match self {
            Truncation::EventBudget => "event_budget",
            Truncation::HostDeadline => "host_deadline",
        }
    }
}

/// What one supervised point produced: the experiment's own result plus the
/// supervision verdicts (was it truncated, what invariants broke).
#[derive(Debug, Clone, PartialEq)]
pub struct PointRun<R> {
    /// The experiment's result row for this point (partial if truncated).
    pub result: R,
    /// Set when the watchdog cut the point short.
    pub truncation: Option<Truncation>,
    /// Invariant violations observed during the point, if the checker ran.
    pub violations: Vec<InvariantViolation>,
}

impl<R> PointRun<R> {
    /// A run that completed untruncated with no violations.
    pub fn complete(result: R) -> Self {
        PointRun { result, truncation: None, violations: Vec::new() }
    }
}

/// How a scenario script failed at one grid point: the typed fault rendered
/// for the report, plus enough context to reproduce and triage it.
///
/// Produced by point closures (see [`supervised_point`]);
/// the sweep turns it into [`PointOutcome::ScriptFault`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptFaultInfo {
    /// The script's manifest name (or a stable synthetic id).
    pub script_id: String,
    /// `Display` rendering of the underlying
    /// [`RunScriptError`](malsim_script::error::RunScriptError) or
    /// [`CompileScriptError`](malsim_script::error::CompileScriptError).
    pub error: String,
    /// Fuel the script had consumed when it faulted (0 for compile faults).
    pub fuel_used: u64,
}

/// Terminal outcome of one supervised sweep point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome<R> {
    /// The point produced a result (possibly truncated) within the retry
    /// budget.
    Completed {
        /// The run's result and supervision verdicts.
        run: PointRun<R>,
        /// Attempts consumed, counting the successful one (1 = first try).
        attempts: u32,
    },
    /// Every attempt panicked; the point is quarantined so the rest of the
    /// grid can complete.
    Poisoned {
        /// Rendered panic payload from the final attempt.
        panic_msg: String,
        /// The point's derived stream seed, for standalone reproduction.
        seed: u64,
        /// Zero-based grid index of the point.
        point: usize,
        /// `Debug` rendering of the point's parameters.
        params: String,
        /// Attempts consumed (all panicked).
        attempts: u32,
    },
    /// The point's scenario script faulted (ran out of fuel/memory, called
    /// a forbidden capability, hit a runtime error…). Deterministic — the
    /// same script fails the same way every time — so unlike
    /// [`PointOutcome::Poisoned`] no retries are burned; the point is
    /// tagged and the rest of the grid completes.
    ScriptFault {
        /// The script's manifest name.
        script_id: String,
        /// `Display` rendering of the typed fault.
        error: String,
        /// Fuel consumed before the fault.
        fuel_used: u64,
        /// Zero-based grid index of the point.
        point: usize,
    },
}

impl<R> PointOutcome<R> {
    /// The completed run, if the point was not poisoned or script-faulted.
    pub fn run(&self) -> Option<&PointRun<R>> {
        match self {
            PointOutcome::Completed { run, .. } => Some(run),
            PointOutcome::Poisoned { .. } | PointOutcome::ScriptFault { .. } => None,
        }
    }
}

/// Renders a caught panic payload (the `String`/`&str` cases panics almost
/// always carry).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one point under the supervisor: optional stagger sleep, then up to
/// `1 + retries` attempts with each panic caught and the last one quarantined
/// as [`PointOutcome::Poisoned`].
///
/// A point can also fail with a typed script fault. The two failure modes are
/// handled differently: a panic is assumed transient-ish and retried up to
/// the supervisor's budget; an `Err(ScriptFaultInfo)` is deterministic (the
/// same script faults the same way on every attempt), so it is tagged as
/// [`PointOutcome::ScriptFault`] immediately without burning a retry. Points
/// that cannot fault return `Ok(..)`.
///
/// # Unwind safety
///
/// The `catch_unwind` here uses `AssertUnwindSafe`, which is sound under the
/// sweep contract: `run_point` must be a pure function of `(ctx, point)` that
/// rebuilds all simulation state from the ctx's seed. The only state crossing
/// the unwind boundary is shared *immutable* borrows (`point`, the closure's
/// captures); a panicking attempt can therefore leave nothing half-mutated
/// for the retry — or any other point — to observe. Closures that mutate
/// shared state through interior mutability are outside the contract.
pub fn supervised_point<P, R, F>(
    ctx: &SweepCtx,
    supervisor: &SweepSupervisor,
    point: &P,
    run_point: &F,
) -> PointOutcome<R>
where
    P: std::fmt::Debug,
    F: Fn(&SweepCtx, &P) -> Result<PointRun<R>, ScriptFaultInfo>,
{
    if supervisor.stagger_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(supervisor.stagger_ms));
    }
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_point(ctx, point))) {
            Ok(Ok(run)) => {
                telemetry::points_retried(u64::from(attempts - 1));
                telemetry::point_completed(run.truncation);
                return PointOutcome::Completed { run, attempts };
            }
            Ok(Err(fault)) => {
                telemetry::point_script_fault();
                return PointOutcome::ScriptFault {
                    script_id: fault.script_id,
                    error: fault.error,
                    fuel_used: fault.fuel_used,
                    point: ctx.point,
                };
            }
            Err(payload) => {
                if attempts > supervisor.retries {
                    telemetry::points_retried(u64::from(attempts - 1));
                    telemetry::point_quarantined();
                    return PointOutcome::Poisoned {
                        panic_msg: panic_message(payload),
                        seed: ctx.derived_seed(),
                        point: ctx.point,
                        params: format!("{point:?}"),
                        attempts,
                    };
                }
                if supervisor.retry_backoff_ms > 0 {
                    let pause = supervisor.retry_backoff_ms.saturating_mul(u64::from(attempts));
                    std::thread::sleep(std::time::Duration::from_millis(pause));
                }
            }
        }
    }
}

/// [`run`] with per-point supervision: a panicking point is retried up to
/// `supervisor.retries` times and then quarantined as
/// [`PointOutcome::Poisoned`] instead of aborting the sweep, so the other
/// `n - 1` points still complete. A point returning `Err(ScriptFaultInfo)`
/// becomes [`PointOutcome::ScriptFault`] (no retries).
///
/// `run_point` is responsible for honouring the supervisor's watchdog and
/// invariant settings when it builds its simulation (see
/// [`SweepSupervisor::watchdog`]); the runner cannot reach inside a point.
/// Determinism: outcomes are byte-identical across thread counts exactly as
/// with [`run`], as long as only deterministic limits (event budget, not
/// host deadline) are in force.
pub fn run_supervised<P, R, F>(
    experiment: &'static str,
    base_seed: u64,
    points: &[P],
    pool: PoolConfig,
    supervisor: &SweepSupervisor,
    run_point: F,
) -> Vec<PointOutcome<R>>
where
    P: Sync + std::fmt::Debug,
    R: Send,
    F: Fn(&SweepCtx, &P) -> Result<PointRun<R>, ScriptFaultInfo> + Sync,
{
    run(experiment, base_seed, points, pool.resolve(), |ctx, p| {
        supervised_point(ctx, supervisor, p, &run_point)
    })
}

/// Per-category roll-up of one metric across a grid of profiling summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupRow {
    /// Dispatch category (a [`TraceCategory`](malsim_kernel::trace::TraceCategory)
    /// name or `"(untraced)"`).
    pub category: String,
    /// `(min, median, max)` events dispatched per point.
    pub events: (u64, u64, u64),
    /// `(min, median, max)` host milliseconds per point.
    pub host_ms: (f64, f64, f64),
}

/// Min/median/max roll-up of per-point [`ProfileSummary`]s across a sweep
/// grid. A point that never dispatched a category contributes zero for it,
/// so the rows compare like-for-like across the whole grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRollup {
    /// One row per category seen anywhere in the grid, sorted by name.
    pub rows: Vec<RollupRow>,
    /// Number of grid points rolled up.
    pub points: usize,
}

/// Builds the [`ProfileRollup`] for a sweep's per-point profiling summaries
/// (as returned by
/// [`e13_takedown_resilience_profiled_t`](crate::experiments::e13_takedown_resilience_profiled_t)).
pub fn profile_rollup(summaries: &[ProfileSummary]) -> ProfileRollup {
    let mut per_cat: BTreeMap<&str, (Vec<u64>, Vec<f64>)> = BTreeMap::new();
    for summary in summaries {
        for row in &summary.rows {
            per_cat.entry(&row.category).or_default();
        }
    }
    for summary in summaries {
        for (cat, (events, host_ms)) in per_cat.iter_mut() {
            let row = summary.rows.iter().find(|r| r.category == *cat);
            events.push(row.map_or(0, |r| r.events));
            host_ms.push(row.map_or(0.0, |r| r.host_ms));
        }
    }
    let rows = per_cat
        .into_iter()
        .map(|(category, (mut events, mut host_ms))| {
            events.sort_unstable();
            host_ms.sort_by(f64::total_cmp);
            RollupRow {
                category: category.to_owned(),
                events: (events[0], nearest_rank(&events), events[events.len() - 1]),
                host_ms: (host_ms[0], nearest_rank(&host_ms), host_ms[host_ms.len() - 1]),
            }
        })
        .collect();
    ProfileRollup { rows, points: summaries.len() }
}

/// Nearest-rank median of a sorted non-empty slice (same convention as
/// [`Histogram::quantile`](malsim_kernel::metrics::Histogram::quantile)).
fn nearest_rank<T: Copy>(sorted: &[T]) -> T {
    let rank = (0.5 * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

impl ProfileRollup {
    /// Renders the roll-up as an aligned table, one category per row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "scheduler profile across {} sweep points (min / median / max):", self.points);
        let width = self.rows.iter().map(|r| r.category.len()).max().unwrap_or(8).max(8);
        let _ = writeln!(out, "{:width$}  {:>27}  {:>30}", "category", "events", "host ms");
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:width$}  {:>7} / {:>7} / {:>7}  {:>8.2} / {:>8.2} / {:>8.2}",
                row.category,
                row.events.0,
                row.events.1,
                row.events.2,
                row.host_ms.0,
                row.host_ms.1,
                row.host_ms.2,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malsim_kernel::sched::ProfileRow;

    #[test]
    fn results_come_back_in_point_order() {
        let points: Vec<usize> = (0..100).collect();
        let out = run("order", 1, &points, 8, |ctx, &p| {
            assert_eq!(ctx.point, p);
            p * 2
        });
        assert_eq!(out, (0..100).map(|p| p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let points: Vec<u64> = (0..40).collect();
        let eval = |ctx: &SweepCtx, &p: &u64| {
            // Draw from the derived stream so the value depends on the key
            // alone; any order- or thread-dependence would break equality.
            let mut rng = ctx.rng();
            (p, ctx.derived_seed(), rng.bits())
        };
        let serial = run("par", 9, &points, 1, eval);
        for threads in [2, 3, 8, 64] {
            assert_eq!(serial, run("par", 9, &points, threads, eval), "threads={threads}");
        }
    }

    #[test]
    fn derived_seeds_are_distinct_per_point_and_experiment() {
        let a = SweepCtx { experiment: "e2", point: 0, base_seed: 42 };
        let b = SweepCtx { experiment: "e2", point: 1, base_seed: 42 };
        let c = SweepCtx { experiment: "e4", point: 0, base_seed: 42 };
        assert_ne!(a.derived_seed(), b.derived_seed());
        assert_ne!(a.derived_seed(), c.derived_seed());
    }

    #[test]
    fn degenerate_grids_are_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(run("empty", 1, &empty, 8, |_, &p| p).is_empty());
        assert_eq!(run("one", 1, &[7u32], 8, |_, &p| p), vec![7]);
    }

    fn summary(cats: &[(&str, u64, f64)]) -> ProfileSummary {
        let rows: Vec<ProfileRow> = cats
            .iter()
            .map(|&(category, events, host_ms)| ProfileRow { category: category.to_owned(), events, host_ms })
            .collect();
        let total_events = rows.iter().map(|r| r.events).sum();
        let total_host_ms = rows.iter().map(|r| r.host_ms).sum();
        ProfileSummary {
            rows,
            total_events,
            total_host_ms,
            queue_p50: 0.0,
            queue_p95: 0.0,
            queue_p99: 0.0,
            queue_max: 0.0,
        }
    }

    #[test]
    fn rollup_takes_min_median_max_per_category() {
        let grid = [
            summary(&[("net", 10, 1.0), ("c2", 5, 0.5)]),
            summary(&[("net", 30, 3.0)]),
            summary(&[("net", 20, 2.0), ("c2", 7, 0.7)]),
        ];
        let rollup = profile_rollup(&grid);
        assert_eq!(rollup.points, 3);
        assert_eq!(rollup.rows.len(), 2);
        // Categories come back sorted; missing categories count as zero.
        assert_eq!(rollup.rows[0].category, "c2");
        assert_eq!(rollup.rows[0].events, (0, 5, 7));
        assert_eq!(rollup.rows[1].category, "net");
        assert_eq!(rollup.rows[1].events, (10, 20, 30));
        assert_eq!(rollup.rows[1].host_ms, (1.0, 2.0, 3.0));
        let table = rollup.render();
        assert!(table.contains("3 sweep points"), "{table}");
        assert!(table.contains("net"), "{table}");
    }

    #[test]
    fn rollup_of_nothing_is_empty_not_a_panic() {
        let rollup = profile_rollup(&[]);
        assert!(rollup.rows.is_empty());
        assert_eq!(rollup.points, 0);
    }

    #[test]
    fn poisoned_point_is_quarantined_while_others_complete() {
        let points: Vec<u32> = (0..8).collect();
        let supervisor = SweepSupervisor::default();
        for threads in [1, 2, 8] {
            let outcomes = run_supervised(
                "quarantine",
                3,
                &points,
                PoolConfig::explicit(threads),
                &supervisor,
                |ctx, &p| {
                    if p == 5 {
                        panic!("injected failure at point {p}");
                    }
                    Ok(PointRun::complete((ctx.point, p * 10)))
                },
            );
            assert_eq!(outcomes.len(), 8);
            for (i, outcome) in outcomes.iter().enumerate() {
                if i == 5 {
                    let PointOutcome::Poisoned { panic_msg, seed, point, params, attempts } = outcome else {
                        panic!("point 5 must be poisoned, got {outcome:?}");
                    };
                    assert_eq!(panic_msg, "injected failure at point 5");
                    let ctx = SweepCtx { experiment: "quarantine", point: 5, base_seed: 3 };
                    assert_eq!(*seed, ctx.derived_seed());
                    assert_eq!(*point, 5);
                    assert_eq!(params, "5");
                    assert_eq!(*attempts, 1, "no retries configured");
                } else {
                    assert_eq!(outcome.run().map(|r| r.result), Some((i, i as u32 * 10)));
                }
            }
        }
    }

    #[test]
    fn retry_budget_rescues_flaky_points() {
        use std::sync::atomic::AtomicU32;
        let points: Vec<usize> = (0..4).collect();
        let tries: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        let supervisor = SweepSupervisor { retries: 2, ..SweepSupervisor::default() };
        let outcomes = run_supervised("flaky", 1, &points, PoolConfig::explicit(2), &supervisor, |_, &p| {
            let attempt = tries[p].fetch_add(1, Ordering::SeqCst) + 1;
            // Point 2 fails twice, then succeeds — within the retry budget.
            if p == 2 && attempt < 3 {
                panic!("flaky");
            }
            Ok(PointRun::complete(p))
        });
        match &outcomes[2] {
            PointOutcome::Completed { run, attempts } => {
                assert_eq!(run.result, 2);
                assert_eq!(*attempts, 3);
            }
            other => panic!("expected rescue, got {other:?}"),
        }
        for (i, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.run().map(|r| r.result), Some(i));
        }

        // With a smaller budget the same point stays poisoned.
        let tries: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        let supervisor = SweepSupervisor { retries: 1, ..SweepSupervisor::default() };
        let outcomes = run_supervised("flaky", 1, &points, PoolConfig::explicit(2), &supervisor, |_, &p| {
            let attempt = tries[p].fetch_add(1, Ordering::SeqCst) + 1;
            if p == 2 && attempt < 3 {
                panic!("flaky");
            }
            Ok(PointRun::complete(p))
        });
        match &outcomes[2] {
            PointOutcome::Poisoned { attempts, panic_msg, .. } => {
                assert_eq!(*attempts, 2, "initial try plus one retry");
                assert_eq!(panic_msg, "flaky");
            }
            other => panic!("expected poisoning, got {other:?}"),
        }
    }

    #[test]
    fn script_fault_tags_the_point_without_burning_retries() {
        use std::sync::atomic::AtomicU32;
        let points: Vec<u32> = (0..6).collect();
        let tries: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
        // Generous retry budget: a deterministic script fault must still be
        // reported after exactly one attempt.
        let supervisor = SweepSupervisor { retries: 5, ..SweepSupervisor::default() };
        for threads in [1, 4] {
            for t in &tries {
                t.store(0, Ordering::SeqCst);
            }
            let outcomes = run_supervised(
                "scriptfault",
                7,
                &points,
                PoolConfig::explicit(threads),
                &supervisor,
                |ctx, &p| {
                    tries[p as usize].fetch_add(1, Ordering::SeqCst);
                    if p == 3 {
                        return Err(ScriptFaultInfo {
                            script_id: "bomb.flua".into(),
                            error: "script exceeded its fuel budget".into(),
                            fuel_used: 20_000,
                        });
                    }
                    Ok(PointRun::complete((ctx.point, p)))
                },
            );
            assert_eq!(outcomes.len(), 6);
            for (i, outcome) in outcomes.iter().enumerate() {
                if i == 3 {
                    let PointOutcome::ScriptFault { script_id, error, fuel_used, point } = outcome else {
                        panic!("point 3 must be a script fault, got {outcome:?}");
                    };
                    assert_eq!(script_id, "bomb.flua");
                    assert_eq!(error, "script exceeded its fuel budget");
                    assert_eq!(*fuel_used, 20_000);
                    assert_eq!(*point, 3);
                    assert!(outcome.run().is_none());
                } else {
                    assert_eq!(outcome.run().map(|r| r.result), Some((i, i as u32)));
                }
            }
            assert_eq!(tries[3].load(Ordering::SeqCst), 1, "no retry burned on a script fault");
        }
    }

    #[test]
    fn supervisor_watchdog_reflects_limits() {
        let s = SweepSupervisor { event_budget: Some(100), deadline_ms: Some(5), ..Default::default() };
        assert_eq!(s.watchdog(), Watchdog { max_events: Some(100), deadline_ms: Some(5) });
        assert_eq!(SweepSupervisor::default().watchdog(), Watchdog::UNLIMITED);
        assert_eq!(Truncation::from_stop(StopReason::Completed), None);
        assert_eq!(Truncation::from_stop(StopReason::EventBudget), Some(Truncation::EventBudget));
        assert_eq!(Truncation::EventBudget.label(), "event_budget");
        assert_eq!(Truncation::HostDeadline.label(), "host_deadline");
    }

    #[test]
    fn thread_env_override_is_respected() {
        // Not set in the test environment by default; the parse path is what
        // matters, so exercise it directly.
        assert_eq!("3".trim().parse::<usize>().unwrap_or(1).max(1), 3);
        assert_eq!("bogus".trim().parse::<usize>().unwrap_or(1).max(1), 1);
        assert_eq!("0".trim().parse::<usize>().unwrap_or(1).max(1), 1);
        assert!(threads_from_env() >= 1);
    }
}
