//! The discrete-event scheduler.
//!
//! A [`Sim<W>`] owns the clock, the pending-event queue, the rng, the trace
//! log, and the metric registry. The *world* `W` (hosts, networks, PLCs, …)
//! is owned by the caller and threaded through every step, which keeps the
//! kernel generic and keeps borrows simple: when an event fires, its action
//! receives `(&mut W, &mut Sim<W>)` and may freely schedule follow-up events.
//!
//! Ordering is total and deterministic: events fire in `(time, sequence)`
//! order, where sequence is assignment order. Two events scheduled for the
//! same instant therefore fire in the order they were scheduled.
//!
//! The pending-event store ([`crate::queue::EventQueue`]) maps each pending
//! timestamp to a FIFO chain of its events, over generational slab storage:
//! cancel is O(1), `(time, seq)` order is structural rather than
//! comparator-driven, and a batch of same-timestamp events drains and
//! re-arms at O(1) per event.

use std::collections::BTreeMap;
use std::fmt;

use crate::fault::FaultPlane;
use crate::ids::SlotRef;
use crate::invariant::{InvariantChecker, InvariantViolation, LawCx};
use crate::metrics::{Histogram, Metrics};
use crate::queue::{EventQueue, QueueStats};
use crate::rng::SimRng;
use crate::span::{SpanId, SpanLog};
use crate::telemetry::{self, TelemetryHook};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceCategory, TraceLog};

/// An event action: invoked once with the world and the scheduler.
pub type Action<W> = Box<dyn FnOnce(&mut W, &mut Sim<W>)>;

/// Handle identifying a scheduled event, usable for cancellation.
///
/// A handle is a generational slot reference: once its event has fired or
/// been cancelled, the handle is stale, and [`Sim::cancel`] through it
/// returns `false` even after the underlying slot is reused by a later
/// event. A handle from [`Sim::schedule_every`] pins its slot and therefore
/// stays valid — and cancellable — across every re-arm of the repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(SlotRef);

/// Deterministic discrete-event simulation core.
///
/// # Examples
///
/// ```
/// use malsim_kernel::sched::Sim;
/// use malsim_kernel::time::{SimDuration, SimTime};
///
/// let mut sim: Sim<Vec<&str>> = Sim::new(SimTime::EPOCH, 42);
/// let mut world = Vec::new();
/// sim.schedule_in(SimDuration::from_secs(1), |w: &mut Vec<&str>, _| w.push("one"));
/// sim.schedule_in(SimDuration::from_secs(2), |w: &mut Vec<&str>, _| w.push("two"));
/// sim.run(&mut world);
/// assert_eq!(world, vec!["one", "two"]);
/// ```
pub struct Sim<W> {
    now: SimTime,
    queue: EventQueue<Action<W>>,
    executed: u64,
    profiler: Option<Profiler>,
    checker: Option<Box<InvariantChecker<W>>>,
    /// The process-wide telemetry hook, captured at construction (see
    /// [`crate::telemetry`]); `None` in processes that never install one.
    telemetry: Option<&'static dyn TelemetryHook>,
    /// Queue-stats watermark of the last hook flush, so each `run*` call
    /// reports only the delta it produced.
    tele_flushed: QueueStats,
    dispatch_cat: Option<TraceCategory>,
    /// Deterministic random source for the run.
    pub rng: SimRng,
    /// Structured event trace.
    pub trace: TraceLog,
    /// Causal span store; ids are allocated in dispatch order, so they are
    /// deterministic for a given seed regardless of sweep thread count.
    pub spans: SpanLog,
    /// Metric registry.
    pub metrics: Metrics,
    /// Deterministic fault-injection schedule (empty by default).
    ///
    /// Draws stochastic faults from a stream forked off the run seed with
    /// the label `"fault-plane"`, so scheduling faults never perturbs
    /// [`Sim::rng`] and an empty schedule is observationally free.
    pub faults: FaultPlane,
}

impl<W> fmt::Debug for Sim<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl<W> Sim<W> {
    /// Creates a scheduler starting at `start` with the given rng seed.
    pub fn new(start: SimTime, seed: u64) -> Self {
        Sim {
            now: start,
            queue: EventQueue::new(),
            executed: 0,
            profiler: None,
            checker: None,
            telemetry: telemetry::installed(),
            tele_flushed: QueueStats::default(),
            dispatch_cat: None,
            rng: SimRng::seed_from(seed),
            trace: TraceLog::new(),
            spans: SpanLog::new(),
            metrics: Metrics::new(),
            faults: FaultPlane::new(SimRng::seed_from(seed).fork("fault-plane")),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including cancelled, not yet reaped).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `action` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to *now*: the event fires at the
    /// current instant, after already-queued events for that instant.
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F) -> EventHandle
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        let time = at.max(self.now);
        EventHandle(self.queue.insert(time, Box::new(action)))
    }

    /// Schedules `action` after a delay from now.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, action: F) -> EventHandle
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        self.schedule_at(self.now + delay, action)
    }

    /// Cancels a previously scheduled event: an O(1) generational slot
    /// invalidation, no queue search.
    ///
    /// Returns `true` exactly when this call stopped a future firing: the
    /// event was still pending, or it is a repeating event (whose handle
    /// stays live across re-arms — cancelling from inside its own action
    /// suppresses the pending re-arm and also returns `true`). A handle
    /// whose event already fired or was already cancelled returns `false`.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle.0)
    }

    /// Schedules a repeating action every `period`, starting one period from
    /// now, until `action` returns `false`.
    ///
    /// The returned handle pins one queue slot for the whole repetition, so
    /// it cancels the repeating event no matter how many periods have
    /// elapsed.
    pub fn schedule_every<F>(&mut self, period: SimDuration, action: F) -> EventHandle
    where
        F: FnMut(&mut W, &mut Sim<W>) -> bool + 'static,
    {
        assert!(!period.is_zero(), "repeating events require a non-zero period");
        fn rearm<W>(
            slot: SlotRef,
            period: SimDuration,
            mut action: impl FnMut(&mut W, &mut Sim<W>) -> bool + 'static,
        ) -> Action<W> {
            Box::new(move |w, sim| {
                if action(w, sim) {
                    let next = rearm(slot, period, action);
                    let time = sim.now + period;
                    // No-op if the handle was cancelled during this dispatch.
                    sim.queue.rearm(slot, time, next);
                } else {
                    sim.queue.release(slot);
                }
            })
        }
        let slot = self.queue.reserve();
        let time = self.now + period;
        let armed = self.queue.rearm(slot, time, rearm(slot, period, action));
        debug_assert!(armed, "a fresh reservation cannot already be cancelled");
        EventHandle(slot)
    }

    /// Executes the next pending event, advancing the clock to it.
    ///
    /// Returns `false` when the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        let Some((time, action)) = self.queue.pop() else { return false };
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.executed += 1;
        if self.profiler.is_some() {
            self.dispatch_profiled(world, action);
        } else if let Some(hook) = self.telemetry {
            let depth = self.queue.len();
            self.dispatch_cat = None;
            action(world, self);
            hook.dispatch(self.dispatch_cat.take(), depth);
        } else {
            action(world, self);
        }
        if self.checker.is_some() {
            self.run_invariants(world);
        }
        true
    }

    /// Post-dispatch invariant sweep: the checker is moved out for the call
    /// so the laws can borrow the scheduler's spans and faults immutably.
    fn run_invariants(&mut self, world: &W) {
        let Some(mut checker) = self.checker.take() else { return };
        let cx = LawCx { now: self.now, spans: &self.spans, faults: &self.faults };
        checker.check(world, &cx);
        self.checker = Some(checker);
    }

    /// Dispatch with the probe armed: time the action on the host clock and
    /// attribute it to the first trace category it touches.
    fn dispatch_profiled(&mut self, world: &mut W, action: Action<W>) {
        let depth = self.queue.len();
        self.dispatch_cat = None;
        let started = std::time::Instant::now();
        action(world, self);
        let nanos = started.elapsed().as_nanos() as u64;
        let cat = self.dispatch_cat.take();
        if let Some(hook) = self.telemetry {
            hook.dispatch(cat, depth);
        }
        if let Some(p) = self.profiler.as_mut() {
            p.note(cat.map(TraceCategory::name), nanos, depth);
        }
    }

    /// Runs until the queue drains.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
        self.flush_queue_stats();
    }

    /// Reports the queue's structural-counter delta since the last flush to
    /// the telemetry hook. Called at the end of every `run*` entry point;
    /// callers driving [`Sim::step`] by hand are not flushed (their counters
    /// are still readable via [`Sim::queue_stats`]).
    fn flush_queue_stats(&mut self) {
        if let Some(hook) = self.telemetry {
            let now = self.queue.stats();
            hook.queue_stats(QueueStats {
                tombstone_reaps: now.tombstone_reaps - self.tele_flushed.tombstone_reaps,
            });
            self.tele_flushed = now;
        }
    }

    /// Runs events with `time <= until`, then sets the clock to `until`.
    ///
    /// Later events remain queued, so the run can be resumed.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) {
        self.run_until_watched(world, until, Watchdog::UNLIMITED);
    }

    /// [`Sim::run_until`] under a [`Watchdog`]: stops early once the event
    /// budget is spent or the host-clock deadline passes, reporting why.
    ///
    /// Cancellation is graceful: on truncation the clock stays at the last
    /// dispatched event and later events remain queued, so the caller can
    /// still read a (partial but consistent) world, emit a report tagged as
    /// truncated, or even resume. Only a `Completed` run advances the clock
    /// to `until`.
    ///
    /// The event budget is deterministic — the same `(seed, budget)` always
    /// truncates at the same event. The host deadline is wall-clock and
    /// therefore *not* deterministic; use it as a safety net, never in runs
    /// whose outputs are compared byte-for-byte.
    pub fn run_until_watched(&mut self, world: &mut W, until: SimTime, watchdog: Watchdog) -> WatchedRun {
        let budget = watchdog.max_events.unwrap_or(u64::MAX);
        let deadline =
            watchdog.deadline_ms.map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        let mut executed = 0u64;
        loop {
            // `peek_time` reaps cancelled events in passing, so a tombstone
            // never counts against the budget.
            match self.queue.peek_time() {
                Some(t) if t <= until => {
                    // Limits are checked only once another event is actually
                    // due, so an exactly-drained queue still reads Completed.
                    if executed >= budget {
                        self.flush_queue_stats();
                        return WatchedRun { reason: StopReason::EventBudget, executed };
                    }
                    if let Some(d) = deadline {
                        // Sampled every 256 dispatches: cheap, and plenty for
                        // a deadline meant to catch runaway points, not to
                        // time them.
                        if executed.is_multiple_of(256) && std::time::Instant::now() >= d {
                            self.flush_queue_stats();
                            return WatchedRun { reason: StopReason::HostDeadline, executed };
                        }
                    }
                    self.step(world);
                    executed += 1;
                }
                _ => break,
            }
        }
        self.now = self.now.max(until);
        self.flush_queue_stats();
        WatchedRun { reason: StopReason::Completed, executed }
    }

    /// Records a trace event stamped with the current time.
    pub fn record(&mut self, category: TraceCategory, actor: impl Into<String>, message: impl Into<String>) {
        self.note_dispatch(category);
        let now = self.now;
        self.trace.record(now, category, actor, message);
    }

    /// Records a trace event attached to a causal span.
    pub fn record_in(
        &mut self,
        span: SpanId,
        category: TraceCategory,
        actor: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.note_dispatch(category);
        let now = self.now;
        self.trace.record_in(now, category, actor, message, Some(span));
    }

    /// Opens a root causal span starting now.
    pub fn open_span(
        &mut self,
        category: TraceCategory,
        actor: impl Into<String>,
        name: impl Into<String>,
    ) -> SpanId {
        self.note_dispatch(category);
        let now = self.now;
        self.spans.open(now, category, actor, name, None)
    }

    /// Opens a causal span starting now, downstream of `parent`.
    pub fn open_child_span(
        &mut self,
        parent: SpanId,
        category: TraceCategory,
        actor: impl Into<String>,
        name: impl Into<String>,
    ) -> SpanId {
        self.note_dispatch(category);
        let now = self.now;
        self.spans.open(now, category, actor, name, Some(parent))
    }

    /// Closes a span at the current time.
    pub fn close_span(&mut self, span: SpanId) {
        let now = self.now;
        self.spans.close(span, now);
    }

    /// Attaches a key-value attribute to a span.
    pub fn span_attr(&mut self, span: SpanId, key: impl Into<String>, value: impl Into<String>) {
        self.spans.set_attr(span, key, value);
    }

    fn note_dispatch(&mut self, category: TraceCategory) {
        if self.dispatch_cat.is_none() && (self.profiler.is_some() || self.telemetry.is_some()) {
            self.dispatch_cat = Some(category);
        }
    }

    /// Snapshot of the pending-event queue's structural counters (tombstone
    /// reaps). Always on — they are plain field increments — and fully
    /// deterministic.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Arms the scheduler profiling probe. Until [`Sim::finish_profile`] is
    /// called, every dispatched event is timed on the host clock, counted per
    /// trace category, and the pre-dispatch queue depth is sampled.
    ///
    /// The probe is entirely off by default: the unprofiled dispatch path
    /// performs no timing, no map lookups, and no extra branches beyond one
    /// `Option` check.
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(Profiler::default());
    }

    /// Whether the profiling probe is armed.
    pub fn is_profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// Disarms the probe and returns the summary. It leaves [`Sim::metrics`]
    /// untouched: the summary is the probe's only output.
    ///
    /// Host-clock timings are wall-time measurements and therefore *not*
    /// deterministic; they live only in the summary, never in the trace,
    /// spans, or exports.
    pub fn finish_profile(&mut self) -> Option<ProfileSummary> {
        let profiler = self.profiler.take()?;
        let mut rows = Vec::new();
        let mut total_events = 0u64;
        let mut total_nanos = 0u64;
        for (category, stat) in &profiler.per_cat {
            rows.push(ProfileRow {
                category: category.to_string(),
                events: stat.count,
                host_ms: stat.nanos as f64 / 1e6,
            });
            total_events += stat.count;
            total_nanos += stat.nanos;
        }
        let mut queue_depth = profiler.queue_depth;
        Some(ProfileSummary {
            rows,
            total_events,
            total_host_ms: total_nanos as f64 / 1e6,
            queue_p50: queue_depth.quantile(0.50),
            queue_p95: queue_depth.quantile(0.95),
            queue_p99: queue_depth.quantile(0.99),
            queue_max: queue_depth.quantile(1.0),
        })
    }

    /// Arms the runtime invariant checker, replacing any previously armed one.
    ///
    /// After every dispatched event the checker asserts the kernel laws
    /// (sim-time monotonicity, span causality, fault-window well-formedness)
    /// plus any world laws registered via [`Sim::add_invariant`]. In `strict`
    /// mode the first violation panics with a rendered report; otherwise
    /// violations accumulate and are drained with [`Sim::take_violations`].
    ///
    /// Like profiling, the checker is entirely off by default: the unchecked
    /// dispatch path performs a single `Option` branch and nothing else.
    pub fn enable_invariants(&mut self, strict: bool) {
        self.checker = Some(Box::new(InvariantChecker::new(strict)));
    }

    /// Registers a world-level law on the armed checker.
    ///
    /// The law returns `Err(detail)` to flag a violation; `name` identifies
    /// it in reports. No-op unless [`Sim::enable_invariants`] was called.
    pub fn add_invariant<F>(&mut self, name: &'static str, law: F)
    where
        F: Fn(&W, &LawCx<'_>) -> Result<(), String> + 'static,
    {
        if let Some(checker) = self.checker.as_mut() {
            checker.add_law(name, law);
        }
    }

    /// Drains accumulated invariant violations, leaving the checker armed.
    ///
    /// Returns an empty vector when the checker is disarmed or clean.
    pub fn take_violations(&mut self) -> Vec<InvariantViolation> {
        self.checker.as_mut().map_or_else(Vec::new, |c| c.take_violations())
    }

    /// Whether the invariant checker is armed.
    pub fn is_checking_invariants(&self) -> bool {
        self.checker.is_some()
    }
}

/// The armed scheduler probe: per-category dispatch tallies plus a queue-depth
/// histogram, accumulated by [`Sim::step`].
#[derive(Debug, Clone, Default)]
struct Profiler {
    per_cat: BTreeMap<&'static str, CatStat>,
    queue_depth: Histogram,
}

#[derive(Debug, Clone, Copy, Default)]
struct CatStat {
    count: u64,
    nanos: u64,
}

impl Profiler {
    fn note(&mut self, category: Option<&'static str>, nanos: u64, depth: usize) {
        let stat = self.per_cat.entry(category.unwrap_or("(untraced)")).or_default();
        stat.count += 1;
        stat.nanos += nanos;
        self.queue_depth.observe(depth as f64);
    }
}

/// One row of a [`ProfileSummary`]: all dispatches attributed to a category.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Trace-category name, or `"(untraced)"` for events that recorded nothing.
    pub category: String,
    /// Number of dispatched events.
    pub events: u64,
    /// Total host wall-clock time spent inside those events, in milliseconds.
    pub host_ms: f64,
}

/// Scheduler profile of one run, produced by [`Sim::finish_profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSummary {
    /// Per-category rows, sorted by category name.
    pub rows: Vec<ProfileRow>,
    /// Total dispatched events.
    pub total_events: u64,
    /// Total host wall-clock milliseconds across all dispatches.
    pub total_host_ms: f64,
    /// Median pre-dispatch queue depth.
    pub queue_p50: f64,
    /// 95th-percentile pre-dispatch queue depth.
    pub queue_p95: f64,
    /// 99th-percentile pre-dispatch queue depth.
    pub queue_p99: f64,
    /// Largest observed queue depth.
    pub queue_max: f64,
}

impl ProfileSummary {
    /// Renders the profile as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("category      events   host ms   avg µs\n");
        for row in &self.rows {
            let avg_us = if row.events == 0 { 0.0 } else { row.host_ms * 1e3 / row.events as f64 };
            out.push_str(&format!(
                "{:<12}  {:>6}  {:>8.2}  {:>7.2}\n",
                row.category, row.events, row.host_ms, avg_us
            ));
        }
        out.push_str(&format!("{:<12}  {:>6}  {:>8.2}\n", "total", self.total_events, self.total_host_ms));
        out.push_str(&format!(
            "queue depth: p50 {:.0}, p95 {:.0}, p99 {:.0}, max {:.0}\n",
            self.queue_p50, self.queue_p95, self.queue_p99, self.queue_max
        ));
        out
    }
}

/// Run limits enforced by [`Sim::run_until_watched`].
///
/// `max_events` is a deterministic sim-side budget: the run stops before
/// dispatching event `max_events + 1`. `deadline_ms` is a host wall-clock
/// deadline measured from the start of the call; it is a nondeterministic
/// safety net for runaway points and must not gate byte-compared outputs.
/// `None` disables the respective limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Watchdog {
    /// Maximum number of events to dispatch in this run, if any.
    pub max_events: Option<u64>,
    /// Host-clock deadline in milliseconds from the start of the run, if any.
    pub deadline_ms: Option<u64>,
}

impl Watchdog {
    /// No limits: [`Sim::run_until_watched`] behaves exactly like
    /// [`Sim::run_until`].
    pub const UNLIMITED: Watchdog = Watchdog { max_events: None, deadline_ms: None };

    /// A watchdog with only a deterministic event budget.
    pub const fn events(max_events: u64) -> Watchdog {
        Watchdog { max_events: Some(max_events), deadline_ms: None }
    }
}

/// Why a watched run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// All events up to `until` were dispatched; the clock advanced to `until`.
    Completed,
    /// The deterministic event budget was exhausted first.
    EventBudget,
    /// The host-clock deadline passed first.
    HostDeadline,
}

/// Outcome of one [`Sim::run_until_watched`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchedRun {
    /// Why the run stopped.
    pub reason: StopReason,
    /// Events dispatched during this call.
    pub executed: u64,
}

impl WatchedRun {
    /// Whether the run finished without tripping a watchdog limit.
    pub fn completed(&self) -> bool {
        self.reason == StopReason::Completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type World = Vec<u32>;

    fn sim() -> Sim<World> {
        Sim::new(SimTime::EPOCH, 1)
    }

    #[test]
    fn fires_in_time_order() {
        let mut s = sim();
        let mut w = Vec::new();
        s.schedule_in(SimDuration::from_secs(3), |w: &mut World, _| w.push(3));
        s.schedule_in(SimDuration::from_secs(1), |w: &mut World, _| w.push(1));
        s.schedule_in(SimDuration::from_secs(2), |w: &mut World, _| w.push(2));
        s.run(&mut w);
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(s.executed(), 3);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut s = sim();
        let mut w = Vec::new();
        let t = SimTime::EPOCH + SimDuration::from_secs(5);
        for i in 0..10 {
            s.schedule_at(t, move |w: &mut World, _| w.push(i));
        }
        s.run(&mut w);
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_works() {
        let mut s = sim();
        let mut w = Vec::new();
        s.schedule_in(SimDuration::from_secs(1), |w: &mut World, sim| {
            w.push(1);
            sim.schedule_in(SimDuration::from_secs(1), |w: &mut World, _| w.push(2));
        });
        s.run(&mut w);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(s.now(), SimTime::EPOCH + SimDuration::from_secs(2));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut s = sim();
        let mut w = Vec::new();
        s.schedule_in(SimDuration::from_secs(10), |w: &mut World, sim| {
            w.push(1);
            sim.schedule_at(SimTime::EPOCH, |w: &mut World, _| w.push(2));
        });
        s.run(&mut w);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(s.now(), SimTime::EPOCH + SimDuration::from_secs(10));
    }

    #[test]
    fn cancellation() {
        let mut s = sim();
        let mut w = Vec::new();
        let h = s.schedule_in(SimDuration::from_secs(1), |w: &mut World, _| w.push(1));
        s.schedule_in(SimDuration::from_secs(2), |w: &mut World, _| w.push(2));
        assert!(s.cancel(h));
        assert!(!s.cancel(h), "double-cancel reports false");
        s.run(&mut w);
        assert_eq!(w, vec![2]);
    }

    #[test]
    fn fired_handle_does_not_cancel_a_slot_reuser() {
        let mut s = sim();
        let mut w = Vec::new();
        let h = s.schedule_in(SimDuration::from_secs(1), |w: &mut World, _| w.push(1));
        s.run(&mut w);
        assert!(!s.cancel(h), "fired handle reports false");
        // The next event reuses the freed slot; the stale handle must not
        // reach it through a bumped generation.
        let h2 = s.schedule_in(SimDuration::from_secs(1), |w: &mut World, _| w.push(2));
        assert!(!s.cancel(h), "stale handle stays dead after slot reuse");
        s.run(&mut w);
        assert_eq!(w, vec![1, 2]);
        assert!(!s.cancel(h2));
    }

    #[test]
    fn repeating_handle_cancels_across_periods() {
        let mut s = sim();
        let mut w = Vec::new();
        let h = s.schedule_every(SimDuration::from_secs(10), |w: &mut World, _| {
            w.push(w.len() as u32);
            true // would repeat forever
        });
        s.run_until(&mut w, SimTime::EPOCH + SimDuration::from_secs(35));
        assert_eq!(w, vec![0, 1, 2], "three periods elapsed");
        assert!(s.cancel(h), "handle is still live after re-arms");
        s.run_until(&mut w, SimTime::EPOCH + SimDuration::from_secs(200));
        assert_eq!(w, vec![0, 1, 2], "no firings after cancellation");
        assert!(!s.cancel(h), "cancel is idempotent on the repeating handle");
    }

    #[test]
    fn repeating_event_can_cancel_itself_mid_dispatch() {
        let mut s = sim();
        let mut w = Vec::new();
        let handle_cell = std::rc::Rc::new(std::cell::Cell::new(None::<EventHandle>));
        let cell = handle_cell.clone();
        let h = s.schedule_every(SimDuration::from_secs(1), move |w: &mut World, sim| {
            w.push(w.len() as u32);
            if w.len() == 2 {
                let own = cell.get().expect("handle stored before run");
                assert!(sim.cancel(own), "self-cancel mid-dispatch suppresses the re-arm");
            }
            true // says "keep going", but the self-cancel wins
        });
        handle_cell.set(Some(h));
        s.run(&mut w);
        assert_eq!(w, vec![0, 1], "no firings after the self-cancel");
        assert!(!s.cancel(h));
    }

    #[test]
    fn run_until_stops_and_resumes() {
        let mut s = sim();
        let mut w = Vec::new();
        for sec in 1..=5 {
            s.schedule_in(SimDuration::from_secs(sec), move |w: &mut World, _| w.push(sec as u32));
        }
        s.run_until(&mut w, SimTime::EPOCH + SimDuration::from_secs(3));
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(s.now(), SimTime::EPOCH + SimDuration::from_secs(3));
        s.run(&mut w);
        assert_eq!(w, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        let mut s = sim();
        let mut w = Vec::new();
        s.run_until(&mut w, SimTime::EPOCH + SimDuration::from_hours(4));
        assert_eq!(s.now(), SimTime::EPOCH + SimDuration::from_hours(4));
    }

    #[test]
    fn repeating_event_until_false() {
        let mut s = sim();
        let mut w = Vec::new();
        s.schedule_every(SimDuration::from_secs(10), |w: &mut World, _| {
            w.push(w.len() as u32);
            w.len() < 4
        });
        s.run(&mut w);
        assert_eq!(w, vec![0, 1, 2, 3]);
        assert_eq!(s.now(), SimTime::EPOCH + SimDuration::from_secs(40));
    }

    #[test]
    fn cancel_repeating_before_first_fire() {
        let mut s = sim();
        let mut w = Vec::new();
        let h = s.schedule_every(SimDuration::from_secs(1), |w: &mut World, _| {
            w.push(0);
            true
        });
        s.schedule_in(SimDuration::from_secs(5), |_w, _s| {});
        assert!(s.cancel(h));
        s.run(&mut w);
        assert!(w.is_empty());
    }

    #[test]
    fn trace_recording_uses_sim_clock() {
        let mut s = sim();
        let mut w = Vec::new();
        s.schedule_in(SimDuration::from_secs(7), |_w, sim| {
            sim.record(TraceCategory::Scenario, "test", "fired");
        });
        s.run(&mut w);
        let e = s.trace.first_of(TraceCategory::Scenario).unwrap();
        assert_eq!(e.time, SimTime::EPOCH + SimDuration::from_secs(7));
    }

    #[test]
    fn spans_use_sim_clock_and_link() {
        let mut s = sim();
        let mut w = Vec::new();
        s.schedule_in(SimDuration::from_secs(3), |_w, sim| {
            let root = sim.open_span(TraceCategory::Infection, "host:a", "infection");
            sim.record_in(root, TraceCategory::Infection, "host:a", "compromised");
            let child = sim.open_child_span(root, TraceCategory::CommandControl, "host:a", "beacon");
            sim.close_span(child);
            sim.span_attr(root, "vector", "usb");
        });
        s.run(&mut w);
        let spans = s.spans.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start, SimTime::EPOCH + SimDuration::from_secs(3));
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].end, Some(spans[1].start), "closed at the same instant");
        assert_eq!(spans[0].attr("vector"), Some("usb"));
        let e = s.trace.first_of(TraceCategory::Infection).unwrap();
        assert_eq!(e.span, Some(spans[0].id));
    }

    #[test]
    fn profiler_counts_by_category() {
        let mut s = sim();
        let mut w = Vec::new();
        s.enable_profiling();
        assert!(s.is_profiling());
        s.schedule_in(SimDuration::from_secs(1), |_w, sim| {
            sim.record(TraceCategory::Net, "host:a", "dns lookup");
            sim.record(TraceCategory::Os, "host:a", "file drop"); // attribution goes to the first
        });
        s.schedule_in(SimDuration::from_secs(2), |_w, sim| {
            sim.record(TraceCategory::Net, "host:b", "http get");
        });
        s.schedule_in(SimDuration::from_secs(3), |_w, _sim| {}); // untraced
        s.run(&mut w);
        s.metrics.incr("handler.count");
        let before = s.metrics.to_string();
        let summary = s.finish_profile().expect("probe was armed");
        assert_eq!(s.metrics.to_string(), before, "the summary is the probe's only output");
        assert!(!s.is_profiling(), "finish disarms");
        assert_eq!(s.finish_profile(), None, "second finish yields nothing");
        assert_eq!(summary.total_events, 3);
        let events: Vec<(&str, u64)> = summary.rows.iter().map(|r| (r.category.as_str(), r.events)).collect();
        assert_eq!(events, vec![("(untraced)", 1), ("net", 2)]);
        assert_eq!(
            (summary.queue_p50, summary.queue_max),
            (1.0, 2.0),
            "2, 1, 0 events left at each dispatch"
        );
        let table = summary.render();
        assert!(table.contains("net"));
        assert!(table.contains("queue depth"));
    }

    #[test]
    fn unprofiled_run_records_no_probe_metrics() {
        let mut s = sim();
        let mut w = Vec::new();
        s.schedule_in(SimDuration::from_secs(1), |_w, sim| {
            sim.record(TraceCategory::Net, "host:a", "dns lookup");
        });
        s.run(&mut w);
        assert_eq!(s.finish_profile(), None, "no summary rows without the probe");
        assert_eq!(s.metrics.to_string(), "");
    }

    #[test]
    fn profiling_does_not_perturb_simulation_state() {
        fn run(profile: bool) -> (Vec<u32>, u64) {
            let mut s: Sim<World> = Sim::new(SimTime::EPOCH, 7);
            if profile {
                s.enable_profiling();
            }
            let mut w = Vec::new();
            for _ in 0..20 {
                let d = SimDuration::from_millis(s.rng.range(1..1000u64));
                s.schedule_in(d, |w: &mut World, sim| {
                    let v = sim.rng.range(0..100u32);
                    sim.record(TraceCategory::Scenario, "t", "tick");
                    let span = sim.open_span(TraceCategory::Scenario, "t", "tick");
                    sim.close_span(span);
                    w.push(v);
                });
            }
            s.run(&mut w);
            (w, s.spans.spans().last().unwrap().id.as_u64())
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn deterministic_with_rng_interleaving() {
        fn run(seed: u64) -> Vec<u32> {
            let mut s: Sim<World> = Sim::new(SimTime::EPOCH, seed);
            let mut w = Vec::new();
            for _ in 0..20 {
                let d = SimDuration::from_millis(s.rng.range(1..1000u64));
                s.schedule_in(d, |w: &mut World, sim| {
                    let v = sim.rng.range(0..100u32);
                    w.push(v);
                });
            }
            s.run(&mut w);
            w
        }
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn watched_run_stops_on_event_budget() {
        let mut s = sim();
        let mut w = Vec::new();
        for i in 0..10u32 {
            s.schedule_in(SimDuration::from_secs(i as u64 + 1), move |w: &mut World, _| w.push(i));
        }
        let until = SimTime::EPOCH + SimDuration::from_secs(100);
        let run = s.run_until_watched(&mut w, until, Watchdog::events(4));
        assert_eq!(run, WatchedRun { reason: StopReason::EventBudget, executed: 4 });
        assert!(!run.completed());
        assert_eq!(w, vec![0, 1, 2, 3]);
        // Truncation leaves the clock at the last dispatched event and keeps
        // the rest queued, so the run can be resumed to completion.
        assert_eq!(s.now(), SimTime::EPOCH + SimDuration::from_secs(4));
        assert_eq!(s.pending(), 6);
        let resumed = s.run_until_watched(&mut w, until, Watchdog::UNLIMITED);
        assert_eq!(resumed, WatchedRun { reason: StopReason::Completed, executed: 6 });
        assert_eq!(w, (0..10).collect::<Vec<_>>());
        assert_eq!(s.now(), until);
    }

    #[test]
    fn unlimited_watchdog_matches_run_until() {
        fn world(watched: bool) -> (World, SimTime) {
            let mut s = sim();
            let mut w = Vec::new();
            for _ in 0..50 {
                let d = SimDuration::from_millis(s.rng.range(1..500u64));
                s.schedule_in(d, |w: &mut World, sim| w.push(sim.rng.range(0..100u32)));
            }
            let until = SimTime::EPOCH + SimDuration::from_millis(400);
            if watched {
                let run = s.run_until_watched(&mut w, until, Watchdog::UNLIMITED);
                assert!(run.completed());
            } else {
                s.run_until(&mut w, until);
            }
            (w, s.now())
        }
        assert_eq!(world(true), world(false));
    }

    #[test]
    fn host_deadline_in_the_past_stops_immediately() {
        let mut s = sim();
        let mut w = Vec::new();
        s.schedule_in(SimDuration::from_secs(1), |w: &mut World, _| w.push(1));
        let watchdog = Watchdog { max_events: None, deadline_ms: Some(0) };
        let run = s.run_until_watched(&mut w, SimTime::EPOCH + SimDuration::from_secs(10), watchdog);
        assert_eq!(run.reason, StopReason::HostDeadline);
        assert_eq!(run.executed, 0);
        assert!(w.is_empty(), "deadline trip dispatches nothing further");
    }

    #[test]
    fn invariant_hook_does_not_perturb_simulation() {
        fn run(check: bool) -> World {
            let mut s = sim();
            if check {
                s.enable_invariants(false);
            }
            let mut w = Vec::new();
            for _ in 0..20 {
                let d = SimDuration::from_millis(s.rng.range(1..1000u64));
                s.schedule_in(d, |w: &mut World, sim| w.push(sim.rng.range(0..100u32)));
            }
            s.run(&mut w);
            w
        }
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn sim_surfaces_world_law_violations() {
        let mut s = sim();
        s.enable_invariants(false);
        assert!(s.is_checking_invariants());
        s.add_invariant("world-small", |w: &World, _cx| {
            if w.len() > 2 {
                Err(format!("{} entries, expected at most 2", w.len()))
            } else {
                Ok(())
            }
        });
        let mut w = Vec::new();
        for i in 0..4u32 {
            s.schedule_in(SimDuration::from_secs(i as u64 + 1), move |w: &mut World, _| w.push(i));
        }
        s.run(&mut w);
        let violations = s.take_violations();
        assert_eq!(violations.len(), 2, "third and fourth pushes each breach the law");
        assert_eq!(violations[0].law, "world-small");
        assert!(s.take_violations().is_empty(), "draining leaves the checker armed but clean");
        assert!(s.is_checking_invariants());
    }

    #[test]
    fn disarmed_sim_has_no_violations() {
        let mut s = sim();
        assert!(!s.is_checking_invariants());
        let mut w = Vec::new();
        s.schedule_in(SimDuration::from_secs(1), |w: &mut World, _| w.push(1));
        s.run(&mut w);
        assert!(s.take_violations().is_empty());
    }
}
