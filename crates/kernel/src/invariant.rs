//! Runtime invariant checker: cross-subsystem conservation laws, verified
//! after every dispatch.
//!
//! Long sweeps amplify small model bugs: a stale host id in an infection
//! registry or an exfiltration span with no infection root silently corrupts
//! thousands of downstream grid points before any headline number looks
//! wrong. The checker makes those laws *executable*. It is opt-in exactly
//! like the scheduler profiler —
//! [`Sim::enable_invariants`](crate::sched::Sim::enable_invariants) arms it,
//! and the unarmed dispatch path pays a single `Option` branch.
//!
//! Violations are collected as structured [`InvariantViolation`] values (or,
//! in strict mode, raised as panics the supervised sweep runner quarantines),
//! never as `debug_assert!`s: a release-mode soak run reports the same
//! breaches a debug run would.
//!
//! Kernel-level laws come built in and run incrementally (each span and
//! fault window is examined exactly once, at the first dispatch after its
//! creation):
//!
//! - **monotonic-time** — the clock observed after a dispatch never runs
//!   backwards.
//! - **span-causality** — every `Exfiltration` or `Destruction` span reaches
//!   an `Infection` root through its parent chain
//!   ([`SpanLog::has_ancestor_category`]). Vacuous when the span log is
//!   disabled (large benchmark sweeps retain nothing to check).
//! - **fault-windows** — every scheduled
//!   [`FaultWindow`](crate::fault::FaultWindow) is well-formed per
//!   [`FaultWindow::validate`](crate::fault::FaultWindow::validate).
//!
//! World-level laws (e.g. *infected ⊆ hosts*) are registered by the layer
//! that knows the world type, via
//! [`Sim::add_invariant`](crate::sched::Sim::add_invariant).

use std::fmt;

use crate::fault::FaultPlane;
use crate::span::SpanLog;
use crate::time::SimTime;
use crate::trace::TraceCategory;

/// One observed breach of a named law.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The law that failed, e.g. `"span-causality"`.
    pub law: &'static str,
    /// Simulation time of the dispatch that exposed the breach.
    pub at: SimTime,
    /// Human-readable account of what was wrong.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant '{}' violated at {}: {}", self.law, self.at, self.detail)
    }
}

impl std::error::Error for InvariantViolation {}

/// Read-only kernel context handed to every world law.
pub struct LawCx<'a> {
    /// Simulation time of the just-finished dispatch.
    pub now: SimTime,
    /// The causal span store.
    pub spans: &'a SpanLog,
    /// The fault schedule.
    pub faults: &'a FaultPlane,
}

/// A registered world law: inspects the world plus the kernel context and
/// returns a violation detail on breach.
pub type WorldLaw<W> = Box<dyn Fn(&W, &LawCx<'_>) -> Result<(), String>>;

/// Retention cap on collected violations; a hopelessly broken run reports
/// the first breaches and a drop count instead of ballooning.
const MAX_VIOLATIONS: usize = 64;

/// The armed checker owned by [`Sim`](crate::sched::Sim).
///
/// # Examples
///
/// ```
/// use malsim_kernel::invariant::InvariantChecker;
/// use malsim_kernel::sched::Sim;
/// use malsim_kernel::time::{SimDuration, SimTime};
/// use malsim_kernel::trace::TraceCategory;
///
/// let mut sim: Sim<u32> = Sim::new(SimTime::EPOCH, 1);
/// sim.enable_invariants(false);
/// sim.schedule_in(SimDuration::from_secs(1), |_w, sim| {
///     // A destruction with no infection root: the checker flags it.
///     sim.open_span(TraceCategory::Destruction, "host:a", "wipe");
/// });
/// sim.run(&mut 0);
/// let violations = sim.take_violations();
/// assert_eq!(violations.len(), 1);
/// assert_eq!(violations[0].law, "span-causality");
/// ```
pub struct InvariantChecker<W> {
    world_laws: Vec<(&'static str, WorldLaw<W>)>,
    strict: bool,
    last_now: Option<SimTime>,
    spans_checked: usize,
    windows_checked: usize,
    violations: Vec<InvariantViolation>,
    dropped: usize,
}

impl<W> fmt::Debug for InvariantChecker<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InvariantChecker")
            .field("world_laws", &self.world_laws.len())
            .field("strict", &self.strict)
            .field("violations", &self.violations.len())
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl<W> InvariantChecker<W> {
    /// Creates a checker with only the built-in kernel laws. In strict mode
    /// the first violation panics (so a supervised sweep quarantines the
    /// point); otherwise violations accumulate for
    /// [`take_violations`](Self::take_violations).
    pub fn new(strict: bool) -> Self {
        InvariantChecker {
            world_laws: Vec::new(),
            strict,
            last_now: None,
            spans_checked: 0,
            windows_checked: 0,
            violations: Vec::new(),
            dropped: 0,
        }
    }

    /// Registers a world-level law, run after every dispatch.
    pub fn add_law(
        &mut self,
        name: &'static str,
        law: impl Fn(&W, &LawCx<'_>) -> Result<(), String> + 'static,
    ) {
        self.world_laws.push((name, Box::new(law)));
    }

    /// Runs every law against the post-dispatch state. Called by
    /// [`Sim::step`](crate::sched::Sim::step) when armed.
    pub fn check(&mut self, world: &W, cx: &LawCx<'_>) {
        if let Some(prev) = self.last_now {
            if cx.now < prev {
                self.report("monotonic-time", cx.now, format!("clock ran backwards: {prev} -> {}", cx.now));
            }
        }
        self.last_now = Some(cx.now);

        // Each span is examined exactly once, at the first dispatch after its
        // creation. Parents have strictly smaller ids and spans are never
        // reparented, so a span's ancestry is final when it first appears.
        let spans = cx.spans.spans_from(self.spans_checked);
        for span in spans {
            let terminal = matches!(span.category, TraceCategory::Exfiltration | TraceCategory::Destruction);
            if terminal && !cx.spans.has_ancestor_category(span.id, TraceCategory::Infection) {
                self.report(
                    "span-causality",
                    cx.now,
                    format!(
                        "{} span {} '{}' ({}) has no Infection root",
                        span.category, span.id, span.name, span.actor
                    ),
                );
            }
        }
        self.spans_checked = cx.spans.len();

        let windows = &cx.faults.windows()[self.windows_checked.min(cx.faults.len())..];
        for window in windows {
            if let Err(e) = window.validate() {
                self.report("fault-windows", cx.now, e.to_string());
            }
        }
        self.windows_checked = cx.faults.len();

        for i in 0..self.world_laws.len() {
            if let Err(detail) = (self.world_laws[i].1)(world, cx) {
                let law = self.world_laws[i].0;
                self.report(law, cx.now, detail);
            }
        }
    }

    fn report(&mut self, law: &'static str, at: SimTime, detail: String) {
        let violation = InvariantViolation { law, at, detail };
        if self.strict {
            panic!("{violation}");
        }
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(violation);
        } else {
            self.dropped += 1;
        }
    }

    /// Violations collected so far (strict mode never accumulates any).
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Number of violations dropped past the retention cap.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Drains the collected violations, leaving the checker armed.
    pub fn take_violations(&mut self) -> Vec<InvariantViolation> {
        std::mem::take(&mut self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    fn cx<'a>(now: SimTime, spans: &'a SpanLog, faults: &'a FaultPlane) -> LawCx<'a> {
        LawCx { now, spans, faults }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn clean_state_reports_nothing() {
        let mut checker: InvariantChecker<u32> = InvariantChecker::new(false);
        let mut spans = SpanLog::new();
        let root = spans.open(t(0), TraceCategory::Infection, "h", "infect", None);
        spans.open(t(1), TraceCategory::Exfiltration, "h", "upload", Some(root));
        let faults = FaultPlane::new(SimRng::seed_from(1).fork("fault-plane"));
        checker.check(&0, &cx(t(1), &spans, &faults));
        assert!(checker.violations().is_empty());
    }

    #[test]
    fn orphan_terminal_span_is_flagged_once() {
        let mut checker: InvariantChecker<u32> = InvariantChecker::new(false);
        let mut spans = SpanLog::new();
        spans.open(t(0), TraceCategory::Destruction, "plant:x", "wipe", None);
        let faults = FaultPlane::new(SimRng::seed_from(1).fork("fault-plane"));
        checker.check(&0, &cx(t(0), &spans, &faults));
        checker.check(&0, &cx(t(1), &spans, &faults));
        let violations = checker.take_violations();
        assert_eq!(violations.len(), 1, "incremental cursor re-checks nothing");
        assert_eq!(violations[0].law, "span-causality");
        assert!(violations[0].detail.contains("no Infection root"), "{}", violations[0].detail);
    }

    #[test]
    fn inverted_fault_window_is_flagged() {
        let mut checker: InvariantChecker<u32> = InvariantChecker::new(false);
        let spans = SpanLog::new();
        let mut faults = FaultPlane::new(SimRng::seed_from(1).fork("fault-plane"));
        faults.schedule(crate::fault::FaultWindow {
            target: "zone:a".into(),
            kind: crate::fault::FaultKind::LinkDown,
            start: t(10),
            end: t(5),
        });
        checker.check(&0, &cx(t(0), &spans, &faults));
        let violations = checker.take_violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].law, "fault-windows");
    }

    #[test]
    fn clock_regression_is_flagged() {
        let mut checker: InvariantChecker<u32> = InvariantChecker::new(false);
        let spans = SpanLog::new();
        let faults = FaultPlane::new(SimRng::seed_from(1).fork("fault-plane"));
        checker.check(&0, &cx(t(10), &spans, &faults));
        checker.check(&0, &cx(t(5), &spans, &faults));
        let violations = checker.take_violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].law, "monotonic-time");
    }

    #[test]
    fn world_laws_see_the_world() {
        let mut checker: InvariantChecker<u32> = InvariantChecker::new(false);
        checker.add_law("non-negative", |w, _| if *w > 5 { Err(format!("{w} > 5")) } else { Ok(()) });
        let spans = SpanLog::new();
        let faults = FaultPlane::new(SimRng::seed_from(1).fork("fault-plane"));
        checker.check(&3, &cx(t(0), &spans, &faults));
        assert!(checker.violations().is_empty());
        checker.check(&9, &cx(t(1), &spans, &faults));
        assert_eq!(checker.violations().len(), 1);
        assert_eq!(checker.violations()[0].law, "non-negative");
    }

    #[test]
    #[should_panic(expected = "span-causality")]
    fn strict_mode_panics_on_violation() {
        let mut checker: InvariantChecker<u32> = InvariantChecker::new(true);
        let mut spans = SpanLog::new();
        spans.open(t(0), TraceCategory::Exfiltration, "h", "upload", None);
        let faults = FaultPlane::new(SimRng::seed_from(1).fork("fault-plane"));
        checker.check(&0, &cx(t(0), &spans, &faults));
    }

    #[test]
    fn violation_cap_counts_drops() {
        let mut checker: InvariantChecker<u32> = InvariantChecker::new(false);
        checker.add_law("always", |_, _| Err("broken".into()));
        let spans = SpanLog::new();
        let faults = FaultPlane::new(SimRng::seed_from(1).fork("fault-plane"));
        for i in 0..(MAX_VIOLATIONS as u64 + 10) {
            checker.check(&0, &cx(t(i), &spans, &faults));
        }
        assert_eq!(checker.violations().len(), MAX_VIOLATIONS);
        assert_eq!(checker.dropped(), 10);
    }

    #[test]
    fn display_names_law_and_time() {
        let v = InvariantViolation {
            law: "span-causality",
            at: t(0) + SimDuration::from_secs(1),
            detail: "x".into(),
        };
        let s = v.to_string();
        assert!(s.contains("span-causality"), "{s}");
        assert!(s.contains("violated at"), "{s}");
        let _: &dyn std::error::Error = &v;
    }
}
