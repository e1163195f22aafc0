//! Structured event trace.
//!
//! The trace is the simulation's forensic record: every subsystem appends
//! [`TraceEvent`]s, and experiments/analysis query it afterwards. It is also
//! what the paper-reproduction harness inspects to reconstruct campaign
//! timelines.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::span::SpanId;
use crate::time::SimTime;

/// Category of a trace event, used for filtering and counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TraceCategory {
    /// Host-level OS activity (file drops, service creation, driver loads).
    Os,
    /// Network traffic and protocol activity.
    Net,
    /// Infection lifecycle (initial compromise, lateral movement).
    Infection,
    /// Command-and-control traffic and server-side actions.
    CommandControl,
    /// Data collection and exfiltration.
    Exfiltration,
    /// Industrial control (Step 7 / PLC / physical process).
    Scada,
    /// Destructive actions (wiping, MBR overwrite, physical damage).
    Destruction,
    /// Defensive systems (AV, IDS, patching, advisories).
    Defense,
    /// Self-removal / anti-forensics.
    Suicide,
    /// Scenario orchestration bookkeeping.
    Scenario,
}

impl TraceCategory {
    /// All categories, in declaration order.
    pub const ALL: [TraceCategory; 10] = [
        TraceCategory::Os,
        TraceCategory::Net,
        TraceCategory::Infection,
        TraceCategory::CommandControl,
        TraceCategory::Exfiltration,
        TraceCategory::Scada,
        TraceCategory::Destruction,
        TraceCategory::Defense,
        TraceCategory::Suicide,
        TraceCategory::Scenario,
    ];

    /// Stable short name, shared by the trace, span, and export layers.
    pub const fn name(self) -> &'static str {
        match self {
            TraceCategory::Os => "os",
            TraceCategory::Net => "net",
            TraceCategory::Infection => "infection",
            TraceCategory::CommandControl => "c2",
            TraceCategory::Exfiltration => "exfil",
            TraceCategory::Scada => "scada",
            TraceCategory::Destruction => "destruction",
            TraceCategory::Defense => "defense",
            TraceCategory::Suicide => "suicide",
            TraceCategory::Scenario => "scenario",
        }
    }
}

impl fmt::Display for TraceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded simulation event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When the event happened.
    pub time: SimTime,
    /// Filtering category.
    pub category: TraceCategory,
    /// The acting entity, e.g. `"host:eng-laptop"` or `"c2:server-3"`.
    pub actor: String,
    /// Human-readable description.
    pub message: String,
    /// The causal span this event belongs to, if any.
    pub span: Option<SpanId>,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {:>11} {}: {}", self.time, self.category.to_string(), self.actor, self.message)
    }
}

/// Trace text built only when a log keeps it.
///
/// The trace and span logs take actors, messages and span attributes as
/// `impl Into<String>` and convert them only when they retain the entry, so
/// `Lazy(|| format!(..))` formats nothing in an untraced run.
///
/// # Examples
///
/// ```
/// use malsim_kernel::time::SimTime;
/// use malsim_kernel::trace::{Lazy, TraceCategory, TraceLog};
///
/// let mut log = TraceLog::disabled();
/// log.record(SimTime::EPOCH, TraceCategory::Os, "host:a", Lazy(|| unreachable!("never formatted")));
/// let mut log = TraceLog::new();
/// log.record(SimTime::EPOCH, TraceCategory::Os, "host:a", Lazy(|| format!("{} files", 3)));
/// assert_eq!(log.events()[0].message, "3 files");
/// ```
pub struct Lazy<F>(pub F);

impl<F: FnOnce() -> String> From<Lazy<F>> for String {
    fn from(text: Lazy<F>) -> String {
        (text.0)()
    }
}

/// Append-only log of [`TraceEvent`]s.
///
/// # Examples
///
/// ```
/// use malsim_kernel::time::SimTime;
/// use malsim_kernel::trace::{TraceCategory, TraceLog};
///
/// let mut log = TraceLog::new();
/// log.record(SimTime::EPOCH, TraceCategory::Infection, "host:a", "compromised via usb");
/// assert_eq!(log.count(TraceCategory::Infection), 1);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl TraceLog {
    /// Creates an empty, enabled log.
    pub fn new() -> Self {
        TraceLog { enabled: true, ..TraceLog::default() }
    }

    /// Creates a log that discards all events (for large benchmark sweeps).
    pub fn disabled() -> Self {
        TraceLog::default()
    }

    /// Whether events are being retained.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event (no-op when disabled).
    pub fn record(
        &mut self,
        time: SimTime,
        category: TraceCategory,
        actor: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.record_in(time, category, actor, message, None);
    }

    /// Appends an event attached to a causal span (no-op when disabled).
    pub fn record_in(
        &mut self,
        time: SimTime,
        category: TraceCategory,
        actor: impl Into<String>,
        message: impl Into<String>,
        span: Option<SpanId>,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent { time, category, actor: actor.into(), message: message.into(), span });
    }

    /// All events, in insertion (and therefore chronological) order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Iterates events of one category.
    pub fn of(&self, category: TraceCategory) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.category == category)
    }

    /// Number of events in a category.
    pub fn count(&self, category: TraceCategory) -> usize {
        self.of(category).count()
    }

    /// Events whose actor matches exactly.
    pub fn by_actor<'a>(&'a self, actor: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.actor == actor)
    }

    /// First event of a category, if any.
    pub fn first_of(&self, category: TraceCategory) -> Option<&TraceEvent> {
        self.of(category).next()
    }

    /// First event whose message contains `needle`.
    pub fn find(&self, needle: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.message.contains(needle))
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops all recorded events, keeping the enabled/disabled mode.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Renders the whole log, one event per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn records_and_filters() {
        let mut log = TraceLog::new();
        log.record(t(0), TraceCategory::Os, "host:a", "dropped file");
        log.record(t(5), TraceCategory::Net, "host:a", "dns lookup");
        log.record(t(9), TraceCategory::Os, "host:b", "service created");
        assert_eq!(log.len(), 3);
        assert_eq!(log.count(TraceCategory::Os), 2);
        assert_eq!(log.by_actor("host:a").count(), 2);
        assert_eq!(log.first_of(TraceCategory::Net).unwrap().message, "dns lookup");
        assert!(log.find("service").is_some());
        assert!(log.find("absent").is_none());
    }

    #[test]
    fn disabled_log_discards() {
        let mut log = TraceLog::disabled();
        log.record(t(0), TraceCategory::Os, "x", "y");
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn display_is_readable() {
        let e = TraceEvent {
            time: SimTime::EPOCH + SimDuration::from_secs(1),
            category: TraceCategory::Infection,
            actor: "host:eng".into(),
            message: "lnk exploit fired".into(),
            span: None,
        };
        let s = e.to_string();
        assert!(s.contains("infection"));
        assert!(s.contains("host:eng"));
        assert!(s.contains("lnk exploit fired"));
    }

    #[test]
    fn clear_retains_mode() {
        let mut log = TraceLog::new();
        log.record(t(0), TraceCategory::Scenario, "sim", "start");
        log.clear();
        assert!(log.is_empty());
        assert!(log.is_enabled());
    }

    #[test]
    fn category_name_matches_display() {
        for cat in TraceCategory::ALL {
            assert_eq!(cat.name(), cat.to_string());
        }
    }
}
