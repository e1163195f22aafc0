//! Campaign-timeline reconstruction from the simulation trace.
//!
//! The forensic counterpart to the trace log: given a finished run, rebuild
//! the narrative an incident-response team would produce — first compromise,
//! spread milestones, first defensive signal, destruction window, and
//! suicide events — and compute latency statistics between them.

use malsim_kernel::span::SpanLog;
use malsim_kernel::time::{SimDuration, SimTime};
use malsim_kernel::trace::{TraceCategory, TraceLog};

/// A reconstructed milestone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Milestone {
    /// When it happened.
    pub time: SimTime,
    /// Short label, e.g. `"first-infection"`.
    pub label: String,
    /// The underlying trace message.
    pub detail: String,
}

/// The reconstructed timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Milestones in chronological order.
    pub milestones: Vec<Milestone>,
}

impl Timeline {
    /// Builds a timeline from a trace.
    pub fn from_trace(trace: &TraceLog) -> Timeline {
        let mut milestones = Vec::new();
        let mut push_first = |cat: TraceCategory, label: &str| {
            if let Some(e) = trace.first_of(cat) {
                milestones.push(Milestone {
                    time: e.time,
                    label: label.to_owned(),
                    detail: e.message.clone(),
                });
            }
        };
        push_first(TraceCategory::Infection, "first-infection");
        push_first(TraceCategory::CommandControl, "first-c2-contact");
        push_first(TraceCategory::Exfiltration, "first-exfiltration");
        push_first(TraceCategory::Scada, "first-ics-activity");
        push_first(TraceCategory::Destruction, "first-destruction");
        push_first(TraceCategory::Defense, "first-defensive-signal");
        push_first(TraceCategory::Suicide, "suicide");
        milestones.sort_by_key(|m| m.time);
        Timeline { milestones }
    }

    /// Builds a timeline from a span log: the same milestone labels as
    /// [`Timeline::from_trace`], reconstructed from the first span of each
    /// category instead of the first trace event. Works on runs whose trace
    /// retention was capped or disabled but whose spans were kept.
    pub fn from_spans(spans: &SpanLog) -> Timeline {
        let mut milestones = Vec::new();
        let mut push_first = |cat: TraceCategory, label: &str| {
            if let Some(s) = spans.of(cat).min_by_key(|s| (s.start, s.id)) {
                milestones.push(Milestone {
                    time: s.start,
                    label: label.to_owned(),
                    detail: format!("{} @ {}", s.name, s.actor),
                });
            }
        };
        push_first(TraceCategory::Infection, "first-infection");
        push_first(TraceCategory::CommandControl, "first-c2-contact");
        push_first(TraceCategory::Exfiltration, "first-exfiltration");
        push_first(TraceCategory::Scada, "first-ics-activity");
        push_first(TraceCategory::Destruction, "first-destruction");
        push_first(TraceCategory::Defense, "first-defensive-signal");
        push_first(TraceCategory::Suicide, "suicide");
        milestones.sort_by_key(|m| m.time);
        Timeline { milestones }
    }

    /// Finds a milestone by label.
    pub fn get(&self, label: &str) -> Option<&Milestone> {
        self.milestones.iter().find(|m| m.label == label)
    }

    /// Latency between two milestones, if both exist and are ordered.
    pub fn latency(&self, from: &str, to: &str) -> Option<SimDuration> {
        let a = self.get(from)?.time;
        let b = self.get(to)?.time;
        if b >= a {
            Some(b - a)
        } else {
            None
        }
    }

    /// Detection latency: first infection → first defensive signal. `None`
    /// when the campaign was never noticed — the stealth success case.
    pub fn detection_latency(&self) -> Option<SimDuration> {
        self.latency("first-infection", "first-defensive-signal")
    }

    /// Renders the timeline one milestone per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.milestones {
            out.push_str(&format!("{}  {:<24} {}\n", m.time, m.label, m.detail));
        }
        out
    }
}

/// Renders the causal chain of every Exfiltration and Destruction span back
/// to its root — the incident-response "how did this happen" view. Each line
/// walks leaf → root via parent links:
///
/// ```text
/// overspeed-strike @ plant:natanz-a26  <=  plc-implant @ host:eng-station  <=  infection @ host:eng-station
/// ```
pub fn causal_chains(spans: &SpanLog) -> String {
    let mut out = String::new();
    for cat in [TraceCategory::Exfiltration, TraceCategory::Destruction] {
        for leaf in spans.of(cat) {
            let chain = spans.chain(leaf.id);
            let line: Vec<String> = chain.iter().map(|s| format!("{} @ {}", s.name, s.actor)).collect();
            out.push_str(&line.join("  <=  "));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sample_trace() -> TraceLog {
        let mut log = TraceLog::new();
        log.record(t(1_000), TraceCategory::Infection, "host:a", "seeded");
        log.record(t(2_000), TraceCategory::Infection, "host:b", "spread");
        log.record(t(3_000), TraceCategory::CommandControl, "host:a", "beacon");
        log.record(t(9_000), TraceCategory::Defense, "ids", "alert");
        log.record(t(12_000), TraceCategory::Suicide, "host:a", "gone");
        log
    }

    #[test]
    fn milestones_are_first_occurrences_in_order() {
        let tl = Timeline::from_trace(&sample_trace());
        assert_eq!(tl.milestones.len(), 4);
        assert_eq!(tl.get("first-infection").unwrap().time, t(1_000));
        assert_eq!(tl.get("first-infection").unwrap().detail, "seeded");
        let labels: Vec<&str> = tl.milestones.iter().map(|m| m.label.as_str()).collect();
        assert_eq!(labels, vec!["first-infection", "first-c2-contact", "first-defensive-signal", "suicide"]);
    }

    #[test]
    fn latencies() {
        let tl = Timeline::from_trace(&sample_trace());
        assert_eq!(tl.detection_latency(), Some(SimDuration::from_millis(8_000)));
        assert_eq!(tl.latency("first-c2-contact", "suicide"), Some(SimDuration::from_millis(9_000)));
        assert_eq!(tl.latency("suicide", "first-infection"), None, "reversed order");
        assert_eq!(tl.latency("absent", "suicide"), None);
    }

    #[test]
    fn undetected_campaign_has_no_latency() {
        let mut log = TraceLog::new();
        log.record(t(1), TraceCategory::Infection, "h", "x");
        let tl = Timeline::from_trace(&log);
        assert_eq!(tl.detection_latency(), None);
    }

    #[test]
    fn render_contains_labels() {
        let tl = Timeline::from_trace(&sample_trace());
        let s = tl.render();
        assert!(s.contains("first-infection"));
        assert!(s.contains("suicide"));
    }

    fn sample_spans() -> SpanLog {
        let mut spans = SpanLog::new();
        let root = spans.open(t(1_000), TraceCategory::Infection, "host:a", "infection", None);
        let c2 = spans.open(t(3_000), TraceCategory::CommandControl, "host:a", "beacon", Some(root));
        let exfil = spans.open(t(4_000), TraceCategory::Exfiltration, "host:a", "exfil-upload", Some(c2));
        spans.close(exfil, t(4_000));
        spans.close(c2, t(5_000));
        spans.close(root, t(9_000));
        spans
    }

    #[test]
    fn span_timeline_matches_trace_milestones() {
        let tl = Timeline::from_spans(&sample_spans());
        let labels: Vec<&str> = tl.milestones.iter().map(|m| m.label.as_str()).collect();
        assert_eq!(labels, vec!["first-infection", "first-c2-contact", "first-exfiltration"]);
        assert_eq!(tl.get("first-infection").unwrap().time, t(1_000));
        assert_eq!(tl.get("first-exfiltration").unwrap().detail, "exfil-upload @ host:a");
        assert_eq!(
            tl.latency("first-infection", "first-exfiltration"),
            Some(SimDuration::from_millis(3_000))
        );
    }

    #[test]
    fn causal_chains_walk_back_to_the_root() {
        let rendered = causal_chains(&sample_spans());
        assert_eq!(rendered.trim(), "exfil-upload @ host:a  <=  beacon @ host:a  <=  infection @ host:a");
        assert_eq!(causal_chains(&SpanLog::new()), "");
    }
}
