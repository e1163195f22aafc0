//! # malsim-analysis
//!
//! Analysis instruments for `malsim` campaign runs — the reproduced paper's
//! §V ("Recent Malware Trends") turned into measurable quantities.
//!
//! - [`trends`] — derives the six-trend comparison matrix (sophistication,
//!   targeting, certificates, modularity, USB, suicide) from what actually
//!   happened in a run, per family;
//! - [`timeline`] — reconstructs campaign milestones from the trace log and
//!   computes latencies (notably detection latency, the stealth metric);
//! - [`table`] — plain-text tables for experiment output.
//!
//! # Examples
//!
//! ```
//! use malsim_analysis::timeline::Timeline;
//! use malsim_kernel::prelude::*;
//!
//! let mut log = TraceLog::new();
//! log.record(SimTime::EPOCH, TraceCategory::Infection, "host:a", "patient zero");
//! let tl = Timeline::from_trace(&log);
//! assert!(tl.get("first-infection").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod table;
pub mod timeline;
pub mod trends;

/// Commonly used items.
pub mod prelude {
    pub use crate::table::Table;
    pub use crate::timeline::{causal_chains, Milestone, Timeline};
    pub use crate::trends::{derive_profiles, trend_table, TrendProfile};
}
