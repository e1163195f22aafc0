//! # malsim-kernel
//!
//! Deterministic discrete-event simulation core for the `malsim` workspace.
//!
//! The kernel is domain-agnostic: it knows nothing about hosts, networks, or
//! malware. It provides:
//!
//! - [`time::SimTime`] / [`time::SimDuration`] — calendar-anchored millisecond
//!   clock, so scenarios can express wall-clock triggers.
//! - [`sched::Sim`] — the event queue and scheduler. Events are closures over
//!   a caller-owned world; ordering is total and deterministic.
//! - [`queue::EventQueue`] — the pending-event store behind the scheduler: a
//!   map from each pending timestamp to a FIFO chain of its events, over
//!   generational slab storage, with O(1) cancel and structural
//!   `(time, insertion)` ordering.
//! - [`rng::SimRng`] — a seeded, forkable ChaCha8 random source; the same
//!   `(scenario, seed)` pair always yields the same trace.
//! - [`fault::FaultPlane`] — a deterministic fault-injection schedule (link
//!   outages, packet loss, DNS outages, takedowns, host crashes) with its own
//!   forked random stream, so an empty schedule never perturbs a run.
//! - [`trace::TraceLog`] — the structured forensic record of a run.
//! - [`span::SpanLog`] — causal spans linking consequences (exfil, wiping)
//!   back to their root compromise via parent chains.
//! - [`metrics::Metrics`] — named counters that experiments read back out.
//! - [`sched::ProfileSummary`] — opt-in scheduler profiling (per-category
//!   dispatch counts, host-clock time, queue depth), zero-cost when off.
//! - [`invariant::InvariantChecker`] — opt-in runtime invariant checking
//!   (time monotonicity, span causality, fault-window well-formedness, plus
//!   caller-registered world laws), zero-cost when off.
//! - [`sched::Watchdog`] — per-run limits (deterministic event budget,
//!   host-clock deadline) with graceful truncation via
//!   [`sched::Sim::run_until_watched`].
//! - [`telemetry::TelemetryHook`] — a process-wide observer interface a host
//!   layer can install once; armed simulations feed it per-dispatch
//!   callbacks, unarmed ones pay a single branch.
//! - [`crate::define_id!`] / [`ids::Arena`] — typed handles for entity tables.
//!
//! # Examples
//!
//! ```
//! use malsim_kernel::prelude::*;
//!
//! #[derive(Default)]
//! struct World {
//!     infected: u32,
//! }
//!
//! let mut sim: Sim<World> = Sim::new(SimTime::from_utc(2012, 8, 1, 0, 0, 0), 7);
//! let mut world = World::default();
//! sim.schedule_in(SimDuration::from_hours(1), |w: &mut World, sim| {
//!     w.infected += 1;
//!     sim.record(TraceCategory::Infection, "host:0", "patient zero");
//! });
//! sim.run(&mut world);
//! assert_eq!(world.infected, 1);
//! assert_eq!(sim.trace.count(TraceCategory::Infection), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod ids;
pub mod invariant;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod span;
pub mod telemetry;
pub mod time;
pub mod trace;

/// Convenient glob-import of the kernel's commonly used items.
pub mod prelude {
    pub use crate::fault::{FaultConfigError, FaultKind, FaultPlane, FaultWindow};
    pub use crate::ids::{GenSlab, SlotRef};
    pub use crate::invariant::{InvariantChecker, InvariantViolation, LawCx};
    pub use crate::metrics::Metrics;
    pub use crate::queue::{EventQueue, QueueStats};
    pub use crate::rng::SimRng;
    pub use crate::sched::{EventHandle, ProfileRow, ProfileSummary, Sim, StopReason, Watchdog, WatchedRun};
    pub use crate::span::{Span, SpanId, SpanLog};
    pub use crate::telemetry::TelemetryHook;
    pub use crate::time::{SimDuration, SimTime, TimeError};
    pub use crate::trace::{TraceCategory, TraceEvent, TraceLog};
}
