//! Process-wide telemetry hook: the kernel's half of the metrics plane.
//!
//! The kernel stays dependency-free — it neither owns a metrics registry nor
//! knows how metrics are exported. Instead, a host layer (in this workspace,
//! `malsim::telemetry`) implements [`TelemetryHook`] and installs one
//! `'static` instance process-wide via [`install`]. Every [`Sim`] created
//! *after* installation captures the hook at construction and feeds it one
//! callback per dispatched event; a `Sim` created before installation — or in
//! a process that never installs — carries `None` and pays nothing beyond a
//! single branch per dispatch, the same opt-in idiom as the profiler and the
//! invariant checker.
//!
//! Installation is deliberately one-way (a [`OnceLock`]): the hook is meant
//! to be armed once at process start, before any simulation exists, so that
//! observation never changes mid-run. Whether the registry behind the hook
//! is recording or discarding is the host layer's business — the kernel only
//! promises to call.
//!
//! [`Sim`]: crate::sched::Sim

use std::sync::OnceLock;

use crate::calq::QueueStats;
use crate::trace::TraceCategory;

/// Observer interface the kernel calls into when a hook is installed.
///
/// Implementations must be cheap and non-blocking — the callback runs on the
/// dispatch path of every armed simulation — and must not observe anything
/// back into the simulation: telemetry is strictly write-only from the
/// kernel's point of view, which is what keeps armed and unarmed runs
/// byte-identical.
pub trait TelemetryHook: Send + Sync {
    /// One event was dispatched: its trace-category attribution (the first
    /// category the event recorded, `None` for untraced events) and the
    /// pending-queue depth sampled immediately before the dispatch.
    fn dispatch(&self, category: Option<TraceCategory>, queue_depth: usize);

    /// A `run*` call on an observed [`Sim`](crate::sched::Sim) finished: the calendar queue's
    /// structural counters (resizes, tombstone reaps, cursor pull-backs)
    /// accumulated since the previous flush on that `Sim`. Deltas, so
    /// summing them across sims and runs yields process totals.
    fn queue_stats(&self, delta: QueueStats) {
        let _ = delta;
    }
}

static HOOK: OnceLock<&'static dyn TelemetryHook> = OnceLock::new();

/// Installs the process-wide hook. Returns `false` if one was already
/// installed (the first installation wins; there is no uninstall).
pub fn install(hook: &'static dyn TelemetryHook) -> bool {
    HOOK.set(hook).is_ok()
}

/// The installed hook, if any. Captured by [`Sim::new`](crate::sched::Sim::new).
pub fn installed() -> Option<&'static dyn TelemetryHook> {
    HOOK.get().copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct CountingHook {
        calls: AtomicU64,
    }

    impl TelemetryHook for CountingHook {
        fn dispatch(&self, _category: Option<TraceCategory>, _queue_depth: usize) {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    // One test only: installation is process-global, so everything about the
    // installed hook has to be asserted in a single sequence.
    #[test]
    fn install_is_first_wins_and_sims_capture_it() {
        use crate::sched::Sim;
        use crate::time::{SimDuration, SimTime};

        assert!(installed().is_none(), "no hook before install");
        static HOOK_A: CountingHook = CountingHook { calls: AtomicU64::new(0) };
        static HOOK_B: CountingHook = CountingHook { calls: AtomicU64::new(0) };
        assert!(install(&HOOK_A));
        assert!(!install(&HOOK_B), "second install is rejected");

        let mut sim: Sim<Vec<u32>> = Sim::new(SimTime::EPOCH, 1);
        let mut world = Vec::new();
        sim.schedule_in(SimDuration::from_secs(1), |w: &mut Vec<u32>, sim| {
            sim.record(TraceCategory::Net, "host:a", "probe");
            w.push(1);
        });
        sim.schedule_in(SimDuration::from_secs(2), |w: &mut Vec<u32>, _| w.push(2));
        sim.run(&mut world);
        assert_eq!(world, vec![1, 2]);
        assert_eq!(HOOK_A.calls.load(Ordering::Relaxed), 2, "one callback per dispatch");
        assert_eq!(HOOK_B.calls.load(Ordering::Relaxed), 0, "the losing hook never fires");
    }
}
