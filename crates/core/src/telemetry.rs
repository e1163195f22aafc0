//! Unified telemetry plane: a process-wide metrics registry with Prometheus
//! and JSONL exposition.
//!
//! The registry is a fixed catalogue of counters, gauges, and fixed-bucket
//! histograms held in static atomic cells. Each family is declared once, as
//! one catalogue entry (name, help, kind, label set); the cells, [`reset`]
//! and both exporters derive from it, and call sites record through the
//! crate-internal `Counter` enum (`Counter::CacheHits.add(1)`). Recording
//! never allocates and never takes a lock on the hot path (the one
//! label-keyed map, WFQ lag, is written only at run boundaries). Like the
//! profiler and the invariant checker, the whole plane is opt-in: until
//! [`arm`] is called every recording call returns after a single branch,
//! and the kernel-side dispatch hook is never installed, so un-instrumented
//! processes pay one `Option` check per dispatched event and nothing else.
//!
//! ## What is instrumented
//!
//! - **`kernel::sched` / `kernel::queue`** — dispatches by trace-category
//!   attribution and pre-dispatch queue depth (via the
//!   [`TelemetryHook`] installed by [`arm`]), plus the event queue's
//!   tombstone reaps, flushed at the end of every `run*` call.
//! - **`core::jobs`** — admissions, rejections by reason, queue high-water,
//!   per-tenant WFQ lag, point cancellations, and the result cache's
//!   hit/park/promotion traffic.
//! - **`core::sweep` / `core::checkpoint`** — point terminal states
//!   (completed, truncated by kind, quarantined, script-faulted), retries
//!   burned, points resumed from checkpoints, journal lines and bytes
//!   written, fsync latency, and damaged lines skipped on resume.
//! - **`core::chaosfs`** — storage faults injected by kind, transient I/O
//!   retries burned by the checkpoint layer, journal quarantines, and jobs
//!   whose persistence degraded under a fatal storage fault. A fault is
//!   drawn per storage operation, so these counts repeat only when the
//!   operation sequence does: for checkpointed sweeps at one worker thread,
//!   but never for job journals, whose group commit splits lines into
//!   batches by thread timing. Armed chaos workloads must not byte-compare
//!   them.
//!
//! ## Determinism contract
//!
//! The snapshot is split into two sections. `"deterministic"` holds every
//! count and gauge: for a fixed workload these are byte-identical across
//! runs and across `MALSIM_THREADS`, because each is a pure function of the
//! deterministic simulation/scheduling structure, not of interleaving.
//! (Caveats inherited from the rest of the workspace: host-deadline
//! truncations and wall-clock-timed cancellation sweeps are themselves
//! nondeterministic — workloads that byte-compare snapshots must avoid
//! them, exactly as they must for reports.) `"wall"` holds host-clock
//! measurements — the fsync latency histogram — which differ on every run
//! and must never be byte-compared. Profiler timings are not copied into the
//! registry; they live only in each run's
//! [`ProfileSummary`](malsim_kernel::sched::ProfileSummary).
//!
//! The JSONL stream ([`set_jsonl_sink`]) appends one compact line per point
//! boundary containing the *deterministic* section only; the final line of
//! a single-threaded run is byte-identical across runs, while line order in
//! multi-threaded runs reflects completion order and is observational.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use malsim_kernel::queue::QueueStats;
use malsim_kernel::telemetry::TelemetryHook;
use malsim_kernel::trace::TraceCategory;

use crate::jobs::RejectReason;
use crate::report::Json;

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

/// One metric cell: a relaxed atomic counter/gauge. All call sites gate on
/// [`armed`] first, so an unarmed process never touches the atomics.
#[derive(Debug)]
struct Cell(AtomicU64);

impl Cell {
    const fn new() -> Cell {
        Cell(AtomicU64::new(0))
    }

    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn high_water(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn clear(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Fixed-bucket latency histogram (bounds in microseconds, inclusive upper
/// edges, plus an overflow bucket). Linear scan — the bound list is tiny.
#[derive(Debug)]
struct Hist<const N: usize> {
    bounds: [u64; N],
    cells: [Cell; N],
    overflow: Cell,
    sum: Cell,
    count: Cell,
}

impl<const N: usize> Hist<N> {
    const fn new(bounds: [u64; N]) -> Hist<N> {
        Hist {
            bounds,
            cells: [const { Cell::new() }; N],
            overflow: Cell::new(),
            sum: Cell::new(),
            count: Cell::new(),
        }
    }

    fn observe(&self, v: u64) {
        match self.bounds.iter().position(|&b| v <= b) {
            Some(i) => self.cells[i].add(1),
            None => self.overflow.add(1),
        }
        self.sum.add(v);
        self.count.add(1);
    }

    fn counts(&self) -> Vec<u64> {
        self.cells.iter().map(Cell::get).chain([self.overflow.get()]).collect()
    }

    fn clear(&self) {
        for c in &self.cells {
            c.clear();
        }
        self.overflow.clear();
        self.sum.clear();
        self.count.clear();
    }
}

// ---------------------------------------------------------------------------
// The catalogue
// ---------------------------------------------------------------------------

/// A metric family held in registry cells. Each variant has one
/// [`CATALOGUE`] entry giving its name, help text, kind and label set; call
/// sites record through the variant, e.g. `Counter::CacheHits.add(1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counter {
    SchedDispatches,
    SchedQueueDepthMax,
    QueueTombstoneReaps,
    JobsAdmitted,
    JobsRejected,
    JobsQueueDepthMax,
    JobsCancelledPoints,
    PointsCompleted,
    PointsTruncated,
    PointsRetried,
    PointsQuarantined,
    PointsScriptFaults,
    PointsResumed,
    CacheHits,
    CacheParks,
    CachePromotions,
    CkptLines,
    CkptBytes,
    CkptDamagedLines,
    ChaosFaultsInjected,
    CkptIoRetries,
    CkptJournalQuarantined,
    JobsDegradedStorage,
}

/// Where a family's values live.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The counter's row of registry cells, one per label (cell 0 for an
    /// unlabelled family).
    Cells(Counter),
    /// The per-tenant WFQ-lag map, [`WFQ_LAG`].
    WfqLag,
    /// The fsync latency histogram, [`FSYNC_HIST`]; host-clock, so wall.
    FsyncHist,
}

/// One metric family. Both exporters render from the catalogue, so the JSON
/// snapshot and the Prometheus exposition can never disagree about names,
/// label sets, or determinism classification.
#[derive(Debug)]
struct Family {
    source: Source,
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    /// The label key; empty for an unlabelled family.
    key: &'static str,
    /// The fixed label values in export order, indexed by the recording
    /// call's `label`; empty for an unlabelled family or the tenant map.
    labels: &'static [&'static str],
}

impl Family {
    const fn scalar(counter: Counter, name: &'static str, kind: &'static str, help: &'static str) -> Family {
        Family::labeled(counter, name, kind, help, "", &[])
    }

    const fn labeled(
        counter: Counter,
        name: &'static str,
        kind: &'static str,
        help: &'static str,
        key: &'static str,
        labels: &'static [&'static str],
    ) -> Family {
        Family { source: Source::Cells(counter), name, kind, help, key, labels }
    }
}

/// Dispatch labels: each trace category by name, in declaration order (so
/// `category as usize` indexes them), then `untraced` at [`UNTRACED`].
const DISPATCH_LABELS: [&str; UNTRACED + 1] = {
    let mut labels = ["untraced"; UNTRACED + 1];
    let mut i = 0;
    while i < UNTRACED {
        labels[i] = TraceCategory::ALL[i].name();
        i += 1;
    }
    labels
};

/// Index of the "untraced" dispatch label.
const UNTRACED: usize = TraceCategory::ALL.len();

/// Rejection-reason labels, in admission-check order (indexed by
/// [`reject_index`]).
const REJECT_REASONS: [&str; 5] =
    ["empty_grid", "grid_too_large", "duplicate_job_id", "queue_full", "journal_mismatch"];

/// Truncation-kind labels, indexed by `Truncation as usize`.
const TRUNCATION_KINDS: [&str; 2] = ["event_budget", "host_deadline"];

/// Injected-storage-fault labels, indexed by `IoFaultKind as usize`.
const CHAOS_KINDS: [&str; 7] =
    ["fsync_fail", "short_write", "torn_write", "disk_full", "eintr", "open_fail", "read_fail"];

/// Every metric family, in export order.
const CATALOGUE: [Family; 25] = [
    Family::labeled(
        Counter::SchedDispatches,
        "malsim_sched_dispatches_total",
        "counter",
        "Events dispatched by the kernel scheduler, by trace-category attribution.",
        "category",
        &DISPATCH_LABELS,
    ),
    Family::scalar(
        Counter::SchedQueueDepthMax,
        "malsim_sched_queue_depth_max",
        "gauge",
        "Largest pre-dispatch pending-event queue depth observed in any simulation.",
    ),
    // Named after the calendar queue `kernel::queue` replaced: perfbench
    // and `bench_sweep` read the family under this name.
    Family::scalar(
        Counter::QueueTombstoneReaps,
        "malsim_calq_tombstone_reaps_total",
        "counter",
        "Cancelled events physically reclaimed from the event queue.",
    ),
    Family::scalar(
        Counter::JobsAdmitted,
        "malsim_jobs_admitted_total",
        "counter",
        "Jobs accepted by queue admission control.",
    ),
    Family::labeled(
        Counter::JobsRejected,
        "malsim_jobs_rejected_total",
        "counter",
        "Jobs turned away at admission, by reason.",
        "reason",
        &REJECT_REASONS,
    ),
    Family::scalar(
        Counter::JobsQueueDepthMax,
        "malsim_jobs_queue_depth_max",
        "gauge",
        "High-water mark of jobs admitted to one queue.",
    ),
    Family {
        source: Source::WfqLag,
        name: "malsim_jobs_wfq_lag",
        kind: "gauge",
        help: "Per-tenant virtual-time lag behind the fleet minimum at the end of a queue run.",
        key: "tenant",
        labels: &[],
    },
    Family::scalar(
        Counter::JobsCancelledPoints,
        "malsim_jobs_cancelled_points_total",
        "counter",
        "Grid points marked cancelled before they ran.",
    ),
    Family::scalar(
        Counter::PointsCompleted,
        "malsim_points_completed_total",
        "counter",
        "Supervised points that completed untruncated.",
    ),
    Family::labeled(
        Counter::PointsTruncated,
        "malsim_points_truncated_total",
        "counter",
        "Supervised points cut short by the watchdog, by limit kind.",
        "kind",
        &TRUNCATION_KINDS,
    ),
    Family::scalar(
        Counter::PointsRetried,
        "malsim_points_retried_total",
        "counter",
        "Extra attempts burned re-running panicking points.",
    ),
    Family::scalar(
        Counter::PointsQuarantined,
        "malsim_points_quarantined_total",
        "counter",
        "Points quarantined as poisoned after exhausting their retry budget.",
    ),
    Family::scalar(
        Counter::PointsScriptFaults,
        "malsim_points_script_faults_total",
        "counter",
        "Points that failed with a typed scenario-script fault.",
    ),
    Family::scalar(
        Counter::PointsResumed,
        "malsim_points_resumed_total",
        "counter",
        "Points restored from a checkpoint or journal instead of re-running.",
    ),
    Family::scalar(
        Counter::CacheHits,
        "malsim_cache_hits_total",
        "counter",
        "Points served a copy of another point's record from the result cache.",
    ),
    Family::scalar(
        Counter::CacheParks,
        "malsim_cache_parks_total",
        "counter",
        "Duplicate points parked on another job's in-flight evaluation.",
    ),
    Family::scalar(
        Counter::CachePromotions,
        "malsim_cache_promotions_total",
        "counter",
        "Parked duplicates promoted to evaluator after their owner's claim was orphaned.",
    ),
    Family::scalar(
        Counter::CkptLines,
        "malsim_ckpt_lines_total",
        "counter",
        "Checkpoint/journal lines written (each flushed and fsynced).",
    ),
    Family::scalar(
        Counter::CkptBytes,
        "malsim_ckpt_bytes_total",
        "counter",
        "Checkpoint/journal bytes written, including newlines.",
    ),
    Family::scalar(
        Counter::CkptDamagedLines,
        "malsim_ckpt_damaged_lines_total",
        "counter",
        "Damaged (torn or hash-failed) lines skipped while replaying checkpoints and journals.",
    ),
    Family::labeled(
        Counter::ChaosFaultsInjected,
        "malsim_chaos_faults_injected_total",
        "counter",
        "Storage faults injected by the chaos backend, by kind.",
        "kind",
        &CHAOS_KINDS,
    ),
    Family::scalar(
        Counter::CkptIoRetries,
        "malsim_ckpt_io_retries_total",
        "counter",
        "Transient storage faults retried with backoff by the checkpoint layer.",
    ),
    Family::scalar(
        Counter::CkptJournalQuarantined,
        "malsim_ckpt_journal_quarantined_total",
        "counter",
        "Checkpoint/journal files quarantined after a fatal storage fault.",
    ),
    Family::scalar(
        Counter::JobsDegradedStorage,
        "malsim_jobs_degraded_storage_total",
        "counter",
        "Jobs whose journal persistence degraded under a fatal storage fault.",
    ),
    Family {
        source: Source::FsyncHist,
        name: "malsim_ckpt_fsync_micros",
        kind: "histogram",
        help: "Latency of each checkpoint-line or job-journal-batch fsync, in microseconds.",
        key: "",
        labels: &[],
    },
];

/// Cells per family: enough for the largest label set, the dispatch
/// categories (checked by the catalogue unit test).
const MAX_LABELS: usize = DISPATCH_LABELS.len();

/// One row of cells per [`Counter`], indexed by label; an unlabelled family
/// uses cell 0. Every counter has a catalogue entry, so the catalogue has at
/// least as many entries as there are counters.
static CELLS: [[Cell; MAX_LABELS]; CATALOGUE.len()] =
    [const { [const { Cell::new() }; MAX_LABELS] }; CATALOGUE.len()];

/// Fsync latency bucket bounds, in microseconds.
const FSYNC_BOUNDS_US: [u64; 10] = [50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000];

static FSYNC_HIST: Hist<{ FSYNC_BOUNDS_US.len() }> = Hist::new(FSYNC_BOUNDS_US);

/// Per-tenant WFQ lag behind the fleet's minimum virtual time; written once
/// at the end of each queue run, never on the dispatch path.
static WFQ_LAG: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// The JSONL point-boundary stream, if one was opened.
static JSONL: Mutex<Option<JsonlSink>> = Mutex::new(None);

#[derive(Debug)]
struct JsonlSink {
    file: std::fs::File,
    samples: u64,
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

impl Counter {
    /// Adds `n` to an unlabelled family.
    pub(crate) fn add(self, n: u64) {
        self.add_at(0, n);
    }

    /// Adds `n` to the sample of `label`, an index into the family's label
    /// set.
    pub(crate) fn add_at(self, label: usize, n: u64) {
        if armed() {
            self.cell(label).add(n);
        }
    }

    /// Raises an unlabelled gauge to at least `v`.
    pub(crate) fn high_water(self, v: u64) {
        if armed() {
            self.cell(0).high_water(v);
        }
    }

    fn cell(self, label: usize) -> &'static Cell {
        &CELLS[self as usize][label]
    }
}

/// The label index of a rejection in `malsim_jobs_rejected_total`.
pub(crate) fn reject_index(reason: &RejectReason) -> usize {
    match reason {
        RejectReason::EmptyGrid => 0,
        RejectReason::GridTooLarge { .. } => 1,
        RejectReason::DuplicateJobId => 2,
        RejectReason::QueueFull { .. } => 3,
        RejectReason::JournalMismatch { .. } => 4,
    }
}

/// Records one tenant's end-of-run WFQ lag.
pub(crate) fn wfq_lag_set(tenant: &str, lag: u64) {
    if armed() {
        lock(&WFQ_LAG).insert(tenant.to_owned(), lag);
    }
}

/// Records one fsync's latency.
pub(crate) fn ckpt_fsync_micros(us: u64) {
    if armed() {
        FSYNC_HIST.observe(us);
    }
}

// ---------------------------------------------------------------------------
// Arming
// ---------------------------------------------------------------------------

/// The kernel-facing half of the registry: fed one callback per dispatched
/// event plus the queue's structural counter deltas at the end of each run.
struct KernelHook;

impl TelemetryHook for KernelHook {
    fn dispatch(&self, category: Option<TraceCategory>, queue_depth: usize) {
        Counter::SchedDispatches.add_at(category.map_or(UNTRACED, |c| c as usize), 1);
        Counter::SchedQueueDepthMax.high_water(queue_depth as u64);
    }

    fn queue_stats(&self, delta: QueueStats) {
        Counter::QueueTombstoneReaps.add(delta.tombstone_reaps);
    }
}

static HOOK: KernelHook = KernelHook;

static ARMED: AtomicBool = AtomicBool::new(false);

/// Arms the registry and installs the kernel dispatch hook.
///
/// Call once at process start, **before any simulation is created**: a `Sim`
/// captures the hook at construction, so sims built earlier never report
/// dispatches. Arming is one-way: it is meant for whole-process
/// observation, not toggling.
pub fn arm() {
    malsim_kernel::telemetry::install(&HOOK);
    ARMED.store(true, Ordering::SeqCst);
}

/// Arms the registry iff the `MALSIM_METRICS` environment variable is `1`.
/// Returns whether the registry is now armed.
pub fn arm_if_env() -> bool {
    if std::env::var("MALSIM_METRICS").is_ok_and(|v| v.trim() == "1") {
        arm();
    }
    armed()
}

/// Whether the registry is recording.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Zeroes every cell, clears the labeled map, and closes the JSONL sink.
/// Intended for test isolation — the registry is process-global, so tests
/// that assert exact values must reset first (and must not share a process
/// with unrelated instrumented work).
pub fn reset() {
    for c in CELLS.iter().flatten() {
        c.clear();
    }
    FSYNC_HIST.clear();
    lock(&WFQ_LAG).clear();
    *lock(&JSONL) = None;
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("telemetry lock never held across user code")
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// One family's samples, read from its source.
enum Value {
    Int(u64),
    Labeled(Vec<(String, u64)>),
    Hist { bounds: &'static [u64], counts: Vec<u64>, sum: u64, count: u64 },
}

impl Family {
    /// Whether the family belongs in the `"deterministic"` section.
    fn deterministic(&self) -> bool {
        !matches!(self.source, Source::FsyncHist)
    }

    fn read(&self) -> Value {
        match self.source {
            Source::Cells(counter) if self.labels.is_empty() => Value::Int(counter.cell(0).get()),
            Source::Cells(counter) => Value::Labeled(
                self.labels
                    .iter()
                    .enumerate()
                    .map(|(i, l)| ((*l).to_owned(), counter.cell(i).get()))
                    .collect(),
            ),
            Source::WfqLag => Value::Labeled(lock(&WFQ_LAG).iter().map(|(k, v)| (k.clone(), *v)).collect()),
            Source::FsyncHist => Value::Hist {
                bounds: &FSYNC_HIST.bounds,
                counts: FSYNC_HIST.counts(),
                sum: FSYNC_HIST.sum.get(),
                count: FSYNC_HIST.count.get(),
            },
        }
    }
}

fn metric_json(value: &Value) -> Json {
    match value {
        Value::Int(n) => Json::U64(*n),
        Value::Labeled(items) => Json::Obj(items.iter().map(|(k, v)| (k.clone(), Json::U64(*v))).collect()),
        Value::Hist { bounds, counts, sum, count } => {
            let mut cum = 0u64;
            let mut buckets: Vec<(String, Json)> = Vec::with_capacity(bounds.len() + 1);
            for (i, b) in bounds.iter().enumerate() {
                cum += counts[i];
                buckets.push((b.to_string(), Json::U64(cum)));
            }
            cum += counts[bounds.len()];
            buckets.push(("+Inf".to_owned(), Json::U64(cum)));
            Json::obj([
                ("buckets", Json::Obj(buckets)),
                ("sum", Json::U64(*sum)),
                ("count", Json::U64(*count)),
            ])
        }
    }
}

/// The deterministic section alone, as canonical JSON. This is the
/// byte-comparable export: for a fixed workload it is identical across runs
/// and `MALSIM_THREADS` (see the module docs for the contract's caveats).
pub fn deterministic_json() -> Json {
    Json::Obj(
        CATALOGUE
            .iter()
            .filter(|f| f.deterministic())
            .map(|f| (f.name.to_owned(), metric_json(&f.read())))
            .collect(),
    )
}

/// The full snapshot: `{"deterministic": {...}, "wall": {...}}`.
pub fn snapshot() -> Json {
    let (mut det, mut wall) = (Vec::new(), Vec::new());
    for f in &CATALOGUE {
        let section = if f.deterministic() { &mut det } else { &mut wall };
        section.push((f.name.to_owned(), metric_json(&f.read())));
    }
    Json::obj([("deterministic", Json::Obj(det)), ("wall", Json::Obj(wall))])
}

/// [`deterministic_json`] rendered canonically — the golden-friendly form.
pub fn render_deterministic() -> String {
    deterministic_json().to_canonical_string()
}

/// [`snapshot`] rendered canonically.
pub fn render_snapshot() -> String {
    snapshot().to_canonical_string()
}

/// Prometheus text exposition (version 0.0.4) of the whole registry: one
/// `# HELP`/`# TYPE` pair per family, fixed label sets emitted even at zero
/// so scrapes are structurally stable, histogram buckets cumulative with a
/// closing `+Inf`.
pub fn render_prometheus() -> String {
    let mut out = String::new();
    for f in &CATALOGUE {
        let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
        let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind);
        match f.read() {
            Value::Int(n) => {
                let _ = writeln!(out, "{} {}", f.name, n);
            }
            Value::Labeled(items) => {
                for (label, v) in items {
                    let _ = writeln!(out, "{}{{{}=\"{}\"}} {}", f.name, f.key, label, v);
                }
            }
            Value::Hist { bounds, counts, sum, count } => {
                let mut cum = 0u64;
                for (i, b) in bounds.iter().enumerate() {
                    cum += counts[i];
                    let _ = writeln!(out, "{}_bucket{{le=\"{}\"}} {}", f.name, b, cum);
                }
                cum += counts[bounds.len()];
                let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", f.name, cum);
                let _ = writeln!(out, "{}_sum {}", f.name, sum);
                let _ = writeln!(out, "{}_count {}", f.name, count);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// JSONL stream
// ---------------------------------------------------------------------------

/// Opens (truncating) the JSONL snapshot stream at `path`. Each subsequent
/// point boundary appends one compact line:
/// `{"sample":N,"deterministic":{...}}`.
pub fn set_jsonl_sink(path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    *lock(&JSONL) = Some(JsonlSink { file, samples: 0 });
    Ok(())
}

/// Closes the JSONL stream, if one is open.
pub fn clear_jsonl_sink() {
    *lock(&JSONL) = None;
}

/// Samples the deterministic section into the JSONL stream. Called by the
/// instrumented runners at every point boundary; a no-op when unarmed or
/// when no sink is open. Public so custom runners can add their own
/// boundaries.
pub fn sample_boundary() {
    if !armed() {
        return;
    }
    let mut guard = lock(&JSONL);
    let Some(sink) = guard.as_mut() else { return };
    sink.samples += 1;
    // Holding the sink lock across the read keeps each line's sample number
    // and payload consistent; the catalogue locks are disjoint from this one.
    let line = Json::obj([("sample", Json::U64(sink.samples)), ("deterministic", deterministic_json())])
        .to_compact_string();
    let _ = writeln!(sink.file, "{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaosfs::IoFaultKind;
    use crate::sweep::Truncation;

    // The registry is process-global and the core test binary runs many
    // instrumented tests in parallel, so exact end-to-end counts are
    // asserted in the dedicated `telemetry` integration binary (its own
    // process). Here we only exercise the pure pieces.

    #[test]
    fn histogram_buckets_select_inclusive_upper_edges() {
        let h: Hist<3> = Hist::new([10, 100, 1000]);
        for v in [5, 10, 11, 1000, 1001] {
            h.observe(v);
        }
        assert_eq!(h.counts(), vec![2, 1, 1, 1], "le=10 ×2, le=100 ×1, le=1000 ×1, +Inf ×1");
        assert_eq!(h.sum.get(), 5 + 10 + 11 + 1000 + 1001);
        assert_eq!(h.count.get(), 5);
    }

    #[test]
    fn reject_and_truncation_indices_match_their_label_tables() {
        assert_eq!(REJECT_REASONS[reject_index(&RejectReason::EmptyGrid)], "empty_grid");
        assert_eq!(
            REJECT_REASONS[reject_index(&RejectReason::GridTooLarge { points: 9, max_points: 1 })],
            "grid_too_large"
        );
        assert_eq!(REJECT_REASONS[reject_index(&RejectReason::DuplicateJobId)], "duplicate_job_id");
        assert_eq!(REJECT_REASONS[reject_index(&RejectReason::QueueFull { capacity: 1 })], "queue_full");
        assert_eq!(
            REJECT_REASONS[reject_index(&RejectReason::JournalMismatch {
                expected: String::new(),
                found: String::new()
            })],
            "journal_mismatch"
        );
        for t in [Truncation::EventBudget, Truncation::HostDeadline] {
            assert_eq!(TRUNCATION_KINDS[t as usize], t.label());
        }
        assert_eq!(CHAOS_KINDS.len(), IoFaultKind::ALL.len());
        for kind in IoFaultKind::ALL {
            assert_eq!(CHAOS_KINDS[kind as usize], kind.label());
        }
        for c in TraceCategory::ALL {
            assert_eq!(DISPATCH_LABELS[c as usize], c.name());
        }
        assert_eq!(DISPATCH_LABELS[UNTRACED], "untraced");
    }

    #[test]
    fn catalogue_families_are_unique_and_prefixed() {
        let mut names: Vec<&str> = CATALOGUE.iter().map(|f| f.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "no duplicate families");
        for f in &CATALOGUE {
            assert!(f.name.starts_with("malsim_"), "{} carries the workspace prefix", f.name);
            assert!(matches!(f.kind, "counter" | "gauge" | "histogram"), "{}", f.name);
            assert!(f.labels.len() <= MAX_LABELS, "{} fits its row of cells", f.name);
        }
    }
}
