//! Unified telemetry plane: a process-wide metrics registry with Prometheus
//! and JSONL exposition.
//!
//! The registry is a fixed catalogue of counters, gauges, and fixed-bucket
//! histograms held in static atomic cells — metric handles are `static`s, so
//! recording never allocates and never takes a lock on the hot path (the one
//! label-keyed map, WFQ lag, is written only at run boundaries). Like the
//! profiler and the invariant checker, the whole plane is opt-in: until
//! [`arm`] is called every record function returns after a single branch,
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

use crate::chaosfs::IoFaultKind;
use crate::jobs::RejectReason;
use crate::report::Json;
use crate::sweep::Truncation;

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
// The registry
// ---------------------------------------------------------------------------

static ARMED: AtomicBool = AtomicBool::new(false);

/// Index of the "untraced" slot in [`SCHED_DISPATCHES`].
const UNTRACED: usize = TraceCategory::ALL.len();

/// Fsync latency bucket bounds, in microseconds.
const FSYNC_BOUNDS_US: [u64; 10] = [50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000];

/// Rejection-reason labels, in admission-check order (must stay in sync with
/// [`reject_index`]).
const REJECT_REASONS: [&str; 5] =
    ["empty_grid", "grid_too_large", "duplicate_job_id", "queue_full", "journal_mismatch"];

/// Truncation-kind labels (must stay in sync with [`truncation_index`]).
const TRUNCATION_KINDS: [&str; 2] = ["event_budget", "host_deadline"];

/// Injected-storage-fault labels (must stay in sync with
/// [`IoFaultKind::ALL`]; the unit tests assert the correspondence).
const CHAOS_KINDS: [&str; 7] =
    ["fsync_fail", "short_write", "torn_write", "disk_full", "eintr", "open_fail", "read_fail"];

static SCHED_DISPATCHES: [Cell; TraceCategory::ALL.len() + 1] =
    [const { Cell::new() }; TraceCategory::ALL.len() + 1];
static SCHED_QUEUE_DEPTH_MAX: Cell = Cell::new();
static QUEUE_TOMBSTONE_REAPS: Cell = Cell::new();
static JOBS_ADMITTED: Cell = Cell::new();
static JOBS_REJECTED: [Cell; REJECT_REASONS.len()] = [const { Cell::new() }; REJECT_REASONS.len()];
static JOBS_QUEUE_DEPTH_MAX: Cell = Cell::new();
static JOBS_CANCELLED_POINTS: Cell = Cell::new();
static POINTS_COMPLETED: Cell = Cell::new();
static POINTS_TRUNCATED: [Cell; TRUNCATION_KINDS.len()] = [const { Cell::new() }; TRUNCATION_KINDS.len()];
static POINTS_RETRIED: Cell = Cell::new();
static POINTS_QUARANTINED: Cell = Cell::new();
static POINTS_SCRIPT_FAULTS: Cell = Cell::new();
static POINTS_RESUMED: Cell = Cell::new();
static CACHE_HITS: Cell = Cell::new();
static CACHE_PARKS: Cell = Cell::new();
static CACHE_PROMOTIONS: Cell = Cell::new();
static CKPT_LINES: Cell = Cell::new();
static CKPT_BYTES: Cell = Cell::new();
static CKPT_DAMAGED_LINES: Cell = Cell::new();
static CHAOS_FAULTS: [Cell; CHAOS_KINDS.len()] = [const { Cell::new() }; CHAOS_KINDS.len()];
static CKPT_IO_RETRIES: Cell = Cell::new();
static CKPT_JOURNAL_QUARANTINED: Cell = Cell::new();
static JOBS_DEGRADED_STORAGE: Cell = Cell::new();
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
// Arming
// ---------------------------------------------------------------------------

/// The kernel-facing half of the registry: fed one callback per dispatched
/// event plus the queue's structural counter deltas at the end of each run.
struct KernelHook;

impl TelemetryHook for KernelHook {
    fn dispatch(&self, category: Option<TraceCategory>, queue_depth: usize) {
        if !armed() {
            return;
        }
        SCHED_DISPATCHES[category.map_or(UNTRACED, |c| c as usize)].add(1);
        SCHED_QUEUE_DEPTH_MAX.high_water(queue_depth as u64);
    }

    fn queue_stats(&self, delta: QueueStats) {
        if !armed() {
            return;
        }
        QUEUE_TOMBSTONE_REAPS.add(delta.tombstone_reaps);
    }
}

static HOOK: KernelHook = KernelHook;

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
    for c in &SCHED_DISPATCHES {
        c.clear();
    }
    SCHED_QUEUE_DEPTH_MAX.clear();
    QUEUE_TOMBSTONE_REAPS.clear();
    JOBS_ADMITTED.clear();
    for c in &JOBS_REJECTED {
        c.clear();
    }
    JOBS_QUEUE_DEPTH_MAX.clear();
    JOBS_CANCELLED_POINTS.clear();
    POINTS_COMPLETED.clear();
    for c in &POINTS_TRUNCATED {
        c.clear();
    }
    POINTS_RETRIED.clear();
    POINTS_QUARANTINED.clear();
    POINTS_SCRIPT_FAULTS.clear();
    POINTS_RESUMED.clear();
    CACHE_HITS.clear();
    CACHE_PARKS.clear();
    CACHE_PROMOTIONS.clear();
    CKPT_LINES.clear();
    CKPT_BYTES.clear();
    CKPT_DAMAGED_LINES.clear();
    for c in &CHAOS_FAULTS {
        c.clear();
    }
    CKPT_IO_RETRIES.clear();
    CKPT_JOURNAL_QUARANTINED.clear();
    JOBS_DEGRADED_STORAGE.clear();
    FSYNC_HIST.clear();
    lock(&WFQ_LAG).clear();
    *lock(&JSONL) = None;
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("telemetry lock never held across user code")
}

// ---------------------------------------------------------------------------
// Recorders (crate-internal instrumentation surface)
// ---------------------------------------------------------------------------

fn reject_index(reason: &RejectReason) -> usize {
    match reason {
        RejectReason::EmptyGrid => 0,
        RejectReason::GridTooLarge { .. } => 1,
        RejectReason::DuplicateJobId => 2,
        RejectReason::QueueFull { .. } => 3,
        RejectReason::JournalMismatch { .. } => 4,
    }
}

fn truncation_index(t: Truncation) -> usize {
    match t {
        Truncation::EventBudget => 0,
        Truncation::HostDeadline => 1,
    }
}

pub(crate) fn jobs_admitted(queue_depth: usize) {
    if !armed() {
        return;
    }
    JOBS_ADMITTED.add(1);
    JOBS_QUEUE_DEPTH_MAX.high_water(queue_depth as u64);
}

pub(crate) fn jobs_rejected(reason: &RejectReason) {
    if !armed() {
        return;
    }
    JOBS_REJECTED[reject_index(reason)].add(1);
}

pub(crate) fn jobs_cancelled_points(n: u64) {
    if !armed() {
        return;
    }
    JOBS_CANCELLED_POINTS.add(n);
}

pub(crate) fn wfq_lag_set(tenant: &str, lag: u64) {
    if !armed() {
        return;
    }
    lock(&WFQ_LAG).insert(tenant.to_owned(), lag);
}

pub(crate) fn point_completed(truncation: Option<Truncation>) {
    if !armed() {
        return;
    }
    match truncation {
        None => POINTS_COMPLETED.add(1),
        Some(t) => POINTS_TRUNCATED[truncation_index(t)].add(1),
    }
}

pub(crate) fn points_retried(n: u64) {
    if !armed() || n == 0 {
        return;
    }
    POINTS_RETRIED.add(n);
}

pub(crate) fn point_quarantined() {
    if !armed() {
        return;
    }
    POINTS_QUARANTINED.add(1);
}

pub(crate) fn point_script_fault() {
    if !armed() {
        return;
    }
    POINTS_SCRIPT_FAULTS.add(1);
}

pub(crate) fn points_resumed(n: u64) {
    if !armed() {
        return;
    }
    POINTS_RESUMED.add(n);
}

pub(crate) fn cache_hit() {
    if !armed() {
        return;
    }
    CACHE_HITS.add(1);
}

pub(crate) fn cache_park() {
    if !armed() {
        return;
    }
    CACHE_PARKS.add(1);
}

pub(crate) fn cache_promotion() {
    if !armed() {
        return;
    }
    CACHE_PROMOTIONS.add(1);
}

pub(crate) fn ckpt_line_written(bytes: u64) {
    if !armed() {
        return;
    }
    CKPT_LINES.add(1);
    CKPT_BYTES.add(bytes);
}

pub(crate) fn ckpt_fsync_micros(us: u64) {
    if !armed() {
        return;
    }
    FSYNC_HIST.observe(us);
}

pub(crate) fn ckpt_damaged_lines(n: u64) {
    if !armed() || n == 0 {
        return;
    }
    CKPT_DAMAGED_LINES.add(n);
}

fn chaos_index(kind: IoFaultKind) -> usize {
    match kind {
        IoFaultKind::FsyncFail => 0,
        IoFaultKind::ShortWrite => 1,
        IoFaultKind::TornWrite => 2,
        IoFaultKind::DiskFull => 3,
        IoFaultKind::Eintr => 4,
        IoFaultKind::OpenFail => 5,
        IoFaultKind::ReadFail => 6,
    }
}

pub(crate) fn chaos_fault_injected(kind: IoFaultKind) {
    if !armed() {
        return;
    }
    CHAOS_FAULTS[chaos_index(kind)].add(1);
}

pub(crate) fn ckpt_io_retry() {
    if !armed() {
        return;
    }
    CKPT_IO_RETRIES.add(1);
}

pub(crate) fn ckpt_journal_quarantined() {
    if !armed() {
        return;
    }
    CKPT_JOURNAL_QUARANTINED.add(1);
}

pub(crate) fn jobs_degraded_storage(n: u64) {
    if !armed() || n == 0 {
        return;
    }
    JOBS_DEGRADED_STORAGE.add(n);
}

// ---------------------------------------------------------------------------
// Catalogue and exporters
// ---------------------------------------------------------------------------

/// One metric's value in the export catalogue.
enum Value {
    Int(u64),
    Labeled { key: &'static str, items: Vec<(String, u64)> },
    Hist { bounds: &'static [u64], counts: Vec<u64>, sum: u64, count: u64 },
}

/// One metric in the export catalogue; both exporters render from this, so
/// the JSON snapshot and the Prometheus exposition can never disagree about
/// names, label sets, or determinism classification.
struct Metric {
    name: &'static str,
    help: &'static str,
    kind: &'static str,
    deterministic: bool,
    value: Value,
}

fn dispatch_items() -> Vec<(String, u64)> {
    let mut items: Vec<(String, u64)> = TraceCategory::ALL
        .iter()
        .map(|c| (c.name().to_owned(), SCHED_DISPATCHES[*c as usize].get()))
        .collect();
    items.push(("untraced".to_owned(), SCHED_DISPATCHES[UNTRACED].get()));
    items
}

fn labeled_from<const N: usize>(labels: [&str; N], cells: &[Cell; N]) -> Vec<(String, u64)> {
    labels.iter().zip(cells).map(|(l, c)| ((*l).to_owned(), c.get())).collect()
}

/// Reads every cell into the fixed metric catalogue.
fn collect() -> Vec<Metric> {
    let counter = |name, help, cell: &Cell| Metric {
        name,
        help,
        kind: "counter",
        deterministic: true,
        value: Value::Int(cell.get()),
    };
    vec![
        Metric {
            name: "malsim_sched_dispatches_total",
            help: "Events dispatched by the kernel scheduler, by trace-category attribution.",
            kind: "counter",
            deterministic: true,
            value: Value::Labeled { key: "category", items: dispatch_items() },
        },
        Metric {
            name: "malsim_sched_queue_depth_max",
            help: "Largest pre-dispatch pending-event queue depth observed in any simulation.",
            kind: "gauge",
            deterministic: true,
            value: Value::Int(SCHED_QUEUE_DEPTH_MAX.get()),
        },
        // Named after the calendar queue `kernel::queue` replaced: perfbench
        // and `bench_sweep` read the family under this name.
        counter(
            "malsim_calq_tombstone_reaps_total",
            "Cancelled events physically reclaimed from the event queue.",
            &QUEUE_TOMBSTONE_REAPS,
        ),
        counter("malsim_jobs_admitted_total", "Jobs accepted by queue admission control.", &JOBS_ADMITTED),
        Metric {
            name: "malsim_jobs_rejected_total",
            help: "Jobs turned away at admission, by reason.",
            kind: "counter",
            deterministic: true,
            value: Value::Labeled { key: "reason", items: labeled_from(REJECT_REASONS, &JOBS_REJECTED) },
        },
        Metric {
            name: "malsim_jobs_queue_depth_max",
            help: "High-water mark of jobs admitted to one queue.",
            kind: "gauge",
            deterministic: true,
            value: Value::Int(JOBS_QUEUE_DEPTH_MAX.get()),
        },
        Metric {
            name: "malsim_jobs_wfq_lag",
            help: "Per-tenant virtual-time lag behind the fleet minimum at the end of a queue run.",
            kind: "gauge",
            deterministic: true,
            value: Value::Labeled {
                key: "tenant",
                items: lock(&WFQ_LAG).iter().map(|(k, v)| (k.clone(), *v)).collect(),
            },
        },
        counter(
            "malsim_jobs_cancelled_points_total",
            "Grid points marked cancelled before they ran.",
            &JOBS_CANCELLED_POINTS,
        ),
        counter(
            "malsim_points_completed_total",
            "Supervised points that completed untruncated.",
            &POINTS_COMPLETED,
        ),
        Metric {
            name: "malsim_points_truncated_total",
            help: "Supervised points cut short by the watchdog, by limit kind.",
            kind: "counter",
            deterministic: true,
            value: Value::Labeled { key: "kind", items: labeled_from(TRUNCATION_KINDS, &POINTS_TRUNCATED) },
        },
        counter(
            "malsim_points_retried_total",
            "Extra attempts burned re-running panicking points.",
            &POINTS_RETRIED,
        ),
        counter(
            "malsim_points_quarantined_total",
            "Points quarantined as poisoned after exhausting their retry budget.",
            &POINTS_QUARANTINED,
        ),
        counter(
            "malsim_points_script_faults_total",
            "Points that failed with a typed scenario-script fault.",
            &POINTS_SCRIPT_FAULTS,
        ),
        counter(
            "malsim_points_resumed_total",
            "Points restored from a checkpoint or journal instead of re-running.",
            &POINTS_RESUMED,
        ),
        counter(
            "malsim_cache_hits_total",
            "Points served a copy of another point's record from the result cache.",
            &CACHE_HITS,
        ),
        counter(
            "malsim_cache_parks_total",
            "Duplicate points parked on another job's in-flight evaluation.",
            &CACHE_PARKS,
        ),
        counter(
            "malsim_cache_promotions_total",
            "Parked duplicates promoted to evaluator after their owner's claim was orphaned.",
            &CACHE_PROMOTIONS,
        ),
        counter(
            "malsim_ckpt_lines_total",
            "Checkpoint/journal lines written (each flushed and fsynced).",
            &CKPT_LINES,
        ),
        counter(
            "malsim_ckpt_bytes_total",
            "Checkpoint/journal bytes written, including newlines.",
            &CKPT_BYTES,
        ),
        counter(
            "malsim_ckpt_damaged_lines_total",
            "Damaged (torn or hash-failed) lines skipped while replaying checkpoints and journals.",
            &CKPT_DAMAGED_LINES,
        ),
        Metric {
            name: "malsim_chaos_faults_injected_total",
            help: "Storage faults injected by the chaos backend, by kind.",
            kind: "counter",
            deterministic: true,
            value: Value::Labeled { key: "kind", items: labeled_from(CHAOS_KINDS, &CHAOS_FAULTS) },
        },
        counter(
            "malsim_ckpt_io_retries_total",
            "Transient storage faults retried with backoff by the checkpoint layer.",
            &CKPT_IO_RETRIES,
        ),
        counter(
            "malsim_ckpt_journal_quarantined_total",
            "Checkpoint/journal files quarantined after a fatal storage fault.",
            &CKPT_JOURNAL_QUARANTINED,
        ),
        counter(
            "malsim_jobs_degraded_storage_total",
            "Jobs whose journal persistence degraded under a fatal storage fault.",
            &JOBS_DEGRADED_STORAGE,
        ),
        Metric {
            name: "malsim_ckpt_fsync_micros",
            help: "Latency of each checkpoint-line or job-journal-batch fsync, in microseconds.",
            kind: "histogram",
            deterministic: false,
            value: Value::Hist {
                bounds: &FSYNC_HIST.bounds,
                counts: FSYNC_HIST.counts(),
                sum: FSYNC_HIST.sum.get(),
                count: FSYNC_HIST.count.get(),
            },
        },
    ]
}

fn metric_json(value: &Value) -> Json {
    match value {
        Value::Int(n) => Json::U64(*n),
        Value::Labeled { items, .. } => {
            Json::Obj(items.iter().map(|(k, v)| (k.clone(), Json::U64(*v))).collect())
        }
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
        collect()
            .iter()
            .filter(|m| m.deterministic)
            .map(|m| (m.name.to_owned(), metric_json(&m.value)))
            .collect(),
    )
}

/// The full snapshot: `{"deterministic": {...}, "wall": {...}}`.
pub fn snapshot() -> Json {
    let (mut det, mut wall) = (Vec::new(), Vec::new());
    for m in collect() {
        let section = if m.deterministic { &mut det } else { &mut wall };
        section.push((m.name.to_owned(), metric_json(&m.value)));
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
    for m in collect() {
        let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
        let _ = writeln!(out, "# TYPE {} {}", m.name, m.kind);
        match &m.value {
            Value::Int(n) => {
                let _ = writeln!(out, "{} {}", m.name, n);
            }
            Value::Labeled { key, items } => {
                for (label, v) in items {
                    let _ = writeln!(out, "{}{{{}=\"{}\"}} {}", m.name, key, label, v);
                }
            }
            Value::Hist { bounds, counts, sum, count } => {
                let mut cum = 0u64;
                for (i, b) in bounds.iter().enumerate() {
                    cum += counts[i];
                    let _ = writeln!(out, "{}_bucket{{le=\"{}\"}} {}", m.name, b, cum);
                }
                cum += counts[bounds.len()];
                let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", m.name, cum);
                let _ = writeln!(out, "{}_sum {}", m.name, sum);
                let _ = writeln!(out, "{}_count {}", m.name, count);
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
        assert_eq!(TRUNCATION_KINDS[truncation_index(Truncation::EventBudget)], "event_budget");
        assert_eq!(TRUNCATION_KINDS[truncation_index(Truncation::HostDeadline)], "host_deadline");
    }

    #[test]
    fn catalogue_families_are_unique_and_prefixed() {
        let metrics = collect();
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "no duplicate families");
        for m in &metrics {
            assert!(m.name.starts_with("malsim_"), "{} carries the workspace prefix", m.name);
            assert!(matches!(m.kind, "counter" | "gauge" | "histogram"), "{}", m.name);
        }
    }
}
