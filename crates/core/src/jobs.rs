//! Multi-tenant sweep job queue: admission control, budgets, cancellation,
//! and crash-tolerant journaling.
//!
//! The sweep runner ([`crate::sweep`]) evaluates one grid for one caller.
//! This layer makes that shared infrastructure safe for many concurrent,
//! mutually untrusted workloads: a [`JobSpec`] names an experiment, a grid,
//! a seed policy, a priority, and per-point limits (a [`SweepSupervisor`]);
//! a [`JobQueue`] schedules every admitted job's points onto one worker pool
//! with weighted-fair interleaving across tenants, so a hostile or runaway
//! job can slow the others but never starve or crash them. The kernel stays
//! synchronous and deterministic — all concurrency lives here.
//!
//! ## Containment
//!
//! Each point runs under the job's own [`SweepSupervisor`]
//! ([`sweep::supervised_point`]), which returns the point's durable
//! [`CheckpointRecord`]: the record the journal stores and the report
//! renders. Panics are retried at once up to the budget and then
//! quarantined as poisoned, script faults are typed and final, and the
//! per-point watchdog truncates over-budget simulations. None of these
//! kill the queue — they fold into the job's [`JobOutcome`] as a
//! [`JobStatus::Degraded`] verdict while every other tenant's work
//! completes untouched. Admission control rejects
//! over-capacity or malformed submissions up front with a typed
//! [`Rejected`] instead of queueing unbounded work.
//!
//! ## Cancellation
//!
//! Cancellation is cooperative: flipping a [`CancelToken`] (via its
//! [`JobHandle`]) marks the job's not-yet-started points cancelled at the
//! next scheduling boundary; points already in flight complete and are
//! recorded. Cancelling one job never perturbs another tenant's results —
//! their reports stay byte-identical to solo runs at any thread count.
//!
//! ## Journal and result cache
//!
//! With a journal configured, the queue journals each state transition
//! (admission, each point record, the terminal verdict) as one compact-JSON
//! line, FNV-hashed exactly like checkpoint records. The lines are group
//! committed: workers queue them under the scheduler lock in transition
//! order, and the thread that called [`JobQueue::run`] writes whatever has
//! queued with one append and one fsync, outside the lock. The file
//! therefore always holds a prefix of the line sequence — a job's admission
//! precedes its points, its terminal line follows them — and `run` returns
//! only once every line is durable or the journal is quarantined (below).
//! A `SIGKILL`'d queue resumed with the same submissions replays the
//! journal, through the same reader as a sweep checkpoint, and reproduces
//! every finished job's report byte-identically
//! without re-evaluating its points; a changed resubmission is rejected
//! with [`RejectReason::JournalMismatch`] rather than silently spliced.
//! Records are restored only for a job whose admission line survived, since
//! that line carries the identity a resubmission is checked against: a job
//! whose admission line was torn or damaged re-runs every point and
//! journals its admission again. On replay, each valid admission line
//! starts its job's history afresh, so a resume restores only the lines
//! journaled after the job's last admission, and
//! [`repair_journal`](checkpoint::repair_journal) keeps lines in file order
//! so a repaired journal replays the same.
//!
//! The journal rides through a [`StorageBackend`]
//! (see [`chaosfs`](crate::chaosfs)): transient I/O faults are retried with
//! bounded backoff, and a fatal fault (disk full, a failed fsync)
//! quarantines the journal instead of aborting the run — every grid still
//! completes, reports stay byte-identical, and the typed reason surfaces as
//! [`QueueRun::storage_degraded`] / [`JobOutcome::storage_degraded`]. Only
//! crash-tolerance for a *future* resume is lost.
//!
//! Identical work is deduplicated across tenants by a content-addressed
//! result cache: each deterministic point is addressed by the FNV-1a hash
//! of the canonical JSON of `(experiment, seed policy, effective seed,
//! event budget, grid point)`. The first submission in admission order
//! becomes the designated evaluator; duplicates park and are served a copy
//! of its record (re-indexed to their own grid slot) the moment it lands.
//! Jobs with a host-clock deadline are nondeterministic and never cached.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use malsim_kernel::sched::Watchdog;

use crate::chaosfs::{StorageBackend, StorageFault, REAL_FS};
use crate::checkpoint::{self, fnv1a64, CheckpointRecord, CheckpointWriter, JournalLine, PointStatus};
use crate::report::Json;
use crate::sweep::{self, PointRun, PoolConfig, ScriptFaultInfo, SweepCtx, SweepSupervisor};
use crate::telemetry::{self, Counter};

/// Scheduling priority of a job, expressed as a weight in the weighted-fair
/// queue: a `High` job receives 16× the dispatch share of a `Low` one when
/// both tenants have work pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Weight 1: background work, yields to everyone.
    Low,
    /// Weight 4: the default.
    #[default]
    Normal,
    /// Weight 16: latency-sensitive work.
    High,
}

impl Priority {
    /// The WFQ weight (dispatch share relative to other tenants).
    pub fn weight(&self) -> u64 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 4,
            Priority::High => 16,
        }
    }

    /// Stable lower-case label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// One virtual-time quantum; a dispatched point advances its tenant's clock
/// by `QUANTUM / weight`, so higher-weight tenants are picked more often.
const WFQ_QUANTUM: u64 = 16;

/// Per-job resource limits, all enforced without trusting the job's code:
/// every point of a job runs under its [`SweepSupervisor`]. The name is kept
/// for callers that spell the limits this way.
pub type JobBudget = SweepSupervisor;

/// How a job's points derive their seeds (see the [`crate::sweep`] module
/// docs for when each design applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedPolicy {
    /// Each point gets its own stream seed from
    /// [`SweepCtx::derived_seed`] — independent points.
    #[default]
    Derived,
    /// Every point shares the job's base seed — paired/ablation designs.
    Paired,
}

impl SeedPolicy {
    /// Stable lower-case label used in cache keys and reports.
    pub fn label(&self) -> &'static str {
        match self {
            SeedPolicy::Derived => "derived",
            SeedPolicy::Paired => "paired",
        }
    }
}

/// One unit of admission: which experiment to run, over which grid, for
/// which tenant, under which budget.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Queue-unique job id; also the journal identity of the job's records.
    pub job_id: String,
    /// Tenant name; the unit of weighted-fair scheduling.
    pub tenant: String,
    /// Stable experiment label, part of every point's stream key.
    pub experiment: &'static str,
    /// The job's base seed.
    pub base_seed: u64,
    /// How points derive their seeds.
    pub seed_policy: SeedPolicy,
    /// WFQ weight class.
    pub priority: Priority,
    /// Per-point limits.
    pub budget: SweepSupervisor,
    /// The parameter grid, one [`Json`] value per point.
    pub grid: Vec<Json>,
}

impl JobSpec {
    /// FNV-1a hash (hex) of everything that determines the job's results:
    /// experiment, base seed, seed policy, deterministic budget, and the
    /// full grid. Recorded in the journal at admission; a resumed
    /// submission whose identity differs is rejected instead of spliced.
    pub fn identity_hash(&self) -> String {
        let key = Json::obj([
            ("experiment", self.experiment.into()),
            ("base_seed", Json::U64(self.base_seed)),
            ("policy", self.seed_policy.label().into()),
            ("event_budget", self.budget.event_budget.map_or(Json::Null, Json::U64)),
            ("grid", Json::Arr(self.grid.clone())),
        ]);
        format!("{:016x}", fnv1a64(key.to_compact_string().as_bytes()))
    }

    /// The content address of one point's result: `(address, key)` where
    /// the key is the canonical JSON of everything the point's result is a
    /// pure function of, and the address is its FNV-1a hash. The stored key
    /// guards against (astronomically unlikely) address collisions.
    fn cache_key(&self, point: usize) -> (String, String) {
        let ctx = SweepCtx { experiment: self.experiment, point, base_seed: self.base_seed };
        let seed = match self.seed_policy {
            SeedPolicy::Derived => ctx.derived_seed(),
            SeedPolicy::Paired => self.base_seed,
        };
        let key = Json::obj([
            ("experiment", self.experiment.into()),
            ("policy", self.seed_policy.label().into()),
            ("seed", Json::U64(seed)),
            ("event_budget", self.budget.event_budget.map_or(Json::Null, Json::U64)),
            ("params", self.grid[point].clone()),
        ])
        .to_compact_string();
        let addr = format!("{:016x}", fnv1a64(key.as_bytes()));
        (addr, key)
    }
}

/// Why a submission was turned away at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The queue already holds its maximum number of jobs; shed load
    /// instead of queueing unbounded work.
    QueueFull {
        /// The queue's job capacity.
        capacity: usize,
    },
    /// A job with this id is already queued.
    DuplicateJobId,
    /// The grid has no points; there is nothing to run.
    EmptyGrid,
    /// The grid exceeds the per-job point cap.
    GridTooLarge {
        /// Points in the submitted grid.
        points: usize,
        /// The queue's per-job cap.
        max_points: usize,
    },
    /// On resume, the journal recorded a different identity for this job id
    /// — accepting the submission would splice unrelated results.
    JournalMismatch {
        /// The identity hash the journal recorded at admission.
        expected: String,
        /// The resubmitted spec's identity hash.
        found: String,
    },
}

/// Typed admission failure: which job, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// The rejected submission's job id.
    pub job_id: String,
    /// Why it was turned away.
    pub reason: RejectReason,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job '{}' rejected: ", self.job_id)?;
        match &self.reason {
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue is full (capacity {capacity})")
            }
            RejectReason::DuplicateJobId => write!(f, "a job with this id is already queued"),
            RejectReason::EmptyGrid => write!(f, "the grid is empty"),
            RejectReason::GridTooLarge { points, max_points } => {
                write!(f, "grid has {points} points, above the per-job cap of {max_points}")
            }
            RejectReason::JournalMismatch { expected, found } => {
                write!(
                    f,
                    "journal identity mismatch: the journal admitted {expected}, \
                     this submission hashes to {found}"
                )
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// Errors from the job queue: typed admission failures. Journal storage
/// faults are not errors — they degrade the queue instead (see
/// [`QueueRun::storage_degraded`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// A submission failed admission control.
    Rejected(Rejected),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Rejected(r) => write!(f, "{r}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Rejected(r) => Some(r),
        }
    }
}

impl From<Rejected> for JobError {
    fn from(r: Rejected) -> JobError {
        JobError::Rejected(r)
    }
}

/// Cooperative cancellation flag, checked at point boundaries.
///
/// Cancelling never interrupts a point mid-simulation: in-flight points
/// complete and are recorded; not-yet-started points are marked
/// [`PointStatus::Cancelled`] at the next scheduling boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// What a successful submission returns: the admitted id plus the job's
/// cancellation token.
#[derive(Debug, Clone)]
pub struct JobHandle {
    /// The admitted job id.
    pub job_id: String,
    /// The job's cancellation token (cloneable; flip it from anywhere).
    pub token: CancelToken,
}

impl JobHandle {
    /// Shorthand for `self.token.cancel()`.
    pub fn cancel(&self) {
        self.token.cancel();
    }
}

/// Terminal verdict of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Every point completed untruncated.
    Completed,
    /// The job finished, but at least one point was truncated, poisoned, or
    /// script-faulted — partial results, typed per point.
    Degraded,
    /// The job was cancelled; at least one point never ran.
    Cancelled,
}

impl JobStatus {
    /// Stable lower-case label used in the journal and reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Degraded => "degraded",
            JobStatus::Cancelled => "cancelled",
        }
    }

    pub(crate) fn from_label(label: &str) -> Option<JobStatus> {
        match label {
            "completed" => Some(JobStatus::Completed),
            "degraded" => Some(JobStatus::Degraded),
            "cancelled" => Some(JobStatus::Cancelled),
            _ => None,
        }
    }
}

/// Everything one job produced.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job id.
    pub job_id: String,
    /// The submitting tenant.
    pub tenant: String,
    /// The experiment label.
    pub experiment: &'static str,
    /// The job's base seed.
    pub base_seed: u64,
    /// The job's WFQ weight class.
    pub priority: Priority,
    /// The budget the job ran under (used to derive the degraded-reason
    /// breakdown in [`JobOutcome::report`]).
    pub budget: SweepSupervisor,
    /// Terminal verdict.
    pub status: JobStatus,
    /// Per-point records in point order.
    pub points: Vec<CheckpointRecord>,
    /// Points this run actually evaluated.
    pub evaluated_points: usize,
    /// Points served from the result cache (deduplicated submissions).
    pub cached_points: usize,
    /// Points restored from the journal on resume.
    pub resumed_points: usize,
    /// The typed reason journal persistence degraded during this run, if it
    /// did (shared across the queue — the journal is one file). The
    /// [`JobStatus`] stays a pure function of the point records so reports
    /// remain byte-identical under storage chaos; this field is the
    /// out-of-band "degraded, and here is why" signal.
    pub storage_degraded: Option<StorageFault>,
}

impl JobOutcome {
    fn count(&self, status: PointStatus) -> usize {
        self.points.iter().filter(|r| r.status == status).count()
    }

    fn count_truncation(&self, kind: &str) -> usize {
        self.points.iter().filter(|r| r.truncation.as_deref() == Some(kind)).count()
    }

    /// The degraded-reason breakdown: why this job is less than `completed`,
    /// diagnosable from the report alone. Every field is a pure function of
    /// the point records and the budget — a poisoned point by definition
    /// burned the full retry budget, so `retries_burned` needs no run
    /// history and survives kill/resume byte-identically.
    fn degraded_breakdown(&self) -> Json {
        let poisoned = self.count(PointStatus::Poisoned) as u64;
        Json::obj([
            ("retries_burned", Json::U64(poisoned * u64::from(self.budget.retries))),
            ("truncated_event_budget", Json::U64(self.count_truncation("event_budget") as u64)),
            ("truncated_host_deadline", Json::U64(self.count_truncation("host_deadline") as u64)),
            ("script_faults", Json::U64(self.count(PointStatus::ScriptFault) as u64)),
        ])
    }

    /// The job report. Contains only deterministic, run-history-free data
    /// (no evaluated/cached/resumed counts), so a killed-and-resumed or
    /// cache-served job renders byte-identically to a solo uninterrupted
    /// run.
    pub fn report(&self) -> Json {
        let rows = self.points.iter().map(CheckpointRecord::report_row).collect();
        Json::obj([
            ("job_id", self.job_id.as_str().into()),
            ("tenant", self.tenant.as_str().into()),
            ("experiment", self.experiment.into()),
            ("base_seed", Json::U64(self.base_seed)),
            ("priority", self.priority.label().into()),
            ("status", self.status.label().into()),
            ("points", Json::U64(self.points.len() as u64)),
            ("completed", Json::U64(self.count(PointStatus::Completed) as u64)),
            ("truncated", Json::U64(self.count(PointStatus::Truncated) as u64)),
            ("poisoned", Json::U64(self.count(PointStatus::Poisoned) as u64)),
            ("script_faults", Json::U64(self.count(PointStatus::ScriptFault) as u64)),
            ("cancelled", Json::U64(self.count(PointStatus::Cancelled) as u64)),
            ("degraded", self.degraded_breakdown()),
            ("rows", Json::Arr(rows)),
        ])
    }
}

/// Everything one queue run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueRun {
    /// Per-job outcomes in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Damaged journal lines skipped during resume.
    pub skipped_lines: usize,
    /// The typed reason journal persistence degraded during this run (a
    /// fatal load fault or a writer quarantine), if it did. The grids still
    /// completed; only crash-tolerance for a *future* resume was lost.
    pub storage_degraded: Option<StorageFault>,
}

/// Configuration for a [`JobQueue`].
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Worker-pool sizing, shared with every other parallel surface.
    pub pool: PoolConfig,
    /// Admission cap: at most this many jobs queued at once.
    pub max_jobs: usize,
    /// Admission cap: at most this many grid points per job.
    pub max_points_per_job: usize,
    /// Journal path; `None` runs without persistence.
    pub journal: Option<PathBuf>,
    /// Resume from the journal instead of truncating it.
    pub resume: bool,
    /// Storage backend for the journal; `None` is the real filesystem.
    /// Chaos soaks pass a seeded [`ChaosFs`](crate::chaosfs::ChaosFs) here.
    pub storage: Option<Arc<dyn StorageBackend>>,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig {
            pool: PoolConfig::default(),
            max_jobs: 16,
            max_points_per_job: 4096,
            journal: None,
            resume: false,
            storage: None,
        }
    }
}

/// One point handed to the queue's point function: the sweep identity, the
/// grid parameters, and the limits the point must honour when it builds its
/// simulation (the runner cannot reach inside a point).
#[derive(Debug)]
pub struct JobPoint<'a> {
    /// The owning job's id.
    pub job_id: &'a str,
    /// The owning tenant.
    pub tenant: &'a str,
    /// Sweep identity: experiment label, point index, base seed.
    pub ctx: SweepCtx,
    /// This point's grid parameters.
    pub params: &'a Json,
    /// The job's seed policy (already folded into [`JobPoint::seed`]).
    pub seed_policy: SeedPolicy,
    /// The watchdog the point's simulation must run under.
    pub watchdog: Watchdog,
}

impl JobPoint<'_> {
    /// The seed this point's scenario must use, per the job's policy.
    pub fn seed(&self) -> u64 {
        match self.seed_policy {
            SeedPolicy::Derived => self.ctx.derived_seed(),
            SeedPolicy::Paired => self.ctx.base_seed,
        }
    }
}

/// A job's usable journal content after a lenient replay.
#[derive(Debug, Clone, Default)]
struct JournalJob {
    /// The identity hash recorded at admission, if that line survived.
    identity: Option<String>,
    /// The terminal transition, if the job finished before the kill.
    terminal: Option<JobStatus>,
    /// Last valid record per point index.
    records: BTreeMap<usize, CheckpointRecord>,
}

/// What a journal replay recovered.
#[derive(Debug, Default)]
struct JournalLoad {
    jobs: BTreeMap<String, JournalJob>,
    skipped: usize,
    /// Set when the file could not be read at all: the queue degrades to a
    /// fresh start (every point re-runs) instead of failing the run.
    load_fault: Option<StorageFault>,
}

/// Replays a job journal through `backend` ([`checkpoint::replay`]).
/// Damaged lines (torn writes, failed hashes) are skipped and counted; a
/// missing file is an empty journal; a fatal read fault degrades to an
/// empty journal with the typed reason in [`JournalLoad::load_fault`].
///
/// A valid admission line starts its job's entry afresh. Lines before it
/// belong to an earlier run of that job id whose admission line was lost, so
/// no resubmission was ever checked against them.
fn load_journal(path: &Path, backend: &dyn StorageBackend) -> JournalLoad {
    let mut jobs: BTreeMap<String, JournalJob> = BTreeMap::new();
    let Ok((skipped, load_fault)) = checkpoint::replay(path, backend, |line| {
        match line {
            JournalLine::Admitted { job_id, identity } => {
                jobs.insert(job_id, JournalJob { identity: Some(identity), ..JournalJob::default() });
            }
            JournalLine::Finished { job_id, status } => {
                jobs.entry(job_id).or_default().terminal = Some(status)
            }
            // A point record's scope is its job id.
            JournalLine::Record { scope, record, .. } => {
                jobs.entry(scope).or_default().records.insert(record.point, record);
            }
        }
        Ok::<_, std::convert::Infallible>(true)
    });
    JournalLoad { jobs, skipped, load_fault }
}

/// One entry of the content-addressed result cache / claim table.
#[derive(Debug)]
struct CacheEntry {
    /// The full canonical-JSON key, kept to rule out address collisions.
    key_json: String,
    state: ClaimState,
}

#[derive(Debug)]
enum ClaimState {
    /// The designated evaluator: first `(job, point)` in admission order to
    /// claim this address. Duplicates park until it delivers.
    Owner { job: usize, point: usize },
    /// The evaluator delivered; parked duplicates copy this record
    /// (re-indexed to their own grid slot).
    Done(CheckpointRecord),
}

/// Per-job scheduler state.
#[derive(Debug, Default)]
struct JobState {
    /// Points waiting to be dispatched, in point order.
    pending: VecDeque<usize>,
    /// Points parked on another job's in-flight evaluation: `(point, addr)`.
    parked: Vec<(usize, String)>,
    /// Finished records by point index.
    records: BTreeMap<usize, CheckpointRecord>,
    /// Points currently evaluating on a worker.
    inflight: usize,
    /// The cancel token has been observed and pending work swept.
    cancel_seen: bool,
    /// All points accounted for; terminal transition written.
    done: bool,
    /// The journal already holds this job's terminal transition (resume).
    had_terminal: bool,
    evaluated: usize,
    cached: usize,
    resumed: usize,
}

/// Shared scheduler state: one mutex, held only for bookkeeping — never
/// across a point evaluation or a journal write. Each transition queues its
/// journal line here, under the lock that books it, so the queue holds the
/// lines in transition order; [`commit_journal`] writes them outside the
/// lock.
#[derive(Debug, Default)]
struct Sched {
    jobs: Vec<JobState>,
    cache: BTreeMap<String, CacheEntry>,
    /// Per-tenant virtual time: the tenant with the smallest clock is
    /// dispatched next; each dispatch advances it by `QUANTUM / weight`.
    vtime: BTreeMap<String, u64>,
    /// Rendered journal lines not yet handed to the writer, oldest first;
    /// `None` when the queue runs without a journal.
    journal: Option<Vec<String>>,
    /// Workers still running. The committer returns once this is zero and
    /// `journal` is empty.
    workers: usize,
}

impl Sched {
    fn all_done(&self) -> bool {
        self.jobs.iter().all(|j| j.done)
    }

    /// Queues the journal line of one point record.
    fn journal_record(&mut self, spec: &JobSpec, rec: &CheckpointRecord) {
        if let Some(lines) = &mut self.journal {
            lines.push(rec.to_json(&spec.job_id, spec.base_seed).to_compact_string());
        }
    }

    /// Queues the journal line of one job-state transition.
    fn journal_transition(&mut self, spec: &JobSpec, status: &str) {
        if let Some(lines) = &mut self.journal {
            lines.push(JournalLine::transition(spec, status));
        }
    }
}

fn job_status(records: &BTreeMap<usize, CheckpointRecord>) -> JobStatus {
    let mut degraded = false;
    for rec in records.values() {
        match rec.status {
            PointStatus::Cancelled => return JobStatus::Cancelled,
            PointStatus::Poisoned | PointStatus::ScriptFault | PointStatus::Truncated => degraded = true,
            PointStatus::Completed => {}
        }
    }
    if degraded {
        JobStatus::Degraded
    } else {
        JobStatus::Completed
    }
}

/// The multi-tenant job queue. Submit jobs, then [`JobQueue::run`] them all
/// to completion on one shared worker pool.
#[derive(Debug)]
pub struct JobQueue {
    cfg: QueueConfig,
    specs: Vec<JobSpec>,
    tokens: Vec<CancelToken>,
    journal_jobs: BTreeMap<String, JournalJob>,
    journal_skipped: usize,
    journal_fault: Option<StorageFault>,
}

impl JobQueue {
    /// Creates a queue; with `cfg.resume`, replays the journal up front so
    /// admission can verify resubmitted identities. A journal that cannot
    /// be read at all (a fatal storage fault) degrades to a fresh start —
    /// every point re-runs — with the typed reason carried through to
    /// [`QueueRun::storage_degraded`].
    pub fn new(cfg: QueueConfig) -> Result<JobQueue, JobError> {
        let loaded = match (&cfg.journal, cfg.resume) {
            (Some(path), true) => load_journal(path, cfg.storage.as_deref().unwrap_or(&REAL_FS)),
            _ => JournalLoad::default(),
        };
        Ok(JobQueue {
            cfg,
            specs: Vec::new(),
            tokens: Vec::new(),
            journal_jobs: loaded.jobs,
            journal_skipped: loaded.skipped,
            journal_fault: loaded.load_fault,
        })
    }

    /// Jobs admitted so far.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether no jobs have been admitted.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Admission control: bounds the queue and rejects malformed or (on
    /// resume) inconsistent submissions with a typed [`Rejected`] instead
    /// of queueing them.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobHandle, Rejected> {
        let reject = |reason| {
            Counter::JobsRejected.add_at(telemetry::reject_index(&reason), 1);
            Rejected { job_id: spec.job_id.clone(), reason }
        };
        if spec.grid.is_empty() {
            return Err(reject(RejectReason::EmptyGrid));
        }
        if spec.grid.len() > self.cfg.max_points_per_job {
            return Err(reject(RejectReason::GridTooLarge {
                points: spec.grid.len(),
                max_points: self.cfg.max_points_per_job,
            }));
        }
        if self.specs.iter().any(|s| s.job_id == spec.job_id) {
            return Err(reject(RejectReason::DuplicateJobId));
        }
        if self.specs.len() >= self.cfg.max_jobs {
            return Err(reject(RejectReason::QueueFull { capacity: self.cfg.max_jobs }));
        }
        if let Some(entry) = self.journal_jobs.get(&spec.job_id) {
            if let Some(expected) = &entry.identity {
                let found = spec.identity_hash();
                if *expected != found {
                    return Err(reject(RejectReason::JournalMismatch { expected: expected.clone(), found }));
                }
            }
        }
        let token = CancelToken::new();
        let handle = JobHandle { job_id: spec.job_id.clone(), token: token.clone() };
        self.specs.push(spec);
        self.tokens.push(token);
        Counter::JobsAdmitted.add(1);
        Counter::JobsQueueDepthMax.high_water(self.specs.len() as u64);
        Ok(handle)
    }

    /// Runs every admitted job to its terminal status and returns the
    /// outcomes in submission order.
    ///
    /// `run_point` evaluates one grid point: it must be a pure function of
    /// its [`JobPoint`] (seed from [`JobPoint::seed`], simulation run under
    /// [`JobPoint::watchdog`]) so that results are byte-identical at every
    /// worker count and safely shareable through the result cache. Panics
    /// and script faults are contained per the owning job's budget.
    ///
    /// The calling thread commits the journal in batches while the workers
    /// run, and returns once every line is written; storage faults degrade
    /// the run rather than fail it.
    pub fn run<F>(self, run_point: F) -> Result<QueueRun, JobError>
    where
        F: Fn(&JobPoint<'_>) -> Result<PointRun<Json>, ScriptFaultInfo> + Sync,
    {
        let JobQueue { cfg, specs, tokens, journal_jobs, journal_skipped, journal_fault } = self;
        let backend: &dyn StorageBackend = cfg.storage.as_deref().unwrap_or(&REAL_FS);
        let writer = cfg.journal.as_ref().map(|path| {
            if cfg.resume {
                CheckpointWriter::append(path, backend)
            } else {
                CheckpointWriter::create(path, backend)
            }
        });

        // Seed per-job state: restore journal records, register resumed
        // results in the cache, then assign every remaining point either a
        // claim (owner → pending, duplicate → parked/served) or, for
        // uncacheable jobs, straight to pending. Claims are made in
        // submission order, so the designated evaluator is deterministic.
        // Only a job whose admission line survived has had its identity
        // checked by `submit`; any other journal entry may belong to a
        // different spec, so the job starts afresh.
        let mut sched = Sched { journal: writer.as_ref().map(|_| Vec::new()), ..Sched::default() };
        for (j, spec) in specs.iter().enumerate() {
            let mut st = JobState::default();
            if let Some(entry) = journal_jobs.get(&spec.job_id).filter(|e| e.identity.is_some()) {
                st.had_terminal = entry.terminal.is_some();
                for (&idx, rec) in &entry.records {
                    if idx >= spec.grid.len() {
                        continue;
                    }
                    // Poisoned points of unfinished jobs re-run; records of
                    // finished jobs are all kept so the report reproduces.
                    if entry.terminal.is_some() || rec.status != PointStatus::Poisoned {
                        st.records.insert(idx, rec.clone());
                        st.resumed += 1;
                    }
                }
                Counter::PointsResumed.add(st.resumed as u64);
                if entry.terminal == Some(JobStatus::Cancelled) {
                    // The job was cancelled before the kill; points lost in
                    // flight stay cancelled rather than re-running.
                    for idx in 0..spec.grid.len() {
                        if let std::collections::btree_map::Entry::Vacant(slot) = st.records.entry(idx) {
                            let rec = CheckpointRecord::cancelled(idx);
                            sched.journal_record(spec, &rec);
                            slot.insert(rec);
                            Counter::JobsCancelledPoints.add(1);
                        }
                    }
                }
            } else {
                sched.journal_transition(spec, "admitted");
            }
            if spec.budget.cacheable() {
                for (&idx, rec) in &st.records {
                    if rec.status == PointStatus::Poisoned || rec.status == PointStatus::Cancelled {
                        continue;
                    }
                    let (addr, key_json) = spec.cache_key(idx);
                    sched
                        .cache
                        .entry(addr)
                        .or_insert_with(|| CacheEntry { key_json, state: ClaimState::Done(rec.clone()) });
                }
            }
            for idx in 0..spec.grid.len() {
                if st.records.contains_key(&idx) {
                    continue;
                }
                if !spec.budget.cacheable() {
                    st.pending.push_back(idx);
                    continue;
                }
                let (addr, key_json) = spec.cache_key(idx);
                match sched.cache.get(&addr) {
                    Some(e) if e.key_json == key_json => match &e.state {
                        ClaimState::Done(rec) => {
                            let mut copy = rec.clone();
                            copy.point = idx;
                            sched.journal_record(spec, &copy);
                            st.records.insert(idx, copy);
                            st.cached += 1;
                            Counter::CacheHits.add(1);
                        }
                        ClaimState::Owner { .. } => {
                            Counter::CacheParks.add(1);
                            st.parked.push((idx, addr));
                        }
                    },
                    // An address collision with different content: evaluate
                    // the point ourselves rather than serve a wrong record.
                    Some(_) => st.pending.push_back(idx),
                    None => {
                        sched.cache.insert(
                            addr,
                            CacheEntry { key_json, state: ClaimState::Owner { job: j, point: idx } },
                        );
                        st.pending.push_back(idx);
                    }
                }
            }
            sched.vtime.entry(spec.tenant.clone()).or_insert(0);
            sched.jobs.push(st);
        }

        let total_pending: usize = sched.jobs.iter().map(|s| s.pending.len()).sum();
        let threads = cfg.pool.resolve().clamp(1, total_pending.max(1));
        sched.workers = threads;
        let sched = Mutex::new(sched);
        let (work_cv, commit_cv) = (Condvar::new(), Condvar::new());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| worker(&sched, &work_cv, &commit_cv, &specs, &tokens, &run_point));
            }
            if let Some(w) = &writer {
                commit_journal(&sched, &commit_cv, w);
            }
        });

        let sched = sched.into_inner().expect("scheduler lock never held across a panic");
        // End-of-run WFQ fairness: each tenant's virtual-time lag behind the
        // fleet minimum. Final vtimes are a pure function of the dispatch
        // counts, so the gauge is deterministic for deterministic workloads.
        if let Some(&min) = sched.vtime.values().min() {
            for (tenant, &vt) in &sched.vtime {
                telemetry::wfq_lag_set(tenant, vt - min);
            }
        }
        // Storage degradation is queue-wide (one journal file): a fatal load
        // fault or a writer quarantine marks every outcome with the typed
        // reason, out of band of the byte-stable reports.
        let storage_degraded = journal_fault.or_else(|| writer.and_then(|w| w.quarantine()));
        if storage_degraded.is_some() {
            Counter::JobsDegradedStorage.add(sched.jobs.len() as u64);
        }
        let outcomes = specs
            .into_iter()
            .zip(sched.jobs)
            .map(|(spec, st)| JobOutcome {
                status: job_status(&st.records),
                job_id: spec.job_id,
                tenant: spec.tenant,
                experiment: spec.experiment,
                base_seed: spec.base_seed,
                priority: spec.priority,
                budget: spec.budget,
                points: st.records.into_values().collect(),
                evaluated_points: st.evaluated,
                cached_points: st.cached,
                resumed_points: st.resumed,
                storage_degraded: storage_degraded.clone(),
            })
            .collect();
        Ok(QueueRun { outcomes, skipped_lines: journal_skipped, storage_degraded })
    }
}

/// One dispatched unit of work.
#[derive(Debug, Clone, Copy)]
struct Task {
    job: usize,
    point: usize,
}

/// The group committer, run by the thread that called [`JobQueue::run`]
/// while the workers evaluate: it takes every queued journal line and
/// writes the batch outside the scheduler lock with one append, one flush
/// and one fsync ([`CheckpointWriter::append_lines`]), until every worker
/// has exited and nothing is left. Batches go out in queue order, so the
/// file always holds a prefix of the line sequence a writer called at each
/// transition would produce.
fn commit_journal(sched: &Mutex<Sched>, commit_cv: &Condvar, writer: &CheckpointWriter) {
    // A worker that unwinds with the lock held poisons it. The committer
    // reads only `journal` and `workers`, each changed in one step, so it
    // recovers the guard and drains until the exit guards have counted
    // every worker out; the scope then re-raises the worker's panic.
    let lock = || sched.lock().unwrap_or_else(PoisonError::into_inner);
    let mut batch = Vec::new();
    loop {
        let mut guard = lock();
        loop {
            let lines = guard.journal.as_mut().expect("the committer runs only with a journal");
            if !lines.is_empty() {
                std::mem::swap(lines, &mut batch);
                break;
            }
            if guard.workers == 0 {
                return;
            }
            guard = commit_cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        drop(guard);
        writer.append_lines(&batch);
        batch.clear();
    }
}

/// Counts a worker out of [`Sched::workers`] when it exits, by returning or
/// by unwinding, and wakes the committer.
struct WorkerExit<'a> {
    sched: &'a Mutex<Sched>,
    commit_cv: &'a Condvar,
}

impl Drop for WorkerExit<'_> {
    fn drop(&mut self) {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner).workers -= 1;
        self.commit_cv.notify_one();
    }
}

/// One worker's loop: settle bookkeeping, pick the weighted-fair next
/// point, evaluate it outside the lock, record it, repeat. The wait has a
/// timeout so an externally flipped cancel token is noticed even when every
/// worker is parked.
fn worker<F>(
    sched: &Mutex<Sched>,
    work_cv: &Condvar,
    commit_cv: &Condvar,
    specs: &[JobSpec],
    tokens: &[CancelToken],
    run_point: &F,
) where
    F: Fn(&JobPoint<'_>) -> Result<PointRun<Json>, ScriptFaultInfo> + Sync,
{
    let _exit = WorkerExit { sched, commit_cv };
    let mut guard = sched.lock().expect("scheduler lock never held across a panic");
    loop {
        settle(&mut guard, specs, tokens);
        // Lines queued by `complete` or `settle` wait for the committer.
        if guard.journal.as_ref().is_some_and(|lines| !lines.is_empty()) {
            commit_cv.notify_one();
        }
        if guard.all_done() {
            work_cv.notify_all();
            return;
        }
        let Some(task) = pick(&mut guard, specs) else {
            let (g, _) = work_cv
                .wait_timeout(guard, std::time::Duration::from_millis(10))
                .expect("scheduler lock never held across a panic");
            guard = g;
            continue;
        };
        drop(guard);

        let spec = &specs[task.job];
        let ctx = SweepCtx { experiment: spec.experiment, point: task.point, base_seed: spec.base_seed };
        let jp = JobPoint {
            job_id: &spec.job_id,
            tenant: &spec.tenant,
            ctx,
            params: &spec.grid[task.point],
            seed_policy: spec.seed_policy,
            watchdog: spec.budget.watchdog(),
        };
        let record = sweep::supervised_point(&ctx, &spec.budget, &jp, &|_, p: &JobPoint<'_>| run_point(p));

        guard = sched.lock().expect("scheduler lock never held across a panic");
        complete(&mut guard, specs, task, record);
        work_cv.notify_all();
    }
}

/// Weighted-fair dispatch: among jobs with pending points, pick the one
/// whose tenant has the smallest virtual time (ties broken by tenant name,
/// then submission order), then advance that tenant's clock by
/// `QUANTUM / weight`. Deterministic: at one worker the dispatch sequence
/// is a pure function of the submissions.
fn pick(sched: &mut Sched, specs: &[JobSpec]) -> Option<Task> {
    let mut best: Option<(u64, &str, usize)> = None;
    for (j, st) in sched.jobs.iter().enumerate() {
        if st.pending.is_empty() {
            continue;
        }
        let tenant = specs[j].tenant.as_str();
        let key = (sched.vtime[tenant], tenant, j);
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    let (_, tenant, j) = best?;
    let point = sched.jobs[j].pending.pop_front().expect("picked job has a pending point");
    sched.jobs[j].inflight += 1;
    *sched.vtime.get_mut(tenant).expect("every tenant has a clock") +=
        WFQ_QUANTUM / specs[j].priority.weight();
    Some(Task { job: j, point })
}

/// Records a finished evaluation: journals it, fulfils the point's claim
/// for parked duplicates (or promotes a duplicate if the result is
/// poisoned and thus unshareable), and books the record.
fn complete(sched: &mut Sched, specs: &[JobSpec], task: Task, record: CheckpointRecord) {
    let spec = &specs[task.job];
    sched.journal_record(spec, &record);
    if spec.budget.cacheable() {
        let (addr, _) = spec.cache_key(task.point);
        let owns = matches!(
            sched.cache.get(&addr),
            Some(CacheEntry { state: ClaimState::Owner { job, point }, .. })
                if *job == task.job && *point == task.point
        );
        if owns {
            if record.status == PointStatus::Poisoned {
                // A poisoned record is a quarantined panic, not a result —
                // parked duplicates must evaluate for themselves.
                promote_or_drop(sched, &addr);
            } else {
                let entry = sched.cache.get_mut(&addr).expect("claim checked above");
                entry.state = ClaimState::Done(record.clone());
            }
        }
    }
    let st = &mut sched.jobs[task.job];
    st.inflight -= 1;
    st.evaluated += 1;
    st.records.insert(task.point, record);
    telemetry::sample_boundary();
}

/// Re-assigns an orphaned claim (owner cancelled or poisoned) to the first
/// parked duplicate in submission order, moving that point back to its
/// job's pending queue; with no duplicates the claim is dropped.
fn promote_or_drop(sched: &mut Sched, addr: &str) {
    for (j, st) in sched.jobs.iter_mut().enumerate() {
        if let Some(pos) = st.parked.iter().position(|(_, a)| a == addr) {
            let (idx, _) = st.parked.remove(pos);
            st.pending.push_back(idx);
            sched.cache.get_mut(addr).expect("claim exists while parked on").state =
                ClaimState::Owner { job: j, point: idx };
            Counter::CachePromotions.add(1);
            return;
        }
    }
    sched.cache.remove(addr);
}

/// Scheduler bookkeeping, run under the lock at every boundary: sweep
/// newly cancelled jobs, serve parked duplicates whose claims delivered,
/// and finalize jobs with no work left.
fn settle(sched: &mut Sched, specs: &[JobSpec], tokens: &[CancelToken]) {
    // 1. Cancellations: mark every not-yet-started point cancelled and hand
    //    orphaned claims to parked duplicates. In-flight points finish
    //    normally (cooperative contract).
    for (j, spec) in specs.iter().enumerate() {
        if sched.jobs[j].cancel_seen || !tokens[j].is_cancelled() {
            continue;
        }
        sched.jobs[j].cancel_seen = true;
        let pending: Vec<usize> = sched.jobs[j].pending.drain(..).collect();
        let parked: Vec<(usize, String)> = std::mem::take(&mut sched.jobs[j].parked);
        Counter::JobsCancelledPoints.add((pending.len() + parked.len()) as u64);
        for &idx in pending.iter().chain(parked.iter().map(|(idx, _)| idx)) {
            let rec = CheckpointRecord::cancelled(idx);
            sched.journal_record(spec, &rec);
            sched.jobs[j].records.insert(idx, rec);
        }
        if spec.budget.cacheable() {
            for &idx in &pending {
                let (addr, _) = spec.cache_key(idx);
                let owns = matches!(
                    sched.cache.get(&addr),
                    Some(CacheEntry { state: ClaimState::Owner { job, point }, .. })
                        if *job == j && *point == idx
                );
                if owns {
                    promote_or_drop(sched, &addr);
                }
            }
        }
    }

    // 2. Serve parked duplicates whose designated evaluator delivered.
    for (j, spec) in specs.iter().enumerate() {
        let parked = std::mem::take(&mut sched.jobs[j].parked);
        let mut still = Vec::with_capacity(parked.len());
        for (idx, addr) in parked {
            match sched.cache.get(&addr) {
                Some(CacheEntry { state: ClaimState::Done(rec), .. }) => {
                    let mut copy = rec.clone();
                    copy.point = idx;
                    sched.journal_record(spec, &copy);
                    sched.jobs[j].records.insert(idx, copy);
                    sched.jobs[j].cached += 1;
                    Counter::CacheHits.add(1);
                }
                _ => still.push((idx, addr)),
            }
        }
        sched.jobs[j].parked = still;
    }

    // 3. Finalize jobs with nothing pending, parked, or in flight.
    for (j, spec) in specs.iter().enumerate() {
        let st = &sched.jobs[j];
        if st.done || !st.pending.is_empty() || !st.parked.is_empty() || st.inflight > 0 {
            continue;
        }
        let status = job_status(&st.records);
        sched.jobs[j].done = true;
        if !sched.jobs[j].had_terminal {
            sched.journal_transition(spec, status.label());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(job_id: &str, tenant: &str, points: u64) -> JobSpec {
        JobSpec {
            job_id: job_id.to_owned(),
            tenant: tenant.to_owned(),
            experiment: "jobtest",
            base_seed: 7,
            seed_policy: SeedPolicy::Derived,
            priority: Priority::Normal,
            budget: SweepSupervisor::default(),
            grid: (0..points).map(|p| Json::obj([("p", Json::U64(p))])).collect(),
        }
    }

    #[test]
    fn identity_hash_tracks_result_relevant_fields_only() {
        let a = spec("a", "t1", 3);
        let mut b = spec("b", "t2", 3);
        b.priority = Priority::High;
        b.budget.retries = 9;
        b.budget.stagger_ms = 5;
        assert_eq!(a.identity_hash(), b.identity_hash(), "id/tenant/priority/pacing are not identity");
        let mut c = spec("c", "t1", 3);
        c.base_seed = 8;
        assert_ne!(a.identity_hash(), c.identity_hash(), "the seed is identity");
        let mut d = spec("d", "t1", 3);
        d.budget.event_budget = Some(100);
        assert_ne!(a.identity_hash(), d.identity_hash(), "the event budget shapes results");
    }

    #[test]
    fn rejections_render_their_reason() {
        let cases = [
            (RejectReason::QueueFull { capacity: 2 }, "queue is full (capacity 2)"),
            (RejectReason::DuplicateJobId, "already queued"),
            (RejectReason::EmptyGrid, "grid is empty"),
            (RejectReason::GridTooLarge { points: 9, max_points: 4 }, "above the per-job cap of 4"),
            (
                RejectReason::JournalMismatch { expected: "aa".into(), found: "bb".into() },
                "journal admitted aa",
            ),
        ];
        for (reason, needle) in cases {
            let msg = Rejected { job_id: "j".into(), reason }.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
            assert!(msg.contains("job 'j' rejected"), "{msg:?}");
        }
    }

    #[test]
    fn transition_lines_self_hash_and_survive_reload() {
        let s = spec("job-a", "tenant-a", 2);
        let line = JournalLine::transition(&s, "admitted");
        let path = std::env::temp_dir().join(format!("malsim-jobs-transition-{}.jnl", std::process::id()));
        std::fs::write(&path, format!("{line}\n")).unwrap();
        let loaded = load_journal(&path, &REAL_FS);
        assert_eq!(loaded.skipped, 0);
        assert_eq!(loaded.jobs["job-a"].identity.as_deref(), Some(s.identity_hash().as_str()));
        // A tampered status fails the self-hash and is counted, not trusted.
        std::fs::write(&path, format!("{}\n", line.replace("admitted", "cancelled"))).unwrap();
        let loaded = load_journal(&path, &REAL_FS);
        assert_eq!(loaded.skipped, 1);
        assert!(loaded.jobs.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn the_committer_drains_in_order_until_every_worker_has_exited() {
        use crate::chaosfs::{ChaosFs, FaultSchedule};
        let path = std::env::temp_dir().join(format!("malsim-jobs-commit-{}.jnl", std::process::id()));
        let chaos = ChaosFs::new(FaultSchedule::quiet(3));
        let writer = CheckpointWriter::create(&path, &chaos);
        let lines: Vec<String> = (0..5).map(|i| format!("{{\"line\":{i}}}")).collect();
        let sched = Mutex::new(Sched { journal: Some(Vec::new()), workers: 1, ..Sched::default() });
        let commit_cv = Condvar::new();
        std::thread::scope(|scope| {
            let committer = scope.spawn(|| commit_journal(&sched, &commit_cv, &writer));
            let mut durable = 0;
            for line in &lines {
                sched.lock().unwrap().journal.as_mut().unwrap().push(line.clone());
                commit_cv.notify_one();
                // Wait until the line is fsynced, so the committer finds the
                // queue empty while the worker still runs: it must wait for
                // the next line, not return.
                durable += line.len() as u64 + 1;
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while chaos.durable_len_at(&path, chaos.ops()) < durable {
                    assert!(std::time::Instant::now() < deadline, "{line} was never committed");
                    std::thread::yield_now();
                }
            }
            drop(WorkerExit { sched: &sched, commit_cv: &commit_cv });
            committer.join().unwrap();
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().collect::<Vec<_>>(), lines);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn job_status_ranks_cancelled_over_degraded_over_completed() {
        let mut records = BTreeMap::new();
        records.insert(0, CheckpointRecord::cancelled(0));
        let mut poisoned = CheckpointRecord::cancelled(1);
        poisoned.status = PointStatus::Poisoned;
        let mut completed = CheckpointRecord::cancelled(2);
        completed.status = PointStatus::Completed;
        records.insert(1, poisoned.clone());
        records.insert(2, completed.clone());
        assert_eq!(job_status(&records), JobStatus::Cancelled);
        records.remove(&0);
        assert_eq!(job_status(&records), JobStatus::Degraded);
        records.remove(&1);
        assert_eq!(job_status(&records), JobStatus::Completed);
    }
}
