//! Sweep checkpointing: append-only per-point records and exact resume.
//!
//! A supervised sweep appends one line to a checkpoint file (`sweep.ckpt`)
//! after each point finishes — compact canonical JSON (the
//! [`report`] writer, so `serialize ∘ parse` is the identity)
//! carrying the point's status, its result row, an FNV-1a hash of that row,
//! and any invariant violations. A later `--resume` run replays the file,
//! verifies each record's hash, keeps the completed and truncated points,
//! and re-runs only the missing or poisoned ones.
//!
//! **Resume contract:** for a fixed `(experiment, base_seed, grid,
//! supervisor)` with only deterministic limits in force, the final
//! [`SweepOutcomes::report`] is byte-identical whether the sweep ran
//! uninterrupted or was killed and resumed any number of times, at any
//! `MALSIM_THREADS` setting. This holds because each point is a pure
//! function of its [`SweepCtx`] and the report is assembled in point order
//! from (checkpointed ∪ re-run) results, never from file order.
//!
//! Loading is lenient where an interrupted writer can leave damage (a torn
//! final line, a corrupted record) — those lines are counted in
//! [`Manifest::skipped_lines`] and the affected points simply re-run — and
//! strict where silence would be wrong: records from a different experiment
//! or base seed fail loudly with [`CheckpointError::WrongSweep`].
//!
//! ## Storage faults
//!
//! All persistence goes through a [`StorageBackend`]
//! (see [`chaosfs`](crate::chaosfs)), so checkpoint durability can be
//! soak-tested under injected I/O faults. Transient errors (`EINTR`,
//! timeouts) are retried with bounded backoff per [`IoRetryPolicy`]; fatal
//! ones never fail the sweep. A fatal *read* degrades [`Manifest::load`]
//! to an empty manifest carrying a typed [`Manifest::load_fault`] (the
//! affected points re-run); a fatal *write or fsync* quarantines the
//! [`CheckpointWriter`] — further appends become no-ops, the grid still
//! completes, and the typed reason surfaces as
//! [`SweepOutcomes::storage_fault`]. The fault is deliberately **not** part
//! of [`SweepOutcomes::report`]: reports carry only deterministic,
//! run-history-free data, and whether this particular run's disk misbehaved
//! is run history. [`repair_journal`] compacts a damaged journal down to its
//! self-hash-valid lines.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::chaosfs::{
    classify, FaultClass, IoRetryPolicy, StorageBackend, StorageFault, StorageFile, StorageOp, REAL_FS,
};
use crate::report::{self, Json};
use crate::sweep::{self, PointOutcome, PointRun, PoolConfig, SweepCtx, SweepSupervisor};
use crate::telemetry;

/// FNV-1a 64-bit hash (the checkpoint record integrity check).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Errors from checkpoint persistence and resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint file could not be created, read, or appended to.
    Io {
        /// The checkpoint path involved.
        path: PathBuf,
        /// The typed error kind, so callers and the retry classifier
        /// ([`crate::chaosfs::classify`]) never parse strings.
        kind: std::io::ErrorKind,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// The checkpoint belongs to a different sweep — resuming would splice
    /// unrelated results into the report.
    WrongSweep {
        /// The checkpoint path involved.
        path: PathBuf,
        /// The `(experiment, base_seed)` this run expected.
        expected: String,
        /// The identity found in the file.
        found: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, detail, .. } => {
                write!(f, "checkpoint i/o error on {}: {detail}", path.display())
            }
            CheckpointError::WrongSweep { path, expected, found } => {
                write!(
                    f,
                    "checkpoint {} belongs to a different sweep: expected {expected}, found {found}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Wraps a `std::io::Error` with its path, preserving the typed kind.
pub(crate) fn io_error(path: &Path, e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io { path: path.to_owned(), kind: e.kind(), detail: e.to_string() }
}

/// Terminal status of one checkpointed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointStatus {
    /// The point ran to completion.
    Completed,
    /// The watchdog cut the point short; the row is partial but consistent.
    Truncated,
    /// Every attempt panicked; there is no row. Poisoned points re-run on
    /// resume.
    Poisoned,
    /// The point's scenario script faulted with a typed error; there is no
    /// row. Unlike poisoned points these are deterministic, so the record
    /// is *kept* on resume rather than re-run.
    ScriptFault,
    /// The point's job was cancelled before the point started; there is no
    /// row. Only the [`jobs`](crate::jobs) layer produces this status —
    /// plain sweeps have no cancellation surface.
    Cancelled,
}

impl PointStatus {
    /// Stable lower-case label used in records and reports.
    pub fn label(&self) -> &'static str {
        match self {
            PointStatus::Completed => "completed",
            PointStatus::Truncated => "truncated",
            PointStatus::Poisoned => "poisoned",
            PointStatus::ScriptFault => "script_fault",
            PointStatus::Cancelled => "cancelled",
        }
    }

    pub(crate) fn from_label(label: &str) -> Option<PointStatus> {
        match label {
            "completed" => Some(PointStatus::Completed),
            "truncated" => Some(PointStatus::Truncated),
            "poisoned" => Some(PointStatus::Poisoned),
            "script_fault" => Some(PointStatus::ScriptFault),
            "cancelled" => Some(PointStatus::Cancelled),
            _ => None,
        }
    }
}

/// One point's durable record: everything needed to reconstruct its slot in
/// the final report without re-running it.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// Zero-based grid index.
    pub point: usize,
    /// Terminal status.
    pub status: PointStatus,
    /// Watchdog truncation label (see
    /// [`Truncation::label`](crate::sweep::Truncation::label)), if truncated.
    pub truncation: Option<String>,
    /// The point's result row; `None` for poisoned points.
    pub row: Option<Json>,
    /// Rendered panic payload, for poisoned points.
    pub panic_msg: Option<String>,
    /// `Debug` rendering of the point's parameters, for poisoned points.
    pub params: Option<String>,
    /// The scenario script's manifest name, for script-faulted points.
    pub script_id: Option<String>,
    /// The typed script fault rendered via `Display`, for script-faulted
    /// points.
    pub script_error: Option<String>,
    /// Fuel the script had consumed when it faulted.
    pub fuel_used: Option<u64>,
    /// Rendered invariant violations observed during the point.
    pub violations: Vec<String>,
}

impl CheckpointRecord {
    /// An empty record for a cancelled point (no row, no fault detail).
    pub(crate) fn cancelled(point: usize) -> CheckpointRecord {
        CheckpointRecord {
            point,
            status: PointStatus::Cancelled,
            truncation: None,
            row: None,
            panic_msg: None,
            params: None,
            script_id: None,
            script_error: None,
            fuel_used: None,
            violations: Vec::new(),
        }
    }

    /// Serialises the record as one journal/checkpoint object under the
    /// given `(scope, base_seed)` identity — the sweep's experiment label
    /// for checkpoints, the job id for job journals.
    pub(crate) fn to_json(&self, experiment: &str, base_seed: u64) -> Json {
        let (row, hash) = match &self.row {
            Some(row) => (row.clone(), format!("{:016x}", fnv1a64(row.to_compact_string().as_bytes()))),
            None => (Json::Null, String::new()),
        };
        Json::obj([
            ("experiment", experiment.into()),
            ("base_seed", Json::U64(base_seed)),
            ("point", Json::U64(self.point as u64)),
            ("status", self.status.label().into()),
            ("truncation", self.truncation.clone().into()),
            ("hash", hash.into()),
            ("row", row),
            ("panic_msg", self.panic_msg.clone().into()),
            ("params", self.params.clone().into()),
            ("script_id", self.script_id.clone().into()),
            ("script_error", self.script_error.clone().into()),
            ("fuel_used", self.fuel_used.map_or(Json::Null, Json::U64)),
            ("violations", Json::Arr(self.violations.iter().map(|v| v.as_str().into()).collect())),
        ])
    }

    /// The point's row in a sweep or job report: the record's durable fields
    /// without its journal identity and hash, so a report reads the same
    /// whether the point ran or was restored.
    pub(crate) fn report_row(&self) -> Json {
        Json::obj([
            ("point", Json::U64(self.point as u64)),
            ("status", self.status.label().into()),
            ("truncation", self.truncation.clone().into()),
            ("row", self.row.clone().unwrap_or(Json::Null)),
            ("panic_msg", self.panic_msg.clone().into()),
            ("params", self.params.clone().into()),
            ("script_id", self.script_id.clone().into()),
            ("script_error", self.script_error.clone().into()),
            ("fuel_used", self.fuel_used.map_or(Json::Null, Json::U64)),
            ("violations", Json::Arr(self.violations.iter().map(|v| v.as_str().into()).collect())),
        ])
    }

    /// Parses one checkpoint line. `Ok(None)` means the line is damaged or
    /// stale (skip and re-run the point); `Err` means it belongs to another
    /// sweep entirely.
    pub(crate) fn from_line(
        line: &str,
        path: &Path,
        experiment: &str,
        base_seed: u64,
    ) -> Result<Option<CheckpointRecord>, CheckpointError> {
        let Ok(v) = report::parse(line) else { return Ok(None) };
        let (Some(exp), Some(seed)) =
            (v.get("experiment").and_then(Json::as_str), v.get("base_seed").and_then(Json::as_u64))
        else {
            return Ok(None);
        };
        if exp != experiment || seed != base_seed {
            return Err(CheckpointError::WrongSweep {
                path: path.to_owned(),
                expected: format!("({experiment}, seed {base_seed})"),
                found: format!("({exp}, seed {seed})"),
            });
        }
        let (Some(point), Some(status), Some(hash)) = (
            v.get("point").and_then(Json::as_u64),
            v.get("status").and_then(Json::as_str).and_then(PointStatus::from_label),
            v.get("hash").and_then(Json::as_str),
        ) else {
            return Ok(None);
        };
        let row = match v.get("row") {
            Some(Json::Null) | None => None,
            Some(row) => Some(row.clone()),
        };
        // Integrity gate: a record whose row does not hash to its recorded
        // digest (torn write, manual edit) is treated as absent.
        let hash_ok = match &row {
            Some(row) => hash == format!("{:016x}", fnv1a64(row.to_compact_string().as_bytes())),
            None => hash.is_empty(),
        };
        if !hash_ok {
            return Ok(None);
        }
        let strings = |key: &str| -> Vec<String> {
            match v.get(key) {
                Some(Json::Arr(items)) => items.iter().filter_map(Json::as_str).map(str::to_owned).collect(),
                _ => Vec::new(),
            }
        };
        Ok(Some(CheckpointRecord {
            point: point as usize,
            status,
            truncation: v.get("truncation").and_then(Json::as_str).map(str::to_owned),
            row,
            panic_msg: v.get("panic_msg").and_then(Json::as_str).map(str::to_owned),
            params: v.get("params").and_then(Json::as_str).map(str::to_owned),
            script_id: v.get("script_id").and_then(Json::as_str).map(str::to_owned),
            script_error: v.get("script_error").and_then(Json::as_str).map(str::to_owned),
            fuel_used: v.get("fuel_used").and_then(Json::as_u64),
            violations: strings("violations"),
        }))
    }
}

/// The usable content of a checkpoint file after a lenient replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// Last valid record per point index.
    pub records: BTreeMap<usize, CheckpointRecord>,
    /// Lines that were torn, corrupt, or failed their hash check.
    pub skipped_lines: usize,
    /// The typed reason the file could not be read at all, if loading
    /// degraded to a fresh start on a fatal storage fault.
    pub load_fault: Option<StorageFault>,
}

/// Reads `path` through `backend`, retrying transient faults with bounded
/// backoff. `Ok(None)` is a missing file; a fatal fault is returned typed.
pub(crate) fn read_with_retry(
    path: &Path,
    backend: &dyn StorageBackend,
) -> Result<Option<String>, StorageFault> {
    let policy = IoRetryPolicy::default();
    let mut attempt = 0u32;
    loop {
        match backend.read_to_string(path) {
            Ok(text) => return Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) if classify(e.kind()) == FaultClass::Transient && policy.should_retry(attempt) => {
                telemetry::ckpt_io_retry();
                std::thread::sleep(std::time::Duration::from_millis(policy.backoff_ms(attempt)));
                attempt += 1;
            }
            Err(e) => {
                return Err(StorageFault {
                    op: StorageOp::Read,
                    kind: e.kind(),
                    detail: e.to_string(),
                    retries: attempt,
                })
            }
        }
    }
}

impl Manifest {
    /// Replays `path` through `backend` ([`REAL_FS`] for the real
    /// filesystem). A missing file is an empty manifest (fresh start);
    /// damaged lines are skipped and counted; a record from a different
    /// `(experiment, base_seed)` is a hard [`CheckpointError::WrongSweep`].
    ///
    /// Transient read faults are retried with bounded backoff; a fatal one
    /// does **not** fail the resume — it degrades to an empty manifest with
    /// the typed reason in [`Manifest::load_fault`], so every point simply
    /// re-runs and the report still reproduces.
    pub fn load(
        path: &Path,
        backend: &dyn StorageBackend,
        experiment: &str,
        base_seed: u64,
    ) -> Result<Manifest, CheckpointError> {
        let text = match read_with_retry(path, backend) {
            Ok(Some(text)) => text,
            Ok(None) => return Ok(Manifest::default()),
            Err(fault) => {
                telemetry::ckpt_journal_quarantined();
                return Ok(Manifest { load_fault: Some(fault), ..Manifest::default() });
            }
        };
        let mut manifest = Manifest::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match CheckpointRecord::from_line(line, path, experiment, base_seed)? {
                Some(rec) => {
                    manifest.records.insert(rec.point, rec);
                }
                None => manifest.skipped_lines += 1,
            }
        }
        telemetry::ckpt_damaged_lines(manifest.skipped_lines as u64);
        Ok(manifest)
    }
}

/// Append-only checkpoint writer, safe to share across sweep workers.
///
/// The file lock is held only while serialising one already-computed record
/// — never across user code — so a panicking point cannot poison it.
///
/// The writer absorbs storage faults instead of failing the sweep: transient
/// errors are retried with bounded backoff, and a fatal one (a failed fsync
/// above all) **quarantines** the journal — the file handle is dropped,
/// every later append is a silent no-op, and the typed reason is available
/// from [`CheckpointWriter::quarantine`]. Losing persistence degrades a
/// future resume, never the run in progress.
#[derive(Debug)]
pub struct CheckpointWriter {
    path: PathBuf,
    policy: IoRetryPolicy,
    inner: Mutex<WriterState>,
}

#[derive(Debug)]
struct WriterState {
    /// `None` once quarantined.
    file: Option<Box<dyn StorageFile>>,
    /// The fault that quarantined this writer, if any.
    quarantined: Option<StorageFault>,
    /// A failed append attempt may have left torn bytes at the end of the
    /// file; the next attempt starts with a newline to terminate them so
    /// the fresh line parses (the loader skips and counts the junk).
    dirty_tail: bool,
}

/// Appends the whole buffer, looping over legal short writes.
fn append_fully(file: &mut dyn StorageFile, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match file.append(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(std::io::ErrorKind::WriteZero, "append accepted zero bytes"))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Makes `framed` durable: append + flush with transient retry, then one
/// fsync. `framed` is one or more lines, each ending in `\n`, so a batch of
/// lines costs the same single fsync as one line. A failed fsync is
/// **always** fatal whatever its kind — after it the kernel page-cache state
/// is unknowable, so a retried fsync that "works" could still silently drop
/// the lines (the fsyncgate lesson).
fn write_durable_lines(
    st: &mut WriterState,
    policy: &IoRetryPolicy,
    framed: &[u8],
) -> Result<(), StorageFault> {
    let mut attempt = 0u32;
    loop {
        let healed;
        let buf = if st.dirty_tail {
            healed = [b"\n", framed].concat();
            &healed[..]
        } else {
            framed
        };
        let file = st.file.as_mut().expect("caller checks quarantine before writing");
        match append_fully(file.as_mut(), buf).and_then(|()| file.flush()) {
            Ok(()) => {}
            Err(e) => {
                // Bytes may have landed before the error; mark the tail
                // dirty so a retry self-heals the line framing.
                st.dirty_tail = true;
                if classify(e.kind()) == FaultClass::Transient && policy.should_retry(attempt) {
                    telemetry::ckpt_io_retry();
                    std::thread::sleep(std::time::Duration::from_millis(policy.backoff_ms(attempt)));
                    attempt += 1;
                    continue;
                }
                return Err(StorageFault {
                    op: StorageOp::Append,
                    kind: e.kind(),
                    detail: e.to_string(),
                    retries: attempt,
                });
            }
        }
        // Time only the durability syscall, and only when telemetry is armed
        // (`Instant::now` is not free on the unarmed path).
        let started = telemetry::armed().then(std::time::Instant::now);
        match file.fsync() {
            Ok(()) => {
                if let Some(t) = started {
                    telemetry::ckpt_fsync_micros(t.elapsed().as_micros() as u64);
                }
                st.dirty_tail = false;
                return Ok(());
            }
            Err(e) => {
                return Err(StorageFault {
                    op: StorageOp::Fsync,
                    kind: e.kind(),
                    detail: e.to_string(),
                    retries: attempt,
                })
            }
        }
    }
}

impl CheckpointWriter {
    /// Creates (or truncates) the checkpoint file for a fresh sweep, through
    /// `backend` ([`REAL_FS`] for the real filesystem). Infallible: a fatal
    /// open fault yields an already-quarantined writer (the sweep runs
    /// without persistence) rather than an error.
    pub fn create(path: &Path, backend: &dyn StorageBackend) -> CheckpointWriter {
        CheckpointWriter::open(path, backend, false)
    }

    /// Opens the checkpoint file for appending (creating it if missing), for
    /// a resumed sweep, with the same degrade-instead-of-fail contract as
    /// [`CheckpointWriter::create`].
    pub fn append(path: &Path, backend: &dyn StorageBackend) -> CheckpointWriter {
        CheckpointWriter::open(path, backend, true)
    }

    fn open(path: &Path, backend: &dyn StorageBackend, append: bool) -> CheckpointWriter {
        let policy = IoRetryPolicy::default();
        let mut attempt = 0u32;
        let state = loop {
            let opened = if append { backend.open_append(path) } else { backend.create(path) };
            match opened {
                Ok(file) => break WriterState { file: Some(file), quarantined: None, dirty_tail: false },
                Err(e) if classify(e.kind()) == FaultClass::Transient && policy.should_retry(attempt) => {
                    telemetry::ckpt_io_retry();
                    std::thread::sleep(std::time::Duration::from_millis(policy.backoff_ms(attempt)));
                    attempt += 1;
                }
                Err(e) => {
                    telemetry::ckpt_journal_quarantined();
                    break WriterState {
                        file: None,
                        quarantined: Some(StorageFault {
                            op: if append { StorageOp::Open } else { StorageOp::Create },
                            kind: e.kind(),
                            detail: e.to_string(),
                            retries: attempt,
                        }),
                        dirty_tail: false,
                    };
                }
            }
        };
        CheckpointWriter { path: path.to_owned(), policy, inner: Mutex::new(state) }
    }

    /// The fault that quarantined this writer, if storage failed fatally.
    pub fn quarantine(&self) -> Option<StorageFault> {
        self.inner.lock().expect("checkpoint lock never held across user code").quarantined.clone()
    }

    /// The journal path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record as a single compact-JSON line, flushed **and
    /// fsynced**: once this returns, the record survives a `SIGKILL` — or a
    /// power cut — landing immediately after. A kill mid-call can tear at
    /// most the line in flight, which the lenient loader skips and counts.
    pub fn record(&self, experiment: &str, base_seed: u64, rec: &CheckpointRecord) {
        self.append_json(&rec.to_json(experiment, base_seed));
    }

    /// Appends one arbitrary record as a single compact-JSON line with the
    /// same durability contract as [`CheckpointWriter::record`]: the
    /// one-line case of the batch append the job journal commits through.
    /// Storage faults never surface: a fatal one quarantines the writer
    /// (see [`CheckpointWriter::quarantine`]).
    pub fn append_json(&self, record: &Json) {
        self.append_lines(std::slice::from_ref(&record.to_compact_string()));
    }

    /// Appends `lines` (compact JSON, one record each, no newlines) as one
    /// group commit: a single append, flush and **fsync** for the whole
    /// batch. Once this returns, every line survives a `SIGKILL` or a power
    /// cut landing immediately after. A kill mid-call can tear the batch at
    /// any byte, leaving a prefix of its lines and at most one torn line,
    /// which the lenient loader skips and counts. An empty batch does
    /// nothing.
    ///
    /// Storage faults never surface: transients are retried per the
    /// writer's [`IoRetryPolicy`], and a fatal fault quarantines the writer,
    /// which drops this batch and every later one (see
    /// [`CheckpointWriter::quarantine`]).
    pub(crate) fn append_lines(&self, lines: &[String]) {
        if lines.is_empty() {
            return;
        }
        let mut framed = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            framed.extend_from_slice(line.as_bytes());
            framed.push(b'\n');
        }
        let mut st = self.inner.lock().expect("checkpoint lock never held across user code");
        if st.quarantined.is_some() {
            return;
        }
        match write_durable_lines(&mut st, &self.policy, &framed) {
            Ok(()) => {
                for line in lines {
                    telemetry::ckpt_line_written(line.len() as u64 + 1);
                }
            }
            Err(fault) => {
                st.file = None;
                st.quarantined = Some(fault);
                telemetry::ckpt_journal_quarantined();
            }
        }
    }
}

/// Validates a self-hashed journal object: its `hash` field must equal the
/// FNV-1a hash of the object with that field blanked. Job-state transitions
/// are hashed this way, mirroring the row hash on point records.
pub(crate) fn self_hash_valid(v: &Json) -> bool {
    let (Json::Obj(pairs), Some(hash)) = (v, v.get("hash").and_then(Json::as_str)) else {
        return false;
    };
    let blanked = Json::Obj(
        pairs
            .iter()
            .map(|(k, val)| {
                let val = if k == "hash" { Json::Str(String::new()) } else { val.clone() };
                (k.clone(), val)
            })
            .collect(),
    );
    hash == format!("{:016x}", fnv1a64(blanked.to_compact_string().as_bytes()))
}

/// Classifies one journal/checkpoint line: `Some(key)` if the line is
/// self-consistent (its hash validates), where equal keys mean "the same
/// logical slot" — the last valid line per key is the journal's truth.
/// `None` means the line is damaged (torn, tampered, unparseable) and
/// contributes nothing.
///
/// Keys: point records map to `point/<scope>/<seed>/<index>`; a job's
/// admission transition to `transition/<job>/admitted`; its terminal
/// transition to `transition/<job>/terminal`. The durability attestation in
/// `examples/chaos_soak.rs` uses the same keys to prove no fsynced record
/// was lost across a crash.
pub fn journal_line_key(line: &str) -> Option<String> {
    let v = report::parse(line).ok()?;
    if v.get("kind").and_then(Json::as_str) == Some("transition") {
        if !self_hash_valid(&v) {
            return None;
        }
        let job_id = v.get("job_id").and_then(Json::as_str)?;
        let status = v.get("status").and_then(Json::as_str)?;
        let slot = if status == "admitted" { "admitted" } else { "terminal" };
        return Some(format!("transition/{job_id}/{slot}"));
    }
    let (scope, seed) =
        (v.get("experiment").and_then(Json::as_str)?, v.get("base_seed").and_then(Json::as_u64)?);
    // Parse under the line's own identity: the key namespaces the scope, so
    // records from different sweeps/jobs can share a file (the job journal).
    let rec = CheckpointRecord::from_line(line, Path::new(""), scope, seed).ok()??;
    Some(format!("point/{scope}/{seed}/{}", rec.point))
}

/// What [`repair_journal`] did to the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairSummary {
    /// Non-empty lines examined.
    pub lines_seen: usize,
    /// Lines kept (one per logical slot, the last valid line winning).
    pub kept: usize,
    /// Lines dropped: damaged, or superseded by a later line for the slot.
    pub dropped: usize,
    /// File size before the repair, in bytes.
    pub bytes_before: u64,
    /// File size after the repair, in bytes.
    pub bytes_after: u64,
}

/// Repairs and compacts a journal in place, through `backend` ([`REAL_FS`]
/// for the real filesystem): keeps only self-hash-valid lines, collapses
/// each logical slot (see [`journal_line_key`]) to its last valid line, and
/// atomically renames the rewritten file over the original. Slot order
/// follows first appearance, so admissions still precede their records.
///
/// Unlike the lenient loaders this returns real errors: a repair that
/// cannot read, durably write, or rename has repaired nothing.
pub fn repair_journal(path: &Path, backend: &dyn StorageBackend) -> Result<RepairSummary, CheckpointError> {
    let text = match read_with_retry(path, backend) {
        Ok(Some(text)) => text,
        Ok(None) => {
            let e = std::io::Error::new(std::io::ErrorKind::NotFound, "no journal to repair");
            return Err(io_error(path, &e));
        }
        Err(fault) => {
            let e = std::io::Error::new(fault.kind, fault.detail);
            return Err(io_error(path, &e));
        }
    };
    let mut order: Vec<String> = Vec::new();
    let mut slots: BTreeMap<String, &str> = BTreeMap::new();
    let mut lines_seen = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        lines_seen += 1;
        let Some(key) = journal_line_key(line) else { continue };
        if !slots.contains_key(&key) {
            order.push(key.clone());
        }
        slots.insert(key, line);
    }
    let mut compacted = String::with_capacity(text.len());
    for key in &order {
        compacted.push_str(slots[key]);
        compacted.push('\n');
    }
    // Write the compacted journal beside the original, fsync it, then
    // atomically rename it into place — a crash mid-repair leaves either
    // the old file or the new one, never a mix.
    let staging = path.with_extension("repair");
    let fault_err = |fault: StorageFault| {
        let e = std::io::Error::new(fault.kind, fault.detail);
        io_error(&staging, &e)
    };
    let policy = IoRetryPolicy::default();
    let mut st = match backend.create(&staging) {
        Ok(file) => WriterState { file: Some(file), quarantined: None, dirty_tail: false },
        Err(e) => return Err(io_error(&staging, &e)),
    };
    write_durable_lines(&mut st, &policy, compacted.as_bytes()).map_err(fault_err)?;
    drop(st);
    backend.rename(&staging, path).map_err(|e| io_error(path, &e))?;
    Ok(RepairSummary {
        lines_seen,
        kept: order.len(),
        dropped: lines_seen - order.len(),
        bytes_before: text.len() as u64,
        bytes_after: compacted.len() as u64,
    })
}

/// One point's slot in the final sweep report.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReport {
    /// The durable fields (shared with the checkpoint record).
    pub record: CheckpointRecord,
    /// Whether this slot was restored from the checkpoint rather than run
    /// in this invocation. Not part of the report payload.
    pub resumed: bool,
}

/// Everything a checkpointed sweep produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcomes {
    /// Stable experiment label.
    pub experiment: &'static str,
    /// The sweep's base seed.
    pub base_seed: u64,
    /// Per-point results in point order.
    pub points: Vec<PointReport>,
    /// How many points were restored from the checkpoint.
    pub resumed_points: usize,
    /// Damaged checkpoint lines that were skipped during load.
    pub skipped_lines: usize,
    /// The typed reason checkpoint persistence degraded during this run (a
    /// fatal load fault or a writer quarantine), if it did. Deliberately
    /// **not** part of [`SweepOutcomes::report`]: the report carries only
    /// deterministic, run-history-free data, and this is run history.
    pub storage_fault: Option<StorageFault>,
}

impl SweepOutcomes {
    fn count(&self, status: PointStatus) -> usize {
        self.points.iter().filter(|p| p.record.status == status).count()
    }

    /// The sweep report. Contains only deterministic, run-history-free data
    /// (no attempt counts, no resumed-from markers), so an interrupted-and-
    /// resumed sweep renders byte-identically to an uninterrupted one.
    pub fn report(&self) -> Json {
        let rows = self.points.iter().map(|p| p.record.report_row()).collect();
        Json::obj([
            ("experiment", self.experiment.into()),
            ("base_seed", Json::U64(self.base_seed)),
            ("points", Json::U64(self.points.len() as u64)),
            ("completed", Json::U64(self.count(PointStatus::Completed) as u64)),
            ("truncated", Json::U64(self.count(PointStatus::Truncated) as u64)),
            ("poisoned", Json::U64(self.count(PointStatus::Poisoned) as u64)),
            ("script_faults", Json::U64(self.count(PointStatus::ScriptFault) as u64)),
            ("rows", Json::Arr(rows)),
        ])
    }
}

/// Configuration for [`run_checkpointed`].
#[derive(Debug, Clone, Copy)]
pub struct CheckpointConfig<'a> {
    /// Stable experiment label; part of every record's identity.
    pub experiment: &'static str,
    /// The sweep's base seed; part of every record's identity.
    pub base_seed: u64,
    /// Worker-pool sizing (see [`PoolConfig`]).
    pub pool: PoolConfig,
    /// Per-point supervision policy.
    pub supervisor: SweepSupervisor,
    /// The checkpoint file.
    pub path: &'a Path,
    /// Resume from `path` instead of truncating it.
    pub resume: bool,
    /// Storage backend for the checkpoint file; `None` is the real
    /// filesystem. Chaos soaks pass a seeded
    /// [`ChaosFs`](crate::chaosfs::ChaosFs) here.
    pub backend: Option<&'a dyn StorageBackend>,
}

pub(crate) fn outcome_record(point: usize, outcome: PointOutcome<Json>) -> CheckpointRecord {
    match outcome {
        PointOutcome::Completed { run, .. } => {
            let PointRun { result, truncation, violations } = run;
            CheckpointRecord {
                point,
                status: if truncation.is_some() { PointStatus::Truncated } else { PointStatus::Completed },
                truncation: truncation.map(|t| t.label().to_owned()),
                row: Some(result),
                panic_msg: None,
                params: None,
                script_id: None,
                script_error: None,
                fuel_used: None,
                violations: violations.iter().map(|v| v.to_string()).collect(),
            }
        }
        PointOutcome::Poisoned { panic_msg, params, .. } => CheckpointRecord {
            point,
            status: PointStatus::Poisoned,
            truncation: None,
            row: None,
            panic_msg: Some(panic_msg),
            params: Some(params),
            script_id: None,
            script_error: None,
            fuel_used: None,
            violations: Vec::new(),
        },
        PointOutcome::ScriptFault { script_id, error, fuel_used, .. } => CheckpointRecord {
            point,
            status: PointStatus::ScriptFault,
            truncation: None,
            row: None,
            panic_msg: None,
            params: None,
            script_id: Some(script_id),
            script_error: Some(error),
            fuel_used: Some(fuel_used),
            violations: Vec::new(),
        },
    }
}

/// Runs a supervised sweep with per-point checkpointing (and, with
/// `cfg.resume`, exact resume — see the module docs for the contract).
///
/// `run_point` receives the **original** grid index in its [`SweepCtx`] even
/// on a resumed run that only re-runs a subset, so per-point seeds never
/// shift. It returns the point's report row as [`Json`] inside a
/// [`PointRun`]; panics are quarantined per the supervisor's retry budget.
///
/// A point can instead fail with a typed script fault. It is recorded as
/// [`PointStatus::ScriptFault`] after a single attempt — script faults are
/// deterministic, so retrying would burn the panic budget for nothing — and,
/// unlike poisoned points, the record is **kept** on resume: re-running it
/// would only reproduce the same fault. Points that cannot fault return
/// `Ok(..)`.
pub fn run_checkpointed<P, F>(
    cfg: &CheckpointConfig<'_>,
    points: &[P],
    run_point: F,
) -> Result<SweepOutcomes, CheckpointError>
where
    P: Sync + std::fmt::Debug,
    F: Fn(&SweepCtx, &P) -> Result<PointRun<Json>, sweep::ScriptFaultInfo> + Sync,
{
    let backend: &dyn StorageBackend = cfg.backend.unwrap_or(&REAL_FS);
    let manifest = if cfg.resume {
        Manifest::load(cfg.path, backend, cfg.experiment, cfg.base_seed)?
    } else {
        Manifest::default()
    };
    let mut slots: BTreeMap<usize, PointReport> = BTreeMap::new();
    for (&idx, rec) in &manifest.records {
        // Poisoned points re-run; script-faulted points are deterministic and
        // stay; records beyond the grid (a shrunk sweep) are ignored.
        if idx < points.len() && rec.status != PointStatus::Poisoned {
            slots.insert(idx, PointReport { record: rec.clone(), resumed: true });
        }
    }
    let resumed_points = slots.len();
    telemetry::points_resumed(resumed_points as u64);

    let todo: Vec<(usize, &P)> = points.iter().enumerate().filter(|(i, _)| !slots.contains_key(i)).collect();
    let writer = if cfg.resume {
        CheckpointWriter::append(cfg.path, backend)
    } else {
        CheckpointWriter::create(cfg.path, backend)
    };
    let supervisor = cfg.supervisor;
    let fresh = sweep::run(cfg.experiment, cfg.base_seed, &todo, cfg.pool.resolve(), |_, &(orig, p)| {
        let ctx = SweepCtx { experiment: cfg.experiment, point: orig, base_seed: cfg.base_seed };
        let record = outcome_record(orig, sweep::supervised_point(&ctx, &supervisor, p, &run_point));
        writer.record(cfg.experiment, cfg.base_seed, &record);
        telemetry::sample_boundary();
        record
    });
    for record in fresh {
        slots.insert(record.point, PointReport { record, resumed: false });
    }

    Ok(SweepOutcomes {
        experiment: cfg.experiment,
        base_seed: cfg.base_seed,
        points: slots.into_values().collect(),
        resumed_points,
        skipped_lines: manifest.skipped_lines,
        storage_fault: manifest.load_fault.or_else(|| writer.quarantine()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("malsim-ckpt-{tag}-{}.ckpt", std::process::id()))
    }

    fn row(point: usize) -> Json {
        Json::obj([("point", Json::U64(point as u64)), ("value", Json::U64(point as u64 * 10))])
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let path = temp_path("roundtrip");
        let writer = CheckpointWriter::create(&path, &REAL_FS);
        let recs = [
            CheckpointRecord {
                point: 0,
                status: PointStatus::Completed,
                truncation: None,
                row: Some(row(0)),
                panic_msg: None,
                params: None,
                script_id: None,
                script_error: None,
                fuel_used: None,
                violations: vec![],
            },
            CheckpointRecord {
                point: 1,
                status: PointStatus::Truncated,
                truncation: Some("event_budget".into()),
                row: Some(row(1)),
                panic_msg: None,
                params: None,
                script_id: None,
                script_error: None,
                fuel_used: None,
                violations: vec!["invariant 'x' violated".into()],
            },
            CheckpointRecord {
                point: 2,
                status: PointStatus::Poisoned,
                truncation: None,
                row: None,
                panic_msg: Some("boom".into()),
                params: Some("2".into()),
                script_id: None,
                script_error: None,
                fuel_used: None,
                violations: vec![],
            },
            CheckpointRecord {
                point: 3,
                status: PointStatus::ScriptFault,
                truncation: None,
                row: None,
                panic_msg: None,
                params: None,
                script_id: Some("bomb.flua".into()),
                script_error: Some("script exceeded its memory budget (70000 > 65536 bytes)".into()),
                fuel_used: Some(4242),
                violations: vec![],
            },
        ];
        for rec in &recs {
            writer.record("test", 7, rec);
        }
        let manifest = Manifest::load(&path, &REAL_FS, "test", 7).unwrap();
        assert_eq!(manifest.skipped_lines, 0);
        assert_eq!(manifest.records.len(), 4);
        for rec in &recs {
            assert_eq!(manifest.records[&rec.point], *rec);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn damaged_lines_are_skipped_and_last_record_wins() {
        let path = temp_path("damaged");
        let writer = CheckpointWriter::create(&path, &REAL_FS);
        let mut rec = CheckpointRecord {
            point: 0,
            status: PointStatus::Completed,
            truncation: None,
            row: Some(row(0)),
            panic_msg: None,
            params: None,
            script_id: None,
            script_error: None,
            fuel_used: None,
            violations: vec![],
        };
        writer.record("test", 7, &rec);
        rec.row = Some(row(5));
        writer.record("test", 7, &rec);
        // A torn final line and a hash-tampered record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replace("\"value\":50", "\"value\":51");
        assert_ne!(tampered, text, "tamper target must exist");
        text.push_str("{\"experiment\":\"test\",\"base_se");
        std::fs::write(&path, &text).unwrap();

        let manifest = Manifest::load(&path, &REAL_FS, "test", 7).unwrap();
        assert_eq!(manifest.skipped_lines, 1, "the torn line");
        assert_eq!(manifest.records[&0].row, Some(row(5)), "last valid record wins");

        std::fs::write(&path, &tampered).unwrap();
        let manifest = Manifest::load(&path, &REAL_FS, "test", 7).unwrap();
        assert_eq!(manifest.skipped_lines, 1, "hash mismatch drops the record");
        assert_eq!(manifest.records[&0].row, Some(row(0)), "first record survives");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_mid_line_is_counted_and_prior_records_survive() {
        let path = temp_path("set-len");
        let writer = CheckpointWriter::create(&path, &REAL_FS);
        for point in 0..3 {
            let rec = CheckpointRecord {
                point,
                status: PointStatus::Completed,
                truncation: None,
                row: Some(row(point)),
                panic_msg: None,
                params: None,
                script_id: None,
                script_error: None,
                fuel_used: None,
                violations: vec![],
            };
            writer.record("test", 7, &rec);
        }
        drop(writer);
        // Chop the file mid-way through the final line, as a SIGKILL (or a
        // power cut) landing inside the last append would.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        file.set_len(len - 20).unwrap();
        drop(file);

        let manifest = Manifest::load(&path, &REAL_FS, "test", 7).unwrap();
        assert_eq!(manifest.skipped_lines, 1, "the torn tail line is counted");
        assert_eq!(manifest.records.len(), 2, "fsynced predecessors survive intact");
        assert_eq!(manifest.records[&0].row, Some(row(0)));
        assert_eq!(manifest.records[&1].row, Some(row(1)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_sweep_is_a_hard_error() {
        let path = temp_path("wrong");
        let writer = CheckpointWriter::create(&path, &REAL_FS);
        let rec = CheckpointRecord {
            point: 0,
            status: PointStatus::Completed,
            truncation: None,
            row: Some(row(0)),
            panic_msg: None,
            params: None,
            script_id: None,
            script_error: None,
            fuel_used: None,
            violations: vec![],
        };
        writer.record("test", 7, &rec);
        let err = Manifest::load(&path, &REAL_FS, "test", 8).unwrap_err();
        assert!(matches!(err, CheckpointError::WrongSweep { .. }), "{err}");
        assert!(err.to_string().contains("different sweep"), "{err}");
        let err = Manifest::load(&path, &REAL_FS, "other", 7).unwrap_err();
        assert!(matches!(err, CheckpointError::WrongSweep { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_manifest() {
        let manifest =
            Manifest::load(Path::new("/nonexistent/never/sweep.ckpt"), &REAL_FS, "test", 7).unwrap();
        assert_eq!(manifest, Manifest::default());
    }

    #[test]
    fn checkpointed_sweep_resumes_exactly() {
        let points: Vec<u64> = (0..6).collect();
        let eval = |ctx: &SweepCtx, &p: &u64| {
            Ok(PointRun::complete(Json::obj([
                ("param", Json::U64(p)),
                ("seed", Json::U64(ctx.derived_seed())),
            ])))
        };
        let full_path = temp_path("resume-full");
        let cfg = CheckpointConfig {
            experiment: "resume",
            base_seed: 11,
            pool: PoolConfig::explicit(2),
            supervisor: SweepSupervisor::default(),
            path: &full_path,
            resume: false,
            backend: None,
        };
        let full = run_checkpointed(&cfg, &points, eval).unwrap();
        let full_report = full.report().to_canonical_string();

        // Keep only the first 3 checkpoint lines, as if killed mid-grid.
        let partial_path = temp_path("resume-partial");
        let full_text = std::fs::read_to_string(&full_path).unwrap();
        let lines: Vec<&str> = full_text.lines().take(3).collect();
        std::fs::write(&partial_path, format!("{}\n", lines.join("\n"))).unwrap();

        for threads in [1, 2, 8] {
            let seed_path = temp_path(&format!("resume-t{threads}"));
            std::fs::copy(&partial_path, &seed_path).unwrap();
            let resumed = run_checkpointed(
                &CheckpointConfig {
                    path: &seed_path,
                    resume: true,
                    pool: PoolConfig::explicit(threads),
                    ..cfg
                },
                &points,
                eval,
            )
            .unwrap();
            assert_eq!(resumed.resumed_points, 3);
            assert_eq!(
                resumed.report().to_canonical_string(),
                full_report,
                "resume must be byte-identical at threads={threads}"
            );
            std::fs::remove_file(&seed_path).unwrap();
        }
        std::fs::remove_file(&full_path).unwrap();
        std::fs::remove_file(&partial_path).unwrap();
    }

    #[test]
    fn poisoned_points_rerun_on_resume() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let points: Vec<u64> = (0..3).collect();
        let path = temp_path("poison-rerun");
        let fail = AtomicBool::new(true);
        let eval = |_: &SweepCtx, &p: &u64| {
            if p == 1 && fail.load(Ordering::SeqCst) {
                panic!("transient environment failure");
            }
            Ok(PointRun::complete(Json::U64(p)))
        };
        let cfg = CheckpointConfig {
            experiment: "poison",
            base_seed: 3,
            pool: PoolConfig::explicit(1),
            supervisor: SweepSupervisor::default(),
            path: &path,
            resume: false,
            backend: None,
        };
        let first = run_checkpointed(&cfg, &points, eval).unwrap();
        assert_eq!(first.points[1].record.status, PointStatus::Poisoned);
        assert_eq!(first.points[1].record.panic_msg.as_deref(), Some("transient environment failure"));
        assert_eq!(first.points[1].record.params.as_deref(), Some("1"));

        fail.store(false, Ordering::SeqCst);
        let second = run_checkpointed(&CheckpointConfig { resume: true, ..cfg }, &points, eval).unwrap();
        assert_eq!(second.resumed_points, 2, "completed points are kept");
        assert_eq!(second.points[1].record.status, PointStatus::Completed, "poisoned point re-ran");
        assert!(!second.points[1].resumed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn script_faults_are_kept_on_resume_and_reports_stay_byte_identical() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let points: Vec<u64> = (0..6).collect();
        let fault_runs = AtomicU32::new(0);
        let eval = |ctx: &SweepCtx, &p: &u64| {
            if p == 2 {
                fault_runs.fetch_add(1, Ordering::SeqCst);
                return Err(sweep::ScriptFaultInfo {
                    script_id: "bomb.flua".into(),
                    error: "script ran out of fuel".into(),
                    fuel_used: 20_000,
                });
            }
            Ok(PointRun::complete(Json::obj([
                ("param", Json::U64(p)),
                ("seed", Json::U64(ctx.derived_seed())),
            ])))
        };
        let full_path = temp_path("fault-full");
        let cfg = CheckpointConfig {
            experiment: "fault",
            base_seed: 23,
            pool: PoolConfig::explicit(2),
            supervisor: SweepSupervisor { retries: 5, ..SweepSupervisor::default() },
            path: &full_path,
            resume: false,
            backend: None,
        };
        let full = run_checkpointed(&cfg, &points, eval).unwrap();
        let full_report = full.report().to_canonical_string();
        assert_eq!(full.points[2].record.status, PointStatus::ScriptFault);
        assert_eq!(full.points[2].record.script_id.as_deref(), Some("bomb.flua"));
        assert_eq!(full.points[2].record.fuel_used, Some(20_000));
        assert_eq!(fault_runs.load(Ordering::SeqCst), 1, "deterministic fault: no retry burn");
        assert_eq!(full.report().get("script_faults").and_then(Json::as_u64), Some(1));

        // Truncate to the first 4 lines (which include the faulted point in
        // some interleaving or not — either way resume must reconverge).
        let partial_path = temp_path("fault-partial");
        let full_text = std::fs::read_to_string(&full_path).unwrap();
        let lines: Vec<&str> = full_text.lines().take(4).collect();
        std::fs::write(&partial_path, format!("{}\n", lines.join("\n"))).unwrap();
        let resumed =
            run_checkpointed(&CheckpointConfig { path: &partial_path, resume: true, ..cfg }, &points, eval)
                .unwrap();
        assert_eq!(
            resumed.report().to_canonical_string(),
            full_report,
            "resume with a ScriptFault record must be byte-identical"
        );
        // If the fault record survived truncation it was kept, not re-run.
        let kept_fault = lines.iter().any(|l| l.contains("script_fault"));
        let expected_runs = if kept_fault { 1 } else { 2 };
        assert_eq!(fault_runs.load(Ordering::SeqCst), expected_runs);
        std::fs::remove_file(&full_path).unwrap();
        std::fs::remove_file(&partial_path).unwrap();
    }

    #[test]
    fn fatal_read_degrades_to_an_empty_manifest_with_a_typed_fault() {
        // Reading a directory as a file is a fatal (non-NotFound) error.
        let dir = std::env::temp_dir();
        let manifest = Manifest::load(&dir, &REAL_FS, "test", 7).unwrap();
        assert!(manifest.records.is_empty());
        let fault = manifest.load_fault.expect("fatal read must surface a typed fault");
        assert_eq!(fault.op, StorageOp::Read);
        assert_ne!(fault.kind, std::io::ErrorKind::NotFound);
    }

    #[test]
    fn repairing_a_missing_journal_is_a_typed_io_error() {
        let err = repair_journal(Path::new("/nonexistent/never/sweep.ckpt"), &REAL_FS).unwrap_err();
        let CheckpointError::Io { kind, .. } = err else { panic!("expected Io, got {err}") };
        assert_eq!(kind, std::io::ErrorKind::NotFound);
    }

    #[test]
    fn fsync_failure_quarantines_the_writer_and_the_run_continues() {
        use crate::chaosfs::{ChaosFs, FaultSchedule};
        let schedule = FaultSchedule { fsync_fail_permille: 1000, ..FaultSchedule::quiet(17) };
        let chaos = ChaosFs::new(schedule);
        let path = temp_path("fsync-quarantine");
        let writer = CheckpointWriter::create(&path, &chaos);
        assert!(writer.quarantine().is_none(), "opening alone does not fsync");
        let rec = CheckpointRecord::cancelled(0);
        writer.record("test", 7, &rec);
        let fault = writer.quarantine().expect("the first fsync fails and quarantines");
        assert_eq!(fault.op, StorageOp::Fsync);
        // Later appends are silent no-ops: the run continues unpersisted.
        writer.record("test", 7, &CheckpointRecord::cancelled(1));
        assert_eq!(chaos.stats().injected.get("fsync_fail"), Some(&1), "no retried fsync");
        std::fs::remove_file(&path).unwrap();
    }

    /// A backend over [`ChaosFs`] whose files fail their second fsync, so
    /// exactly one batch is durable when the writer quarantines.
    #[derive(Debug)]
    struct SecondFsyncFails(crate::chaosfs::ChaosFs);

    #[derive(Debug)]
    struct SecondFsyncFailsFile {
        inner: Box<dyn StorageFile>,
        fsyncs: u32,
    }

    impl StorageFile for SecondFsyncFailsFile {
        fn append(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.append(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }

        fn fsync(&mut self) -> std::io::Result<()> {
            self.fsyncs += 1;
            if self.fsyncs == 2 {
                // Never reaches the chaos backend, so its shadow model keeps
                // the batch volatile.
                return Err(std::io::Error::other("second fsync fails (EIO)"));
            }
            self.inner.fsync()
        }
    }

    impl StorageBackend for SecondFsyncFails {
        fn create(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
            Ok(Box::new(SecondFsyncFailsFile { inner: self.0.create(path)?, fsyncs: 0 }))
        }

        fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
            Ok(Box::new(SecondFsyncFailsFile { inner: self.0.open_append(path)?, fsyncs: 0 }))
        }

        fn read_to_string(&self, path: &Path) -> std::io::Result<String> {
            self.0.read_to_string(path)
        }

        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.0.rename(from, to)
        }
    }

    #[test]
    fn a_failed_batch_fsync_quarantines_and_the_durable_batches_survive_repair() {
        use crate::chaosfs::{ChaosFs, FaultSchedule};
        let chaos = ChaosFs::new(FaultSchedule::quiet(19));
        let path = temp_path("batch-fsync");
        let writer = CheckpointWriter::create(&path, &SecondFsyncFails(chaos.clone()));
        let batch = |points: std::ops::Range<usize>| -> Vec<String> {
            points
                .map(|point| {
                    let rec = CheckpointRecord {
                        status: PointStatus::Completed,
                        row: Some(row(point)),
                        ..CheckpointRecord::cancelled(point)
                    };
                    rec.to_json("test", 7).to_compact_string()
                })
                .collect()
        };
        let (first, second) = (batch(0..3), batch(3..6));
        writer.append_lines(&first);
        assert!(writer.quarantine().is_none(), "the first batch's fsync succeeds");
        writer.append_lines(&second);
        let fault = writer.quarantine().expect("the second batch's fsync fails and quarantines");
        assert_eq!(fault.op, StorageOp::Fsync);
        let first_bytes: u64 = first.iter().map(|l| l.len() as u64 + 1).sum();
        assert_eq!(chaos.durable_len_at(&path, chaos.ops()), first_bytes, "only the first batch is durable");

        // Later batches are no-ops: nothing reaches the disk.
        let (ops, len) = (chaos.ops(), std::fs::metadata(&path).unwrap().len());
        writer.append_lines(&batch(6..9));
        assert_eq!(chaos.ops(), ops);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);

        // A power cut now leaves the first batch; repair keeps exactly it.
        let crashed = temp_path("batch-fsync-crash");
        std::fs::write(&crashed, chaos.crash_image(&path, chaos.ops(), false).unwrap()).unwrap();
        let summary = repair_journal(&crashed, &REAL_FS).unwrap();
        assert_eq!((summary.kept, summary.dropped), (3, 0));
        assert_eq!(std::fs::read_to_string(&crashed).unwrap().lines().collect::<Vec<_>>(), first);
        // With a torn tail the cut may also keep some unsynced lines, but
        // only a prefix of the failed batch, after the durable one.
        std::fs::write(&crashed, chaos.crash_image(&path, chaos.ops(), true).unwrap()).unwrap();
        repair_journal(&crashed, &REAL_FS).unwrap();
        let repaired = std::fs::read_to_string(&crashed).unwrap();
        let repaired: Vec<&str> = repaired.lines().collect();
        assert_eq!(repaired[..3], first[..]);
        assert_eq!(repaired[3..], second[..repaired.len() - 3]);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&crashed).unwrap();
    }

    #[test]
    fn disk_full_quarantines_but_the_sweep_completes() {
        use crate::chaosfs::{ChaosFs, FaultSchedule};
        let points: Vec<u64> = (0..5).collect();
        let eval = |ctx: &SweepCtx, &p: &u64| {
            Ok(PointRun::complete(Json::obj([
                ("param", Json::U64(p)),
                ("seed", Json::U64(ctx.derived_seed())),
            ])))
        };
        let clean_path = temp_path("enospc-clean");
        let cfg = CheckpointConfig {
            experiment: "enospc",
            base_seed: 29,
            pool: PoolConfig::explicit(2),
            supervisor: SweepSupervisor::default(),
            path: &clean_path,
            resume: false,
            backend: None,
        };
        let clean = run_checkpointed(&cfg, &points, eval).unwrap();
        assert!(clean.storage_fault.is_none());

        // Now the same sweep against a disk with room for ~2 records.
        let chaos = ChaosFs::new(FaultSchedule { disk_capacity: Some(300), ..FaultSchedule::quiet(5) });
        let chaos_path = temp_path("enospc-chaos");
        let full = run_checkpointed(
            &CheckpointConfig { path: &chaos_path, backend: Some(&chaos), ..cfg },
            &points,
            eval,
        )
        .unwrap();
        let fault = full.storage_fault.clone().expect("ENOSPC must quarantine");
        assert_eq!(fault.kind, std::io::ErrorKind::StorageFull);
        assert_eq!(full.points.len(), 5, "the grid still completes");
        assert_eq!(
            full.report().to_canonical_string(),
            clean.report().to_canonical_string(),
            "storage faults never perturb report bytes"
        );
        std::fs::remove_file(&clean_path).unwrap();
        std::fs::remove_file(&chaos_path).unwrap();
    }

    #[test]
    fn transient_faults_are_absorbed_and_every_record_lands() {
        use crate::chaosfs::{ChaosFs, FaultSchedule};
        let schedule = FaultSchedule {
            eintr_permille: 100,
            short_write_permille: 100,
            torn_write_permille: 100,
            ..FaultSchedule::quiet(23)
        };
        let chaos = ChaosFs::new(schedule);
        let path = temp_path("transient");
        let writer = CheckpointWriter::create(&path, &chaos);
        for point in 0..40 {
            let rec = CheckpointRecord {
                point,
                status: PointStatus::Completed,
                truncation: None,
                row: Some(row(point)),
                panic_msg: None,
                params: None,
                script_id: None,
                script_error: None,
                fuel_used: None,
                violations: vec![],
            };
            writer.record("test", 7, &rec);
        }
        assert!(writer.quarantine().is_none(), "transients alone never quarantine");
        assert!(!chaos.stats().injected.is_empty(), "this schedule injects within 40 records");
        let manifest = Manifest::load(&path, &REAL_FS, "test", 7).unwrap();
        assert_eq!(manifest.records.len(), 40, "every record survives the chaos");
        for point in 0..40 {
            assert_eq!(manifest.records[&point].row, Some(row(point)));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn repair_keeps_the_last_valid_line_per_slot_and_drops_damage() {
        let path = temp_path("repair");
        let writer = CheckpointWriter::create(&path, &REAL_FS);
        let mut rec = CheckpointRecord {
            point: 0,
            status: PointStatus::Completed,
            truncation: None,
            row: Some(row(0)),
            panic_msg: None,
            params: None,
            script_id: None,
            script_error: None,
            fuel_used: None,
            violations: vec![],
        };
        writer.record("test", 7, &rec);
        rec.row = Some(row(5));
        writer.record("test", 7, &rec);
        rec.point = 1;
        rec.row = Some(row(1));
        writer.record("test", 7, &rec);
        // Damage: a tampered duplicate of point 1 and a torn tail.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.lines().last().unwrap().replace("\"value\":10", "\"value\":11");
        text.push_str(&tampered);
        text.push('\n');
        text.push_str("{\"experiment\":\"test\",\"base_se");
        std::fs::write(&path, &text).unwrap();

        let summary = repair_journal(&path, &REAL_FS).unwrap();
        assert_eq!(summary.lines_seen, 5);
        assert_eq!(summary.kept, 2, "one line per point slot");
        assert_eq!(summary.dropped, 3, "superseded + tampered + torn");
        assert!(summary.bytes_after < summary.bytes_before);

        let repaired = std::fs::read_to_string(&path).unwrap();
        assert_eq!(repaired.lines().count(), 2);
        let manifest = Manifest::load(&path, &REAL_FS, "test", 7).unwrap();
        assert_eq!(manifest.skipped_lines, 0, "a repaired journal is fully valid");
        assert_eq!(manifest.records[&0].row, Some(row(5)), "last valid line won");
        assert_eq!(manifest.records[&1].row, Some(row(1)), "tampered duplicate lost");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_line_keys_classify_records_and_transitions() {
        let rec = CheckpointRecord::cancelled(3).to_json("job-a", 9).to_compact_string();
        assert_eq!(journal_line_key(&rec).as_deref(), Some("point/job-a/9/3"));
        assert_eq!(journal_line_key("not json"), None);
        assert_eq!(journal_line_key(&rec[..rec.len() - 4]), None, "torn lines have no key");
    }
}
