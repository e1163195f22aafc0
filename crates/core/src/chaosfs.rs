//! Deterministic storage chaos plane: injectable I/O faults behind a
//! [`StorageBackend`] seam, plus the transient/fatal classification and
//! bounded-backoff retry policy the durability layers use to survive them.
//!
//! The paper's campaigns are stories of hostile storage — wiped disks, torn
//! MBRs, half-written payloads — yet a simulator's own durability substrate
//! (checkpoints, job journals) is usually tested only against the happy path
//! plus `SIGKILL`. This module closes that gap the same way
//! [`kernel::fault::FaultPlane`](malsim_kernel::fault) does for the network:
//! a typed, seeded, reproducible fault schedule that is **zero-cost when
//! empty** — production code talks to [`RealFs`], a passthrough whose methods
//! compile down to the `std::fs` calls they replace.
//!
//! ## The backend seam
//!
//! [`StorageBackend`] covers exactly the five operations the checkpoint
//! writer and journal loader perform: `create`, `open_append`,
//! `read_to_string`, `rename`, and (on the returned [`StorageFile`])
//! `append`/`flush`/`fsync`. [`ChaosFs`] wraps the real filesystem and
//! injects typed [`IoFaultKind`]s from a seeded per-operation schedule:
//! fsync failures, short and torn writes, `ENOSPC` once a byte budget is
//! exhausted, `EINTR`, and transient open/read errors.
//!
//! ## Power-cut semantics
//!
//! `ChaosFs` additionally keeps a *shadow durability model* per file: bytes
//! become durable only when an `fsync` is acknowledged; everything newer is
//! volatile. [`ChaosFs::crash_image`] reconstructs the byte image a file
//! would hold had the process died at a given operation index — durable
//! prefix plus a deterministic torn fragment of the then-volatile tail.
//! This is *stricter* than a real `SIGKILL` drill (which leaves the page
//! cache intact): it simulates a power cut, so a writer that claims
//! durability without a completed fsync is caught, not forgiven.
//!
//! ## Classification and retry
//!
//! [`classify`] splits [`std::io::ErrorKind`] into [`FaultClass::Transient`]
//! (`EINTR`, `EWOULDBLOCK`, timeouts — worth retrying) and
//! [`FaultClass::Fatal`] (`ENOSPC`, permission errors, everything else).
//! [`IoRetryPolicy`] is the host-clock twin of
//! `net::retry::RetryPolicy`: bounded exponential backoff with a cap.
//! Fatal faults never retry; the durability layers degrade instead —
//! quarantining the journal with a typed [`StorageFault`] while the grid
//! completes (see [`checkpoint`](crate::checkpoint) and
//! [`jobs`](crate::jobs)).

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::telemetry;

// ---------------------------------------------------------------------------
// The backend seam
// ---------------------------------------------------------------------------

/// The storage operations the durability layers perform, behind one seam so
/// a chaos plane can sit between them and the real filesystem.
pub trait StorageBackend: fmt::Debug + Send + Sync {
    /// Creates (or truncates) `path` for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Opens `path` for appending, creating it if missing.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Reads the whole of `path` as UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;
    /// Renames `from` over `to` (atomic on POSIX filesystems).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
}

/// An open file handle from a [`StorageBackend`].
pub trait StorageFile: fmt::Debug + Send {
    /// Appends bytes; like [`std::io::Write::write`] it may write fewer than
    /// `buf.len()` bytes and report the count.
    fn append(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Flushes userspace buffers.
    fn flush(&mut self) -> io::Result<()>;
    /// Forces written data to stable storage (`fdatasync`).
    fn fsync(&mut self) -> io::Result<()>;
}

/// The passthrough backend: every method is the `std::fs` call it replaces.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

/// A `'static` instance of the passthrough backend, so call sites can take
/// `&REAL_FS` as the default `&dyn StorageBackend` without allocating.
pub static REAL_FS: RealFs = RealFs;

#[derive(Debug)]
struct RealFile(std::fs::File);

impl StorageFile for RealFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(&mut self.0, buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        io::Write::flush(&mut self.0)
    }

    fn fsync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl StorageBackend for RealFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(RealFile(std::fs::File::options().create(true).append(true).open(path)?)))
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
}

// ---------------------------------------------------------------------------
// Fault taxonomy, classification, retry policy
// ---------------------------------------------------------------------------

/// The typed faults [`ChaosFs`] can inject, mirroring
/// [`kernel::fault::FaultKind`](malsim_kernel::fault::FaultKind)'s idiom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// `fdatasync` fails; the volatile bytes stay volatile.
    FsyncFail,
    /// A write accepts only a prefix and reports the short count (legal
    /// under the `write(2)` contract; callers must loop).
    ShortWrite,
    /// A write lands a prefix *and* errors, leaving torn bytes behind.
    TornWrite,
    /// The byte budget is exhausted: `ENOSPC` on every further write.
    DiskFull,
    /// `EINTR`: the call wrote nothing and should simply be retried.
    Eintr,
    /// A transient open failure (anti-virus scan, NFS hiccup).
    OpenFail,
    /// A transient read failure.
    ReadFail,
}

impl IoFaultKind {
    /// Every kind, in label-table order (see
    /// [`telemetry`]'s `chaos_faults_injected{kind}`).
    pub const ALL: [IoFaultKind; 7] = [
        IoFaultKind::FsyncFail,
        IoFaultKind::ShortWrite,
        IoFaultKind::TornWrite,
        IoFaultKind::DiskFull,
        IoFaultKind::Eintr,
        IoFaultKind::OpenFail,
        IoFaultKind::ReadFail,
    ];

    /// Stable lower-case label used in telemetry and attestation reports.
    pub fn label(&self) -> &'static str {
        match self {
            IoFaultKind::FsyncFail => "fsync_fail",
            IoFaultKind::ShortWrite => "short_write",
            IoFaultKind::TornWrite => "torn_write",
            IoFaultKind::DiskFull => "disk_full",
            IoFaultKind::Eintr => "eintr",
            IoFaultKind::OpenFail => "open_fail",
            IoFaultKind::ReadFail => "read_fail",
        }
    }
}

/// Whether an I/O error is worth retrying or the layer should degrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Retry with bounded backoff; the fault is expected to clear.
    Transient,
    /// Do not retry; degrade gracefully with a typed [`StorageFault`].
    Fatal,
}

/// Classifies a [`std::io::ErrorKind`] for the storage retry loop.
///
/// `EINTR`, `EWOULDBLOCK`, and timeouts are transient; everything else —
/// `ENOSPC`, permission errors, unexpected EOF, unknown kinds — is fatal.
/// Fsync failures are *always* treated as fatal by the writer regardless of
/// kind: after a failed fsync the kernel page cache state is unknowable, so
/// retrying would claim durability the disk never promised.
pub fn classify(kind: io::ErrorKind) -> FaultClass {
    match kind {
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            FaultClass::Transient
        }
        _ => FaultClass::Fatal,
    }
}

/// Bounded exponential backoff for transient storage faults — the host-clock
/// twin of `net::retry::RetryPolicy` (same shape: base, cap, attempt bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRetryPolicy {
    /// First backoff, in host milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling, in host milliseconds.
    pub cap_ms: u64,
    /// Retries after the initial attempt.
    pub max_retries: u32,
}

impl Default for IoRetryPolicy {
    fn default() -> IoRetryPolicy {
        IoRetryPolicy { base_ms: 1, cap_ms: 16, max_retries: 4 }
    }
}

impl IoRetryPolicy {
    /// The backoff before retry `attempt` (0-based): `base · 2^attempt`,
    /// saturating, capped at `cap_ms`.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.base_ms.saturating_mul(factor).min(self.cap_ms)
    }

    /// Whether retry `attempt` (0-based) is within budget.
    pub fn should_retry(&self, attempt: u32) -> bool {
        attempt < self.max_retries
    }
}

/// The operation a [`StorageFault`] occurred on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageOp {
    /// Creating or truncating the file.
    Create,
    /// Opening for append.
    Open,
    /// Appending bytes.
    Append,
    /// Flushing userspace buffers.
    Flush,
    /// Forcing data to stable storage.
    Fsync,
    /// Reading the file back.
    Read,
    /// Renaming over the original.
    Rename,
}

impl StorageOp {
    /// Stable lower-case label used in reports and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            StorageOp::Create => "create",
            StorageOp::Open => "open",
            StorageOp::Append => "append",
            StorageOp::Flush => "flush",
            StorageOp::Fsync => "fsync",
            StorageOp::Read => "read",
            StorageOp::Rename => "rename",
        }
    }
}

/// A typed fatal storage fault: the reason a journal was quarantined or a
/// resume degraded. Carried on outcomes instead of flowing into reports, so
/// storage chaos never perturbs report bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageFault {
    /// The operation that failed.
    pub op: StorageOp,
    /// The typed error kind (no string parsing required downstream).
    pub kind: io::ErrorKind,
    /// The rendered error, for humans.
    pub detail: String,
    /// Transient retries burned before giving up.
    pub retries: u32,
}

impl fmt::Display for StorageFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "storage fault on {}: {} ({:?}, {} retr{} burned)",
            self.op.label(),
            self.detail,
            self.kind,
            self.retries,
            if self.retries == 1 { "y" } else { "ies" }
        )
    }
}

// ---------------------------------------------------------------------------
// The seeded fault schedule
// ---------------------------------------------------------------------------

/// A reproducible fault schedule: per-operation injection rates in permille,
/// decided by a splitmix64 draw keyed on `(seed, operation index)` — the
/// same schedule replays identically for the same seed and op sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSchedule {
    /// The schedule's seed; every injection decision derives from it.
    pub seed: u64,
    /// Fsync failures per 1000 fsync calls.
    pub fsync_fail_permille: u16,
    /// Short writes per 1000 append calls.
    pub short_write_permille: u16,
    /// Torn writes per 1000 append calls.
    pub torn_write_permille: u16,
    /// `EINTR` per 1000 append calls.
    pub eintr_permille: u16,
    /// Transient open failures per 1000 open/create calls.
    pub open_fail_permille: u16,
    /// Transient read failures per 1000 read calls.
    pub read_fail_permille: u16,
    /// Total bytes the store accepts before every further write fails with
    /// `ENOSPC`; `None` is unbounded.
    pub disk_capacity: Option<u64>,
}

impl FaultSchedule {
    /// A schedule that injects nothing (the plane armed but quiet).
    pub fn quiet(seed: u64) -> FaultSchedule {
        FaultSchedule {
            seed,
            fsync_fail_permille: 0,
            short_write_permille: 0,
            torn_write_permille: 0,
            eintr_permille: 0,
            open_fail_permille: 0,
            read_fail_permille: 0,
            disk_capacity: None,
        }
    }

    /// The soak mix: a moderate dose of every transient kind plus occasional
    /// fsync failures. Disk capacity stays unbounded; soaks that want
    /// `ENOSPC` set [`FaultSchedule::disk_capacity`] explicitly.
    pub fn mixed(seed: u64) -> FaultSchedule {
        FaultSchedule {
            seed,
            fsync_fail_permille: 6,
            short_write_permille: 60,
            torn_write_permille: 40,
            eintr_permille: 60,
            open_fail_permille: 30,
            read_fail_permille: 30,
            disk_capacity: None,
        }
    }
}

/// splitmix64: the statelessly-keyed draw behind every injection decision.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultSchedule {
    /// The raw draw for operation `op` (also used to size short/torn
    /// prefixes, so one op's whole fault is a function of `(seed, op)`).
    fn draw(&self, op: u64) -> u64 {
        splitmix64(self.seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Walks the cumulative permille thresholds for a write op.
    fn write_fault(&self, op: u64) -> Option<IoFaultKind> {
        let roll = (self.draw(op) >> 16) % 1000;
        let mut edge = u64::from(self.eintr_permille);
        if roll < edge {
            return Some(IoFaultKind::Eintr);
        }
        edge += u64::from(self.short_write_permille);
        if roll < edge {
            return Some(IoFaultKind::ShortWrite);
        }
        edge += u64::from(self.torn_write_permille);
        if roll < edge {
            return Some(IoFaultKind::TornWrite);
        }
        None
    }

    fn fsync_fault(&self, op: u64) -> bool {
        (self.draw(op) >> 16) % 1000 < u64::from(self.fsync_fail_permille)
    }

    fn open_fault(&self, op: u64) -> bool {
        (self.draw(op) >> 16) % 1000 < u64::from(self.open_fail_permille)
    }

    fn read_fault(&self, op: u64) -> bool {
        (self.draw(op) >> 16) % 1000 < u64::from(self.read_fail_permille)
    }
}

// ---------------------------------------------------------------------------
// ChaosFs
// ---------------------------------------------------------------------------

/// Shadow durability state for one path: how many of its bytes a power cut
/// would preserve, tracked against the append-only real file.
#[derive(Debug, Default)]
struct Shadow {
    /// Bytes in the real file (durable + volatile). Append-only.
    total_len: u64,
    /// Bytes guaranteed to survive a crash (acknowledged fsyncs).
    durable_len: u64,
    /// `(op, durable_len)` at each acknowledged fsync.
    sync_marks: Vec<(u64, u64)>,
    /// `(op, total_len)` after each append.
    write_marks: Vec<(u64, u64)>,
}

impl Shadow {
    fn len_at(marks: &[(u64, u64)], at_op: u64) -> u64 {
        marks.iter().take_while(|&&(op, _)| op <= at_op).last().map_or(0, |&(_, len)| len)
    }
}

#[derive(Debug)]
struct ChaosState {
    schedule: FaultSchedule,
    /// Global operation counter; every backend/file call takes one tick.
    op: u64,
    /// Bytes accepted so far, against [`FaultSchedule::disk_capacity`].
    bytes_accepted: u64,
    injected: BTreeMap<&'static str, u64>,
    files: BTreeMap<PathBuf, Shadow>,
}

impl ChaosState {
    fn inject(&mut self, kind: IoFaultKind) {
        *self.injected.entry(kind.label()).or_insert(0) += 1;
        telemetry::chaos_fault_injected(kind);
    }
}

/// Aggregate chaos statistics for attestation reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosStats {
    /// Total storage operations observed.
    pub ops: u64,
    /// Faults injected, by [`IoFaultKind::label`].
    pub injected: BTreeMap<&'static str, u64>,
}

/// The seeded chaos backend: wraps the real filesystem, injects typed
/// faults from a [`FaultSchedule`], and maintains the shadow durability
/// model behind [`ChaosFs::crash_image`]. Cheap to clone (shared state), so
/// the harness can keep a handle while the writer owns another.
#[derive(Debug, Clone)]
pub struct ChaosFs {
    state: Arc<Mutex<ChaosState>>,
}

impl ChaosFs {
    /// A chaos backend with the given schedule.
    pub fn new(schedule: FaultSchedule) -> ChaosFs {
        ChaosFs {
            state: Arc::new(Mutex::new(ChaosState {
                schedule,
                op: 0,
                bytes_accepted: 0,
                injected: BTreeMap::new(),
                files: BTreeMap::new(),
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosState> {
        self.state.lock().expect("chaos state lock never held across user code")
    }

    /// Operations observed so far (the crash-op domain for
    /// [`ChaosFs::crash_image`]).
    pub fn ops(&self) -> u64 {
        self.lock().op
    }

    /// A snapshot of the injection counters.
    pub fn stats(&self) -> ChaosStats {
        let st = self.lock();
        ChaosStats { ops: st.op, injected: st.injected.clone() }
    }

    /// Bytes of `path` guaranteed durable had the process died right after
    /// global operation `at_op` (power-cut semantics: volatile bytes lost).
    pub fn durable_len_at(&self, path: &Path, at_op: u64) -> u64 {
        self.lock().files.get(path).map_or(0, |s| Shadow::len_at(&s.sync_marks, at_op))
    }

    /// Reconstructs the byte image `path` would hold after a power cut at
    /// global operation `at_op`: the durable prefix plus, with `torn_tail`,
    /// a deterministic fragment of the bytes that were written but not yet
    /// synced — the half-flushed page a real cut can leave behind.
    pub fn crash_image(&self, path: &Path, at_op: u64, torn_tail: bool) -> io::Result<Vec<u8>> {
        let (durable, written, seed) = {
            let st = self.lock();
            let shadow = st.files.get(path).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("no shadow for {}", path.display()))
            })?;
            (
                Shadow::len_at(&shadow.sync_marks, at_op),
                Shadow::len_at(&shadow.write_marks, at_op),
                st.schedule.seed,
            )
        };
        let bytes = std::fs::read(path)?;
        let durable = (durable as usize).min(bytes.len());
        let written = (written as usize).min(bytes.len()).max(durable);
        let mut image = bytes[..durable].to_vec();
        if torn_tail && written > durable {
            let torn = (splitmix64(seed ^ at_op.rotate_left(32)) as usize) % (written - durable + 1);
            image.extend_from_slice(&bytes[durable..durable + torn]);
        }
        Ok(image)
    }
}

#[derive(Debug)]
struct ChaosFile {
    fs: ChaosFs,
    path: PathBuf,
    file: std::fs::File,
}

impl StorageFile for ChaosFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.fs.lock();
        st.op += 1;
        let op = st.op;
        if let Some(cap) = st.schedule.disk_capacity {
            if st.bytes_accepted.saturating_add(buf.len() as u64) > cap {
                st.inject(IoFaultKind::DiskFull);
                return Err(io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC: disk full"));
            }
        }
        let fault = st.schedule.write_fault(op);
        let accepted = match fault {
            Some(IoFaultKind::Eintr) => {
                st.inject(IoFaultKind::Eintr);
                return Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"));
            }
            // Short and torn writes land a deterministic strict prefix.
            Some(kind @ (IoFaultKind::ShortWrite | IoFaultKind::TornWrite)) if buf.len() > 1 => {
                st.inject(kind);
                1 + (st.schedule.draw(op) as usize) % (buf.len() - 1)
            }
            _ => buf.len(),
        };
        io::Write::write_all(&mut self.file, &buf[..accepted])?;
        st.bytes_accepted += accepted as u64;
        let shadow = st.files.entry(self.path.clone()).or_default();
        shadow.total_len += accepted as u64;
        let total = shadow.total_len;
        shadow.write_marks.push((op, total));
        if matches!(fault, Some(IoFaultKind::TornWrite)) && buf.len() > 1 {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "injected torn write (transient)"));
        }
        Ok(accepted)
    }

    fn flush(&mut self) -> io::Result<()> {
        io::Write::flush(&mut self.file)
    }

    fn fsync(&mut self) -> io::Result<()> {
        let mut st = self.fs.lock();
        st.op += 1;
        let op = st.op;
        if st.schedule.fsync_fault(op) {
            st.inject(IoFaultKind::FsyncFail);
            // The volatile bytes stay volatile: a later crash drops them.
            return Err(io::Error::other("injected fsync failure (EIO)"));
        }
        self.file.sync_data()?;
        let shadow = st.files.entry(self.path.clone()).or_default();
        shadow.durable_len = shadow.total_len;
        let durable = shadow.durable_len;
        shadow.sync_marks.push((op, durable));
        Ok(())
    }
}

impl StorageBackend for ChaosFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        {
            let mut st = self.lock();
            st.op += 1;
            let op = st.op;
            if st.schedule.open_fault(op) {
                st.inject(IoFaultKind::OpenFail);
                return Err(io::Error::new(io::ErrorKind::TimedOut, "injected transient create failure"));
            }
            // Truncation resets the shadow: nothing is durable any more.
            st.files.insert(path.to_owned(), Shadow::default());
        }
        let file = std::fs::File::create(path)?;
        Ok(Box::new(ChaosFile { fs: self.clone(), path: path.to_owned(), file }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        {
            let mut st = self.lock();
            st.op += 1;
            let op = st.op;
            if st.schedule.open_fault(op) {
                st.inject(IoFaultKind::OpenFail);
                return Err(io::Error::new(io::ErrorKind::TimedOut, "injected transient open failure"));
            }
            // Pre-existing bytes (a resumed journal) are durable by fiat:
            // they survived whatever ended the previous process.
            let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            let shadow = st.files.entry(path.to_owned()).or_default();
            if shadow.total_len < len {
                shadow.total_len = len;
                shadow.durable_len = len;
            }
        }
        let file = std::fs::File::options().create(true).append(true).open(path)?;
        Ok(Box::new(ChaosFile { fs: self.clone(), path: path.to_owned(), file }))
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let mut st = self.lock();
        st.op += 1;
        let op = st.op;
        if st.schedule.read_fault(op) {
            st.inject(IoFaultKind::ReadFail);
            return Err(io::Error::new(io::ErrorKind::TimedOut, "injected transient read failure"));
        }
        drop(st);
        std::fs::read_to_string(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        st.op += 1;
        std::fs::rename(from, to)?;
        if let Some(shadow) = st.files.remove(from) {
            st.files.insert(to.to_owned(), shadow);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("malsim-chaosfs-{tag}-{}.dat", std::process::id()))
    }

    #[test]
    fn classification_splits_transient_from_fatal() {
        for kind in [io::ErrorKind::Interrupted, io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            assert_eq!(classify(kind), FaultClass::Transient, "{kind:?}");
        }
        for kind in [
            io::ErrorKind::StorageFull,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::NotFound,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::Other,
        ] {
            assert_eq!(classify(kind), FaultClass::Fatal, "{kind:?}");
        }
    }

    #[test]
    fn retry_policy_backs_off_exponentially_to_the_cap() {
        let p = IoRetryPolicy { base_ms: 2, cap_ms: 10, max_retries: 3 };
        assert_eq!(p.backoff_ms(0), 2);
        assert_eq!(p.backoff_ms(1), 4);
        assert_eq!(p.backoff_ms(2), 8);
        assert_eq!(p.backoff_ms(3), 10, "capped");
        assert_eq!(p.backoff_ms(63), 10, "saturating shift stays capped");
        assert!(p.should_retry(2));
        assert!(!p.should_retry(3));
    }

    #[test]
    fn schedules_replay_identically_for_the_same_seed() {
        let s = FaultSchedule::mixed(42);
        let a: Vec<Option<IoFaultKind>> = (1..200).map(|op| s.write_fault(op)).collect();
        let b: Vec<Option<IoFaultKind>> = (1..200).map(|op| s.write_fault(op)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        let other = FaultSchedule::mixed(43);
        let c: Vec<Option<IoFaultKind>> = (1..200).map(|op| other.write_fault(op)).collect();
        assert_ne!(a, c, "different seeds diverge");
        assert!(a.iter().any(Option::is_some), "the mixed schedule injects something in 200 ops");
    }

    #[test]
    fn quiet_schedule_injects_nothing() {
        let fs = ChaosFs::new(FaultSchedule::quiet(7));
        let path = temp("quiet");
        let mut f = fs.create(&path).unwrap();
        for _ in 0..50 {
            assert_eq!(f.append(b"hello world\n").unwrap(), 12);
            f.fsync().unwrap();
        }
        assert!(fs.stats().injected.is_empty());
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 50);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_image_drops_unsynced_bytes() {
        let fs = ChaosFs::new(FaultSchedule::quiet(11));
        let path = temp("crash");
        let mut f = fs.create(&path).unwrap();
        f.append(b"durable-line\n").unwrap();
        f.fsync().unwrap();
        let synced_at = fs.ops();
        f.append(b"volatile-line\n").unwrap();
        // No fsync: a power cut now loses the second line.
        let image = fs.crash_image(&path, fs.ops(), false).unwrap();
        assert_eq!(image, b"durable-line\n");
        // A cut even earlier preserves nothing past the first sync.
        assert_eq!(fs.durable_len_at(&path, synced_at), 13);
        assert_eq!(fs.durable_len_at(&path, synced_at - 2), 0, "before the fsync nothing is durable");
        // The real file still holds everything (the process did not die).
        assert_eq!(std::fs::read(&path).unwrap().len(), 27);
        // A torn tail never exceeds the written-but-unsynced range.
        let torn = fs.crash_image(&path, fs.ops(), true).unwrap();
        assert!(torn.len() >= 13 && torn.len() <= 27, "torn image length {}", torn.len());
        assert!(torn.starts_with(b"durable-line\n"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn disk_capacity_turns_into_enospc() {
        let schedule = FaultSchedule { disk_capacity: Some(20), ..FaultSchedule::quiet(3) };
        let fs = ChaosFs::new(schedule);
        let path = temp("enospc");
        let mut f = fs.create(&path).unwrap();
        assert_eq!(f.append(b"0123456789").unwrap(), 10);
        assert_eq!(f.append(b"0123456789").unwrap(), 10);
        let err = f.append(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(fs.stats().injected.get("disk_full"), Some(&1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_and_torn_writes_land_strict_prefixes() {
        let schedule = FaultSchedule { short_write_permille: 1000, ..FaultSchedule::quiet(5) };
        let fs = ChaosFs::new(schedule);
        let path = temp("short");
        let mut f = fs.create(&path).unwrap();
        let n = f.append(b"a-reasonably-long-line\n").unwrap();
        assert!((1..23).contains(&n), "short write accepted {n} of 23");
        let torn_schedule = FaultSchedule { torn_write_permille: 1000, ..FaultSchedule::quiet(5) };
        let fs2 = ChaosFs::new(torn_schedule);
        let path2 = temp("torn");
        let mut f2 = fs2.create(&path2).unwrap();
        let err = f2.append(b"a-reasonably-long-line\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "torn writes are retryable");
        let left = std::fs::read(&path2).unwrap();
        assert!(!left.is_empty() && left.len() < 23, "torn bytes left behind: {}", left.len());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&path2).unwrap();
    }

    #[test]
    fn storage_fault_renders_its_fields() {
        let fault = StorageFault {
            op: StorageOp::Fsync,
            kind: io::ErrorKind::Other,
            detail: "injected fsync failure (EIO)".into(),
            retries: 1,
        };
        let msg = fault.to_string();
        assert!(msg.contains("fsync"), "{msg}");
        assert!(msg.contains("1 retry burned"), "{msg}");
    }
}
