//! A timing storage backend: every call passes straight to
//! [`RealFs`](malsim::chaosfs::RealFs), and is counted, and with tracing on
//! recorded as a span under the job queue's run span.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use malsim::chaosfs::{StorageBackend, StorageFile, REAL_FS};

use crate::trace::{Ctx, Tracer};

#[derive(Debug)]
struct Shared {
    tracer: Arc<Tracer>,
    /// The span storage calls hang under, as `(run, id)`.
    parent_run: AtomicU32,
    parent_id: AtomicU64,
    fsyncs: AtomicU64,
    bytes: AtomicU64,
    errors: AtomicU64,
}

impl Shared {
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let parent =
            Ctx { run: self.parent_run.load(Ordering::Relaxed), id: self.parent_id.load(Ordering::Relaxed) };
        let out = self.tracer.span(parent, name, |_| f());
        if out.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// Counters of one [`TimedFs`] since it was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCounts {
    pub fsyncs: u64,
    pub bytes: u64,
    pub errors: u64,
}

#[derive(Debug, Clone)]
pub struct TimedFs(Arc<Shared>);

impl TimedFs {
    pub fn new(tracer: Arc<Tracer>) -> TimedFs {
        TimedFs(Arc::new(Shared {
            tracer,
            parent_run: AtomicU32::new(0),
            parent_id: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }))
    }

    /// Hangs the spans of later storage calls under `parent`.
    pub fn set_parent(&self, parent: Ctx) {
        self.0.parent_run.store(parent.run, Ordering::Relaxed);
        self.0.parent_id.store(parent.id, Ordering::Relaxed);
    }

    pub fn counts(&self) -> IoCounts {
        IoCounts {
            fsyncs: self.0.fsyncs.load(Ordering::Relaxed),
            bytes: self.0.bytes.load(Ordering::Relaxed),
            errors: self.0.errors.load(Ordering::Relaxed),
        }
    }

    fn wrap(&self, file: io::Result<Box<dyn StorageFile>>) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(TimedFile { inner: file?, shared: Arc::clone(&self.0) }))
    }
}

impl StorageBackend for TimedFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.wrap(self.0.timed("storage.open", || REAL_FS.create(path)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.wrap(self.0.timed("storage.open", || REAL_FS.open_append(path)))
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.0.timed("storage.read", || REAL_FS.read_to_string(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.timed("storage.rename", || REAL_FS.rename(from, to))
    }
}

#[derive(Debug)]
struct TimedFile {
    inner: Box<dyn StorageFile>,
    shared: Arc<Shared>,
}

impl StorageFile for TimedFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.shared.timed("storage.append", || self.inner.append(buf))?;
        self.shared.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.shared.timed("storage.flush", || self.inner.flush())
    }

    fn fsync(&mut self) -> io::Result<()> {
        self.shared.timed("storage.fsync", || self.inner.fsync())?;
        self.shared.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}
