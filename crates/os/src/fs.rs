//! The simulated file system.
//!
//! A [`Vfs`] is a flat map from normalized [`WinPath`]s to [`FileNode`]s plus
//! an implicit directory tree. File contents are typed ([`FileData`]) so the
//! campaign mechanics are first-class: executables carry parsed MZSM images,
//! shortcuts carry targets (the LNK vector), autorun manifests carry command
//! lines, and plain bytes cover everything else.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use malsim_kernel::time::SimTime;
use malsim_pe::image::Image;

use crate::error::FsError;
use crate::path::WinPath;

/// Typed file contents.
#[derive(Debug, Clone, PartialEq)]
pub enum FileData {
    /// Opaque bytes (documents, logs, payload fragments). Shared, so a
    /// payload written to many files (a wiper's overwrite pattern) is held
    /// once. The `Arc` wraps a `Vec` rather than holding the bytes inline so
    /// that wrapping content never copies it: a zero-filled document keeps
    /// the untouched pages its allocation came with.
    Bytes(Arc<Vec<u8>>),
    /// An executable image in the workspace's toy PE format. Shared, so a
    /// carrier dropped on many hosts is held once.
    Executable(Arc<Image>),
    /// A Windows shortcut. `exploit_payload` models a malformed LNK that
    /// triggers code execution when *rendered* by an unpatched shell
    /// (MS10-046): it names the executable path to launch.
    Shortcut {
        /// What the shortcut legitimately points at.
        target: WinPath,
        /// Path of a payload to execute on icon render, when the shell is
        /// vulnerable. `None` for benign shortcuts.
        exploit_payload: Option<WinPath>,
    },
    /// An `autorun.inf`-style manifest naming a program to run on mount.
    Autorun {
        /// Program the manifest runs.
        run: WinPath,
    },
}

impl FileData {
    /// Approximate size in bytes (used for exfiltration accounting).
    pub fn len(&self) -> usize {
        match self {
            FileData::Bytes(b) => b.len(),
            FileData::Executable(img) => img.payload_len() + 64,
            FileData::Shortcut { .. } => 1_024,
            FileData::Autorun { .. } => 128,
        }
    }

    /// Whether the content is empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, FileData::Bytes(b) if b.is_empty())
    }
}

/// File content built once per process, on first use, and shared by every
/// file written with it: a dropped payload or overwrite pattern that lands
/// on thousands of hosts is held in memory once.
///
/// # Examples
///
/// ```
/// use malsim_os::fs::{FileData, SharedPayload};
///
/// static MODULE: SharedPayload = SharedPayload::filled(0x53, 4);
/// assert_eq!(FileData::Bytes(MODULE.bytes()), FileData::Bytes(vec![0x53; 4].into()));
/// static NOTE: SharedPayload = SharedPayload::copied(b"read me");
/// assert_eq!(FileData::Bytes(NOTE.bytes()), FileData::Bytes(b"read me".to_vec().into()));
/// ```
#[derive(Debug)]
pub struct SharedPayload {
    source: PayloadSource,
    body: OnceLock<Arc<Vec<u8>>>,
}

#[derive(Debug)]
enum PayloadSource {
    Filled(u8, usize),
    Copied(&'static [u8]),
}

impl SharedPayload {
    /// `len` bytes of `byte`.
    pub const fn filled(byte: u8, len: usize) -> SharedPayload {
        SharedPayload { source: PayloadSource::Filled(byte, len), body: OnceLock::new() }
    }

    /// A copy of `bytes`.
    pub const fn copied(bytes: &'static [u8]) -> SharedPayload {
        SharedPayload { source: PayloadSource::Copied(bytes), body: OnceLock::new() }
    }

    /// The shared content.
    pub fn bytes(&self) -> Arc<Vec<u8>> {
        Arc::clone(self.body.get_or_init(|| {
            Arc::new(match self.source {
                PayloadSource::Filled(byte, len) => vec![byte; len],
                PayloadSource::Copied(bytes) => bytes.to_vec(),
            })
        }))
    }
}

/// A file plus metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FileNode {
    /// Contents.
    pub data: FileData,
    /// Creation time.
    pub created: SimTime,
    /// Last modification time.
    pub modified: SimTime,
    /// Hidden attribute (rootkits set this).
    pub hidden: bool,
}

/// A simulated file system.
///
/// # Examples
///
/// ```
/// use malsim_kernel::time::SimTime;
/// use malsim_os::fs::{FileData, Vfs};
/// use malsim_os::path::WinPath;
///
/// let mut fs = Vfs::new();
/// let p = WinPath::new(r"C:\docs\plan.docx");
/// fs.write(&p, FileData::Bytes(vec![1, 2, 3].into()), SimTime::EPOCH)?;
/// assert!(fs.exists(&p));
/// assert_eq!(fs.read(&p)?.data.len(), 3);
/// # Ok::<(), malsim_os::error::FsError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Vfs {
    files: BTreeMap<WinPath, FileNode>,
}

impl Vfs {
    /// Creates an empty file system.
    pub fn new() -> Self {
        Vfs::default()
    }

    /// Writes (creates or replaces) a file. Parent directories are implicit.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::BadPath`] for paths without a file name.
    pub fn write(&mut self, path: &WinPath, data: FileData, now: SimTime) -> Result<(), FsError> {
        if path.file_name().is_none() {
            return Err(FsError::BadPath { path: path.clone() });
        }
        match self.files.get_mut(path) {
            Some(node) => {
                node.data = data;
                node.modified = now;
            }
            None => {
                self.files
                    .insert(path.clone(), FileNode { data, created: now, modified: now, hidden: false });
            }
        }
        Ok(())
    }

    /// Reads a file node.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if absent.
    pub fn read(&self, path: &WinPath) -> Result<&FileNode, FsError> {
        self.files.get(path).ok_or_else(|| FsError::NotFound { path: path.clone() })
    }

    /// Mutable access to a file node.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if absent.
    pub fn read_mut(&mut self, path: &WinPath) -> Result<&mut FileNode, FsError> {
        self.files.get_mut(path).ok_or_else(|| FsError::NotFound { path: path.clone() })
    }

    /// Whether a file exists at `path`.
    pub fn exists(&self, path: &WinPath) -> bool {
        self.files.contains_key(path)
    }

    /// Deletes a file, returning its node.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if absent.
    pub fn delete(&mut self, path: &WinPath) -> Result<FileNode, FsError> {
        self.files.remove(path).ok_or_else(|| FsError::NotFound { path: path.clone() })
    }

    /// Renames a file.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if the source is absent, [`FsError::Exists`] if
    /// the destination is occupied.
    pub fn rename(&mut self, from: &WinPath, to: &WinPath, now: SimTime) -> Result<(), FsError> {
        if self.files.contains_key(to) {
            return Err(FsError::Exists { path: to.clone() });
        }
        let mut node = self.delete(from)?;
        node.modified = now;
        self.files.insert(to.clone(), node);
        Ok(())
    }

    /// Sets or clears the hidden attribute.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if absent.
    pub fn set_hidden(&mut self, path: &WinPath, hidden: bool) -> Result<(), FsError> {
        self.read_mut(path)?.hidden = hidden;
        Ok(())
    }

    /// All paths under `dir` (recursively), in sorted order. Pass
    /// `include_hidden = false` for the view an ordinary directory listing
    /// (or a non-rootkit-aware scanner) sees.
    pub fn list(&self, dir: &WinPath, include_hidden: bool) -> Vec<&WinPath> {
        self.files
            .iter()
            .filter(|(p, n)| p.starts_with(dir) && (include_hidden || !n.hidden))
            .map(|(p, _)| p)
            .collect()
    }

    /// Iterates every `(path, node)` pair.
    pub fn iter(&self) -> impl Iterator<Item = (&WinPath, &FileNode)> {
        self.files.iter()
    }

    /// Total number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the file system holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total content bytes (exfiltration/wipe accounting).
    pub fn total_size(&self) -> usize {
        self.files.values().map(|n| n.data.len()).sum()
    }

    /// Paths (non-hidden unless `include_hidden`) whose final component has
    /// one of `extensions` (case-insensitive).
    pub fn find_by_extension(&self, extensions: &[&str], include_hidden: bool) -> Vec<&WinPath> {
        self.files
            .iter()
            .filter(|(_, n)| include_hidden || !n.hidden)
            .filter(|(p, _)| extensions.iter().any(|e| p.has_extension(e)))
            .map(|(p, _)| p)
            .collect()
    }

    /// Paths that live under any directory whose name matches one of
    /// `folder_names` (case-insensitive) — e.g. Shamoon's target list:
    /// download, document, picture, music, video, desktop.
    pub fn find_under_folders(&self, folder_names: &[&str]) -> Vec<&WinPath> {
        self.files.keys().filter(|p| under_folders(p, folder_names)).collect()
    }

    /// Overwrites every file [`Vfs::find_under_folders`] lists with `bytes`
    /// and returns how many it overwrote. Each keeps its node and creation
    /// time, unlike [`Vfs::write`]: what a wiper does.
    pub fn overwrite_under_folders(
        &mut self,
        folder_names: &[&str],
        bytes: &Arc<Vec<u8>>,
        now: SimTime,
    ) -> usize {
        let mut overwritten = 0;
        for (_, node) in self.files.iter_mut().filter(|(p, _)| under_folders(p, folder_names)) {
            node.data = FileData::Bytes(Arc::clone(bytes));
            node.modified = now;
            overwritten += 1;
        }
        overwritten
    }
}

/// Whether a component of `path` is named one of `folder_names`,
/// ignoring ASCII case.
fn under_folders(path: &WinPath, folder_names: &[&str]) -> bool {
    path.components().any(|c| folder_names.iter().any(|f| c.eq_ignore_ascii_case(f)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn bytes(n: usize) -> FileData {
        FileData::Bytes(vec![0xAB; n].into())
    }

    #[test]
    fn write_read_delete() {
        let mut fs = Vfs::new();
        let p = WinPath::new(r"C:\x\y.txt");
        fs.write(&p, bytes(10), t(1)).unwrap();
        assert!(fs.exists(&p));
        assert_eq!(fs.read(&p).unwrap().data.len(), 10);
        fs.delete(&p).unwrap();
        assert!(!fs.exists(&p));
        assert!(matches!(fs.read(&p), Err(FsError::NotFound { .. })));
    }

    #[test]
    fn write_replaces_and_updates_mtime() {
        let mut fs = Vfs::new();
        let p = WinPath::new(r"C:\f");
        fs.write(&p, bytes(1), t(1)).unwrap();
        fs.write(&p, bytes(2), t(9)).unwrap();
        let node = fs.read(&p).unwrap();
        assert_eq!(node.created, t(1));
        assert_eq!(node.modified, t(9));
        assert_eq!(node.data.len(), 2);
    }

    #[test]
    fn rename_moves_node() {
        let mut fs = Vfs::new();
        let a = WinPath::new(r"C:\s7otbxdx.dll");
        let b = WinPath::new(r"C:\s7otbxsx.dll");
        fs.write(&a, bytes(5), t(1)).unwrap();
        fs.rename(&a, &b, t(2)).unwrap();
        assert!(!fs.exists(&a));
        assert!(fs.exists(&b));
        // Destination occupied
        fs.write(&a, bytes(1), t(3)).unwrap();
        assert!(matches!(fs.rename(&a, &b, t(4)), Err(FsError::Exists { .. })));
    }

    #[test]
    fn hidden_files_are_filtered_from_listings() {
        let mut fs = Vfs::new();
        let visible = WinPath::new(r"C:\dir\a.txt");
        let hidden = WinPath::new(r"C:\dir\rootkit.sys");
        fs.write(&visible, bytes(1), t(1)).unwrap();
        fs.write(&hidden, bytes(1), t(1)).unwrap();
        fs.set_hidden(&hidden, true).unwrap();
        let dir = WinPath::new(r"C:\dir");
        assert_eq!(fs.list(&dir, false).len(), 1);
        assert_eq!(fs.list(&dir, true).len(), 2);
    }

    #[test]
    fn find_by_extension() {
        let mut fs = Vfs::new();
        for p in [r"C:\a.docx", r"C:\b.PPT", r"C:\c.txt", r"C:\d.dwg"] {
            fs.write(&WinPath::new(p), bytes(1), t(1)).unwrap();
        }
        let hits = fs.find_by_extension(&["docx", "ppt", "dwg"], false);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn find_under_folders_matches_shamoon_targets() {
        let mut fs = Vfs::new();
        for p in [
            r"C:\Users\ali\Documents\report.pdf",
            r"C:\Users\ali\Pictures\photo.jpg",
            r"C:\Windows\System32\kernel.dll",
        ] {
            fs.write(&WinPath::new(p), bytes(1), t(1)).unwrap();
        }
        let hits = fs.find_under_folders(&["documents", "pictures", "desktop"]);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn overwrite_preserves_creation_time() {
        let mut fs = Vfs::new();
        let doc = WinPath::new(r"C:\Users\ali\Documents\f");
        let other = WinPath::new(r"C:\Windows\f");
        fs.write(&doc, bytes(100), t(1)).unwrap();
        fs.write(&other, bytes(100), t(1)).unwrap();
        assert_eq!(fs.overwrite_under_folders(&["documents"], &Arc::new(vec![0xFF; 4]), t(50)), 1);
        let node = fs.read(&doc).unwrap();
        assert_eq!(node.created, t(1));
        assert_eq!(node.modified, t(50));
        assert_eq!(node.data, FileData::Bytes(vec![0xFF; 4].into()));
        assert_eq!(format!("{:?}", node.data), "Bytes([255, 255, 255, 255])");
        let untouched = FileNode { data: bytes(100), created: t(1), modified: t(1), hidden: false };
        assert_eq!(fs.read(&other).unwrap(), &untouched, "outside the target folders");
        assert_eq!(fs.overwrite_under_folders(&["pictures"], &Arc::new(vec![]), t(51)), 0);
    }

    #[test]
    fn totals() {
        let mut fs = Vfs::new();
        fs.write(&WinPath::new(r"C:\a"), bytes(10), t(1)).unwrap();
        fs.write(&WinPath::new(r"C:\b"), bytes(32), t(1)).unwrap();
        assert_eq!(fs.len(), 2);
        assert_eq!(fs.total_size(), 42);
        assert!(!fs.is_empty());
    }

    #[test]
    fn bad_path_rejected() {
        let mut fs = Vfs::new();
        assert!(matches!(fs.write(&WinPath::new(""), bytes(1), t(1)), Err(FsError::BadPath { .. })));
    }

    #[test]
    fn shortcut_and_autorun_data() {
        let mut fs = Vfs::new();
        let lnk = WinPath::new(r"E:\readme.lnk");
        fs.write(
            &lnk,
            FileData::Shortcut {
                target: WinPath::new(r"E:\docs"),
                exploit_payload: Some(WinPath::new(r"E:\~wtr4132.tmp")),
            },
            t(1),
        )
        .unwrap();
        let FileData::Shortcut { exploit_payload, .. } = &fs.read(&lnk).unwrap().data else { panic!() };
        assert!(exploit_payload.is_some());
    }
}
