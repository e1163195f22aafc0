//! # malsim-os
//!
//! A simulated Windows host model for the `malsim` workspace.
//!
//! The campaigns the paper dissects act almost entirely through ordinary OS
//! state transitions: dropping files into `%system%`, renaming a vendor DLL,
//! creating services and scheduled tasks, loading signed kernel drivers, and
//! — in Shamoon's case — writing raw sectors over the MBR. This crate gives
//! those transitions explicit, observable objects:
//!
//! - [`path::WinPath`] — case-insensitive Windows-style paths with
//!   `%system%`-style expansion;
//! - [`fs::Vfs`] — the file system, with typed contents ([`fs::FileData`]:
//!   bytes, executables, shortcuts with optional LNK-exploit payloads,
//!   autorun manifests), hidden attributes, and wipe-aware operations;
//! - [`registry::Registry`], [`services::ServiceManager`] — persistence
//!   surfaces;
//! - [`disk::Disk`] — MBR, partitions, and raw sectors;
//! - [`patches::PatchState`] — which security bulletins a host has applied
//!   (exploits fire only against missing bulletins);
//! - [`usb::UsbDrive`] — removable media, including Flame's hidden
//!   exfiltration database;
//! - [`host::Host`] — the assembly, including the driver-signing policy
//!   (via `malsim-certs`) and the raw-disk capability model.
//!
//! # Examples
//!
//! ```
//! use malsim_kernel::time::SimTime;
//! use malsim_os::prelude::*;
//!
//! let now = SimTime::from_utc(2012, 8, 1, 0, 0, 0);
//! let mut host = Host::new("office-pc", WindowsVersion::Seven, HostRole::Workstation, now);
//!
//! // Drop a file where a dropper would.
//! let target = WinPath::expand(r"%system%\netinit.exe");
//! host.fs.write(&target, FileData::Bytes(vec![0; 900 * 1024].into()), now)?;
//! assert!(host.fs.exists(&target));
//!
//! // Raw disk writes need a capability-granting driver.
//! assert!(host.write_raw_sectors(0, &[0u8; 512], false).is_err());
//! # Ok::<(), malsim_os::error::FsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod error;
pub mod fs;
pub mod host;
pub mod patches;
pub mod path;
pub mod registry;
pub mod services;
pub mod usb;

/// Commonly used items.
pub mod prelude {
    pub use crate::disk::Disk;
    pub use crate::error::{FsError, HostError};
    pub use crate::fs::{FileData, FileNode, Vfs};
    pub use crate::host::{Host, HostConfig, HostId, HostRole, HostState, LoadedDriver, WindowsVersion};
    pub use crate::patches::{Bulletin, PatchState};
    pub use crate::path::WinPath;
    pub use crate::registry::Registry;
    pub use crate::services::{ScheduledTask, Service, ServiceManager};
    pub use crate::usb::{HiddenRecord, UsbDrive, UsbId};
}
