//! The simulated host: file system, registry, services, drivers, disk,
//! patch state, trust store, and shell behaviour.

use malsim_certs::cert::Eku;
use malsim_certs::store::{CodeSignature, TrustStore, VerifyPolicy};
use malsim_kernel::define_id;
use malsim_kernel::time::SimTime;

use crate::disk::Disk;
use crate::error::HostError;
use crate::fs::{FileData, SharedPayload, Vfs};
use crate::patches::{Bulletin, PatchState};
use crate::path::WinPath;
use crate::registry::Registry;
use crate::services::ServiceManager;
use crate::usb::UsbId;

/// Body of the marker file seeded into each profile folder, shared by every
/// host.
static MARKER_FILE_BODY: SharedPayload = SharedPayload::filled(0, 16);

define_id!(
    /// Identifies a host in a scenario.
    pub struct HostId("host")
);
malsim_kernel::impl_arena_id!(HostId);

/// Windows flavour installed on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowsVersion {
    /// Windows XP.
    Xp,
    /// Windows Vista.
    Vista,
    /// Windows 7.
    Seven,
    /// Windows Server 2003.
    Server2003,
}

/// Power/boot state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// Booted and operating.
    Running,
    /// MBR destroyed or disk unusable; cannot boot.
    Bricked,
}

/// A loaded kernel driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedDriver {
    /// Driver file name, e.g. `mrxcls.sys` or `drdisk.sys`.
    pub name: String,
    /// Subject of the signing certificate.
    pub signer_subject: String,
    /// Whether the driver grants user-mode raw disk access (the Eldos-style
    /// capability Shamoon used).
    pub grants_raw_disk_access: bool,
    /// When it was loaded.
    pub loaded_at: SimTime,
}

/// Role of the host in its organization (used by scenarios and targeting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostRole {
    /// Ordinary office workstation.
    Workstation,
    /// Server (file/print/domain).
    Server,
    /// SCADA engineering station with Step 7 installed.
    EngineeringStation,
}

/// A simulated Windows host.
///
/// # Examples
///
/// ```
/// use malsim_kernel::time::SimTime;
/// use malsim_os::host::{Host, HostRole, WindowsVersion};
///
/// let host = Host::new("eng-laptop", WindowsVersion::Xp, HostRole::EngineeringStation, SimTime::EPOCH);
/// assert!(host.is_running());
/// assert_eq!(host.name(), "eng-laptop");
/// ```
#[derive(Debug, Clone)]
pub struct Host {
    name: String,
    version: WindowsVersion,
    role: HostRole,
    state: HostState,
    /// The file system.
    pub fs: Vfs,
    /// The registry.
    pub registry: Registry,
    /// Services and scheduled tasks.
    pub services: ServiceManager,
    /// Patch state.
    pub patches: PatchState,
    /// Certificate trust anchors and policy.
    pub trust: TrustStore,
    /// Verification policy for code signing (legacy vs strict).
    pub verify_policy: VerifyPolicy,
    /// The physical disk.
    pub disk: Disk,
    drivers: Vec<LoadedDriver>,
    inserted_usb: Option<UsbId>,
    /// Host configuration flags read by the network layer.
    pub config: HostConfig,
    /// Names of processes currently running (coarse; used by AV heuristics
    /// and the Step 7 hook check).
    pub processes: Vec<String>,
}

/// Behavioural configuration the network and shell layers consult.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// File & print sharing enabled (MS10-061 exposure and share spreading).
    pub file_sharing: bool,
    /// Autorun honoured on removable media.
    pub autorun_enabled: bool,
    /// The browser asks for proxy config via WPAD.
    pub wpad_enabled: bool,
    /// Automatic Windows Update checks run.
    pub windows_update_enabled: bool,
    /// Bluetooth radio present and on.
    pub bluetooth: bool,
    /// Has a direct route to the internet (false inside air-gapped zones).
    pub internet_access: bool,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            file_sharing: true,
            autorun_enabled: true,
            wpad_enabled: true,
            windows_update_enabled: true,
            bluetooth: false,
            internet_access: true,
        }
    }
}

impl Host {
    /// Creates a running host with a standard disk and user profile tree.
    pub fn new(name: impl Into<String>, version: WindowsVersion, role: HostRole, now: SimTime) -> Self {
        let name = name.into();
        let mut fs = Vfs::new();
        for dir in ["Documents", "Pictures", "Desktop", "Downloads"] {
            // Seed with a marker file so folder scans have structure to find.
            let p = WinPath::new(format!(r"C:\Users\user\{dir}\desktop.ini"));
            fs.write(&p, FileData::Bytes(MARKER_FILE_BODY.bytes()), now).expect("valid seed path");
        }
        Host {
            name,
            version,
            role,
            state: HostState::Running,
            fs,
            registry: Registry::new(),
            services: ServiceManager::new(),
            patches: PatchState::unpatched(),
            trust: TrustStore::new(),
            verify_policy: VerifyPolicy::legacy(),
            disk: Disk::with_standard_layout(1 << 21),
            drivers: Vec::new(),
            inserted_usb: None,
            config: HostConfig::default(),
            processes: vec!["explorer.exe".to_owned()],
        }
    }

    /// Host name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Windows flavour.
    pub fn version(&self) -> WindowsVersion {
        self.version
    }

    /// Organizational role.
    pub fn role(&self) -> HostRole {
        self.role
    }

    /// Current state.
    pub fn state(&self) -> HostState {
        self.state
    }

    /// Whether the host is running.
    pub fn is_running(&self) -> bool {
        self.state == HostState::Running
    }

    /// Whether the host is vulnerable to a bulletin's flaw.
    pub fn is_vulnerable_to(&self, bulletin: Bulletin) -> bool {
        self.patches.is_vulnerable_to(bulletin)
    }

    /// Loads a kernel driver: `content` must verify against the host trust
    /// store with the driver-signing EKU under the host policy.
    ///
    /// # Errors
    ///
    /// [`HostError::DriverRejected`] when unsigned or failing verification;
    /// [`HostError::NotRunning`] when the host is bricked.
    pub fn load_driver(
        &mut self,
        name: impl Into<String>,
        content: &[u8],
        signature: Option<&CodeSignature>,
        grants_raw_disk_access: bool,
        now: SimTime,
    ) -> Result<(), HostError> {
        self.ensure_running()?;
        let name = name.into();
        let Some(sig) = signature else {
            return Err(HostError::DriverRejected { name, reason: "unsigned driver".into() });
        };
        self.trust
            .verify_code(content, sig, now, Eku::DriverSigning, self.verify_policy)
            .map_err(|e| HostError::DriverRejected { name: name.clone(), reason: e.to_string() })?;
        self.drivers.push(LoadedDriver {
            name,
            signer_subject: sig.signer.subject.clone(),
            grants_raw_disk_access,
            loaded_at: now,
        });
        Ok(())
    }

    /// Loaded drivers.
    pub fn drivers(&self) -> &[LoadedDriver] {
        &self.drivers
    }

    /// Unloads a driver by name; returns whether one was removed.
    pub fn unload_driver(&mut self, name: &str) -> bool {
        let before = self.drivers.len();
        self.drivers.retain(|d| d.name != name);
        self.drivers.len() != before
    }

    /// Whether any loaded driver grants raw disk access to user-mode code.
    pub fn has_raw_disk_access(&self) -> bool {
        self.drivers.iter().any(|d| d.grants_raw_disk_access)
    }

    /// Writes raw sectors. User-mode callers need a capability-granting
    /// driver (the Shamoon path); pass `kernel_mode = true` only for code
    /// modelled as running in the kernel.
    ///
    /// # Errors
    ///
    /// [`HostError::RawAccessDenied`] without the capability;
    /// [`HostError::NotRunning`] when bricked.
    pub fn write_raw_sectors(&mut self, lba: u64, data: &[u8], kernel_mode: bool) -> Result<(), HostError> {
        self.ensure_running()?;
        if !kernel_mode && !self.has_raw_disk_access() {
            return Err(HostError::RawAccessDenied);
        }
        self.disk.write_sector(lba, data);
        if lba == 0 && !self.disk.is_bootable() {
            self.state = HostState::Bricked;
        }
        Ok(())
    }

    /// Inserts a USB drive (at most one at a time; replaces any current).
    pub fn insert_usb(&mut self, usb: UsbId) {
        self.inserted_usb = Some(usb);
    }

    /// Removes the USB drive, returning its id.
    pub fn eject_usb(&mut self) -> Option<UsbId> {
        self.inserted_usb.take()
    }

    /// Currently inserted drive.
    pub fn inserted_usb(&self) -> Option<UsbId> {
        self.inserted_usb
    }

    /// Marks a process as running.
    pub fn start_process(&mut self, name: impl Into<String>) {
        self.processes.push(name.into());
    }

    /// Whether a process with this name is running.
    pub fn has_process(&self, name: &str) -> bool {
        self.processes.iter().any(|p| p == name)
    }

    /// Marks the host as bricked (failed boot after MBR destruction).
    pub fn brick(&mut self) {
        self.state = HostState::Bricked;
    }

    fn ensure_running(&self) -> Result<(), HostError> {
        if self.is_running() {
            Ok(())
        } else {
            Err(HostError::NotRunning)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malsim_certs::authority::CertificateAuthority;
    use malsim_certs::hash::HashAlgorithm;
    use malsim_certs::key::KeyPair;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn far() -> SimTime {
        SimTime::from_utc(2030, 1, 1, 0, 0, 0)
    }

    fn host() -> Host {
        Host::new("pc-1", WindowsVersion::Seven, HostRole::Workstation, t(0))
    }

    fn signed_driver(host: &mut Host) -> (Vec<u8>, CodeSignature) {
        let ca = CertificateAuthority::new_root("Root", 4, SimTime::EPOCH, far());
        host.trust.add_root(ca.root_certificate().clone());
        let kp = KeyPair::from_seed(9);
        let cert = ca.issue(
            "Eldos Corp",
            kp.public(),
            vec![Eku::DriverSigning],
            HashAlgorithm::Strong64,
            SimTime::EPOCH,
            far(),
        );
        let content = b"raw disk driver".to_vec();
        let sig = CodeSignature::sign(&kp, cert, HashAlgorithm::Strong64, &content);
        (content, sig)
    }

    #[test]
    fn new_host_has_profile_tree() {
        let h = host();
        assert!(h.is_running());
        assert!(!h.fs.find_under_folders(&["documents"]).is_empty());
        assert!(h.has_process("explorer.exe"));
    }

    #[test]
    fn unsigned_driver_rejected() {
        let mut h = host();
        let err = h.load_driver("evil.sys", b"x", None, false, t(1)).unwrap_err();
        assert!(matches!(err, HostError::DriverRejected { .. }));
        assert!(h.drivers().is_empty());
    }

    #[test]
    fn signed_driver_loads_and_grants_capability() {
        let mut h = host();
        let (content, sig) = signed_driver(&mut h);
        assert!(!h.has_raw_disk_access());
        h.load_driver("drdisk.sys", &content, Some(&sig), true, t(1)).unwrap();
        assert!(h.has_raw_disk_access());
        assert_eq!(h.drivers()[0].signer_subject, "Eldos Corp");
        assert!(h.unload_driver("drdisk.sys"));
        assert!(!h.unload_driver("drdisk.sys"));
        assert!(!h.has_raw_disk_access());
    }

    #[test]
    fn tampered_driver_rejected() {
        let mut h = host();
        let (_content, sig) = signed_driver(&mut h);
        let err = h.load_driver("drdisk.sys", b"tampered", Some(&sig), true, t(1)).unwrap_err();
        assert!(matches!(err, HostError::DriverRejected { .. }));
    }

    #[test]
    fn raw_disk_requires_capability() {
        let mut h = host();
        assert!(matches!(h.write_raw_sectors(0, &[0u8; 512], false), Err(HostError::RawAccessDenied)));
        // Kernel mode bypasses.
        h.write_raw_sectors(100, b"data", true).unwrap();
    }

    #[test]
    fn mbr_overwrite_bricks_host() {
        let mut h = host();
        let (content, sig) = signed_driver(&mut h);
        h.load_driver("drdisk.sys", &content, Some(&sig), true, t(1)).unwrap();
        assert!(h.is_running());
        h.write_raw_sectors(0, &[0u8; 512], false).unwrap();
        assert_eq!(h.state(), HostState::Bricked);
        // Further host operations fail.
        assert!(matches!(h.write_raw_sectors(1, &[0u8; 1], false), Err(HostError::NotRunning)));
        assert!(matches!(h.load_driver("x.sys", b"", None, false, t(2)), Err(HostError::NotRunning)));
    }

    #[test]
    fn usb_insertion_cycle() {
        let mut h = host();
        assert_eq!(h.inserted_usb(), None);
        h.insert_usb(UsbId::new(3));
        assert_eq!(h.inserted_usb(), Some(UsbId::new(3)));
        assert_eq!(h.eject_usb(), Some(UsbId::new(3)));
        assert_eq!(h.inserted_usb(), None);
    }

    #[test]
    fn patch_checks_delegate() {
        let mut h = host();
        assert!(h.is_vulnerable_to(Bulletin::Ms10_046));
        h.patches.apply(Bulletin::Ms10_046);
        assert!(!h.is_vulnerable_to(Bulletin::Ms10_046));
    }
}
