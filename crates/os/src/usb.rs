//! Removable USB media.
//!
//! USB drives are the paper's dominant initial-infection vector: Stuxnet's
//! malicious-LNK drives, Flame's EUPHORIA spreading, and Flame's hidden
//! on-stick database used to ferry stolen data out of air-gapped zones.
//! A [`UsbDrive`] is a small file system plus that optional hidden store.

use malsim_kernel::define_id;
use malsim_kernel::time::SimTime;

use crate::fs::{FileData, Vfs};
use crate::path::WinPath;

define_id!(
    /// Identifies a USB drive in a scenario.
    pub struct UsbId("usb")
);
malsim_kernel::impl_arena_id!(UsbId);

/// One record in the hidden exfiltration store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HiddenRecord {
    /// Originating host name.
    pub source_host: String,
    /// Path of the stolen document.
    pub path: WinPath,
    /// Size in bytes.
    pub size: usize,
    /// When it was captured.
    pub captured_at: SimTime,
}

/// A removable drive.
#[derive(Debug, Clone)]
pub struct UsbDrive {
    /// Volume label.
    pub label: String,
    /// The drive's visible file system.
    pub fs: Vfs,
    /// Hidden database used for air-gap exfiltration. `None` until a Flame
    /// client initializes it.
    hidden_db: Option<Vec<HiddenRecord>>,
    /// Whether this stick has been plugged into an internet-connected,
    /// infected machine since the last flush (the paper's "has it seen the
    /// internet" check).
    seen_online_infected: bool,
    /// Manifest of documents (source host, path) already ferried out through
    /// this stick, kept so repeated courier passes through the same blocked
    /// host do not re-steal files the C&C already holds.
    ferried_log: Vec<(String, WinPath)>,
}

impl UsbDrive {
    /// Creates an empty drive.
    pub fn new(label: impl Into<String>) -> Self {
        UsbDrive {
            label: label.into(),
            fs: Vfs::new(),
            hidden_db: None,
            seen_online_infected: false,
            ferried_log: Vec::new(),
        }
    }

    /// Whether a hidden database exists.
    pub fn has_hidden_db(&self) -> bool {
        self.hidden_db.is_some()
    }

    /// Initializes the hidden database if absent.
    pub fn ensure_hidden_db(&mut self) {
        if self.hidden_db.is_none() {
            self.hidden_db = Some(Vec::new());
        }
    }

    /// Appends a stolen-document record.
    ///
    /// # Panics
    ///
    /// Panics if the hidden database has not been initialized.
    pub fn stash(&mut self, record: HiddenRecord) {
        self.hidden_db.as_mut().expect("hidden db initialized").push(record);
    }

    /// Reads the hidden records.
    pub fn hidden_records(&self) -> &[HiddenRecord] {
        self.hidden_db.as_deref().unwrap_or(&[])
    }

    /// Drains the hidden records (after upload to a C&C), noting each in the
    /// ferried manifest.
    pub fn flush_hidden(&mut self) -> Vec<HiddenRecord> {
        let records = self.hidden_db.as_mut().map(std::mem::take).unwrap_or_default();
        for r in &records {
            self.ferried_log.push((r.source_host.clone(), r.path.clone()));
        }
        records
    }

    /// Whether a document was already ferried out through this stick.
    pub fn already_ferried(&self, host: &str, path: &WinPath) -> bool {
        self.ferried_log.iter().any(|(h, p)| h == host && p == path)
    }

    /// Marks that the drive was seen in an online infected machine.
    pub fn mark_seen_online_infected(&mut self) {
        self.seen_online_infected = true;
    }

    /// Whether the drive has visited an online infected machine.
    pub fn seen_online_infected(&self) -> bool {
        self.seen_online_infected
    }

    /// Drops a Stuxnet-style malicious shortcut set plus payload onto the
    /// drive: one LNK per target shell flavour, all pointing at the payload.
    pub fn plant_malicious_lnk(&mut self, payload_name: &str, payload: FileData, now: SimTime) {
        let root = WinPath::new("E:");
        let payload_path = root.join(payload_name);
        self.fs.write(&payload_path, payload, now).expect("valid payload path");
        self.fs.set_hidden(&payload_path, true).expect("just written");
        for flavour in ["xp", "vista", "7", "server2003"] {
            let lnk = root.join(format!("Copy of Shortcut to {flavour}.lnk"));
            self.fs
                .write(
                    &lnk,
                    FileData::Shortcut { target: root.clone(), exploit_payload: Some(payload_path.clone()) },
                    now,
                )
                .expect("valid lnk path");
        }
    }

    /// Drops an autorun.inf naming a payload (the older vector Flame also
    /// carries).
    pub fn plant_autorun(&mut self, payload_name: &str, payload: FileData, now: SimTime) {
        let root = WinPath::new("E:");
        let payload_path = root.join(payload_name);
        self.fs.write(&payload_path, payload, now).expect("valid payload path");
        self.fs.set_hidden(&payload_path, true).expect("just written");
        self.fs
            .write(&root.join("autorun.inf"), FileData::Autorun { run: payload_path }, now)
            .expect("valid autorun path");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn hidden_db_lifecycle() {
        let mut usb = UsbDrive::new("KINGSTON");
        assert!(!usb.has_hidden_db());
        usb.ensure_hidden_db();
        usb.ensure_hidden_db(); // idempotent
        assert!(usb.has_hidden_db());
        usb.stash(HiddenRecord {
            source_host: "airgap-1".into(),
            path: WinPath::new(r"C:\docs\secret.docx"),
            size: 4_096,
            captured_at: t(10),
        });
        assert_eq!(usb.hidden_records().len(), 1);
        let drained = usb.flush_hidden();
        assert_eq!(drained.len(), 1);
        assert!(usb.hidden_records().is_empty());
        assert!(usb.has_hidden_db(), "flush keeps the db present");
        assert!(
            usb.already_ferried("airgap-1", &WinPath::new(r"C:\docs\secret.docx")),
            "flush records the document in the ferried manifest"
        );
        assert!(!usb.already_ferried("airgap-2", &WinPath::new(r"C:\docs\secret.docx")));
    }

    #[test]
    fn online_flag() {
        let mut usb = UsbDrive::new("X");
        assert!(!usb.seen_online_infected());
        usb.mark_seen_online_infected();
        assert!(usb.seen_online_infected());
    }

    #[test]
    fn malicious_lnk_set() {
        let mut usb = UsbDrive::new("conference gift");
        usb.plant_malicious_lnk("~wtr4132.tmp", FileData::Bytes(vec![0; 16].into()), t(1));
        let lnks = usb.fs.find_by_extension(&["lnk"], false);
        assert_eq!(lnks.len(), 4, "one per shell flavour");
        // Payload itself is hidden.
        let visible = usb.fs.list(&WinPath::new("E:"), false);
        assert!(visible.iter().all(|p| !p.as_str().contains("wtr4132")));
        let all = usb.fs.list(&WinPath::new("E:"), true);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn autorun_planting() {
        let mut usb = UsbDrive::new("U");
        usb.plant_autorun("loader.exe", FileData::Bytes(vec![1].into()), t(1));
        let inf = usb.fs.read(&WinPath::new(r"E:\autorun.inf")).unwrap();
        assert!(matches!(&inf.data, FileData::Autorun { run } if run.as_str().contains("loader.exe")));
    }
}
