//! Post-incident forensic analysis of a host.
//!
//! Experiment E12 measures what the paper's §V-F asserts: suicide modules
//! make forensics "very difficult". The analyzer sweeps a host for a set of
//! indicators of compromise and scores how much of the intrusion is still
//! reconstructable. Running it before and after a SUICIDE wipe quantifies
//! the difference.

use malsim_os::host::Host;
use malsim_os::path::WinPath;

/// One indicator of compromise to look for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Indicator {
    /// A file expected at (or under) a path.
    File(WinPath),
    /// A service by name.
    Service(String),
    /// A loaded driver by name.
    Driver(String),
    /// A registry key.
    RegistryKey(String),
}

/// What the analyst found for one indicator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The indicator searched for.
    pub indicator: Indicator,
    /// Whether evidence was recovered.
    pub recovered: bool,
}

/// The analyst's report.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicReport {
    /// Per-indicator findings.
    pub findings: Vec<Finding>,
}

impl ForensicReport {
    /// Fraction of indicators recovered, in `[0, 1]`; 1.0 for an empty
    /// indicator list (nothing sought, nothing missing).
    pub fn recovery_score(&self) -> f64 {
        if self.findings.is_empty() {
            return 1.0;
        }
        let hit = self.findings.iter().filter(|f| f.recovered).count();
        hit as f64 / self.findings.len() as f64
    }

    /// Indicators that were recovered.
    pub fn recovered(&self) -> impl Iterator<Item = &Indicator> {
        self.findings.iter().filter(|f| f.recovered).map(|f| &f.indicator)
    }
}

/// Sweeps a host for the given indicators. The sweep sees hidden files
/// (an offline disk image is not fooled by runtime rootkits) but obviously
/// cannot see deleted ones.
pub fn analyze_host(host: &Host, indicators: &[Indicator]) -> ForensicReport {
    let findings = indicators
        .iter()
        .map(|ind| {
            let recovered = match ind {
                Indicator::File(path) => host.fs.exists(path),
                Indicator::Service(name) => host.services.service(name).is_some(),
                Indicator::Driver(name) => host.drivers().iter().any(|d| &d.name == name),
                Indicator::RegistryKey(key) => host.registry.get(key).is_some(),
            };
            Finding { indicator: ind.clone(), recovered }
        })
        .collect();
    ForensicReport { findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malsim_kernel::time::SimTime;
    use malsim_os::fs::FileData;
    use malsim_os::host::{HostRole, WindowsVersion};

    fn t0() -> SimTime {
        SimTime::EPOCH
    }

    fn infected_host() -> Host {
        let mut h = Host::new("victim", WindowsVersion::Seven, HostRole::Workstation, t0());
        let payload = WinPath::expand(r"%system%\mssecmgr.ocx");
        h.fs.write(&payload, FileData::Bytes(vec![0; 1024].into()), t0()).unwrap();
        h.fs.set_hidden(&payload, true).unwrap();
        h.services.create_service("WSvc", payload.clone(), true, t0()).unwrap();
        h.registry.set(r"HKLM\Software\Run\WSvc", "autostart");
        h
    }

    fn indicators() -> Vec<Indicator> {
        vec![
            Indicator::File(WinPath::expand(r"%system%\mssecmgr.ocx")),
            Indicator::Service("WSvc".into()),
            Indicator::RegistryKey(r"HKLM\Software\Run\WSvc".into()),
            Indicator::Driver("mrxcls.sys".into()),
        ]
    }

    #[test]
    fn finds_planted_artifacts_including_hidden() {
        let h = infected_host();
        let report = analyze_host(&h, &indicators());
        assert_eq!(report.recovery_score(), 0.75, "3 of 4 indicators present");
        assert_eq!(report.recovered().count(), 3);
    }

    #[test]
    fn wiped_host_scores_low() {
        let mut h = infected_host();
        // SUICIDE: remove every artifact.
        let payload = WinPath::expand(r"%system%\mssecmgr.ocx");
        h.fs.delete(&payload).unwrap();
        h.services.delete_service("WSvc").unwrap();
        h.registry.delete(r"HKLM\Software\Run\WSvc");
        let report = analyze_host(&h, &indicators());
        assert_eq!(report.recovery_score(), 0.0);
    }

    #[test]
    fn empty_indicator_list() {
        let h = infected_host();
        let report = analyze_host(&h, &[]);
        assert_eq!(report.recovery_score(), 1.0);
    }
}
