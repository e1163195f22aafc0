//! Capability gating for host functions.
//!
//! A scenario script runs against a [`HostEnv`] that
//! exposes the simulated world — file scans, network dials, USB writes,
//! exfiltration, detonation. Untrusted scripts must not get all of that by
//! default: each script declares the capabilities it needs in a manifest,
//! and [`GatedHost`] checks every sensitive call against the granted set.
//! An ungranted call returns a typed
//! [`RunScriptError::CapabilityDenied`] — never a panic, and never a silent
//! no-op that would skew sweep results.
//!
//! Which function needs which capability is a static table, written once
//! next to the host it guards, and the grant is fixed when the gate is
//! built. Because [`HostEnv`] is implemented for `&mut H`, a gate can borrow
//! a host instead of owning it: several scripts with different grants can
//! run in turn against one host, each behind its own gate, at no cost per
//! gate.

use std::fmt;

use crate::error::RunScriptError;
use crate::value::Value;
use crate::vm::HostEnv;

/// A privilege a script can be granted over the simulated world.
///
/// The set mirrors what the paper's weapons actually do: Flame scans file
/// systems and exfiltrates, Stuxnet writes USB payloads and detonates,
/// everything beacons. Host functions are mapped to exactly one capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Capability {
    /// Resolve domains / open simulated network connections.
    NetDial,
    /// Enumerate and read files on simulated hosts.
    FsScan,
    /// Stage payload files via removable media.
    UsbWrite,
    /// Upload collected data to the C&C side.
    Exfil,
    /// Destructive actions: brick a host, wipe the implant.
    Detonate,
    /// Microphone access (Flame's MICROBE).
    Audio,
    /// Bluetooth discovery and harvesting (BEETLEJUICE).
    Bluetooth,
    /// Passive host reconnaissance (sysinfo, AV probing, screenshots).
    Recon,
}

impl Capability {
    /// Every capability, in declaration order.
    pub const ALL: [Capability; 8] = [
        Capability::NetDial,
        Capability::FsScan,
        Capability::UsbWrite,
        Capability::Exfil,
        Capability::Detonate,
        Capability::Audio,
        Capability::Bluetooth,
        Capability::Recon,
    ];

    /// The stable lower-snake label used in manifests and reports.
    pub fn label(self) -> &'static str {
        match self {
            Capability::NetDial => "net_dial",
            Capability::FsScan => "fs_scan",
            Capability::UsbWrite => "usb_write",
            Capability::Exfil => "exfil",
            Capability::Detonate => "detonate",
            Capability::Audio => "audio",
            Capability::Bluetooth => "bluetooth",
            Capability::Recon => "recon",
        }
    }

    /// Parses a manifest label back to a capability.
    pub fn from_label(label: &str) -> Option<Capability> {
        Capability::ALL.into_iter().find(|c| c.label() == label)
    }

    fn bit(self) -> u16 {
        1 << (Capability::ALL.iter().position(|c| *c == self).expect("listed in ALL") as u16)
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A set of granted capabilities (a bitset; `Copy`, order-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct CapabilitySet(u16);

impl CapabilitySet {
    /// The empty set — a fully sandboxed script.
    pub const fn none() -> Self {
        CapabilitySet(0)
    }

    /// Every capability — only for trusted, first-party scenario code.
    pub fn all() -> Self {
        Capability::ALL.into_iter().fold(CapabilitySet::none(), CapabilitySet::grant)
    }

    /// Returns the set with `cap` added (builder style).
    #[must_use]
    pub fn grant(self, cap: Capability) -> Self {
        CapabilitySet(self.0 | cap.bit())
    }

    /// Does the set allow `cap`?
    pub fn allows(self, cap: Capability) -> bool {
        self.0 & cap.bit() != 0
    }

    /// True when nothing is granted.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The granted capabilities, in declaration order.
    pub fn iter(self) -> impl Iterator<Item = Capability> {
        Capability::ALL.into_iter().filter(move |c| self.allows(*c))
    }

    /// Parses a whitespace-separated list of labels, e.g. `"fs_scan exfil"`.
    ///
    /// # Errors
    ///
    /// Returns the first unknown label.
    pub fn parse(labels: &str) -> Result<CapabilitySet, String> {
        let mut set = CapabilitySet::none();
        for word in labels.split_whitespace() {
            match Capability::from_label(word) {
                Some(cap) => set = set.grant(cap),
                None => return Err(word.to_owned()),
            }
        }
        Ok(set)
    }
}

impl fmt::Display for CapabilitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for cap in self.iter() {
            if !first {
                f.write_str(" ")?;
            }
            first = false;
            write!(f, "{cap}")?;
        }
        Ok(())
    }
}

impl FromIterator<Capability> for CapabilitySet {
    fn from_iter<T: IntoIterator<Item = Capability>>(iter: T) -> Self {
        iter.into_iter().fold(CapabilitySet::none(), CapabilitySet::grant)
    }
}

/// Which host functions need which capability: `(function, capability)`
/// pairs. A function absent from the table is ungated.
pub type Requirements = &'static [(&'static str, Capability)];

/// A [`HostEnv`] wrapper that checks each call against a granted
/// [`CapabilitySet`] before delegating to the inner host.
///
/// A call to a function listed in the [`Requirements`] table without its
/// capability returns [`RunScriptError::CapabilityDenied`]. Unlisted names
/// pass through (the inner host decides whether they exist), so gating
/// composes with builtins and harmless helpers like `log`.
pub struct GatedHost<H> {
    inner: H,
    granted: CapabilitySet,
    required: Requirements,
}

impl<H> GatedHost<H> {
    /// Wraps `inner`, granting `granted`; `required` says which functions
    /// are gated.
    pub fn new(inner: H, granted: CapabilitySet, required: Requirements) -> Self {
        GatedHost { inner, granted, required }
    }

    /// The capabilities this host was granted.
    pub fn granted(&self) -> CapabilitySet {
        self.granted
    }

    /// The capability `name` requires, if it is gated at all.
    pub fn required_for(&self, name: &str) -> Option<Capability> {
        self.required.iter().find(|(f, _)| *f == name).map(|&(_, cap)| cap)
    }

    /// Consumes the gate, returning the inner host.
    pub fn into_inner(self) -> H {
        self.inner
    }
}

impl<H: fmt::Debug> fmt::Debug for GatedHost<H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GatedHost")
            .field("granted", &self.granted.to_string())
            .field("gated_fns", &self.required.len())
            .field("inner", &self.inner)
            .finish()
    }
}

impl<H: HostEnv> HostEnv for GatedHost<H> {
    fn call_host(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, RunScriptError> {
        if let Some(cap) = self.required_for(name) {
            if !self.granted.allows(cap) {
                return Err(RunScriptError::CapabilityDenied { name: name.to_owned(), capability: cap });
            }
        }
        self.inner.call_host(name, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use crate::vm::{FnHost, Vm, VmLimits};

    #[test]
    fn labels_round_trip() {
        for cap in Capability::ALL {
            assert_eq!(Capability::from_label(cap.label()), Some(cap));
        }
        assert_eq!(Capability::from_label("root"), None);
    }

    #[test]
    fn set_grant_allows_and_display() {
        let set = CapabilitySet::none().grant(Capability::Exfil).grant(Capability::FsScan);
        assert!(set.allows(Capability::Exfil));
        assert!(set.allows(Capability::FsScan));
        assert!(!set.allows(Capability::Detonate));
        assert_eq!(set.to_string(), "fs_scan exfil");
        assert!(CapabilitySet::none().is_empty());
        assert!(CapabilitySet::all().allows(Capability::Audio));
    }

    #[test]
    fn parse_accepts_labels_and_rejects_unknown() {
        let set = CapabilitySet::parse("exfil  fs_scan").unwrap();
        assert_eq!(set, CapabilitySet::none().grant(Capability::Exfil).grant(Capability::FsScan));
        assert_eq!(CapabilitySet::parse(""), Ok(CapabilitySet::none()));
        assert_eq!(CapabilitySet::parse("exfil sudo"), Err("sudo".to_owned()));
    }

    #[test]
    fn gated_host_denies_ungranted_and_passes_granted() {
        let mut calls = 0usize;
        {
            let mut inner = FnHost::new();
            inner.register("exfil", |_| Ok(Value::Int(1)));
            inner.register("wipe_self", |_| Ok(Value::Int(2)));
            inner.register("log", |_| {
                Ok(Value::Nil) // ungated helper
            });
            const GATE: Requirements = &[("exfil", Capability::Exfil), ("wipe_self", Capability::Detonate)];
            let mut host = GatedHost::new(inner, CapabilitySet::none().grant(Capability::Exfil), GATE);

            let mut vm = Vm::new();
            let ok = compile("return exfil()").unwrap();
            assert_eq!(vm.run(&ok, &mut host, VmLimits::default()).unwrap().value, Value::Int(1));
            calls += 1;

            let denied = compile("return wipe_self()").unwrap();
            let err = vm.run(&denied, &mut host, VmLimits::default()).unwrap_err();
            assert_eq!(
                err,
                RunScriptError::CapabilityDenied {
                    name: "wipe_self".into(),
                    capability: Capability::Detonate
                }
            );

            let ungated = compile("return log()").unwrap();
            assert_eq!(vm.run(&ungated, &mut host, VmLimits::default()).unwrap().value, Value::Nil);
        }
        assert_eq!(calls, 1);
    }
}
