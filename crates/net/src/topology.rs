//! Zones (LAN segments), internet reachability, and traffic interposition.
//!
//! A [`Topology`] partitions hosts into zones. Each zone may be connected to
//! the internet or air-gapped (the protected environments the paper says
//! Flame targeted via USB ferrying). Within a zone, a WPAD claimant can
//! become every WPAD-enabled host's proxy — the interposition hook Flame's
//! SNACK module used for its man-in-the-middle spread.

use std::collections::BTreeMap;

use malsim_kernel::define_id;
use malsim_kernel::ids::Arena;
use malsim_os::host::HostId;

define_id!(
    /// Identifies a zone (LAN segment).
    pub struct ZoneId("zone")
);
malsim_kernel::impl_arena_id!(ZoneId);

/// A LAN segment.
#[derive(Debug, Clone)]
pub struct Zone {
    /// Zone name, e.g. `"office-lan"` or `"natanz-scada"`.
    pub name: String,
    /// Whether the zone routes to the internet.
    pub internet: bool,
    hosts: Vec<HostId>,
    /// The host currently answering WPAD queries, if any. Legitimate
    /// networks in these scenarios have none; an infected machine claims the
    /// role.
    wpad_claimant: Option<HostId>,
    /// Whether the zone's uplink is currently up. Fault windows and defender
    /// actions (unplugging a compromised segment) toggle this.
    link_up: bool,
}

impl Zone {
    /// Hosts in the zone.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// The current WPAD claimant.
    pub fn wpad_claimant(&self) -> Option<HostId> {
        self.wpad_claimant
    }

    /// Whether the zone's uplink is currently up.
    pub fn link_up(&self) -> bool {
        self.link_up
    }

    /// The fault-plane target name for this zone, e.g. `"zone:office"`.
    pub fn fault_target(&self) -> String {
        format!("zone:{}", self.name)
    }
}

/// The network world: zones plus per-host placement.
///
/// # Examples
///
/// ```
/// use malsim_net::topology::Topology;
/// use malsim_os::host::HostId;
///
/// let mut topo = Topology::new();
/// let lan = topo.add_zone("office", true);
/// topo.place(HostId::new(0), lan);
/// topo.place(HostId::new(1), lan);
/// assert_eq!(topo.peers_of(HostId::new(0)).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    zones: Arena<ZoneId, Zone>,
    placement: BTreeMap<HostId, ZoneId>,
    /// Bumped by every [`Topology::place`].
    generation: u64,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a zone.
    pub fn add_zone(&mut self, name: impl Into<String>, internet: bool) -> ZoneId {
        self.zones.push(Zone {
            name: name.into(),
            internet,
            hosts: Vec::new(),
            wpad_claimant: None,
            link_up: true,
        })
    }

    /// Places a host in a zone (moving it if already placed).
    pub fn place(&mut self, host: HostId, zone: ZoneId) {
        if let Some(old) = self.placement.insert(host, zone) {
            self.zones[old].hosts.retain(|h| *h != host);
        }
        self.zones[zone].hosts.push(host);
        self.generation += 1;
    }

    /// Zone-membership generation: changes whenever a host is placed or
    /// moved, so anything cached from [`Zone::hosts`] is current exactly
    /// while this value is unchanged.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The zone a host is in.
    pub fn zone_of(&self, host: HostId) -> Option<ZoneId> {
        self.placement.get(&host).copied()
    }

    /// Zone accessor.
    pub fn zone(&self, id: ZoneId) -> &Zone {
        &self.zones[id]
    }

    /// All zones.
    pub fn zones(&self) -> impl Iterator<Item = (ZoneId, &Zone)> {
        self.zones.iter()
    }

    /// Hosts sharing a zone with `host` (excluding it).
    pub fn peers_of(&self, host: HostId) -> Vec<HostId> {
        match self.zone_of(host) {
            Some(z) => self.zones[z].hosts.iter().copied().filter(|h| *h != host).collect(),
            None => Vec::new(),
        }
    }

    /// Whether a host's zone routes to the internet *right now*: the zone
    /// must be internet-connected by design and have its uplink up.
    pub fn has_internet(&self, host: HostId) -> bool {
        self.zone_of(host).is_some_and(|z| self.zones[z].internet && self.zones[z].link_up)
    }

    /// Raises or severs a zone's uplink. Returns the previous state.
    pub fn set_link(&mut self, zone: ZoneId, up: bool) -> bool {
        std::mem::replace(&mut self.zones[zone].link_up, up)
    }

    /// Whether a host's zone uplink is up (true for unzoned hosts' absence
    /// of a link to sever — they already fail `has_internet`).
    pub fn link_up(&self, host: HostId) -> bool {
        self.zone_of(host).is_none_or(|z| self.zones[z].link_up)
    }

    /// The fault-plane target name for the host's zone (`"zone:<name>"`).
    pub fn fault_target_of(&self, host: HostId) -> Option<String> {
        self.zone_of(host).map(|z| self.zones[z].fault_target())
    }

    /// Whether two hosts share a zone.
    pub fn same_zone(&self, a: HostId, b: HostId) -> bool {
        match (self.zone_of(a), self.zone_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Claims the WPAD role in the claimant's zone. Returns `false` when the
    /// host is unplaced.
    pub fn claim_wpad(&mut self, claimant: HostId) -> bool {
        match self.zone_of(claimant) {
            Some(z) => {
                self.zones[z].wpad_claimant = Some(claimant);
                true
            }
            None => false,
        }
    }

    /// Releases the WPAD role in a zone.
    pub fn release_wpad(&mut self, zone: ZoneId) {
        self.zones[zone].wpad_claimant = None;
    }

    /// Resolves the proxy a client's traffic flows through: the zone's WPAD
    /// claimant, if the client consults WPAD (`client_wpad_enabled`) and the
    /// claimant is not the client itself.
    pub fn effective_proxy(&self, client: HostId, client_wpad_enabled: bool) -> Option<HostId> {
        if !client_wpad_enabled {
            return None;
        }
        let z = self.zone_of(client)?;
        match self.zones[z].wpad_claimant {
            Some(p) if p != client => Some(p),
            _ => None,
        }
    }

    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Number of placed hosts.
    pub fn host_count(&self) -> usize {
        self.placement.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn placement_and_peers() {
        let mut t = Topology::new();
        let a = t.add_zone("a", true);
        let b = t.add_zone("b", false);
        t.place(h(0), a);
        t.place(h(1), a);
        t.place(h(2), b);
        assert_eq!(t.peers_of(h(0)), vec![h(1)]);
        assert!(t.same_zone(h(0), h(1)));
        assert!(!t.same_zone(h(0), h(2)));
        assert!(t.has_internet(h(0)));
        assert!(!t.has_internet(h(2)), "air-gapped zone");
        assert_eq!(t.zone_count(), 2);
        assert_eq!(t.host_count(), 3);
    }

    #[test]
    fn moving_a_host_updates_both_zones() {
        let mut t = Topology::new();
        let a = t.add_zone("a", true);
        let b = t.add_zone("b", true);
        t.place(h(0), a);
        let before = t.generation();
        t.place(h(0), b);
        assert_ne!(t.generation(), before, "a move changes the membership generation");
        assert!(t.zone(a).hosts().is_empty());
        assert_eq!(t.zone(b).hosts(), &[h(0)]);
        assert_eq!(t.zone_of(h(0)), Some(b));
    }

    #[test]
    fn wpad_claim_and_proxy_resolution() {
        let mut t = Topology::new();
        let z = t.add_zone("lan", true);
        for i in 0..3 {
            t.place(h(i), z);
        }
        assert_eq!(t.effective_proxy(h(1), true), None, "no claimant yet");
        assert!(t.claim_wpad(h(0)));
        assert_eq!(t.effective_proxy(h(1), true), Some(h(0)));
        assert_eq!(t.effective_proxy(h(1), false), None, "wpad disabled on client");
        assert_eq!(t.effective_proxy(h(0), true), None, "claimant does not proxy itself");
        t.release_wpad(z);
        assert_eq!(t.effective_proxy(h(1), true), None);
    }

    #[test]
    fn link_state_gates_internet_access() {
        let mut t = Topology::new();
        let office = t.add_zone("office", true);
        let plant = t.add_zone("plant", false);
        t.place(h(0), office);
        t.place(h(1), plant);
        assert!(t.has_internet(h(0)));
        assert!(t.link_up(h(0)));
        assert_eq!(t.zone(office).fault_target(), "zone:office");
        assert_eq!(t.fault_target_of(h(0)).as_deref(), Some("zone:office"));

        // Severing the uplink cuts internet access without re-zoning.
        assert!(t.set_link(office, false), "previous state was up");
        assert!(!t.has_internet(h(0)));
        assert!(!t.link_up(h(0)));
        assert!(!t.set_link(office, true));
        assert!(t.has_internet(h(0)), "restored");

        // An air-gapped zone stays offline regardless of link state.
        assert!(t.set_link(plant, false));
        t.set_link(plant, true);
        assert!(!t.has_internet(h(1)));
    }

    #[test]
    fn unplaced_host_edge_cases() {
        let mut t = Topology::new();
        assert_eq!(t.zone_of(h(9)), None);
        assert!(t.peers_of(h(9)).is_empty());
        assert!(!t.has_internet(h(9)));
        assert!(!t.claim_wpad(h(9)));
        assert_eq!(t.effective_proxy(h(9), true), None);
    }
}
