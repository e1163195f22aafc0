//! Bluetooth proximity layer.
//!
//! Flame's BEETLEJUICE module enumerated nearby bluetooth devices and turned
//! the infected machine into a discoverable beacon — mapping the victim's
//! social surroundings, geolocating them, and (per the paper) offering a
//! side channel out of firewalled networks via nearby devices. We model a
//! 2-D plane of radios with a discovery range.

use std::collections::BTreeMap;

use malsim_kernel::define_id;
use serde::{Deserialize, Serialize};

define_id!(
    /// Identifies a bluetooth radio (host adapters and external devices).
    pub struct RadioId("radio")
);
malsim_kernel::impl_arena_id!(RadioId);

/// What kind of thing carries the radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RadioKind {
    /// A simulated host's adapter.
    HostAdapter,
    /// A bystander's phone (carries an address book worth stealing).
    Phone,
    /// A peripheral (headset, printer).
    Peripheral,
}

/// One radio in the plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Radio {
    /// What the radio is attached to.
    pub kind: RadioKind,
    /// Display name, e.g. the phone owner's label.
    pub name: String,
    /// Position (meters).
    pub x: f64,
    /// Position (meters).
    pub y: f64,
    /// Whether the radio answers discovery probes.
    pub discoverable: bool,
    /// Address-book entries (phones only; the data BEETLEJUICE harvests).
    pub contacts: Vec<String>,
}

/// The proximity world.
///
/// # Examples
///
/// ```
/// use malsim_net::bluetooth::{BluetoothPlane, Radio, RadioKind};
///
/// let mut plane = BluetoothPlane::new(10.0);
/// let a = plane.add(Radio { kind: RadioKind::HostAdapter, name: "pc".into(), x: 0.0, y: 0.0, discoverable: false, contacts: vec![] });
/// let b = plane.add(Radio { kind: RadioKind::Phone, name: "phone".into(), x: 3.0, y: 4.0, discoverable: true, contacts: vec!["mom".into()] });
/// assert_eq!(plane.discover_from(a), vec![b]);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BluetoothPlane {
    range_m: f64,
    radios: BTreeMap<RadioId, Radio>,
    next: usize,
}

impl BluetoothPlane {
    /// Creates a plane with the given discovery range in meters.
    pub fn new(range_m: f64) -> Self {
        BluetoothPlane { range_m, radios: BTreeMap::new(), next: 0 }
    }

    /// Adds a radio, returning its id.
    pub fn add(&mut self, radio: Radio) -> RadioId {
        let id = RadioId::new(self.next);
        self.next += 1;
        self.radios.insert(id, radio);
        id
    }

    /// Radio accessor.
    pub fn radio(&self, id: RadioId) -> Option<&Radio> {
        self.radios.get(&id)
    }

    /// Sets a radio discoverable (what BEETLEJUICE does to the infected
    /// host: "turns itself into a beacon").
    pub fn set_discoverable(&mut self, id: RadioId, discoverable: bool) {
        if let Some(r) = self.radios.get_mut(&id) {
            r.discoverable = discoverable;
        }
    }

    /// Discoverable radios within range of `from` (excluding itself).
    pub fn discover_from(&self, from: RadioId) -> Vec<RadioId> {
        let Some(origin) = self.radios.get(&from) else { return Vec::new() };
        self.radios
            .iter()
            .filter(|(id, r)| {
                **id != from && r.discoverable && dist(origin.x, origin.y, r.x, r.y) <= self.range_m
            })
            .map(|(id, _)| *id)
            .collect()
    }

    /// Radios (discoverable or not) that can *see* a beacon at `id` — i.e.
    /// who learns the victim's presence once BEETLEJUICE beacons.
    pub fn observers_of(&self, id: RadioId) -> Vec<RadioId> {
        let Some(beacon) = self.radios.get(&id) else { return Vec::new() };
        if !beacon.discoverable {
            return Vec::new();
        }
        self.radios
            .iter()
            .filter(|(other, r)| **other != id && dist(beacon.x, beacon.y, r.x, r.y) <= self.range_m)
            .map(|(other, _)| *other)
            .collect()
    }

    /// Estimated position of a radio from three observers (trilateration is
    /// modelled as exact — the paper's point is *that* physical location
    /// leaks, not the geometry error).
    pub fn leak_position(&self, id: RadioId) -> Option<(f64, f64)> {
        let r = self.radios.get(&id)?;
        if !self.observers_of(id).is_empty() {
            Some((r.x, r.y))
        } else {
            None
        }
    }

    /// Total number of radios.
    pub fn len(&self) -> usize {
        self.radios.len()
    }

    /// True when the plane has no radios.
    pub fn is_empty(&self) -> bool {
        self.radios.is_empty()
    }
}

fn dist(x1: f64, y1: f64, x2: f64, y2: f64) -> f64 {
    ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phone(name: &str, x: f64, y: f64) -> Radio {
        Radio {
            kind: RadioKind::Phone,
            name: name.into(),
            x,
            y,
            discoverable: true,
            contacts: vec![format!("{name}-contact")],
        }
    }

    fn adapter(x: f64, y: f64) -> Radio {
        Radio {
            kind: RadioKind::HostAdapter,
            name: "host".into(),
            x,
            y,
            discoverable: false,
            contacts: vec![],
        }
    }

    #[test]
    fn discovery_respects_range() {
        let mut p = BluetoothPlane::new(10.0);
        let host = p.add(adapter(0.0, 0.0));
        let near = p.add(phone("near", 6.0, 8.0)); // dist 10 — inclusive
        let _far = p.add(phone("far", 60.0, 80.0));
        assert_eq!(p.discover_from(host), vec![near]);
    }

    #[test]
    fn non_discoverable_radios_hidden() {
        let mut p = BluetoothPlane::new(10.0);
        let host = p.add(adapter(0.0, 0.0));
        let shy = p.add(phone("shy", 1.0, 1.0));
        p.set_discoverable(shy, false);
        assert!(p.discover_from(host).is_empty());
    }

    #[test]
    fn beaconing_exposes_the_host() {
        let mut p = BluetoothPlane::new(10.0);
        let host = p.add(adapter(0.0, 0.0));
        let watcher = p.add(phone("watcher", 2.0, 0.0));
        assert!(p.observers_of(host).is_empty(), "not discoverable yet");
        assert_eq!(p.leak_position(host), None);
        p.set_discoverable(host, true);
        assert_eq!(p.observers_of(host), vec![watcher]);
        assert_eq!(p.leak_position(host), Some((0.0, 0.0)));
    }

    #[test]
    fn contacts_are_harvestable() {
        let mut p = BluetoothPlane::new(10.0);
        let host = p.add(adapter(0.0, 0.0));
        let phone_id = p.add(phone("boss", 3.0, 0.0));
        let found = p.discover_from(host);
        assert_eq!(found, vec![phone_id]);
        let contacts: Vec<&str> =
            found.iter().flat_map(|id| p.radio(*id).unwrap().contacts.iter().map(String::as_str)).collect();
        assert_eq!(contacts, vec!["boss-contact"]);
    }

    #[test]
    fn missing_radio_is_safe() {
        let p = BluetoothPlane::new(10.0);
        assert!(p.discover_from(RadioId::new(9)).is_empty());
        assert!(p.observers_of(RadioId::new(9)).is_empty());
        assert!(p.is_empty());
    }
}
