//! Integration: the Flame lifecycle end to end — MITM spread, scripted
//! collection, operator triage, air-gap ferrying, advisory response, and
//! the fleet-wide suicide.

use malsim::prelude::*;
use malsim_kernel::time::SimDuration;
use malsim_malware::flame::candc::StolenData;
use malsim_os::fs::FileData;
use malsim_os::path::WinPath;

fn flame_lan(seed: u64, n: usize) -> (World, WorldSim, Pki) {
    let (mut world, mut sim) = ScenarioBuilder::new(seed).office_lan(n);
    let pki = Pki::install(&mut world);
    pki.arm_flame(&mut world, &mut sim, 22, 80);
    (world, sim, pki)
}

#[test]
fn mitm_spread_saturates_an_unprotected_lan() {
    let (mut world, mut sim, _pki) = flame_lan(1, 10);
    flame::client::infect_host(&mut world, &mut sim, HostId::new(0), "seed");
    flame::mitm::snack_claim_wpad(&mut world, &mut sim, HostId::new(0));
    activity::schedule_update_checks(
        &mut sim,
        (0..10).map(HostId::new).collect(),
        SimDuration::from_hours(24),
    );
    sim.run_until(&mut world, sim.now() + SimDuration::from_days(2));
    assert_eq!(world.campaigns.flame_clients.len(), 10);
    assert_eq!(sim.metrics.counter("flame.mitm_infections"), 9);
}

#[test]
fn advisory_rollout_halts_the_spread_mid_campaign() {
    let (mut world, mut sim, pki) = flame_lan(2, 8);
    flame::client::infect_host(&mut world, &mut sim, HostId::new(0), "seed");
    flame::mitm::snack_claim_wpad(&mut world, &mut sim, HostId::new(0));
    activity::schedule_update_checks(
        &mut sim,
        (0..8).map(HostId::new).collect(),
        SimDuration::from_hours(24),
    );
    // Day 2: only some hosts have fallen; the advisory ships fleet-wide.
    sim.run_until(&mut world, sim.now() + SimDuration::from_hours(30));
    let infected_at_advisory = world.campaigns.flame_clients.len();
    assert!(infected_at_advisory < 8, "spread still in progress");
    for i in 0..8 {
        pki.apply_advisory(&mut world, HostId::new(i));
    }
    sim.run_until(&mut world, sim.now() + SimDuration::from_days(5));
    assert_eq!(
        world.campaigns.flame_clients.len(),
        infected_at_advisory,
        "no new infections after the advisory"
    );
}

#[test]
fn collection_pipeline_delivers_triaged_content_to_attack_center() {
    let (mut world, mut sim, _pki) = flame_lan(3, 3);
    for i in 0..3 {
        let h = HostId::new(i);
        world.hosts[h]
            .fs
            .write(
                &WinPath::new(r"C:\Users\user\Documents\secret.docx"),
                FileData::Bytes(vec![0; 250_000].into()),
                sim.now(),
            )
            .unwrap();
        world.hosts[h]
            .fs
            .write(
                &WinPath::new(r"C:\Users\user\Documents\shopping.txt"),
                FileData::Bytes(vec![0; 250_000].into()),
                sim.now(),
            )
            .unwrap();
        flame::client::infect_host(&mut world, &mut sim, h, "seed");
    }
    activity::schedule_flame_operator(&mut sim, SimDuration::from_mins(30));
    sim.run_until(&mut world, sim.now() + SimDuration::from_days(1));
    let platform = world.campaigns.flame_platform.as_ref().unwrap();
    let contents: Vec<&StolenData> = platform
        .attack_center
        .retrieved
        .iter()
        .filter(|d| matches!(d, StolenData::FileContent { .. }))
        .collect();
    assert_eq!(contents.len(), 3, "one juicy file per host");
    assert!(contents
        .iter()
        .all(|d| matches!(d, StolenData::FileContent { path, .. } if path.ends_with(".docx"))));
    // Sysinfo from FLASK also arrived.
    assert!(platform.attack_center.retrieved.iter().any(|d| matches!(d, StolenData::SystemInfo { .. })));
    // Cleanup kept servers empty.
    assert!(platform.servers.iter().all(|s| s.entries.is_empty()));
}

#[test]
fn bluetooth_module_maps_social_surroundings() {
    use malsim_net::bluetooth::{Radio, RadioKind};
    let (mut world, mut sim, _pki) = flame_lan(4, 1);
    let h = HostId::new(0);
    world.hosts[h].config.bluetooth = true;
    world.bluetooth = malsim_net::bluetooth::BluetoothPlane::new(10.0);
    let host_radio = world.bluetooth.add(Radio {
        kind: RadioKind::HostAdapter,
        name: "victim-pc".into(),
        x: 0.0,
        y: 0.0,
        discoverable: false,
        contacts: vec![],
    });
    world.radio_of.insert(h, host_radio);
    world.bluetooth.add(Radio {
        kind: RadioKind::Phone,
        name: "director-phone".into(),
        x: 3.0,
        y: 0.0,
        discoverable: true,
        contacts: vec!["minister".into(), "deputy".into()],
    });
    flame::client::infect_host(&mut world, &mut sim, h, "seed");
    flame::client::activity_cycle(&mut world, &mut sim, h);
    // The host beacons (discoverable) and harvested the phone's contacts.
    assert!(world.bluetooth.radio(host_radio).unwrap().discoverable);
    let platform = world.campaigns.flame_platform.as_ref().unwrap();
    let mut all_data: Vec<StolenData> = platform.attack_center.retrieved.clone();
    for server in &platform.servers {
        for entry in &server.entries {
            all_data.push(platform.attack_center.decrypt_entry(entry));
        }
    }
    let found = all_data.iter().any(|d| {
        matches!(d, StolenData::BluetoothSurvey { devices, contacts, .. }
            if devices.contains(&"director-phone".to_owned()) && contacts.len() == 2)
    });
    assert!(found, "bluetooth survey uploaded");
}

#[test]
fn air_gap_ferry_and_suicide_interact_correctly() {
    let (mut world, mut sim, _pki) = flame_lan(5, 2);
    // Protected zone with one infected machine holding documents.
    let airgap = world.topology.add_zone("protected", false);
    let mut iso = malsim_os::host::Host::new(
        "vault-pc",
        malsim_os::host::WindowsVersion::Xp,
        malsim_os::host::HostRole::Workstation,
        sim.now(),
    );
    iso.config.internet_access = false;
    let vault = world.hosts.push(iso);
    world.topology.place(vault, airgap);
    world.hosts[vault]
        .fs
        .write(&WinPath::new(r"C:\vault\plans.pdf"), FileData::Bytes(vec![0; 123_000].into()), sim.now())
        .unwrap();
    flame::client::infect_host(&mut world, &mut sim, HostId::new(0), "seed");
    flame::client::infect_host(&mut world, &mut sim, vault, "usb");
    let usb = world.usb_drives.push(malsim_os::usb::UsbDrive::new("courier"));
    activity::schedule_usb_courier(&mut sim, usb, vec![HostId::new(0), vault], SimDuration::from_hours(12));
    sim.run_until(&mut world, sim.now() + SimDuration::from_days(3));
    assert!(sim.metrics.counter("flame.usb_ferried_uploads") >= 1, "vault data escaped");
    // Suicide: the online host dies on its next beacon; the vault host has
    // no C&C path, so (as the paper implies for isolated clients) it only
    // dies if it ever reconnects — here it lingers.
    flame::suicide::broadcast_kill(&mut world, &mut sim);
    sim.run_until(&mut world, sim.now() + SimDuration::from_days(1));
    assert!(!world.campaigns.flame_clients.contains_key(&HostId::new(0)));
    assert!(world.campaigns.flame_clients.contains_key(&vault), "air-gapped client never got the kill");
}
