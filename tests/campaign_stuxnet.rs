//! Integration: the full Stuxnet chain across crates — USB seeding, LAN
//! spread, rootkit, Step 7 hooking, PLC implant, physical destruction, and
//! the defensive counterfactuals.

use malsim::prelude::*;
use malsim_kernel::time::SimDuration;
use malsim_os::usb::UsbDrive;

fn e1(seed: u64) -> experiments::E1Result {
    experiments::e1_stuxnet_end_to_end_run(seed, 30, false).result
}

#[test]
fn end_to_end_destroys_cascade_without_tripping_safety() {
    let r = e1(42);
    assert!(r.infected_hosts >= 2, "office spread plus the engineering station");
    assert!(r.plc_implanted);
    assert_eq!(r.destroyed, r.total_centrifuges, "cascade fully destroyed in 30 days");
    assert!(!r.safety_tripped, "telemetry replay must blind the safety system");
    assert_eq!(r.operator_anomalies, 0, "operator saw nothing abnormal");
    assert!(r.days_to_first_destruction.is_some());
}

#[test]
fn fully_patched_fleet_stops_the_chain() {
    let builder = {
        let mut b = ScenarioBuilder::new(42);
        b.patch_rate(1.0);
        b
    };
    let (mut world, mut sim, plant, office, station) = builder.natanz_site(4, 6);
    let pki = Pki::install(&mut world);
    pki.arm_stuxnet(&mut world);
    let usb = world.usb_drives.push(UsbDrive::new("gift"));
    stuxnet::infection::contaminate_usb(&mut world, &mut sim, usb);
    activity::schedule_usb_courier(&mut sim, usb, office.clone(), SimDuration::from_hours(6));
    let engineer = world.usb_drives.push(UsbDrive::new("stick"));
    activity::schedule_usb_courier(&mut sim, engineer, vec![office[0], station], SimDuration::from_hours(12));
    sim.run_until(&mut world, sim.now() + SimDuration::from_days(20));
    assert!(world.campaigns.stuxnet.infections.is_empty(), "MS10-046 patch blocks the LNK vector");
    assert_eq!(world.plants[plant].cascade.destroyed_count(), 0);
}

#[test]
fn without_stolen_certificate_rootkit_fails_but_infection_proceeds() {
    let (mut world, mut sim, _plant, office, _station) = ScenarioBuilder::new(7).natanz_site(3, 4);
    let _pki = Pki::install(&mut world); // roots installed, but no stolen credential armed
    let usb = world.usb_drives.push(UsbDrive::new("gift"));
    stuxnet::infection::contaminate_usb(&mut world, &mut sim, usb);
    world.hosts[office[0]].insert_usb(usb);
    stuxnet::infection::open_usb_in_explorer(&mut world, &mut sim, office[0]);
    assert!(world.campaigns.stuxnet.infections.contains_key(&office[0]));
    assert!(world.hosts[office[0]].drivers().is_empty(), "no signed drivers loaded");
    // The dropped module is visible (no rootkit to hide it) — AV-relevant.
    let module = malsim_os::path::WinPath::expand(r"%system%\oem7a.pnf");
    assert!(!world.hosts[office[0]].fs.read(&module).unwrap().hidden);
}

#[test]
fn rootkit_hides_module_when_armed() {
    let (mut world, mut sim, _plant, office, _station) = ScenarioBuilder::new(7).natanz_site(3, 4);
    let pki = Pki::install(&mut world);
    pki.arm_stuxnet(&mut world);
    let usb = world.usb_drives.push(UsbDrive::new("gift"));
    stuxnet::infection::contaminate_usb(&mut world, &mut sim, usb);
    world.hosts[office[0]].insert_usb(usb);
    stuxnet::infection::open_usb_in_explorer(&mut world, &mut sim, office[0]);
    let host = &world.hosts[office[0]];
    assert_eq!(host.drivers().len(), 2, "mrxcls + mrxnet");
    assert!(host.drivers().iter().all(|d| d.signer_subject.contains("Realtek")));
    let module = malsim_os::path::WinPath::expand(r"%system%\oem7a.pnf");
    assert!(host.fs.read(&module).unwrap().hidden);
}

#[test]
fn c2_records_ics_flag_for_engineering_stations() {
    let (mut world, mut sim, _plant, office, station) = ScenarioBuilder::new(9).natanz_site(2, 4);
    let pki = Pki::install(&mut world);
    pki.arm_stuxnet(&mut world);
    pki.register_stuxnet_c2(&mut world);
    stuxnet::infection::infect_host(&mut world, &mut sim, office[0], "usb-lnk");
    stuxnet::infection::infect_host(&mut world, &mut sim, station, "usb-lnk");
    stuxnet::candc::check_in(&mut world, &mut sim, office[0]);
    stuxnet::candc::check_in(&mut world, &mut sim, station);
    let victims = &world.campaigns.stuxnet.candc.victims;
    // The station is air-gapped: only the office host reports.
    assert_eq!(victims.len(), 1);
    assert!(!victims[0].has_ics_software);
}

#[test]
fn step7_repair_blocked_until_library_restored() {
    use malsim_scada::plc::CodeBlock;
    use malsim_scada::step7::CommLibrary;
    let (mut world, mut sim, plant, _office, station) = ScenarioBuilder::new(3).natanz_site(2, 4);
    let pki = Pki::install(&mut world);
    pki.arm_stuxnet(&mut world);
    stuxnet::infection::infect_host(&mut world, &mut sim, station, "usb-lnk");
    assert!(world.plants[plant].plc.is_infected());
    // Through the compromised library, the repair write is dropped.
    let repair = CodeBlock { name: "FC1869".into(), body: b"clean".to_vec(), attacker_written: false };
    {
        let p = &mut world.plants[plant];
        let lib = p.step7.comm_library.clone();
        assert!(!lib.write_block(&mut p.plc, repair.clone()));
        assert!(p.plc.is_infected());
        // Incident response restores the genuine library; the repair lands.
        p.step7.restore();
        assert!(CommLibrary::Genuine.write_block(&mut p.plc, repair));
    }
    // FC1869 is repaired; DB890 (config data) is still attacker-written, so
    // clean that too, then the PLC is healthy.
    {
        let p = &mut world.plants[plant];
        let db = CodeBlock { name: "DB890".into(), body: b"clean".to_vec(), attacker_written: false };
        assert!(CommLibrary::Genuine.write_block(&mut p.plc, db));
        assert!(!p.plc.is_infected());
    }
}
