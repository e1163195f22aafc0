//! Integration: the Shamoon campaign — spread, the date trigger, the wipe
//! mechanics, reporting, and the defensive counterfactuals.

use malsim::prelude::*;
use malsim_kernel::time::{SimDuration, SimTime};
use malsim_os::fs::FileData;
use malsim_os::path::WinPath;

fn aug_2012_fleet(seed: u64, zones: usize, hosts: usize) -> (World, WorldSim, Pki) {
    let mut builder = ScenarioBuilder::new(seed);
    builder.start(SimTime::from_utc(2012, 8, 13, 6, 0, 0));
    let (mut world, sim) = builder.enterprise(zones, hosts);
    let pki = Pki::install(&mut world);
    pki.arm_shamoon(&mut world);
    world.campaigns.shamoon.trigger_at = Some(shamoon::aramco_trigger());
    (world, sim, pki)
}

#[test]
fn wipe_happens_exactly_at_the_hardcoded_date() {
    let (mut world, mut sim, _pki) = aug_2012_fleet(1, 1, 20);
    shamoon::dropper::infect_host(&mut world, &mut sim, HostId::new(1), "phish");
    // One minute before the trigger: fleet infected but intact.
    sim.run_until(&mut world, SimTime::from_utc(2012, 8, 15, 8, 7, 0));
    assert!(world.campaigns.shamoon.infections.len() > 15, "two days of share spread");
    assert_eq!(world.bricked_count(), 0);
    // One minute after: every infected host is bricked.
    sim.run_until(&mut world, SimTime::from_utc(2012, 8, 15, 8, 9, 0));
    assert_eq!(world.bricked_count(), world.campaigns.shamoon.infections.len());
    assert_eq!(world.campaigns.shamoon.wiped_count(), world.campaigns.shamoon.infections.len());
}

#[test]
fn wiped_files_show_the_truncated_fragment_bug() {
    let (mut world, mut sim, _pki) = aug_2012_fleet(2, 1, 2);
    let victim = HostId::new(1);
    let doc = WinPath::new(r"C:\Users\user\Documents\ledger.xls");
    world.hosts[victim].fs.write(&doc, FileData::Bytes(vec![0x11; 800_000].into()), sim.now()).unwrap();
    shamoon::dropper::infect_host(&mut world, &mut sim, victim, "phish");
    sim.run_until(&mut world, shamoon::aramco_trigger() + SimDuration::from_mins(5));
    let node = world.hosts[victim].fs.read(&doc).unwrap();
    let FileData::Bytes(bytes) = &node.data else { panic!("overwritten file is bytes") };
    assert_eq!(bytes.len(), shamoon::wiper::BUGGY_FRAGMENT_LEN);
    assert!(bytes.len() < shamoon::wiper::FULL_PATTERN_LEN, "the coding-mistake model");
    // Target lists written.
    assert!(world.hosts[victim].fs.exists(&WinPath::expand(r"%system%\f1.inf")));
    assert!(world.hosts[victim].fs.exists(&WinPath::expand(r"%system%\f2.inf")));
}

#[test]
fn reports_phone_home_with_tallies() {
    let (mut world, mut sim, _pki) = aug_2012_fleet(3, 1, 5);
    shamoon::dropper::infect_host(&mut world, &mut sim, HostId::new(1), "phish");
    sim.run_until(&mut world, shamoon::aramco_trigger() + SimDuration::from_hours(1));
    let reports = &world.campaigns.shamoon.reports;
    assert_eq!(reports.len(), world.campaigns.shamoon.infections.len());
    assert!(reports.iter().all(|r| r.mbr_destroyed));
    assert!(reports.iter().any(|r| r.files_overwritten > 0));
}

#[test]
fn without_the_signed_driver_hosts_survive_with_data_loss() {
    let mut builder = ScenarioBuilder::new(4);
    builder.start(SimTime::from_utc(2012, 8, 14, 0, 0, 0));
    let (mut world, mut sim) = builder.enterprise(1, 5);
    let _pki = Pki::install(&mut world); // NOT arming shamoon's driver
    world.campaigns.shamoon.trigger_at = Some(shamoon::aramco_trigger());
    shamoon::dropper::infect_host(&mut world, &mut sim, HostId::new(1), "phish");
    sim.run_until(&mut world, shamoon::aramco_trigger() + SimDuration::from_hours(1));
    assert_eq!(world.bricked_count(), 0, "no raw-disk capability, no MBR destruction");
    assert!(world.campaigns.shamoon.wiped_count() > 0, "file overwrite still happened");
}

#[test]
fn av_signature_shipment_models_post_analysis_detection() {
    use malsim_defense::av::{Antivirus, ScanVerdict};
    let carrier = shamoon::builder::build_trksvr((0xFB, 0x91, 0x04), 1_345_000_000);
    let mut av = Antivirus::new(10.0);
    // Pre-analysis: heuristics already dislike the shape.
    assert!(av.scan_image(&carrier).is_detection());
    // Post-analysis: vendors ship the exact signature.
    av.add_signature("W32.Disttrack", carrier.content_hash());
    assert!(
        matches!(av.scan_image(&carrier), ScanVerdict::SignatureMatch { name } if name == "W32.Disttrack")
    );
}

#[test]
fn disabling_shares_contains_the_spread() {
    let (mut world, mut sim, _pki) = aug_2012_fleet(5, 1, 10);
    for i in 0..11 {
        world.hosts[HostId::new(i)].config.file_sharing = false;
    }
    shamoon::dropper::infect_host(&mut world, &mut sim, HostId::new(1), "phish");
    sim.run_until(&mut world, shamoon::aramco_trigger() + SimDuration::from_hours(1));
    assert_eq!(world.campaigns.shamoon.infections.len(), 1, "patient zero only");
    assert_eq!(world.bricked_count(), 1);
}
