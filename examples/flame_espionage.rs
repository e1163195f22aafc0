//! The Flame espionage lifecycle: WPAD/fake-update spread across a LAN,
//! metadata-first exfiltration through the newsforyou platform, the air-gap
//! USB ferry, and the fleet-wide SUICIDE after discovery.
//!
//! Run with: `cargo run --example flame_espionage`

use malsim::prelude::*;
use malsim_kernel::time::SimDuration;
use malsim_malware::flame::candc::StolenData;
use malsim_os::fs::FileData;
use malsim_os::path::WinPath;
use malsim_os::usb::UsbDrive;

fn main() {
    let seed = 2012;
    let lan = 12;
    let (mut world, mut sim) = ScenarioBuilder::new(seed).office_lan(lan);
    let pki = Pki::install(&mut world);
    pki.arm_flame(&mut world, &mut sim, 22, 80);

    // Give every desk some documents.
    for i in 0..lan {
        let host = HostId::new(i);
        for (name, size) in [("contract.docx", 300_000), ("site-plan.dwg", 900_000), ("notes.txt", 4_000)] {
            let p = WinPath::new(format!(r"C:\Users\user\Documents\{name}"));
            world.hosts[host].fs.write(&p, FileData::Bytes(vec![0; size].into()), sim.now()).unwrap();
        }
    }

    // Patient zero, SNACK's WPAD claim, and daily update checks.
    let seed_host = HostId::new(0);
    flame::client::infect_host(&mut world, &mut sim, seed_host, "spearphish");
    flame::mitm::snack_claim_wpad(&mut world, &mut sim, seed_host);
    activity::schedule_update_checks(
        &mut sim,
        (0..lan).map(HostId::new).collect(),
        SimDuration::from_hours(24),
    );
    activity::schedule_flame_operator(&mut sim, SimDuration::from_mins(30));

    // An air-gapped machine with classified material, reachable only by USB.
    let airgap = world.topology.add_zone("protected", false);
    let mut iso = malsim_os::host::Host::new(
        "protected-pc",
        malsim_os::host::WindowsVersion::Xp,
        malsim_os::host::HostRole::Workstation,
        sim.now(),
    );
    iso.config.internet_access = false;
    let iso_id = world.hosts.push(iso);
    world.topology.place(iso_id, airgap);
    world.hosts[iso_id]
        .fs
        .write(
            &WinPath::new(r"C:\classified\design.dwg"),
            FileData::Bytes(vec![0; 700_000].into()),
            sim.now(),
        )
        .unwrap();
    flame::client::infect_host(&mut world, &mut sim, iso_id, "usb");
    let courier = world.usb_drives.push(UsbDrive::new("courier"));
    activity::schedule_usb_courier(&mut sim, courier, vec![seed_host, iso_id], SimDuration::from_hours(24));

    // Two weeks of espionage.
    sim.run_until(&mut world, sim.now() + SimDuration::from_days(14));

    let platform = world.campaigns.flame_platform.as_ref().unwrap();
    println!("after 14 days:");
    let mut t = Table::new(vec!["quantity".into(), "value".into()]);
    t.row(vec!["infected clients".into(), world.campaigns.flame_clients.len().to_string()]);
    t.row(vec!["mitm infections".into(), sim.metrics.counter("flame.mitm_infections").to_string()]);
    t.row(vec!["summaries sent".into(), sim.metrics.counter("flame.summaries").to_string()]);
    t.row(vec!["content uploads".into(), sim.metrics.counter("flame.content_uploads").to_string()]);
    t.row(vec![
        "bytes at attack center".into(),
        format!("{:.1} MB", platform.attack_center.total_bytes as f64 / 1e6),
    ]);
    t.row(vec!["usb-ferried documents".into(), sim.metrics.counter("flame.usb_ferried_uploads").to_string()]);
    print!("{t}");

    let ferried = platform
        .attack_center
        .retrieved
        .iter()
        .any(|d| matches!(d, StolenData::FileContent { host, .. } if host == "protected-pc"));
    println!("\nclassified material ferried out of the air-gapped zone: {ferried}");

    // Discovery: the operators pull the plug.
    println!("\n[publication day: the operators broadcast SUICIDE]");
    flame::suicide::broadcast_kill(&mut world, &mut sim);
    sim.run_until(&mut world, sim.now() + SimDuration::from_days(1));
    println!("clients remaining: {}", world.campaigns.flame_clients.len());
    println!("suicides executed: {}", sim.metrics.counter("flame.suicides"));
    let logs: usize =
        world.campaigns.flame_platform.as_ref().unwrap().servers.iter().map(|s| s.logs.len()).sum();
    println!("c2 server log lines remaining after LogWiper: {logs}");
}
