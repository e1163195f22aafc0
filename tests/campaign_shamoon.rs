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

/// A small traced E9 world that reaches every branch of Shamoon's per-host
/// work: three sites of one server and seven workstations, two of them
/// seeded by phishing. Site 1's uplink is down, so its wipe reports are
/// lost; a boundary IDS watches for the reporter's `ajax_modal` GET; two
/// workstations refuse share copies until an administrator re-enables
/// sharing two hours in, so they fall in a later round; one infected
/// workstation does not trust the driver vendor's root, so its MBR
/// survives; and a few users keep documents and pictures for the wiper to
/// list and overwrite.
fn small_e9_world(traced: bool) -> (World, WorldSim) {
    use malsim_defense::ids::{Ids, IdsRule};
    use malsim_net::topology::ZoneId;

    let mut builder = ScenarioBuilder::new(815);
    builder.start(SimTime::from_utc(2012, 8, 13, 6, 0, 0));
    if !traced {
        builder.without_trace();
    }
    let (mut world, mut sim) = builder.enterprise(3, 7);
    let pki = Pki::install(&mut world);
    pki.arm_shamoon(&mut world);
    world.campaigns.shamoon.trigger_at = Some(shamoon::aramco_trigger());
    world.topology.set_link(ZoneId::new(1), false);
    let mut ids = Ids::new();
    ids.add_rule(IdsRule::RequestPattern("ajax_modal".into()));
    world.ids = Some(ids);
    for h in [4, 13] {
        world.hosts[HostId::new(h)].config.file_sharing = false;
        sim.schedule_in(SimDuration::from_mins(125), move |w: &mut World, _| {
            w.hosts[HostId::new(h)].config.file_sharing = true;
        });
    }
    world.hosts[HostId::new(6)].trust = Default::default();
    let docs: [(usize, &str, usize); 4] = [
        (1, r"C:\Users\user\Documents\budget-2012.xls", 48_000),
        (2, r"C:\Users\user\Pictures\site-visit.jpg", 350_000),
        (2, r"C:\Users\user\Downloads\rig-schedule.pdf", 90_000),
        (10, r"D:\Shared\Documents\well-logs.dat", 600_000),
    ];
    for (h, path, len) in docs {
        world.hosts[HostId::new(h)]
            .fs
            .write(&WinPath::new(path), FileData::Bytes(vec![h as u8; len].into()), sim.now())
            .unwrap();
    }
    for z in 0..2 {
        shamoon::dropper::infect_host(&mut world, &mut sim, HostId::new(z * 8 + 1), "phish");
    }
    sim.run_until(&mut world, shamoon::aramco_trigger() + SimDuration::from_hours(2));
    (world, sim)
}

/// Everything a run leaves behind except its trace and span text: each
/// host's state, files, services, tasks, processes, drivers and disk, the
/// infection records (with their span ids), the reports, the IDS alerts,
/// the metric counters, the event count and the next RNG draw.
fn shamoon_outcome(world: &World, sim: &mut WorldSim) -> String {
    use malsim::checkpoint::fnv1a64;
    use std::fmt::Write;

    let mut out = String::new();
    for (id, host) in world.hosts.iter() {
        writeln!(out, "{id} {} {:?}", host.name(), host.state()).unwrap();
        for (path, node) in host.fs.iter() {
            let digest = match &node.data {
                FileData::Bytes(bytes) => fnv1a64(bytes),
                FileData::Executable(image) => fnv1a64(&image.to_bytes()),
                other => fnv1a64(format!("{other:?}").as_bytes()),
            };
            writeln!(
                out,
                "  file {} len={} digest={digest:016x} created={} modified={} hidden={}",
                path.as_str(),
                node.data.len(),
                node.created,
                node.modified,
                node.hidden
            )
            .unwrap();
        }
        for service in host.services.services() {
            writeln!(out, "  service {service:?}").unwrap();
        }
        for task in host.services.tasks() {
            writeln!(out, "  task {task:?}").unwrap();
        }
        writeln!(out, "  processes {:?}", host.processes).unwrap();
        for driver in host.drivers() {
            writeln!(out, "  driver {driver:?}").unwrap();
        }
        // The only sectors these worlds write are the MBR and the first
        // sector of the active partition; the count pins that.
        let partition = host.disk.active_partition().map_or(0, |p| p.start_sector);
        let mut sectors = host.disk.read_sector(0);
        sectors.extend(host.disk.read_sector(partition));
        writeln!(
            out,
            "  disk written={} bootable={} sectors={:016x}",
            host.disk.written_sectors(),
            host.disk.is_bootable(),
            fnv1a64(&sectors)
        )
        .unwrap();
    }
    writeln!(out, "infections {:?}", world.campaigns.shamoon.infections).unwrap();
    for report in &world.campaigns.shamoon.reports {
        writeln!(out, "report {report:?}").unwrap();
    }
    let ids = world.ids.as_ref().expect("the world deploys an IDS");
    writeln!(out, "ids inspected={} alerts={:?}", ids.inspected(), ids.alerts()).unwrap();
    write!(out, "{}", sim.metrics).unwrap();
    writeln!(out, "executed {} next-draw {:016x}", sim.executed(), sim.rng.bits()).unwrap();
    out
}

/// The trace and span text of a traced run, span attributes and close times
/// included.
fn shamoon_trace_text(sim: &WorldSim) -> String {
    let mut out = sim.trace.render();
    out.push_str(&sim.spans.render_tree());
    for span in sim.spans.spans() {
        out.push_str(&format!("{} end={:?} attrs={:?}\n", span.id, span.end, span.attrs));
    }
    out
}

/// Pins Shamoon's per-host outcome on [`small_e9_world`], traced, byte for
/// byte against `tests/golden_metrics/shamoon_hosts.txt`. `MALSIM_BLESS=1`
/// re-records it.
#[test]
fn per_host_outcome_matches_its_golden() {
    let (world, mut sim) = small_e9_world(true);
    let live = format!("{}{}", shamoon_outcome(&world, &mut sim), shamoon_trace_text(&sim));
    assert!(world.bricked_count() > 0 && world.hosts.iter().any(|(_, h)| h.is_running()));
    let file = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden_metrics/shamoon_hosts.txt");
    if golden::bless_requested() {
        std::fs::write(&file, &live).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| panic!("{}: {e}; record it with MALSIM_BLESS=1", file.display()));
    if live != want {
        let (n, (got, expected)) = live
            .lines()
            .chain(std::iter::repeat(""))
            .zip(want.lines().chain(std::iter::repeat("")))
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .expect("texts differ");
        panic!(
            "per-host outcome drifted from {} at line {}:\n  got:  {got}\n  want: {expected}",
            file.display(),
            n + 1
        );
    }
}

/// An untraced run of the same world leaves the same hosts, records, span
/// ids, reports, alerts, counters and RNG state as the traced run.
#[test]
fn untraced_run_leaves_the_traced_outcome() {
    let (world, mut sim) = small_e9_world(true);
    let traced = shamoon_outcome(&world, &mut sim);
    let (world, mut sim) = small_e9_world(false);
    assert!(sim.trace.is_empty() && sim.spans.is_empty());
    assert_eq!(shamoon_outcome(&world, &mut sim), traced);
}
