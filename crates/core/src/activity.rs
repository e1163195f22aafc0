//! User- and operator-activity processes that drive the vectors.
//!
//! Malware in this model never acts in a vacuum: LNK infections need a user
//! opening a USB stick, the WPAD spread needs clients checking for updates,
//! and the Flame operators need to triage summaries and retrieve stolen
//! data. These helpers schedule those recurring behaviours.

use malsim_kernel::time::SimDuration;
use malsim_malware::flame;
use malsim_malware::flame::candc::{Package, StolenData};
use malsim_malware::stuxnet;
use malsim_malware::world::{World, WorldSim};
use malsim_os::host::HostId;
use malsim_os::usb::UsbId;

/// A USB courier: the stick rotates through `route` (one hop per `period`),
/// and at each stop the user browses it in Explorer. Handles contamination,
/// LNK infection, and the Flame hidden-database ferry at every hop.
pub fn schedule_usb_courier(sim: &mut WorldSim, usb: UsbId, route: Vec<HostId>, period: SimDuration) {
    assert!(!route.is_empty(), "a courier route needs at least one stop");
    let mut hop = 0usize;
    sim.schedule_every(period, move |w: &mut World, s| {
        let current = route[hop % route.len()];
        hop += 1;
        // Remove the stick from wherever it is.
        for (_, h) in w.hosts.iter_mut() {
            if h.inserted_usb() == Some(usb) {
                h.eject_usb();
            }
        }
        if !w.hosts[current].is_running() {
            return true; // skip dead stops, keep the route alive
        }
        w.hosts[current].insert_usb(usb);
        stuxnet::infection::on_usb_inserted(w, s, current);
        flame::usb_exfil::on_usb_inserted(w, s, current);
        stuxnet::infection::open_usb_in_explorer(w, s, current);
        true
    });
}

/// Every host periodically checks Windows Update; proxied checks feed the
/// Flame MITM. Each host gets a random initial offset within one period so
/// the fleet's checks spread over the day instead of firing in lockstep.
pub fn schedule_update_checks(sim: &mut WorldSim, hosts: Vec<HostId>, period: SimDuration) {
    for host in hosts {
        let offset = SimDuration::from_millis(sim.rng.range(0..period.as_millis().max(1)));
        sim.schedule_in(offset, move |_w: &mut World, s| {
            s.schedule_every(period, move |w: &mut World, s| {
                if !w.hosts[host].is_running() {
                    return false;
                }
                flame::mitm::victim_update_check(w, s, host);
                true
            });
        });
    }
}

/// The Flame operator loop: every `period`, each live server's uploaded
/// summaries are triaged (juicy paths get upload approval queued back to
/// their client), then the attack center retrieves and the server cleans up
/// (the 30-minute cron of the paper).
pub fn schedule_flame_operator(sim: &mut WorldSim, period: SimDuration) {
    sim.schedule_every(period, move |w: &mut World, s| {
        let Some(platform) = w.campaigns.flame_platform.as_mut() else { return false };
        // Triage summaries still sitting in entries before cleanup.
        let mut by_client: std::collections::BTreeMap<u64, Vec<(String, usize)>> =
            std::collections::BTreeMap::new();
        for server in &platform.servers {
            if server.seized {
                continue;
            }
            for e in &server.entries {
                if let StolenData::FileSummary { path, size, .. } = platform.attack_center.decrypt_entry(e) {
                    by_client.entry(e.client_id).or_default().push((path, size));
                }
            }
        }
        // Clients roam across servers, so per-client approvals are mirrored
        // onto every live server's ads folder.
        let mut approvals: Vec<(u64, Vec<String>)> = Vec::new();
        for (client, summaries) in by_client {
            let juicy = platform.triage_summaries(&summaries);
            if !juicy.is_empty() {
                approvals.push((client, juicy));
            }
        }
        for server in 0..platform.servers.len() {
            if platform.servers[server].seized {
                continue;
            }
            for (client, paths) in &approvals {
                platform.queue_ad(server, *client, Package::ApproveUploads { paths: paths.clone() });
            }
            let n = platform.retrieve_and_clean(server);
            if n > 0 {
                s.metrics.incr_by("flame.entries_retrieved", n as u64);
            }
        }
        true
    });
}

/// Schedules the Stuxnet C&C check-in loop for already-infected hosts (new
/// infections schedule their own).
pub fn schedule_stuxnet_checkins(sim: &mut WorldSim, period: SimDuration) {
    sim.schedule_every(period, move |w: &mut World, s| {
        let infected: Vec<HostId> = w.campaigns.stuxnet.infections.keys().copied().collect();
        if infected.is_empty() {
            return true; // nothing yet; keep polling
        }
        for h in infected {
            stuxnet::candc::check_in(w, s, h);
        }
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::armory::Pki;
    use crate::scenario::ScenarioBuilder;
    use malsim_os::usb::UsbDrive;

    #[test]
    fn courier_spreads_stuxnet_across_a_route() {
        let (mut world, mut sim) = ScenarioBuilder::new(5).office_lan(3);
        let pki = Pki::install(&mut world);
        pki.arm_stuxnet(&mut world);
        let usb = world.usb_drives.push(UsbDrive::new("courier"));
        stuxnet::infection::contaminate_usb(&mut world, &mut sim, usb);
        let route: Vec<HostId> = (0..3).map(HostId::new).collect();
        schedule_usb_courier(&mut sim, usb, route, SimDuration::from_hours(4));
        sim.run_until(&mut world, sim.now() + SimDuration::from_hours(13));
        assert_eq!(world.campaigns.stuxnet.infections.len(), 3, "all stops hit");
    }

    #[test]
    fn update_checks_drive_the_mitm() {
        let (mut world, mut sim) = ScenarioBuilder::new(5).office_lan(4);
        let pki = Pki::install(&mut world);
        pki.arm_flame(&mut world, &mut sim, 4, 10);
        let seed = HostId::new(0);
        flame::client::infect_host(&mut world, &mut sim, seed, "seed");
        flame::mitm::snack_claim_wpad(&mut world, &mut sim, seed);
        schedule_update_checks(&mut sim, (0..4).map(HostId::new).collect(), SimDuration::from_hours(6));
        // Staggered first checks land within one period; run two periods.
        sim.run_until(&mut world, sim.now() + SimDuration::from_hours(13));
        assert_eq!(world.campaigns.flame_clients.len(), 4, "whole LAN fell via fake updates");
    }

    #[test]
    fn operator_loop_approves_and_cleans() {
        let (mut world, mut sim) = ScenarioBuilder::new(5).office_lan(1);
        let pki = Pki::install(&mut world);
        pki.arm_flame(&mut world, &mut sim, 4, 10);
        let h = HostId::new(0);
        world.hosts[h]
            .fs
            .write(
                &malsim_os::path::WinPath::new(r"C:\Users\user\Documents\deal.docx"),
                malsim_os::fs::FileData::Bytes(vec![0; 64_000].into()),
                sim.now(),
            )
            .unwrap();
        flame::client::infect_host(&mut world, &mut sim, h, "seed");
        schedule_flame_operator(&mut sim, SimDuration::from_mins(30));
        // Client cycles hourly; operator every 30 min. After several hours
        // the full content must have been uploaded and retrieved.
        sim.run_until(&mut world, sim.now() + SimDuration::from_hours(5));
        assert!(sim.metrics.counter("flame.content_uploads") >= 1);
        let p = world.campaigns.flame_platform.as_ref().unwrap();
        assert!(p
            .attack_center
            .retrieved
            .iter()
            .any(|d| matches!(d, StolenData::FileContent { path, .. } if path.contains("deal.docx"))));
        assert!(p.servers.iter().all(|srv| srv.entries.is_empty()), "cleanup ran");
    }

    #[test]
    #[should_panic(expected = "courier route")]
    fn empty_route_panics() {
        let (_, mut sim) = ScenarioBuilder::new(5).office_lan(1);
        schedule_usb_courier(&mut sim, UsbId::new(0), vec![], SimDuration::from_hours(1));
    }
}
