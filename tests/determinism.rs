//! Integration: determinism guarantees — the same `(scenario, seed)` pair
//! yields byte-identical traces and metrics; different seeds diverge.

use malsim::prelude::*;
use malsim_kernel::time::SimDuration;
use malsim_os::usb::UsbDrive;

/// A moderately rich combined run touching every subsystem.
fn combined_run(seed: u64) -> (String, String, usize, usize) {
    let (mut world, mut sim) = ScenarioBuilder::new(seed).office_lan(10);
    let pki = Pki::install(&mut world);
    pki.arm_stuxnet(&mut world);
    pki.register_stuxnet_c2(&mut world);
    pki.arm_flame(&mut world, &mut sim, 8, 32);
    pki.arm_shamoon(&mut world);
    world.campaigns.shamoon.trigger_at = Some(sim.now() + SimDuration::from_days(4));

    let usb = world.usb_drives.push(UsbDrive::new("seed"));
    stuxnet::infection::contaminate_usb(&mut world, &mut sim, usb);
    activity::schedule_usb_courier(
        &mut sim,
        usb,
        (0..4).map(HostId::new).collect(),
        SimDuration::from_hours(5),
    );
    flame::client::infect_host(&mut world, &mut sim, HostId::new(5), "seed");
    flame::mitm::snack_claim_wpad(&mut world, &mut sim, HostId::new(5));
    shamoon::dropper::infect_host(&mut world, &mut sim, HostId::new(9), "phish");
    activity::schedule_update_checks(
        &mut sim,
        (0..10).map(HostId::new).collect(),
        SimDuration::from_hours(19),
    );
    activity::schedule_flame_operator(&mut sim, SimDuration::from_mins(30));
    activity::schedule_stuxnet_checkins(&mut sim, SimDuration::from_hours(7));

    sim.run_until(&mut world, sim.now() + SimDuration::from_days(6));
    (
        sim.trace.render(),
        sim.metrics.to_string(),
        world.campaigns.stuxnet.infections.len() + world.campaigns.flame_clients.len(),
        world.bricked_count(),
    )
}

#[test]
fn same_seed_is_byte_identical() {
    let a = combined_run(123);
    let b = combined_run(123);
    assert_eq!(a.0, b.0, "traces identical");
    assert_eq!(a.1, b.1, "metrics identical");
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}

#[test]
fn different_seeds_diverge() {
    let a = combined_run(123);
    let b = combined_run(456);
    // Campaign structure may coincide, but the full trace essentially never
    // does (random wiper names, beacon contents, courier draws).
    assert_ne!(a.0, b.0, "different seeds should produce different traces");
}

/// Which fault schedule a [`faulted_run`] installs.
#[derive(Clone, Copy, PartialEq)]
enum Schedule {
    /// No windows at all.
    Empty,
    /// One window scheduled entirely after the run's horizon: present in the
    /// plane but never active.
    BeyondHorizon,
    /// A full mix: link flap, packet loss, DNS outage, and a sinkhole.
    Stormy,
    /// The same mix shifted earlier, so it bites differently.
    StormyEarly,
}

/// The combined run plus a deterministic fault schedule drawn from the
/// shared plane.
fn faulted_run(seed: u64, schedule: Schedule) -> (String, String) {
    let (mut world, mut sim) = ScenarioBuilder::new(seed).office_lan(10);
    let pki = Pki::install(&mut world);
    pki.arm_flame(&mut world, &mut sim, 8, 32);
    for i in 0..4 {
        flame::client::infect_host(&mut world, &mut sim, HostId::new(i), "seed");
    }
    activity::schedule_flame_operator(&mut sim, SimDuration::from_mins(30));

    let start = sim.now();
    let at = |h: u64| start + SimDuration::from_hours(h);
    match schedule {
        Schedule::Empty => {}
        Schedule::BeyondHorizon => {
            // The run lasts 4 days; this window can never be active.
            sim.faults.link_down("zone:office", at(30 * 24), at(31 * 24));
        }
        Schedule::Stormy | Schedule::StormyEarly => {
            // StormyEarly shifts every window 12 hours earlier.
            let s = if schedule == Schedule::StormyEarly { 12 } else { 0 };
            sim.faults.link_down("zone:office", at(24 - s), at(30 - s));
            sim.faults.packet_loss("*", 0.4, at(48 - s), at(56 - s));
            sim.faults.dns_outage("*", at(72 - s), at(76 - s));
            let ip = world.campaigns.flame_platform.as_ref().unwrap().servers[0].ip;
            let mut op =
                malsim_defense::sinkhole::SinkholeCampaign::new(malsim_net::addr::Ipv4::new(198, 51, 100, 1));
            op.seize_server_and_domains(&mut world.dns, &mut sim.faults, ip, at(48 - s));
            world.campaigns.flame_platform.as_mut().unwrap().servers[0].seized = true;
        }
    }

    sim.run_until(&mut world, start + SimDuration::from_days(4));
    (sim.trace.render(), sim.metrics.to_string())
}

#[test]
fn same_seed_and_fault_schedule_is_byte_identical() {
    let a = faulted_run(321, Schedule::Stormy);
    let b = faulted_run(321, Schedule::Stormy);
    assert_eq!(a.0, b.0, "faulted traces identical");
    assert_eq!(a.1, b.1, "faulted metrics identical");
}

#[test]
fn different_fault_schedules_diverge() {
    let calm = faulted_run(321, Schedule::Empty);
    let stormy = faulted_run(321, Schedule::Stormy);
    let early = faulted_run(321, Schedule::StormyEarly);
    assert_ne!(calm.0, stormy.0, "faults must leave a mark on the trace");
    assert_ne!(stormy.0, early.0, "shifting the schedule changes the run");
}

#[test]
fn inactive_fault_windows_are_invisible() {
    // A scheduled-but-never-active window must not perturb a single random
    // draw: the run is byte-identical to one with an empty plane.
    let calm = faulted_run(321, Schedule::Empty);
    let latent = faulted_run(321, Schedule::BeyondHorizon);
    assert_eq!(calm.0, latent.0, "latent windows leave the trace untouched");
    assert_eq!(calm.1, latent.1, "latent windows leave the metrics untouched");
}

/// All four fault schedules evaluated as one sweep: each point builds its
/// own world, installs its schedule, and renders trace + metrics.
fn faulted_schedule_sweep(threads: usize) -> Vec<(String, String)> {
    let schedules = [Schedule::Empty, Schedule::BeyondHorizon, Schedule::Stormy, Schedule::StormyEarly];
    malsim::sweep::run("faulted-determinism", 321, &schedules, threads, |ctx, &schedule| {
        faulted_run(ctx.base_seed, schedule)
    })
}

#[test]
fn fault_schedules_under_the_parallel_runner_are_byte_identical() {
    // An active FaultPlane must not break the sweep runner's contract:
    // traces and metrics of every scheduled point match the serial run at
    // any worker count.
    let serial = faulted_schedule_sweep(1);
    for threads in [2, 8] {
        assert_eq!(serial, faulted_schedule_sweep(threads), "diverged at {threads} threads");
    }
    // And the sweep preserves point order: the calm and latent points (0, 1)
    // are identical runs, the stormy ones (2, 3) differ from both.
    assert_eq!(serial[0], serial[1]);
    assert_ne!(serial[0].0, serial[2].0);
    assert_ne!(serial[2].0, serial[3].0);
}

#[test]
fn experiment_functions_are_deterministic() {
    let a = experiments::e1_stuxnet_end_to_end_run(77, 15, false).result;
    let b = experiments::e1_stuxnet_end_to_end_run(77, 15, false).result;
    assert_eq!(a, b);
    let c = experiments::e9_shamoon_wipe_run(77, 3, 10, 1).result;
    let d = experiments::e9_shamoon_wipe_run(77, 3, 10, 1).result;
    assert_eq!(c, d);
}
