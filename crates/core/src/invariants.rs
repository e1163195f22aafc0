//! World-level invariant laws for the malware simulation.
//!
//! The kernel's [`InvariantChecker`](malsim_kernel::invariant::InvariantChecker)
//! knows the kernel laws (time monotonicity, span causality, fault-window
//! well-formedness) but nothing about hosts or campaigns. This module
//! registers the domain laws on top:
//!
//! - **infected-hosts-exist** — every host id appearing in any campaign's
//!   infection map refers to a host that actually exists in the world's
//!   arena;
//! - **plant-engineering-station-exists** — every plant's engineering
//!   station is a real host.
//!
//! Arm checking per-scenario with
//! [`ScenarioBuilder::check_invariants`](crate::scenario::ScenarioBuilder::check_invariants),
//! per-sim with [`install`], or process-wide by setting the
//! `MALSIM_CHECK_INVARIANTS` environment variable (any value except `0`),
//! which the scenario builder honours for every simulation it constructs —
//! including the golden-regression suite.

use malsim_kernel::invariant::LawCx;
use malsim_malware::world::{World, WorldSim};

/// Whether `MALSIM_CHECK_INVARIANTS` asks for process-wide invariant
/// checking (set and not `"0"`).
pub fn check_from_env() -> bool {
    std::env::var("MALSIM_CHECK_INVARIANTS").map(|v| v.trim() != "0").unwrap_or(false)
}

/// Arms the invariant checker on `sim` and registers the malware world laws.
///
/// `strict` panics on the first violation (right for regression gates);
/// non-strict accumulates violations for the caller to drain with
/// [`Sim::take_violations`](malsim_kernel::sched::Sim::take_violations) and
/// surface in reports.
pub fn install(sim: &mut WorldSim, strict: bool) {
    sim.enable_invariants(strict);
    sim.add_invariant("infected-hosts-exist", |world: &World, _cx: &LawCx<'_>| {
        let campaigns = &world.campaigns;
        let all_infected = campaigns
            .stuxnet
            .infections
            .keys()
            .chain(campaigns.flame_clients.keys())
            .chain(campaigns.duqu.implants.keys())
            .chain(campaigns.gauss.infections.keys())
            .copied()
            .chain(campaigns.shamoon.infections.keys());
        for host in all_infected {
            if world.hosts.get(host).is_none() {
                return Err(format!("campaign state references non-existent host {host:?}"));
            }
        }
        Ok(())
    });
    sim.add_invariant("plant-engineering-station-exists", |world: &World, _cx: &LawCx<'_>| {
        for (id, plant) in world.plants.iter() {
            if world.hosts.get(plant.engineering_station).is_none() {
                return Err(format!(
                    "plant {id:?} ({}) names non-existent engineering station {:?}",
                    plant.name, plant.engineering_station
                ));
            }
        }
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use malsim_kernel::time::SimDuration;
    use malsim_malware::common::InfectionRecord;
    use malsim_os::host::HostId;

    #[test]
    fn clean_scenario_has_no_violations() {
        let (mut world, mut sim) = ScenarioBuilder::new(5).office_lan(4);
        install(&mut sim, false);
        sim.schedule_in(SimDuration::from_hours(1), |_w: &mut World, _| {});
        sim.run(&mut world);
        assert!(sim.take_violations().is_empty());
    }

    #[test]
    fn dangling_infection_record_is_flagged() {
        let (mut world, mut sim) = ScenarioBuilder::new(5).office_lan(2);
        install(&mut sim, false);
        sim.schedule_in(SimDuration::from_hours(1), |w: &mut World, sim| {
            // Corrupt the campaign state: an infection on a host that was
            // never spawned.
            w.campaigns.stuxnet.infections.insert(
                HostId::new(99),
                InfectionRecord { infected_at: sim.now(), vector: "usb-lnk".into() },
            );
        });
        sim.run(&mut world);
        let violations = sim.take_violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].law, "infected-hosts-exist");
        assert!(violations[0].detail.contains("99"), "{}", violations[0].detail);
    }

    #[test]
    fn env_flag_parses() {
        // Pure parse-logic check; the env var itself is only set by CI runs,
        // never by tests (process-global state).
        assert!(!check_from_env() || std::env::var("MALSIM_CHECK_INVARIANTS").is_ok());
    }
}
