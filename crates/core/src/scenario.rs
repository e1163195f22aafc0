//! Scenario construction: topologies, fleets, and patch policies.

use malsim_kernel::span::SpanLog;
use malsim_kernel::time::SimTime;
use malsim_kernel::trace::TraceLog;
use malsim_malware::world::{World, WorldSim};
use malsim_net::topology::ZoneId;
use malsim_os::host::{Host, HostId, HostRole, WindowsVersion};
use malsim_os::patches::Bulletin;

/// Options shared by the scenario presets (C-BUILDER).
///
/// # Examples
///
/// ```
/// use malsim::scenario::ScenarioBuilder;
///
/// let (world, sim) = ScenarioBuilder::new(7).office_lan(10);
/// assert_eq!(world.hosts.len(), 10);
/// assert!(sim.trace.is_enabled());
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    seed: u64,
    start: SimTime,
    trace: bool,
    patch_rate: f64,
    check_invariants: bool,
}

impl ScenarioBuilder {
    /// Creates a builder with the given rng seed. Defaults: start mid-2010,
    /// tracing on, fully unpatched fleet.
    pub fn new(seed: u64) -> Self {
        ScenarioBuilder {
            seed,
            start: SimTime::from_utc(2010, 6, 1, 0, 0, 0),
            trace: true,
            patch_rate: 0.0,
            check_invariants: false,
        }
    }

    /// Sets the simulation start time.
    pub fn start(&mut self, start: SimTime) -> &mut Self {
        self.start = start;
        self
    }

    /// Disables trace retention (for large benchmark sweeps).
    pub fn without_trace(&mut self) -> &mut Self {
        self.trace = false;
        self
    }

    /// Fraction of hosts that have the MS10-xxx bulletins applied.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is within `[0, 1]`.
    pub fn patch_rate(&mut self, rate: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&rate), "patch rate must be in [0,1]");
        self.patch_rate = rate;
        self
    }

    /// Arms the strict runtime invariant checker on the built simulation
    /// (see [`crate::invariants::install`]): the first violated law panics
    /// with a rendered report.
    ///
    /// Also armed process-wide by the `MALSIM_CHECK_INVARIANTS` environment
    /// variable, so existing harnesses (goldens, examples) can be swept
    /// without code changes.
    pub fn check_invariants(&mut self) -> &mut Self {
        self.check_invariants = true;
        self
    }

    /// Compiles a Flua scenario script (manifest header + body) for running
    /// against worlds built by this builder. Scripts are sandboxed: see
    /// [`crate::script_api`] for the capability gate and fault semantics.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Compile`] for a malformed manifest or body.
    ///
    /// # Examples
    ///
    /// ```
    /// use malsim::scenario::ScenarioBuilder;
    ///
    /// let builder = ScenarioBuilder::new(7);
    /// let script = builder
    ///     .script_scenario("#! name: census\n#! grant: fs_scan\nreturn len(scan_files(\".dll\"))")
    ///     .unwrap();
    /// let (mut world, mut sim) = builder.office_lan(3);
    /// let report = script.run(&mut world, &mut sim).unwrap();
    /// assert_eq!(report.script_id, "census");
    /// ```
    pub fn script_scenario(&self, source: &str) -> Result<crate::script_api::ScriptScenario, crate::Error> {
        crate::script_api::ScriptScenario::compile(source)
    }

    fn sim(&self) -> WorldSim {
        let mut sim = WorldSim::new(self.start, self.seed);
        if !self.trace {
            sim.trace = TraceLog::disabled();
            // Span ids keep advancing while disabled, so disabled-sweep runs
            // stay id-compatible with traced runs of the same seed.
            sim.spans = SpanLog::disabled();
        }
        if self.check_invariants || crate::invariants::check_from_env() {
            crate::invariants::install(&mut sim, true);
        }
        sim
    }

    fn spawn_host(
        &self,
        world: &mut World,
        sim: &mut WorldSim,
        name: String,
        zone: ZoneId,
        role: HostRole,
    ) -> HostId {
        let version = *sim
            .rng
            .pick(&[WindowsVersion::Xp, WindowsVersion::Seven, WindowsVersion::Vista])
            .expect("non-empty");
        let mut host = Host::new(name, version, role, sim.now());
        if sim.rng.chance(self.patch_rate) {
            for b in [Bulletin::Ms10_046, Bulletin::Ms10_061, Bulletin::Ms10_073, Bulletin::Ms10_092] {
                host.patches.apply(b);
            }
        }
        let id = world.hosts.push(host);
        world.topology.place(id, zone);
        id
    }

    /// One internet-connected LAN of `n` workstations.
    pub fn office_lan(&self, n: usize) -> (World, WorldSim) {
        let mut sim = self.sim();
        let mut world = World::new();
        let zone = world.topology.add_zone("office", true);
        for i in 0..n {
            self.spawn_host(&mut world, &mut sim, format!("ws-{i:04}"), zone, HostRole::Workstation);
        }
        (world, sim)
    }

    /// A multi-zone enterprise: `zones` internet-connected LANs of
    /// `hosts_per_zone` workstations each, plus one server per zone. Zones
    /// model sites/departments; cross-zone spread requires a bridge (e.g. a
    /// courier or a multi-homed infection), which keeps the zone structure
    /// meaningful.
    pub fn enterprise(&self, zones: usize, hosts_per_zone: usize) -> (World, WorldSim) {
        let mut sim = self.sim();
        let mut world = World::new();
        for z in 0..zones {
            let zone = world.topology.add_zone(format!("site-{z:03}"), true);
            self.spawn_host(&mut world, &mut sim, format!("srv-{z:03}"), zone, HostRole::Server);
            for i in 0..hosts_per_zone {
                self.spawn_host(
                    &mut world,
                    &mut sim,
                    format!("ws-{z:03}-{i:04}"),
                    zone,
                    HostRole::Workstation,
                );
            }
        }
        (world, sim)
    }

    /// The Natanz-like site: an office LAN with internet plus an air-gapped
    /// plant network whose engineering station programs a targeted PLC, and
    /// a USB stick that couriers between them. Returns
    /// `(world, sim, plant, office_hosts, engineering_station)`.
    pub fn natanz_site(
        &self,
        office_hosts: usize,
        centrifuges: usize,
    ) -> (World, WorldSim, malsim_malware::world::PlantId, Vec<HostId>, HostId) {
        use malsim_scada::cascade::Cascade;
        use malsim_scada::drive::{DriveVendor, FrequencyDrive};
        use malsim_scada::hmi::{OperatorView, SafetySystem, TelemetryTap};
        use malsim_scada::plc::{CommProcessor, Plc};
        use malsim_scada::step7::Step7;

        let mut sim = self.sim();
        let mut world = World::new();
        let office = world.topology.add_zone("contractor-office", true);
        let mut office_ids = Vec::new();
        for i in 0..office_hosts {
            office_ids.push(self.spawn_host(
                &mut world,
                &mut sim,
                format!("office-{i:03}"),
                office,
                HostRole::Workstation,
            ));
        }
        let plant_zone = world.topology.add_zone("enrichment-plant", false);
        let station = self.spawn_host(
            &mut world,
            &mut sim,
            "eng-station".to_owned(),
            plant_zone,
            HostRole::EngineeringStation,
        );
        world.hosts[station].config.internet_access = false;

        let mut plc = Plc::new(CommProcessor::Profibus);
        for i in 0..centrifuges {
            let vendor = if i % 2 == 0 { DriveVendor::FararoPaya } else { DriveVendor::Vacon };
            plc.attach_drive(FrequencyDrive::new(vendor, 1_064.0));
        }
        let cascade = Cascade::for_plc(&plc);
        let mut step7 = Step7::new();
        step7.add_project("cascade-a26");
        let plant = world.plants.push(malsim_malware::world::Plant {
            name: "natanz-a26".to_owned(),
            plc,
            cascade,
            tap: TelemetryTap::new(),
            safety: SafetySystem::new(),
            operator: OperatorView::new(),
            engineering_station: station,
            step7,
        });
        (world, sim, plant, office_ids, station)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn office_lan_builds() {
        let (world, sim) = ScenarioBuilder::new(1).office_lan(25);
        assert_eq!(world.hosts.len(), 25);
        assert_eq!(world.topology.zone_count(), 1);
        assert!(world.topology.has_internet(HostId::new(0)));
        assert_eq!(sim.now(), SimTime::from_utc(2010, 6, 1, 0, 0, 0));
    }

    #[test]
    fn patch_rate_is_respected_statistically() {
        let (world, _) = ScenarioBuilder::new(3).patch_rate(0.8).office_lan(500);
        let patched = world.hosts.iter().filter(|(_, h)| !h.is_vulnerable_to(Bulletin::Ms10_046)).count();
        assert!((340..460).contains(&patched), "got {patched}/500 at rate 0.8");
    }

    #[test]
    fn enterprise_builds_zones() {
        let (world, _) = ScenarioBuilder::new(1).enterprise(4, 10);
        assert_eq!(world.topology.zone_count(), 4);
        assert_eq!(world.hosts.len(), 4 * 11);
        // Hosts in different zones are not peers.
        let a = HostId::new(0);
        let other_zone_host = HostId::new(12);
        assert!(!world.topology.same_zone(a, other_zone_host));
    }

    #[test]
    fn natanz_site_builds_targeted_plant() {
        let (world, _, plant, office, station) = ScenarioBuilder::new(1).natanz_site(5, 8);
        assert_eq!(office.len(), 5);
        let p = &world.plants[plant];
        assert!(p.plc.is_stuxnet_target_configuration());
        assert_eq!(p.cascade.len(), 8);
        assert!(!world.topology.has_internet(station));
        assert_eq!(p.engineering_station, station);
    }

    #[test]
    fn without_trace_disables_log() {
        let (_, sim) = ScenarioBuilder::new(1).without_trace().office_lan(1);
        assert!(!sim.trace.is_enabled());
        assert!(!sim.spans.is_enabled());
    }

    #[test]
    fn check_invariants_arms_the_checker() {
        let (_, sim) = ScenarioBuilder::new(1).check_invariants().office_lan(1);
        assert!(sim.is_checking_invariants());
        let (_, sim) = ScenarioBuilder::new(1).office_lan(1);
        assert!(!sim.is_checking_invariants() || crate::invariants::check_from_env());
    }

    #[test]
    #[should_panic(expected = "patch rate")]
    fn invalid_patch_rate_panics() {
        let _ = ScenarioBuilder::new(1).patch_rate(1.5);
    }

    #[test]
    fn determinism_same_seed_same_fleet() {
        let (w1, _) = ScenarioBuilder::new(9).patch_rate(0.5).office_lan(50);
        let (w2, _) = ScenarioBuilder::new(9).patch_rate(0.5).office_lan(50);
        for i in 0..50 {
            let id = HostId::new(i);
            assert_eq!(w1.hosts[id].version(), w2.hosts[id].version());
            assert_eq!(
                w1.hosts[id].is_vulnerable_to(Bulletin::Ms10_046),
                w2.hosts[id].is_vulnerable_to(Bulletin::Ms10_046)
            );
        }
    }
}
