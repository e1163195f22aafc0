//! The experiment harness: one function per experiment in DESIGN.md's index
//! (E1–E13). Examples, tests and `bench_sweep` call these and print the
//! returned rows.
//!
//! Every grid-shaped experiment runs its points through the deterministic
//! parallel [`crate::sweep`] runner and takes its worker count as its last
//! argument; pass [`crate::sweep::threads_from_env`] to honour
//! `MALSIM_THREADS`. Output is byte-identical at every thread count
//! (asserted by `tests/sweep_parallel.rs`).
//!
//! E1 and E9 return the post-run world and scheduler (`.result` is the
//! headline row), and E13 has a profiled and a supervised form beside the
//! plain one. Three names keep their historical suffixes because the
//! layered benchmark (`perfbench/`) and its README call them by name:
//! [`e1_stuxnet_end_to_end_run`], [`e9_shamoon_wipe_run`] and
//! [`e13_takedown_resilience_profiled_t`].
//!
//! [`golden_specs`] is the regression registry: each experiment at its
//! documented EXPERIMENTS.md scale, serialized to canonical JSON and checked
//! against `tests/golden/` by `tests/golden_regression.rs`.

use malsim_kernel::invariant::InvariantViolation;
use malsim_kernel::sched::{ProfileSummary, Watchdog};
use malsim_kernel::time::{SimDuration, SimTime};
use malsim_malware::flame;
use malsim_malware::flame::candc::StolenData;
use malsim_malware::shamoon;
use malsim_malware::stuxnet;
use malsim_malware::world::{PlantId, World, WorldSim};
use malsim_os::host::HostId;
use malsim_os::patches::Bulletin;

use crate::activity;
use crate::armory::Pki;
use crate::checkpoint;
use crate::report::Json;
use crate::scenario::ScenarioBuilder;
use crate::sweep;
use crate::sweep::Truncation;

/// The default parameter grids, shared by the golden registry, the example
/// binaries and the tests so they all regenerate the same tables.
pub mod grids {
    /// E2: fraction of the fleet patched against MS10-046/061.
    pub const E2_PATCH_RATES: &[f64] = &[0.0, 0.25, 0.5, 0.75, 1.0];
    /// E4: LAN sizes for the WPAD MITM spread.
    pub const E4_LAN_SIZES: &[usize] = &[8, 16, 32];
    /// E6: fraction of the 80 C&C domains taken down.
    pub const E6_TAKEDOWNS: &[f64] = &[0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
    /// E11: noisy actions per 2-hour spread round.
    pub const E11_ACTION_RATES: &[f64] = &[1.0, 4.0, 12.0];
    /// E13: fraction of the 22 C&C servers sinkholed.
    pub const E13_SINKHOLE_FRACTIONS: &[f64] = &[0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
}

/// E1 (Fig. 1): the Stuxnet end-to-end chain.
#[derive(Debug, Clone, PartialEq)]
pub struct E1Result {
    /// Hosts infected (office + station).
    pub infected_hosts: usize,
    /// Whether the PLC was implanted.
    pub plc_implanted: bool,
    /// Centrifuges destroyed.
    pub destroyed: usize,
    /// Total centrifuges.
    pub total_centrifuges: usize,
    /// Whether the digital safety system ever tripped.
    pub safety_tripped: bool,
    /// Abnormal frames the operator saw.
    pub operator_anomalies: u64,
    /// Days from seeding to first physical destruction, if any.
    pub days_to_first_destruction: Option<f64>,
}

/// E1 with the post-run world and scheduler retained, so callers can export
/// the trace/span logs, reconstruct causal chains, or read the profiling
/// summary. `result` is the headline row.
#[derive(Debug)]
pub struct E1Run {
    /// The headline result row.
    pub result: E1Result,
    /// The simulated world at the end of the run.
    pub world: World,
    /// The scheduler, carrying `trace`, `spans`, `metrics`, and (when
    /// requested) the still-open profiler — call
    /// [`finish_profile`](malsim_kernel::sched::Sim::finish_profile) to
    /// collect it.
    pub sim: WorldSim,
}

/// Runs E1 and keeps the world and scheduler. `seed` controls all
/// randomness; `days` bounds the run. `profile` turns on the scheduler's
/// dispatch profiler (host-clock timings never affect sim behavior, so the
/// headline row is identical either way).
pub fn e1_stuxnet_end_to_end_run(seed: u64, days: u64, profile: bool) -> E1Run {
    e1_stuxnet_end_to_end_checked(seed, days, profile, false).0
}

/// [`e1_stuxnet_end_to_end_run`] with an optional non-strict runtime
/// invariant sweep (see [`crate::invariants::install`]): the returned vector
/// holds every violation observed during the run — empty on a healthy model.
/// Checking never perturbs the simulation, so the headline row is identical
/// either way.
pub fn e1_stuxnet_end_to_end_checked(
    seed: u64,
    days: u64,
    profile: bool,
    check: bool,
) -> (E1Run, Vec<InvariantViolation>) {
    let builder = ScenarioBuilder::new(seed);
    let (mut world, mut sim, plant, office, station) = builder.natanz_site(8, 12);
    if profile {
        sim.enable_profiling();
    }
    if check {
        crate::invariants::install(&mut sim, false);
    }
    let pki = Pki::install(&mut world);
    pki.arm_stuxnet(&mut world);
    pki.register_stuxnet_c2(&mut world);
    // Seed: a contaminated conference USB circulating the office, and an
    // engineer's stick that couriers office → plant.
    let conf = world.usb_drives.push(malsim_os::usb::UsbDrive::new("conference-gift"));
    stuxnet::infection::contaminate_usb(&mut world, &mut sim, conf);
    activity::schedule_usb_courier(&mut sim, conf, office.clone(), SimDuration::from_hours(6));
    let engineer = world.usb_drives.push(malsim_os::usb::UsbDrive::new("engineer-stick"));
    let mut route = vec![office[0], station];
    route.dedup();
    activity::schedule_usb_courier(&mut sim, engineer, route, SimDuration::from_hours(12));
    activity::schedule_stuxnet_checkins(&mut sim, SimDuration::from_hours(8));

    let start = sim.now();
    sim.run_until(&mut world, start + SimDuration::from_days(days));

    let plant_ref = &world.plants[plant];
    let first_destruction = sim
        .trace
        .first_of(malsim_kernel::trace::TraceCategory::Destruction)
        .map(|e| (e.time - start).as_hours_f64() / 24.0);
    let result = E1Result {
        infected_hosts: world.campaigns.stuxnet.infections.len(),
        plc_implanted: world.campaigns.stuxnet.plant_attacks.contains_key(&plant),
        destroyed: plant_ref.cascade.destroyed_count(),
        total_centrifuges: plant_ref.cascade.len(),
        safety_tripped: plant_ref.safety.is_tripped(),
        operator_anomalies: plant_ref.operator.anomalies_seen(),
        days_to_first_destruction: first_destruction,
    };
    let violations = sim.take_violations();
    (E1Run { result, world, sim }, violations)
}

/// E2 (§II-A): zero-day ablation — infection fraction vs patch rate.
#[derive(Debug, Clone, PartialEq)]
pub struct E2Row {
    /// Fraction of the fleet patched against MS10-046/061.
    pub patch_rate: f64,
    /// Fraction of the LAN infected at the end of the run.
    pub infected_fraction: f64,
}

/// Runs E2 across `patch_rates` on a LAN of `n` hosts for `days`. Each patch
/// rate is an independent sweep point seeded from its derived
/// `(e2, point, seed)` stream.
pub fn e2_zero_day_ablation(
    seed: u64,
    n: usize,
    days: u64,
    patch_rates: &[f64],
    threads: usize,
) -> Vec<E2Row> {
    sweep::run("e2", seed, patch_rates, threads, |ctx, &rate| {
        let (mut world, mut sim) =
            ScenarioBuilder::new(ctx.derived_seed()).patch_rate(rate).without_trace().office_lan(n);
        let pki = Pki::install(&mut world);
        pki.arm_stuxnet(&mut world);
        // Seed via USB on host 0 regardless of its patch state? The LNK
        // vector needs an unpatched seed; pick the first vulnerable host.
        let seed_host =
            world.hosts.iter().find(|(_, h)| h.is_vulnerable_to(Bulletin::Ms10_046)).map(|(id, _)| id);
        if let Some(h) = seed_host {
            stuxnet::infection::infect_host(&mut world, &mut sim, h, "usb-lnk");
            sim.run_until(&mut world, sim.now() + SimDuration::from_days(days));
        }
        E2Row {
            patch_rate: rate,
            infected_fraction: world.campaigns.stuxnet.infections.len() as f64 / n as f64,
        }
    })
}

/// E3 (§II-C): PLC targeting discipline.
#[derive(Debug, Clone, PartialEq)]
pub struct E3Row {
    /// Scenario label.
    pub configuration: String,
    /// Whether the payload armed.
    pub armed: bool,
    /// Centrifuges destroyed.
    pub destroyed: usize,
}

/// Runs E3: the same infection against targeted and non-targeted plants. The
/// two arms form a paired ablation — both seed from the base seed so they
/// differ only in the PLC configuration.
pub fn e3_plc_targeting(seed: u64, days: u64, threads: usize) -> Vec<E3Row> {
    let arms = [("profibus + targeted vendors", true), ("wrong bus / vendors", false)];
    sweep::run("e3", seed, &arms, threads, |ctx, &(label, targeted)| {
        let (mut world, mut sim) = ScenarioBuilder::new(ctx.base_seed).office_lan(0);
        let (plant, station) = build_plant(&mut world, &mut sim, targeted);
        let pki = Pki::install(&mut world);
        pki.arm_stuxnet(&mut world);
        stuxnet::infection::infect_host(&mut world, &mut sim, station, "usb-lnk");
        sim.run_until(&mut world, sim.now() + SimDuration::from_days(days));
        E3Row {
            configuration: label.to_owned(),
            armed: world.campaigns.stuxnet.plant_attacks.contains_key(&plant),
            destroyed: world.plants[plant].cascade.destroyed_count(),
        }
    })
}

fn build_plant(world: &mut World, sim: &mut WorldSim, targeted: bool) -> (PlantId, HostId) {
    use malsim_os::host::{Host, HostRole, WindowsVersion};
    use malsim_scada::cascade::Cascade;
    use malsim_scada::drive::{DriveVendor, FrequencyDrive};
    use malsim_scada::hmi::{OperatorView, SafetySystem, TelemetryTap};
    use malsim_scada::plc::{CommProcessor, Plc};
    use malsim_scada::step7::Step7;
    let zone = world.topology.add_zone("plant", false);
    let station = world.hosts.push(Host::new(
        "eng-station",
        WindowsVersion::Xp,
        HostRole::EngineeringStation,
        sim.now(),
    ));
    world.hosts[station].config.internet_access = false;
    world.topology.place(station, zone);
    let mut plc = Plc::new(if targeted { CommProcessor::Profibus } else { CommProcessor::Ethernet });
    for _ in 0..10 {
        let vendor =
            if targeted { DriveVendor::Vacon } else { DriveVendor::Other("Generic Drives GmbH".into()) };
        plc.attach_drive(FrequencyDrive::new(vendor, 1_064.0));
    }
    let cascade = Cascade::for_plc(&plc);
    let mut step7 = Step7::new();
    step7.add_project("line-1");
    let plant = world.plants.push(malsim_malware::world::Plant {
        name: "plant-1".into(),
        plc,
        cascade,
        tap: TelemetryTap::new(),
        safety: SafetySystem::new(),
        operator: OperatorView::new(),
        engineering_station: station,
        step7,
    });
    (plant, station)
}

/// E4 (Fig. 2): the WPAD/fake-update spread.
#[derive(Debug, Clone, PartialEq)]
pub struct E4Row {
    /// LAN size.
    pub lan_size: usize,
    /// Whether SNACK claimed WPAD.
    pub mitm_active: bool,
    /// Infected fraction after the run.
    pub infected_fraction: f64,
}

/// Runs E4 for each LAN size, with and without the MITM. The grid is the
/// cross product of LAN size × MITM arm, each point an independent
/// derived-seed run.
pub fn e4_wpad_mitm(seed: u64, lan_sizes: &[usize], hours: u64, threads: usize) -> Vec<E4Row> {
    let points: Vec<(usize, bool)> = lan_sizes.iter().flat_map(|&n| [(n, false), (n, true)]).collect();
    sweep::run("e4", seed, &points, threads, |ctx, &(n, mitm)| {
        let (mut world, mut sim) = ScenarioBuilder::new(ctx.derived_seed()).without_trace().office_lan(n);
        let pki = Pki::install(&mut world);
        pki.arm_flame(&mut world, &mut sim, 22, 80);
        let seed_host = HostId::new(0);
        flame::client::infect_host(&mut world, &mut sim, seed_host, "seed");
        if mitm {
            flame::mitm::snack_claim_wpad(&mut world, &mut sim, seed_host);
        }
        activity::schedule_update_checks(
            &mut sim,
            (0..n).map(HostId::new).collect(),
            SimDuration::from_hours(24),
        );
        sim.run_until(&mut world, sim.now() + SimDuration::from_hours(hours));
        E4Row {
            lan_size: n,
            mitm_active: mitm,
            infected_fraction: world.campaigns.flame_clients.len() as f64 / n as f64,
        }
    })
}

/// E5 (Fig. 3): certificate forgery acceptance under the four policy states.
#[derive(Debug, Clone, PartialEq)]
pub struct E5Row {
    /// Policy label.
    pub policy: String,
    /// Whether the forged update was accepted.
    pub accepted: bool,
}

/// Runs E5: one forged update, four verifier states.
pub fn e5_cert_forgery(seed: u64) -> Vec<E5Row> {
    use malsim_net::winupdate::{client_accepts_update, UpdatePackage};
    let (mut world, mut sim) = ScenarioBuilder::new(seed).office_lan(1);
    let pki = Pki::install(&mut world);
    pki.arm_flame(&mut world, &mut sim, 4, 10);
    let (binary, sig) = world.campaigns.flame_platform.as_ref().unwrap().forged_update.clone().unwrap();
    let pkg = UpdatePackage { name: "WusetupV.exe".into(), binary, signature: Some(sig) };
    let host = HostId::new(0);
    let mut rows = Vec::new();
    // 1. Legacy policy, pre-advisory.
    {
        let h = &world.hosts[host];
        rows.push(E5Row {
            policy: "legacy verifier, pre-advisory".into(),
            accepted: client_accepts_update(&pkg, &h.trust, h.verify_policy, sim.now()).is_ok(),
        });
    }
    // 2. Strict policy, certificates still trusted.
    {
        let h = &world.hosts[host];
        rows.push(E5Row {
            policy: "strict verifier".into(),
            accepted: client_accepts_update(
                &pkg,
                &h.trust,
                malsim_certs::store::VerifyPolicy::strict(),
                sim.now(),
            )
            .is_ok(),
        });
    }
    // 3. Advisory applied (distrust + strict).
    {
        pki.apply_advisory(&mut world, host);
        let h = &world.hosts[host];
        rows.push(E5Row {
            policy: "post-advisory (distrusted)".into(),
            accepted: client_accepts_update(&pkg, &h.trust, h.verify_policy, sim.now()).is_ok(),
        });
    }
    // 4. A genuine strong-hash update still installs post-advisory.
    {
        use malsim_certs::cert::Eku;
        use malsim_certs::hash::HashAlgorithm;
        use malsim_certs::key::KeyPair;
        use malsim_certs::store::CodeSignature;
        let kp = KeyPair::from_seed(8_888);
        let cert = pki.vendor_ca.issue(
            "Vendor Update Publisher",
            kp.public(),
            vec![Eku::CodeSigning],
            HashAlgorithm::Strong64,
            SimTime::EPOCH,
            SimTime::from_utc(2035, 1, 1, 0, 0, 0),
        );
        let body = b"genuine update".to_vec();
        let gsig = CodeSignature::sign(&kp, cert, HashAlgorithm::Strong64, &body);
        let gpkg = UpdatePackage { name: "KB-real".into(), binary: body, signature: Some(gsig) };
        let h = &world.hosts[host];
        rows.push(E5Row {
            policy: "genuine update, post-advisory".into(),
            accepted: client_accepts_update(&gpkg, &h.trust, h.verify_policy, sim.now()).is_ok(),
        });
    }
    rows
}

/// E6 (Fig. 4): C&C resilience to domain takedowns.
#[derive(Debug, Clone, PartialEq)]
pub struct E6Row {
    /// Fraction of the 80 domains taken down.
    pub takedown_fraction: f64,
    /// Fraction of clients that can still reach a server (80-domain
    /// platform).
    pub reachable_many: f64,
    /// Same, for a single-domain strawman.
    pub reachable_single: f64,
}

/// Runs E6: `clients` clients, sweeping takedown fractions. Each fraction is
/// an independent derived-seed point.
pub fn e6_candc_resilience(seed: u64, clients: usize, fractions: &[f64], threads: usize) -> Vec<E6Row> {
    sweep::run("e6", seed, fractions, threads, |ctx, &frac| {
        let (mut world, mut sim) =
            ScenarioBuilder::new(ctx.derived_seed()).without_trace().office_lan(clients);
        let pki = Pki::install(&mut world);
        pki.arm_flame(&mut world, &mut sim, 22, 80);
        for i in 0..clients {
            flame::client::infect_host(&mut world, &mut sim, HostId::new(i), "seed");
            // Contact once so the client grows to its 10-domain config.
            flame::client::beacon(&mut world, &mut sim, HostId::new(i));
        }
        // Single-domain strawman: register one extra domain.
        let single = malsim_net::addr::Domain::new("single-c2.example");
        let ip = world.campaigns.flame_platform.as_ref().unwrap().servers[0].ip;
        world.dns.register(
            single.clone(),
            ip,
            malsim_net::dns::Registrant { name: "x".into(), country: "DE".into(), registrar: "r".into() },
        );
        // Take down a deterministic sample of the fleet's domains (and the
        // strawman's single domain with probability = fraction).
        let domains = world.campaigns.flame_platform.as_ref().unwrap().domains.clone();
        let k = (domains.len() as f64 * frac).round() as usize;
        let idx = sim.rng.sample_indices(domains.len(), k);
        for i in idx {
            world.dns.take_down(&domains[i]);
        }
        let single_down = sim.rng.chance(frac);
        if single_down {
            world.dns.take_down(&single);
        }
        let platform = world.campaigns.flame_platform.as_ref().unwrap();
        let reachable = world
            .campaigns
            .flame_clients
            .values()
            .filter(|c| platform.reach_server(&world.dns, &c.domains).is_some())
            .count();
        let single_ok = world.dns.resolve(&single).is_some();
        E6Row {
            takedown_fraction: frac,
            reachable_many: reachable as f64 / clients.max(1) as f64,
            reachable_single: if single_ok { 1.0 } else { 0.0 },
        }
    })
}

/// E7 (Fig. 5): C&C data flow over one week.
#[derive(Debug, Clone, PartialEq)]
pub struct E7Result {
    /// Total bytes uploaded by clients over the window.
    pub bytes_uploaded: u64,
    /// Bytes per server per week (the paper's sample server saw ~5.5 GB).
    pub bytes_per_server_week: f64,
    /// Entries retrieved and cleaned by the operator loop.
    pub entries_retrieved: u64,
    /// Entries still sitting on servers at the end (should be ~0 thanks to
    /// the cleanup cron).
    pub entries_residual: usize,
    /// Bytes readable at the attack center.
    pub attack_center_bytes: u64,
}

/// Runs E7: `clients` infected hosts with document corpora beacon for
/// `days` days against a platform with `servers` servers.
pub fn e7_candc_dataflow(seed: u64, clients: usize, servers: usize, days: u64) -> E7Result {
    let (mut world, mut sim) = ScenarioBuilder::new(seed).without_trace().office_lan(clients);
    let pki = Pki::install(&mut world);
    pki.arm_flame(&mut world, &mut sim, servers, servers * 4);
    // Seed each host with a document corpus sized by the rng.
    for i in 0..clients {
        let host = HostId::new(i);
        let n_docs = sim.rng.range(3..10usize);
        for d in 0..n_docs {
            let ext = *sim.rng.pick(&["docx", "pdf", "xls", "dwg", "txt"]).expect("non-empty");
            let size = sim.rng.range(20_000..2_000_000usize);
            let path = malsim_os::path::WinPath::new(format!(r"C:\Users\user\Documents\file-{d}.{ext}"));
            world.hosts[host]
                .fs
                .write(&path, malsim_os::fs::FileData::Bytes(vec![0; size].into()), sim.now())
                .expect("valid path");
        }
        flame::client::infect_host(&mut world, &mut sim, host, "seed");
    }
    activity::schedule_flame_operator(&mut sim, SimDuration::from_mins(30));
    sim.run_until(&mut world, sim.now() + SimDuration::from_days(days));
    let platform = world.campaigns.flame_platform.as_ref().unwrap();
    let bytes = sim.metrics.counter("flame.bytes_uploaded");
    E7Result {
        bytes_uploaded: bytes,
        bytes_per_server_week: bytes as f64 / servers as f64 * (7.0 / days as f64),
        entries_retrieved: sim.metrics.counter("flame.entries_retrieved"),
        entries_residual: platform.servers.iter().map(|s| s.entries.len()).sum(),
        attack_center_bytes: platform.attack_center.total_bytes,
    }
}

/// E8 (§III-A): exfiltration-intelligence ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct E8Row {
    /// Strategy label.
    pub strategy: String,
    /// Bytes uploaded.
    pub bytes_uploaded: u64,
    /// Juicy-document bytes that reached the attack center.
    pub juicy_bytes: u64,
}

/// Runs E8: metadata-first triage vs upload-everything. A paired ablation:
/// both arms seed from the base seed so they share the corpus and differ
/// only in the JIMMY triage logic.
pub fn e8_exfil_ablation(seed: u64, clients: usize, days: u64, threads: usize) -> Vec<E8Row> {
    let arms = [("metadata-first triage", false), ("upload everything", true)];
    sweep::run("e8", seed, &arms, threads, |ctx, &(label, upload_everything)| {
        let (mut world, mut sim) = ScenarioBuilder::new(ctx.base_seed).without_trace().office_lan(clients);
        let pki = Pki::install(&mut world);
        pki.arm_flame(&mut world, &mut sim, 8, 32);
        for i in 0..clients {
            let host = HostId::new(i);
            for d in 0..6 {
                let (ext, size) = if d % 2 == 0 { ("docx", 500_000) } else { ("txt", 400_000) };
                let path = malsim_os::path::WinPath::new(format!(r"C:\Users\user\Documents\f{d}.{ext}"));
                world.hosts[host]
                    .fs
                    .write(&path, malsim_os::fs::FileData::Bytes(vec![0; size].into()), sim.now())
                    .expect("valid path");
            }
            flame::client::infect_host(&mut world, &mut sim, host, "seed");
            if upload_everything {
                // Ablation: a JIMMY variant with the triage stripped out —
                // every matching file's content uploads immediately.
                let greedy = flame::modules::JIMMY_V1
                    .replace("is_approved(f) and not uploaded(f)", "not uploaded(f)")
                    .replace(r#"".xls""#, r#"".xls", ".txt""#);
                let c = world.campaigns.flame_clients.get_mut(&host).expect("client");
                assert!(c.install_module("JIMMY", 99, &greedy));
            }
        }
        activity::schedule_flame_operator(&mut sim, SimDuration::from_mins(30));
        sim.run_until(&mut world, sim.now() + SimDuration::from_days(days));
        let platform = world.campaigns.flame_platform.as_ref().unwrap();
        let juicy: u64 = platform
            .attack_center
            .retrieved
            .iter()
            .filter_map(|d| match d {
                StolenData::FileContent { path, size, .. } if path.ends_with(".docx") => Some(*size as u64),
                _ => None,
            })
            .sum();
        E8Row {
            strategy: label.to_owned(),
            bytes_uploaded: sim.metrics.counter("flame.bytes_uploaded"),
            juicy_bytes: juicy,
        }
    })
}

/// E9 (Fig. 6 / §IV): the Shamoon wipe at enterprise scale.
#[derive(Debug, Clone, PartialEq)]
pub struct E9Result {
    /// Fleet size.
    pub fleet: usize,
    /// Hosts infected before the trigger.
    pub infected: usize,
    /// Hosts bricked at the trigger.
    pub bricked: usize,
    /// Wipe reports received by the attacker.
    pub reports: usize,
    /// Hours from seeding to trigger.
    pub hours_to_trigger: f64,
}

/// E9 with the post-run world and scheduler retained (the E9 counterpart
/// of [`E1Run`]), so callers can read event counts, metrics, or traces;
/// `result` is the headline row.
#[derive(Debug)]
pub struct E9Run {
    /// The headline result row.
    pub result: E9Result,
    /// The simulated world at the end of the run.
    pub world: World,
    /// The scheduler, carrying `trace`, `metrics`, and the executed-event
    /// count.
    pub sim: WorldSim,
}

/// Runs E9: `zones` sites of `hosts_per_zone` hosts, seeding `seeded_zones`
/// zones a few days before the hard-coded trigger, and keeps the world and
/// scheduler (see [`E9Run`]).
pub fn e9_shamoon_wipe_run(seed: u64, zones: usize, hosts_per_zone: usize, seeded_zones: usize) -> E9Run {
    let mut builder = ScenarioBuilder::new(seed);
    builder.start(SimTime::from_utc(2012, 8, 13, 6, 0, 0)).without_trace();
    let (mut world, mut sim) = builder.enterprise(zones, hosts_per_zone);
    let pki = Pki::install(&mut world);
    pki.arm_shamoon(&mut world);
    world.campaigns.shamoon.trigger_at = Some(shamoon::aramco_trigger());
    // Seed one host per selected zone (multi-zone seeding models the
    // credential-reuse bridge the real attack used).
    let per_zone = hosts_per_zone + 1;
    for z in 0..seeded_zones.min(zones) {
        let h = HostId::new(z * per_zone + 1);
        shamoon::dropper::infect_host(&mut world, &mut sim, h, "phish");
    }
    let start = sim.now();
    sim.run_until(&mut world, shamoon::aramco_trigger() + SimDuration::from_hours(2));
    let result = E9Result {
        fleet: world.hosts.len(),
        infected: world.campaigns.shamoon.infections.len(),
        bricked: world.bricked_count(),
        reports: world.campaigns.shamoon.reports.len(),
        hours_to_trigger: (shamoon::aramco_trigger() - start).as_hours_f64(),
    };
    E9Run { result, world, sim }
}

/// E10 (§V): the derived trend matrix after running all three campaigns.
pub fn e10_trend_matrix(seed: u64) -> Vec<malsim_analysis::trends::TrendProfile> {
    // One compact world where all three campaigns act.
    let (mut world, mut sim) = ScenarioBuilder::new(seed).office_lan(12);
    let pki = Pki::install(&mut world);
    pki.arm_stuxnet(&mut world);
    pki.register_stuxnet_c2(&mut world);
    pki.arm_flame(&mut world, &mut sim, 22, 80);
    pki.arm_shamoon(&mut world);
    world.campaigns.shamoon.trigger_at = Some(sim.now() + SimDuration::from_days(6));
    // A wrong-configuration plant whose engineering station also gets
    // infected: the payload inspects the PLC and stays dormant — the
    // targeting-discipline signal the trend matrix derives from.
    let (_plant, station) = build_plant(&mut world, &mut sim, false);
    stuxnet::infection::infect_host(&mut world, &mut sim, station, "usb-lnk");
    // Stuxnet via usb on 0; Flame on 4 with MITM; Shamoon on 8.
    let usb = world.usb_drives.push(malsim_os::usb::UsbDrive::new("seed"));
    stuxnet::infection::contaminate_usb(&mut world, &mut sim, usb);
    world.hosts[HostId::new(0)].insert_usb(usb);
    stuxnet::infection::open_usb_in_explorer(&mut world, &mut sim, HostId::new(0));
    flame::client::infect_host(&mut world, &mut sim, HostId::new(4), "seed");
    flame::mitm::snack_claim_wpad(&mut world, &mut sim, HostId::new(4));
    shamoon::dropper::infect_host(&mut world, &mut sim, HostId::new(8), "phish");
    activity::schedule_update_checks(
        &mut sim,
        (0..12).map(HostId::new).collect(),
        SimDuration::from_hours(24),
    );
    activity::schedule_flame_operator(&mut sim, SimDuration::from_mins(30));
    activity::schedule_stuxnet_checkins(&mut sim, SimDuration::from_hours(8));
    // Push one module update so modularity registers.
    {
        let p = world.campaigns.flame_platform.as_mut().unwrap();
        p.broadcast(flame::candc::Package::ModuleUpdate {
            name: "JIMMY".into(),
            version: 2,
            source: flame::modules::JIMMY_V1.to_owned(),
        });
    }
    sim.run_until(&mut world, sim.now() + SimDuration::from_days(7));
    malsim_analysis::trends::derive_profiles(&world, &sim.metrics)
}

/// E11 (§V-B): stealth vs spread aggressiveness against behavioural AV.
#[derive(Debug, Clone, PartialEq)]
pub struct E11Row {
    /// Actions per cycle the malware performs.
    pub aggressiveness: f64,
    /// Hosts infected.
    pub infected: usize,
    /// Behavioural alerts raised fleet-wide.
    pub alerts: u32,
}

/// Runs E11: sweeps an abstract aggressiveness parameter; each action spends
/// behaviour-budget points on the host AV. Each action rate is an
/// independent derived-seed point.
pub fn e11_stealth_tradeoff(seed: u64, lan: usize, levels: &[f64], threads: usize) -> Vec<E11Row> {
    sweep::run("e11", seed, levels, threads, |ctx, &level| {
        let (mut world, mut sim) = ScenarioBuilder::new(ctx.derived_seed()).without_trace().office_lan(lan);
        // Budget: 20 points per daily scan interval. Twelve 2-hour rounds a
        // day means quiet (1 point/round) stays under; loud blows through.
        for i in 0..lan {
            world.av.insert(HostId::new(i), malsim_defense::av::Antivirus::new(20.0));
        }
        sim.schedule_every(SimDuration::from_hours(24), |w: &mut World, _s| {
            for av in w.av.values_mut() {
                av.reset_interval();
            }
            true
        });
        let pki = Pki::install(&mut world);
        pki.arm_stuxnet(&mut world);
        stuxnet::infection::infect_host(&mut world, &mut sim, HostId::new(0), "seed");
        // Model aggressiveness: every infected host performs `level` points
        // of noisy actions per 2-hour spread round (the spread itself is the
        // scheduled spooler loop).
        sim.schedule_every(SimDuration::from_hours(2), move |w: &mut World, _s| {
            let infected: Vec<HostId> = w.campaigns.stuxnet.infections.keys().copied().collect();
            for h in &infected {
                if let Some(av) = w.av.get_mut(h) {
                    av.observe_behaviour("stuxnet", level);
                }
            }
            !infected.is_empty()
        });
        sim.run_until(&mut world, sim.now() + SimDuration::from_days(3));
        let alerts: u32 = world.av.values().map(|a| a.behavioural_alerts()).sum();
        E11Row { aggressiveness: level, infected: world.campaigns.stuxnet.infections.len(), alerts }
    })
}

/// E12 (§V-F): suicide vs forensic recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct E12Row {
    /// Scenario label.
    pub scenario: String,
    /// Mean forensic recovery score across infected hosts.
    pub recovery_score: f64,
    /// C&C server logs remaining.
    pub server_logs_remaining: usize,
}

/// Runs E12: forensic sweep before vs after the fleet-wide SUICIDE. A paired
/// ablation: both arms seed from the base seed and differ only in whether
/// SUICIDE is broadcast.
pub fn e12_suicide_forensics(seed: u64, lan: usize, threads: usize) -> Vec<E12Row> {
    use malsim_defense::forensics::{analyze_host, Indicator};
    let arms = [("before suicide", false), ("after suicide", true)];
    sweep::run("e12", seed, &arms, threads, |ctx, &(label, kill)| {
        let (mut world, mut sim) = ScenarioBuilder::new(ctx.base_seed).office_lan(lan);
        let pki = Pki::install(&mut world);
        pki.arm_flame(&mut world, &mut sim, 6, 24);
        for i in 0..lan {
            flame::client::infect_host(&mut world, &mut sim, HostId::new(i), "seed");
        }
        sim.run_until(&mut world, sim.now() + SimDuration::from_hours(6));
        if kill {
            flame::suicide::broadcast_kill(&mut world, &mut sim);
            sim.run_until(&mut world, sim.now() + SimDuration::from_hours(3));
        }
        let indicators = vec![Indicator::File(malsim_os::path::WinPath::expand(r"%system%\mssecmgr.ocx"))];
        let scores: Vec<f64> = (0..lan)
            .map(|i| analyze_host(&world.hosts[HostId::new(i)], &indicators).recovery_score())
            .collect();
        let platform = world.campaigns.flame_platform.as_ref().unwrap();
        E12Row {
            scenario: label.to_owned(),
            recovery_score: scores.iter().sum::<f64>() / scores.len().max(1) as f64,
            server_logs_remaining: platform.servers.iter().map(|s| s.logs.len()).sum(),
        }
    })
}

/// E13 (§III-C / fault plane): takedown resilience of the exfiltration
/// pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct E13Row {
    /// Fraction of the 22 C&C servers sinkholed.
    pub sinkhole_fraction: f64,
    /// Servers seized (nested prefix, so higher fractions strictly contain
    /// lower ones).
    pub servers_seized: usize,
    /// Domains seized along with them.
    pub domains_seized: usize,
    /// Fraction of clients that still have a live direct path at the end.
    pub reachable_clients: f64,
    /// Bytes/week uploaded over direct beacons after the takedown.
    pub direct_bytes_week: f64,
    /// Bytes/week recovered through the USB store-and-forward ferry.
    pub ferried_bytes_week: f64,
    /// Direct + ferried.
    pub total_bytes_week: f64,
    /// Documents stranded in the stick's hidden database at the end (only
    /// non-zero when no live path remained to flush them through).
    pub stick_backlog: usize,
}

/// Runs E13: `clients` infected online hosts with document corpora, a USB
/// courier circulating through all of them, and — per sweep point — a
/// [`SinkholeCampaign`](malsim_defense::sinkhole::SinkholeCampaign) seizing
/// the given fraction of the platform's 22 servers (plus every domain
/// resolving to them) through DNS *and* the kernel fault plane.
///
/// The paper's sample server moved ~5.5 GB/week; the sweep shows that
/// figure degrading monotonically on the direct path as servers fall, while
/// the hidden-database ferry recovers blocked clients' documents for every
/// fraction below 1.0 — at full takedown the documents strand on the stick.
///
/// A *paired* sweep: every fraction seeds from the base seed, so all points
/// share identical corpora and domain configs and the seized servers form a
/// nested prefix — which is what makes the direct-bytes column monotone by
/// construction rather than statistically.
pub fn e13_takedown_resilience(
    seed: u64,
    clients: usize,
    days: u64,
    fractions: &[f64],
    threads: usize,
) -> Vec<E13Row> {
    sweep::run("e13", seed, fractions, threads, |ctx, &frac| {
        e13_point_opt(ctx, frac, clients, days, E13PointOptions::default()).0
    })
}

/// E13 with the scheduler profiler enabled on every point. Returns the rows
/// (identical to [`e13_takedown_resilience`] — profiling never changes sim
/// behavior) plus one [`ProfileSummary`] per grid point, in point order.
/// Roll them up with [`sweep::profile_rollup`].
pub fn e13_takedown_resilience_profiled_t(
    seed: u64,
    clients: usize,
    days: u64,
    fractions: &[f64],
    threads: usize,
) -> (Vec<E13Row>, Vec<ProfileSummary>) {
    sweep::run("e13", seed, fractions, threads, |ctx, &frac| {
        let opts = E13PointOptions { profile: true, ..Default::default() };
        let (row, profile, _, _) = e13_point_opt(ctx, frac, clients, days, opts);
        (row, profile.expect("profiling was enabled"))
    })
    .into_iter()
    .unzip()
}

/// E13 under full supervision: panic isolation with bounded retries, the
/// per-point watchdog, per-point checkpointing to `opts.ckpt_path`, and
/// (optionally) the runtime invariant checker — all per
/// `opts.supervisor`. With `opts.resume`, completed points are restored from
/// the checkpoint and only missing or poisoned points re-run; the resulting
/// [`report`](checkpoint::SweepOutcomes::report) is byte-identical to an
/// uninterrupted run at any thread count (deterministic limits only).
pub fn e13_takedown_resilience_supervised(
    seed: u64,
    clients: usize,
    days: u64,
    fractions: &[f64],
    opts: &SupervisedSweepOpts<'_>,
) -> Result<checkpoint::SweepOutcomes, checkpoint::CheckpointError> {
    let cfg = checkpoint::CheckpointConfig {
        experiment: "e13",
        base_seed: seed,
        pool: opts.pool,
        supervisor: opts.supervisor,
        path: opts.ckpt_path,
        resume: opts.resume,
        backend: None,
    };
    checkpoint::run_checkpointed(&cfg, fractions, |ctx, &frac| {
        let point_opts = E13PointOptions {
            profile: false,
            watchdog: opts.supervisor.watchdog(),
            check_invariants: opts.supervisor.check_invariants,
        };
        let (row, _, truncation, violations) = e13_point_opt(ctx, frac, clients, days, point_opts);
        Ok(sweep::PointRun { result: row.to_json(), truncation, violations })
    })
}

/// How [`e13_takedown_resilience_supervised`] should run its sweep.
#[derive(Debug, Clone, Copy)]
pub struct SupervisedSweepOpts<'a> {
    /// Worker-pool sizing (see [`sweep::PoolConfig`]).
    pub pool: sweep::PoolConfig,
    /// Per-point supervision policy (retries, watchdog, invariants).
    pub supervisor: sweep::SweepSupervisor,
    /// The checkpoint file appended to after every point.
    pub ckpt_path: &'a std::path::Path,
    /// Resume from `ckpt_path` instead of truncating it.
    pub resume: bool,
}

/// Supervision knobs threaded into one E13 point.
#[derive(Debug, Clone, Copy, Default)]
struct E13PointOptions {
    profile: bool,
    watchdog: Watchdog,
    check_invariants: bool,
}

/// One E13 sweep point. Factored out so the plain, profiled, and supervised
/// sweeps run the exact same simulation.
fn e13_point_opt(
    ctx: &sweep::SweepCtx,
    frac: f64,
    clients: usize,
    days: u64,
    opts: E13PointOptions,
) -> (E13Row, Option<ProfileSummary>, Option<Truncation>, Vec<InvariantViolation>) {
    use malsim_defense::sinkhole::SinkholeCampaign;
    {
        let (mut world, mut sim) = ScenarioBuilder::new(ctx.base_seed).without_trace().office_lan(clients);
        if opts.profile {
            sim.enable_profiling();
        }
        if opts.check_invariants {
            crate::invariants::install(&mut sim, false);
        }
        let pki = Pki::install(&mut world);
        pki.arm_flame(&mut world, &mut sim, 22, 80);
        for i in 0..clients {
            let host = HostId::new(i);
            let n_docs = sim.rng.range(3..10usize);
            for d in 0..n_docs {
                let ext = *sim.rng.pick(&["docx", "pdf", "xls", "dwg"]).expect("non-empty");
                let size = sim.rng.range(20_000..2_000_000usize);
                let path = malsim_os::path::WinPath::new(format!(r"C:\Users\user\Documents\file-{d}.{ext}"));
                world.hosts[host]
                    .fs
                    .write(&path, malsim_os::fs::FileData::Bytes(vec![0; size].into()), sim.now())
                    .expect("valid path");
            }
            flame::client::infect_host(&mut world, &mut sim, host, "seed");
            // One contact so every client grows to its 10-domain config;
            // identical across sweep points because the seizure comes later.
            flame::client::beacon(&mut world, &mut sim, HostId::new(i));
        }
        // Everything uploaded before the takedown is the same for every
        // fraction; measure the campaign from this baseline.
        let direct_baseline = sim.metrics.counter("flame.bytes_uploaded");
        let entry_baseline: u64 = {
            let p = world.campaigns.flame_platform.as_ref().expect("armed");
            p.servers.iter().map(|s| s.total_entry_bytes).sum()
        };

        // The coordinated takedown: a nested prefix of servers, so the sweep
        // is monotone by construction, seized on the defender side (DNS +
        // fault plane) and marked seized on the platform itself.
        let ips: Vec<malsim_net::addr::Ipv4> =
            world.campaigns.flame_platform.as_ref().expect("armed").servers.iter().map(|s| s.ip).collect();
        let k = ((ips.len() as f64) * frac).round() as usize;
        let mut op = SinkholeCampaign::new(malsim_net::addr::Ipv4::new(198, 51, 100, 1));
        let seized_at = sim.now();
        for &ip in ips.iter().take(k) {
            op.seize_server_and_domains(&mut world.dns, &mut sim.faults, ip, seized_at);
        }
        {
            let p = world.campaigns.flame_platform.as_mut().expect("armed");
            for srv in p.servers.iter_mut().take(k) {
                srv.seized = true;
            }
        }

        let usb = world.usb_drives.push(malsim_os::usb::UsbDrive::new("courier"));
        if clients > 0 {
            let route: Vec<HostId> = (0..clients).map(HostId::new).collect();
            activity::schedule_usb_courier(&mut sim, usb, route, SimDuration::from_hours(6));
        }
        activity::schedule_flame_operator(&mut sim, SimDuration::from_mins(30));
        let watched =
            sim.run_until_watched(&mut world, sim.now() + SimDuration::from_days(days), opts.watchdog);

        let platform = world.campaigns.flame_platform.as_ref().expect("armed");
        let direct = sim.metrics.counter("flame.bytes_uploaded") - direct_baseline;
        let total_entry: u64 =
            platform.servers.iter().map(|s| s.total_entry_bytes).sum::<u64>() - entry_baseline;
        let ferried = total_entry.saturating_sub(direct);
        let reachable = world
            .campaigns
            .flame_clients
            .values()
            .filter(|c| platform.reach_server_faulted(&world.dns, &sim.faults, sim.now(), &c.domains).is_ok())
            .count();
        let per_week = 7.0 / days.max(1) as f64;
        let row = E13Row {
            sinkhole_fraction: frac,
            servers_seized: op.seized_servers.len(),
            domains_seized: op.seized_domains.len(),
            reachable_clients: reachable as f64 / clients.max(1) as f64,
            direct_bytes_week: direct as f64 * per_week,
            ferried_bytes_week: ferried as f64 * per_week,
            total_bytes_week: total_entry as f64 * per_week,
            stick_backlog: world.usb_drives[usb].hidden_records().len(),
        };
        let violations = sim.take_violations();
        (row, sim.finish_profile(), Truncation::from_stop(watched.reason), violations)
    }
}

// ---------------------------------------------------------------------------
// Canonical JSON emission + the golden-snapshot registry.

impl E1Result {
    /// Canonical JSON headline row.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("infected_hosts", self.infected_hosts.into()),
            ("plc_implanted", self.plc_implanted.into()),
            ("destroyed", self.destroyed.into()),
            ("total_centrifuges", self.total_centrifuges.into()),
            ("safety_tripped", self.safety_tripped.into()),
            ("operator_anomalies", self.operator_anomalies.into()),
            ("days_to_first_destruction", self.days_to_first_destruction.into()),
        ])
    }
}

impl E2Row {
    /// Canonical JSON headline row.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("patch_rate", self.patch_rate.into()),
            ("infected_fraction", self.infected_fraction.into()),
        ])
    }
}

impl E3Row {
    /// Canonical JSON headline row.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("configuration", self.configuration.as_str().into()),
            ("armed", self.armed.into()),
            ("destroyed", self.destroyed.into()),
        ])
    }
}

impl E4Row {
    /// Canonical JSON headline row.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("lan_size", self.lan_size.into()),
            ("mitm_active", self.mitm_active.into()),
            ("infected_fraction", self.infected_fraction.into()),
        ])
    }
}

impl E5Row {
    /// Canonical JSON headline row.
    pub fn to_json(&self) -> Json {
        Json::obj([("policy", self.policy.as_str().into()), ("accepted", self.accepted.into())])
    }
}

impl E6Row {
    /// Canonical JSON headline row.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("takedown_fraction", self.takedown_fraction.into()),
            ("reachable_many", self.reachable_many.into()),
            ("reachable_single", self.reachable_single.into()),
        ])
    }
}

impl E7Result {
    /// Canonical JSON headline row.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bytes_uploaded", self.bytes_uploaded.into()),
            ("bytes_per_server_week", self.bytes_per_server_week.into()),
            ("entries_retrieved", self.entries_retrieved.into()),
            ("entries_residual", self.entries_residual.into()),
            ("attack_center_bytes", self.attack_center_bytes.into()),
        ])
    }
}

impl E8Row {
    /// Canonical JSON headline row.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("strategy", self.strategy.as_str().into()),
            ("bytes_uploaded", self.bytes_uploaded.into()),
            ("juicy_bytes", self.juicy_bytes.into()),
        ])
    }
}

impl E9Result {
    /// Canonical JSON headline row.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("fleet", self.fleet.into()),
            ("infected", self.infected.into()),
            ("bricked", self.bricked.into()),
            ("reports", self.reports.into()),
            ("hours_to_trigger", self.hours_to_trigger.into()),
        ])
    }
}

/// Canonical JSON for one derived trend profile (E10).
pub fn trend_profile_to_json(p: &malsim_analysis::trends::TrendProfile) -> Json {
    Json::obj([
        ("family", format!("{:?}", p.family).to_lowercase().into()),
        ("infections", p.infections.into()),
        ("zero_day_vectors", p.zero_day_vectors.into()),
        ("targeted", p.targeted.into()),
        ("certified", p.certified.into()),
        ("modular_updates", p.modular_updates.into()),
        ("usb_vector", p.usb_vector.into()),
        ("suicides", p.suicides.into()),
        ("sophistication", p.sophistication.into()),
    ])
}

impl E11Row {
    /// Canonical JSON headline row.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("aggressiveness", self.aggressiveness.into()),
            ("infected", self.infected.into()),
            ("alerts", self.alerts.into()),
        ])
    }
}

impl E12Row {
    /// Canonical JSON headline row.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", self.scenario.as_str().into()),
            ("recovery_score", self.recovery_score.into()),
            ("server_logs_remaining", self.server_logs_remaining.into()),
        ])
    }
}

impl E13Row {
    /// Canonical JSON headline row.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sinkhole_fraction", self.sinkhole_fraction.into()),
            ("servers_seized", self.servers_seized.into()),
            ("domains_seized", self.domains_seized.into()),
            ("reachable_clients", self.reachable_clients.into()),
            ("direct_bytes_week", self.direct_bytes_week.into()),
            ("ferried_bytes_week", self.ferried_bytes_week.into()),
            ("total_bytes_week", self.total_bytes_week.into()),
            ("stick_backlog", self.stick_backlog.into()),
        ])
    }
}

fn rows_json<T>(rows: &[T], to_json: impl Fn(&T) -> Json) -> Json {
    Json::Arr(rows.iter().map(to_json).collect())
}

/// One experiment's golden-snapshot entry: its stable name and a runner that
/// regenerates the headline rows at the documented EXPERIMENTS.md scale.
pub struct GoldenSpec {
    /// Snapshot name; the golden lives at `tests/golden/<name>.json`.
    pub name: &'static str,
    runner: fn(usize) -> Json,
}

impl GoldenSpec {
    /// Regenerates the experiment's canonical JSON on up to `threads`
    /// workers. Output is identical at every thread count.
    pub fn run(&self, threads: usize) -> Json {
        (self.runner)(threads)
    }
}

fn golden_e1(_threads: usize) -> Json {
    e1_stuxnet_end_to_end_run(42, 30, false).result.to_json()
}
fn golden_e2(threads: usize) -> Json {
    rows_json(&e2_zero_day_ablation(42, 50, 5, grids::E2_PATCH_RATES, threads), E2Row::to_json)
}
fn golden_e3(threads: usize) -> Json {
    rows_json(&e3_plc_targeting(42, 10, threads), E3Row::to_json)
}
fn golden_e4(threads: usize) -> Json {
    rows_json(&e4_wpad_mitm(42, grids::E4_LAN_SIZES, 72, threads), E4Row::to_json)
}
fn golden_e5(_threads: usize) -> Json {
    rows_json(&e5_cert_forgery(42), E5Row::to_json)
}
fn golden_e6(threads: usize) -> Json {
    rows_json(&e6_candc_resilience(42, 30, grids::E6_TAKEDOWNS, threads), E6Row::to_json)
}
fn golden_e7(_threads: usize) -> Json {
    e7_candc_dataflow(42, 20, 4, 7).to_json()
}
fn golden_e8(threads: usize) -> Json {
    rows_json(&e8_exfil_ablation(42, 6, 4, threads), E8Row::to_json)
}
fn golden_e9(_threads: usize) -> Json {
    e9_shamoon_wipe_run(815, 10, 49, 5).result.to_json()
}
fn golden_e10(_threads: usize) -> Json {
    rows_json(&e10_trend_matrix(5), trend_profile_to_json)
}
fn golden_e11(threads: usize) -> Json {
    rows_json(&e11_stealth_tradeoff(5, 20, grids::E11_ACTION_RATES, threads), E11Row::to_json)
}
fn golden_e12(threads: usize) -> Json {
    rows_json(&e12_suicide_forensics(5, 8, threads), E12Row::to_json)
}
fn golden_e13(threads: usize) -> Json {
    rows_json(&e13_takedown_resilience(11, 10, 7, grids::E13_SINKHOLE_FRACTIONS, threads), E13Row::to_json)
}
fn golden_perfetto(_threads: usize) -> Json {
    // A small E1 run exported as a Chrome trace: pins the export schema and
    // the span plane's byte-determinism (worker count can't matter — each
    // sim is single-threaded — but CI checks this at two counts anyway).
    let run = e1_stuxnet_end_to_end_run(7, 4, false);
    crate::export::chrome_trace(&run.sim.trace, &run.sim.spans)
}

/// The full regression registry: every experiment E1–E13 at the scale its
/// EXPERIMENTS.md section documents, in index order, plus the Perfetto
/// export-schema snapshot.
pub fn golden_specs() -> Vec<GoldenSpec> {
    vec![
        GoldenSpec { name: "e1_stuxnet_end_to_end", runner: golden_e1 },
        GoldenSpec { name: "e2_zero_day_ablation", runner: golden_e2 },
        GoldenSpec { name: "e3_plc_targeting", runner: golden_e3 },
        GoldenSpec { name: "e4_wpad_mitm", runner: golden_e4 },
        GoldenSpec { name: "e5_cert_forgery", runner: golden_e5 },
        GoldenSpec { name: "e6_candc_resilience", runner: golden_e6 },
        GoldenSpec { name: "e7_candc_dataflow", runner: golden_e7 },
        GoldenSpec { name: "e8_exfil_ablation", runner: golden_e8 },
        GoldenSpec { name: "e9_shamoon_wipe", runner: golden_e9 },
        GoldenSpec { name: "e10_trend_matrix", runner: golden_e10 },
        GoldenSpec { name: "e11_stealth_tradeoff", runner: golden_e11 },
        GoldenSpec { name: "e12_suicide_forensics", runner: golden_e12 },
        GoldenSpec { name: "e13_takedown_resilience", runner: golden_e13 },
        GoldenSpec { name: "perfetto_e1_seed7", runner: golden_perfetto },
    ]
}
