//! `aramco`: E9 Shamoon at the paper's scale, ~30,000 workstations.
//!
//! The steps are those of `experiments::e9_shamoon_wipe_run(seed, 30, 1000,
//! 3)`, called one by one so each layer gets its own span: world build,
//! arming, seeding, the kernel run (where the Shamoon spread handlers do the
//! work) and the report. At [`DEFAULT_SEED`] the result must equal the
//! pinned row of that function, so the two cannot drift apart unnoticed.

use std::sync::Arc;
use std::time::Instant;

use malsim::armory::Pki;
use malsim::checkpoint::fnv1a64;
use malsim::experiments::E9Result;
use malsim::prelude::HostId;
use malsim::scenario::ScenarioBuilder;
use malsim_kernel::time::{SimDuration, SimTime};
use malsim_malware::shamoon;
use malsim_malware::world::{World, WorldSim};

use crate::trace::{Ctx, Tracer};
use crate::{Iteration, LayerCounts, Workload, DEFAULT_SEED};

const ZONES: usize = 30;
const HOSTS_PER_ZONE: usize = 1000;
const SEEDED_ZONES: usize = 3;

/// Setups timed before each iteration, so `setup_s` is a median of several
/// even though only three or four ~15 s runs fit in the budget.
const EXTRA_SETUPS: usize = 3;
/// Untimed setups when the workload is made: a fresh process's first two
/// world builds run about 1.5x slower than later ones, while the allocator
/// settles (glibc raises its mmap threshold after the first large frees).
const WARMUP_SETUPS: usize = 2;

/// `e9_shamoon_wipe_run(815, 30, 1000, 3)`: its dispatched events and its
/// canonical result row.
const PINNED_EVENTS: u64 = 303_306;
const PINNED_ROW: &str = "{\n  \"fleet\": 30030,\n  \"infected\": 3003,\n  \"bricked\": 3003,\n  \
                          \"reports\": 3003,\n  \"hours_to_trigger\": 50.13333333333333\n}\n";

pub struct Aramco {
    seed: u64,
    /// Digest of the first iteration's output; later ones must match it.
    first: Option<u64>,
}

impl Aramco {
    pub fn new(seed: u64) -> Aramco {
        let aramco = Aramco { seed, first: None };
        let off = Tracer::new(false);
        for _ in 0..WARMUP_SETUPS {
            drop(aramco.setup(&off, Ctx::iteration(0)));
        }
        aramco
    }

    /// World build, arming and seeding.
    fn setup(&self, tracer: &Tracer, parent: Ctx) -> (World, WorldSim) {
        let mut builder = ScenarioBuilder::new(self.seed);
        builder.start(SimTime::from_utc(2012, 8, 13, 6, 0, 0)).without_trace();
        let (mut world, mut sim) =
            tracer.span(parent, "scenario.build", |_| builder.enterprise(ZONES, HOSTS_PER_ZONE));
        tracer.span(parent, "armory.arm", |_| {
            let pki = Pki::install(&mut world);
            pki.arm_shamoon(&mut world);
            world.campaigns.shamoon.trigger_at = Some(shamoon::aramco_trigger());
        });
        tracer.span(parent, "malware.seed", |_| {
            // One phished host per seeded zone; zone z's hosts start at
            // z * (HOSTS_PER_ZONE + 1), after its server.
            for z in 0..SEEDED_ZONES.min(ZONES) {
                let h = HostId::new(z * (HOSTS_PER_ZONE + 1) + 1);
                shamoon::dropper::infect_host(&mut world, &mut sim, h, "phish");
            }
        });
        (world, sim)
    }
}

impl Workload for Aramco {
    const WARMUP: bool = false;

    fn extra_setups(&mut self) -> Vec<f64> {
        let off = Tracer::new(false);
        (0..EXTRA_SETUPS)
            .map(|_| {
                let t = Instant::now();
                let built = self.setup(&off, Ctx::iteration(0));
                let setup_s = t.elapsed().as_secs_f64();
                drop(built);
                setup_s
            })
            .collect()
    }

    fn iterate(&mut self, tracer: &Arc<Tracer>, run: u32) -> Iteration {
        let root = Ctx::iteration(run);
        let started = tracer.now_ns();
        let it_ctx = tracer.child(root);
        let t = Instant::now();
        let (mut world, mut sim) = tracer.span(it_ctx, "setup", |p| self.setup(tracer, p));
        let setup_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (row, seeded) = tracer.span(it_ctx, "run", |p| {
            let seeded = world.campaigns.shamoon.infections.len();
            let start = sim.now();
            let trigger = shamoon::aramco_trigger();
            tracer.span(p, "sched.run_until", |_| {
                sim.run_until(&mut world, trigger + SimDuration::from_hours(2))
            });
            let result = E9Result {
                fleet: world.hosts.len(),
                infected: world.campaigns.shamoon.infections.len(),
                bricked: world.bricked_count(),
                reports: world.campaigns.shamoon.reports.len(),
                hours_to_trigger: (trigger - start).as_hours_f64(),
            };
            (tracer.span(p, "report.render", |_| result.to_json().to_canonical_string()), seeded)
        });
        let run_s = t.elapsed().as_secs_f64();
        let events = sim.executed();
        let infected = world.campaigns.shamoon.infections.len();
        tracer.record(it_ctx, root, "iteration", started, tracer.now_ns());
        drop((world, sim));

        let digest = fnv1a64(format!("{events}\n{row}").as_bytes());
        let first = *self.first.get_or_insert(digest);
        let mut ok = digest == first;
        if self.seed == DEFAULT_SEED {
            ok &= events == PINNED_EVENTS && row == PINNED_ROW;
        }
        if !ok {
            eprintln!("aramco: iteration {run} output differs: {events} events, row {row}");
        }
        Iteration {
            setup_s,
            run_s,
            events,
            points: 1,
            high_done_s: run_s,
            attempted: 1,
            failed: u64::from(!ok),
            layer: LayerCounts { newly_infected: (infected - seeded) as u64, ..LayerCounts::default() },
        }
    }
}
