//! `tenants`: one `JobQueue` with two workers and an fsynced journal on the
//! real filesystem, fed by four submissions made up front:
//!
//! - a High tenant running E13 takedown points (Flame C&C, DNS and the
//!   kernel fault plane, Flua modules);
//! - a Normal tenant running E1 Natanz points with trace and spans on;
//! - a Low "bulk" tenant with hundreds of tiny Flua scripts on a 3-host LAN,
//!   whose per-point queue and journal overhead is a large share of its time;
//! - a second Normal submission repeating the first half of the E1 grid, so
//!   the result cache serves its points.
//!
//! Nothing is cancelled, so every job report is deterministic; their
//! canonical digest is pinned for [`DEFAULT_SEED`] and must not change
//! between iterations. This is the only workload that exercises admission,
//! weighted-fair dispatch, the cache, journal fsyncs, the sweep pool, the
//! script VM and trace recording; the Shamoon handlers stay idle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use malsim::checkpoint::{fnv1a64, PointStatus};
use malsim::experiments::{e13_takedown_resilience_profiled_t, e1_stuxnet_end_to_end_run};
use malsim::jobs::{JobBudget, JobPoint, JobQueue, JobSpec, JobStatus, Priority, QueueConfig, SeedPolicy};
use malsim::report::Json;
use malsim::scenario::ScenarioBuilder;
use malsim::script_api;
use malsim::sweep::{PointRun, PoolConfig, ScriptFaultInfo};

use crate::storage::TimedFs;
use crate::trace::{Ctx, Tracer};
use crate::{out_dir, Gen, Iteration, LayerCounts, Workload, DEFAULT_SEED};

const WORKERS: usize = 2;
const TAKEDOWN: &str = "takedown";
const NATANZ: &str = "natanz";
const NATANZ_REPLAY: &str = "natanz-replay";
const BULK: &str = "bulk";
/// Takedown points: six sinkhole fractions, each on two independently
/// seeded corpora, so the work per iteration varies little between seeds.
const TAKEDOWN_POINTS: usize = 12;
/// E13 clients and simulated days per takedown point.
const E13_CLIENTS: usize = 2;
const E13_DAYS: u64 = 3;
const NATANZ_POINTS: usize = 32;
const BULK_POINTS: usize = 720;

/// Canonical digest of every job report at [`DEFAULT_SEED`].
const PINNED_DIGEST: u64 = 0x34b1_71d1_9b38_3137;

/// The four submissions, in admission order.
fn specs(seed: u64) -> Vec<JobSpec> {
    let spec = |job_id: &str, tenant: &str, experiment, policy, priority, grid| JobSpec {
        job_id: job_id.to_owned(),
        tenant: tenant.to_owned(),
        experiment,
        base_seed: seed,
        seed_policy: policy,
        priority,
        budget: JobBudget::default(),
        grid,
    };
    let fractions = (0..TAKEDOWN_POINTS).map(|i| {
        Json::obj([
            ("sinkhole_fraction", Json::F64((i % 6) as f64 / 5.0)),
            ("replica", Json::U64(i as u64 / 6)),
        ])
    });
    let days: Vec<Json> =
        (0..NATANZ_POINTS).map(|i| Json::obj([("days", Json::U64(6 + i as u64 % 8))])).collect();
    let mut g = Gen(seed ^ 0xb01c);
    let scripts = (0..BULK_POINTS).map(|i| Json::obj([("src", bulk_script(&mut g, i).into())]));
    vec![
        spec(TAKEDOWN, "ops", "e13-takedown", SeedPolicy::Derived, Priority::High, fractions.collect()),
        spec(NATANZ, "research", "e1-natanz", SeedPolicy::Derived, Priority::Normal, days.clone()),
        spec(BULK, "bulk", "flua-bulk", SeedPolicy::Derived, Priority::Low, scripts.collect()),
        // Same experiment, seed and points as the first half of `natanz`:
        // every point is served from the result cache.
        spec(
            NATANZ_REPLAY,
            "audit",
            "e1-natanz",
            SeedPolicy::Derived,
            Priority::Normal,
            days[..NATANZ_POINTS / 2].to_vec(),
        ),
    ]
}

/// One tiny Flua script; every variant completes well within its limits.
fn bulk_script(g: &mut Gen, i: usize) -> String {
    let k = 10 + g.below(50);
    match g.below(4) {
        0 => format!("#! name: census-{i}\nreturn host_count() + {k}"),
        1 => format!(
            "#! name: sum-{i}\nlet s = 0\nlet n = {k}\nwhile n > 0 do\n  s = s + n\n  n = n - 1\nend\nreturn s"
        ),
        2 => {
            let ext = ["dll", "ini", "sys", "exe"][g.below(4) as usize];
            format!("#! name: scan-{i}\n#! grant: fs_scan\nreturn len(scan_files(\".{ext}\"))")
        }
        _ => format!("#! name: roll-{i}\nlet c = 0\nfor h in hosts() do\n  c = c + 1\nend\nreturn c * {k}"),
    }
}

/// Totals the point function gathers across both workers.
#[derive(Debug, Default)]
struct PointTotals {
    events: AtomicU64,
    fuel: AtomicU64,
    /// Nanoseconds from the start of `JobQueue::run` until the last
    /// takedown point finished.
    high_done_ns: AtomicU64,
}

fn run_point(
    jp: &JobPoint<'_>,
    tracer: &Tracer,
    parent: Ctx,
    totals: &PointTotals,
    started: Instant,
) -> Result<PointRun<Json>, ScriptFaultInfo> {
    let out = tracer.span(parent, "sweep.point", |p| match jp.job_id {
        TAKEDOWN => {
            let frac = jp
                .params
                .get("sinkhole_fraction")
                .and_then(Json::as_f64)
                .expect("takedown points carry a fraction");
            let (rows, profiles) = tracer.span(p, "malware.e13_point", |_| {
                e13_takedown_resilience_profiled_t(jp.seed(), E13_CLIENTS, E13_DAYS, &[frac], 1)
            });
            totals.events.fetch_add(profiles[0].total_events, Ordering::Relaxed);
            Ok(PointRun::complete(rows[0].to_json()))
        }
        BULK => {
            let src = jp.params.get("src").and_then(Json::as_str).expect("bulk points carry a script");
            let (mut world, mut sim) =
                tracer.span(p, "scenario.build", |_| ScenarioBuilder::new(jp.seed()).office_lan(3));
            let report =
                tracer.span(p, "script.run", |_| script_api::run_source(src, &mut world, &mut sim))?;
            totals.fuel.fetch_add(report.fuel_used, Ordering::Relaxed);
            Ok(PointRun::complete(report.row()))
        }
        _ => {
            let days = jp.params.get("days").and_then(Json::as_u64).expect("natanz points carry days");
            let run =
                tracer.span(p, "malware.e1_point", |_| e1_stuxnet_end_to_end_run(jp.seed(), days, false));
            totals.events.fetch_add(run.sim.executed(), Ordering::Relaxed);
            let Json::Obj(mut row) = run.result.to_json() else { unreachable!("result rows are objects") };
            row.push(("trace_events".to_owned(), Json::U64(run.sim.trace.len() as u64)));
            row.push(("spans".to_owned(), Json::U64(run.sim.spans.len() as u64)));
            Ok(PointRun::complete(Json::Obj(row)))
        }
    });
    if jp.job_id == TAKEDOWN {
        totals.high_done_ns.fetch_max(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    out
}

pub struct Tenants {
    seed: u64,
    journal: std::path::PathBuf,
    /// Digest of the first iteration's reports; later ones must match it.
    first: Option<u64>,
}

impl Tenants {
    pub fn new(seed: u64) -> Tenants {
        let journal = out_dir().join(format!("journal-{}.jsonl", std::process::id()));
        Tenants { seed, journal, first: None }
    }
}

impl Drop for Tenants {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.journal);
    }
}

impl Workload for Tenants {
    const WARMUP: bool = true;

    fn iterate(&mut self, tracer: &Arc<Tracer>, run: u32) -> Iteration {
        let root = Ctx::iteration(run);
        let started_ns = tracer.now_ns();
        let it_ctx = tracer.child(root);

        // Setup: build the submissions, construct the queue, admit them.
        let t = Instant::now();
        let fs = TimedFs::new(Arc::clone(tracer));
        let (queue, points) = tracer.span(it_ctx, "setup", |s| {
            let cfg = QueueConfig {
                pool: PoolConfig::explicit(WORKERS),
                journal: Some(self.journal.clone()),
                storage: Some(Arc::new(fs.clone())),
                ..QueueConfig::default()
            };
            let mut queue = JobQueue::new(cfg).expect("a fresh queue without resume reads no journal");
            let mut points = 0;
            for spec in specs(self.seed) {
                points += spec.grid.len();
                tracer
                    .span(s, "jobs.submit", |_| queue.submit(spec))
                    .expect("the queue admits all four jobs");
            }
            (queue, points)
        });
        let setup_s = t.elapsed().as_secs_f64();

        // Run: every job to its terminal status, then render the reports.
        let t = Instant::now();
        let totals = PointTotals::default();
        let (outcome, digest) = tracer.span(it_ctx, "run", |r| {
            let jobs_ctx = tracer.child(r);
            fs.set_parent(jobs_ctx);
            let jobs_start = tracer.now_ns();
            let started = Instant::now();
            let outcome = queue.run(|jp| run_point(jp, tracer, jobs_ctx, &totals, started));
            tracer.record(jobs_ctx, r, "jobs.run", jobs_start, tracer.now_ns());
            let digest = tracer.span(r, "report.render", |_| {
                outcome.as_ref().ok().map(|q| {
                    let text: String = q.outcomes.iter().map(|o| o.report().to_canonical_string()).collect();
                    fnv1a64(text.as_bytes())
                })
            });
            (outcome, digest)
        });
        let run_s = t.elapsed().as_secs_f64();
        tracer.record(it_ctx, root, "iteration", started_ns, tracer.now_ns());

        let io = fs.counts();
        let mut failed = io.errors;
        let (mut evaluated, mut cached) = (0, 0);
        match &outcome {
            Ok(q) => {
                for o in &q.outcomes {
                    evaluated += o.evaluated_points as u64;
                    cached += o.cached_points as u64;
                    if o.status != JobStatus::Completed {
                        eprintln!("tenants: job {} ended {}", o.job_id, o.status.label());
                        failed +=
                            o.points.iter().filter(|p| p.status != PointStatus::Completed).count().max(1)
                                as u64;
                    }
                }
                if let Some(fault) = &q.storage_degraded {
                    eprintln!("tenants: journal degraded: {fault}");
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("tenants: queue run failed: {e}");
                failed += points as u64;
            }
        }
        let digest = digest.unwrap_or(0);
        let first = *self.first.get_or_insert(digest);
        let pinned = self.seed != DEFAULT_SEED || digest == PINNED_DIGEST;
        let expected_cached = (NATANZ_POINTS / 2) as u64;
        if digest != first || !pinned || cached != expected_cached {
            eprintln!("tenants: iteration {run} report digest {digest:016x}, {cached} cached points");
            failed += 1;
        }
        Iteration {
            setup_s,
            run_s,
            events: totals.events.load(Ordering::Relaxed),
            points: points as u64,
            high_done_s: totals.high_done_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            attempted: points as u64 + 1,
            failed,
            layer: LayerCounts {
                fuel_used: totals.fuel.load(Ordering::Relaxed),
                cache_hits: cached,
                cache_base: points as u64,
                evaluated_points: evaluated,
                workers: WORKERS as u64,
                fsyncs: io.fsyncs,
                bytes: io.bytes,
                ..LayerCounts::default()
            },
        }
    }
}
