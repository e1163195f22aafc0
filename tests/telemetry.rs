//! Integration tests for the unified telemetry plane.
//!
//! The metrics registry is process-global, so every test serializes on one
//! mutex and calls [`telemetry::reset`] before producing counts. Arming is
//! likewise process-wide and one-way; each test arms up front (idempotent).
//!
//! Covered here:
//! * the deterministic snapshot is byte-identical at pool widths 1, 2, and 8
//!   for a seeded three-tenant job run with rejections and a cancellation;
//! * the WFQ-lag gauge matches the virtual-clock arithmetic by hand;
//! * the event queue's tombstone reaps flushed through the kernel hook equal
//!   the sim's own [`Sim::queue_stats`] reading, and the dispatch counter
//!   equals the executed-event count;
//! * the JSONL sink emits one well-formed deterministic sample per boundary;
//! * the zeroed Prometheus exposition matches its golden byte for byte, which
//!   pins every family's HELP and TYPE lines, label set and order.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use malsim::jobs::{JobQueue, JobSpec, Priority, QueueConfig, SeedPolicy};
use malsim::report::{self, Json};
use malsim::sweep::{PointRun, PoolConfig, SweepSupervisor, Truncation};
use malsim::{jobs, telemetry};
use malsim_kernel::sched::Sim;
use malsim_kernel::time::{SimDuration, SimTime};

/// Serializes registry access across the test binary's threads.
static REGISTRY: Mutex<()> = Mutex::new(());

fn registry() -> MutexGuard<'static, ()> {
    let guard = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::arm();
    telemetry::reset();
    guard
}

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("malsim-telemetry-{tag}-{}.jsonl", std::process::id()))
}

/// The same cheap deterministic point the job-queue tests use: a tiny
/// event-driven accumulator so every point drives the real kernel and the
/// dispatch counters see traffic.
fn sim_row(jp: &jobs::JobPoint<'_>) -> PointRun<Json> {
    let events = jp.params.get("events").and_then(Json::as_u64).unwrap_or(8);
    let mut sim: Sim<u64> = Sim::new(SimTime::EPOCH, jp.seed());
    for i in 0..events {
        sim.schedule_in(SimDuration::from_secs(i + 1), |acc: &mut u64, sim: &mut Sim<u64>| {
            let draw: u64 = sim.rng.range(0..65_536u64);
            *acc = acc.wrapping_mul(31).wrapping_add(draw);
        });
    }
    let mut acc = jp.seed();
    let until = SimTime::EPOCH + SimDuration::from_secs(events + 2);
    let run = sim.run_until_watched(&mut acc, until, jp.watchdog);
    PointRun {
        result: Json::obj([("params", jp.params.clone()), ("acc", Json::U64(acc))]),
        truncation: Truncation::from_stop(run.reason),
        violations: Vec::new(),
    }
}

fn grid(tag: &str, points: u64) -> Vec<Json> {
    (0..points)
        .map(|p| Json::obj([("tag", tag.into()), ("p", Json::U64(p)), ("events", Json::U64(6))]))
        .collect()
}

fn spec(job_id: &str, tenant: &str, priority: Priority, grid: Vec<Json>) -> JobSpec {
    JobSpec {
        job_id: job_id.to_owned(),
        tenant: tenant.to_owned(),
        experiment: "telemetry-it",
        base_seed: 40,
        seed_policy: SeedPolicy::Derived,
        priority,
        budget: SweepSupervisor::default(),
        grid,
    }
}

/// One full three-tenant run: three admitted jobs (disjoint grids, so the
/// result cache never collapses points), three typed rejections, and a
/// fourth job cancelled before the pool starts (its points are cancelled at
/// the first scheduling boundary on every pool width).
fn three_tenant_run(threads: usize) -> String {
    telemetry::reset();
    let cfg = QueueConfig { pool: PoolConfig::explicit(threads), max_jobs: 4, ..QueueConfig::default() };
    let mut queue = JobQueue::new(cfg).expect("no journal configured");
    queue.submit(spec("atlas", "research", Priority::Normal, grid("a", 5))).expect("atlas fits");
    queue.submit(spec("bolt", "ops", Priority::Low, grid("b", 4))).expect("bolt fits");
    queue.submit(spec("crow", "red-team", Priority::High, grid("c", 3))).expect("crow fits");
    let dune = queue.submit(spec("dune", "walk-in", Priority::Normal, grid("d", 2))).expect("dune fits");
    assert!(queue.submit(spec("empty", "walk-in", Priority::Normal, Vec::new())).is_err());
    assert!(queue.submit(spec("atlas", "research", Priority::Normal, grid("x", 1))).is_err());
    assert!(queue.submit(spec("erg", "walk-in", Priority::Normal, grid("e", 1))).is_err());
    dune.token.cancel();
    queue.run(|jp| Ok(sim_row(jp))).expect("run succeeds");
    telemetry::render_deterministic()
}

#[test]
fn deterministic_snapshot_is_byte_identical_across_pool_widths() {
    let _g = registry();
    let one = three_tenant_run(1);
    let two = three_tenant_run(2);
    let eight = three_tenant_run(8);
    assert_eq!(one, two, "pool width 2 must not change the deterministic snapshot");
    assert_eq!(one, eight, "pool width 8 must not change the deterministic snapshot");

    // Spot-check the counts the scenario pins down exactly.
    let det = report::parse(&one).expect("snapshot parses");
    let count = |name: &str| det.get(name).and_then(Json::as_u64).unwrap_or_else(|| panic!("{name}"));
    assert_eq!(count("malsim_jobs_admitted_total"), 4);
    assert_eq!(count("malsim_points_completed_total"), 12, "atlas 5 + bolt 4 + crow 3");
    assert_eq!(count("malsim_jobs_cancelled_points_total"), 2, "both of dune's points");
    let rejected = det.get("malsim_jobs_rejected_total").expect("rejection family");
    assert_eq!(rejected.get("empty_grid").and_then(Json::as_u64), Some(1));
    assert_eq!(rejected.get("duplicate_job_id").and_then(Json::as_u64), Some(1));
    assert_eq!(rejected.get("queue_full").and_then(Json::as_u64), Some(1));
    assert_eq!(rejected.get("grid_too_large").and_then(Json::as_u64), Some(0));
    // Every point drives a real sim, so the kernel-side dispatch counters saw
    // traffic through the hook.
    let dispatches = det.get("malsim_sched_dispatches_total").expect("dispatch family");
    let total: u64 = match dispatches {
        Json::Obj(pairs) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        other => panic!("dispatch family is labeled: {other:?}"),
    };
    assert!(total > 0, "12 points x 6 events must dispatch");
}

#[test]
fn wfq_lag_gauge_matches_the_virtual_clock_math() {
    let _g = registry();
    let cfg = QueueConfig { pool: PoolConfig::explicit(1), max_jobs: 3, ..QueueConfig::default() };
    let mut queue = JobQueue::new(cfg).expect("no journal configured");
    queue.submit(spec("atlas", "research", Priority::Normal, grid("a", 5))).expect("atlas fits");
    queue.submit(spec("bolt", "ops", Priority::Low, grid("b", 4))).expect("bolt fits");
    queue.submit(spec("crow", "red-team", Priority::High, grid("c", 3))).expect("crow fits");
    queue.run(|jp| Ok(sim_row(jp))).expect("run succeeds");

    // Each dispatch advances the picked tenant's virtual clock by
    // `WFQ_QUANTUM / weight` = 16/4 (normal), 16/1 (low), 16/16 (high):
    //   research: 5 picks x 4 = 20, ops: 4 x 16 = 64, red-team: 3 x 1 = 3.
    // The gauge reports each tenant's lag behind the fleet minimum (3).
    let det = telemetry::deterministic_json();
    let expected =
        Json::obj([("ops", Json::U64(61)), ("red-team", Json::U64(0)), ("research", Json::U64(17))]);
    assert_eq!(det.get("malsim_jobs_wfq_lag"), Some(&expected));
}

#[test]
fn hook_flushed_queue_counters_match_the_sims_own_stats() {
    let _g = registry();
    // Non-monotone inserts with a cancelled half (tombstones): the registry
    // must mirror the sim's own reap count exactly.
    let mut sim: Sim<Vec<u64>> = Sim::new(SimTime::EPOCH, 1);
    let mut handles = Vec::new();
    for i in 0..1000u64 {
        let h =
            sim.schedule_at(SimTime::EPOCH + SimDuration::from_millis(i * 14), move |w: &mut Vec<u64>, _| {
                w.push(i);
            });
        handles.push(h);
    }
    for i in (1..1000u64).rev() {
        let h = sim.schedule_at(
            SimTime::EPOCH + SimDuration::from_millis(i * 14 - 7),
            move |w: &mut Vec<u64>, _| {
                w.push(i);
            },
        );
        handles.push(h);
    }
    for h in handles.iter().step_by(2) {
        sim.cancel(*h);
    }
    let mut fired = Vec::new();
    sim.run(&mut fired);

    let stats = sim.queue_stats();
    assert!(stats.tombstone_reaps >= 999, "the cancelled half is reaped by the drain");

    let det = telemetry::deterministic_json();
    let reaps = det.get("malsim_calq_tombstone_reaps_total").and_then(Json::as_u64);
    assert_eq!(reaps, Some(stats.tombstone_reaps));
    // Every executed event passed through the hook's dispatch path; none of
    // these closures carry a trace category.
    let dispatches = det.get("malsim_sched_dispatches_total").expect("dispatch family");
    assert_eq!(dispatches.get("untraced").and_then(Json::as_u64), Some(sim.executed()));
}

#[test]
fn jsonl_sink_emits_one_deterministic_sample_per_boundary() {
    let _g = registry();
    let path = temp("sink");
    telemetry::set_jsonl_sink(&path).expect("sink opens");
    let cfg = QueueConfig { pool: PoolConfig::explicit(1), max_jobs: 1, ..QueueConfig::default() };
    let mut queue = JobQueue::new(cfg).expect("no journal configured");
    queue.submit(spec("atlas", "research", Priority::Normal, grid("a", 3))).expect("atlas fits");
    queue.run(|jp| Ok(sim_row(jp))).expect("run succeeds");
    telemetry::clear_jsonl_sink();

    let body = std::fs::read_to_string(&path).expect("sink file readable");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 3, "one sample per point boundary");
    for (i, line) in lines.iter().enumerate() {
        let doc = report::parse(line).expect("sample parses");
        assert_eq!(doc.get("sample").and_then(Json::as_u64), Some(i as u64 + 1));
        let det = doc.get("deterministic").expect("sample carries the deterministic section");
        assert!(det.get("malsim_points_completed_total").is_some());
    }
    // The final sample of a single-threaded run is the boundary-time view;
    // completed counts grow monotonically across samples.
    let last = report::parse(lines[2]).expect("last sample parses");
    assert_eq!(
        last.get("deterministic").and_then(|d| d.get("malsim_points_completed_total")).and_then(Json::as_u64),
        Some(3)
    );
}

#[test]
fn zeroed_prometheus_exposition_matches_the_golden() {
    let _g = registry();
    let golden = include_str!("golden_metrics/prometheus_zeroed.prom");
    assert_eq!(telemetry::render_prometheus(), golden);
}
