//! Supervised-sweep integration tests: kill/resume byte-identity on the real
//! E13 experiment, deterministic watchdog truncation, invariant checking on
//! real campaign runs, and a deliberately seeded violation surfacing through
//! the whole checkpoint pipeline.

use std::path::PathBuf;

use malsim::checkpoint::{run_checkpointed, CheckpointConfig, PointStatus};
use malsim::experiments::{self, SupervisedSweepOpts};
use malsim::report::Json;
use malsim::scenario::ScenarioBuilder;
use malsim::sweep::{PointRun, PoolConfig, SweepSupervisor};
use malsim_kernel::prelude::{Sim, SimTime, StopReason, Watchdog};
use malsim_kernel::time::SimDuration;
use malsim_malware::common::InfectionRecord;
use malsim_malware::world::World;
use malsim_os::host::HostId;

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("malsim-it-{tag}-{}.ckpt", std::process::id()))
}

/// A small E13 grid: full scale is the goldens' job, resume semantics are
/// this file's.
const FRACTIONS: &[f64] = &[0.0, 0.5, 1.0];

#[test]
fn e13_resume_is_byte_identical_across_thread_counts() {
    let full_path = temp("e13-full");
    let base = SupervisedSweepOpts {
        pool: PoolConfig::explicit(2),
        supervisor: SweepSupervisor::default(),
        ckpt_path: &full_path,
        resume: false,
    };
    let full = experiments::e13_takedown_resilience_supervised(11, 4, 2, FRACTIONS, &base).unwrap();
    let full_report = full.report().to_canonical_string();
    assert_eq!(full.points.len(), FRACTIONS.len());
    assert_eq!(full.resumed_points, 0);

    // Simulate a kill after the first checkpointed point: keep one line.
    let first_line =
        std::fs::read_to_string(&full_path).unwrap().lines().next().expect("one record").to_owned();
    for threads in [1, 2, 8] {
        let path = temp(&format!("e13-resume-{threads}"));
        std::fs::write(&path, format!("{first_line}\n")).unwrap();
        let resumed = experiments::e13_takedown_resilience_supervised(
            11,
            4,
            2,
            FRACTIONS,
            &SupervisedSweepOpts {
                pool: PoolConfig::explicit(threads),
                ckpt_path: &path,
                resume: true,
                ..base
            },
        )
        .unwrap();
        assert_eq!(resumed.resumed_points, 1);
        assert_eq!(
            resumed.report().to_canonical_string(),
            full_report,
            "kill+resume must be byte-identical at threads={threads}"
        );
        std::fs::remove_file(&path).unwrap();
    }
    std::fs::remove_file(&full_path).unwrap();
}

#[test]
fn e13_event_budget_truncates_deterministically() {
    let supervisor = SweepSupervisor { event_budget: Some(50), ..SweepSupervisor::default() };
    let reports: Vec<String> = [1, 2]
        .into_iter()
        .map(|threads| {
            let path = temp(&format!("e13-budget-{threads}"));
            let out = experiments::e13_takedown_resilience_supervised(
                5,
                3,
                2,
                FRACTIONS,
                &SupervisedSweepOpts {
                    pool: PoolConfig::explicit(threads),
                    supervisor,
                    ckpt_path: &path,
                    resume: false,
                },
            )
            .unwrap();
            for p in &out.points {
                assert_eq!(p.record.status, PointStatus::Truncated);
                assert_eq!(p.record.truncation.as_deref(), Some("event_budget"));
                assert!(p.record.row.is_some(), "a truncated point still reports its partial row");
            }
            std::fs::remove_file(&path).unwrap();
            out.report().to_canonical_string()
        })
        .collect();
    assert_eq!(reports[0], reports[1], "the event budget is a deterministic limit");
}

#[test]
fn e13_supervised_run_satisfies_all_invariants() {
    let path = temp("e13-inv");
    let supervisor = SweepSupervisor { check_invariants: true, ..SweepSupervisor::default() };
    let out = experiments::e13_takedown_resilience_supervised(
        7,
        3,
        2,
        FRACTIONS,
        &SupervisedSweepOpts { pool: PoolConfig::explicit(2), supervisor, ckpt_path: &path, resume: false },
    )
    .unwrap();
    for p in &out.points {
        assert_eq!(p.record.status, PointStatus::Completed);
        assert!(p.record.violations.is_empty(), "{:?}", p.record.violations);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn e1_checked_run_is_violation_free() {
    let (run, violations) = experiments::e1_stuxnet_end_to_end_checked(42, 10, false, true);
    assert!(violations.is_empty(), "{violations:?}");
    // The checker never perturbs the run: same headline as the unchecked path.
    assert_eq!(run.result, experiments::e1_stuxnet_end_to_end_run(42, 10, false).result);
}

#[test]
fn seeded_violation_surfaces_through_the_checkpoint_pipeline() {
    let path = temp("seeded-violation");
    let cfg = CheckpointConfig {
        experiment: "negative",
        base_seed: 1,
        pool: PoolConfig::explicit(1),
        supervisor: SweepSupervisor::default(),
        path: &path,
        resume: false,
        backend: None,
    };
    let corrupt = |_: &malsim::sweep::SweepCtx, _: &u32| {
        let (mut world, mut sim) = ScenarioBuilder::new(1).office_lan(2);
        malsim::invariants::install(&mut sim, false);
        sim.schedule_in(SimDuration::from_hours(1), |w: &mut World, sim| {
            // The deliberate corruption: an infection record for a host that
            // was never spawned.
            w.campaigns.stuxnet.infections.insert(
                HostId::new(99),
                InfectionRecord { infected_at: sim.now(), vector: "usb-lnk".into() },
            );
        });
        sim.run(&mut world);
        Ok(PointRun { result: Json::U64(0), truncation: None, violations: sim.take_violations() })
    };
    let out = run_checkpointed(&cfg, &[0u32], corrupt).unwrap();
    let rec = &out.points[0].record;
    assert_eq!(rec.status, PointStatus::Completed);
    assert_eq!(rec.violations.len(), 1, "{:?}", rec.violations);
    assert!(rec.violations[0].contains("infected-hosts-exist"), "{}", rec.violations[0]);
    assert!(rec.violations[0].contains("99"), "{}", rec.violations[0]);

    // The violation is durable: a resume keeps the record (with its
    // violation) instead of re-running the point — if it re-ran, this
    // panicking closure would leave the point poisoned.
    let resumed = run_checkpointed(&CheckpointConfig { resume: true, ..cfg }, &[0u32], |_, _: &u32| {
        panic!("a completed point must not re-run on resume")
    })
    .unwrap();
    assert_eq!(resumed.resumed_points, 1);
    let rec = &resumed.points[0].record;
    assert_eq!(rec.status, PointStatus::Completed);
    assert!(rec.violations[0].contains("infected-hosts-exist"));
    assert_eq!(resumed.report(), out.report());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn poisoned_e13_style_point_quarantines_without_aborting() {
    // The quarantine drill at experiment scale: one grid point panics
    // mid-simulation, the other points complete with real rows.
    let path = temp("quarantine");
    let cfg = CheckpointConfig {
        experiment: "quarantine",
        base_seed: 9,
        pool: PoolConfig::explicit(2),
        supervisor: SweepSupervisor::default(),
        path: &path,
        resume: false,
        backend: None,
    };
    let grid: Vec<f64> = vec![0.0, 0.25, 0.5, 0.75, 1.0];
    let out = run_checkpointed(&cfg, &grid, |ctx, &frac| {
        if ctx.point == 2 {
            panic!("injected mid-grid failure");
        }
        let (mut world, mut sim) = ScenarioBuilder::new(ctx.derived_seed()).office_lan(3);
        sim.schedule_in(SimDuration::from_hours(1), |_: &mut World, _| {});
        sim.run(&mut world);
        Ok(PointRun::complete(Json::obj([("frac", frac.into()), ("hosts", world.hosts.len().into())])))
    })
    .unwrap();
    assert_eq!(out.points.len(), 5);
    for (i, p) in out.points.iter().enumerate() {
        if i == 2 {
            assert_eq!(p.record.status, PointStatus::Poisoned);
            assert_eq!(p.record.panic_msg.as_deref(), Some("injected mid-grid failure"));
            assert_eq!(p.record.params.as_deref(), Some("0.5"));
            assert_eq!(p.record.row, None);
        } else {
            assert_eq!(p.record.status, PointStatus::Completed, "point {i}");
            assert!(p.record.row.is_some(), "point {i}");
        }
    }
    let report = out.report();
    assert_eq!(report.get("poisoned").and_then(Json::as_u64), Some(1));
    assert_eq!(report.get("completed").and_then(Json::as_u64), Some(4));
    std::fs::remove_file(&path).unwrap();
}

/// Disk-full mid-sweep on real scenario points: the checkpoint quarantines
/// with a typed `StorageFull` fault, the grid still completes, and the
/// report is byte-identical to a run on a healthy disk.
#[test]
fn disk_full_mid_sweep_quarantines_the_checkpoint_but_the_grid_completes() {
    use malsim::chaosfs::{ChaosFs, FaultSchedule};

    let clean_path = temp("chaos-clean");
    let cfg = CheckpointConfig {
        experiment: "enospc-chaos",
        base_seed: 13,
        pool: PoolConfig::explicit(2),
        supervisor: SweepSupervisor::default(),
        path: &clean_path,
        resume: false,
        backend: None,
    };
    let eval = |ctx: &malsim::sweep::SweepCtx, &frac: &f64| {
        let (mut world, mut sim) = ScenarioBuilder::new(ctx.derived_seed()).office_lan(3);
        sim.schedule_in(SimDuration::from_hours(1), |_: &mut World, _| {});
        sim.run(&mut world);
        Ok(PointRun::complete(Json::obj([("frac", frac.into()), ("hosts", world.hosts.len().into())])))
    };
    let clean = run_checkpointed(&cfg, FRACTIONS, eval).unwrap();
    assert!(clean.storage_fault.is_none());

    let chaos = ChaosFs::new(FaultSchedule { disk_capacity: Some(400), ..FaultSchedule::quiet(13) });
    let chaos_path = temp("chaos-enospc");
    let out = run_checkpointed(
        &CheckpointConfig { path: &chaos_path, backend: Some(&chaos), ..cfg },
        FRACTIONS,
        eval,
    )
    .unwrap();
    let fault = out.storage_fault.clone().expect("ENOSPC must quarantine the checkpoint");
    assert_eq!(fault.kind, std::io::ErrorKind::StorageFull);
    assert_eq!(out.points.len(), FRACTIONS.len(), "the grid still completes");
    assert_eq!(
        out.report().to_canonical_string(),
        clean.report().to_canonical_string(),
        "a quarantined checkpoint never perturbs report bytes"
    );
    std::fs::remove_file(&clean_path).unwrap();
    let _ = std::fs::remove_file(&chaos_path);
}

/// Fsync failure mid-sweep: the writer quarantines on the first failed
/// fsync (never retried), later points stop persisting, and resuming from
/// the surviving durable prefix converges to the same bytes.
#[test]
fn fsync_failure_mid_sweep_still_resumes_byte_identically() {
    use malsim::chaosfs::{ChaosFs, FaultSchedule};

    let clean_path = temp("fsync-clean");
    let cfg = CheckpointConfig {
        experiment: "fsync-chaos",
        base_seed: 21,
        pool: PoolConfig::explicit(2),
        supervisor: SweepSupervisor::default(),
        path: &clean_path,
        resume: false,
        backend: None,
    };
    let eval = |ctx: &malsim::sweep::SweepCtx, &frac: &f64| {
        let (mut world, mut sim) = ScenarioBuilder::new(ctx.derived_seed()).office_lan(3);
        sim.schedule_in(SimDuration::from_hours(1), |_: &mut World, _| {});
        sim.run(&mut world);
        Ok(PointRun::complete(Json::obj([("frac", frac.into()), ("hosts", world.hosts.len().into())])))
    };
    let clean = run_checkpointed(&cfg, FRACTIONS, eval).unwrap();
    let clean_report = clean.report().to_canonical_string();

    let chaos = ChaosFs::new(FaultSchedule { fsync_fail_permille: 1000, ..FaultSchedule::quiet(21) });
    let chaos_path = temp("fsync-chaos");
    let out = run_checkpointed(
        &CheckpointConfig { path: &chaos_path, backend: Some(&chaos), ..cfg },
        FRACTIONS,
        eval,
    )
    .unwrap();
    let fault = out.storage_fault.clone().expect("an fsync failure must quarantine");
    assert!(fault.to_string().contains("fsync"), "{fault}");
    assert_eq!(out.report().to_canonical_string(), clean_report, "degraded, never diverged");

    // Whatever prefix reached the disk before quarantine is valid; resuming
    // over it re-runs only the lost points and lands on the same bytes.
    let resumed =
        run_checkpointed(&CheckpointConfig { path: &chaos_path, resume: true, ..cfg }, FRACTIONS, eval)
            .unwrap();
    assert!(resumed.storage_fault.is_none());
    assert_eq!(resumed.report().to_canonical_string(), clean_report, "resume over the durable prefix");
    std::fs::remove_file(&clean_path).unwrap();
    let _ = std::fs::remove_file(&chaos_path);
}

/// Event-budget truncation landing in the middle of a same-timestamp batch:
/// the event queue keeps ties in one chain per timestamp, but the watchdog
/// must still be able to stop between any two of them, leaving the clock
/// parked at the last event it actually dispatched.
#[test]
fn event_budget_splits_a_same_timestamp_batch_cleanly() {
    let batch_at = SimTime::EPOCH + SimDuration::from_hours(1);
    let mut sim: Sim<Vec<u32>> = Sim::new(SimTime::EPOCH, 3);
    let mut world = Vec::new();
    for tag in 0..10u32 {
        sim.schedule_at(batch_at, move |w: &mut Vec<u32>, _| w.push(tag));
    }
    sim.schedule_at(batch_at + SimDuration::from_hours(1), |w: &mut Vec<u32>, _| w.push(99));

    // Budget of 4 stops inside the 10-event tie.
    let run = sim.run_until_watched(&mut world, SimTime::MAX, Watchdog::events(4));
    assert_eq!(run.reason, StopReason::EventBudget);
    assert_eq!(run.executed, 4);
    assert_eq!(world, vec![0, 1, 2, 3], "ties dispatch in scheduling order");
    assert_eq!(sim.now(), batch_at, "clock stays at the last dispatched event, not past the batch");

    // Resuming finishes the batch from exactly where it stopped.
    let rest = sim.run_until_watched(&mut world, SimTime::MAX, Watchdog::UNLIMITED);
    assert_eq!(rest.reason, StopReason::Completed);
    assert_eq!(world, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 99]);
}

/// The same mid-batch truncation, pushed through the supervised sweep runner
/// at worker counts 1, 2, and 8 (the in-process equivalent of the
/// `MALSIM_THREADS` knob): canonical reports must be byte-identical, because
/// the budget is simulation-deterministic and worker scheduling never touches
/// event order inside a point.
#[test]
fn mid_batch_truncation_is_byte_identical_across_worker_counts() {
    let budgets: Vec<u64> = vec![3, 7, 10, 25];
    let reports: Vec<String> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let path = temp(&format!("batch-budget-{threads}"));
            let cfg = CheckpointConfig {
                experiment: "batch_budget",
                base_seed: 17,
                pool: PoolConfig::explicit(threads),
                supervisor: SweepSupervisor::default(),
                path: &path,
                resume: false,
                backend: None,
            };
            let out = run_checkpointed(&cfg, &budgets, |_, &budget| {
                let batch_at = SimTime::EPOCH + SimDuration::from_hours(1);
                let mut sim: Sim<Vec<u32>> = Sim::new(SimTime::EPOCH, 3);
                let mut world = Vec::new();
                for tag in 0..20u32 {
                    sim.schedule_at(batch_at, move |w: &mut Vec<u32>, _| w.push(tag));
                }
                let run = sim.run_until_watched(&mut world, SimTime::MAX, Watchdog::events(budget));
                let fired: Vec<Json> = world.iter().map(|&t| Json::from(u64::from(t))).collect();
                Ok(PointRun {
                    result: Json::obj([
                        ("executed", run.executed.into()),
                        ("now_ms", sim.now().as_millis().into()),
                        ("completed", run.completed().into()),
                        ("fired", Json::Arr(fired)),
                    ]),
                    truncation: malsim::sweep::Truncation::from_stop(run.reason),
                    violations: Vec::new(),
                })
            })
            .unwrap();
            std::fs::remove_file(&path).unwrap();
            out.report().to_canonical_string()
        })
        .collect();
    assert_eq!(reports[0], reports[1], "threads=1 vs threads=2");
    assert_eq!(reports[0], reports[2], "threads=1 vs threads=8");
}
