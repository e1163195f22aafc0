//! Job-queue integration tests: the three-tenant acceptance scenario
//! (cancellation, poisoning with bounded retries, watchdog truncation,
//! typed load-shedding, SIGKILL-style journal resume), tenant isolation
//! under cancellation, cross-tenant result-cache dedup, weighted-fair
//! interleaving, and journal damage/identity handling.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use malsim::jobs::{
    CancelToken, JobBudget, JobQueue, JobSpec, JobStatus, Priority, QueueConfig, RejectReason, SeedPolicy,
};
use malsim::report::Json;
use malsim::sweep::{PointRun, PoolConfig, ScriptFaultInfo, Truncation};
use malsim::{jobs, scenario::ScenarioBuilder, script_api};
use malsim_kernel::sched::Sim;
use malsim_kernel::time::{SimDuration, SimTime};

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("malsim-jobs-{tag}-{}.jnl", std::process::id()))
}

/// A cheap deterministic point: a tiny event-driven accumulator simulation
/// seeded from the point, honouring the job's watchdog so over-budget jobs
/// truncate exactly like real experiments do.
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
        result: Json::obj([
            ("params", jp.params.clone()),
            ("acc", Json::U64(acc)),
            ("executed", Json::U64(run.executed)),
        ]),
        truncation: Truncation::from_stop(run.reason),
        violations: Vec::new(),
    }
}

/// The shared point function: dispatches on the grid point's `kind` so one
/// queue can mix benign simulations, panicking points, and hostile scripts.
fn eval(jp: &jobs::JobPoint<'_>) -> Result<PointRun<Json>, ScriptFaultInfo> {
    match jp.params.get("kind").and_then(Json::as_str) {
        Some("panic") => panic!("injected point failure"),
        Some("script") => {
            let src = jp.params.get("src").and_then(Json::as_str).expect("script points carry src");
            let (mut world, mut sim) = ScenarioBuilder::new(jp.seed()).office_lan(2);
            script_api::run_source(src, &mut world, &mut sim).map(|r| PointRun::complete(r.row()))
        }
        _ => Ok(sim_row(jp)),
    }
}

fn sim_grid(points: u64, events: u64) -> Vec<Json> {
    (0..points)
        .map(|t| Json::obj([("kind", "sim".into()), ("events", Json::U64(events)), ("tag", Json::U64(t))]))
        .collect()
}

fn spec(job_id: &str, tenant: &str, grid: Vec<Json>) -> JobSpec {
    JobSpec {
        job_id: job_id.to_owned(),
        tenant: tenant.to_owned(),
        experiment: "jobs-it",
        base_seed: 40,
        seed_policy: SeedPolicy::Derived,
        priority: Priority::Normal,
        budget: JobBudget::default(),
        grid,
    }
}

/// The journal's order invariant, which group commit must keep at any
/// worker count: a job's admission line precedes its point lines, and its
/// terminal line follows all of them.
fn assert_transition_order(journal: &str) {
    let (mut admitted, mut finished) = (BTreeSet::new(), BTreeSet::new());
    for (i, line) in journal.lines().enumerate() {
        let v = malsim::report::parse(line).expect("an undamaged journal parses line by line");
        let text = |key: &str| v.get(key).and_then(Json::as_str).expect("journal lines carry ids").to_owned();
        if v.get("kind").and_then(Json::as_str) == Some("transition") {
            let (job, status) = (text("job_id"), text("status"));
            if status == "admitted" {
                admitted.insert(job);
            } else {
                assert!(admitted.contains(&job), "line {i}: {job} ends before its admission");
                finished.insert(job);
            }
        } else {
            let job = text("experiment");
            assert!(admitted.contains(&job), "line {i}: a point of {job} precedes its admission");
            assert!(!finished.contains(&job), "line {i}: a point of {job} follows its terminal line");
        }
    }
}

/// The acceptance scenario: four tenants — benign, cancelled mid-grid,
/// poisoned with bounded retries, over-budget — plus a shed fifth; then a
/// SIGKILL-style journal truncation and resume at 1/2/8 workers.
#[test]
fn three_tenant_queue_with_kill_and_resume() {
    let journal = temp("acceptance");
    let atlas = spec("atlas", "tenant-a", sim_grid(4, 8));
    let mut bolt = spec("bolt", "tenant-b", sim_grid(6, 8));
    bolt.base_seed = 41;
    let mut crow = spec("crow", "tenant-c", sim_grid(4, 8));
    crow.base_seed = 42;
    crow.grid[2] = Json::obj([("kind", "panic".into())]);
    crow.budget.retries = 2;
    crow.budget.retry_backoff_ms = 1;
    let mut dune = spec("dune", "tenant-d", sim_grid(3, 50));
    dune.base_seed = 43;
    dune.budget.event_budget = Some(5);

    let cfg = |journal: &PathBuf, resume: bool, threads: usize| QueueConfig {
        pool: PoolConfig::explicit(threads),
        max_jobs: 4,
        journal: Some(journal.clone()),
        resume,
        ..QueueConfig::default()
    };
    let mut queue = JobQueue::new(cfg(&journal, false, 2)).unwrap();
    queue.submit(atlas.clone()).unwrap();
    let bolt_handle = queue.submit(bolt.clone()).unwrap();
    queue.submit(crow.clone()).unwrap();
    queue.submit(dune.clone()).unwrap();

    // Load-shedding: the queue is at capacity; the fifth tenant gets a
    // typed rejection, not unbounded queueing.
    let shed = queue.submit(spec("shed", "tenant-e", sim_grid(1, 4))).unwrap_err();
    assert_eq!(shed.reason, RejectReason::QueueFull { capacity: 4 });

    // Cancel bolt from inside the grid, after two of its points completed.
    static BOLT_TOKEN: OnceLock<CancelToken> = OnceLock::new();
    static BOLT_DONE: AtomicUsize = AtomicUsize::new(0);
    static CROW_PANICS: AtomicUsize = AtomicUsize::new(0);
    BOLT_TOKEN.set(bolt_handle.token.clone()).unwrap();
    let run = queue
        .run(|jp| {
            if jp.params.get("kind").and_then(Json::as_str) == Some("panic") {
                CROW_PANICS.fetch_add(1, Ordering::SeqCst);
            }
            let out = eval(jp);
            if jp.job_id == "bolt" && BOLT_DONE.fetch_add(1, Ordering::SeqCst) + 1 >= 2 {
                BOLT_TOKEN.get().unwrap().cancel();
            }
            out
        })
        .unwrap();

    let by_id = |id: &str| run.outcomes.iter().find(|o| o.job_id == id).unwrap();
    assert_eq!(by_id("atlas").status, JobStatus::Completed);
    assert_eq!(by_id("bolt").status, JobStatus::Cancelled);
    assert!(by_id("bolt").evaluated_points < 6, "cancellation dropped at least one point");
    assert_eq!(by_id("crow").status, JobStatus::Degraded, "poisoned point degrades, queue survives");
    assert_eq!(CROW_PANICS.load(Ordering::SeqCst), 3, "1 attempt + 2 bounded retries");
    let crow_poisoned = &by_id("crow").points[2];
    assert_eq!(crow_poisoned.panic_msg.as_deref(), Some("injected point failure"));
    assert_eq!(by_id("dune").status, JobStatus::Degraded, "over-budget job truncated, not killed");
    for rec in &by_id("dune").points {
        assert_eq!(rec.truncation.as_deref(), Some("event_budget"));
    }
    let originals: Vec<String> = run.outcomes.iter().map(|o| o.report().to_canonical_string()).collect();

    // SIGKILL drill: keep the journal only up to bolt's terminal line (all
    // of bolt's fate is durable; other jobs are mid-grid) and resume.
    let text = std::fs::read_to_string(&journal).unwrap();
    assert_transition_order(&text);
    let cut = text
        .lines()
        .position(|l| {
            l.contains("\"kind\":\"transition\"")
                && l.contains("\"job_id\":\"bolt\"")
                && l.contains("\"status\":\"cancelled\"")
        })
        .expect("bolt's terminal transition is journaled");
    let prefix: Vec<&str> = text.lines().take(cut + 1).collect();
    for threads in [1usize, 2, 8] {
        let copy = temp(&format!("acceptance-t{threads}"));
        std::fs::write(&copy, format!("{}\n", prefix.join("\n"))).unwrap();
        let mut queue = JobQueue::new(cfg(&copy, true, threads)).unwrap();
        for s in [atlas.clone(), bolt.clone(), crow.clone(), dune.clone()] {
            queue.submit(s).unwrap();
        }
        let resumed = queue.run(eval).unwrap();
        for (original, outcome) in originals.iter().zip(&resumed.outcomes) {
            assert_eq!(
                &outcome.report().to_canonical_string(),
                original,
                "{} must resume byte-identically at {threads} workers",
                outcome.job_id
            );
        }
        let bolt_resumed = resumed.outcomes.iter().find(|o| o.job_id == "bolt").unwrap();
        assert_eq!(bolt_resumed.evaluated_points, 0, "bolt's fate is fully journaled");
        assert_eq!(bolt_resumed.resumed_points, 6);
        std::fs::remove_file(&copy).unwrap();
    }
    std::fs::remove_file(&journal).unwrap();
}

/// Cancelling one tenant's job never perturbs another tenant's results:
/// the survivors' reports are byte-identical to solo runs at 1/2/8 workers.
#[test]
fn cancellation_leaves_other_tenants_byte_identical_to_solo_runs() {
    let solo = |spec: JobSpec, threads: usize| -> String {
        let mut q =
            JobQueue::new(QueueConfig { pool: PoolConfig::explicit(threads), ..QueueConfig::default() })
                .unwrap();
        q.submit(spec).unwrap();
        q.run(eval).unwrap().outcomes.remove(0).report().to_canonical_string()
    };
    let ember = spec("ember", "tenant-a", sim_grid(5, 8));
    let mut noise = spec("noise", "tenant-b", sim_grid(8, 8));
    noise.base_seed = 77;
    let mut frost = spec("frost", "tenant-c", sim_grid(5, 12));
    frost.base_seed = 78;
    let ember_solo = solo(ember.clone(), 1);
    let frost_solo = solo(frost.clone(), 1);

    for threads in [1usize, 2, 8] {
        let mut queue =
            JobQueue::new(QueueConfig { pool: PoolConfig::explicit(threads), ..QueueConfig::default() })
                .unwrap();
        queue.submit(ember.clone()).unwrap();
        let handle = queue.submit(noise.clone()).unwrap();
        queue.submit(frost.clone()).unwrap();
        static DONE: AtomicUsize = AtomicUsize::new(0);
        DONE.store(0, Ordering::SeqCst);
        let token = handle.token;
        let run = queue
            .run(|jp| {
                let out = eval(jp);
                if jp.job_id == "noise" && DONE.fetch_add(1, Ordering::SeqCst) + 1 >= 2 {
                    token.cancel();
                }
                out
            })
            .unwrap();
        assert_eq!(run.outcomes[1].status, JobStatus::Cancelled);
        assert_eq!(
            run.outcomes[0].report().to_canonical_string(),
            ember_solo,
            "ember isolated from noise's cancellation at {threads} workers"
        );
        assert_eq!(
            run.outcomes[2].report().to_canonical_string(),
            frost_solo,
            "frost isolated from noise's cancellation at {threads} workers"
        );
    }
}

/// A duplicate submission is served entirely from the content-addressed
/// result cache: zero points evaluated, identical rows.
#[test]
fn duplicate_submission_is_served_from_the_cache() {
    static EVALS: [AtomicUsize; 3] = [AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0)];
    let mut queue =
        JobQueue::new(QueueConfig { pool: PoolConfig::explicit(2), ..QueueConfig::default() }).unwrap();
    let first = spec("first", "tenant-a", sim_grid(3, 8));
    let mut second = first.clone();
    second.job_id = "second".into();
    second.tenant = "tenant-b".into();
    queue.submit(first).unwrap();
    queue.submit(second).unwrap();
    let run = queue
        .run(|jp| {
            EVALS[jp.ctx.point].fetch_add(1, Ordering::SeqCst);
            eval(jp)
        })
        .unwrap();
    let (first, second) = (&run.outcomes[0], &run.outcomes[1]);
    assert_eq!(first.evaluated_points, 3);
    assert_eq!(second.evaluated_points, 0, "the duplicate re-evaluates nothing");
    assert_eq!(second.cached_points, 3);
    for (i, counter) in EVALS.iter().enumerate() {
        assert_eq!(counter.load(Ordering::SeqCst), 1, "point {i} evaluated exactly once");
    }
    assert_eq!(
        first.report().get("rows"),
        second.report().get("rows"),
        "cached rows are the evaluator's rows"
    );
    assert_eq!(first.status, second.status);
}

/// If the designated evaluator's job is cancelled before it runs the shared
/// point, a parked duplicate is promoted and still gets a real result.
#[test]
fn cancelled_owner_promotes_the_parked_duplicate() {
    let mut queue =
        JobQueue::new(QueueConfig { pool: PoolConfig::explicit(1), ..QueueConfig::default() }).unwrap();
    let owner = spec("owner", "tenant-a", sim_grid(3, 8));
    let mut dup = owner.clone();
    dup.job_id = "dup".into();
    dup.tenant = "tenant-b".into();
    let handle = queue.submit(owner).unwrap();
    queue.submit(dup).unwrap();
    handle.cancel();
    let run = queue.run(eval).unwrap();
    assert_eq!(run.outcomes[0].status, JobStatus::Cancelled);
    assert_eq!(run.outcomes[0].evaluated_points, 0);
    assert_eq!(run.outcomes[1].status, JobStatus::Completed, "the duplicate is promoted, not starved");
    assert_eq!(run.outcomes[1].evaluated_points, 3);
    assert!(run.outcomes[1].points.iter().all(|r| r.row.is_some()));
}

/// Admission control rejects malformed and over-capacity submissions with
/// typed reasons.
#[test]
fn admission_rejections_are_typed() {
    let mut queue =
        JobQueue::new(QueueConfig { max_jobs: 1, max_points_per_job: 4, ..QueueConfig::default() }).unwrap();
    let err = queue.submit(spec("e", "t", Vec::new())).unwrap_err();
    assert_eq!(err.reason, RejectReason::EmptyGrid);
    let err = queue.submit(spec("g", "t", sim_grid(5, 4))).unwrap_err();
    assert_eq!(err.reason, RejectReason::GridTooLarge { points: 5, max_points: 4 });
    queue.submit(spec("a", "t", sim_grid(2, 4))).unwrap();
    let err = queue.submit(spec("a", "t", sim_grid(2, 4))).unwrap_err();
    assert_eq!(err.reason, RejectReason::DuplicateJobId);
    let err = queue.submit(spec("b", "t", sim_grid(2, 4))).unwrap_err();
    assert_eq!(err.reason, RejectReason::QueueFull { capacity: 1 });
    let as_error: malsim::Error = err.into();
    assert!(as_error.to_string().contains("queue is full"), "{as_error}");
}

/// With one worker the dispatch order is the pure WFQ sequence: a High
/// tenant (weight 16) gets its whole grid through while a Low tenant
/// (weight 1) gets a single point.
#[test]
fn weighted_fair_queueing_interleaves_by_priority() {
    let mut queue =
        JobQueue::new(QueueConfig { pool: PoolConfig::explicit(1), ..QueueConfig::default() }).unwrap();
    let mut fast = spec("fast", "alpha", sim_grid(8, 4));
    fast.priority = Priority::High;
    let mut slow = spec("slow", "zeta", sim_grid(8, 4));
    slow.base_seed = 90;
    slow.priority = Priority::Low;
    queue.submit(fast).unwrap();
    queue.submit(slow).unwrap();
    let order: Mutex<Vec<String>> = Mutex::new(Vec::new());
    queue
        .run(|jp| {
            order.lock().unwrap().push(jp.job_id.to_owned());
            eval(jp)
        })
        .unwrap();
    let order = order.into_inner().unwrap();
    assert_eq!(order.len(), 16);
    let fast_in_first_9 = order.iter().take(9).filter(|id| *id == "fast").count();
    assert_eq!(fast_in_first_9, 8, "all high-priority points dispatch within 9 slots: {order:?}");
}

/// Damaged journal lines (torn tail, tampered transition) are counted and
/// skipped on resume; the affected points simply re-run to the same bytes.
#[test]
fn journal_damage_is_counted_and_survived() {
    let journal = temp("damage");
    let cfg = QueueConfig {
        pool: PoolConfig::explicit(1),
        journal: Some(journal.clone()),
        ..QueueConfig::default()
    };
    let mut queue = JobQueue::new(cfg.clone()).unwrap();
    queue.submit(spec("quill", "tenant-a", sim_grid(3, 8))).unwrap();
    let original = queue.run(eval).unwrap().outcomes.remove(0);

    let mut text = std::fs::read_to_string(&journal).unwrap();
    // Drop the terminal line so the job resumes as in-flight, tamper one
    // record's hash, and tear the tail mid-line.
    let keep: Vec<&str> = text.lines().take(3).collect();
    text = format!("{}\n", keep.join("\n"));
    text = text.replacen("\"acc\":", "\"acc_\":", 1);
    text.push_str("{\"experiment\":\"quill\",\"base_se");
    std::fs::write(&journal, &text).unwrap();

    let mut queue = JobQueue::new(QueueConfig { resume: true, ..cfg }).unwrap();
    queue.submit(spec("quill", "tenant-a", sim_grid(3, 8))).unwrap();
    let resumed = queue.run(eval).unwrap();
    assert_eq!(resumed.skipped_lines, 2, "the tampered record and the torn tail");
    assert_eq!(
        resumed.outcomes[0].report().to_canonical_string(),
        original.report().to_canonical_string(),
        "damage costs re-runs, never bytes"
    );
    std::fs::remove_file(&journal).unwrap();
}

/// Resubmitting a changed job under a journaled id is rejected — resuming
/// would splice unrelated results into its report.
#[test]
fn changed_resubmission_is_rejected_on_resume() {
    let journal = temp("mismatch");
    let cfg = QueueConfig { journal: Some(journal.clone()), ..QueueConfig::default() };
    let mut queue = JobQueue::new(cfg.clone()).unwrap();
    queue.submit(spec("drift", "tenant-a", sim_grid(3, 8))).unwrap();
    queue.run(eval).unwrap();

    let mut queue = JobQueue::new(QueueConfig { resume: true, ..cfg }).unwrap();
    let mut changed = spec("drift", "tenant-a", sim_grid(4, 8));
    changed.base_seed = 99;
    let err = queue.submit(changed).unwrap_err();
    assert!(
        matches!(err.reason, RejectReason::JournalMismatch { .. }),
        "changed grid+seed must not splice: {err}"
    );
    // The unchanged spec is still admitted and resumes cleanly.
    let mut queue =
        JobQueue::new(QueueConfig { resume: true, journal: Some(journal.clone()), ..QueueConfig::default() })
            .unwrap();
    queue.submit(spec("drift", "tenant-a", sim_grid(3, 8))).unwrap();
    let run = queue.run(eval).unwrap();
    assert_eq!(run.outcomes[0].resumed_points, 3);
    assert_eq!(run.outcomes[0].evaluated_points, 0);
    std::fs::remove_file(&journal).unwrap();
}

/// A damaged admission line takes with it the identity a resubmission is
/// checked against, so a changed resubmission cannot be told apart: the
/// job's journaled records are not restored, it re-runs from scratch, and
/// it journals its admission again.
#[test]
fn lost_admission_line_reruns_the_job_instead_of_splicing() {
    let journal = temp("lost-admission");
    let cfg = QueueConfig { journal: Some(journal.clone()), ..QueueConfig::default() };
    let mut queue = JobQueue::new(cfg.clone()).unwrap();
    queue.submit(spec("drift", "tenant-a", sim_grid(3, 8))).unwrap();
    queue.run(eval).unwrap();

    // Flip one byte of the admission line, so its self-hash fails.
    let text = std::fs::read_to_string(&journal).unwrap();
    let tampered: Vec<String> = text
        .lines()
        .map(|l| {
            if l.contains("\"status\":\"admitted\"") {
                l.replacen("tenant-a", "tenant-b", 1)
            } else {
                l.into()
            }
        })
        .collect();
    assert_ne!(tampered.join("\n"), text.trim_end(), "the admission line is journaled");
    std::fs::write(&journal, format!("{}\n", tampered.join("\n"))).unwrap();

    let mut changed = spec("drift", "tenant-a", sim_grid(3, 8));
    changed.base_seed = 99;
    let mut fresh = JobQueue::new(QueueConfig::default()).unwrap();
    fresh.submit(changed.clone()).unwrap();
    let fresh = fresh.run(eval).unwrap().outcomes.remove(0).report().to_canonical_string();

    let resume = QueueConfig { resume: true, ..cfg };
    let mut queue = JobQueue::new(resume.clone()).unwrap();
    queue.submit(changed.clone()).unwrap();
    let run = queue.run(eval).unwrap();
    assert_eq!(run.skipped_lines, 1, "the damaged admission line");
    assert_eq!(run.outcomes[0].resumed_points, 0, "seed 40's records must not be spliced");
    assert_eq!(run.outcomes[0].report().to_canonical_string(), fresh);

    // The re-run journaled its admission again, so the next resume restores
    // every point.
    let mut queue = JobQueue::new(resume).unwrap();
    queue.submit(changed).unwrap();
    let again = queue.run(eval).unwrap();
    assert_eq!(again.outcomes[0].resumed_points, 3);
    assert_eq!(again.outcomes[0].evaluated_points, 0);
    assert_eq!(again.outcomes[0].report().to_canonical_string(), fresh);
    std::fs::remove_file(&journal).unwrap();
}

/// Disk-full mid-journal: once the chaos disk runs out of space the journal
/// quarantines with a typed `StorageFull` fault, but every job still runs to
/// completion and reports the same bytes as a journal-free run.
#[test]
fn disk_full_mid_journal_degrades_storage_but_completes() {
    use malsim::chaosfs::{ChaosFs, FaultSchedule};
    use std::sync::Arc;

    let clean = {
        let mut queue =
            JobQueue::new(QueueConfig { pool: PoolConfig::explicit(2), ..QueueConfig::default() }).unwrap();
        queue.submit(spec("atlas", "tenant-a", sim_grid(4, 8))).unwrap();
        queue.submit(spec("bolt", "tenant-b", sim_grid(3, 8))).unwrap();
        queue.run(eval).unwrap()
    };
    assert!(clean.storage_degraded.is_none());

    // Room for roughly two records, then hard ENOSPC on every append.
    let chaos = ChaosFs::new(FaultSchedule { disk_capacity: Some(500), ..FaultSchedule::quiet(3) });
    let journal = temp("enospc");
    let cfg = QueueConfig {
        pool: PoolConfig::explicit(2),
        journal: Some(journal.clone()),
        storage: Some(Arc::new(chaos.clone())),
        ..QueueConfig::default()
    };
    let mut queue = JobQueue::new(cfg).unwrap();
    queue.submit(spec("atlas", "tenant-a", sim_grid(4, 8))).unwrap();
    queue.submit(spec("bolt", "tenant-b", sim_grid(3, 8))).unwrap();
    let run = queue.run(eval).unwrap();

    let fault = run.storage_degraded.as_ref().expect("ENOSPC must surface as a typed fault");
    assert_eq!(fault.kind, std::io::ErrorKind::StorageFull);
    for (clean, chaos) in clean.outcomes.iter().zip(&run.outcomes) {
        assert_eq!(chaos.points.len(), clean.points.len(), "{}: the grid still completes", chaos.job_id);
        assert_eq!(chaos.storage_degraded.as_ref().map(|f| f.kind), Some(std::io::ErrorKind::StorageFull));
        assert_eq!(
            chaos.report().to_canonical_string(),
            clean.report().to_canonical_string(),
            "{}: storage faults never perturb report bytes",
            chaos.job_id
        );
    }
    assert!(chaos.stats().injected.contains_key("disk_full"), "{:?}", chaos.stats().injected);
    let _ = std::fs::remove_file(&journal);
}

/// Fsync failure mid-journal: the first failed fsync quarantines the writer
/// (fsyncgate semantics — a failed fsync is never retried), the run keeps
/// going without persistence, and a repaired journal resumes what was
/// written. Durable batches followed by a failed fsync are tested on the
/// writer itself, in `checkpoint.rs`.
#[test]
fn fsync_failure_mid_journal_quarantines_then_repair_salvages_the_durable_prefix() {
    use malsim::chaosfs::{ChaosFs, FaultSchedule, StorageOp};
    use std::sync::Arc;

    // Every fsync fails, so the first batch's fsync quarantines the writer.
    let chaos = ChaosFs::new(FaultSchedule { fsync_fail_permille: 1000, ..FaultSchedule::quiet(11) });
    let journal = temp("fsync-fail");
    let cfg = QueueConfig {
        pool: PoolConfig::explicit(1),
        journal: Some(journal.clone()),
        storage: Some(Arc::new(chaos.clone())),
        ..QueueConfig::default()
    };
    let mut queue = JobQueue::new(cfg).unwrap();
    queue.submit(spec("quill", "tenant-a", sim_grid(5, 8))).unwrap();
    let run = queue.run(eval).unwrap();
    let original = run.outcomes[0].report().to_canonical_string();
    let fault = run.storage_degraded.as_ref().expect("a failed fsync must quarantine");
    assert_eq!(run.outcomes[0].status, JobStatus::Completed, "status stays a pure function of records");
    assert_eq!(fault.op, StorageOp::Fsync, "{fault}");
    assert!(fault.to_string().contains("fsync"), "{fault}");
    assert_eq!(
        chaos.stats().injected.get("fsync_fail"),
        Some(&1),
        "one failed fsync quarantines, and it is never retried: {:?}",
        chaos.stats().injected
    );

    // The on-disk journal holds whatever prefix survived; repair compacts it
    // to self-hash-valid lines and the resume re-runs only what was lost.
    let summary = malsim::checkpoint::repair_journal(&journal, &malsim::chaosfs::REAL_FS).unwrap();
    assert_eq!(summary.dropped, summary.lines_seen - summary.kept);
    let mut queue = JobQueue::new(QueueConfig {
        pool: PoolConfig::explicit(1),
        journal: Some(journal.clone()),
        resume: true,
        ..QueueConfig::default()
    })
    .unwrap();
    queue.submit(spec("quill", "tenant-a", sim_grid(5, 8))).unwrap();
    let resumed = queue.run(eval).unwrap();
    assert_eq!(resumed.skipped_lines, 0, "repair leaves only valid lines");
    assert!(resumed.storage_degraded.is_none());
    assert_eq!(
        resumed.outcomes[0].report().to_canonical_string(),
        original,
        "resume over the repaired journal is byte-identical"
    );
    std::fs::remove_file(&journal).unwrap();
}

/// A hostile scenario script run as a job degrades its own points to typed
/// script faults while the benign tenant's job completes untouched.
#[test]
fn hostile_script_job_is_contained() {
    let hostile = vec![
        Json::obj([("kind", "script".into()), ("src", "#! name: census\nreturn host_count()".into())]),
        Json::obj([
            ("kind", "script".into()),
            ("src", "#! name: bomb\n#! fuel: 4000\nwhile true do end".into()),
        ]),
        Json::obj([("kind", "script".into()), ("src", "#! name: detonator\ndetonate(\"ws-0000\")".into())]),
    ];
    let mut queue =
        JobQueue::new(QueueConfig { pool: PoolConfig::explicit(2), ..QueueConfig::default() }).unwrap();
    queue.submit(spec("benign", "tenant-a", sim_grid(3, 8))).unwrap();
    let mut script_job = spec("hostile", "tenant-b", hostile);
    script_job.base_seed = 50;
    queue.submit(script_job).unwrap();
    let run = queue.run(eval).unwrap();
    assert_eq!(run.outcomes[0].status, JobStatus::Completed);
    let hostile = &run.outcomes[1];
    assert_eq!(hostile.status, JobStatus::Degraded);
    assert!(hostile.points[0].row.is_some(), "the benign census point completes");
    assert_eq!(hostile.points[1].script_id.as_deref(), Some("bomb"));
    assert!(hostile.points[1].script_error.as_deref().unwrap().contains("fuel"));
    assert_eq!(hostile.points[2].script_id.as_deref(), Some("detonator"));
    assert!(hostile.points[2].script_error.as_deref().unwrap().contains("capability denied"));
}
