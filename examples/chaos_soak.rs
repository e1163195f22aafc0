//! Storage-chaos soak: seeded I/O-fault schedules × power-cut/repair/resume
//! rounds over a multi-tenant job-queue run, emitting a canonical-JSON
//! durability attestation.
//!
//! Per schedule the harness runs the same three-tenant workload three ways:
//!
//! 1. **reference** — healthy disk, no journal: the ground-truth reports;
//! 2. **chaos** — journaled through a seeded `ChaosFs` injecting fsync
//!    failures, short/torn writes, `EINTR`, `ENOSPC`, and transient open
//!    errors (every 7th schedule additionally runs on a near-full disk):
//!    reports must be byte-identical to the reference;
//! 3. **crash** — a power-cut image of the chaos journal (durable prefix
//!    plus a seeded torn tail) is compacted with
//!    `checkpoint::repair_journal` and the queue resumed over it: reports
//!    must again be byte-identical, and no record that was fsynced before
//!    the cut may be lost.
//!
//! The attestation (stdout, and `--out <path>`) aggregates faults injected
//! by kind, transient retries burned, journals quarantined, fsynced records
//! lost (must be 0), and the two byte-identity verdicts; the process exits
//! non-zero on any violation.
//!
//! Usage: `cargo run --release --example chaos_soak [seed] [threads]
//!   [--schedules <n>] [--out <path>]`

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use malsim::chaosfs::{ChaosFs, FaultSchedule, REAL_FS};
use malsim::checkpoint::{self, journal_line_key};
use malsim::jobs::{self, JobBudget, JobQueue, JobSpec, Priority, QueueConfig, QueueRun, SeedPolicy};
use malsim::report::{self, Json};
use malsim::scenario::ScenarioBuilder;
use malsim::script_api;
use malsim::sweep::{PointRun, PoolConfig, ScriptFaultInfo, Truncation};
use malsim::telemetry;
use malsim_kernel::rng::SimRng;
use malsim_kernel::sched::Sim;
use malsim_kernel::time::{SimDuration, SimTime};

/// A cheap deterministic point: a tiny event-driven accumulator simulation
/// seeded from the point, honouring the job's watchdog.
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

/// The shared point function: simulation points plus scenario-script points
/// (the red-team tenant) over a small office LAN.
fn eval(jp: &jobs::JobPoint<'_>) -> Result<PointRun<Json>, ScriptFaultInfo> {
    match jp.params.get("kind").and_then(Json::as_str) {
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

/// The three-tenant workload under test: two simulation sweeps and a
/// red-team script replay, all seeded from the schedule.
fn workload(seed: u64) -> Vec<JobSpec> {
    let spec = |job_id: &str, tenant: &str, base_seed: u64, priority, grid| JobSpec {
        job_id: job_id.to_owned(),
        tenant: tenant.to_owned(),
        experiment: "chaos-soak",
        base_seed,
        seed_policy: SeedPolicy::Derived,
        priority,
        budget: JobBudget::default(),
        grid,
    };
    let scripts = ["#! name: census\nreturn host_count()", "#! name: clock\nreturn now_ms()"]
        .iter()
        .map(|src| Json::obj([("kind", "script".into()), ("src", (*src).into())]))
        .collect();
    vec![
        spec("atlas", "research", seed, Priority::Normal, sim_grid(4, 8)),
        spec("bolt", "ops", seed ^ 0x5bd1_e995, Priority::Low, sim_grid(3, 12)),
        spec("crow", "red-team", seed ^ 0x9e37_79b9, Priority::High, scripts),
    ]
}

/// Runs the workload through one queue configuration and returns the run
/// plus each job's canonical report.
fn run_queue(cfg: QueueConfig, seed: u64) -> (QueueRun, Vec<String>) {
    let mut queue = JobQueue::new(cfg).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    for spec in workload(seed) {
        queue.submit(spec).expect("the soak workload fits the queue");
    }
    let run = queue.run(eval).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let reports = run.outcomes.iter().map(|o| o.report().to_canonical_string()).collect();
    (run, reports)
}

/// Keys of the complete journal lines inside the durable prefix of a crash
/// image: exactly the records an fsync acknowledged before the cut.
fn durable_keys(image: &[u8], durable_len: usize) -> BTreeSet<String> {
    let durable = &image[..durable_len.min(image.len())];
    String::from_utf8_lossy(durable).lines().filter_map(journal_line_key).collect()
}

fn main() -> ExitCode {
    let mut schedules = 25usize;
    let mut out: Option<PathBuf> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} takes a value");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schedules" => schedules = value(&mut args, "--schedules").parse().unwrap_or(25),
            "--out" => out = Some(PathBuf::from(value(&mut args, "--out"))),
            other if !other.starts_with("--") => positional.push(other.to_owned()),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: chaos_soak [seed] [threads] [--schedules <n>] [--out <path>]");
                std::process::exit(2);
            }
        }
    }
    let mut positional = positional.into_iter();
    let base_seed: u64 = positional.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let threads: usize = positional
        .next()
        .and_then(|a| a.parse().ok())
        .or_else(|| std::env::var("MALSIM_THREADS").ok().and_then(|v| v.parse().ok()))
        .unwrap_or(2)
        .max(1);
    let pool = PoolConfig::explicit(threads);

    // Arm the metrics plane so retry/quarantine counters land in the
    // attestation; `reset` isolates this process's counts.
    telemetry::arm();
    telemetry::reset();

    let temp = |tag: &str| -> PathBuf {
        std::env::temp_dir().join(format!("malsim-chaos-soak-{}-{tag}.jnl", std::process::id()))
    };
    let mut faults_by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut chaos_mismatches = 0u64;
    let mut resume_mismatches = 0u64;
    let mut records_lost = 0u64;
    let mut quarantined_runs = 0u64;
    let mut violations: Vec<Json> = Vec::new();
    let violation = |violations: &mut Vec<Json>, msg: String| {
        eprintln!("violation: {msg}");
        violations.push(Json::Str(msg));
    };

    for i in 0..schedules {
        let sched_seed = SimRng::derive_stream_seed(base_seed, "chaos", i as u64);
        let mut schedule = FaultSchedule::mixed(sched_seed);
        if i % 7 == 3 {
            // Every 7th schedule also runs against a nearly-full disk so the
            // ENOSPC quarantine path soaks alongside the transient faults.
            schedule.disk_capacity = Some(2048);
        }

        // Round 1 — reference: healthy disk, no journal.
        let base_cfg = QueueConfig { pool, ..QueueConfig::default() };
        let (_, reference) = run_queue(base_cfg.clone(), sched_seed);

        // Round 2 — chaos, uninterrupted: journaled through the fault plane.
        let chaos = ChaosFs::new(schedule);
        let journal = temp(&format!("s{i}"));
        let _ = std::fs::remove_file(&journal);
        let chaos_cfg = QueueConfig {
            journal: Some(journal.clone()),
            storage: Some(Arc::new(chaos.clone())),
            ..base_cfg.clone()
        };
        let (chaos_run, chaos_reports) = run_queue(chaos_cfg, sched_seed);
        quarantined_runs += u64::from(chaos_run.storage_degraded.is_some());
        for (kind, n) in chaos.stats().injected {
            *faults_by_kind.entry(kind).or_insert(0) += n;
        }
        if chaos_reports != reference {
            chaos_mismatches += 1;
            violation(&mut violations, format!("schedule {i}: chaos run diverged from the reference"));
        }

        // Round 3 — power cut, repair, resume: rebuild the journal as a
        // crash would leave it (durable prefix + seeded torn tail), compact
        // it, and resume on a healthy disk.
        let ops = chaos.ops();
        let cut_op = 1 + SimRng::derive_stream_seed(sched_seed, "cut", i as u64) % ops.max(1);
        let image = chaos.crash_image(&journal, cut_op, true).unwrap_or_default();
        let durable_len = chaos.durable_len_at(&journal, cut_op) as usize;
        let fsynced = durable_keys(&image, durable_len);
        let crashed = temp(&format!("s{i}-crash"));
        std::fs::write(&crashed, &image).expect("writing the crash image");
        if let Err(e) = checkpoint::repair_journal(&crashed, &REAL_FS) {
            violation(&mut violations, format!("schedule {i}: repair failed: {e}"));
        }
        let repaired: BTreeSet<String> = std::fs::read_to_string(&crashed)
            .unwrap_or_default()
            .lines()
            .filter_map(journal_line_key)
            .collect();
        let lost: Vec<&String> = fsynced.difference(&repaired).collect();
        if !lost.is_empty() {
            records_lost += lost.len() as u64;
            violation(
                &mut violations,
                format!("schedule {i}: {} fsynced record(s) lost across repair: {lost:?}", lost.len()),
            );
        }
        let resume_cfg = QueueConfig { journal: Some(crashed.clone()), resume: true, ..base_cfg.clone() };
        let (_, resumed_reports) = run_queue(resume_cfg, sched_seed);
        if resumed_reports != reference {
            resume_mismatches += 1;
            violation(&mut violations, format!("schedule {i}: resumed run diverged from the reference"));
        }
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&crashed);
    }

    // Retry/quarantine totals come from the deterministic metrics section so
    // the attestation and the telemetry plane can never disagree.
    let metrics = report::parse(&telemetry::render_deterministic()).unwrap_or(Json::Null);
    let metric = |name: &str| metrics.get(name).and_then(Json::as_u64).unwrap_or(0);
    let verdict = violations.is_empty();
    let attestation = Json::obj([
        ("schedules", Json::U64(schedules as u64)),
        ("base_seed", Json::U64(base_seed)),
        ("threads", Json::U64(threads as u64)),
        (
            "faults_injected",
            Json::Obj(faults_by_kind.iter().map(|(k, n)| ((*k).to_owned(), Json::U64(*n))).collect()),
        ),
        ("io_retries_burned", Json::U64(metric("malsim_ckpt_io_retries_total"))),
        ("journals_quarantined", Json::U64(quarantined_runs)),
        ("records_lost_fsynced", Json::U64(records_lost)),
        (
            "byte_identity",
            Json::obj([
                ("chaos_mismatches", Json::U64(chaos_mismatches)),
                ("resume_mismatches", Json::U64(resume_mismatches)),
            ]),
        ),
        ("violations", Json::Arr(violations)),
        ("verdict", Json::Str(if verdict { "pass" } else { "fail" }.to_owned())),
    ]);
    let rendered = attestation.to_canonical_string();
    print!("{rendered}");
    if let Some(path) = out {
        std::fs::write(&path, &rendered).unwrap_or_else(|e| {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
    }
    if verdict {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
