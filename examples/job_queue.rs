//! Multi-tenant sweep jobs: three tenants share one worker pool.
//!
//! * `atlas` (research, normal priority) sweeps E2 patch rates;
//! * `bolt` (ops, low priority) runs a wider E2 sweep and is cancelled
//!   mid-grid after `--cancel-after` of its points complete;
//! * `crow` (red team, high priority) replays scenario scripts — including
//!   a fuel bomb and a forbidden-capability probe — whose faults degrade
//!   only crow's own points.
//!
//! A fourth submission over the queue's capacity is shed with a typed
//! rejection. With `--journal`, every state transition is journaled, and
//! the lines are fsynced in batches as the run goes, so a killed run
//! resumed with `--resume` reproduces finished jobs' reports
//! byte-identically without re-evaluating their points.
//!
//! Usage: `cargo run --release --example job_queue [seed] [threads]
//!   [--journal <path>] [--resume] [--out-dir <dir>]
//!   [--point-sleep-ms <n>] [--cancel-after <n>] [--metrics-out <dir>]`
//!
//! With `--metrics-out <dir>` (or `MALSIM_METRICS=1`) the telemetry plane is
//! armed; the directory receives `metrics.prom` (Prometheus text exposition),
//! `metrics.json` (full snapshot), `metrics_deterministic.json` (the
//! deterministic section only — byte-identical across runs and thread
//! counts), and `metrics.jsonl` (one deterministic sample per point
//! boundary).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use malsim::experiments::e2_zero_day_ablation;
use malsim::jobs::{JobQueue, JobSpec, Priority, QueueConfig, SeedPolicy};
use malsim::report::Json;
use malsim::scenario::ScenarioBuilder;
use malsim::script_api;
use malsim::sweep::{PointRun, PoolConfig, SweepSupervisor};
use malsim::telemetry;

/// The red-team tenant's script suite: two benign probes bracketing a fuel
/// bomb and a capability violation.
const CROW_SCRIPTS: &[&str] = &[
    "#! name: census\nreturn host_count()",
    "#! name: fuel-bomb\n#! fuel: 4000\nwhile true do end",
    "#! name: detonator\ndetonate(\"ws-0000\")",
    "#! name: scan\n#! grant: fs_scan\nreturn len(scan_files(\".docx\"))",
];

fn patch_grid(rates: &[f64]) -> Vec<Json> {
    rates.iter().map(|&r| Json::obj([("patch_rate", Json::F64(r))])).collect()
}

fn main() {
    let mut journal: Option<PathBuf> = None;
    let mut resume = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut stagger_ms = 0u64;
    let mut cancel_after = 2usize;
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
            "--journal" => journal = Some(PathBuf::from(value(&mut args, "--journal"))),
            "--resume" => resume = true,
            "--out-dir" => out_dir = Some(PathBuf::from(value(&mut args, "--out-dir"))),
            "--point-sleep-ms" => stagger_ms = value(&mut args, "--point-sleep-ms").parse().unwrap_or(0),
            "--cancel-after" => cancel_after = value(&mut args, "--cancel-after").parse().unwrap_or(2),
            "--metrics-out" => metrics_out = Some(PathBuf::from(value(&mut args, "--metrics-out"))),
            other if !other.starts_with("--") => positional.push(other.to_owned()),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: job_queue [seed] [threads] [--journal <path>] [--resume] \
                     [--out-dir <dir>] [--point-sleep-ms <n>] [--cancel-after <n>] \
                     [--metrics-out <dir>]"
                );
                std::process::exit(2);
            }
        }
    }
    let mut positional = positional.into_iter();
    let seed: u64 = positional.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let pool = match positional.next().and_then(|a| a.parse().ok()) {
        Some(n) => PoolConfig::explicit(n),
        None => PoolConfig::from_env(),
    };

    // Arm the telemetry plane before any simulation exists so every kernel
    // instance picks up the hook. `MALSIM_METRICS=1` arms without writing.
    telemetry::arm_if_env();
    if let Some(dir) = &metrics_out {
        telemetry::arm();
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        });
        telemetry::set_jsonl_sink(&dir.join("metrics.jsonl")).unwrap_or_else(|e| {
            eprintln!("error: cannot open metrics.jsonl: {e}");
            std::process::exit(1);
        });
    }

    let pacing = SweepSupervisor { stagger_ms, ..SweepSupervisor::default() };
    let cfg = QueueConfig { pool, max_jobs: 3, journal, resume, ..QueueConfig::default() };
    let mut queue = JobQueue::new(cfg).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    let spec = |job_id: &str, tenant: &str, priority, grid| JobSpec {
        job_id: job_id.to_owned(),
        tenant: tenant.to_owned(),
        experiment: "job-queue-demo",
        base_seed: seed,
        seed_policy: SeedPolicy::Derived,
        priority,
        budget: pacing,
        grid,
    };
    queue
        .submit(spec("atlas", "research", Priority::Normal, patch_grid(&[0.0, 0.25, 0.5, 0.75, 1.0])))
        .expect("atlas fits");
    let bolt = queue
        .submit(spec(
            "bolt",
            "ops",
            Priority::Low,
            patch_grid(&[0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]),
        ))
        .expect("bolt fits");
    let crow_grid = CROW_SCRIPTS
        .iter()
        .map(|src| Json::obj([("kind", "script".into()), ("src", (*src).into())]))
        .collect();
    queue.submit(spec("crow", "red-team", Priority::High, crow_grid)).expect("crow fits");

    // Admission control in action: the queue holds three jobs; the fourth
    // tenant is shed with a typed reason instead of queueing unbounded work.
    match queue.submit(spec("dune", "walk-in", Priority::Normal, patch_grid(&[0.5]))) {
        Ok(_) => unreachable!("the queue capacity is 3"),
        Err(rejected) => eprintln!("load shed: {rejected}"),
    }

    // `bolt` is cancelled from inside the grid once `cancel_after` of its
    // points have completed; everyone else's results are untouched.
    let bolt_done = AtomicUsize::new(0);
    let run = queue
        .run(|jp| {
            let out = match jp.params.get("kind").and_then(Json::as_str) {
                Some("script") => {
                    let src = jp.params.get("src").and_then(Json::as_str).expect("script src");
                    let (mut world, mut sim) = ScenarioBuilder::new(jp.seed()).office_lan(3);
                    script_api::run_source(src, &mut world, &mut sim).map(|r| PointRun::complete(r.row()))
                }
                _ => {
                    let rate = jp.params.get("patch_rate").and_then(Json::as_f64).expect("patch_rate");
                    let rows = e2_zero_day_ablation(jp.seed(), 6, 3, &[rate], 1);
                    Ok(PointRun::complete(rows[0].to_json()))
                }
            };
            if jp.job_id == "bolt" && bolt_done.fetch_add(1, Ordering::SeqCst) + 1 >= cancel_after {
                bolt.token.cancel();
            }
            out
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });

    if run.skipped_lines > 0 {
        eprintln!("journal: skipped {} damaged line(s)", run.skipped_lines);
    }
    println!("job      tenant    priority  status     points  evaluated  cached  resumed");
    for o in &run.outcomes {
        println!(
            "{:<8} {:<9} {:<9} {:<10} {:>6}  {:>9}  {:>6}  {:>7}",
            o.job_id,
            o.tenant,
            o.priority.label(),
            o.status.label(),
            o.points.len(),
            o.evaluated_points,
            o.cached_points,
            o.resumed_points,
        );
    }
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        });
        for o in &run.outcomes {
            let path = dir.join(format!("{}.json", o.job_id));
            std::fs::write(&path, o.report().to_canonical_string()).unwrap_or_else(|e| {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            });
        }
        println!("wrote {} report(s) to {}", run.outcomes.len(), dir.display());
    }
    if let Some(dir) = metrics_out {
        telemetry::clear_jsonl_sink();
        let write = |name: &str, body: String| {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap_or_else(|e| {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            });
        };
        write("metrics.prom", telemetry::render_prometheus());
        write("metrics.json", telemetry::render_snapshot());
        write("metrics_deterministic.json", telemetry::render_deterministic());
        println!("wrote metrics to {}", dir.display());
    }
}
