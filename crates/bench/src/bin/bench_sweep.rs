//! Sweep throughput baseline: end-to-end events/sec on four representative
//! experiments (E1 Stuxnet site, E9 Shamoon fleet wipe at the test scale and
//! at the paper's ~30,000-workstation Aramco scale, E13 takedown resilience),
//! emitted as one canonical-JSON document. The repo commits the result as
//! `BENCH_sweep.json` at the root so speedups and regressions form a
//! PR-over-PR trajectory rather than an anecdote; CI re-measures every push
//! and `--compare`s against the committed file.
//!
//! Usage: `cargo run --release -p malsim-bench --bin bench_sweep --
//!   [--iters <n>] [--out <path>] [--compare <path>] [--threshold <ratio>]`
//!
//! Event counts, per-category dispatch counts and calendar-queue counters are
//! deterministic per seed: `--compare` exits non-zero when any of them differs
//! from the committed file, since that means behaviour changed. Only the
//! wall-clock figures vary between machines and runs, so a throughput drop
//! below `--threshold` of the baseline prints a warning and never fails.

use std::time::Instant;

use malsim::experiments::{
    e13_takedown_resilience_profiled_t, e1_stuxnet_end_to_end_run, e9_shamoon_wipe_run,
};
use malsim::report::{self, Json};
use malsim::telemetry;

/// Times `iters` runs of one experiment; `run()` returns the number of
/// kernel events the run dispatched.
fn sample(iters: u64, run: impl Fn() -> u64) -> (u64, f64) {
    let mut events = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        events += run();
    }
    (events / iters, start.elapsed().as_secs_f64() * 1e3 / iters as f64)
}

/// The rows of a bench document.
fn rows(doc: &Json) -> &[Json] {
    match doc.get("rows") {
        Some(Json::Arr(rows)) => rows,
        _ => &[],
    }
}

fn experiment(row: &Json) -> &str {
    row.get("experiment").and_then(Json::as_str).unwrap_or("?")
}

/// The columns of a row that depend only on the code and the seed.
fn deterministic(row: &Json) -> Json {
    let column = |name: &str| row.get(name).cloned().unwrap_or(Json::Null);
    Json::obj([("events", column("events")), ("telemetry", column("telemetry"))])
}

/// Diffs the fresh measurement against a committed baseline. Returns the
/// deterministic drift, one line per differing column (or per row present
/// on one side only). Throughput only warns: it prints one line per
/// experiment and a GitHub-annotation-style `::warning::` when it dropped
/// below `threshold` of the baseline, which was measured on other hardware.
fn compare(current: &Json, baseline: &Json, threshold: f64) -> Vec<String> {
    let mut drift = Vec::new();
    for row in rows(current) {
        let name = experiment(row);
        let Some(base) = rows(baseline).iter().find(|b| experiment(b) == name) else {
            drift.push(format!("{name}: no baseline row"));
            continue;
        };
        drift.extend(
            report::diff(&deterministic(base), &deterministic(row))
                .into_iter()
                .map(|d| format!("{name}: {d}")),
        );
        let eps = |r: &Json| r.get("events_per_sec").and_then(Json::as_f64).unwrap_or(0.0);
        let (now_eps, base_eps) = (eps(row), eps(base));
        if base_eps > 0.0 {
            let ratio = now_eps / base_eps;
            eprintln!("{name}: {now_eps:.0} ev/s vs baseline {base_eps:.0} ({ratio:.2}x)");
            if ratio < threshold {
                eprintln!(
                    "::warning::{name} throughput {now_eps:.0} ev/s is below \
                     {threshold:.2}x of the committed baseline {base_eps:.0} ev/s"
                );
            }
        }
    }
    for base in rows(baseline) {
        let name = experiment(base);
        if !rows(current).iter().any(|r| experiment(r) == name) {
            drift.push(format!("{name}: baseline row missing from this run"));
        }
    }
    drift
}

fn main() {
    let mut iters = 3u64;
    let mut out: Option<String> = None;
    let mut compare_path: Option<String> = None;
    let mut threshold = 0.5f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => {
                iters = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--iters takes an integer");
                    std::process::exit(2);
                })
            }
            "--out" => out = args.next(),
            "--compare" => compare_path = args.next(),
            "--threshold" => {
                threshold = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threshold takes a ratio like 0.5");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_sweep [--iters <n>] [--out <path>] [--compare <path>] [--threshold <ratio>]"
                );
                std::process::exit(2);
            }
        }
    }

    type Case = (&'static str, Box<dyn Fn() -> u64>);
    let cases: Vec<Case> = vec![
        ("e1_stuxnet_site", Box::new(|| e1_stuxnet_end_to_end_run(42, 10, false).sim.executed())),
        ("e9_shamoon_fleet", Box::new(|| e9_shamoon_wipe_run(815, 4, 24, 2).sim.executed())),
        // The paper's headline Shamoon figure: ~30,000 wiped workstations.
        // 30 zones x 1000 hosts with three seeded zones reproduces that scale
        // end to end; this is the row the calendar-queue rewrite is judged on.
        ("e9_shamoon_aramco", Box::new(|| e9_shamoon_wipe_run(815, 30, 1000, 3).sim.executed())),
        (
            "e13_takedown_grid",
            Box::new(|| {
                let (_, profiles) =
                    e13_takedown_resilience_profiled_t(11, 6, 3, &[0.0, 0.25, 0.5, 0.75, 1.0], 1);
                profiles.iter().map(|p| p.total_events).sum()
            }),
        ),
    ];
    // Time every case first with telemetry unarmed, so the wall-clock figures
    // measure the one-branch idle path the acceptance bar is set against.
    let timed: Vec<(Case, u64, f64)> = cases
        .into_iter()
        .map(|(experiment, run)| {
            let (events, wall_ms) = sample(iters, &run);
            eprintln!("{experiment}: {events} events in {wall_ms:.1} ms/iter");
            ((experiment, run), events, wall_ms)
        })
        .collect();
    // Then arm the registry and replay each case once, untimed, to attach its
    // deterministic structural counters (dispatches by category, calendar
    // queue resizes/reaps) to the row. Arming is process-wide and one-way,
    // which is why it happens only after all timing is done.
    telemetry::arm();
    let rows: Vec<Json> = timed
        .into_iter()
        .map(|((experiment, run), events, wall_ms)| {
            telemetry::reset();
            run();
            let det = telemetry::deterministic_json();
            let counter = |name: &str| det.get(name).cloned().unwrap_or(Json::U64(0));
            Json::obj([
                ("experiment", experiment.into()),
                ("events", Json::U64(events)),
                ("wall_ms", Json::F64(wall_ms)),
                ("events_per_sec", Json::F64((events as f64 / wall_ms * 1e3).round())),
                (
                    "telemetry",
                    Json::obj([
                        ("dispatches", counter("malsim_sched_dispatches_total")),
                        ("calq_resizes", counter("malsim_calq_resizes_total")),
                        ("calq_tombstone_reaps", counter("malsim_calq_tombstone_reaps_total")),
                        ("calq_cursor_pullbacks", counter("malsim_calq_cursor_pullbacks_total")),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Json::obj([("bench", "sweep".into()), ("iters", Json::U64(iters)), ("rows", Json::Arr(rows))]);
    let text = doc.to_canonical_string();
    let mut drift = Vec::new();
    if let Some(path) = compare_path {
        match std::fs::read_to_string(&path).map_err(|e| e.to_string()).and_then(|t| report::parse(&t)) {
            Ok(baseline) => drift = compare(&doc, &baseline, threshold),
            Err(e) => drift.push(format!("cannot read baseline {path}: {e}")),
        }
    }
    match out {
        Some(path) => {
            std::fs::write(&path, &text).unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    if !drift.is_empty() {
        for line in &drift {
            eprintln!("::error::{line}");
        }
        eprintln!("deterministic columns differ from the baseline: behaviour changed, not just speed");
        std::process::exit(1);
    }
}
