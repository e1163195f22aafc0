//! E13: how the exfiltration pipeline survives a coordinated C&C takedown.
//!
//! Sweeps the fraction of the platform's 22 servers that a
//! [`SinkholeCampaign`](malsim_defense::sinkhole::SinkholeCampaign) seizes
//! (DNS records plus permanent fault-plane windows) and reports direct vs
//! USB-ferried exfiltration volume per week.
//!
//! Usage: `cargo run --release --example takedown_resilience [seed] [clients] [days] [threads] [--profile]`
//!
//! The sweep runs its fractions through the parallel runner; `threads`
//! (default: `MALSIM_THREADS`, else the machine's core count) is a pure
//! throughput knob — output is byte-identical at any value. `--profile`
//! additionally prints the scheduler's min/median/max dispatch roll-up
//! across the grid (host-clock timings; they never change the rows).
//!
//! Supervision flags (any of them switches to the supervised runner, which
//! checkpoints every point and emits a canonical-JSON report):
//! * `--ckpt <path>` — checkpoint file (default `sweep.ckpt`);
//! * `--resume` — restore completed points from the checkpoint and re-run
//!   only missing/poisoned ones; the final report is byte-identical to an
//!   uninterrupted run at any thread count;
//! * `--out <path>` — write the report there instead of stdout;
//! * `--retries <n>` — re-attempts for a panicking point before quarantine;
//! * `--event-budget <n>` — deterministic per-point event cap (points over
//!   it are reported as truncated);
//! * `--watchdog-ms <n>` — host-clock per-point deadline (nondeterministic;
//!   never use where outputs are byte-compared);
//! * `--check-invariants` — run the kernel + world invariant checker inside
//!   every point and record violations in the report;
//! * `--point-sleep-ms <n>` — sleep before each point (only to widen the
//!   kill window in resume drills).

use std::path::PathBuf;

use malsim::checkpoint::CheckpointConfig;
use malsim::experiments::{
    e13_takedown_resilience, e13_takedown_resilience_profiled_t, e13_takedown_resilience_supervised, grids,
};
use malsim::sweep;

fn main() {
    let mut profile = false;
    let mut supervised = false;
    let mut resume = false;
    let mut check_invariants = false;
    let mut ckpt: Option<String> = None;
    let mut out: Option<String> = None;
    let mut supervisor = sweep::SweepSupervisor::default();
    let mut positional: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} takes a value");
            std::process::exit(2);
        })
    };
    let parse = |text: String, flag: &str| -> u64 {
        text.parse().unwrap_or_else(|_| {
            eprintln!("{flag} takes an integer, got {text:?}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => profile = true,
            "--ckpt" => {
                ckpt = Some(value(&mut args, "--ckpt"));
                supervised = true;
            }
            "--out" => {
                out = Some(value(&mut args, "--out"));
                supervised = true;
            }
            "--resume" => {
                resume = true;
                supervised = true;
            }
            "--retries" => {
                supervisor.retries = parse(value(&mut args, "--retries"), "--retries") as u32;
                supervised = true;
            }
            "--event-budget" => {
                supervisor.event_budget = Some(parse(value(&mut args, "--event-budget"), "--event-budget"));
                supervised = true;
            }
            "--watchdog-ms" => {
                supervisor.deadline_ms = Some(parse(value(&mut args, "--watchdog-ms"), "--watchdog-ms"));
                supervised = true;
            }
            "--check-invariants" => {
                check_invariants = true;
                supervised = true;
            }
            "--point-sleep-ms" => {
                supervisor.stagger_ms = parse(value(&mut args, "--point-sleep-ms"), "--point-sleep-ms");
                supervised = true;
            }
            other if !other.starts_with("--") => positional.push(other.to_owned()),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: takedown_resilience [seed] [clients] [days] [threads] [--profile] \
                     [--ckpt <path>] [--resume] [--out <path>] [--retries <n>] [--event-budget <n>] \
                     [--watchdog-ms <n>] [--check-invariants] [--point-sleep-ms <n>]"
                );
                std::process::exit(2);
            }
        }
    }
    let mut positional = positional.into_iter();
    let seed: u64 = positional.next().and_then(|a| a.parse().ok()).unwrap_or(11);
    let clients: usize = positional.next().and_then(|a| a.parse().ok()).unwrap_or(10);
    let days: u64 = positional.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let threads: usize =
        positional.next().and_then(|a| a.parse().ok()).unwrap_or_else(sweep::threads_from_env);

    if supervised {
        let ckpt_path = PathBuf::from(ckpt.unwrap_or_else(|| "sweep.ckpt".to_owned()));
        let cfg = CheckpointConfig {
            pool: sweep::PoolConfig::explicit(threads),
            supervisor,
            path: &ckpt_path,
            resume,
            backend: None,
        };
        let fractions = grids::E13_SINKHOLE_FRACTIONS;
        let outcomes =
            e13_takedown_resilience_supervised(seed, clients, days, fractions, check_invariants, &cfg)
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
        eprintln!(
            "E13 supervised sweep done: {} point(s), {} restored from {}, {} damaged line(s) skipped",
            outcomes.points.len(),
            outcomes.resumed_points,
            ckpt_path.display(),
            outcomes.skipped_lines,
        );
        let text = outcomes.report().to_canonical_string();
        match out {
            Some(path) => {
                std::fs::write(&path, &text).unwrap_or_else(|e| {
                    eprintln!("error: cannot write {path}: {e}");
                    std::process::exit(1);
                });
                eprintln!("wrote report to {path}");
            }
            None => print!("{text}"),
        }
        return;
    }

    println!(
        "E13 — takedown resilience (seed {seed}, {clients} clients, {days} days, {threads} worker thread(s))"
    );
    println!();
    let (rows, profiles) = if profile {
        let (rows, profiles) =
            e13_takedown_resilience_profiled_t(seed, clients, days, grids::E13_SINKHOLE_FRACTIONS, threads);
        (rows, Some(profiles))
    } else {
        (e13_takedown_resilience(seed, clients, days, grids::E13_SINKHOLE_FRACTIONS, threads), None)
    };
    println!("sinkholed  servers  domains  reachable  direct MB/wk  ferried MB/wk  total MB/wk  backlog");
    for r in rows {
        println!(
            "{:>9.2}  {:>7}  {:>7}  {:>9.2}  {:>12.1}  {:>13.1}  {:>11.1}  {:>7}",
            r.sinkhole_fraction,
            r.servers_seized,
            r.domains_seized,
            r.reachable_clients,
            r.direct_bytes_week / 1e6,
            r.ferried_bytes_week / 1e6,
            r.total_bytes_week / 1e6,
            r.stick_backlog,
        );
    }
    println!();
    println!("Direct volume degrades as servers fall; the hidden-USB ferry recovers");
    println!("blocked clients' documents at every fraction below 1.0 (backlog 0).");

    if let Some(profiles) = profiles {
        println!();
        print!("{}", sweep::profile_rollup(&profiles).render());
    }
}
