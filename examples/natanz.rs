//! The Figure-1 scenario: Stuxnet's three-level chain against a Natanz-like
//! site — USB into the contractor office, courier into the air-gapped plant,
//! Step 7 library swap, PLC implant, and centrifuge destruction with the
//! operator and safety system seeing nothing.
//!
//! Run with: `cargo run --example natanz`
//!
//! Options:
//! * `--trace-out <path>` — write the run as a Chrome trace-event JSON file
//!   (load it at `ui.perfetto.dev`); byte-identical across runs and thread
//!   counts for the same seed.
//! * `--jsonl-out <path>` — write the span/event stream as JSONL.
//! * `--profile` — print the scheduler's dispatch-profiling summary.
//! * `--check-invariants` — run the kernel + world invariant checker after
//!   every dispatched event and report what it saw (exit 1 on violations).
//!
//! Setting `MALSIM_METRICS=1` arms the process-wide telemetry plane; every
//! output above stays byte-identical (telemetry only observes).

use malsim::prelude::*;

/// Exits with a Display-rendered message instead of a raw `Debug` panic.
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

fn main() {
    let mut trace_out: Option<String> = None;
    let mut jsonl_out: Option<String> = None;
    let mut profile = false;
    let mut check_invariants = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => {
                trace_out = Some(args.next().unwrap_or_else(|| fail("--trace-out takes a path")))
            }
            "--jsonl-out" => {
                jsonl_out = Some(args.next().unwrap_or_else(|| fail("--jsonl-out takes a path")))
            }
            "--profile" => profile = true,
            "--check-invariants" => check_invariants = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: natanz [--trace-out <path>] [--jsonl-out <path>] [--profile] \
                     [--check-invariants]"
                );
                std::process::exit(2);
            }
        }
    }

    // `MALSIM_METRICS=1` arms the telemetry plane; the trace and report
    // outputs must stay byte-identical either way (telemetry only observes).
    telemetry::arm_if_env();

    let seed = 2010;
    let days = 30;
    println!("running the end-to-end Stuxnet chain (seed {seed}, {days} simulated days)...\n");
    let (run, violations) = experiments::e1_stuxnet_end_to_end_checked(seed, days, profile, check_invariants);
    let experiments::E1Run { result: r, world: _, mut sim } = run;

    let mut table = Table::new(vec!["quantity".into(), "value".into()]);
    table.row(vec!["infected hosts (office + station)".into(), r.infected_hosts.to_string()]);
    table.row(vec!["plc implanted".into(), r.plc_implanted.to_string()]);
    table.row(vec!["centrifuges destroyed".into(), format!("{}/{}", r.destroyed, r.total_centrifuges)]);
    table.row(vec!["digital safety system tripped".into(), r.safety_tripped.to_string()]);
    table.row(vec!["abnormal frames shown to operator".into(), r.operator_anomalies.to_string()]);
    table.row(vec![
        "days to first destruction".into(),
        r.days_to_first_destruction.map_or("n/a".into(), |d| format!("{d:.2}")),
    ]);
    print!("{table}");

    println!("\npaper claims reproduced:");
    println!("- the payload armed only on the Profibus + targeted-vendor configuration;");
    println!("- the 1410/2/1064 Hz cycling destroyed the cascade;");
    println!("- record/replay telemetry kept the operator view and the digital");
    println!("  safety system reading normal values throughout.");

    // The causal view: every destruction span walked back to its root
    // infection via parent links.
    let chains = causal_chains(&sim.spans);
    if !chains.is_empty() {
        println!("\ncausal chains (leaf <= ... <= root infection):");
        print!("{chains}");
    }

    if let Some(path) = &trace_out {
        let doc = export::chrome_trace(&sim.trace, &sim.spans);
        if let Err(e) = export::validate_chrome_trace(&doc) {
            fail(format!("exporter produced a schema-invalid document: {e}"));
        }
        if let Err(e) = std::fs::write(path, doc.to_canonical_string()) {
            fail(format!("cannot write {path}: {e}"));
        }
        println!("\nwrote Perfetto-loadable trace to {path}");
    }
    if let Some(path) = &jsonl_out {
        if let Err(e) = std::fs::write(path, export::jsonl(&sim.trace, &sim.spans)) {
            fail(format!("cannot write {path}: {e}"));
        }
        println!("wrote JSONL feed to {path}");
    }
    if profile {
        if let Some(summary) = sim.finish_profile() {
            println!("\nscheduler profile:");
            print!("{}", summary.render());
        }
    }
    if check_invariants {
        if violations.is_empty() {
            println!("\ninvariant checker: every dispatched event satisfied all laws.");
        } else {
            eprintln!("\ninvariant checker found {} violation(s):", violations.len());
            for v in &violations {
                eprintln!("- {v}");
            }
            std::process::exit(1);
        }
    }

    // The targeting control: the same infection against a wrong-vendor plant.
    println!("\ntargeting discipline (E3):");
    let mut t = Table::new(vec!["plc configuration".into(), "payload armed".into(), "destroyed".into()]);
    for row in experiments::e3_plc_targeting(seed, 10, sweep::threads_from_env()) {
        t.row(vec![row.configuration, row.armed.to_string(), row.destroyed.to_string()]);
    }
    print!("{t}");
}
