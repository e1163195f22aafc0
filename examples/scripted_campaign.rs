//! Writing a campaign step as a sandboxed Flua scenario script.
//!
//! Demonstrates the capability-gated script API: a benign script that scans
//! and exfiltrates under its declared grants, a rogue script stopped cold by
//! the capability gate, and a small fallible sweep where hostile scripts
//! degrade their grid points to `ScriptFault` while the rest completes.
//!
//! Run with: `cargo run --example scripted_campaign`

use malsim::prelude::*;
use malsim::script_api;

fn main() {
    let builder = ScenarioBuilder::new(7);

    // --- 1. A well-behaved scenario script under least privilege ---------
    let courier = "\
#! name: courier-sweep
#! grant: fs_scan exfil
#! fuel: 50000
log(\"sweep start\")
let hits = scan_files(\".ini\")
for h in hits do exfil(h) end
return len(hits)";
    let scenario = match builder.script_scenario(courier) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let (mut world, mut sim) = builder.office_lan(5);
    match scenario.run(&mut world, &mut sim) {
        Ok(report) => {
            println!("=== courier-sweep ===");
            println!(
                "returned {:?}, fuel {}, mem {} B, {} effects",
                report.value,
                report.fuel_used,
                report.mem_allocated,
                report.effects.len()
            );
        }
        Err(fault) => println!("unexpected fault: {} ({})", fault.error, fault.script_id),
    }

    // --- 2. A rogue script is stopped by the capability gate -------------
    let rogue = "\
#! name: rogue-wiper
#! grant: fs_scan
detonate(hosts()[0])";
    println!("\n=== rogue-wiper ===");
    match script_api::run_source(rogue, &mut world, &mut sim) {
        Ok(_) => println!("BUG: the wipe should have been denied"),
        Err(fault) => {
            println!("contained: {} (fuel used: {})", fault.error, fault.fuel_used);
            println!("bricked hosts after denial: {}", world.bricked_count());
        }
    }

    // --- 3. Hostile scripts degrade single sweep points, not the sweep ---
    let scripts: Vec<(&str, &str)> = vec![
        ("census", "#! name: census\nreturn host_count()"),
        ("spin", "#! name: spin\n#! fuel: 2000\nwhile true do end"),
        ("bomb", "#! name: bomb\n#! memory: 4096\nlet s = \"x\"\nwhile true do s = s .. s end"),
        ("probe", "#! name: probe\n#! grant: net_dial\nreturn net_dial(\"example.com\")"),
        ("rogue", "#! name: rogue\nexfil(\"c:\\\\secrets\")"),
    ];
    println!("\n=== hostile sweep ===");
    let supervisor = SweepSupervisor::default();
    let run_script = |ctx: &sweep::SweepCtx, (_, src): &(&str, &str)| {
        let (mut world, mut sim) = ScenarioBuilder::new(ctx.derived_seed()).office_lan(3);
        script_api::run_source(src, &mut world, &mut sim).map(|r| PointRun::complete(r.row()))
    };
    let records = sweep::run("scripted", 7, &scripts, 2, |ctx, point| {
        sweep::supervised_point(ctx, &supervisor, point, &run_script)
    });
    for (i, rec) in records.iter().enumerate() {
        if let Some(row) = &rec.row {
            println!("point {i} ({}): completed -> {}", scripts[i].0, row.to_compact_string());
        } else if let (Some(script_id), Some(error), Some(fuel_used)) =
            (&rec.script_id, &rec.script_error, rec.fuel_used)
        {
            println!("point {i} ({script_id}): FAULT after {fuel_used} fuel -> {error}");
        } else if let Some(panic_msg) = &rec.panic_msg {
            println!("point {i}: poisoned -> {panic_msg}");
        }
    }
    let faults = records.iter().filter(|r| r.status == checkpoint::PointStatus::ScriptFault).count();
    println!("{} of {} points faulted; the rest completed.", faults, scripts.len());
}
