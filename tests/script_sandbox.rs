//! Script-sandbox integration tests: hostile scenario scripts degrade their
//! grid points to typed `ScriptFault`s while the rest of the sweep
//! completes, faulted checkpoints resume byte-identically, and a seeded
//! fuzz sweep throws hostile scripts at the full world-facing sandbox with
//! the invariant checker armed — zero panics, every outcome typed.

use std::path::PathBuf;

use malsim::checkpoint::{run_checkpointed, CheckpointConfig, PointStatus};
use malsim::scenario::ScenarioBuilder;
use malsim::script_api;
use malsim::sweep::SweepSupervisor;
use malsim::sweep::{self, PointOutcome, PointRun};
use malsim_script::fuzz::hostile_script;

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("malsim-sbx-{tag}-{}.ckpt", std::process::id()))
}

/// The hostile suite: one representative per attack family, interleaved
/// with benign points so containment (not just detection) is visible.
const HOSTILE_SUITE: &[(&str, &str)] = &[
    ("benign-census", "#! name: benign-census\nreturn host_count()"),
    ("infinite-loop", "#! name: infinite-loop\n#! fuel: 5000\nwhile true do end"),
    ("benign-scan", "#! name: benign-scan\n#! grant: fs_scan\nreturn len(scan_files(\".ini\"))"),
    ("memory-bomb", "#! name: memory-bomb\n#! memory: 8192\nlet s = \"xx\"\nwhile true do s = s .. s end"),
    ("deep-nesting", "#! name: deep-nesting\nreturn ((((((((1))))))))"),
    ("forbidden-cap", "#! name: forbidden-cap\ndetonate(\"ws-0000\")"),
    ("host-error", "#! name: forced-host-error\n#! grant: fs_scan\nscan_files(42)"),
    ("compile-fault", "#! name: compile-fault\nlet = = ="),
];

fn run_suite_point(
    seed: u64,
    source: &str,
) -> Result<PointRun<malsim::report::Json>, sweep::ScriptFaultInfo> {
    let (mut world, mut sim) = ScenarioBuilder::new(seed).office_lan(3);
    script_api::run_source(source, &mut world, &mut sim).map(|r| PointRun::complete(r.row()))
}

#[test]
fn hostile_suite_faults_are_typed_and_the_grid_completes() {
    let supervisor = SweepSupervisor::default();
    let outcomes = sweep::run_supervised(
        "sandbox",
        5,
        HOSTILE_SUITE,
        sweep::PoolConfig::explicit(2),
        &supervisor,
        |ctx, (_, src)| run_suite_point(ctx.derived_seed(), src),
    );
    assert_eq!(outcomes.len(), HOSTILE_SUITE.len(), "every point reaches a terminal outcome");

    let mut faulted = Vec::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            PointOutcome::Completed { .. } => {}
            PointOutcome::ScriptFault { script_id, error, .. } => {
                assert!(error.starts_with("script: "), "typed, display-routed: {error}");
                faulted.push((script_id.as_str(), error.clone()));
            }
            PointOutcome::Poisoned { panic_msg, .. } => {
                panic!("point {i} escaped the sandbox as a panic: {panic_msg}")
            }
        }
    }
    let ids: Vec<&str> = faulted.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        ids,
        ["infinite-loop", "memory-bomb", "forbidden-cap", "forced-host-error", "compile-fault"],
        "exactly the hostile points faulted, in grid order"
    );
    let error_of = |id: &str| &faulted.iter().find(|(i, _)| *i == id).unwrap().1;
    assert!(error_of("infinite-loop").contains("fuel"));
    assert!(error_of("memory-bomb").contains("memory budget"));
    assert!(error_of("forbidden-cap").contains("capability denied"));
    assert!(error_of("compile-fault").contains("compile error"));
}

#[test]
fn checkpointed_hostile_sweep_resumes_byte_identically() {
    let full_path = temp("hostile-full");
    let cfg = CheckpointConfig {
        experiment: "sandbox-ckpt",
        base_seed: 5,
        pool: sweep::PoolConfig::explicit(2),
        supervisor: SweepSupervisor::default(),
        path: &full_path,
        resume: false,
        backend: None,
    };
    let full =
        run_checkpointed(&cfg, HOSTILE_SUITE, |ctx, (_, src)| run_suite_point(ctx.derived_seed(), src))
            .unwrap();
    let full_report = full.report().to_canonical_string();
    let faults = full.points.iter().filter(|p| p.record.status == PointStatus::ScriptFault).count();
    assert_eq!(faults, 5, "the five hostile points fault");

    // Kill after each possible prefix; every resume must converge to the
    // same bytes, whether or not the kept prefix contains fault records.
    let full_text = std::fs::read_to_string(&full_path).unwrap();
    for keep in [1, 3, 5, 7] {
        let partial = temp(&format!("hostile-k{keep}"));
        let lines: Vec<&str> = full_text.lines().take(keep).collect();
        std::fs::write(&partial, format!("{}\n", lines.join("\n"))).unwrap();
        let resumed = run_checkpointed(
            &CheckpointConfig { path: &partial, resume: true, ..cfg },
            HOSTILE_SUITE,
            |ctx, (_, src)| run_suite_point(ctx.derived_seed(), src),
        )
        .unwrap();
        assert_eq!(
            resumed.report().to_canonical_string(),
            full_report,
            "byte-identical resume after keeping {keep} lines"
        );
        std::fs::remove_file(&partial).unwrap();
    }
    std::fs::remove_file(&full_path).unwrap();
}

/// The scenario-space fuzzer: seeded hostile scripts against the real
/// world-facing sandbox (gated host, full grants, tight budgets), invariant
/// checker armed. Every outcome must be a value or a typed fault — a panic
/// or abort here is a sandbox escape. 2000 seeds in release CI; kept to 400
/// under `cfg(debug_assertions)` so local `cargo test` stays quick.
#[test]
fn fuzzed_hostile_scripts_never_escape_the_sandbox() {
    let seeds: u64 = if cfg!(debug_assertions) { 400 } else { 2000 };
    let mut faults = 0u64;
    let mut completions = 0u64;
    for seed in 0..seeds {
        // Full grants + tight budgets: the fuzzer probes resource and parser
        // attacks, not the capability gate (the suite above covers that).
        let source = format!(
            "#! name: fuzz-{seed}\n#! grant: net_dial fs_scan usb_write exfil detonate audio bluetooth recon\n#! fuel: 20000\n#! memory: 131072\n{}",
            hostile_script(seed)
        );
        let (mut world, mut sim) = ScenarioBuilder::new(seed).check_invariants().office_lan(2);
        match script_api::run_source(&source, &mut world, &mut sim) {
            Ok(_) => completions += 1,
            Err(fault) => {
                assert_eq!(fault.script_id, format!("fuzz-{seed}"));
                assert!(fault.error.starts_with("script: "), "typed fault: {}", fault.error);
                faults += 1;
            }
        }
    }
    assert_eq!(faults + completions, seeds);
    assert!(faults > 0, "the generator produces scripts that trip the limits");
    assert!(completions > 0, "the generator also produces scripts that complete");
}
