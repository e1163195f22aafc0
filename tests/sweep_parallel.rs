//! Integration: the parallel sweep runner's determinism contract — every
//! experiment's canonical JSON is byte-identical at thread counts 1, 2,
//! and 8.
//!
//! This is what licenses the golden suite (and CI) to run sweeps at
//! whatever parallelism the machine offers: the thread count is a pure
//! throughput knob, never a result knob.

use malsim::prelude::*;

#[test]
fn every_experiment_is_byte_identical_at_1_2_and_8_threads() {
    for spec in experiments::golden_specs() {
        let serial = spec.run(1).to_canonical_string();
        for threads in [2, 8] {
            let parallel = spec.run(threads).to_canonical_string();
            assert_eq!(serial, parallel, "{} diverged between 1 and {threads} threads", spec.name);
        }
    }
}

#[test]
fn oversubscribed_and_single_point_sweeps_hold_the_contract() {
    // More workers than points, and a one-point grid: both must match serial.
    let serial = experiments::e13_takedown_resilience(11, 6, 3, &[0.5], 1);
    assert_eq!(serial, experiments::e13_takedown_resilience(11, 6, 3, &[0.5], 64));
    let grid = experiments::grids::E2_PATCH_RATES;
    assert_eq!(
        experiments::e2_zero_day_ablation(7, 20, 3, grid, 1),
        experiments::e2_zero_day_ablation(7, 20, 3, grid, 64),
    );
}
