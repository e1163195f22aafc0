//! Integration: the experiment harness produces paper-shaped results at
//! small scale — who wins, monotonic directions, and crossovers, not exact
//! magnitudes.

use malsim::prelude::*;

#[test]
fn e2_infection_falls_as_patch_rate_rises() {
    let rows = experiments::e2_zero_day_ablation(11, 40, 5, &[0.0, 0.5, 1.0], sweep::threads_from_env());
    assert_eq!(rows.len(), 3);
    assert!(rows[0].infected_fraction > 0.9, "unpatched LAN saturates: {rows:?}");
    assert!(rows[0].infected_fraction >= rows[1].infected_fraction, "more patches, fewer infections");
    assert!(rows[2].infected_fraction <= 0.05, "fully patched fleet resists: {rows:?}");
}

#[test]
fn e3_targeting_discipline_holds() {
    let rows = experiments::e3_plc_targeting(11, 10, sweep::threads_from_env());
    let targeted = rows.iter().find(|r| r.configuration.contains("targeted")).unwrap();
    let wrong = rows.iter().find(|r| r.configuration.contains("wrong")).unwrap();
    assert!(targeted.armed && targeted.destroyed > 0);
    assert!(!wrong.armed && wrong.destroyed == 0);
}

#[test]
fn e4_mitm_is_the_difference_maker() {
    let rows = experiments::e4_wpad_mitm(11, &[8], 72, sweep::threads_from_env());
    let without = rows.iter().find(|r| !r.mitm_active).unwrap();
    let with = rows.iter().find(|r| r.mitm_active).unwrap();
    assert!(without.infected_fraction <= 0.2, "seed only: {without:?}");
    assert!(with.infected_fraction >= 0.9, "mitm saturates the lan: {with:?}");
}

#[test]
fn e5_policy_matrix_matches_the_figure_3_story() {
    let rows = experiments::e5_cert_forgery(11);
    let by_policy = |needle: &str| rows.iter().find(|r| r.policy.contains(needle)).unwrap().accepted;
    assert!(by_policy("legacy"), "pre-advisory legacy verifier accepts the forgery");
    assert!(!by_policy("strict verifier"), "strict policy rejects");
    assert!(!by_policy("post-advisory"), "distrust kills it");
    assert!(by_policy("genuine"), "real updates still install");
}

#[test]
fn e6_domain_fanout_beats_single_domain_under_takedown() {
    let rows = experiments::e6_candc_resilience(11, 30, &[0.0, 0.5, 0.9, 1.0], sweep::threads_from_env());
    assert!((rows[0].reachable_many - 1.0).abs() < 1e-9);
    // At 50% takedown the many-domain platform stays near-fully reachable.
    assert!(rows[1].reachable_many > 0.9, "{rows:?}");
    // At 100% it finally dies.
    assert!(rows[3].reachable_many < 1e-9);
    // The strawman is all-or-nothing per run; at 1.0 it is always dead.
    assert_eq!(rows[3].reachable_single, 0.0);
}

#[test]
fn e7_dataflow_runs_and_cleans_up() {
    let r = experiments::e7_candc_dataflow(11, 10, 4, 7);
    assert!(r.bytes_uploaded > 0);
    assert!(r.attack_center_bytes > 0);
    assert!(r.entries_retrieved > 0);
    assert_eq!(r.entries_residual, 0, "30-minute cleanup leaves servers empty");
    assert!(r.bytes_per_server_week > 0.0);
}

#[test]
fn e8_triage_uploads_less_but_keeps_the_juice() {
    let rows = experiments::e8_exfil_ablation(11, 5, 4, sweep::threads_from_env());
    let triage = rows.iter().find(|r| r.strategy.contains("triage")).unwrap();
    let greedy = rows.iter().find(|r| r.strategy.contains("everything")).unwrap();
    assert!(triage.bytes_uploaded < greedy.bytes_uploaded, "triage moves fewer bytes: {rows:?}");
    assert!(triage.juicy_bytes > 0, "but still gets the juicy documents");
    assert_eq!(triage.juicy_bytes, greedy.juicy_bytes, "no juicy content lost to triage");
}

#[test]
fn e9_small_scale_shamoon_shape() {
    let r = experiments::e9_shamoon_wipe_run(11, 4, 24, 2).result;
    assert_eq!(r.fleet, 4 * 25);
    // Seeded zones saturate; unseeded zones are untouched (zone isolation).
    assert_eq!(r.infected, 2 * 25);
    assert_eq!(r.bricked, r.infected);
    assert_eq!(r.reports, r.infected);
    assert!(r.hours_to_trigger > 24.0);
}

/// E9 at the paper's scale, ~30,000 workstations: the run the `aramco`
/// benchmark workload times, with its event count and result row pinned.
#[test]
fn e9_at_aramco_scale_wipes_every_seeded_site() {
    let run = experiments::e9_shamoon_wipe_run(815, 30, 1000, 3);
    assert_eq!(run.sim.executed(), 303_306);
    assert_eq!(
        run.result.to_json().to_canonical_string(),
        "{\n  \"fleet\": 30030,\n  \"infected\": 3003,\n  \"bricked\": 3003,\n  \"reports\": 3003,\n  \
         \"hours_to_trigger\": 50.13333333333333\n}\n"
    );
    assert_eq!(run.sim.metrics.counter("shamoon.hosts_bricked"), run.result.bricked as u64);
}

#[test]
fn e10_trend_matrix_has_paper_shape() {
    let profiles = experiments::e10_trend_matrix(11);
    assert_eq!(profiles.len(), 3);
    let stux = profiles.iter().find(|p| p.family == Family::Stuxnet).unwrap();
    let flame_p = profiles.iter().find(|p| p.family == Family::Flame).unwrap();
    let shamoon_p = profiles.iter().find(|p| p.family == Family::Shamoon).unwrap();
    assert!(stux.certified && flame_p.certified && shamoon_p.certified, "all three abuse certificates");
    assert!(flame_p.modular_updates > 0, "flame updates modules in the field");
    assert!(stux.sophistication > shamoon_p.sophistication, "the paper's amateur assessment");
    assert!(flame_p.sophistication > shamoon_p.sophistication);
}

#[test]
fn e11_aggressiveness_buys_detection() {
    let rows = experiments::e11_stealth_tradeoff(11, 15, &[1.0, 12.0], sweep::threads_from_env());
    let quiet = &rows[0];
    let loud = &rows[1];
    assert_eq!(quiet.alerts, 0, "stealthy activity stays under the budget");
    assert!(loud.alerts > 0, "aggressive activity trips behavioural AV");
}

#[test]
fn e12_suicide_defeats_forensics() {
    let rows = experiments::e12_suicide_forensics(11, 6, sweep::threads_from_env());
    let before = rows.iter().find(|r| r.scenario.contains("before")).unwrap();
    let after = rows.iter().find(|r| r.scenario.contains("after")).unwrap();
    assert!(before.recovery_score > 0.9);
    assert!(after.recovery_score < 0.1);
    assert!(after.server_logs_remaining < before.server_logs_remaining);
}

#[test]
fn e13_ferry_recovers_documents_until_full_takedown() {
    let rows =
        experiments::e13_takedown_resilience(11, 10, 7, &[0.0, 0.5, 0.9, 1.0], sweep::threads_from_env());
    assert_eq!(rows.len(), 4);
    // The direct path degrades monotonically as servers fall.
    for pair in rows.windows(2) {
        assert!(
            pair[1].direct_bytes_week <= pair[0].direct_bytes_week,
            "direct exfiltration must not grow as the sinkhole widens"
        );
    }
    let (full, half, deep, total) = (&rows[0], &rows[1], &rows[2], &rows[3]);
    // No takedown: everything flows directly, the stick carries nothing.
    assert!((full.reachable_clients - 1.0).abs() < f64::EPSILON);
    assert_eq!(full.ferried_bytes_week, 0.0);
    assert_eq!(full.stick_backlog, 0);
    // Half the servers gone: the 80-domain fan-out absorbs it (Fig. 4).
    assert!((half.reachable_clients - 1.0).abs() < f64::EPSILON);
    assert!(half.direct_bytes_week > 0.9 * full.direct_bytes_week);
    // Deep takedown: some clients lose every path, but the USB
    // store-and-forward ferry recovers their documents — nothing strands.
    assert!(deep.reachable_clients < 1.0 && deep.reachable_clients > 0.0);
    assert!(deep.ferried_bytes_week > 0.0, "blocked documents travel by stick");
    assert_eq!(deep.stick_backlog, 0, "full document recovery below 100% takedown");
    assert!(deep.total_bytes_week > 0.8 * full.total_bytes_week, "graceful degradation");
    // Full takedown: nothing flows; documents strand in the hidden database.
    assert_eq!(total.reachable_clients, 0.0);
    assert_eq!(total.direct_bytes_week, 0.0);
    assert_eq!(total.ferried_bytes_week, 0.0);
    assert!(total.stick_backlog > 0, "documents strand on the stick");
}
