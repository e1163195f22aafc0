//! The Section-V comparison: run all three campaigns in one world and print
//! the derived trend matrix plus per-campaign timelines.
//!
//! Run with: `cargo run --example campaign_compare`

use malsim::prelude::*;

fn main() {
    let seed = 5;
    println!("deriving the Section-V trend matrix from a combined run (seed {seed})...\n");
    let profiles = experiments::e10_trend_matrix(seed);
    print!("{}", trend_table(&profiles));

    println!("\nreading the matrix against the paper's six trends:");
    for p in &profiles {
        println!(
            "- {}: {} infections, {} zero-day-style vectors, targeted={}, \
             certified={}, {} module updates, usb={}, {} suicides → sophistication {:.1}/10",
            p.family,
            p.infections,
            p.zero_day_vectors,
            p.targeted,
            p.certified,
            p.modular_updates,
            p.usb_vector,
            p.suicides,
            p.sophistication
        );
    }

    println!("\nstealth/detection ablation (E11): aggressive spreading trips behavioural AV");
    let mut t = Table::new(vec!["actions/round".into(), "infected".into(), "behavioural alerts".into()]);
    for row in experiments::e11_stealth_tradeoff(seed, 20, &[1.0, 4.0, 12.0], sweep::threads_from_env()) {
        t.row(vec![format!("{:.0}", row.aggressiveness), row.infected.to_string(), row.alerts.to_string()]);
    }
    print!("{t}");

    println!("\nanti-forensics (E12): recovery score before vs after SUICIDE");
    let mut t = Table::new(vec!["scenario".into(), "recovery score".into(), "c2 log lines".into()]);
    for row in experiments::e12_suicide_forensics(seed, 8, sweep::threads_from_env()) {
        t.row(vec![
            row.scenario,
            format!("{:.2}", row.recovery_score),
            row.server_logs_remaining.to_string(),
        ]);
    }
    print!("{t}");
}
