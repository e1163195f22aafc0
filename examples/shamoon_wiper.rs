//! The Shamoon campaign at enterprise scale: share-based spread through a
//! multi-site fleet, the hard-coded 2012-08-15 08:08 UTC trigger, the wipe,
//! and the reporter tallies.
//!
//! Run with: `cargo run --release --example shamoon_wiper [zones] [hosts_per_zone]`
//! Default scale is 30 zones x 99 hosts (~3k). The Aramco-scale run the
//! paper reports (~30k workstations) is
//! `cargo run --release --example shamoon_wiper 300 99`.

use malsim::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let zones: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(30);
    let hosts_per_zone: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(99);
    let seeded = (zones / 2).max(1);

    println!(
        "shamoon campaign: {zones} sites x {} hosts (fleet {}), seeding {seeded} sites\n",
        hosts_per_zone,
        zones * (hosts_per_zone + 1),
    );
    let r = experiments::e9_shamoon_wipe_run(815, zones, hosts_per_zone, seeded).result;

    let mut t = Table::new(vec!["quantity".into(), "value".into()]);
    t.row(vec!["fleet size".into(), r.fleet.to_string()]);
    t.row(vec!["infected before trigger".into(), r.infected.to_string()]);
    t.row(vec!["hosts bricked at 08:08 UTC".into(), r.bricked.to_string()]);
    t.row(vec!["wipe reports phoned home".into(), r.reports.to_string()]);
    t.row(vec!["hours from seeding to trigger".into(), format!("{:.1}", r.hours_to_trigger)]);
    print!("{t}");

    println!("\npaper claims reproduced:");
    println!("- infection spreads quietly over open shares until the hard-coded date;");
    println!("- at the trigger, files under download/document/picture folders are");
    println!("  overwritten by a truncated image fragment (the coding-mistake model),");
    println!("  then the signed third-party driver lets user-mode code destroy the MBR;");
    println!("- every wiped host phones its tally home in a plain HTTP GET.");
    println!(
        "\nbricked fraction: {:.1}% of the fleet (the paper reports ~30,000 \
         workstations destroyed at Saudi Aramco)",
        100.0 * r.bricked as f64 / r.fleet as f64
    );
}
