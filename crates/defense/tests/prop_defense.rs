//! Property tests for the defensive layer: AV signature exactness,
//! behaviour-budget accounting, and forensic score bounds.

use malsim_defense::av::{Antivirus, ScanVerdict};
use malsim_defense::forensics::{analyze_host, Indicator};
use malsim_kernel::time::SimTime;
use malsim_os::fs::FileData;
use malsim_os::host::{Host, HostRole, WindowsVersion};
use malsim_os::path::WinPath;
use malsim_pe::builder::ImageBuilder;
use malsim_pe::image::Machine;
use proptest::prelude::*;

proptest! {
    #[test]
    fn signatures_match_exactly_their_image(
        name_a in "[a-z]{3,10}\\.exe",
        name_b in "[a-z]{3,10}\\.exe",
        body_a in proptest::collection::vec(any::<u8>(), 1..100),
        body_b in proptest::collection::vec(any::<u8>(), 1..100),
    ) {
        let img_a = ImageBuilder::new(&name_a, Machine::X86)
            .section(".text", malsim_pe::image::SectionKind::Code, body_a.clone())
            .build();
        let img_b = ImageBuilder::new(&name_b, Machine::X86)
            .section(".text", malsim_pe::image::SectionKind::Code, body_b.clone())
            .build();
        let mut av = Antivirus::new(10.0);
        av.add_signature("sig-a", img_a.content_hash());
        let a_matches = matches!(av.scan_image(&img_a), ScanVerdict::SignatureMatch { .. });
        prop_assert!(a_matches);
        if img_a != img_b {
            let b_matches = matches!(av.scan_image(&img_b), ScanVerdict::SignatureMatch { .. });
            prop_assert!(!b_matches);
        }
    }

    #[test]
    fn behaviour_alerts_match_budget_arithmetic(
        budget in 1.0f64..50.0,
        actions in proptest::collection::vec(0.1f64..10.0, 0..100),
    ) {
        let mut av = Antivirus::new(budget);
        let mut alerts = 0u32;
        let mut meter = 0.0f64;
        for a in &actions {
            let fired = av.observe_behaviour("proc.exe", *a);
            meter += a;
            if meter > budget {
                prop_assert!(fired, "expected alert at meter {} budget {}", meter, budget);
                meter = 0.0;
                alerts += 1;
            } else {
                prop_assert!(!fired);
            }
        }
        prop_assert_eq!(av.behavioural_alerts(), alerts);
    }

    #[test]
    fn forensic_score_counts_present_indicators(
        present_files in proptest::collection::btree_set("[a-z]{3,8}\\.dll", 0..6),
        absent_files in proptest::collection::btree_set("[A-Z]{3,8}\\.sys", 0..6),
    ) {
        let mut host = Host::new("h", WindowsVersion::Seven, HostRole::Workstation, SimTime::EPOCH);
        let mut indicators = Vec::new();
        for f in &present_files {
            let p = WinPath::new(format!(r"C:\mal\{f}"));
            host.fs.write(&p, FileData::Bytes(vec![1].into()), SimTime::EPOCH).unwrap();
            indicators.push(Indicator::File(p));
        }
        for f in &absent_files {
            indicators.push(Indicator::File(WinPath::new(format!(r"C:\mal\{f}"))));
        }
        let report = analyze_host(&host, &indicators);
        let total = present_files.len() + absent_files.len();
        if total == 0 {
            prop_assert_eq!(report.recovery_score(), 1.0);
        } else {
            let expected = present_files.len() as f64 / total as f64;
            prop_assert!((report.recovery_score() - expected).abs() < 1e-12);
        }
        prop_assert_eq!(report.recovered().count(), present_files.len());
    }
}
