//! Property tests for the network substrate: topology invariants, DNS
//! takedown semantics, and proxy resolution.

use malsim_net::prelude::*;
use malsim_os::host::HostId;
use proptest::prelude::*;

proptest! {
    #[test]
    fn placement_partitions_hosts(
        moves in proptest::collection::vec((0usize..50, 0usize..5), 1..200)
    ) {
        let mut topo = Topology::new();
        let zones: Vec<ZoneId> = (0..5).map(|i| topo.add_zone(format!("z{i}"), i % 2 == 0)).collect();
        for (host, zone) in &moves {
            topo.place(HostId::new(*host), zones[*zone]);
        }
        // Every placed host appears in exactly one zone's list.
        let mut seen = std::collections::BTreeMap::new();
        for (zid, zone) in topo.zones() {
            for h in zone.hosts() {
                prop_assert!(seen.insert(*h, zid).is_none(), "host {h} in two zones");
            }
        }
        // zone_of agrees with the lists.
        for (h, zid) in &seen {
            prop_assert_eq!(topo.zone_of(*h), Some(*zid));
        }
        prop_assert_eq!(topo.host_count(), seen.len());
        // Ids never placed have no zone, including ids past the highest one
        // placed, where the placement table ends.
        let highest = moves.iter().map(|(host, _)| *host).max().unwrap_or(0);
        for id in (0..=highest + 8).chain([u32::MAX as usize]) {
            if !moves.iter().any(|(host, _)| *host == id) {
                prop_assert_eq!(topo.zone_of(HostId::new(id)), None, "host {} was never placed", id);
            }
        }
    }

    #[test]
    fn peers_are_symmetric_and_exclude_self(
        placements in proptest::collection::vec((0usize..30, 0usize..3), 1..60)
    ) {
        let mut topo = Topology::new();
        let zones: Vec<ZoneId> = (0..3).map(|i| topo.add_zone(format!("z{i}"), true)).collect();
        for (host, zone) in &placements {
            topo.place(HostId::new(*host), zones[*zone]);
        }
        for (h, _) in placements.iter() {
            let h = HostId::new(*h);
            let peers = topo.peers_of(h);
            prop_assert!(!peers.contains(&h));
            for p in &peers {
                prop_assert!(topo.peers_of(*p).contains(&h), "asymmetric peers");
                prop_assert!(topo.same_zone(h, *p));
            }
        }
    }

    #[test]
    fn dns_takedown_exactly_silences_taken_domains(
        n in 1usize..60,
        down in proptest::collection::btree_set(0usize..60, 0..30),
    ) {
        let mut dns = Dns::new();
        for i in 0..n {
            dns.register(
                Domain::new(format!("d{i}.example")),
                Ipv4::new(10, 0, (i / 256) as u8, (i % 256) as u8),
                Registrant { name: "x".into(), country: "DE".into(), registrar: "r".into() },
            );
        }
        for i in &down {
            dns.take_down(&Domain::new(format!("d{i}.example")));
        }
        for i in 0..n {
            let resolved = dns.resolve(&Domain::new(format!("d{i}.example")));
            prop_assert_eq!(resolved.is_none(), down.contains(&i), "domain {}", i);
        }
        let expected_live = n - down.iter().filter(|i| **i < n).count();
        prop_assert_eq!(dns.live_ips().len(), expected_live);
    }

    #[test]
    fn proxy_resolution_requires_all_three_conditions(
        claimant_placed in any::<bool>(),
        client_wpad in any::<bool>(),
        same_zone in any::<bool>(),
    ) {
        let mut topo = Topology::new();
        let z1 = topo.add_zone("a", true);
        let z2 = topo.add_zone("b", true);
        let claimant = HostId::new(0);
        let client = HostId::new(1);
        topo.place(client, z1);
        if claimant_placed {
            topo.place(claimant, if same_zone { z1 } else { z2 });
            topo.claim_wpad(claimant);
        }
        let proxy = topo.effective_proxy(client, client_wpad);
        let expected = claimant_placed && client_wpad && same_zone;
        prop_assert_eq!(proxy.is_some(), expected);
    }

    #[test]
    fn http_request_line_contains_all_parts(
        host in "[a-z]{1,10}\\.[a-z]{2,4}",
        path in "/[a-z]{0,10}",
        kvs in proptest::collection::btree_map("[a-z]{1,6}", "[a-z0-9]{1,6}", 0..4),
    ) {
        let mut req = HttpRequest::get(Domain::new(&host), path.clone());
        for (k, v) in &kvs {
            req = req.with_query(k.clone(), v.clone());
        }
        let line = req.request_line();
        prop_assert!(line.contains(&host));
        prop_assert!(line.contains(&path));
        for (k, v) in &kvs {
            let pair = format!("{k}={v}");
            prop_assert!(line.contains(&pair));
        }
        prop_assert!(req.wire_size() >= line.len());
    }
}
