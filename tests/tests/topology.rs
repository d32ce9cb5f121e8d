//! Topology tests: the chassis's port wires spliced back into other ports
//! create real multi-hop paths through a single design — including the
//! classic misconfiguration, a routing loop, which the TTL mechanism must
//! contain.

use netfpga_core::board::BoardSpec;
use netfpga_core::time::Time;
use netfpga_datapath::lpm::RouteEntry;
use netfpga_datapath::ParsedHeaders;
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netfpga_phy::LinkConfig;
use netfpga_projects::reference_router::exception;
use netfpga_projects::ReferenceRouter;

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

fn ip(s: &str) -> Ipv4Address {
    s.parse().unwrap()
}

/// Wire port 2's output into port 3's input and vice versa, and install
/// routes that bounce 10.7.0.0/16 between them: a hardware routing loop.
/// A packet entering with TTL = N must traverse exactly N-1 hops and then
/// surface on the CPU path as TTL_EXPIRED — the loop is contained, the
/// datapath never wedges, and every traversal decrements TTL with a valid
/// checksum.
#[test]
fn routing_loop_contained_by_ttl() {
    let r = ReferenceRouter::new(&BoardSpec::sume(), 4);
    {
        let mut t = r.tables.borrow_mut();
        t.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
        t.lpm.insert(
            "10.7.0.0/16".parse().unwrap(),
            RouteEntry {
                next_hop: ip("10.7.255.1"),
                port: 2,
            },
        );
        // The "next hop" is reachable via... the other looped port, so the
        // packet comes straight back in.
        t.arp.insert(ip("10.7.255.1"), mac(0xe3));
    }
    let mut r = r;
    // Splice: port 2 out -> port 3 in, port 3 out -> port 2 in.
    let (to2, from2) = r.chassis.port_wires(2);
    let (to3, from3) = r.chassis.port_wires(3);
    r.chassis
        .add_link("loop_a", from2, to3, LinkConfig::default());
    r.chassis
        .add_link("loop_b", from3, to2, LinkConfig::default());

    let ttl0 = 9u8;
    let pkt = PacketBuilder::new()
        .eth(mac(0xa1), mac(0xe0))
        .ipv4(ip("10.0.0.2"), ip("10.7.1.1"))
        .ttl(ttl0)
        .udp(1, 2, b"looping")
        .build();
    r.chassis.send(0, pkt);
    r.chassis.run_for(Time::from_ms(1));

    let dma = r.chassis.dma.clone().unwrap();
    let (dead, meta) = dma.recv().expect("loop must end at the CPU");
    assert_eq!(meta.flags, exception::TTL_EXPIRED);
    let h = ParsedHeaders::parse(&dead);
    let ip4 = h.ipv4.unwrap();
    assert_eq!(ip4.ttl, 1, "expired exactly at TTL 1");
    assert!(ip4.checksum_ok, "checksum valid after every loop hop");
    // Forward count: one per successful traversal = ttl0 - 1.
    assert_eq!(r.counters.forwarded.get(), u64::from(ttl0) - 1);
    assert!(dma.recv().is_none(), "exactly one copy reaches the CPU");
}

/// The L2 counterpart: splicing two ports of the *switch* together builds
/// the classic loop, and a single broadcast — with no TTL at layer 2 —
/// circulates and re-floods indefinitely: a broadcast storm. The test
/// bounds it in time and verifies the storm really multiplies (which is
/// why loop-free configuration work like BlueSwitch exists).
#[test]
fn l2_broadcast_storm_in_a_loop() {
    use netfpga_projects::ReferenceSwitch;
    let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 256, Time::from_ms(100));
    let (_to2, from2) = sw.chassis.port_wires(2);
    let (to3, _from3) = sw.chassis.port_wires(3);
    let (to2b, _) = sw.chassis.port_wires(2);
    let (_, from3b) = sw.chassis.port_wires(3);
    sw.chassis
        .add_link("loop_a", from2, to3, LinkConfig::default());
    sw.chassis
        .add_link("loop_b", from3b, to2b, LinkConfig::default());

    let bcast = PacketBuilder::new()
        .eth(mac(1), EthernetAddress::BROADCAST)
        .raw(netfpga_packet::EtherType::Arp, &[0; 46])
        .build();
    sw.chassis.send(0, bcast);
    sw.chassis.run_for(Time::from_us(200));
    // Each pass through the loop re-floods out ports 0 and 1: far more
    // copies than the single injected frame.
    let copies = sw.chassis.recv(1).len();
    assert!(copies > 5, "broadcast storm multiplied to {copies} copies");
    // The simulation stays healthy: stop feeding the loop by resetting.
    sw.chassis.sim.reset();
}

/// A lossy splice on a looped pair: packets with TTL = 2 forward exactly
/// once, cross the lossy wire, and the survivors expire at the CPU. The
/// CPU count matches the wire's survival probability; nothing is
/// duplicated and nothing wedges.
#[test]
fn lossy_splice_conserves_packets() {
    let r = ReferenceRouter::new(&BoardSpec::sume(), 4);
    {
        let mut t = r.tables.borrow_mut();
        t.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
        t.lpm.insert(
            "10.9.0.0/16".parse().unwrap(),
            RouteEntry {
                next_hop: ip("10.2.0.1"),
                port: 2,
            },
        );
        t.arp.insert(ip("10.2.0.1"), mac(0xe3));
    }
    let mut r = r;
    let (_to2, from2) = r.chassis.port_wires(2);
    let (to3, _from3) = r.chassis.port_wires(3);
    r.chassis.add_link(
        "lossy_splice",
        from2,
        to3,
        LinkConfig {
            loss_probability: 0.4,
            seed: 3,
            ..LinkConfig::default()
        },
    );
    let n = 200u64;
    for i in 0..n {
        let pkt = PacketBuilder::new()
            .eth(mac(0xa1), mac(0xe0))
            .ipv4(ip("10.0.0.2"), ip("10.9.1.7"))
            .ttl(2)
            .udp(i as u16, 6, b"x")
            .build();
        r.chassis.send(0, pkt);
    }
    r.chassis.run_for(Time::from_ms(2));
    let dma = r.chassis.dma.clone().unwrap();
    let mut expired = 0u64;
    while let Some((_, meta)) = dma.recv() {
        assert_eq!(meta.flags, exception::TTL_EXPIRED);
        expired += 1;
    }
    let rate = expired as f64 / n as f64;
    assert!((rate - 0.6).abs() < 0.1, "survival rate {rate}");
    assert_eq!(r.counters.forwarded.get(), n, "each packet forwarded once");
}
