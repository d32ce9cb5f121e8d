//! Full-system integration: every project instantiates on every platform,
//! end-to-end traffic flows, and the simulation is bit-for-bit
//! deterministic across runs.

use netfpga_core::board::BoardSpec;
use netfpga_core::time::Time;
use netfpga_datapath::lpm::RouteEntry;
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netfpga_projects::{
    AcceptanceTest, BlueSwitch, OsntTester, ReferenceNic, ReferenceRouter, ReferenceSwitch,
};

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

fn frame(src: u8, dst: u8, len: usize) -> Vec<u8> {
    PacketBuilder::new()
        .eth(mac(src), mac(dst))
        .ipv4(
            Ipv4Address::new(10, 0, 0, src),
            Ipv4Address::new(10, 0, 0, dst),
        )
        .udp(1000, 2000, &[])
        .pad_to(len)
        .build()
}

/// Every project builds and passes a smoke frame on every platform spec.
#[test]
fn all_projects_on_all_platforms() {
    for spec in [
        BoardSpec::sume(),
        BoardSpec::netfpga_10g(),
        BoardSpec::netfpga_1g_cml(),
    ] {
        // Acceptance: loopback.
        let mut a = AcceptanceTest::new(&spec, 4);
        a.chassis.send(0, frame(1, 2, 100));
        a.chassis.run_for(Time::from_us(20));
        assert_eq!(a.chassis.recv(0).len(), 1, "{:?} acceptance", spec.platform);

        // NIC: port -> host.
        let mut nic = ReferenceNic::new(&spec, 4);
        nic.chassis.send(1, frame(1, 2, 100));
        nic.chassis.run_for(Time::from_us(30));
        assert!(
            nic.chassis.dma.clone().unwrap().recv().is_some(),
            "{:?} nic",
            spec.platform
        );

        // Switch: flood.
        let mut sw = ReferenceSwitch::new(&spec, 4, 256, Time::from_ms(10));
        sw.chassis.send(0, frame(1, 2, 100));
        sw.chassis.run_for(Time::from_us(30));
        assert_eq!(sw.chassis.recv(1).len(), 1, "{:?} switch", spec.platform);

        // BlueSwitch: table miss to controller.
        let mut bs = BlueSwitch::new(&spec, 4, 2, 16);
        bs.chassis.send(0, frame(1, 2, 100));
        bs.chassis.run_for(Time::from_us(30));
        assert!(
            bs.chassis.dma.clone().unwrap().recv().is_some(),
            "{:?} blueswitch",
            spec.platform
        );

        // OSNT: self-loop a probe.
        let mut o = OsntTester::new(&spec, 2);
        let (to_board, from_board) = o.chassis.port_wires(0);
        o.chassis.add_link(
            "lo",
            from_board,
            to_board,
            netfpga_phy::LinkConfig::default(),
        );
        o.generators[0].start(netfpga_projects::osnt::GeneratorConfig::probe(
            1,
            netfpga_core::time::BitRate::mbps(500),
            128,
            3,
        ));
        let cap = o.captures[0].clone();
        assert!(
            o.chassis
                .run_while(Time::from_ms(5), move || cap.count() < 3),
            "{:?} osnt",
            spec.platform
        );
    }
}

/// A fully configured router forwards on all platforms.
#[test]
fn router_forwards_on_all_platforms() {
    for spec in [
        BoardSpec::sume(),
        BoardSpec::netfpga_10g(),
        BoardSpec::netfpga_1g_cml(),
    ] {
        let r = ReferenceRouter::new(&spec, 4);
        {
            let mut t = r.tables.borrow_mut();
            t.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
            t.lpm.insert(
                "10.0.0.0/24".parse().unwrap(),
                RouteEntry {
                    next_hop: Ipv4Address::UNSPECIFIED,
                    port: 2,
                },
            );
            t.arp.insert(Ipv4Address::new(10, 0, 0, 7), mac(0x77));
        }
        let mut r = r;
        r.chassis.send(0, frame(1, 7, 200)); // dst 10.0.0.7: routed to port 2
        r.chassis.run_for(Time::from_us(50));
        let out = r.chassis.recv(2);
        assert_eq!(out.len(), 1, "{:?}", spec.platform);
    }
}

/// Identical runs produce identical outputs — the determinism guarantee
/// that makes the unified test environment trustworthy.
#[test]
fn full_scenario_is_deterministic() {
    let run = || {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 256, Time::from_ms(1));
        let mut outputs = Vec::new();
        // A busy interleaved scenario: multiple stations, floods, learning.
        for round in 0..5u8 {
            for port in 0..4u8 {
                sw.chassis.send(
                    port as usize,
                    frame(port + 1, ((port + round) % 4) + 1, 80 + round as usize * 37),
                );
            }
            sw.chassis.run_for(Time::from_us(7));
            for port in 0..4 {
                for f in sw.chassis.recv(port) {
                    outputs.push((port, f));
                }
            }
        }
        sw.chassis.run_for(Time::from_us(50));
        for port in 0..4 {
            for f in sw.chassis.recv(port) {
                outputs.push((port, f));
            }
        }
        let stats = sw.core.borrow().counters().clone();
        (outputs, stats)
    };
    let (out1, stats1) = run();
    let (out2, stats2) = run();
    assert_eq!(out1, out2);
    assert_eq!(stats1, stats2);
    assert!(!out1.is_empty());
}

/// MAC statistics agree with tester-visible frame counts across a load.
#[test]
fn mac_counters_consistent_with_traffic() {
    let mut a = AcceptanceTest::new(&BoardSpec::sume(), 2);
    let n = 50;
    for i in 0..n {
        a.chassis.send(0, frame(1, 2, 60 + (i % 8) as usize * 100));
    }
    a.chassis.run_for(Time::from_ms(1));
    let got = a.chassis.recv(0).len() as u64;
    assert_eq!(got, n);
    let mac = |path: &str| a.chassis.telemetry.get(path).expect("registered");
    assert_eq!(mac("port0.mac.rx.frames"), n);
    assert_eq!(mac("port0.mac.tx.frames"), n);
    assert_eq!(a.counters[0].frames.get(), n);
    // Wire accounting includes 24B overhead per frame.
    assert_eq!(
        mac("port0.mac.tx.wire_bytes"),
        mac("port0.mac.tx.bytes") + 24 * n
    );
}
