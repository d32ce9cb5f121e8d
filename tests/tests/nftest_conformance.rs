//! Project conformance suites written as nftest plans — the "unified
//! tests" of the paper's §3, one suite per reference project, exercising
//! packets and registers through the same declarative interface the real
//! platform's Python harness provides.

use netfpga_core::board::BoardSpec;
use netfpga_core::stream::{Meta, PortMask};
use netfpga_core::time::Time;
use netfpga_nftest::{run, TestPlan};
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netfpga_projects::reference_nic::{ReferenceNic, STATS_BASE};
use netfpga_projects::reference_router::{ReferenceRouter, ROUTER_BASE};
use netfpga_projects::reference_switch::{ReferenceSwitch, LOOKUP_BASE};
use netfpga_projects::ChassisConfig;

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

fn ip(s: &str) -> Ipv4Address {
    s.parse().unwrap()
}

fn eth_frame(src: u8, dst: u8, fill: u8) -> Vec<u8> {
    PacketBuilder::new()
        .eth(mac(src), mac(dst))
        .raw(netfpga_packet::EtherType::Ipv4, &[fill; 46])
        .build()
}

#[test]
fn nic_conformance() {
    let mut nic = ReferenceNic::new(&BoardSpec::sume(), 4);
    let up0 = eth_frame(1, 2, 0xaa);
    let up3 = eth_frame(3, 4, 0xbb);
    let down = eth_frame(5, 6, 0xcc);
    let plan = TestPlan::new("nic_conformance")
        // RX: two ports to host, order preserved per DMA stream.
        .send_phy(0, up0.clone())
        .expect_dma(up0)
        .barrier(Time::from_us(50))
        .send_phy(3, up3.clone())
        .expect_dma(up3)
        .barrier(Time::from_us(50))
        // TX: host to each port.
        .send_dma(
            down.clone(),
            Meta {
                dst_ports: PortMask::single(2),
                ..Default::default()
            },
        )
        .expect_phy(2, down)
        .barrier(Time::from_us(50))
        // Registers: two RX packets counted.
        .reg_expect(STATS_BASE, 2)
        // Write-to-clear.
        .reg_write(STATS_BASE, 0)
        .reg_expect(STATS_BASE, 0);
    run(&plan, &mut nic.chassis).assert_passed();
}

#[test]
fn switch_conformance() {
    let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
    let a_to_b = eth_frame(1, 2, 0x11);
    let b_to_a = eth_frame(2, 1, 0x22);
    let plan = TestPlan::new("switch_conformance")
        // Unknown dst: flood to 1,2,3 (A on port 0).
        .send_phy(0, a_to_b.clone())
        .expect_phy(1, a_to_b.clone())
        .expect_phy(2, a_to_b.clone())
        .expect_phy(3, a_to_b.clone())
        .barrier(Time::from_us(50))
        // B (port 2) answers: unicast straight to port 0.
        .send_phy(2, b_to_a.clone())
        .expect_phy(0, b_to_a)
        .barrier(Time::from_us(50))
        // A to B again: now unicast to port 2 only.
        .send_phy(0, a_to_b.clone())
        .expect_phy(2, a_to_b)
        .barrier(Time::from_us(50))
        // Lookup registers: 2 hits (B->A, A->B#2), 1 flood, 3 learns
        // (learn events: A, B, A-refresh).
        .reg_expect(LOOKUP_BASE, 2)
        .reg_expect(LOOKUP_BASE + 4, 1);
    run(&plan, &mut sw.chassis).assert_passed();
}

#[test]
fn router_conformance_via_registers_only() {
    // Configure the router entirely through its register protocol (as the
    // real CLI does), then verify hardware forwarding with rewrite.
    let mut r = ReferenceRouter::new(&BoardSpec::sume(), 4);
    let b = ROUTER_BASE;
    let m_e1 = mac(0xe1).to_u64();
    let m_b2 = mac(0xb2).to_u64();
    let ingress = PacketBuilder::new()
        .eth(mac(0xa1), mac(0xe0))
        .ipv4(ip("10.0.0.2"), ip("10.0.1.2"))
        .ttl(64)
        .udp(7, 9, b"route me")
        .build();
    // Expected egress: MACs rewritten, TTL 63, checksum updated.
    let expected = {
        let mut f = ingress.clone();
        {
            let mut eth = netfpga_packet::EthernetFrame::new_unchecked(&mut f[..]);
            eth.set_src_addr(mac(0xe1));
            eth.set_dst_addr(mac(0xb2));
            let off = eth.header_len();
            let mut ipp = netfpga_packet::ipv4::Ipv4Packet::new_unchecked(&mut f[off..]);
            ipp.decrement_ttl();
        }
        f
    };
    let plan = TestPlan::new("router_conformance")
        // ADD_ROUTE 10.0.1.0/24 -> direct, port 1.
        .reg_write(b + 4, u32::from_be_bytes([10, 0, 1, 0]))
        .reg_write(b + 8, 24)
        .reg_write(b + 12, 0)
        .reg_write(b + 16, 1)
        .reg_write(b, 1)
        // ADD_ARP 10.0.1.2 -> b2.
        .reg_write(b + 4, u32::from_be_bytes([10, 0, 1, 2]))
        .reg_write(b + 20, (m_b2 >> 32) as u32)
        .reg_write(b + 24, m_b2 as u32)
        .reg_write(b, 3)
        // SET_PORT_MAC 1 -> e1.
        .reg_write(b + 16, 1)
        .reg_write(b + 20, (m_e1 >> 32) as u32)
        .reg_write(b + 24, m_e1 as u32)
        .reg_write(b, 6)
        // Table sizes readable.
        .reg_expect(b + 19 * 4, 1)
        .reg_expect(b + 20 * 4, 1)
        // Hardware path with full rewrite verification.
        .send_phy(0, ingress)
        .expect_phy(1, expected)
        .barrier(Time::from_us(50))
        .reg_expect(b + 16 * 4, 1);
    run(&plan, &mut r.chassis).assert_passed();
}

#[test]
fn router_exception_to_dma() {
    let mut r = ReferenceRouter::new(&BoardSpec::sume(), 4);
    // No tables: an IPv4 frame has no route; expect it on the DMA path.
    let f = PacketBuilder::new()
        .eth(mac(0xa1), mac(0xe0))
        .ipv4(ip("10.0.0.2"), ip("10.0.1.2"))
        .udp(7, 9, b"exception")
        .build();
    let plan = TestPlan::new("router_exception")
        .send_phy(0, f.clone())
        .expect_dma(f)
        .barrier(Time::from_us(80));
    run(&plan, &mut r.chassis).assert_passed();
}

/// Flow-monitoring conformance: the switch with the tap spliced in still
/// forwards identically, and the plan asserts per-flow packet counts and
/// queue-depth quantiles purely through `expect_flow`/`expect_quantile` —
/// MMIO table walks and name-resolved gauges, no back-door state access.
#[test]
fn flowmon_conformance() {
    use netfpga_projects::flowmon::{FiveTuple, FlowmonConfig};
    let mut sw = ReferenceSwitch::build(
        &ChassisConfig::new(&BoardSpec::sume(), 4),
        1024,
        Time::from_ms(100),
        Some(FlowmonConfig::default()),
    );
    let udp = |sport: u16, npad: u8| {
        PacketBuilder::new()
            .eth(mac(1), mac(2))
            .ipv4(ip("192.168.0.1"), ip("192.168.0.2"))
            .udp(sport, 53, &vec![0x5a; usize::from(npad)])
            .build()
    };
    let tuple = |sport: u16| FiveTuple {
        src_ip: u32::from_be_bytes([192, 168, 0, 1]),
        dst_ip: u32::from_be_bytes([192, 168, 0, 2]),
        src_port: sport,
        dst_port: 53,
        proto: 17,
    };
    let mut plan = TestPlan::new("flowmon_conformance");
    // Elephant flow: 4 packets on sport 1000; mouse: 1 packet on 2000.
    for _ in 0..4 {
        plan = plan.send_phy(0, udp(1000, 64));
        for port in 1..4 {
            plan = plan.expect_phy(port, udp(1000, 64));
        }
    }
    plan = plan.send_phy(0, udp(2000, 32));
    for port in 1..4 {
        plan = plan.expect_phy(port, udp(2000, 32));
    }
    let plan = plan
        .barrier(Time::from_us(80))
        .expect_flow(tuple(1000), 4, 4)
        .expect_flow(tuple(2000), 1, 1)
        .expect_flow(tuple(3000), 0, 0)
        .expect_stat("flowmon.packets", 5, 5)
        .expect_stat("flowmon.flows", 2, 2)
        .expect_stat("flowmon.non_ip", 0, 0)
        // Queues drained by the end of the run: p50 and max are bounded
        // by the small burst we offered.
        .expect_quantile("port1.q0.depth", 50, 0, 8)
        .expect_quantile("port1.q0.depth", 100, 0, 16);
    let report = run(&plan, &mut sw.chassis);
    report.assert_passed();
    assert_eq!(report.checks, 15 + 8);
}

/// Reliability conformance: host TX rides the reliable channel across a
/// DMA wedge. The plan wedges the engine, awaits the watchdog bite (and
/// the quiesce–drain–soft-reset it drives), then asserts every accepted
/// frame exited its port and the delivered-ack count reads exactly the
/// accepted count — retries filled the gaps, the sequence dedup filter
/// swallowed the extras.
#[test]
fn reliability_conformance() {
    use netfpga_faults::{FaultPlan, RecoveryPolicy};
    use netfpga_host::{ReliableChannel, ReliableConfig};
    let fault_plan = FaultPlan::new(21).with_recovery(RecoveryPolicy::default());
    let mut nic = ReferenceNic::build(&ChassisConfig {
        faults: fault_plan,
        ..ChassisConfig::new(&BoardSpec::sume(), 4)
    });
    let dma = nic.chassis.dma.clone().expect("NIC has DMA");
    let (driver, channel) = ReliableChannel::new("reliable", dma, ReliableConfig::default(), 7);
    let clk = nic.chassis.clk;
    nic.chassis.sim.add_module(clk, driver);

    let frames: Vec<Vec<u8>> = (0u8..6).map(|k| eth_frame(10 + k, 20, 0x60 + k)).collect();
    for f in &frames {
        assert!(channel.send(
            f.clone(),
            Meta {
                dst_ports: PortMask::single(1),
                ..Default::default()
            },
        ));
    }

    let mut plan = TestPlan::new("reliability_conformance")
        .wedge_dma()
        .run_for(Time::from_us(5)) // the driver posts into the wedged engine
        .await_watchdog(20_000);
    for f in &frames {
        plan = plan.expect_phy_unordered(1, f.clone());
    }
    let plan = plan.barrier(Time::from_ms(1)).expect_exactly_once(6);
    run(&plan, &mut nic.chassis).assert_passed();
    assert!(channel.idle());
}

/// One plan, two designs: the same flood test runs unchanged against two
/// different switch instances (different table sizes) — the "unified test"
/// property itself.
#[test]
fn same_plan_multiple_targets() {
    let f = eth_frame(1, 9, 0x44);
    let plan = TestPlan::new("portable_flood")
        .send_phy(0, f.clone())
        .expect_phy(1, f.clone())
        .expect_phy(2, f.clone())
        .expect_phy(3, f)
        .barrier(Time::from_us(50));
    let mut small = ReferenceSwitch::new(&BoardSpec::sume(), 4, 64, Time::from_ms(1));
    run(&plan, &mut small.chassis).assert_passed();
    let mut big = ReferenceSwitch::new(&BoardSpec::netfpga_10g(), 4, 4096, Time::from_ms(100));
    run(&plan, &mut big.chassis).assert_passed();
}
