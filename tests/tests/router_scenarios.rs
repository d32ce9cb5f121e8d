//! Router end-to-end scenarios spanning hardware datapath, PCIe models and
//! the management application: the scenarios a user of the real reference
//! router exercises on day one.

use netfpga_core::board::BoardSpec;
use netfpga_core::time::Time;
use netfpga_datapath::ParsedHeaders;
use netfpga_host::{Interface, RouterManager};
use netfpga_packet::icmpv4::{Icmpv4Packet, Icmpv4Repr, Message};
use netfpga_packet::ipv4::Ipv4Packet;
use netfpga_packet::{EthernetAddress, EthernetFrame, Ipv4Address, PacketBuilder};
use netfpga_projects::reference_router::ROUTER_BASE;
use netfpga_projects::ReferenceRouter;

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

fn ip(s: &str) -> Ipv4Address {
    s.parse().unwrap()
}

fn setup() -> (ReferenceRouter, RouterManager) {
    let mut r = ReferenceRouter::new(&BoardSpec::sume(), 4);
    let interfaces = vec![
        Interface {
            port: 0,
            mac: mac(0xe0),
            ip: ip("10.0.0.1"),
            subnet: "10.0.0.0/24".parse().unwrap(),
        },
        Interface {
            port: 1,
            mac: mac(0xe1),
            ip: ip("10.0.1.1"),
            subnet: "10.0.1.0/24".parse().unwrap(),
        },
        Interface {
            port: 2,
            mac: mac(0xe2),
            ip: ip("10.0.2.1"),
            subnet: "10.0.2.0/24".parse().unwrap(),
        },
    ];
    let mut mgr = RouterManager::new(interfaces, r.cpu_port);
    mgr.configure(&mut r);
    (r, mgr)
}

/// The day-one scenario: host A arps for its gateway, pings it, then sends
/// data through it to host B, which requires the router to ARP for B.
#[test]
fn host_to_host_through_router() {
    let (mut r, mut mgr) = setup();
    let host_a = (mac(0xa1), ip("10.0.0.2"));
    let host_b = (mac(0xb1), ip("10.0.1.2"));

    // 1. A resolves the gateway.
    r.chassis.send(
        0,
        PacketBuilder::arp_request(host_a.0, host_a.1, ip("10.0.0.1")),
    );
    mgr.run(&mut r, Time::from_us(50), Time::from_us(10));
    let replies = r.chassis.recv(0);
    assert_eq!(replies.len(), 1);
    let arp = ParsedHeaders::parse(&replies[0]).arp.unwrap();
    assert_eq!(arp.sender_mac, mac(0xe0));

    // 2. A pings the gateway.
    let ping = PacketBuilder::new()
        .eth(host_a.0, mac(0xe0))
        .ipv4(host_a.1, ip("10.0.0.1"))
        .icmp(
            Icmpv4Repr {
                message: Message::EchoRequest { ident: 1, seq: 1 },
            },
            b"abc",
        )
        .build();
    r.chassis.send(0, ping);
    mgr.run(&mut r, Time::from_us(50), Time::from_us(10));
    let replies = r.chassis.recv(0);
    assert_eq!(replies.len(), 1);
    let eth = EthernetFrame::new_checked(&replies[0][..]).unwrap();
    let ipp = Ipv4Packet::new_checked(eth.payload()).unwrap();
    let icmp = Icmpv4Packet::new_checked(ipp.payload()).unwrap();
    assert_eq!(icmp.icmp_type(), 0, "echo reply");
    assert_eq!(icmp.payload(), b"abc");

    // 3. A sends data to B; the router ARPs for B, B answers, data flows.
    let data = PacketBuilder::new()
        .eth(host_a.0, mac(0xe0))
        .ipv4(host_a.1, host_b.1)
        .udp(5000, 6000, b"through the router")
        .build();
    r.chassis.send(0, data);
    mgr.run(&mut r, Time::from_us(80), Time::from_us(10));
    let out1 = r.chassis.recv(1);
    assert_eq!(out1.len(), 1, "router's ARP request for B");
    let reply = PacketBuilder::arp_reply_to(&out1[0], host_b.0, host_b.1).unwrap();
    r.chassis.send(1, reply);
    mgr.run(&mut r, Time::from_us(80), Time::from_us(10));
    let out1 = r.chassis.recv(1);
    assert_eq!(out1.len(), 1, "data released to B");
    let h = ParsedHeaders::parse(&out1[0]);
    assert_eq!(h.eth_dst, host_b.0);
    assert_eq!(h.ipv4.unwrap().dst, host_b.1);

    // 4. Subsequent packets take the hardware fast path.
    let before = r.counters.forwarded.get();
    for _ in 0..10 {
        let data = PacketBuilder::new()
            .eth(host_a.0, mac(0xe0))
            .ipv4(host_a.1, host_b.1)
            .udp(5000, 6000, b"fast path")
            .build();
        r.chassis.send(0, data);
    }
    mgr.run(&mut r, Time::from_us(80), Time::from_us(20));
    assert_eq!(r.chassis.recv(1).len(), 10);
    assert_eq!(r.counters.forwarded.get() - before, 10);
    assert_eq!(
        mgr.counters().slow_path_forwards.get(),
        1,
        "only the first was slow"
    );
}

/// A traceroute-style TTL sweep: TTL=1 elicits time-exceeded, higher TTLs
/// are forwarded with TTL-1.
#[test]
fn ttl_sweep() {
    let (mut r, mut mgr) = setup();
    r.tables.borrow_mut().arp.insert(ip("10.0.1.9"), mac(0xb9));
    for ttl in 1..=4u8 {
        let probe = PacketBuilder::new()
            .eth(mac(0xa1), mac(0xe0))
            .ipv4(ip("10.0.0.2"), ip("10.0.1.9"))
            .ttl(ttl)
            .udp(33434, 33434 + u16::from(ttl), b"trace")
            .build();
        r.chassis.send(0, probe);
    }
    mgr.run(&mut r, Time::from_us(100), Time::from_us(10));
    // TTL=1: ICMP back on port 0. TTL>=2: forwarded out port 1.
    let back = r.chassis.recv(0);
    assert_eq!(back.len(), 1);
    let h = ParsedHeaders::parse(&back[0]);
    assert_eq!(u8::from(h.ipv4.unwrap().protocol), 1, "ICMP");
    let fwd = r.chassis.recv(1);
    assert_eq!(fwd.len(), 3);
    for f in &fwd {
        let ip4 = ParsedHeaders::parse(f).ipv4.unwrap();
        assert!(ip4.checksum_ok, "checksum valid after TTL decrement");
        assert!((1..=3).contains(&ip4.ttl));
    }
    assert_eq!(mgr.counters().icmp_ttl.get(), 1);
}

/// Register counters agree with observed datapath behaviour.
#[test]
fn hardware_counters_cross_check() {
    let (mut r, mut mgr) = setup();
    r.tables.borrow_mut().arp.insert(ip("10.0.2.9"), mac(0xc9));
    for i in 0..7u16 {
        let f = PacketBuilder::new()
            .eth(mac(0xa1), mac(0xe0))
            .ipv4(ip("10.0.0.2"), ip("10.0.2.9"))
            .udp(1000 + i, 2000, b"x")
            .build();
        r.chassis.send(0, f);
    }
    // One exception: unknown destination.
    let f = PacketBuilder::new()
        .eth(mac(0xa1), mac(0xe0))
        .ipv4(ip("10.0.0.2"), ip("99.9.9.9"))
        .udp(1, 2, b"y")
        .build();
    r.chassis.send(0, f);
    mgr.run(&mut r, Time::from_us(100), Time::from_us(20));
    assert_eq!(r.chassis.recv(2).len(), 7);
    // 7 hardware-routed + 1 CPU-injected (the ICMP unreachable) — packets
    // from the CPU port count as forwarded too, as in the RTL counters.
    assert_eq!(r.chassis.read32(ROUTER_BASE + 16 * 4), 8, "forwarded");
    assert_eq!(r.chassis.read32(ROUTER_BASE + 17 * 4), 1, "to_cpu");
    assert_eq!(mgr.counters().icmp_unreachable.get(), 1);
}

/// The router survives (and punts) garbage: truncated, non-IP, and
/// checksum-corrupt frames never wedge the pipeline.
#[test]
fn malformed_traffic_does_not_wedge() {
    let (mut r, mut mgr) = setup();
    r.tables.borrow_mut().arp.insert(ip("10.0.1.2"), mac(0xb2));
    // Garbage mixtures.
    r.chassis.send(0, vec![0xff; 32]); // short, meaningless
    r.chassis.send(
        0,
        PacketBuilder::new()
            .eth(mac(1), mac(2))
            .raw(netfpga_packet::EtherType::Unknown(0x88cc), &[0; 60])
            .build(),
    );
    let mut bad_csum = PacketBuilder::new()
        .eth(mac(0xa1), mac(0xe0))
        .ipv4(ip("10.0.0.2"), ip("10.0.1.2"))
        .udp(1, 2, b"z")
        .build();
    bad_csum[24] ^= 0x55;
    r.chassis.send(0, bad_csum);
    // Then a good frame: must still forward.
    let good = PacketBuilder::new()
        .eth(mac(0xa1), mac(0xe0))
        .ipv4(ip("10.0.0.2"), ip("10.0.1.2"))
        .udp(1, 2, b"good")
        .build();
    r.chassis.send(0, good);
    mgr.run(&mut r, Time::from_us(100), Time::from_us(20));
    let out = r.chassis.recv(1);
    assert_eq!(
        out.len(),
        1,
        "good frame forwarded despite garbage before it"
    );
    assert_eq!(r.counters.dropped.get(), 1, "bad checksum dropped");
}

/// A table change made through the registers between two frames to one
/// destination decides the second frame: the lookup form the first frame
/// compiled must not outlive the tables it was compiled from.
#[test]
fn table_changes_between_frames_take_effect() {
    use netfpga_projects::reference_router::exception;
    // Command codes of the router register block.
    const ADD_ROUTE: u32 = 1;
    const DEL_ROUTE: u32 = 2;
    const ADD_ARP: u32 = 3;
    const DEL_ARP: u32 = 4;
    const CLEAR_TABLES: u32 = 7;
    fn command(r: &mut ReferenceRouter, command: u32, words: &[(u32, u32)]) {
        for &(word, value) in words {
            r.chassis.write32(ROUTER_BASE + word * 4, value);
        }
        r.chassis.write32(ROUTER_BASE, command);
    }
    let (mut r, _) = setup();
    let dma = r.chassis.dma.clone().unwrap();
    // Where the next frame to 10.9.1.5 goes: (egress port, next-hop MAC),
    // or the reason it was punted.
    let next_frame = |r: &mut ReferenceRouter| {
        let f = PacketBuilder::new()
            .eth(mac(0xa1), mac(0xe0))
            .ipv4(ip("10.0.0.2"), ip("10.9.1.5"))
            .udp(1, 2, b"x")
            .build();
        r.chassis.send(0, f);
        r.chassis.run_for(Time::from_us(10));
        let out: Vec<_> = (1..=2)
            .flat_map(|p| r.chassis.recv(p).into_iter().map(move |f| (p, f)))
            .map(|(p, f)| (p, ParsedHeaders::parse(&f).eth_dst))
            .collect();
        match dma.recv() {
            Some((_, meta)) => Err(meta.flags),
            None => Ok(out),
        }
    };
    let (gw1, gw2) = (ip("10.0.1.2").to_u32(), ip("10.0.2.2").to_u32());
    for (gw, m) in [(gw1, 0xb2), (gw2, 0xc2)] {
        command(&mut r, ADD_ARP, &[(1, gw), (5, 0x0200), (6, m)]);
    }
    let wide = [(1, ip("10.9.0.0").to_u32()), (2, 16), (3, gw1), (4, 1)];
    let narrow = [(1, ip("10.9.1.0").to_u32()), (2, 24), (3, gw2), (4, 2)];

    command(&mut r, ADD_ROUTE, &wide);
    assert_eq!(next_frame(&mut r), Ok(vec![(1, mac(0xb2))]));
    command(&mut r, ADD_ROUTE, &narrow);
    assert_eq!(
        next_frame(&mut r),
        Ok(vec![(2, mac(0xc2))]),
        "more specific"
    );
    command(&mut r, DEL_ROUTE, &narrow);
    assert_eq!(
        next_frame(&mut r),
        Ok(vec![(1, mac(0xb2))]),
        "first path back"
    );
    command(&mut r, DEL_ARP, &[(1, gw1)]);
    assert_eq!(next_frame(&mut r), Err(exception::ARP_MISS));
    command(&mut r, CLEAR_TABLES, &[]);
    assert_eq!(next_frame(&mut r), Err(exception::NO_ROUTE));
}
