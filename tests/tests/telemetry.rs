//! The unified telemetry plane, end to end: the registry view must be a
//! window onto the SAME cells the legacy register blocks read (not a
//! copy), the MMIO stat block must agree with both, and fault-plane link
//! events must reach the host through the event ring.

use netfpga_core::board::BoardSpec;
use netfpga_core::stream::{Meta, PortMask};
use netfpga_core::telemetry::{decode_stat_block, EventKind, TELEMETRY_BASE};
use netfpga_core::time::Time;
use netfpga_faults::{FaultKind, FaultPlan};
use netfpga_host::{dump_stats, poll_events};
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netfpga_projects::flowmon::FlowmonConfig;
use netfpga_projects::reference_switch::{ReferenceSwitch, LOOKUP_BASE, STATS_BASE};
use netfpga_projects::{BlueSwitch, Chassis, ChassisConfig, ReferenceNic, ReferenceRouter};

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

fn frame(src: u8, dst: u8) -> Vec<u8> {
    PacketBuilder::new()
        .eth(mac(src), mac(dst))
        .raw(netfpga_packet::EtherType::Ipv4, &[src; 50])
        .build()
}

/// Equivalence pin: run fixed traffic through the reference switch and
/// require every legacy counter — the statistics registers, the lookup
/// registers, and the per-port MAC stats — to read bit-identically
/// through its new registry path, in-process and over MMIO.
#[test]
fn registry_paths_equal_legacy_counters_bit_for_bit() {
    let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
    // Fixed workload: a flood, a learned unicast each way, a broadcast.
    sw.chassis.send(0, frame(1, 2));
    sw.chassis.run_for(Time::from_us(10));
    sw.chassis.send(2, frame(2, 1));
    sw.chassis.run_for(Time::from_us(10));
    sw.chassis.send(0, frame(1, 2));
    sw.chassis.run_for(Time::from_us(10));
    let bcast = PacketBuilder::new()
        .eth(mac(3), EthernetAddress::BROADCAST)
        .raw(netfpga_packet::EtherType::Arp, &[0; 46])
        .build();
    sw.chassis.send(3, bcast);
    sw.chassis.run_for(Time::from_us(20));

    let reg = sw.chassis.telemetry.clone();

    // Legacy stats registers vs registry paths (same cells, so exact).
    assert_eq!(
        reg.get("rx_stats.total_packets"),
        Some(u64::from(sw.chassis.read32(STATS_BASE)))
    );
    assert_eq!(
        reg.get("rx_stats.total_bytes"),
        Some(u64::from(sw.chassis.read32(STATS_BASE + 0x4)))
    );
    for port in 0..4u32 {
        assert_eq!(
            reg.get(&format!("rx_stats.port{port}.packets")),
            Some(u64::from(sw.chassis.read32(STATS_BASE + 0x8 + 8 * port))),
            "port {port} packets"
        );
        assert_eq!(
            reg.get(&format!("rx_stats.port{port}.bytes")),
            Some(u64::from(sw.chassis.read32(STATS_BASE + 0xC + 8 * port))),
            "port {port} bytes"
        );
    }

    // Legacy lookup registers vs registry paths.
    assert_eq!(
        reg.get("lookup.hits"),
        Some(u64::from(sw.chassis.read32(LOOKUP_BASE)))
    );
    assert_eq!(
        reg.get("lookup.floods"),
        Some(u64::from(sw.chassis.read32(LOOKUP_BASE + 4)))
    );
    assert_eq!(
        reg.get("lookup.learned"),
        Some(u64::from(sw.chassis.read32(LOOKUP_BASE + 8)))
    );
    assert!(
        reg.get("lookup.hits").unwrap() >= 2,
        "workload exercised the fast path"
    );

    // Per-port RX MAC counters agree with the statistics stage behind
    // the arbiter: two independent cells counting the same frames.
    for port in 0..4 {
        for (mac, stage) in [("frames", "packets"), ("bytes", "bytes")] {
            assert_eq!(
                reg.get(&format!("port{port}.mac.rx.{mac}")),
                reg.get(&format!("rx_stats.port{port}.{stage}")),
                "port {port} {mac}"
            );
        }
    }

    // And the MMIO dump agrees with the in-process registry on every path.
    let snapshot = sw.chassis.telemetry.snapshot();
    let dumped = dump_stats(&mut sw.chassis);
    assert_eq!(dumped.len(), snapshot.len());
    for (path, value) in snapshot {
        if path.starts_with("kernel.") {
            // The kernel's own work counters advance while the MMIO dump
            // runs the simulator — the dump IS workload to them — so a
            // same-pass comparison can only pin monotonicity.
            assert!(dumped[&path] >= value & 0xffff_ffff, "{path} over MMIO");
        } else {
            assert_eq!(dumped[&path], value & 0xffff_ffff, "{path} over MMIO");
        }
    }
}

/// A clear through the registry is a clear of the legacy cell, and vice
/// versa — shared state, not synchronized copies.
#[test]
fn clears_are_visible_both_ways() {
    let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
    sw.chassis.send(0, frame(1, 2));
    sw.chassis.run_for(Time::from_us(10));
    assert!(sw.chassis.read32(STATS_BASE) > 0);
    assert!(sw.chassis.telemetry.clear("rx_stats.total_packets"));
    assert_eq!(
        sw.chassis.read32(STATS_BASE),
        0,
        "registry clear seen by legacy block"
    );
    assert!(
        sw.chassis.read32(STATS_BASE + 0x8) > 0,
        "per-offset semantics: siblings survive"
    );
    sw.chassis.write32(STATS_BASE + 0x8, 0);
    assert_eq!(
        sw.chassis.telemetry.get("rx_stats.port0.packets"),
        Some(0),
        "legacy write-to-clear seen by registry"
    );
}

/// A fault-plane link flap travels the whole way: injector → event ring →
/// MMIO registers → host `poll_events`, with the flap counted in the
/// registry tree too.
#[test]
fn poll_events_observes_injected_link_flap() {
    let plan = FaultPlan::new(0x7E1E).at(
        Time::from_us(10),
        FaultKind::LinkDown {
            port: 2,
            duration: Time::from_us(15),
        },
    );
    let mut sw = ReferenceSwitch::build(
        &ChassisConfig {
            faults: plan,
            ..ChassisConfig::new(&BoardSpec::sume(), 4)
        },
        1024,
        Time::from_ms(100),
        None,
    );

    // Nothing before the flap fires.
    sw.chassis.run_for(Time::from_us(5));
    assert!(poll_events(&mut sw.chassis).is_empty());

    // Past the window: down and up transitions, in order, on port 2.
    sw.chassis.run_for(Time::from_us(40));
    let events = poll_events(&mut sw.chassis);
    let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![EventKind::LinkDown, EventKind::LinkUp],
        "{events:?}"
    );
    assert!(events.iter().all(|e| e.port == 2));
    assert!(events[0].at < events[1].at, "timestamps ordered");

    // The drain consumed the ring; the flap stays counted in the tree.
    assert!(poll_events(&mut sw.chassis).is_empty());
    assert_eq!(dump_stats(&mut sw.chassis)["faults.flaps"], 1);

    // A runtime flap after the drain produces a fresh pair.
    sw.chassis
        .faults
        .clone()
        .expect("fault plane")
        .inject(FaultKind::LinkDown {
            port: 0,
            duration: Time::from_us(5),
        });
    sw.chassis.run_for(Time::from_us(20));
    let events = poll_events(&mut sw.chassis);
    assert_eq!(events.len(), 2);
    assert!(events.iter().all(|e| e.port == 0));
}

/// An IPv4/UDP frame from host `src` to host `dst`.
fn udp(src: u8, dst: u8) -> Vec<u8> {
    PacketBuilder::new()
        .eth(mac(src), mac(dst))
        .ipv4(
            Ipv4Address::new(10, 0, 0, src),
            Ipv4Address::new(10, 0, 0, dst),
        )
        .udp(1000 + u16::from(src), 2000, &[src; 200])
        .build()
}

/// Write 0 to the value word of each of `paths` in the chassis' mounted
/// stat block, straight on its register map so the simulation stays where
/// it is, and return each `(path, before, after)`.
fn write_each(chassis: &Chassis, paths: &[&str]) -> Vec<(String, u32, u32)> {
    let block = decode_stat_block(TELEMETRY_BASE, |a| chassis.map.read(a)).expect("stat block");
    paths
        .iter()
        .map(|&path| {
            let (_, addr) = block
                .iter()
                .find(|(p, _)| p == path)
                .unwrap_or_else(|| panic!("{path} not in the stat block"));
            let before = chassis.map.read(*addr);
            chassis.map.write(*addr, 0);
            (path.to_string(), before, chassis.map.read(*addr))
        })
        .collect()
}

/// The counter contract over MMIO: after traffic through the switch (with
/// the flow monitor), the router, BlueSwitch and the NIC, a write to a
/// count's word in the stat block clears it, and a write to a derived
/// value's word leaves it as it was.
#[test]
fn counts_are_write_to_clear_derived_values_are_not() {
    let spec = BoardSpec::sume();

    // Switch: teach host 1 on port 0, then oversubscribe port 0 from the
    // other three ports and stop while its queue is still full.
    let mut sw = ReferenceSwitch::build(
        &ChassisConfig::new(&spec, 4),
        1024,
        Time::from_ms(100),
        Some(FlowmonConfig::default()),
    );
    sw.chassis.send(0, udp(1, 2));
    sw.chassis.run_for(Time::from_us(5));
    for _ in 0..20 {
        for p in 1..4 {
            sw.chassis.send(p, udp(p as u8 + 1, 1));
        }
    }
    sw.chassis.run_for(Time::from_us(5));

    // Router: frames the CPU injects with their destination set are
    // forwarded in hardware.
    let mut r = ReferenceRouter::new(&spec, 4);
    let dma = r.chassis.dma.clone().expect("router has a CPU port");
    for _ in 0..3 {
        let f = udp(1, 2);
        let meta = Meta {
            len: f.len() as u16,
            src_port: r.cpu_port,
            dst_ports: PortMask::single(1),
            ..Meta::default()
        };
        dma.send_with_meta(f, meta).expect("ring has room");
    }
    r.chassis.run_for(Time::from_us(20));

    // BlueSwitch: every frame is classified.
    let mut bs = BlueSwitch::new(&spec, 4, 2, 16);
    bs.chassis.send(0, udp(1, 2));
    bs.chassis.run_for(Time::from_us(10));

    // NIC: frames up to the host before and inside a DMA drop window, and
    // host frames posted last, so they are still pending when frozen.
    let plan = FaultPlan::new(9).at(
        Time::from_us(10),
        FaultKind::DmaDrop {
            duration: Time::from_us(20),
        },
    );
    let mut nic = ReferenceNic::build(&ChassisConfig {
        faults: plan,
        ..ChassisConfig::new(&spec, 4)
    });
    nic.chassis.send(1, udp(1, 2));
    nic.chassis.run_for(Time::from_us(15));
    nic.chassis.send(1, udp(1, 2));
    nic.chassis.run_for(Time::from_us(10));
    let dma = nic.chassis.dma.clone().expect("NIC has DMA");
    dma.send(udp(2, 1), 0).expect("ring has room");

    let counts = [
        (&sw.chassis, "port0.mac.rx.frames"),
        (&sw.chassis, "port0.mac.tx.frames"),
        (&sw.chassis, "lookup.hits"),
        (&sw.chassis, "flowmon.packets"),
        (&r.chassis, "router.forwarded"),
        (&bs.chassis, "blueswitch.packets"),
        (&nic.chassis, "dma.rx.packets"),
    ];
    for (chassis, path) in counts {
        let [(_, before, after)] = write_each(chassis, &[path])[..] else {
            unreachable!()
        };
        assert!(before > 0, "{path}: the traffic moved it");
        assert_eq!(after, 0, "{path}: a count is write-to-clear");
    }
    let derived = [
        (&sw.chassis, "port0.q0.depth"),
        (&sw.chassis, "flowmon.flows"),
        (&nic.chassis, "dma.tx.pending"),
        (&nic.chassis, "dma.fault.dropped"),
    ];
    for (chassis, path) in derived {
        let [(_, before, after)] = write_each(chassis, &[path])[..] else {
            unreachable!()
        };
        assert!(before > 0, "{path}: the traffic moved it");
        assert_eq!(after, before, "{path}: a derived value is read-only");
    }
}
