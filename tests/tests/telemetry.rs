//! The unified telemetry plane, end to end: the registry view must be a
//! window onto the SAME cells the legacy register blocks read (not a
//! copy), the MMIO stat block must agree with both, and fault-plane link
//! events must reach the host through the event ring.

use netfpga_core::board::BoardSpec;
use netfpga_core::telemetry::EventKind;
use netfpga_core::time::Time;
use netfpga_faults::{FaultKind, FaultPlan};
use netfpga_host::{dump_stats, poll_events};
use netfpga_packet::{EthernetAddress, PacketBuilder};
use netfpga_projects::reference_switch::{ReferenceSwitch, LOOKUP_BASE, STATS_BASE};
use netfpga_projects::ChassisConfig;

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

    // Per-port MAC stats vs registry paths.
    for port in 0..4 {
        let rx = sw.chassis.rx_mac_stats(port);
        let tx = sw.chassis.tx_mac_stats(port);
        for (path, legacy) in [
            (format!("port{port}.mac.rx.frames"), rx.frames),
            (format!("port{port}.mac.rx.bytes"), rx.bytes),
            (format!("port{port}.mac.rx.wire_bytes"), rx.wire_bytes),
            (format!("port{port}.mac.rx.bad_fcs"), rx.bad_fcs),
            (format!("port{port}.mac.tx.frames"), tx.frames),
            (format!("port{port}.mac.tx.bytes"), tx.bytes),
        ] {
            assert_eq!(reg.get(&path), Some(legacy), "{path}");
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
