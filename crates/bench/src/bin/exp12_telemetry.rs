//! E12 (extension) — The unified telemetry plane across every project.
//!
//! Builds each reference/contributed project, drives a little traffic,
//! and reads the *entire* statistics tree back over MMIO through the
//! self-describing stat block (`dump_stats`) — the `ethtool -S` moment
//! the paper's register-map sprawl never had. Asserts for every project:
//!
//! * the name table is non-empty and collision-free;
//! * every value read over MMIO equals the in-process registry snapshot
//!   (the MMIO path is a window onto the same cells, not a copy), the
//!   kernel's own `kernel.*` gauges — which the MMIO walk itself advances
//!   — lying between a snapshot before the walk and one after;
//! * on a fault-plane chassis, a scheduled link flap is observed end to
//!   end through `poll_events` (down + up, in order).
//!
//! Emits the standard table + `@json` rows and writes
//! `BENCH_telemetry.json`.

use netfpga_bench::Table;
use netfpga_core::board::BoardSpec;
use netfpga_core::telemetry::{decode_stat_block, EventKind, TELEMETRY_BASE};
use netfpga_core::time::Time;
use netfpga_host::{dump_stats, poll_events};
use netfpga_projects::blueswitch::BlueSwitch;
use netfpga_projects::harness::{Chassis, ChassisConfig};
use netfpga_projects::osnt::OsntTester;
use netfpga_projects::reference_nic::ReferenceNic;
use netfpga_projects::reference_router::ReferenceRouter;
use netfpga_projects::reference_switch::ReferenceSwitch;

fn frame(tag: u8) -> Vec<u8> {
    netfpga_packet::PacketBuilder::new()
        .eth(
            netfpga_packet::EthernetAddress::new(2, 0, 0, 0, 0, tag),
            netfpga_packet::EthernetAddress::new(2, 0, 0, 0, 0, 0xff),
        )
        .raw(netfpga_packet::EtherType::Ipv4, &[tag; 46])
        .build()
}

/// Dump the full map, check the name table, and cross-check every MMIO
/// value against the in-process registry. The MMIO walk itself runs the
/// simulator, so the kernel's own `kernel.*` gauges move under it: those
/// must land between a snapshot taken before the walk and one taken
/// after; every other value must equal the earlier snapshot exactly.
/// Returns (stats, nonzero stats).
fn audit(name: &str, chassis: &mut Chassis, t: &mut Table) -> (usize, usize) {
    let before = chassis.telemetry.snapshot();
    let table = decode_stat_block(TELEMETRY_BASE, |a| chassis.read32(a))
        .unwrap_or_else(|| panic!("{name}: no telemetry block at {TELEMETRY_BASE:#x}"));
    assert!(!table.is_empty(), "{name}: empty name table");
    let mut seen = std::collections::BTreeSet::new();
    for (path, _) in &table {
        assert!(
            seen.insert(path.clone()),
            "{name}: duplicate stat path {path:?}"
        );
    }

    let map = dump_stats(chassis);
    assert_eq!(map.len(), table.len(), "{name}: dump lost entries");
    let after = chassis.telemetry.snapshot();
    assert_eq!(
        before.len(),
        map.len(),
        "{name}: registry and block disagree"
    );
    // MMIO values are 32-bit windows onto the 64-bit cells.
    let window = |v: u64| v & 0xffff_ffff;
    for ((path, earlier), (_, later)) in before.iter().zip(&after) {
        if path.starts_with("kernel.") {
            assert!(
                (window(*earlier)..=window(*later)).contains(&map[path]),
                "{name}: MMIO readback of {path:?} ({}) outside {earlier}..={later}",
                map[path]
            );
        } else {
            assert_eq!(
                map[path],
                window(*earlier),
                "{name}: MMIO readback of {path:?} diverges from the registry"
            );
        }
    }

    let nonzero = map.values().filter(|&&v| v > 0).count();
    t.row(&[
        name.to_string(),
        map.len().to_string(),
        nonzero.to_string(),
        map.keys()
            .find(|k| map[*k] > 0)
            .cloned()
            .unwrap_or_else(|| "-".to_string()),
    ]);
    (map.len(), nonzero)
}

fn main() {
    let frames = 64;
    let spec = BoardSpec::sume();

    let mut t = Table::new(
        "E12: unified telemetry plane (dump_stats over MMIO)",
        &["project", "stats", "nonzero", "first_nonzero_path"],
    );

    // Reference NIC: RX traffic up to the host.
    let mut nic = ReferenceNic::new(&spec, 4);
    for i in 0..frames {
        nic.chassis.send(i % 4, frame(i as u8));
    }
    nic.chassis.run_for(Time::from_us(200));
    let (n, nz) = audit("reference_nic", &mut nic.chassis, &mut t);
    assert!(nz > 0, "reference_nic: traffic left no trace");
    assert!(n >= 40, "reference_nic: suspiciously small tree ({n})");

    // Reference switch: floods and learned unicasts.
    let mut sw = ReferenceSwitch::new(&spec, 4, 1024, Time::from_ms(100));
    for i in 0..frames {
        sw.chassis.send(i % 4, frame(i as u8));
    }
    sw.chassis.run_for(Time::from_us(200));
    audit("reference_switch", &mut sw.chassis, &mut t);

    // Reference router: an unroutable packet punts to the CPU.
    let mut router = ReferenceRouter::new(&spec, 4);
    router.chassis.send(0, frame(9));
    router.chassis.run_for(Time::from_us(50));
    audit("reference_router", &mut router.chassis, &mut t);

    // BlueSwitch: no installed rules, packets still counted.
    let mut bsw = BlueSwitch::new(&spec, 4, 2, 64);
    bsw.chassis.send(0, frame(3));
    bsw.chassis.run_for(Time::from_us(50));
    audit("blueswitch", &mut bsw.chassis, &mut t);

    // OSNT: generator/capture gauges appear in the tree.
    let mut osnt = OsntTester::new(&spec, 4);
    osnt.chassis.run_for(Time::from_us(10));
    audit("osnt", &mut osnt.chassis, &mut t);

    // Fault-plane chassis: a scheduled link flap must surface through the
    // event ring, host-side, in order.
    let plan = netfpga_faults::FaultPlan::new(0xE12).at(
        Time::from_us(5),
        netfpga_faults::FaultKind::LinkDown {
            port: 1,
            duration: Time::from_us(10),
        },
    );
    let mut flapped = ReferenceSwitch::build(
        &ChassisConfig {
            faults: plan,
            ..ChassisConfig::new(&spec, 4)
        },
        1024,
        Time::from_ms(100),
        None,
    );
    flapped.chassis.run_for(Time::from_us(40));
    let events = poll_events(&mut flapped.chassis);
    let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![EventKind::LinkDown, EventKind::LinkUp],
        "link flap not observed end to end: {events:?}"
    );
    assert!(events.iter().all(|e| e.port == 1));
    assert!(poll_events(&mut flapped.chassis).is_empty(), "ring drained");
    let stats = dump_stats(&mut flapped.chassis);
    assert_eq!(stats["faults.flaps"], 1, "flap counted in the registry");
    t.row(&[
        "switch+faults".to_string(),
        stats.len().to_string(),
        stats.values().filter(|&&v| v > 0).count().to_string(),
        "faults.flaps".to_string(),
    ]);

    t.print();
    t.write_json("BENCH_telemetry.json")
        .expect("write BENCH_telemetry.json");
    println!("ok: every project dumps a non-empty, collision-free, MMIO-consistent stat tree");
}
