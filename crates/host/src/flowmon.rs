//! Host-side access to the flow-monitoring plane.
//!
//! The driver side of the self-describing flow-monitor block at
//! [`FLOWMON_BASE`]: everything here goes through
//! [`Chassis::read32`]/[`Chassis::write32`] — real simulated MMIO
//! transactions, no back-door access to the tap's state.
//!
//! * [`dump_flows`] — read the heavy-hitter table in hardware order.
//! * [`top_talkers`] — the table ranked by descending sketch estimate.
//! * [`stream_deltas`] — drain the counter-delta ring, resolving each
//!   delta's stat index to its registry path via the telemetry name
//!   table (the two blocks share the sorted-path index space).

use netfpga_core::telemetry::{decode_stat_block, TELEMETRY_BASE};
use netfpga_core::time::Time;
use netfpga_flowmon::{Delta, FiveTuple, FlowRecord, FLOWMON_BASE, FLOWMON_MAGIC, FLOW_TABLE_OFF};
use netfpga_projects::harness::Chassis;

/// Read the heavy-hitter flow table over MMIO, in table (hardware)
/// order. Empty if no flow-monitor block is mounted (magic mismatch).
pub fn dump_flows(chassis: &mut Chassis) -> Vec<FlowRecord> {
    if chassis.read32(FLOWMON_BASE) != FLOWMON_MAGIC {
        return Vec::new();
    }
    let tracked = chassis.read32(FLOWMON_BASE + 0x10);
    let mut out = Vec::with_capacity(tracked as usize);
    for i in 0..tracked {
        let e = FLOWMON_BASE + FLOW_TABLE_OFF + 0x20 * i;
        let ports = chassis.read32(e + 0x08);
        let flow = FiveTuple {
            src_ip: chassis.read32(e),
            dst_ip: chassis.read32(e + 0x04),
            src_port: (ports >> 16) as u16,
            dst_port: ports as u16,
            proto: chassis.read32(e + 0x0C) as u8,
        };
        let bytes =
            u64::from(chassis.read32(e + 0x14)) | (u64::from(chassis.read32(e + 0x18)) << 32);
        out.push(FlowRecord {
            flow,
            packets: u64::from(chassis.read32(e + 0x10)),
            bytes,
            estimate: u64::from(chassis.read32(e + 0x1C)),
        });
    }
    out
}

/// The top `n` flows by descending sketch estimate (deterministic
/// tie-break via [`FlowRecord::rank_key`]), read over MMIO.
pub fn top_talkers(chassis: &mut Chassis, n: usize) -> Vec<FlowRecord> {
    let mut v = dump_flows(chassis);
    v.sort_by_key(|r| core::cmp::Reverse(r.rank_key()));
    v.truncate(n);
    v
}

/// Drain the counter-delta ring: read the producer head, walk every
/// unconsumed slot, write the consumer index back, and resolve each
/// delta's stat index to its registry path through the telemetry name
/// table. Deltas whose index falls outside the current name table come
/// back with an empty path rather than being dropped.
pub fn stream_deltas(chassis: &mut Chassis) -> Vec<(String, Delta)> {
    if chassis.read32(FLOWMON_BASE) != FLOWMON_MAGIC {
        return Vec::new();
    }
    let head = chassis.read32(FLOWMON_BASE + 0x30);
    let tail = chassis.read32(FLOWMON_BASE + 0x34);
    let capacity = chassis.read32(FLOWMON_BASE + 0x38);
    if capacity == 0 || head == tail {
        return Vec::new();
    }
    let names: Vec<String> = decode_stat_block(TELEMETRY_BASE, |a| chassis.read32(a))
        .map(|entries| entries.into_iter().map(|(path, _)| path).collect())
        .unwrap_or_default();
    let mut out = Vec::new();
    let mut seq = tail;
    while seq != head {
        let slot = FLOWMON_BASE + 0x40 + 0x10 * (seq % capacity);
        let stat = chassis.read32(slot);
        let delta = Delta {
            stat,
            value: u64::from(chassis.read32(slot + 0x4)),
            delta: u64::from(chassis.read32(slot + 0x8)),
            at: Time::from_ns(u64::from(chassis.read32(slot + 0xC))),
        };
        let path = names.get(stat as usize).cloned().unwrap_or_default();
        out.push((path, delta));
        seq = seq.wrapping_add(1);
    }
    chassis.write32(FLOWMON_BASE + 0x34, head);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::board::BoardSpec;
    use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
    use netfpga_projects::flowmon::FlowmonConfig;
    use netfpga_projects::{ChassisConfig, ReferenceSwitch};

    fn mac(x: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, x)
    }

    fn udp(src: u8, dst: u8, sport: u16) -> Vec<u8> {
        PacketBuilder::new()
            .eth(mac(src), mac(dst))
            .ipv4(
                Ipv4Address::new(10, 0, 0, src),
                Ipv4Address::new(10, 0, 0, dst),
            )
            .udp(sport, 80, &[0xcd; 32])
            .build()
    }

    fn flowmon_switch() -> ReferenceSwitch {
        ReferenceSwitch::build(
            &ChassisConfig::new(&BoardSpec::sume(), 4),
            1024,
            Time::from_ms(100),
            Some(FlowmonConfig::default()),
        )
    }

    #[test]
    fn dump_flows_matches_the_tap_state() {
        let mut sw = flowmon_switch();
        for _ in 0..5 {
            sw.chassis.send(0, udp(1, 2, 1111));
        }
        for _ in 0..2 {
            sw.chassis.send(1, udp(2, 1, 2222));
        }
        sw.chassis.run_for(Time::from_us(50));
        let flows = dump_flows(&mut sw.chassis);
        let direct = sw.flowmon.as_ref().unwrap().flows();
        assert_eq!(flows, direct, "MMIO view equals the tap's table");
        let top = top_talkers(&mut sw.chassis, 1);
        assert_eq!(top[0].flow.src_port, 1111);
        assert_eq!(top[0].packets, 5);
    }

    #[test]
    fn stream_deltas_resolves_paths_and_frees_the_ring() {
        let mut sw = flowmon_switch();
        for _ in 0..4 {
            sw.chassis.send(0, udp(3, 4, 3333));
        }
        sw.chassis.run_for(Time::from_us(100));
        let deltas = stream_deltas(&mut sw.chassis);
        assert!(!deltas.is_empty(), "counters moved, deltas streamed");
        assert!(
            deltas.iter().any(|(path, _)| path == "flowmon.packets"),
            "stat indices resolve through the telemetry name table: {:?}",
            deltas.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>()
        );
        let (_, d) = deltas
            .iter()
            .find(|(path, _)| path == "flowmon.packets")
            .unwrap();
        assert_eq!(d.value, 4);
        // Draining freed the ring: a second poll with no new samples
        // between returns nothing new from those sequences.
        let tail = sw.chassis.read32(FLOWMON_BASE + 0x34);
        let head = sw.chassis.read32(FLOWMON_BASE + 0x30);
        assert_eq!(tail, head, "tail written back");
    }

    #[test]
    fn flowmon_helpers_are_empty_without_the_block() {
        let mut nic = netfpga_projects::ReferenceNic::new(&BoardSpec::sume(), 2);
        assert!(dump_flows(&mut nic.chassis).is_empty());
        assert!(stream_deltas(&mut nic.chassis).is_empty());
    }
}
