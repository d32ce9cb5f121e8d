//! The self-describing flow-monitor MMIO block.
//!
//! Mounted at [`FLOWMON_BASE`], the block exposes the sketch dimensions,
//! rollup counters, the counter-delta ring and the heavy-hitter flow
//! table as plain 32-bit registers, so host tooling can discover and
//! read the whole flow-monitoring plane with nothing but `read32`.
//!
//! Word layout (byte offsets):
//!
//! | offset | register |
//! |--------|----------|
//! | `0x00` | magic [`FLOWMON_MAGIC`] (`"FLOW"`); **write**: clear flow state |
//! | `0x04` | sketch width (RO) |
//! | `0x08` | sketch depth (RO) |
//! | `0x0C` | heavy-hitter table capacity (RO) |
//! | `0x10` | flows currently tracked (RO) |
//! | `0x14` | packets accounted, low 32 bits (RO) |
//! | `0x18` | bytes seen, low 32 bits (RO) |
//! | `0x1C` | bytes seen, high 32 bits (RO) |
//! | `0x20` | non-IP frames (RO) |
//! | `0x24` | current `⌈εN⌉` error bound (RO) |
//! | `0x28` | heavy-hitter evictions (RO) |
//! | `0x2C` | exporter snapshots taken (RO) |
//! | `0x30` | delta-ring head sequence (RO) |
//! | `0x34` | delta-ring tail; host writes to consume (same clamp discipline as the event ring) |
//! | `0x38` | delta-ring capacity in slots (RO) |
//! | `0x3C` | deltas dropped on overflow (RO) |
//! | `0x40 + 16·(seq % capacity)` | delta slot: stat index, value lo, delta lo, time ns |
//! | [`FLOW_TABLE_OFF`]` + 32·i` | flow entry `i`: src ip, dst ip, ports (src≪16 \| dst), proto, packets lo, bytes lo, bytes hi, estimate lo |
//!
//! Flow entries appear in table (insertion) order; unused entries read
//! as zero. The delta-slot region sizes the ring at ≤ 60 slots and the
//! table at ≤ 224 entries so everything fits in [`FLOWMON_SIZE`].

use netfpga_core::regs::{RegisterSpace, UNMAPPED_READ};

use crate::export::ExporterHandle;
use crate::tap::FlowMonHandle;

/// Base MMIO address of the flow-monitor block (between the OSNT blocks
/// ending at `0x7000` and the telemetry stat block at `0xA000`).
pub const FLOWMON_BASE: u32 = 0x8000;
/// Size of the flow-monitor block in bytes.
pub const FLOWMON_SIZE: u32 = 0x2000;
/// Magic word at offset 0: `"FLOW"` in ASCII.
pub const FLOWMON_MAGIC: u32 = 0x464c_4f57;
/// Byte offset of the heavy-hitter flow table within the block.
pub const FLOW_TABLE_OFF: u32 = 0x400;

/// Byte offset of the first delta slot.
const DELTA_SLOTS_OFF: u32 = 0x40;
/// Bytes per delta slot (4 words).
const DELTA_SLOT_BYTES: u32 = 0x10;
/// Bytes per flow-table entry (8 words).
const FLOW_ENTRY_BYTES: u32 = 0x20;

/// The register space itself. Build from the tap and exporter handles,
/// then mount with [`netfpga_core::regs::shared`].
pub struct FlowmonRegisters {
    mon: FlowMonHandle,
    exporter: ExporterHandle,
}

impl FlowmonRegisters {
    /// A register view over a tap's flow state and its exporter.
    ///
    /// Panics if the delta ring or flow table is too large for the
    /// fixed block layout (> 60 slots / > 224 entries).
    pub fn new(mon: FlowMonHandle, exporter: ExporterHandle) -> FlowmonRegisters {
        let ring_cap = exporter.ring().borrow().capacity();
        assert!(
            ring_cap as u32 * DELTA_SLOT_BYTES <= FLOW_TABLE_OFF - DELTA_SLOTS_OFF,
            "delta ring larger than the slot window (max 60)"
        );
        let (_, _, table_cap) = mon.dimensions();
        assert!(
            FLOW_TABLE_OFF + table_cap as u32 * FLOW_ENTRY_BYTES <= FLOWMON_SIZE,
            "flow table larger than the block (max 224 entries)"
        );
        FlowmonRegisters { mon, exporter }
    }
}

impl RegisterSpace for FlowmonRegisters {
    fn read(&mut self, offset: u32) -> u32 {
        let offset = offset & !3;
        let (width, depth, table_cap) = self.mon.dimensions();
        if offset >= FLOW_TABLE_OFF {
            let rel = offset - FLOW_TABLE_OFF;
            let i = (rel / FLOW_ENTRY_BYTES) as usize;
            if i >= table_cap {
                return UNMAPPED_READ;
            }
            let flows = self.mon.flows();
            let Some(e) = flows.get(i) else { return 0 };
            return match rel % FLOW_ENTRY_BYTES {
                0x00 => e.flow.src_ip,
                0x04 => e.flow.dst_ip,
                0x08 => (u32::from(e.flow.src_port) << 16) | u32::from(e.flow.dst_port),
                0x0C => u32::from(e.flow.proto),
                0x10 => e.packets as u32,
                0x14 => e.bytes as u32,
                0x18 => (e.bytes >> 32) as u32,
                _ => e.estimate as u32,
            };
        }
        if offset >= DELTA_SLOTS_OFF {
            let rel = offset - DELTA_SLOTS_OFF;
            let slot = (rel / DELTA_SLOT_BYTES) as usize;
            let ring = self.exporter.ring();
            let ring = ring.borrow();
            let Some(d) = ring.slot(slot) else {
                return UNMAPPED_READ;
            };
            return match rel % DELTA_SLOT_BYTES {
                0x0 => d.stat,
                0x4 => d.value as u32,
                0x8 => d.delta as u32,
                _ => d.at.as_ns() as u32,
            };
        }
        match offset {
            0x00 => FLOWMON_MAGIC,
            0x04 => width as u32,
            0x08 => depth as u32,
            0x0C => table_cap as u32,
            0x10 => self.mon.tracked() as u32,
            0x14 => self.mon.counters().packets.get() as u32,
            0x18 => self.mon.counters().bytes.get() as u32,
            0x1C => (self.mon.counters().bytes.get() >> 32) as u32,
            0x20 => self.mon.counters().non_ip.get() as u32,
            0x24 => self.mon.error_bound() as u32,
            0x28 => self.mon.evictions() as u32,
            0x2C => self.exporter.snapshots() as u32,
            0x30 => self.exporter.ring().borrow().head() as u32,
            0x34 => self.exporter.ring().borrow().tail() as u32,
            0x38 => self.exporter.ring().borrow().capacity() as u32,
            0x3C => self.exporter.ring().borrow().dropped() as u32,
            _ => UNMAPPED_READ,
        }
    }

    fn write(&mut self, offset: u32, value: u32) {
        match offset & !3 {
            // Any write to the magic word clears the flow state — the
            // host-side "restart accounting" knob.
            0x00 => self.mon.clear(),
            0x34 => {
                let ring = self.exporter.ring();
                let mut ring = ring.borrow_mut();
                // Host hands back the low 32 bits of its consumer
                // sequence; unwrap against the current tail like the
                // event ring does.
                let base = ring.tail() & !0xffff_ffff;
                let mut tail = base | u64::from(value);
                if tail < ring.tail() {
                    tail += 1 << 32;
                }
                ring.set_tail(tail);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowExporter, FlowTap, FlowmonConfig, SketchConfig};
    use netfpga_core::regs::{shared, AddressMap};
    use netfpga_core::stream::Stream;
    use netfpga_core::telemetry::StatRegistry;
    use netfpga_core::time::Time;
    use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

    fn frame(last: u8, sport: u16) -> Vec<u8> {
        PacketBuilder::new()
            .eth(
                EthernetAddress::new(2, 0, 0, 0, 0, 1),
                EthernetAddress::new(2, 0, 0, 0, 0, 2),
            )
            .ipv4(
                Ipv4Address::new(10, 0, 0, last),
                Ipv4Address::new(10, 0, 1, 1),
            )
            .udp(sport, 80, &[0; 24])
            .build()
    }

    fn setup() -> (FlowMonHandle, ExporterHandle, AddressMap) {
        let (_tx, rx) = Stream::new(4, 64);
        let (tx2, _rx2) = Stream::new(4, 64);
        let config = FlowmonConfig {
            sketch: SketchConfig {
                width: 128,
                depth: 3,
                seed: 9,
            },
            table_capacity: 8,
            delta_capacity: 16,
            ..FlowmonConfig::default()
        };
        let tap = FlowTap::new(rx, tx2, &config);
        let mon = tap.handle();
        let exporter = FlowExporter::new(StatRegistry::new(), Time::from_us(1), 16).handle();
        let map = AddressMap::new();
        map.mount(
            "flowmon",
            FLOWMON_BASE,
            FLOWMON_SIZE,
            shared(FlowmonRegisters::new(mon.clone(), exporter.clone())),
        );
        (mon, exporter, map)
    }

    #[test]
    fn block_is_self_describing() {
        let (_mon, _exp, map) = setup();
        assert_eq!(map.read(FLOWMON_BASE), FLOWMON_MAGIC);
        assert_eq!(map.read(FLOWMON_BASE + 0x04), 128, "width");
        assert_eq!(map.read(FLOWMON_BASE + 0x08), 3, "depth");
        assert_eq!(map.read(FLOWMON_BASE + 0x0C), 8, "table capacity");
        assert_eq!(map.read(FLOWMON_BASE + 0x38), 16, "ring capacity");
    }

    #[test]
    fn flow_table_reads_back_entries() {
        let (mon, _exp, map) = setup();
        let f = frame(7, 3333);
        mon.observe(&f, f.len() as u64);
        mon.observe(&f, f.len() as u64);
        assert_eq!(map.read(FLOWMON_BASE + 0x10), 1, "one flow tracked");
        assert_eq!(map.read(FLOWMON_BASE + 0x14), 2, "two packets");
        let e = FLOWMON_BASE + FLOW_TABLE_OFF;
        assert_eq!(map.read(e), 0x0a00_0007, "src ip");
        assert_eq!(map.read(e + 0x04), 0x0a00_0101, "dst ip");
        assert_eq!(map.read(e + 0x08), (3333 << 16) | 80, "ports");
        assert_eq!(map.read(e + 0x0C), 17, "proto");
        assert_eq!(map.read(e + 0x10), 2, "packets");
        assert_eq!(map.read(e + 0x14), 2 * f.len() as u32, "bytes");
        assert_eq!(map.read(e + 0x1C), 2, "estimate");
        // Unused entry reads zero; past capacity reads unmapped.
        assert_eq!(map.read(e + FLOW_ENTRY_BYTES), 0);
        assert_eq!(map.read(e + 8 * FLOW_ENTRY_BYTES), UNMAPPED_READ);
    }

    #[test]
    fn magic_write_clears_flow_state() {
        let (mon, _exp, map) = setup();
        let f = frame(1, 1000);
        mon.observe(&f, f.len() as u64);
        assert_eq!(map.read(FLOWMON_BASE + 0x10), 1);
        map.write(FLOWMON_BASE, 1);
        assert_eq!(map.read(FLOWMON_BASE + 0x10), 0, "cleared");
        assert_eq!(map.read(FLOWMON_BASE + 0x14), 0);
    }

    #[test]
    fn delta_ring_walks_like_the_event_ring() {
        use crate::export::Delta;
        let (_mon, exp, map) = setup();
        for i in 0..3u32 {
            exp.ring().borrow_mut().push(Delta {
                stat: i,
                value: u64::from(i) * 10,
                delta: 5,
                at: Time::from_ns(u64::from(i)),
            });
        }
        let head = map.read(FLOWMON_BASE + 0x30);
        let tail = map.read(FLOWMON_BASE + 0x34);
        assert_eq!((head, tail), (3, 0));
        let cap = map.read(FLOWMON_BASE + 0x38);
        for seq in tail..head {
            let slot = FLOWMON_BASE + DELTA_SLOTS_OFF + DELTA_SLOT_BYTES * (seq % cap);
            assert_eq!(map.read(slot), seq, "stat index");
            assert_eq!(map.read(slot + 4), seq * 10, "value");
        }
        map.write(FLOWMON_BASE + 0x34, head);
        assert_eq!(map.read(FLOWMON_BASE + 0x34), 3, "tail advanced");
        map.write(FLOWMON_BASE + 0x34, 0);
        assert_eq!(map.read(FLOWMON_BASE + 0x34), 3, "tail never rewinds");
    }

    #[test]
    fn oversized_ring_panics() {
        let (_tx, rx) = Stream::new(4, 64);
        let (tx2, _rx2) = Stream::new(4, 64);
        let tap = FlowTap::new(rx, tx2, &FlowmonConfig::default());
        let exporter = FlowExporter::new(StatRegistry::new(), Time::from_us(1), 61).handle();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            FlowmonRegisters::new(tap.handle(), exporter)
        }));
        assert!(result.is_err(), "61-slot ring must not fit");
    }
}
