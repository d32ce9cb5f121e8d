//! The reference learning switch project.
//!
//! Pipeline: the [`ReferencePipeline`] with an RX statistics stage, its
//! lookup wrapping [`netfpga_datapath::LearningSwitchCore`]. Statistics
//! and the learning table are exposed through register blocks.

use crate::harness::{Chassis, ChassisConfig, Pipeline, ReferencePipeline};
use netfpga_core::board::BoardSpec;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::regs::{shared, RegisterSpace};
use netfpga_core::resources::ResourceCost;
use netfpga_core::stream::Meta;
use netfpga_core::time::Time;
use netfpga_datapath::blocks;
use netfpga_datapath::pktstats::StatsHandles;
use netfpga_datapath::stage::{PacketLogic, StageAction};
use netfpga_datapath::LearningSwitchCore;
use netfpga_flowmon::{ExporterHandle, FlowMonHandle, FlowmonConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// Register base of the statistics block.
pub const STATS_BASE: u32 = 0x0000;
/// Register base of the lookup block (hit/flood/learned counters).
pub const LOOKUP_BASE: u32 = 0x1000;

/// Pipeline latency of the lookup stage in cycles (hash read + decision),
/// matching the handful of pipeline stages the RTL core uses.
const LOOKUP_LATENCY: u64 = 8;

struct SwitchLookup {
    core: Rc<RefCell<LearningSwitchCore>>,
}

impl PacketLogic for SwitchLookup {
    fn process(&mut self, packet: &mut PktBuf, meta: &mut Meta, now: Time) -> StageAction {
        let mask = self.core.borrow_mut().forward(packet, meta, now);
        if mask.is_empty() {
            // Destination is the ingress port only (hairpin): drop.
            return StageAction::Drop;
        }
        meta.dst_ports = mask;
        StageAction::Forward
    }

    fn reset(&mut self) {
        self.core.borrow_mut().flush();
    }
}

/// Register view of the lookup core: 0x0 hits, 0x4 floods, 0x8 learned,
/// 0xc learn failures. Any write flushes the table.
struct LookupRegisters {
    core: Rc<RefCell<LearningSwitchCore>>,
}

impl RegisterSpace for LookupRegisters {
    fn read(&mut self, offset: u32) -> u32 {
        let core = self.core.borrow();
        let c = core.counters();
        match offset / 4 {
            0 => c.hits.get() as u32,
            1 => c.floods.get() as u32,
            2 => c.learned.get() as u32,
            3 => c.learn_failures.get() as u32,
            _ => netfpga_core::regs::UNMAPPED_READ,
        }
    }

    fn write(&mut self, _offset: u32, _value: u32) {
        self.core.borrow_mut().flush();
    }
}

/// The assembled reference switch.
pub struct ReferenceSwitch {
    /// The board with this project loaded.
    pub chassis: Chassis,
    /// Shared handle to the learning core (tests inspect the table).
    pub core: Rc<RefCell<LearningSwitchCore>>,
    /// RX statistics handles.
    pub rx_stats: StatsHandles,
    /// Flow-monitor tap handle, when built with a [`FlowmonConfig`].
    pub flowmon: Option<FlowMonHandle>,
    /// Streaming exporter handle (delta ring + Prometheus text), when
    /// built with a [`FlowmonConfig`].
    pub exporter: Option<ExporterHandle>,
}

impl ReferenceSwitch {
    /// Build the switch on `spec` with `nports` ports, a learning table of
    /// `table_capacity` entries and the given aging interval.
    pub fn new(
        spec: &BoardSpec,
        nports: usize,
        table_capacity: usize,
        age_limit: Time,
    ) -> ReferenceSwitch {
        ReferenceSwitch::build(
            &ChassisConfig::new(spec, nports),
            table_capacity,
            age_limit,
            None,
        )
    }

    /// [`ReferenceSwitch::new`] with [`ChassisConfig::fast_path`] set to
    /// `fast_path`. Kept as a forward because the referee benchmark
    /// (`benchmark/src/workloads/switch.rs`) builds its switches with it.
    pub fn with_fast_path(
        spec: &BoardSpec,
        nports: usize,
        table_capacity: usize,
        age_limit: Time,
        fast_path: bool,
    ) -> ReferenceSwitch {
        let config = ChassisConfig {
            fast_path,
            ..ChassisConfig::new(spec, nports)
        };
        ReferenceSwitch::build(&config, table_capacity, age_limit, None)
    }

    /// Build the switch on the chassis `config` describes, with a learning
    /// table of `table_capacity` entries aged after `age_limit`, and the
    /// flow-monitoring plane when `flowmon` is given (see
    /// [`ReferencePipeline::flowmon`]).
    pub fn build(
        config: &ChassisConfig,
        table_capacity: usize,
        age_limit: Time,
        flowmon: Option<FlowmonConfig>,
    ) -> ReferenceSwitch {
        let core = Rc::new(RefCell::new(LearningSwitchCore::new(
            config.nports as u8,
            table_capacity,
            age_limit,
        )));
        let lookup = SwitchLookup { core: core.clone() };
        let Pipeline {
            mut chassis,
            rx_stats,
            flowmon,
            exporter,
        } = ReferencePipeline {
            rx_stats: Some(STATS_BASE),
            flowmon,
            ..ReferencePipeline::new("switch_lookup", LOOKUP_LATENCY, lookup)
        }
        .build(config);
        chassis.map.mount(
            "switch_lookup",
            LOOKUP_BASE,
            0x100,
            shared(LookupRegisters { core: core.clone() }),
        );
        core.borrow()
            .counters()
            .register_stats(&chassis.telemetry, "lookup");
        chassis.attach_mmio();

        ReferenceSwitch {
            chassis,
            core,
            rx_stats: rx_stats.expect("built with an RX stats stage"),
            flowmon,
            exporter,
        }
    }

    /// Approximate FPGA cost (experiment E7).
    pub fn resource_cost(nports: u64) -> ResourceCost {
        blocks::MAC_10G.times(nports)
            + blocks::PCIE_DMA
            + blocks::REG_INTERCONNECT
            + blocks::INPUT_ARBITER
            + blocks::SWITCH_LOOKUP
            + blocks::STATS_STAGE
            + blocks::OUTPUT_QUEUES_PER_PORT.times(nports)
    }

    /// Blocks this project instantiates (E7 reuse matrix row).
    pub fn block_names() -> &'static [&'static str] {
        &[
            "mac_10g",
            "pcie_dma",
            "reg_interconnect",
            "input_arbiter",
            "switch_lookup",
            "stats_stage",
            "output_queues",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_flowmon::FLOWMON_BASE;
    use netfpga_packet::{EthernetAddress, PacketBuilder};

    fn switch() -> ReferenceSwitch {
        ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100))
    }

    fn flowmon_switch() -> ReferenceSwitch {
        let config = ChassisConfig::new(&BoardSpec::sume(), 4);
        let flowmon = Some(FlowmonConfig::default());
        ReferenceSwitch::build(&config, 1024, Time::from_ms(100), flowmon)
    }

    fn mac(x: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, x)
    }

    fn frame(src: u8, dst: u8) -> Vec<u8> {
        PacketBuilder::new()
            .eth(mac(src), mac(dst))
            .raw(netfpga_packet::EtherType::Ipv4, &[src; 50])
            .build()
    }

    #[test]
    fn unknown_destination_floods_all_but_ingress() {
        let mut sw = switch();
        sw.chassis.send(0, frame(1, 2));
        sw.chassis.run_for(Time::from_us(10));
        assert!(sw.chassis.recv(0).is_empty(), "no reflection");
        for p in 1..4 {
            assert_eq!(sw.chassis.recv(p).len(), 1, "flooded to port {p}");
        }
    }

    #[test]
    fn learning_converges_to_unicast() {
        let mut sw = switch();
        // Station A (mac 1) on port 0; station B (mac 2) on port 2.
        sw.chassis.send(0, frame(1, 2)); // flood, learn A@0
        sw.chassis.run_for(Time::from_us(10));
        for p in 0..4 {
            sw.chassis.recv(p);
        }
        sw.chassis.send(2, frame(2, 1)); // unicast to port 0, learn B@2
        sw.chassis.run_for(Time::from_us(10));
        assert_eq!(sw.chassis.recv(0).len(), 1);
        assert!(sw.chassis.recv(1).is_empty());
        assert!(sw.chassis.recv(3).is_empty());
        sw.chassis.send(0, frame(1, 2)); // now unicast to port 2
        sw.chassis.run_for(Time::from_us(10));
        assert_eq!(sw.chassis.recv(2).len(), 1);
        assert!(sw.chassis.recv(1).is_empty());
        assert!(sw.chassis.recv(3).is_empty());
    }

    #[test]
    fn broadcast_floods() {
        let mut sw = switch();
        let bcast = PacketBuilder::new()
            .eth(mac(1), EthernetAddress::BROADCAST)
            .raw(netfpga_packet::EtherType::Arp, &[0; 46])
            .build();
        sw.chassis.send(3, bcast);
        sw.chassis.run_for(Time::from_us(10));
        for p in 0..3 {
            assert_eq!(sw.chassis.recv(p).len(), 1, "port {p}");
        }
        assert!(sw.chassis.recv(3).is_empty());
    }

    #[test]
    fn hairpin_to_ingress_is_dropped() {
        let mut sw = switch();
        // Learn A@0, then send a frame addressed to A in on port 0.
        sw.chassis.send(0, frame(1, 9));
        sw.chassis.run_for(Time::from_us(10));
        for p in 0..4 {
            sw.chassis.recv(p);
        }
        sw.chassis.send(0, frame(3, 1)); // dst = mac 1, learned on port 0
        sw.chassis.run_for(Time::from_us(10));
        for p in 0..4 {
            assert!(sw.chassis.recv(p).is_empty(), "port {p}");
        }
    }

    #[test]
    fn registers_expose_lookup_stats() {
        let mut sw = switch();
        sw.chassis.send(0, frame(1, 2)); // flood
        sw.chassis.run_for(Time::from_us(10));
        sw.chassis.send(1, frame(2, 1)); // hit
        sw.chassis.run_for(Time::from_us(10));
        assert_eq!(sw.chassis.read32(LOOKUP_BASE), 1, "hits");
        assert_eq!(sw.chassis.read32(LOOKUP_BASE + 4), 1, "floods");
        assert_eq!(sw.chassis.read32(LOOKUP_BASE + 8), 2, "learned");
        assert_eq!(sw.chassis.read32(STATS_BASE), 2, "rx packets");
        // Write flushes the table: next frame floods again.
        sw.chassis.write32(LOOKUP_BASE, 1);
        sw.chassis.send(0, frame(1, 2));
        sw.chassis.run_for(Time::from_us(10));
        assert_eq!(sw.chassis.read32(LOOKUP_BASE + 4), 2, "flood after flush");
    }

    /// The burst fast path must be functionally invisible: the same
    /// traffic pattern produces the same frames on the same ports, the
    /// same learning-table evolution, and the same register counters as
    /// the cycle-paced build.
    #[test]
    fn fast_path_is_functionally_identical() {
        let run = |fast: bool| {
            let mut sw = ReferenceSwitch::with_fast_path(
                &BoardSpec::sume(),
                4,
                1024,
                Time::from_ms(100),
                fast,
            );
            // A mixed workload: floods, learned unicasts, a broadcast and
            // a hairpin drop, phased so learning order is deterministic.
            let flows = [(0, 1, 2), (2, 2, 1), (1, 3, 2), (0, 1, 3), (3, 4, 1)];
            for &(port, src, dst) in &flows {
                sw.chassis.send(port, frame(src, dst));
                sw.chassis.run_for(Time::from_us(10));
            }
            sw.chassis.send(0, frame(3, 1)); // hairpin: dst learned on port 0
            for _ in 0..20 {
                sw.chassis.send(1, frame(3, 2)); // sustained unicast burst
            }
            sw.chassis.run_for(Time::from_us(50));
            let per_port: Vec<Vec<Vec<u8>>> = (0..4).map(|p| sw.chassis.recv(p)).collect();
            let hits = sw.chassis.read32(LOOKUP_BASE);
            let floods = sw.chassis.read32(LOOKUP_BASE + 4);
            let learned = sw.chassis.read32(LOOKUP_BASE + 8);
            let rx_packets = sw.chassis.read32(STATS_BASE);
            (per_port, hits, floods, learned, rx_packets)
        };
        assert_eq!(run(false), run(true));
    }

    fn udp(src: u8, dst: u8, sport: u16) -> Vec<u8> {
        use netfpga_packet::Ipv4Address;
        PacketBuilder::new()
            .eth(mac(src), mac(dst))
            .ipv4(
                Ipv4Address::new(10, 0, 0, src),
                Ipv4Address::new(10, 0, 0, dst),
            )
            .udp(sport, 80, &[0xab; 40])
            .build()
    }

    #[test]
    fn flowmon_switch_accounts_flows_end_to_end() {
        let mut sw = flowmon_switch();
        let mon = sw.flowmon.clone().expect("flowmon mounted");
        // Three flows with distinct packet counts: 6, 3, 1.
        for _ in 0..6 {
            sw.chassis.send(0, udp(1, 2, 1000));
        }
        for _ in 0..3 {
            sw.chassis.send(1, udp(2, 1, 2000));
        }
        sw.chassis.send(2, udp(3, 1, 3000));
        // Long enough for delivery plus at least one exporter sample at
        // the default 50 µs cadence.
        sw.chassis.run_for(Time::from_us(150));
        assert_eq!(mon.counters().packets.get(), 10);
        assert_eq!(mon.tracked(), 3);
        let top = mon.top_talkers(2);
        assert_eq!(top[0].packets, 6);
        assert_eq!((top[0].flow.src_port, top[1].flow.src_port), (1000, 2000));
        // The MMIO block self-describes and matches the handle.
        assert_eq!(
            sw.chassis.read32(FLOWMON_BASE),
            netfpga_flowmon::FLOWMON_MAGIC
        );
        assert_eq!(sw.chassis.read32(FLOWMON_BASE + 0x10), 3, "flows tracked");
        assert_eq!(sw.chassis.read32(FLOWMON_BASE + 0x14), 10, "packets");
        // Quantile gauges exist and the exporter has sampled.
        let exp = sw.exporter.clone().expect("exporter mounted");
        assert!(exp.snapshots() > 0, "exporter sampled during the run");
        let prom = exp.prometheus();
        assert!(prom.contains("netfpga_flowmon_packets 10\n"), "{prom}");
        assert!(prom.contains("netfpga_port0_q0_depth_p99 "));
    }

    /// The tap must be invisible to forwarding: same frames on the same
    /// ports, same learning evolution, same lookup counters as a
    /// flowmon-less build.
    #[test]
    fn flowmon_tap_is_functionally_invisible() {
        let run = |flowmon: bool| {
            let mut sw = if flowmon { flowmon_switch() } else { switch() };
            let flows = [(0u8, 1u8, 2u8), (2, 2, 1), (1, 3, 2), (0, 1, 3)];
            for &(port, src, dst) in &flows {
                sw.chassis.send(usize::from(port), udp(src, dst, 4000));
                sw.chassis.run_for(Time::from_us(10));
            }
            sw.chassis.run_for(Time::from_us(50));
            let per_port: Vec<Vec<Vec<u8>>> = (0..4).map(|p| sw.chassis.recv(p)).collect();
            let hits = sw.chassis.read32(LOOKUP_BASE);
            let floods = sw.chassis.read32(LOOKUP_BASE + 4);
            (per_port, hits, floods)
        };
        assert_eq!(run(false), run(true));
    }

    /// A word-level tapped switch moves a 1514 B frame (48 beats) past the
    /// tap a burst per tick, not a beat: the tap's port charges both of its
    /// channels, so it ticks when a burst starts and when its last beat
    /// passes.
    #[test]
    fn word_level_tap_ticks_per_burst_not_per_beat() {
        let mut sw = flowmon_switch();
        let frames = 20;
        for i in 0..frames {
            let frame = PacketBuilder::new()
                .eth(mac(i as u8 + 1), mac(0xee))
                .raw(netfpga_packet::EtherType::Ipv4, &[0; 1500])
                .build();
            sw.chassis.send(i % 4, frame);
        }
        sw.chassis.run_for(Time::from_us(100));
        assert_eq!(
            sw.flowmon
                .as_ref()
                .expect("tapped")
                .counters()
                .packets
                .get(),
            20
        );
        let ticks = sw.chassis.sim.module_ticks();
        let (_, tap) = ticks
            .iter()
            .find(|(name, _)| name == "flow_tap")
            .expect("tap");
        assert!(*tap <= 12 * 20, "{tap} tap ticks for 20 frames of 48 beats");
    }

    #[test]
    fn resource_cost_fits() {
        assert!(ReferenceSwitch::resource_cost(4).fits(&BoardSpec::sume().resources));
        // Switch costs more than NIC (extra lookup logic).
        assert!(
            ReferenceSwitch::resource_cost(4).luts
                > crate::reference_nic::ReferenceNic::resource_cost(4).luts
        );
    }
}
