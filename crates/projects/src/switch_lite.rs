//! The reference switch_lite project: the cut-down learning switch that
//! ships alongside the full one — no host datapath, no per-port class
//! queues, just MACs, arbiter, learning lookup and a single shared output
//! FIFO per port. It exists (here as on the platform) to show the modular
//! scale-down: remove blocks and the design still works, with a fraction
//! of the resources.

use crate::harness::{Chassis, ChassisIo};
use netfpga_core::board::BoardSpec;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::regs::AddressMap;
use netfpga_core::resources::ResourceCost;
use netfpga_core::sim::{Module, TickContext};
use netfpga_core::stream::{segment_buf, Burst, Meta, Reassembler, Stream, StreamRx, StreamTx};
use netfpga_core::time::Time;
use netfpga_datapath::blocks;
use netfpga_datapath::stage::{PacketLogic, StageAction};
use netfpga_datapath::{InputArbiter, LearningSwitchCore, PacketStage};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A minimal 1-to-N splitter: pops one word per cycle, reassembles, and
/// copies each completed packet to every destination port's stream with no
/// intermediate queueing beyond the channel FIFOs (switch_lite has no
/// output-queue block). If any destination channel lacks space the packet
/// stalls — shared-FIFO head-of-line blocking, the documented cost of the
/// lite design.
struct LiteSplitter {
    name: String,
    input: StreamRx,
    outputs: Vec<StreamTx>,
    reasm: Reassembler,
    /// Packets waiting to be copied out.
    staging: VecDeque<(Meta, PktBuf)>,
    /// Per port, the beats of the copy being emitted that are still to go.
    emitting: Vec<Option<Burst>>,
}

impl LiteSplitter {
    fn new(name: &str, input: StreamRx, outputs: Vec<StreamTx>) -> LiteSplitter {
        let n = outputs.len();
        LiteSplitter {
            name: name.to_string(),
            input,
            outputs,
            reasm: Reassembler::new(),
            staging: VecDeque::new(),
            emitting: vec![None; n],
        }
    }
}

impl Module for LiteSplitter {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, _ctx: &TickContext) {
        // Ingest unless staging is backed up (tiny elasticity of 2).
        if self.staging.len() < 2 {
            if let Some(word) = self.input.pop() {
                if let Some((packet, meta)) = self.reasm.push(word) {
                    if !meta.dst_ports.is_empty() {
                        self.staging.push_back((meta, packet));
                    }
                }
            }
        }
        // Start copying the head packet once every involved port is idle.
        if let Some((meta, _)) = self.staging.front() {
            let ports: Vec<usize> = meta.dst_ports.iter().map(usize::from).collect();
            if ports
                .iter()
                .all(|&p| p < self.emitting.len() && self.emitting[p].is_none())
            {
                let (meta, packet) = self.staging.pop_front().expect("front exists");
                for p in meta.dst_ports.iter() {
                    let p = usize::from(p);
                    if p < self.outputs.len() {
                        let mut m = meta;
                        m.dst_ports = netfpga_core::stream::PortMask::single(p as u8);
                        // Zero-copy flood: every port's words are views
                        // into the same shared backing buffer.
                        self.emitting[p] = Some(segment_buf(&packet, self.outputs[p].width(), m));
                    }
                }
            }
        }
        // Emit one word per port per cycle.
        for (slot, output) in self.emitting.iter_mut().zip(&self.outputs) {
            output.push_burst(slot, 1);
        }
    }

    fn reset(&mut self) {
        self.reasm = Reassembler::new();
        self.staging.clear();
        self.emitting.fill(None);
    }
}

struct LiteLookup {
    core: Rc<RefCell<LearningSwitchCore>>,
}

impl PacketLogic for LiteLookup {
    fn process(&mut self, packet: &mut PktBuf, meta: &mut Meta, now: Time) -> StageAction {
        let mask = self.core.borrow_mut().forward(packet, meta, now);
        if mask.is_empty() {
            return StageAction::Drop;
        }
        meta.dst_ports = mask;
        StageAction::Forward
    }

    fn reset(&mut self) {
        self.core.borrow_mut().flush();
    }
}

/// The assembled switch_lite.
pub struct SwitchLite {
    /// The board with this project loaded.
    pub chassis: Chassis,
    /// The learning core.
    pub core: Rc<RefCell<LearningSwitchCore>>,
}

impl SwitchLite {
    /// Build on `spec` with `nports` ports.
    pub fn new(spec: &BoardSpec, nports: usize, table_capacity: usize, age: Time) -> SwitchLite {
        let (mut chassis, io) = Chassis::new(spec, nports, AddressMap::new());
        let ChassisIo {
            from_ports,
            to_ports,
        } = io;
        let w = chassis.bus_width();
        let core = Rc::new(RefCell::new(LearningSwitchCore::new(
            nports as u8,
            table_capacity,
            age,
        )));
        let (arb_tx, arb_rx) = Stream::new(32, w);
        let arbiter = InputArbiter::new("input_arbiter", from_ports, arb_tx);
        let (lk_tx, lk_rx) = Stream::new(32, w);
        let lookup = PacketStage::new(
            "lite_lookup",
            arb_rx,
            lk_tx,
            4,
            LiteLookup { core: core.clone() },
        );
        let splitter = LiteSplitter::new("lite_splitter", lk_rx, to_ports);
        lookup.register_stats(&chassis.telemetry, "pipeline.lookup");
        LearningSwitchCore::register_stats(&core, &chassis.telemetry, "lookup");
        chassis.add_module(arbiter);
        chassis.add_module(lookup);
        chassis.add_module(splitter);
        SwitchLite { chassis, core }
    }

    /// Approximate FPGA cost (experiment E7): no DMA datapath buffers, no
    /// per-port output queues — the point of the lite variant.
    pub fn resource_cost(nports: u64) -> ResourceCost {
        blocks::MAC_10G.times(nports)
            + blocks::REG_INTERCONNECT
            + blocks::INPUT_ARBITER
            + blocks::SWITCH_LOOKUP
            + ResourceCost {
                luts: 400,
                ffs: 500,
                bram_kbits: 72,
                dsps: 0,
            } // splitter
    }

    /// Blocks this project instantiates (E7 reuse matrix row).
    pub fn block_names() -> &'static [&'static str] {
        &[
            "mac_10g",
            "reg_interconnect",
            "input_arbiter",
            "switch_lookup",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_packet::{EthernetAddress, PacketBuilder};

    fn mac(x: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, x)
    }

    fn frame(src: u8, dst: u8) -> Vec<u8> {
        PacketBuilder::new()
            .eth(mac(src), mac(dst))
            .raw(netfpga_packet::EtherType::Ipv4, &[src; 50])
            .build()
    }

    fn lite() -> SwitchLite {
        SwitchLite::new(&BoardSpec::sume(), 4, 256, Time::from_ms(100))
    }

    #[test]
    fn floods_and_learns_like_the_full_switch() {
        let mut sw = lite();
        sw.chassis.send(0, frame(1, 2));
        sw.chassis.run_for(Time::from_us(20));
        for p in 1..4 {
            assert_eq!(sw.chassis.recv(p).len(), 1, "flood to {p}");
        }
        assert!(sw.chassis.recv(0).is_empty());
        sw.chassis.send(2, frame(2, 1));
        sw.chassis.run_for(Time::from_us(20));
        assert_eq!(sw.chassis.recv(0).len(), 1, "unicast back");
        assert!(sw.chassis.recv(1).is_empty());
        assert!(sw.chassis.recv(3).is_empty());
    }

    #[test]
    fn sustained_traffic_no_loss_within_elasticity() {
        let mut sw = lite();
        // Learn both stations first.
        sw.chassis.send(0, frame(1, 2));
        sw.chassis.run_for(Time::from_us(20));
        sw.chassis.send(1, frame(2, 1));
        sw.chassis.run_for(Time::from_us(20));
        for p in 0..4 {
            sw.chassis.recv(p);
        }
        // One-directional stream at line rate: lite forwards it all.
        for _ in 0..100 {
            sw.chassis.send(0, frame(1, 2));
        }
        sw.chassis.run_for(Time::from_ms(1));
        assert_eq!(sw.chassis.recv(1).len(), 100);
    }

    #[test]
    fn cheaper_than_the_full_switch() {
        let lite = SwitchLite::resource_cost(4);
        let full = crate::reference_switch::ReferenceSwitch::resource_cost(4);
        assert!(lite.luts < full.luts);
        assert!(lite.bram_kbits < full.bram_kbits);
        assert!(lite.fits(&BoardSpec::sume().resources));
    }

    /// The documented weakness of the lite design: head-of-line blocking.
    /// Two flows to different ports share fate when one egress is slow —
    /// here both stall behind a multicast that needs every port free.
    #[test]
    fn behaves_under_multicast_bursts() {
        let mut sw = lite();
        // Broadcast burst: every frame must reach 3 ports.
        for _ in 0..10 {
            sw.chassis.send(
                0,
                PacketBuilder::new()
                    .eth(mac(1), EthernetAddress::BROADCAST)
                    .raw(netfpga_packet::EtherType::Arp, &[0; 46])
                    .build(),
            );
        }
        sw.chassis.run_for(Time::from_ms(1));
        for p in 1..4 {
            assert_eq!(sw.chassis.recv(p).len(), 10, "port {p}");
        }
    }
}
