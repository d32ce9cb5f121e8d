//! The reference switch_lite project: the cut-down learning switch that
//! ships alongside the full one — no host datapath, no per-port class
//! queues, just MACs, arbiter, learning lookup and a single shared output
//! FIFO per port. It exists (here as on the platform) to show the modular
//! scale-down: remove blocks and the design still works, with a fraction
//! of the resources.

use crate::harness::{Chassis, ChassisConfig, ChassisIo};
use netfpga_core::board::BoardSpec;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::resources::ResourceCost;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stream::{Meta, PacketRx, PacketTx, PortMask, Stream, StreamRx, StreamTx};
use netfpga_core::time::Time;
use netfpga_datapath::blocks;
use netfpga_datapath::stage::{PacketLogic, StageAction};
use netfpga_datapath::{InputArbiter, LearningSwitchCore, PacketStage};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A minimal 1-to-N splitter: one word per cycle in through a [`PacketRx`],
/// and each completed packet copied out through the [`PacketTx`] of every
/// destination port, with no intermediate queueing beyond the channel FIFOs
/// (switch_lite has no output-queue block). A packet starts only once every
/// port it goes to takes one — shared-FIFO head-of-line blocking, the
/// documented cost of the lite design.
struct LiteSplitter {
    name: String,
    rx: PacketRx,
    tx: Vec<PacketTx>,
    /// Packets waiting to be copied out.
    staging: VecDeque<(Meta, PktBuf)>,
    wake: WakeHandle,
}

impl LiteSplitter {
    fn new(name: &str, input: StreamRx, outputs: Vec<StreamTx>) -> LiteSplitter {
        let wake = WakeHandle::new();
        LiteSplitter {
            name: name.to_string(),
            rx: PacketRx::new(input, &wake),
            tx: outputs
                .into_iter()
                .map(|o| PacketTx::new(o, &wake))
                .collect(),
            staging: VecDeque::new(),
            wake,
        }
    }

    /// Ingest unless staging is backed up (tiny elasticity of 2).
    fn willing(&self) -> bool {
        self.staging.len() < 2
    }
}

impl Module for LiteSplitter {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        while let Some((packet, meta)) = self.rx.poll(self.willing(), ctx) {
            if !meta.dst_ports.is_empty() {
                self.staging.push_back((meta, packet));
            }
        }
        let mut free = PortMask::EMPTY;
        for (p, tx) in self.tx.iter_mut().enumerate() {
            if tx.emit(ctx) {
                free.insert(p as u8);
            }
        }
        let Some((meta, _)) = self.staging.front() else {
            return;
        };
        if meta.dst_ports.iter().all(|p| free.contains(p)) {
            let (meta, packet) = self.staging.pop_front().expect("front exists");
            for p in meta.dst_ports.iter() {
                // Zero-copy flood: every port's words are views into the
                // same shared backing buffer.
                let tx = &mut self.tx[usize::from(p)];
                let dst_ports = PortMask::single(p);
                tx.stage(packet.clone(), Meta { dst_ports, ..meta });
                tx.emit(ctx);
            }
        }
    }

    fn reset(&mut self) {
        self.rx.reset();
        self.tx.iter_mut().for_each(PacketTx::reset);
        self.staging.clear();
    }

    fn soft_reset(&mut self) {
        self.rx.soft_reset();
        self.tx.iter_mut().for_each(PacketTx::soft_reset);
    }

    /// The ports' answers — the ingest port's willing below two staged,
    /// each egress port's for the copy it is emitting — joined with when
    /// the head packet can start: once the last port it goes to takes a
    /// packet.
    fn activity(&self) -> Activity {
        let head = self.staging.front().and_then(|(meta, _)| {
            meta.dst_ports.iter().try_fold(Time::ZERO, |latest, p| {
                match self.tx.get(usize::from(p))?.activity(Some(Time::ZERO)) {
                    Activity::Quiescent => None,
                    Activity::Active => Some(latest),
                    Activity::Bounded(t) => Some(latest.max(t)),
                }
            })
        });
        let ingest = self.rx.activity(self.willing());
        let start = head.map_or(Activity::Quiescent, Activity::at);
        self.tx
            .iter()
            .fold(ingest.join(start), |all, tx| all.join(tx.activity(None)))
    }

    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
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
        let (mut chassis, io) = Chassis::new(&ChassisConfig::new(spec, nports));
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
        lookup
            .counters()
            .register_stats(&chassis.telemetry, "pipeline.lookup");
        core.borrow()
            .counters()
            .register_stats(&chassis.telemetry, "lookup");
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

    /// Drained, the lite switch is idle: every module quiescent, and not
    /// one of them ticked over 10 000 idle cycles.
    #[test]
    fn drained_switch_executes_no_ticks() {
        let mut sw = lite();
        for p in 0..4 {
            sw.chassis.send(p, frame(p as u8 + 1, 0xee));
        }
        sw.chassis.run_for(Time::from_us(20));
        assert_eq!(sw.chassis.recv(1).len(), 3, "three floods reach port 1");
        assert!(sw.chassis.sim.all_quiescent());
        let ticks =
            |sw: &SwitchLite| -> u64 { sw.chassis.sim.module_ticks().iter().map(|(_, n)| n).sum() };
        let before = ticks(&sw);
        let clk = sw.chassis.clk;
        sw.chassis.sim.run_cycles(clk, 10_000);
        assert_eq!(ticks(&sw), before);
    }
}
