//! The reference NIC project: every NetFPGA release's first design.
//!
//! Received frames flow `rx MACs → input arbiter → stats → DMA → host`;
//! host frames flow `DMA → output queues → tx MACs`, with the egress port
//! taken from the destination mask the driver sets in the packet metadata
//! (the real driver writes it into `tuser` through the DMA descriptor).

use crate::harness::{Chassis, ChassisConfig, ChassisIo};
use netfpga_core::board::BoardSpec;
use netfpga_core::resources::ResourceCost;
use netfpga_core::stream::Stream;
use netfpga_datapath::blocks;
use netfpga_datapath::pktstats::{StatsHandles, StatsStage};
use netfpga_datapath::queues::{OutputQueues, QueueConfig};
use netfpga_datapath::sched::Fifo;
use netfpga_datapath::InputArbiter;

/// Register-map base of the RX statistics block.
pub const STATS_BASE: u32 = 0x0000;

/// The assembled reference NIC.
pub struct ReferenceNic {
    /// The board with this project loaded.
    pub chassis: Chassis,
    /// RX-path statistics handles (same counters the register block shows).
    pub rx_stats: StatsHandles,
}

impl ReferenceNic {
    /// Build the NIC on `spec` with `nports` ports.
    pub fn new(spec: &BoardSpec, nports: usize) -> ReferenceNic {
        ReferenceNic::build(&ChassisConfig::new(spec, nports))
    }

    /// [`ReferenceNic::new`] with [`ChassisConfig::fast_path`] set to
    /// `fast_path`. Kept as a forward because the referee benchmark
    /// (`benchmark/src/workloads/nic.rs`) builds its NIC with it.
    pub fn with_fast_path(spec: &BoardSpec, nports: usize, fast_path: bool) -> ReferenceNic {
        ReferenceNic::build(&ChassisConfig {
            fast_path,
            ..ChassisConfig::new(spec, nports)
        })
    }

    /// Build the NIC on the chassis `config` describes. On the fast path
    /// the arbiter, stats and output queues run in burst mode like the
    /// MACs and the DMA engine (whose bus is still charged a cycle per
    /// beat, so ack, wire-egress and un-back-pressured ring-delivery
    /// instants are those of the word engine — see
    /// [`netfpga_pcie::DmaEngine`]); delivered packets, ports and counters
    /// are identical. A fault plan's stall/drop windows gate the DMA
    /// engine.
    pub fn build(config: &ChassisConfig) -> ReferenceNic {
        let fast_path = config.fast_path;
        let (mut chassis, io) = Chassis::new(config);
        let ChassisIo {
            from_ports,
            to_ports,
        } = io;
        let w = chassis.bus_width();

        // RX path: ports -> arbiter -> stats -> DMA(c2h).
        let (arb_tx, arb_rx) = Stream::new(64, w);
        let arbiter = InputArbiter::new("input_arbiter", from_ports, arb_tx).with_burst(fast_path);
        let (stats_tx, stats_rx) = Stream::new(64, w);
        let (stats_stage, rx_stats) = StatsStage::new("rx_stats", arb_rx, stats_tx, config.nports);
        let stats_stage = stats_stage.with_burst(fast_path);

        // TX path: DMA(h2c) -> output queues -> ports.
        let (h2c_tx, h2c_rx) = Stream::new(64, w);
        let oq = OutputQueues::new(
            "output_queues",
            h2c_rx,
            to_ports,
            QueueConfig::default(),
            || Box::new(Fifo),
        )
        .with_burst(fast_path);

        oq.counters().register_stats(&chassis.telemetry, "oq");
        oq.register_depth_gauges(&chassis.telemetry, "");
        chassis.add_module(arbiter);
        chassis.add_module(stats_stage);
        chassis.add_module(oq);
        chassis.attach_dma(h2c_tx, stats_rx);
        chassis.mount_rx_stats(STATS_BASE, &rx_stats);
        chassis.attach_mmio();

        ReferenceNic { chassis, rx_stats }
    }

    /// Approximate FPGA cost of this design (experiment E7).
    pub fn resource_cost(nports: u64) -> ResourceCost {
        blocks::MAC_10G.times(nports)
            + blocks::PCIE_DMA
            + blocks::REG_INTERCONNECT
            + blocks::INPUT_ARBITER
            + blocks::NIC_LOOKUP
            + blocks::STATS_STAGE
            + blocks::OUTPUT_QUEUES_PER_PORT.times(nports)
    }

    /// The blocks this project instantiates (E7 reuse matrix row).
    pub fn block_names() -> &'static [&'static str] {
        &[
            "mac_10g",
            "pcie_dma",
            "reg_interconnect",
            "input_arbiter",
            "nic_lookup",
            "stats_stage",
            "output_queues",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::time::Time;
    use netfpga_packet::PacketBuilder;

    fn nic() -> ReferenceNic {
        ReferenceNic::new(&BoardSpec::sume(), 4)
    }

    fn frame(tag: u8) -> Vec<u8> {
        PacketBuilder::new()
            .eth(
                netfpga_packet::EthernetAddress::new(2, 0, 0, 0, 0, tag),
                netfpga_packet::EthernetAddress::new(2, 0, 0, 0, 0, 0xff),
            )
            .raw(netfpga_packet::EtherType::Ipv4, &[tag; 46])
            .build()
    }

    #[test]
    fn rx_frames_reach_host_with_port() {
        let mut nic = nic();
        nic.chassis.send(1, frame(0x11));
        nic.chassis.send(3, frame(0x33));
        nic.chassis.run_for(Time::from_us(10));
        let dma = nic.chassis.dma.clone().unwrap();
        let mut got = Vec::new();
        while let Some((pkt, meta)) = dma.recv() {
            got.push((meta.src_port, pkt));
        }
        got.sort_by_key(|(p, _)| *p);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 1);
        assert_eq!(got[0].1, frame(0x11));
        assert_eq!(got[1].0, 3);
        assert_eq!(nic.rx_stats.total_packets.get(), 2);
    }

    #[test]
    fn host_frames_exit_requested_port() {
        let mut nic = nic();
        let dma = nic.chassis.dma.clone().unwrap();
        let meta = netfpga_core::stream::Meta {
            dst_ports: netfpga_core::stream::PortMask::single(2),
            ..Default::default()
        };
        assert!(dma.send_with_meta(frame(0x77), meta).is_ok());
        nic.chassis.run_for(Time::from_us(10));
        assert_eq!(nic.chassis.recv(2), vec![frame(0x77)]);
        assert!(nic.chassis.recv(0).is_empty());
    }

    #[test]
    fn bidirectional_traffic() {
        let mut nic = nic();
        let dma = nic.chassis.dma.clone().unwrap();
        for i in 0..10u8 {
            nic.chassis.send(0, frame(i));
            let meta = netfpga_core::stream::Meta {
                dst_ports: netfpga_core::stream::PortMask::single(1),
                ..Default::default()
            };
            assert!(dma.send_with_meta(frame(100 + i), meta).is_ok());
        }
        nic.chassis.run_for(Time::from_us(50));
        let mut host_rx = 0;
        while dma.recv().is_some() {
            host_rx += 1;
        }
        assert_eq!(host_rx, 10);
        assert_eq!(nic.chassis.recv(1).len(), 10);
    }

    #[test]
    fn resource_cost_fits_sume() {
        let cost = ReferenceNic::resource_cost(4);
        assert!(cost.fits(&BoardSpec::sume().resources));
        assert!(!ReferenceNic::block_names().is_empty());
    }

    /// What one bidirectional run of the fast-path NIC let out, as
    /// signatures (FNV-1a over the sequences) beside the counts.
    #[derive(Debug, PartialEq)]
    struct FastPathRun {
        /// `(seq, instant)` of every TX completion, in ring order.
        acks: (usize, u64),
        /// `(port, wire-completion instant, bytes)` of every egress frame.
        wire: (usize, u64),
        /// `(instant, ingress port, bytes)` of every RX-ring delivery, in
        /// ring order.
        ring: (usize, u64),
        /// The same deliveries per ingress port, without instants: what
        /// survives a different interleaving of the ports.
        ring_per_port: u64,
        /// Every registry counter and gauge but the kernel's own and the
        /// process-wide buffer pool's.
        counters: u64,
    }

    /// Drive the fast-path NIC for 200 µs: seeded 60–1514 B frames at line
    /// rate on `wire_ports` towards the host, one sequenced host frame a
    /// microsecond out of the ports in turn, the RX ring polled on every
    /// edge so deliveries carry their instant.
    fn fast_path_run(wire_ports: &[usize]) -> FastPathRun {
        use netfpga_core::hash::Fnv1a64;
        use netfpga_core::rng::SimRng;
        use netfpga_core::stream::{Meta, PortMask};
        use std::hash::Hasher;

        let mut nic = ReferenceNic::with_fast_path(&BoardSpec::sume(), 4, true);
        let dma = nic.chassis.dma.clone().unwrap();
        let mut rng = SimRng::new(0x15);
        let mut tagged = |origin: u8, seq: u32| {
            let mut f = vec![origin; rng.range(60, 1515) as usize];
            f[14..18].copy_from_slice(&seq.to_le_bytes());
            f
        };
        // 150 µs of line rate per port: 1514 B frames take 1.23 µs each.
        for seq in 0..122 {
            for &port in wire_ports {
                nic.chassis.send(port, tagged(port as u8, seq));
            }
        }
        let (mut acks, mut wire, mut ring) =
            (Fnv1a64::default(), Fnv1a64::default(), Fnv1a64::default());
        let (mut nacks, mut nwire, mut nring) = (0, 0, 0);
        let mut per_port = vec![Fnv1a64::default(); 4];
        for edge in 0..40_000u32 {
            if edge % 200 == 0 && edge < 30_000 {
                let seq = edge / 200;
                let meta = Meta {
                    dst_ports: PortMask::single((seq % 4) as u8),
                    ..Default::default()
                };
                dma.send_sequenced(tagged(0xcc, seq), meta, u64::from(seq))
                    .expect("ring has room");
            }
            nic.chassis.sim.run_cycles(nic.chassis.clk, 1);
            let now = nic.chassis.sim.now();
            while let Some((frame, meta)) = dma.recv() {
                ring.write_u64(now.as_ps());
                ring.write_u8(meta.src_port);
                ring.write(&frame);
                per_port[usize::from(meta.src_port)].write(&frame);
                nring += 1;
            }
            while let Some(c) = dma.pop_completion() {
                acks.write_u64(c.seq);
                acks.write_u64(c.at.as_ps());
                nacks += 1;
            }
        }
        for port in 0..4 {
            for (frame, at) in nic.chassis.recv_timed(port) {
                wire.write_u8(port as u8);
                wire.write_u64(at.as_ps());
                wire.write(&frame);
                nwire += 1;
            }
        }
        let mut counters = Fnv1a64::default();
        for (path, value) in nic.chassis.telemetry.snapshot() {
            if !path.starts_with("kernel.") && !path.starts_with("pool.") {
                counters.write(path.as_bytes());
                counters.write_u64(value);
            }
        }
        let mut ring_per_port = Fnv1a64::default();
        for h in per_port {
            ring_per_port.write_u64(h.finish());
        }
        FastPathRun {
            acks: (nacks, acks.finish()),
            wire: (nwire, wire.finish()),
            ring: (nring, ring.finish()),
            ring_per_port: ring_per_port.finish(),
            counters: counters.finish(),
        }
    }

    /// The burst-mode DMA engine charges its bus instead of ticking it, so
    /// the fast-path NIC lets out what it does with the engine word-level.
    /// Acks, wire egress, per-port ring contents and counters are from that
    /// NIC at commit c52addb (same fast-path modules, word engine) on the
    /// same two runs and have not moved since. The two `ring` signatures
    /// were re-taken the same way — `Chassis::attach_dma` forced to the word
    /// engine — when card-to-host became two stages: a frame is in the ring
    /// after its own crossing, no longer before the link is charged for it.
    /// The engine now absorbs the next frame while one crosses, so four
    /// ports at line rate no longer back-pressure the chain and that run is
    /// pinned in full as well (it used to leave the arbiter's interleaving
    /// of the ports open).
    #[test]
    fn fast_path_nic_lets_out_what_the_word_engine_nic_did() {
        let idle = fast_path_run(&[0, 2]);
        let want = FastPathRun {
            acks: (150, 0x790e_878c_edd2_1fae),
            wire: (150, 0x88ed_0707_2eaa_31ed),
            ring: (244, 0x65c3_6c5b_eaa4_c720),
            ring_per_port: 0xd21c_3594_4876_9321,
            counters: 0x9170_df80_8bad_1e57,
        };
        assert_eq!(idle, want, "un-back-pressured run");

        let four_ports = fast_path_run(&[0, 1, 2, 3]);
        let want = FastPathRun {
            acks: (150, 0x0d1a_baac_f3e5_bcd1),
            wire: (150, 0xc5cd_2af5_de16_f137),
            ring: (488, 0x75fd_15dc_8948_3576),
            ring_per_port: 0x2052_622f_01f8_f471,
            counters: 0x377b_146c_188e_3e7d,
        };
        assert_eq!(four_ports, want, "4 × 10G towards the host");
    }
}
