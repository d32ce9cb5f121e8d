//! Single-module rigs: one module alone between a packet source and a
//! packet sink in a bare simulator, fed the `switch_unicast_64` stream
//! (60-byte frames), plus a handful of pure-function kernels. Each rig's
//! figure minus the stream floor is that layer's share of what
//! `core.sim.run.ns_per_frame` shows for a whole design.
//!
//! "word" rigs run the module as built; "burst" rigs run it
//! `with_burst(true)`. The two stream floors are the source wired straight
//! to the sink on the 32-byte bus (two words per frame) and on a 64-byte
//! bus (the frame is one transfer).

use crate::estimator::{low_quartile, Calibrator, CU_NOMINAL_NS};
use crate::gen::{station_mac, udp_frame, Rng};
use netfpga_core::packetio::{CaptureBuffer, InjectQueue, PacketSink, PacketSource};
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::sim::{ClockId, Simulator};
use netfpga_core::stream::{Meta, PortMask, Stream, StreamRx, StreamTx};
use netfpga_core::time::{BitRate, Frequency, Time};
use netfpga_datapath::lpm::{LpmTable, RouteEntry};
use netfpga_datapath::queues::{OutputQueues, QueueConfig};
use netfpga_datapath::sched::Fifo;
use netfpga_datapath::stage::StageAction;
use netfpga_datapath::{InputArbiter, LearningSwitchCore, PacketStage, ParsedHeaders};
use netfpga_flowmon::{CountMinSketch, FiveTuple, SketchConfig};
use netfpga_mem::{Tcam, TcamEntry, TernaryKey};
use netfpga_packet::{EthernetAddress, Ipv4Address, Ipv4Cidr, PacketBuilder};
use netfpga_pcie::{DmaEngine, PcieConfig};
use netfpga_phy::mac::{EthMacRx, EthMacTx};
use netfpga_phy::Wire;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const BUS: usize = 32;
const FIFO_WORDS: usize = 64;
/// Frames in flight per injection batch: bounded, so a rig measures
/// steady state, not queue growth.
const BATCH: usize = 128;

/// How much each rig does per repetition, and how many repetitions.
#[derive(Clone, Copy)]
pub struct Effort {
    pub frames: usize,
    pub calls: usize,
    pub reps: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        frames: 4096,
        calls: 20_000,
        reps: 9,
    };
    pub const SMOKE: Effort = Effort {
        frames: 256,
        calls: 1000,
        reps: 2,
    };
}

/// Calibrated nanoseconds per unit of work: `work` runs `units` units per
/// call; the lower quartile over `reps` of (wall ÷ the faster adjacent CU)
/// is converted with the nominal CU.
fn calibrated(cal: &mut Calibrator, effort: Effort, units: usize, mut work: impl FnMut()) -> f64 {
    work(); // warm
    let mut ratios = Vec::with_capacity(effort.reps);
    let mut before = cal.run();
    for _ in 0..effort.reps {
        let t = Instant::now();
        work();
        let wall = t.elapsed();
        let after = cal.run();
        let cu = before.min(after).as_nanos() as f64;
        ratios.push(wall.as_nanos() as f64 / units as f64 / cu);
        before = after;
    }
    low_quartile(&ratios) * CU_NOMINAL_NS
}

/// A bare simulator with a source feeding `head` and a sink draining
/// `tail`; whatever sits between them was added by the caller.
struct Bench {
    sim: Simulator,
    clk: ClockId,
    inject: InjectQueue,
    capture: CaptureBuffer,
    frame: PktBuf,
}

impl Bench {
    /// `wire(sim, clk, from_source, to_sink)` adds the module under test.
    fn new(bus: usize, wire: impl FnOnce(&mut Simulator, ClockId, StreamRx, StreamTx)) -> Bench {
        let (src_tx, src_rx) = Stream::new(FIFO_WORDS, bus);
        let (snk_tx, snk_rx) = Stream::new(FIFO_WORDS, bus);
        Bench::assemble(src_tx, snk_rx, |sim, clk| wire(sim, clk, src_rx, snk_tx))
    }

    /// The stream floor: the source wired straight to the sink.
    fn floor(bus: usize) -> Bench {
        let (tx, rx) = Stream::new(FIFO_WORDS, bus);
        Bench::assemble(tx, rx, |_, _| {})
    }

    /// Source first, then whatever `between` adds, then the sink: the order
    /// the modules tick in.
    fn assemble(
        source_out: StreamTx,
        sink_in: StreamRx,
        between: impl FnOnce(&mut Simulator, ClockId),
    ) -> Bench {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (source, inject) = PacketSource::new("source", source_out);
        let (sink, capture) = PacketSink::new("sink", sink_in);
        sim.add_module(clk, source);
        between(&mut sim, clk);
        sim.add_module(clk, sink);
        let frame = udp_frame(60, station_mac(0, 1), station_mac(1, 2), 1, 2, 64);
        Bench {
            sim,
            clk,
            inject,
            capture,
            frame: frame.into(),
        }
    }

    /// Push `frames` through in bounded batches.
    fn pump(&mut self, frames: usize) {
        let meta = Meta {
            len: self.frame.len() as u16,
            dst_ports: PortMask::single(0),
            ..Meta::default()
        };
        let mut done = self.capture.total_packets();
        let target = done + frames as u64;
        while done < target {
            let batch = BATCH.min((target - done) as usize);
            for _ in 0..batch {
                self.inject.push_with_meta(self.frame.clone(), meta);
            }
            let want = done + batch as u64;
            let mut spins = 0;
            while self.capture.total_packets() < want {
                self.sim.run_cycles(self.clk, 64);
                spins += 1;
                assert!(spins < 100_000, "rig stalled");
            }
            self.capture.drain();
            done = want;
        }
    }
}

fn mac_pair(burst: bool) -> Bench {
    Bench::new(BUS, |sim, clk, from_source, to_sink| {
        let wire = Wire::new();
        let (tx, _) = EthMacTx::new("mac_tx", BitRate::gbps(10), from_source, wire.clone());
        let (rx, _) = EthMacRx::new("mac_rx", wire, to_sink, 0);
        sim.add_module(clk, tx.with_burst(burst));
        sim.add_module(clk, rx.with_burst(burst));
    })
}

fn arbiter(burst: bool) -> Bench {
    Bench::new(BUS, |sim, clk, from_source, to_sink| {
        let arb = InputArbiter::new("arbiter", vec![from_source], to_sink);
        sim.add_module(clk, arb.with_burst(burst));
    })
}

fn taught_core() -> LearningSwitchCore {
    let mut core = LearningSwitchCore::new(4, 1024, Time::from_ms(100_000));
    for port in 0..4u8 {
        for index in 0..64 {
            let mac = EthernetAddress::from_bytes(&station_mac(port, index));
            core.decide(mac, mac, port, Time::ZERO);
        }
    }
    core
}

fn lookup_stage() -> Bench {
    Bench::new(BUS, |sim, clk, from_source, to_sink| {
        let mut core = taught_core();
        let stage = PacketStage::new(
            "lookup",
            from_source,
            to_sink,
            8,
            move |packet: &mut PktBuf, meta: &mut Meta, now: Time| {
                meta.dst_ports = core.forward(packet.bytes(), meta, now);
                StageAction::Forward
            },
        );
        sim.add_module(clk, stage.with_burst(true));
    })
}

fn output_queues(burst: bool) -> Bench {
    Bench::new(BUS, |sim, clk, from_source, to_sink| {
        let oq = OutputQueues::new(
            "output_queues",
            from_source,
            vec![to_sink],
            QueueConfig::default(),
            || Box::new(Fifo),
        );
        sim.add_module(clk, oq.with_burst(burst));
    })
}

/// The DMA engine looped back on itself: what the host posts comes back
/// up its receive ring.
fn dma_loop(cal: &mut Calibrator, effort: Effort) -> f64 {
    let mut sim = Simulator::new();
    let clk = sim.add_clock("core", Frequency::mhz(200));
    let (tx, rx) = Stream::new(FIFO_WORDS, BUS);
    let (engine, dma) = DmaEngine::new("dma", PcieConfig::gen3_x8(), tx, rx, 256, 256);
    sim.add_module(clk, engine);
    let frame: PktBuf = udp_frame(60, station_mac(0, 1), station_mac(1, 2), 1, 2, 64).into();
    calibrated(cal, effort, effort.frames, || {
        let mut back = 0;
        while back < effort.frames {
            let batch = BATCH.min(effort.frames - back);
            for _ in 0..batch {
                dma.send(frame.clone(), 0)
                    .expect("ring has room for a batch");
            }
            let mut got = 0;
            let mut spins = 0;
            while got < batch {
                sim.run_cycles(clk, 64);
                while dma.recv().is_some() {
                    got += 1;
                }
                spins += 1;
                assert!(spins < 100_000, "DMA rig stalled");
            }
            back += batch;
        }
    })
}

/// Run every rig once and return its figure by metric name.
pub fn run_all(effort: Effort) -> BTreeMap<String, f64> {
    let mut cal = Calibrator::new();
    cal.run();
    let mut out = BTreeMap::new();
    let mut stream = |name: &str, mut bench: Bench, out: &mut BTreeMap<String, f64>| {
        let ns = calibrated(&mut cal, effort, effort.frames, || {
            bench.pump(effort.frames)
        });
        out.insert(name.to_string(), ns);
    };
    stream(
        "rig.core.stream.word.ns_per_frame",
        Bench::floor(BUS),
        &mut out,
    );
    stream(
        "rig.core.stream.burst.ns_per_frame",
        Bench::floor(2 * BUS),
        &mut out,
    );
    stream(
        "rig.phy.mac_pair.word.ns_per_frame",
        mac_pair(false),
        &mut out,
    );
    stream(
        "rig.phy.mac_pair.burst.ns_per_frame",
        mac_pair(true),
        &mut out,
    );
    stream(
        "rig.datapath.arbiter.word.ns_per_frame",
        arbiter(false),
        &mut out,
    );
    stream(
        "rig.datapath.arbiter.burst.ns_per_frame",
        arbiter(true),
        &mut out,
    );
    stream(
        "rig.datapath.lookup_stage.ns_per_frame",
        lookup_stage(),
        &mut out,
    );
    stream(
        "rig.datapath.output_queues.word.ns_per_frame",
        output_queues(false),
        &mut out,
    );
    stream(
        "rig.datapath.output_queues.burst.ns_per_frame",
        output_queues(true),
        &mut out,
    );
    out.insert(
        "rig.pcie.dma.ns_per_frame".into(),
        dma_loop(&mut cal, effort),
    );

    let calls = effort.calls;
    let mut kernel =
        |name: &str, units: usize, work: &mut dyn FnMut(), out: &mut BTreeMap<String, f64>| {
            out.insert(name.to_string(), calibrated(&mut cal, effort, units, work));
        };

    let src = EthernetAddress::from_bytes(&station_mac(0, 1));
    let dst = EthernetAddress::from_bytes(&station_mac(1, 2));
    kernel(
        "rig.packet.build.ns",
        calls,
        &mut || {
            for i in 0..calls {
                black_box(
                    PacketBuilder::new()
                        .eth(src, dst)
                        .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
                        .udp(4660, 4661 + (i & 7) as u16, &[0u8; 18])
                        .build(),
                );
            }
        },
        &mut out,
    );

    let frame = udp_frame(
        252,
        station_mac(0, 1),
        station_mac(1, 2),
        0x0a00_0001,
        0x0a00_0002,
        64,
    );
    kernel(
        "rig.packet.parse.ns",
        calls,
        &mut || {
            for _ in 0..calls {
                black_box(ParsedHeaders::parse(black_box(&frame)));
            }
        },
        &mut out,
    );

    let big = udp_frame(1514, station_mac(0, 1), station_mac(1, 2), 1, 2, 64);
    let crc_calls = (calls / 20).max(1);
    kernel(
        "rig.packet.crc32.ns_per_byte",
        crc_calls * big.len(),
        &mut || {
            for _ in 0..crc_calls {
                black_box(netfpga_packet::fcs::crc32(black_box(&big)));
            }
        },
        &mut out,
    );

    let mut rng = Rng::new(0x7269_6773);
    let mut lpm = LpmTable::new();
    let mut probes = Vec::new();
    for i in 0..4096u32 {
        let len = 8 + rng.below(25) as u8;
        let network = (rng.next_u64() as u32) & (u32::MAX << (32 - u32::from(len)));
        lpm.insert(
            Ipv4Cidr::new(Ipv4Address::from_u32(network), len),
            RouteEntry {
                next_hop: Ipv4Address::UNSPECIFIED,
                port: (i % 4) as u8,
            },
        );
        probes.push(Ipv4Address::from_u32(
            network | (rng.next_u64() as u32 >> len.min(31)),
        ));
    }
    kernel(
        "rig.datapath.lpm.lookup_ns",
        calls,
        &mut || {
            for i in 0..calls {
                black_box(lpm.lookup(probes[i % probes.len()]));
            }
        },
        &mut out,
    );

    let mut core = taught_core();
    let frames: Vec<Vec<u8>> = (0..64)
        .map(|i| udp_frame(60, station_mac(0, i), station_mac(1, 63 - i), 1, 2, 64))
        .collect();
    let meta = Meta::default();
    kernel(
        "rig.datapath.learn.forward_ns",
        calls,
        &mut || {
            for i in 0..calls {
                black_box(core.forward(&frames[i % frames.len()], &meta, Time::ZERO));
            }
        },
        &mut out,
    );

    let mut tcam: Tcam<u32> = Tcam::new(256, 4);
    for i in 0..256u32 {
        let value = (i << 8).to_be_bytes();
        tcam.insert(TcamEntry {
            key: TernaryKey::new(&value, &[0xff, 0xff, 0xff, 0x00]),
            priority: i,
            value: i,
        });
    }
    kernel(
        "rig.mem.tcam.lookup_ns",
        calls,
        &mut || {
            for i in 0..calls {
                let key = (((i % 256) as u32) << 8 | 0x5a).to_be_bytes();
                black_box(tcam.lookup(&key));
            }
        },
        &mut out,
    );

    let mut sketch = CountMinSketch::new(SketchConfig::default());
    kernel(
        "rig.flowmon.sketch.update_ns",
        calls,
        &mut || {
            for i in 0..calls {
                let flow = FiveTuple {
                    src_ip: 0x0a00_0000 | (i % 4096) as u32,
                    dst_ip: 0x0a01_0001,
                    src_port: 4660,
                    dst_port: 4661,
                    proto: 17,
                };
                black_box(sketch.record(&flow, 1));
            }
        },
        &mut out,
    );

    let buf: PktBuf = frame.clone().into();
    kernel(
        "rig.core.pktbuf.clone_drop_ns",
        calls,
        &mut || {
            for _ in 0..calls {
                drop(black_box(buf.clone()));
            }
        },
        &mut out,
    );
    out
}
