//! The four workloads on the reference learning switch.

use super::{chassis_raw, Edge, Kernel, Raw, Workload};
use crate::gen::{station_mac, udp_frame, Account, Rng, Timing, TAG_OFF};
use crate::trace::Tracer;
use netfpga_core::board::BoardSpec;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::time::Time;
use netfpga_projects::ReferenceSwitch;

/// Frozen slice sizes (frames offered per slice, all ports together).
pub const UNICAST_FRAMES: usize = 2000;
pub const IMIX_FRAMES: usize = 500;
pub const FLOOD_FRAMES: usize = 4000;
/// Bursts of four frames per `idle_probe` slice.
pub const IDLE_BURSTS: usize = 250;

const NPORTS: usize = 4;
const STATIONS_PER_PORT: u16 = 64;
const TABLE_CAPACITY: usize = 1024;
/// Far beyond any run's simulated horizon: taught entries never age out.
const AGE_LIMIT: Time = Time::from_ms(100_000);
const IMIX_SIZES: [usize; 3] = [60, 570, 1514];
const FLOOD_TEMPLATES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 60-byte frames, full mesh at line rate, burst-mode pipeline.
    Unicast64,
    /// IMIX 7:4:1, same mesh, word-level (cycle-exact) pipeline.
    ExactImix,
    /// Unknown-unicast 300-byte frames on an untaught switch: every frame
    /// floods to the three other ports, egress 3:1 oversubscribed.
    Flood300,
    /// Four 300-byte frames, then 40–60 µs of silence.
    IdleProbe,
}

pub struct Switch {
    shape: Shape,
    sw: ReferenceSwitch,
    rng: Rng,
    edge: Edge,
    /// Frame templates: one per length class, or per flood source.
    templates: Vec<Vec<u8>>,
    frames: usize,
    scratch: Vec<u8>,
    pending: Vec<(usize, PktBuf)>,
    /// `oq.dropped` as of the last verified slice.
    drops_seen: u64,
}

/// The mesh 0→1, 1→0, 2→3, 3→2: every egress port has one source, so
/// nothing but the frame's own path shapes its latency.
fn mesh(port: usize) -> usize {
    port ^ 1
}

impl Switch {
    pub fn new(shape: Shape, seed: u64, kernel: Kernel, frames: usize) -> Switch {
        let fast_path = shape != Shape::ExactImix;
        let mut sw = ReferenceSwitch::with_fast_path(
            &BoardSpec::sume(),
            NPORTS,
            TABLE_CAPACITY,
            AGE_LIMIT,
            fast_path,
        );
        kernel.apply(&mut sw.chassis);
        let mut rng = Rng::new(seed ^ 0x5157_4954_4348 ^ shape as u64);
        let templates = match shape {
            Shape::Unicast64 => vec![template(60)],
            Shape::ExactImix => IMIX_SIZES.iter().map(|&len| template(len)).collect(),
            Shape::IdleProbe => vec![template(300)],
            Shape::Flood300 => (0..FLOOD_TEMPLATES)
                .map(|t| {
                    // Sources from a range never used as a destination; the
                    // destination station exists nowhere: every lookup misses.
                    let mut f = udp_frame(
                        300,
                        station_mac(0x40 + t as u8, 0),
                        station_mac(0xee, 0),
                        0x0a00_0100 + t as u32,
                        0x0a00_ee01,
                        64,
                    );
                    // Seeded payload behind the tag, so each seed floods
                    // different bytes.
                    for b in &mut f[TAG_OFF + 8..TAG_OFF + 24] {
                        *b = rng.next_u64() as u8;
                    }
                    f
                })
                .collect(),
        };
        let edge = Edge::new(&sw.chassis, false);
        let mut this = Switch {
            shape,
            sw,
            rng,
            edge,
            templates,
            frames,
            scratch: Vec::new(),
            pending: Vec::new(),
            drops_seen: 0,
        };
        if shape != Shape::Flood300 {
            this.teach();
        }
        this
    }

    /// Teach the table every station the way a network would: each station
    /// sends one frame (which floods), then the wires are drained.
    fn teach(&mut self) {
        let chassis = &mut self.sw.chassis;
        for port in 0..NPORTS {
            for index in 0..STATIONS_PER_PORT {
                let hello = udp_frame(
                    60,
                    station_mac(port as u8, index),
                    [0xff; 6],
                    station_ip(port, index),
                    0xffff_ffff,
                    64,
                );
                chassis.send(port, hello);
            }
        }
        chassis.run_for(Time::from_us(100));
        for port in 0..NPORTS {
            chassis.recv(port);
        }
        assert!(chassis.sim.all_quiescent(), "teaching traffic drained");
    }

    /// Build the next frame for `port` into `scratch`, record it in the
    /// ledger, and queue the buffer the chassis will be handed.
    fn generate(&mut self, port: usize, now: Time) {
        let seq = self.edge.ledger.next_seq(port);
        let (template, expect) = match self.shape {
            Shape::Unicast64 | Shape::IdleProbe => (0, 1u16 << mesh(port)),
            Shape::ExactImix => {
                // IMIX 7:4:1 by frame count.
                let class = match self.rng.below(12) {
                    0..=6 => 0,
                    7..=10 => 1,
                    _ => 2,
                };
                (class, 1u16 << mesh(port))
            }
            Shape::Flood300 => {
                // Frame i of the slice goes to port i mod 4 from template
                // i mod 8: port p alternates templates p and p + 4.
                let t = port + NPORTS * (seq as usize % 2);
                (t, 0b1111 & !(1u16 << port))
            }
        };
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.templates[template]);
        if self.shape != Shape::Flood300 {
            let src = self.rng.below(u64::from(STATIONS_PER_PORT)) as u16;
            let dst = self.rng.below(u64::from(STATIONS_PER_PORT)) as u16;
            self.scratch[0..6].copy_from_slice(&station_mac(mesh(port) as u8, dst));
            self.scratch[6..12].copy_from_slice(&station_mac(port as u8, src));
        }
        self.scratch[TAG_OFF] = port as u8;
        self.scratch[TAG_OFF + 1..TAG_OFF + 5].copy_from_slice(&seq.to_le_bytes());
        let done = self.edge.mirror.offer(port, self.scratch.len(), now);
        self.edge.ledger.offer(port, &self.scratch, done, expect);
        self.pending.push((port, PktBuf::copy_from(&self.scratch)));
    }

    fn send_pending(&mut self) {
        for (port, frame) in self.pending.drain(..) {
            self.sw.chassis.send(port, frame);
        }
    }
}

fn template(len: usize) -> Vec<u8> {
    // Addresses are patched per frame; the IPs stay (a switch never looks).
    udp_frame(len, [0; 6], [0; 6], 0x0a00_0001, 0x0a00_0002, 64)
}

fn station_ip(port: usize, index: u16) -> u32 {
    0x0a00_0000 | (port as u32) << 16 | u32::from(index)
}

impl Workload for Switch {
    fn slice(&mut self, tr: &mut Tracer) {
        self.edge.ledger.begin_slice();
        if self.shape == Shape::IdleProbe {
            for _ in 0..self.frames / NPORTS {
                let now = self.sw.chassis.sim.now();
                for port in 0..NPORTS {
                    self.generate(port, now);
                }
                let gap = Time::from_ns(40_000 + self.rng.below(20_001));
                tr.lap("bench.gen");
                self.send_pending();
                tr.lap("projects.harness.send");
                self.sw.chassis.run_for(gap);
                tr.lap("core.sim.run");
                self.edge.recv_all(&mut self.sw.chassis);
                tr.lap("projects.harness.recv");
            }
            return;
        }
        let now = self.sw.chassis.sim.now();
        for i in 0..self.frames {
            self.generate(i % NPORTS, now);
        }
        tr.lap("bench.gen");
        self.send_pending();
        tr.lap("projects.harness.send");
        let on_wire = (0..NPORTS)
            .map(|p| self.edge.mirror.busy_until(p))
            .max()
            .expect("four ports")
            .saturating_sub(now);
        let expected = (self.shape != Shape::Flood300).then_some(self.frames);
        self.edge.drain(
            &mut self.sw.chassis,
            tr,
            on_wire + Time::from_us(2),
            Time::from_us(20),
            expected,
            |_| 0,
        );
    }

    fn verify(&mut self, acc: &mut Account) {
        self.edge.verify_wire(acc, Timing::Wire);
        let drops = self
            .sw
            .chassis
            .telemetry
            .get("oq.dropped")
            .expect("switch registers oq.dropped");
        acc.end_slice(&self.edge.ledger, drops - self.drops_seen);
        self.drops_seen = drops;
    }

    fn counters(&mut self) -> Raw {
        chassis_raw(&self.sw.chassis)
    }

    fn bps(&self) -> u64 {
        self.edge.bps
    }
}
