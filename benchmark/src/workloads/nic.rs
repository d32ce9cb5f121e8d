//! `nic_host_dma`: the reference NIC and its host driver, both directions
//! at once.

use super::{chassis_raw, Edge, Kernel, Raw, Workload};
use crate::gen::{station_mac, udp_frame, Account, Rng, Timing, HOST_PORT, TAG_OFF};
use crate::trace::Tracer;
use netfpga_core::board::BoardSpec;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::time::Time;
use netfpga_host::NicDriver;
use netfpga_pcie::SendError;
use netfpga_projects::ReferenceNic;

/// Frozen slice size: frames per direction (host→wire and wire→host).
pub const FRAMES_PER_DIRECTION: usize = 500;

const NPORTS: usize = 4;
const FRAME_LEN: usize = 508;
/// Ingress index of the host in the ledger (after the four wire ports).
const HOST_INGRESS: usize = NPORTS;
/// The driver's poll quantum: every quantum it refills the TX ring until
/// the ring refuses, lets the device run, and empties the RX ring. Short
/// enough that the 256-entry RX ring (four ports × 2.35 Mpps ≈ 94 frames
/// per quantum) never overflows. Wire→host latency is quantised to it.
const QUANTUM: Time = Time::from_us(10);

pub struct Nic {
    nic: ReferenceNic,
    driver: NicDriver,
    rng: Rng,
    edge: Edge,
    template: Vec<u8>,
    frames: usize,
    scratch: Vec<u8>,
    pending: Vec<(usize, PktBuf)>,
    /// The slice's host→wire frames, built up front, posted as the ring
    /// takes them.
    host_tx: Vec<(u8, Vec<u8>)>,
    /// What the driver received in the last slice: reported ingress port,
    /// bytes, device time of the poll.
    host_rx: Vec<(u8, Vec<u8>, Time)>,
}

impl Nic {
    pub fn new(seed: u64, kernel: Kernel, frames: usize) -> Nic {
        let mut nic = ReferenceNic::with_fast_path(&BoardSpec::sume(), NPORTS, true);
        kernel.apply(&mut nic.chassis);
        let driver = NicDriver::bind(&nic);
        let edge = Edge::new(&nic.chassis, true);
        Nic {
            nic,
            driver,
            rng: Rng::new(seed ^ 0x4e49_4344_4d41),
            edge,
            template: udp_frame(FRAME_LEN, [0; 6], [0; 6], 0x0a00_0001, 0x0a00_0002, 64),
            frames,
            scratch: Vec::new(),
            pending: Vec::new(),
            host_tx: Vec::new(),
            host_rx: Vec::new(),
        }
    }

    /// A frame entering at `ingress` with sequence number `seq`, between
    /// two seeded stations.
    fn build(&mut self, ingress: usize, seq: u32) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.template);
        let (src, dst) = (self.rng.below(64) as u16, self.rng.below(64) as u16);
        self.scratch[0..6].copy_from_slice(&station_mac(0x10, dst));
        self.scratch[6..12].copy_from_slice(&station_mac(ingress as u8, src));
        self.scratch[TAG_OFF] = ingress as u8;
        self.scratch[TAG_OFF + 1..TAG_OFF + 5].copy_from_slice(&seq.to_le_bytes());
    }
}

impl Workload for Nic {
    fn slice(&mut self, tr: &mut Tracer) {
        self.edge.ledger.begin_slice();
        let now = self.nic.chassis.sim.now();
        // Wire→host: each port offers its share at line rate, open loop.
        for i in 0..self.frames {
            let port = i % NPORTS;
            self.build(port, self.edge.ledger.next_seq(port));
            let done = self.edge.mirror.offer(port, FRAME_LEN, now);
            self.edge
                .ledger
                .offer(port, &self.scratch, done, 1 << HOST_PORT);
            self.pending.push((port, PktBuf::copy_from(&self.scratch)));
        }
        // Host→wire: round-robin over the ports, posted below as the TX
        // ring takes them.
        let first_seq = self.edge.ledger.next_seq(HOST_INGRESS);
        self.host_tx.clear();
        for i in 0..self.frames {
            self.build(HOST_INGRESS, first_seq + i as u32);
            self.host_tx
                .push(((i % NPORTS) as u8, self.scratch.clone()));
        }
        tr.lap("bench.gen");
        for (port, frame) in self.pending.drain(..) {
            self.nic.chassis.send(port, frame);
        }
        tr.lap("projects.harness.send");

        let mut posted = 0;
        let mut came_back = 0;
        // Both directions need about 2000 × 0.43 µs ≈ 90 quanta at most.
        for _ in 0..2000 {
            let now = self.nic.chassis.sim.now();
            while let Some((port, frame)) = self.host_tx.get(posted) {
                match self.driver.transmit(*port, frame.clone()) {
                    Ok(()) => {
                        self.edge.ledger.offer(HOST_INGRESS, frame, now, 1 << *port);
                        posted += 1;
                    }
                    // Back-pressure, not failure: try again next quantum.
                    Err(SendError::RingFull) => break,
                    Err(e) => panic!("TX ring refused for good: {e:?}"),
                }
            }
            tr.lap("host.nic.transmit");
            self.nic.chassis.run_for(QUANTUM);
            tr.lap("core.sim.run");
            let now = self.nic.chassis.sim.now();
            while let Some((port, frame)) = self.driver.receive() {
                self.host_rx.push((port, frame, now));
                came_back += 1;
            }
            tr.lap("host.nic.receive");
            came_back += self.edge.recv_all(&mut self.nic.chassis);
            tr.lap("projects.harness.recv");
            if came_back >= 2 * self.frames {
                break;
            }
        }
    }

    fn verify(&mut self, acc: &mut Account) {
        self.edge.verify_wire(acc, Timing::WireRateOnly);
        for (port, bytes, at) in self.host_rx.drain(..) {
            if bytes.get(TAG_OFF) != Some(&port) {
                acc.fail_check(format!(
                    "driver reported ingress port {port} for another port's frame"
                ));
            }
            acc.deliver(&mut self.edge.ledger, HOST_PORT, &bytes, at, Timing::Polled);
        }
        acc.end_slice(&self.edge.ledger, 0);
    }

    fn counters(&mut self) -> Raw {
        let mut raw = chassis_raw(&self.nic.chassis);
        let stats = self.driver.stats();
        raw.insert("nic.tx", stats.tx);
        raw.insert("nic.tx_busy", stats.tx_busy);
        raw
    }

    fn bps(&self) -> u64 {
        self.edge.bps
    }
}
