//! OSNT — the Open Source Network Tester (Antichi et al., IEEE Network
//! 2014), the paper's flagship test-and-measurement project.
//!
//! Per port, a rate-controlled **traffic generator** emits probe frames
//! carrying a stream id, sequence number and transmit timestamp in the UDP
//! payload, and a **capture engine** timestamps and decodes returning
//! probes. From the two, OSNT reports throughput, one-way latency
//! (histogrammed) and loss — without the user building any device of
//! their own, which is precisely the §3 "test and measurement researcher"
//! use case.

use crate::harness::{Chassis, ChassisConfig, ChassisIo};
use netfpga_core::board::BoardSpec;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::regs::UNMAPPED_READ;
use netfpga_core::resources::ResourceCost;
use netfpga_core::rng::SimRng;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stats::{Counter, Histogram};
use netfpga_core::stream::{Meta, PacketRx, PacketTx, StreamRx, StreamTx};
use netfpga_core::time::{BitRate, Time};
use netfpga_datapath::blocks;
use netfpga_datapath::ParsedHeaders;
use netfpga_packet::ethernet::MAX_FRAME_LEN;
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use std::cell::RefCell;
use std::rc::Rc;

/// Magic bytes marking an OSNT probe payload.
pub const PROBE_MAGIC: [u8; 4] = *b"OSNT";
/// Bytes of probe header inside the UDP payload:
/// magic(4) + stream(2) + seq(8) + tx_time(8).
pub const PROBE_HEADER: usize = 22;
/// Minimum probe frame length (headers + probe payload).
pub const MIN_PROBE_FRAME: usize = 14 + 20 + 8 + PROBE_HEADER;

/// Inter-departure spacing of generated probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spacing {
    /// Constant bit rate: fixed inter-departure time from the target rate.
    Uniform,
    /// Poisson arrivals with the target rate as the mean (seeded).
    Poisson {
        /// RNG seed for the exponential inter-arrival draw.
        seed: u64,
    },
}

/// Generator configuration for one stream.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Total frame length (≥ [`MIN_PROBE_FRAME`]).
    pub frame_len: usize,
    /// Target offered rate (payload perspective: frame bits on the wire
    /// per second, excluding preamble/IFG).
    pub rate: BitRate,
    /// Probes to send.
    pub count: u64,
    /// Stream identifier stamped into every probe.
    pub stream_id: u16,
    /// Departure process.
    pub spacing: Spacing,
    /// IMIX mode: when set, each probe's length is drawn from the classic
    /// simple-IMIX mix (64/570/1514 bytes at 7:4:1) with this seed instead
    /// of using `frame_len`. Lengths below the probe minimum are clamped.
    pub imix_seed: Option<u64>,
    /// Addressing of the probe frames.
    pub src_mac: EthernetAddress,
    /// Destination MAC.
    pub dst_mac: EthernetAddress,
    /// Source IPv4.
    pub src_ip: Ipv4Address,
    /// Destination IPv4.
    pub dst_ip: Ipv4Address,
}

impl GeneratorConfig {
    /// A ready-to-use probe stream at `rate` with `frame_len`-byte frames.
    pub fn probe(stream_id: u16, rate: BitRate, frame_len: usize, count: u64) -> GeneratorConfig {
        GeneratorConfig {
            frame_len: frame_len.max(MIN_PROBE_FRAME),
            rate,
            count,
            stream_id,
            spacing: Spacing::Uniform,
            imix_seed: None,
            src_mac: EthernetAddress::new(2, 0x05, 0x47, 0, 0, stream_id as u8),
            dst_mac: EthernetAddress::new(2, 0x05, 0x47, 0xff, 0, stream_id as u8),
            src_ip: Ipv4Address::new(10, 99, 0, 1),
            dst_ip: Ipv4Address::new(10, 99, 0, 2),
        }
    }
}

#[derive(Debug, Default)]
struct GenShared {
    config: Option<GeneratorConfig>,
    sent: u64,
    running: bool,
}

/// Host-side handle to one generator.
#[derive(Debug, Clone, Default)]
pub struct GeneratorHandle {
    shared: Rc<RefCell<GenShared>>,
    /// The generator's activity-cache flag: [`GeneratorHandle::start`] is
    /// the only host-side write, and it un-idles a resting generator.
    wake: WakeHandle,
}

impl GeneratorHandle {
    /// Arm the generator with a configuration and start it.
    pub fn start(&self, config: GeneratorConfig) {
        assert!(
            config.frame_len >= MIN_PROBE_FRAME,
            "frame too short for probe header"
        );
        let mut s = self.shared.borrow_mut();
        s.config = Some(config);
        s.sent = 0;
        s.running = true;
        self.wake.wake();
    }

    /// Probes emitted so far.
    pub fn sent(&self) -> u64 {
        self.shared.borrow().sent
    }

    /// True when the configured count has been emitted.
    pub fn done(&self) -> bool {
        let s = self.shared.borrow();
        match &s.config {
            Some(c) => s.sent >= c.count,
            None => true,
        }
    }
}

/// The per-port traffic generator module.
pub struct TrafficGenerator {
    name: String,
    output: PacketTx,
    src_port: u8,
    shared: Rc<RefCell<GenShared>>,
    next_emit: Time,
    rng: SimRng,
    rng_seed: u64,
    /// Activity-cache invalidation flag, shared with the handle and
    /// registered on the output stream.
    wake: WakeHandle,
}

impl TrafficGenerator {
    /// Create a generator feeding `output`; returns the module + handle.
    pub fn new(name: &str, output: StreamTx, src_port: u8) -> (TrafficGenerator, GeneratorHandle) {
        let handle = GeneratorHandle::default();
        (
            TrafficGenerator {
                name: name.to_string(),
                output: PacketTx::new(output, &handle.wake),
                src_port,
                shared: handle.shared.clone(),
                next_emit: Time::ZERO,
                rng: SimRng::new(0x05471),
                rng_seed: 0x05471,
                wake: handle.wake.clone(),
            },
            handle,
        )
    }

    /// Draw the classic simple-IMIX frame length (7:4:1 over 64/570/1514),
    /// clamped to the probe minimum.
    fn imix_len(rng: &mut SimRng) -> usize {
        let len = match rng.below(12) {
            0..=6 => 64,
            7..=10 => 570,
            _ => 1514,
        };
        len.max(MIN_PROBE_FRAME)
    }

    fn build_probe(config: &GeneratorConfig, frame_len: usize, seq: u64, now: Time) -> Vec<u8> {
        let payload_len = frame_len - (14 + 20 + 8);
        let mut payload = Vec::with_capacity(payload_len);
        payload.extend_from_slice(&PROBE_MAGIC);
        payload.extend_from_slice(&config.stream_id.to_be_bytes());
        payload.extend_from_slice(&seq.to_be_bytes());
        payload.extend_from_slice(&now.as_ps().to_be_bytes());
        payload.resize(payload_len, 0x5a);
        PacketBuilder::new()
            .eth(config.src_mac, config.dst_mac)
            .ipv4(config.src_ip, config.dst_ip)
            .udp(0x0547, 0x0547 + config.stream_id, &payload)
            .pad_to(frame_len)
            .build()
    }
}

impl Module for TrafficGenerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        // One `emit` a tick, not the usual loop: a probe is stamped and
        // staged at its departure edge and its first word leaves the edge
        // after, a register stage later.
        if !self.output.emit(ctx) {
            return;
        }
        // Start the next frame when its departure time arrives.
        let mut s = self.shared.borrow_mut();
        let Some(config) = s.config.clone() else {
            return;
        };
        if !s.running || s.sent >= config.count || ctx.now < self.next_emit {
            return;
        }
        // Reseed once per configured run so IMIX/Poisson draws are
        // reproducible per configuration.
        let want_seed = match (config.imix_seed, config.spacing) {
            (Some(seed), _) => seed,
            (None, Spacing::Poisson { seed }) => seed,
            _ => 0x05471,
        };
        if s.sent == 0 && self.rng_seed != want_seed {
            self.rng = SimRng::new(want_seed);
            self.rng_seed = want_seed;
        }
        let frame_len = match config.imix_seed {
            Some(_) => Self::imix_len(&mut self.rng),
            None => config.frame_len,
        };
        let frame = Self::build_probe(&config, frame_len, s.sent, ctx.now);
        let meta = Meta {
            len: frame.len() as u16,
            src_port: self.src_port,
            ingress_time: ctx.now,
            ..Default::default()
        };
        // Schedule the next departure.
        let mean_gap = config.rate.time_for_bytes(frame.len() as u64);
        self.output.stage(PktBuf::from(frame), meta);
        s.sent += 1;
        let gap = match config.spacing {
            Spacing::Uniform => mean_gap,
            Spacing::Poisson { .. } => {
                Time::from_ps(self.rng.exp(mean_gap.as_ps() as f64).round() as u64)
            }
        };
        let base = if self.next_emit == Time::ZERO {
            ctx.now
        } else {
            self.next_emit
        };
        self.next_emit = base + gap;
    }

    fn reset(&mut self) {
        self.output.reset();
        self.next_emit = Time::ZERO;
        let mut s = self.shared.borrow_mut();
        s.sent = 0;
        s.running = false;
    }

    /// A probe cut short mid-emission is discarded; the run carries on.
    fn soft_reset(&mut self) {
        self.output.soft_reset();
    }

    /// The port's answer; the next probe is due at `next_emit` while the
    /// run has probes left, and not before [`GeneratorHandle::start`]
    /// otherwise.
    fn activity(&self) -> Activity {
        let s = self.shared.borrow();
        let left = s.running && s.config.as_ref().is_some_and(|c| s.sent < c.count);
        self.output.activity(left.then_some(self.next_emit))
    }

    /// External activity channels: the handle's `start`, pops from the
    /// output.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

/// One decoded probe arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeRecord {
    /// Stream id from the payload.
    pub stream_id: u16,
    /// Sequence number.
    pub seq: u64,
    /// Transmit timestamp (from the payload).
    pub tx_time: Time,
    /// Receive timestamp (capture clock).
    pub rx_time: Time,
}

impl ProbeRecord {
    /// One-way latency of this probe.
    pub fn latency(&self) -> Time {
        self.rx_time.saturating_sub(self.tx_time)
    }
}

#[derive(Debug, Default)]
struct CapShared {
    records: Vec<ProbeRecord>,
    /// Every captured frame with its rx timestamp (probe or not), in
    /// arrival order — the raw capture OSNT exports as pcap. Mirrored
    /// frames share the datapath's backing buffer (a refcount bump, not
    /// a copy).
    frames: Vec<(Time, PktBuf)>,
    bytes: u64,
}

/// Host-side handle to one capture engine.
#[derive(Debug, Clone, Default)]
pub struct CaptureHandle {
    shared: Rc<RefCell<CapShared>>,
    /// Frames seen that were not OSNT probes.
    pub non_probe: Counter,
}

impl CaptureHandle {
    /// Probes captured so far.
    pub fn count(&self) -> usize {
        self.shared.borrow().records.len()
    }

    /// Total bytes captured.
    pub fn bytes(&self) -> u64 {
        self.shared.borrow().bytes
    }

    /// Snapshot of all records.
    pub fn records(&self) -> Vec<ProbeRecord> {
        self.shared.borrow().records.clone()
    }

    /// Latency histogram (picoseconds) over all captured probes.
    pub fn latency_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for r in self.shared.borrow().records.iter() {
            h.record(r.latency().as_ps());
        }
        h
    }

    /// Lost probes of `stream_id` assuming `expected` were sent: counts
    /// sequence numbers in `0..expected` never captured.
    pub fn losses(&self, stream_id: u16, expected: u64) -> u64 {
        let shared = self.shared.borrow();
        let mut seen = vec![false; expected as usize];
        for r in shared.records.iter().filter(|r| r.stream_id == stream_id) {
            if let Some(slot) = seen.get_mut(r.seq as usize) {
                *slot = true;
            }
        }
        seen.iter().filter(|&&s| !s).count() as u64
    }

    /// Every captured frame (probes and other traffic) with its receive
    /// timestamp, in arrival order.
    pub fn frames(&self) -> Vec<(Time, Vec<u8>)> {
        self.shared
            .borrow()
            .frames
            .iter()
            .map(|(t, f)| (*t, f.to_vec()))
            .collect()
    }

    /// Attribute the raw capture to IPv4 flows: parse every captured
    /// frame's five-tuple and return per-flow packet/byte totals in
    /// first-seen order. Non-IPv4 frames (OSNT probes included, which
    /// ride a raw ethertype) are skipped. This is host-side analysis of
    /// the capture buffer; the capture hot path is untouched.
    pub fn flows(&self) -> Vec<netfpga_flowmon::FlowRecord> {
        use netfpga_flowmon::{FiveTuple, FlowRecord};
        let shared = self.shared.borrow();
        let mut out: Vec<FlowRecord> = Vec::new();
        for (_, f) in shared.frames.iter() {
            let Some(ft) = FiveTuple::parse(f.bytes()) else {
                continue;
            };
            let len = f.len() as u64;
            match out.iter_mut().find(|r| r.flow == ft) {
                Some(r) => {
                    r.packets += 1;
                    r.bytes += len;
                    r.estimate += 1;
                }
                None => out.push(FlowRecord {
                    flow: ft,
                    packets: 1,
                    bytes: len,
                    estimate: 1,
                }),
            }
        }
        out
    }

    /// The `n` largest captured flows by exact packet count (ties broken
    /// by the flow's total order — deterministic like the flow-monitor's
    /// [`netfpga_flowmon::FlowRecord::rank_key`] ranking).
    pub fn top_flows(&self, n: usize) -> Vec<netfpga_flowmon::FlowRecord> {
        let mut v = self.flows();
        v.sort_by_key(|r| core::cmp::Reverse(r.rank_key()));
        v.truncate(n);
        v
    }

    /// Export the raw capture as a nanosecond pcap stream (the format the
    /// real OSNT capture pipeline hands to analysis tools). Frame payloads
    /// stream straight from the shared capture buffers — no copies.
    /// Returns the number of records written.
    pub fn export_pcap<W: std::io::Write>(&self, w: W) -> std::io::Result<usize> {
        let shared = self.shared.borrow();
        crate::pcap::write_pcap(w, shared.frames.iter().map(|(t, f)| (*t, f)))
    }

    /// Measured average receive rate in bits/s between first and last
    /// capture (frame bytes, excluding wire overhead), or `None` with
    /// fewer than two records.
    pub fn measured_rate(&self, frame_len: u64) -> Option<f64> {
        let shared = self.shared.borrow();
        let first = shared.records.first()?;
        let last = shared.records.last()?;
        if shared.records.len() < 2 || last.rx_time <= first.rx_time {
            return None;
        }
        let span = (last.rx_time - first.rx_time).as_secs_f64();
        Some(((shared.records.len() - 1) as f64 * frame_len as f64 * 8.0) / span)
    }
}

/// The per-port capture engine module.
pub struct CaptureEngine {
    name: String,
    input: PacketRx,
    shared: Rc<RefCell<CapShared>>,
    non_probe: Counter,
    /// Activity-cache invalidation flag, registered on the input stream.
    wake: WakeHandle,
}

impl CaptureEngine {
    /// Create a capture engine draining `input`; returns module + handle.
    pub fn new(name: &str, input: StreamRx) -> (CaptureEngine, CaptureHandle) {
        let handle = CaptureHandle::default();
        let wake = WakeHandle::new();
        (
            CaptureEngine {
                name: name.to_string(),
                input: PacketRx::new(input, &wake),
                shared: handle.shared.clone(),
                non_probe: handle.non_probe.clone(),
                wake,
            },
            handle,
        )
    }

    /// Decode a probe payload from a frame, if present.
    pub fn decode(frame: &[u8]) -> Option<(u16, u64, Time)> {
        let h = ParsedHeaders::parse(frame);
        h.ipv4?;
        // UDP payload begins after eth(14, assume untagged probes) + ip(20) + udp(8).
        let payload = frame.get(42..)?;
        if payload.len() < PROBE_HEADER || payload[0..4] != PROBE_MAGIC {
            return None;
        }
        let stream_id = u16::from_be_bytes([payload[4], payload[5]]);
        let mut seq_bytes = [0u8; 8];
        seq_bytes.copy_from_slice(&payload[6..14]);
        let mut ts_bytes = [0u8; 8];
        ts_bytes.copy_from_slice(&payload[14..22]);
        Some((
            stream_id,
            u64::from_be_bytes(seq_bytes),
            Time::from_ps(u64::from_be_bytes(ts_bytes)),
        ))
    }
}

impl Module for CaptureEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        while let Some((frame, meta)) = self.input.poll(true, ctx) {
            let mut s = self.shared.borrow_mut();
            s.bytes += frame.len() as u64;
            // The MAC's ingress stamp is frame-arrival-complete time —
            // higher fidelity than "when the capture engine got around
            // to it".
            let rx_time = if meta.ingress_time > Time::ZERO {
                meta.ingress_time
            } else {
                ctx.now
            };
            // Mirror into the capture ring by bumping the refcount —
            // the datapath's buffer is never duplicated.
            s.frames.push((rx_time, frame.clone()));
            match Self::decode(&frame) {
                Some((stream_id, seq, tx_time)) => s.records.push(ProbeRecord {
                    stream_id,
                    seq,
                    tx_time,
                    rx_time,
                }),
                None => self.non_probe.incr(),
            }
        }
    }

    fn reset(&mut self) {
        self.input.reset();
        let mut s = self.shared.borrow_mut();
        s.records.clear();
        s.frames.clear();
        s.bytes = 0;
        self.non_probe.clear();
    }

    /// Watchdog recovery: a partially received frame is discarded; the
    /// capture so far survives.
    fn soft_reset(&mut self) {
        self.input.soft_reset();
    }

    /// The port's answer: the engine always takes what is there.
    fn activity(&self) -> Activity {
        self.input.activity(true)
    }

    /// Only pushes into the input stream can un-idle the engine.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

/// Register base of the per-port OSNT control blocks; port `i`'s block
/// lives at `OSNT_BASE + i * OSNT_PORT_STRIDE`.
pub const OSNT_BASE: u32 = 0x6000;
/// Address stride between per-port blocks.
pub const OSNT_PORT_STRIDE: u32 = 0x100;

/// Per-port OSNT register block (word offsets):
///
/// | word | register |
/// |------|----------|
/// | 0 | command: 1 = start generator with the staged config |
/// | 1 | rate in Mb/s |
/// | 2 | frame length |
/// | 3 | probe count |
/// | 4 | stream id |
/// | 5 | spacing: 0 = uniform, nonzero = Poisson with this seed |
/// | 8 | generator: probes sent (RO) |
/// | 9 | capture: probes received (RO) |
/// | 10 | capture: non-probe frames (RO) |
/// | 11 | capture: latency p50 in ns (RO, computed on read) |
/// | 12 | capture: latency p99 in ns (RO, computed on read) |
///
/// A start whose staged frame length exceeds [`MAX_FRAME_LEN`] is ignored,
/// like a write to an unmapped word. Every other word reads
/// [`UNMAPPED_READ`] and ignores writes.
struct OsntRegisters {
    generator: GeneratorHandle,
    capture: CaptureHandle,
    stage: [u32; 6],
}

impl netfpga_core::regs::RegisterSpace for OsntRegisters {
    fn read(&mut self, offset: u32) -> u32 {
        match offset / 4 {
            w @ 1..=5 => self.stage[w as usize],
            8 => self.generator.sent() as u32,
            9 => self.capture.count() as u32,
            10 => self.capture.non_probe.get() as u32,
            11 => {
                let mut h = self.capture.latency_histogram();
                (h.percentile(50.0).unwrap_or(0) / 1000) as u32
            }
            12 => {
                let mut h = self.capture.latency_histogram();
                (h.percentile(99.0).unwrap_or(0) / 1000) as u32
            }
            _ => UNMAPPED_READ,
        }
    }

    fn write(&mut self, offset: u32, value: u32) {
        match offset / 4 {
            0 if value == 1 && self.stage[2] as usize <= MAX_FRAME_LEN => {
                let spacing = if self.stage[5] == 0 {
                    Spacing::Uniform
                } else {
                    Spacing::Poisson {
                        seed: u64::from(self.stage[5]),
                    }
                };
                self.generator.start(GeneratorConfig {
                    spacing,
                    ..GeneratorConfig::probe(
                        self.stage[4] as u16,
                        BitRate::mbps(u64::from(self.stage[1]).max(1)),
                        self.stage[2] as usize,
                        u64::from(self.stage[3]),
                    )
                });
            }
            w @ 1..=5 => self.stage[w as usize] = value,
            _ => {}
        }
    }
}

/// The assembled OSNT tester: a generator and a capture engine on every
/// port.
pub struct OsntTester {
    /// The board with this project loaded.
    pub chassis: Chassis,
    /// Per-port generator handles.
    pub generators: Vec<GeneratorHandle>,
    /// Per-port capture handles.
    pub captures: Vec<CaptureHandle>,
}

impl OsntTester {
    /// Build on `spec` with `nports` ports.
    pub fn new(spec: &BoardSpec, nports: usize) -> OsntTester {
        OsntTester::build(&ChassisConfig::new(spec, nports))
    }

    /// Build on the chassis `config` describes. Measurement integrity
    /// under faults: a probe corrupted by injected bit errors arrives with
    /// a failing FCS and is dropped by the receiving MAC *before* the
    /// capture engine timestamps it — corruption shows up as honest loss,
    /// never as a bogus latency sample.
    pub fn build(config: &ChassisConfig) -> OsntTester {
        let (mut chassis, io) = Chassis::new(config);
        let ChassisIo {
            from_ports,
            to_ports,
        } = io;
        let mut generators = Vec::new();
        let mut captures = Vec::new();
        for (i, (rx, tx)) in from_ports.into_iter().zip(to_ports).enumerate() {
            let (generator, gh) = TrafficGenerator::new(&format!("osnt_gen{i}"), tx, i as u8);
            let (capture, ch) = CaptureEngine::new(&format!("osnt_cap{i}"), rx);
            chassis.add_module(generator);
            chassis.add_module(capture);
            chassis.map.mount(
                &format!("osnt_port{i}"),
                OSNT_BASE + i as u32 * OSNT_PORT_STRIDE,
                OSNT_PORT_STRIDE,
                netfpga_core::regs::shared(OsntRegisters {
                    generator: gh.clone(),
                    capture: ch.clone(),
                    stage: [0; 6],
                }),
            );
            // A run's progress and the capture buffer's length are state,
            // not counts: a write to clear them would re-arm the generator
            // and orphan records, so they stay read-only gauges.
            let progress = gh.clone();
            chassis
                .telemetry
                .gauge(&format!("osnt.port{i}.gen.sent"), move || progress.sent());
            let buffer = ch.clone();
            chassis
                .telemetry
                .gauge(&format!("osnt.port{i}.cap.probes"), move || {
                    buffer.count() as u64
                });
            chassis
                .telemetry
                .register_counter(&format!("osnt.port{i}.cap.non_probe"), &ch.non_probe);
            generators.push(gh);
            captures.push(ch);
        }
        chassis.attach_mmio();
        OsntTester {
            chassis,
            generators,
            captures,
        }
    }

    /// Approximate FPGA cost (experiment E7).
    pub fn resource_cost(nports: u64) -> ResourceCost {
        blocks::MAC_10G.times(nports)
            + blocks::PCIE_DMA
            + blocks::REG_INTERCONNECT
            + blocks::GENERATOR_CORE.times(nports)
            + blocks::CAPTURE_CORE.times(nports)
            + blocks::TIMESTAMP_UNIT.times(nports * 2)
            + blocks::RATE_LIMITER.times(nports)
    }

    /// Blocks this project instantiates (E7 reuse matrix row).
    pub fn block_names() -> &'static [&'static str] {
        &[
            "mac_10g",
            "pcie_dma",
            "reg_interconnect",
            "generator_core",
            "capture_core",
            "timestamp_unit",
            "rate_limiter",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_phy::LinkConfig;

    /// OSNT with port 0 looped through an ideal link back to itself.
    fn looped(delay: Time) -> OsntTester {
        let mut o = OsntTester::new(&BoardSpec::sume(), 2);
        let (to_board, from_board) = o.chassis.port_wires(0);
        o.chassis.add_link(
            "dut",
            from_board,
            to_board,
            LinkConfig {
                delay,
                ..LinkConfig::default()
            },
        );
        o
    }

    #[test]
    fn probe_build_decode_roundtrip() {
        let config = GeneratorConfig::probe(7, BitRate::gbps(1), 128, 10);
        let frame = TrafficGenerator::build_probe(&config, config.frame_len, 42, Time::from_us(3));
        assert_eq!(frame.len(), 128);
        let (stream, seq, ts) = CaptureEngine::decode(&frame).expect("decodes");
        assert_eq!(stream, 7);
        assert_eq!(seq, 42);
        assert_eq!(ts, Time::from_us(3));
        // A non-probe frame does not decode.
        assert!(CaptureEngine::decode(&frame[..60]).is_none());
    }

    #[test]
    fn capture_attributes_flows_host_side() {
        use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
        let cap = CaptureHandle::default();
        let mk = |last: u8, sport: u16| {
            PacketBuilder::new()
                .eth(
                    EthernetAddress::new(2, 0, 0, 0, 0, 1),
                    EthernetAddress::new(2, 0, 0, 0, 0, 2),
                )
                .ipv4(
                    Ipv4Address::new(10, 0, 0, last),
                    Ipv4Address::new(10, 0, 1, 1),
                )
                .udp(sport, 80, &[0; 30])
                .build()
        };
        {
            let mut s = cap.shared.borrow_mut();
            for _ in 0..3 {
                s.frames.push((Time::ZERO, PktBuf::copy_from(&mk(1, 1000))));
            }
            s.frames.push((Time::ZERO, PktBuf::copy_from(&mk(2, 2000))));
            // A non-IP frame is skipped by attribution.
            s.frames.push((Time::ZERO, PktBuf::copy_from(&[0u8; 60])));
        }
        let flows = cap.flows();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].packets, 3, "first-seen order");
        let top = cap.top_flows(1);
        assert_eq!(top[0].flow.src_port, 1000);
        assert_eq!(top[0].packets, 3);
    }

    #[test]
    fn generator_hits_target_rate() {
        let mut o = looped(Time::from_ns(10));
        let n = 200;
        o.generators[0].start(GeneratorConfig::probe(1, BitRate::gbps(2), 500, n));
        let cap = o.captures[0].clone();
        let done = o
            .chassis
            .run_while(Time::from_ms(10), move || (cap.count() as u64) < n);
        assert!(done, "captured {}", o.captures[0].count());
        let rate = o.captures[0].measured_rate(500).expect("rate");
        assert!(
            (rate - 2e9).abs() / 2e9 < 0.03,
            "measured {:.3} Gb/s",
            rate / 1e9
        );
    }

    #[test]
    fn latency_measurement_tracks_ground_truth() {
        let delay = Time::from_us(5);
        let mut o = looped(delay);
        let n = 50;
        o.generators[0].start(GeneratorConfig::probe(1, BitRate::gbps(1), 200, n));
        let cap = o.captures[0].clone();
        assert!(o
            .chassis
            .run_while(Time::from_ms(10), move || (cap.count() as u64) < n));
        let mut h = o.captures[0].latency_histogram();
        let p50 = Time::from_ps(h.percentile(50.0).unwrap());
        // Ground truth: link delay + one serialization (tx wire time) +
        // pipeline cycles. Must be >= delay and within a few us of it.
        assert!(p50 >= delay, "p50 {p50}");
        assert!(p50 < delay + Time::from_us(2), "p50 {p50} way over");
    }

    #[test]
    fn loss_measurement_matches_injected_loss() {
        let mut o = OsntTester::new(&BoardSpec::sume(), 2);
        let (to_board, from_board) = o.chassis.port_wires(0);
        o.chassis.add_link(
            "lossy_dut",
            from_board,
            to_board,
            LinkConfig {
                loss_probability: 0.25,
                seed: 42,
                ..LinkConfig::default()
            },
        );
        let n = 400;
        o.generators[0].start(GeneratorConfig::probe(3, BitRate::gbps(5), 200, n));
        let gen = o.generators[0].clone();
        assert!(o.chassis.run_while(Time::from_ms(10), move || !gen.done()));
        o.chassis.run_for(Time::from_us(100)); // drain in-flight
        let lost = o.captures[0].losses(3, n);
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.07, "loss rate {rate}");
        assert_eq!(
            o.captures[0].count() as u64 + lost,
            n,
            "every probe is either captured or lost"
        );
    }

    #[test]
    fn poisson_spacing_varies_gaps() {
        let mut o = looped(Time::from_ns(5));
        let n = 100;
        o.generators[0].start(GeneratorConfig {
            spacing: Spacing::Poisson { seed: 9 },
            ..GeneratorConfig::probe(1, BitRate::gbps(1), 128, n)
        });
        let cap = o.captures[0].clone();
        assert!(o
            .chassis
            .run_while(Time::from_ms(20), move || (cap.count() as u64) < n));
        let recs = o.captures[0].records();
        let gaps: Vec<u64> = recs
            .windows(2)
            .map(|w| (w[1].tx_time - w[0].tx_time).as_ps())
            .collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        let var = gaps.iter().map(|&g| (g as f64 - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        // Exponential gaps: coefficient of variation ~ 1; uniform would be ~0.
        assert!(cv > 0.5, "cv {cv} too regular for Poisson");
    }

    #[test]
    fn imix_mode_mixes_frame_sizes() {
        let mut o = looped(Time::from_ns(50));
        let n = 300;
        o.generators[0].start(GeneratorConfig {
            imix_seed: Some(17),
            ..GeneratorConfig::probe(1, BitRate::gbps(5), 512, n)
        });
        let cap = o.captures[0].clone();
        assert!(o
            .chassis
            .run_while(Time::from_ms(20), move || (cap.count() as u64) < n));
        let mut counts = std::collections::BTreeMap::new();
        for (_, f) in o.captures[0].frames() {
            *counts.entry(f.len()).or_insert(0u32) += 1;
        }
        // Three distinct sizes, in roughly 7:4:1 proportion.
        assert_eq!(counts.len(), 3, "{counts:?}");
        let small = counts[&MIN_PROBE_FRAME.max(64)];
        let big = counts[&1514];
        assert!(small > big, "{counts:?}");
        // Determinism: same seed, same mix.
        let mut o2 = looped(Time::from_ns(50));
        o2.generators[0].start(GeneratorConfig {
            imix_seed: Some(17),
            ..GeneratorConfig::probe(1, BitRate::gbps(5), 512, n)
        });
        let cap2 = o2.captures[0].clone();
        assert!(o2
            .chassis
            .run_while(Time::from_ms(20), move || (cap2.count() as u64) < n));
        let sizes1: Vec<usize> = o.captures[0]
            .frames()
            .iter()
            .map(|(_, f)| f.len())
            .collect();
        let sizes2: Vec<usize> = o2.captures[0]
            .frames()
            .iter()
            .map(|(_, f)| f.len())
            .collect();
        assert_eq!(sizes1, sizes2);
    }

    #[test]
    fn pcap_export_roundtrips_capture() {
        let mut o = looped(Time::from_ns(50));
        o.generators[0].start(GeneratorConfig::probe(1, BitRate::gbps(1), 128, 5));
        let cap = o.captures[0].clone();
        assert!(o
            .chassis
            .run_while(Time::from_ms(5), move || cap.count() < 5));
        let mut buf = Vec::new();
        let n = o.captures[0].export_pcap(&mut buf).unwrap();
        assert_eq!(n, 5);
        let back = crate::pcap::read_pcap(&buf[..]).unwrap();
        assert_eq!(back.len(), 5);
        // Frames in the pcap match the capture, with ns-truncated stamps.
        let frames = o.captures[0].frames();
        for ((t_pcap, f_pcap), (t_cap, f_cap)) in back.iter().zip(&frames) {
            assert_eq!(f_pcap, f_cap);
            assert_eq!(t_pcap.as_ns(), t_cap.as_ns());
        }
        // Timestamps are monotonically increasing.
        assert!(back.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    /// Satellite: timestamp integrity under bit errors. Probes corrupted
    /// in flight fail the RX MAC's CRC-32 check and are dropped before
    /// the capture engine ever timestamps them, so the latency
    /// distribution stays pinned to ground truth no matter the BER —
    /// corruption is reported as loss, never as a wild latency sample or
    /// a garbled probe decode.
    #[test]
    fn bit_errors_never_produce_bogus_latency_samples() {
        use netfpga_faults::{FaultKind, FaultPlan};
        let delay = Time::from_us(5);
        let plan = FaultPlan::new(11).at(Time::ZERO, FaultKind::SetBer { port: 0, ber: 2e-5 });
        let mut o = OsntTester::build(&ChassisConfig {
            faults: plan,
            ..ChassisConfig::new(&BoardSpec::sume(), 2)
        });
        let (to_board, from_board) = o.chassis.port_wires(0);
        o.chassis.add_link(
            "dut",
            from_board,
            to_board,
            LinkConfig {
                delay,
                ..LinkConfig::default()
            },
        );
        let n = 300;
        o.generators[0].start(GeneratorConfig::probe(1, BitRate::gbps(2), 400, n));
        let gen = o.generators[0].clone();
        assert!(o.chassis.run_while(Time::from_ms(20), move || !gen.done()));
        o.chassis.run_for(Time::from_us(200)); // drain in-flight probes

        let faults = o.chassis.faults.clone().expect("armed");
        let corrupted = faults.counters().frames_corrupted.get();
        assert!(corrupted > 0, "BER high enough to hit some probes");
        // Every corrupted probe died at the RX MAC's FCS check (a frame
        // can be hit in both directions, hence at-most-equal) ...
        let bad_fcs = o
            .chassis
            .telemetry
            .get("port0.mac.rx.bad_fcs")
            .expect("registered");
        assert!(
            bad_fcs > 0 && bad_fcs <= corrupted,
            "bad_fcs {bad_fcs} of {corrupted}"
        );
        // ... so the capture ledger balances: every probe was either
        // cleanly captured or honestly lost, and every loss is an FCS drop.
        let lost = o.captures[0].losses(1, n);
        assert_eq!(
            o.captures[0].count() as u64 + lost,
            n,
            "captured + lost = sent"
        );
        assert_eq!(lost, bad_fcs, "every loss is a pre-timestamp FCS drop");
        assert_eq!(o.captures[0].non_probe.get(), 0, "no garbled probe decodes");
        // The pinned property: no bogus samples. Every record is a valid
        // probe of this stream and its latency sits at ground truth
        // (link delay + serialization + pipeline), never wild.
        let records = o.captures[0].records();
        for r in &records {
            assert_eq!(r.stream_id, 1);
            assert!(r.seq < n, "seq {} out of range", r.seq);
            assert!(
                r.latency() >= delay,
                "latency {} below ground truth",
                r.latency()
            );
            assert!(
                r.latency() < delay + Time::from_us(2),
                "bogus latency sample {} from a corrupted probe",
                r.latency()
            );
        }
    }

    /// Generator and capture engine both answer the activity contract: no
    /// tick before there is work, and a few ticks a frame after, however
    /// many edges the frames span.
    #[test]
    fn capture_engine_rests_until_traffic_arrives() {
        let mut o = OsntTester::new(&BoardSpec::sume(), 2);
        let ticks_of = |o: &OsntTester, module: &str| {
            let ticks = o.chassis.sim.module_ticks();
            ticks.iter().find(|(name, _)| name == module).unwrap().1
        };
        o.chassis.run_for(Time::from_us(10));
        assert_eq!(ticks_of(&o, "osnt_cap0"), 0, "nothing to capture yet");
        assert_eq!(ticks_of(&o, "osnt_gen0"), 0, "nothing started yet");
        for (from, to) in [(0, 1), (1, 0)] {
            let (_, from_board) = o.chassis.port_wires(from);
            let (to_board, _) = o.chassis.port_wires(to);
            let name = format!("link{from}");
            o.chassis
                .add_link(&name, from_board, to_board, LinkConfig::default());
        }
        o.generators[0].start(GeneratorConfig::probe(1, BitRate::gbps(9), 1514, 40));
        o.generators[1].start(GeneratorConfig::probe(2, BitRate::gbps(4), 124, 200));
        o.chassis.run_for(Time::from_us(120));
        assert_eq!(o.captures[0].count(), 200);
        assert_eq!(o.captures[1].count(), 40);
        let edges = o.chassis.sim.cycles(o.chassis.clk);
        for (module, frames) in [
            ("osnt_gen0", 40),
            ("osnt_gen1", 200),
            ("osnt_cap0", 200),
            ("osnt_cap1", 40),
        ] {
            let ticks = ticks_of(&o, module);
            assert!(
                ticks <= 3 * frames,
                "{module}: {ticks} ticks for {frames} frames ({edges} edges)"
            );
        }
    }

    /// A staged frame length past the largest frame used to reach the
    /// generator: 70 000 B wrapped `Meta::len`, `0xFFFF_FFFF` asked for a
    /// 4 GiB probe payload.
    #[test]
    fn start_with_an_oversized_frame_length_is_ignored() {
        let mut o = looped(Time::from_ns(10));
        let word = |w: u32| OSNT_BASE + w * 4;
        o.chassis.write32(word(1), 1000); // Mb/s
        o.chassis.write32(word(3), 3); // probes
        for len in [MAX_FRAME_LEN as u32 + 1, 70_000, 0xFFFF_FFFF] {
            o.chassis.write32(word(2), len);
            o.chassis.write32(word(0), 1);
            o.chassis.run_for(Time::from_us(20));
            assert_eq!(o.chassis.read32(word(8)), 0, "length {len} refused");
            assert!(o.generators[0].done(), "never armed");
        }
        o.chassis.write32(word(2), MAX_FRAME_LEN as u32);
        o.chassis.write32(word(0), 1);
        o.chassis.run_for(Time::from_us(100));
        assert_eq!(o.chassis.read32(word(8)), 3);
        assert_eq!(o.chassis.read32(word(9)), 3, "captured after the loop");
        for w in [6, 7, 13, 63] {
            assert_eq!(o.chassis.read32(word(w)), UNMAPPED_READ, "word {w}");
        }
    }

    #[test]
    fn counts_non_probe_traffic() {
        let mut o = OsntTester::new(&BoardSpec::sume(), 1);
        o.chassis.send(0, vec![0u8; 100]);
        o.chassis.run_for(Time::from_us(10));
        assert_eq!(o.captures[0].non_probe.get(), 1);
        assert_eq!(o.captures[0].count(), 0);
        assert_eq!(o.captures[0].bytes(), 100);
    }
}
