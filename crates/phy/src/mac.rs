//! Ethernet MAC models with exact wire-time accounting.
//!
//! Every frame on the wire costs `preamble (8) + frame + FCS (4) + IFG (12)`
//! bytes of serialization time at the line rate. [`EthMacTx`] consumes a
//! word stream from the datapath, reassembles frames and schedules their
//! departure on a [`Wire`]; [`EthMacRx`] picks fully-arrived frames off a
//! wire, stamps the ingress time and re-segments them into the datapath.
//!
//! The MAC is store-and-forward: a frame begins serializing only once fully
//! handed over by the datapath. With the reference bus widths the datapath
//! is faster than the line, so this never limits throughput; it adds the
//! usual one-frame assembly latency that hardware MAC+FIFO stages also add.
//!
//! Towards the datapath both MACs move one word per cycle, through a
//! packet port ([`PacketRx`], [`PacketTx`]): next to a paced module on the
//! same clock a frame crosses as one beat-timed burst ([`EthMacRx`] commits
//! it when it has arrived, [`EthMacTx`] claims it and acts on the edge its
//! last word is popped), so a MAC ticks per frame, not per word, with every
//! instant where the per-word exchange puts it. `with_burst(true)` is the
//! ports' other, collapsed pacing: whole frames per tick, no cycle-level
//! timing.

use netfpga_core::pktbuf::PktBuf;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stats::Counter;
use netfpga_core::stream::{Meta, PacketRx, PacketTx, PortMask, StreamRx, StreamTx};
use netfpga_core::telemetry::StatRegistry;
use netfpga_core::time::{BitRate, Time};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Preamble + SFD bytes.
pub const PREAMBLE_BYTES: u64 = 8;
/// Frame check sequence bytes.
pub const FCS_BYTES: u64 = 4;
/// Minimum inter-frame gap bytes.
pub const IFG_BYTES: u64 = 12;
/// Total per-frame wire overhead beyond the (FCS-less) frame data.
pub const WIRE_OVERHEAD_BYTES: u64 = PREAMBLE_BYTES + FCS_BYTES + IFG_BYTES;

/// Wire bytes consumed by a frame of `len` data bytes (len excludes FCS).
pub fn wire_bytes(len: u64) -> u64 {
    len + WIRE_OVERHEAD_BYTES
}

/// Maximum frames per second at `rate` for `len`-byte frames — the
/// theoretical line-rate curve of experiment E2.
pub fn line_rate_fps(rate: BitRate, len: u64) -> f64 {
    rate.as_bps() as f64 / (wire_bytes(len) * 8) as f64
}

/// What a frame on a wire knows about its frame check sequence.
///
/// The four FCS bytes themselves are accounted as wire time only; this is
/// the *detectability* of in-flight corruption. The common case —
/// stamped by a MAC, bytes untouched — carries no CRC value at all: the
/// refcounted buffer is immutable until a copy-on-write, so the value the
/// transmitting MAC would have stored is recoverable from the bytes for
/// as long as nobody rewrites them, and is computed only at that moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fcs {
    /// No FCS recorded: "assume good" (tester-injected frames), preserving
    /// the pre-fault-plane behaviour.
    #[default]
    Unchecked,
    /// Stamped by a transmitting MAC and byte-identical since: the FCS is
    /// by construction the CRC-32 of the current bytes, so a receiving MAC
    /// accepts the frame without a CRC pass.
    Intact,
    /// The bytes may have been rewritten since the FCS was taken; carries
    /// the CRC-32 of the pristine bytes, which the receiving MAC rechecks
    /// — the real Ethernet error-detection story.
    Stale(u32),
}

/// A frame in flight or delivered on a wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Frame bytes (no preamble/FCS bytes; those are accounted as time).
    /// A refcounted buffer: forwarding a frame between wires or mirroring
    /// it bumps a refcount instead of copying the payload.
    pub data: PktBuf,
    /// Instant the last bit arrives at the far end.
    pub ready_at: Time,
    /// The frame's FCS state. Rewrite `data` only through
    /// [`WireFrame::corrupt_data`], which keeps this honest.
    pub fcs: Fcs,
}

impl WireFrame {
    /// A frame with no FCS recorded ("assume good", tester-injected).
    pub fn new(data: impl Into<PktBuf>, ready_at: Time) -> WireFrame {
        WireFrame {
            data: data.into(),
            ready_at,
            fcs: Fcs::Unchecked,
        }
    }

    /// A frame stamped by a transmitting MAC: its FCS is that of its
    /// current bytes, without computing it.
    pub fn stamped(data: impl Into<PktBuf>, ready_at: Time) -> WireFrame {
        WireFrame {
            data: data.into(),
            ready_at,
            fcs: Fcs::Intact,
        }
    }

    /// The FCS value travelling with the frame, computed on demand for an
    /// [`Fcs::Intact`] frame; `None` when none was recorded.
    pub fn fcs(&self) -> Option<u32> {
        match self.fcs {
            Fcs::Unchecked => None,
            Fcs::Intact => Some(netfpga_packet::fcs::crc32(&self.data)),
            Fcs::Stale(fcs) => Some(fcs),
        }
    }

    /// Mutable access to the frame bytes, copy-on-write: sibling references
    /// (flood copies, mirrors, captures) never observe the mutation. An
    /// intact FCS goes stale here, as any in-flight rewrite must make it:
    /// the pristine CRC is taken now, before the first byte changes — the
    /// value the transmitting MAC would have stored.
    pub fn corrupt_data(&mut self) -> &mut [u8] {
        if self.fcs == Fcs::Intact {
            self.fcs = Fcs::Stale(netfpga_packet::fcs::crc32(&self.data));
        }
        self.data.make_mut()
    }
}

/// A unidirectional wire: an ordered queue of frames with arrival times.
/// One MAC TX feeds it; a [`Link`](crate::link::Link) or MAC RX drains it.
#[derive(Debug, Clone, Default)]
pub struct Wire {
    inner: Rc<RefCell<WireInner>>,
}

#[derive(Debug, Default)]
struct WireInner {
    frames: VecDeque<WireFrame>,
    /// Woken when a frame lands: the drainer's activity-cache flag.
    wake: Option<WakeHandle>,
}

impl Wire {
    /// An empty wire.
    pub fn new() -> Wire {
        Wire::default()
    }

    /// Append a frame (TX side).
    pub fn push(&self, frame: WireFrame) {
        let mut i = self.inner.borrow_mut();
        i.frames.push_back(frame);
        if let Some(w) = &i.wake {
            w.wake();
        }
    }

    /// Take the head frame if it has fully arrived by `now` (RX side).
    pub fn take_ready(&self, now: Time) -> Option<WireFrame> {
        let mut i = self.inner.borrow_mut();
        if i.frames.front().is_some_and(|f| f.ready_at <= now) {
            i.frames.pop_front()
        } else {
            None
        }
    }

    /// Arrival instant of the head frame, if one is queued. Wires are FIFO,
    /// so nothing can be taken before this instant: a drainer blocked on it
    /// is provably inert until then.
    pub fn head_ready_at(&self) -> Option<Time> {
        self.inner.borrow().frames.front().map(|f| f.ready_at)
    }

    /// Frames on the wire (in flight or waiting).
    pub fn len(&self) -> usize {
        self.inner.borrow().frames.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().frames.is_empty()
    }

    /// Register the draining module's activity-invalidation flag: it is
    /// woken whenever a frame is pushed onto this wire. One drainer per
    /// wire; a later registration replaces the earlier one.
    pub fn set_wake(&self, wake: WakeHandle) {
        self.inner.borrow_mut().wake = Some(wake);
    }
}

/// MAC counters, mirroring the statistics registers of the reference MACs:
/// shared cells the MAC increments and the telemetry plane reads.
#[derive(Debug, Clone, Default)]
pub struct MacCounters {
    /// Frames handled.
    pub frames: Counter,
    /// Frame data bytes handled.
    pub bytes: Counter,
    /// Wire bytes including preamble/FCS/IFG.
    pub wire_bytes: Counter,
    /// Frames dropped (RX: a frame with no bytes).
    pub dropped: Counter,
    /// Frames dropped by the RX MAC because the recomputed CRC-32 did not
    /// match the frame's FCS (corrupted in flight).
    pub bad_fcs: Counter,
}

impl MacCounters {
    /// Every counter with its path below the MAC's prefix.
    fn cells(&self) -> [(&'static str, &Counter); 5] {
        [
            ("frames", &self.frames),
            ("bytes", &self.bytes),
            ("wire_bytes", &self.wire_bytes),
            ("dropped", &self.dropped),
            ("bad_fcs", &self.bad_fcs),
        ]
    }

    /// Register every counter on `registry` under `prefix` (e.g.
    /// `port0.mac.rx`): `frames`, `bytes`, `wire_bytes`, `dropped`,
    /// `bad_fcs`.
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        for (name, cell) in self.cells() {
            registry.register_counter(&format!("{prefix}.{name}"), cell);
        }
    }

    /// Count one frame of `len` data bytes.
    fn frame(&self, len: u64) {
        self.frames.incr();
        self.bytes.add(len);
        self.wire_bytes.add(wire_bytes(len));
    }

    /// Zero every counter (a hard reset).
    fn clear(&self) {
        for (_, cell) in self.cells() {
            cell.clear();
        }
    }
}

/// Bytes of TX buffering inside the MAC (two MTU frames): once this much
/// wire time is queued ahead, the MAC stops accepting datapath words — the
/// back-pressure that lets congestion build in the output queues where the
/// scheduler can act on it.
pub const TX_FIFO_BYTES: u64 = 2 * 1538;

/// The transmit MAC: datapath word stream in, paced wire frames out.
pub struct EthMacTx {
    name: String,
    rate: BitRate,
    /// Wire time of the inter-frame gap and of [`TX_FIFO_BYTES`] at `rate`.
    ifg: Time,
    backlog_limit: Time,
    input: PacketRx,
    wire: Wire,
    /// Completion time of the most recent frame's wire occupancy (including
    /// IFG); the next frame cannot finish before this plus its own time.
    line_busy_until: Time,
    counters: MacCounters,
    /// Activity-cache invalidation flag, registered on the input stream.
    wake: WakeHandle,
}

impl EthMacTx {
    /// Create a TX MAC at `rate` draining `input` onto `wire`.
    pub fn new(name: &str, rate: BitRate, input: StreamRx, wire: Wire) -> (EthMacTx, MacCounters) {
        let counters = MacCounters::default();
        let wake = WakeHandle::new();
        (
            EthMacTx {
                name: name.to_string(),
                rate,
                ifg: rate.time_for_bytes(IFG_BYTES),
                backlog_limit: rate.time_for_bytes(TX_FIFO_BYTES),
                input: PacketRx::new(input, &wake),
                wire,
                line_busy_until: Time::ZERO,
                counters: counters.clone(),
                wake,
            },
            counters,
        )
    }

    /// The configured line rate.
    pub fn rate(&self) -> BitRate {
        self.rate
    }

    /// Enable the burst fast path: each tick drains every datapath word the
    /// back-pressure budget allows instead of one per cycle. Frame pacing on
    /// the wire is still computed from the line rate and stays exact under
    /// sustained load (`line_busy_until` dominates); only a cold first
    /// frame's start may shift earlier by a few datapath cycles.
    pub fn with_burst(mut self, enabled: bool) -> EthMacTx {
        self.input.set_burst(enabled);
        self
    }

    /// A frame handed over in full by the datapath: schedule it on the wire
    /// behind whatever the line is still busy with.
    fn ingest(&mut self, data: PktBuf, now: Time) {
        let len = data.len() as u64;
        let occupancy = self.rate.time_for_bytes(wire_bytes(len));
        let start = self.line_busy_until.max(now);
        let busy_until = start + occupancy;
        // The frame's bits (minus trailing IFG) have arrived when the FCS
        // lands; IFG only gates the *next* frame.
        let ready_at = busy_until.saturating_sub(self.ifg);
        // The FCS rides along for downstream verification without being
        // computed (see [`Fcs::Intact`]); its four bytes stay accounted as
        // wire time only, so pacing and line-rate math are untouched.
        self.wire.push(WireFrame::stamped(data, ready_at));
        self.line_busy_until = busy_until;
        self.counters.frame(len);
    }

    /// Back-pressure: new frames are refused while more than
    /// [`TX_FIFO_BYTES`] of wire time is already committed. Mid-frame
    /// words always flow (a started frame must finish).
    fn gate_closed(&self, now: Time) -> bool {
        !self.input.mid_packet() && self.line_busy_until > now + self.backlog_limit
    }
}

impl Module for EthMacTx {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        // The backlog is re-checked at every frame boundary.
        while let Some((data, _meta)) = self.input.poll(!self.gate_closed(ctx.now), ctx) {
            self.ingest(data, ctx.now);
        }
    }

    fn reset(&mut self) {
        self.input.reset();
        self.line_busy_until = Time::ZERO;
        self.counters.clear();
    }

    /// Watchdog recovery: discard a partially reassembled frame (its tail
    /// was flushed upstream; uncounted) and restart the wire pacing mark.
    /// Statistics and configuration survive.
    fn soft_reset(&mut self) {
        self.input.soft_reset();
        self.line_busy_until = Time::ZERO;
    }

    /// The port's answer, except that a frame waiting to start waits for
    /// the backlog gate: the tick is a no-op until the committed wire time
    /// drains below the FIFO budget — a known instant, since
    /// `line_busy_until` only moves when a frame is accepted. Mid-frame
    /// words always flow, so no bound exists then.
    fn activity(&self) -> Activity {
        match self.input.activity(true) {
            Activity::Active if !self.input.mid_packet() => {
                Activity::Bounded(self.line_busy_until.saturating_sub(self.backlog_limit))
            }
            answer => answer,
        }
    }

    /// Only the input stream can change this MAC's activity from outside:
    /// the backlog gate and wire schedule move on its own ticks alone.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

/// The receive MAC: wire frames in, timestamped datapath words out.
pub struct EthMacRx {
    name: String,
    wire: Wire,
    output: PacketTx,
    src_port: u8,
    counters: MacCounters,
    /// Activity-cache invalidation flag, registered on the input wire and
    /// the output stream (pops free the space a stalled delivery waits on).
    wake: WakeHandle,
}

impl EthMacRx {
    /// Create an RX MAC delivering frames from `wire` into `output` with
    /// `src_port` stamped in the metadata.
    pub fn new(name: &str, wire: Wire, output: StreamTx, src_port: u8) -> (EthMacRx, MacCounters) {
        let counters = MacCounters::default();
        let wake = WakeHandle::new();
        wire.set_wake(wake.clone());
        (
            EthMacRx {
                name: name.to_string(),
                wire,
                output: PacketTx::new(output, &wake),
                src_port,
                counters: counters.clone(),
                wake,
            },
            counters,
        )
    }

    /// Enable the burst fast path: each tick segments every fully-arrived
    /// frame and pushes words until the datapath stream fills, instead of
    /// one word per cycle. Frame order and ingress timestamps (taken from
    /// wire arrival) are unchanged.
    pub fn with_burst(mut self, enabled: bool) -> EthMacRx {
        self.output.set_burst(enabled);
        self
    }
}

impl Module for EthMacRx {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        // Fetch the next fully-arrived frame once the previous is delivered.
        while self.output.emit(ctx) {
            let Some(frame) = self.wire.take_ready(ctx.now) else {
                break;
            };
            // FCS check: a frame whose recorded FCS no longer matches its
            // bytes was corrupted in flight — drop it here, as the hardware
            // MAC does, and count it. An *intact* FCS needs no CRC pass:
            // the refcounted buffer is immutable, so bytes unchanged since
            // the TX MAC stamped it is guaranteed by construction
            // (impairments stale it when they CoW).
            if let Fcs::Stale(fcs) = frame.fcs {
                if !netfpga_packet::fcs::verify(&frame.data, fcs) {
                    self.counters.bad_fcs.incr();
                    continue;
                }
            }
            // No bytes between two gaps is not a frame; the stream cannot
            // carry one either.
            if frame.data.is_empty() {
                self.counters.dropped.incr();
                continue;
            }
            // A frame the datapath cannot absorb *at all* (wider than the
            // whole FIFO) would wedge; the reference designs size FIFOs for
            // max frames, so per-word back-pressure (the port's) is enough.
            let meta = Meta {
                len: frame.data.len() as u16,
                src_port: self.src_port,
                dst_ports: PortMask::EMPTY,
                ingress_time: frame.ready_at,
                flags: 0,
            };
            self.counters.frame(frame.data.len() as u64);
            self.output.stage(frame.data, meta);
        }
    }

    fn reset(&mut self) {
        self.output.reset();
        self.counters.clear();
    }

    /// Watchdog recovery: a frame whose leading words already entered the
    /// datapath is truncated (the stage downstream resyncs); an untouched
    /// staged frame survives intact. Frames still arriving on the wire are
    /// untouched.
    fn soft_reset(&mut self) {
        self.output.soft_reset();
    }

    /// The port's answer, the next frame to stage being the head of the
    /// FIFO wire when it has finished arriving. An in-flight frame with a
    /// future `ready_at` is scheduled, time-dependent work, so only a
    /// completely empty wire is idle; frames keep queueing on the wire
    /// while a staged one is stalled, but none is fetched until it drains.
    fn activity(&self) -> Activity {
        self.output.activity(self.wire.head_ready_at())
    }

    /// External activity channels: frames landing on the wire and datapath
    /// pops freeing space for staged words.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::packetio::{PacketSink, PacketSource};
    use netfpga_core::sim::Simulator;
    use netfpga_core::stream::{Reassembler, Stream};
    use netfpga_core::time::Frequency;

    #[test]
    fn wire_overhead_constants() {
        assert_eq!(WIRE_OVERHEAD_BYTES, 24);
        assert_eq!(wire_bytes(64), 88);
        assert_eq!(wire_bytes(1514), 1538);
    }

    #[test]
    fn theoretical_line_rates() {
        // Lengths here are FCS-less datapath lengths: the classic "64-byte
        // frame" (which includes FCS) is 60 data bytes.
        // 10G, 64 B wire frames -> 14.88 Mpps.
        let fps = line_rate_fps(BitRate::gbps(10), 60);
        assert!((fps / 1e6 - 14.88).abs() < 0.01, "{fps}");
        // 10G, 1518 B wire frames -> 812.7 kpps.
        let fps = line_rate_fps(BitRate::gbps(10), 1514);
        assert!((fps / 1e3 - 812.7).abs() < 1.0, "{fps}");
        // 100G, 64 B wire frames -> 148.8 Mpps.
        let fps = line_rate_fps(BitRate::gbps(100), 60);
        assert!((fps / 1e6 - 148.8).abs() < 0.1, "{fps}");
    }

    /// Source -> TX MAC -> wire -> RX MAC -> sink: frames survive intact
    /// and the wire paces them at the configured rate.
    #[test]
    fn tx_rx_roundtrip_and_pacing() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (src_tx, src_rx) = Stream::new(8, 32);
        let (dst_tx, dst_rx) = Stream::new(8, 32);
        let wire = Wire::new();
        let (source, inject) = PacketSource::new("src", src_tx);
        let (mac_tx, tx_stats) = EthMacTx::new("mac_tx", BitRate::gbps(10), src_rx, wire.clone());
        let (mac_rx, rx_stats) = EthMacRx::new("mac_rx", wire, dst_tx, 3);
        let (sink, capture) = PacketSink::new("dst", dst_rx);
        sim.add_module(clk, source);
        sim.add_module(clk, mac_tx);
        sim.add_module(clk, mac_rx);
        sim.add_module(clk, sink);

        let frame = vec![0xabu8; 1000];
        inject.push(frame.clone(), 0);
        inject.push(frame.clone(), 0);
        sim.run_until(Time::from_us(5));

        assert_eq!(capture.total_packets(), 2);
        let a = capture.pop().unwrap();
        let b = capture.pop().unwrap();
        assert_eq!(a.data, frame);
        assert_eq!(a.meta.src_port, 3, "RX MAC stamps its port");
        // Pacing: frame ready-times are >= one wire-time apart.
        let spacing = b.meta.ingress_time - a.meta.ingress_time;
        let min_spacing = BitRate::gbps(10).time_for_bytes(wire_bytes(1000));
        assert!(
            spacing >= min_spacing,
            "spacing {spacing} < wire time {min_spacing}"
        );
        assert_eq!(tx_stats.frames.get(), 2);
        assert_eq!(tx_stats.wire_bytes.get(), 2 * wire_bytes(1000));
        assert_eq!(rx_stats.frames.get(), 2);
    }

    /// Back-to-back 64 B frames at 10G achieve the theoretical 14.88 Mpps
    /// within a small tolerance (store-and-forward startup excluded).
    #[test]
    fn line_rate_64b_frames() {
        let mut sim = Simulator::new();
        // Datapath at 200 MHz x 32 B = 51.2 Gb/s >> 10G: MAC is the limit.
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (src_tx, src_rx) = Stream::new(16, 32);
        let wire = Wire::new();
        let (source, inject) = PacketSource::new("src", src_tx);
        let (mac_tx, stats) = EthMacTx::new("mac", BitRate::gbps(10), src_rx, wire.clone());
        sim.add_module(clk, source);
        sim.add_module(clk, mac_tx);
        let n = 1000;
        for _ in 0..n {
            inject.push(vec![0u8; 64], 0);
        }
        // Run until all frames are on the wire.
        let done = sim.run_while(Time::from_ms(1), || stats.frames.get() < n);
        assert!(done);
        // Drain: the nth frame's ready_at bounds the elapsed wire time.
        let mut last_ready = Time::ZERO;
        while let Some(f) = wire.take_ready(Time::from_ms(10)) {
            last_ready = f.ready_at;
        }
        let fps = (n - 1) as f64 / (last_ready.as_secs_f64());
        let theory = line_rate_fps(BitRate::gbps(10), 64);
        // Startup skew of the first frame biases slightly; within 2%.
        assert!(
            (fps - theory).abs() / theory < 0.02,
            "measured {fps:.0} vs theory {theory:.0}"
        );
    }

    #[test]
    fn wire_ordering_and_readiness() {
        let w = Wire::new();
        w.push(WireFrame::new(vec![1], Time::from_ns(100)));
        w.push(WireFrame::new(vec![2], Time::from_ns(50)));
        // Head not ready: nothing, even though a later frame "is" (wires
        // are FIFO; reordering is impossible).
        assert!(w.take_ready(Time::from_ns(60)).is_none());
        assert_eq!(w.take_ready(Time::from_ns(100)).unwrap().data, vec![1]);
        assert_eq!(w.take_ready(Time::from_ns(100)).unwrap().data, vec![2]);
        assert!(w.is_empty());
    }

    /// Partial fit in burst mode: a 48-beat frame reaches the datapath
    /// through an 8-deep FIFO eight beats at a time behind a word-per-cycle
    /// consumer, intact and on the cycle the per-beat queue delivered it.
    #[test]
    fn burst_rx_mac_feeds_a_long_frame_through_a_shallow_fifo_on_time() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (dst_tx, dst_rx) = Stream::new(8, 32);
        let wire = Wire::new();
        let (mac_rx, _) = EthMacRx::new("mac_rx", wire.clone(), dst_tx, 0);
        let (sink, capture) = PacketSink::new("dst", dst_rx.clone());
        sim.add_module(clk, mac_rx.with_burst(true));
        sim.add_module(clk, sink);
        let frame: Vec<u8> = (0..1514).map(|i| i as u8).collect();
        wire.push(WireFrame::new(frame.clone(), Time::ZERO));
        sim.run_until(Time::from_us(1));
        let got = capture.pop().expect("delivered");
        assert_eq!(got.data, frame);
        assert_eq!(got.arrival, Time::from_ps(240_000));
        assert_eq!((dst_rx.total_pushed(), dst_rx.total_packets()), (48, 1));
    }

    /// The burst path costs O(1) per frame per hop: a 1514 B frame queued
    /// by a burst-mode MAC is one queue entry holding one reference to the
    /// buffer, not one view per beat.
    #[test]
    fn burst_rx_mac_queues_a_frame_as_one_reference() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (dst_tx, dst_rx) = Stream::new(64, 32);
        let wire = Wire::new();
        let (mac_rx, _) = EthMacRx::new("mac_rx", wire.clone(), dst_tx, 0);
        sim.add_module(clk, mac_rx.with_burst(true));
        let frame = PktBuf::copy_from(&[7u8; 1514]);
        wire.push(WireFrame::new(frame.clone(), Time::ZERO));
        assert_eq!(frame.ref_count(), 2, "ours and the wire's");
        sim.run_cycles(clk, 1);
        assert_eq!(dst_rx.occupancy(), 48, "all 48 beats are queued");
        assert_eq!(frame.ref_count(), 2, "ours and the one queue entry's");
    }

    /// Stall rule: staged words facing a full datapath stream make the RX
    /// MAC quiescent — frames landing on the wire meanwhile wake it only to
    /// be re-classified, not ticked — until the stream is popped.
    #[test]
    fn rx_mac_stalled_on_full_output_is_quiescent_until_a_pop() {
        for burst in [false, true] {
            let (dst_tx, dst_rx) = Stream::new(8, 32);
            let wire = Wire::new();
            let (mac_rx, stats) = EthMacRx::new("mac_rx", wire.clone(), dst_tx, 0);
            let mut sim = Simulator::new();
            let clk = sim.add_clock("core", Frequency::mhz(200));
            sim.add_module(clk, mac_rx.with_burst(burst));
            let ticks = |sim: &Simulator| sim.module_ticks()[0].1;
            wire.push(WireFrame::new(vec![1u8; 320], Time::ZERO)); // 10 words
            sim.run_cycles(clk, 20);
            assert_eq!(dst_rx.occupancy(), 8);
            assert!(
                sim.all_quiescent(),
                "burst={burst}: stalled on the datapath"
            );
            let stalled_at = ticks(&sim);
            wire.push(WireFrame::new(vec![2u8; 64], Time::ZERO));
            sim.run_cycles(clk, 1000);
            assert_eq!(
                ticks(&sim),
                stalled_at,
                "burst={burst}: no tick while stalled"
            );
            assert_eq!(stats.frames.get(), 1, "the second frame is not fetched yet");
            assert_eq!(wire.len(), 1);

            dst_rx.pop().expect("head word");
            sim.run_cycles(clk, 1);
            assert_eq!(ticks(&sim), stalled_at + 1, "one pop, one tick");
            assert_eq!(dst_rx.occupancy(), 8, "the freed slot was refilled");
            assert!(sim.all_quiescent());

            // The first frame's head word was popped above: resync past its
            // tail, then the second frame reassembles whole.
            let mut r = Reassembler::new();
            r.resync();
            let mut got = Vec::new();
            for _ in 0..40 {
                while let Some(w) = dst_rx.pop() {
                    got.extend(r.push(w));
                }
                sim.run_cycles(clk, 1);
            }
            assert_eq!(stats.frames.get(), 2);
            assert_eq!(got.last().expect("second frame").0, vec![2u8; 64]);
            assert!(sim.all_quiescent(), "drained");
        }
    }

    /// A soft reset between the cycle an RX MAC pushes a frame's `sop` and
    /// the cycle the TX MAC downstream pops it: the RX MAC truncates the
    /// frame, the TX MAC resyncs with nothing received yet, then takes the
    /// orphaned `sop` as a frame start. The next frame must restart its
    /// reassembler — not trip "sop inside packet" — and leave intact.
    #[test]
    fn soft_reset_with_the_sop_still_queued_delivers_the_next_frame() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (tx, rx) = Stream::new(16, 32);
        let (wire_in, wire_out) = (Wire::new(), Wire::new());
        let (mac_rx, rx_stats) = EthMacRx::new("mac_rx", wire_in.clone(), tx, 0);
        let (mac_tx, tx_stats) = EthMacTx::new("mac_tx", BitRate::gbps(10), rx, wire_out.clone());
        // Consumer first: a word pushed at an edge is popped at the next.
        sim.add_module(clk, mac_tx);
        sim.add_module(clk, mac_rx);
        wire_in.push(WireFrame::new(vec![1u8; 320], Time::ZERO));
        while rx_stats.frames.get() == 0 {
            sim.step();
        }
        sim.soft_reset();
        let next = vec![2u8; 200];
        wire_in.push(WireFrame::new(next.clone(), sim.now()));
        sim.run_for(Time::from_us(2));
        assert_eq!(rx_stats.frames.get(), 2);
        assert_eq!(tx_stats.frames.get(), 1, "the cut frame never leaves");
        let out = wire_out.take_ready(sim.now()).expect("the next frame");
        assert_eq!(out.data, next);
        assert!(wire_out.is_empty());
    }

    /// A TX MAC records the real CRC-32; a frame corrupted in flight is
    /// dropped by the RX MAC and counted, while untouched frames and
    /// FCS-less (tester) frames pass.
    #[test]
    fn rx_mac_drops_bad_fcs() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (dst_tx, dst_rx) = Stream::new(8, 32);
        let wire = Wire::new();
        let (mac_rx, rx_stats) = EthMacRx::new("mac_rx", wire.clone(), dst_tx, 0);
        let (sink, capture) = PacketSink::new("dst", dst_rx);
        sim.add_module(clk, mac_rx);
        sim.add_module(clk, sink);

        let good = vec![0x11u8; 100];
        let fcs = netfpga_packet::fcs::crc32(&good);
        // A corruption through the CoW path: siblings of the buffer stay
        // intact, the frame's FCS goes stale — taking the pristine CRC at
        // that moment — and the RX MAC's recheck fails.
        let mut corrupted = WireFrame::stamped(good.clone(), Time::ZERO);
        corrupted.corrupt_data()[40] ^= 0x04;
        assert_eq!(corrupted.fcs, Fcs::Stale(fcs));
        wire.push(WireFrame::stamped(good.clone(), Time::ZERO));
        wire.push(corrupted);
        wire.push(WireFrame::new(vec![0x22; 64], Time::ZERO));
        // A stale-but-unmodified FCS still verifies by recomputation.
        wire.push(WireFrame {
            fcs: Fcs::Stale(fcs),
            ..WireFrame::new(good.clone(), Time::ZERO)
        });
        sim.run_until(Time::from_us(1));

        assert_eq!(
            capture.total_packets(),
            3,
            "good + unchecked + stale-valid delivered"
        );
        assert_eq!(capture.pop().unwrap().data, good);
        assert_eq!(capture.pop().unwrap().data, vec![0x22; 64]);
        assert_eq!(capture.pop().unwrap().data, good);
        assert_eq!(rx_stats.bad_fcs.get(), 1);
        assert_eq!(rx_stats.frames.get(), 3);
    }

    /// What the TX MAC puts on the wire carries the frame's true CRC-32
    /// (verified against an independent computation), without the MAC
    /// having computed it.
    #[test]
    fn tx_mac_records_real_fcs() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (src_tx, src_rx) = Stream::new(8, 32);
        let wire = Wire::new();
        let (source, inject) = PacketSource::new("src", src_tx);
        let (mac_tx, _stats) = EthMacTx::new("mac", BitRate::gbps(10), src_rx, wire.clone());
        sim.add_module(clk, source);
        sim.add_module(clk, mac_tx);
        let frame = vec![0x5au8; 200];
        inject.push(frame.clone(), 0);
        sim.run_until(Time::from_us(2));
        let f = wire.take_ready(Time::from_ms(1)).expect("frame on wire");
        assert_eq!(f.fcs, Fcs::Intact);
        assert_eq!(f.fcs(), Some(netfpga_packet::fcs::crc32(&frame)));
    }
}
