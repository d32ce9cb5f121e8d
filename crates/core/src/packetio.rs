//! Packet-level endpoints for driving and observing word-level streams.
//!
//! [`PacketSource`] turns queued packets into bus words (one word per cycle,
//! respecting back-pressure); [`PacketSink`] reassembles words back into
//! packets and records their arrival time. These are the simulation-side
//! stand-ins for "the rest of the world" in unit tests and experiments; the
//! MAC models in `netfpga-phy` add wire-rate pacing on top.
//!
//! Both sit on a word-paced packet port ([`PacketTx`], [`PacketRx`]):
//! against a paced neighbour on the same clock a packet crosses as one
//! beat-timed burst and the endpoint ticks when a packet starts or ends,
//! not once per word; against anything else they move a word per tick.
//! Every beat keeps its cycle either way.

use crate::pktbuf::PktBuf;
use crate::sim::{Activity, Module, TickContext, WakeHandle};
use crate::stream::{Meta, PacketRx, PacketTx, PortMask, StreamRx, StreamTx};
use crate::time::Time;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Queue storage shared between the handle and the source module.
type SharedPacketQueue = Rc<RefCell<VecDeque<(PktBuf, Meta)>>>;

/// A queue of packets shared with a [`PacketSource`] so tests can inject
/// packets while the simulation runs.
#[derive(Debug, Clone, Default)]
pub struct InjectQueue {
    inner: SharedPacketQueue,
    /// The owning [`PacketSource`]'s activity-cache flag: an injection
    /// un-idles an empty source.
    wake: Rc<RefCell<Option<WakeHandle>>>,
}

impl InjectQueue {
    /// An empty queue.
    pub fn new() -> InjectQueue {
        InjectQueue::default()
    }

    /// Queue a packet with explicit metadata.
    pub fn push_with_meta(&self, packet: impl Into<PktBuf>, meta: Meta) {
        let packet = packet.into();
        assert!(!packet.is_empty(), "empty packet");
        self.inner.borrow_mut().push_back((packet, meta));
        if let Some(w) = &*self.wake.borrow() {
            w.wake();
        }
    }

    /// Queue a packet arriving on `src_port`; length is filled in and the
    /// destination mask left empty (a lookup stage decides it).
    pub fn push(&self, packet: impl Into<PktBuf>, src_port: u8) {
        let packet = packet.into();
        let meta = Meta {
            len: packet.len() as u16,
            src_port,
            dst_ports: PortMask::EMPTY,
            ingress_time: Time::ZERO,
            flags: 0,
        };
        self.push_with_meta(packet, meta);
    }

    /// Packets not yet emitted.
    pub fn pending(&self) -> usize {
        self.inner.borrow().len()
    }
}

/// Emits queued packets as bus words, one word per cycle, stamping
/// `ingress_time` on each packet's first word.
pub struct PacketSource {
    name: String,
    queue: InjectQueue,
    tx: PacketTx,
    sent_packets: u64,
    sent_bytes: u64,
    /// Activity-cache invalidation flag, registered on the inject queue
    /// and on the output stream (pops free the space a stalled emission
    /// waits on).
    wake: WakeHandle,
}

impl PacketSource {
    /// Create a source feeding `tx`, returning the source and its queue.
    pub fn new(name: &str, tx: StreamTx) -> (PacketSource, InjectQueue) {
        let queue = InjectQueue::new();
        let wake = WakeHandle::new();
        *queue.wake.borrow_mut() = Some(wake.clone());
        (
            PacketSource {
                name: name.to_string(),
                queue: queue.clone(),
                tx: PacketTx::new(tx, &wake),
                sent_packets: 0,
                sent_bytes: 0,
                wake,
            },
            queue,
        )
    }

    /// Packets fully emitted so far.
    pub fn sent_packets(&self) -> u64 {
        self.sent_packets
    }

    /// Bytes fully emitted so far.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }
}

impl Module for PacketSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        while self.tx.emit(ctx) {
            let Some((packet, mut meta)) = self.queue.inner.borrow_mut().pop_front() else {
                break;
            };
            meta.ingress_time = ctx.now;
            meta.len = packet.len() as u16;
            self.sent_bytes += packet.len() as u64;
            self.sent_packets += 1;
            self.tx.stage(packet, meta);
        }
    }

    fn reset(&mut self) {
        self.tx.reset();
        self.queue.inner.borrow_mut().clear();
        self.sent_packets = 0;
        self.sent_bytes = 0;
    }

    /// A packet cut short mid-emission is discarded; queued packets stay.
    fn soft_reset(&mut self) {
        self.tx.soft_reset();
    }

    /// The port's answer; a queued packet is stamped and staged as soon as
    /// the bus is free.
    fn activity(&self) -> Activity {
        self.tx
            .activity((self.queue.pending() > 0).then_some(Time::ZERO))
    }

    /// External activity channels: injections into the queue, pops from
    /// the output.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

/// A packet captured by a [`PacketSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedPacket {
    /// The packet bytes (a refcounted view; compare or index it like a
    /// slice, or call [`PktBuf::to_vec`] for an owned copy).
    pub data: PktBuf,
    /// Metadata from the first word.
    pub meta: Meta,
    /// Time the last word was consumed (egress completion).
    pub arrival: Time,
}

/// Shared capture buffer filled by a [`PacketSink`].
#[derive(Debug, Clone, Default)]
pub struct CaptureBuffer {
    inner: Rc<RefCell<VecDeque<CapturedPacket>>>,
    bytes: Rc<RefCell<u64>>,
    packets: Rc<RefCell<u64>>,
}

impl CaptureBuffer {
    /// An empty buffer.
    pub fn new() -> CaptureBuffer {
        CaptureBuffer::default()
    }

    /// Remove and return the oldest captured packet.
    pub fn pop(&self) -> Option<CapturedPacket> {
        self.inner.borrow_mut().pop_front()
    }

    /// Packets currently buffered (not yet popped).
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// True if no packet is waiting.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Drain everything captured so far.
    pub fn drain(&self) -> Vec<CapturedPacket> {
        self.inner.borrow_mut().drain(..).collect()
    }

    /// Total packets ever captured (monotonic, unaffected by `pop`).
    pub fn total_packets(&self) -> u64 {
        *self.packets.borrow()
    }

    /// Total bytes ever captured.
    pub fn total_bytes(&self) -> u64 {
        *self.bytes.borrow()
    }
}

/// Consumes one word per cycle from `rx`, reassembling packets into a
/// [`CaptureBuffer`].
pub struct PacketSink {
    name: String,
    rx: PacketRx,
    buffer: CaptureBuffer,
    /// Activity-cache invalidation flag, registered on the input stream.
    wake: WakeHandle,
}

impl PacketSink {
    /// Create a sink draining `rx`, returning the sink and its buffer.
    pub fn new(name: &str, rx: StreamRx) -> (PacketSink, CaptureBuffer) {
        let buffer = CaptureBuffer::new();
        let wake = WakeHandle::new();
        (
            PacketSink {
                name: name.to_string(),
                rx: PacketRx::new(rx, &wake),
                buffer: buffer.clone(),
                wake,
            },
            buffer,
        )
    }
}

impl Module for PacketSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        while let Some((data, meta)) = self.rx.poll(true, ctx) {
            *self.buffer.bytes.borrow_mut() += data.len() as u64;
            *self.buffer.packets.borrow_mut() += 1;
            self.buffer.inner.borrow_mut().push_back(CapturedPacket {
                data,
                meta,
                arrival: ctx.now,
            });
        }
    }

    fn reset(&mut self) {
        self.rx.reset();
        self.buffer.inner.borrow_mut().clear();
        *self.buffer.bytes.borrow_mut() = 0;
        *self.buffer.packets.borrow_mut() = 0;
    }

    /// A partially received packet is discarded (uncounted: a sink keeps
    /// no drop counter).
    fn soft_reset(&mut self) {
        self.rx.soft_reset();
    }

    /// The port's answer: a sink always takes what is there.
    fn activity(&self) -> Activity {
        self.rx.activity(true)
    }

    /// Only upstream pushes can un-idle a sink.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::stream::{Reassembler, Stream};
    use crate::time::Frequency;

    /// Source wired straight into sink: everything arrives intact, in order,
    /// with sensible timestamps.
    #[test]
    fn source_to_sink_roundtrip() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (tx, rx) = Stream::new(4, 32);
        let (source, inject) = PacketSource::new("src", tx);
        let (sink, capture) = PacketSink::new("dst", rx);
        sim.add_module(clk, source);
        sim.add_module(clk, sink);

        let p1: Vec<u8> = (0..100).collect();
        let p2: Vec<u8> = vec![0xaa; 64];
        inject.push(p1.clone(), 0);
        inject.push(p2.clone(), 1);

        sim.run_cycles(clk, 50);
        assert_eq!(capture.len(), 2);
        let c1 = capture.pop().unwrap();
        assert_eq!(c1.data, p1);
        assert_eq!(c1.meta.src_port, 0);
        assert_eq!(c1.meta.len, 100);
        assert!(c1.meta.ingress_time > Time::ZERO);
        assert!(c1.arrival >= c1.meta.ingress_time);
        let c2 = capture.pop().unwrap();
        assert_eq!(c2.data, p2);
        assert_eq!(c2.meta.src_port, 1);
        assert_eq!(capture.total_packets(), 2);
        assert_eq!(capture.total_bytes(), 164);
    }

    /// One word per cycle: a 100-byte packet on a 32-byte bus takes 4 cycles
    /// of channel occupancy; throughput is bounded accordingly.
    #[test]
    fn source_paces_one_word_per_cycle() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(100));
        let (tx, rx) = Stream::new(64, 32);
        let (source, inject) = PacketSource::new("src", tx);
        sim.add_module(clk, source);
        inject.push(vec![1u8; 100], 0); // 4 words
        sim.run_cycles(clk, 3);
        assert_eq!(rx.total_pushed(), 3);
        sim.run_cycles(clk, 1);
        assert_eq!(rx.total_pushed(), 4);
    }

    /// Back-pressure: a full downstream FIFO stalls the source without loss.
    #[test]
    fn source_respects_backpressure() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(100));
        let (tx, rx) = Stream::new(2, 32);
        let (source, inject) = PacketSource::new("src", tx);
        sim.add_module(clk, source);
        inject.push(vec![7u8; 320], 0); // 10 words >> capacity 2
        sim.run_cycles(clk, 20);
        assert_eq!(rx.occupancy(), 2); // stalled, nothing lost
                                       // Drain two words; source refills.
        let mut r = Reassembler::new();
        r.push(rx.pop().unwrap());
        r.push(rx.pop().unwrap());
        sim.run_cycles(clk, 2);
        assert_eq!(rx.occupancy(), 2);
        let mut got = None;
        let mut safety = 0;
        while got.is_none() {
            if let Some(w) = rx.pop() {
                got = r.push(w);
            } else {
                sim.run_cycles(clk, 1);
            }
            safety += 1;
            assert!(safety < 100, "packet never completed");
        }
        assert_eq!(got.unwrap().0, vec![7u8; 320]);
    }

    /// Stall rule: in-flight words facing a full output make the source
    /// quiescent — no tick runs until the output is popped, and one pop
    /// buys exactly one tick.
    #[test]
    fn source_stalled_on_full_output_is_quiescent_until_a_pop() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(100));
        let (tx, rx) = Stream::new(8, 32);
        let (source, inject) = PacketSource::new("src", tx);
        sim.add_module(clk, source);
        let ticks = |sim: &Simulator| sim.module_ticks()[0].1;
        inject.push(vec![7u8; 320], 0); // 10 words into an 8-word FIFO
        sim.run_cycles(clk, 20);
        assert_eq!(rx.occupancy(), 8);
        assert_eq!(inject.pending(), 0, "the packet is staged, two words left");
        assert!(sim.all_quiescent(), "stalled behind the full FIFO");
        let stalled_at = ticks(&sim);
        sim.run_cycles(clk, 1000);
        assert_eq!(ticks(&sim), stalled_at, "no tick while stalled");
        assert_eq!(rx.occupancy(), 8);
        // A pop on the output is the only thing that un-stalls it.
        let mut r = Reassembler::new();
        assert!(r.push(rx.pop().expect("head word")).is_none());
        sim.run_cycles(clk, 1);
        assert_eq!(ticks(&sim), stalled_at + 1);
        assert_eq!(rx.occupancy(), 8, "the freed slot was refilled");
        assert!(sim.all_quiescent(), "and the source is stalled again");
        // Draining delivers the packet intact.
        let mut got = None;
        for _ in 0..20 {
            while let Some(w) = rx.pop() {
                got = got.or(r.push(w));
            }
            sim.run_cycles(clk, 1);
        }
        assert_eq!(got.expect("packet completed").0, vec![7u8; 320]);
        assert!(sim.all_quiescent(), "drained");
    }

    #[test]
    fn reset_clears_everything() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(100));
        let (tx, rx) = Stream::new(8, 32);
        let (source, inject) = PacketSource::new("src", tx);
        let (sink, capture) = PacketSink::new("dst", rx);
        sim.add_module(clk, source);
        sim.add_module(clk, sink);
        inject.push(vec![1; 32], 0);
        sim.run_cycles(clk, 5);
        assert_eq!(capture.total_packets(), 1);
        sim.reset();
        assert_eq!(capture.total_packets(), 0);
        assert!(capture.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty packet")]
    fn empty_packet_rejected() {
        InjectQueue::new().push(Vec::new(), 0);
    }
}
