//! The output-queues stage: per-port class queues with pluggable
//! scheduling — the last stage of every reference pipeline.
//!
//! Packets arrive on one stream with a destination port mask in their
//! metadata (filled by the lookup stage). Each destination port has a set
//! of class queues (byte-budgeted, tail-drop) and an egress stream drained
//! one word per cycle. Multicast masks copy the packet into each listed
//! port. A [`Scheduler`] picks the class to serve whenever a port goes
//! idle; the classifier maps (packet, meta) to a class index.
//!
//! Ingress and every egress port move one word per cycle through a packet
//! port ([`PacketRx`], one [`PacketTx`] per egress): between paced
//! neighbours on the same clock a packet is claimed whole and fanned out on
//! the edge its last word is popped, and leaves a port as one beat-timed
//! burst — a tick per event, every instant where the per-word exchange
//! puts it. `with_burst(true)` is the ports' other, collapsed pacing.

use crate::sched::{QueueView, Scheduler};
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stats::Counter;
use netfpga_core::stream::{Meta, PacketRx, PacketTx, PortMask, StreamRx, StreamTx};
use netfpga_core::telemetry::StatRegistry;
use netfpga_core::time::Time;
use netfpga_mem::ByteFifo;

/// Classifies a packet into a class-queue index.
pub type Classifier = Box<dyn FnMut(&[u8], &Meta) -> usize>;

/// Configuration of the stage.
pub struct QueueConfig {
    /// Class queues per output port.
    pub classes: usize,
    /// Byte capacity of each class queue.
    pub bytes_per_queue: usize,
    /// Class picker; default sends everything to class 0.
    pub classifier: Classifier,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig {
            classes: 1,
            bytes_per_queue: 512 * 1024,
            classifier: Box::new(|_, _| 0),
        }
    }
}

/// Output-queue counters: shared cells the stage increments and the
/// telemetry plane reads.
#[derive(Debug, Clone, Default)]
pub struct QueueCounters {
    /// Packets admitted across all queues (multicast copies count).
    pub enqueued: Counter,
    /// Packets sent.
    pub dequeued: Counter,
    /// Packets tail-dropped.
    pub dropped: Counter,
    /// Packets discarded because their destination mask named no port
    /// this stage has (an empty mask included).
    pub no_destination: Counter,
}

impl QueueCounters {
    /// Register every counter on `registry` under `prefix` (e.g. `oq`):
    /// `enqueued`, `dequeued`, `dropped`, `no_destination`.
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.enqueued"), &self.enqueued);
        registry.register_counter(&format!("{prefix}.dequeued"), &self.dequeued);
        registry.register_counter(&format!("{prefix}.dropped"), &self.dropped);
        registry.register_counter(&format!("{prefix}.no_destination"), &self.no_destination);
    }
}

struct PortState {
    queues: Vec<ByteFifo<(PktBuf, Meta)>>,
    scheduler: Box<dyn Scheduler>,
    /// The egress stream.
    out: PacketTx,
    /// Scratch buffer for scheduler views, reused across ticks so the
    /// egress path allocates nothing in steady state.
    views: Vec<QueueView>,
    /// Live per-class depth cells (packets queued), kept current at every
    /// enqueue/dequeue so telemetry gauges and the flow-monitor exporter
    /// read depths without touching the stage.
    depths: Vec<Counter>,
}

/// The 1-to-N output-queue stage. See module docs.
pub struct OutputQueues {
    name: String,
    input: PacketRx,
    ports: Vec<PortState>,
    classifier: Classifier,
    counters: QueueCounters,
    /// Activity-cache invalidation flag, registered on the input stream
    /// and on every egress stream (pops free the space a back-pressured
    /// port waits on).
    wake: WakeHandle,
}

impl OutputQueues {
    /// Create the stage; `make_scheduler` is invoked once per port so each
    /// port gets an independent scheduler instance.
    pub fn new(
        name: &str,
        input: StreamRx,
        outputs: Vec<StreamTx>,
        config: QueueConfig,
        mut make_scheduler: impl FnMut() -> Box<dyn Scheduler>,
    ) -> OutputQueues {
        assert!(!outputs.is_empty(), "need at least one output port");
        assert!(config.classes > 0);
        let wake = WakeHandle::new();
        let ports = outputs
            .into_iter()
            .map(|out| PortState {
                queues: (0..config.classes)
                    .map(|_| ByteFifo::new(config.bytes_per_queue))
                    .collect(),
                scheduler: make_scheduler(),
                out: PacketTx::new(out, &wake),
                views: Vec::with_capacity(config.classes),
                depths: (0..config.classes).map(|_| Counter::new()).collect(),
            })
            .collect();
        OutputQueues {
            name: name.to_string(),
            input: PacketRx::new(input, &wake),
            ports,
            classifier: config.classifier,
            counters: QueueCounters::default(),
            wake,
        }
    }

    /// Enable the burst fast path: each tick ingests every buffered input
    /// word and fills each egress stream to capacity, rather than moving
    /// one word per cycle. Egress ordering, scheduling decisions and drops
    /// are unchanged; only the cycle-level pacing is collapsed, so enable
    /// it when throughput matters more than per-cycle timing fidelity.
    pub fn with_burst(mut self, enabled: bool) -> OutputQueues {
        self.input.set_burst(enabled);
        for port in &mut self.ports {
            port.out.set_burst(enabled);
        }
        self
    }

    /// The stage's counters.
    pub fn counters(&self) -> &QueueCounters {
        &self.counters
    }

    /// Register one depth gauge per (port, class) queue: `portN.qM.depth`
    /// (prefixed with `{prefix}.` when `prefix` is non-empty). Gauges
    /// read the live shared depth cells, so they stay current after the
    /// stage moves into the simulator.
    pub fn register_depth_gauges(&self, registry: &StatRegistry, prefix: &str) {
        for (p, port) in self.ports.iter().enumerate() {
            for (c, depth) in port.depths.iter().enumerate() {
                let leaf = format!("port{p}.q{c}.depth");
                let path = if prefix.is_empty() {
                    leaf
                } else {
                    format!("{prefix}.{leaf}")
                };
                let cell = depth.clone();
                registry.gauge(&path, move || cell.get());
            }
        }
    }

    /// The live depth cell of a (port, class) queue — what the
    /// flow-monitor exporter samples into its occupancy histograms.
    pub fn depth_cell(&self, port: usize, class: usize) -> Counter {
        self.ports[port].depths[class].clone()
    }

    /// Queue occupancy (packets) of a (port, class) queue.
    pub fn occupancy(&self, port: usize, class: usize) -> usize {
        self.ports[port].queues[class].len()
    }

    /// Drop count of a (port, class) queue.
    pub fn drops(&self, port: usize, class: usize) -> u64 {
        self.ports[port].queues[class].counts().2
    }

    /// Fan a completed packet out to its destination queues. Multicast and
    /// flood copies share one buffer: `packet.clone()` bumps a refcount, no
    /// payload bytes are copied per port.
    fn deliver(&mut self, packet: PktBuf, meta: Meta) {
        let present = PortMask::first_n(self.ports.len().min(16) as u8);
        if meta.dst_ports.0 & present.0 == 0 {
            self.counters.no_destination.incr();
            return;
        }
        let class = (self.classifier)(&packet, &meta);
        for port in meta.dst_ports.iter() {
            let Some(state) = self.ports.get_mut(usize::from(port)) else {
                continue; // mask names a port this stage lacks
            };
            let class = class.min(state.queues.len() - 1);
            let len = packet.len();
            if state.queues[class].push(len, (packet.clone(), meta)) {
                state.depths[class].set(state.queues[class].len() as u64);
                state.scheduler.on_enqueue(class, len);
                self.counters.enqueued.incr();
            } else {
                self.counters.dropped.incr();
            }
        }
    }

    /// Ask port `i`'s scheduler for the next packet and stage it for
    /// emission. Returns false when every class queue is empty.
    fn refill_emitting(&mut self, i: usize) -> bool {
        let state = &mut self.ports[i];
        if state.queues.iter().all(|q| q.is_empty()) {
            return false;
        }
        state.views.clear();
        state.views.extend(state.queues.iter().map(|q| QueueView {
            packets: q.len(),
            head_bytes: q.front().map(|(_, len)| len),
        }));
        let Some(class) = state.scheduler.select(&state.views) else {
            return false;
        };
        let (packet, mut meta) = state.queues[class]
            .pop()
            .expect("scheduler picked empty queue");
        state.depths[class].set(state.queues[class].len() as u64);
        state.scheduler.on_dequeue(class, packet.len());
        self.counters.dequeued.incr();
        // Narrow the mask to this port for the egress copy.
        meta.dst_ports = PortMask::single(i as u8);
        state.out.stage(packet, meta);
        true
    }
}

impl Module for OutputQueues {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        // Fan out the packets this edge completes, then let each port
        // independently dequeue and emit.
        while let Some((packet, meta)) = self.input.poll(true, ctx) {
            self.deliver(packet, meta);
        }
        for i in 0..self.ports.len() {
            while self.ports[i].out.emit(ctx) {
                if !self.refill_emitting(i) {
                    break;
                }
            }
        }
    }

    fn reset(&mut self) {
        self.input.reset();
        self.counters.enqueued.clear();
        self.counters.dequeued.clear();
        self.counters.dropped.clear();
        self.counters.no_destination.clear();
        for p in &mut self.ports {
            for q in &mut p.queues {
                q.clear();
            }
            for d in &p.depths {
                d.clear();
            }
            p.out.reset();
        }
    }

    /// Watchdog recovery: discard a partially reassembled arrival (its
    /// tail was flushed upstream, counted as a drop) and any egress frame
    /// already cut short mid-emission (the MAC downstream resyncs). Queued
    /// complete packets, counters and scheduler configuration survive —
    /// that is the difference from [`Module::reset`].
    fn soft_reset(&mut self) {
        if self.input.soft_reset() {
            self.counters.dropped.incr();
        }
        for p in &mut self.ports {
            p.out.soft_reset();
        }
    }

    /// The ports' answers joined, with every scheduler event-driven: an
    /// egress port's next packet is there as soon as a class queue holds
    /// one (dequeuing moves the dequeue counter and the depth gauge, so it
    /// is never skipped). None of it applies while there is a word to claim
    /// or a scheduler wants every cycle.
    fn activity(&self) -> Activity {
        let mut all = self.input.activity(true);
        if all == Activity::Active {
            return all;
        }
        for p in &self.ports {
            if !p.scheduler.event_driven() {
                return Activity::Active;
            }
            let queued = p.queues.iter().any(|q| !q.is_empty());
            all = all.join(p.out.activity(queued.then_some(Time::ZERO)));
        }
        all
    }

    /// External activity channels: pushes into the input, pops from any
    /// egress stream.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Fifo, StrictPriority, WeightedFair};
    use netfpga_core::packetio::{CaptureBuffer, InjectQueue, PacketSink, PacketSource};
    use netfpga_core::sim::Simulator;
    use netfpga_core::stream::{segment_buf, PortMask, Reassembler, Stream};
    use netfpga_core::time::{Frequency, Time};

    struct Rig {
        sim: Simulator,
        inject: InjectQueue,
        captures: Vec<CaptureBuffer>,
        counters: QueueCounters,
    }

    fn rig(nports: usize, config: QueueConfig, mk: impl FnMut() -> Box<dyn Scheduler>) -> Rig {
        rig_with_sink_clock(nports, config, mk, Frequency::mhz(200))
    }

    /// A rig whose sinks run on their own (possibly slower) clock: with a
    /// slow sink, egress back-pressure builds queue inside the stage, which
    /// is what the scheduler and drop tests need.
    fn rig_with_sink_clock(
        nports: usize,
        config: QueueConfig,
        mk: impl FnMut() -> Box<dyn Scheduler>,
        sink_clock: Frequency,
    ) -> Rig {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let slow = sim.add_clock("sink", sink_clock);
        let (in_tx, in_rx) = Stream::new(8, 32);
        let (src, inject) = PacketSource::new("src", in_tx);
        sim.add_module(clk, src);
        let mut out_txs = Vec::new();
        let mut captures = Vec::new();
        let mut sinks = Vec::new();
        for p in 0..nports {
            let (tx, rx) = Stream::new(8, 32);
            let (sink, cap) = PacketSink::new(&format!("sink{p}"), rx);
            out_txs.push(tx);
            captures.push(cap);
            sinks.push(sink);
        }
        let oq = OutputQueues::new("oq", in_rx, out_txs, config, mk);
        let counters = oq.counters().clone();
        sim.add_module(clk, oq);
        for s in sinks {
            sim.add_module(slow, s);
        }
        Rig {
            sim,
            inject,
            captures,
            counters,
        }
    }

    fn meta_to(ports: PortMask, src: u8, len: usize) -> Meta {
        Meta {
            len: len as u16,
            src_port: src,
            dst_ports: ports,
            ..Meta::default()
        }
    }

    #[test]
    fn unicast_reaches_only_target_port() {
        let mut r = rig(4, QueueConfig::default(), || Box::new(Fifo));
        let pkt = vec![5u8; 100];
        r.inject
            .push_with_meta(pkt.clone(), meta_to(PortMask::single(2), 0, 100));
        r.sim.run_until(Time::from_us(5));
        assert_eq!(r.captures[2].total_packets(), 1);
        assert_eq!(r.captures[2].pop().unwrap().data, pkt);
        for p in [0usize, 1, 3] {
            assert_eq!(r.captures[p].total_packets(), 0, "port {p}");
        }
    }

    #[test]
    fn multicast_copies_to_each_port() {
        let mut r = rig(4, QueueConfig::default(), || Box::new(Fifo));
        let mut mask = PortMask::EMPTY;
        mask.insert(0);
        mask.insert(3);
        r.inject.push_with_meta(vec![7u8; 64], meta_to(mask, 1, 64));
        r.sim.run_until(Time::from_us(5));
        assert_eq!(r.captures[0].total_packets(), 1);
        assert_eq!(r.captures[3].total_packets(), 1);
        assert_eq!(r.captures[1].total_packets(), 0);
        // Egress copies carry the single egress port in their mask.
        assert!(r.captures[0].pop().unwrap().meta.dst_ports.contains(0));
    }

    #[test]
    fn empty_mask_discarded() {
        let mut r = rig(2, QueueConfig::default(), || Box::new(Fifo));
        r.inject
            .push_with_meta(vec![1u8; 64], meta_to(PortMask::EMPTY, 0, 64));
        r.sim.run_until(Time::from_us(2));
        assert_eq!(r.captures[0].total_packets(), 0);
        assert_eq!(r.captures[1].total_packets(), 0);
        assert_eq!(r.counters.no_destination.get(), 1);
    }

    /// A mask naming only ports the stage lacks is discarded and counted
    /// like an empty one; a mask naming a present port as well reaches it.
    #[test]
    fn mask_naming_no_present_port_is_counted() {
        let mut r = rig(2, QueueConfig::default(), || Box::new(Fifo));
        r.inject
            .push_with_meta(vec![1u8; 64], meta_to(PortMask::single(5), 0, 64));
        let mut mixed = PortMask::single(1);
        mixed.insert(9);
        r.inject
            .push_with_meta(vec![2u8; 64], meta_to(mixed, 0, 64));
        r.sim.run_until(Time::from_us(2));
        assert_eq!(r.counters.no_destination.get(), 1);
        assert_eq!(r.counters.enqueued.get(), 1);
        assert_eq!(r.captures[0].total_packets(), 0);
        assert_eq!(r.captures[1].total_packets(), 1);
    }

    #[test]
    fn tail_drop_on_overflow() {
        let config = QueueConfig {
            classes: 1,
            bytes_per_queue: 300, // room for ~2 x 128-byte packets
            classifier: Box::new(|_, _| 0),
        };
        let mut r = rig_with_sink_clock(1, config, || Box::new(Fifo), Frequency::mhz(2));
        for _ in 0..10 {
            r.inject
                .push_with_meta(vec![0u8; 128], meta_to(PortMask::single(0), 0, 128));
        }
        r.sim.run_until(Time::from_us(100));
        // Everything that was admitted must eventually egress; drops are
        // whatever could not be buffered while egress was busy.
        let egressed = r.captures[0].total_packets();
        assert!(egressed >= 2, "at least the buffered ones: {egressed}");
        assert!(egressed < 10, "overflow must drop some");
    }

    #[test]
    fn strict_priority_ordering_across_classes() {
        // Class by first payload byte; class 0 = high priority.
        let config = QueueConfig {
            classes: 2,
            bytes_per_queue: 1 << 20,
            classifier: Box::new(|p: &[u8], _| usize::from(p[0] & 1)),
        };
        let mut r = rig_with_sink_clock(1, config, || Box::new(StrictPriority), Frequency::mhz(5));
        // Fill with low-priority (odd) then a burst of high-priority.
        for _ in 0..20 {
            r.inject
                .push_with_meta(vec![1u8; 256], meta_to(PortMask::single(0), 0, 256));
        }
        for _ in 0..5 {
            r.inject
                .push_with_meta(vec![2u8; 256], meta_to(PortMask::single(0), 0, 256));
        }
        r.sim.run_until(Time::from_us(500));
        let order: Vec<u8> = r.captures[0].drain().iter().map(|c| c.data[0]).collect();
        assert_eq!(order.len(), 25);
        // All 5 high-priority packets must egress before the last
        // low-priority one.
        let last_high = order.iter().rposition(|&b| b == 2).unwrap();
        let served_low_before = order[..last_high].iter().filter(|&&b| b == 1).count();
        assert!(
            served_low_before < 20,
            "high priority overtook the low backlog ({served_low_before})"
        );
    }

    #[test]
    fn wfq_shares_port_bandwidth_by_weight() {
        let config = QueueConfig {
            classes: 2,
            bytes_per_queue: 1 << 20,
            classifier: Box::new(|p: &[u8], _| usize::from(p[0] & 1)),
        };
        let mut r = rig_with_sink_clock(
            1,
            config,
            || Box::new(WeightedFair::new(vec![3.0, 1.0])),
            Frequency::mhz(5),
        );
        for _ in 0..100 {
            r.inject
                .push_with_meta(vec![0u8; 200], meta_to(PortMask::single(0), 0, 200));
            r.inject
                .push_with_meta(vec![1u8; 200], meta_to(PortMask::single(0), 0, 200));
        }
        // Sample while the port is still backlogged: stop after 80 packets
        // have egressed, well before either class's 100-packet queue can
        // empty, so both classes compete the entire time.
        let done = {
            let cap = r.captures[0].clone();
            r.sim
                .run_while(Time::from_ms(10), move || cap.total_packets() < 80)
        };
        assert!(done);
        let counts = r.captures[0]
            .drain()
            .iter()
            .fold([0usize; 2], |mut acc, c| {
                acc[usize::from(c.data[0] & 1)] += 1;
                acc
            });
        let ratio = counts[0] as f64 / counts[1].max(1) as f64;
        assert!(
            (2.0..4.5).contains(&ratio),
            "ratio {ratio} counts {counts:?}"
        );
    }

    #[test]
    fn depth_gauges_track_queue_occupancy() {
        let registry = netfpga_core::telemetry::StatRegistry::new();
        let (in_tx, in_rx) = Stream::new(8, 32);
        let (out_tx, _out_rx) = Stream::new(8, 32);
        let config = QueueConfig {
            classes: 2,
            ..QueueConfig::default()
        };
        let mut oq = OutputQueues::new("oq", in_rx, vec![out_tx], config, || Box::new(Fifo));
        oq.register_depth_gauges(&registry, "");
        assert_eq!(registry.get("port0.q0.depth"), Some(0));
        assert_eq!(registry.get("port0.q1.depth"), Some(0));
        let depth = oq.depth_cell(0, 0);
        // Deliver two packets straight into class 0; egress hasn't run.
        for _ in 0..2 {
            oq.deliver(
                PktBuf::copy_from(&[0u8; 64]),
                meta_to(PortMask::single(0), 0, 64),
            );
        }
        assert_eq!(registry.get("port0.q0.depth"), Some(2));
        assert_eq!(depth.get(), 2, "cell and gauge agree");
        // Draining one packet drops the depth.
        assert!(oq.refill_emitting(0));
        assert_eq!(registry.get("port0.q0.depth"), Some(1));
        oq.reset();
        assert_eq!(registry.get("port0.q0.depth"), Some(0));
        drop(in_tx);
    }

    /// Stall rule: a port whose staged words face a full egress stream is
    /// inert (an idle sibling port does not matter) until that stream is
    /// popped; no counter or depth gauge moves across the stretch, and one
    /// pop buys exactly one tick.
    #[test]
    fn backpressured_port_is_quiescent_until_an_egress_pop() {
        for burst in [false, true] {
            let registry = netfpga_core::telemetry::StatRegistry::new();
            let (in_tx, in_rx) = Stream::new(8, 32);
            let (out_tx, out_rx) = Stream::new(8, 32);
            let (idle_tx, idle_rx) = Stream::new(8, 32);
            let oq = OutputQueues::new(
                "oq",
                in_rx,
                vec![out_tx, idle_tx],
                QueueConfig::default(),
                || Box::new(Fifo),
            )
            .with_burst(burst);
            oq.counters().register_stats(&registry, "oq");
            oq.register_depth_gauges(&registry, "oq");
            let mut sim = Simulator::new();
            let clk = sim.add_clock("core", Frequency::mhz(200));
            sim.add_module(clk, oq);
            let ticks = |sim: &Simulator| sim.module_ticks()[0].1;
            let counters = || {
                ["enqueued", "dequeued", "dropped", "port0.q0.depth"]
                    .map(|leaf| registry.get(&format!("oq.{leaf}")).expect("registered"))
            };

            // Two 10-word packets for port 0 through the 8-word input.
            let packet = PktBuf::copy_from(&[3u8; 320]);
            let meta = meta_to(PortMask::single(0), 1, 320);
            let mut packets = (0..2).map(|_| segment_buf(&packet, 32, meta));
            let mut slot = packets.next();
            while slot.is_some() {
                while in_tx.push_burst(&mut slot, usize::MAX) > 0 && slot.is_none() {
                    slot = packets.next();
                }
                sim.run_cycles(clk, 1);
            }
            sim.run_cycles(clk, 20);
            // Packet 1 staged with 8 of its words out, packet 2 queued.
            assert_eq!(out_rx.occupancy(), 8);
            assert_eq!(counters(), [2, 1, 0, 1]);
            assert!(sim.all_quiescent(), "burst={burst}: stalled on egress");
            let stalled_at = ticks(&sim);
            sim.run_cycles(clk, 1000);
            assert_eq!(
                ticks(&sim),
                stalled_at,
                "burst={burst}: no tick while stalled"
            );
            assert_eq!(counters(), [2, 1, 0, 1]);
            assert!(!idle_rx.can_pop());

            let mut r = Reassembler::new();
            assert!(r.push(out_rx.pop().expect("head word")).is_none());
            sim.run_cycles(clk, 1);
            assert_eq!(ticks(&sim), stalled_at + 1, "one pop, one tick");
            assert_eq!(out_rx.occupancy(), 8, "the freed slot was refilled");
            assert!(sim.all_quiescent());

            let mut got = Vec::new();
            for _ in 0..40 {
                while let Some(w) = out_rx.pop() {
                    got.extend(r.push(w));
                }
                sim.run_cycles(clk, 1);
            }
            assert_eq!(got.len(), 2);
            assert!(got.iter().all(|(p, _)| p == &packet));
            assert_eq!(counters(), [2, 2, 0, 0]);
            assert!(sim.all_quiescent(), "drained");
        }
    }

    /// Partial fit in burst mode: 48-beat packets leave two ports through
    /// 8-deep egress FIFOs eight beats at a time behind word-per-cycle
    /// consumers, intact and on the cycles the per-beat queue delivered
    /// them.
    #[test]
    fn burst_queues_emit_long_packets_through_shallow_fifos_on_time() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (in_tx, in_rx) = Stream::new(8, 32);
        let (src, inject) = PacketSource::new("src", in_tx);
        sim.add_module(clk, src);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| Stream::new(8, 32)).unzip();
        let oq = OutputQueues::new("oq", in_rx, txs, QueueConfig::default(), || Box::new(Fifo));
        sim.add_module(clk, oq.with_burst(true));
        let captures: Vec<CaptureBuffer> = rxs
            .iter()
            .enumerate()
            .map(|(p, rx)| {
                let (sink, cap) = PacketSink::new(&format!("sink{p}"), rx.clone());
                sim.add_module(clk, sink);
                cap
            })
            .collect();
        let pkt: Vec<u8> = (0..1514).map(|i| i as u8).collect();
        inject.push_with_meta(pkt.clone(), meta_to(PortMask::first_n(2), 0, 1514));
        inject.push_with_meta(pkt.clone(), meta_to(PortMask::single(1), 0, 1514));
        sim.run_until(Time::from_us(2));
        let arrivals: Vec<Vec<u64>> = captures
            .iter()
            .map(|cap| {
                cap.drain()
                    .iter()
                    .map(|c| {
                        assert_eq!(c.data, pkt);
                        c.arrival.as_ps()
                    })
                    .collect()
            })
            .collect();
        assert_eq!(arrivals, [vec![475_000], vec![475_000, 715_000]]);
        assert_eq!(rxs[1].total_pushed(), 96);
    }

    #[test]
    fn ports_drain_independently() {
        let mut r = rig(2, QueueConfig::default(), || Box::new(Fifo));
        for _ in 0..10 {
            r.inject
                .push_with_meta(vec![0u8; 512], meta_to(PortMask::single(0), 0, 512));
            r.inject
                .push_with_meta(vec![1u8; 512], meta_to(PortMask::single(1), 0, 512));
        }
        r.sim.run_until(Time::from_us(30));
        assert_eq!(r.captures[0].total_packets(), 10);
        assert_eq!(r.captures[1].total_packets(), 10);
    }
}
