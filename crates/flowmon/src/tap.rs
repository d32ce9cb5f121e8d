//! The [`FlowTap`]: a zero-copy pass-through stage that feeds the flow
//! accounting state.
//!
//! The tap splices into an existing stream hop and moves bursts through a
//! [`CutThrough`] port, so frames cross it without copying — beats stay
//! refcount-bumped views of the original buffers, which are never cloned,
//! joined or rewritten. The tap snoops just the leading
//! header bytes of each frame into a small fixed scratch buffer (enough
//! for Ethernet + a maximal IPv4 header + ports) and parses the 5-tuple
//! from there. Payload bytes are not read: a burst is looked at for its
//! `sop`/`eop` flags, its byte count and — until the header is captured
//! — its leading bytes, the way a hardware parser watches the first
//! beats of the bus while the payload streams past. Flow state (sketch +
//! heavy-hitter table + rollup counters) lives in a shared cell read by
//! the [`FlowMonHandle`]; the hot path never touches the stat registry
//! and never allocates per packet.

use std::cell::RefCell;
use std::rc::Rc;

use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stats::Counter;
use netfpga_core::stream::{Burst, CutThrough, PassThrough, StreamRx, StreamTx};
use netfpga_core::telemetry::StatRegistry;

use crate::flow::FiveTuple;
use crate::heavy::{FlowRecord, HeavyHitters};
use crate::sketch::CountMinSketch;
use crate::FlowmonConfig;

/// A tap's rollup counters: shared cells the tap increments and the
/// telemetry plane reads.
#[derive(Debug, Clone, Default)]
pub struct FlowMonCounters {
    /// Frames accounted (IPv4 or not).
    pub packets: Counter,
    /// Total bytes seen by the tap.
    pub bytes: Counter,
    /// Frames that carried no parseable IPv4 five-tuple.
    pub non_ip: Counter,
}

#[derive(Debug)]
struct MonState {
    sketch: CountMinSketch,
    table: HeavyHitters,
    counters: FlowMonCounters,
}

impl MonState {
    fn observe(&mut self, frame: &[u8], len: u64) {
        self.counters.packets.incr();
        self.counters.bytes.add(len);
        // Prefix parse: `frame` is just the leading header bytes when
        // fed from the tap's snoop, so length fields cannot be trusted.
        match FiveTuple::parse_prefix(frame) {
            Some(ft) => {
                let est = self.sketch.record(&ft, 1);
                self.table.update(ft, len, est);
            }
            None => self.counters.non_ip.incr(),
        }
    }

    fn clear(&mut self) {
        self.sketch.clear();
        self.table.clear();
        self.counters.packets.clear();
        self.counters.bytes.clear();
        self.counters.non_ip.clear();
    }
}

/// Shared, read-mostly view of a tap's flow state — what the host API,
/// MMIO registers and gauges are built from. Cloning is a handle copy.
#[derive(Debug, Clone)]
pub struct FlowMonHandle {
    state: Rc<RefCell<MonState>>,
}

impl FlowMonHandle {
    /// The top `n` flows by descending sketch estimate (deterministic
    /// tie-break; see [`FlowRecord::rank_key`]).
    pub fn top_talkers(&self, n: usize) -> Vec<FlowRecord> {
        self.state.borrow().table.top(n)
    }

    /// Every tracked flow, in table (insertion) order.
    pub fn flows(&self) -> Vec<FlowRecord> {
        self.state.borrow().table.entries().to_vec()
    }

    /// The sketch's point estimate for `flow`.
    pub fn estimate(&self, flow: &FiveTuple) -> u64 {
        self.state.borrow().sketch.estimate(flow)
    }

    /// The tap's rollup counters.
    pub fn counters(&self) -> FlowMonCounters {
        self.state.borrow().counters.clone()
    }

    /// The sketch's current `⌈εN⌉` overestimation bound.
    pub fn error_bound(&self) -> u64 {
        self.state.borrow().sketch.error_bound()
    }

    /// Total count recorded into the sketch.
    pub fn total(&self) -> u64 {
        self.state.borrow().sketch.total()
    }

    /// Heavy-hitter evictions so far.
    pub fn evictions(&self) -> u64 {
        self.state.borrow().table.evictions()
    }

    /// Number of flows currently tracked.
    pub fn tracked(&self) -> usize {
        self.state.borrow().table.len()
    }

    /// Sketch/table dimensions, for self-description.
    pub fn dimensions(&self) -> (usize, usize, usize) {
        let s = self.state.borrow();
        let cfg = s.sketch.config();
        (cfg.width, cfg.depth, s.table.capacity())
    }

    /// Reset all flow state (sketch, table, rollup counters).
    pub fn clear(&self) {
        self.state.borrow_mut().clear();
    }

    /// Account one frame directly, outside any tap — for host-side
    /// replay and tests; the in-pipeline feed is the [`FlowTap`] hot
    /// path.
    pub fn observe(&self, frame: &[u8], len: u64) {
        self.state.borrow_mut().observe(frame, len);
    }

    /// Register the tap's rollup counters under `{prefix}.…` (`packets`,
    /// `bytes`, `non_ip`), and gauges reading the flow state: `flows`
    /// tracked, heavy-hitter `evictions` and the sketch's `error_bound`.
    /// Nothing is written here on the packet path.
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        let c = self.counters();
        registry.register_counter(&format!("{prefix}.packets"), &c.packets);
        registry.register_counter(&format!("{prefix}.bytes"), &c.bytes);
        registry.register_counter(&format!("{prefix}.non_ip"), &c.non_ip);
        let st = self.state.clone();
        registry.gauge(&format!("{prefix}.flows"), move || {
            st.borrow().table.len() as u64
        });
        let st = self.state.clone();
        registry.gauge(&format!("{prefix}.evictions"), move || {
            st.borrow().table.evictions()
        });
        let st = self.state.clone();
        registry.gauge(&format!("{prefix}.error_bound"), move || {
            st.borrow().sketch.error_bound()
        });
    }
}

/// Enough scratch for Ethernet (14) + a maximal IPv4 header (60) + the
/// L4 port words (4), so [`FiveTuple::parse`] always has what it needs.
const HDR_MAX: usize = 80;

/// The tap's policy. Per-frame header snoop state — the first [`HDR_MAX`]
/// bytes of the frame in flight, accumulated burst by burst — accounted
/// into the flow state on the edge its `eop` passes.
#[derive(Debug)]
struct HeaderSnoop {
    hdr: [u8; HDR_MAX],
    have: usize,
    /// Frame length from the sop beat's metadata (0 when absent).
    len: u64,
    /// Bytes observed so far — the length fallback for meta-less frames.
    seen: u64,
    /// A `sop` has been seen and its `eop` has not passed.
    active: bool,
    state: Rc<RefCell<MonState>>,
}

impl PassThrough for HeaderSnoop {
    fn inspect(&mut self, b: &Burst) {
        if b.sop {
            self.have = 0;
            self.seen = 0;
            self.len = b.meta.as_ref().map_or(0, |m| u64::from(m.len));
            self.active = true;
        }
        if !self.active {
            return;
        }
        let take = (HDR_MAX - self.have).min(b.len());
        self.hdr[self.have..self.have + take].copy_from_slice(&b.bytes()[..take]);
        self.have += take;
        self.seen += b.len() as u64;
    }

    fn passed(&mut self, _input: usize, eop: bool) {
        if eop && self.active {
            let len = if self.len > 0 { self.len } else { self.seen };
            self.state.borrow_mut().observe(&self.hdr[..self.have], len);
            self.active = false;
        }
    }
}

/// The tap module. Splice it into a stream hop:
/// producer → `input` → **FlowTap** → `output` → consumer.
///
/// Cut-through on a [`CutThrough`] port, one word per cycle (between paced
/// neighbours a burst passes in one tick, every beat on its own cycle);
/// `with_burst(true)` is the collapsed pacing.
#[derive(Debug)]
pub struct FlowTap {
    port: CutThrough,
    snoop: HeaderSnoop,
    /// Activity-cache invalidation flag, registered on the input and the
    /// output (pops free the space a stalled pass waits on).
    wake: WakeHandle,
}

impl FlowTap {
    /// Build a tap between `input` and `output` with the given flow
    /// accounting dimensions.
    pub fn new(input: StreamRx, output: StreamTx, config: &FlowmonConfig) -> FlowTap {
        let wake = WakeHandle::new();
        FlowTap {
            port: CutThrough::new(vec![input], output, &wake),
            snoop: HeaderSnoop {
                hdr: [0; HDR_MAX],
                have: 0,
                len: 0,
                seen: 0,
                active: false,
                state: Rc::new(RefCell::new(MonState {
                    sketch: CountMinSketch::new(config.sketch),
                    table: HeavyHitters::new(config.table_capacity),
                    counters: FlowMonCounters::default(),
                })),
            },
            wake,
        }
    }

    /// Move whole bursts per tick instead of one word per cycle —
    /// matches the fast-path discipline of the surrounding pipeline.
    pub fn with_burst(mut self, burst: bool) -> FlowTap {
        self.port.set_burst(burst);
        self
    }

    /// A shared handle onto this tap's flow state.
    pub fn handle(&self) -> FlowMonHandle {
        FlowMonHandle {
            state: self.snoop.state.clone(),
        }
    }
}

impl Module for FlowTap {
    fn name(&self) -> &str {
        "flow_tap"
    }

    fn tick(&mut self, ctx: &TickContext) {
        self.port.tick(ctx, &mut self.snoop);
    }

    fn reset(&mut self) {
        self.soft_reset();
        self.snoop.state.borrow_mut().clear();
    }

    /// Of a burst passing through, the beats not yet passed are back on
    /// the input, and a frame the reset cut is not accounted (the block
    /// downstream drops it too); the flow state survives.
    fn soft_reset(&mut self) {
        self.port.soft_reset();
        self.snoop.active = false;
    }

    /// The port's answer: a tick that moves no word leaves the flow state
    /// put.
    fn activity(&self) -> Activity {
        self.port.activity(&self.snoop)
    }

    /// External activity channels: pushes into the input, pops from the
    /// output.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::pktbuf::{pool_stats, PktBuf};
    use netfpga_core::sim::Simulator;
    use netfpga_core::stream::{segment_buf, Meta, PortMask, Reassembler, Stream};
    use netfpga_core::time::{Frequency, Time};
    use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

    fn mac(x: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, x)
    }

    fn udp_frame(src_last: u8, sport: u16) -> Vec<u8> {
        PacketBuilder::new()
            .eth(mac(1), mac(2))
            .ipv4(
                Ipv4Address::new(10, 0, 0, src_last),
                Ipv4Address::new(10, 0, 1, 1),
            )
            .udp(sport, 80, &[0x55; 32])
            .build()
    }

    fn run_tap(frames: &[Vec<u8>], burst: bool) -> (FlowMonHandle, usize) {
        let (in_tx, in_rx) = Stream::new(256, 64);
        let (out_tx, out_rx) = Stream::new(256, 64);
        let tap = FlowTap::new(in_rx, out_tx, &FlowmonConfig::default()).with_burst(burst);
        let handle = tap.handle();
        for f in frames {
            let buf = PktBuf::copy_from(f);
            let meta = Meta {
                len: buf.len() as u16,
                src_port: 0,
                dst_ports: PortMask::EMPTY,
                ingress_time: Time::ZERO,
                flags: 0,
            };
            for w in segment_buf(&buf, 64, meta) {
                in_tx.push(w);
            }
        }
        let mut sink = Reassembler::new();
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(250));
        sim.add_module(clk, tap);
        let mut delivered = 0;
        for _ in 0..10_000 {
            sim.step();
            while out_rx.can_pop() {
                if sink.push(out_rx.pop().expect("can_pop")).is_some() {
                    delivered += 1;
                }
            }
            if sim.all_quiescent() {
                break;
            }
        }
        (handle, delivered)
    }

    #[test]
    fn tap_passes_frames_through_and_accounts_flows() {
        let frames: Vec<_> = (0..12).map(|i| udp_frame(1 + (i % 3), 4000)).collect();
        let (handle, delivered) = run_tap(&frames, false);
        assert_eq!(delivered, 12, "tap is pass-through");
        assert_eq!(handle.counters().packets.get(), 12);
        assert_eq!(handle.tracked(), 3);
        assert_eq!(handle.counters().non_ip.get(), 0);
        let top = handle.top_talkers(3);
        assert_eq!(top.iter().map(|r| r.packets).sum::<u64>(), 12);
    }

    #[test]
    fn frames_longer_than_the_snoop_window_still_parse_and_count_bytes() {
        // 14 + 20 + 8 + 400 = 442 bytes — seven 64-byte words, far past
        // the HDR_MAX snoop window, so only a truncated header reaches
        // the parser (regression: truncated prefixes must not count as
        // non-IP).
        let big = PacketBuilder::new()
            .eth(mac(1), mac(2))
            .ipv4(Ipv4Address::new(10, 0, 0, 9), Ipv4Address::new(10, 0, 1, 1))
            .udp(8000, 443, &[0x77; 400])
            .build();
        let len = big.len() as u64;
        for burst in [false, true] {
            let (handle, delivered) = run_tap(std::slice::from_ref(&big), burst);
            assert_eq!(delivered, 1);
            assert_eq!(
                handle.counters().non_ip.get(),
                0,
                "truncated header still parses"
            );
            assert_eq!(handle.tracked(), 1);
            let rec = handle.flows()[0];
            assert_eq!((rec.flow.src_port, rec.flow.dst_port), (8000, 443));
            assert_eq!(rec.bytes, len, "byte accounting covers the whole frame");
        }
    }

    #[test]
    fn burst_mode_accounts_identically() {
        let frames: Vec<_> = (0..9).map(|i| udp_frame(1 + (i % 3), 5000)).collect();
        let (slow, d1) = run_tap(&frames, false);
        let (fast, d2) = run_tap(&frames, true);
        assert_eq!(d1, d2);
        assert_eq!(
            slow.flows(),
            fast.flows(),
            "burst mode is functionally identical"
        );
    }

    /// Stall rule: with the output full the tap is quiescent whatever
    /// waits upstream; the flow state does not move across the stretch,
    /// and one pop on the output buys exactly one tick.
    #[test]
    fn full_output_stalls_the_tap_until_a_pop() {
        for burst in [false, true] {
            let (in_tx, in_rx) = Stream::new(8, 64);
            let (out_tx, out_rx) = Stream::new(4, 64);
            let tap = FlowTap::new(in_rx, out_tx, &FlowmonConfig::default()).with_burst(burst);
            let handle = tap.handle();
            let mut sim = Simulator::new();
            let clk = sim.add_clock("core", Frequency::mhz(250));
            sim.add_module(clk, tap);
            let ticks = |sim: &Simulator| sim.module_ticks()[0].1;
            // Six 74-byte frames = 12 words: 4 fit downstream, 8 upstream.
            let mut packets = (0..6).map(|i| {
                let buf = PktBuf::copy_from(&udp_frame(1 + i, 4000));
                let meta = Meta {
                    len: buf.len() as u16,
                    ..Meta::default()
                };
                segment_buf(&buf, 64, meta)
            });
            let mut slot = packets.next();
            while slot.is_some() {
                while in_tx.push_burst(&mut slot, usize::MAX) > 0 && slot.is_none() {
                    slot = packets.next();
                }
                sim.run_cycles(clk, 1);
            }
            sim.run_cycles(clk, 20);
            assert_eq!((out_rx.occupancy(), in_tx.space()), (4, 0));
            assert_eq!(
                handle.counters().packets.get(),
                2,
                "two whole frames crossed"
            );
            assert!(sim.all_quiescent(), "burst={burst}: stalled on the output");
            let stalled_at = ticks(&sim);
            sim.run_cycles(clk, 1000);
            assert_eq!(
                ticks(&sim),
                stalled_at,
                "burst={burst}: no tick while stalled"
            );
            assert_eq!(handle.counters().packets.get(), 2);

            out_rx.pop().expect("head word");
            sim.run_cycles(clk, 1);
            assert_eq!(ticks(&sim), stalled_at + 1, "one pop, one tick");
            assert_eq!((out_rx.occupancy(), in_tx.space()), (4, 1));
            assert!(sim.all_quiescent());
        }
    }

    #[test]
    fn non_ip_frames_pass_and_are_counted() {
        let arp = PacketBuilder::new()
            .eth(mac(1), mac(2))
            .raw(netfpga_packet::EtherType::Arp, &[0; 46])
            .build();
        let (handle, delivered) = run_tap(&[arp], true);
        assert_eq!(delivered, 1);
        assert_eq!(handle.counters().non_ip.get(), 1);
        assert_eq!(handle.tracked(), 0);
        assert_eq!(handle.counters().packets.get(), 1);
    }

    #[test]
    fn tap_observation_is_zero_copy() {
        let frames: Vec<_> = (0..32).map(|i| udp_frame(1 + (i % 4), 6000)).collect();
        let before = pool_stats().cow_copies;
        let (handle, delivered) = run_tap(&frames, true);
        assert_eq!(delivered, 32);
        assert_eq!(handle.counters().packets.get(), 32);
        assert_eq!(
            pool_stats().cow_copies,
            before,
            "tap must not force copy-on-write on frames in flight"
        );
    }

    #[test]
    fn registered_gauges_read_live_state() {
        let reg = StatRegistry::new();
        let (_in_tx, in_rx) = Stream::new(4, 64);
        let (out_tx, _out_rx) = Stream::new(4, 64);
        let tap = FlowTap::new(in_rx, out_tx, &FlowmonConfig::default());
        tap.handle().register_stats(&reg, "flowmon");
        assert_eq!(reg.get("flowmon.packets"), Some(0));
        tap.snoop
            .state
            .borrow_mut()
            .observe(&udp_frame(9, 7000), 70);
        assert_eq!(reg.get("flowmon.packets"), Some(1));
        assert_eq!(reg.get("flowmon.flows"), Some(1));
    }
}
