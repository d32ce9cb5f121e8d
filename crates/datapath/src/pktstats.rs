//! A transparent statistics stage: counts packets and bytes per source
//! port while passing words through untouched — the per-module statistics
//! registers every reference design carries.

use netfpga_core::regs::RegisterSpace;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stats::Counter;
use netfpga_core::stream::{Burst, CutThrough, PassThrough, StreamRx, StreamTx};

/// Pass-through packet/byte counters, per source port plus totals.
///
/// Cut-through on a [`CutThrough`] port, one word per cycle (between paced
/// neighbours a burst passes in one tick, every beat on its own cycle);
/// `with_burst(true)` is the collapsed pacing, everything the output
/// accepts per tick.
pub struct StatsStage {
    name: String,
    port: CutThrough,
    counts: Count,
    /// Activity-cache invalidation flag, registered on the input and the
    /// output (pops free the space a stalled pass-through waits on).
    wake: WakeHandle,
}

/// The stage's policy: count a packet as its first beat streams by.
struct Count(StatsHandles);

impl PassThrough for Count {
    fn inspect(&mut self, burst: &Burst) {
        if !burst.sop {
            return;
        }
        let meta = burst.meta.unwrap_or_default();
        self.0.total_packets.incr();
        self.0.total_bytes.add(u64::from(meta.len));
        let p = usize::from(meta.src_port);
        if p < self.0.packets.len() {
            self.0.packets[p].incr();
            self.0.bytes[p].add(u64::from(meta.len));
        }
    }
}

/// Shared read handles onto a [`StatsStage`]'s counters.
#[derive(Debug, Clone)]
pub struct StatsHandles {
    /// Per-source-port packet counts.
    pub packets: Vec<Counter>,
    /// Per-source-port byte counts.
    pub bytes: Vec<Counter>,
    /// All packets.
    pub total_packets: Counter,
    /// All bytes.
    pub total_bytes: Counter,
}

impl StatsHandles {
    /// Register these counters on `registry` under `prefix` (e.g.
    /// `rx_stats`): `total_packets`, `total_bytes`, and per-port
    /// `port{i}.packets` / `port{i}.bytes`. The *same* shared cells are
    /// registered, so registry reads are bit-identical to the legacy
    /// [`StatsRegisters`] view, and clears through either side agree.
    pub fn register_stats(&self, registry: &netfpga_core::telemetry::StatRegistry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.total_packets"), &self.total_packets);
        registry.register_counter(&format!("{prefix}.total_bytes"), &self.total_bytes);
        for (i, (p, b)) in self.packets.iter().zip(&self.bytes).enumerate() {
            registry.register_counter(&format!("{prefix}.port{i}.packets"), p);
            registry.register_counter(&format!("{prefix}.port{i}.bytes"), b);
        }
    }
}

impl StatsStage {
    /// Create a stage tracking up to `nports` source ports.
    pub fn new(
        name: &str,
        input: StreamRx,
        output: StreamTx,
        nports: usize,
    ) -> (StatsStage, StatsHandles) {
        let handles = StatsHandles {
            packets: (0..nports).map(|_| Counter::new()).collect(),
            bytes: (0..nports).map(|_| Counter::new()).collect(),
            total_packets: Counter::new(),
            total_bytes: Counter::new(),
        };
        let wake = WakeHandle::new();
        let stage = StatsStage {
            name: name.to_string(),
            port: CutThrough::new(vec![input], output, &wake),
            counts: Count(handles.clone()),
            wake,
        };
        (stage, handles)
    }

    /// Enable the burst fast path: each tick passes through every word the
    /// output can accept instead of one word per cycle. Counter values are
    /// identical either way — only the cycle-level pacing changes.
    pub fn with_burst(mut self, enabled: bool) -> StatsStage {
        self.port.set_burst(enabled);
        self
    }
}

impl Module for StatsStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        self.port.tick(ctx, &mut self.counts);
    }

    fn reset(&mut self) {
        self.soft_reset();
        let StatsHandles {
            packets,
            bytes,
            total_packets,
            total_bytes,
        } = &self.counts.0;
        for c in packets
            .iter()
            .chain(bytes)
            .chain([total_packets, total_bytes])
        {
            c.clear();
        }
    }

    /// Of a burst passing through, the beats not yet passed are back on
    /// the input; counters survive.
    fn soft_reset(&mut self) {
        self.port.soft_reset();
    }

    /// The port's answer: a tick that moves no word touches no counter.
    fn activity(&self) -> Activity {
        self.port.activity(&self.counts)
    }

    /// External activity channels: pushes into the input, pops from the
    /// output.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

/// The register view of a [`StatsHandles`]: word 0 = total packets (low 32),
/// word 1 = total bytes, then per-port packet/byte pairs. Writing an offset
/// clears *that counter only* (per-offset write-to-clear, as the reference
/// designs do; an earlier revision cleared every counter on any write).
pub struct StatsRegisters {
    handles: StatsHandles,
}

impl StatsRegisters {
    /// Wrap handles for mounting on an address map.
    pub fn new(handles: StatsHandles) -> StatsRegisters {
        StatsRegisters { handles }
    }
}

impl RegisterSpace for StatsRegisters {
    fn read(&mut self, offset: u32) -> u32 {
        let idx = (offset / 4) as usize;
        match idx {
            0 => self.handles.total_packets.get() as u32,
            1 => self.handles.total_bytes.get() as u32,
            n => {
                let port = (n - 2) / 2;
                let is_bytes = (n - 2) % 2 == 1;
                match (self.handles.packets.get(port), is_bytes) {
                    (Some(_), true) => self.handles.bytes[port].get() as u32,
                    (Some(c), false) => c.get() as u32,
                    (None, _) => netfpga_core::regs::UNMAPPED_READ,
                }
            }
        }
    }

    fn write(&mut self, offset: u32, _value: u32) {
        let idx = (offset / 4) as usize;
        match idx {
            0 => self.handles.total_packets.clear(),
            1 => self.handles.total_bytes.clear(),
            n => {
                let port = (n - 2) / 2;
                let is_bytes = (n - 2) % 2 == 1;
                match (self.handles.packets.get(port), is_bytes) {
                    (Some(_), true) => self.handles.bytes[port].clear(),
                    (Some(c), false) => c.clear(),
                    (None, _) => {} // unmapped: dropped
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::packetio::{PacketSink, PacketSource};
    use netfpga_core::sim::Simulator;
    use netfpga_core::stream::Stream;
    use netfpga_core::time::{Frequency, Time};

    #[test]
    fn counts_per_port_and_total() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (in_tx, in_rx) = Stream::new(8, 32);
        let (out_tx, out_rx) = Stream::new(8, 32);
        let (src, inject) = PacketSource::new("src", in_tx);
        let (stage, handles) = StatsStage::new("stats", in_rx, out_tx, 4);
        let (sink, cap) = PacketSink::new("sink", out_rx);
        sim.add_module(clk, src);
        sim.add_module(clk, stage);
        sim.add_module(clk, sink);

        inject.push(vec![0u8; 100], 0);
        inject.push(vec![0u8; 200], 2);
        inject.push(vec![0u8; 300], 2);
        sim.run_until(Time::from_us(5));

        assert_eq!(cap.total_packets(), 3, "pass-through intact");
        assert_eq!(handles.total_packets.get(), 3);
        assert_eq!(handles.total_bytes.get(), 600);
        assert_eq!(handles.packets[0].get(), 1);
        assert_eq!(handles.packets[2].get(), 2);
        assert_eq!(handles.bytes[2].get(), 500);
        assert_eq!(handles.packets[1].get(), 0);

        // Register view.
        let mut regs = StatsRegisters::new(handles.clone());
        assert_eq!(regs.read(0x0), 3);
        assert_eq!(regs.read(0x4), 600);
        assert_eq!(regs.read(0x8), 1); // port 0 packets
        assert_eq!(regs.read(0x18), 2); // port 2 packets (word 2 + 2*2 = 6)
        assert_eq!(regs.read(0x1c), 500); // port 2 bytes (word 7)
                                          // Write-to-clear is per-offset: clearing total packets leaves
                                          // every other counter alone.
        regs.write(0, 0);
        assert_eq!(handles.total_packets.get(), 0);
        assert_eq!(handles.total_bytes.get(), 600, "siblings untouched");
        assert_eq!(handles.packets[2].get(), 2, "siblings untouched");
    }

    /// Stall rule: with the output full the pass-through is quiescent
    /// whatever waits upstream; no counter moves across the stretch, and
    /// one pop on the output buys exactly one tick.
    #[test]
    fn full_output_stalls_the_stage_until_a_pop() {
        use netfpga_core::stream::{segment, Meta};
        for burst in [false, true] {
            let (in_tx, in_rx) = Stream::new(8, 32);
            let (out_tx, out_rx) = Stream::new(8, 32);
            let (stage, handles) = StatsStage::new("stats", in_rx, out_tx, 4);
            let mut sim = Simulator::new();
            let clk = sim.add_clock("core", Frequency::mhz(200));
            sim.add_module(clk, stage.with_burst(burst));
            let ticks = |sim: &Simulator| sim.module_ticks()[0].1;
            // Twelve single-word packets: eight fill the output, four wait.
            let meta = Meta {
                len: 32,
                ..Meta::default()
            };
            let mut packets = (0..12).map(|_| segment(&[9u8; 32], 32, meta));
            let mut slot = packets.next();
            while slot.is_some() {
                while in_tx.push_burst(&mut slot, usize::MAX) > 0 && slot.is_none() {
                    slot = packets.next();
                }
                sim.run_cycles(clk, 1);
            }
            sim.run_cycles(clk, 20);
            assert_eq!((out_rx.occupancy(), in_tx.space()), (8, 4));
            assert_eq!(handles.total_packets.get(), 8);
            assert!(sim.all_quiescent(), "burst={burst}: stalled on the output");
            let stalled_at = ticks(&sim);
            sim.run_cycles(clk, 1000);
            assert_eq!(
                ticks(&sim),
                stalled_at,
                "burst={burst}: no tick while stalled"
            );
            assert_eq!(handles.total_packets.get(), 8);

            out_rx.pop().expect("head word");
            sim.run_cycles(clk, 1);
            assert_eq!(ticks(&sim), stalled_at + 1, "one pop, one tick");
            assert_eq!(handles.total_packets.get(), 9);
            assert_eq!((out_rx.occupancy(), in_tx.space()), (8, 5));
            assert!(sim.all_quiescent());
        }
    }

    /// Regression pin for the write-to-clear semantics: an earlier
    /// revision cleared *all* counters on any write; the reference designs
    /// clear only the addressed register. This pins the per-offset
    /// behaviour across the whole layout.
    #[test]
    fn write_to_clear_is_per_offset() {
        let (_stage, handles) = {
            let (in_tx, in_rx) = Stream::new(8, 32);
            let (out_tx, _out_rx) = Stream::new(8, 32);
            drop(in_tx);
            StatsStage::new("stats", in_rx, out_tx, 2)
        };
        handles.total_packets.add(10);
        handles.total_bytes.add(20);
        handles.packets[0].add(1);
        handles.bytes[0].add(2);
        handles.packets[1].add(3);
        handles.bytes[1].add(4);
        let mut regs = StatsRegisters::new(handles.clone());

        // Clear port 1 packets (word 2 + 2*1 = 4 -> offset 0x10) only.
        regs.write(0x10, 0);
        assert_eq!(handles.packets[1].get(), 0, "addressed counter cleared");
        assert_eq!(handles.total_packets.get(), 10);
        assert_eq!(handles.total_bytes.get(), 20);
        assert_eq!(handles.packets[0].get(), 1);
        assert_eq!(handles.bytes[0].get(), 2);
        assert_eq!(handles.bytes[1].get(), 4);

        // Clear total bytes (word 1) only.
        regs.write(0x4, 0);
        assert_eq!(handles.total_bytes.get(), 0);
        assert_eq!(handles.total_packets.get(), 10);
        assert_eq!(handles.bytes[1].get(), 4);

        // Out-of-range offsets are ignored, like unmapped writes.
        regs.write(0x100, 0);
        assert_eq!(handles.total_packets.get(), 10);
    }

    /// The registry view shares the same cells as the register view:
    /// values match bit for bit and clears are visible both ways.
    #[test]
    fn registry_shares_cells_with_registers() {
        let (_stage, handles) = {
            let (_in_tx, in_rx) = Stream::new(8, 32);
            let (out_tx, _out_rx) = Stream::new(8, 32);
            StatsStage::new("stats", in_rx, out_tx, 2)
        };
        let reg = netfpga_core::telemetry::StatRegistry::new();
        handles.register_stats(&reg, "rx_stats");
        handles.total_packets.add(5);
        handles.packets[1].add(2);
        assert_eq!(reg.get("rx_stats.total_packets"), Some(5));
        assert_eq!(reg.get("rx_stats.port1.packets"), Some(2));
        assert!(reg.clear("rx_stats.port1.packets"));
        let mut regs = StatsRegisters::new(handles);
        assert_eq!(regs.read(0x10), 0, "cleared through the registry");
        assert_eq!(regs.read(0x0), 5);
    }
}
