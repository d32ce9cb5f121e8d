//! The input arbiter: merges per-port RX streams into the single datapath
//! stream, round-robin at packet granularity — the first stage of every
//! reference pipeline.

use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stream::{CutThrough, PassThrough, StreamRx, StreamTx};

/// N-to-1 packet-granular round-robin arbiter.
///
/// Once a packet starts, the arbiter stays locked to its input until `eop`
/// (interleaving words of different packets on one stream is illegal AXIS
/// framing). Arbitration is work-conserving: if the current round-robin
/// candidate is idle, the next input with data is picked.
///
/// A [`CutThrough`] port moves the beats, one word per cycle: between
/// paced neighbours the arbiter ticks when a burst starts and when its last
/// beat passes, with `eop` acted on at the edge it passes today.
/// `with_burst(true)` is the other, collapsed pacing: whole packets per
/// tick.
pub struct InputArbiter {
    name: String,
    port: CutThrough,
    grant: RoundRobin,
    /// Activity-cache invalidation flag, registered on every input stream
    /// and on the output (pops free the space a stalled pass waits on).
    wake: WakeHandle,
}

/// The arbiter's policy: the lock and the round-robin pointer.
#[derive(Default)]
struct RoundRobin {
    /// The input after the one served last (mod the input count).
    next: usize,
    /// Input currently locked mid-packet.
    locked: Option<usize>,
}

impl PassThrough for RoundRobin {
    /// The locked input if it holds a word — no other may interleave —
    /// else the first non-empty one from the round-robin pointer on.
    fn source(&self, inputs: &[StreamRx]) -> Option<usize> {
        match self.locked {
            Some(i) => Some(i).filter(|&i| inputs[i].can_pop()),
            None => {
                let n = inputs.len();
                (0..n)
                    .map(|k| (self.next + k) % n)
                    .find(|&i| inputs[i].can_pop())
            }
        }
    }

    fn passed(&mut self, input: usize, eop: bool) {
        if eop {
            self.locked = None;
            self.next = input + 1;
        } else {
            self.locked = Some(input);
        }
    }
}

impl InputArbiter {
    /// Create an arbiter over `inputs` feeding `output`.
    pub fn new(name: &str, inputs: Vec<StreamRx>, output: StreamTx) -> InputArbiter {
        let wake = WakeHandle::new();
        InputArbiter {
            name: name.to_string(),
            port: CutThrough::new(inputs, output, &wake),
            grant: RoundRobin::default(),
            wake,
        }
    }

    /// Enable the burst fast path: each tick forwards every word it can
    /// (across multiple packets) instead of one word per cycle. Packet
    /// integrity and round-robin fairness at packet granularity are
    /// unchanged; only the cycle-level pacing is collapsed.
    pub fn with_burst(mut self, enabled: bool) -> InputArbiter {
        self.port.set_burst(enabled);
        self
    }
}

impl Module for InputArbiter {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        self.port.tick(ctx, &mut self.grant);
    }

    fn reset(&mut self) {
        self.port.soft_reset();
        self.grant = RoundRobin::default();
    }

    /// Watchdog recovery: release a mid-packet lock whose remaining words
    /// were flushed upstream — the next `sop` on any input then arbitrates
    /// normally (downstream reassemblers resync past the orphaned
    /// prefix). Of a burst passing through, the beats not yet passed are
    /// back on their input. The round-robin position survives.
    fn soft_reset(&mut self) {
        self.port.soft_reset();
        self.grant.locked = None;
    }

    /// The port's answer, the input to serve being the locked one alone
    /// while a packet is open, else any: a tick that cannot move a word
    /// touches neither the lock nor the round-robin pointer.
    fn activity(&self) -> Activity {
        self.port.activity(&self.grant)
    }

    /// External activity channels: pushes into any input, pops from the
    /// output.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::packetio::{PacketSink, PacketSource};
    use netfpga_core::sim::Simulator;
    use netfpga_core::stream::Stream;
    use netfpga_core::time::{Frequency, Time};

    fn build(
        n: usize,
    ) -> (
        Simulator,
        Vec<netfpga_core::packetio::InjectQueue>,
        netfpga_core::packetio::CaptureBuffer,
    ) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let mut rxs = Vec::new();
        let mut queues = Vec::new();
        for p in 0..n {
            let (tx, rx) = Stream::new(8, 32);
            let (src, q) = PacketSource::new(&format!("src{p}"), tx);
            sim.add_module(clk, src);
            rxs.push(rx);
            queues.push(q);
        }
        let (out_tx, out_rx) = Stream::new(8, 32);
        let arb = InputArbiter::new("arb", rxs, out_tx);
        let (sink, captured) = PacketSink::new("sink", out_rx);
        sim.add_module(clk, arb);
        sim.add_module(clk, sink);
        (sim, queues, captured)
    }

    #[test]
    fn merges_all_inputs_without_loss() {
        let (mut sim, queues, captured) = build(4);
        for (p, q) in queues.iter().enumerate() {
            for k in 0..5 {
                q.push(vec![(p * 10 + k) as u8; 100], p as u8);
            }
        }
        sim.run_until(Time::from_us(10));
        assert_eq!(captured.total_packets(), 20);
        // Every packet arrives intact with its source port preserved.
        let mut per_port = [0usize; 4];
        for c in captured.drain() {
            per_port[usize::from(c.meta.src_port)] += 1;
            assert_eq!(c.data.len(), 100);
            assert!(c.data.iter().all(|&b| b == c.data[0]));
        }
        assert_eq!(per_port, [5, 5, 5, 5]);
    }

    #[test]
    fn packets_never_interleave() {
        let (mut sim, queues, captured) = build(3);
        // Multi-word packets from all inputs simultaneously.
        for (p, q) in queues.iter().enumerate() {
            q.push(vec![p as u8; 320], p as u8); // 10 words each
        }
        sim.run_until(Time::from_us(10));
        assert_eq!(captured.total_packets(), 3);
        for c in captured.drain() {
            // Uniform content proves words were not mixed across packets.
            assert!(c.data.iter().all(|&b| b == c.data[0]));
            assert_eq!(c.data.len(), 320);
        }
    }

    #[test]
    fn round_robin_is_fair_under_saturation() {
        let (mut sim, queues, captured) = build(2);
        for (p, q) in queues.iter().enumerate() {
            for _ in 0..50 {
                q.push(vec![p as u8; 64], p as u8);
            }
        }
        sim.run_until(Time::from_us(50));
        let order: Vec<u8> = captured.drain().iter().map(|c| c.meta.src_port).collect();
        assert_eq!(order.len(), 100);
        // Strict alternation once both are backlogged.
        for pair in order.windows(2).take(90) {
            assert_ne!(pair[0], pair[1], "RR must alternate: {order:?}");
        }
    }

    #[test]
    fn work_conserving_when_one_input_idle() {
        let (mut sim, queues, captured) = build(4);
        for _ in 0..10 {
            queues[2].push(vec![9u8; 64], 2);
        }
        sim.run_until(Time::from_us(10));
        assert_eq!(captured.total_packets(), 10);
    }

    /// Stall rule: with the output full the arbiter is quiescent however
    /// much its inputs hold; the inputs stay exactly as full across the
    /// stretch, and one pop on the output buys exactly one tick.
    #[test]
    fn full_output_stalls_the_arbiter_until_a_pop() {
        use netfpga_core::stream::{segment, Meta};
        for burst in [false, true] {
            let (in0_tx, in0_rx) = Stream::new(8, 32);
            let (in1_tx, in1_rx) = Stream::new(8, 32);
            let (out_tx, out_rx) = Stream::new(8, 32);
            let arb = InputArbiter::new("arb", vec![in0_rx, in1_rx], out_tx).with_burst(burst);
            let mut sim = Simulator::new();
            let clk = sim.add_clock("core", Frequency::mhz(200));
            sim.add_module(clk, arb);
            let ticks = |sim: &Simulator| sim.module_ticks()[0].1;
            // One 8-word packet per input: the first fills the output.
            for (p, tx) in [&in0_tx, &in1_tx].into_iter().enumerate() {
                for w in segment(&[p as u8; 256], 32, Meta::default()) {
                    tx.push(w);
                }
            }
            sim.run_cycles(clk, 20);
            assert_eq!(out_rx.occupancy(), 8);
            assert_eq!((in0_tx.space(), in1_tx.space()), (8, 0));
            assert!(sim.all_quiescent(), "burst={burst}: stalled on the output");
            let stalled_at = ticks(&sim);
            sim.run_cycles(clk, 1000);
            assert_eq!(
                ticks(&sim),
                stalled_at,
                "burst={burst}: no tick while stalled"
            );
            assert_eq!(in1_tx.space(), 0, "nothing moved");

            assert_eq!(out_rx.pop().expect("head word").bytes()[0], 0);
            sim.run_cycles(clk, 1);
            assert_eq!(ticks(&sim), stalled_at + 1, "one pop, one tick");
            assert_eq!((out_rx.occupancy(), in1_tx.space()), (8, 1));
            assert!(sim.all_quiescent());
        }
    }

    /// Stall rule: locked mid-packet on an input that has run dry, the
    /// arbiter is quiescent however much the other inputs hold — it may not
    /// interleave them — until the locked input is pushed; one push buys
    /// exactly one tick, and the round-robin pointer never moves.
    #[test]
    fn locked_and_starved_arbiter_is_quiescent_until_its_input_is_pushed() {
        use netfpga_core::stream::{segment, Meta};
        for burst in [false, true] {
            let (in0_tx, in0_rx) = Stream::new(8, 32);
            let (in1_tx, in1_rx) = Stream::new(8, 32);
            let (out_tx, out_rx) = Stream::new(64, 32);
            let arb = InputArbiter::new("arb", vec![in0_rx, in1_rx], out_tx).with_burst(burst);
            let mut sim = Simulator::new();
            let clk = sim.add_clock("core", Frequency::mhz(200));
            sim.add_module(clk, arb);
            let ticks = |sim: &Simulator| sim.module_ticks()[0].1;
            // Input 1 opens a four-word packet and delivers half of it;
            // input 0 holds a whole packet the arbiter may not touch yet.
            let mut open = segment(&[1u8; 128], 32, Meta::default());
            in1_tx.push(open.next().expect("word 0"));
            sim.run_cycles(clk, 1);
            in1_tx.push(open.next().expect("word 1"));
            for w in segment(&[0u8; 64], 32, Meta::default()) {
                in0_tx.push(w);
            }
            sim.run_cycles(clk, 20);
            assert_eq!((out_rx.occupancy(), in0_tx.space()), (2, 6));
            assert!(sim.all_quiescent(), "burst={burst}: locked and starved");
            let stalled_at = ticks(&sim);
            sim.run_cycles(clk, 1000);
            assert_eq!(
                ticks(&sim),
                stalled_at,
                "burst={burst}: no tick while starved"
            );
            assert_eq!(in0_tx.space(), 6, "the other input is untouched");

            in1_tx.push(open.next().expect("word 2"));
            sim.run_cycles(clk, 1);
            assert_eq!(ticks(&sim), stalled_at + 1, "one push, one tick");
            assert_eq!((out_rx.occupancy(), in0_tx.space()), (3, 6));
            assert!(sim.all_quiescent(), "starved again");
            // The packet ends; only then is input 0 served — input 1 held
            // the grant, so the pointer moves past it, not past input 0.
            in1_tx.push(open.next().expect("word 3"));
            sim.run_cycles(clk, 10);
            assert_eq!((out_rx.occupancy(), in0_tx.space()), (6, 8));
            let order: Vec<u8> = std::iter::from_fn(|| out_rx.pop())
                .map(|w| w.bytes()[0])
                .collect();
            assert_eq!(order, [1, 1, 1, 1, 0, 0]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn empty_input_list_rejected() {
        let (tx, _rx) = Stream::new(1, 32);
        let _ = InputArbiter::new("arb", Vec::new(), tx);
    }
}
