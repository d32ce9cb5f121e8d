//! A fixed-delay stage: holds each packet for a configured time before
//! forwarding. Used to emulate a device-under-test for OSNT latency
//! experiments and to pad pipeline timing in composed designs.

use netfpga_core::pktbuf::PktBuf;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stream::{Meta, PacketRx, PacketTx, StreamRx, StreamTx};
use netfpga_core::time::Time;
use std::collections::VecDeque;

/// Store-and-forward delay element, one word per cycle on both sides.
pub struct DelayStage {
    name: String,
    input: PacketRx,
    output: PacketTx,
    delay: Time,
    /// (release_time, packet, meta) in arrival order.
    held: VecDeque<(Time, PktBuf, Meta)>,
    packets: u64,
    /// Activity-cache invalidation flag, registered on the input and the
    /// output (pops free the space a stalled emission waits on).
    wake: WakeHandle,
}

impl DelayStage {
    /// Hold each packet `delay` after its full arrival.
    pub fn new(name: &str, input: StreamRx, output: StreamTx, delay: Time) -> DelayStage {
        let wake = WakeHandle::new();
        DelayStage {
            name: name.to_string(),
            input: PacketRx::new(input, &wake),
            output: PacketTx::new(output, &wake),
            delay,
            held: VecDeque::new(),
            packets: 0,
            wake,
        }
    }

    /// Packets forwarded.
    pub fn packets(&self) -> u64 {
        self.packets
    }
}

impl Module for DelayStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        while let Some((packet, meta)) = self.input.poll(true, ctx) {
            self.held.push_back((ctx.now + self.delay, packet, meta));
        }
        while self.output.emit(ctx) && self.held.front().is_some_and(|h| h.0 <= ctx.now) {
            let (_, packet, meta) = self.held.pop_front().expect("checked above");
            self.packets += 1;
            self.output.stage(packet, meta);
        }
    }

    fn reset(&mut self) {
        self.input.reset();
        self.output.reset();
        self.held.clear();
        self.packets = 0;
    }

    /// Watchdog recovery: a partial arrival and a frame cut short
    /// mid-emission are discarded; packets waiting out the delay survive.
    fn soft_reset(&mut self) {
        self.input.soft_reset();
        self.output.soft_reset();
    }

    /// The two ports' answers joined, the next packet to stage being the
    /// head of `held` at its release instant — exactly the gate the emit
    /// path checks against `now` (held packets cannot be staged behind a
    /// stalled one, so their release times do not matter then).
    fn activity(&self) -> Activity {
        match self.input.activity(true) {
            Activity::Active => Activity::Active,
            ingest => ingest.join(self.output.activity(self.held.front().map(|h| h.0))),
        }
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
    use netfpga_core::packetio::{PacketSink, PacketSource};
    use netfpga_core::sim::Simulator;
    use netfpga_core::stream::{Reassembler, Stream};
    use netfpga_core::time::Frequency;

    fn rig(
        delay: Time,
    ) -> (
        Simulator,
        netfpga_core::packetio::InjectQueue,
        netfpga_core::packetio::CaptureBuffer,
    ) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (in_tx, in_rx) = Stream::new(8, 32);
        let (out_tx, out_rx) = Stream::new(8, 32);
        let (src, inject) = PacketSource::new("src", in_tx);
        let stage = DelayStage::new("delay", in_rx, out_tx, delay);
        let (sink, cap) = PacketSink::new("sink", out_rx);
        sim.add_module(clk, src);
        sim.add_module(clk, stage);
        sim.add_module(clk, sink);
        (sim, inject, cap)
    }

    #[test]
    fn adds_at_least_the_configured_delay() {
        let delay = Time::from_us(3);
        let (mut sim, inject, cap) = rig(delay);
        inject.push(vec![0u8; 64], 0);
        sim.run_until(Time::from_us(10));
        let c = cap.pop().unwrap();
        let latency = c.arrival - c.meta.ingress_time;
        assert!(latency >= delay, "latency {latency}");
        assert!(
            latency < delay + Time::from_us(1),
            "latency {latency} way over"
        );
    }

    #[test]
    fn order_preserved() {
        let (mut sim, inject, cap) = rig(Time::from_us(1));
        for i in 0..10u8 {
            inject.push(vec![i; 128], 0);
        }
        sim.run_until(Time::from_us(50));
        let seq: Vec<u8> = cap.drain().iter().map(|c| c.data[0]).collect();
        assert_eq!(seq, (0..10).collect::<Vec<_>>());
    }

    /// Stall rule: a staged packet facing a full output makes the stage
    /// quiescent even with another packet held behind it (its release time
    /// cannot matter until the staged one drains); one pop buys one tick.
    #[test]
    fn full_output_stalls_the_stage_until_a_pop() {
        use netfpga_core::stream::{segment, Meta};
        let (in_tx, in_rx) = Stream::new(8, 32);
        let (out_tx, out_rx) = Stream::new(8, 32);
        let stage = DelayStage::new("delay", in_rx, out_tx, Time::from_ns(50));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        sim.add_module(clk, stage);
        let ticks = |sim: &Simulator| sim.module_ticks()[0].1;
        // Two 10-word packets through the 8-word input.
        let mut packets = (0..2u8).map(|i| segment(&[i; 320], 32, Meta::default()));
        let mut slot = packets.next();
        while slot.is_some() {
            while in_tx.push_burst(&mut slot, usize::MAX) > 0 && slot.is_none() {
                slot = packets.next();
            }
            sim.run_cycles(clk, 1);
        }
        sim.run_cycles(clk, 40);
        assert_eq!((out_rx.occupancy(), in_tx.space()), (8, 8));
        assert!(sim.all_quiescent(), "stalled on the output, packet 2 held");
        let stalled_at = ticks(&sim);
        sim.run_cycles(clk, 1000);
        assert_eq!(ticks(&sim), stalled_at, "no tick while stalled");

        let mut r = Reassembler::new();
        assert!(r.push(out_rx.pop().expect("head word")).is_none());
        sim.run_cycles(clk, 1);
        assert_eq!(ticks(&sim), stalled_at + 1, "one pop, one tick");
        assert_eq!(out_rx.occupancy(), 8);
        assert!(sim.all_quiescent());

        let mut got = Vec::new();
        for _ in 0..40 {
            while let Some(w) = out_rx.pop() {
                got.extend(r.push(w));
            }
            sim.run_cycles(clk, 1);
        }
        let firsts: Vec<u8> = got.iter().map(|(p, _)| p[0]).collect();
        assert_eq!(firsts, vec![0, 1], "both packets, in order");
        assert!(sim.all_quiescent(), "drained");
    }

    #[test]
    fn zero_delay_passthrough() {
        let (mut sim, inject, cap) = rig(Time::ZERO);
        inject.push(vec![9u8; 256], 2);
        sim.run_until(Time::from_us(5));
        let c = cap.pop().unwrap();
        assert_eq!(c.data, vec![9u8; 256]);
        assert_eq!(c.meta.src_port, 2);
    }
}
