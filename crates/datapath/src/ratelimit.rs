//! A token-bucket rate limiter stage: pass-through that paces packets to a
//! configured rate — used by OSNT's generator for sub-line-rate streams and
//! available as a building block for traffic shaping research.

use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stream::{StreamRx, StreamTx, Word};
use netfpga_core::time::{BitRate, Time};

/// Token-bucket pacing stage. Tokens are bytes; a packet may start only
/// when the bucket holds its full length (strict conformance), and the
/// whole packet debits at start.
///
/// The bucket level is the *pure function* `min(burst, base + (now −
/// base_time) · rate)`, with the base mutated only on a debit. An earlier
/// revision accumulated the level incrementally on every tick, which would
/// make the value depend on how many no-op edges the kernel executed —
/// ruling out idle-skipping this stage. The closed form makes every no-op
/// tick literally a no-op, so skipped edges are bit-identical.
pub struct RateLimiter {
    name: String,
    input: StreamRx,
    output: StreamTx,
    rate: BitRate,
    burst_bytes: f64,
    /// Token count at `base_time`; the live level is `tokens_at(now)`.
    tokens_base: f64,
    base_time: Time,
    /// Words of the admitted packet still to copy through.
    in_packet: bool,
    packets: u64,
    /// Activity-cache invalidation flag, registered on the input and the
    /// output (pops free the space a stalled forward waits on).
    wake: WakeHandle,
}

impl RateLimiter {
    /// Pace to `rate`, allowing bursts of `burst_bytes` (at least one MTU).
    pub fn new(
        name: &str,
        input: StreamRx,
        output: StreamTx,
        rate: BitRate,
        burst_bytes: usize,
    ) -> RateLimiter {
        assert!(
            burst_bytes >= 1514,
            "burst must cover at least one MTU frame"
        );
        let wake = WakeHandle::new();
        input.set_wake(wake.clone());
        output.set_wake(wake.clone());
        RateLimiter {
            name: name.to_string(),
            input,
            output,
            rate,
            burst_bytes: burst_bytes as f64,
            tokens_base: burst_bytes as f64,
            base_time: Time::ZERO,
            in_packet: false,
            packets: 0,
            wake,
        }
    }

    /// Packets admitted so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Bucket level at `now`: closed-form refill since the last debit.
    fn tokens_at(&self, now: Time) -> f64 {
        let dt = now.saturating_sub(self.base_time).as_secs_f64();
        (self.tokens_base + dt * self.rate.as_bps() as f64 / 8.0).min(self.burst_bytes)
    }

    /// Debit `len` bytes at `now`, re-anchoring the closed form.
    fn debit(&mut self, now: Time, len: f64) {
        self.tokens_base = self.tokens_at(now) - len;
        self.base_time = now;
    }

    fn head_packet_len(&self) -> Option<usize> {
        // Packet length travels in the sop word's metadata.
        let word = self.input.peek()?;
        if !word.sop {
            return Some(0); // mid-packet words always pass
        }
        Some(usize::from(word.meta.map(|m| m.len).unwrap_or(0)))
    }

    fn forward_one(&mut self) -> Option<Word> {
        if !self.output.can_push() {
            return None;
        }
        let word = self.input.pop()?;
        self.in_packet = !word.eop;
        self.output.push(word.clone());
        Some(word)
    }
}

impl Module for RateLimiter {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        if self.in_packet {
            // Finish the admitted packet regardless of tokens.
            self.forward_one();
            return;
        }
        let Some(len) = self.head_packet_len() else {
            return;
        };
        if len == 0 {
            // Defensive: a framing anomaly; pass it through.
            self.forward_one();
            return;
        }
        if self.tokens_at(ctx.now) >= len as f64 {
            if let Some(word) = self.forward_one() {
                if word.sop {
                    self.debit(ctx.now, len as f64);
                    self.packets += 1;
                }
            }
        }
    }

    fn reset(&mut self) {
        self.tokens_base = self.burst_bytes;
        self.base_time = Time::ZERO;
        self.in_packet = false;
        self.packets = 0;
    }

    /// Idle when the input is empty (the bucket level is a closed form of
    /// time, so an input-less tick has no effect at any future edge) and
    /// stalled when the output is full: every word, admitted packet or
    /// not, moves through `forward_one`, which gives up before touching
    /// anything. With a head packet waiting on tokens, the tick is a no-op
    /// until the bucket reaches the packet's length — a known instant
    /// under the closed-form refill. Floor rounding only makes the bound
    /// early (harmless: one extra no-op tick, never a missed admission).
    fn activity(&self) -> Activity {
        if !self.input.can_pop() || !self.output.can_push() {
            return Activity::Quiescent;
        }
        if self.in_packet || self.rate.as_bps() == 0 {
            return Activity::Active;
        }
        let len = match self.head_packet_len() {
            Some(len) if len > 0 => len,
            _ => return Activity::Active,
        };
        let deficit = len as f64 - self.tokens_base;
        if deficit <= 0.0 {
            return Activity::Active; // already admissible: must tick at the next edge
        }
        let secs = deficit * 8.0 / self.rate.as_bps() as f64;
        // Step back well past any float rounding: a bound a few ns early
        // costs a couple of no-op ticks; a bound one ulp late would skip
        // the admission edge.
        let ps = ((secs * 1e12) as u64).saturating_sub(4096);
        Activity::Bounded(self.base_time + Time::from_ps(ps))
    }

    /// External activity channels: pushes into the input, pops from the
    /// output. The bucket refills by formula.
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
    use netfpga_core::time::Frequency;

    fn rig(
        rate: BitRate,
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
        let rl = RateLimiter::new("rl", in_rx, out_tx, rate, 2048);
        let (sink, cap) = PacketSink::new("sink", out_rx);
        sim.add_module(clk, src);
        sim.add_module(clk, rl);
        sim.add_module(clk, sink);
        (sim, inject, cap)
    }

    #[test]
    fn rate_is_enforced() {
        // 1 Gb/s, 1000-byte packets -> 125 kpps -> 8 us per packet.
        let (mut sim, inject, cap) = rig(BitRate::gbps(1));
        let n = 50;
        for _ in 0..n {
            inject.push(vec![0u8; 1000], 0);
        }
        sim.run_until(Time::from_us(1000));
        assert_eq!(cap.total_packets(), n);
        let arrivals: Vec<Time> = cap.drain().iter().map(|c| c.arrival).collect();
        let span = (*arrivals.last().unwrap() - arrivals[0]).as_secs_f64();
        let rate_bps = ((n - 1) as f64 * 1000.0 * 8.0) / span;
        assert!(
            (rate_bps - 1e9).abs() / 1e9 < 0.05,
            "measured {:.3} Gb/s",
            rate_bps / 1e9
        );
    }

    #[test]
    fn bursts_up_to_bucket_pass_immediately() {
        let (mut sim, inject, cap) = rig(BitRate::mbps(10));
        // Bucket is 2048 bytes: two 1000-byte packets go out back-to-back.
        inject.push(vec![0u8; 1000], 0);
        inject.push(vec![0u8; 1000], 0);
        sim.run_until(Time::from_us(5));
        assert_eq!(cap.total_packets(), 2, "burst admitted without pacing");
    }

    #[test]
    fn packets_arrive_intact_and_in_order() {
        let (mut sim, inject, cap) = rig(BitRate::gbps(5));
        for i in 0..10u8 {
            inject.push(vec![i; 300], 0);
        }
        sim.run_until(Time::from_us(100));
        let seq: Vec<u8> = cap.drain().iter().map(|c| c.data[0]).collect();
        assert_eq!(seq, (0..10).collect::<Vec<_>>());
    }

    /// Stall rule: with the output full the limiter is quiescent even
    /// mid-packet (admitted words move through the same gated forward);
    /// one pop on the output buys exactly one tick.
    #[test]
    fn full_output_stalls_the_limiter_until_a_pop() {
        use netfpga_core::stream::{segment, Meta};
        let (in_tx, in_rx) = Stream::new(16, 32);
        let (out_tx, out_rx) = Stream::new(8, 32);
        let rl = RateLimiter::new("rl", in_rx, out_tx, BitRate::gbps(10), 2048);
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        sim.add_module(clk, rl);
        let ticks = |sim: &Simulator| sim.module_ticks()[0].1;
        let meta = Meta {
            len: 320,
            ..Meta::default()
        };
        for w in segment(&[5u8; 320], 32, meta) {
            in_tx.push(w); // 10 words: 8 fit downstream
        }
        sim.run_cycles(clk, 20);
        assert_eq!((out_rx.occupancy(), in_tx.space()), (8, 14));
        assert!(sim.all_quiescent(), "stalled mid-packet on the output");
        let stalled_at = ticks(&sim);
        sim.run_cycles(clk, 1000);
        assert_eq!(ticks(&sim), stalled_at, "no tick while stalled");
        assert_eq!(in_tx.space(), 14, "nothing moved");

        out_rx.pop().expect("head word");
        sim.run_cycles(clk, 1);
        assert_eq!(ticks(&sim), stalled_at + 1, "one pop, one tick");
        assert_eq!((out_rx.occupancy(), in_tx.space()), (8, 15));
        assert!(sim.all_quiescent());
    }

    #[test]
    #[should_panic(expected = "MTU")]
    fn tiny_burst_rejected() {
        let (tx, rx) = Stream::new(1, 32);
        let (tx2, _rx2) = Stream::new(1, 32);
        let _ = RateLimiter::new("rl", rx, tx2, BitRate::gbps(1), 100);
        drop(tx);
    }
}
