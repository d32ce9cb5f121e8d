//! The reliable host I/O layer: exactly-once transmission over the lossy,
//! stallable DMA engine.
//!
//! The raw [`DmaHandle`] is a best-effort ring: a fault-plane drop window
//! discards a posted packet, a stall freezes it, a wedge strands it until
//! a watchdog soft reset flushes the ring. [`ReliableChannel`] layers a
//! real driver's transmit discipline on top, using the engine's sequenced
//! descriptors and completion ring:
//!
//! * every accepted packet gets a host-assigned **sequence number** and
//!   sits in a bounded **in-flight window** until the engine acks it;
//! * a `Dropped` completion re-posts immediately; a missing ack re-posts
//!   on a deterministic sim-clock **timeout with exponential backoff**
//!   plus seeded [`SimRng`] jitter (replays are bit-identical);
//! * the engine's dedup set discards re-posts of already-delivered
//!   sequence numbers, so retries are **exactly-once**, not at-least-once;
//! * `max_attempts` caps the retries; exhausted packets are abandoned and
//!   counted rather than blocking the window forever;
//! * a bounded pending queue feeds the window; overflow **sheds load** at
//!   the edge (`tx_shed`) instead of growing without bound.
//!
//! The channel is a pair: the cloneable [`ReliableChannel`] handle the
//! host software keeps, and the [`ReliableDriver`] module that must be
//! registered on the simulator's core clock (it is the "interrupt
//! handler" servicing completions and timers).

use netfpga_core::pktbuf::PktBuf;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stats::Counter;
use netfpga_core::stream::Meta;
use netfpga_core::telemetry::StatRegistry;
use netfpga_core::time::Time;
use netfpga_core::SimRng;
use netfpga_pcie::{DmaHandle, TxStatus};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Retry discipline of a [`ReliableChannel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Maximum unacked sends in flight at once.
    pub window: usize,
    /// Bounded pending queue feeding the window; sends beyond it are shed.
    pub pending_capacity: usize,
    /// First retransmit timeout.
    pub base_timeout: Time,
    /// Backoff ceiling (timeout doubles per retry up to this).
    pub max_timeout: Time,
    /// Total posting attempts per packet before it is abandoned.
    pub max_attempts: u32,
}

impl Default for ReliableConfig {
    fn default() -> ReliableConfig {
        ReliableConfig {
            window: 16,
            pending_capacity: 64,
            base_timeout: Time::from_us(20),
            max_timeout: Time::from_us(320),
            max_attempts: 8,
        }
    }
}

/// One unacked send.
struct Flight {
    packet: PktBuf,
    meta: Meta,
    /// Current retransmit timeout (doubles per retry, capped).
    timeout: Time,
    /// When the next retransmit fires.
    deadline: Time,
    /// Posting attempts so far (1 = the initial post).
    attempts: u32,
}

/// Sentinel for "no retransmit timer armed".
const NO_DEADLINE: Time = Time::from_ps(u64::MAX);

struct Inner {
    dma: DmaHandle,
    config: ReliableConfig,
    rng: SimRng,
    next_seq: u64,
    in_flight: BTreeMap<u64, Flight>,
    /// Earliest flight deadline (cached; [`NO_DEADLINE`] when none) — the
    /// per-tick fast path compares against this instead of scanning the
    /// window.
    next_deadline: Time,
    pending: VecDeque<(PktBuf, Meta)>,
    accepted: Counter,
    acked: Counter,
    retries: Counter,
    tx_shed: Counter,
    abandoned: Counter,
    wake: WakeHandle,
}

impl Inner {
    /// Timeout deadline with seeded jitter (up to 1/8 of the timeout), so
    /// synchronized losers do not retry in lockstep — and identically
    /// seeded runs still replay bit for bit.
    fn jittered_deadline(&mut self, now: Time, timeout: Time) -> Time {
        let jitter = Time::from_ps(self.rng.below(timeout.as_ps() / 8 + 1));
        now + timeout + jitter
    }

    fn doubled(&self, timeout: Time) -> Time {
        Time::from_ps(timeout.as_ps().saturating_mul(2)).min(self.config.max_timeout)
    }

    /// Service completions, retries and window refill at `now`.
    fn service(&mut self, now: Time) {
        // Per-tick fast path: no completions queued, nothing waiting for
        // window space and no retransmit timer due — this tick cannot
        // change channel state, so skip the window scan entirely.
        if self.pending.is_empty()
            && now < self.next_deadline
            && self.dma.completions_pending() == 0
        {
            return;
        }
        // 1. Completions: Delivered retires the flight; Dropped is an
        // observable loss — pull the retransmit deadline in to one
        // (backed-off) timeout from *now* instead of waiting out the
        // original timer, and back off further. Re-posting instantly
        // would burn the whole attempt budget inside one drop window.
        while let Some(c) = self.dma.pop_completion() {
            match c.status {
                TxStatus::Delivered => {
                    if self.in_flight.remove(&c.seq).is_some() {
                        self.acked.incr();
                    }
                }
                TxStatus::Dropped => {
                    self.defer_retry(c.seq, now);
                }
            }
        }
        // 2. Timer-driven retries for flights whose ack never came.
        let due: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, f)| f.deadline <= now)
            .map(|(s, _)| *s)
            .collect();
        for seq in due {
            self.repost(seq, now);
        }
        // 3. Refill the window from the pending queue.
        while self.in_flight.len() < self.config.window {
            let Some((packet, meta)) = self.pending.pop_front() else {
                break;
            };
            let seq = self.next_seq;
            match self.dma.send_sequenced(packet.clone(), meta, seq) {
                Ok(()) => {
                    self.next_seq += 1;
                    let timeout = self.config.base_timeout;
                    let deadline = self.jittered_deadline(now, timeout);
                    self.in_flight.insert(
                        seq,
                        Flight {
                            packet,
                            meta,
                            timeout,
                            deadline,
                            attempts: 1,
                        },
                    );
                }
                Err(_) => {
                    // Ring full: put it back and wait for completions (or
                    // a retry tick) to free space.
                    self.pending.push_front((packet, meta));
                    break;
                }
            }
        }
        // 4. Prune the engine's dedup set once nothing of ours can still
        // be outstanding anywhere: no flights, and the TX ring has fully
        // drained (a stale retry copy in the ring must keep its dedup
        // entry, or it would deliver twice).
        if self.in_flight.is_empty() && self.dma.tx_pending() == 0 {
            self.dma.advance_ack_floor(self.next_seq);
        }
        self.next_deadline = self
            .in_flight
            .values()
            .map(|f| f.deadline)
            .min()
            .unwrap_or(NO_DEADLINE);
    }

    /// A `Dropped` completion for `seq`: schedule its retry one
    /// backed-off timeout from now (abandoning it if the attempt budget
    /// is spent).
    fn defer_retry(&mut self, seq: u64, now: Time) {
        let Some(f) = self.in_flight.get(&seq) else {
            return;
        };
        if f.attempts >= self.config.max_attempts {
            self.in_flight.remove(&seq);
            self.abandoned.incr();
            return;
        }
        let timeout = f.timeout;
        let deadline = self.jittered_deadline(now, timeout);
        let doubled = self.doubled(timeout);
        let f = self.in_flight.get_mut(&seq).expect("flight present");
        f.deadline = deadline;
        f.timeout = doubled;
    }

    /// Re-post `seq` (expired timer), with backoff; an exhausted flight
    /// is abandoned and counted.
    fn repost(&mut self, seq: u64, now: Time) {
        let Some(f) = self.in_flight.get(&seq) else {
            return;
        };
        if f.attempts >= self.config.max_attempts {
            self.in_flight.remove(&seq);
            self.abandoned.incr();
            return;
        }
        let (packet, meta, timeout) = (f.packet.clone(), f.meta, self.doubled(f.timeout));
        match self.dma.send_sequenced(packet, meta, seq) {
            Ok(()) => {
                self.retries.incr();
                let deadline = self.jittered_deadline(now, timeout);
                let f = self.in_flight.get_mut(&seq).expect("flight present");
                f.attempts += 1;
                f.timeout = timeout;
                f.deadline = deadline;
            }
            Err(_) => {
                // Ring full (possibly stalled): check again after the
                // current timeout without burning an attempt — the packet
                // never reached the ring.
                let deadline = now + f.timeout;
                self.in_flight
                    .get_mut(&seq)
                    .expect("flight present")
                    .deadline = deadline;
            }
        }
    }
}

/// The host-side handle: queue packets, read the channel's counters.
#[derive(Clone)]
pub struct ReliableChannel {
    inner: Rc<RefCell<Inner>>,
}

impl ReliableChannel {
    /// Build a channel over `dma` with `config`, seeding the retry jitter
    /// from `seed`. Returns the driver module (register it on the core
    /// clock, *after* the DMA engine) and the host handle.
    pub fn new(
        name: &str,
        dma: DmaHandle,
        config: ReliableConfig,
        seed: u64,
    ) -> (ReliableDriver, ReliableChannel) {
        let wake = WakeHandle::new();
        // Completions arrive from the engine's tick: wake the driver so
        // the kernel's activity cache never sleeps through an ack.
        dma.set_completion_wake(wake.clone());
        let inner = Rc::new(RefCell::new(Inner {
            dma,
            config,
            rng: SimRng::new(seed ^ 0x5EC0_94E1), // domain-separate from other seed users
            next_seq: 0,
            in_flight: BTreeMap::new(),
            next_deadline: NO_DEADLINE,
            pending: VecDeque::new(),
            accepted: Counter::new(),
            acked: Counter::new(),
            retries: Counter::new(),
            tx_shed: Counter::new(),
            abandoned: Counter::new(),
            wake,
        }));
        (
            ReliableDriver {
                label: name.to_string(),
                inner: inner.clone(),
            },
            ReliableChannel { inner },
        )
    }

    /// Queue `packet` for reliable transmission. Returns `false` when the
    /// pending queue is full — the channel sheds the packet (counted in
    /// `tx_shed`) rather than queueing without bound.
    pub fn send(&self, packet: impl Into<PktBuf>, meta: Meta) -> bool {
        let mut i = self.inner.borrow_mut();
        if i.pending.len() >= i.config.pending_capacity {
            i.tx_shed.incr();
            return false;
        }
        let packet = packet.into();
        let mut meta = meta;
        meta.len = packet.len() as u16;
        i.pending.push_back((packet, meta));
        i.accepted.incr();
        i.wake.wake();
        true
    }

    /// Sends accepted into the pending queue so far.
    pub fn accepted(&self) -> u64 {
        self.inner.borrow().accepted.get()
    }

    /// Sends acknowledged as delivered by the engine.
    pub fn acked(&self) -> u64 {
        self.inner.borrow().acked.get()
    }

    /// Re-posts performed (drop completions + expired timers).
    pub fn retries(&self) -> u64 {
        self.inner.borrow().retries.get()
    }

    /// Sends shed at the pending-queue edge.
    pub fn tx_shed(&self) -> u64 {
        self.inner.borrow().tx_shed.get()
    }

    /// Flights abandoned after `max_attempts`.
    pub fn abandoned(&self) -> u64 {
        self.inner.borrow().abandoned.get()
    }

    /// Unacked sends currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inner.borrow().in_flight.len()
    }

    /// Sends waiting for window space.
    pub fn pending(&self) -> usize {
        self.inner.borrow().pending.len()
    }

    /// True once everything accepted has been resolved (acked, abandoned
    /// or shed) — nothing in flight, nothing pending.
    pub fn idle(&self) -> bool {
        let i = self.inner.borrow();
        i.in_flight.is_empty() && i.pending.is_empty()
    }

    /// Register the channel's counters on `registry`: `dma.retries`,
    /// `dma.acked_reliable`, `host.tx_shed`, `host.tx_abandoned`.
    pub fn register_stats(&self, registry: &StatRegistry) {
        let i = self.inner.borrow();
        registry.register_counter("dma.retries", &i.retries);
        registry.register_counter("dma.acked_reliable", &i.acked);
        registry.register_counter("host.tx_shed", &i.tx_shed);
        registry.register_counter("host.tx_abandoned", &i.abandoned);
    }
}

/// The channel's driver module: services completions, fires retransmit
/// timers and refills the window every tick it has work.
pub struct ReliableDriver {
    label: String,
    inner: Rc<RefCell<Inner>>,
}

impl Module for ReliableDriver {
    fn name(&self) -> &str {
        &self.label
    }

    fn tick(&mut self, ctx: &TickContext) {
        self.inner.borrow_mut().service(ctx.now);
    }

    fn reset(&mut self) {
        let mut i = self.inner.borrow_mut();
        i.next_seq = 0;
        i.in_flight.clear();
        i.next_deadline = NO_DEADLINE;
        i.pending.clear();
        i.accepted.clear();
        i.acked.clear();
        i.retries.clear();
        i.tx_shed.clear();
        i.abandoned.clear();
    }

    // soft_reset: deliberately the default no-op. The in-flight window IS
    // the recovery state — after a watchdog soft reset flushes the DMA TX
    // ring, the unacked flights here are what gets re-posted.

    /// Idle when nothing is accepted-but-unresolved and no completions
    /// wait. Host sends and engine completions both wake the driver.
    /// With flights outstanding and nothing else to do, the only *timed*
    /// trigger is the earliest retransmit deadline: completions arrive
    /// via the wake handle. Queued completions or pending sends (waiting
    /// on window or ring space, which frees without a completion) have
    /// no timed trigger at all — stay active and poll, exactly as the
    /// per-cycle scan does, or the post slides to the next wake and the
    /// schedule stops being mode-invariant.
    fn activity(&self) -> Activity {
        let i = self.inner.borrow();
        if i.dma.completions_pending() > 0 || !i.pending.is_empty() {
            Activity::Active
        } else if i.in_flight.is_empty() {
            Activity::Quiescent
        } else {
            Activity::Bounded(i.next_deadline)
        }
    }

    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.inner.borrow().wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::packetio::{PacketSink, PacketSource};
    use netfpga_core::sim::Simulator;
    use netfpga_core::stream::Stream;
    use netfpga_core::time::Frequency;
    use netfpga_pcie::{DmaEngine, DmaFaultGate, PcieConfig};

    fn setup(
        config: ReliableConfig,
    ) -> (
        Simulator,
        ReliableChannel,
        DmaHandle,
        netfpga_core::packetio::CaptureBuffer,
        DmaFaultGate,
    ) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (h2c_tx, h2c_rx) = Stream::new(8, 32);
        let (c2h_tx, c2h_rx) = Stream::new(8, 32);
        let gate = DmaFaultGate::new();
        let (engine, handle) = DmaEngine::new("dma", PcieConfig::gen3_x8(), h2c_tx, c2h_rx, 8, 8);
        let engine = engine.with_fault_gate(gate.clone());
        let (driver, chan) = ReliableChannel::new("reliable", handle.clone(), config, 7);
        let (sink, captured) = PacketSink::new("to_card_sink", h2c_rx);
        let (_source, _inject) = PacketSource::new("from_card_src", c2h_tx);
        sim.add_module(clk, engine);
        sim.add_module(clk, driver);
        sim.add_module(clk, sink);
        (sim, chan, handle, captured, gate)
    }

    #[test]
    fn clean_channel_delivers_and_acks() {
        let (mut sim, chan, _dma, captured, _gate) = setup(ReliableConfig::default());
        for i in 0..10u8 {
            assert!(chan.send(vec![i; 100], Meta::default()));
        }
        sim.run_until(Time::from_us(50));
        assert_eq!(captured.total_packets(), 10);
        assert_eq!(chan.acked(), 10);
        assert_eq!(chan.retries(), 0);
        assert!(chan.idle());
    }

    #[test]
    fn pending_overflow_sheds() {
        let config = ReliableConfig {
            window: 2,
            pending_capacity: 4,
            ..Default::default()
        };
        let (_sim, chan, _dma, _captured, gate) = setup(config);
        gate.wedge(); // nothing drains
        let mut accepted = 0;
        for i in 0..20u8 {
            if chan.send(vec![i; 64], Meta::default()) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4, "pending queue bounds acceptance");
        assert_eq!(chan.tx_shed(), 16);
    }

    #[test]
    fn drop_window_retries_to_exactly_once() {
        let (mut sim, chan, dma, captured, gate) = setup(ReliableConfig::default());
        gate.drop_until(Time::from_us(10));
        for i in 0..5u8 {
            assert!(chan.send(vec![i; 80], Meta::default()));
        }
        sim.run_until(Time::from_us(200));
        assert_eq!(captured.total_packets(), 5, "every packet exactly once");
        assert_eq!(chan.acked(), 5);
        assert!(chan.retries() > 0, "drop completions must have re-posted");
        assert!(gate.counters().tx_dropped.get() > 0);
        assert_eq!(
            dma.counters().dup_discards.get(),
            0,
            "no duplicate reached the pop"
        );
        assert!(chan.idle());
    }

    #[test]
    fn stall_window_recovers_by_timeout_retry() {
        let (mut sim, chan, _dma, captured, gate) = setup(ReliableConfig::default());
        gate.stall_until(Time::from_us(100));
        for i in 0..3u8 {
            assert!(chan.send(vec![i; 80], Meta::default()));
        }
        sim.run_until(Time::from_us(400));
        assert_eq!(captured.total_packets(), 3);
        assert_eq!(chan.acked(), 3);
        assert!(chan.idle());
    }

    #[test]
    fn replay_is_bit_identical() {
        let run = || {
            let (mut sim, chan, _dma, captured, gate) = setup(ReliableConfig::default());
            gate.drop_until(Time::from_us(15));
            for i in 0..8u8 {
                chan.send(vec![i; 90], Meta::default());
            }
            sim.run_until(Time::from_us(300));
            let mut frames = Vec::new();
            while let Some(p) = captured.pop() {
                frames.push((p.data, p.meta.ingress_time));
            }
            (frames, chan.retries(), chan.acked())
        };
        assert_eq!(run(), run(), "seeded retry schedule must replay exactly");
    }

    #[test]
    fn abandons_after_max_attempts() {
        let config = ReliableConfig {
            max_attempts: 3,
            base_timeout: Time::from_us(5),
            max_timeout: Time::from_us(10),
            ..Default::default()
        };
        let (mut sim, chan, _dma, captured, gate) = setup(config);
        gate.drop_until(Time::from_ms(10)); // drops everything, forever
        assert!(chan.send(vec![1u8; 64], Meta::default()));
        sim.run_until(Time::from_ms(1));
        assert_eq!(captured.total_packets(), 0);
        assert_eq!(chan.abandoned(), 1, "exhausted flight abandoned");
        assert!(chan.idle(), "abandonment frees the window");
    }
}
