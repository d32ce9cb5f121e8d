//! Inter-shard link endpoints: the [`FabricEgress`]/[`FabricIngress`]
//! module pair that carries timestamped frames between chassis that may
//! live on different threads.
//!
//! The egress lives in the *source* chassis's simulator and behaves like
//! a [`Link`](netfpga_phy::Link) whose far end is the link's [`Outbox`]:
//! it drains the port's output wire, stamps the link delay onto each
//! frame's arrival instant, detaches the payload from the thread-local
//! packet-buffer pool ([`PktBuf::into_owned`]) and appends it — a plain
//! shard-local `Vec`, no atomics, no capacity. The shard runner hands
//! the whole outbox over at the epoch barrier and deposits it into the
//! merge queue of the ingress, which lives in the *destination*
//! chassis's simulator; the ingress's next tick re-wraps each payload in
//! the destination pool and pushes it onto the destination port's input
//! wire — still carrying the original `ready_at`, so the receiving MAC
//! observes exactly the wire timing a local
//! [`Link`](netfpga_phy::Link) would have produced.
//!
//! # Merge order
//!
//! The merge queue is a min-heap over `(ready_at, src_node, seq)`. A
//! frame sent in epoch *k* is deposited after barrier *k*, whatever the
//! shard layout, but the order in which one barrier's deposits arrive
//! follows link order, not time; the heap makes the *processing* order
//! a function of the frames alone, and delivery is gated on `ready_at`
//! (wires release frames by arrival time). Per-link order needs no
//! tie-breaking beyond `seq`: wires are FIFO and the delay is constant,
//! so `seq` order is `ready_at` order.

use netfpga_core::pktbuf::PktBuf;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stats::Counter;
use netfpga_core::time::Time;
use netfpga_phy::mac::{Fcs, WireFrame};
use netfpga_phy::Wire;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// A frame in flight between shards. Owns its bytes outright — no `Rc`,
/// no pool — so it is `Send` and pool counters stay per-thread coherent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricFrame {
    /// The frame bytes, detached from the source thread's pool.
    pub bytes: Vec<u8>,
    /// Arrival instant at the destination wire: source wire completion
    /// plus the link delay.
    pub ready_at: Time,
    /// FCS state recorded on the source side, carried across unchanged so
    /// in-flight corruption there stays detectable on the destination
    /// side ([`Fcs::Intact`] survives the hop: the bytes are moved, never
    /// rewritten).
    pub fcs: Fcs,
    /// Source node index — the merge tie-breaker after `ready_at`.
    pub src_node: usize,
    /// Per-link sequence number — the final merge tie-breaker.
    pub seq: u64,
}

/// What one link's egress has sent since the runner last collected it.
/// Shared between the egress module and its shard's loop, both on one
/// thread; frames appended after the last epoch are never read.
pub type Outbox = Rc<RefCell<Vec<FabricFrame>>>;

/// The egress half of an inter-shard link: a module on the source
/// chassis that forwards the port's transmitted frames into the link's
/// outbox, delay-stamped and pool-detached.
pub struct FabricEgress {
    name: String,
    from: Wire,
    outbox: Outbox,
    delay: Time,
    src_node: usize,
    seq: u64,
    /// Frames shipped across the shard boundary (shared with the node's
    /// `fabric.crossed` telemetry).
    crossed: Counter,
    wake: WakeHandle,
}

impl FabricEgress {
    /// An egress forwarding `from` (a port's `from_board` wire) into
    /// `outbox` with `delay` lookahead stamped onto each frame.
    pub fn new(
        name: &str,
        src_node: usize,
        from: Wire,
        outbox: Outbox,
        delay: Time,
        crossed: Counter,
    ) -> FabricEgress {
        let wake = WakeHandle::new();
        from.set_wake(wake.clone());
        FabricEgress {
            name: name.to_string(),
            from,
            outbox,
            delay,
            src_node,
            seq: 0,
            crossed,
            wake,
        }
    }
}

impl Module for FabricEgress {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        while let Some(frame) = self.from.take_ready(ctx.now) {
            self.outbox.borrow_mut().push(FabricFrame {
                bytes: frame.data.into_owned(),
                ready_at: frame.ready_at + self.delay,
                fcs: frame.fcs,
                src_node: self.src_node,
                seq: self.seq,
            });
            self.seq += 1;
            self.crossed.incr();
        }
    }

    fn activity(&self) -> Activity {
        self.from
            .head_ready_at()
            .map_or(Activity::Quiescent, Activity::Bounded)
    }

    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

/// One queued arrival: the merge key plus the binding (which inbound
/// link, hence which destination wire) it belongs to.
struct PendingFrame {
    frame: FabricFrame,
    binding: usize,
}

impl PendingFrame {
    fn key(&self) -> (Time, usize, u64) {
        (self.frame.ready_at, self.frame.src_node, self.frame.seq)
    }
}

impl PartialEq for PendingFrame {
    fn eq(&self, other: &PendingFrame) -> bool {
        self.key() == other.key()
    }
}

impl Eq for PendingFrame {}

impl PartialOrd for PendingFrame {
    fn partial_cmp(&self, other: &PendingFrame) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingFrame {
    fn cmp(&self, other: &PendingFrame) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

#[derive(Default)]
struct IngressShared {
    pending: BinaryHeap<Reverse<PendingFrame>>,
    high_water: u64,
    delivered: u64,
}

/// The runner-facing handle of a node's [`FabricIngress`]: the shard
/// loop deposits the frames of each inbound mailbox here after every
/// epoch barrier.
#[derive(Clone)]
pub struct IngressHandle {
    shared: Rc<RefCell<IngressShared>>,
    wake: WakeHandle,
}

impl IngressHandle {
    /// Queue one arrival for binding `binding` and wake the ingress
    /// module so the kernel re-queries its activity.
    pub fn deposit(&self, binding: usize, frame: FabricFrame) {
        let mut s = self.shared.borrow_mut();
        s.pending.push(Reverse(PendingFrame { frame, binding }));
        s.high_water = s.high_water.max(s.pending.len() as u64);
        self.wake.wake();
    }

    /// Deepest the merge queue has ever been (the `fabric.merge_hw`
    /// telemetry gauge).
    pub fn high_water(&self) -> u64 {
        self.shared.borrow().high_water
    }

    /// Frames delivered onto destination wires so far.
    pub fn delivered(&self) -> u64 {
        self.shared.borrow().delivered
    }
}

/// The ingress half of all of a node's inbound links: a module on the
/// destination chassis that pops the merge queue in
/// `(ready_at, src_node, seq)` order and lands each frame on its
/// binding's input wire, re-wrapped in this thread's buffer pool.
pub struct FabricIngress {
    name: String,
    shared: Rc<RefCell<IngressShared>>,
    /// Destination wires, indexed by binding (one per inbound link, in
    /// topology link order).
    wires: Vec<Wire>,
    wake: WakeHandle,
}

impl FabricIngress {
    /// An ingress delivering onto `wires` (one per inbound link). The
    /// returned handle is the shard runner's deposit side.
    pub fn new(name: &str, wires: Vec<Wire>) -> (FabricIngress, IngressHandle) {
        let shared = Rc::new(RefCell::new(IngressShared::default()));
        let wake = WakeHandle::new();
        let handle = IngressHandle {
            shared: shared.clone(),
            wake: wake.clone(),
        };
        (
            FabricIngress {
                name: name.to_string(),
                shared,
                wires,
                wake,
            },
            handle,
        )
    }
}

impl Module for FabricIngress {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        let mut s = self.shared.borrow_mut();
        while let Some(Reverse(p)) = s.pending.pop() {
            // The lookahead invariant guarantees arrivals land in this
            // node's future; a violation would mean the epoch length
            // exceeded a link's delay budget.
            debug_assert!(
                p.frame.ready_at >= ctx.now,
                "{}: fabric frame arrived in the past ({:?} < {:?}) — lookahead violated",
                self.name,
                p.frame.ready_at,
                ctx.now
            );
            self.wires[p.binding].push(WireFrame {
                data: PktBuf::from_vec(p.frame.bytes),
                ready_at: p.frame.ready_at,
                fcs: p.frame.fcs,
            });
            s.delivered += 1;
        }
    }

    fn activity(&self) -> Activity {
        Activity::idle_if(self.shared.borrow().pending.is_empty())
    }

    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::sim::Simulator;
    use netfpga_core::time::Frequency;

    #[test]
    fn egress_stamps_delay_and_sequences() {
        let outbox = Outbox::default();
        let wire = Wire::new();
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        sim.add_module(
            clk,
            FabricEgress::new(
                "eg",
                3,
                wire.clone(),
                outbox.clone(),
                Time::from_us(1),
                Counter::new(),
            ),
        );
        wire.push(WireFrame::new(
            PktBuf::copy_from(&[1u8; 64]),
            Time::from_ns(100),
        ));
        wire.push(WireFrame::new(
            PktBuf::copy_from(&[2u8; 64]),
            Time::from_ns(200),
        ));
        sim.run_for(Time::from_ns(300));
        let sent = outbox.borrow();
        let (a, b) = (&sent[0], &sent[1]);
        assert_eq!(a.bytes, vec![1u8; 64]);
        assert_eq!(a.ready_at, Time::from_ns(100) + Time::from_us(1));
        assert_eq!((a.src_node, a.seq), (3, 0));
        assert_eq!((b.src_node, b.seq), (3, 1));
    }

    #[test]
    fn ingress_merges_in_time_src_seq_order() {
        let w0 = Wire::new();
        let w1 = Wire::new();
        let (ingress, handle) = FabricIngress::new("in", vec![w0.clone(), w1.clone()]);
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        sim.add_module(clk, ingress);
        let f = |ready_ns: u64, src: usize, seq: u64| FabricFrame {
            bytes: vec![src as u8; 60],
            ready_at: Time::from_ns(ready_ns),
            fcs: Fcs::Unchecked,
            src_node: src,
            seq,
        };
        // Deposited out of order; same binding 0 receives both nodes'
        // frames here to make the merge order observable on one wire.
        handle.deposit(0, f(500, 2, 0));
        handle.deposit(0, f(300, 1, 0));
        handle.deposit(0, f(300, 0, 0));
        handle.deposit(1, f(400, 0, 1));
        assert_eq!(handle.high_water(), 4);
        sim.run_for(Time::from_ns(600));
        assert_eq!(handle.delivered(), 4);
        // Binding 0's wire saw (300, node0), (300, node1), (500, node2).
        assert_eq!(
            w0.take_ready(Time::from_ns(600)).unwrap().data.bytes()[0],
            0
        );
        assert_eq!(
            w0.take_ready(Time::from_ns(600)).unwrap().data.bytes()[0],
            1
        );
        assert_eq!(
            w0.take_ready(Time::from_ns(600)).unwrap().data.bytes()[0],
            2
        );
        assert_eq!(
            w1.take_ready(Time::from_ns(600)).unwrap().ready_at,
            Time::from_ns(400)
        );
    }
}
