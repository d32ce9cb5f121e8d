//! The DMA engine: descriptor rings moving packets between host memory and
//! the card datapath.
//!
//! Modelled after the reference NIC's DMA core: a TX ring of host packets
//! awaiting injection into the datapath, and an RX ring of packets the
//! datapath delivered for the host. Each direction is paced by the PCIe
//! link's effective bandwidth with TLP overhead, independently (PCIe is
//! full-duplex). Ring capacity back-pressures each side: a full TX ring
//! rejects host sends; a full RX ring drops card-to-host packets and counts
//! them, as the real engine does when the driver is slow.

use crate::config::PcieConfig;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stats::Counter;
use netfpga_core::stream::{segment_buf, Burst, Meta, Reassembler, StreamRx, StreamTx};
use netfpga_core::telemetry::StatRegistry;
use netfpga_core::time::Time;
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

/// Why a host send was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The TX descriptor ring is full: the host is out-pacing the engine.
    /// Back off and retry once descriptors complete.
    RingFull,
    /// The TX ring is full *and* the engine is frozen by a fault-plane
    /// stall window or wedge — the backlog cannot drain until the fault
    /// lifts (or a watchdog soft reset clears it).
    Stalled,
    /// The descriptor describes nothing the card can send: an empty
    /// packet, or an egress port the board lacks. Retrying cannot help.
    BadDescriptor,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::RingFull => write!(f, "TX descriptor ring full"),
            SendError::Stalled => write!(f, "TX ring full and engine stalled"),
            SendError::BadDescriptor => write!(f, "TX descriptor describes no sendable packet"),
        }
    }
}

impl std::error::Error for SendError {}

/// Completion status of a sequenced TX descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    /// The packet was fully injected into the datapath.
    Delivered,
    /// The packet was discarded by a fault-plane drop window — an
    /// *observable* loss the host can react to immediately.
    Dropped,
}

/// One entry of the TX completion/ack ring: the engine's answer for a
/// descriptor posted with [`DmaHandle::send_sequenced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxCompletion {
    /// The host-assigned sequence number of the descriptor.
    pub seq: u64,
    /// What happened to it.
    pub status: TxStatus,
    /// When the completion was recorded.
    pub at: Time,
}

/// Completion-ring capacity as a multiple of the TX ring size. Generous:
/// the host would have to ignore completions for several full ring
/// generations before one is lost (lost completions are counted, and the
/// retry layer recovers by re-posting — the engine dedups).
const COMPLETION_RING_FACTOR: usize = 4;

/// DMA engine counters (exposed through the engine's register block in
/// real designs): shared cells the engine increments and the telemetry
/// plane reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DmaCounters {
    /// Packets injected into the datapath (host → card).
    pub tx_packets: Counter,
    /// Bytes injected.
    pub tx_bytes: Counter,
    /// Packets delivered to the host (card → host).
    pub rx_packets: Counter,
    /// Bytes delivered.
    pub rx_bytes: Counter,
    /// Card-to-host packets dropped on RX-ring overflow.
    pub rx_drops: Counter,
    /// Sequenced descriptors acknowledged as delivered.
    pub acked: Counter,
    /// Re-posted descriptors discarded because their sequence number had
    /// already been delivered (exactly-once enforcement).
    pub dup_discards: Counter,
    /// Completions discarded because the host let the ack ring fill up.
    pub completion_drops: Counter,
}

impl DmaCounters {
    /// Every counter with its path below the engine's prefix.
    fn cells(&self) -> [(&'static str, &Counter); 8] {
        [
            ("tx.packets", &self.tx_packets),
            ("tx.bytes", &self.tx_bytes),
            ("rx.packets", &self.rx_packets),
            ("rx.bytes", &self.rx_bytes),
            ("rx.drops", &self.rx_drops),
            ("acked", &self.acked),
            ("dup_discards", &self.dup_discards),
            ("completion_drops", &self.completion_drops),
        ]
    }

    /// Register every counter on `registry` under `prefix` (e.g. `dma`):
    /// `tx.packets`, `tx.bytes`, `rx.packets`, `rx.bytes`, `rx.drops`,
    /// `acked`, `dup_discards`, `completion_drops`.
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        for (name, cell) in self.cells() {
            registry.register_counter(&format!("{prefix}.{name}"), cell);
        }
    }

    /// Zero every counter (a hard reset).
    fn clear(&self) {
        for (_, cell) in self.cells() {
            cell.clear();
        }
    }
}

#[derive(Debug, Default)]
struct Rings {
    tx: VecDeque<(PktBuf, Meta, Option<u64>)>,
    rx: VecDeque<(PktBuf, Meta)>,
    counters: DmaCounters,
    /// Completion/ack ring for sequenced descriptors, oldest first.
    tx_completions: VecDeque<TxCompletion>,
    /// Sequence numbers already fully injected — the dedup set that makes
    /// retry re-posts idempotent. Pruned by `advance_ack_floor`.
    delivered: BTreeSet<u64>,
    /// Monotonic progress heartbeat for watchdog probes: bumps whenever
    /// the engine moves a descriptor or a word in either direction.
    work_done: u64,
    /// Mirror of the fault gate's stall state, refreshed every engine tick
    /// so `DmaHandle::is_stalled` (and `SendError::Stalled`) stay fresh
    /// whenever work is pending.
    stalled: bool,
    /// Whether a packet is partially injected (`inject` non-empty) — kept
    /// here so watchdog probes see mid-packet work the TX ring no longer
    /// shows.
    injecting: bool,
    /// Whether a card-to-host packet is off `from_card` but not yet in the RX
    /// ring (last beats on the bus, waiting for the link, or crossing it) —
    /// the `injecting` of the other direction, for the same watchdog probes.
    absorbing: bool,
    /// The engine's activity-cache flag: host sends arrive from outside
    /// the tick loop and must mark the cached classification dirty.
    wake: Option<WakeHandle>,
    /// Woken when a completion is recorded — the reliable channel's
    /// activity flag.
    completion_wake: Option<WakeHandle>,
}

impl Rings {
    fn push_completion(&mut self, seq: u64, status: TxStatus, at: Time, capacity: usize) {
        if self.tx_completions.len() >= capacity {
            self.counters.completion_drops.incr();
            return;
        }
        self.tx_completions
            .push_back(TxCompletion { seq, status, at });
        if let Some(w) = &self.completion_wake {
            w.wake();
        }
    }
}

#[derive(Debug, Default)]
struct DmaFaultInner {
    stall_until: Time,
    drop_until: Time,
    /// A wedge never expires on its own: only a soft reset (or a fault
    /// plane reset) clears it.
    wedged: bool,
}

/// DMA fault-gate counters: shared cells the engine increments and the
/// telemetry plane reads.
#[derive(Debug, Clone, Default)]
pub struct DmaFaultCounters {
    /// Ticks the engine spent frozen with work pending.
    pub stalled_ticks: Counter,
    /// Host-to-card packets discarded inside drop windows.
    pub tx_dropped: Counter,
    /// Card-to-host packets discarded inside drop windows.
    pub rx_dropped: Counter,
}

/// An externally driven fault gate for the DMA engine: the fault plane
/// opens stall windows (the engine freezes, as under PCIe retraining or a
/// wedged driver) and drop windows (packets crossing the engine are
/// discarded and counted). With no window open the gate is completely
/// inert — the engine behaves exactly as without one.
#[derive(Debug, Clone, Default)]
pub struct DmaFaultGate {
    inner: Rc<RefCell<DmaFaultInner>>,
    counters: DmaFaultCounters,
}

impl DmaFaultGate {
    /// A gate with no windows open.
    pub fn new() -> DmaFaultGate {
        DmaFaultGate::default()
    }

    /// Open (or extend) a stall window through `until`.
    pub fn stall_until(&self, until: Time) {
        let mut i = self.inner.borrow_mut();
        i.stall_until = i.stall_until.max(until);
    }

    /// Open (or extend) a drop window through `until`.
    pub fn drop_until(&self, until: Time) {
        let mut i = self.inner.borrow_mut();
        i.drop_until = i.drop_until.max(until);
    }

    /// Wedge the engine: a stall that never expires on its own. Models a
    /// hung DMA core (dead descriptor fetch, PCIe deadlock) that only a
    /// soft reset clears — the fault a hardware watchdog exists for.
    pub fn wedge(&self) {
        self.inner.borrow_mut().wedged = true;
    }

    /// Whether the gate is wedged.
    pub fn wedged(&self) -> bool {
        self.inner.borrow().wedged
    }

    /// Whether a stall window (or a wedge) is open at `now`.
    pub fn stalled_at(&self, now: Time) -> bool {
        let i = self.inner.borrow();
        i.wedged || now < i.stall_until
    }

    /// Whether a drop window is open at `now`.
    pub fn dropping_at(&self, now: Time) -> bool {
        now < self.inner.borrow().drop_until
    }

    /// The gate's counters.
    pub fn counters(&self) -> &DmaFaultCounters {
        &self.counters
    }

    /// Packets discarded inside drop windows (both directions).
    pub fn dropped(&self) -> u64 {
        self.counters.tx_dropped.get() + self.counters.rx_dropped.get()
    }

    /// Clear windows and counters (fault-plane reset).
    pub fn clear(&self) {
        *self.inner.borrow_mut() = DmaFaultInner::default();
        self.counters.stalled_ticks.clear();
        self.counters.tx_dropped.clear();
        self.counters.rx_dropped.clear();
    }

    /// Clear the wedge and any open stall/drop windows while *keeping* the
    /// counters — what a soft reset does: the engine un-wedges, but the
    /// damage stays visible in telemetry.
    pub fn clear_windows(&self) {
        let mut i = self.inner.borrow_mut();
        i.wedged = false;
        i.stall_until = Time::ZERO;
        i.drop_until = Time::ZERO;
    }

    /// Register the gate's counters on `registry` under `prefix` (e.g.
    /// `dma.fault`): `stalled_ticks`, `tx_dropped`, `rx_dropped`, and
    /// their directional sum `dropped` as a gauge.
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        let c = &self.counters;
        registry.register_counter(&format!("{prefix}.stalled_ticks"), &c.stalled_ticks);
        registry.register_counter(&format!("{prefix}.tx_dropped"), &c.tx_dropped);
        registry.register_counter(&format!("{prefix}.rx_dropped"), &c.rx_dropped);
        let gate = self.clone();
        registry.gauge(&format!("{prefix}.dropped"), move || gate.dropped());
    }
}

/// Host-side handle to the DMA rings.
#[derive(Debug, Clone)]
pub struct DmaHandle {
    rings: Rc<RefCell<Rings>>,
    tx_capacity: usize,
}

impl DmaHandle {
    /// Queue a packet for injection, with the CPU port recorded as its
    /// source.
    ///
    /// # Errors
    /// [`SendError::RingFull`] when the TX ring is full;
    /// [`SendError::Stalled`] when it is full *and* the engine is frozen
    /// by a fault-plane stall or wedge.
    pub fn send(&self, packet: impl Into<PktBuf>, src_port: u8) -> Result<(), SendError> {
        let packet = packet.into();
        let meta = Meta {
            len: packet.len() as u16,
            src_port,
            ..Meta::default()
        };
        self.send_with_meta(packet, meta)
    }

    /// Queue a packet with explicit metadata (tests use this to pre-fill
    /// destination masks, bypassing lookup stages).
    ///
    /// # Errors
    /// See [`DmaHandle::send`].
    pub fn send_with_meta(&self, packet: impl Into<PktBuf>, meta: Meta) -> Result<(), SendError> {
        self.post(packet.into(), meta, None)
    }

    /// Queue a packet stamped with a host-assigned sequence number. The
    /// engine answers through the completion ring
    /// ([`DmaHandle::pop_completion`]): `Delivered` once the packet is
    /// fully injected into the datapath, `Dropped` if a fault window
    /// discarded it. Re-posting an already-delivered sequence number is
    /// discarded by the engine (counted in `dup_discards`), which is what
    /// makes retry-on-timeout exactly-once.
    ///
    /// # Errors
    /// See [`DmaHandle::send`].
    pub fn send_sequenced(
        &self,
        packet: impl Into<PktBuf>,
        meta: Meta,
        seq: u64,
    ) -> Result<(), SendError> {
        self.post(packet.into(), meta, Some(seq))
    }

    fn post(&self, packet: PktBuf, mut meta: Meta, seq: Option<u64>) -> Result<(), SendError> {
        if packet.is_empty() {
            return Err(SendError::BadDescriptor);
        }
        let mut r = self.rings.borrow_mut();
        if r.tx.len() >= self.tx_capacity {
            return Err(if r.stalled {
                SendError::Stalled
            } else {
                SendError::RingFull
            });
        }
        meta.len = packet.len() as u16;
        r.tx.push_back((packet, meta, seq));
        if let Some(w) = &r.wake {
            w.wake();
        }
        Ok(())
    }

    /// Take the oldest TX completion, if any.
    pub fn pop_completion(&self) -> Option<TxCompletion> {
        self.rings.borrow_mut().tx_completions.pop_front()
    }

    /// Completions waiting in the ack ring.
    pub fn completions_pending(&self) -> usize {
        self.rings.borrow().tx_completions.len()
    }

    /// Prune the engine's dedup set: the host promises never to (re-)post
    /// a sequence number below `floor` again, so delivered entries below
    /// it can be forgotten. The reliable channel calls this with the base
    /// of its in-flight window, keeping the set bounded by the window.
    pub fn advance_ack_floor(&self, floor: u64) {
        let mut r = self.rings.borrow_mut();
        r.delivered = r.delivered.split_off(&floor);
    }

    /// Whether the engine was frozen by a fault-plane stall or wedge at
    /// its last tick.
    pub fn is_stalled(&self) -> bool {
        self.rings.borrow().stalled
    }

    /// Monotonic progress heartbeat: bumps whenever the engine moves a
    /// descriptor or word in either direction. A watchdog pairs this with
    /// [`DmaHandle::has_work`] to detect a wedge.
    pub fn progress(&self) -> u64 {
        self.rings.borrow().work_done
    }

    /// Whether the engine holds work (TX descriptors queued, a packet
    /// partially injected, or a card-to-host packet not yet in the RX ring).
    pub fn has_work(&self) -> bool {
        let r = self.rings.borrow();
        !r.tx.is_empty() || r.injecting || r.absorbing
    }

    /// Register the reliable channel's activity flag: woken whenever the
    /// engine records a TX completion.
    pub fn set_completion_wake(&self, wake: WakeHandle) {
        self.rings.borrow_mut().completion_wake = Some(wake);
    }

    /// Take the oldest received packet, if any.
    pub fn recv(&self) -> Option<(PktBuf, Meta)> {
        self.rings.borrow_mut().rx.pop_front()
    }

    /// Packets waiting in the RX ring.
    pub fn rx_pending(&self) -> usize {
        self.rings.borrow().rx.len()
    }

    /// Packets waiting in the TX ring.
    pub fn tx_pending(&self) -> usize {
        self.rings.borrow().tx.len()
    }

    /// The engine's counters.
    pub fn counters(&self) -> DmaCounters {
        self.rings.borrow().counters.clone()
    }

    /// Register the engine's counters on `registry` under `prefix` (e.g.
    /// `dma`; see [`DmaCounters::register_stats`]), and the live ring
    /// depths `tx.pending` and `rx.pending` as gauges.
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        self.counters().register_stats(registry, prefix);
        let handle = self.clone();
        registry.gauge(&format!("{prefix}.tx.pending"), move || {
            handle.tx_pending() as u64
        });
        let handle = self.clone();
        registry.gauge(&format!("{prefix}.rx.pending"), move || {
            handle.rx_pending() as u64
        });
    }
}

/// The card-side DMA engine module.
///
/// # Burst mode: charged, not ticked
///
/// As built the engine moves one bus beat per core cycle in each direction.
/// [`DmaEngine::with_burst`] lets it move whole bursts per tick while still
/// *charging* the card-side bus one cycle per beat in simulated time: the
/// engine stops executing those cycles, it does not stop counting them.
///
/// * **Host → card.** A descriptor fetched at `t0` with `n` beats is held
///   and enters `to_card` as one burst at `t0 + (n − 1)·period`, the instant
///   its last beat enters in word mode. The ack ([`TxCompletion::at`]), the
///   next fetch (`max(h2c_free_at, t0 + n·period)`) and what a
///   store-and-forward consumer sees are therefore unchanged. If `to_card`
///   cannot take all of it then, what fits goes and the rest follows as pops
///   free space; the ack goes with the last beat.
/// * **Card → host, two stages.** Stage 1 (`absorbed`) takes the head burst
///   (`k` beats, never past the end of a packet) off the bus in one tick;
///   the bus is busy until `c2h_free_at = now + k·period` and a packet is
///   complete at its last beat, `now + (k − 1)·period`. Stage 2 (`crossing`)
///   is the PCIe link: a complete packet enters it once it is free — that
///   instant decides drop window, `rx_drops` (no free RX slot) or crossing,
///   and a dropped packet occupies neither link nor ring — and is in the RX
///   ring `transfer_time(len)` later. Stage 1 absorbs the next packet
///   meanwhile, so a frame costs `max(bus, link)`, not their sum.
/// * A stall window freezes the charge along with the engine: every stalled
///   edge moves a held burst's crossing, a pending completion and a link
///   crossing one period later.
///
/// **What is exact.** Against the word engine in the fast-path reference
/// NIC (400 000 cycles of seeded 60–1514 B frames: two or four ports at
/// line rate towards the host, a host frame every microsecond): every ack
/// instant and every wire-egress instant is identical, and so is every
/// RX-ring delivery, in instant and order, while the card-to-host chain is
/// not back-pressured. **What is not.** Once that chain back-pressures, FIFO
/// space comes back a burst at a time instead of a beat per cycle, so the
/// input arbiter's grants may interleave the ports differently: packets,
/// per-port order, counters, drops and aggregate rate stay identical, the
/// cross-port order of ring deliveries is not promised. That takes a link
/// slower than the bus or a stalled engine: 4 × 10G on SUME's Gen3 x8 no
/// longer back-pressures (the four-port run above is exact too). Likewise a
/// stall window opening while a *partial* burst is being charged does not
/// extend that charge. Both are inside the chassis' fast-path contract
/// (delivered packets, ports and counters identical; cycle-level pacing
/// inside the pipeline collapsed).
pub struct DmaEngine {
    name: String,
    config: PcieConfig,
    rings: Rc<RefCell<Rings>>,
    rx_capacity: usize,
    /// Datapath-facing ports.
    to_card: StreamTx,
    from_card: StreamRx,
    /// Move whole bursts per tick (see the type docs); off: one beat.
    burst: bool,
    /// The beats of the packet being injected that are still to go.
    inject: Option<Burst>,
    /// While `Some`, the bus is still carrying `inject`: nothing enters
    /// `to_card` before this instant. `None` once the crossing has begun —
    /// what is left of the burst then waits on space, not on time.
    inject_at: Option<Time>,
    /// Sequence number of the packet currently being injected; acked only
    /// once its last word enters the datapath (a soft reset mid-injection
    /// therefore leaves it unacked, and the retry layer re-posts it).
    inject_seq: Option<u64>,
    /// Completion-ring capacity.
    completion_capacity: usize,
    /// Pacing, per direction: no descriptor fetch before `h2c_free_at` (the
    /// PCIe link's occupancy), no pop before `c2h_free_at` (the popped
    /// beats' time on the card-side bus).
    h2c_free_at: Time,
    c2h_free_at: Time,
    reasm: Reassembler,
    /// Stage 1: a packet popped off `from_card` whose last beat is on the
    /// bus until the instant given; it stays here until the link is free.
    absorbed: Option<(Time, PktBuf, Meta)>,
    /// Stage 2: the packet on the PCIe link, in the RX ring at the instant
    /// given. Its slot was free at link entry and `recv` only frees more.
    crossing: Option<(Time, PktBuf, Meta)>,
    fault: Option<DmaFaultGate>,
    /// Activity-cache invalidation flag, woken by host sends, card words
    /// arriving on `from_card`, and pops freeing space on `to_card`.
    wake: WakeHandle,
}

impl DmaEngine {
    /// Create an engine: `to_card` feeds the datapath, `from_card` drains
    /// it. `tx_capacity`/`rx_capacity` are the ring sizes in packets.
    pub fn new(
        name: &str,
        config: PcieConfig,
        to_card: StreamTx,
        from_card: StreamRx,
        tx_capacity: usize,
        rx_capacity: usize,
    ) -> (DmaEngine, DmaHandle) {
        assert!(tx_capacity > 0 && rx_capacity > 0);
        let rings = Rc::new(RefCell::new(Rings::default()));
        let wake = WakeHandle::new();
        rings.borrow_mut().wake = Some(wake.clone());
        from_card.set_wake(wake.clone());
        to_card.set_wake(wake.clone());
        (
            DmaEngine {
                name: name.to_string(),
                config,
                rings: rings.clone(),
                rx_capacity,
                to_card,
                from_card,
                burst: false,
                inject: None,
                inject_at: None,
                inject_seq: None,
                completion_capacity: COMPLETION_RING_FACTOR * tx_capacity,
                h2c_free_at: Time::ZERO,
                c2h_free_at: Time::ZERO,
                reasm: Reassembler::new(),
                absorbed: None,
                crossing: None,
                fault: None,
                wake,
            },
            DmaHandle { rings, tx_capacity },
        )
    }

    /// Enable burst mode: whole bursts per tick, the bus still charged a
    /// cycle per beat (see the type docs). Off, the engine is the word
    /// engine, bit for bit.
    pub fn with_burst(mut self, enabled: bool) -> DmaEngine {
        self.burst = enabled;
        self
    }

    /// Attach a fault gate the fault plane drives. With no gate (or a gate
    /// whose windows never open) the engine's behaviour is unchanged.
    pub fn with_fault_gate(mut self, gate: DmaFaultGate) -> DmaEngine {
        self.fault = Some(gate);
        self
    }

    /// A `(progress, work-pending)` closure pair for a watchdog probe:
    /// `progress` is the engine's monotonic heartbeat, `pending` covers
    /// queued TX descriptors, a partially injected packet, undrained
    /// card-to-host words and a packet absorbed but not yet in the RX ring.
    /// Capture this before registering the engine on the simulator.
    pub fn progress_probe(&self) -> impl Fn() -> (u64, bool) + 'static {
        let rings = self.rings.clone();
        let from_card = self.from_card.clone();
        move || {
            let r = rings.borrow();
            (
                r.work_done,
                !r.tx.is_empty() || r.injecting || r.absorbing || from_card.can_pop(),
            )
        }
    }

    /// A complete card-to-host packet meets a free link at `now`: drop it
    /// (fault window, no free RX slot) or start its crossing.
    fn enter_link(&mut self, packet: PktBuf, meta: Meta, now: Time, dropping: bool) {
        if dropping {
            self.fault
                .as_ref()
                .expect("gate present")
                .counters
                .rx_dropped
                .incr();
        } else if self.rings.borrow().rx.len() >= self.rx_capacity {
            self.rings.borrow().counters.rx_drops.incr();
        } else {
            let over = now + self.config.transfer_time(packet.len());
            self.crossing = Some((over, packet, meta));
        }
    }

    /// Record a delivered sequenced packet: ack ring entry + dedup set.
    fn ack_delivered(rings: &Rc<RefCell<Rings>>, seq: u64, at: Time, capacity: usize) {
        let mut r = rings.borrow_mut();
        r.delivered.insert(seq);
        r.counters.acked.incr();
        r.push_completion(seq, TxStatus::Delivered, at, capacity);
    }
}

impl Module for DmaEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        let max = if self.burst { usize::MAX } else { 1 };
        let beats = |n: usize| Time::from_ps(n as u64 * ctx.period.as_ps());
        // Fault gate: inside a stall window (or wedge) the engine freezes
        // entirely (descriptor fetch, injection and absorption all stop);
        // inside a drop window packets crossing the engine are discarded.
        let mut dropping = false;
        if let Some(gate) = &self.fault {
            if gate.stalled_at(ctx.now) {
                let has_work = self.inject.is_some()
                    || self.absorbed.is_some()
                    || self.crossing.is_some()
                    || self.from_card.can_pop()
                    || !self.rings.borrow().tx.is_empty();
                self.rings.borrow_mut().stalled = true;
                if has_work {
                    gate.counters.stalled_ticks.incr();
                }
                // The bus is frozen too: beat time still owed moves with
                // the stall.
                if let Some(at) = &mut self.inject_at {
                    *at += ctx.period;
                }
                for (at, ..) in self.absorbed.iter_mut().chain(&mut self.crossing) {
                    *at += ctx.period;
                }
                return;
            }
            self.rings.borrow_mut().stalled = false;
            dropping = gate.dropping_at(ctx.now);
        }
        // Host → card: fetch the next TX descriptor once the link is free,
        // then stream it into the datapath, `max` beats per cycle.
        if self.inject.is_none() && self.h2c_free_at <= ctx.now {
            let popped = self.rings.borrow_mut().tx.pop_front();
            if let Some((packet, mut meta, seq)) = popped {
                let dup = match seq {
                    Some(s) => self.rings.borrow().delivered.contains(&s),
                    None => false,
                };
                let mut r = self.rings.borrow_mut();
                r.work_done += 1;
                if dup {
                    // A retry re-post of an already-delivered sequence
                    // number: discard, keeping delivery exactly-once.
                    r.counters.dup_discards.incr();
                } else if dropping {
                    let cap = self.completion_capacity;
                    if let Some(s) = seq {
                        r.push_completion(s, TxStatus::Dropped, ctx.now, cap);
                    }
                    drop(r);
                    self.fault
                        .as_ref()
                        .expect("gate present")
                        .counters
                        .tx_dropped
                        .incr();
                } else {
                    self.h2c_free_at = ctx.now + self.config.transfer_time(packet.len());
                    meta.ingress_time = ctx.now;
                    r.counters.tx_packets.incr();
                    r.counters.tx_bytes.add(packet.len() as u64);
                    r.injecting = true;
                    drop(r);
                    let burst = segment_buf(&packet, self.to_card.width(), meta);
                    // Beats that cross together cross when the last of them
                    // would have: the bus is charged, not ticked.
                    let ahead = burst.beats().min(max) - 1;
                    self.inject_at = (ahead > 0).then(|| ctx.now + beats(ahead));
                    self.inject = Some(burst);
                    self.inject_seq = seq;
                }
            }
        }
        self.inject_at = self.inject_at.filter(|&at| at > ctx.now);
        if self.inject_at.is_none() {
            let pushed = self.to_card.push_burst(&mut self.inject, max);
            if pushed > 0 {
                let mut r = self.rings.borrow_mut();
                r.work_done += pushed as u64;
                if self.inject.is_none() {
                    // Last word entered the datapath: the packet is
                    // delivered from the host's point of view — ack it.
                    r.injecting = false;
                    drop(r);
                    if let Some(s) = self.inject_seq.take() {
                        Self::ack_delivered(&self.rings, s, ctx.now, self.completion_capacity);
                    }
                }
            }
        }

        // Card → host. The link: a packet whose crossing is over is in the
        // RX ring.
        if let Some((_, packet, meta)) = self.crossing.take_if(|(at, ..)| *at <= ctx.now) {
            let mut r = self.rings.borrow_mut();
            r.counters.rx_packets.incr();
            r.counters.rx_bytes.add(packet.len() as u64);
            r.rx.push_back((packet, meta));
        }
        // The bus: absorb `max` beats per cycle; a packet is complete when
        // its last beat is across (a lone beat, in the cycle it is popped).
        if self.absorbed.is_none() && self.c2h_free_at <= ctx.now {
            if let Some(burst) = self.from_card.pop_burst(max) {
                let k = burst.beats();
                self.rings.borrow_mut().work_done += k as u64;
                self.c2h_free_at = ctx.now + beats(k);
                if let Some((packet, meta)) = self.reasm.push_burst(burst) {
                    self.absorbed = Some((ctx.now + beats(k - 1), packet, meta));
                }
            }
        }
        // From one to the other: complete, and the link free.
        if self.crossing.is_none() {
            if let Some((_, packet, meta)) = self.absorbed.take_if(|(at, ..)| *at <= ctx.now) {
                self.enter_link(packet, meta, ctx.now, dropping);
            }
        }
        self.rings.borrow_mut().absorbing = self.absorbed.is_some() || self.crossing.is_some();
    }

    fn reset(&mut self) {
        self.inject = None;
        self.inject_at = None;
        self.inject_seq = None;
        self.reasm = Reassembler::new();
        self.absorbed = None;
        self.crossing = None;
        self.h2c_free_at = Time::ZERO;
        self.c2h_free_at = Time::ZERO;
        let mut r = self.rings.borrow_mut();
        r.tx.clear();
        r.rx.clear();
        r.counters.clear();
        r.tx_completions.clear();
        r.delivered.clear();
        r.work_done = 0;
        r.stalled = false;
        r.injecting = false;
        r.absorbing = false;
    }

    /// Watchdog-driven recovery: flush in-flight injection and reassembly
    /// state, restart the pacing marks and clear any fault-gate wedge —
    /// while keeping delivered packets, statistics, the completion ring
    /// and the dedup set. A packet caught mid-injection (held on the bus
    /// included) is *not* acked (its orphan words are discarded by
    /// downstream resync), so the retry layer re-posts it; pending TX
    /// descriptors are flushed the same way — unacked, and therefore
    /// re-posted — mirroring how a real soft reset invalidates the engine's
    /// descriptor fetch state. A packet caught mid-absorption counts one
    /// `rx_drops`, and so does one caught crossing the link.
    fn soft_reset(&mut self) {
        self.inject = None;
        self.inject_at = None;
        self.inject_seq = None;
        let absorbing = self.reasm.resync() || self.absorbed.take().is_some();
        let crossing = self.crossing.take().is_some();
        self.rings
            .borrow()
            .counters
            .rx_drops
            .add(u64::from(absorbing) + u64::from(crossing));
        self.h2c_free_at = Time::ZERO;
        self.c2h_free_at = Time::ZERO;
        let mut r = self.rings.borrow_mut();
        r.tx.clear();
        r.stalled = false;
        r.injecting = false;
        r.absorbing = false;
        drop(r);
        if let Some(gate) = &self.fault {
            gate.clear_windows();
        }
    }

    /// Idle when both directions have nothing queued: no TX descriptors,
    /// no partially injected packet, no card words to absorb and no packet
    /// in either card-to-host stage. The `free_at` pacing marks are
    /// irrelevant then — with empty queues a tick is a no-op at any future
    /// instant too. Otherwise pacing is a time bound: descriptor fetch
    /// waits for `h2c_free_at`, a held burst for its crossing instant,
    /// card-to-host absorption for `c2h_free_at`, an absorbed packet for
    /// its completion instant (or, the link busy, for the end of that
    /// crossing), a packet on the link for its delivery instant, and
    /// nothing else can happen before the earliest of the pending ones. A
    /// host-to-card packet whose crossing has begun
    /// moves a word whenever `to_card` has room, and is stalled — lifted by
    /// a pop, not by time — when it has none.
    ///
    /// With a fault gate attached nothing is bounded and that stall stays
    /// active, because stall windows are time-dependent and
    /// `stalled_ticks` counts per executed tick.
    fn activity(&self) -> Activity {
        let h2c = if self.inject.is_none() {
            if self.rings.borrow().tx.is_empty() {
                Activity::Quiescent
            } else {
                Activity::Bounded(self.h2c_free_at)
            }
        } else if let Some(at) = self.inject_at {
            Activity::Bounded(at)
        } else {
            Activity::idle_if(self.fault.is_none() && !self.to_card.can_push())
        };
        let link = self.crossing.as_ref().map(|(over, ..)| *over);
        let bus = match &self.absorbed {
            // Complete but the link busy: the crossing's end is its bound.
            Some((at, ..)) => link.is_none().then_some(*at),
            None => self.from_card.can_pop().then_some(self.c2h_free_at),
        };
        let c2h =
            (link.into_iter().chain(bus).min()).map_or(Activity::Quiescent, Activity::Bounded);
        match h2c.join(c2h) {
            Activity::Bounded(_) if self.fault.is_some() => Activity::Active,
            both => both,
        }
    }

    /// External activity channels: host sends into the TX ring, card words
    /// pushed onto `from_card`, pops from `to_card`. Host `recv` only
    /// drains the RX ring, which the classification ignores; fault-gate
    /// windows matter only while work is pending, when a gated engine is
    /// active anyway.
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

    fn setup(
        tx_cap: usize,
        rx_cap: usize,
    ) -> (
        Simulator,
        DmaHandle,
        netfpga_core::packetio::InjectQueue,
        netfpga_core::packetio::CaptureBuffer,
    ) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        // DMA -> sink (packets the "datapath" receives from the host)
        let (h2c_tx, h2c_rx) = Stream::new(8, 32);
        // source -> DMA (packets the "datapath" sends to the host)
        let (c2h_tx, c2h_rx) = Stream::new(8, 32);
        let (engine, handle) =
            DmaEngine::new("dma", PcieConfig::gen3_x8(), h2c_tx, c2h_rx, tx_cap, rx_cap);
        let (sink, captured) = PacketSink::new("to_card_sink", h2c_rx);
        let (source, inject) = PacketSource::new("from_card_src", c2h_tx);
        sim.add_module(clk, engine);
        sim.add_module(clk, sink);
        sim.add_module(clk, source);
        (sim, handle, inject, captured)
    }

    #[test]
    fn host_to_card_roundtrip() {
        let (mut sim, handle, _inject, captured) = setup(8, 8);
        let pkt = vec![0x42u8; 200];
        assert!(handle.send(pkt.clone(), 1).is_ok());
        sim.run_until(Time::from_us(5));
        assert_eq!(captured.total_packets(), 1);
        let got = captured.pop().unwrap();
        assert_eq!(got.data, pkt);
        assert_eq!(got.meta.src_port, 1);
        assert_eq!(handle.counters().tx_packets.get(), 1);
        assert_eq!(handle.counters().tx_bytes.get(), 200);
    }

    #[test]
    fn card_to_host_roundtrip() {
        let (mut sim, handle, inject, _captured) = setup(8, 8);
        inject.push(vec![7u8; 500], 2);
        sim.run_until(Time::from_us(5));
        let (pkt, meta) = handle.recv().expect("packet delivered");
        assert_eq!(pkt, vec![7u8; 500]);
        assert_eq!(meta.src_port, 2);
        assert_eq!(handle.counters().rx_packets.get(), 1);
        assert!(handle.recv().is_none());
    }

    #[test]
    fn tx_ring_capacity() {
        let (_sim, handle, _inject, _captured) = setup(2, 8);
        assert!(handle.send(vec![0; 64], 0).is_ok());
        assert!(handle.send(vec![0; 64], 0).is_ok());
        assert_eq!(handle.send(vec![0; 64], 0), Err(SendError::RingFull));
        assert_eq!(handle.tx_pending(), 2);
    }

    #[test]
    fn rx_ring_overflow_drops() {
        let (mut sim, handle, inject, _captured) = setup(8, 2);
        for _ in 0..5 {
            inject.push(vec![1u8; 64], 0);
        }
        sim.run_until(Time::from_us(10));
        assert_eq!(handle.rx_pending(), 2);
        let s = handle.counters();
        assert_eq!(s.rx_packets.get(), 2);
        assert_eq!(s.rx_drops.get(), 3);
    }

    /// A frame dropped for want of an RX slot never enters the link, so it
    /// costs its beats on the bus and nothing else: with the ring full and
    /// the card side saturating, `rx_drops` advances once per 16 beats
    /// (80 ns at 508 B; the serial engine charged each drop the 70.6 ns
    /// crossing it never made), and a slot freed by the host is filled one
    /// absorb and one crossing later.
    #[test]
    fn overflow_drops_cost_bus_time_not_link_time() {
        for burst in [false, true] {
            let mut rig = Rig::new(PcieConfig::gen3_x8(), 64, 1, burst, false);
            rig.offer(&[508; 6]);
            let mut dropped_at = Vec::new();
            for cycle in 1..=100 {
                rig.run(1);
                if rig.handle.counters().rx_drops.get() > dropped_at.len() as u64 {
                    dropped_at.push(rig.sim.now().as_ns());
                }
                if cycle == 66 {
                    // 330 ns: the fifth frame is on the bus until 400 ns.
                    assert!(rig.handle.recv().is_some());
                }
            }
            assert_eq!(dropped_at, [160, 240, 320, 480], "burst {burst}");
            assert_eq!(ns(&rig.ring), [155, 400 + 75], "burst {burst}");
        }
    }

    #[test]
    fn pcie_paces_injection() {
        // Two large packets: the second must start at least transfer_time
        // after the first.
        let (mut sim, handle, _inject, captured) = setup(8, 8);
        let len = 4096;
        handle.send(vec![0u8; len], 0).unwrap();
        handle.send(vec![1u8; len], 0).unwrap();
        sim.run_until(Time::from_us(50));
        assert_eq!(captured.total_packets(), 2);
        let a = captured.pop().unwrap();
        let b = captured.pop().unwrap();
        let gap = b.meta.ingress_time - a.meta.ingress_time;
        let min = PcieConfig::gen3_x8().transfer_time(len);
        assert!(gap >= min, "gap {gap} < {min}");
    }

    #[test]
    fn empty_send_rejected() {
        let (_sim, handle, _i, _c) = setup(2, 2);
        assert_eq!(handle.send(Vec::new(), 0), Err(SendError::BadDescriptor));
        assert_eq!(handle.tx_pending(), 0);
    }

    /// Stall rule (no fault gate): a partially injected packet facing a
    /// full `to_card` makes the engine quiescent — heartbeat and counters
    /// frozen — until the datapath pops a word. In burst mode the packet
    /// reaches `to_card` nine periods later, all that fits at once.
    #[test]
    fn blocked_injection_is_quiescent_until_a_pop() {
        for burst in [false, true] {
            let mut sim = Simulator::new();
            let clk = sim.add_clock("core", Frequency::mhz(200));
            let (h2c_tx, h2c_rx) = Stream::new(8, 32);
            let (_c2h_tx, c2h_rx) = Stream::new(8, 32);
            let (engine, handle) =
                DmaEngine::new("dma", PcieConfig::gen3_x8(), h2c_tx, c2h_rx, 8, 8);
            sim.add_module(clk, engine.with_burst(burst));
            let ticks = |sim: &Simulator| sim.module_ticks()[0].1;
            handle.send(vec![4u8; 320], 0).unwrap(); // 10 words into 8 slots
            sim.run_cycles(clk, 20);
            assert_eq!(h2c_rx.occupancy(), 8);
            assert!(handle.has_work(), "two words still to inject");
            assert!(sim.all_quiescent(), "stalled on `to_card`");
            let (stalled_at, progress) = (ticks(&sim), handle.progress());
            assert_eq!(stalled_at, if burst { 2 } else { 8 });
            sim.run_cycles(clk, 1000);
            assert_eq!(ticks(&sim), stalled_at, "no tick while stalled");
            assert_eq!(handle.progress(), progress);

            h2c_rx.pop().expect("head word");
            sim.run_cycles(clk, 1);
            assert_eq!(ticks(&sim), stalled_at + 1, "one pop, one tick");
            assert_eq!(handle.progress(), progress + 1);
            assert_eq!(h2c_rx.occupancy(), 8, "the freed slot was refilled");
            assert!(sim.all_quiescent());
        }
    }

    /// PCIe pacing is a time bound in both directions: between a packet
    /// and `free_at` the engine executes no tick, yet every fetch and
    /// delivery happens at the instant the every-edge reference produces.
    #[test]
    fn pcie_pacing_is_a_time_bound() {
        use netfpga_core::sim::SchedulerMode;
        use netfpga_core::stream::segment;
        let run = |reference: bool, burst: bool| {
            let mut sim = Simulator::new();
            if reference {
                sim.set_scheduler_mode(SchedulerMode::Scan);
                sim.set_idle_skip(false);
            }
            let clk = sim.add_clock("core", Frequency::mhz(200));
            let (h2c_tx, h2c_rx) = Stream::new(64, 32);
            let (c2h_tx, c2h_rx) = Stream::new(64, 32);
            // 16 Gb/s link, 51.2 Gb/s datapath: ~450 ns of pacing gap after
            // each 1024-byte packet in either direction.
            let (engine, handle) =
                DmaEngine::new("dma", PcieConfig::gen1_x8(), h2c_tx, c2h_rx, 8, 8);
            sim.add_module(clk, engine.with_burst(burst));
            for i in 0..2u8 {
                handle.send(vec![i; 1024], 0).unwrap();
                let mut frame = Some(segment(&[i; 1024], 32, Meta::default()));
                c2h_tx.push_burst(&mut frame, usize::MAX);
            }
            sim.run_until(Time::from_us(3));
            let mut fetched = Vec::new();
            while let Some(w) = h2c_rx.pop() {
                fetched.extend(w.meta.map(|m| m.ingress_time));
            }
            let ticks = sim.module_ticks()[0].1;
            let state = (
                fetched,
                handle.counters(),
                handle.progress(),
                handle.rx_pending(),
                sim.now(),
                sim.cycles(clk),
            );
            (state, ticks)
        };
        let (reference, reference_ticks) = run(true, false);
        let (fast, fast_ticks) = run(false, false);
        assert_eq!(fast, reference, "pacing bounds must not move any instant");
        let gap = PcieConfig::gen1_x8().transfer_time(1024);
        assert!(fast.0[1] - fast.0[0] >= gap, "h2c paced: {:?}", fast.0);
        assert_eq!((fast.1.tx_packets.get(), fast.1.rx_packets.get()), (2, 2));
        assert!(
            fast_ticks < reference_ticks / 2,
            "pacing gaps must be skipped: {fast_ticks} of {reference_ticks} ticks"
        );
        // Burst mode: the every-edge reference again agrees with the fast
        // kernel, and both with word mode — in far fewer ticks.
        let (burst_reference, _) = run(true, true);
        let (burst, burst_ticks) = run(false, true);
        assert_eq!(
            burst, burst_reference,
            "beat-time bounds must not move any instant"
        );
        assert_eq!(
            burst, fast,
            "burst mode keeps word mode's instants and counters"
        );
        assert!(
            burst_ticks <= 10,
            "two packets each way: {burst_ticks} ticks"
        );
    }

    /// With a fault gate attached the engine keeps today's answers: a
    /// blocked injection stays active (stall windows are time-dependent
    /// and `stalled_ticks` counts executed ticks).
    #[test]
    fn gated_engine_stays_active_while_blocked() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (h2c_tx, h2c_rx) = Stream::new(8, 32);
        let (_c2h_tx, c2h_rx) = Stream::new(8, 32);
        let (engine, handle) = DmaEngine::new("dma", PcieConfig::gen3_x8(), h2c_tx, c2h_rx, 8, 8);
        sim.add_module(clk, engine.with_fault_gate(DmaFaultGate::new()));
        handle.send(vec![4u8; 320], 0).unwrap();
        sim.run_cycles(clk, 20);
        assert_eq!(h2c_rx.occupancy(), 8);
        assert!(!sim.all_quiescent());
        let before = sim.module_ticks()[0].1;
        sim.run_cycles(clk, 100);
        assert_eq!(
            sim.module_ticks()[0].1,
            before + 100,
            "ticked on every edge"
        );
        // The same with nothing but a frame on the link (240–450.5 ns).
        let mut rig = Rig::new(PcieConfig::gen3_x8(), 64, 64, true, true);
        rig.offer(&[1514]);
        rig.run(50);
        assert_eq!(rig.ticks(), 50);
        rig.run(40);
        assert_eq!((rig.ticks(), rig.ring.len()), (90, 0), "crossing");
        rig.run(20);
        assert_eq!((rig.ticks(), rig.ring.len()), (91, 1), "idle once in");
    }

    fn setup_with_gate() -> (
        Simulator,
        DmaHandle,
        netfpga_core::packetio::InjectQueue,
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
        let (sink, captured) = PacketSink::new("to_card_sink", h2c_rx);
        let (source, inject) = PacketSource::new("from_card_src", c2h_tx);
        sim.add_module(clk, engine);
        sim.add_module(clk, sink);
        sim.add_module(clk, source);
        (sim, handle, inject, captured, gate)
    }

    /// A stall window freezes the engine with work pending; once it closes
    /// the queued packet crosses normally.
    #[test]
    fn stall_window_defers_injection() {
        let (mut sim, handle, _inject, captured, gate) = setup_with_gate();
        gate.stall_until(Time::from_us(3));
        assert!(handle.send(vec![9u8; 128], 0).is_ok());
        sim.run_until(Time::from_us(2));
        assert_eq!(captured.total_packets(), 0, "frozen inside the window");
        assert!(gate.counters().stalled_ticks.get() > 0);
        sim.run_until(Time::from_us(6));
        assert_eq!(captured.total_packets(), 1, "delivered after the window");
    }

    /// A drop window discards packets in both directions and counts them.
    #[test]
    fn drop_window_discards_and_counts() {
        let (mut sim, handle, inject, captured, gate) = setup_with_gate();
        gate.drop_until(Time::from_us(5));
        assert!(handle.send(vec![1u8; 64], 0).is_ok()); // h2c: dropped
        inject.push(vec![2u8; 64], 1); // c2h: dropped
        sim.run_until(Time::from_us(4));
        assert_eq!(captured.total_packets(), 0);
        assert!(handle.recv().is_none());
        assert_eq!(gate.dropped(), 2);
        assert_eq!(gate.counters().tx_dropped.get(), 1);
        assert_eq!(gate.counters().rx_dropped.get(), 1);
        // After the window, traffic flows again.
        sim.run_until(Time::from_us(6));
        assert!(handle.send(vec![3u8; 64], 0).is_ok());
        inject.push(vec![4u8; 64], 1);
        sim.run_until(Time::from_us(10));
        assert_eq!(captured.total_packets(), 1);
        assert!(handle.recv().is_some());
        assert_eq!(gate.dropped(), 2, "no drops outside the window");
    }

    /// An attached but never-opened gate leaves behaviour unchanged.
    #[test]
    fn inert_gate_is_invisible() {
        let (mut sim, handle, inject, captured, gate) = setup_with_gate();
        handle.send(vec![5u8; 256], 0).unwrap();
        inject.push(vec![6u8; 256], 2);
        sim.run_until(Time::from_us(10));
        assert_eq!(captured.total_packets(), 1);
        assert!(handle.recv().is_some());
        assert_eq!(gate.dropped(), 0);
        assert_eq!(gate.counters().stalled_ticks.get(), 0);
    }

    /// A sequenced send is acknowledged through the completion ring once
    /// the last word enters the datapath.
    #[test]
    fn sequenced_send_acks_on_delivery() {
        let (mut sim, handle, _inject, captured) = setup(8, 8);
        let meta = Meta {
            src_port: 3,
            ..Meta::default()
        };
        handle.send_sequenced(vec![0xaau8; 200], meta, 17).unwrap();
        assert_eq!(handle.completions_pending(), 0);
        sim.run_until(Time::from_us(5));
        assert_eq!(captured.total_packets(), 1);
        let c = handle.pop_completion().expect("completion recorded");
        assert_eq!(c.seq, 17);
        assert_eq!(c.status, TxStatus::Delivered);
        assert!(c.at > Time::ZERO);
        assert_eq!(handle.counters().acked.get(), 1);
        assert!(handle.pop_completion().is_none());
    }

    /// Re-posting an already-delivered sequence number is discarded by the
    /// engine: exactly one copy reaches the datapath.
    #[test]
    fn duplicate_repost_is_discarded() {
        let (mut sim, handle, _inject, captured) = setup(8, 8);
        let meta = Meta::default();
        handle.send_sequenced(vec![1u8; 100], meta, 5).unwrap();
        sim.run_until(Time::from_us(5));
        assert_eq!(captured.total_packets(), 1);
        // The host "missed" the ack and re-posts the same sequence.
        handle.send_sequenced(vec![1u8; 100], meta, 5).unwrap();
        sim.run_until(Time::from_us(10));
        assert_eq!(captured.total_packets(), 1, "duplicate must not inject");
        assert_eq!(handle.counters().dup_discards.get(), 1);
        // The dedup entry survives until the host advances the ack floor.
        handle.advance_ack_floor(6);
        handle.send_sequenced(vec![2u8; 100], meta, 6).unwrap();
        sim.run_until(Time::from_us(15));
        assert_eq!(captured.total_packets(), 2);
    }

    /// A drop window produces an observable `Dropped` completion for
    /// sequenced descriptors instead of silent loss.
    #[test]
    fn drop_window_reports_dropped_completion() {
        let (mut sim, handle, _inject, captured, gate) = setup_with_gate();
        gate.drop_until(Time::from_us(5));
        handle
            .send_sequenced(vec![7u8; 64], Meta::default(), 1)
            .unwrap();
        sim.run_until(Time::from_us(4));
        assert_eq!(captured.total_packets(), 0);
        let c = handle.pop_completion().expect("drop completion");
        assert_eq!(c.seq, 1);
        assert_eq!(c.status, TxStatus::Dropped);
        assert_eq!(handle.counters().acked.get(), 0);
        assert_eq!(gate.counters().tx_dropped.get(), 1);
    }

    /// A full TX ring behind a wedge reports `Stalled` (not plain
    /// `RingFull`), and a soft reset un-wedges the engine. The flushed
    /// descriptors were never acked, so a retry layer re-posts them.
    #[test]
    fn wedge_reports_stalled_and_soft_reset_recovers() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (h2c_tx, h2c_rx) = Stream::new(8, 32);
        let (c2h_tx, c2h_rx) = Stream::new(8, 32);
        let gate = DmaFaultGate::new();
        let (engine, handle) = DmaEngine::new("dma", PcieConfig::gen3_x8(), h2c_tx, c2h_rx, 2, 8);
        let engine = engine.with_fault_gate(gate.clone());
        let (sink, captured) = PacketSink::new("to_card_sink", h2c_rx);
        let (_source, _inject) = PacketSource::new("from_card_src", c2h_tx);
        sim.add_module(clk, engine);
        sim.add_module(clk, sink);
        gate.wedge();
        handle
            .send_sequenced(vec![1u8; 64], Meta::default(), 0)
            .unwrap();
        handle
            .send_sequenced(vec![2u8; 64], Meta::default(), 1)
            .unwrap();
        sim.run_until(Time::from_us(3));
        assert_eq!(captured.total_packets(), 0, "wedged engine moves nothing");
        assert!(handle.is_stalled());
        assert_eq!(
            handle.send_sequenced(vec![3u8; 64], Meta::default(), 2),
            Err(SendError::Stalled)
        );
        assert!(gate.counters().stalled_ticks.get() > 0);
        // Soft reset: un-wedge, flush the ring; nothing was acked.
        sim.soft_reset();
        assert!(!gate.wedged());
        assert_eq!(handle.tx_pending(), 0);
        assert_eq!(handle.counters().acked.get(), 0);
        // Retry layer re-posts; now they deliver and ack exactly once.
        handle
            .send_sequenced(vec![1u8; 64], Meta::default(), 0)
            .unwrap();
        handle
            .send_sequenced(vec![2u8; 64], Meta::default(), 1)
            .unwrap();
        sim.run_until(Time::from_us(8));
        assert_eq!(captured.total_packets(), 2);
        assert_eq!(handle.counters().acked.get(), 2);
    }

    /// The progress probe reports forward motion while work flows and
    /// pending-but-stuck while wedged — the watchdog's trigger condition.
    #[test]
    fn progress_probe_tracks_work_and_pending() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (h2c_tx, h2c_rx) = Stream::new(8, 32);
        let (c2h_tx, c2h_rx) = Stream::new(8, 32);
        let gate = DmaFaultGate::new();
        let (engine, handle) = DmaEngine::new("dma", PcieConfig::gen3_x8(), h2c_tx, c2h_rx, 8, 8);
        let engine = engine.with_fault_gate(gate.clone());
        let probe = engine.progress_probe();
        let (sink, _captured) = PacketSink::new("to_card_sink", h2c_rx);
        let (_source, _inject) = PacketSource::new("from_card_src", c2h_tx);
        sim.add_module(clk, engine);
        sim.add_module(clk, sink);
        let (p0, pending0) = probe();
        assert_eq!(p0, 0);
        assert!(!pending0, "idle engine has nothing pending");
        handle.send(vec![1u8; 128], 0).unwrap();
        let (_, pending1) = probe();
        assert!(pending1, "queued descriptor is pending work");
        sim.run_until(Time::from_us(5));
        let (p2, pending2) = probe();
        assert!(p2 > 0, "delivery advanced the heartbeat");
        assert!(!pending2);
        // Wedge with work queued: pending stays true, progress freezes.
        gate.wedge();
        handle.send(vec![2u8; 128], 0).unwrap();
        let (p3, _) = probe();
        sim.run_until(Time::from_us(10));
        let (p4, pending4) = probe();
        assert_eq!(p3, p4, "no progress while wedged");
        assert!(pending4);
    }

    // ---- Burst mode: charged, not ticked --------------------------------

    use netfpga_core::sim::ClockId;
    use netfpga_core::stream::{segment, StreamRx, StreamTx};

    /// The engine alone in a simulator, the test playing both neighbours
    /// between edges: before an edge it feeds `from_card` (a producer
    /// registered ahead of the engine), after it it empties `to_card` (a
    /// store-and-forward consumer registered behind it), and it notes the
    /// instant of everything the engine lets out.
    struct Rig {
        sim: Simulator,
        clk: ClockId,
        handle: DmaHandle,
        gate: DmaFaultGate,
        /// The watchdog's view of the engine: `(heartbeat, work pending)`.
        probe: Box<dyn Fn() -> (u64, bool)>,
        to_card: StreamRx,
        from_card: StreamTx,
        /// Card-to-host frames still to feed, at most `feed_max` beats an
        /// edge.
        feed: VecDeque<Burst>,
        feeding: Option<Burst>,
        feed_max: usize,
        downstream: Reassembler,
        /// Host sends to post once the clock reaches the cycle given.
        posts: VecDeque<(u64, usize)>,
        next_seq: u64,
        /// When each sequenced send was acked, by the ack's own stamp.
        acks: Vec<Time>,
        /// When each host packet's last beat had entered `to_card`.
        complete: Vec<Time>,
        /// When each card packet entered the RX ring.
        ring: Vec<Time>,
    }

    impl Rig {
        fn new(config: PcieConfig, depth: usize, rx_cap: usize, burst: bool, gated: bool) -> Rig {
            let mut sim = Simulator::new();
            let clk = sim.add_clock("core", Frequency::mhz(200));
            let (h2c_tx, to_card) = Stream::new(depth, 32);
            let (from_card, c2h_rx) = Stream::new(depth, 32);
            let (engine, handle) = DmaEngine::new("dma", config, h2c_tx, c2h_rx, 64, rx_cap);
            let gate = DmaFaultGate::new();
            let engine = engine.with_burst(burst);
            let probe = Box::new(engine.progress_probe());
            sim.add_module(
                clk,
                if gated {
                    engine.with_fault_gate(gate.clone())
                } else {
                    engine
                },
            );
            Rig {
                sim,
                clk,
                handle,
                gate,
                probe,
                to_card,
                from_card,
                feed: VecDeque::new(),
                feeding: None,
                feed_max: usize::MAX,
                downstream: Reassembler::new(),
                posts: VecDeque::new(),
                next_seq: 0,
                acks: Vec::new(),
                complete: Vec::new(),
                ring: Vec::new(),
            }
        }

        /// Queue host sends of `lens` bytes, `gap` cycles apart (0: all at
        /// once).
        fn post(&mut self, lens: &[usize], gap: u64) {
            let start = self.sim.cycles(self.clk);
            for (i, &len) in lens.iter().enumerate() {
                self.posts.push_back((start + i as u64 * gap, len));
            }
        }

        /// Queue card-to-host frames of `lens` bytes.
        fn offer(&mut self, lens: &[usize]) {
            for &len in lens {
                self.feed
                    .push_back(segment(&vec![len as u8; len], 32, Meta::default()));
            }
        }

        fn ticks(&self) -> u64 {
            self.sim.module_ticks()[0].1
        }

        fn run(&mut self, cycles: u64) {
            for _ in 0..cycles {
                while self
                    .posts
                    .front()
                    .is_some_and(|&(at, _)| at <= self.sim.cycles(self.clk))
                {
                    let (_, len) = self.posts.pop_front().unwrap();
                    self.handle
                        .send_sequenced(vec![len as u8; len], Meta::default(), self.next_seq)
                        .unwrap();
                    self.next_seq += 1;
                }
                let mut budget = self.feed_max;
                while budget > 0 {
                    if self.feeding.is_none() {
                        self.feeding = self.feed.pop_front();
                    }
                    let pushed = self.from_card.push_burst(&mut self.feeding, budget);
                    if pushed == 0 {
                        break;
                    }
                    budget -= pushed;
                }
                self.sim.run_cycles(self.clk, 1);
                let now = self.sim.now();
                while let Some(burst) = self.to_card.pop_burst(usize::MAX) {
                    if self.downstream.push_burst(burst).is_some() {
                        self.complete.push(now);
                    }
                }
                while let Some(c) = self.handle.pop_completion() {
                    assert_eq!(c.status, TxStatus::Delivered);
                    self.acks.push(c.at);
                }
                while (self.ring.len() as u64) < self.handle.counters().rx_packets.get() {
                    self.ring.push(now);
                }
            }
        }
    }

    fn ns(instants: &[Time]) -> Vec<u64> {
        instants.iter().map(|t| t.as_ns()).collect()
    }

    /// Host → card, FIFO at least a frame deep: the ack and the instant the
    /// packet is complete downstream are those of the word engine (the
    /// figures below were taken from it before burst mode existed), three
    /// packets back to back or 2 µs apart, on a link faster and one slower
    /// than the bus — at two ticks a packet instead of one a beat.
    #[test]
    fn burst_h2c_timeline_is_the_word_engines() {
        let (gen3, gen1) = (PcieConfig::gen3_x8(), PcieConfig::gen1_x8());
        for (config, len, gap, want) in [
            (gen3, 60, 0, [10, 25, 40]),
            (gen3, 60, 400, [10, 2010, 4010]),
            (gen3, 508, 0, [80, 160, 240]),
            (gen3, 508, 400, [80, 2080, 4080]),
            (gen3, 1514, 0, [240, 480, 720]),
            (gen3, 1514, 400, [240, 2240, 4240]),
            (gen1, 60, 0, [10, 55, 100]),
            (gen1, 60, 400, [10, 2010, 4010]),
            (gen1, 508, 0, [80, 385, 690]),
            (gen1, 508, 400, [80, 2080, 4080]),
            (gen1, 1514, 0, [240, 1145, 2050]),
            (gen1, 1514, 400, [240, 2240, 4240]),
        ] {
            for burst in [false, true] {
                let mut rig = Rig::new(config, 64, 64, burst, false);
                rig.post(&[len; 3], gap);
                rig.run(1000);
                let what = format!("{len} B, gap {gap}, burst {burst}");
                assert_eq!(ns(&rig.acks), want, "acks: {what}");
                assert_eq!(ns(&rig.complete), want, "complete downstream: {what}");
                let beats = len.div_ceil(32) as u64;
                assert_eq!(
                    rig.ticks(),
                    3 * if burst { 2 } else { beats },
                    "ticks: {what}"
                );
            }
        }
    }

    /// Card → host: RX-ring delivery instants are those of the word engine
    /// whether the frames arrive as whole bursts, in FIFO-sized pieces of a
    /// frame longer than the FIFO, or a beat a cycle — where burst mode does
    /// exactly what word mode does, tick for tick. The figures are the
    /// two-stage closed form, the first edge at or after
    /// `max(last beat, previous delivery) + transfer_time`: deep on gen3,
    /// last beats at 10 / 90 / 330 / 410 ns and crossings of 10.7 / 70.6 /
    /// 210.5 / 70.6 ns. (The serial engine delivered at the last beat and
    /// only then charged the link: 10 / 100 / 410 / 700.)
    #[test]
    fn burst_c2h_timeline_is_the_word_engines() {
        let (gen3, gen1) = (PcieConfig::gen3_x8(), PcieConfig::gen1_x8());
        let deep = [60, 508, 1514, 508];
        let shallow = [508, 1514, 60];
        for (config, depth, feed_max, lens, want) in [
            (gen3, 64, usize::MAX, &deep[..], &[25, 165, 545, 620][..]),
            (gen3, 8, usize::MAX, &shallow[..], &[155, 535, 550][..]),
            (gen3, 8, 1, &shallow[..], &[155, 535, 550][..]),
            (gen3, 64, 1, &deep[..], &[25, 165, 545, 620][..]),
            (gen1, 64, usize::MAX, &deep[..], &[55, 395, 1300, 1605][..]),
            (gen1, 8, usize::MAX, &shallow[..], &[385, 1290, 1335][..]),
            (gen1, 8, 1, &shallow[..], &[385, 1290, 1335][..]),
            (gen1, 64, 1, &deep[..], &[55, 395, 1300, 1605][..]),
        ] {
            let run = |burst| {
                let mut rig = Rig::new(config, depth, 64, burst, false);
                rig.feed_max = feed_max;
                rig.offer(lens);
                rig.run(1000);
                (ns(&rig.ring), rig.ticks(), rig.handle.progress())
            };
            let (word, burst) = (run(false), run(true));
            let what = format!("depth {depth}, {feed_max} beats an edge");
            assert_eq!(word.0, want, "word engine: {what}");
            assert_eq!(burst.0, want, "burst engine: {what}");
            assert_eq!(burst.2, word.2, "the heartbeat counts beats: {what}");
            if feed_max == 1 {
                assert_eq!(burst.1, word.1, "a beat at a time is word mode: {what}");
            } else {
                // A pop per burst, a link entry and a delivery per frame,
                // against a tick per beat.
                assert!(
                    burst.1 * 4 < word.1,
                    "ticks {} of {}: {what}",
                    burst.1,
                    word.1
                );
            }
        }
    }

    /// A held burst, an absorbed packet and a packet on the link are time
    /// bounds: not quiescent, no tick until the instant, exactly one tick at
    /// it. A complete packet waiting for the link is bounded by the crossing
    /// ahead of it, not by its own last beat.
    #[test]
    fn held_burst_and_pending_completion_are_time_bounds() {
        // 1514 B = 48 beats: fetched (popped) on the first edge at 5 ns,
        // crossing (complete) 47 periods later at 240 ns.
        let mut rig = Rig::new(PcieConfig::gen3_x8(), 64, 64, true, false);
        rig.post(&[1514], 0);
        rig.run(1);
        assert_eq!(rig.ticks(), 1, "the fetch");
        assert!(rig.handle.has_work(), "held on the bus");
        rig.run(46);
        assert_eq!(rig.sim.now(), Time::from_ns(235));
        assert_eq!(rig.ticks(), 1, "no tick while the bus is charged");
        assert!(!rig.sim.all_quiescent(), "a time bound is not quiescence");
        assert!(rig.complete.is_empty() && rig.acks.is_empty());
        rig.run(1);
        assert_eq!(rig.ticks(), 2, "one tick at the crossing instant");
        assert_eq!(ns(&rig.acks), [240]);
        assert_eq!(ns(&rig.complete), [240]);
        assert!(rig.sim.all_quiescent());

        let mut rig = Rig::new(PcieConfig::gen3_x8(), 64, 64, true, false);
        rig.offer(&[1514]);
        rig.run(1);
        assert_eq!(rig.ticks(), 1, "the pop");
        assert_eq!(
            (rig.probe)(),
            (48, true),
            "all 48 beats taken, none delivered"
        );
        rig.run(46);
        assert_eq!(rig.ticks(), 1, "no tick while the bus is charged");
        assert!(!rig.sim.all_quiescent());
        assert_eq!(rig.handle.rx_pending(), 0, "not complete yet");
        rig.run(1);
        assert_eq!(rig.ticks(), 2, "one tick at the last beat: onto the link");
        assert_eq!(rig.handle.rx_pending(), 0, "crossing, not delivered");
        assert!((rig.probe)().1 && rig.handle.has_work(), "pending work");
        // The ring has it after its own crossing (210.5 ns), no longer at
        // the last beat with the link charged afterwards.
        rig.run(42);
        assert_eq!(rig.sim.now(), Time::from_ns(450));
        assert_eq!(rig.ticks(), 2, "no tick while the link is charged");
        assert!(!rig.sim.all_quiescent());
        rig.run(1);
        assert_eq!(rig.ticks(), 3, "one tick at the delivery instant");
        assert_eq!(ns(&rig.ring), [455]);
        assert!(rig.sim.all_quiescent() && !rig.handle.has_work());
        rig.run(100);
        assert_eq!(rig.ticks(), 3);

        // Link slower than the bus (302 ns a frame): the second frame is
        // complete at 160 ns and waits for the first to be over at 382 ns.
        let mut rig = Rig::new(PcieConfig::gen1_x8(), 64, 64, true, false);
        rig.offer(&[508, 508]);
        rig.run(76);
        assert_eq!(rig.sim.now(), Time::from_ns(380));
        assert_eq!(rig.ticks(), 3, "pop, link entry, pop: none at 160 ns");
        rig.run(1);
        assert_eq!(rig.ticks(), 4, "delivery and link entry share a tick");
        rig.run(100);
        assert_eq!(ns(&rig.ring), [385, 690]);
        assert_eq!(rig.ticks(), 5);
    }

    /// RX-ring overflow and a drop window are judged when the packet is
    /// complete and the link free — link entry, which is its last beat's
    /// instant here — not when its burst is popped and not when its crossing
    /// ends. (The serial engine judged at the last beat too, but only popped
    /// the second frame once the first's crossing was over: 230 ns, not 160.)
    #[test]
    fn burst_completion_instant_decides_overflow_and_drop_window() {
        // Two 508 B frames: the first enters the link at 80 ns and the ring
        // at 155 ns; the second is popped from 85 ns, enters at 160 ns and
        // is delivered at 235 ns.
        for burst in [false, true] {
            // A one-entry ring the host empties at 155 ns, 165 ns or never:
            // only a slot free at 160 ns saves the second frame.
            for (recv_after, drops) in [(31, 0), (33, 1), (60, 1)] {
                let mut rig = Rig::new(PcieConfig::gen3_x8(), 64, 1, burst, false);
                rig.offer(&[508, 508]);
                rig.run(31);
                assert_eq!(rig.sim.now(), Time::from_ns(155));
                assert_eq!(rig.handle.progress(), if burst { 32 } else { 31 });
                assert_eq!(
                    rig.handle.counters().rx_drops.get(),
                    0,
                    "complete at 160 ns"
                );
                rig.run(recv_after - 31);
                assert!(rig.handle.recv().is_some());
                rig.run(60 - recv_after);
                let want: &[u64] = if drops == 0 { &[155, 235] } else { &[155] };
                assert_eq!(ns(&rig.ring), want, "burst {burst}");
                assert_eq!(rig.handle.counters().rx_drops.get(), drops, "burst {burst}");
            }
            let mut rig = Rig::new(PcieConfig::gen3_x8(), 64, 1, burst, false);
            rig.offer(&[508, 508]);
            rig.run(32);
            assert_eq!(rig.handle.counters().rx_drops.get(), 1, "dropped at 160 ns");

            // A drop window open at the pop and closed by link entry lets
            // the packet through, and so does one that opens on its
            // crossing; one open at link entry takes it — and not the first
            // frame, delivered inside it.
            for (open_at, until, dropped) in [(20, 160, 0), (33, 300, 0), (30, 165, 1)] {
                let mut rig = Rig::new(PcieConfig::gen3_x8(), 64, 64, burst, true);
                rig.offer(&[508, 508]);
                rig.run(open_at);
                rig.gate.drop_until(Time::from_ns(until));
                rig.run(60 - open_at);
                assert_eq!(
                    rig.gate.counters().rx_dropped.get(),
                    dropped,
                    "burst {burst}"
                );
                assert_eq!(rig.ring.len() as u64, 2 - dropped, "burst {burst}");
            }
        }
    }

    /// A stall window opening while the bus or the link is charged freezes
    /// the charge: ack and delivery move by exactly the edges it covers.
    #[test]
    fn stall_window_mid_hold_delays_ack_and_delivery_by_its_length() {
        for burst in [false, true] {
            let mut rig = Rig::new(PcieConfig::gen3_x8(), 64, 64, burst, true);
            rig.post(&[1514], 0);
            rig.offer(&[1514]);
            rig.run(20);
            // Covers the 40 edges from 105 ns to 300 ns.
            rig.gate.stall_until(Time::from_ns(305));
            rig.run(120);
            assert_eq!(ns(&rig.acks), [240 + 200], "burst {burst}");
            assert_eq!(ns(&rig.complete), [240 + 200], "burst {burst}");
            // Last beat at 240 + 200 ns, then its 210.5 ns on the link (the
            // serial engine delivered at the last beat).
            assert_eq!(ns(&rig.ring), [455 + 200], "burst {burst}");
            assert_eq!(rig.gate.counters().stalled_ticks.get(), 40);

            // On the link from 240 ns, due at 450.5 ns; the 10 edges from
            // 255 ns to 300 ns make that 500.5 ns.
            let mut rig = Rig::new(PcieConfig::gen3_x8(), 64, 64, burst, true);
            rig.offer(&[1514]);
            rig.run(50);
            rig.gate.stall_until(Time::from_ns(305));
            rig.run(60);
            assert_eq!(ns(&rig.ring), [455 + 50], "burst {burst}");
            assert_eq!(rig.gate.counters().stalled_ticks.get(), 10);
        }
    }

    /// A wedge and the soft reset that clears it, both while the bus is
    /// charged: the held descriptor is never acked (the retry layer
    /// re-posts it) and the half-absorbed packet counts one `rx_drops`.
    #[test]
    fn soft_reset_mid_hold_leaves_descriptor_unacked_and_counts_one_rx_drop() {
        for burst in [false, true] {
            let mut rig = Rig::new(PcieConfig::gen3_x8(), 64, 64, burst, true);
            rig.post(&[1514], 0);
            rig.offer(&[1514]);
            rig.run(20);
            rig.gate.wedge();
            rig.run(100);
            assert!(
                rig.handle.has_work(),
                "wedged with the descriptor in flight"
            );
            assert!(rig.acks.is_empty() && rig.ring.is_empty());
            rig.sim.soft_reset();
            rig.downstream.resync(); // the rig plays a module, so it is reset too
            assert!(!rig.gate.wedged());
            rig.run(200);
            assert!(rig.acks.is_empty(), "burst {burst}: never acked");
            assert_eq!(rig.handle.counters().acked.get(), 0);
            assert!(!rig.handle.has_work());
            assert_eq!(rig.handle.counters().rx_drops.get(), 1, "burst {burst}");
            assert_eq!(rig.handle.counters().rx_packets.get(), 0);
            assert!(rig.complete.is_empty(), "no whole packet got through");
            // The engine works again.
            rig.post(&[60], 0);
            rig.offer(&[60]);
            rig.run(20);
            assert_eq!((rig.acks.len(), rig.ring.len()), (1, 1), "burst {burst}");
        }
    }

    /// A wedge with a frame on the link (and another on the bus behind it)
    /// is pending work with a frozen heartbeat — what trips the watchdog —
    /// and the soft reset counts one `rx_drops` for each frame it cuts, so
    /// `offered = rx_packets + rx_drops + gate.rx_dropped` closes.
    #[test]
    fn soft_reset_mid_crossing_counts_each_frame_it_cuts() {
        for burst in [false, true] {
            for (lens, cut) in [(&[508][..], 1), (&[508, 1514][..], 2)] {
                let mut rig = Rig::new(PcieConfig::gen3_x8(), 64, 64, burst, true);
                rig.offer(lens);
                rig.run(20);
                // 100 ns: the first frame crosses from 80 ns to 150.6 ns.
                rig.gate.wedge();
                let (heartbeat, _) = (rig.probe)();
                rig.run(100);
                assert_eq!((rig.probe)(), (heartbeat, true), "burst {burst}");
                assert!(rig.handle.has_work() && rig.ring.is_empty());
                assert_eq!(rig.gate.counters().stalled_ticks.get(), 100);
                rig.sim.soft_reset();
                assert!(!rig.handle.has_work());
                // A drop window and deliveries on top.
                rig.run(60);
                rig.gate.drop_until(rig.sim.now() + Time::from_ns(100));
                rig.offer(&[60, 508, 60]);
                rig.run(100);
                let (s, gated) = (rig.handle.counters(), rig.gate.counters().rx_dropped.get());
                let (delivered, drops) = (s.rx_packets.get(), s.rx_drops.get());
                assert_eq!(drops, cut, "burst {burst}");
                assert!(gated > 0 && delivered > 0, "{gated}, {s:?}");
                assert_eq!(delivered + drops + gated, lens.len() as u64 + 3);
            }
        }
    }

    /// Sequenced re-post dedup does not depend on the mode.
    #[test]
    fn burst_duplicate_repost_is_discarded() {
        let mut rig = Rig::new(PcieConfig::gen3_x8(), 64, 64, true, false);
        let send = |rig: &Rig, seq| {
            rig.handle
                .send_sequenced(vec![1u8; 508], Meta::default(), seq)
                .unwrap();
        };
        send(&rig, 5);
        rig.run(100);
        assert_eq!(rig.complete.len(), 1);
        send(&rig, 5);
        rig.run(100);
        assert_eq!(rig.complete.len(), 1, "duplicate must not inject");
        assert_eq!(rig.handle.counters().dup_discards.get(), 1);
        rig.handle.advance_ack_floor(6);
        send(&rig, 6);
        rig.run(100);
        assert_eq!(rig.complete.len(), 2);
        assert_eq!(rig.handle.counters().acked.get(), 2);
    }
}
