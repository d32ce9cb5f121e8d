//! The fault injector: a module that executes a [`FaultPlan`] against a
//! running simulation.
//!
//! The injector sits at the board edge. For every tapped port it owns the
//! gap between the tester-side wire and the MAC-side wire, forwarding
//! frames while applying whatever the plan says: drop them (link down),
//! flip their bits (BER — with the pristine CRC-32 recorded first, so the
//! receiving MAC *detects* the corruption), re-pace them (lane loss in a
//! bonded port), or hold them (stream stall / backpressure storm). DMA
//! faults are delegated to the engine's
//! [`DmaFaultGate`]; memory upsets go to
//! memories registered on the [`FaultHandle`].
//!
//! Everything observable — which bits flip, when errors space out — is
//! drawn from one `SimRng` seeded by the plan, and every applied fault is
//! appended to a trace and counted, so a run is reproducible from its seed
//! and auditable afterwards.

use crate::memfault::{inject_flip, EccMode, FaultableMemory, FlipOutcome};
use crate::plan::{FaultEvent, FaultKind, FaultPlan, TraceEntry};
use netfpga_core::regs::RegisterSpace;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stats::Counter;
use netfpga_core::telemetry::{Event, EventKind, EventRing, StatRegistry};
use netfpga_core::time::{BitRate, Time};
use netfpga_core::SimRng;
use netfpga_packet::fcs::crc32;
use netfpga_pcie::DmaFaultGate;
use netfpga_phy::mac::{wire_bytes, Fcs, WireFrame};
use netfpga_phy::{PcsHandle, PortBond, Wire};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Suggested mount base for [`FaultRegisters`] on a chassis address map
/// (clear of the project blocks at 0x0000/0x1000/0x2000).
pub const FAULTS_BASE: u32 = 0xF000;

/// Register offsets within [`FaultRegisters`].
pub mod faultregs {
    /// Total fault events applied (scheduled + runtime).
    pub const EVENTS_APPLIED: u32 = 0x00;
    /// Frames dropped while a link was down (or all lanes lost).
    pub const LINK_DOWN_DROPS: u32 = 0x04;
    /// Frames that took at least one bit error.
    pub const FRAMES_CORRUPTED: u32 = 0x08;
    /// Individual bit errors injected.
    pub const BER_FLIPS: u32 = 0x0c;
    /// Lane-loss / lane-restore events applied.
    pub const LANE_EVENTS: u32 = 0x10;
    /// Ticks a port spent stalled with frames pending.
    pub const STREAM_STALL_TICKS: u32 = 0x14;
    /// Ticks the DMA engine spent frozen with work pending.
    pub const DMA_STALLED_TICKS: u32 = 0x18;
    /// Packets discarded inside DMA drop windows.
    pub const DMA_DROPPED: u32 = 0x1c;
    /// Memory upsets injected (landed in real data).
    pub const MEM_INJECTED: u32 = 0x20;
    /// Memory upsets corrected by ECC.
    pub const MEM_CORRECTED: u32 = 0x24;
    /// Memory upsets detected (parity) but left corrupt.
    pub const MEM_DETECTED: u32 = 0x28;
    /// Memory upsets that landed with no protection.
    pub const MEM_SILENT: u32 = 0x2c;
    /// Upsets aimed at an unregistered memory or empty/invalid location.
    pub const MEM_MISSED: u32 = 0x30;
    /// Double upsets: two flips in one word between scrub visits
    /// (detected, not correctable).
    pub const MEM_DOUBLE: u32 = 0x34;
}

/// Per-module fault counters, surfaced through the stats layer (shared
/// [`Counter`]s — clone the struct, read anywhere) and over MMIO via
/// [`FaultRegisters`].
#[derive(Debug, Clone, Default)]
pub struct FaultCounters {
    /// Fault events applied (scheduled + runtime).
    pub events_applied: Counter,
    /// Link-down windows opened (flaps), scheduled or runtime.
    pub flaps: Counter,
    /// Frames dropped while a link was down.
    pub link_down_drops: Counter,
    /// Frames that took at least one bit error.
    pub frames_corrupted: Counter,
    /// Individual bit errors injected.
    pub ber_flips: Counter,
    /// Lane-loss / lane-restore events applied.
    pub lane_events: Counter,
    /// Ticks a port spent stalled with frames pending.
    pub stream_stall_ticks: Counter,
    /// Memory upsets that landed in real data.
    pub mem_injected: Counter,
    /// Memory upsets corrected by ECC.
    pub mem_corrected: Counter,
    /// Memory upsets detected (parity) but left corrupt.
    pub mem_detected: Counter,
    /// Memory upsets that landed silently (no protection).
    pub mem_silent: Counter,
    /// Upsets aimed at an unregistered memory or an empty location.
    pub mem_missed: Counter,
    /// Double upsets: a second flip landed in a word before the scrubber
    /// visited it, so SECDED can only detect, not correct.
    pub mem_double: Counter,
}

impl FaultCounters {
    /// Register every counter on `registry` under `prefix` (e.g.
    /// `faults`): the shared cells themselves are registered, so registry
    /// reads equal the legacy [`FaultRegisters`] view bit for bit.
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        let fields: [(&str, &Counter); 13] = [
            ("events_applied", &self.events_applied),
            ("flaps", &self.flaps),
            ("link_down_drops", &self.link_down_drops),
            ("frames_corrupted", &self.frames_corrupted),
            ("ber_flips", &self.ber_flips),
            ("lane_events", &self.lane_events),
            ("stream_stall_ticks", &self.stream_stall_ticks),
            ("mem.injected", &self.mem_injected),
            ("mem.corrected", &self.mem_corrected),
            ("mem.detected", &self.mem_detected),
            ("mem.silent", &self.mem_silent),
            ("mem.missed", &self.mem_missed),
            ("mem.double_upsets", &self.mem_double),
        ];
        for (name, counter) in fields {
            registry.register_counter(&format!("{prefix}.{name}"), counter);
        }
    }
}

pub(crate) struct RegisteredMemory {
    pub(crate) name: String,
    pub(crate) mode: EccMode,
    pub(crate) mem: Rc<RefCell<dyn FaultableMemory>>,
}

/// One SECDED upset waiting for the scrubber's next visit to its word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LatentFlip {
    /// Index into the registered-memory list.
    pub(crate) mem: usize,
    /// Entry (word) index within that memory.
    pub(crate) index: usize,
    /// Flipped bit within the entry.
    pub(crate) bit: usize,
    /// When the upset landed.
    pub(crate) at: Time,
}

pub(crate) struct Shared {
    pub(crate) runtime: RefCell<VecDeque<FaultKind>>,
    pub(crate) trace: RefCell<Vec<TraceEntry>>,
    pub(crate) mems: RefCell<Vec<RegisteredMemory>>,
    /// SECDED upsets still awaiting their scrub visit (only populated
    /// while a scrubber is attached).
    pub(crate) latent: RefCell<Vec<LatentFlip>>,
    /// Time from upset to correction, one sample per scrubbed flip.
    pub(crate) scrub_latencies: RefCell<Vec<Time>>,
    /// Set once a scrubber is built: SECDED flips then stay latent until
    /// their scrub visit instead of correcting at injection time.
    pub(crate) scrub_active: Cell<bool>,
    /// The injector's activity-cache flag: runtime injections arrive from
    /// outside the tick, so they must mark the cached bound dirty.
    pub(crate) wake: RefCell<Option<WakeHandle>>,
    /// The scrubber's activity-cache flag, woken when a latent upset is
    /// recorded (the only way the scrubber leaves quiescence externally).
    pub(crate) scrub_wake: RefCell<Option<WakeHandle>>,
}

/// Cloneable handle onto a live injector: runtime injection, counters,
/// trace, memory registration, and the DMA gate.
#[derive(Clone)]
pub struct FaultHandle {
    counters: FaultCounters,
    gate: DmaFaultGate,
    pub(crate) shared: Rc<Shared>,
}

impl FaultHandle {
    /// Queue a fault for the injector's next tick (nftest `InjectFault`
    /// lands here). On a chassis built from an inert plan no injector is
    /// spliced and the queue is never drained.
    pub fn inject(&self, kind: FaultKind) {
        self.shared.runtime.borrow_mut().push_back(kind);
        if let Some(w) = &*self.shared.wake.borrow() {
            w.wake();
        }
    }

    /// The shared fault counters.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// The DMA fault gate (attach to a [`DmaEngine`](netfpga_pcie::DmaEngine)
    /// via `with_fault_gate`).
    pub fn dma_gate(&self) -> DmaFaultGate {
        self.gate.clone()
    }

    /// Snapshot of every fault applied so far, in application order.
    pub fn trace(&self) -> Vec<TraceEntry> {
        self.shared.trace.borrow().clone()
    }

    /// Register a shared memory as a target for
    /// [`FaultKind::MemFlip`] events under `name`, protected by `mode`.
    pub fn register_memory(
        &self,
        name: &str,
        mode: EccMode,
        mem: Rc<RefCell<dyn FaultableMemory>>,
    ) {
        self.shared.mems.borrow_mut().push(RegisteredMemory {
            name: name.to_string(),
            mode,
            mem,
        });
    }

    /// Build a background ECC scrubber sweeping every registered memory at
    /// `words_per_cycle`. From this call on, SECDED upsets stay *latent*
    /// (the data really is corrupt) until the scrubber's sweep reaches
    /// their word — correction latency becomes a measurable quantity, and
    /// a second flip in the same word inside one scrub interval is a
    /// double upset: detected, counted, not corrected. Register the
    /// scrubber on the same clock as the injector, and register memories
    /// before the run starts (the sweep order is registration order).
    pub fn scrubber(&self, name: &str, words_per_cycle: u32) -> crate::EccScrubber {
        assert!(words_per_cycle > 0, "scrub rate must be positive");
        self.shared.scrub_active.set(true);
        crate::EccScrubber::new(
            name,
            words_per_cycle,
            self.counters.clone(),
            self.shared.clone(),
        )
    }

    /// Upset-to-correction latency samples recorded by the scrubber so
    /// far, in application order.
    pub fn scrub_latencies(&self) -> Vec<Time> {
        self.shared.scrub_latencies.borrow().clone()
    }

    /// SECDED upsets still waiting for their scrub visit.
    pub fn pending_upsets(&self) -> usize {
        self.shared.latent.borrow().len()
    }
}

/// Parameters of a Gilbert–Elliott burst-error channel.
#[derive(Debug, Clone, Copy)]
struct GeParams {
    good_ber: f64,
    bad_ber: f64,
    p_gb: f64,
    p_bg: f64,
}

/// Per-direction state of a Gilbert–Elliott channel: which state it is
/// in, bits left in the current state sojourn, and bits until the next
/// error within the state (both geometric draws).
#[derive(Debug, Clone, Copy, Default)]
struct GeState {
    bad: bool,
    sojourn: u64,
    countdown: u64,
}

/// Fault-plane state of one tapped port.
struct PortTap {
    /// Tester-side ingress wire (tester pushes here).
    outer_in: Wire,
    /// MAC-side ingress wire (the RX MAC drains this).
    inner_in: Wire,
    /// MAC-side egress wire (the TX MAC pushes here).
    inner_out: Wire,
    /// Tester-side egress wire (the tester drains this).
    outer_out: Wire,
    /// Full-rate line speed of the port.
    rate: BitRate,
    /// Lane bonding, for degraded-rate math.
    bond: PortBond,
    lanes_lost: u8,
    down_until: Time,
    stall_until: Time,
    ber: f64,
    /// Data bits until the next error, per direction (geometric draws).
    countdown_in: u64,
    countdown_out: u64,
    /// Burst-error channel, overriding the i.i.d. process when set.
    ge: Option<GeParams>,
    ge_in: GeState,
    ge_out: GeState,
    /// Link state seen at the last tick, for edge-triggered events.
    was_down: bool,
    /// Degraded-mode serialization pacing, per direction.
    busy_in: Time,
    busy_out: Time,
    /// Recovery plane: when attached, the PCS decides link state and bond
    /// width; the injector only publishes raw signal into it.
    pcs: Option<PcsHandle>,
}

impl PortTap {
    /// Lanes currently carrying signal: none inside a down window,
    /// otherwise whatever the lane-loss state leaves of the bond.
    fn signal_lanes_at(&self, now: Time) -> u8 {
        if now < self.down_until {
            0
        } else {
            self.bond.lanes.saturating_sub(self.lanes_lost)
        }
    }

    fn down_at(&self, now: Time) -> bool {
        if let Some(pcs) = &self.pcs {
            // The PCS owns link state: traffic is dropped until it has
            // retrained back to Up, not merely until signal returns.
            return !pcs.is_up();
        }
        now < self.down_until || (self.lanes_lost > 0 && self.lanes_lost >= self.bond.lanes)
    }

    fn degraded_rate(&self) -> Option<BitRate> {
        if let Some(pcs) = &self.pcs {
            let (bonded, total) = (pcs.bonded_lanes(), pcs.total_lanes());
            if bonded == 0 || bonded >= total {
                return None;
            }
            return Some(BitRate::bps(
                self.rate.as_bps() * u64::from(bonded) / u64::from(total),
            ));
        }
        if self.lanes_lost == 0 {
            return None;
        }
        let left = self.bond.degrade(self.lanes_lost);
        if left.lanes == 0 {
            return None; // fully down; handled by down_at
        }
        Some(BitRate::bps(
            self.rate.as_bps() * u64::from(left.lanes) / u64::from(self.bond.lanes),
        ))
    }
}

/// The fault injector module. Build with [`FaultInjector::new`], tap the
/// port wire pairs, register it on the simulator's core clock, and keep
/// the [`FaultHandle`] for runtime control.
pub struct FaultInjector {
    label: String,
    events: Vec<FaultEvent>,
    next_event: usize,
    seed: u64,
    rng: SimRng,
    ports: Vec<PortTap>,
    bonds: Vec<(u8, PortBond)>,
    counters: FaultCounters,
    gate: DmaFaultGate,
    shared: Rc<Shared>,
    /// Optional telemetry event ring for link-state transitions.
    ring: Option<EventRing>,
    /// Activity-cache invalidation flag, registered on every tapped wire
    /// the injector drains and woken by runtime injections.
    wake: WakeHandle,
}

impl FaultInjector {
    /// Build an injector executing `plan`. Returns the module (give it to
    /// the simulator) and the control handle (keep it).
    pub fn new(name: &str, plan: &FaultPlan) -> (FaultInjector, FaultHandle) {
        let counters = FaultCounters::default();
        let gate = DmaFaultGate::new();
        let wake = WakeHandle::new();
        let shared = Rc::new(Shared {
            runtime: RefCell::new(VecDeque::new()),
            trace: RefCell::new(Vec::new()),
            mems: RefCell::new(Vec::new()),
            latent: RefCell::new(Vec::new()),
            scrub_latencies: RefCell::new(Vec::new()),
            scrub_active: Cell::new(false),
            wake: RefCell::new(Some(wake.clone())),
            scrub_wake: RefCell::new(None),
        });
        let handle = FaultHandle {
            counters: counters.clone(),
            gate: gate.clone(),
            shared: shared.clone(),
        };
        (
            FaultInjector {
                label: name.to_string(),
                events: plan.sorted_events(),
                next_event: 0,
                seed: plan.seed,
                rng: SimRng::new(plan.seed),
                ports: Vec::new(),
                bonds: plan.bonds.clone(),
                counters,
                gate,
                shared,
                ring: None,
                wake,
            },
            handle,
        )
    }

    /// Interpose the injector on one port. Call once per port, in port
    /// order: the tester feeds `outer_in` and drains `outer_out`; the RX
    /// MAC drains `inner_in` and the TX MAC feeds `inner_out`. `rate` is
    /// the port's full line rate.
    pub fn tap_port(
        &mut self,
        rate: BitRate,
        outer_in: Wire,
        inner_in: Wire,
        inner_out: Wire,
        outer_out: Wire,
    ) {
        // The injector drains `outer_in` and `inner_out`; pushes onto them
        // are the only wire-side events that can un-idle it.
        outer_in.set_wake(self.wake.clone());
        inner_out.set_wake(self.wake.clone());
        let port = self.ports.len() as u8;
        let bond = self
            .bonds
            .iter()
            .find(|(p, _)| *p == port)
            .map(|(_, b)| *b)
            .unwrap_or(PortBond {
                lane: netfpga_phy::Lane::ten_gbe(),
                lanes: 1,
            });
        self.ports.push(PortTap {
            outer_in,
            inner_in,
            inner_out,
            outer_out,
            rate,
            bond,
            lanes_lost: 0,
            down_until: Time::ZERO,
            stall_until: Time::ZERO,
            ber: 0.0,
            countdown_in: 0,
            countdown_out: 0,
            ge: None,
            ge_in: GeState::default(),
            ge_out: GeState::default(),
            was_down: false,
            busy_in: Time::ZERO,
            busy_out: Time::ZERO,
            pcs: None,
        });
    }

    /// Attach an event ring; link up/down and retrain transitions are
    /// published to it from then on. Telemetry only — forwarding,
    /// counters and the RNG sequence are untouched.
    pub fn set_event_ring(&mut self, ring: EventRing) {
        self.ring = Some(ring);
    }

    /// Attach a PCS retrain state machine to `port` (the recovery plane).
    /// From then on the injector publishes raw *signal* (down windows,
    /// lane losses) into the PCS every tick and defers to its link state
    /// for forwarding and pacing: a downed link re-acquires on its own
    /// after hold-down + retrain, and lane losses re-bond by policy. The
    /// PCS emits its own link transitions, so the injector stops emitting
    /// edge telemetry for this port. Register the [`PcsPort`] module on
    /// the same clock, *after* the injector.
    ///
    /// [`PcsPort`]: netfpga_phy::PcsPort
    pub fn attach_pcs(&mut self, port: usize, pcs: PcsHandle) {
        self.ports[port].pcs = Some(pcs);
    }

    fn emit(&self, kind: EventKind, port: u8, data: u32, at: Time) {
        if let Some(ring) = &self.ring {
            ring.push(Event {
                kind,
                port,
                data,
                at,
            });
        }
    }

    fn apply(&mut self, now: Time, kind: FaultKind) {
        match &kind {
            FaultKind::LinkDown { port, duration } => {
                if let Some(p) = self.ports.get_mut(usize::from(*port)) {
                    p.down_until = p.down_until.max(now + *duration);
                    self.counters.flaps.incr();
                }
            }
            FaultKind::SetBer { port, ber } => {
                if let Some(p) = self.ports.get_mut(usize::from(*port)) {
                    p.ge = None;
                    p.ber = *ber;
                    if *ber > 0.0 {
                        p.countdown_in = self.rng.geometric(*ber);
                        p.countdown_out = self.rng.geometric(*ber);
                    }
                }
            }
            FaultKind::SetGilbertElliott {
                port,
                good_ber,
                bad_ber,
                p_good_to_bad,
                p_bad_to_good,
            } => {
                assert!(
                    *p_good_to_bad > 0.0
                        && *p_good_to_bad < 1.0
                        && *p_bad_to_good > 0.0
                        && *p_bad_to_good < 1.0,
                    "GE transition probabilities must be in (0, 1)"
                );
                if let Some(p) = self.ports.get_mut(usize::from(*port)) {
                    let params = GeParams {
                        good_ber: *good_ber,
                        bad_ber: *bad_ber,
                        p_gb: *p_good_to_bad,
                        p_bg: *p_bad_to_good,
                    };
                    p.ber = 0.0;
                    p.ge = Some(params);
                    // Both directions start in the good state with fresh
                    // sojourn and error draws.
                    p.ge_in = Self::ge_enter(&mut self.rng, &params, false);
                    p.ge_out = Self::ge_enter(&mut self.rng, &params, false);
                }
            }
            FaultKind::LaneLoss { port, lanes_lost } => {
                if let Some(p) = self.ports.get_mut(usize::from(*port)) {
                    p.lanes_lost = *lanes_lost;
                    let has_pcs = p.pcs.is_some();
                    self.counters.lane_events.incr();
                    // A partial loss retrains onto the surviving bond; a
                    // full loss surfaces as the link-down edge instead.
                    // With a PCS attached the state machine publishes its
                    // own transitions once it sees the signal change.
                    if !has_pcs && *lanes_lost < p.bond.lanes {
                        let surviving = u32::from(p.bond.lanes - *lanes_lost);
                        self.emit(EventKind::Retrain, *port, surviving, now);
                    }
                }
            }
            FaultKind::LaneRestore { port } => {
                if let Some(p) = self.ports.get_mut(usize::from(*port)) {
                    let lanes = u32::from(p.bond.lanes);
                    let has_pcs = p.pcs.is_some();
                    p.lanes_lost = 0;
                    self.counters.lane_events.incr();
                    if !has_pcs {
                        self.emit(EventKind::LaneRestore, *port, lanes, now);
                    }
                }
            }
            FaultKind::StreamStall { port, duration } => {
                if let Some(p) = self.ports.get_mut(usize::from(*port)) {
                    p.stall_until = p.stall_until.max(now + *duration);
                }
            }
            FaultKind::DmaStall { duration } => self.gate.stall_until(now + *duration),
            FaultKind::DmaDrop { duration } => self.gate.drop_until(now + *duration),
            FaultKind::DmaWedge => self.gate.wedge(),
            FaultKind::MemFlip { memory, index, bit } => {
                let mems = self.shared.mems.borrow();
                let outcome = match mems.iter().position(|m| m.name == *memory) {
                    Some(mi) => {
                        let m = &mems[mi];
                        if m.mode == EccMode::Secded && self.shared.scrub_active.get() {
                            // With a scrubber attached the flip stays
                            // latent — genuinely corrupt — until the sweep
                            // reaches this word, which corrects it (or
                            // finds a double upset).
                            if m.mem.borrow_mut().flip_bit(*index, *bit) {
                                self.shared.latent.borrow_mut().push(LatentFlip {
                                    mem: mi,
                                    index: *index,
                                    bit: *bit,
                                    at: now,
                                });
                                if let Some(w) = &*self.shared.scrub_wake.borrow() {
                                    w.wake();
                                }
                                None
                            } else {
                                Some(FlipOutcome::Missed)
                            }
                        } else {
                            Some(inject_flip(&mut *m.mem.borrow_mut(), m.mode, *index, *bit))
                        }
                    }
                    None => Some(FlipOutcome::Missed),
                };
                match outcome {
                    // Latent SECDED flip: injected now, resolved at scrub.
                    None => self.counters.mem_injected.incr(),
                    Some(FlipOutcome::Missed) => self.counters.mem_missed.incr(),
                    Some(FlipOutcome::Silent) => {
                        self.counters.mem_injected.incr();
                        self.counters.mem_silent.incr();
                    }
                    Some(FlipOutcome::Detected) => {
                        self.counters.mem_injected.incr();
                        self.counters.mem_detected.incr();
                    }
                    Some(FlipOutcome::Corrected) => {
                        self.counters.mem_injected.incr();
                        self.counters.mem_corrected.incr();
                    }
                }
            }
        }
        self.counters.events_applied.incr();
        self.shared
            .trace
            .borrow_mut()
            .push(TraceEntry { at: now, kind });
    }

    /// Enter a Gilbert–Elliott state: draw the sojourn length (bits until
    /// the next transition) and the in-state error countdown.
    fn ge_enter(rng: &mut SimRng, p: &GeParams, bad: bool) -> GeState {
        let (leave_p, ber) = if bad {
            (p.p_bg, p.bad_ber)
        } else {
            (p.p_gb, p.good_ber)
        };
        GeState {
            bad,
            sojourn: rng.geometric(leave_p),
            countdown: if ber > 0.0 {
                rng.geometric(ber)
            } else {
                u64::MAX
            },
        }
    }

    /// Flip the given bit positions of `frame`, detectably: a tester
    /// frame with no FCS recorded gets its pristine CRC-32 stamped first
    /// (a MAC-stamped one takes it inside [`WireFrame::corrupt_data`]), so
    /// the receiving MAC's recheck over the flipped data mismatches. The
    /// copy-on-write leaves every sibling reference of the buffer (flood
    /// copies, mirrors) pristine.
    fn flip_bits(frame: &mut WireFrame, flips: &[u64]) {
        if frame.fcs == Fcs::Unchecked {
            frame.fcs = Fcs::Stale(crc32(&frame.data));
        }
        let data = frame.corrupt_data();
        for at in flips {
            data[(at / 8) as usize] ^= 1 << (at % 8);
        }
    }

    /// Run `bits` data bits of one frame through a Gilbert–Elliott
    /// channel, collecting the bit positions to flip. Returning positions
    /// instead of mutating in place lets the caller copy-on-write the
    /// (possibly shared) frame buffer only when something actually flips.
    fn ge_corrupt(
        rng: &mut SimRng,
        counters: &FaultCounters,
        bits: u64,
        st: &mut GeState,
        params: &GeParams,
    ) -> Vec<u64> {
        let mut pos = 0u64;
        let mut flips = Vec::new();
        while pos < bits {
            // Bits of this frame spent in the current state.
            let span = st.sojourn.min(bits - pos);
            let ber = if st.bad {
                params.bad_ber
            } else {
                params.good_ber
            };
            let mut consumed = 0u64;
            while ber > 0.0 && st.countdown <= span - consumed {
                let at = pos + consumed + st.countdown - 1;
                flips.push(at);
                counters.ber_flips.incr();
                consumed += st.countdown;
                st.countdown = rng.geometric(ber);
            }
            st.countdown = st.countdown.saturating_sub(span - consumed);
            st.sojourn -= span;
            pos += span;
            if st.sojourn == 0 {
                *st = Self::ge_enter(rng, params, !st.bad);
            }
        }
        flips
    }

    /// Forward one direction of one port, applying the active faults.
    fn forward(
        rng: &mut SimRng,
        counters: &FaultCounters,
        port: &mut PortTap,
        now: Time,
        inbound: bool,
    ) {
        let (from, to) = if inbound {
            (port.outer_in.clone(), port.inner_in.clone())
        } else {
            (port.inner_out.clone(), port.outer_out.clone())
        };
        while let Some(mut frame) = from.take_ready(now) {
            if port.down_at(now) {
                counters.link_down_drops.incr();
                continue;
            }
            if let Some(params) = port.ge {
                let st = if inbound {
                    &mut port.ge_in
                } else {
                    &mut port.ge_out
                };
                let bits = (frame.data.len() * 8) as u64;
                let flips = Self::ge_corrupt(rng, counters, bits, st, &params);
                if !flips.is_empty() {
                    Self::flip_bits(&mut frame, &flips);
                    counters.frames_corrupted.incr();
                }
            } else if port.ber > 0.0 {
                let bits = (frame.data.len() * 8) as u64;
                let countdown = if inbound {
                    &mut port.countdown_in
                } else {
                    &mut port.countdown_out
                };
                let mut pos = 0u64;
                let mut flips = Vec::new();
                while *countdown <= bits - pos {
                    let at = pos + *countdown - 1;
                    flips.push(at);
                    counters.ber_flips.incr();
                    pos = at + 1;
                    *countdown = rng.geometric(port.ber);
                    if pos >= bits {
                        break;
                    }
                }
                if pos < bits {
                    *countdown -= bits - pos;
                }
                if !flips.is_empty() {
                    Self::flip_bits(&mut frame, &flips);
                    counters.frames_corrupted.incr();
                }
            }
            if let Some(degraded) = port.degraded_rate() {
                // Re-serialize at the degraded bonded rate: the frame
                // cannot finish before its original arrival, nor while the
                // slower wire is still busy with the previous frame.
                let occupancy = degraded.time_for_bytes(wire_bytes(frame.data.len() as u64));
                let busy = if inbound {
                    &mut port.busy_in
                } else {
                    &mut port.busy_out
                };
                let ready_at = frame.ready_at.max(*busy).max(now) + occupancy;
                *busy = ready_at;
                frame.ready_at = ready_at;
            }
            to.push(frame);
        }
    }

    /// Every port idle: no runtime injections queued, no frames waiting on
    /// a drained wire, and no link-recovery work in flight.
    fn ports_idle(&self) -> bool {
        self.shared.runtime.borrow().is_empty()
            && self
                .ports
                .iter()
                .all(|p| p.outer_in.is_empty() && p.inner_out.is_empty())
            && self.ports.iter().all(|p| match &p.pcs {
                // A recovery-plane port is pending work from the moment
                // it goes down until its PCS has converged back: the
                // injector must keep publishing signal (the down window
                // expiring is a timed change only it can observe), and
                // recovery itself must complete at the exact same cycle
                // with fast-forward on or off.
                Some(pcs) => !p.was_down && pcs.converged(),
                // With an event ring attached, a down link is pending
                // work: the up-transition must be observed and published,
                // so the idle fast-forward must not skip over it.
                None => self.ring.is_none() || !p.was_down,
            })
    }
}

impl Module for FaultInjector {
    fn name(&self) -> &str {
        &self.label
    }

    fn tick(&mut self, ctx: &TickContext) {
        // 1. Scheduled events that have come due, then runtime injections.
        while self
            .events
            .get(self.next_event)
            .is_some_and(|e| e.at <= ctx.now)
        {
            let ev = self.events[self.next_event].clone();
            self.next_event += 1;
            self.apply(ctx.now, ev.kind);
        }
        loop {
            let kind = self.shared.runtime.borrow_mut().pop_front();
            match kind {
                Some(kind) => self.apply(ctx.now, kind),
                None => break,
            }
        }
        // 2. Publish medium state. Recovery-plane ports feed raw signal
        // into their PCS (which decides link state and emits transitions
        // itself); plain ports get edge-triggered link telemetry on the
        // event ring, if one is attached.
        for i in 0..self.ports.len() {
            if let Some(pcs) = &self.ports[i].pcs {
                pcs.set_signal_lanes(self.ports[i].signal_lanes_at(ctx.now));
                // Track pending work for quiescence: an *open down window*
                // counts as well as a down PCS. At the tick the window
                // opens the PCS has not dropped yet (it samples the signal
                // next tick), and while it sits converged-Down only this
                // module can observe the window expiring — so the window
                // itself must keep the injector ticking.
                let down = self.ports[i].down_at(ctx.now) || ctx.now < self.ports[i].down_until;
                self.ports[i].was_down = down;
            } else if self.ring.is_some() {
                let down = self.ports[i].down_at(ctx.now);
                if down != self.ports[i].was_down {
                    self.ports[i].was_down = down;
                    let kind = if down {
                        EventKind::LinkDown
                    } else {
                        EventKind::LinkUp
                    };
                    self.emit(kind, i as u8, 0, ctx.now);
                }
            }
        }
        // 3. Forward frames through every tapped port.
        for i in 0..self.ports.len() {
            let port = &mut self.ports[i];
            if ctx.now < port.stall_until {
                if !port.outer_in.is_empty() || !port.inner_out.is_empty() {
                    self.counters.stream_stall_ticks.incr();
                }
                continue;
            }
            Self::forward(&mut self.rng, &self.counters, port, ctx.now, true);
            Self::forward(&mut self.rng, &self.counters, port, ctx.now, false);
        }
    }

    fn reset(&mut self) {
        self.next_event = 0;
        self.rng = SimRng::new(self.seed);
        self.shared.runtime.borrow_mut().clear();
        self.shared.trace.borrow_mut().clear();
        self.shared.latent.borrow_mut().clear();
        self.shared.scrub_latencies.borrow_mut().clear();
        self.gate.clear();
        for p in &mut self.ports {
            p.lanes_lost = 0;
            p.down_until = Time::ZERO;
            p.stall_until = Time::ZERO;
            p.ber = 0.0;
            p.countdown_in = 0;
            p.countdown_out = 0;
            p.ge = None;
            p.ge_in = GeState::default();
            p.ge_out = GeState::default();
            p.was_down = false;
            p.busy_in = Time::ZERO;
            p.busy_out = Time::ZERO;
        }
    }

    /// With every port idle and only scheduled events left, a tick is a
    /// no-op until the next event comes due — so the kernel may skip the
    /// injector straight to that instant, but not over it: a pending
    /// event is time-dependent work, so only an exhausted plan is idle.
    fn activity(&self) -> Activity {
        if !self.ports_idle() {
            return Activity::Active;
        }
        self.events
            .get(self.next_event)
            .map_or(Activity::Quiescent, |ev| Activity::Bounded(ev.at))
    }

    /// External activity channels: runtime injections, and pushes onto the
    /// two wires each tap drains (tester-side ingress, MAC-side egress).
    /// PCS link-state changes need no wake: every PCS-dependent term of
    /// the classification is gated on `was_down`, which only this module's
    /// own tick updates.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

/// MMIO view of the fault counters (mount at [`FAULTS_BASE`]). Writes to
/// any offset clear every counter.
pub struct FaultRegisters {
    handle: FaultHandle,
}

impl FaultRegisters {
    /// A register block over `handle`'s counters.
    pub fn new(handle: FaultHandle) -> FaultRegisters {
        FaultRegisters { handle }
    }
}

impl RegisterSpace for FaultRegisters {
    fn read(&mut self, offset: u32) -> u32 {
        let c = &self.handle.counters;
        let v = match offset {
            faultregs::EVENTS_APPLIED => c.events_applied.get(),
            faultregs::LINK_DOWN_DROPS => c.link_down_drops.get(),
            faultregs::FRAMES_CORRUPTED => c.frames_corrupted.get(),
            faultregs::BER_FLIPS => c.ber_flips.get(),
            faultregs::LANE_EVENTS => c.lane_events.get(),
            faultregs::STREAM_STALL_TICKS => c.stream_stall_ticks.get(),
            faultregs::DMA_STALLED_TICKS => self.handle.gate.counters().stalled_ticks.get(),
            faultregs::DMA_DROPPED => self.handle.gate.dropped(),
            faultregs::MEM_INJECTED => c.mem_injected.get(),
            faultregs::MEM_CORRECTED => c.mem_corrected.get(),
            faultregs::MEM_DETECTED => c.mem_detected.get(),
            faultregs::MEM_SILENT => c.mem_silent.get(),
            faultregs::MEM_MISSED => c.mem_missed.get(),
            faultregs::MEM_DOUBLE => c.mem_double.get(),
            _ => return netfpga_core::regs::UNMAPPED_READ,
        };
        v as u32
    }

    fn write(&mut self, _offset: u32, _value: u32) {
        let c = &self.handle.counters;
        c.events_applied.clear();
        c.flaps.clear();
        c.link_down_drops.clear();
        c.frames_corrupted.clear();
        c.ber_flips.clear();
        c.lane_events.clear();
        c.stream_stall_ticks.clear();
        c.mem_injected.clear();
        c.mem_corrected.clear();
        c.mem_detected.clear();
        c.mem_silent.clear();
        c.mem_missed.clear();
        c.mem_double.clear();
        self.handle.gate.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::sim::Simulator;
    use netfpga_core::time::Frequency;
    use netfpga_mem::Bram;

    fn harness(plan: FaultPlan) -> (Simulator, FaultHandle, Wire, Wire) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (mut inj, handle) = FaultInjector::new("faults", &plan);
        let outer_in = Wire::new();
        let inner_in = Wire::new();
        let inner_out = Wire::new();
        let outer_out = Wire::new();
        inj.tap_port(
            BitRate::gbps(10),
            outer_in.clone(),
            inner_in.clone(),
            inner_out,
            outer_out,
        );
        sim.add_module(clk, inj);
        (sim, handle, outer_in, inner_in)
    }

    fn frame_at(len: usize, ready_at: Time) -> WireFrame {
        WireFrame::new(vec![0xA5; len], ready_at)
    }

    #[test]
    fn clean_plan_forwards_untouched() {
        let (mut sim, handle, outer, inner) = harness(FaultPlan::new(1));
        outer.push(frame_at(100, Time::from_ns(50)));
        sim.run_until(Time::from_us(1));
        let got = inner.take_ready(Time::from_us(1)).expect("forwarded");
        assert_eq!(got.data, vec![0xA5; 100]);
        assert_eq!(got.fcs(), None, "untouched frames keep their FCS state");
        assert_eq!(handle.counters().frames_corrupted.get(), 0);
    }

    #[test]
    fn link_down_window_drops_and_counts() {
        let plan = FaultPlan::new(2).at(
            Time::ZERO,
            FaultKind::LinkDown {
                port: 0,
                duration: Time::from_us(2),
            },
        );
        let (mut sim, handle, outer, inner) = harness(plan);
        outer.push(frame_at(100, Time::from_ns(100)));
        sim.run_until(Time::from_us(1));
        assert!(inner.take_ready(Time::from_us(1)).is_none());
        assert_eq!(handle.counters().link_down_drops.get(), 1);
        // After the window the link is back.
        outer.push(frame_at(100, Time::from_us(3)));
        sim.run_until(Time::from_us(4));
        assert!(inner.take_ready(Time::from_us(4)).is_some());
        assert_eq!(handle.counters().link_down_drops.get(), 1);
    }

    #[test]
    fn ber_corrupts_detectably_and_deterministically() {
        let run = |seed| {
            let plan = FaultPlan {
                seed,
                ..FaultPlan::new(seed)
            }
            .at(Time::ZERO, FaultKind::SetBer { port: 0, ber: 0.01 });
            let (mut sim, handle, outer, inner) = harness(plan);
            for i in 0..20u64 {
                outer.push(frame_at(100, Time::from_ns(100 * (i + 1))));
            }
            sim.run_until(Time::from_us(10));
            let mut datas = Vec::new();
            while let Some(f) = inner.take_ready(Time::from_us(10)) {
                // Any corrupted frame carries a pristine-FCS stamp that no
                // longer matches its data.
                if f.data != vec![0xA5; 100] {
                    let fcs = f.fcs().expect("corrupted frame must carry FCS");
                    assert!(!netfpga_packet::fcs::verify(&f.data, fcs));
                }
                datas.push(f.data);
            }
            (datas, handle.counters().ber_flips.get(), handle.trace())
        };
        let (a_data, a_flips, a_trace) = run(42);
        let (b_data, b_flips, b_trace) = run(42);
        let (c_data, ..) = run(43);
        assert!(a_flips > 0, "1% BER over 16k bits must flip something");
        assert_eq!(a_data, b_data, "same seed, same corruption");
        assert_eq!(a_flips, b_flips);
        assert_eq!(a_trace, b_trace);
        assert_ne!(a_data, c_data, "different seed, different corruption");
    }

    #[test]
    fn lane_loss_repaces_and_full_loss_is_down() {
        let plan = FaultPlan::new(3).bond(0, PortBond::ethernet_40g()).at(
            Time::ZERO,
            FaultKind::LaneLoss {
                port: 0,
                lanes_lost: 2,
            },
        );
        let (mut sim, handle, outer, inner) = harness(plan);
        // 1000 bytes at the tap at t=1ns: at the full 10G rate it has
        // already been paced by the sender; the degraded 2-of-4-lane wire
        // re-serializes it at 5G => +(1024B * 8 / 5G) = +1638.4ns.
        outer.push(frame_at(1000, Time::from_ns(1)));
        sim.run_until(Time::from_us(4));
        let f = inner
            .take_ready(Time::from_us(4))
            .expect("degraded, not dropped");
        assert!(
            f.ready_at > Time::from_ns(1600),
            "re-paced at the degraded rate, got {:?}",
            f.ready_at
        );
        assert_eq!(handle.counters().lane_events.get(), 1);
        // Now lose everything: the port is down and drops.
        handle.inject(FaultKind::LaneLoss {
            port: 0,
            lanes_lost: 4,
        });
        outer.push(frame_at(100, Time::from_us(5)));
        sim.run_until(Time::from_us(6));
        assert!(inner.take_ready(Time::from_us(6)).is_none());
        assert_eq!(handle.counters().link_down_drops.get(), 1);
        // Restore: traffic flows again at full rate.
        handle.inject(FaultKind::LaneRestore { port: 0 });
        outer.push(frame_at(100, Time::from_us(7)));
        sim.run_until(Time::from_us(8));
        let f = inner.take_ready(Time::from_us(8)).expect("restored");
        assert_eq!(f.ready_at, Time::from_us(7), "full-rate pacing preserved");
    }

    #[test]
    fn stream_stall_holds_then_releases_without_loss() {
        let plan = FaultPlan::new(4).at(
            Time::ZERO,
            FaultKind::StreamStall {
                port: 0,
                duration: Time::from_us(2),
            },
        );
        let (mut sim, handle, outer, inner) = harness(plan);
        outer.push(frame_at(100, Time::from_ns(100)));
        sim.run_until(Time::from_us(1));
        assert!(
            inner.take_ready(Time::from_us(1)).is_none(),
            "held by the stall"
        );
        assert!(handle.counters().stream_stall_ticks.get() > 0);
        sim.run_until(Time::from_us(3));
        assert!(
            inner.take_ready(Time::from_us(3)).is_some(),
            "released, not lost"
        );
        assert_eq!(handle.counters().link_down_drops.get(), 0);
    }

    #[test]
    fn mem_flip_routes_through_registered_memory() {
        let (mut sim, handle, _outer, _inner) = harness(FaultPlan::new(5));
        let bram: Rc<RefCell<Bram<u64>>> = Rc::new(RefCell::new(Bram::new(8)));
        bram.borrow_mut().write(2, 0xff);
        handle.register_memory("lookup_bram", EccMode::Parity, bram.clone());
        handle.inject(FaultKind::MemFlip {
            memory: "lookup_bram".into(),
            index: 2,
            bit: 0,
        });
        handle.inject(FaultKind::MemFlip {
            memory: "nonexistent".into(),
            index: 0,
            bit: 0,
        });
        sim.run_until(Time::from_ns(100));
        assert_eq!(*bram.borrow().peek(2), 0xfe);
        assert_eq!(handle.counters().mem_detected.get(), 1);
        assert_eq!(handle.counters().mem_missed.get(), 1);
        assert_eq!(handle.trace().len(), 2);
    }

    #[test]
    fn pending_event_blocks_quiescence() {
        let plan = FaultPlan::new(6).at(
            Time::from_us(100),
            FaultKind::LinkDown {
                port: 0,
                duration: Time::from_us(1),
            },
        );
        let (mut inj, _handle) = FaultInjector::new("faults", &plan);
        inj.tap_port(
            BitRate::gbps(10),
            Wire::new(),
            Wire::new(),
            Wire::new(),
            Wire::new(),
        );
        assert_eq!(
            inj.activity(),
            Activity::Bounded(Time::from_us(100)),
            "scheduled fault is pending work"
        );
        inj.tick(&TickContext {
            now: Time::from_us(100),
            cycle: 0,
            period: Time::from_ns(5),
        });
        assert_eq!(inj.activity(), Activity::Quiescent, "applied and idle");
    }

    #[test]
    fn reset_rearms_the_plan() {
        let plan = FaultPlan::new(7).at(
            Time::ZERO,
            FaultKind::LinkDown {
                port: 0,
                duration: Time::from_ns(10),
            },
        );
        let (mut inj, handle) = FaultInjector::new("faults", &plan);
        inj.tap_port(
            BitRate::gbps(10),
            Wire::new(),
            Wire::new(),
            Wire::new(),
            Wire::new(),
        );
        inj.tick(&TickContext {
            now: Time::ZERO,
            cycle: 0,
            period: Time::from_ns(5),
        });
        assert_eq!(handle.trace().len(), 1);
        assert_eq!(inj.activity(), Activity::Quiescent);
        inj.reset();
        assert_eq!(
            inj.activity(),
            Activity::Bounded(Time::ZERO),
            "plan re-armed after reset"
        );
        assert!(handle.trace().is_empty());
    }

    /// Satellite: at a matched *average* BER, the Gilbert–Elliott burst
    /// channel clusters errors into far fewer frames than the i.i.d.
    /// geometric process — the FCS-failure clustering real optics show.
    #[test]
    fn gilbert_elliott_clusters_errors_vs_iid() {
        // GE: quiet good state; bad bursts of mean 1/p_bg = 333 bits at
        // 5% BER. Stationary bad fraction = p_gb/(p_gb+p_bg) ≈ 0.004, so
        // the average BER ≈ 0.05 * 0.004 = 2e-4 — matched by the i.i.d.
        // process below.
        let (p_gb, p_bg, bad_ber) = (1.2e-5, 3e-3, 0.05);
        let avg_ber = bad_ber * p_gb / (p_gb + p_bg);
        let run = |kind: FaultKind| {
            let plan = FaultPlan::new(0x6E11).at(Time::ZERO, kind);
            let (mut sim, handle, outer, inner) = harness(plan);
            for i in 0..200u64 {
                outer.push(frame_at(1000, Time::from_ns(900 * (i + 1))));
            }
            sim.run_until(Time::from_us(400));
            while inner.take_ready(Time::from_us(400)).is_some() {}
            (
                handle.counters().frames_corrupted.get(),
                handle.counters().ber_flips.get(),
            )
        };
        let (iid_frames, iid_flips) = run(FaultKind::SetBer {
            port: 0,
            ber: avg_ber,
        });
        let (ge_frames, ge_flips) = run(FaultKind::SetGilbertElliott {
            port: 0,
            good_ber: 0.0,
            bad_ber,
            p_good_to_bad: p_gb,
            p_bad_to_good: p_bg,
        });
        // Comparable total error mass (both processes at ~2e-4 avg BER
        // over 1.6M bits ⇒ ~320 flips each)…
        assert!(
            iid_flips > 100 && ge_flips > 100,
            "iid {iid_flips} ge {ge_flips}"
        );
        assert!(
            ge_flips * 3 > iid_flips && iid_flips * 3 > ge_flips,
            "matched average: iid {iid_flips} vs ge {ge_flips}"
        );
        // …but concentrated in far fewer frames…
        assert!(
            ge_frames * 2 < iid_frames,
            "bursts must cluster: ge {ge_frames} frames vs iid {iid_frames}"
        );
        // …at a much higher per-frame error density.
        let iid_density = iid_flips as f64 / iid_frames as f64;
        let ge_density = ge_flips as f64 / ge_frames as f64;
        assert!(
            ge_density > 3.0 * iid_density,
            "ge {ge_density:.1} flips/frame vs iid {iid_density:.1}"
        );
    }

    /// GE corruption is seed-deterministic and detectable (pristine FCS
    /// rides along), and `SetBer` switches the port back to i.i.d.
    #[test]
    fn gilbert_elliott_is_deterministic_and_detectable() {
        let run = || {
            let plan = FaultPlan::new(99).at(
                Time::ZERO,
                FaultKind::SetGilbertElliott {
                    port: 0,
                    good_ber: 0.0,
                    bad_ber: 0.05,
                    p_good_to_bad: 1e-4,
                    p_bad_to_good: 3e-3,
                },
            );
            let (mut sim, handle, outer, inner) = harness(plan);
            for i in 0..50u64 {
                outer.push(frame_at(500, Time::from_ns(500 * (i + 1))));
            }
            sim.run_until(Time::from_us(100));
            let mut datas = Vec::new();
            while let Some(f) = inner.take_ready(Time::from_us(100)) {
                if f.data != vec![0xA5; 500] {
                    let fcs = f.fcs().expect("corrupted frame must carry FCS");
                    assert!(!netfpga_packet::fcs::verify(&f.data, fcs));
                }
                datas.push(f.data);
            }
            (datas, handle.counters().ber_flips.get(), handle.clone())
        };
        let (a, a_flips, handle) = run();
        let (b, b_flips, _) = run();
        assert!(a_flips > 0, "bursts must land inside 50 frames");
        assert_eq!(a, b, "same seed, same burst corruption");
        assert_eq!(a_flips, b_flips);
        // Back to i.i.d. off: clean forwarding again.
        handle.inject(FaultKind::SetBer { port: 0, ber: 0.0 });
    }

    /// An attached event ring sees the link-down and link-up edges of a
    /// flap, plus retrain/restore transitions for partial lane loss.
    #[test]
    fn event_ring_sees_link_transitions() {
        use netfpga_core::telemetry::{EventKind, EventRing};
        let plan = FaultPlan::new(11)
            .bond(0, netfpga_phy::PortBond::ethernet_40g())
            .at(
                Time::from_ns(100),
                FaultKind::LinkDown {
                    port: 0,
                    duration: Time::from_us(1),
                },
            );
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (mut inj, handle) = FaultInjector::new("faults", &plan);
        inj.tap_port(
            BitRate::gbps(10),
            Wire::new(),
            Wire::new(),
            Wire::new(),
            Wire::new(),
        );
        let ring = EventRing::new(16);
        inj.set_event_ring(ring.clone());
        sim.add_module(clk, inj);

        sim.run_until(Time::from_us(5));
        let kinds: Vec<EventKind> = ring.pending().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [EventKind::LinkDown, EventKind::LinkUp],
            "one full flap"
        );
        assert!(ring.pending()[0].at < ring.pending()[1].at);
        assert_eq!(handle.counters().flaps.get(), 1);

        // Partial lane loss retrains; restore is announced too.
        handle.inject(FaultKind::LaneLoss {
            port: 0,
            lanes_lost: 2,
        });
        handle.inject(FaultKind::LaneRestore { port: 0 });
        sim.run_until(Time::from_us(6));
        let kinds: Vec<EventKind> = ring.pending().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::LinkDown,
                EventKind::LinkUp,
                EventKind::Retrain,
                EventKind::LaneRestore
            ]
        );
        assert_eq!(ring.pending()[2].data, 2, "surviving lanes");
    }

    #[test]
    fn registers_expose_and_clear_counters() {
        let (_sim, handle, _outer, _inner) = harness(FaultPlan::new(8));
        handle.counters().ber_flips.add(5);
        handle.counters().link_down_drops.add(2);
        let mut regs = FaultRegisters::new(handle);
        assert_eq!(regs.read(faultregs::BER_FLIPS), 5);
        assert_eq!(regs.read(faultregs::LINK_DOWN_DROPS), 2);
        assert_eq!(regs.read(0xffc), netfpga_core::regs::UNMAPPED_READ);
        regs.write(0, 0);
        assert_eq!(regs.read(faultregs::BER_FLIPS), 0);
    }
}
