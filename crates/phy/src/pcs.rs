//! PCS/SerDes link-training state machine: autonomous `Up → Down →
//! Aligning → Up` recovery with lane re-bonding and re-join hysteresis.
//!
//! A real SUME port does not wait for anyone to "restore" it: when signal
//! returns after a flap, the PCS block re-acquires symbol lock and block
//! alignment on its own, after a training time set by the standard and the
//! optics. This module models that loop as hardware would see it:
//!
//! * The *medium* (in this platform, the fault plane) publishes how many
//!   lanes currently carry signal via [`PcsHandle::set_signal_lanes`].
//! * [`PcsPort`] — one per front-panel port, driven as a simulation
//!   [`Module`] — runs the state machine against that signal:
//!   * **signal lost** on any bonded lane → `Up → Down` immediately;
//!   * **signal back** (on however many lanes survive) → hold-down for
//!     [`PcsConfig::holddown_cycles`], then `Down → Aligning` for
//!     [`PcsConfig::retrain_cycles`], then `Aligning → Up` with the bond
//!     re-formed over the surviving lanes ([`PortBond::degrade`]
//!     arithmetic lives in the consumer);
//!   * **lanes restored** while up at a degraded bond → they must stay
//!     good for [`PcsConfig::rejoin_cycles`] before the port retrains
//!     onto the wider bond (hysteresis: a flapping lane resets the
//!     countdown every dip, so it can never thrash the working link).
//!
//! Transitions are published to an optional
//! [`EventRing`] and counted through
//! [`PcsCounters`], which a chassis registers under `portN.pcs.*`.
//!
//! [`PortBond::degrade`]: crate::serdes::PortBond::degrade

use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stats::Counter;
use netfpga_core::telemetry::{Event, EventKind, EventRing, StatRegistry};
use std::cell::RefCell;
use std::rc::Rc;

/// Externally observable PCS link state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// No usable link: signal absent, or present but still in hold-down.
    Down,
    /// Signal present; block alignment / training in progress.
    Aligning,
    /// Link usable; [`PcsHandle::bonded_lanes`] lanes carry data.
    Up,
}

impl LinkState {
    /// Stable numeric encoding (for gauges and registers): `Down` = 0,
    /// `Aligning` = 1, `Up` = 2.
    pub fn code(self) -> u64 {
        match self {
            LinkState::Down => 0,
            LinkState::Aligning => 1,
            LinkState::Up => 2,
        }
    }
}

/// Timing knobs of one port's PCS, all in core-clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcsConfig {
    /// Cycles spent in `Aligning` before the link comes up.
    pub retrain_cycles: u64,
    /// Cycles signal must be continuously present while `Down` before
    /// training starts (debounce; restarts whenever signal drops again).
    pub holddown_cycles: u64,
    /// Cycles restored lanes must stay good before a degraded bond
    /// retrains onto them (re-join hysteresis).
    pub rejoin_cycles: u64,
}

impl Default for PcsConfig {
    fn default() -> PcsConfig {
        PcsConfig {
            retrain_cycles: 2000,
            holddown_cycles: 400,
            rejoin_cycles: 4000,
        }
    }
}

/// Transition counters of one PCS, surfaced under `portN.pcs.*`.
#[derive(Debug, Clone, Default)]
pub struct PcsCounters {
    /// `Up → Down` transitions (signal lost on a bonded lane).
    pub downs: Counter,
    /// Alignments completed (`Aligning → Up`).
    pub retrains: Counter,
    /// Alignments that came up on a *degraded* bond (fewer lanes than
    /// the port owns).
    pub rebonds: Counter,
    /// Re-join hysteresis countdowns that completed (restored lanes
    /// folded back into the bond).
    pub rejoins: Counter,
}

impl PcsCounters {
    /// Register every counter on `registry` under `prefix` (e.g.
    /// `port0.pcs`).
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.downs"), &self.downs);
        registry.register_counter(&format!("{prefix}.retrains"), &self.retrains);
        registry.register_counter(&format!("{prefix}.rebonds"), &self.rebonds);
        registry.register_counter(&format!("{prefix}.rejoins"), &self.rejoins);
    }
}

struct PcsShared {
    /// Lanes currently carrying signal, as published by the medium.
    signal_lanes: u8,
    /// Lanes the port owns.
    total_lanes: u8,
    state: LinkState,
    /// Lanes in the active bond (meaningful while `Up`).
    bonded_lanes: u8,
    /// The owning [`PcsPort`]'s activity-cache flag, woken when the medium
    /// publishes a *changed* signal (unchanged publishes keep the cache).
    wake: WakeHandle,
}

/// Cloneable handle onto one port's PCS: the medium writes the signal
/// state, consumers read link state and the active bond width.
#[derive(Clone)]
pub struct PcsHandle {
    inner: Rc<RefCell<PcsShared>>,
    counters: PcsCounters,
}

impl PcsHandle {
    /// Publish the number of lanes currently carrying signal (the medium —
    /// fault plane or link model — calls this every tick it changes state).
    pub fn set_signal_lanes(&self, lanes: u8) {
        let mut s = self.inner.borrow_mut();
        let lanes = lanes.min(s.total_lanes);
        if s.signal_lanes != lanes {
            s.signal_lanes = lanes;
            s.wake.wake();
        }
    }

    /// Lanes currently carrying signal.
    pub fn signal_lanes(&self) -> u8 {
        self.inner.borrow().signal_lanes
    }

    /// Current link state.
    pub fn state(&self) -> LinkState {
        self.inner.borrow().state
    }

    /// True when the link is `Up` (data may flow).
    pub fn is_up(&self) -> bool {
        self.state() == LinkState::Up
    }

    /// Lanes in the active bond (meaningful while `Up`).
    pub fn bonded_lanes(&self) -> u8 {
        self.inner.borrow().bonded_lanes
    }

    /// Lanes the port owns.
    pub fn total_lanes(&self) -> u8 {
        self.inner.borrow().total_lanes
    }

    /// True when the state machine has nothing left to do for the current
    /// signal: `Up` with the bond matching the signal, or `Down` with no
    /// signal at all. Any other combination has a timer running.
    pub fn converged(&self) -> bool {
        let s = self.inner.borrow();
        match s.state {
            LinkState::Up => s.bonded_lanes == s.signal_lanes,
            LinkState::Down => s.signal_lanes == 0,
            LinkState::Aligning => false,
        }
    }

    /// The transition counters.
    pub fn counters(&self) -> &PcsCounters {
        &self.counters
    }
}

/// One port's PCS/SerDes retrain state machine, driven as a simulation
/// [`Module`] on the core clock.
pub struct PcsPort {
    label: String,
    port: u8,
    config: PcsConfig,
    inner: Rc<RefCell<PcsShared>>,
    counters: PcsCounters,
    ring: Option<EventRing>,
    /// Cycles left in the current hold-down or alignment phase.
    timer: u64,
    /// Re-join hysteresis countdown (runs while `Up` with spare signal
    /// lanes; 0 = not armed).
    rejoin_timer: u64,
    /// Lane count being aligned (the bond width on completion).
    target: u8,
}

impl PcsPort {
    /// A PCS for front-panel `port` owning `lanes` lanes, initially `Up`
    /// with the full bond and full signal.
    pub fn new(name: &str, port: u8, lanes: u8, config: PcsConfig) -> (PcsPort, PcsHandle) {
        let lanes = lanes.max(1);
        let inner = Rc::new(RefCell::new(PcsShared {
            signal_lanes: lanes,
            total_lanes: lanes,
            state: LinkState::Up,
            bonded_lanes: lanes,
            wake: WakeHandle::new(),
        }));
        let counters = PcsCounters::default();
        let handle = PcsHandle {
            inner: inner.clone(),
            counters: counters.clone(),
        };
        (
            PcsPort {
                label: name.to_string(),
                port,
                config,
                inner,
                counters,
                ring: None,
                timer: 0,
                rejoin_timer: 0,
                target: lanes,
            },
            handle,
        )
    }

    /// Attach an event ring; every state transition is published to it
    /// from then on (telemetry only).
    pub fn set_event_ring(&mut self, ring: EventRing) {
        self.ring = Some(ring);
    }

    fn emit(&self, kind: EventKind, data: u32, at: netfpga_core::time::Time) {
        if let Some(ring) = &self.ring {
            ring.push(Event {
                kind,
                port: self.port,
                data,
                at,
            });
        }
    }
}

impl Module for PcsPort {
    fn name(&self) -> &str {
        &self.label
    }

    fn tick(&mut self, ctx: &TickContext) {
        let signal = self.inner.borrow().signal_lanes;
        let state = self.inner.borrow().state;
        match state {
            LinkState::Up => {
                let bonded = self.inner.borrow().bonded_lanes;
                if signal < bonded {
                    // A bonded lane lost signal: the link drops at once and
                    // hold-down starts (it only counts down while signal is
                    // present, which the Down arm enforces).
                    let mut s = self.inner.borrow_mut();
                    s.state = LinkState::Down;
                    drop(s);
                    self.timer = self.config.holddown_cycles;
                    self.rejoin_timer = 0;
                    self.counters.downs.incr();
                    self.emit(EventKind::LinkDown, u32::from(signal), ctx.now);
                } else if signal > bonded {
                    // Restored lanes: hysteresis before retraining onto the
                    // wider bond. Any dip back to the bonded count resets
                    // the countdown (the `else` arm below).
                    if self.rejoin_timer == 0 {
                        self.rejoin_timer = self.config.rejoin_cycles.max(1);
                    }
                    self.rejoin_timer -= 1;
                    if self.rejoin_timer == 0 {
                        self.target = signal;
                        self.timer = self.config.retrain_cycles.max(1);
                        self.inner.borrow_mut().state = LinkState::Aligning;
                        self.counters.rejoins.incr();
                        self.emit(EventKind::Retrain, u32::from(signal), ctx.now);
                    }
                } else {
                    self.rejoin_timer = 0;
                }
            }
            LinkState::Down => {
                if signal == 0 {
                    // Dark: hold-down restarts when light returns.
                    self.timer = self.config.holddown_cycles;
                } else {
                    if self.timer > 0 {
                        self.timer -= 1;
                    }
                    if self.timer == 0 {
                        self.target = signal;
                        self.timer = self.config.retrain_cycles.max(1);
                        self.inner.borrow_mut().state = LinkState::Aligning;
                        self.emit(EventKind::Retrain, u32::from(signal), ctx.now);
                    }
                }
            }
            LinkState::Aligning => {
                if signal < self.target {
                    // Signal degraded mid-train: back to hold-down.
                    self.inner.borrow_mut().state = LinkState::Down;
                    self.timer = self.config.holddown_cycles;
                } else {
                    self.timer -= 1;
                    if self.timer == 0 {
                        let mut s = self.inner.borrow_mut();
                        s.state = LinkState::Up;
                        s.bonded_lanes = self.target;
                        let (target, total) = (self.target, s.total_lanes);
                        drop(s);
                        self.counters.retrains.incr();
                        if target < total {
                            self.counters.rebonds.incr();
                        }
                        self.emit(EventKind::LinkUp, u32::from(target), ctx.now);
                    }
                }
            }
        }
    }

    fn reset(&mut self) {
        let mut s = self.inner.borrow_mut();
        s.state = LinkState::Up;
        s.bonded_lanes = s.total_lanes;
        s.signal_lanes = s.total_lanes;
        drop(s);
        self.timer = 0;
        self.rejoin_timer = 0;
        self.target = self.inner.borrow().total_lanes;
    }

    fn activity(&self) -> Activity {
        // Converged states are stable until the *signal* changes, and the
        // medium publishing a new signal is itself a non-quiescent tick
        // that wakes the simulation; every timed phase must tick.
        let s = self.inner.borrow();
        Activity::idle_if(match s.state {
            LinkState::Up => s.bonded_lanes == s.signal_lanes,
            LinkState::Down => s.signal_lanes == 0,
            LinkState::Aligning => false,
        })
    }

    /// Only a changed signal publication can alter a converged PCS's
    /// activity from outside; every internal transition happens on a tick.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.inner.borrow().wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::time::Time;

    fn tick_n(pcs: &mut PcsPort, n: u64, start_cycle: u64) -> u64 {
        for i in 0..n {
            let c = start_cycle + i;
            pcs.tick(&TickContext {
                now: Time::from_ns(5 * c),
                cycle: c,
                period: Time::from_ns(5),
            });
        }
        start_cycle + n
    }

    fn cfg() -> PcsConfig {
        PcsConfig {
            retrain_cycles: 10,
            holddown_cycles: 4,
            rejoin_cycles: 6,
        }
    }

    #[test]
    fn flap_retrains_after_holddown_plus_retrain() {
        let (mut pcs, h) = PcsPort::new("pcs0", 0, 1, cfg());
        assert_eq!(h.state(), LinkState::Up);
        h.set_signal_lanes(0);
        let c = tick_n(&mut pcs, 1, 0);
        assert_eq!(h.state(), LinkState::Down);
        assert_eq!(h.counters().downs.get(), 1);
        // Dark ticks do not count toward hold-down.
        let c = tick_n(&mut pcs, 20, c);
        assert_eq!(h.state(), LinkState::Down);
        // Light returns: hold-down (4) then aligning (10) then up.
        h.set_signal_lanes(1);
        let c = tick_n(&mut pcs, 4, c);
        assert_eq!(h.state(), LinkState::Aligning, "hold-down elapsed");
        let c = tick_n(&mut pcs, 9, c);
        assert_eq!(h.state(), LinkState::Aligning);
        tick_n(&mut pcs, 1, c);
        assert_eq!(h.state(), LinkState::Up);
        assert_eq!(h.counters().retrains.get(), 1);
        assert_eq!(h.counters().rebonds.get(), 0);
        assert!(h.converged());
    }

    #[test]
    fn lane_loss_rebonds_onto_survivors_and_rejoins_with_hysteresis() {
        let (mut pcs, h) = PcsPort::new("pcs0", 0, 4, cfg());
        h.set_signal_lanes(2); // two lanes die
        let c = tick_n(&mut pcs, 1, 0);
        assert_eq!(h.state(), LinkState::Down, "bond broken");
        let c = tick_n(&mut pcs, 4 + 10, c);
        assert_eq!(h.state(), LinkState::Up);
        assert_eq!(h.bonded_lanes(), 2, "re-bonded onto survivors");
        assert_eq!(h.counters().rebonds.get(), 1);
        // Lanes restored: nothing happens until the hysteresis elapses.
        h.set_signal_lanes(4);
        let c = tick_n(&mut pcs, 5, c);
        assert_eq!(h.state(), LinkState::Up);
        assert_eq!(h.bonded_lanes(), 2, "still on the degraded bond");
        let c = tick_n(&mut pcs, 1, c);
        assert_eq!(h.state(), LinkState::Aligning, "re-join retrain started");
        tick_n(&mut pcs, 10, c);
        assert_eq!(h.state(), LinkState::Up);
        assert_eq!(h.bonded_lanes(), 4);
        assert_eq!(h.counters().rejoins.get(), 1);
    }

    #[test]
    fn flapping_lane_cannot_thrash_the_bond() {
        let (mut pcs, h) = PcsPort::new("pcs0", 0, 4, cfg());
        h.set_signal_lanes(3);
        let mut c = tick_n(&mut pcs, 1 + 4 + 10, 0);
        assert_eq!((h.state(), h.bonded_lanes()), (LinkState::Up, 3));
        // The lost lane flaps: up for less than the hysteresis, down, up…
        for _ in 0..5 {
            h.set_signal_lanes(4);
            c = tick_n(&mut pcs, 4, c); // < rejoin_cycles
            h.set_signal_lanes(3);
            c = tick_n(&mut pcs, 2, c);
        }
        assert_eq!(
            (h.state(), h.bonded_lanes()),
            (LinkState::Up, 3),
            "bond untouched"
        );
        assert_eq!(h.counters().rejoins.get(), 0);
        assert_eq!(h.counters().downs.get(), 1, "only the original loss");
    }

    #[test]
    fn signal_drop_mid_alignment_restarts_holddown() {
        let (mut pcs, h) = PcsPort::new("pcs0", 0, 1, cfg());
        h.set_signal_lanes(0);
        let c = tick_n(&mut pcs, 1, 0);
        h.set_signal_lanes(1);
        let c = tick_n(&mut pcs, 4 + 3, c); // into alignment
        assert_eq!(h.state(), LinkState::Aligning);
        h.set_signal_lanes(0);
        let c = tick_n(&mut pcs, 1, c);
        assert_eq!(h.state(), LinkState::Down, "alignment abandoned");
        h.set_signal_lanes(1);
        tick_n(&mut pcs, 4 + 10, c);
        assert_eq!(h.state(), LinkState::Up);
    }

    #[test]
    fn transitions_reach_the_event_ring() {
        use netfpga_core::telemetry::EventRing;
        let (mut pcs, h) = PcsPort::new("pcs0", 0, 4, cfg());
        let ring = EventRing::new(16);
        pcs.set_event_ring(ring.clone());
        h.set_signal_lanes(2);
        tick_n(&mut pcs, 1 + 4 + 10, 0);
        let kinds: Vec<EventKind> = ring.pending().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [EventKind::LinkDown, EventKind::Retrain, EventKind::LinkUp]
        );
        assert_eq!(ring.pending()[2].data, 2, "bond width on the up event");
    }

    #[test]
    fn quiescent_only_when_converged() {
        let (mut pcs, h) = PcsPort::new("pcs0", 0, 2, cfg());
        assert_eq!(
            pcs.activity(),
            Activity::Quiescent,
            "fresh port is up and converged"
        );
        h.set_signal_lanes(0);
        assert_eq!(
            pcs.activity(),
            Activity::Active,
            "state lags signal: must tick"
        );
        let c = tick_n(&mut pcs, 1, 0);
        assert_eq!(
            pcs.activity(),
            Activity::Quiescent,
            "down and dark is stable"
        );
        h.set_signal_lanes(2);
        assert_eq!(pcs.activity(), Activity::Active, "hold-down pending");
        tick_n(&mut pcs, 4 + 10, c);
        assert_eq!(pcs.activity(), Activity::Quiescent);
        assert_eq!(h.state(), LinkState::Up);
    }
}
