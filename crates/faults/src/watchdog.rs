//! The hardware watchdog: last-resort recovery for wedged engines.
//!
//! Timeout/retry in the host driver recovers from *transient* faults — a
//! stall window expires, a re-post goes through. A **wedge** (hung DMA
//! descriptor fetch, a PCIe deadlock) never expires: pending work sits
//! forever and every retry lands behind it. Real boards carry a hardware
//! watchdog for exactly this case, and so does this plane.
//!
//! A [`Watchdog`] monitors *progress probes*: cheap closures reporting a
//! monotonic work heartbeat plus a pending-work flag (e.g.
//! [`DmaEngine::progress_probe`](netfpga_pcie::DmaEngine::progress_probe)).
//! A module that sits `deadline_cycles` consecutive cycles with work
//! pending and a frozen heartbeat is wedged: the watchdog **bites** — it
//! publishes a [`WatchdogBite`](netfpga_core::telemetry::EventKind) event,
//! waits a drain window so healthy modules flush in-flight words, then
//! pulls the chassis [`netfpga_core::SoftResetLine`]. The
//! simulator applies [`Module::soft_reset`](netfpga_core::Module) to every
//! module at the next step boundary: in-flight framing state is flushed,
//! configuration and delivered packets survive, the wedge clears. A holdoff
//! window then keeps the watchdog from biting the recovering datapath
//! while it refills.
//!
//! Everything is counted in core-clock cycles, so time-to-recovery moves
//! cycle-for-cycle with the policy knobs and is bit-identical across
//! scheduler modes and idle fast-forward settings.

use netfpga_core::sim::{Activity, Module, TickContext};
use netfpga_core::stats::Counter;
use netfpga_core::telemetry::{Event, EventKind, EventRing, StatRegistry};
use netfpga_core::SoftResetLine;

/// A progress probe: returns `(heartbeat, pending)` — a monotonic counter
/// of work performed, and whether work is currently pending. The watchdog
/// reads it every cycle; wedged means *pending and heartbeat frozen*.
pub type ProgressProbe = Box<dyn Fn() -> (u64, bool)>;

/// Watchdog timing, in core-clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Consecutive no-progress-with-pending-work cycles before the bite.
    pub deadline_cycles: u64,
    /// Drain window between the bite and the soft-reset request.
    pub drain_cycles: u64,
    /// Re-arm holdoff after the reset.
    pub holdoff_cycles: u64,
}

impl WatchdogConfig {
    /// The watchdog block of a recovery policy.
    pub fn from_policy(policy: &crate::RecoveryPolicy) -> WatchdogConfig {
        WatchdogConfig {
            deadline_cycles: policy.watchdog_deadline_cycles,
            drain_cycles: policy.watchdog_drain_cycles,
            holdoff_cycles: policy.watchdog_holdoff_cycles,
        }
    }
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig::from_policy(&crate::RecoveryPolicy::default())
    }
}

struct Probe {
    name: String,
    read: ProgressProbe,
    last: u64,
    stuck: u64,
}

/// The recovery state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Counting per-probe no-progress cycles against the deadline.
    Monitoring,
    /// Bitten: letting healthy modules flush until the cycle is reached,
    /// then pulling the soft-reset line.
    Draining { until_cycle: u64 },
    /// Reset requested: holding off re-arm until the cycle is reached.
    Holdoff { until_cycle: u64 },
}

/// The hardware watchdog module. Build it, add progress probes, hand it
/// the simulator's [`SoftResetLine`], and register it on the core clock.
pub struct Watchdog {
    label: String,
    config: WatchdogConfig,
    reset_line: SoftResetLine,
    probes: Vec<Probe>,
    state: State,
    bites: Counter,
    ring: Option<EventRing>,
}

impl Watchdog {
    /// A watchdog pulling `reset_line` on expiry, with no probes yet.
    pub fn new(name: &str, config: WatchdogConfig, reset_line: SoftResetLine) -> Watchdog {
        Watchdog {
            label: name.to_string(),
            config,
            reset_line,
            probes: Vec::new(),
            state: State::Monitoring,
            bites: Counter::new(),
            ring: None,
        }
    }

    /// Monitor `probe` under `name`. The probe's index (registration
    /// order) is the `port` field of its bite events.
    pub fn add_probe(&mut self, name: &str, probe: ProgressProbe) {
        self.probes.push(Probe {
            name: name.to_string(),
            read: probe,
            last: 0,
            stuck: 0,
        });
    }

    /// Publish [`EventKind::WatchdogBite`] events to `ring`.
    pub fn set_event_ring(&mut self, ring: EventRing) {
        self.ring = Some(ring);
    }

    /// The shared bite counter (clone it before handing the module to the
    /// simulator).
    pub fn bites(&self) -> Counter {
        self.bites.clone()
    }

    /// Register `watchdog.bites` on `registry` under `prefix`.
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.bites"), &self.bites);
    }

    /// Names of the registered probes, in index order.
    pub fn probe_names(&self) -> Vec<String> {
        self.probes.iter().map(|p| p.name.clone()).collect()
    }

    /// Re-baseline every probe: zero the stuck counters and adopt the
    /// current heartbeats, so monitoring restarts fresh.
    fn rebaseline(&mut self) {
        for p in &mut self.probes {
            let (prog, _) = (p.read)();
            p.last = prog;
            p.stuck = 0;
        }
    }
}

impl Module for Watchdog {
    fn name(&self) -> &str {
        &self.label
    }

    fn tick(&mut self, ctx: &TickContext) {
        match self.state {
            State::Monitoring => {
                let mut bite: Option<(usize, u64)> = None;
                for (i, p) in self.probes.iter_mut().enumerate() {
                    let (prog, pending) = (p.read)();
                    if pending && prog == p.last {
                        p.stuck += 1;
                        if p.stuck >= self.config.deadline_cycles && bite.is_none() {
                            bite = Some((i, p.stuck));
                        }
                    } else {
                        p.stuck = 0;
                    }
                    p.last = prog;
                }
                if let Some((idx, stuck)) = bite {
                    self.bites.incr();
                    if let Some(ring) = &self.ring {
                        ring.push(Event {
                            kind: EventKind::WatchdogBite,
                            port: idx as u8,
                            data: stuck.min(u64::from(u32::MAX)) as u32,
                            at: ctx.now,
                        });
                    }
                    self.state = State::Draining {
                        until_cycle: ctx.cycle + self.config.drain_cycles,
                    };
                }
            }
            State::Draining { until_cycle } => {
                if ctx.cycle >= until_cycle {
                    // The drain window is over: pull the line. The
                    // simulator latches it and applies the chassis-wide
                    // soft reset at the top of the next step.
                    self.reset_line.request();
                    self.state = State::Holdoff {
                        until_cycle: ctx.cycle + self.config.holdoff_cycles,
                    };
                }
            }
            State::Holdoff { until_cycle } => {
                if ctx.cycle >= until_cycle {
                    self.rebaseline();
                    self.state = State::Monitoring;
                }
            }
        }
    }

    fn reset(&mut self) {
        self.state = State::Monitoring;
        self.bites.clear();
        self.rebaseline();
    }

    // soft_reset: deliberately the default no-op — the watchdog itself is
    // the reset's *source* and must ride through it (it is mid-Holdoff
    // when the line it pulled is consumed).

    /// Idle only while monitoring with every probe idle and caught-up: no
    /// pending work, no stuck count, heartbeat unchanged since the last
    /// tick. The "unchanged heartbeat" term makes a skipped tick
    /// indistinguishable from an executed no-op tick, so runs are
    /// bit-identical with idle fast-forward on or off. No wake handle is
    /// registered, so the kernel re-probes this every dispatch — the
    /// always-correct (if unskippable) classification.
    fn activity(&self) -> Activity {
        Activity::idle_if(
            self.state == State::Monitoring
                && self.probes.iter().all(|p| {
                    let (prog, pending) = (p.read)();
                    !pending && p.stuck == 0 && prog == p.last
                }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::sim::Simulator;
    use netfpga_core::time::{Frequency, Time};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A fake engine: pending work and a heartbeat under test control.
    #[derive(Default)]
    struct FakeEngine {
        progress: u64,
        pending: bool,
        wedged: bool,
        soft_resets: u64,
    }

    impl FakeEngine {
        fn probe(cell: &Rc<RefCell<FakeEngine>>) -> ProgressProbe {
            let cell = cell.clone();
            Box::new(move || {
                let e = cell.borrow();
                (e.progress, e.pending)
            })
        }
    }

    struct FakeModule(Rc<RefCell<FakeEngine>>);

    impl Module for FakeModule {
        fn name(&self) -> &str {
            "fake"
        }
        fn tick(&mut self, _ctx: &TickContext) {
            let mut e = self.0.borrow_mut();
            if e.pending && !e.wedged {
                e.progress += 1;
                e.pending = false;
            }
        }
        fn soft_reset(&mut self) {
            let mut e = self.0.borrow_mut();
            e.wedged = false;
            e.soft_resets += 1;
        }
        fn activity(&self) -> Activity {
            Activity::idle_if(!self.0.borrow().pending)
        }
    }

    fn build(
        config: WatchdogConfig,
    ) -> (
        Simulator,
        netfpga_core::ClockId,
        Rc<RefCell<FakeEngine>>,
        Counter,
        EventRing,
    ) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let engine = Rc::new(RefCell::new(FakeEngine::default()));
        let mut wd = Watchdog::new("watchdog", config, sim.soft_reset_line());
        wd.add_probe("fake", FakeEngine::probe(&engine));
        let ring = EventRing::new(8);
        wd.set_event_ring(ring.clone());
        let bites = wd.bites();
        sim.add_module(clk, FakeModule(engine.clone()));
        sim.add_module(clk, wd);
        (sim, clk, engine, bites, ring)
    }

    fn config(deadline: u64, drain: u64, holdoff: u64) -> WatchdogConfig {
        WatchdogConfig {
            deadline_cycles: deadline,
            drain_cycles: drain,
            holdoff_cycles: holdoff,
        }
    }

    #[test]
    fn healthy_progress_never_bites() {
        let (mut sim, clk, engine, bites, _ring) = build(config(10, 5, 20));
        for _ in 0..50 {
            engine.borrow_mut().pending = true;
            sim.run_cycles(clk, 2);
        }
        assert_eq!(bites.get(), 0);
        assert_eq!(engine.borrow().soft_resets, 0);
    }

    #[test]
    fn wedge_bites_drains_and_soft_resets() {
        let (mut sim, clk, engine, bites, ring) = build(config(10, 5, 20));
        {
            let mut e = engine.borrow_mut();
            e.pending = true;
            e.wedged = true;
        }
        sim.run_cycles(clk, 100);
        assert_eq!(bites.get(), 1, "one bite per wedge");
        assert_eq!(engine.borrow().soft_resets, 1, "soft reset applied");
        assert!(!engine.borrow().wedged, "soft reset cleared the wedge");
        let events = ring.pending();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::WatchdogBite);
        assert_eq!(events[0].port, 0, "probe index");
        assert_eq!(events[0].data, 10, "stuck cycles at the bite");
    }

    #[test]
    fn time_to_recovery_moves_with_deadline() {
        let recover_at = |deadline: u64| {
            let (mut sim, clk, engine, _bites, _ring) = build(config(deadline, 5, 20));
            {
                let mut e = engine.borrow_mut();
                e.pending = true;
                e.wedged = true;
            }
            for cycle in 0..10_000u64 {
                sim.run_cycles(clk, 1);
                if engine.borrow().soft_resets > 0 {
                    return cycle;
                }
            }
            panic!("never recovered");
        };
        let a = recover_at(10);
        let b = recover_at(110);
        assert_eq!(b - a, 100, "recovery moves cycle-for-cycle with deadline");
    }

    #[test]
    fn holdoff_rearms_and_a_second_wedge_bites_again() {
        let (mut sim, clk, engine, bites, _ring) = build(config(10, 5, 20));
        {
            let mut e = engine.borrow_mut();
            e.pending = true;
            e.wedged = true;
        }
        sim.run_cycles(clk, 100);
        assert_eq!(bites.get(), 1);
        // Re-wedge after recovery: the watchdog must bite again.
        {
            let mut e = engine.borrow_mut();
            e.pending = true;
            e.wedged = true;
        }
        sim.run_cycles(clk, 100);
        assert_eq!(bites.get(), 2);
        assert_eq!(engine.borrow().soft_resets, 2);
    }

    #[test]
    fn idle_watchdog_is_quiescent_and_skippable() {
        let (mut sim, _clk, _engine, bites, _ring) = build(config(10, 5, 20));
        sim.run_until(Time::from_us(50));
        assert_eq!(bites.get(), 0);
        assert!(sim.kernel_stats().skips > 0, "idle run must fast-forward");
    }
}
