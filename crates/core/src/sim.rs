//! The simulation kernel: clock domains, the [`Module`] trait and the
//! [`Simulator`] event loop.
//!
//! The kernel is deliberately simple and fully deterministic:
//!
//! * Global time is a picosecond counter ([`Time`]).
//! * Each [`ClockId`] has a fixed period; its modules are ticked, in
//!   registration order, on every rising edge.
//! * When several clocks share an edge instant, they tick in creation order.
//!
//! Within one edge, modules communicate only through [`crate::stream`]
//! channels and shared state; the registration order therefore fixes
//! intra-cycle scheduling. Registering modules in dataflow order gives
//! combinational (same-cycle) forwarding through a channel; reverse order
//! gives one cycle of latency — either is a valid hardware interpretation,
//! and either way results are exactly reproducible.
//!
//! # Edge dispatch
//!
//! [`Simulator::step`] takes the earliest pending edge over all domains and
//! dispatches every domain due at that instant, in creation order. Both
//! [`SchedulerMode`]s dispatch this way and differ only in the activity
//! cache below.
//!
//! # Quiescence: stalled is not active
//!
//! Modules opt into the fast path by overriding [`Module::activity`].
//! [`Activity::Quiescent`] is strict but time-independent:
//! a module may report quiescent only if `tick` would have no observable
//! effect **now and at every future edge**, assuming none of the channels
//! it touches change in the meantime. "Nothing to do" is one such state;
//! "cannot make progress" is the other: a module whose every possible move
//! this cycle is stalled — no word upstream, no space downstream
//! (`tready` low), an ingest cap reached — does nothing in hardware and
//! nothing here, so it is quiescent until the channel event that lifts
//! the stall (a push into its input, a pop from its output). A stall that
//! *time* lifts — a pacing gate closed until a known instant — is
//! [`Activity::Bounded`] instead. Because modules only influence
//! one another through ticks, if every module is quiescent at once then no
//! channel can change and the whole simulation is provably idle:
//! `run_until` and `run_cycles` then fast-forward — advancing `now` and
//! every cycle counter arithmetically to exactly the state the naive loop
//! would have reached, without executing the intervening edges.
//!
//! Back-pressure stalls form chains (a source behind a full FIFO behind a
//! stage behind a full FIFO …). In a live design every chain ends at a
//! module that is *not* quiescent — one holding a time bound (a MAC's
//! backlog gate, a wire arrival, PCIe pacing, a release cycle) or one that
//! can move a word now — so time still advances to the event that unwinds
//! the chain. A chain that ends nowhere (an output nobody drains) is a
//! deadlock in hardware too; the kernel reports it as quiescent rather
//! than spinning on it. [`Simulator::all_quiescent`] therefore means "no
//! module can act until something external happens", which equals
//! "drained" only for designs whose stall chains all end in a consumer.
//!
//! # Cached activity bounds (edge-triggered invalidation)
//!
//! Re-asking every module for its [`Activity`] on every
//! probe is itself a full scan — on all-busy workloads it costs almost as
//! much as ticking. [`SchedulerMode::Auto`] therefore *caches* each
//! module's classification and only re-queries it when something could
//! have changed it:
//!
//! * a module that exposes a [`WakeHandle`] (via [`Module::wake_handle`])
//!   is re-queried only when the flag is dirty — streams, wires and
//!   host-side handles mark the consuming module dirty on every push and
//!   the producing module dirty on every pop, so an untouched module's
//!   bound is served from the cache;
//! * after a module ticks, its cache is refreshed in place — the dispatch
//!   sweep doubles as the activity probe, so `run_until` never re-scans;
//! * modules without a handle (the default) are simply re-queried every
//!   time: out-of-tree modules keep working, at scan cost.
//!
//! Debug builds — and release builds with the `paranoid` cargo feature —
//! verify the protocol: serving a clean cache re-queries the module anyway
//! and asserts the classification did not drift, so a module that mutates
//! activity-relevant state without waking fails loudly instead of silently
//! skipping work.

use crate::stats::Counter;
use crate::time::{Frequency, Time};
use std::cell::{Cell, OnceCell};
use std::rc::Rc;

/// Whether this is a release build carrying the activity-cache contract
/// check (the `paranoid` cargo feature). Every clean-cache serve then
/// re-queries the module, so wall-clock figures from such a build measure
/// the check, not the kernel — timing harnesses skip their floors on it.
pub const PARANOID: bool = cfg!(feature = "paranoid");

/// Per-tick context handed to every module.
#[derive(Debug, Clone, Copy)]
pub struct TickContext {
    /// Current simulated time (the instant of this rising edge).
    pub now: Time,
    /// Index of this edge within the module's clock domain (0-based).
    pub cycle: u64,
    /// Period of the module's clock domain. Lets a module convert a cycle
    /// count into an absolute instant — e.g. to stamp the release time of a
    /// fixed-latency pipeline for [`Activity::Bounded`].
    pub period: Time,
}

/// Edge-triggered invalidation flag shared between a module and the
/// kernel's activity cache.
///
/// A module that opts into cached activity bounds creates one handle,
/// registers clones of it on every channel that can change its activity
/// (input streams, wires, host-side queues, and the
/// [`StreamTx`](crate::stream::StreamTx) side of every output whose
/// `can_push` it consults — anything external that its
/// [`Module::activity`] answer depends on),
/// and returns it from [`Module::wake_handle`]. Whenever such a channel is
/// written, [`WakeHandle::wake`] marks the cached classification dirty and
/// the kernel re-queries the module before trusting it again.
///
/// Handles are born dirty, so a freshly built module is always queried at
/// least once. Waking is a single `Cell<bool>` store — cheap enough for
/// every stream push.
///
/// [`Simulator::add_module`] also *stamps* the handle with where its owner
/// ticks — which simulator, which clock domain, which slot of the domain's
/// registration order. A [`crate::stream`] channel holding both ends'
/// handles can then tell whether the two tick on one clock and which of
/// them ticks first at a shared edge, which is what it needs to carry
/// beat-timed bursts; a handle never registered with a simulator carries no
/// stamp, and such a channel stays word-per-tick. A stamped handle also
/// mirrors its flag into its domain's dirty mask, so the kernel finds the
/// woken modules of a domain without visiting the rest.
#[derive(Clone, Debug)]
pub struct WakeHandle(Rc<WakeState>);

#[derive(Debug)]
struct WakeState {
    dirty: Cell<bool>,
    stamp: OnceCell<Stamp>,
}

/// Where a module ticks (see [`WakeHandle`]).
#[derive(Debug)]
pub(crate) struct Stamp {
    /// The owning simulator's clock: the instant of the last edge it has
    /// finished (executed or skipped). Doubles as the simulator's identity.
    pub(crate) clock: Rc<Cell<Time>>,
    pub(crate) domain: usize,
    pub(crate) slot: usize,
    /// The domain's dirty mask and this slot's bit in it (no bit past the
    /// mask's width: such a slot is probed every time, as one without a
    /// handle is).
    woken: Rc<Cell<u64>>,
    bit: u64,
}

impl Stamp {
    /// The stamp of slot `slot` of domain `domain` of the simulator whose
    /// clock is `clock`; `woken` is the domain's dirty mask.
    pub(crate) fn new(
        clock: Rc<Cell<Time>>,
        domain: usize,
        slot: usize,
        woken: Rc<Cell<u64>>,
    ) -> Stamp {
        Stamp {
            clock,
            domain,
            slot,
            woken,
            bit: 1u64.checked_shl(slot as u32).unwrap_or(0),
        }
    }
}

impl WakeHandle {
    /// A new handle, born dirty.
    pub fn new() -> WakeHandle {
        WakeHandle(Rc::new(WakeState {
            dirty: Cell::new(true),
            stamp: OnceCell::new(),
        }))
    }

    /// Mark the owning module's cached activity bound dirty.
    #[inline]
    pub fn wake(&self) {
        self.0.dirty.set(true);
        if let Some(s) = self.0.stamp.get() {
            s.woken.set(s.woken.get() | s.bit);
        }
    }

    /// Whether a wake happened since the flag was last cleared.
    pub fn is_dirty(&self) -> bool {
        self.0.dirty.get()
    }

    /// Clear the dirty flag (after a re-query that supersedes any wake).
    #[inline]
    pub(crate) fn clear(&self) {
        self.0.dirty.set(false);
        if let Some(s) = self.0.stamp.get() {
            s.woken.set(s.woken.get() & !s.bit);
        }
    }

    /// Where the owner ticks, once a simulator has registered it.
    #[inline]
    pub(crate) fn stamp(&self) -> Option<&Stamp> {
        self.0.stamp.get()
    }

    /// Record where the owner ticks. The first registration stands: a
    /// module lives in one simulator.
    pub(crate) fn set_stamp(&self, stamp: Stamp) {
        if self.0.stamp.set(stamp).is_ok() && self.is_dirty() {
            self.wake(); // again, now into the mask as well
        }
    }
}

impl Default for WakeHandle {
    fn default() -> WakeHandle {
        WakeHandle::new()
    }
}

/// A module's answer to "can your next tick do anything?" — and, folded
/// over all modules, the simulator's answer to "can any?". The
/// [module docs](self) give the reasoning; the promises are these.
///
/// Every variant holds only as long as none of the channels the module
/// touches change: a module answering anything but `Active` from behind a
/// [`WakeHandle`] must have that handle registered on every channel the
/// answer reads, outputs included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activity {
    /// The module must tick at the very next edge of its domain: no
    /// promise, which is always safe.
    #[default]
    Active,
    /// `tick` has no observable effect now **or at any future edge**:
    /// nothing to do, or every move stalled — nothing to pop upstream,
    /// **no space downstream**, an ingest cap reached — and the `tick`
    /// branch that would run is a proven no-op (anything with a side
    /// effect — a counter, a gauge, a staged packet — stays active).
    ///
    /// The promise must not depend on the current time or cycle count: a
    /// module waiting on a timer or a scheduled release cycle is `Bounded`.
    /// That keeps stall chains honest: following "blocked on" links from
    /// any quiescent-but-loaded module must reach a module that is not
    /// quiescent, or nothing will ever unwind the chain and
    /// [`Simulator::all_quiescent`] reports the deadlock as idle.
    Quiescent,
    /// `tick` has no observable effect at any edge **strictly before** the
    /// instant: scheduled work exists — a wire arrival, a backlog gate,
    /// PCIe pacing, a release cycle — but the module is provably inert
    /// until then. A bound at or before the current time is harmless (no
    /// edge precedes it, so nothing is skipped).
    Bounded(Time),
}

impl Activity {
    /// `Quiescent` when `idle` holds, `Active` otherwise: the answer of a
    /// module with no timed state.
    #[inline]
    pub fn idle_if(idle: bool) -> Activity {
        if idle {
            Activity::Quiescent
        } else {
            Activity::Active
        }
    }

    /// Inert until `t` — `Active` when `t` is time zero, the "at once" of
    /// a stream slot that is already free.
    #[inline]
    pub fn at(t: Time) -> Activity {
        if t > Time::ZERO {
            Activity::Bounded(t)
        } else {
            Activity::Active
        }
    }

    /// The answer of two units taken together: `Active` if either is,
    /// else the earlier bound, else `Quiescent`.
    #[inline]
    pub fn join(self, other: Activity) -> Activity {
        match (self, other) {
            (Activity::Active, _) | (_, Activity::Active) => Activity::Active,
            (Activity::Quiescent, a) | (a, Activity::Quiescent) => a,
            (Activity::Bounded(a), Activity::Bounded(b)) => Activity::Bounded(a.min(b)),
        }
    }

    /// The join of `answers`, asking for no more of them once it is
    /// `Active`.
    fn join_all(mut answers: impl Iterator<Item = Activity>) -> Activity {
        let joined = answers.try_fold(Activity::Quiescent, |all, a| match all.join(a) {
            Activity::Active => None,
            all => Some(all),
        });
        joined.unwrap_or(Activity::Active)
    }
}

/// A hardware building block driven by a clock edge.
///
/// Implementations should perform at most one word of work per stream port
/// per cycle — that is what makes a tick a cycle. The library modules do so
/// without ticking every cycle: they charge the stream with a whole burst's
/// beats, one per cycle, and tick again when the last has crossed (see
/// [`crate::stream`]). Their burst mode (`with_burst`) instead lifts the
/// limit to "whatever fits": a tick then moves whole
/// [`Burst`](crate::stream::Burst)s, still bounded by stream depth counted
/// in beats, so back-pressure builds in the same places and only the
/// cycle-level pacing inside a module collapses.
pub trait Module {
    /// Stable instance name for diagnostics.
    fn name(&self) -> &str;

    /// Advance one clock cycle.
    fn tick(&mut self, ctx: &TickContext);

    /// Return to power-on state. Default: no-op.
    fn reset(&mut self) {}

    /// What the next `tick` can do, as far as the module can prove from its
    /// own state and the channels it touches (see [`Activity`]). The
    /// simulator skips the ticks the answer rules out and, when no module
    /// is [`Activity::Active`], fast-forwards simulated time without
    /// executing edges at all. Default: [`Activity::Active`] (always
    /// tick), which is always safe.
    fn activity(&self) -> Activity {
        Activity::Active
    }

    /// Opt into cached activity bounds: return (a clone of) the
    /// [`WakeHandle`] this module registered on all of its external
    /// channels — inputs, and every output whose back-pressure its
    /// classification reads. The kernel then caches the module's
    /// [`Module::activity`] answer and re-queries it only
    /// after a tick or a wake, instead of on every probe and every edge.
    ///
    /// Default: `None` — the module is re-queried every time (scan cost),
    /// which is always correct. Only return a handle if **every** channel
    /// that can change this module's activity wakes it; a missed channel
    /// means skipped work (loud in debug builds and under the `paranoid`
    /// feature, silent in plain release).
    fn wake_handle(&self) -> Option<WakeHandle> {
        None
    }

    /// Recover from a wedged state without losing configuration: flush
    /// in-flight framing and pacing state (partial packets, reassembly,
    /// link pacing marks) while preserving configuration, learned tables,
    /// queued *complete* packets, and statistics counters. This is the
    /// hardware soft reset a watchdog drives after a quiesce/drain window —
    /// unlike [`Module::reset`], which returns to power-on state.
    ///
    /// Default: no-op, which is always safe for modules that hold no
    /// partial-frame state.
    fn soft_reset(&mut self) {}
}

/// A shared soft-reset request line between a watchdog-style module and the
/// [`Simulator`]: any holder may [`SoftResetLine::request`] a soft reset,
/// and the kernel consumes the request at the next step boundary (before
/// any module ticks), calling [`Module::soft_reset`] on every registered
/// module. Latching at step boundaries keeps the reset instant identical in
/// every scheduler mode.
#[derive(Clone, Debug, Default)]
pub struct SoftResetLine(Rc<Cell<bool>>);

impl SoftResetLine {
    /// A new, idle line.
    pub fn new() -> SoftResetLine {
        SoftResetLine::default()
    }

    /// Assert the line: the kernel soft-resets every module at the next
    /// step boundary.
    pub fn request(&self) {
        self.0.set(true);
    }

    /// Whether a request is pending (not yet consumed by the kernel).
    pub fn pending(&self) -> bool {
        self.0.get()
    }

    /// Consume a pending request, returning whether one was set.
    pub fn take(&self) -> bool {
        self.0.replace(false)
    }
}

/// Identifies a clock domain within a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockId(usize);

/// A registered module plus the kernel-side state of its activity cache.
struct ModuleSlot {
    module: Box<dyn Module>,
    /// The module's invalidation flag, when it opted in.
    wake: Option<WakeHandle>,
    /// Last classification; meaningful only while `wake` is `Some` and
    /// clean (modules without a handle are re-queried every time).
    cached: Activity,
    /// The module ticked since `cached` was last queried. Only ever set
    /// while `cached` is `Active`: the dispatch sweep re-ticks such a
    /// module without a fresh classification (a tick of a module that
    /// meanwhile went idle is the very no-op the reference executes), and
    /// only the activity fold — which early-exits on the first `Active`
    /// verdict — pays the re-query.
    stale: bool,
    /// Ticks actually executed on this module (see
    /// [`Simulator::module_ticks`]).
    ticks: u64,
    /// The handle has a bit in its domain's dirty mask, so a clean mask bit
    /// vouches for the cache.
    masked: bool,
}

impl ModuleSlot {
    /// The slot of a module about to become slot `index` of domain
    /// `domain`, its handle stamped accordingly.
    fn new(
        module: Box<dyn Module>,
        clock: &Rc<Cell<Time>>,
        domain: usize,
        index: usize,
        woken: &Rc<Cell<u64>>,
    ) -> ModuleSlot {
        let wake = module.wake_handle();
        let mut masked = false;
        if let Some(w) = &wake {
            w.set_stamp(Stamp::new(clock.clone(), domain, index, woken.clone()));
            masked = w
                .stamp()
                .is_some_and(|s| s.bit != 0 && Rc::ptr_eq(&s.woken, woken));
            w.wake();
        }
        ModuleSlot {
            module,
            wake,
            cached: Activity::Active,
            stale: false,
            ticks: 0,
            masked,
        }
    }

    /// Execute one tick, counted.
    #[inline]
    fn tick(&mut self, ctx: &TickContext) {
        self.ticks += 1;
        self.module.tick(ctx);
    }

    /// Current classification: served from the cache when the wake flag is
    /// clean, re-queried when dirty. Modules without a handle (the default
    /// adapter) are re-queried every time — correct at scan cost.
    /// The sweeps come here only for a module that is due, woken, or not
    /// covered by its domain's dirty mask; the clean-cache path stays
    /// read-only on the flag and batches its counter into
    /// `probes_avoided`, which the caller flushes once per sweep.
    fn classify(&mut self, stats: &KernelStatCells, probes_avoided: &mut u64) -> Activity {
        let Some(wake) = &self.wake else {
            return self.module.activity();
        };
        if self.stale || wake.is_dirty() {
            wake.clear();
            self.stale = false;
            self.cached = self.module.activity();
            stats.invalidations.incr();
        } else {
            *probes_avoided += 1;
            // Contract check: a clean flag promises the module's activity
            // did not change since the last query. A module that mutated
            // activity-relevant state without waking would silently skip
            // work in release builds — fail loudly here instead (debug
            // builds always; release builds under the `paranoid` feature).
            self.check_clean();
        }
        self.cached
    }

    /// Refresh the cache right after this module ticked — the fused probe:
    /// the dispatch sweep doubles as the activity scan, so steady-state
    /// probes are pure cache reads.
    fn refresh(&mut self) {
        if let Some(wake) = &self.wake {
            wake.clear();
            self.stale = false;
            self.cached = self.module.activity();
        }
    }

    /// The cached classification as the first instant the module may have
    /// to tick: zero for `Active`, never for `Quiescent` — and zero for a
    /// module the domain's dirty mask cannot vouch for (no handle, or a
    /// slot past the mask), which is probed every time.
    #[inline]
    fn due(&self) -> Time {
        match self.cached {
            Activity::Quiescent if self.masked => Time::MAX,
            Activity::Bounded(t) if self.masked => t,
            _ => Time::ZERO,
        }
    }

    /// The contract check of a clean cache served without a visit (see
    /// [`ModuleSlot::classify`]).
    #[inline]
    fn check_clean(&self) {
        #[cfg(any(debug_assertions, feature = "paranoid"))]
        assert_eq!(
            self.module.activity(),
            self.cached,
            "module `{}` changed its activity classification without a \
             tick or a wake (missing WakeHandle::wake on some channel \
             its classification reads?)",
            self.module.name()
        );
    }

    /// Force a re-query at the next classification (reset, re-registration).
    fn invalidate(&mut self) {
        if let Some(wake) = &self.wake {
            wake.wake();
        }
        self.stale = false;
        self.cached = Activity::Active;
    }
}

struct DomainState {
    name: String,
    period: Time,
    next_edge: Time,
    cycle: u64,
    slots: Vec<ModuleSlot>,
    /// Per slot, [`ModuleSlot::due`] as of its last classification: with
    /// `woken` it lets the sweeps pass over a module that is neither due
    /// nor woken without touching its slot.
    due: Vec<Time>,
    /// One bit per slot (the first 64), set by [`WakeHandle::wake`].
    woken: Rc<Cell<u64>>,
}

/// Whether the module in slot `i` can be passed over at an edge at `t`
/// without touching its slot: not due by then, and not woken since that
/// was established. (Only a slot with a bit in `woken` is ever due later
/// than at once, so the shift is in range.)
#[inline]
fn at_rest(due: &[Time], woken: &Cell<u64>, i: usize, t: Time) -> bool {
    due[i] > t && woken.get() >> i & 1 == 0
}

impl DomainState {
    /// Fold the domain's cached module classifications into one summary,
    /// early-exiting on the first `Active` module — nothing a later module
    /// reports can loosen an `Active` verdict.
    fn activity(&mut self, stats: &KernelStatCells) -> Activity {
        let mut bound = Time::MAX;
        let mut avoided = 0u64;
        let mut verdict = Activity::Quiescent;
        for (i, s) in self.slots.iter_mut().enumerate() {
            if at_rest(&self.due, &self.woken, i, Time::ZERO) {
                // Clean and not active: its bound is the cache's.
                avoided += 1;
                s.check_clean();
                bound = bound.min(self.due[i]);
                continue;
            }
            verdict = verdict.join(s.classify(stats, &mut avoided));
            self.due[i] = s.due();
            if verdict == Activity::Active {
                break;
            }
        }
        stats.probes_avoided.add(avoided);
        if bound < Time::MAX {
            verdict = verdict.join(Activity::Bounded(bound));
        }
        verdict
    }

    /// Tick every module of the domain at instant `edge` and schedule the
    /// domain's next edge.
    ///
    /// With the activity cache (`fused`) each module's cached answer is
    /// consulted: a quiescent module is skipped, and so is a time-blocked
    /// one whose bound lies strictly after `edge` — its tick is a proven
    /// no-op. Every module that does tick has its cache refreshed in place,
    /// fusing the activity probe into this sweep. Without it (the `Scan`
    /// reference) every module is re-queried per edge and only `Quiescent`
    /// ones are skipped.
    fn dispatch(&mut self, edge: Time, idle_skip: bool, fused: bool, stats: &KernelStatCells) {
        let ctx = TickContext {
            now: edge,
            cycle: self.cycle,
            period: self.period,
        };
        let mut avoided = 0u64;
        for (i, s) in self.slots.iter_mut().enumerate() {
            if fused && idle_skip {
                if at_rest(&self.due, &self.woken, i, edge) {
                    // Clean and not due: the skip the cache exists for.
                    avoided += 1;
                    s.check_clean();
                    continue;
                }
                if s.stale {
                    // Last classified `Active` and ticked since: tick again
                    // without re-classifying. If it meanwhile went idle the
                    // tick is the same no-op the reference executes; the
                    // activity fold re-queries before any fast-forward.
                    s.tick(&ctx);
                    avoided += 1;
                    continue;
                }
                let run = match s.classify(stats, &mut avoided) {
                    Activity::Quiescent => false,
                    Activity::Bounded(t) => t <= edge,
                    Activity::Active => true,
                };
                if run {
                    s.tick(&ctx);
                    if s.wake.is_some() && s.cached == Activity::Active {
                        // Steady-state streaming: no bound to learn, so
                        // defer the re-query to the next activity fold.
                        s.stale = true;
                    } else {
                        s.refresh();
                    }
                }
                self.due[i] = s.due();
            } else if !idle_skip || s.module.activity() != Activity::Quiescent {
                s.tick(&ctx);
            }
        }
        if avoided > 0 {
            stats.probes_avoided.add(avoided);
        }
        self.cycle += 1;
        self.next_edge = edge + self.period;
    }
}

/// How the simulator keeps its modules' [`Activity`] answers. Both modes
/// dispatch edges alike and produce exactly the same edge sequence, tick
/// order and timestamps; they differ only in the activity cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Cache each module's answer, refresh it as the module ticks and
    /// re-query it only after a wake (see the [module docs](self)). The
    /// default.
    #[default]
    Auto,
    /// No cache: re-query every module on every probe and before every
    /// tick (the reference the cache is verified against).
    Scan,
}

/// Shared counter cells behind [`Simulator::kernel_stats`].
///
/// Clones are live handles onto the same cells, so a harness can mount
/// them as telemetry gauges (`kernel.steps`, `kernel.skips`, …) without
/// borrowing the simulator.
#[derive(Debug, Clone, Default)]
pub struct KernelStatCells {
    /// Edges executed via [`Simulator::step`].
    pub steps: Counter,
    /// Per-domain edges fast-forwarded without dispatch (quiescent or
    /// time-blocked stretches).
    pub skips: Counter,
    /// Module classifications served from a clean cache — each one a
    /// [`Module::activity`] virtual probe that never ran —
    /// plus stale-`Active` re-ticks dispatched without any probe at all.
    pub probes_avoided: Counter,
    /// Cache re-queries, forced by a wake (edge-triggered invalidation)
    /// or by the module's own tick since the last query.
    pub invalidations: Counter,
}

/// Snapshot of the kernel's own work counters (see [`KernelStatCells`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Edges executed via [`Simulator::step`].
    pub steps: u64,
    /// Per-domain edges fast-forwarded without dispatch.
    pub skips: u64,
    /// Module probes served from a clean activity cache.
    pub probes_avoided: u64,
    /// Cache re-queries forced by a wake.
    pub invalidations: u64,
}

impl std::ops::AddAssign for KernelStats {
    fn add_assign(&mut self, rhs: KernelStats) {
        self.steps += rhs.steps;
        self.skips += rhs.skips;
        self.probes_avoided += rhs.probes_avoided;
        self.invalidations += rhs.invalidations;
    }
}

impl std::ops::Add for KernelStats {
    type Output = KernelStats;

    fn add(mut self, rhs: KernelStats) -> KernelStats {
        self += rhs;
        self
    }
}

impl std::iter::Sum for KernelStats {
    /// Aggregate per-shard kernel snapshots into one fabric-wide total —
    /// how a multi-chassis run reports the work of all its simulators.
    fn sum<I: Iterator<Item = KernelStats>>(iter: I) -> KernelStats {
        iter.fold(KernelStats::default(), |a, b| a + b)
    }
}

/// The discrete-time simulator owning all modules.
///
/// ```
/// use netfpga_core::sim::{Activity, Module, Simulator, TickContext};
/// use netfpga_core::time::Frequency;
///
/// /// Counts down to zero, then has nothing left to do.
/// struct Countdown(u64);
/// impl Module for Countdown {
///     fn name(&self) -> &str { "countdown" }
///     fn tick(&mut self, _ctx: &TickContext) { self.0 = self.0.saturating_sub(1); }
///     fn activity(&self) -> Activity { Activity::idle_if(self.0 == 0) }
/// }
///
/// let mut sim = Simulator::new();
/// let clk = sim.add_clock("core", Frequency::mhz(200));
/// sim.add_module(clk, Countdown(10));
/// sim.run_cycles(clk, 100);
/// assert_eq!(sim.cycles(clk), 100);
/// assert_eq!(sim.kernel_stats().steps, 10, "the other 90 edges were skipped");
/// ```
pub struct Simulator {
    domains: Vec<DomainState>,
    now: Time,
    mode: SchedulerMode,
    /// Master switch for quiescence skipping and fast-forward.
    idle_skip: bool,
    /// The kernel's own work counters (steps, skips, cache traffic).
    stats: KernelStatCells,
    /// Shared soft-reset request line, consumed at step boundaries.
    reset_line: SoftResetLine,
    /// `now`, shared with every registered module's [`WakeHandle`]: what a
    /// stream settles its beat-timed bursts against on a reset.
    clock: Rc<Cell<Time>>,
}

impl Default for Simulator {
    fn default() -> Simulator {
        Simulator {
            clock: Rc::new(Cell::new(Time::ZERO)),
            domains: Vec::new(),
            now: Time::ZERO,
            mode: SchedulerMode::Auto,
            idle_skip: true,
            stats: KernelStatCells::default(),
            reset_line: SoftResetLine::new(),
        }
    }
}

impl Simulator {
    /// An empty simulator at time zero.
    pub fn new() -> Simulator {
        Simulator::default()
    }

    /// An empty simulator in the given scheduler mode.
    pub fn with_scheduler(mode: SchedulerMode) -> Simulator {
        Simulator {
            mode,
            ..Simulator::default()
        }
    }

    /// Select the scheduler mode. Takes effect at the next step; the edge
    /// sequence is identical in every mode.
    pub fn set_scheduler_mode(&mut self, mode: SchedulerMode) {
        self.mode = mode;
    }

    /// The configured scheduler mode.
    pub fn scheduler_mode(&self) -> SchedulerMode {
        self.mode
    }

    /// Enable or disable quiescence skipping ([`Module::activity`]) and
    /// idle fast-forward. On by default; disabling forces every tick to
    /// execute, which is useful for differential testing.
    pub fn set_idle_skip(&mut self, enabled: bool) {
        self.idle_skip = enabled;
    }

    /// Whether quiescence skipping is enabled.
    pub fn idle_skip(&self) -> bool {
        self.idle_skip
    }

    /// Create a clock domain. The first rising edge is at one period
    /// (time 0 is reset release, not an edge).
    pub fn add_clock(&mut self, name: &str, freq: Frequency) -> ClockId {
        let period = freq.period();
        self.domains.push(DomainState {
            name: name.to_string(),
            period,
            next_edge: self.now + period,
            cycle: 0,
            slots: Vec::new(),
            due: Vec::new(),
            woken: Rc::new(Cell::new(0)),
        });
        ClockId(self.domains.len() - 1)
    }

    /// Register a module on a clock domain. Modules tick in registration
    /// order within a domain.
    pub fn add_module(&mut self, clock: ClockId, module: impl Module + 'static) {
        self.add_boxed_module(clock, Box::new(module));
    }

    /// Register a boxed module (for heterogeneous construction code).
    pub fn add_boxed_module(&mut self, clock: ClockId, module: Box<dyn Module>) {
        let d = &mut self.domains[clock.0];
        let slot = ModuleSlot::new(module, &self.clock, clock.0, d.slots.len(), &d.woken);
        d.due.push(slot.due());
        d.slots.push(slot);
    }

    /// Move `now`, and the clock the modules' streams read, to `t`.
    fn set_now(&mut self, t: Time) {
        self.now = t;
        self.clock.set(t);
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Cycle count of a domain (number of edges executed).
    pub fn cycles(&self, clock: ClockId) -> u64 {
        self.domains[clock.0].cycle
    }

    /// Snapshot of the kernel's own work counters: executed steps, edges
    /// fast-forwarded, activity probes served from cache, and wake-forced
    /// cache invalidations.
    pub fn kernel_stats(&self) -> KernelStats {
        KernelStats {
            steps: self.stats.steps.get(),
            skips: self.stats.skips.get(),
            probes_avoided: self.stats.probes_avoided.get(),
            invalidations: self.stats.invalidations.get(),
        }
    }

    /// Ticks executed per module since construction, as
    /// `(name, ticks)` in dispatch order (domains in creation order, modules
    /// in registration order). Beside [`Simulator::cycles`] of the module's
    /// domain this shows which modules the fast path still steps: a module
    /// that ticks on nearly every edge of a congested run is one whose
    /// stall the activity contract does not yet express.
    pub fn module_ticks(&self) -> Vec<(String, u64)> {
        self.domains
            .iter()
            .flat_map(|d| &d.slots)
            .map(|s| (s.module.name().to_string(), s.ticks))
            .collect()
    }

    /// Live handles onto the kernel counters, for mounting as telemetry
    /// gauges.
    pub fn kernel_stat_cells(&self) -> KernelStatCells {
        self.stats.clone()
    }

    /// The period of a domain.
    pub fn period(&self, clock: ClockId) -> Time {
        self.domains[clock.0].period
    }

    /// Name of a domain.
    pub fn clock_name(&self, clock: ClockId) -> &str {
        &self.domains[clock.0].name
    }

    /// Reset every module and rewind all clocks (time keeps advancing from
    /// `now`; edges restart one period out).
    pub fn reset(&mut self) {
        self.reset_line.take();
        for d in &mut self.domains {
            for (s, due) in d.slots.iter_mut().zip(&mut d.due) {
                s.module.reset();
                s.invalidate();
                *due = s.due();
            }
            d.cycle = 0;
            d.next_edge = self.now + d.period;
        }
    }

    /// The shared soft-reset request line. A watchdog (or host software)
    /// holding a clone can assert it from inside the tick loop; the kernel
    /// consumes the request at the next step boundary.
    pub fn soft_reset_line(&self) -> SoftResetLine {
        self.reset_line.clone()
    }

    /// Soft-reset every module immediately (see [`Module::soft_reset`]):
    /// in-flight framing state is flushed, configuration and counters
    /// survive, and clocks keep running — no cycle counter or edge schedule
    /// is touched.
    pub fn soft_reset(&mut self) {
        for d in &mut self.domains {
            for (s, due) in d.slots.iter_mut().zip(&mut d.due) {
                s.module.soft_reset();
                s.invalidate();
                *due = s.due();
            }
        }
    }

    /// True when every registered module reports quiescent (vacuously true
    /// with no modules). While this holds, no tick can have an effect at any
    /// future edge, so simulated time may be skipped wholesale.
    ///
    /// Stalled modules are quiescent too, so this reads as "drained" only
    /// because a live stall chain always ends at a module that is *not*
    /// quiescent (a MAC backlog gate, a wire arrival, PCIe pacing, a
    /// release cycle, a consumer with a word to pop). A design with an
    /// output nobody drains can report `true` with words still buffered.
    pub fn all_quiescent(&self) -> bool {
        self.domains
            .iter()
            .flat_map(|d| &d.slots)
            .all(|s| s.module.activity() == Activity::Quiescent)
    }

    /// Fold the module population into one [`Activity`]: quiescent, inert
    /// until the earliest bound, or with at least one module that must
    /// tick at the very next edge (nothing a later module reports can
    /// loosen that, so the fold stops there).
    ///
    /// [`SchedulerMode::Scan`] re-queries every module — the executable
    /// specification. Auto serves the fold from the per-module caches (see
    /// [`ModuleSlot::classify`]); the dispatch sweep refreshed them after
    /// every tick, so in steady state it queries no module at all.
    fn activity(&mut self) -> Activity {
        if matches!(self.mode, SchedulerMode::Scan) {
            let slots = self.domains.iter().flat_map(|d| &d.slots);
            Activity::join_all(slots.map(|s| s.module.activity()))
        } else {
            let stats = &self.stats;
            Activity::join_all(self.domains.iter_mut().map(|d| d.activity(stats)))
        }
    }

    /// Execute the single next clock edge (over all domains). Returns the
    /// time of that edge, or `None` if no clocks exist.
    pub fn step(&mut self) -> Option<Time> {
        let edge = self.domains.iter().map(|d| d.next_edge).min()?;
        // A pending soft-reset request latches at the step boundary: every
        // module is flushed *before* any module ticks this edge, so the
        // reset instant is the same in every scheduler mode.
        if self.reset_line.take() {
            self.soft_reset();
        }
        self.stats.steps.incr();
        let fused = self.mode == SchedulerMode::Auto;
        // Tick every domain whose edge falls at this instant, in creation
        // order, so coincident edges are deterministic.
        for d in &mut self.domains {
            if d.next_edge == edge {
                d.dispatch(edge, self.idle_skip, fused, &self.stats);
            }
        }
        self.set_now(edge);
        Some(edge)
    }

    /// Advance every clock past all edges up to and including instant `to`,
    /// without ticking any module, leaving exactly the state the naive edge
    /// loop would have produced. Callers must ensure `all_quiescent()`.
    fn skip_edges_through(&mut self, to: Time) {
        self.skip_edges_before(to + Time::from_ps(1));
        self.set_now(to);
    }

    /// Advance every clock past all edges strictly before instant `t`
    /// without ticking any module; `now` becomes the latest of them, if
    /// there is any. Callers must ensure no module acts before `t`.
    fn skip_edges_before(&mut self, t: Time) {
        let mut skipped = 0u64;
        let mut last = self.now;
        for d in &mut self.domains {
            if d.next_edge < t {
                let k = (t.as_ps() - 1 - d.next_edge.as_ps()) / d.period.as_ps() + 1;
                d.cycle += k;
                d.next_edge += Time::from_ps(k * d.period.as_ps());
                last = last.max(d.next_edge - d.period);
                skipped += k;
            }
        }
        if skipped > 0 {
            self.stats.skips.add(skipped);
            self.set_now(last);
        }
    }

    /// The first edge instant at or after `deadline` across all domains —
    /// where the naive `run_until` loop stops. Requires at least one domain.
    fn first_edge_at_or_after(&self, deadline: Time) -> Time {
        self.domains
            .iter()
            .map(|d| {
                if d.next_edge >= deadline {
                    d.next_edge
                } else {
                    let p = d.period.as_ps();
                    let k = (deadline.as_ps() - d.next_edge.as_ps()).div_ceil(p);
                    Time::from_ps(d.next_edge.as_ps() + k * p)
                }
            })
            .min()
            .expect("at least one domain")
    }

    /// Run until simulated time reaches at least `deadline`.
    ///
    /// Stops at the first edge at or after `deadline` (the edge overshoot is
    /// observable via [`Simulator::now`] and is identical in every scheduler
    /// mode, fast-forwarded or not).
    pub fn run_until(&mut self, deadline: Time) {
        // One probe per step: with the probe fused into the dispatch pass
        // (cached bounds, refreshed as modules tick), a probe is a cache
        // fold, not a module scan — the geometric probe backoff the
        // pre-cache kernel used to amortise scans is retired.
        // Where the run stops — the first edge at or after `deadline` —
        // worked out when first needed: the clocks do not change under us.
        let mut stop = None;
        while self.now < deadline {
            if self.domains.is_empty() {
                self.set_now(deadline);
                return;
            }
            // A pending soft reset latches at the very next edge: never
            // skip past it, or the reset instant would depend on how much
            // the modules let the kernel skip.
            if self.idle_skip && !self.reset_line.pending() {
                let activity = self.activity();
                if matches!(activity, Activity::Active) {
                    self.step();
                    continue;
                }
                let stop = *stop.get_or_insert_with(|| self.first_edge_at_or_after(deadline));
                match activity {
                    // Every edge strictly before `t` is a proven no-op. If
                    // the run would stop before any module wakes, the whole
                    // remainder skips; otherwise skip the inert edges and
                    // step the wake-up edge normally (the run is not over —
                    // `stop >= t` — and no tick ran since the fold, so
                    // without another).
                    Activity::Bounded(t) if stop >= t => self.skip_edges_before(t),
                    _ => {
                        self.skip_edges_through(stop);
                        return;
                    }
                }
            }
            self.step();
        }
    }

    /// Run for a duration from the current time.
    pub fn run_for(&mut self, duration: Time) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    /// Run until the given domain has executed `n` more cycles: through
    /// the instant of its `n`-th next edge, at which every domain with an
    /// edge there ticks too.
    pub fn run_cycles(&mut self, clock: ClockId, n: u64) {
        if n == 0 {
            return;
        }
        let d = &self.domains[clock.0];
        let stop = d.next_edge + Time::from_ps((n - 1) * d.period.as_ps());
        self.run_until(stop);
    }

    /// Run until `pred` returns true, checking after every edge; gives up
    /// after `deadline`. Returns whether the predicate fired.
    ///
    /// The predicate is executed between edges and may have side effects, so
    /// this loop never fast-forwards: every edge is stepped individually.
    pub fn run_while(&mut self, deadline: Time, mut pred: impl FnMut() -> bool) -> bool {
        while pred() {
            if self.now >= deadline || self.step().is_none() {
                return !pred();
            }
        }
        true
    }
}

impl core::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("mode", &self.mode)
            .field(
                "domains",
                &self
                    .domains
                    .iter()
                    .map(|d| (d.name.as_str(), d.period, d.slots.len()))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    type TickLog = Rc<RefCell<Vec<(String, u64, Time)>>>;

    struct Probe {
        name: String,
        log: TickLog,
        resets: Rc<RefCell<u32>>,
    }

    impl Module for Probe {
        fn name(&self) -> &str {
            &self.name
        }
        fn tick(&mut self, ctx: &TickContext) {
            self.log
                .borrow_mut()
                .push((self.name.clone(), ctx.cycle, ctx.now));
        }
        fn reset(&mut self) {
            *self.resets.borrow_mut() += 1;
        }
    }

    fn probe(name: &str, log: &TickLog, resets: &Rc<RefCell<u32>>) -> Probe {
        Probe {
            name: name.into(),
            log: log.clone(),
            resets: resets.clone(),
        }
    }

    #[test]
    fn single_clock_ticks_at_period() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let resets = Rc::new(RefCell::new(0));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(200)); // 5 ns period
        sim.add_module(clk, probe("a", &log, &resets));
        sim.run_cycles(clk, 3);
        let log = log.borrow();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0], ("a".into(), 0, Time::from_ps(5_000)));
        assert_eq!(log[2], ("a".into(), 2, Time::from_ps(15_000)));
        assert_eq!(sim.now(), Time::from_ps(15_000));
        assert_eq!(sim.cycles(clk), 3);
    }

    #[test]
    fn registration_order_within_domain() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let resets = Rc::new(RefCell::new(0));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        sim.add_module(clk, probe("first", &log, &resets));
        sim.add_module(clk, probe("second", &log, &resets));
        sim.run_cycles(clk, 1);
        let names: Vec<String> = log.borrow().iter().map(|e| e.0.clone()).collect();
        assert_eq!(names, vec!["first", "second"]);
    }

    #[test]
    fn two_clocks_interleave_correctly() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let resets = Rc::new(RefCell::new(0));
        let mut sim = Simulator::new();
        let fast = sim.add_clock("fast", Frequency::mhz(200)); // 5 ns
        let slow = sim.add_clock("slow", Frequency::mhz(100)); // 10 ns
        sim.add_module(fast, probe("f", &log, &resets));
        sim.add_module(slow, probe("s", &log, &resets));
        sim.run_until(Time::from_ns(20));
        let seq: Vec<(String, u64)> = log.borrow().iter().map(|e| (e.0.clone(), e.1)).collect();
        // Edges: 5(f0) 10(f1,s0) 15(f2) 20(f3,s1); fast created first so it
        // ticks first at shared instants.
        assert_eq!(
            seq,
            vec![
                ("f".into(), 0),
                ("f".into(), 1),
                ("s".into(), 0),
                ("f".into(), 2),
                ("f".into(), 3),
                ("s".into(), 1),
            ]
        );
    }

    #[test]
    fn run_while_predicate() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let resets = Rc::new(RefCell::new(0));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        sim.add_module(clk, probe("p", &log, &resets));
        let log2 = log.clone();
        let done = sim.run_while(Time::from_us(1), move || log2.borrow().len() < 5);
        assert!(done);
        assert_eq!(log.borrow().len(), 5);
    }

    #[test]
    fn run_while_deadline_expires() {
        let mut sim = Simulator::new();
        let _clk = sim.add_clock("c", Frequency::mhz(100));
        let done = sim.run_while(Time::from_ns(50), || true);
        assert!(!done);
        assert!(sim.now() >= Time::from_ns(50));
    }

    #[test]
    fn reset_restarts_cycles_and_calls_modules() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let resets = Rc::new(RefCell::new(0));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        sim.add_module(clk, probe("p", &log, &resets));
        sim.run_cycles(clk, 4);
        sim.reset();
        assert_eq!(*resets.borrow(), 1);
        assert_eq!(sim.cycles(clk), 0);
        sim.run_cycles(clk, 1);
        // Cycle numbering restarted but time kept advancing.
        assert_eq!(log.borrow().last().unwrap().1, 0);
    }

    #[test]
    fn empty_simulator_run_until_advances_time() {
        let mut sim = Simulator::new();
        sim.run_until(Time::from_ns(100));
        assert_eq!(sim.now(), Time::from_ns(100));
        assert!(sim.step().is_none());
    }

    /// Identical construction yields an identical edge trace (determinism).
    #[test]
    fn determinism() {
        let build = || {
            let log = Rc::new(RefCell::new(Vec::new()));
            let resets = Rc::new(RefCell::new(0));
            let mut sim = Simulator::new();
            let a = sim.add_clock("a", Frequency::mhz(156));
            let b = sim.add_clock("b", Frequency::mhz(200));
            sim.add_module(a, probe("a", &log, &resets));
            sim.add_module(b, probe("b", &log, &resets));
            sim.run_until(Time::from_us(1));
            let trace = log.borrow().clone();
            trace
        };
        assert_eq!(build(), build());
    }

    // ------------------------------------------------------------------
    // Edge order against its arithmetic schedule; quiescence fast-forward.
    // ------------------------------------------------------------------

    /// The edge schedule of clocks `(name, first edge, period)` through
    /// `until`, as one probe per clock logs it: every edge
    /// `first + k·period` with its cycle `k`, ordered by instant and, at a
    /// shared instant, by creation order.
    fn schedule(clocks: &[(&str, Time, Time)], until: Time) -> Vec<(String, u64, Time)> {
        let mut edges = Vec::new();
        for (i, &(_, first, period)) in clocks.iter().enumerate() {
            let (mut t, mut k) = (first, 0);
            while t <= until {
                edges.push((t, i, k));
                t += period;
                k += 1;
            }
        }
        edges.sort();
        edges
            .into_iter()
            .map(|(t, i, k)| (clocks[i].0.to_string(), k, t))
            .collect()
    }

    /// Build one fixed three-clock topology, run it in the given mode and
    /// return (trace, now, cycles per domain).
    fn trace_with(mode: SchedulerMode) -> (Vec<(String, u64, Time)>, Time, Vec<u64>) {
        let log: TickLog = Rc::new(RefCell::new(Vec::new()));
        let resets = Rc::new(RefCell::new(0));
        let mut sim = Simulator::with_scheduler(mode);
        let a = sim.add_clock("a", Frequency::mhz(200)); // 5 ns
        let b = sim.add_clock("b", Frequency::mhz(100)); // 10 ns
        let c = sim.add_clock("c", Frequency::mhz(125)); // 8 ns
        sim.add_module(a, probe("a", &log, &resets));
        sim.add_module(b, probe("b", &log, &resets));
        sim.add_module(c, probe("c", &log, &resets));
        sim.run_until(Time::from_ns(333));
        sim.run_cycles(b, 7);
        let cycles = vec![sim.cycles(a), sim.cycles(b), sim.cycles(c)];
        let trace = log.borrow().clone();
        (trace, sim.now(), cycles)
    }

    #[test]
    fn dispatchers_produce_identical_traces() {
        let ns = Time::from_ns;
        // `run_until(333 ns)` stops at a's edge at 335 ns; seven more
        // cycles of b, whose next edge is at 340 ns, end at 400 ns.
        let end = ns(400);
        let clocks = [
            ("a", ns(5), ns(5)),
            ("b", ns(10), ns(10)),
            ("c", ns(8), ns(8)),
        ];
        for mode in [SchedulerMode::Scan, SchedulerMode::Auto] {
            let expected = (schedule(&clocks, end), end, vec![80, 40, 50]);
            assert_eq!(trace_with(mode), expected, "{mode:?}");
        }
    }

    /// Clocks a (5 ns) and b (7 ns) run to b's edge at 14 ns, then clock c
    /// (11 ns) joins, its first edge at 25 ns: in phase with neither.
    #[test]
    fn late_added_out_of_phase_clock_ticks_in_time_order() {
        let ns = Time::from_ns;
        for mode in [SchedulerMode::Scan, SchedulerMode::Auto] {
            let log: TickLog = Rc::new(RefCell::new(Vec::new()));
            let resets = Rc::new(RefCell::new(0));
            let mut sim = Simulator::with_scheduler(mode);
            let a = sim.add_clock("a", Frequency::mhz(200)); // 5 ns
            let b = sim.add_clock("b", Frequency::hz(142_857_143)); // 7 ns
            sim.add_module(a, probe("a", &log, &resets));
            sim.add_module(b, probe("b", &log, &resets));
            sim.run_until(ns(14));
            let c = sim.add_clock("c", Frequency::hz(90_909_091)); // 11 ns
            sim.add_module(c, probe("c", &log, &resets));
            sim.run_until(ns(200));
            assert_eq!(sim.now(), ns(200), "{mode:?}");
            let clocks = [
                ("a", ns(5), ns(5)),
                ("b", ns(7), ns(7)),
                ("c", ns(25), ns(11)),
            ];
            assert_eq!(*log.borrow(), schedule(&clocks, ns(200)), "{mode:?}");
        }
    }

    /// A module that is quiescent from the start; its ticks must be skipped
    /// but cycle counting and time must be exactly as if it were ticked.
    struct Idle {
        ticks: Rc<RefCell<u64>>,
        quiescent: Rc<RefCell<bool>>,
    }

    impl Module for Idle {
        fn name(&self) -> &str {
            "idle"
        }
        fn tick(&mut self, _ctx: &TickContext) {
            *self.ticks.borrow_mut() += 1;
        }
        fn activity(&self) -> Activity {
            Activity::idle_if(*self.quiescent.borrow())
        }
    }

    #[test]
    fn quiescent_modules_skip_ticks_but_keep_time() {
        let ticks = Rc::new(RefCell::new(0));
        let quiescent = Rc::new(RefCell::new(true));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        sim.add_module(
            clk,
            Idle {
                ticks: ticks.clone(),
                quiescent: quiescent.clone(),
            },
        );
        sim.run_cycles(clk, 1000);
        assert_eq!(*ticks.borrow(), 0, "quiescent module must not tick");
        assert_eq!(sim.cycles(clk), 1000);
        assert_eq!(sim.now(), Time::from_ns(10 * 1000));
        // Wake it up: ticks resume.
        *quiescent.borrow_mut() = false;
        sim.run_cycles(clk, 5);
        assert_eq!(*ticks.borrow(), 5);
        assert_eq!(sim.cycles(clk), 1005);
    }

    #[test]
    fn fast_forward_matches_naive_run_until() {
        let run = |idle_skip: bool| {
            let ticks = Rc::new(RefCell::new(0));
            let quiescent = Rc::new(RefCell::new(true));
            let mut sim = Simulator::new();
            let a = sim.add_clock("a", Frequency::mhz(156)); // 6410 ps
            let b = sim.add_clock("b", Frequency::mhz(200));
            sim.set_idle_skip(idle_skip);
            sim.add_module(a, Idle { ticks, quiescent });
            sim.run_until(Time::from_us(3));
            (sim.now(), sim.cycles(a), sim.cycles(b))
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn fast_forward_matches_naive_run_cycles() {
        let run = |idle_skip: bool| {
            let mut sim = Simulator::new();
            let a = sim.add_clock("a", Frequency::mhz(156));
            let b = sim.add_clock("b", Frequency::mhz(200));
            sim.set_idle_skip(idle_skip);
            sim.run_cycles(b, 1234);
            (sim.now(), sim.cycles(a), sim.cycles(b))
        };
        assert_eq!(run(true), run(false));
        // And stepping resumes correctly at the next edge afterwards.
        let mut sim = Simulator::new();
        let a = sim.add_clock("a", Frequency::mhz(100));
        sim.run_cycles(a, 10);
        assert_eq!(sim.step(), Some(Time::from_ns(110)));
    }

    #[test]
    fn fast_forward_then_wake_interleaves_exactly() {
        // Half the run idle, then wake a probe: the post-wake trace must be
        // identical to the never-skipped run.
        let run = |idle_skip: bool| {
            let log: TickLog = Rc::new(RefCell::new(Vec::new()));
            let resets = Rc::new(RefCell::new(0));
            let quiescent = Rc::new(RefCell::new(true));
            let ticks = Rc::new(RefCell::new(0));
            let mut sim = Simulator::new();
            sim.set_idle_skip(idle_skip);
            let a = sim.add_clock("a", Frequency::mhz(200));
            let b = sim.add_clock("b", Frequency::mhz(125));
            sim.add_module(
                a,
                Idle {
                    ticks,
                    quiescent: quiescent.clone(),
                },
            );
            sim.run_until(Time::from_ns(1000));
            // Wake: add an always-active probe by flipping quiescence off.
            *quiescent.borrow_mut() = false;
            sim.add_module(b, probe("b", &log, &resets));
            sim.run_until(Time::from_ns(2000));
            let trace = log.borrow().clone();
            // `ticks` itself differs (that is the point of skipping); all
            // externally observable state must not.
            (trace, sim.now(), sim.cycles(a), sim.cycles(b))
        };
        assert_eq!(run(true), run(false));
    }

    /// An `Idle` that opts into the cached-bound protocol: quiescence is
    /// only allowed to change together with a wake, as the contract
    /// requires.
    struct CachedIdle {
        ticks: Rc<RefCell<u64>>,
        quiescent: Rc<RefCell<bool>>,
        wake: WakeHandle,
    }

    impl Module for CachedIdle {
        fn name(&self) -> &str {
            "cached_idle"
        }
        fn tick(&mut self, _ctx: &TickContext) {
            *self.ticks.borrow_mut() += 1;
        }
        fn activity(&self) -> Activity {
            Activity::idle_if(*self.quiescent.borrow())
        }
        fn wake_handle(&self) -> Option<WakeHandle> {
            Some(self.wake.clone())
        }
    }

    #[test]
    fn wake_handle_serves_classification_from_cache() {
        let ticks = Rc::new(RefCell::new(0));
        let quiescent = Rc::new(RefCell::new(true));
        let wake = WakeHandle::new();
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        sim.add_module(
            clk,
            CachedIdle {
                ticks: ticks.clone(),
                quiescent: quiescent.clone(),
                wake: wake.clone(),
            },
        );
        // An always-active companion keeps the domain stepping, so every
        // edge consults (and must be served by) the idle module's cache.
        let log: TickLog = Rc::new(RefCell::new(Vec::new()));
        let resets = Rc::new(RefCell::new(0));
        sim.add_module(clk, probe("busy", &log, &resets));
        sim.run_cycles(clk, 100);
        assert_eq!(*ticks.borrow(), 0, "cached-quiescent module must not tick");
        let s = sim.kernel_stats();
        assert!(s.probes_avoided > 0, "clean cache must serve probes: {s:?}");
        // An edge-triggered wake re-queries the module and resumes ticking.
        *quiescent.borrow_mut() = false;
        wake.wake();
        sim.run_cycles(clk, 5);
        assert_eq!(*ticks.borrow(), 5);
        let s2 = sim.kernel_stats();
        assert!(
            s2.invalidations > s.invalidations,
            "wake must force a re-query"
        );
        assert_eq!(sim.cycles(clk), 105, "cycle count is oblivious to caching");
        // The per-module tick table shows the same split by name.
        assert_eq!(
            sim.module_ticks(),
            vec![("cached_idle".to_string(), 5), ("busy".to_string(), 105)]
        );
    }

    /// A one-shot timer exposing its release instant as a cached bound:
    /// the fused kernel must skip straight to it, firing at the identical
    /// edge the unfused reference executes.
    struct CachedTimer {
        fire_at: Time,
        fired: TickLog,
        wake: WakeHandle,
    }

    impl Module for CachedTimer {
        fn name(&self) -> &str {
            "cached_timer"
        }
        fn tick(&mut self, ctx: &TickContext) {
            if self.fired.borrow().is_empty() && ctx.now >= self.fire_at {
                self.fired
                    .borrow_mut()
                    .push((self.name().into(), ctx.cycle, ctx.now));
            }
        }
        fn activity(&self) -> Activity {
            if self.fired.borrow().is_empty() {
                Activity::Bounded(self.fire_at)
            } else {
                Activity::Quiescent
            }
        }
        fn wake_handle(&self) -> Option<WakeHandle> {
            Some(self.wake.clone())
        }
    }

    #[test]
    fn cached_bound_skips_to_release_bit_identically() {
        let run = |mode: SchedulerMode, idle_skip: bool| {
            let fired = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::with_scheduler(mode);
            sim.set_idle_skip(idle_skip);
            let clk = sim.add_clock("c", Frequency::mhz(100));
            sim.add_module(
                clk,
                CachedTimer {
                    fire_at: Time::from_ns(7777),
                    fired: fired.clone(),
                    wake: WakeHandle::new(),
                },
            );
            sim.run_until(Time::from_us(20));
            let steps = sim.kernel_stats().steps;
            let fired = fired.borrow().clone();
            (fired, sim.now(), sim.cycles(clk), steps)
        };
        let naive = run(SchedulerMode::Scan, false);
        let fast = run(SchedulerMode::Auto, true);
        assert_eq!(naive.0, fast.0, "identical firing edge");
        assert_eq!((naive.1, naive.2), (fast.1, fast.2));
        assert!(
            fast.3 < naive.3 / 10,
            "bounded skip must execute a fraction of the edges: fast {} vs naive {}",
            fast.3,
            naive.3
        );
    }

    #[test]
    fn kernel_stats_count_steps_and_skips() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        let log: TickLog = Rc::new(RefCell::new(Vec::new()));
        let resets = Rc::new(RefCell::new(0));
        sim.add_module(clk, probe("p", &log, &resets));
        sim.run_cycles(clk, 50);
        let s = sim.kernel_stats();
        assert_eq!(s.steps, 50, "active module: every edge executes");
        // An empty quiescent stretch is fast-forwarded, not stepped.
        let mut idle = Simulator::new();
        let iclk = idle.add_clock("c", Frequency::mhz(100));
        idle.run_cycles(iclk, 1000);
        let s = idle.kernel_stats();
        assert!(s.skips > 0, "idle stretch must be skipped: {s:?}");
        assert!(s.steps < 1000);
    }

    /// What a `run_cycles` check observes: `now`, every domain's cycle
    /// count and the trace.
    type Observed = (Time, Vec<u64>, Vec<(String, u64, Time)>);

    /// A fresh simulator, its clocks in creation order and its modules' log.
    type Rig = (Simulator, Vec<ClockId>, TickLog);

    fn observe((sim, clks, log): &Rig) -> Observed {
        let cycles = clks.iter().map(|&c| sim.cycles(c)).collect();
        (sim.now(), cycles, log.borrow().clone())
    }

    /// `run_cycles(clks[k], n)` on one rig against an explicit `step()` loop
    /// until domain `k` has `n` more cycles on another: both must observe
    /// alike. Returns the observation and the `run_cycles` rig's counters.
    fn run_cycles_against_steps(
        build: impl Fn() -> Rig,
        k: usize,
        n: u64,
    ) -> (Observed, KernelStats) {
        let mut rig = build();
        rig.0.run_cycles(rig.1[k], n);
        let got = observe(&rig);
        let (mut sim, clks, log) = build();
        let target = sim.cycles(clks[k]) + n;
        while sim.cycles(clks[k]) < target {
            sim.step();
        }
        assert_eq!(
            got,
            observe(&(sim, clks, log)),
            "run_cycles(clks[{k}], {n})"
        );
        (got, rig.0.kernel_stats())
    }

    #[test]
    fn run_cycles_is_run_until_of_its_target_edge() {
        let ns = Time::from_ns;
        // Two always-active probes, the slower clock created first, run to
        // the fast clock's edge at 25 ns.
        let probes = || {
            let log: TickLog = Rc::new(RefCell::new(Vec::new()));
            let resets = Rc::new(RefCell::new(0));
            let mut sim = Simulator::new();
            let slow = sim.add_clock("slow", Frequency::mhz(100)); // 10 ns
            let fast = sim.add_clock("fast", Frequency::mhz(200)); // 5 ns
            sim.add_module(slow, probe("slow", &log, &resets));
            sim.add_module(fast, probe("fast", &log, &resets));
            sim.run_until(ns(23));
            (sim, vec![slow, fast], log)
        };

        // n = 0 returns at once: no step, no tick, `now` stays.
        let start = probes();
        let (got, stats) = run_cycles_against_steps(probes, 0, 0);
        assert_eq!(got, observe(&start));
        assert_eq!(stats, start.0.kernel_stats());

        // Three more slow cycles end at its edge at 50 ns, where the faster
        // domain has an edge too: it ticks in the same step, after slow.
        let (got, _) = run_cycles_against_steps(probes, 0, 3);
        assert_eq!((got.0, &got.1[..]), (ns(50), &[5, 10][..]));
        let last = [
            ("slow".to_string(), 4, ns(50)),
            ("fast".to_string(), 9, ns(50)),
        ];
        assert_eq!(got.2[got.2.len() - 2..], last);

        // A timer on a 10 ns clock fires at its edge at 7 780 ns; then no
        // module can act, so the rest of 2 000 cycles of an 8 ns clock is
        // fast-forwarded through the target edge at 16 µs.
        let timer = || {
            let log: TickLog = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new();
            let a = sim.add_clock("a", Frequency::mhz(100)); // 10 ns
            let b = sim.add_clock("b", Frequency::mhz(125)); // 8 ns
            let fired = log.clone();
            let wake = WakeHandle::new();
            let fire_at = ns(7777);
            sim.add_module(
                a,
                CachedTimer {
                    fire_at,
                    fired,
                    wake,
                },
            );
            (sim, vec![a, b], log)
        };
        let (got, stats) = run_cycles_against_steps(timer, 1, 2000);
        let fired = vec![("cached_timer".to_string(), 777, ns(7780))];
        assert_eq!(got, (ns(16_000), vec![1600, 2000], fired));
        assert_eq!((stats.steps, stats.skips), (1, 1599 + 2000), "{stats:?}");
    }

    /// A module that asserts the soft-reset line at a chosen cycle and logs
    /// every `soft_reset` it receives (with the cycle count at that point).
    struct ResetRequester {
        line: SoftResetLine,
        fire_cycle: u64,
        ticks: Rc<RefCell<u64>>,
        soft_resets: Rc<RefCell<Vec<u64>>>,
    }

    impl Module for ResetRequester {
        fn name(&self) -> &str {
            "reset_requester"
        }
        fn tick(&mut self, ctx: &TickContext) {
            *self.ticks.borrow_mut() += 1;
            if ctx.cycle == self.fire_cycle {
                self.line.request();
            }
        }
        fn soft_reset(&mut self) {
            let ticks = *self.ticks.borrow();
            self.soft_resets.borrow_mut().push(ticks);
        }
    }

    /// A request from inside one edge's tick is consumed exactly once, at
    /// the next step boundary — before any module ticks that edge — and in
    /// every scheduler mode at the identical point in the tick sequence.
    #[test]
    fn soft_reset_line_latches_at_step_boundary() {
        let run = |mode: SchedulerMode| {
            let ticks = Rc::new(RefCell::new(0));
            let soft_resets = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::with_scheduler(mode);
            let clk = sim.add_clock("c", Frequency::mhz(100));
            sim.add_module(
                clk,
                ResetRequester {
                    line: sim.soft_reset_line(),
                    fire_cycle: 3,
                    ticks: ticks.clone(),
                    soft_resets: soft_resets.clone(),
                },
            );
            sim.run_cycles(clk, 10);
            let out = (*ticks.borrow(), soft_resets.borrow().clone());
            out
        };
        for mode in [SchedulerMode::Scan, SchedulerMode::Auto] {
            let (ticks, softs) = run(mode);
            assert_eq!(ticks, 10);
            // Requested during the cycle-3 tick (the 4th); consumed before
            // the 5th tick runs.
            assert_eq!(softs, vec![4], "mode {mode:?}");
        }
    }

    /// `Simulator::reset` discards a pending soft-reset request, and a
    /// direct `Simulator::soft_reset` call reaches every module without
    /// touching clocks or cycle counters.
    #[test]
    fn soft_reset_direct_and_reset_clears_pending() {
        let ticks = Rc::new(RefCell::new(0));
        let soft_resets = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        sim.add_module(
            clk,
            ResetRequester {
                line: sim.soft_reset_line(),
                fire_cycle: u64::MAX,
                ticks,
                soft_resets: soft_resets.clone(),
            },
        );
        sim.run_cycles(clk, 2);
        sim.soft_reset();
        assert_eq!(soft_resets.borrow().clone(), vec![2]);
        assert_eq!(sim.cycles(clk), 2, "soft reset leaves clocks untouched");
        // A pending request is discarded by a full reset.
        sim.soft_reset_line().request();
        sim.reset();
        sim.run_cycles(clk, 1);
        assert_eq!(
            soft_resets.borrow().clone(),
            vec![2],
            "reset cleared the line"
        );
    }

    /// The contract trap: mutating activity-relevant state without waking
    /// the handle is caught loudly in debug builds (and under `paranoid`)
    /// instead of silently skipping work.
    #[test]
    #[cfg(any(debug_assertions, feature = "paranoid"))]
    #[should_panic(expected = "without a tick or a wake")]
    fn stale_cache_without_wake_is_caught_in_debug() {
        let quiescent = Rc::new(RefCell::new(true));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        sim.add_module(
            clk,
            CachedIdle {
                ticks: Rc::new(RefCell::new(0)),
                quiescent: quiescent.clone(),
                wake: WakeHandle::new(),
            },
        );
        sim.run_cycles(clk, 3);
        *quiescent.borrow_mut() = false; // changed behind the cache's back
        sim.run_cycles(clk, 3);
    }
}
