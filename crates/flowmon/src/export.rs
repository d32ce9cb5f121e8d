//! Streaming telemetry export: periodic registry snapshots rendered as
//! Prometheus text, plus a bounded ring of timestamped counter deltas.
//!
//! The [`FlowExporter`] is a sim [`Module`] that wakes on cycle-aligned
//! sampling instants (advertised through `Activity::Bounded`, so time-blocked
//! fast-forward skips straight to them). Each sample it: records the
//! configured occupancy series into their shared histograms, snapshots
//! the stat registry, pushes a [`Delta`] for every counter that moved
//! (drop-on-full, like the event ring), and marks the Prometheus text
//! stale (it is re-rendered lazily on the next host read). Nothing here
//! runs per packet, and quiet periods cost almost nothing: every sample
//! in which no stat moved doubles the next interval (capped at 32× the
//! configured one), snapping back to the base rate on the first sign of
//! movement — interrupt-coalescing for telemetry.

use std::cell::RefCell;
use std::rc::Rc;

use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stats::Counter;
use netfpga_core::telemetry::StatRegistry;
use netfpga_core::time::Time;

use crate::hist::LogLinearHistogram;

/// One counter movement, as streamed to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delta {
    /// Index of the stat in the registry's sorted snapshot — the same
    /// order the telemetry stat block publishes names in, so the host
    /// resolves indices to paths without a side channel.
    pub stat: u32,
    /// The stat's value at the sample instant.
    pub value: u64,
    /// Change since the previous sample (wrapping, to survive clears).
    pub delta: u64,
    /// Sample timestamp.
    pub at: Time,
}

/// A bounded ring of [`Delta`]s with drop-on-full semantics: `head` and
/// `tail` are monotonically increasing sequence numbers, slot `seq` lives
/// at `seq % capacity`, and a push with no free slot increments `dropped`
/// instead of overwriting unread entries.
#[derive(Debug)]
pub struct DeltaRing {
    slots: Vec<Delta>,
    capacity: usize,
    head: u64,
    tail: u64,
    dropped: u64,
}

impl DeltaRing {
    /// An empty ring of `capacity` slots.
    pub fn new(capacity: usize) -> DeltaRing {
        assert!(capacity > 0, "empty delta ring");
        DeltaRing {
            slots: vec![
                Delta {
                    stat: 0,
                    value: 0,
                    delta: 0,
                    at: Time::ZERO
                };
                capacity
            ],
            capacity,
            head: 0,
            tail: 0,
            dropped: 0,
        }
    }

    /// Append one delta; returns `false` (and counts a drop) when full.
    pub fn push(&mut self, d: Delta) -> bool {
        if self.head - self.tail >= self.capacity as u64 {
            self.dropped += 1;
            return false;
        }
        let idx = (self.head % self.capacity as u64) as usize;
        self.slots[idx] = d;
        self.head += 1;
        true
    }

    /// Consume the oldest unread delta.
    pub fn pop(&mut self) -> Option<Delta> {
        if self.tail == self.head {
            return None;
        }
        let idx = (self.tail % self.capacity as u64) as usize;
        self.tail += 1;
        Some(self.slots[idx])
    }

    /// Raw contents of slot `idx` (the MMIO RAM view — may be stale for
    /// already-consumed sequences, like real slot memory).
    pub fn slot(&self, idx: usize) -> Option<Delta> {
        self.slots.get(idx).copied()
    }

    /// Read the delta at sequence `seq` without consuming, if still live.
    pub fn get(&self, seq: u64) -> Option<Delta> {
        if seq < self.tail || seq >= self.head {
            return None;
        }
        Some(self.slots[(seq % self.capacity as u64) as usize])
    }

    /// Next sequence number to be written.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Oldest unread sequence number.
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Advance the read pointer (clamped to `[tail, head]`) — the MMIO
    /// tail-write path.
    pub fn set_tail(&mut self, tail: u64) {
        self.tail = tail.clamp(self.tail, self.head);
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Unread deltas.
    pub fn len(&self) -> usize {
        (self.head - self.tail) as usize
    }

    /// True when nothing is unread.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Deltas discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forget everything, including the drop count.
    pub fn clear(&mut self) {
        self.head = 0;
        self.tail = 0;
        self.dropped = 0;
    }
}

/// Render one stat as a Prometheus exposition line into `out`:
/// `netfpga_<path> <value>\n` with non-alphanumeric separators folded to
/// `_`.
fn prometheus_line(out: &mut String, path: &str, value: u64) {
    out.push_str("netfpga_");
    for c in path.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Render a registry snapshot as Prometheus exposition text: one
/// `netfpga_<path> <value>` line per stat, dots and other separators
/// folded to `_`, in the registry's sorted-path order.
pub fn prometheus_text(snapshot: &[(String, u64)]) -> String {
    let mut out = String::with_capacity(snapshot.len() * 32);
    for (path, value) in snapshot {
        prometheus_line(&mut out, path, *value);
    }
    out
}

/// The values captured at the most recent sample instant, plus the
/// lazily rendered Prometheus text. The sampler only copies `u64`s here;
/// text is regenerated on the first read after each sample.
#[derive(Debug)]
struct SampledSnap {
    paths: Rc<Vec<String>>,
    values: Vec<u64>,
    dirty: bool,
    text: String,
}

/// Shared read-side of a [`FlowExporter`]: the delta ring, the latest
/// sampled snapshot and the snapshot counter survive after the exporter
/// module is moved into the simulator.
#[derive(Debug, Clone)]
pub struct ExporterHandle {
    ring: Rc<RefCell<DeltaRing>>,
    snap: Rc<RefCell<SampledSnap>>,
    snapshots: Counter,
}

impl ExporterHandle {
    /// The delta ring (shared with the MMIO block).
    pub fn ring(&self) -> Rc<RefCell<DeltaRing>> {
        self.ring.clone()
    }

    /// The most recent Prometheus-text snapshot (empty before the first
    /// sample). Rendering happens here, on the host side — the sampling
    /// hot path only copies values.
    pub fn prometheus(&self) -> String {
        let mut s = self.snap.borrow_mut();
        if s.dirty {
            let mut text = String::with_capacity(s.paths.len() * 32);
            for (path, value) in s.paths.iter().zip(&s.values) {
                prometheus_line(&mut text, path, *value);
            }
            s.text = text;
            s.dirty = false;
        }
        s.text.clone()
    }

    /// Samples taken so far.
    pub fn snapshots(&self) -> u64 {
        self.snapshots.get()
    }

    /// The snapshot counter itself, for registry mounting.
    pub fn snapshot_counter(&self) -> Counter {
        self.snapshots.clone()
    }

    /// Drain every unread delta.
    pub fn drain_deltas(&self) -> Vec<Delta> {
        let mut ring = self.ring.borrow_mut();
        core::iter::from_fn(|| ring.pop()).collect()
    }
}

/// An occupancy series: a shared histogram and the sampled source.
type Series = (Rc<RefCell<LogLinearHistogram>>, Rc<dyn Fn() -> u64>);

/// The periodic exporter module. See module docs.
pub struct FlowExporter {
    registry: StatRegistry,
    interval: Time,
    ring: Rc<RefCell<DeltaRing>>,
    snap: Rc<RefCell<SampledSnap>>,
    snapshots: Counter,
    /// Occupancy series: every sample records `source()` into the shared
    /// histogram whose quantile gauges sit in the registry.
    series: Vec<Series>,
    /// Registry paths at the current baseline, in sorted order — delta
    /// `stat` indices point into this table.
    paths: Rc<Vec<String>>,
    /// Values at the previous sample, aligned with `paths`.
    prev: Vec<u64>,
    /// Reused per-sample value buffer (no per-sample allocation).
    scratch: Vec<u64>,
    inited: bool,
    interval_cycles: u64,
    next_cycle: u64,
    next_at: Time,
    /// Consecutive samples in which no stat moved. Each quiet sample
    /// doubles the next interval (capped at [`IDLE_BACKOFF_MAX_SHIFT`]
    /// doublings), so a drained pipeline costs a handful of wakeups
    /// instead of one per base interval; the first moving sample snaps
    /// back to the base rate.
    quiet: u32,
    /// Activity-cache flag. The exporter has no external input channels —
    /// its bound only moves on its own sample ticks — so the handle is
    /// never woken; it exists purely to let the kernel cache `next_at`.
    wake: WakeHandle,
}

/// Cap on idle-backoff doublings: the stretched interval never exceeds
/// `32×` the configured one.
const IDLE_BACKOFF_MAX_SHIFT: u32 = 5;

impl core::fmt::Debug for FlowExporter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FlowExporter")
            .field("interval", &self.interval)
            .field("series", &self.series.len())
            .field("next_cycle", &self.next_cycle)
            .finish()
    }
}

impl FlowExporter {
    /// An exporter sampling `registry` every `interval` (rounded down to
    /// whole core-clock cycles at first tick, minimum one), streaming
    /// counter movements through a ring of `delta_capacity` slots.
    pub fn new(registry: StatRegistry, interval: Time, delta_capacity: usize) -> FlowExporter {
        assert!(interval > Time::ZERO, "zero sampling interval");
        FlowExporter {
            registry,
            interval,
            ring: Rc::new(RefCell::new(DeltaRing::new(delta_capacity))),
            snap: Rc::new(RefCell::new(SampledSnap {
                paths: Rc::new(Vec::new()),
                values: Vec::new(),
                dirty: false,
                text: String::new(),
            })),
            snapshots: Counter::new(),
            series: Vec::new(),
            paths: Rc::new(Vec::new()),
            prev: Vec::new(),
            scratch: Vec::new(),
            inited: false,
            interval_cycles: 1,
            next_cycle: 0,
            next_at: Time::ZERO,
            quiet: 0,
            wake: WakeHandle::new(),
        }
    }

    /// Sample `source` into `hist` at every export interval. The source
    /// runs only at sample instants — never on the packet path.
    pub fn add_series(
        &mut self,
        hist: Rc<RefCell<LogLinearHistogram>>,
        source: impl Fn() -> u64 + 'static,
    ) {
        self.series.push((hist, Rc::new(source)));
    }

    /// The shared read-side handle.
    pub fn handle(&self) -> ExporterHandle {
        ExporterHandle {
            ring: self.ring.clone(),
            snap: self.snap.clone(),
            snapshots: self.snapshots.clone(),
        }
    }

    /// Refresh the baseline path table and value vector from the
    /// registry. Runs at init and whenever the path set changes.
    fn rebaseline(&mut self) {
        let snap = self.registry.snapshot();
        self.paths = Rc::new(snap.iter().map(|(p, _)| p.clone()).collect());
        self.scratch.clear();
        self.scratch.extend(snap.iter().map(|(_, v)| *v));
    }

    /// Take one sample; returns true when any stat moved since the
    /// previous one (the idle-backoff signal).
    fn sample(&mut self, now: Time) -> bool {
        // Histograms first, so the quantile gauges in the snapshot below
        // reflect this sample.
        for (hist, source) in &self.series {
            hist.borrow_mut().record(source());
        }
        // Walk the registry once, allocation-free: collect values and
        // verify the path set still matches the baseline.
        let paths = &self.paths;
        let scratch = &mut self.scratch;
        scratch.clear();
        let mut same = true;
        let mut i = 0usize;
        self.registry.for_each(|path, value| {
            if i >= paths.len() || paths[i] != path {
                same = false;
            }
            scratch.push(value);
            i += 1;
        });
        let same = same && i == paths.len();
        let mut moved = !same;
        if same {
            let mut ring = self.ring.borrow_mut();
            for (idx, (&value, &prev)) in self.scratch.iter().zip(&self.prev).enumerate() {
                if value != prev {
                    moved = true;
                    ring.push(Delta {
                        stat: idx as u32,
                        value,
                        delta: value.wrapping_sub(prev),
                        at: now,
                    });
                }
            }
        } else {
            // Re-baseline silently when the path set changed (indices
            // moved); no deltas this sample.
            self.rebaseline();
        }
        std::mem::swap(&mut self.prev, &mut self.scratch);
        {
            let mut s = self.snap.borrow_mut();
            s.paths = self.paths.clone();
            s.values.clear();
            s.values.extend_from_slice(&self.prev);
            s.dirty = true;
        }
        self.snapshots.incr();
        moved
    }
}

impl Module for FlowExporter {
    fn name(&self) -> &str {
        "flow_exporter"
    }

    fn tick(&mut self, ctx: &TickContext) {
        if !self.inited {
            let period = ctx.period.as_ps().max(1);
            self.interval_cycles = (self.interval.as_ps() / period).max(1);
            self.next_cycle = ctx.cycle + self.interval_cycles;
            self.next_at = ctx.now + Time::from_ps(self.interval_cycles * period);
            self.rebaseline();
            std::mem::swap(&mut self.prev, &mut self.scratch);
            self.inited = true;
            return;
        }
        // Edges between samples take this single-compare exit — the
        // exporter is ticked on every busy edge, so anything more (even
        // recomputing `next_at`, which only changes when `next_cycle`
        // does) shows up in the saturated-throughput bars.
        if ctx.cycle < self.next_cycle {
            return;
        }
        while ctx.cycle >= self.next_cycle {
            if self.sample(ctx.now) {
                self.quiet = 0;
            } else {
                self.quiet = (self.quiet + 1).min(IDLE_BACKOFF_MAX_SHIFT);
            }
            self.next_cycle += self.interval_cycles << self.quiet;
        }
        self.next_at = ctx.now + Time::from_ps((self.next_cycle - ctx.cycle) * ctx.period.as_ps());
    }

    fn reset(&mut self) {
        self.ring.borrow_mut().clear();
        {
            let mut s = self.snap.borrow_mut();
            s.paths = Rc::new(Vec::new());
            s.values.clear();
            s.text.clear();
            s.dirty = false;
        }
        for (hist, _) in &self.series {
            hist.borrow_mut().clear();
        }
        self.prev.clear();
        self.paths = Rc::new(Vec::new());
        self.snapshots.clear();
        self.inited = false;
        self.quiet = 0;
    }

    fn activity(&self) -> Activity {
        // The exporter always has a future sample scheduled: never
        // quiescent, inert until the sample instant once it has one.
        if self.inited {
            Activity::Bounded(self.next_at)
        } else {
            Activity::Active
        }
    }

    /// No external channel moves the sample schedule; the handle lets the
    /// kernel cache the bound between the exporter's own ticks.
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
    fn ring_drops_on_full_without_overwriting() {
        let mut r = DeltaRing::new(2);
        let d = |stat| Delta {
            stat,
            value: 1,
            delta: 1,
            at: Time::ZERO,
        };
        assert!(r.push(d(0)));
        assert!(r.push(d(1)));
        assert!(!r.push(d(2)), "full ring drops");
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.pop().unwrap().stat, 0, "unread entries intact");
        assert!(r.push(d(3)), "slot freed by pop");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn ring_tail_writes_clamp() {
        let mut r = DeltaRing::new(4);
        for i in 0..3 {
            r.push(Delta {
                stat: i,
                value: 0,
                delta: 0,
                at: Time::ZERO,
            });
        }
        r.set_tail(100);
        assert_eq!(r.tail(), 3, "clamped to head");
        r.set_tail(0);
        assert_eq!(r.tail(), 3, "never rewinds");
    }

    #[test]
    fn prometheus_text_sanitizes_paths() {
        let snap = vec![
            ("pipeline.lookup.hits".to_string(), 42),
            ("port0.q0.depth.p99".to_string(), 7),
        ];
        let text = prometheus_text(&snap);
        assert_eq!(
            text,
            "netfpga_pipeline_lookup_hits 42\nnetfpga_port0_q0_depth_p99 7\n"
        );
    }

    #[test]
    fn exporter_samples_on_interval_and_streams_deltas() {
        let reg = StatRegistry::new();
        let c = reg.counter("rx.frames");
        // 100 MHz core clock (10 ns period); sample every 100 ns.
        let exp = FlowExporter::new(reg.clone(), Time::from_ns(100), 8);
        let handle = exp.handle();
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(100));
        sim.add_module(clk, exp);
        // First edge initializes; counter moves, then two intervals pass.
        sim.run_until(Time::from_ns(55));
        c.add(5);
        sim.run_until(Time::from_ns(255));
        assert!(handle.snapshots() >= 2, "sampled at 110 and 210 ns");
        let deltas = handle.drain_deltas();
        assert_eq!(deltas.len(), 1, "one stat moved once");
        assert_eq!((deltas[0].value, deltas[0].delta), (5, 5));
        assert!(handle.prometheus().contains("netfpga_rx_frames 5\n"));
    }

    #[test]
    fn exporter_records_series_into_histograms() {
        let reg = StatRegistry::new();
        let hist = LogLinearHistogram::shared(4);
        crate::hist::register_quantile_gauges(&reg, "queue.depth", &hist);
        let depth = Rc::new(std::cell::Cell::new(0u64));
        let mut exp = FlowExporter::new(reg.clone(), Time::from_ns(50), 8);
        let d = depth.clone();
        exp.add_series(hist.clone(), move || d.get());
        let handle = exp.handle();
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(100));
        sim.add_module(clk, exp);
        depth.set(12);
        sim.run_until(Time::from_us(1));
        assert!(handle.snapshots() > 0);
        assert_eq!(hist.borrow().max(), 12);
        assert_eq!(reg.get("queue.depth.max"), Some(12));
    }

    #[test]
    fn interval_shorter_than_period_clamps_to_every_cycle() {
        let reg = StatRegistry::new();
        let c = reg.counter("busy.ticks");
        let exp = FlowExporter::new(reg.clone(), Time::from_ps(1), 4);
        let handle = exp.handle();
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(100));
        sim.add_module(clk, exp);
        // Edges land every 10 ns; the first initializes, and while the
        // counter keeps moving each of the next ten edges takes one
        // sample (no idle backoff).
        for _ in 0..11 {
            c.incr();
            sim.step();
        }
        assert_eq!(handle.snapshots(), 10);
    }

    #[test]
    fn idle_sampling_backs_off_and_recovers() {
        let reg = StatRegistry::new();
        let c = reg.counter("rx.frames");
        // Sample every cycle at 100 MHz — worst case for idle cost.
        let exp = FlowExporter::new(reg.clone(), Time::from_ns(10), 8);
        let handle = exp.handle();
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(100));
        sim.add_module(clk, exp);
        sim.run_until(Time::from_us(1));
        let idle = handle.snapshots();
        assert!(
            idle < 20,
            "quiet sampling must back off: {idle} samples in 100 cycles"
        );
        c.add(3);
        sim.run_until(Time::from_us(2));
        assert!(
            handle.drain_deltas().iter().any(|d| d.delta == 3),
            "movement is still exported after backing off"
        );
        assert!(handle.prometheus().contains("netfpga_rx_frames 3\n"));
    }
}
