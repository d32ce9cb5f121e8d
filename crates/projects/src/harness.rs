//! The chassis: a simulated board-in-a-testbed.
//!
//! A [`Chassis`] owns the simulator and the board edge — Ethernet MACs on
//! every front-panel port, and optionally a DMA engine and MMIO bridge for
//! the host side. One [`ChassisConfig`] describes it. Projects wire their
//! datapath between the edge streams ([`ChassisIo`]), exactly as a real
//! project instantiates its pipeline between the platform-provided MAC
//! wrappers and the PCIe core; the lookup projects all wire the same one,
//! the [`ReferencePipeline`].
//!
//! The tester (nftest harness, experiments) interacts only at the edges:
//! frames onto port wires (paced at line rate, as a peer device would
//! send), frames off port wires, register reads/writes through the MMIO
//! model, and packets through the DMA rings.

use netfpga_core::board::BoardSpec;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::regs::{shared, AddressMap};
use netfpga_core::sim::{ClockId, Module, Simulator};
use netfpga_core::stats::Counter;
use netfpga_core::stream::{Stream, StreamRx, StreamTx};
use netfpga_core::telemetry::{
    EventRing, StatBlock, StatRegistry, EVENTS_BASE, EVENTS_SIZE, TELEMETRY_BASE, TELEMETRY_SIZE,
};
use netfpga_core::time::{BitRate, Time};
use netfpga_datapath::pktstats::{StatsHandles, StatsRegisters, StatsStage};
use netfpga_datapath::queues::{OutputQueues, QueueConfig};
use netfpga_datapath::sched::{Fifo, Scheduler};
use netfpga_datapath::stage::PacketLogic;
use netfpga_datapath::{InputArbiter, PacketStage};
use netfpga_faults::{
    FaultHandle, FaultInjector, FaultPlan, FaultRegisters, ProgressProbe, Watchdog, WatchdogConfig,
    FAULTS_BASE,
};
use netfpga_flowmon::hist::register_quantile_gauges;
use netfpga_flowmon::{
    ExporterHandle, FlowExporter, FlowMonHandle, FlowTap, FlowmonConfig, FlowmonRegisters,
    LogLinearHistogram, FLOWMON_BASE, FLOWMON_SIZE,
};
use netfpga_pcie::{DmaEngine, DmaHandle, MmioBridge, MmioPort, PcieConfig};
use netfpga_phy::mac::{wire_bytes, EthMacRx, EthMacTx, WireFrame};
use netfpga_phy::{LinkState, PcsHandle, PcsPort, Wire};
use std::rc::Rc;

/// Depth (in words) of the edge streams between MACs and the datapath.
const EDGE_FIFO_WORDS: usize = 64;

struct TesterPort {
    to_board: Wire,
    from_board: Wire,
    rate: BitRate,
    next_free: Time,
}

/// What a chassis is built from.
#[derive(Debug, Clone)]
pub struct ChassisConfig {
    /// The board: core clock, bus width, port rates, PCIe link.
    pub board: BoardSpec,
    /// Ethernet ports wired, `1..=16`.
    pub nports: usize,
    /// The kernel fast path: the edge MACs, a DMA engine attached later
    /// (whole bursts per tick, its bus still charged a cycle per beat —
    /// see [`DmaEngine`]) and every stage of a [`ReferencePipeline`] run in
    /// burst mode, whole frames per tick instead of one word per cycle.
    /// Frame contents, ordering and — under sustained load — wire pacing
    /// are unchanged; word-level timing inside the pipeline is not
    /// cycle-exact.
    pub fast_path: bool,
    /// The fault plan spliced in by [`Chassis::new`].
    pub faults: FaultPlan,
}

impl ChassisConfig {
    /// `nports` ports of `board`, word-level, no faults.
    pub fn new(board: &BoardSpec, nports: usize) -> ChassisConfig {
        ChassisConfig {
            board: board.clone(),
            nports,
            fast_path: false,
            faults: FaultPlan::none(),
        }
    }
}

/// The project-facing edge streams created by [`Chassis::new`].
pub struct ChassisIo {
    /// Per-port word streams arriving from the RX MACs.
    pub from_ports: Vec<StreamRx>,
    /// Per-port word streams feeding the TX MACs.
    pub to_ports: Vec<StreamTx>,
}

/// A simulated board with its tester-side attachments.
pub struct Chassis {
    /// The simulator owning every module.
    pub sim: Simulator,
    /// The core datapath clock.
    pub clk: ClockId,
    /// Host DMA handle, when a DMA engine is attached.
    pub dma: Option<DmaHandle>,
    /// Host MMIO port, when a bridge is attached.
    pub mmio: Option<MmioPort>,
    /// Fault-plane handle, when the chassis was built with a non-inert
    /// [`FaultPlan`] (see [`Chassis::new`]).
    pub faults: Option<FaultHandle>,
    /// The board's register map (empty until a project mounts blocks).
    pub map: Rc<AddressMap>,
    /// The unified telemetry plane. The chassis registers its own stats
    /// (per-port MACs under `port{i}.mac.*`, DMA under `dma.*`, fault
    /// counters under `faults.*`); projects add theirs at build time.
    /// [`Chassis::attach_mmio`] mounts the whole tree as a [`StatBlock`]
    /// at [`TELEMETRY_BASE`].
    pub telemetry: StatRegistry,
    /// Link/fault event ring, mounted at [`EVENTS_BASE`] by
    /// [`Chassis::attach_mmio`]. Fed by the fault plane when one is
    /// spliced; empty otherwise.
    pub events: EventRing,
    /// Per-port PCS retrain state machines, present when the fault plan
    /// carried a [`RecoveryPolicy`](netfpga_faults::RecoveryPolicy).
    pcs: Vec<PcsHandle>,
    ports: Vec<TesterPort>,
    bus_width: usize,
    /// Whether the edge MACs run in burst mode; a DMA engine attached later
    /// does too.
    fast_path: bool,
    pcie: PcieConfig,
    /// The DMA engine's progress probe, stashed by [`Chassis::attach_dma`]
    /// for the watchdog to consume.
    dma_probe: Option<ProgressProbe>,
    /// The fault plan's recovery policy (watchdog knobs live here).
    recovery: Option<netfpga_faults::RecoveryPolicy>,
    /// The watchdog's bite counter, when one is attached.
    watchdog_bites: Option<Counter>,
}

impl Chassis {
    /// Build the chassis `config` describes: MACs at each of its ports,
    /// core clock and bus width from its board, and — unless its fault
    /// plan is inert ([`FaultPlan::none`]) — the fault plane spliced in: a
    /// [`FaultInjector`] executing the plan between the tester and the port
    /// MACs, its counters mounted at [`FAULTS_BASE`], and the plan's fault
    /// gate on any DMA engine attached later. With an inert plan *nothing*
    /// is spliced. Projects mount their register blocks on [`Chassis::map`]
    /// afterwards.
    pub fn new(config: &ChassisConfig) -> (Chassis, ChassisIo) {
        let (spec, nports, plan) = (&config.board, config.nports, &config.faults);
        let map = AddressMap::new();
        assert!((1..=16).contains(&nports), "1..=16 ports");
        let telemetry = StatRegistry::new();
        let events = EventRing::new(64);
        // The ring drops on overflow by design; the drop count is a stat,
        // so a consumer that fell behind can tell how much it missed.
        let drop_src = events.clone();
        telemetry.gauge("events.dropped", move || drop_src.dropped());
        // Packet-buffer health: backing stores allocated inside the model
        // and copy-on-write materializations (shared buffers actually
        // edited; 0 on a pure forwarding path).
        telemetry.gauge("pool.allocs", || netfpga_core::pktbuf::pool_stats().allocs);
        telemetry.gauge("pool.cow_copies", || {
            netfpga_core::pktbuf::pool_stats().cow_copies
        });
        let mut sim = Simulator::new();
        // Kernel self-observation: the fused dispatcher's own work
        // counters (edges executed, edges fast-forwarded, activity probes
        // served from cache, wake-forced re-queries), mounted beside the
        // datapath stats they pay for.
        let kstats = sim.kernel_stat_cells();
        telemetry.register_counter("kernel.steps", &kstats.steps);
        telemetry.register_counter("kernel.skips", &kstats.skips);
        telemetry.register_counter("kernel.probes_avoided", &kstats.probes_avoided);
        telemetry.register_counter("kernel.invalidations", &kstats.invalidations);
        let clk = sim.add_clock("core", spec.core_clock);
        let rate = spec
            .ports
            .iter()
            .find(|p| matches!(p.kind, netfpga_core::board::PortKind::Sfpp))
            .map(|p| {
                // Quote the post-encoding Ethernet rate (10.3125 G line ->
                // 10 G payload) rather than the raw lane rate, and bond
                // lanes into the port's aggregate rate.
                let lane = if p.lane_rate == BitRate::bps(10_312_500_000) {
                    BitRate::gbps(10)
                } else {
                    p.lane_rate
                };
                BitRate::bps(lane.as_bps() * u64::from(p.lanes))
            })
            .unwrap_or(BitRate::gbps(10));
        let mut injector = if plan.is_inert() {
            None
        } else {
            Some(FaultInjector::new("fault_injector", plan))
        };
        let mut ports = Vec::new();
        let mut from_ports = Vec::new();
        let mut to_ports = Vec::new();
        for i in 0..nports {
            let to_board = Wire::new();
            let from_board = Wire::new();
            // With a live fault plane the injector owns the gap between
            // the tester wires and the MAC wires; without one the MACs sit
            // directly on the tester wires, exactly as before.
            let (mac_in, mac_out) = match &mut injector {
                Some((inj, _)) => {
                    let inner_in = Wire::new();
                    let inner_out = Wire::new();
                    inj.tap_port(
                        rate,
                        to_board.clone(),
                        inner_in.clone(),
                        inner_out.clone(),
                        from_board.clone(),
                    );
                    (inner_in, inner_out)
                }
                None => (to_board.clone(), from_board.clone()),
            };
            let (rx_tx, rx_rx) = Stream::new(EDGE_FIFO_WORDS, spec.bus_width);
            let (tx_tx, tx_rx) = Stream::new(EDGE_FIFO_WORDS, spec.bus_width);
            let (mac_rx, rstat) = EthMacRx::new(&format!("mac{i}_rx"), mac_in, rx_tx, i as u8);
            let (mac_tx, tstat) = EthMacTx::new(&format!("mac{i}_tx"), rate, tx_rx, mac_out);
            sim.add_module(clk, mac_rx.with_burst(config.fast_path));
            sim.add_module(clk, mac_tx.with_burst(config.fast_path));
            rstat.register_stats(&telemetry, &format!("port{i}.mac.rx"));
            tstat.register_stats(&telemetry, &format!("port{i}.mac.tx"));
            ports.push(TesterPort {
                to_board,
                from_board,
                rate,
                next_free: Time::ZERO,
            });
            from_ports.push(rx_rx);
            to_ports.push(tx_tx);
        }
        let mut pcs_handles: Vec<PcsHandle> = Vec::new();
        let faults = injector.map(|(mut inj, handle)| {
            inj.set_event_ring(events.clone());
            handle.counters().register_stats(&telemetry, "faults");
            handle.dma_gate().register_stats(&telemetry, "dma.fault");
            // The recovery plane: one PCS retrain state machine per port,
            // wired to the injector (which publishes raw signal into it and
            // gates forwarding on its reported state), plus a background
            // ECC scrubber when the policy calls for one. PCS modules tick
            // after the injector on the same clock, exactly as a hardware
            // PCS samples the medium of the previous cycle.
            let mut pcs_modules = Vec::new();
            if let Some(policy) = plan.recovery {
                for i in 0..nports {
                    let lanes = plan
                        .bonds
                        .iter()
                        .find(|(p, _)| usize::from(*p) == i)
                        .map(|(_, b)| b.lanes)
                        .unwrap_or(1);
                    let (mut port, ph) =
                        PcsPort::new(&format!("pcs{i}"), i as u8, lanes, policy.pcs_config());
                    port.set_event_ring(events.clone());
                    ph.counters()
                        .register_stats(&telemetry, &format!("port{i}.pcs"));
                    let state_src = ph.clone();
                    telemetry.gauge(&format!("port{i}.pcs.state"), move || {
                        state_src.state().code()
                    });
                    inj.attach_pcs(i, ph.clone());
                    pcs_handles.push(ph);
                    pcs_modules.push(port);
                }
            }
            sim.add_module(clk, inj);
            for port in pcs_modules {
                sim.add_module(clk, port);
            }
            if let Some(policy) = plan.recovery {
                if policy.scrub_words_per_cycle > 0 {
                    sim.add_module(
                        clk,
                        handle.scrubber("ecc_scrub", policy.scrub_words_per_cycle),
                    );
                }
            }
            map.mount(
                "faults",
                FAULTS_BASE,
                0x100,
                netfpga_core::regs::shared(FaultRegisters::new(handle.clone())),
            );
            handle
        });
        let pcie = PcieConfig {
            generation: spec.pcie.generation,
            lanes: spec.pcie.lanes,
            ..PcieConfig::gen3_x8()
        };
        let recovery = plan.recovery;
        (
            Chassis {
                sim,
                clk,
                dma: None,
                mmio: None,
                faults,
                map: Rc::new(map),
                telemetry,
                events,
                pcs: pcs_handles,
                ports,
                bus_width: spec.bus_width,
                fast_path: config.fast_path,
                pcie,
                dma_probe: None,
                recovery,
                watchdog_bites: None,
            },
            ChassisIo {
                from_ports,
                to_ports,
            },
        )
    }

    /// Number of Ethernet ports.
    pub fn nports(&self) -> usize {
        self.ports.len()
    }

    /// The datapath bus width in bytes.
    pub fn bus_width(&self) -> usize {
        self.bus_width
    }

    /// Register a project module on the core clock.
    pub fn add_module(&mut self, module: impl Module + 'static) {
        self.sim.add_module(self.clk, module);
    }

    /// Attach a DMA engine between the host and the given datapath streams
    /// (`to_card` feeds the datapath, `from_card` drains it). The engine
    /// follows [`ChassisConfig::fast_path`]: on a fast-path chassis it runs
    /// in burst mode ([`DmaEngine::with_burst`]), otherwise a beat per
    /// cycle. On a chassis whose fault plan carries a recovery policy, a
    /// hardware watchdog is wired to the engine's progress probe as well
    /// (see [`Chassis::attach_watchdog`]).
    pub fn attach_dma(&mut self, to_card: StreamTx, from_card: StreamRx) {
        let (mut engine, handle) = DmaEngine::new("dma", self.pcie, to_card, from_card, 256, 256);
        engine = engine.with_burst(self.fast_path);
        if let Some(faults) = &self.faults {
            engine = engine.with_fault_gate(faults.dma_gate());
        }
        handle.register_stats(&self.telemetry, "dma");
        self.dma_probe = Some(Box::new(engine.progress_probe()));
        self.sim.add_module(self.clk, engine);
        self.dma = Some(handle);
        if let Some(policy) = self.recovery {
            self.attach_watchdog(WatchdogConfig::from_policy(&policy));
        }
    }

    /// Attach the hardware watchdog: it monitors the DMA engine's progress
    /// probe (call after [`Chassis::attach_dma`]) against `config`'s
    /// deadline and, on a bite, publishes a
    /// [`WatchdogBite`](netfpga_core::telemetry::EventKind) to the event
    /// ring, waits the drain window, pulls the simulator's soft-reset
    /// line, and holds off before re-arming. Its bite counter is mounted
    /// at `watchdog.bites` and readable via [`Chassis::watchdog_bites`].
    pub fn attach_watchdog(&mut self, config: WatchdogConfig) {
        let mut wd = Watchdog::new("watchdog", config, self.sim.soft_reset_line());
        if let Some(probe) = self.dma_probe.take() {
            wd.add_probe("dma", probe);
        }
        wd.set_event_ring(self.events.clone());
        wd.register_stats(&self.telemetry, "watchdog");
        self.watchdog_bites = Some(wd.bites());
        self.sim.add_module(self.clk, wd);
    }

    /// Watchdog bites so far (0 when no watchdog is attached).
    pub fn watchdog_bites(&self) -> u64 {
        self.watchdog_bites.as_ref().map_or(0, Counter::get)
    }

    /// True when a hardware watchdog is attached.
    pub fn has_watchdog(&self) -> bool {
        self.watchdog_bites.is_some()
    }

    /// Attach the MMIO bridge onto the chassis register map, auto-mounting
    /// the telemetry plane first: every stat registered so far (chassis +
    /// project) becomes readable through the [`StatBlock`] at
    /// [`TELEMETRY_BASE`], and the event ring at [`EVENTS_BASE`]. Call
    /// after all project blocks are mounted and all stats registered —
    /// the stat block snapshots the registry's *name set* (not its
    /// values) when built.
    pub fn attach_mmio(&mut self) {
        if !self.telemetry.is_empty() {
            let block = StatBlock::from_registry(&self.telemetry, "");
            let size = (block.size_bytes() + 0xff) & !0xff;
            assert!(
                size <= TELEMETRY_SIZE,
                "telemetry block overflows its window: {size:#x} > {TELEMETRY_SIZE:#x}"
            );
            self.map.mount(
                "telemetry",
                TELEMETRY_BASE,
                size,
                netfpga_core::regs::shared(block),
            );
            self.map.mount(
                "events",
                EVENTS_BASE,
                EVENTS_SIZE,
                netfpga_core::regs::shared(self.events.registers()),
            );
        }
        let (bridge, port) = MmioBridge::new("mmio", self.pcie, self.map.clone());
        self.sim.add_module(self.clk, bridge);
        self.mmio = Some(port);
    }

    /// Send `frame` into `port` as a peer device would: serialized at the
    /// port's line rate after the previous tester frame on that port.
    pub fn send(&mut self, port: usize, frame: impl Into<PktBuf>) {
        let frame = frame.into();
        assert!(frame.len() >= 14, "runt frame");
        let p = &mut self.ports[port];
        let start = p.next_free.max(self.sim.now());
        let occupancy = p.rate.time_for_bytes(wire_bytes(frame.len() as u64));
        let ready_at = start + occupancy;
        p.next_free = ready_at;
        p.to_board.push(WireFrame::new(frame, ready_at));
    }

    /// Drain every frame the board has fully transmitted on `port`.
    pub fn recv(&mut self, port: usize) -> Vec<Vec<u8>> {
        self.recv_timed(port).into_iter().map(|(f, _)| f).collect()
    }

    /// Like [`Chassis::recv`], also returning each frame's wire-completion
    /// time (used for latency measurements in the experiments).
    pub fn recv_timed(&mut self, port: usize) -> Vec<(Vec<u8>, Time)> {
        let now = self.sim.now();
        let mut out = Vec::new();
        while let Some(f) = self.ports[port].from_board.take_ready(now) {
            out.push((f.data.into_owned(), f.ready_at));
        }
        out
    }

    /// Advance simulated time.
    pub fn run_for(&mut self, d: Time) {
        self.sim.run_for(d);
    }

    /// Run until `pred` is true (checked each edge) or `deadline` passes.
    /// Returns whether the predicate fired.
    pub fn run_while(&mut self, deadline: Time, pred: impl FnMut() -> bool) -> bool {
        self.sim.run_while(deadline, pred)
    }

    /// Read a register over MMIO, advancing the simulation until the
    /// completion returns. Panics if no MMIO bridge is attached.
    pub fn read32(&mut self, addr: u32) -> u32 {
        let port = self.mmio.clone().expect("MMIO not attached");
        port.post_read(addr, self.sim.now());
        let mut got = None;
        let deadline = self.sim.now() + Time::from_ms(1);
        let ok = self.sim.run_while(deadline, || {
            got = port.try_complete();
            got.is_none()
        });
        assert!(ok, "MMIO read timed out");
        got.expect("completion present")
    }

    /// Post a register write over MMIO and advance the simulation until it
    /// lands (posted writes are ordered; waiting keeps tests simple).
    pub fn write32(&mut self, addr: u32, value: u32) {
        let port = self.mmio.clone().expect("MMIO not attached");
        port.post_write(addr, value, self.sim.now());
        let deadline = self.sim.now() + Time::from_ms(1);
        let ok = self.sim.run_while(deadline, || port.outstanding() > 0);
        assert!(ok, "MMIO write timed out");
    }

    /// The line rate of a port (for line-rate math in experiments).
    pub fn port_rate(&self, port: usize) -> BitRate {
        self.ports[port].rate
    }

    /// PCS link state of a port, when the chassis carries a recovery plane
    /// ([`FaultPlan::with_recovery`]); `None` otherwise.
    pub fn link_state(&self, port: usize) -> Option<LinkState> {
        self.pcs.get(port).map(|p| p.state())
    }

    /// Handle onto a port's PCS (state, bond width, transition counters),
    /// when the chassis carries a recovery plane.
    pub fn pcs_handle(&self, port: usize) -> Option<PcsHandle> {
        self.pcs.get(port).cloned()
    }

    /// The raw wires of a port: `(to_board, from_board)`. Wires share
    /// state through `Rc`, so clones are live handles — used to splice
    /// link models (delay/loss emulated devices-under-test) between ports.
    pub fn port_wires(&self, port: usize) -> (Wire, Wire) {
        (
            self.ports[port].to_board.clone(),
            self.ports[port].from_board.clone(),
        )
    }

    /// Splice a [`Link`](netfpga_phy::Link) carrying frames from one wire
    /// to another (e.g. loop a port's output back to its input through an
    /// emulated device with delay and loss).
    pub fn add_link(&mut self, name: &str, from: Wire, to: Wire, config: netfpga_phy::LinkConfig) {
        let link = netfpga_phy::Link::new(name, from, to, config);
        self.sim.add_module(self.clk, link);
    }

    /// Mount an RX statistics block at `base` and register its stats under
    /// `rx_stats`.
    pub(crate) fn mount_rx_stats(&self, base: u32, stats: &StatsHandles) {
        self.map.mount(
            "rx_stats",
            base,
            0x100,
            shared(StatsRegisters::new(stats.clone())),
        );
        stats.register_stats(&self.telemetry, "rx_stats");
    }
}

/// The reference pipeline the lookup projects share: the paper's stock
/// blocks joined by standard streams, differing only in the lookup.
///
/// ```text
/// [FlowExporter]   rx MACs (+ DMA h2c) → InputArbiter → [StatsStage] →
///     PacketStage(lookup) → [FlowTap] → OutputQueues → tx MACs (+ DMA c2h)
/// ```
///
/// Bracketed blocks are optional. [`ReferencePipeline::build`] registers
/// the modules in the order drawn (an edge ticks its modules in
/// registration order), then the DMA engine when there is a CPU port. The
/// project then mounts its own register blocks and calls
/// [`Chassis::attach_mmio`].
pub struct ReferencePipeline<L> {
    /// Name of the lookup's [`PacketStage`].
    pub name: &'static str,
    /// Lookup latency in cycles.
    pub latency: u64,
    /// The lookup.
    pub logic: L,
    /// Count received frames in a [`StatsStage`] behind the arbiter, its
    /// register block mounted at this base.
    pub rx_stats: Option<u32>,
    /// Add the CPU port, index `nports`: a DMA engine feeds the arbiter's
    /// last input and drains the queues' last output.
    pub cpu_port: bool,
    /// Output-queue configuration.
    pub queues: QueueConfig,
    /// Per-port output scheduler.
    pub scheduler: Box<dyn FnMut() -> Box<dyn Scheduler>>,
    /// The flow-monitoring plane: a zero-copy [`FlowTap`] between the
    /// lookup and the output queues, per-port queue-depth histograms
    /// sampled by a periodic [`FlowExporter`], and the flow-monitor MMIO
    /// block at [`FLOWMON_BASE`]. The tap only observes words in flight,
    /// so forwarding is unchanged.
    pub flowmon: Option<FlowmonConfig>,
}

/// A built [`ReferencePipeline`]: the chassis and its optional blocks'
/// handles.
pub struct Pipeline {
    /// The board with the pipeline loaded (MMIO not yet attached).
    pub chassis: Chassis,
    /// RX statistics, when built with [`ReferencePipeline::rx_stats`].
    pub rx_stats: Option<StatsHandles>,
    /// Flow-monitor tap, when built with [`ReferencePipeline::flowmon`].
    pub flowmon: Option<FlowMonHandle>,
    /// Streaming exporter, when built with [`ReferencePipeline::flowmon`].
    pub exporter: Option<ExporterHandle>,
}

/// Depth (in words) of the streams between pipeline stages.
const STAGE_FIFO_WORDS: usize = 64;

impl<L: PacketLogic + 'static> ReferencePipeline<L> {
    /// A pipeline around the lookup `logic`, run as the [`PacketStage`]
    /// `name` with `latency` cycles; default FIFO output queues, no
    /// optional blocks.
    pub fn new(name: &'static str, latency: u64, logic: L) -> ReferencePipeline<L> {
        ReferencePipeline {
            name,
            latency,
            logic,
            rx_stats: None,
            cpu_port: false,
            queues: QueueConfig::default(),
            scheduler: Box::new(|| Box::new(Fifo)),
            flowmon: None,
        }
    }

    /// Build the chassis `config` describes and wire the pipeline onto it.
    pub fn build(self, config: &ChassisConfig) -> Pipeline {
        let (mut chassis, io) = Chassis::new(config);
        let (w, fast) = (chassis.bus_width(), config.fast_path);
        let stream = || Stream::new(STAGE_FIFO_WORDS, w);
        let (mut inputs, mut outputs) = (io.from_ports, io.to_ports);
        let dma = self.cpu_port.then(|| {
            let (h2c_tx, h2c_rx) = stream();
            let (c2h_tx, c2h_rx) = stream();
            inputs.push(h2c_rx);
            outputs.push(c2h_tx);
            (h2c_tx, c2h_rx)
        });
        let ninputs = inputs.len();

        let (arb_tx, head) = stream();
        let arbiter = InputArbiter::new("input_arbiter", inputs, arb_tx).with_burst(fast);
        let (stats, head) = match self.rx_stats {
            Some(base) => {
                let (tx, rx) = stream();
                let (stage, handles) = StatsStage::new("rx_stats", head, tx, ninputs);
                chassis.mount_rx_stats(base, &handles);
                (Some((stage.with_burst(fast), handles)), rx)
            }
            None => (None, head),
        };
        let (lookup_tx, lookup_rx) = stream();
        let lookup =
            PacketStage::new(self.name, head, lookup_tx, self.latency, self.logic).with_burst(fast);
        let (tap, head) = match &self.flowmon {
            Some(cfg) => {
                let (tx, rx) = stream();
                (Some(FlowTap::new(lookup_rx, tx, cfg).with_burst(fast)), rx)
            }
            None => (None, lookup_rx),
        };
        let oq = OutputQueues::new("output_queues", head, outputs, self.queues, self.scheduler)
            .with_burst(fast);

        lookup
            .counters()
            .register_stats(&chassis.telemetry, "pipeline.lookup");
        oq.counters().register_stats(&chassis.telemetry, "oq");
        oq.register_depth_gauges(&chassis.telemetry, "");
        let (flowmon, exporter) = match (&self.flowmon, &tap) {
            (Some(cfg), Some(tap)) => {
                let (mon, exporter) = mount_flowmon(&mut chassis, cfg, tap, &oq);
                (Some(mon), Some(exporter))
            }
            _ => (None, None),
        };
        chassis.add_module(arbiter);
        let rx_stats = stats.map(|(stage, handles)| {
            chassis.add_module(stage);
            handles
        });
        chassis.add_module(lookup);
        if let Some(tap) = tap {
            chassis.add_module(tap);
        }
        chassis.add_module(oq);
        if let Some((h2c_tx, c2h_rx)) = dma {
            chassis.attach_dma(h2c_tx, c2h_rx);
        }
        Pipeline {
            chassis,
            rx_stats,
            flowmon,
            exporter,
        }
    }
}

/// The flow-monitoring plane around `tap`: its stats, one queue-depth
/// histogram per Ethernet port sampled by a [`FlowExporter`] (registered
/// here, ahead of the pipeline), and the MMIO block.
fn mount_flowmon(
    chassis: &mut Chassis,
    cfg: &FlowmonConfig,
    tap: &FlowTap,
    oq: &OutputQueues,
) -> (FlowMonHandle, ExporterHandle) {
    let mon = tap.handle();
    mon.register_stats(&chassis.telemetry, "flowmon");
    let mut exporter = FlowExporter::new(
        chassis.telemetry.clone(),
        cfg.sample_interval,
        cfg.delta_capacity,
    );
    // Occupancy series: one histogram per port queue (class 0 under the
    // default config), sampled at export instants, never per packet.
    for p in 0..chassis.nports() {
        let hist = LogLinearHistogram::shared(cfg.hist_sub_bits);
        register_quantile_gauges(&chassis.telemetry, &format!("port{p}.q0.depth"), &hist);
        let cell = oq.depth_cell(p, 0);
        exporter.add_series(hist, move || cell.get());
    }
    // The snapshot count is deliberately NOT a registry stat: it moves on
    // every sample, which would read as perpetual activity to the
    // exporter's own idle backoff (and push a self-delta each interval).
    // It stays visible through the MMIO block (`+0x2C`) and the handle.
    let handle = exporter.handle();
    chassis.map.mount(
        "flowmon",
        FLOWMON_BASE,
        FLOWMON_SIZE,
        shared(FlowmonRegisters::new(mon.clone(), handle.clone())),
    );
    chassis.add_module(exporter);
    (mon, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::sim::TickContext;

    /// A trivial "project": loop each port's RX stream back to its own TX.
    struct Loopback {
        rx: StreamRx,
        tx: StreamTx,
    }

    impl Module for Loopback {
        fn name(&self) -> &str {
            "loopback"
        }
        fn tick(&mut self, _ctx: &TickContext) {
            if self.tx.can_push() {
                if let Some(w) = self.rx.pop() {
                    self.tx.push(w);
                }
            }
        }
    }

    fn loopback_chassis() -> Chassis {
        let spec = BoardSpec::sume();
        let (mut chassis, io) = Chassis::new(&ChassisConfig::new(&spec, 4));
        for (rx, tx) in io.from_ports.into_iter().zip(io.to_ports) {
            chassis.add_module(Loopback { rx, tx });
        }
        chassis
    }

    #[test]
    fn frames_loop_back_on_each_port() {
        let mut c = loopback_chassis();
        c.send(0, vec![0xaa; 100]);
        c.send(2, vec![0xbb; 200]);
        c.run_for(Time::from_us(10));
        assert_eq!(c.recv(0), vec![vec![0xaa; 100]]);
        assert_eq!(c.recv(2), vec![vec![0xbb; 200]]);
        assert!(c.recv(1).is_empty());
        assert_eq!(c.telemetry.get("port0.mac.rx.frames"), Some(1));
        assert_eq!(c.telemetry.get("port0.mac.tx.frames"), Some(1));
    }

    #[test]
    fn tester_send_is_paced_at_line_rate() {
        let mut c = loopback_chassis();
        // 100 minimum frames: at 10G they occupy 100 x 84 B of wire time.
        for _ in 0..100 {
            c.send(0, vec![0u8; 60]);
        }
        c.run_for(Time::from_us(100));
        let got = c.recv(0);
        assert_eq!(got.len(), 100);
        // Wire time for 100 x 84-byte slots at 10G = 6.72 us; the RX MAC
        // cannot have seen them faster than that.
        assert_eq!(c.telemetry.get("port0.mac.rx.frames"), Some(100));
    }

    #[test]
    fn mmio_roundtrip_through_chassis() {
        let (mut chassis, _io) = Chassis::new(&ChassisConfig::new(&BoardSpec::sume(), 1));
        chassis.map.mount(
            "scratch",
            0x0,
            0x100,
            shared(netfpga_core::regs::RamRegisters::new(0x100)),
        );
        chassis.attach_mmio();
        chassis.write32(0x10, 0xfeed);
        assert_eq!(chassis.read32(0x10), 0xfeed);
    }

    #[test]
    #[should_panic(expected = "runt frame")]
    fn runt_send_rejected() {
        let mut c = loopback_chassis();
        c.send(0, vec![0u8; 8]);
    }
}
