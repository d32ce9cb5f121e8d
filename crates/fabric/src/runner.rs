//! The conservative-lookahead parallel runner: shards a topology across
//! threads, one single-threaded chassis per shard, synchronized at epoch
//! barriers, and carries every inter-chassis link itself.
//!
//! See the [crate docs](crate) for the epoch/lookahead invariant and the
//! determinism argument. The protocol per shard, in epoch `k`:
//!
//! 1. advance every owned node's simulator to the epoch end
//!    (`run_until` — epoch splitting is invisible to the kernel: a
//!    monotone sequence of deadlines executes the identical edge set as
//!    one big run),
//! 2. drain every outbound link's wire up to its node's `now` into buffer
//!    `k % 2` of the link's mailbox, each frame stamped with its arrival
//!    instant and detached from this thread's buffers,
//! 3. wait at the barrier,
//! 4. push buffer `k % 2` of every inbound link onto its destination
//!    wire.
//!
//! A link's two buffers alternate by epoch parity because a shard that
//! leaves barrier `k` early may fill epoch `k + 1` while its peer is
//! still taking epoch `k`; nobody fills epoch `k + 2` before barrier
//! `k + 1`, which the taker only reaches once it is done. So a frame sent
//! in epoch `k` lands on its destination wire after barrier `k` and never
//! earlier, on every shard layout.
//!
//! Shard 0 runs on the calling thread and every other shard on a scoped
//! thread of its own, so the sequential reference (`nshards = 1`) spawns
//! nothing and a sampling profiler sees it like any single-threaded run.
//!
//! Steps 1 and 3 are timed per shard — wall-clock only, never fed back
//! into the simulation — as `shard_work` and `shard_stalls`, the latter
//! being the price of the slowest shard each epoch.

use crate::barrier::{EpochBarrier, PeerPanicked};
use crate::topo::FabricTopology;
use netfpga_core::pktbuf::{self, PktBuf};
use netfpga_core::sim::KernelStats;
use netfpga_core::stats::Counter;
use netfpga_core::telemetry::StatRegistry;
use netfpga_core::time::Time;
use netfpga_phy::mac::{Fcs, WireFrame};
use netfpga_phy::Wire;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A board the fabric runner can drive. Implemented by project
/// harnesses (e.g. `ReferenceSwitch` in `netfpga-projects`); the fabric
/// crate itself only needs five capabilities: advance the node and tell
/// its time, its clock period, its port wires, its stat registry and its
/// kernel counters.
///
/// Implementations are `Rc`-based and **not** `Send` — the runner
/// builds, runs and harvests each node entirely on its shard's thread.
pub trait FabricNode {
    /// Advance the node's simulator to at least `deadline` (first edge
    /// at or after it, exactly like `Simulator::run_until`).
    fn run_until(&mut self, deadline: Time);

    /// Current simulated time.
    fn now(&self) -> Time;

    /// The node's core clock period — the overshoot bound feeding the
    /// lookahead invariant.
    fn clock_period(&self) -> Time;

    /// Raw wires of a front-panel port: `(to_board, from_board)`. The
    /// runner drains `from_board` of a port a link leaves and pushes onto
    /// `to_board` of a port a link enters; nothing else may.
    fn port_wires(&self, port: usize) -> (Wire, Wire);

    /// The node's stat registry — the fabric registers its `fabric.*`
    /// gauges here, beside the node's own stats.
    fn telemetry(&self) -> &StatRegistry;

    /// The node's kernel work counters, for cross-shard aggregation.
    fn kernel_stats(&self) -> KernelStats;
}

/// Runner knobs.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Shards (threads). Nodes are assigned round-robin: node `i` runs
    /// on shard `i % nshards`. `1` is the sequential reference run.
    pub nshards: usize,
    /// Epoch length. Must satisfy `epoch + 2·clock_period ≤ delay` for
    /// every link (asserted per shard at build time); see
    /// [`FabricTopology::max_safe_epoch`].
    pub epoch: Time,
}

impl FabricConfig {
    /// A config of `nshards` shards and `epoch`-long epochs.
    pub fn new(nshards: usize, epoch: Time) -> FabricConfig {
        FabricConfig { nshards, epoch }
    }
}

/// Per-node fabric accounting, harvested on the node's shard thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFabricStats {
    /// Node index.
    pub node: usize,
    /// Shard that ran the node.
    pub shard: usize,
    /// Frames drained from this node's outbound links.
    pub crossed: u64,
    /// Frames pushed onto this node's inbound wires.
    pub delivered: u64,
    /// Always 0: a mailbox has no capacity, so a link cannot block.
    /// Kept, like the `fabric.blocked` counter, for readers that check it.
    pub blocked: u64,
    /// The most frames this node received at one barrier.
    pub merge_high_water: u64,
    /// The node's kernel work counters over the whole run.
    pub kernel: KernelStats,
    /// The node's simulated time when harvested.
    pub end: Time,
}

/// Fabric-wide roll-up of a run.
#[derive(Debug, Clone)]
pub struct FabricStats {
    /// Epochs executed (identical on every shard).
    pub epochs: u64,
    /// Total frames shipped across links.
    pub crossed: u64,
    /// Total frames delivered onto destination wires: every frame shipped
    /// is delivered after the barrier that ends its epoch, so this equals
    /// `crossed`.
    pub delivered: u64,
    /// Always 0 (see [`NodeFabricStats::blocked`]).
    pub blocked: u64,
    /// The largest per-barrier arrival batch of any node.
    pub merge_high_water: u64,
    /// Kernel counters summed over every node's simulator.
    pub kernel: KernelStats,
    /// Wall-clock time each shard spent inside its nodes' `run_until`;
    /// the shard with the most is the one the others waited for.
    /// Observability only, like `shard_stalls`: neither feeds the simulation.
    pub shard_work: Vec<Duration>,
    /// Wall-clock time each shard spent inside epoch barriers, spinning
    /// included.
    pub shard_stalls: Vec<Duration>,
    /// Wall-clock time of the whole run (build + epochs + harvest).
    pub wall: Duration,
}

/// What [`run_fabric`] hands back: one harvested `T` per node (in node
/// order), per-node fabric stats, and the roll-up.
#[derive(Debug)]
pub struct FabricReport<T> {
    /// Per-node harvest results, indexed by node.
    pub results: Vec<T>,
    /// Per-node fabric accounting, indexed by node.
    pub nodes: Vec<NodeFabricStats>,
    /// Fabric-wide roll-up.
    pub stats: FabricStats,
}

/// A frame in flight between shards. Owns its bytes outright — no `Rc` —
/// so it is `Send` and each thread's buffer counters stay its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricFrame {
    /// The frame bytes, detached from the source thread's buffers.
    pub bytes: Vec<u8>,
    /// Arrival instant at the destination wire: source wire completion
    /// plus the link delay.
    pub ready_at: Time,
    /// FCS state recorded on the source side, carried across unchanged so
    /// in-flight corruption there stays detectable on the destination
    /// side ([`Fcs::Intact`] survives the hop: the bytes are moved, never
    /// rewritten).
    pub fcs: Fcs,
    /// Source node index.
    pub src_node: usize,
    /// Per-link sequence number: with `src_node`, names the frame.
    pub seq: u64,
}

/// The shard a node runs on under round-robin assignment.
pub fn shard_of(node: usize, nshards: usize) -> usize {
    node % nshards
}

/// Cores this process may use, read once: the call re-reads cgroup files
/// every time.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One directed link's hand-over point between its two shards, one
/// buffer per epoch parity (see the module docs). The barrier keeps the
/// two sides off any one buffer at a time, so the locks never contend.
#[derive(Default)]
struct Mailbox([Mutex<Vec<FabricFrame>>; 2]);

impl Mailbox {
    fn buffer(&self, epoch: u64) -> MutexGuard<'_, Vec<FabricFrame>> {
        // A shard that panics mid-hand-off poisons the barrier too: nobody
        // reads the buffer afterwards.
        let buffer = &self.0[(epoch % 2) as usize];
        buffer.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Poisons the barrier when its shard unwinds, so the other shards stop
/// waiting for an arrival that will never come.
struct PoisonOnPanic<'a>(&'a EpochBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Run `topo` to `horizon` under `config`.
///
/// `build(i)` constructs node `i` — including all of its up-front
/// stimulus — and runs on node `i`'s shard thread. `harvest(i, &mut n)`
/// extracts the `Send` result after the last epoch, also on the shard
/// thread (it may advance the node's simulator, e.g. for MMIO reads;
/// whatever the node transmits then stays on its wires).
///
/// The run is bit-identical for every `nshards` and for every epoch
/// length satisfying the lookahead invariant — `nshards = 1` is the
/// sequentialized reference the parallel layouts are pinned against.
pub fn run_fabric<N, T, B, H>(
    topo: &FabricTopology,
    config: &FabricConfig,
    horizon: Time,
    build: B,
    harvest: H,
) -> FabricReport<T>
where
    N: FabricNode,
    T: Send,
    B: Fn(usize) -> N + Sync,
    H: Fn(usize, &mut N) -> T + Sync,
{
    topo.validate();
    assert!(config.nshards >= 1, "at least one shard");
    assert!(config.epoch > Time::ZERO, "epoch must be positive");

    let mailboxes: Vec<Mailbox> = topo.links.iter().map(|_| Mailbox::default()).collect();
    // Spin only when every shard can own a core for the whole run.
    let barrier = EpochBarrier::new(config.nshards, config.nshards <= cores());
    let run = |shard| {
        run_shard(
            shard, &mailboxes, topo, config, horizon, &barrier, &build, &harvest,
        )
    };
    let started = Instant::now();
    let mut joined: Vec<_> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..config.nshards)
            .map(|shard| scope.spawn(move || run(shard)))
            .collect();
        // Caught, so that a spawned shard's own panic can outrank the
        // `PeerPanicked` this one unwinds with; counted from zero, like a
        // spawned shard's buffer counters.
        let own = catch_unwind(AssertUnwindSafe(|| pktbuf::with_fresh_pool(|| run(0))));
        std::iter::once(own)
            .chain(spawned.into_iter().map(|h| h.join()))
            .collect()
    });
    let wall = started.elapsed();
    // Re-raise the panic of the first shard that failed by itself (the
    // stable sort puts it in front); the shards its poisoned barrier took
    // down only carry `PeerPanicked`.
    joined.sort_by_key(|shard| !matches!(shard, Err(e) if !e.is::<PeerPanicked>()));
    let mut shard_outputs: Vec<ShardOutput<T>> = joined
        .into_iter()
        .map(|shard| shard.unwrap_or_else(|e| std::panic::resume_unwind(e)))
        .collect();

    let epochs = shard_outputs.first().map_or(0, |s| s.epochs);
    let mut shard_work = vec![Duration::ZERO; config.nshards];
    let mut shard_stalls = vec![Duration::ZERO; config.nshards];
    let mut per_node: Vec<(usize, T, NodeFabricStats)> = Vec::new();
    for out in shard_outputs.drain(..) {
        shard_work[out.shard] = out.work;
        shard_stalls[out.shard] = out.stall;
        per_node.extend(out.nodes);
    }
    per_node.sort_by_key(|(i, _, _)| *i);
    let mut results = Vec::new();
    let mut nodes = Vec::new();
    for (_, t, s) in per_node {
        results.push(t);
        nodes.push(s);
    }
    let stats = FabricStats {
        epochs,
        crossed: nodes.iter().map(|n| n.crossed).sum(),
        delivered: nodes.iter().map(|n| n.delivered).sum(),
        blocked: 0,
        merge_high_water: nodes.iter().map(|n| n.merge_high_water).max().unwrap_or(0),
        kernel: nodes.iter().map(|n| n.kernel).sum(),
        shard_work,
        shard_stalls,
        wall,
    };
    FabricReport {
        results,
        nodes,
        stats,
    }
}

struct ShardOutput<T> {
    shard: usize,
    epochs: u64,
    work: Duration,
    stall: Duration,
    nodes: Vec<(usize, T, NodeFabricStats)>,
}

/// A link leaving one of a shard's nodes.
struct Outbound {
    link: usize,
    /// The `from_board` wire of the port the link leaves.
    wire: Wire,
    delay: Time,
    /// The next frame's sequence number.
    seq: u64,
}

impl Outbound {
    /// Move every frame that has left the wire by `now` into `mailbox`,
    /// stamped with its arrival instant, `src_node` and the link's next
    /// sequence number; returns how many. A frame's buffer is uniquely
    /// owned once it is on a wire, so `into_owned` moves it.
    fn drain(&mut self, src_node: usize, now: Time, mailbox: &mut Vec<FabricFrame>) -> u64 {
        let first = self.seq;
        while let Some(frame) = self.wire.take_ready(now) {
            mailbox.push(FabricFrame {
                bytes: frame.data.into_owned(),
                ready_at: frame.ready_at + self.delay,
                fcs: frame.fcs,
                src_node,
                seq: self.seq,
            });
            self.seq += 1;
        }
        self.seq - first
    }
}

/// One of a shard's nodes and the fabric state the shard loop keeps for
/// it.
struct Owned<N> {
    index: usize,
    node: N,
    /// Links leaving the node, in topology order.
    outbound: Vec<Outbound>,
    /// `(link, to_board wire)` of every link entering the node.
    inbound: Vec<(usize, Wire)>,
    crossed: Counter,
    delivered: Counter,
    /// The largest per-barrier arrival batch so far.
    merge_hw: Counter,
}

#[allow(clippy::too_many_arguments)]
fn run_shard<N, T, B, H>(
    shard: usize,
    mailboxes: &[Mailbox],
    topo: &FabricTopology,
    config: &FabricConfig,
    horizon: Time,
    barrier: &EpochBarrier,
    build: &B,
    harvest: &H,
) -> ShardOutput<T>
where
    N: FabricNode,
    T: Send,
    B: Fn(usize) -> N + Sync,
    H: Fn(usize, &mut N) -> T + Sync,
{
    let _poison = PoisonOnPanic(barrier);
    let epoch_cell = Rc::new(Cell::new(0u64));

    let mut nodes: Vec<Owned<N>> = Vec::new();
    for i in (0..topo.nnodes).filter(|&i| shard_of(i, config.nshards) == shard) {
        let node = build(i);
        let period = node.clock_period();
        let inbound = topo.links_into(i);
        let outbound = topo.links_from(i);
        for &li in inbound.iter().chain(&outbound) {
            let budget = topo.links[li].delay;
            assert!(
                config.epoch + Time::from_ps(2 * period.as_ps()) <= budget,
                "epoch {:?} violates the lookahead invariant of link {li} \
                 (delay {budget:?}, node {i} period {period:?}): \
                 need epoch + 2*period <= delay",
                config.epoch
            );
        }
        let owned = Owned {
            index: i,
            outbound: outbound
                .iter()
                .map(|&li| Outbound {
                    link: li,
                    wire: node.port_wires(topo.links[li].from_port).1,
                    delay: topo.links[li].delay,
                    seq: 0,
                })
                .collect(),
            inbound: inbound
                .iter()
                .map(|&li| (li, node.port_wires(topo.links[li].to_port).0))
                .collect(),
            node,
            crossed: Counter::new(),
            delivered: Counter::new(),
            merge_hw: Counter::new(),
        };
        let telemetry = owned.node.telemetry();
        telemetry.register_counter("fabric.crossed", &owned.crossed);
        // Nothing increments it: a mailbox cannot fill.
        telemetry.register_counter("fabric.blocked", &Counter::new());
        let epochs_src = epoch_cell.clone();
        telemetry.gauge("fabric.epochs", move || epochs_src.get());
        if !owned.inbound.is_empty() {
            let delivered = owned.delivered.clone();
            telemetry.gauge("fabric.delivered", move || delivered.get());
            let merge_hw = owned.merge_hw.clone();
            telemetry.gauge("fabric.merge_hw", move || merge_hw.get());
        }
        nodes.push(owned);
    }

    // The epoch loop. Every shard executes the same deadline sequence,
    // so barrier waits always pair up — including on shards that own no
    // nodes.
    let mut now = Time::ZERO;
    let mut epochs = 0u64;
    let mut work = Duration::ZERO;
    let mut stall = Duration::ZERO;
    while now < horizon {
        let end = (now + config.epoch).min(horizon);
        let began = Instant::now();
        for n in &mut nodes {
            n.node.run_until(end);
        }
        work += began.elapsed();
        for n in &mut nodes {
            let at = n.node.now();
            for link in &mut n.outbound {
                // The taker emptied this buffer two epochs ago and it kept
                // its capacity: a link's buffers stop allocating once grown.
                let mut mailbox = mailboxes[link.link].buffer(epochs);
                debug_assert!(mailbox.is_empty(), "link {}: mailbox not taken", link.link);
                n.crossed.add(link.drain(n.index, at, &mut mailbox));
            }
        }
        let arrived = Instant::now();
        barrier.wait();
        stall += arrived.elapsed();
        for n in &nodes {
            let at = n.node.now();
            let mut batch = 0;
            for (li, wire) in &n.inbound {
                for frame in mailboxes[*li].buffer(epochs).drain(..) {
                    // The lookahead invariant puts every arrival in this
                    // node's future; a violation would mean the epoch
                    // length exceeded a link's delay budget.
                    debug_assert!(
                        frame.ready_at > at,
                        "node {}: frame {} of node {} arrived in the past \
                         ({:?} <= {at:?}) — lookahead violated",
                        n.index,
                        frame.seq,
                        frame.src_node,
                        frame.ready_at
                    );
                    wire.push(WireFrame {
                        data: PktBuf::from_vec(frame.bytes),
                        ready_at: frame.ready_at,
                        fcs: frame.fcs,
                    });
                    batch += 1;
                }
            }
            n.delivered.add(batch);
            n.merge_hw.set(n.merge_hw.get().max(batch));
        }
        now = end;
        epochs += 1;
        epoch_cell.set(epochs);
    }

    let harvested: Vec<(usize, T, NodeFabricStats)> = nodes
        .into_iter()
        .map(|mut n| {
            let t = harvest(n.index, &mut n.node);
            let stats = NodeFabricStats {
                node: n.index,
                shard,
                crossed: n.crossed.get(),
                delivered: n.delivered.get(),
                blocked: 0,
                merge_high_water: n.merge_hw.get(),
                kernel: n.node.kernel_stats(),
                end: n.node.now(),
            };
            (n.index, t, stats)
        })
        .collect();
    ShardOutput {
        shard,
        epochs,
        work,
        stall,
        nodes: harvested,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::sim::{Activity, ClockId, Module, Simulator, TickContext, WakeHandle};
    use netfpga_core::time::Frequency;
    use std::cell::RefCell;

    /// Arrival record: `(instant taken off the wire, first payload byte,
    /// arrivals at this node so far)`.
    type Log = Rc<RefCell<Vec<(Time, u8, u64)>>>;

    /// Forwards port-0 arrivals to port 1 after a processing delay,
    /// logging each arrival — enough datapath to make ordering and
    /// timing differences observable in a trace.
    struct Repeater {
        rx: Wire,
        tx: Wire,
        proc_delay: Time,
        log: Log,
        hops: u64,
        /// Panic on this arrival — the failing module of the poison tests.
        fail_at: Option<u64>,
        wake: WakeHandle,
    }

    impl Module for Repeater {
        fn name(&self) -> &str {
            "repeater"
        }

        fn tick(&mut self, ctx: &TickContext) {
            while let Some(mut f) = self.rx.take_ready(ctx.now) {
                self.hops += 1;
                assert_ne!(Some(self.hops), self.fail_at, "repeater gave up");
                self.log
                    .borrow_mut()
                    .push((ctx.now, f.data.bytes()[0], self.hops));
                f.ready_at += self.proc_delay;
                self.tx.push(f);
            }
        }

        fn activity(&self) -> Activity {
            self.rx
                .head_ready_at()
                .map_or(Activity::Quiescent, Activity::Bounded)
        }

        fn wake_handle(&self) -> Option<WakeHandle> {
            Some(self.wake.clone())
        }
    }

    /// The minimal [`FabricNode`]: one 200 MHz clock, two ports, one
    /// repeater with a 100 ns processing delay.
    struct RingNode {
        sim: Simulator,
        clk: ClockId,
        ports: Vec<(Wire, Wire)>,
        telemetry: StatRegistry,
        log: Log,
    }

    /// Node `i` of the standard ring: node 0 carries two frames.
    fn ring_node(i: usize) -> RingNode {
        ring_node_failing(i, None)
    }

    fn ring_node_failing(i: usize, fail_at: Option<u64>) -> RingNode {
        let stimulus: &[(u8, u64)] = if i == 0 { &[(7, 100), (9, 250)] } else { &[] };
        node_with(stimulus, fail_at)
    }

    /// A node whose port 0 receives `(first byte, ready_at ns)` frames up
    /// front.
    fn node_with(stimulus: &[(u8, u64)], fail_at: Option<u64>) -> RingNode {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let ports: Vec<(Wire, Wire)> = (0..2).map(|_| (Wire::new(), Wire::new())).collect();
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let wake = WakeHandle::new();
        ports[0].0.set_wake(wake.clone());
        sim.add_module(
            clk,
            Repeater {
                rx: ports[0].0.clone(),
                tx: ports[1].1.clone(),
                proc_delay: Time::from_ns(100),
                log: log.clone(),
                hops: 0,
                fail_at,
                wake,
            },
        );
        for &(byte, ns) in stimulus {
            ports[0].0.push(WireFrame::new(
                PktBuf::copy_from(&[byte; 64]),
                Time::from_ns(ns),
            ));
        }
        RingNode {
            sim,
            clk,
            ports,
            telemetry: StatRegistry::new(),
            log,
        }
    }

    impl FabricNode for RingNode {
        fn run_until(&mut self, deadline: Time) {
            self.sim.run_until(deadline);
        }

        fn now(&self) -> Time {
            self.sim.now()
        }

        fn clock_period(&self) -> Time {
            self.sim.period(self.clk)
        }

        fn port_wires(&self, port: usize) -> (Wire, Wire) {
            (self.ports[port].0.clone(), self.ports[port].1.clone())
        }

        fn telemetry(&self) -> &StatRegistry {
            &self.telemetry
        }

        fn kernel_stats(&self) -> KernelStats {
            self.sim.kernel_stats()
        }
    }

    /// Directed ring: node i's port 1 feeds node (i+1)%n's port 0.
    fn ring(n: usize, delay: Time) -> FabricTopology {
        let mut topo = FabricTopology::new(n);
        for i in 0..n {
            topo = topo.link(i, 1, (i + 1) % n, 0, delay);
        }
        topo
    }

    /// Run the standard ring with 1 µs links; every frame a run ships is
    /// delivered by its end.
    fn run_ring(
        nnodes: usize,
        nshards: usize,
        epoch: Time,
        horizon: Time,
    ) -> FabricReport<Vec<(Time, u8, u64)>> {
        let topo = ring(nnodes, Time::from_us(1));
        let config = FabricConfig::new(nshards, epoch);
        let report = run_fabric(
            &topo,
            &config,
            horizon,
            ring_node,
            |_, node: &mut RingNode| node.log.borrow().clone(),
        );
        assert_eq!(report.stats.crossed, report.stats.delivered);
        report
    }

    #[test]
    fn traces_identical_across_shard_counts_and_epoch_lengths() {
        let horizon = Time::from_us(40);
        let reference = run_ring(3, 1, Time::from_ns(990), horizon);
        assert!(
            reference.stats.crossed > 20,
            "ring should circulate: crossed {}",
            reference.stats.crossed
        );
        assert_eq!(reference.stats.blocked, 0);
        assert!(reference.results[0].iter().any(|&(_, b, _)| b == 9));
        for (nshards, epoch_ns) in [(2, 990), (3, 990), (1, 330), (3, 495), (2, 111)] {
            let got = run_ring(3, nshards, Time::from_ns(epoch_ns), horizon);
            assert_eq!(
                got.results, reference.results,
                "trace diverged at nshards={nshards} epoch={epoch_ns}ns"
            );
            assert_eq!(
                got.stats.crossed, reference.stats.crossed,
                "crossed diverged at nshards={nshards} epoch={epoch_ns}ns: {:?} vs {:?}",
                got.nodes, reference.nodes
            );
            for (a, b) in got.nodes.iter().zip(&reference.nodes) {
                assert_eq!((a.node, a.crossed), (b.node, b.crossed));
            }
        }
    }

    /// The deposit instant is a function of the epoch alone, so the
    /// fabric counters that observe it repeat for every shard layout.
    #[test]
    fn deposit_counters_identical_across_shard_counts() {
        let horizon = Time::from_us(40);
        let counters = |r: &FabricReport<_>| {
            r.nodes
                .iter()
                .map(|n| (n.crossed, n.delivered, n.merge_high_water, n.kernel))
                .collect::<Vec<_>>()
        };
        let reference = run_ring(3, 1, Time::from_ns(495), horizon);
        assert!(reference.stats.merge_high_water > 0);
        for nshards in [2, 3, 5] {
            let got = run_ring(3, nshards, Time::from_ns(495), horizon);
            assert_eq!(counters(&got), counters(&reference), "nshards={nshards}");
        }
    }

    /// A harvest that keeps simulating still transmits after the last
    /// barrier: those frames stay on their wires, uncounted.
    #[test]
    fn frames_harvested_after_the_last_barrier_stay_on_their_wire() {
        let topo = ring(2, Time::from_us(1));
        let config = FabricConfig::new(2, Time::from_ns(990));
        let report = run_fabric(
            &topo,
            &config,
            Time::from_us(20),
            ring_node,
            |_, node: &mut RingNode| {
                let before = node.telemetry.get("fabric.crossed").unwrap();
                node.sim.run_for(Time::from_us(5));
                let crossed = node.telemetry.get("fabric.crossed").unwrap() - before;
                (crossed, node.ports[1].1.len())
            },
        );
        assert!(
            report.results.iter().map(|&(_, left)| left).sum::<usize>() > 0,
            "the harvest must transmit for this test to mean anything"
        );
        assert!(report.results.iter().all(|&(crossed, _)| crossed == 0));
        assert_eq!(report.stats.crossed, report.stats.delivered);
    }

    #[test]
    fn drain_stamps_delay_and_sequences() {
        let wire = Wire::new();
        for (byte, ns) in [(1u8, 100), (2, 200), (3, 400)] {
            wire.push(WireFrame::new(
                PktBuf::copy_from(&[byte; 64]),
                Time::from_ns(ns),
            ));
        }
        let mut link = Outbound {
            link: 0,
            wire: wire.clone(),
            delay: Time::from_us(1),
            seq: 0,
        };
        let mut mailbox = Vec::new();
        assert_eq!(
            link.drain(3, Time::from_ns(300), &mut mailbox),
            2,
            "only what has left the wire by now"
        );
        assert_eq!(link.drain(3, Time::from_ns(400), &mut mailbox), 1);
        assert!(wire.is_empty());
        let (a, c) = (&mailbox[0], &mailbox[2]);
        assert_eq!(a.bytes, vec![1u8; 64]);
        assert_eq!(a.ready_at, Time::from_ns(100) + Time::from_us(1));
        assert_eq!(a.fcs, Fcs::Unchecked);
        let names: Vec<_> = mailbox.iter().map(|f| (f.src_node, f.seq)).collect();
        assert_eq!(names, [(3, 0), (3, 1), (3, 2)], "seq runs on across epochs");
        assert_eq!(c.ready_at, Time::from_ns(400) + Time::from_us(1));
    }

    /// Every hop lands exactly one link delay after the previous node
    /// transmitted it, and every wire's frames are taken in time order.
    #[test]
    fn arrivals_keep_the_link_delay_and_time_order() {
        let hop = Time::from_ns(100) + Time::from_us(1);
        for nshards in [1, 2, 3] {
            let report = run_ring(3, nshards, Time::from_ns(495), Time::from_us(20));
            for (i, log) in report.results.iter().enumerate() {
                assert!(log.windows(2).all(|w| w[0].0 < w[1].0), "node {i}: {log:?}");
                let upstream = &report.results[(i + 2) % 3];
                for &(at, byte, _) in log.iter().filter(|e| e.0 >= hop) {
                    assert!(
                        upstream.iter().any(|&(t, b, _)| t + hop == at && b == byte),
                        "node {i}: {at:?} has no sender one hop earlier (nshards={nshards})"
                    );
                }
            }
        }
    }

    /// The lookahead bound met with equality: frames leaving node 0 on
    /// the last edge of an epoch (990 ns) and the first of the next
    /// (995 ns) are taken one link delay later, whoever runs where and
    /// wherever the other epoch boundaries fall.
    #[test]
    fn a_frame_at_the_epoch_edge_is_taken_on_its_arrival_edge() {
        // 1 µs = 990 ns + 2 × 5 ns.
        let topo = ring(3, Time::from_us(1));
        for nshards in 1..=3 {
            for divisor in 1..=3 {
                let config = FabricConfig::new(nshards, Time::from_ns(990 / divisor));
                let report = run_fabric(
                    &topo,
                    &config,
                    Time::from_us(3),
                    |i| {
                        let stimulus: &[(u8, u64)] =
                            if i == 0 { &[(1, 890), (2, 895)] } else { &[] };
                        node_with(stimulus, None)
                    },
                    |_, node: &mut RingNode| node.log.borrow().clone(),
                );
                assert_eq!(
                    report.results[1],
                    [(Time::from_ns(1990), 1, 1), (Time::from_ns(1995), 2, 2)],
                    "nshards={nshards} epoch=990/{divisor} ns"
                );
            }
        }
    }

    /// A module that panics mid-run on a spawned shard must fail the run
    /// with its own message, not leave the other shard waiting at the
    /// barrier.
    #[test]
    #[should_panic(expected = "repeater gave up")]
    fn panicking_shard_fails_the_run() {
        let topo = ring(2, Time::from_us(1));
        let config = FabricConfig::new(2, Time::from_ns(990));
        run_fabric(
            &topo,
            &config,
            Time::from_us(40),
            |i| ring_node_failing(i, (i == 1).then_some(3)),
            |_, _: &mut RingNode| (),
        );
    }

    /// The same on the shard that runs on the calling thread: its panic,
    /// not the peer it took down, is what the run re-raises.
    #[test]
    #[should_panic(expected = "repeater gave up")]
    fn panicking_calling_thread_shard_fails_the_run() {
        let topo = ring(2, Time::from_us(1));
        let config = FabricConfig::new(2, Time::from_ns(990));
        run_fabric(
            &topo,
            &config,
            Time::from_us(40),
            |i| ring_node_failing(i, (i == 0).then_some(3)),
            |_, _: &mut RingNode| (),
        );
    }

    /// Shard 0 borrows the calling thread, and counts buffers from zero
    /// there like a spawned shard does.
    #[test]
    fn shard_zero_runs_on_the_calling_thread() {
        drop(PktBuf::copy_from(&[0; 64]));
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let config = FabricConfig::new(2, Time::from_ns(990));
        run_fabric(
            &ring(2, Time::from_us(1)),
            &config,
            Time::from_us(5),
            |i| {
                let allocs = pktbuf::pool_stats().allocs;
                seen.lock()
                    .unwrap()
                    .push((i, std::thread::current().id(), allocs));
                ring_node(i)
            },
            |_, _: &mut RingNode| (),
        );
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(i, _, _)| i);
        assert_eq!(seen[0], (0, caller, 0));
        assert_ne!(seen[1].1, caller);
    }

    #[test]
    fn epoch_count_and_end_times_are_uniform() {
        let report = run_ring(3, 2, Time::from_ns(900), Time::from_us(9));
        assert_eq!(report.stats.epochs, 10, "ceil(9000 / 900)");
        for n in &report.nodes {
            assert!(
                n.end >= Time::from_us(9),
                "node {} stopped early at {:?}",
                n.node,
                n.end
            );
            assert!(n.kernel.steps > 0);
        }
        assert_eq!(
            report.stats.kernel.steps,
            report.nodes.iter().map(|n| n.kernel.steps).sum()
        );
        assert_eq!(report.stats.shard_stalls.len(), 2);
        assert_eq!(report.stats.shard_work.len(), 2);
        assert!(report.stats.shard_work.iter().all(|w| !w.is_zero()));
    }

    #[test]
    fn fabric_telemetry_registered_per_node() {
        let topo = ring(2, Time::from_us(1));
        let config = FabricConfig::new(2, Time::from_ns(990));
        let report = run_fabric(
            &topo,
            &config,
            Time::from_us(20),
            ring_node,
            |_, node: &mut RingNode| {
                let t = node.telemetry();
                (
                    t.get("fabric.crossed"),
                    t.get("fabric.blocked"),
                    t.get("fabric.delivered"),
                    t.get("fabric.merge_hw"),
                    t.get("fabric.epochs"),
                )
            },
        );
        for (node, (crossed, blocked, delivered, merge_hw, epochs)) in
            report.results.iter().enumerate()
        {
            assert!(crossed.unwrap() > 0, "node {node} crossed");
            assert_eq!(blocked.unwrap(), 0, "node {node} blocked");
            assert!(delivered.unwrap() > 0, "node {node} delivered");
            assert!(merge_hw.unwrap() > 0, "node {node} merge high-water");
            assert_eq!(epochs.unwrap(), report.stats.epochs, "node {node} epochs");
        }
        assert!(report.stats.merge_high_water > 0);
    }

    #[test]
    fn more_shards_than_nodes_is_harmless() {
        let horizon = Time::from_us(25);
        let reference = run_ring(2, 1, Time::from_ns(990), horizon);
        let wide = run_ring(2, 5, Time::from_ns(990), horizon);
        assert_eq!(wide.results, reference.results);
        assert_eq!(wide.stats.shard_stalls.len(), 5);
    }

    #[test]
    #[should_panic(expected = "lookahead invariant")]
    fn oversized_epoch_is_rejected() {
        run_ring(2, 1, Time::from_us(2), Time::from_us(10));
    }
}
