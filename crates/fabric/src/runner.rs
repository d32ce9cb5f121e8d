//! The conservative-lookahead parallel runner: shards a topology across
//! scoped threads, one single-threaded chassis per shard, synchronized
//! at epoch barriers.
//!
//! See the [crate docs](crate) for the epoch/lookahead invariant and the
//! determinism argument. The protocol per shard, in epoch `k`:
//!
//! 1. advance every owned node's simulator to the epoch end
//!    (`run_until` — epoch splitting is invisible to the kernel: a
//!    monotone sequence of deadlines executes the identical edge set as
//!    one big run); egresses append to their shard-local outboxes,
//! 2. publish every non-empty outbox into buffer `k % 2` of its link's
//!    mailbox,
//! 3. wait at the barrier,
//! 4. take buffer `k % 2` of every inbound link's mailbox into the
//!    destination nodes' ingress merge queues.
//!
//! A link's two buffers alternate by epoch parity because a shard that
//! leaves barrier `k` early may publish epoch `k + 1` while its peer is
//! still taking epoch `k`; nobody publishes epoch `k + 2` before barrier
//! `k + 1`, which the taker only reaches once it is done. So a frame sent
//! in epoch `k` is deposited after barrier `k` and never earlier, on
//! every shard layout.
//!
//! Steps 1 and 3 are timed per shard — wall-clock only, never fed back
//! into the simulation — as `shard_work` and `shard_stalls`, the latter
//! being the price of the slowest shard each epoch.

use crate::barrier::{EpochBarrier, PeerPanicked};
use crate::endpoints::{FabricEgress, FabricFrame, FabricIngress, IngressHandle, Outbox};
use crate::topo::FabricTopology;
use netfpga_core::sim::{KernelStats, Module};
use netfpga_core::stats::Counter;
use netfpga_core::telemetry::StatRegistry;
use netfpga_core::time::Time;
use netfpga_phy::Wire;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A board the fabric runner can drive. Implemented by project
/// harnesses (e.g. `ReferenceSwitch` in `netfpga-projects`); the fabric
/// crate itself only needs these six capabilities.
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

    /// Raw wires of a front-panel port: `(to_board, from_board)`.
    fn port_wires(&self, port: usize) -> (Wire, Wire);

    /// Register a fabric endpoint module on the node's core clock.
    fn add_fabric_module(&mut self, module: Box<dyn Module>);

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
    /// Frames this node's egresses shipped across the fabric.
    pub crossed: u64,
    /// Frames this node's ingress landed on destination wires.
    pub delivered: u64,
    /// Always 0: an outbox has no capacity, so an egress cannot block.
    /// Kept, like the `fabric.blocked` counter, for readers that check it.
    pub blocked: u64,
    /// Merge-queue high-water mark.
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
    /// Total frames delivered onto destination wires.
    pub delivered: u64,
    /// Always 0 (see [`NodeFabricStats::blocked`]).
    pub blocked: u64,
    /// Deepest merge queue across all nodes.
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

/// The shard a node runs on under round-robin assignment.
pub fn shard_of(node: usize, nshards: usize) -> usize {
    node % nshards
}

/// One directed link's hand-over point between its two shards, one
/// buffer per epoch parity (see the module docs). The barrier keeps the
/// two sides off any one buffer at a time, so the locks never contend.
#[derive(Default)]
struct Mailbox([Mutex<Vec<FabricFrame>>; 2]);

impl Mailbox {
    fn buffer(&self, epoch: u64) -> MutexGuard<'_, Vec<FabricFrame>> {
        // A shard that panics mid-swap poisons the barrier too: nobody
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
/// whatever the node egresses then is left in an outbox nobody reads).
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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let barrier = EpochBarrier::new(config.nshards, config.nshards <= cores);
    let started = Instant::now();
    let mut joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.nshards)
            .map(|shard| {
                let (mailboxes, barrier, build, harvest) = (&mailboxes, &barrier, &build, &harvest);
                scope.spawn(move || {
                    run_shard(
                        shard, mailboxes, topo, config, horizon, barrier, build, harvest,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
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

/// Hooks the shard loop keeps per owned node.
struct NodeHooks {
    crossed: Counter,
    ingress: Option<IngressHandle>,
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

    // Build nodes in index order and wire their fabric endpoints in
    // topology order — the module add order (ingress, then egresses)
    // must not depend on the shard layout, because module order within
    // an edge is part of a simulator's identity.
    let mut nodes: Vec<(usize, N, NodeHooks)> = Vec::new();
    // `(link, outbox)` of every link leaving this shard, and `(link,
    // owning node's ingress, binding)` of every link entering it.
    let mut outboxes: Vec<(usize, Outbox)> = Vec::new();
    let mut inbound_routes: Vec<(usize, IngressHandle, usize)> = Vec::new();
    for i in (0..topo.nnodes).filter(|&i| shard_of(i, config.nshards) == shard) {
        let mut node = build(i);
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
        let mut hooks = NodeHooks {
            crossed: Counter::new(),
            ingress: None,
        };
        let telemetry = node.telemetry().clone();
        telemetry.register_counter("fabric.crossed", &hooks.crossed);
        // Nothing increments it: an outbox cannot fill.
        telemetry.register_counter("fabric.blocked", &Counter::new());
        let epochs_src = epoch_cell.clone();
        telemetry.gauge("fabric.epochs", move || epochs_src.get());
        if !inbound.is_empty() {
            let wires: Vec<Wire> = inbound
                .iter()
                .map(|&li| node.port_wires(topo.links[li].to_port).0)
                .collect();
            let (ingress, handle) = FabricIngress::new(&format!("fabric_in{i}"), wires);
            node.add_fabric_module(Box::new(ingress));
            for (binding, &li) in inbound.iter().enumerate() {
                inbound_routes.push((li, handle.clone(), binding));
            }
            let delivered_src = handle.clone();
            telemetry.gauge("fabric.delivered", move || delivered_src.delivered());
            let hw_src = handle.clone();
            telemetry.gauge("fabric.merge_hw", move || hw_src.high_water());
            hooks.ingress = Some(handle);
        }
        for &li in &outbound {
            let l = &topo.links[li];
            let outbox = Outbox::default();
            node.add_fabric_module(Box::new(FabricEgress::new(
                &format!("fabric_out{i}p{}", l.from_port),
                i,
                node.port_wires(l.from_port).1,
                outbox.clone(),
                l.delay,
                hooks.crossed.clone(),
            )));
            outboxes.push((li, outbox));
        }
        nodes.push((i, node, hooks));
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
        for (_, node, _) in &mut nodes {
            node.run_until(end);
        }
        work += began.elapsed();
        for (li, outbox) in &outboxes {
            let mut sent = outbox.borrow_mut();
            if !sent.is_empty() {
                // The buffer was emptied two epochs ago and comes back
                // with its capacity, so the two allocations circulate.
                std::mem::swap(&mut *sent, &mut *mailboxes[*li].buffer(epochs));
                debug_assert!(sent.is_empty(), "link {li}: mailbox not taken");
            }
        }
        let arrived = Instant::now();
        barrier.wait();
        stall += arrived.elapsed();
        for (li, handle, binding) in &inbound_routes {
            for frame in mailboxes[*li].buffer(epochs).drain(..) {
                handle.deposit(*binding, frame);
            }
        }
        now = end;
        epochs += 1;
        epoch_cell.set(epochs);
    }

    let harvested: Vec<(usize, T, NodeFabricStats)> = nodes
        .into_iter()
        .map(|(i, mut node, hooks)| {
            let t = harvest(i, &mut node);
            let stats = NodeFabricStats {
                node: i,
                shard,
                crossed: hooks.crossed.get(),
                delivered: hooks.ingress.as_ref().map_or(0, |h| h.delivered()),
                blocked: 0,
                merge_high_water: hooks.ingress.as_ref().map_or(0, |h| h.high_water()),
                kernel: node.kernel_stats(),
                end: node.now(),
            };
            (i, t, stats)
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
    use netfpga_core::pktbuf::PktBuf;
    use netfpga_core::sim::{Activity, ClockId, Simulator, TickContext, WakeHandle};
    use netfpga_core::time::Frequency;
    use netfpga_phy::mac::WireFrame;
    use std::cell::RefCell;

    /// Arrival record: `(arrival instant, first payload byte, hop count)`.
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
        /// Panic on this arrival — the failing module of the poison test.
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
                    .push((f.ready_at, f.data.bytes()[0], self.hops));
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
    /// repeater. Node 0 carries the up-front stimulus.
    struct RingNode {
        sim: Simulator,
        clk: ClockId,
        ports: Vec<(Wire, Wire)>,
        telemetry: StatRegistry,
        log: Log,
    }

    fn ring_node(i: usize) -> RingNode {
        ring_node_failing(i, None)
    }

    fn ring_node_failing(i: usize, fail_at: Option<u64>) -> RingNode {
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
        if i == 0 {
            ports[0].0.push(WireFrame::new(
                PktBuf::copy_from(&[7u8; 64]),
                Time::from_ns(100),
            ));
            ports[0].0.push(WireFrame::new(
                PktBuf::copy_from(&[9u8; 64]),
                Time::from_ns(250),
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

        fn add_fabric_module(&mut self, module: Box<dyn Module>) {
            self.sim.add_boxed_module(self.clk, module);
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

    fn run_ring(
        nnodes: usize,
        nshards: usize,
        epoch: Time,
        horizon: Time,
    ) -> FabricReport<Vec<(Time, u8, u64)>> {
        let topo = ring(nnodes, Time::from_us(1));
        let config = FabricConfig::new(nshards, epoch);
        run_fabric(
            &topo,
            &config,
            horizon,
            ring_node,
            |_, node: &mut RingNode| node.log.borrow().clone(),
        )
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
            // `delivered` lags `crossed` by what the last epoch sent: it is
            // deposited after the final barrier and no edge follows. That
            // depends on where the epoch boundaries fall, never on the
            // shard layout.
            let sequential = run_ring(3, 1, Time::from_ns(epoch_ns), horizon);
            assert_eq!(
                got.stats.delivered, sequential.stats.delivered,
                "delivered diverged at nshards={nshards} epoch={epoch_ns}ns"
            );
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

    /// A harvest that keeps simulating still egresses, after the last
    /// epoch: those frames stay in their outboxes.
    #[test]
    fn egress_after_the_last_epoch_goes_nowhere() {
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
                node.telemetry.get("fabric.crossed").unwrap() - before
            },
        );
        assert!(
            report.results.iter().sum::<u64>() > 0,
            "the harvest must egress for this test to mean anything"
        );
        assert!(report.stats.crossed > report.stats.delivered);
    }

    /// A module that panics mid-run on one shard must fail the run, not
    /// leave the other shard waiting at the barrier.
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
