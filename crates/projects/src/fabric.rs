//! Multi-chassis fabrics of reference switches: the projects-side glue
//! for the parallel fabric plane (`netfpga-fabric`).
//!
//! This module makes a [`ReferenceSwitch`] drivable by the fabric runner
//! ([`FabricNode`] impl), provides the canonical **leaf–spine** topology
//! builder used by the scaling experiment (E16) and the equivalence
//! property tests, and a shared workload driver that produces
//! bit-comparable per-node traces.
//!
//! # Why pre-taught tables
//!
//! A multi-spine leaf–spine fabric has physical loops; flooding a single
//! unknown destination through L2-learning switches on such a topology
//! creates a broadcast storm (see `tests/topology.rs` — there is no
//! spanning tree in the reference switch, faithfully to the original).
//! The builder therefore *pre-teaches* every node's learning table with
//! every host MAC before traffic starts, exactly as an operator would
//! install static entries: traffic is all-unicast, each leaf reaches a
//! remote host through the statically chosen spine
//! (`spine = host % spines`), and the lookup `floods` counter staying at
//! zero across a run is the storm-free proof.

use crate::harness::ChassisConfig;
use crate::reference_switch::ReferenceSwitch;
use netfpga_core::board::BoardSpec;
use netfpga_core::hash::{fnv1a64, Fnv1a64};
use netfpga_core::sim::KernelStats;
use netfpga_core::telemetry::StatRegistry;
use netfpga_core::time::Time;
use netfpga_fabric::{run_fabric, FabricConfig, FabricNode, FabricReport, FabricTopology};
use netfpga_faults::{FaultPlan, TraceEntry};
use netfpga_packet::{EtherType, EthernetAddress, PacketBuilder};
use netfpga_phy::Wire;
use std::hash::Hasher;

impl FabricNode for ReferenceSwitch {
    fn run_until(&mut self, deadline: Time) {
        self.chassis.sim.run_until(deadline);
    }

    fn now(&self) -> Time {
        self.chassis.sim.now()
    }

    fn clock_period(&self) -> Time {
        self.chassis.sim.period(self.chassis.clk)
    }

    fn port_wires(&self, port: usize) -> (Wire, Wire) {
        self.chassis.port_wires(port)
    }

    fn telemetry(&self) -> &StatRegistry {
        &self.chassis.telemetry
    }

    fn kernel_stats(&self) -> KernelStats {
        self.chassis.sim.kernel_stats()
    }
}

/// A leaf–spine fabric of reference switches.
///
/// Node indexing: leaves are nodes `0..leaves`, spines are nodes
/// `leaves..leaves+spines`. Each leaf has `host_ports` host-facing ports
/// (ports `0..host_ports`) and one uplink per spine (port
/// `host_ports + s` towards spine `s`); spine `s`'s port `l` connects to
/// leaf `l`. Host `h` (of `leaves · host_ports`) sits on leaf
/// `h / host_ports`, port `h % host_ports`.
#[derive(Debug, Clone, Copy)]
pub struct LeafSpine {
    /// Number of leaf switches.
    pub leaves: usize,
    /// Number of spine switches.
    pub spines: usize,
    /// Host-facing ports per leaf.
    pub host_ports: usize,
    /// Propagation delay of every leaf–spine link — the fabric's
    /// lookahead.
    pub link_delay: Time,
    /// Build the switches with the kernel fast path (burst mode) on.
    pub fast_path: bool,
}

/// Learning-table capacity per switch (comfortably above any fabric
/// size this module builds).
const TABLE_CAPACITY: usize = 1024;
/// Aging limit for learned entries — far beyond any run horizon, so
/// pre-taught entries never age out mid-run.
const AGE_LIMIT: Time = Time::from_ms(10_000);

impl LeafSpine {
    /// The benchmark fabric (E16): 6 leaves × 2 spines × 2 host ports
    /// (12 hosts, 8 nodes — shard counts 1/2/4/8 divide evenly), 2 µs
    /// links, fast path on.
    pub fn bench() -> LeafSpine {
        LeafSpine {
            leaves: 6,
            spines: 2,
            host_ports: 2,
            link_delay: Time::from_us(2),
            fast_path: true,
        }
    }

    /// Total nodes (leaves + spines).
    pub fn nnodes(&self) -> usize {
        self.leaves + self.spines
    }

    /// Total hosts.
    pub fn nhosts(&self) -> usize {
        self.leaves * self.host_ports
    }

    /// Each host's traffic peer: the same port position one leaf over —
    /// always a *different* leaf, so every flow crosses the fabric.
    pub fn peer(&self, host: usize) -> usize {
        (host + self.host_ports) % self.nhosts()
    }

    /// The spine carrying traffic *towards* `host` (static selection).
    pub fn spine_for(&self, host: usize) -> usize {
        host % self.spines
    }

    /// The full-duplex leaf–spine link mesh.
    pub fn topology(&self) -> FabricTopology {
        let mut topo = FabricTopology::new(self.nnodes());
        for l in 0..self.leaves {
            for s in 0..self.spines {
                topo = topo.duplex(l, self.host_ports + s, self.leaves + s, l, self.link_delay);
            }
        }
        topo
    }

    /// The longest epoch the lookahead invariant allows for this fabric:
    /// every node is a SUME chassis, clocked from the board's core clock.
    pub fn default_epoch(&self) -> Time {
        self.topology()
            .max_safe_epoch(BoardSpec::sume().core_clock.period())
    }

    /// The port on `node` that reaches `host` (local host port on its own
    /// leaf, the statically selected uplink on other leaves, the leaf
    /// port on spines).
    pub fn port_towards(&self, node: usize, host: usize) -> usize {
        let leaf = host / self.host_ports;
        if node < self.leaves {
            if leaf == node {
                host % self.host_ports
            } else {
                self.host_ports + self.spine_for(host)
            }
        } else {
            leaf
        }
    }

    /// Build node `node` of the fabric: a [`ReferenceSwitch`] with its
    /// learning table pre-taught for every host and, on leaves, each
    /// local host's `frames_per_host` frames to its cross-leaf peer
    /// already injected (line-rate paced from time zero).
    pub fn build_node(&self, node: usize, frames_per_host: usize) -> ReferenceSwitch {
        self.build_node_with_faults(node, frames_per_host, FaultPlan::none())
    }

    /// Like [`LeafSpine::build_node`], with `plan` armed on the node's
    /// fault plane. An inert plan yields a bit-identical node.
    pub fn build_node_with_faults(
        &self,
        node: usize,
        frames_per_host: usize,
        plan: FaultPlan,
    ) -> ReferenceSwitch {
        let nports = if node < self.leaves {
            self.host_ports + self.spines
        } else {
            self.leaves
        };
        let config = ChassisConfig {
            fast_path: self.fast_path,
            faults: plan,
            ..ChassisConfig::new(&BoardSpec::sume(), nports)
        };
        let mut sw = ReferenceSwitch::build(&config, TABLE_CAPACITY, AGE_LIMIT, None);
        {
            // Pre-teach: learning `mac@port` is a `decide` with the MAC as
            // source on the port we want it bound to (the dst lookup it
            // also performs is a harmless hairpin hit).
            let mut core = sw.core.borrow_mut();
            for h in 0..self.nhosts() {
                let mac = host_mac(h);
                core.decide(mac, mac, self.port_towards(node, h) as u8, Time::ZERO);
            }
        }
        if node < self.leaves {
            for p in 0..self.host_ports {
                let h = node * self.host_ports + p;
                for seq in 0..frames_per_host {
                    sw.chassis.send(p, host_frame(h, self.peer(h), seq as u32));
                }
            }
        }
        sw
    }

    /// Run the fabric workload to `horizon` on `nshards` threads and
    /// harvest bit-comparable per-node traces. `nshards = 1` is the
    /// sequentialized reference run every other shard count must match
    /// exactly.
    pub fn run(
        &self,
        nshards: usize,
        epoch: Time,
        horizon: Time,
        frames_per_host: usize,
    ) -> FabricReport<NodeTrace> {
        self.run_with_faults(nshards, epoch, horizon, frames_per_host, |_| {
            FaultPlan::none()
        })
    }

    /// Like [`LeafSpine::run`], arming `plan_for(node)` on each node's
    /// fault plane. Per-node fault schedules are part of the workload:
    /// a faulted parallel run must still match its `nshards = 1`
    /// reference bit-for-bit (deliveries, lookup counters and the
    /// applied-fault trace).
    pub fn run_with_faults(
        &self,
        nshards: usize,
        epoch: Time,
        horizon: Time,
        frames_per_host: usize,
        plan_for: impl Fn(usize) -> FaultPlan + Sync,
    ) -> FabricReport<NodeTrace> {
        let topo = self.topology();
        let config = FabricConfig::new(nshards, epoch);
        run_fabric(
            &topo,
            &config,
            horizon,
            |node| self.build_node_with_faults(node, frames_per_host, plan_for(node)),
            |node, sw: &mut ReferenceSwitch| {
                let mut deliveries = Vec::new();
                if node < self.leaves {
                    for p in 0..self.host_ports {
                        for (bytes, at) in sw.chassis.recv_timed(p) {
                            deliveries.push((p, at, fnv1a64(&bytes)));
                        }
                    }
                }
                NodeTrace {
                    node,
                    deliveries,
                    lookup: LookupCounts::read(&sw.chassis.telemetry),
                    faults: sw
                        .chassis
                        .faults
                        .as_ref()
                        .map(|f| f.trace())
                        .unwrap_or_default(),
                }
            },
        )
    }
}

/// The MAC address of host `h` (locally administered unicast).
pub fn host_mac(h: usize) -> EthernetAddress {
    EthernetAddress::new(0x02, 0x00, 0xfa, 0xb0, (h >> 8) as u8, h as u8)
}

/// One unicast workload frame from `src_host` to `dst_host`, tagged with
/// a per-flow sequence number so every frame on the wire is distinct.
pub fn host_frame(src_host: usize, dst_host: usize, seq: u32) -> Vec<u8> {
    let mut payload = [0u8; 50];
    payload[0] = src_host as u8;
    payload[1..5].copy_from_slice(&seq.to_le_bytes());
    PacketBuilder::new()
        .eth(host_mac(src_host), host_mac(dst_host))
        .raw(EtherType::Ipv4, &payload)
        .build()
}

/// A node's learning/forwarding counts, read from its `lookup.*` telemetry
/// entries: plain values, since a trace crosses shard threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupCounts {
    /// Lookups that found the destination.
    pub hits: u64,
    /// Lookups that flooded.
    pub floods: u64,
    /// Source addresses learned or refreshed.
    pub learned: u64,
    /// Learning failures.
    pub learn_failures: u64,
}

impl LookupCounts {
    /// The `lookup.*` counts registered on `registry`.
    pub fn read(registry: &StatRegistry) -> LookupCounts {
        let get = |leaf| {
            registry
                .get(&format!("lookup.{leaf}"))
                .expect("lookup counter")
        };
        LookupCounts {
            hits: get("hits"),
            floods: get("floods"),
            learned: get("learned"),
            learn_failures: get("learn_failures"),
        }
    }
}

/// One node's bit-comparable run outcome: every frame delivered to a
/// host port as `(port, wire-completion time, FNV-1a of the bytes)` in
/// drain order, plus the node's lookup counters.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTrace {
    /// Node index.
    pub node: usize,
    /// Host-port deliveries (empty on spines).
    pub deliveries: Vec<(usize, Time, u64)>,
    /// The node's learning/forwarding counters.
    pub lookup: LookupCounts,
    /// The node's applied-fault trace (empty without an armed plan).
    pub faults: Vec<TraceEntry>,
}

/// Total frames delivered to host ports across the fabric.
pub fn total_delivered(report: &FabricReport<NodeTrace>) -> u64 {
    report
        .results
        .iter()
        .map(|t| t.deliveries.len() as u64)
        .sum()
}

/// Fold a word into an FNV-1a accumulator.
fn fnv_mix(h: &mut Fnv1a64, word: u64) {
    h.write(&word.to_le_bytes());
}

/// A single order-sensitive signature of everything observable in a
/// fabric run: every delivery of every node plus the lookup counters.
/// Two runs are bit-identical iff their signatures match (up to hash
/// collision) — the cheap cross-shard-count equivalence check E16 uses.
pub fn trace_signature(report: &FabricReport<NodeTrace>) -> u64 {
    let mut h = Fnv1a64::default();
    for t in &report.results {
        fnv_mix(&mut h, t.node as u64);
        for &(port, at, frame) in &t.deliveries {
            fnv_mix(&mut h, port as u64);
            fnv_mix(&mut h, at.as_ps());
            fnv_mix(&mut h, frame);
        }
        fnv_mix(&mut h, t.lookup.hits);
        fnv_mix(&mut h, t.lookup.floods);
        fnv_mix(&mut h, t.lookup.learned);
        fnv_mix(&mut h, t.lookup.learn_failures);
        fnv_mix(&mut h, t.faults.len() as u64);
        for e in &t.faults {
            fnv_mix(&mut h, e.at.as_ps());
            // `FaultKind` carries floats; its (deterministic) debug form
            // is the stable byte representation to fold.
            fnv_mix(&mut h, fnv1a64(format!("{:?}", e.kind).as_bytes()));
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LeafSpine {
        LeafSpine {
            leaves: 2,
            spines: 2,
            host_ports: 2,
            link_delay: Time::from_us(2),
            fast_path: true,
        }
    }

    #[test]
    fn topology_shape() {
        let ls = small();
        let topo = ls.topology();
        assert_eq!(topo.nnodes, 4);
        // 2 leaves × 2 spines × 2 directions.
        assert_eq!(topo.links.len(), 8);
        assert_eq!(topo.min_delay(), Some(Time::from_us(2)));
        topo.validate();
        LeafSpine::bench().topology().validate();
        // Every flow crosses leaves.
        for h in 0..ls.nhosts() {
            assert_ne!(h / ls.host_ports, ls.peer(h) / ls.host_ports, "host {h}");
        }
    }

    #[test]
    fn default_epoch_uses_the_period_the_nodes_run_at() {
        let ls = small();
        let node = ls.build_node(0, 0);
        assert_eq!(
            ls.default_epoch(),
            ls.topology().max_safe_epoch(node.clock_period())
        );
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let ls = small();
        let epoch = ls.default_epoch();
        let horizon = Time::from_us(60);
        let frames = 5;
        let reference = ls.run(1, epoch, horizon, frames);
        assert_eq!(
            total_delivered(&reference),
            (ls.nhosts() * frames) as u64,
            "every unicast frame arrives at its peer"
        );
        for t in &reference.results {
            assert_eq!(
                t.lookup.floods, 0,
                "node {}: pre-taught fabric never floods",
                t.node
            );
        }
        let sig = trace_signature(&reference);
        for nshards in [2, 4] {
            let got = ls.run(nshards, epoch, horizon, frames);
            assert_eq!(got.results, reference.results, "nshards={nshards}");
            assert_eq!(trace_signature(&got), sig, "nshards={nshards}");
            assert_eq!(got.stats.crossed, reference.stats.crossed);
            assert_eq!(got.stats.crossed, got.stats.delivered);
        }
    }

    /// Frames sent in epoch `k` are deposited after barrier `k` on every
    /// shard layout, so the counters that see the deposit repeat too —
    /// the kernel's included: an early deposit would wake a MAC early.
    #[test]
    fn deposit_counters_identical_across_shard_counts() {
        let ls = small();
        let run = |nshards| {
            let report = ls.run(nshards, ls.default_epoch(), Time::from_us(60), 5);
            report
                .nodes
                .iter()
                .map(|n| (n.crossed, n.delivered, n.merge_high_water, n.kernel))
                .collect::<Vec<_>>()
        };
        let reference = run(1);
        assert!(reference.iter().all(|&(_, _, hw, _)| hw > 0));
        for nshards in [2, 3, 5] {
            assert_eq!(run(nshards), reference, "nshards={nshards}");
        }
    }

    #[test]
    fn fabric_telemetry_lands_in_switch_registries() {
        let ls = small();
        let topo = ls.topology();
        let config = FabricConfig::new(2, ls.default_epoch());
        let report = run_fabric(
            &topo,
            &config,
            Time::from_us(40),
            |node| ls.build_node(node, 2),
            |_, sw: &mut ReferenceSwitch| {
                let t = &sw.chassis.telemetry;
                (
                    t.get("fabric.crossed"),
                    t.get("fabric.epochs"),
                    t.get("kernel.steps"),
                )
            },
        );
        for (node, &(crossed, epochs, steps)) in report.results.iter().enumerate() {
            assert!(crossed.unwrap() > 0, "node {node} shipped frames");
            assert_eq!(epochs.unwrap(), report.stats.epochs, "node {node}");
            assert!(steps.unwrap() > 0, "node {node}");
        }
        assert_eq!(report.stats.blocked, 0);
        assert!(report.stats.kernel.steps > 0, "kernel counters aggregated");
    }
}
