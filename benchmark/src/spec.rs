//! The benchmark's own statement of what it measures: every workload and
//! metric by name, with unit, direction, bound, and — for a per-layer
//! metric — the end-to-end metric and workload it is expected to move.
//! `run` emits exactly these; `check` holds `BENCHMARK.json` against them.

/// Rounds per run: fresh processes, reduced by median (set-up, memory) or
/// lower quartile (host time).
pub const ROUNDS: usize = 7;
/// The `--seconds` the frozen slice counts below are sized for.
pub const NOMINAL_SECONDS: u64 = 10;
/// `--smoke` and the Scan-reference replay divide the frozen sizes by
/// these.
pub const SMOKE_SCALE: usize = 20;

pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line, as it appears in `BENCHMARK.json`.
    pub why: &'static str,
    /// Timed slices per round at `NOMINAL_SECONDS`, sized on the reference
    /// host so that a round's slices take `NOMINAL_SECONDS / ROUNDS`.
    pub slices: usize,
    /// Untimed slices each round runs first, so pools and caches are warm;
    /// about a tenth of a round, and part of `setup_s`.
    pub warmup: usize,
    /// Divisor of the slice size for the Scan-reference replay (the scan
    /// kernel steps every edge, so long idle stretches are costly).
    pub replay_scale: usize,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "switch_unicast_64",
        why: "Smallest frame at line rate on the burst-mode switch: per-packet cost of kernel dispatch, streams, MACs, arbiter, lookup and queues dominates; buffers and host I/O rest.",
        slices: 750,
        warmup: 75,
        replay_scale: 4,
    },
    WorkloadSpec {
        name: "switch_exact_imix",
        why: "IMIX on the default word-level switch: one word per cycle, so stream transfers and kernel stepping dominate and lookup is diluted; the cycle-exact device-timing reference.",
        slices: 525,
        warmup: 52,
        replay_scale: 4,
    },
    WorkloadSpec {
        name: "switch_flood_300",
        why: "Unknown unicast on an untaught switch, egress 3:1 oversubscribed: buffer refcount fan-out and output-queue tail drop do the work, every lookup misses.",
        slices: 45,
        warmup: 4,
        replay_scale: 4,
    },
    WorkloadSpec {
        name: "router_lpm_252",
        why: "4096 seeded routes, 256 ARP entries, frames owning their buffers, 1 in 64 punted to the CPU: LPM, ARP, parse and in-place TTL/checksum rewrite dominate; DMA c2h at 1.6 %.",
        slices: 425,
        warmup: 42,
        replay_scale: 4,
    },
    WorkloadSpec {
        name: "nic_host_dma",
        why: "Reference NIC and host driver, both directions at once, TX ring refilled until it refuses: DMA rings and the call-per-packet host boundary dominate, lookup does nothing.",
        slices: 425,
        warmup: 42,
        replay_scale: 4,
    },
    WorkloadSpec {
        name: "idle_probe",
        why: "Four frames, then 40-60 us of silence: over 99.9 % of edges are skipped, so idle fast-forward and wake invalidation are the whole cost and the datapath rests.",
        slices: 560,
        warmup: 56,
        replay_scale: 40,
    },
    WorkloadSpec {
        name: "fabric_leafspine",
        why: "Eight switches as a leaf-spine fabric sharded over min(nproc, 2) threads: epoch barriers, channels, merge and thread hand-off, which no single-chassis workload touches.",
        slices: 50,
        warmup: 5,
        replay_scale: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How `compare` treats an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock of the simulator or its process: noisy, compared through
    /// the bound, `unresolved` when the rounds' own spread exceeds it.
    Host,
    /// Simulated: deterministic for a seed, compared exactly.
    Device,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub kind: Kind,
}

/// Simulated nanoseconds carry their own unit, so that no reader (or
/// driver) takes a deterministic device time for a host measurement.
pub const SIM_NS: &str = "sim_ns";

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Host,
    },
    EndToEnd {
        name: "host_frames_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Host,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        kind: Kind::Host,
    },
    EndToEnd {
        name: "dev_mpps",
        unit: "Mpps",
        better: Better::Higher,
        bound: 0.05,
        kind: Kind::Device,
    },
    EndToEnd {
        name: "dev_latency_ns_p50",
        unit: SIM_NS,
        better: Better::Lower,
        bound: 0.05,
        kind: Kind::Device,
    },
    EndToEnd {
        name: "dev_latency_ns_p99",
        unit: SIM_NS,
        better: Better::Lower,
        bound: 0.05,
        kind: Kind::Device,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this one should move …
    pub moves: &'static str,
    /// … and the workloads on which it should.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

const HOST: &str = "host_frames_per_s";
const ALL: &str = "all";

pub const PER_LAYER: &[PerLayer] = &[
    // Spans around the calls into each layer (traced rounds).
    layer("bench.gen.ns_per_frame", "ns", Lower, HOST, ALL),
    layer(
        "projects.harness.send.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "switch_unicast_64 nic_host_dma",
    ),
    layer("core.sim.run.ns_per_frame", "ns", Lower, HOST, ALL),
    layer(
        "projects.harness.recv.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "switch_unicast_64 nic_host_dma",
    ),
    layer(
        "host.nic.transmit.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "nic_host_dma",
    ),
    layer(
        "host.nic.receive.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "nic_host_dma",
    ),
    layer("core.telemetry.snapshot.ns", "ns", Lower, "setup_s", ALL),
    layer("bench.trace_overhead_pct", "%", Lower, HOST, ALL),
    // Kernel counters.
    layer("core.sim.edges", "count", Lower, HOST, ALL),
    layer(
        "core.sim.steps_per_kframe",
        "count",
        Lower,
        HOST,
        "switch_unicast_64 switch_flood_300",
    ),
    layer("core.sim.skip_share", "share", Higher, HOST, "idle_probe"),
    layer(
        "core.sim.probes_avoided_per_kframe",
        "count",
        Higher,
        HOST,
        "switch_unicast_64 switch_flood_300",
    ),
    layer(
        "core.sim.invalidations_per_kframe",
        "count",
        Lower,
        HOST,
        "switch_unicast_64 switch_flood_300 idle_probe",
    ),
    // Buffer plane.
    layer(
        "core.pktbuf.allocs_per_kframe",
        "count",
        Lower,
        "peak_rss_mb",
        "switch_flood_300 router_lpm_252",
    ),
    layer(
        "core.pktbuf.recycle_share",
        "share",
        Higher,
        HOST,
        "switch_flood_300 router_lpm_252",
    ),
    layer(
        "core.pktbuf.cow_copies",
        "count",
        Lower,
        HOST,
        "switch_flood_300 router_lpm_252",
    ),
    // PHY.
    layer("phy.mac.rx_frames", "count", Higher, "dev_mpps", ALL),
    layer("phy.mac.tx_frames", "count", Higher, "dev_mpps", ALL),
    layer("phy.mac.bad_fcs", "count", Lower, "dev_mpps", ALL),
    // Datapath.
    layer(
        "datapath.lookup.hit_share",
        "share",
        Higher,
        "dev_mpps",
        "switch_unicast_64 switch_exact_imix",
    ),
    layer(
        "datapath.lookup.floods",
        "count",
        Lower,
        "dev_mpps",
        "switch_flood_300",
    ),
    layer(
        "datapath.oq.enqueued",
        "count",
        Higher,
        "dev_mpps",
        "switch_flood_300",
    ),
    layer(
        "datapath.oq.drop_share",
        "share",
        Lower,
        "dev_mpps",
        "switch_flood_300",
    ),
    layer(
        "datapath.residence_ns_p50",
        SIM_NS,
        Lower,
        "dev_latency_ns_p50",
        "switch_exact_imix",
    ),
    layer(
        "datapath.residence_ns_p99",
        SIM_NS,
        Lower,
        "dev_latency_ns_p99",
        "switch_exact_imix",
    ),
    // Router.
    layer(
        "projects.router.forwarded",
        "count",
        Higher,
        "dev_mpps",
        "router_lpm_252",
    ),
    layer(
        "projects.router.to_cpu_share",
        "share",
        Lower,
        "dev_mpps",
        "router_lpm_252",
    ),
    layer(
        "projects.router.dropped",
        "count",
        Lower,
        "dev_mpps",
        "router_lpm_252",
    ),
    // Host I/O.
    layer(
        "pcie.dma.h2c_frames",
        "count",
        Higher,
        "dev_mpps",
        "nic_host_dma",
    ),
    layer(
        "pcie.dma.c2h_frames",
        "count",
        Higher,
        "dev_mpps",
        "nic_host_dma router_lpm_252",
    ),
    layer(
        "pcie.dma.dropped",
        "count",
        Lower,
        "dev_mpps",
        "nic_host_dma",
    ),
    layer(
        "host.nic.tx_busy_share",
        "share",
        Lower,
        HOST,
        "nic_host_dma",
    ),
    // Fabric.
    layer("fabric.epochs", "count", Lower, HOST, "fabric_leafspine"),
    layer(
        "fabric.crossed_per_frame",
        "count",
        Lower,
        HOST,
        "fabric_leafspine",
    ),
    layer("fabric.blocked", "count", Lower, HOST, "fabric_leafspine"),
    layer(
        "fabric.merge_hw",
        "count",
        Lower,
        "peak_rss_mb",
        "fabric_leafspine",
    ),
    layer(
        "fabric.barrier_stall_share",
        "share",
        Lower,
        HOST,
        "fabric_leafspine",
    ),
    layer(
        "fabric.speedup_vs_seq",
        "x",
        Higher,
        HOST,
        "fabric_leafspine",
    ),
    // Single-module rigs: one module between a packet source and sink.
    layer(
        "rig.core.stream.word.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "switch_exact_imix router_lpm_252",
    ),
    layer(
        "rig.core.stream.burst.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "switch_unicast_64",
    ),
    layer(
        "rig.phy.mac_pair.word.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "switch_exact_imix router_lpm_252",
    ),
    layer(
        "rig.phy.mac_pair.burst.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "switch_unicast_64 switch_flood_300",
    ),
    layer(
        "rig.datapath.arbiter.word.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "switch_exact_imix router_lpm_252",
    ),
    layer(
        "rig.datapath.arbiter.burst.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "switch_unicast_64",
    ),
    layer(
        "rig.datapath.lookup_stage.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "switch_unicast_64",
    ),
    layer(
        "rig.datapath.output_queues.word.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "switch_exact_imix router_lpm_252",
    ),
    layer(
        "rig.datapath.output_queues.burst.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "switch_unicast_64 switch_flood_300",
    ),
    layer(
        "rig.pcie.dma.ns_per_frame",
        "ns",
        Lower,
        HOST,
        "nic_host_dma",
    ),
    // Pure-function kernels.
    layer("rig.packet.build.ns", "ns", Lower, HOST, ALL),
    layer("rig.packet.parse.ns", "ns", Lower, HOST, "router_lpm_252"),
    layer("rig.packet.crc32.ns_per_byte", "ns", Lower, HOST, ALL),
    layer(
        "rig.datapath.lpm.lookup_ns",
        "ns",
        Lower,
        HOST,
        "router_lpm_252",
    ),
    layer(
        "rig.datapath.learn.forward_ns",
        "ns",
        Lower,
        HOST,
        "switch_unicast_64 switch_exact_imix",
    ),
    layer("rig.mem.tcam.lookup_ns", "ns", Lower, HOST, "none"),
    layer("rig.flowmon.sketch.update_ns", "ns", Lower, HOST, "none"),
    layer(
        "rig.core.pktbuf.clone_drop_ns",
        "ns",
        Lower,
        HOST,
        "switch_flood_300",
    ),
    // End to end by nature, but they read 0 when all is well, which a
    // bounded metric may not: reported here, enforced through `correct`
    // and `failed`.
    layer("dev_line_rate_err_ppm", "ppm", Lower, "dev_mpps", ALL),
    layer("ops_failed_ppm", "ppm", Lower, "dev_mpps", ALL),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn every_layer_metric_names_what_it_moves() {
        for m in PER_LAYER {
            assert!(
                END_TO_END.iter().any(|e| e.name == m.moves),
                "{} moves unknown metric {}",
                m.name,
                m.moves
            );
            for w in m.on.split(' ') {
                assert!(
                    w == ALL || w == "none" || workload(w).is_some(),
                    "{} names unknown workload {w}",
                    m.name
                );
            }
        }
    }
}
