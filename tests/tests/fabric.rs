//! Parallel-fabric integration tests: the sharded conservative-PDES run
//! must be bit-identical to the sequentialized (`nshards = 1`) reference
//! across shard counts, epoch lengths, schedulers and fault plans, and
//! the kernel work counters must stay MMIO-coherent per chassis while
//! summing across shards.

use netfpga_core::time::Time;
use netfpga_fabric::{run_fabric, FabricConfig, FabricReport};
use netfpga_faults::{FaultKind, FaultPlan};
use netfpga_host::dump_stats;
use netfpga_projects::fabric::{total_delivered, trace_signature, LeafSpine, NodeTrace};
use netfpga_projects::ReferenceSwitch;
use proptest::prelude::*;

/// The fault-plan dimension of the equivalence property: every plan is
/// armed on one node of the fabric (the rest stay inert), so faulted
/// frames are lost *inside* one shard and the loss must replay
/// identically however the fabric is sharded.
fn plan_for_case(kind: usize, seed: u64, ls: &LeafSpine, node: usize) -> FaultPlan {
    match kind {
        // Heavy i.i.d. bit errors on leaf 0's first uplink: corrupted
        // frames fail the receiving MAC's FCS check mid-fabric.
        1 if node == 0 => FaultPlan::new(seed).at(
            Time::ZERO,
            FaultKind::SetBer {
                port: ls.host_ports as u8,
                ber: 1e-5,
            },
        ),
        // A link flap on spine 0's port towards leaf 0: two down
        // windows that swallow anything crossing during them.
        2 if node == ls.leaves => FaultPlan::new(seed)
            .at(
                Time::from_us(4),
                FaultKind::LinkDown {
                    port: 0,
                    duration: Time::from_us(6),
                },
            )
            .at(
                Time::from_us(18),
                FaultKind::LinkDown {
                    port: 0,
                    duration: Time::from_us(3),
                },
            ),
        _ => FaultPlan::none(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// THE fabric acceptance property: for random fabric shapes, shard
    /// counts, epoch lengths (any divisor of the lookahead bound),
    /// schedulers (naive scan vs fast path) and per-node fault plans,
    /// the parallel run's delivery, lookup-counter and applied-fault
    /// traces are bit-identical to the sequential reference.
    #[test]
    fn prop_fabric_equals_sequential(
        leaves in 2usize..=3,
        spines in 1usize..=2,
        host_ports in 1usize..=2,
        nshards in 2usize..=5,
        epoch_div in 1u64..=3,
        frames in 1usize..=5,
        fast_path in any::<bool>(),
        fault_kind in 0usize..=2,
        seed in any::<u64>(),
    ) {
        let ls = LeafSpine {
            leaves,
            spines,
            host_ports,
            link_delay: Time::from_us(2),
            fast_path,
        };
        let epoch = Time::from_ps(ls.default_epoch().as_ps() / epoch_div);
        let horizon = Time::from_us(40);
        let plan = |node: usize| plan_for_case(fault_kind, seed, &ls, node);

        let reference = ls.run_with_faults(1, epoch, horizon, frames, plan);
        if fault_kind == 0 {
            // Without faults the unicast workload is lossless.
            prop_assert_eq!(
                total_delivered(&reference),
                (ls.nhosts() * frames) as u64
            );
        }
        for t in &reference.results {
            prop_assert_eq!(t.lookup.floods, 0, "node {}: pre-taught, never floods", t.node);
        }

        let got = ls.run_with_faults(nshards, epoch, horizon, frames, plan);
        prop_assert_eq!(&got.results, &reference.results, "nshards={}", nshards);
        prop_assert_eq!(trace_signature(&got), trace_signature(&reference));
        prop_assert_eq!(got.stats.crossed, reference.stats.crossed);
        prop_assert_eq!(got.stats.crossed, got.stats.delivered);
        prop_assert_eq!(got.stats.epochs, reference.stats.epochs);
    }
}

/// What a run pins: `(trace signature, per-node crossed, per-node
/// merge_high_water, epochs)`.
type Pin = (u64, Vec<u64>, Vec<u64>, u64);

fn pin(report: &FabricReport<NodeTrace>) -> Pin {
    (
        trace_signature(report),
        report.nodes.iter().map(|n| n.crossed).collect(),
        report.nodes.iter().map(|n| n.merge_high_water).collect(),
        report.stats.epochs,
    )
}

/// Regression pin: values captured at a238cc4, where links were egress
/// and ingress modules merging arrivals through a heap. The barrier
/// hand-off must reproduce them at every shard count, faulted or not.
#[test]
fn hand_off_reproduces_the_endpoint_modules() {
    let bench = LeafSpine::bench();
    let small = LeafSpine {
        leaves: 2,
        spines: 2,
        host_ports: 2,
        link_delay: Time::from_us(2),
        fast_path: true,
    };
    let bench_pin: Pin = (
        0x8f0a_ee13_6e7a_8e17,
        vec![80, 80, 80, 80, 80, 80, 240, 240],
        vec![48, 48, 48, 48, 48, 48, 156, 156],
        16,
    );
    // By `plan_for_case` kind: none, BER on leaf 0's uplink, flaps on
    // spine 0's port towards leaf 0.
    let small_pins: [Pin; 3] = [
        (0x9f33_5930_b5fd_13f0, vec![200; 4], vec![58; 4], 21),
        (
            0xf834_4c3f_7bbb_52b3,
            vec![200, 200, 199, 200],
            vec![58; 4],
            21,
        ),
        (
            0xc974_05d1_eeed_a7e8,
            vec![200, 200, 51, 200],
            vec![48, 48, 58, 58],
            21,
        ),
    ];
    for nshards in [1, 2, 4] {
        let got = bench.run(nshards, bench.default_epoch(), Time::from_us(30), 40);
        assert_eq!(pin(&got), bench_pin, "bench, nshards={nshards}");
        for (kind, want) in small_pins.iter().enumerate() {
            let plan = |node: usize| plan_for_case(kind, 7, &small, node);
            let got =
                small.run_with_faults(nshards, small.default_epoch(), Time::from_us(40), 100, plan);
            assert_eq!(&pin(&got), want, "fault kind {kind}, nshards={nshards}");
            assert_eq!(got.stats.crossed, got.stats.delivered);
        }
    }
}

/// A faulted run must actually lose frames (the property above would be
/// vacuous if the fault dimension never bit) — and still replay
/// bit-identically in parallel.
#[test]
fn faulted_run_loses_frames_and_stays_deterministic() {
    let ls = LeafSpine {
        leaves: 2,
        spines: 2,
        host_ports: 2,
        link_delay: Time::from_us(2),
        fast_path: true,
    };
    let epoch = ls.default_epoch();
    let horizon = Time::from_us(60);
    let frames = 8;
    // Leaf 0's uplink to spine 0 flaps right through the injection burst.
    let plan = |node: usize| {
        if node == 0 {
            FaultPlan::new(7).at(
                Time::ZERO,
                FaultKind::LinkDown {
                    port: ls.host_ports as u8,
                    duration: Time::from_us(10),
                },
            )
        } else {
            FaultPlan::none()
        }
    };
    let reference = ls.run_with_faults(1, epoch, horizon, frames, plan);
    let clean = ls.run(1, epoch, horizon, frames);
    assert_eq!(total_delivered(&clean), (ls.nhosts() * frames) as u64);
    assert!(
        total_delivered(&reference) < total_delivered(&clean),
        "the down window must swallow traffic"
    );
    assert!(
        !reference.results[0].faults.is_empty(),
        "the applied-fault trace is part of the harvest"
    );
    for nshards in [2, 4] {
        let got = ls.run_with_faults(nshards, epoch, horizon, frames, plan);
        assert_eq!(got.results, reference.results, "nshards={nshards}");
    }
}

/// Satellite: `kernel_stats()` under multi-chassis runs. Each chassis'
/// `kernel.*` counters are readable over its own MMIO stat block, stay
/// monotonic as the node's simulator advances (including *during* the
/// harvest, which itself runs the simulator to serve MMIO reads), and
/// the runner's roll-up equals the per-node sum.
#[test]
fn kernel_stats_are_mmio_monotonic_and_sum_across_shards() {
    let ls = LeafSpine {
        leaves: 2,
        spines: 2,
        host_ports: 2,
        link_delay: Time::from_us(2),
        fast_path: true,
    };
    let topo = ls.topology();
    let config = FabricConfig::new(2, ls.default_epoch());
    let report = run_fabric(
        &topo,
        &config,
        Time::from_us(40),
        |node| ls.build_node(node, 3),
        |_, sw: &mut ReferenceSwitch| {
            let before = dump_stats(&mut sw.chassis);
            sw.chassis.run_for(Time::from_us(5));
            let after = dump_stats(&mut sw.chassis);
            let sampled = sw.chassis.sim.kernel_stats();
            (before, after, sampled)
        },
    );

    let mut harvested_steps = 0u64;
    for (node, (before, after, sampled)) in report.results.iter().enumerate() {
        for key in ["kernel.steps", "kernel.skips"] {
            let (b, a) = (before[key], after[key]);
            assert!(b > 0, "node {node}: {key} counted work before harvest");
            assert!(
                a >= b,
                "node {node}: {key} must be monotonic over MMIO ({b} -> {a})"
            );
        }
        // The in-process sample postdates the second MMIO dump, whose
        // reads themselves step the simulator.
        assert!(
            sampled.steps >= after["kernel.steps"],
            "node {node}: MMIO view may not run ahead of the live counter"
        );
        harvested_steps += sampled.steps;
    }
    // The runner samples each node after its harvest returns, so the
    // roll-up dominates the harvest-time sum and equals its own
    // per-node breakdown exactly.
    let per_node: u64 = report.nodes.iter().map(|n| n.kernel.steps).sum();
    assert_eq!(report.stats.kernel.steps, per_node);
    assert!(report.stats.kernel.steps >= harvested_steps);
    let per_node_skips: u64 = report.nodes.iter().map(|n| n.kernel.skips).sum();
    assert_eq!(report.stats.kernel.skips, per_node_skips);
    // Both shards contributed.
    for shard in 0..config.nshards {
        let steps: u64 = report
            .nodes
            .iter()
            .filter(|n| n.shard == shard)
            .map(|n| n.kernel.steps)
            .sum();
        assert!(steps > 0, "shard {shard} ran chassis work");
    }
}
