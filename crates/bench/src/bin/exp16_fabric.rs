//! E16 — Parallel fabric scaling: a leaf–spine fabric of reference
//! switches sharded across cores by the conservative-lookahead PDES
//! runner (`netfpga-fabric`), measured at 1/2/4/8 shards.
//!
//! Workload: the [`LeafSpine::bench`] fabric — 6 leaves × 2 spines ×
//! 2 host ports (12 hosts, 8 chassis) with 2 µs links, learning tables
//! pre-taught (all-unicast, storm-free), every host streaming frames to
//! a cross-leaf peer at line rate for the whole horizon.
//!
//! Two bars:
//!
//! * **Equivalence (unconditional)** — every shard count's trace
//!   signature must equal the `nshards = 1` sequentialized reference,
//!   every injected frame must arrive, and no node may ever flood.
//! * **Scaling (≥ 4 host cores only)** — 4 shards must cut wall-clock
//!   by at least 1.7× over 1 shard. On smaller hosts the speedup is
//!   physically unattainable, so it is recorded (with the honest
//!   `cores` column) but not asserted; the JSON validator applies the
//!   same gate.
//!
//! `work_ms` lists each shard's wall time inside its nodes (the largest
//! is the shard the others waited for) and `stall_share` is the part of
//! shards × wall spent inside the barrier; `merge_hw` is one value in
//! every row because frames are deposited at the barrier of the epoch
//! that sent them, whatever the layout. All three are observability.
//!
//! Emits the standard table + `@json` rows and writes
//! `BENCH_fabric.json`. Pass `--quick` for the CI smoke: smaller
//! workload, same equivalence bars.

use netfpga_bench::report::best_of;
use netfpga_bench::Table;
use netfpga_core::time::Time;
use netfpga_fabric::FabricReport;
use netfpga_projects::fabric::{total_delivered, trace_signature, LeafSpine, NodeTrace};

/// Shard counts swept (8 nodes divide evenly into each).
const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Wall-clock speedup floor at 4 shards, asserted when the host has at
/// least 4 cores.
const SPEEDUP_FLOOR: f64 = 1.7;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ls = LeafSpine::bench();
    let epoch = ls.default_epoch();
    // Injection runs ~67 ns/frame/host at 10G; keep the horizon just
    // past the injection tail so the fabric stays busy (idle epochs are
    // pure barrier overhead and would understate scaling).
    let (frames_per_host, horizon) = if quick {
        (300, Time::from_us(45))
    } else {
        (3000, Time::from_us(240))
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let min_rounds = if quick { 1 } else { 2 };

    let mut run1 = || ls.run(SHARDS[0], epoch, horizon, frames_per_host);
    let mut run2 = || ls.run(SHARDS[1], epoch, horizon, frames_per_host);
    let mut run4 = || ls.run(SHARDS[2], epoch, horizon, frames_per_host);
    let mut run8 = || ls.run(SHARDS[3], epoch, horizon, frames_per_host);
    let bests = best_of(
        &mut [&mut run1, &mut run2, &mut run4, &mut run8],
        |x: &FabricReport<NodeTrace>, best| x.stats.wall < best.stats.wall,
        |round, bests| {
            let sp4 = bests[0].stats.wall.as_secs_f64() / bests[2].stats.wall.as_secs_f64();
            round >= min_rounds && (cores < 4 || sp4 >= SPEEDUP_FLOOR + 0.1)
        },
        6,
    );

    let reference_sig = trace_signature(&bests[0]);
    let expected_frames = (ls.nhosts() * frames_per_host) as u64;
    let wall1 = bests[0].stats.wall.as_secs_f64();

    let mut t = Table::new(
        "E16: parallel fabric scaling (leaf-spine, 6x2 switches, 12 hosts)",
        &[
            "shards",
            "nodes",
            "frames",
            "epochs",
            "crossed",
            "blocked",
            "merge_hw",
            "work_ms",
            "stall_ms",
            "stall_share",
            "wall_ms",
            "frames_per_sec",
            "speedup",
            "sig",
            "matches_seq",
            "cores",
        ],
    );
    let mut sp4 = 0.0;
    for (i, report) in bests.iter().enumerate() {
        let delivered = total_delivered(report);
        let sig = trace_signature(report);
        let wall = report.stats.wall.as_secs_f64();
        let stall: f64 = report
            .stats
            .shard_stalls
            .iter()
            .map(std::time::Duration::as_secs_f64)
            .sum();
        let work: Vec<String> = report
            .stats
            .shard_work
            .iter()
            .map(|w| format!("{:.1}", w.as_secs_f64() * 1e3))
            .collect();
        let speedup = wall1 / wall;
        if SHARDS[i] == 4 {
            sp4 = speedup;
        }
        t.row(&[
            SHARDS[i].to_string(),
            ls.nnodes().to_string(),
            delivered.to_string(),
            report.stats.epochs.to_string(),
            report.stats.crossed.to_string(),
            report.stats.blocked.to_string(),
            report.stats.merge_high_water.to_string(),
            work.join("/"),
            format!("{:.1}", stall * 1e3),
            format!("{:.2}", stall / (SHARDS[i] as f64 * wall)),
            format!("{:.1}", wall * 1e3),
            format!("{:.0}", delivered as f64 / wall),
            format!("{speedup:.2}"),
            format!("{sig:#018x}"),
            u32::from(sig == reference_sig).to_string(),
            cores.to_string(),
        ]);

        // Equivalence bars: unconditional, every shard count.
        assert_eq!(
            sig, reference_sig,
            "shards={}: trace diverged from the sequential reference",
            SHARDS[i]
        );
        assert_eq!(
            delivered, expected_frames,
            "shards={}: not every unicast frame arrived",
            SHARDS[i]
        );
        for trace in &report.results {
            assert_eq!(
                trace.lookup.floods, 0,
                "shards={}: node {} flooded (pre-taught fabric must stay unicast)",
                SHARDS[i], trace.node
            );
        }
        assert_eq!(
            report.stats.blocked, 0,
            "shards={}: an outbox has no capacity to block on",
            SHARDS[i]
        );
        assert_eq!(
            report.stats.merge_high_water, bests[0].stats.merge_high_water,
            "shards={}: deposit instants depend on the shard layout",
            SHARDS[i]
        );
    }

    t.print();
    t.write_json("BENCH_fabric.json")
        .expect("write BENCH_fabric.json");

    // Scaling bar: only meaningful when the host can actually run 4
    // shards in parallel.
    if cores >= 4 {
        assert!(
            sp4 >= SPEEDUP_FLOOR,
            "4-shard speedup {sp4:.2}x < {SPEEDUP_FLOOR}x on a {cores}-core host"
        );
        println!(
            "ok: 4-shard speedup {sp4:.2}x (floor {SPEEDUP_FLOOR}x, {cores} cores), \
             all {} shard counts bit-identical to sequential",
            SHARDS.len()
        );
    } else {
        println!(
            "ok: all {} shard counts bit-identical to sequential \
             (speedup {sp4:.2}x recorded, not asserted: {cores} core(s) < 4)",
            SHARDS.len()
        );
    }
}
