//! E16 — Parallel fabric scaling: a leaf–spine fabric of reference
//! switches sharded across cores by the conservative-lookahead PDES
//! runner (`netfpga-fabric`), run at 1/2/4/8 shards.
//!
//! Workload: the [`LeafSpine::bench`] fabric — 6 leaves × 2 spines ×
//! 2 host ports (12 hosts, 8 chassis) with 2 µs links, learning tables
//! pre-taught (all-unicast, storm-free), every host streaming frames to
//! a cross-leaf peer at line rate for the whole horizon.
//!
//! The bar is equivalence: every shard count's trace signature must
//! equal the `nshards = 1` sequentialized reference, every injected frame
//! must arrive in the same number of epochs, and no node may ever flood.
//! `merge_hw` (the largest per-barrier arrival batch of a node) is one
//! value in every row because frames are deposited at the barrier of the
//! epoch that sent them, whatever the layout.
//!
//! Emits the standard table + `@json` rows and writes
//! `BENCH_fabric.json`: counters and signatures only, so the artifact is
//! a pure function of the commit. A second table — each shard's wall time
//! inside its nodes (the largest is the shard the others waited for), the
//! time spent inside the barrier and its share of shards × wall — goes to
//! stdout for the reader and nowhere else; how the fabric scales in host
//! time is the referee's to measure (`benchmark/`: `fabric_leafspine`).

use netfpga_bench::Table;
use netfpga_core::time::Time;
use netfpga_projects::fabric::{total_delivered, trace_signature, LeafSpine};

/// Shard counts swept (8 nodes divide evenly into each).
const SHARDS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let ls = LeafSpine::bench();
    let epoch = ls.default_epoch();
    // Injection runs ~67 ns/frame/host at 10G; keep the horizon just
    // past the injection tail so the fabric stays busy to the end.
    let frames_per_host = 3000;
    let horizon = Time::from_us(240);
    let reports = SHARDS.map(|n| ls.run(n, epoch, horizon, frames_per_host));

    let reference_sig = trace_signature(&reports[0]);
    let expected_frames = (ls.nhosts() * frames_per_host) as u64;

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
            "sig",
            "matches_seq",
        ],
    );
    let mut host = Table::new(
        "E16 host time, this run only (not recorded)",
        &["shards", "work_ms", "stall_ms", "stall_share", "wall_ms"],
    );
    for (i, report) in reports.iter().enumerate() {
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
        t.row(&[
            SHARDS[i].to_string(),
            ls.nnodes().to_string(),
            delivered.to_string(),
            report.stats.epochs.to_string(),
            report.stats.crossed.to_string(),
            report.stats.blocked.to_string(),
            report.stats.merge_high_water.to_string(),
            format!("{sig:#018x}"),
            u32::from(sig == reference_sig).to_string(),
        ]);
        host.row(&[
            SHARDS[i].to_string(),
            work.join("/"),
            format!("{:.1}", stall * 1e3),
            format!("{:.2}", stall / (SHARDS[i] as f64 * wall)),
            format!("{:.1}", wall * 1e3),
        ]);

        // Equivalence bars, at every shard count.
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
            "shards={}: a mailbox has no capacity to block on",
            SHARDS[i]
        );
        assert_eq!(
            report.stats.merge_high_water, reports[0].stats.merge_high_water,
            "shards={}: deposit instants depend on the shard layout",
            SHARDS[i]
        );
        assert_eq!(
            report.stats.epochs, reports[0].stats.epochs,
            "shards={}: shard counts disagree on epochs",
            SHARDS[i]
        );
    }

    t.print();
    t.write_json("BENCH_fabric.json")
        .expect("write BENCH_fabric.json");

    println!("{}", host.render());
    println!(
        "ok: all {} shard counts bit-identical to sequential",
        SHARDS.len()
    );
}
