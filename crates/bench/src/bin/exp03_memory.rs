//! E3 — The memory subsystem trade-off (paper §2: "These memory devices
//! can be used for different purposes: from flow tables and off-chip
//! packet buffering to serving as RAM for soft-core processor designs").
//!
//! Quantifies why the platform pairs QDRII+ SRAM with DDR3 DRAM:
//!
//! 1. idle random-access latency (cycles) per technology;
//! 2. sustained throughput under sequential vs random access patterns —
//!    SRAM is pattern-insensitive, DRAM collapses under row misses;
//! 3. flow-table lookup rate with the table in SRAM vs DRAM;
//! 4. the DRAM row-hit/row-miss/conflict breakdown behind (2).

use netfpga_bench::report::{write_json, Table};
use netfpga_core::rng::SimRng;
use netfpga_mem::{Dram, DramConfig, DramRequest, Sram, SramConfig};

/// Run `n` reads against SRAM with the given address generator; returns
/// cycles taken.
fn sram_run(n: u64, mut addr: impl FnMut(u64) -> usize) -> u64 {
    let mut s: Sram<u64> = Sram::new(SramConfig {
        entries: 1 << 16,
        read_latency: 5,
    });
    let mut issued = 0u64;
    let mut collected = 0u64;
    let mut cycles = 0u64;
    while collected < n {
        if issued < n && s.issue_read(issued, addr(issued)) {
            issued += 1;
        }
        s.tick();
        cycles += 1;
        while s.collect_read().is_some() {
            collected += 1;
        }
    }
    cycles
}

/// Run `n` line reads against DRAM; returns (cycles, stats).
fn dram_run(n: u64, mut addr: impl FnMut(u64) -> u64) -> (u64, netfpga_mem::DramStats) {
    let mut d = Dram::new(DramConfig::default());
    let mut issued = 0u64;
    let mut collected = 0u64;
    let mut cycles = 0u64;
    while collected < n {
        while issued < n
            && d.submit(DramRequest {
                tag: issued,
                addr: addr(issued),
                write: None,
            })
        {
            issued += 1;
        }
        d.tick();
        cycles += 1;
        while d.collect().is_some() {
            collected += 1;
        }
    }
    (cycles, d.stats())
}

fn main() {
    println!("E3: SRAM vs DRAM — latency, pattern sensitivity, lookup rate (paper §2)\n");
    let n = 4096u64;

    // 1. Idle latency.
    let mut tables = Vec::new();
    let mut t = Table::new(
        "idle random-access latency",
        &["memory", "latency_cycles", "clock_mhz", "latency_ns"],
    );
    {
        // Single SRAM read, idle device.
        let mut s: Sram<u64> = Sram::new(SramConfig::default());
        s.issue_read(0, 1234);
        let mut cyc = 0;
        while s.collect_read().is_none() {
            s.tick();
            cyc += 1;
        }
        t.row(&[
            "QDRII+ SRAM".into(),
            cyc.to_string(),
            "500".into(),
            format!("{:.0}", cyc as f64 * 2.0),
        ]);
    }
    {
        let mut d = Dram::new(DramConfig {
            t_refi: 0,
            ..DramConfig::default()
        });
        d.submit(DramRequest {
            tag: 0,
            addr: 0x10000,
            write: None,
        });
        let mut cyc = 0;
        while d.collect().is_none() {
            d.tick();
            cyc += 1;
        }
        t.row(&[
            "DDR3 DRAM (row miss)".into(),
            cyc.to_string(),
            "933".into(),
            format!("{:.0}", cyc as f64 / 0.933),
        ]);
        // Second access, same row: hit latency.
        d.submit(DramRequest {
            tag: 1,
            addr: 0x10040,
            write: None,
        });
        let mut cyc = 0;
        while d.collect().is_none() {
            d.tick();
            cyc += 1;
        }
        t.row(&[
            "DDR3 DRAM (row hit)".into(),
            cyc.to_string(),
            "933".into(),
            format!("{:.0}", cyc as f64 / 0.933),
        ]);
    }
    t.print();
    tables.push(t);

    // 2. Pattern sensitivity: requests per cycle under sequential/random.
    let mut t = Table::new(
        "sustained access rate (higher is better)",
        &[
            "memory",
            "pattern",
            "accesses",
            "cycles",
            "accesses_per_100cyc",
        ],
    );
    let seq_sram = sram_run(n, |i| (i as usize) & 0xffff);
    t.row(&[
        "QDRII+ SRAM".into(),
        "sequential".into(),
        n.to_string(),
        seq_sram.to_string(),
        format!("{:.1}", n as f64 / seq_sram as f64 * 100.0),
    ]);
    let mut rng = SimRng::new(7);
    let mut addrs: Vec<usize> = (0..n as usize)
        .map(|_| rng.below(1 << 16) as usize)
        .collect();
    let rnd_sram = sram_run(n, |i| addrs[i as usize]);
    t.row(&[
        "QDRII+ SRAM".into(),
        "random".into(),
        n.to_string(),
        rnd_sram.to_string(),
        format!("{:.1}", n as f64 / rnd_sram as f64 * 100.0),
    ]);

    let (seq_dram, seq_stats) = dram_run(n, |i| i * 64);
    t.row(&[
        "DDR3 DRAM".into(),
        "sequential".into(),
        n.to_string(),
        seq_dram.to_string(),
        format!("{:.1}", n as f64 / seq_dram as f64 * 100.0),
    ]);
    let mut rng = SimRng::new(9);
    let rand_addrs: Vec<u64> = (0..n).map(|_| rng.below(1 << 28) & !63).collect();
    addrs.clear();
    let (rnd_dram, rnd_stats) = dram_run(n, |i| rand_addrs[i as usize]);
    t.row(&[
        "DDR3 DRAM".into(),
        "random".into(),
        n.to_string(),
        rnd_dram.to_string(),
        format!("{:.1}", n as f64 / rnd_dram as f64 * 100.0),
    ]);
    t.print();
    tables.push(t);

    let mut t = Table::new(
        "DRAM row behaviour",
        &[
            "pattern",
            "row_hits",
            "row_misses",
            "row_conflicts",
            "refreshes",
        ],
    );
    for (name, s) in [("sequential", seq_stats), ("random", rnd_stats)] {
        t.row(&[
            name.into(),
            s.row_hits.to_string(),
            s.row_misses.to_string(),
            s.row_conflicts.to_string(),
            s.refreshes.to_string(),
        ]);
    }
    t.print();
    tables.push(t);

    // 3. Flow-table lookup rate: a lookup is one random read of the table
    // structure; rate = reads/sec at the device clock.
    let mut t = Table::new(
        "flow-table lookup rate (one random read per lookup)",
        &["backing", "lookups_per_sec_millions"],
    );
    let sram_rate = n as f64 / rnd_sram as f64 * 500e6 / 1e6;
    let dram_rate = n as f64 / rnd_dram as f64 * 933e6 / 1e6;
    t.row(&["QDRII+ SRAM @500MHz".into(), format!("{sram_rate:.1}")]);
    t.row(&["DDR3 @933MHz".into(), format!("{dram_rate:.1}")]);
    t.print();
    tables.push(t);
    write_json("BENCH_memory.json", &tables).expect("write BENCH_memory.json");

    println!(
        "shape check: SRAM random == SRAM sequential (pattern-insensitive);\n\
         DRAM sequential ~{}x faster than DRAM random; SRAM sustains ~{:.0}x the\n\
         random-lookup rate of DRAM — hence flow tables in SRAM, packet buffers in DRAM.",
        (rnd_dram as f64 / seq_dram as f64).round(),
        sram_rate / dram_rate,
    );
    assert_eq!(seq_sram, rnd_sram, "SRAM must be pattern-insensitive");
    assert!(
        rnd_dram > seq_dram * 3,
        "DRAM must collapse under random access"
    );
    assert!(sram_rate > dram_rate * 2.0);
}
