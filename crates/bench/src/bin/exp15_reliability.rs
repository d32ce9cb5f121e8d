//! E15 — Reliable host I/O: exactly-once delivery under a DMA stall ×
//! drop × wedge sweep, watchdog time-to-recovery against its deadline
//! knob, seeded replay, and the inert-plan overhead floor of the
//! sequenced/retry channel (`netfpga-host` reliable plane).
//!
//! The fault schedule stalls, drops and wedges the DMA engine and never
//! restores anything: timeout retry with exponential backoff re-posts
//! lost descriptors, the engine's sequence dedup filter swallows the
//! extra copies, and the hardware watchdog's quiesce–drain–soft-reset
//! is the only thing that clears a wedge. Every sweep point is judged
//! against exactly-once: distinct frames on the wire equals sequences
//! accepted, zero duplicates, zero abandons.
//!
//! Emits the standard table + `@json` rows and writes
//! `BENCH_reliability.json`. Pass `--quick` for the CI-sized sweep.

use netfpga_bench::reliability::{overhead_pair, reliability_nic, ReliabilityPoint};
use netfpga_bench::Table;
use netfpga_core::sim::PARANOID;

/// Attached-over-unattached throughput floor of the reliable layer.
const OVERHEAD_FLOOR: f64 = 0.95;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let grid: &[(u64, u64, bool)] = if quick {
        &[(0, 0, false), (40, 30, false), (0, 0, true), (40, 30, true)]
    } else {
        &[
            (0, 0, false),
            (20, 0, false),
            (40, 0, false),
            (0, 15, false),
            (0, 30, false),
            (40, 30, false),
            (0, 0, true),
            (20, 15, true),
            (40, 30, true),
        ]
    };
    let frames = if quick { 80 } else { 150 };

    // Overhead floor: with an inert plan and the reliable layer attached,
    // the saturated exp10 workload keeps at least 95 % of the unattached
    // baseline's wall-clock throughput. Measured first — after the sweep
    // the probe inherits the allocator and pool state the sweep leaves —
    // and not at all on a paranoid build, which times the contract check.
    let overhead = (!PARANOID).then(|| {
        let (base_fps, rel_fps) = overhead_pair(OVERHEAD_FLOOR);
        let ratio = rel_fps / base_fps;
        assert!(
            ratio >= OVERHEAD_FLOOR,
            "reliable layer too slow on an inert plan: {rel_fps:.0} vs {base_fps:.0} frames/s \
             ({ratio:.3}x, floor {OVERHEAD_FLOOR}x)"
        );
        ratio
    });

    let mut t = Table::new(
        "E15: reliable host I/O (stall x drop x wedge)",
        &[
            "stall_us",
            "drop_us",
            "wedge",
            "accepted",
            "delivered",
            "wire_dupes",
            "retries",
            "dup_discards",
            "tx_shed",
            "abandoned",
            "fault_tx_dropped",
            "bites",
            "pre_wedge_bites",
            "bite_ns",
        ],
    );

    for &(stall_us, drop_us, wedge) in grid {
        let point = ReliabilityPoint {
            stall_us,
            drop_us,
            wedge,
            watchdog_deadline_cycles: if wedge { 1000 } else { 20_000 },
            frames,
            ..ReliabilityPoint::default_point()
        };
        let r = reliability_nic(point);
        t.row(&[
            stall_us.to_string(),
            drop_us.to_string(),
            wedge.to_string(),
            r.accepted.to_string(),
            r.delivered.to_string(),
            r.wire_duplicates.to_string(),
            r.retries.to_string(),
            r.dup_discards.to_string(),
            r.tx_shed.to_string(),
            r.abandoned.to_string(),
            r.fault_tx_dropped.to_string(),
            r.bites.to_string(),
            r.pre_wedge_bites.to_string(),
            r.bite_latency_ns
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
        ]);

        // (a) Exactly-once at every point: no duplicates, no abandons,
        // every accepted frame delivered and acked.
        assert!(
            r.exactly_once(),
            "exactly-once violated at stall={stall_us} drop={drop_us} wedge={wedge}: {r:?}"
        );
        if drop_us > 0 {
            assert!(r.retries > 0, "drop windows must force retries");
        }
        if wedge {
            assert!(
                r.bites > r.pre_wedge_bites,
                "a wedge only yields to the watchdog: {r:?}"
            );
            // The wedge's bite cannot beat the deadline: the no-progress
            // count starts at the first descriptor stuck behind the wedge.
            let latency = r.bite_latency_ns.expect("wedge point must bite");
            assert!(
                latency >= point.watchdog_deadline_cycles * 5,
                "bite {latency} ns after the wedge is inside the deadline: {r:?}"
            );
        } else {
            assert_eq!(r.bites, 0, "no bite without a wedge (deadline is generous)");
        }
    }

    // (b) Watchdog time-to-recovery moves cycle-for-cycle with the
    // deadline knob: identical schedules, only the deadline differs, so
    // the bite-latency delta is exactly the knob delta (5 ns/cycle).
    let bite_at = |deadline: u64| -> u64 {
        let r = reliability_nic(ReliabilityPoint {
            wedge: true,
            watchdog_deadline_cycles: deadline,
            frames,
            ..ReliabilityPoint::default_point()
        });
        assert!(
            r.exactly_once(),
            "deadline sweep point must stay exactly-once: {r:?}"
        );
        r.bite_latency_ns.expect("wedge point must bite")
    };
    let (d0, d1, d2) = (1000, 2000, 4000);
    let (b0, b1, b2) = (bite_at(d0), bite_at(d1), bite_at(d2));
    assert_eq!(b1 - b0, (d1 - d0) * 5, "TTR not cycle-accurate: {b0} {b1}");
    assert_eq!(b2 - b1, (d2 - d1) * 5, "TTR not cycle-accurate: {b1} {b2}");

    // (c) Determinism: a faulted sweep point replays bit-identically
    // from its seed, fault trace included.
    let point = ReliabilityPoint {
        stall_us: 40,
        drop_us: 30,
        wedge: true,
        watchdog_deadline_cycles: 1000,
        frames,
        ..ReliabilityPoint::default_point()
    };
    let a = reliability_nic(point);
    let b = reliability_nic(point);
    assert_eq!(a, b, "same seed must replay identically");

    t.print();
    t.write_json("BENCH_reliability.json")
        .expect("write BENCH_reliability.json");

    let retried: u64 = grid
        .iter()
        .map(|&(s, d, w)| u64::from(s > 0 || d > 0 || w))
        .sum();
    let overhead = overhead.map_or_else(
        || "skipped (paranoid build)".to_string(),
        |ratio| format!("{ratio:.3}x (floor {OVERHEAD_FLOOR}x)"),
    );
    println!(
        "ok: {} points exactly-once ({retried} faulted), TTR {b0} -> {b1} -> {b2} ns \
         across deadlines {d0}/{d1}/{d2} cycles, replay identical, overhead {overhead}",
        grid.len(),
    );
}
