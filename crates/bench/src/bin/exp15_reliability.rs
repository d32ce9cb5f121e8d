//! E15 — Reliable host I/O: exactly-once delivery under a DMA stall ×
//! drop × wedge sweep, watchdog time-to-recovery against its deadline
//! knob, seeded replay, and the sequenced/retry channel (`netfpga-host`
//! reliable plane) attached and idle leaving the device untouched.
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
//! `BENCH_reliability.json`.

use netfpga_bench::kernel::{saturated, saturated_reliable, KernelConfig};
use netfpga_bench::reliability::{reliability_nic, ReliabilityPoint};
use netfpga_bench::Table;

/// Frames per direction of the inert-plan pair.
const INERT_FRAMES: u32 = 2000;

fn main() {
    let grid: &[(u64, u64, bool)] = &[
        (0, 0, false),
        (20, 0, false),
        (40, 0, false),
        (0, 15, false),
        (0, 30, false),
        (40, 30, false),
        (0, 0, true),
        (20, 15, true),
        (40, 30, true),
    ];
    let frames = 150;

    // Inert plan: with the reliable layer attached and nothing offered
    // through it, the saturated exp10 workload delivers the same frames
    // over the same edges as the unattached switch.
    let base = saturated(KernelConfig::Fast, INERT_FRAMES);
    let attached = saturated_reliable(INERT_FRAMES);
    assert_eq!(
        base.frames,
        2 * u64::from(INERT_FRAMES),
        "baseline must deliver everything"
    );
    assert_eq!(
        (attached.frames, attached.edges),
        (base.frames, base.edges),
        "an idle reliable layer must not change the run"
    );

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
    println!(
        "ok: {} points exactly-once ({retried} faulted), TTR {b0} -> {b1} -> {b2} ns \
         across deadlines {d0}/{d1}/{d2} cycles, replay identical, \
         idle layer invisible over {} edges",
        grid.len(),
        base.edges,
    );
}
