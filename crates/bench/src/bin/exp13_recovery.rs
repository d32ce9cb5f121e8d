//! E13 — Autonomic recovery: time-to-recovery, degraded-mode loss and
//! ECC scrub latency of the reference switch under a retrain ×
//! hold-down × scrub-rate sweep, with **no restore events anywhere in
//! the schedule** (`netfpga-faults` recovery plane).
//!
//! Link flaps and a lane loss heal purely through the per-port PCS
//! retrain state machine and the re-bond policy; memory upsets heal
//! through the background ECC scrubber. The sweep shows the analytic
//! structure: time-to-recovery moves cycle-for-cycle with the policy
//! knobs, and halving the scrub rate doubles the sweep period — the
//! correction-latency CDF stretches and six-µs-spaced flip pairs start
//! landing as detected-not-correctable double upsets.
//!
//! Emits the standard table + `@json` rows and writes
//! `BENCH_recovery.json`.

use netfpga_bench::recovery::{recovery_switch, RecoveryPoint, RecoveryRunResult};
use netfpga_bench::Table;

fn main() {
    let pcs: &[(u64, u64)] = &[(400, 100), (400, 400), (2000, 100), (2000, 400)];
    let scrub_rates: &[u32] = &[4, 2];
    let flaps = 6;
    let frames = 150;

    let mut t = Table::new(
        "E13: autonomic recovery (retrain x hold-down x scrub rate)",
        &[
            "retrain_cycles",
            "holddown_cycles",
            "scrub_wpc",
            "ttr_p50_ns",
            "ttr_max_ns",
            "sent",
            "delivered",
            "degraded_loss",
            "rebonds",
            "scrub_p50_ns",
            "scrub_p99_ns",
            "scrub_max_ns",
            "upsets",
            "corrected",
            "double_upsets",
            "recovery_pct",
        ],
    );

    let mut results = Vec::new();
    for &(retrain, holddown) in pcs {
        for &wpc in scrub_rates {
            let point = RecoveryPoint {
                retrain_cycles: retrain,
                holddown_cycles: holddown,
                scrub_words_per_cycle: wpc,
                flaps,
                frames,
                ..RecoveryPoint::default_point()
            };
            let r = recovery_switch(point);
            let p = |v: &[u64], q: f64| RecoveryRunResult::percentile(v, q);
            t.row(&[
                retrain.to_string(),
                holddown.to_string(),
                wpc.to_string(),
                p(&r.ttr_ns, 50.0).to_string(),
                r.ttr_ns.last().copied().unwrap_or(0).to_string(),
                r.sent.to_string(),
                r.delivered.to_string(),
                r.degraded_loss.to_string(),
                r.rebonds.to_string(),
                p(&r.scrub_latencies_ns, 50.0).to_string(),
                p(&r.scrub_latencies_ns, 99.0).to_string(),
                r.scrub_latencies_ns
                    .last()
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                r.upsets.to_string(),
                r.corrected.to_string(),
                r.double_upsets.to_string(),
                format!("{:.1}", r.recovery_pct()),
            ]);

            // Acceptance: forwarding recovers with no restore events, and
            // degraded-mode loss is fully accounted.
            assert!(
                r.recovery_pct() >= 99.0,
                "no recovery at retrain={retrain} holddown={holddown}: {:.1}%",
                r.recovery_pct()
            );
            assert_eq!(
                r.sent,
                r.delivered + r.degraded_loss,
                "unaccounted degraded loss"
            );
            assert_eq!(r.rebonds, 1, "lane loss must heal by re-bonding");
            assert_eq!(
                r.ttr_ns.len() as u64,
                flaps as u64 + 1,
                "one TTR sample per outage"
            );
            results.push(((retrain, holddown, wpc), r));
        }
    }

    let find = |key: (u64, u64, u32)| -> &RecoveryRunResult {
        &results
            .iter()
            .find(|(k, _)| *k == key)
            .expect("sweep point")
            .1
    };

    // TTR moves cycle-for-cycle with the policy: the flap TTR gap between
    // the slowest and fastest PCS settings is exactly the knob delta.
    let fast = find((400, 100, 4));
    let slow = find((pcs.last().unwrap().0, pcs.last().unwrap().1, 4));
    let knob_delta_ns = ((2000 - 400) + (400 - 100)) * 5;
    let ttr_delta = slow.ttr_ns.last().unwrap() - fast.ttr_ns.last().unwrap();
    assert!(
        ttr_delta.abs_diff(knob_delta_ns) <= 10,
        "TTR not cycle-accurate with the policy: delta {ttr_delta} vs {knob_delta_ns}"
    );

    // Halving the scrub rate doubles the sweep period: the correction
    // latency CDF stretches ~2x and the six-µs flip pairs — always
    // corrected in time at 4 words/cycle — start landing as double
    // upsets (detected, not correctable).
    let full = find((400, 100, 4));
    let half = find((400, 100, 2));
    let mean_full = RecoveryRunResult::mean(&full.scrub_latencies_ns);
    let mean_half = RecoveryRunResult::mean(&half.scrub_latencies_ns);
    assert!(
        mean_half > 1.4 * mean_full,
        "halved scrub rate must stretch the latency CDF: {mean_half:.0} vs {mean_full:.0} ns"
    );
    assert_eq!(
        full.double_upsets, 0,
        "4 w/c period (5.12 us) beats the 6 us pair spacing"
    );
    assert!(
        half.double_upsets > 0,
        "2 w/c period (10.24 us) must leave pairs uncorrected"
    );
    assert_eq!(
        half.corrected + 2 * half.double_upsets,
        half.upsets,
        "every upset is corrected or part of a detected double"
    );

    // Determinism: a sweep point replays bit-identically from its seed.
    let point = RecoveryPoint {
        flaps,
        frames,
        scrub_words_per_cycle: 2,
        ..RecoveryPoint::default_point()
    };
    let a = recovery_switch(point);
    let b = recovery_switch(point);
    assert_eq!(a, b, "same seed must replay identically");

    t.print();
    t.write_json("BENCH_recovery.json")
        .expect("write BENCH_recovery.json");

    println!(
        "ok: TTR delta {ttr_delta} ns (knobs {knob_delta_ns}), scrub mean {:.0} -> {:.0} ns, \
         doubles {} -> {} at halved rate, all points recovered (floor 99%)",
        mean_full, mean_half, full.double_upsets, half.double_upsets
    );
}
