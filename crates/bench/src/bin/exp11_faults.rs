//! E11 (extension) — Degraded-mode operation: goodput and drop curves of
//! the reference switch under a BER × link-flap sweep driven by the
//! deterministic fault plane (`netfpga-faults`).
//!
//! Unicast traffic crosses a learned 4-port switch while the ingress port
//! takes seeded bit errors (dropped by the RX MAC's CRC-32 FCS check) and
//! the egress link flaps (dropped and counted by the fault plane). After
//! the last flap a probe batch measures *recovered* throughput — graceful
//! degradation, not a hang.
//!
//! Emits the standard table + `@json` rows and writes
//! `BENCH_faults.json`.

use netfpga_bench::faults::{degraded_switch, FaultPoint};
use netfpga_bench::Table;
use netfpga_core::time::Time;

fn main() {
    let frames = 600;
    let bers: &[f64] = &[0.0, 1e-6, 1e-5, 1e-4];
    let flap_periods: &[Option<u64>] = &[None, Some(400), Some(100)];

    let mut t = Table::new(
        "E11: reference switch under faults (BER x link flap)",
        &[
            "ber",
            "flap_period_us",
            "sent",
            "delivered",
            "goodput_pct",
            "bad_fcs",
            "link_drops",
            "ber_flips",
            "recovery_pct",
        ],
    );

    let mut clean_goodput = None;
    let mut worst_ber_goodput = None;
    for &ber in bers {
        for &period in flap_periods {
            let point = FaultPoint {
                ber,
                flap_period: period.map(Time::from_us),
                ..FaultPoint::clean(frames)
            };
            let r = degraded_switch(point);
            t.row(&[
                format!("{ber:.0e}"),
                period.map_or("-".to_string(), |p| p.to_string()),
                r.sent.to_string(),
                r.delivered.to_string(),
                format!("{:.1}", r.goodput_pct()),
                r.bad_fcs.to_string(),
                r.link_drops.to_string(),
                r.ber_flips.to_string(),
                format!("{:.1}", r.recovery_pct()),
            ]);
            if ber == 0.0 && period.is_none() {
                clean_goodput = Some(r.goodput_pct());
            }
            if (ber - 1e-4).abs() < f64::EPSILON && period.is_none() {
                worst_ber_goodput = Some(r.goodput_pct());
            }

            // Every point must recover full throughput after the faults —
            // counted drops, no hang.
            assert!(
                r.recovery_pct() >= 99.0,
                "no recovery at ber={ber:e} flap={period:?}: {:.1}%",
                r.recovery_pct()
            );
            // Drop accounting must close: everything offered is either
            // delivered or counted by a drop reason.
            assert!(
                r.delivered + r.bad_fcs + r.link_drops >= r.sent,
                "unaccounted loss at ber={ber:e} flap={period:?}"
            );
        }
    }

    // Determinism: the whole sweep point replays bit-for-bit from its seed.
    let point = FaultPoint {
        ber: 1e-4,
        flap_period: Some(Time::from_us(100)),
        ..FaultPoint::clean(frames)
    };
    let a = degraded_switch(point);
    let b = degraded_switch(point);
    assert_eq!(a, b, "same seed must replay identically");

    t.print();
    t.write_json("BENCH_faults.json")
        .expect("write BENCH_faults.json");

    let clean = clean_goodput.expect("clean point in sweep");
    let worst = worst_ber_goodput.expect("1e-4 point in sweep");
    assert!(clean >= 100.0, "clean run lost frames: {clean:.1}%");
    assert!(
        worst < clean,
        "1e-4 BER must cost goodput ({worst:.1}% vs {clean:.1}%)"
    );
    println!("ok: clean {clean:.1}%, ber=1e-4 {worst:.1}%, all points recovered (floor 99%)");
}
