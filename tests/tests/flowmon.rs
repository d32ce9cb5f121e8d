//! Flow-monitoring plane property tests: the count-min sketch's one-sided
//! error guarantee, the heavy-hitter table's no-miss invariant, and
//! bit-identical flow accounting across every scheduler mode — checked
//! with proptest over randomized flow mixes.

use netfpga_core::board::BoardSpec;
use netfpga_core::sim::SchedulerMode;
use netfpga_core::time::Time;
use netfpga_flowmon::{CountMinSketch, FiveTuple, FlowmonConfig, HeavyHitters, SketchConfig};
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netfpga_projects::{ChassisConfig, ReferenceSwitch};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

fn tuple(i: u8) -> FiveTuple {
    FiveTuple {
        src_ip: u32::from_be_bytes([10, 0, 0, i]),
        dst_ip: u32::from_be_bytes([10, 0, 1, 1]),
        src_port: 1000 + u16::from(i),
        dst_port: 80,
        proto: 17,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Count-min never underestimates, and with the configured width the
    /// overestimate stays within the analytical bound `⌈εN⌉` where
    /// `ε = e / width`. The bound holds deterministically here because it
    /// caps the worst case: every other flow colliding in every row.
    #[test]
    fn prop_cm_estimate_one_sided_and_bounded(
        counts in proptest::collection::vec(1u64..80, 1..32),
        seed in 0u64..1000,
    ) {
        let cfg = SketchConfig { width: 2048, depth: 4, seed };
        let mut cm = CountMinSketch::new(cfg);
        for (i, &n) in counts.iter().enumerate() {
            cm.record(&tuple(i as u8), n);
        }
        let bound = cm.error_bound();
        for (i, &n) in counts.iter().enumerate() {
            let est = cm.estimate(&tuple(i as u8));
            prop_assert!(est >= n, "estimate {est} under true count {n}");
            prop_assert!(
                est <= n + bound,
                "estimate {est} exceeds true {n} + bound {bound}"
            );
        }
    }

    /// The replace-min heavy-hitter table never misses a large flow: any
    /// flow whose true packet count exceeds the table's final minimum
    /// tracked estimate must be in the table. (With a 2048-wide sketch and
    /// at most 40 flows the estimates are exact, so the invariant is
    /// checked against true counts.)
    #[test]
    fn prop_heavy_hitters_no_miss_above_final_min(
        stream in proptest::collection::vec(0u8..40, 1..400),
        capacity in 2usize..12,
        seed in 0u64..1000,
    ) {
        let mut cm = CountMinSketch::new(SketchConfig { width: 2048, depth: 4, seed });
        let mut hh = HeavyHitters::new(capacity);
        let mut truth: BTreeMap<u8, u64> = BTreeMap::new();
        for &f in &stream {
            let est = cm.record(&tuple(f), 1);
            hh.update(tuple(f), 60, est);
            *truth.entry(f).or_default() += 1;
        }
        let min = hh.min_estimate().unwrap_or(0);
        let tracked: Vec<FiveTuple> = hh.entries().iter().map(|r| r.flow).collect();
        for (&f, &n) in &truth {
            if n > min {
                prop_assert!(
                    tracked.contains(&tuple(f)),
                    "flow {f} with {n} packets missing though min tracked is {min}"
                );
            }
        }
    }

    /// End-to-end flow accounting is bit-identical under every scheduler
    /// mode and with idle-skip on or off: same tracked flows, same packet
    /// and byte totals, same sketch estimates, same top-talker ranking.
    #[test]
    fn prop_flow_accounting_identical_across_schedulers(
        frames in proptest::collection::vec((0usize..4, 0u8..6, 40usize..200), 1..20),
    ) {
        let observe = |mode: SchedulerMode, idle_skip: bool| {
            let mut sw = ReferenceSwitch::build(&ChassisConfig::new(&BoardSpec::sume(), 4), 256, Time::from_ms(100), Some(FlowmonConfig::default()));
            sw.chassis.sim.set_scheduler_mode(mode);
            sw.chassis.sim.set_idle_skip(idle_skip);
            for &(port, flow, len) in &frames {
                let f = PacketBuilder::new()
                    .eth(mac(flow + 1), mac(0xee))
                    .ipv4(
                        Ipv4Address::new(10, 0, 0, flow),
                        Ipv4Address::new(10, 0, 1, 1),
                    )
                    .udp(1000 + u16::from(flow), 80, &vec![flow; len])
                    .build();
                sw.chassis.send(port, f);
            }
            sw.chassis.run_for(Time::from_ms(1));
            for port in 0..4 {
                sw.chassis.recv(port);
            }
            let mon = sw.flowmon.clone().unwrap();
            (
                mon.flows(),
                mon.top_talkers(8),
                mon.counters().packets.get(),
                mon.counters().bytes.get(),
                mon.counters().non_ip.get(),
                mon.evictions(),
            )
        };
        let baseline = observe(SchedulerMode::Scan, false);
        for mode in [SchedulerMode::Scan, SchedulerMode::Auto] {
            for idle_skip in [false, true] {
                if mode == SchedulerMode::Scan && !idle_skip {
                    continue;
                }
                let got = observe(mode, idle_skip);
                prop_assert_eq!(
                    &baseline, &got,
                    "accounting diverged under {:?} idle_skip={}", mode, idle_skip
                );
            }
        }
    }
}
