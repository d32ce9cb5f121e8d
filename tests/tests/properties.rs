//! Cross-crate property tests: system-level invariants under randomized
//! traffic, checked with proptest.

use netfpga_core::board::BoardSpec;
use netfpga_core::time::Time;
use netfpga_datapath::lpm::RouteEntry;
use netfpga_datapath::ParsedHeaders;
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netfpga_projects::{AcceptanceTest, ChassisConfig, ReferenceRouter, ReferenceSwitch};
use proptest::prelude::*;

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The acceptance loopback is lossless and order/content-preserving
    /// for any frame mix within buffering limits.
    #[test]
    fn prop_loopback_lossless(
        lens in proptest::collection::vec(60usize..1514, 1..30),
        port in 0usize..2,
    ) {
        let mut a = AcceptanceTest::new(&BoardSpec::sume(), 2);
        let frames: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                PacketBuilder::new()
                    .eth(mac(i as u8), mac(0xff))
                    .raw(netfpga_packet::EtherType::Unknown(0x9999), &[i as u8; 46])
                    .pad_to(len)
                    .build()
            })
            .collect();
        for f in &frames {
            a.chassis.send(port, f.clone());
        }
        a.chassis.run_for(Time::from_ms(1));
        let got = a.chassis.recv(port);
        prop_assert_eq!(got, frames);
    }

    /// The switch never reflects a frame out of its own ingress port and
    /// never delivers the same frame twice to one port. Each injected
    /// frame carries a unique sequence number so its identity (and ingress
    /// port) is exact.
    #[test]
    fn prop_switch_no_reflection_no_dup(
        traffic in proptest::collection::vec((0u8..4, 1u8..8, 1u8..8), 1..25),
    ) {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 256, Time::from_ms(100));
        let mut ingress_of = Vec::new();
        for (seq, &(in_port, src, dst)) in traffic.iter().enumerate() {
            let f = PacketBuilder::new()
                .eth(mac(src), mac(dst))
                .raw(netfpga_packet::EtherType::Ipv4, &[seq as u8; 46])
                .build();
            sw.chassis.send(in_port as usize, f);
            ingress_of.push(in_port as usize);
            // Let each frame fully traverse so learning is sequential.
            sw.chassis.run_for(Time::from_us(5));
        }
        sw.chassis.run_for(Time::from_us(100));
        for port in 0..4usize {
            let got = sw.chassis.recv(port);
            let mut seen = std::collections::BTreeSet::new();
            for f in &got {
                let seq = usize::from(f[14]); // first payload byte
                prop_assert_ne!(
                    ingress_of[seq], port,
                    "frame {} reflected to its ingress port {}", seq, port
                );
                prop_assert!(seen.insert(seq), "frame {} duplicated on port {}", seq, port);
            }
        }
    }

    /// Every packet the router forwards in hardware has a valid checksum
    /// and TTL exactly one less than the input; no packet is both
    /// forwarded and sent to the CPU.
    #[test]
    fn prop_router_ttl_checksum_invariant(
        ttls in proptest::collection::vec(1u8..64, 1..20),
        lens in proptest::collection::vec(60usize..512, 1..20),
    ) {
        let r = ReferenceRouter::new(&BoardSpec::sume(), 4);
        {
            let mut t = r.tables.borrow_mut();
            t.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
            t.lpm.insert(
                "10.9.0.0/16".parse().unwrap(),
                RouteEntry { next_hop: Ipv4Address::UNSPECIFIED, port: 3 },
            );
            for h in 0..16u8 {
                t.arp.insert(Ipv4Address::new(10, 9, 0, h), mac(0x90 + h));
            }
        }
        let mut r = r;
        let n = ttls.len().min(lens.len());
        let mut expect_fwd = 0u64;
        for i in 0..n {
            let f = PacketBuilder::new()
                .eth(mac(0xa1), mac(0xe0))
                .ipv4(Ipv4Address::new(10, 0, 0, 2), Ipv4Address::new(10, 9, 0, (i % 16) as u8))
                .ttl(ttls[i])
                .udp(1, 2, &[])
                .pad_to(lens[i])
                .build();
            if ttls[i] > 1 {
                expect_fwd += 1;
            }
            r.chassis.send(0, f);
        }
        r.chassis.run_for(Time::from_ms(1));
        let out = r.chassis.recv(3);
        prop_assert_eq!(out.len() as u64, expect_fwd);
        for f in &out {
            let ip4 = ParsedHeaders::parse(f).ipv4.unwrap();
            prop_assert!(ip4.checksum_ok);
            prop_assert!(ip4.ttl >= 1);
        }
        let dma = r.chassis.dma.clone().unwrap();
        let mut cpu = 0u64;
        while dma.recv().is_some() {
            cpu += 1;
        }
        prop_assert_eq!(cpu + expect_fwd, n as u64, "each packet exactly one fate");
    }
}

/// Support for the kernel-equivalence property below: tiny modules and a
/// frequency palette that mixes phase-aligned clocks, odd periods, and a
/// near-coprime slow clock whose edges almost never meet the others'.
mod kernel {
    use netfpga_core::sim::{Module, TickContext};
    use netfpga_core::time::Frequency;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Pick a clock frequency from the palette.
    pub fn freq(i: usize) -> Frequency {
        match i % 6 {
            0 => Frequency::mhz(500),        // 2 ns
            1 => Frequency::mhz(250),        // 4 ns
            2 => Frequency::mhz(200),        // 5 ns
            3 => Frequency::hz(142_857_143), // ~7 ns
            4 => Frequency::hz(90_909_091),  // ~11 ns
            _ => Frequency::hz(999_983),     // ~1.000017 us: wrecks the lcm
        }
    }

    /// Records every edge of its clock domain: (domain id, instant).
    /// Deliberately never quiescent, so traces taken with a probe pin the
    /// exact edge schedule including coincident-edge ordering.
    pub struct EdgeProbe {
        pub id: u8,
        pub trace: Rc<RefCell<Vec<(u8, u64)>>>,
    }

    impl Module for EdgeProbe {
        fn name(&self) -> &str {
            "probe"
        }
        fn tick(&mut self, ctx: &TickContext) {
            self.trace.borrow_mut().push((self.id, ctx.now.as_ps()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The fast-path kernel is an optimization, not a semantics change:
    /// for random clock sets and random source→stage→sink topologies (with
    /// cross-domain streams and random burst flags) under a random schedule
    /// of `run_for`/`run_cycles` calls with mid-run injection, every clock
    /// edge ticks in the order arithmetic gives — domain `i`'s edges at
    /// `k·periodᵢ` up to the final `now`, merged by instant and then by
    /// creation order — and quiescence fast-forward with the activity cache
    /// reproduces the naive scan's captured packets (bytes, metadata and
    /// arrival instants) and final clock state.
    #[test]
    fn prop_kernel_equivalence(
        clock_sel in proptest::collection::vec(0usize..6, 1..4),
        pipes in proptest::collection::vec((0usize..8, 0usize..8, 0u64..6, 0u8..2), 1..4),
        phase1 in proptest::collection::vec((0usize..8, 46usize..220), 0..8),
        phase2 in proptest::collection::vec((0usize..8, 46usize..220), 0..8),
        segments in proptest::collection::vec((0u8..2, 1u64..300), 1..5),
    ) {
        use netfpga_core::packetio::{CapturedPacket, PacketSink, PacketSource};
        use netfpga_core::sim::{SchedulerMode, Simulator};
        use netfpga_core::pktbuf::PktBuf;
        use netfpga_core::stream::{Meta, Stream};
        use netfpga_datapath::stage::StageAction;
        use netfpga_datapath::PacketStage;
        use std::cell::RefCell;
        use std::rc::Rc;

        let run = |clocks: &[usize], mode: SchedulerMode, idle_skip: bool, probe: bool| {
            let mut sim = Simulator::with_scheduler(mode);
            sim.set_idle_skip(idle_skip);
            let clks: Vec<_> = clocks
                .iter()
                .enumerate()
                .map(|(i, &f)| sim.add_clock(&format!("clk{i}"), kernel::freq(f)))
                .collect();
            let trace = Rc::new(RefCell::new(Vec::new()));
            if probe {
                for (i, &c) in clks.iter().enumerate() {
                    sim.add_module(c, kernel::EdgeProbe { id: i as u8, trace: trace.clone() });
                }
            }
            let mut injects = Vec::new();
            let mut caps = Vec::new();
            for &(ca, cb, lat, burst) in &pipes {
                let (in_tx, in_rx) = Stream::new(8, 32);
                let (out_tx, out_rx) = Stream::new(8, 32);
                let (src, q) = PacketSource::new("src", in_tx);
                let stage = PacketStage::new(
                    "stage",
                    in_rx,
                    out_tx,
                    lat,
                    |_p: &mut PktBuf, _m: &mut Meta, _t: Time| StageAction::Forward,
                )
                .with_burst(burst == 1);
                let (sink, cap) = PacketSink::new("sink", out_rx);
                sim.add_module(clks[ca % clks.len()], src);
                sim.add_module(clks[cb % clks.len()], stage);
                sim.add_module(clks[cb % clks.len()], sink);
                injects.push(q);
                caps.push(cap);
            }
            let inject = |batch: &[(usize, usize)]| {
                for (i, &(p, len)) in batch.iter().enumerate() {
                    injects[p % injects.len()]
                        .push(vec![(i as u8).wrapping_mul(31); len], (p % 4) as u8);
                }
            };
            inject(&phase1);
            let mid = segments.len() / 2;
            for (k, &(kind, amt)) in segments.iter().enumerate() {
                if k == mid {
                    inject(&phase2); // wake an idle (possibly fast-forwarded) sim
                }
                if kind == 0 {
                    sim.run_for(Time::from_ps(amt * 3_500));
                } else {
                    sim.run_cycles(clks[(amt as usize) % clks.len()], amt);
                }
            }
            sim.run_for(Time::from_us(3)); // settle: drain every pipeline
            let caps: Vec<Vec<CapturedPacket>> = caps.iter().map(|c| c.drain()).collect();
            let cycles: Vec<u64> = clks.iter().map(|&c| sim.cycles(c)).collect();
            let trace = trace.borrow().clone();
            (trace, caps, sim.now(), cycles)
        };
        let check = |clocks: &[usize]| {
            // Edge order: probes force every edge to tick, so the trace is
            // the full schedule, checked against arithmetic.
            let (trace, _, now, cycles) = run(clocks, SchedulerMode::Auto, true, true);
            let periods: Vec<u64> =
                clocks.iter().map(|&f| kernel::freq(f).period().as_ps()).collect();
            let mut expected: Vec<(u64, u8)> = periods
                .iter()
                .enumerate()
                .flat_map(|(i, &p)| (1..=now.as_ps() / p).map(move |k| (k * p, i as u8)))
                .collect();
            expected.sort_unstable();
            let expected: Vec<(u8, u64)> = expected.into_iter().map(|(t, i)| (i, t)).collect();
            assert_eq!(trace, expected, "clocks {clocks:?}");
            let ticked: Vec<u64> = periods.iter().map(|&p| now.as_ps() / p).collect();
            assert_eq!(cycles, ticked, "clocks {clocks:?}");
            // Quiescence fast-forward equivalence: no probes, so idle
            // stretches really are skipped, and everything observable —
            // packets, arrival times, final now, per-domain cycle counts —
            // must still match the naive scan.
            let naive = run(clocks, SchedulerMode::Scan, false, false);
            assert_eq!(run(clocks, SchedulerMode::Auto, true, false), naive);
        };

        // The drawn clocks, then two fixed pairs: 5 ns beside 4 ns (edges
        // meet every 20 ns) and beside the near-coprime ~1 µs clock.
        check(&clock_sel);
        check(&[2, 1]);
        check(&[2, 5]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Copy-on-write isolation: flood and mirror copies are refcount bumps
    /// of one backing buffer, so corrupting *one* copy in flight (a BER
    /// flip through `WireFrame::corrupt_data`) must never leak into its
    /// siblings — they keep the pristine bytes and the intact FCS, while
    /// the victim's FCS goes stale carrying the pristine CRC.
    #[test]
    fn prop_flood_cow_isolation(
        payload in proptest::collection::vec(any::<u8>(), 60..512),
        fanout in 2usize..6,
        victim_sel in 0usize..6,
        seed in 1u64..1_000,
    ) {
        use netfpga_core::pktbuf::PktBuf;
        use netfpga_core::sim::Simulator;
        use netfpga_core::time::Frequency;
        use netfpga_phy::link::{Link, LinkConfig};
        use netfpga_phy::mac::{Fcs, Wire, WireFrame};

        let victim = victim_sel % fanout;
        let buf = PktBuf::from_vec(payload.clone());
        let fcs = netfpga_packet::fcs::crc32(&buf);

        // "Flood": one buffer, `fanout` wires, each frame a refcount bump.
        let wires: Vec<Wire> = (0..fanout).map(|_| Wire::new()).collect();
        for w in &wires {
            w.push(WireFrame::stamped(buf.clone(), Time::ZERO));
        }

        // Corrupt exactly the victim's copy via an always-corrupting link.
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(200));
        let out = Wire::new();
        let cfg = LinkConfig { corrupt_probability: 1.0, seed, ..LinkConfig::default() };
        sim.add_module(clk, Link::new("l", wires[victim].clone(), out.clone(), cfg));
        sim.run_until(Time::from_us(1));

        let corrupted = out.take_ready(Time::from_ms(1)).expect("forwarded");
        prop_assert_ne!(corrupted.data.bytes(), &payload[..], "victim must differ");
        prop_assert_eq!(corrupted.fcs, Fcs::Stale(fcs), "corruption must stale the FCS");
        prop_assert!(
            !corrupted.data.same_backing(&buf),
            "corruption must have copied, not edited the shared backing"
        );
        // Every sibling — and the original buffer — is bit-identical
        // pristine, still sharing the one backing, FCS still intact.
        prop_assert_eq!(buf.bytes(), &payload[..]);
        for (i, w) in wires.iter().enumerate() {
            if i == victim {
                continue;
            }
            let f = w.take_ready(Time::from_ms(1)).expect("untouched sibling");
            prop_assert_eq!(f.data.bytes(), &payload[..], "sibling {} mutated", i);
            prop_assert_eq!(f.fcs, Fcs::Intact, "sibling {} FCS went stale", i);
            prop_assert!(f.data.same_backing(&buf), "sibling {} was copied", i);
        }
    }

    /// Scheduler invariance under flood + faults: a broadcast (flood)
    /// workload through the reference switch with a seeded BER fault plan
    /// delivers *bit-identical* frames, fault traces and counters under
    /// the `Scan` reference and the fast kernel — every flood copy a
    /// refcount bump of one pooled buffer in both.
    #[test]
    fn prop_flood_replay_identical_across_scan_and_auto(
        frames in proptest::collection::vec((0usize..4, 46usize..220), 1..12),
        ber_exp in 4u32..7,
        seed in 0u64..500,
    ) {
        use netfpga_core::sim::SchedulerMode;
        use netfpga_faults::{FaultKind, FaultPlan};

        let run = |mode: SchedulerMode| {
            let plan = FaultPlan::new(seed).at(
                Time::ZERO,
                FaultKind::SetBer { port: 1, ber: 10f64.powi(-(ber_exp as i32)) },
            );
            let mut sw = ReferenceSwitch::build(&ChassisConfig { faults: plan, ..ChassisConfig::new(&BoardSpec::sume(), 4) }, 256, Time::from_ms(100), None);
            sw.chassis.sim.set_scheduler_mode(mode);
            // Unknown unicast destinations -> every frame floods to the
            // other three ports as refcount bumps of one buffer.
            for (i, &(port, len)) in frames.iter().enumerate() {
                let f = PacketBuilder::new()
                    .eth(mac(port as u8 + 1), mac(0xee))
                    .raw(netfpga_packet::EtherType::Ipv4, &vec![i as u8; len])
                    .build();
                sw.chassis.send(port, f);
                sw.chassis.run_for(Time::from_us(2));
            }
            sw.chassis.run_for(Time::from_us(200));
            let recv: Vec<Vec<Vec<u8>>> = (0..4).map(|p| sw.chassis.recv(p)).collect();
            let faults = sw.chassis.faults.clone().expect("armed plan");
            let counters = (
                faults.counters().ber_flips.get(),
                faults.counters().frames_corrupted.get(),
            );
            (recv, counters, faults.trace())
        };

        prop_assert_eq!(run(SchedulerMode::Auto), run(SchedulerMode::Scan));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Quiescence never skips a scheduled fault: a `FaultPlan` event deep
    /// inside an idle stretch is exactly where fast-forwarding is tempted
    /// to jump — the injector's `Bounded` answer must hold the kernel back so
    /// the link-down window opens at its scheduled instant, not late. A
    /// frame offered inside the window is dropped (and counted) and a
    /// frame after it floods, identically with and without idle skipping.
    #[test]
    fn prop_fault_events_survive_idle_fast_forward(
        gap_us in 10u64..400,
        down_us in 10u64..60,
        seed in 0u64..1000,
    ) {
        use netfpga_faults::{FaultKind, FaultPlan};

        let gap = Time::from_us(gap_us);
        let down = Time::from_us(down_us);
        let run = |idle_skip: bool| {
            let plan = FaultPlan::new(seed)
                .at(gap, FaultKind::LinkDown { port: 0, duration: down });
            let mut sw = ReferenceSwitch::build(&ChassisConfig { faults: plan, ..ChassisConfig::new(&BoardSpec::sume(), 4) }, 256, Time::from_ms(100), None);
            sw.chassis.sim.set_idle_skip(idle_skip);
            // Idle across the scheduled event: nothing in flight, so a
            // kernel that trusts a stale quiescence promise would jump
            // straight past `gap`.
            sw.chassis.run_for(gap + Time::from_us(2));
            // Offer a frame inside the down window: must be dropped.
            let f = PacketBuilder::new()
                .eth(mac(1), mac(2))
                .raw(netfpga_packet::EtherType::Ipv4, &[7; 46])
                .build();
            sw.chassis.send(0, f.clone());
            sw.chassis.run_for(down + Time::from_us(100));
            // And one after the window: link is back, frame floods.
            sw.chassis.send(0, f);
            sw.chassis.run_for(Time::from_us(50));
            let faults = sw.chassis.faults.clone().expect("armed plan");
            let recv: Vec<usize> = (0..4).map(|p| sw.chassis.recv(p).len()).collect();
            (
                recv,
                faults.counters().link_down_drops.get(),
                faults.counters().events_applied.get(),
                faults.trace(),
            )
        };

        let skipped = run(true);
        prop_assert_eq!(skipped.1, 1, "frame in the window must be dropped");
        prop_assert_eq!(&skipped.0, &vec![0, 1, 1, 1], "frame after it must flood");
        prop_assert_eq!(&skipped, &run(false), "idle skipping must change nothing");
    }

    /// The autonomic recovery plane is schedule-invariant: with the PCS
    /// retrain state machine healing a link flap (no restore event), the
    /// down edge and the recovery edge land on the *same simulated
    /// instant* under every scheduler mode with idle skipping on or off —
    /// the retrain FSM and the injector compose with idle fast-forward.
    #[test]
    fn prop_recovery_completes_at_the_same_cycle_under_every_scheduler(
        gap_us in 5u64..100,
        down_us in 5u64..40,
        retrain in 50u64..1500,
        holddown in 20u64..500,
    ) {
        use netfpga_core::sim::SchedulerMode;
        use netfpga_faults::{FaultKind, FaultPlan, RecoveryPolicy};

        let run = |mode: SchedulerMode, idle_skip: bool| {
            let plan = FaultPlan::new(1)
                .at(
                    Time::from_us(gap_us),
                    FaultKind::LinkDown { port: 1, duration: Time::from_us(down_us) },
                )
                .with_recovery(RecoveryPolicy {
                    retrain_cycles: retrain,
                    holddown_cycles: holddown,
                    rejoin_cycles: 800,
                    scrub_words_per_cycle: 0,
                    ..RecoveryPolicy::default()
                });
            let mut sw = ReferenceSwitch::build(&ChassisConfig { faults: plan, ..ChassisConfig::new(&BoardSpec::sume(), 4) }, 256, Time::from_ms(100), None);
            sw.chassis.sim.set_scheduler_mode(mode);
            sw.chassis.sim.set_idle_skip(idle_skip);
            let pcs = sw.chassis.pcs_handle(1).expect("recovery plane");
            let deadline = Time::from_us(gap_us + down_us) + Time::from_ms(2);
            let p = pcs.clone();
            assert!(sw.chassis.run_while(deadline, move || p.is_up()), "must go down");
            let down_at = sw.chassis.sim.now();
            let p = pcs.clone();
            assert!(sw.chassis.run_while(deadline, move || !p.is_up()), "must recover");
            let up_at = sw.chassis.sim.now();
            let events: Vec<_> = sw
                .chassis
                .events
                .pending()
                .iter()
                .map(|e| (e.kind, e.port, e.data, e.at))
                .collect();
            (down_at, up_at, events, pcs.counters().retrains.get())
        };

        let base = run(SchedulerMode::Scan, false);
        for mode in [SchedulerMode::Scan, SchedulerMode::Auto] {
            for idle_skip in [false, true] {
                prop_assert_eq!(
                    &run(mode, idle_skip), &base,
                    "recovery diverged under {:?} idle_skip={}", mode, idle_skip
                );
            }
        }
    }

    /// The cached-bound protocol is invisible: whether the workload runs
    /// a seeded fault plan (BER set partway through, exercising the
    /// injector's scheduled-event bound) or a flowmon tap in the datapath
    /// (exercising the tap's push-wake and the exporter's sample bound),
    /// the fused dispatcher serving cached activity classifications under
    /// idle skipping delivers bit-identical frames, fault traces and final
    /// clocks to the unfused `Scan` reference that re-queries every module
    /// on every edge.
    #[test]
    fn prop_cached_bounds_invisible_under_faults_and_tap(
        frames in proptest::collection::vec((0usize..4, 46usize..220), 1..10),
        gap_us in 5u64..80,
        ber_exp in 4u32..7,
        seed in 0u64..500,
        tap in any::<bool>(),
    ) {
        use netfpga_core::sim::SchedulerMode;
        use netfpga_faults::{FaultKind, FaultPlan};
        use netfpga_projects::flowmon::FlowmonConfig;

        let run = |mode: SchedulerMode, idle_skip: bool| {
            let mut sw = if tap {
                ReferenceSwitch::build(&ChassisConfig::new(&BoardSpec::sume(), 4), 256, Time::from_ms(100), Some(FlowmonConfig::default()))
            } else {
                let plan = FaultPlan::new(seed).at(
                    Time::from_us(gap_us),
                    FaultKind::SetBer { port: 1, ber: 10f64.powi(-(ber_exp as i32)) },
                );
                ReferenceSwitch::build(&ChassisConfig { faults: plan, ..ChassisConfig::new(&BoardSpec::sume(), 4) }, 256, Time::from_ms(100), None)
            };
            sw.chassis.sim.set_scheduler_mode(mode);
            sw.chassis.sim.set_idle_skip(idle_skip);
            for (i, &(port, len)) in frames.iter().enumerate() {
                let f = PacketBuilder::new()
                    .eth(mac(port as u8 + 1), mac(0xee))
                    .raw(netfpga_packet::EtherType::Ipv4, &vec![i as u8; len])
                    .build();
                sw.chassis.send(port, f);
                // Idle gaps between frames are where a stale cached bound
                // would skip a wake or a scheduled fault.
                sw.chassis.run_for(Time::from_us(3));
            }
            sw.chassis.run_for(Time::from_us(300));
            let recv: Vec<Vec<Vec<u8>>> = (0..4).map(|p| sw.chassis.recv(p)).collect();
            let trace = sw.chassis.faults.as_ref().map(|f| f.trace());
            (recv, trace, sw.chassis.sim.now())
        };

        let reference = run(SchedulerMode::Scan, false);
        prop_assert_eq!(
            &run(SchedulerMode::Auto, true), &reference,
            "cached bounds diverged from the scan reference (tap={})", tap
        );
    }

    /// The background scrubber visits every word of every registered
    /// region within one sweep period: for any memory size, scrub rate
    /// and upset pattern (one flip per word, so no doubles), every flip
    /// is corrected within `ceil(words / rate)` cycles of landing.
    #[test]
    fn prop_scrubber_visits_every_word_within_one_period(
        words_sel in 64usize..2048,
        wpc in 1u32..8,
        flip_words in proptest::collection::btree_set(0usize..64, 1..24),
        start_us in 1u64..40,
    ) {
        use netfpga_faults::{EccMode, FaultKind, FaultPlan, RecoveryPolicy};
        use netfpga_mem::Bram;
        use netfpga_projects::Chassis;
        use std::cell::RefCell;
        use std::rc::Rc;

        let policy = RecoveryPolicy {
            scrub_words_per_cycle: wpc,
            ..RecoveryPolicy::default()
        };
        let (mut chassis, _io) = Chassis::new(&ChassisConfig { faults: FaultPlan::new(3).with_recovery(policy), ..ChassisConfig::new(&BoardSpec::sume(), 1) });
        let faults = chassis.faults.clone().expect("armed");
        faults.register_memory(
            "m",
            EccMode::Secded,
            Rc::new(RefCell::new(Bram::<u64>::new(words_sel))),
        );

        chassis.run_for(Time::from_us(start_us));
        // One flip per distinct word (scaled injectively into the region).
        for (k, w) in flip_words.iter().enumerate() {
            faults.inject(FaultKind::MemFlip {
                memory: "m".into(),
                index: w * words_sel / 64,
                bit: k % 60,
            });
        }
        let period_cycles = (words_sel as u64).div_ceil(u64::from(wpc));
        let period = Time::from_ps(
            chassis.sim.period(chassis.clk).as_ps() * period_cycles,
        );
        chassis.run_for(period + Time::from_us(1));

        prop_assert_eq!(faults.pending_upsets(), 0, "latent flips after a full sweep");
        let stat = |path: &str| chassis.telemetry.get(path).expect(path);
        prop_assert_eq!(stat("faults.mem.corrected"), flip_words.len() as u64);
        prop_assert_eq!(stat("faults.mem.double_upsets"), 0);
        let latencies = faults.scrub_latencies();
        prop_assert_eq!(latencies.len(), flip_words.len());
        for lat in latencies {
            prop_assert!(lat <= period, "correction latency {} beyond one period {}", lat, period);
        }
    }
}

/// Conservation under congestion: for any overload pattern, packets in =
/// packets out + drops (no loss without accounting, no duplication).
#[test]
fn conservation_under_congestion() {
    let r = ReferenceRouter::new(&BoardSpec::sume(), 4);
    {
        let mut t = r.tables.borrow_mut();
        t.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
        t.lpm.insert(
            "10.9.0.0/16".parse().unwrap(),
            RouteEntry {
                next_hop: Ipv4Address::UNSPECIFIED,
                port: 3,
            },
        );
        t.arp.insert(Ipv4Address::new(10, 9, 0, 1), mac(0x91));
    }
    let mut r = r;
    // 3 ports full blast into one egress, enough to overflow the 512 KiB
    // output queue (3 x 1200 x 300 B ≈ 1 MiB of backlog demand).
    let n_per_port = 1200u64;
    for port in 0..3usize {
        for i in 0..n_per_port {
            let f = PacketBuilder::new()
                .eth(mac(0xa1 + port as u8), mac(0xe0))
                .ipv4(
                    Ipv4Address::new(10, 0, port as u8, 2),
                    Ipv4Address::new(10, 9, 0, 1),
                )
                .udp(i as u16, 2, &[])
                .pad_to(300)
                .build();
            r.chassis.send(port, f);
        }
    }
    r.chassis.run_for(Time::from_ms(3));
    let egressed = r.chassis.recv(3).len() as u64;
    // Every ingress frame was routed (forwarded counter), then either
    // egressed or tail-dropped in the output queues.
    assert_eq!(r.counters.forwarded.get(), 3 * n_per_port);
    assert!(egressed <= 3 * n_per_port);
    assert!(egressed > 0);
    // The router's MAC counters account for the rest as queue drops; the
    // key invariant is no duplication:
    assert!(
        egressed + 10 < 3 * n_per_port,
        "congestion must drop (sanity)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Release binaries abort on panic, so a frame off the wire must never
    /// be able to raise one: whatever bytes a peer puts on a port — junk
    /// of any length, a valid frame cut anywhere, no bytes at all — the
    /// switch and the router give each frame exactly one counted fate, and
    /// the valid frame sent after them is forwarded as if nothing had
    /// happened.
    #[test]
    fn prop_malformed_frames_are_counted_and_the_run_continues(
        junk in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..2049), 1..6),
        cuts in proptest::collection::vec(0usize..64, 1..6),
    ) {
        use netfpga_phy::mac::WireFrame;
        let valid = PacketBuilder::new()
            .eth(mac(0xa1), mac(0xe0))
            .ipv4(Ipv4Address::new(10, 0, 0, 2), Ipv4Address::new(10, 9, 0, 1))
            .udp(7, 9, b"after the storm")
            .build();
        let mut offered: Vec<Vec<u8>> = junk;
        offered.extend(cuts.iter().map(|&cut| valid[..cut.min(valid.len())].to_vec()));
        offered.push(Vec::new());
        offered.push(valid.clone());
        // Straight onto the wire, as a peer's MAC would: `Chassis::send`
        // is the tester's API and refuses runts on the tester's behalf.
        let offer = |wire: netfpga_phy::Wire| {
            for (i, f) in offered.iter().enumerate() {
                wire.push(WireFrame::new(f.clone(), Time::from_us(2 * i as u64 + 2)));
            }
        };
        let n = offered.len() as u64;

        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 256, Time::from_ms(100));
        offer(sw.chassis.port_wires(0).0);
        sw.chassis.run_for(Time::from_us(2 * n + 20));
        let stats = sw.core.borrow().counters().clone();
        let rx = |leaf: &str| sw.chassis.telemetry.get(&format!("port0.mac.rx.{leaf}"));
        prop_assert_eq!((rx("frames"), rx("dropped")), (Some(n - 1), Some(1)), "the empty frame dies at the MAC");
        prop_assert_eq!(stats.hits.get() + stats.floods.get(), n - 1, "every other frame is looked up once");
        prop_assert_eq!(sw.chassis.recv(1).last(), Some(&valid), "the valid frame floods");

        let mut r = ReferenceRouter::new(&BoardSpec::sume(), 4);
        {
            let mut t = r.tables.borrow_mut();
            t.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
            t.lpm.insert(
                "10.9.0.0/16".parse().unwrap(),
                RouteEntry { next_hop: Ipv4Address::UNSPECIFIED, port: 3 },
            );
            t.arp.insert(Ipv4Address::new(10, 9, 0, 1), mac(0x91));
        }
        offer(r.chassis.port_wires(0).0);
        r.chassis.run_for(Time::from_us(2 * n + 20));
        let c = &r.counters;
        prop_assert_eq!(c.forwarded.get() + c.to_cpu.get() + c.dropped.get(), n - 1, "one fate each: {:?}", c);
        prop_assert!(c.forwarded.get() >= 1, "{:?}", c);
        let out = r.chassis.recv(3);
        let routed = ParsedHeaders::parse(out.last().expect("the valid frame is routed"));
        prop_assert_eq!(routed.ipv4.map(|ip| (ip.checksum_ok, ip.ttl)), Some((true, 63)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Register writes are outside input too: whatever a driver writes to
    /// the router's block, in whatever order, nothing panics, a read of a
    /// word the block does not map returns `UNMAPPED_READ`, and the tables
    /// each run of writes leaves behind still give every frame of a mixed
    /// burst exactly one counted fate.
    #[test]
    fn prop_router_registers_survive_any_write_sequence(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((0u32..192, any::<u32>(), 0u8..4), 0..48),
                proptest::collection::vec((0usize..4, any::<u8>()), 1..16),
            ),
            1..4,
        ),
    ) {
        use netfpga_core::regs::UNMAPPED_READ;
        use netfpga_projects::reference_router::ROUTER_BASE;
        let mut r = ReferenceRouter::new(&BoardSpec::sume(), 4);
        let mut offered = 0;
        for (writes, burst) in rounds {
            for (slot, raw, shape) in writes {
                // Any of the block's 64 words, the command and staging
                // words more often; any value, or one the word makes sense
                // of: a command code (adds more often than the rest), an
                // address the bursts are sent to, a prefix length, a port on
                // or just off the board.
                let word = match slot {
                    0..=63 => slot,
                    64..=159 => [0, 1, 1, 2, 3, 4, 5, 6][slot as usize % 8],
                    _ => 0,
                };
                let value = match (shape, word) {
                    (0, _) => raw,
                    (_, 0) => [1, 3, 1, 3, 1, 3, 2, 4, 5, 6, 7, 8][raw as usize % 12],
                    (_, 1) => 0x0a09_0000 | (raw % 2),
                    (_, 3) => (0x0a09_0000 | (raw % 2)) * ((raw >> 8) & 1),
                    (_, 2) => raw % 40,
                    _ => raw % 8,
                };
                r.chassis.write32(ROUTER_BASE + word * 4, value);
                let got = r.chassis.read32(ROUTER_BASE + word * 4);
                if !matches!(word, 0..=7 | 16..=20) {
                    prop_assert_eq!(got, UNMAPPED_READ, "word {}", word);
                }
            }
            offered += burst.len() as u64;
            for (port, kind) in burst {
                let to = Ipv4Address::new(10, 9, 0, kind % 2);
                let ipv4 = |ttl| {
                    PacketBuilder::new()
                        .eth(mac(0xa1), mac(0xe0))
                        .ipv4(Ipv4Address::new(10, 0, 0, 2), to)
                        .ttl(ttl)
                        .udp(7, 9, &[kind; 18])
                        .build()
                };
                let frame = match kind % 6 {
                    0 => {
                        PacketBuilder::arp_request(mac(0xa1), Ipv4Address::new(10, 0, 0, 2), to)
                    }
                    1 => ipv4(1),
                    2 => {
                        let mut f = ipv4(64);
                        f[24] ^= 0xff; // header checksum
                        f
                    }
                    _ => ipv4(64),
                };
                r.chassis.send(port, frame);
            }
            r.chassis.run_for(Time::from_us(50));
            let c = &r.counters;
            let fates = c.forwarded.get() + c.to_cpu.get() + c.dropped.get();
            prop_assert_eq!(fates, offered, "one fate each: {:?}", c);
        }
    }

    /// The same for the other two blocks a driver writes, BlueSwitch's and
    /// OSNT's per-port ones: any write sequence over every word leaves no
    /// panic, an undocumented word reads `UNMAPPED_READ`, BlueSwitch still
    /// classifies every frame offered exactly once, and no OSNT generator
    /// sends more probes than a start ever staged.
    #[test]
    fn prop_project_registers_survive_any_write_sequence(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((0u32..128, any::<u32>(), 0u8..4), 0..32),
                proptest::collection::vec((0usize..4, any::<u8>()), 1..8),
            ),
            1..4,
        ),
    ) {
        use netfpga_core::regs::UNMAPPED_READ;
        use netfpga_projects::blueswitch::BLUESWITCH_BASE;
        use netfpga_projects::osnt::{OSNT_BASE, OSNT_PORT_STRIDE};
        use netfpga_projects::{BlueSwitch, OsntTester};

        // Two tables of eight rules, so staged tables and slots often lie
        // past the pipeline; OSNT's port 0 looped back onto itself, port 1
        // offered the same bursts as the switch.
        let mut sw = BlueSwitch::new(&BoardSpec::sume(), 4, 2, 8);
        let mut osnt = OsntTester::new(&BoardSpec::sume(), 2);
        let (to_board, from_board) = osnt.chassis.port_wires(0);
        osnt.chassis.add_link("loop0", from_board, to_board, netfpga_phy::LinkConfig::default());
        let mut offered = 0;
        // Per OSNT port: the probe count staged, and the largest one a
        // start has carried.
        let mut staged_count = [0u32; 2];
        let mut started_count = [0u32; 2];
        for (writes, burst) in rounds {
            for &(slot, raw, shape) in &writes {
                // Any of the block's 64 words, the command and staging words
                // more often; any value, or one the word makes sense of.
                let word = match slot {
                    0..=63 => slot,
                    64..=111 => [0, 0, 1, 2, 3, 4, 5, 6][slot as usize % 8],
                    _ => 28,
                };
                let value = match (shape, word) {
                    (0, _) => raw,
                    (_, 0) => [1, 1, 2, 3, 4, 5, 0, 9][raw as usize % 8],
                    (_, 1 | 3) => raw % 4,
                    (_, 4) => raw % 64,
                    (_, 6) => raw % 12,
                    _ => 0,
                };
                let addr = BLUESWITCH_BASE + word * 4;
                sw.chassis.write32(addr, value);
                let got = sw.chassis.read32(addr);
                if !matches!(word, 0..=6 | 8..=14 | 16..=22 | 24..=28) {
                    prop_assert_eq!(got, UNMAPPED_READ, "BlueSwitch word {}", word);
                }

                let port = (raw >> 31) as usize;
                let value = match (shape, word) {
                    (0, _) => raw,
                    (_, 0) => [1, 1, 1, 0, 2][raw as usize % 5],
                    (_, 1) => raw % 20_000,
                    (_, 2) => [raw % 2048, 60, 1514, 1515, 70_000, u32::MAX][raw as usize % 6],
                    (_, 3) => raw % 64,
                    (_, 5) => raw % 3,
                    _ => raw % 16,
                };
                let addr = OSNT_BASE + port as u32 * OSNT_PORT_STRIDE + word * 4;
                match word {
                    0 if value == 1 => {
                        started_count[port] = started_count[port].max(staged_count[port]);
                    }
                    3 => staged_count[port] = value,
                    _ => {}
                }
                osnt.chassis.write32(addr, value);
                let got = osnt.chassis.read32(addr);
                if !matches!(word, 0..=5 | 8..=12) {
                    prop_assert_eq!(got, UNMAPPED_READ, "OSNT word {}", word);
                }
            }
            offered += burst.len() as u64;
            for &(port, kind) in &burst {
                let frame = PacketBuilder::new()
                    .eth(mac(kind), mac(0xe0 + port as u8))
                    .ipv4(Ipv4Address::new(10, 0, 0, kind), Ipv4Address::new(10, 9, 0, 1))
                    .udp(u16::from(kind), 80, &[kind; 18])
                    .build();
                sw.chassis.send(port, frame.clone());
                osnt.chassis.send(1, frame);
            }
            sw.chassis.run_for(Time::from_us(50));
            osnt.chassis.run_for(Time::from_us(50));
            let packets = sw.counters.packets.get();
            prop_assert_eq!(packets, offered, "classified once each");
            for (port, generator) in osnt.generators.iter().enumerate() {
                prop_assert!(
                    generator.sent() <= u64::from(started_count[port]),
                    "port {}: {} sent, {} staged", port, generator.sent(), started_count[port]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The auto-mounted stat block honours the register-space contract for
    /// ANY registry shape: reads outside its span (and in the padding past
    /// the name blob) return `UNMAPPED_READ`; writes to read-only offsets
    /// (header, name table, gauge values) change nothing; a write to a
    /// counter slot clears that counter and only that counter.
    #[test]
    fn prop_stat_block_span_and_readonly(
        name_ids in proptest::collection::btree_set(0u32..10_000, 1..12),
        values in proptest::collection::vec(0u64..5_000, 12),
        gauge_mask in proptest::collection::vec(any::<bool>(), 12),
        probe_words in proptest::collection::vec(0u32..0x200, 1..16),
        write_word in 0u32..0x200,
    ) {
        use netfpga_core::regs::{shared, AddressMap, UNMAPPED_READ};
        use netfpga_core::telemetry::{StatBlock, StatRegistry};

        let reg = StatRegistry::new();
        // Injective id → dotted-path mapping (unique ids, unique paths).
        let names: Vec<String> =
            name_ids.iter().map(|v| format!("grp{}.stat{}", v / 100, v % 100)).collect();
        for (i, name) in names.iter().enumerate() {
            let value = values[i % values.len()];
            if gauge_mask[i % gauge_mask.len()] {
                reg.gauge(name, move || value);
            } else {
                reg.counter(name).add(value);
            }
        }
        let block = StatBlock::from_registry(&reg, "");
        let size = block.size_bytes();
        let count = block.count() as u32;
        let values_off = 0x10u32;
        let names_off = values_off + 4 * count;

        const BASE: u32 = 0x4000;
        let map = AddressMap::new();
        map.mount("telemetry", BASE, (size + 0xff) & !0xff, shared(block));
        let read = |map: &AddressMap, off: u32| map.read(BASE + off);

        // Everything at or past the blob (padding included) is unmapped.
        for &w in &probe_words {
            let off = size + w * 4;
            prop_assert_eq!(read(&map, off), UNMAPPED_READ, "offset {:#x}", off);
        }

        let before = reg.snapshot();
        // Writes to the header and the name table are ignored.
        for off in [0x0, 0x4, 0x8, 0xC, names_off, size - 4] {
            map.write(BASE + off, 0xffff_ffff);
        }
        // Writes to gauge slots are ignored too; sorted registry order
        // matches block order, so slot i belongs to snapshot entry i.
        for (i, (path, _)) in before.iter().enumerate() {
            if !reg.clearable(path) {
                map.write(BASE + values_off + 4 * i as u32, 0);
            }
        }
        prop_assert_eq!(reg.snapshot(), before.clone(), "read-only offsets mutated state");

        // A write to one counter slot clears exactly that counter.
        let target = (write_word % count) as usize;
        map.write(BASE + values_off + 4 * target as u32, 0);
        for (i, (path, value)) in reg.snapshot().iter().enumerate() {
            let expect = if i == target && reg.clearable(path) { 0 } else { before[i].1 };
            prop_assert_eq!(*value, expect, "stat {:?} after clearing slot {}", path, target);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Host TX descriptors are outside input too: whatever a driver posts
    /// to the reference NIC — `transmit` to any port, raw sends of any
    /// length with any source port, destination mask and sequence number
    /// — nothing panics, every frame the engine accepts is injected once
    /// (a re-posted sequence number is discarded instead), and each one
    /// injected has exactly one counted fate: a discard when its mask
    /// names no port the board has, else one wire delivery or tail drop
    /// per port it names there.
    #[test]
    fn prop_dma_descriptors_conserve_frames(
        ops in proptest::collection::vec(
            (0u8..4, any::<u8>(), 0usize..9601, any::<u16>(), 0u64..4, any::<u64>()),
            1..40,
        ),
    ) {
        use netfpga_core::stream::{Meta, PortMask};
        use netfpga_host::NicDriver;
        use netfpga_projects::ReferenceNic;
        use std::collections::BTreeSet;
        const PRESENT: u16 = 0b1111;
        let mut nic = ReferenceNic::new(&BoardSpec::sume(), 4);
        let mut driver = NicDriver::bind(&nic);
        let dma = nic.chassis.dma.clone().expect("NIC has DMA");
        let (mut injected, mut dups, mut no_destination, mut copies) = (0u64, 0u64, 0u64, 0u64);
        let mut delivered_seqs = BTreeSet::new();
        for (i, &(kind, byte, len, mask, small_seq, raw_seq)) in ops.iter().enumerate() {
            // 0..=9000 bytes, empty one time in sixteen.
            let frame = vec![i as u8; len.saturating_sub(600)];
            let meta = Meta { src_port: byte, dst_ports: PortMask(mask), ..Meta::default() };
            // Small sequence numbers repeat often enough to exercise dedup.
            let seq = if raw_seq % 2 == 0 { small_seq } else { raw_seq };
            let (result, mask) = match kind {
                0 => (driver.transmit(byte, frame), 1u16.checked_shl(u32::from(byte)).unwrap_or(0)),
                1 => (dma.send(frame, byte), 0),
                2 => (dma.send_with_meta(frame, meta), mask),
                _ => (dma.send_sequenced(frame, meta, seq), mask),
            };
            if result.is_err() {
                continue;
            }
            // The engine fetches in posting order and acks each frame
            // before the next fetch, so a repeat of an accepted sequence
            // number is always discarded.
            if kind == 3 && !delivered_seqs.insert(seq) {
                dups += 1;
                continue;
            }
            injected += 1;
            match (mask & PRESENT).count_ones() {
                0 => no_destination += 1,
                n => copies += u64::from(n),
            }
        }
        nic.chassis.run_for(Time::from_ms(1));
        let wire: u64 = (0..4).map(|p| nic.chassis.recv(p).len() as u64).sum();
        let stat = |path: &str| nic.chassis.telemetry.get(path).expect("registered");
        prop_assert_eq!(stat("dma.tx.packets"), injected);
        prop_assert_eq!(stat("dma.dup_discards"), dups);
        prop_assert_eq!(stat("oq.no_destination"), no_destination);
        prop_assert_eq!(wire + stat("oq.dropped"), copies);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The reliable host-I/O plane is exactly-once and schedule-invariant:
    /// under a seeded fault plan that stalls and drops the DMA engine
    /// (no wedge — retry alone must heal), every frame the channel accepts
    /// exits the wire exactly once (no loss, no duplicates, acks equal
    /// accepts), and the delivered byte stream, retry count and dedup
    /// counters are bit-identical in both scheduler modes with idle
    /// fast-forward on or off.
    #[test]
    fn prop_reliable_channel_exactly_once_and_schedule_invariant(
        stall_us in 0u64..50,
        drop_us in 0u64..40,
        nframes in 4usize..20,
        seed in 0u64..1000,
    ) {
        use netfpga_core::sim::SchedulerMode;
        use netfpga_core::stream::{Meta, PortMask};
        use netfpga_faults::{FaultKind, FaultPlan};
        use netfpga_host::{ReliableChannel, ReliableConfig};
        use netfpga_projects::reference_nic::ReferenceNic;
        use std::collections::BTreeSet;

        let run = |mode: SchedulerMode, idle_skip: bool| {
            let mut plan = FaultPlan::new(seed);
            if stall_us > 0 {
                plan = plan.at(
                    Time::from_us(20),
                    FaultKind::DmaStall { duration: Time::from_us(stall_us) },
                );
            }
            if drop_us > 0 {
                plan = plan.at(
                    Time::from_us(45),
                    FaultKind::DmaDrop { duration: Time::from_us(drop_us) },
                );
            }
            let mut nic = ReferenceNic::build(&ChassisConfig { faults: plan, ..ChassisConfig::new(&BoardSpec::sume(), 4) });
            nic.chassis.sim.set_scheduler_mode(mode);
            nic.chassis.sim.set_idle_skip(idle_skip);
            let dma = nic.chassis.dma.clone().expect("NIC has DMA");
            // A generous attempt cap: loss is never a legal outcome here.
            let config = ReliableConfig { max_attempts: 32, ..ReliableConfig::default() };
            let (driver, channel) =
                ReliableChannel::new("reliable", dma.clone(), config, seed ^ 0x5eed);
            let clk = nic.chassis.clk;
            nic.chassis.sim.add_module(clk, driver);

            let meta = Meta { dst_ports: PortMask::single(1), ..Default::default() };
            for k in 0..nframes {
                let f = PacketBuilder::new()
                    .eth(mac(0xee), mac(0xa0))
                    .raw(netfpga_packet::EtherType::Ipv4, &[k as u8; 46])
                    .build();
                assert!(channel.send(f, meta), "pending queue is deep enough");
                nic.chassis.run_for(Time::from_us(3));
            }
            let deadline = nic.chassis.sim.now() + Time::from_ms(5);
            while !channel.idle() && nic.chassis.sim.now() < deadline {
                nic.chassis.run_for(Time::from_us(10));
            }
            nic.chassis.run_for(Time::from_us(50));
            (
                nic.chassis.recv(1),
                channel.accepted(),
                channel.abandoned(),
                channel.retries(),
                dma.counters().acked.get(),
                dma.counters().dup_discards.get(),
            )
        };

        let base = run(SchedulerMode::Scan, false);
        let (delivered, accepted, abandoned, _, acked, _) = &base;
        prop_assert_eq!(*accepted, nframes as u64, "every offer fits the pending queue");
        prop_assert_eq!(*abandoned, 0, "retry must outlast every stall/drop window");
        let mut seen = BTreeSet::new();
        for f in delivered {
            prop_assert!(seen.insert(f.clone()), "duplicate frame on the wire");
        }
        prop_assert_eq!(seen.len() as u64, *accepted, "every accepted frame delivered once");
        prop_assert_eq!(*acked, *accepted, "every sequence acked exactly once");

        for mode in [SchedulerMode::Scan, SchedulerMode::Auto] {
            for idle_skip in [false, true] {
                prop_assert_eq!(
                    &run(mode, idle_skip), &base,
                    "reliable delivery diverged under {:?} idle_skip={}", mode, idle_skip
                );
            }
        }
    }
}

/// What one run of the stall rig exposes: everything a skipped edge could
/// have changed.
#[derive(Debug, PartialEq)]
struct StallObserved {
    /// Per egress wire, in order: `(port, bytes, ready_at)`.
    wire: Vec<(usize, Vec<u8>, Time)>,
    /// Frames the host took off the DMA RX ring, in order.
    host: Vec<Vec<u8>>,
    /// Every counter and gauge the rig registered.
    registry: Vec<(String, u64)>,
    now: Time,
    cycles: (u64, u64),
}

/// Where the stall rig's oversubscription comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StallScenario {
    /// Every frame to the three other ports (egress 3:1).
    Flood,
    /// Ports 0–2 all towards port 3.
    Incast,
    /// Every wire frame to the host over a PCIe link a quarter as fast as
    /// the four wires, host frames out of the ports.
    NicToHost,
    /// [`StallScenario::Flood`] with a flow tap in front of the queues.
    TappedFlood,
}

/// A four-port datapath out of library modules only — RX MACs, arbiter,
/// statistics stage, lookup stage, optional flow tap, output queues with a
/// 2 KiB budget per queue, TX MACs, optional DMA engine (word-level or
/// `dma_burst`) — with every inter-module FIFO `depth` words deep, MACs on
/// their own 156 MHz clock, run for 250 µs under the given kernel. Returns
/// what it observed and how many edges the kernel executed to get there.
#[allow(clippy::too_many_arguments)]
fn run_stall_rig(
    scenario: StallScenario,
    frames: &[(usize, usize)],
    depth: usize,
    burst: bool,
    mac_burst: bool,
    dma_burst: bool,
    mode: netfpga_core::sim::SchedulerMode,
    idle_skip: bool,
) -> (StallObserved, u64) {
    use netfpga_core::sim::Simulator;
    use netfpga_core::stream::{Meta, PortMask, Stream};
    use netfpga_core::telemetry::StatRegistry;
    use netfpga_core::time::{BitRate, Frequency};
    use netfpga_core::PktBuf;
    use netfpga_datapath::pktstats::StatsStage;
    use netfpga_datapath::{
        Fifo, InputArbiter, OutputQueues, PacketStage, QueueConfig, StageAction,
    };
    use netfpga_flowmon::{FlowTap, FlowmonConfig};
    use netfpga_pcie::{DmaEngine, PcieConfig};
    use netfpga_phy::mac::{wire_bytes, EthMacRx, EthMacTx, Wire, WireFrame};

    const NPORTS: usize = 4;
    const CPU: u8 = NPORTS as u8;
    const W: usize = 32;
    let rate = BitRate::gbps(10);
    let nic = scenario == StallScenario::NicToHost;
    let registry = StatRegistry::new();
    let mut sim = Simulator::with_scheduler(mode);
    sim.set_idle_skip(idle_skip);
    let core = sim.add_clock("core", Frequency::mhz(200));
    let macs = sim.add_clock("mac", Frequency::mhz(156));

    let wires_in: Vec<Wire> = (0..NPORTS).map(|_| Wire::new()).collect();
    let wires_out: Vec<Wire> = (0..NPORTS).map(|_| Wire::new()).collect();
    let mut arb_inputs = Vec::new();
    for (p, wire) in wires_in.iter().enumerate() {
        let (tx, rx) = Stream::new(depth, W);
        let (mac, stats) = EthMacRx::new(&format!("rx{p}"), wire.clone(), tx, p as u8);
        stats.register_stats(&registry, &format!("port{p}.mac.rx"));
        sim.add_module(macs, mac.with_burst(mac_burst));
        arb_inputs.push(rx);
    }
    let mut oq_outputs = Vec::new();
    for (p, wire) in wires_out.iter().enumerate() {
        let (tx, rx) = Stream::new(depth, W);
        let (mac, stats) = EthMacTx::new(&format!("tx{p}"), rate, rx, wire.clone());
        stats.register_stats(&registry, &format!("port{p}.mac.tx"));
        sim.add_module(macs, mac.with_burst(mac_burst));
        oq_outputs.push(tx);
    }
    let dma = nic.then(|| {
        let (h2c_tx, h2c_rx) = Stream::new(depth, W);
        let (c2h_tx, c2h_rx) = Stream::new(depth, W);
        let (engine, handle) = DmaEngine::new("dma", PcieConfig::gen1_x8(), h2c_tx, c2h_rx, 64, 16);
        handle.register_stats(&registry, "dma");
        sim.add_module(core, engine.with_burst(dma_burst));
        arb_inputs.push(h2c_rx);
        oq_outputs.push(c2h_tx);
        handle
    });

    let (arb_tx, arb_rx) = Stream::new(depth, W);
    let arbiter = InputArbiter::new("arbiter", arb_inputs, arb_tx).with_burst(burst);
    let (stats_tx, stats_rx) = Stream::new(depth, W);
    let (stats_stage, rx_stats) = StatsStage::new("rx_stats", arb_rx, stats_tx, NPORTS + 1);
    rx_stats.register_stats(&registry, "rx_stats");
    let (lookup_tx, lookup_rx) = Stream::new(depth, W);
    let lookup = PacketStage::new(
        "lookup",
        stats_rx,
        lookup_tx,
        8,
        move |p: &mut PktBuf, m: &mut Meta, _t: Time| {
            let mut dst = PortMask::EMPTY;
            match scenario {
                StallScenario::Flood | StallScenario::TappedFlood => {
                    dst = PortMask::first_n(NPORTS as u8);
                    dst.remove(m.src_port);
                }
                StallScenario::Incast => dst.insert(3),
                StallScenario::NicToHost if m.src_port == CPU => dst.insert(p[0] % CPU),
                StallScenario::NicToHost => dst.insert(CPU),
            }
            m.dst_ports = dst;
            StageAction::Forward
        },
    )
    .with_burst(burst);
    lookup.counters().register_stats(&registry, "lookup");
    let (oq_input, tap) = if scenario == StallScenario::TappedFlood {
        let (tap_tx, tap_rx) = Stream::new(depth, W);
        let tap = FlowTap::new(lookup_rx, tap_tx, &FlowmonConfig::default()).with_burst(burst);
        tap.handle().register_stats(&registry, "flowmon");
        (tap_rx, Some(tap))
    } else {
        (lookup_rx, None)
    };
    let config = QueueConfig {
        bytes_per_queue: 2048,
        ..QueueConfig::default()
    };
    let oq =
        OutputQueues::new("oq", oq_input, oq_outputs, config, || Box::new(Fifo)).with_burst(burst);
    oq.counters().register_stats(&registry, "oq");
    oq.register_depth_gauges(&registry, "oq");
    sim.add_module(core, arbiter);
    sim.add_module(core, stats_stage.with_burst(burst));
    sim.add_module(core, lookup);
    if let Some(tap) = tap {
        sim.add_module(core, tap);
    }
    sim.add_module(core, oq);

    // Offer every frame back to back at line rate on its port; in the NIC
    // scenario every third frame is a host send instead.
    let mut busy = [Time::ZERO; NPORTS];
    for (i, &(port, len)) in frames.iter().enumerate() {
        let mut bytes = vec![i as u8; len];
        bytes[0] = port as u8;
        match &dma {
            Some(handle) if i % 3 == 2 => handle.send(bytes, CPU).expect("ring has room"),
            _ => {
                busy[port] += rate.time_for_bytes(wire_bytes(len as u64));
                wires_in[port].push(WireFrame::new(bytes, busy[port]));
            }
        }
    }
    let mut host = Vec::new();
    for _ in 0..5 {
        sim.run_for(Time::from_us(50));
        if let Some(handle) = &dma {
            while let Some((packet, _meta)) = handle.recv() {
                host.push(packet.to_vec());
            }
        }
    }
    let far = Time::from_ms(10);
    let wire = wires_out
        .iter()
        .enumerate()
        .flat_map(|(p, w)| {
            std::iter::from_fn(move || w.take_ready(far))
                .map(move |f| (p, f.data.to_vec(), f.ready_at))
        })
        .collect();
    let observed = StallObserved {
        wire,
        host,
        registry: registry.snapshot(),
        now: sim.now(),
        cycles: (sim.cycles(core), sim.cycles(macs)),
    };
    (observed, sim.kernel_stats().steps)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Stalled is not active — and skipping it is invisible. Under random
    /// oversubscription (flood, 3→1 incast, wires faster than the host's
    /// PCIe link, a tapped flood), with FIFOs from 2 to 64 words deep, the
    /// pipeline, the MACs and the DMA engine each in word or burst pacing
    /// (a held burst and an absorbed packet are time bounds), every kernel
    /// that skips stalled and time-blocked modules — `Scan` with idle
    /// skipping, and `Auto` — must reproduce the every-edge
    /// reference bit for bit: delivered `(port, bytes, ready_at)`
    /// sequences, host deliveries, every registered counter and gauge,
    /// `sim.now()` and both domains' cycle counts. In debug builds (and
    /// under `paranoid`) the run also exercises the cache-drift check on
    /// every module that now claims quiescence on an output channel.
    #[test]
    fn prop_stall_equivalence(
        scenario_sel in 0usize..4,
        frames in proptest::collection::vec((0usize..4, 60usize..700), 12..90),
        depth_sel in 0usize..6,
        burst in any::<bool>(),
        mac_burst in any::<bool>(),
        dma_burst in any::<bool>(),
    ) {
        use netfpga_core::sim::SchedulerMode;
        let scenario = [
            StallScenario::Flood,
            StallScenario::Incast,
            StallScenario::NicToHost,
            StallScenario::TappedFlood,
        ][scenario_sel];
        let depth = [2, 3, 8, 16, 33, 64][depth_sel];
        let frames: Vec<(usize, usize)> = frames
            .into_iter()
            .map(|(port, len)| (if scenario == StallScenario::Incast { port % 3 } else { port }, len))
            .collect();
        let run = |mode, idle_skip| {
            run_stall_rig(scenario, &frames, depth, burst, mac_burst, dma_burst, mode, idle_skip)
        };
        let (reference, every_edge) = run(SchedulerMode::Scan, false);
        prop_assert!(
            !reference.wire.is_empty() || !reference.host.is_empty(),
            "the rig must deliver something"
        );
        for mode in [SchedulerMode::Scan, SchedulerMode::Auto] {
            let (observed, steps) = run(mode, true);
            // (Not `prop_assert_eq!`: the two sides are whole frame dumps.)
            prop_assert!(
                observed == reference,
                "{:?} depth={} burst={} mac_burst={} dma_burst={} diverged under {:?}",
                scenario, depth, burst, mac_burst, dma_burst, mode
            );
            prop_assert!(
                steps < every_edge / 2,
                "{:?} under {:?}: {} of {} edges executed — nothing was skipped",
                scenario, mode, steps, every_edge
            );
        }
    }
}

/// The stall rigs in word mode at fixed seeds, against the signatures in
/// `fixtures/word_mode.golden`: how the word-level pipeline is executed may
/// change, what it delivers and when may not. (`nic_to_host` was re-captured
/// once, for a device change: the two-stage DMA engine puts a frame in the
/// RX ring after its own PCIe crossing — the signature hashes that instant.)
#[test]
fn stall_rigs_reproduce_their_word_mode_goldens() {
    use netfpga_core::sim::SchedulerMode;
    use netfpga_integration::golden::{check, Sig, WORD_MODE};
    let mut actual = Vec::new();
    for (name, scenario) in [
        ("flood", StallScenario::Flood),
        ("incast", StallScenario::Incast),
        ("nic_to_host", StallScenario::NicToHost),
        ("tapped_flood", StallScenario::TappedFlood),
    ] {
        for depth in [2, 8, 64] {
            let mut rng = netfpga_core::SimRng::new(0x5741_4c4c ^ depth as u64);
            let frames: Vec<(usize, usize)> = (0..70)
                .map(|_| {
                    let port = rng.below(4) as usize;
                    let port = if scenario == StallScenario::Incast {
                        port % 3
                    } else {
                        port
                    };
                    (port, rng.range(60, 700) as usize)
                })
                .collect();
            let (seen, _) = run_stall_rig(
                scenario,
                &frames,
                depth,
                false,
                false,
                false,
                SchedulerMode::Auto,
                true,
            );
            let mut sig = Sig::new();
            for (port, bytes, at) in &seen.wire {
                sig.u64(*port as u64).bytes(bytes).time(*at);
            }
            for packet in &seen.host {
                sig.bytes(packet);
            }
            sig.registry(&seen.registry)
                .time(seen.now)
                .u64(seen.cycles.0)
                .u64(seen.cycles.1);
            actual.push((format!("stall.{name}.depth{depth}"), sig.finish()));
        }
    }
    check(WORD_MODE, &actual);
}
