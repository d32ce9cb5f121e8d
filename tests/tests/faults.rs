//! Fault-plane integration: the acceptance criteria of the subsystem.
//!
//! * An all-zero (inert) `FaultPlan` leaves every chassis bit-for-bit
//!   identical to one built without faults — same frames, same wire
//!   timestamps, same counters.
//! * A seeded plan replays identically: same trace, counters, captures.
//! * An nftest plan shows the reference switch degrading gracefully:
//!   counted drops, no hang, recovered throughput after a link flap.
//! * DMA stall/drop windows act on the reference NIC's host path.

use netfpga_core::board::BoardSpec;
use netfpga_core::stream::{Meta, PortMask};
use netfpga_core::telemetry::EventKind;
use netfpga_core::time::Time;
use netfpga_faults::{faultregs, FaultKind, FaultPlan, RecoveryPolicy, FAULTS_BASE};
use netfpga_nftest::{run, TestPlan};
use netfpga_packet::{EtherType, EthernetAddress, PacketBuilder};
use netfpga_phy::{LinkState, PortBond};
use netfpga_projects::reference_switch::LOOKUP_BASE;
use netfpga_projects::{Chassis, ChassisConfig, ReferenceNic, ReferenceSwitch};

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

fn frame(src: u8, dst: u8, len: usize) -> Vec<u8> {
    PacketBuilder::new()
        .eth(mac(src), mac(dst))
        .raw(EtherType::Ipv4, &vec![src; len.saturating_sub(18)])
        .build()
}

/// Per-port captures with wire timestamps.
type TimedCaptures = Vec<(usize, Vec<(Vec<u8>, Time)>)>;

/// Drive a deterministic traffic mix and capture everything with wire
/// timestamps.
/// A port's RX and TX MAC counters, as the telemetry plane reads them.
fn mac_counters(chassis: &Chassis, port: usize) -> Vec<(String, u64)> {
    let prefix = format!("port{port}.mac.");
    let mut stats = chassis.telemetry.snapshot();
    stats.retain(|(path, _)| path.starts_with(&prefix));
    stats
}

fn switch_traffic(sw: &mut ReferenceSwitch) -> TimedCaptures {
    for i in 0..12u8 {
        sw.chassis.send(
            usize::from(i % 4),
            frame(i % 4, (i + 1) % 4, 80 + usize::from(i) * 40),
        );
    }
    sw.chassis.run_for(Time::from_us(200));
    (0..4).map(|p| (p, sw.chassis.recv_timed(p))).collect()
}

#[test]
fn inert_plan_is_bit_for_bit_identical_on_the_switch() {
    let spec = BoardSpec::sume();
    let mut plain = ReferenceSwitch::new(&spec, 4, 1024, Time::from_ms(100));
    let mut faulted = ReferenceSwitch::build(
        &ChassisConfig {
            faults: FaultPlan::none(),
            ..ChassisConfig::new(&spec, 4)
        },
        1024,
        Time::from_ms(100),
        None,
    );
    assert!(
        faulted.chassis.faults.is_none(),
        "inert plan splices nothing"
    );

    let a = switch_traffic(&mut plain);
    let b = switch_traffic(&mut faulted);
    assert_eq!(a, b, "frames, ports and wire timestamps must match exactly");
    for p in 0..4 {
        assert_eq!(
            mac_counters(&plain.chassis, p),
            mac_counters(&faulted.chassis, p)
        );
    }
    assert_eq!(
        plain.chassis.read32(LOOKUP_BASE + 8),
        faulted.chassis.read32(LOOKUP_BASE + 8),
        "learned-entry counts must match"
    );
}

#[test]
fn inert_plan_is_bit_for_bit_identical_on_the_nic() {
    let spec = BoardSpec::sume();
    let run_nic = |mut nic: ReferenceNic| {
        let dma = nic.chassis.dma.clone().expect("NIC has DMA");
        nic.chassis.send(2, frame(5, 6, 200));
        let _ = dma.send_with_meta(
            frame(7, 8, 150),
            Meta {
                dst_ports: PortMask::single(1),
                ..Default::default()
            },
        );
        nic.chassis.run_for(Time::from_us(100));
        let up = dma.recv();
        let down = nic.chassis.recv_timed(1);
        (up, down, dma.counters())
    };
    let a = run_nic(ReferenceNic::new(&spec, 4));
    let b = run_nic(ReferenceNic::build(&ChassisConfig {
        faults: FaultPlan::none(),
        ..ChassisConfig::new(&spec, 4)
    }));
    assert_eq!(a.0, b.0, "host-bound packet identical");
    assert_eq!(a.1, b.1, "wire-bound frame and timestamp identical");
    assert_eq!(a.2, b.2, "DMA statistics identical");
}

#[test]
fn seeded_plan_replays_identically() {
    let build = |seed| {
        let plan = FaultPlan::new(seed)
            .at(Time::ZERO, FaultKind::SetBer { port: 0, ber: 2e-5 })
            .at(
                Time::from_us(30),
                FaultKind::LinkDown {
                    port: 1,
                    duration: Time::from_us(25),
                },
            )
            .at(
                Time::from_us(80),
                FaultKind::StreamStall {
                    port: 2,
                    duration: Time::from_us(10),
                },
            );
        ReferenceSwitch::build(
            &ChassisConfig {
                faults: plan,
                ..ChassisConfig::new(&BoardSpec::sume(), 4)
            },
            1024,
            Time::from_ms(100),
            None,
        )
    };
    let run_once = |seed: u64| {
        let mut sw = build(seed);
        let captures = switch_traffic(&mut sw);
        let faults = sw.chassis.faults.clone().expect("armed");
        let c = faults.counters();
        (
            captures,
            faults.trace(),
            (
                c.ber_flips.get(),
                c.frames_corrupted.get(),
                c.link_down_drops.get(),
                c.stream_stall_ticks.get(),
            ),
            (0..4)
                .map(|p| mac_counters(&sw.chassis, p))
                .collect::<Vec<_>>(),
        )
    };
    let a = run_once(2024);
    let b = run_once(2024);
    assert_eq!(a.0, b.0, "same seed: same captures and timestamps");
    assert_eq!(a.1, b.1, "same seed: same fault trace");
    assert_eq!(a.2, b.2, "same seed: same fault counters");
    assert_eq!(a.3, b.3, "same seed: same MAC counters");

    let c = run_once(2025);
    assert!(
        a.1 == c.1,
        "trace holds only scheduled events, seed-independent"
    );
    assert_ne!(a.0, c.0, "different seed: different corruption pattern");
}

#[test]
fn nftest_plan_shows_graceful_degradation_and_recovery() {
    let mut sw = ReferenceSwitch::build(
        &ChassisConfig {
            faults: FaultPlan::new(77),
            ..ChassisConfig::new(&BoardSpec::sume(), 4)
        },
        1024,
        Time::from_ms(100),
        None,
    );
    let learn = frame(9, 1, 100);
    let f = frame(1, 9, 300);
    let plan = TestPlan::new("graceful_degradation")
        // Learn: dst mac(9) lives on port 1.
        .send_phy(1, learn.clone())
        .expect_phy_unordered(0, learn.clone())
        .expect_phy_unordered(2, learn.clone())
        .expect_phy_unordered(3, learn)
        .barrier(Time::from_us(50))
        // Flap the egress link and offer traffic: dropped, counted, no hang.
        .inject_fault(FaultKind::LinkDown {
            port: 1,
            duration: Time::from_us(30),
        })
        .run_for(Time::from_us(1))
        .send_phy(0, f.clone())
        .send_phy(0, f.clone())
        .run_for(Time::from_us(20))
        .expect_counter_in_range(FAULTS_BASE + faultregs::LINK_DOWN_DROPS, 2, 2)
        // Let the flap end; throughput recovers on the same port.
        .run_for(Time::from_us(30))
        .send_phy(0, f.clone())
        .expect_phy(1, f)
        .barrier(Time::from_us(60))
        .expect_counter_in_range(FAULTS_BASE + faultregs::LINK_DOWN_DROPS, 2, 2)
        .expect_counter_in_range(FAULTS_BASE + faultregs::EVENTS_APPLIED, 1, 1);
    let report = run(&plan, &mut sw.chassis);
    report.assert_passed();
}

/// Tentpole: with a recovery plane attached, a link flap *and* a lane
/// loss heal with **no** restore events anywhere in the plan — the PCS
/// retrain state machine re-acquires the flapped link, and the re-bond
/// policy brings the lane-lossed port back up on its survivors.
#[test]
fn recovery_plane_heals_flap_and_lane_loss_without_restore_events() {
    let policy = RecoveryPolicy {
        retrain_cycles: 400,  // 2 us at 200 MHz
        holddown_cycles: 100, // 500 ns
        rejoin_cycles: 800,
        scrub_words_per_cycle: 0,
        ..RecoveryPolicy::default()
    };
    let plan = FaultPlan::new(13)
        .bond(2, PortBond::ethernet_40g())
        .at(
            Time::from_us(20),
            FaultKind::LinkDown {
                port: 1,
                duration: Time::from_us(10),
            },
        )
        .at(
            Time::from_us(20),
            FaultKind::LaneLoss {
                port: 2,
                lanes_lost: 2,
            },
        )
        .with_recovery(policy);
    assert!(
        !plan
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::LaneRestore { .. })),
        "the schedule must not help: no restore events"
    );
    let mut sw = ReferenceSwitch::build(
        &ChassisConfig {
            faults: plan,
            ..ChassisConfig::new(&BoardSpec::sume(), 4)
        },
        1024,
        Time::from_ms(100),
        None,
    );

    // Learn: mac(1) lives on port 1, mac(2) on port 2.
    sw.chassis.send(1, frame(1, 0, 100));
    sw.chassis.send(2, frame(2, 0, 100));
    sw.chassis.run_for(Time::from_us(10));
    for p in 0..4 {
        sw.chassis.recv(p);
    }
    assert_eq!(sw.chassis.link_state(1), Some(LinkState::Up));

    // Into the fault window: unicast toward both wounded ports.
    sw.chassis.run_for(Time::from_us(15)); // now at 25 us
    assert_eq!(
        sw.chassis.link_state(1),
        Some(LinkState::Down),
        "flap seen by the PCS"
    );
    // Port 2's loss landed 5 us ago: hold-down (0.5 us) + retrain (2 us)
    // have already run, so it is *back up* — on the surviving lanes.
    assert_eq!(
        sw.chassis.link_state(2),
        Some(LinkState::Up),
        "already re-bonded"
    );
    sw.chassis.send(0, frame(0, 1, 200));
    sw.chassis.run_for(Time::from_us(2));
    assert!(sw.chassis.recv(1).is_empty(), "dropped while down");
    let faults = sw.chassis.faults.clone().expect("armed");
    assert!(faults.counters().link_down_drops.get() >= 1);

    // Give the window time to close and the PCS time to hold down and
    // retrain (signal back at 30 us; +0.5 us hold-down +2 us alignment).
    sw.chassis.run_for(Time::from_us(20)); // now at 47 us
    assert_eq!(
        sw.chassis.link_state(1),
        Some(LinkState::Up),
        "flap healed by retrain"
    );
    assert_eq!(sw.chassis.link_state(2), Some(LinkState::Up), "re-bonded");
    let pcs2 = sw.chassis.pcs_handle(2).expect("recovery plane");
    assert_eq!(pcs2.bonded_lanes(), 2, "running on the surviving lanes");
    assert_eq!(pcs2.counters().rebonds.get(), 1);

    // Forwarding works again on both ports, purely autonomically.
    sw.chassis.send(0, frame(0, 1, 300));
    sw.chassis.send(0, frame(0, 2, 300));
    sw.chassis.run_for(Time::from_us(20));
    assert_eq!(
        sw.chassis.recv(1),
        vec![frame(0, 1, 300)],
        "flapped port forwards"
    );
    assert_eq!(
        sw.chassis.recv(2),
        vec![frame(0, 2, 300)],
        "degraded port forwards"
    );

    // The transitions all reached the chassis event ring, stamped by port.
    let evs = sw.chassis.events.pending();
    let p1: Vec<EventKind> = evs.iter().filter(|e| e.port == 1).map(|e| e.kind).collect();
    let p2: Vec<EventKind> = evs.iter().filter(|e| e.port == 2).map(|e| e.kind).collect();
    assert_eq!(
        p1,
        [EventKind::LinkDown, EventKind::Retrain, EventKind::LinkUp]
    );
    assert_eq!(
        p2,
        [EventKind::LinkDown, EventKind::Retrain, EventKind::LinkUp]
    );
    assert_eq!(
        evs.iter()
            .find(|e| e.port == 2 && e.kind == EventKind::LinkUp)
            .unwrap()
            .data,
        2
    );

    // And the registry carries the per-port PCS statistics.
    let stats = netfpga_host::dump_stats(&mut sw.chassis);
    assert_eq!(stats["port1.pcs.downs"], 1);
    assert_eq!(stats["port1.pcs.retrains"], 1);
    assert_eq!(stats["port2.pcs.rebonds"], 1);
    assert_eq!(stats["port1.pcs.state"], LinkState::Up.code());
}

/// Satellite: the event ring drops on overflow by design, and the drop
/// count is surfaced as `events.dropped` in the telemetry registry.
#[test]
fn event_ring_overflow_is_counted_in_telemetry() {
    let (mut chassis, _io) = Chassis::new(&ChassisConfig::new(&BoardSpec::sume(), 1));
    assert_eq!(chassis.telemetry.get("events.dropped"), Some(0));
    // The chassis ring holds 64 events; push 70 straight into it.
    for i in 0..70u32 {
        chassis.events.push(netfpga_core::telemetry::Event {
            kind: EventKind::Fault,
            port: 0,
            data: i,
            at: Time::ZERO,
        });
    }
    assert_eq!(chassis.telemetry.get("events.dropped"), Some(6));
    chassis.attach_mmio();
    let stats = netfpga_host::dump_stats(&mut chassis);
    assert_eq!(stats["events.dropped"], 6, "drop count visible host-side");
}

/// Satellite: BlueSwitch table consistency under TCAM upsets. The whole
/// double-banked pipeline is registered with the fault plane as memory
/// `"flow_tcam"` (parity — detect, never repair), so scheduled `MemFlip`
/// events corrupt live key cells. The atomic-update guarantee must
/// survive: a corrupted rule can only *miss* (the packet falls through to
/// a lower-priority table or the table-miss punt), and no packet ever
/// sees rules of two configuration versions — even while a shadow-write
/// plus commit runs after the upset landed.
#[test]
fn blueswitch_tcam_upsets_never_mix_configurations() {
    use netfpga_mem::{TcamEntry, TernaryKey};
    use netfpga_projects::blueswitch::{
        ActionKind, BlueSwitch, FlowAction, FlowKeyBuilder, KEY_WIDTH,
    };

    // Flat upset index space: (table * 2 + bank) * capacity + slot.
    // Index 32 = table 1, active bank 0, slot 0; index 40 is an empty slot
    // of the same bank (a harmless upset in an invalid row).
    let plan = FaultPlan::new(7)
        .at(
            Time::from_us(30),
            FaultKind::MemFlip {
                memory: "flow_tcam".into(),
                index: 32,
                bit: 0,
            },
        )
        .at(
            Time::from_us(30),
            FaultKind::MemFlip {
                memory: "flow_tcam".into(),
                index: 40,
                bit: 3,
            },
        );
    let mut sw = BlueSwitch::build(
        &ChassisConfig {
            faults: plan,
            ..ChassisConfig::new(&BoardSpec::sume(), 4)
        },
        2,
        16,
    );

    // Config v1 (tag 1): table 0 catches everything to port 1; table 1
    // steers port-0 ingress to port 2 (last matching table wins).
    let out = |p: u8, tag: u64| FlowAction {
        kind: ActionKind::Output(PortMask::single(p)),
        tag,
    };
    sw.pipeline.borrow_mut().write_direct(
        0,
        TcamEntry {
            key: TernaryKey::wildcard(KEY_WIDTH),
            priority: 0,
            value: out(1, 1),
        },
    );
    sw.pipeline.borrow_mut().write_direct(
        1,
        TcamEntry {
            key: FlowKeyBuilder::new().in_port(0).build(),
            priority: 1,
            value: out(2, 1),
        },
    );

    // Before the upset: the table-1 rule wins.
    sw.chassis.send(0, frame(1, 2, 100));
    sw.chassis.run_for(Time::from_us(10));
    assert_eq!(sw.chassis.recv(2).len(), 1, "steered by table 1");

    // The upset flips value-plane bit 0 of the table-1 key — its in_port
    // byte — so port-0 traffic now *misses* table 1 and falls through to
    // the catch-all. Degraded, fail-safe, and tag-consistent.
    sw.chassis.run_for(Time::from_us(25)); // past the 30 us upsets
    sw.chassis.send(0, frame(1, 2, 100));
    sw.chassis.run_for(Time::from_us(10));
    assert!(
        sw.chassis.recv(2).is_empty(),
        "corrupted rule no longer matches"
    );
    assert_eq!(sw.chassis.recv(1).len(), 1, "fell through to the catch-all");

    // An atomic update still lands cleanly after the upset: shadow-write
    // config v2 (tag 2) into both tables and commit.
    {
        let mut p = sw.pipeline.borrow_mut();
        p.clear_shadow();
        for t in 0..2 {
            p.write_shadow(
                t,
                TcamEntry {
                    key: TernaryKey::wildcard(KEY_WIDTH),
                    priority: 0,
                    value: out(3, 2),
                },
            );
        }
        p.commit();
    }
    sw.chassis.send(0, frame(1, 2, 100));
    sw.chassis.run_for(Time::from_us(10));
    assert_eq!(sw.chassis.recv(3).len(), 1, "config v2 live after commit");

    // The invariant under fire, end to end: every packet classified, none
    // ever saw mixed tags; the landed upset was detected (parity), the
    // empty-slot upset was harmless — all visible host-side.
    let c = &sw.counters;
    assert_eq!(c.packets.get(), 3);
    assert_eq!(c.matched.get(), 3);
    assert_eq!(
        c.mixed_tag_packets.get(),
        0,
        "atomic semantics survive TCAM upsets"
    );
    let stats = netfpga_host::dump_stats(&mut sw.chassis);
    assert_eq!(stats["faults.mem.detected"], 1);
    assert_eq!(stats["faults.mem.missed"], 1);
    assert_eq!(stats["blueswitch.mixed_tag_packets"], 0);
}

#[test]
fn dma_windows_gate_the_nic_host_path() {
    let plan = FaultPlan::new(5).at(
        Time::from_us(10),
        FaultKind::DmaDrop {
            duration: Time::from_us(40),
        },
    );
    let mut nic = ReferenceNic::build(&ChassisConfig {
        faults: plan,
        ..ChassisConfig::new(&BoardSpec::sume(), 4)
    });
    let dma = nic.chassis.dma.clone().expect("NIC has DMA");
    let faults = nic.chassis.faults.clone().expect("armed");

    // Inside the drop window: the host-bound packet vanishes, counted.
    nic.chassis.run_for(Time::from_us(15));
    nic.chassis.send(0, frame(3, 4, 120));
    nic.chassis.run_for(Time::from_us(20));
    assert!(dma.recv().is_none(), "dropped in the window");
    assert_eq!(faults.dma_gate().dropped(), 1);

    // After the window: traffic flows again.
    nic.chassis.run_for(Time::from_us(30));
    nic.chassis.send(0, frame(3, 4, 120));
    nic.chassis.run_for(Time::from_us(30));
    assert!(dma.recv().is_some(), "recovered after the window");
    assert_eq!(faults.dma_gate().dropped(), 1);
}

#[test]
fn fault_registers_visible_over_mmio_on_plain_chassis() {
    // The fault block mounts like any project register block, so host
    // software sees fault statistics through the same MMIO path.
    let (mut chassis, _io) = Chassis::new(&ChassisConfig {
        faults: FaultPlan::new(1).at(
            Time::ZERO,
            FaultKind::LinkDown {
                port: 0,
                duration: Time::from_us(5),
            },
        ),
        ..ChassisConfig::new(&BoardSpec::sume(), 2)
    });
    chassis.attach_mmio();
    chassis.send(0, frame(1, 2, 100));
    chassis.run_for(Time::from_us(3));
    assert_eq!(chassis.read32(FAULTS_BASE + faultregs::LINK_DOWN_DROPS), 1);
    assert_eq!(chassis.read32(FAULTS_BASE + faultregs::EVENTS_APPLIED), 1);
}
