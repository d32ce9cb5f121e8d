//! Word-mode goldens: what the default, cycle-exact pacing of every project
//! delivers — frames, instants, counters, cycle counts — pinned as FNV
//! signatures in `fixtures/word_mode.golden`. The fixture names the commit
//! it was captured on; a change to how the word-level pipeline is *executed*
//! must reproduce every signature, because none of it may change what the
//! modelled device does.

use netfpga_core::board::BoardSpec;
use netfpga_core::packetio::{PacketSink, PacketSource};
use netfpga_core::sim::Simulator;
use netfpga_core::stream::{Meta, PortMask, Stream};
use netfpga_core::telemetry::StatRegistry;
use netfpga_core::time::{BitRate, Frequency, Time};
use netfpga_core::{PktBuf, SimRng};
use netfpga_datapath::lpm::RouteEntry;
use netfpga_datapath::{Fifo, InputArbiter, OutputQueues, PacketStage, QueueConfig, StageAction};
use netfpga_integration::golden::{check, Sig, WORD_MODE};
use netfpga_mem::{TcamEntry, TernaryKey};
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netfpga_phy::mac::{wire_bytes, EthMacRx, EthMacTx, Wire, WireFrame};
use netfpga_projects::blueswitch::{ActionKind, FlowAction, FlowKeyBuilder, KEY_WIDTH};
use netfpga_projects::osnt::GeneratorConfig;
use netfpga_projects::{BlueSwitch, Chassis, OsntTester, ReferenceRouter, ReferenceSwitch};

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

fn udp(src: u8, dst: Ipv4Address, ttl: u8, len: usize) -> Vec<u8> {
    PacketBuilder::new()
        .eth(mac(src), mac(0xe0))
        .ipv4(Ipv4Address::new(10, 9, 0, src), dst)
        .ttl(ttl)
        .udp(1000, 2000, &[src; 8])
        .pad_to(len)
        .build()
}

/// Drain every port's egress wire into the signature: `(port, bytes,
/// ready_at)` in order.
fn fold_egress(sig: &mut Sig, chassis: &mut Chassis) {
    for port in 0..chassis.nports() {
        for (frame, at) in chassis.recv_timed(port) {
            sig.u64(port as u64).bytes(&frame).time(at);
        }
    }
}

/// What is left to observe once a chassis run is over.
fn fold_chassis(sig: &mut Sig, chassis: &mut Chassis) {
    fold_egress(sig, chassis);
    sig.registry(&chassis.telemetry.snapshot())
        .time(chassis.sim.now())
        .u64(chassis.sim.cycles(chassis.clk));
}

/// IMIX 7:4:1 of 60/570/1514 B at line rate on the full mesh 0↔1, 2↔3 of
/// the word-level reference switch, one taught station per port.
fn switch_imix(seed: u64) -> u64 {
    let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
    let frame = |src: u8, dst: u8, len: usize| {
        PacketBuilder::new()
            .eth(mac(src), mac(dst))
            .ipv4(
                Ipv4Address::new(10, 0, 0, src),
                Ipv4Address::new(10, 0, 0, dst),
            )
            .udp(1000, 2000, &[])
            .pad_to(len)
            .build()
    };
    let mut sig = Sig::new();
    for p in 0..4u8 {
        sw.chassis.send(usize::from(p), frame(p + 1, 0xee, 60));
        sw.chassis.run_for(Time::from_us(5));
    }
    fold_egress(&mut sig, &mut sw.chassis);
    let mut rng = SimRng::new(seed);
    for _ in 0..150 {
        for p in 0..4u8 {
            let len = match rng.below(12) {
                0..=6 => 60,
                7..=10 => 570,
                _ => 1514,
            };
            sw.chassis
                .send(usize::from(p), frame(p + 1, (p ^ 1) + 1, len));
        }
    }
    for _ in 0..8 {
        sw.chassis.run_for(Time::from_us(40));
        fold_egress(&mut sig, &mut sw.chassis);
    }
    assert!(sw.chassis.sim.all_quiescent(), "the mesh drained");
    fold_chassis(&mut sig, &mut sw.chassis);
    sig.finish()
}

/// 252 B UDP frames through the reference router, every 64th on a port
/// with TTL 1 and so punted to the CPU over the (word-level) DMA engine.
fn router_punts(seed: u64) -> u64 {
    let mut r = ReferenceRouter::new(&BoardSpec::sume(), 4);
    {
        let mut t = r.tables.borrow_mut();
        t.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
        for net in 0..16u8 {
            t.lpm.insert(
                format!("10.{net}.0.0/16").parse().unwrap(),
                RouteEntry {
                    next_hop: Ipv4Address::new(192, 168, net % 4, 1),
                    port: net % 4,
                },
            );
        }
        for port in 0..4u8 {
            t.arp
                .insert(Ipv4Address::new(192, 168, port, 1), mac(0x70 + port));
        }
    }
    let mut rng = SimRng::new(seed);
    for i in 0..192u32 {
        for p in 0..4u8 {
            let dst = Ipv4Address::new(10, rng.below(16) as u8, 1, rng.below(250) as u8 + 1);
            let ttl = if i % 64 == 17 { 1 } else { 64 };
            r.chassis.send(usize::from(p), udp(p + 1, dst, ttl, 252));
        }
    }
    let mut sig = Sig::new();
    let dma = r.chassis.dma.clone().expect("router has a CPU port");
    for _ in 0..8 {
        r.chassis.run_for(Time::from_us(10));
        fold_egress(&mut sig, &mut r.chassis);
        while let Some((packet, meta)) = dma.recv() {
            sig.bytes(&packet)
                .u64(u64::from(meta.src_port))
                .u64(u64::from(meta.flags));
        }
    }
    assert_eq!(r.counters.to_cpu.get(), 12, "1 in 64 per port punted");
    fold_chassis(&mut sig, &mut r.chassis);
    sig.finish()
}

/// BlueSwitch: port 0 forwarded to port 3 by rule, port 1 flooded to two
/// ports, everything else a table miss punted to the controller.
fn blueswitch_mix(seed: u64) -> u64 {
    let mut sw = BlueSwitch::new(&BoardSpec::sume(), 4, 2, 64);
    let output = |ports: PortMask| FlowAction {
        kind: ActionKind::Output(ports),
        tag: 1,
    };
    {
        let mut p = sw.pipeline.borrow_mut();
        p.write_direct(
            0,
            TcamEntry {
                key: FlowKeyBuilder::new().in_port(0).build(),
                priority: 1,
                value: output(PortMask::single(3)),
            },
        );
        p.write_direct(
            0,
            TcamEntry {
                key: FlowKeyBuilder::new().in_port(1).build(),
                priority: 1,
                value: output(PortMask(0b0101)),
            },
        );
        p.write_direct(
            1,
            TcamEntry {
                key: TernaryKey::wildcard(KEY_WIDTH),
                priority: 0,
                value: output(PortMask::EMPTY),
            },
        );
    }
    let mut rng = SimRng::new(seed);
    for _ in 0..60 {
        for p in 0..3u8 {
            let len = [60, 300, 1514][rng.below(3) as usize];
            let dst = Ipv4Address::new(10, 0, 0, 9);
            sw.chassis.send(usize::from(p), udp(p + 1, dst, 64, len));
        }
    }
    let mut sig = Sig::new();
    let dma = sw.chassis.dma.clone().expect("controller port");
    for _ in 0..10 {
        sw.chassis.run_for(Time::from_us(20));
        fold_egress(&mut sig, &mut sw.chassis);
        while let Some((packet, meta)) = dma.recv() {
            sig.bytes(&packet).u64(u64::from(meta.src_port));
        }
    }
    fold_chassis(&mut sig, &mut sw.chassis);
    sig.finish()
}

/// OSNT: two ports each probing the other through a delayed link.
fn osnt_probes() -> u64 {
    let mut o = OsntTester::new(&BoardSpec::sume(), 2);
    for (from, to) in [(0, 1), (1, 0)] {
        let (_, from_board) = o.chassis.port_wires(from);
        let (to_board, _) = o.chassis.port_wires(to);
        o.chassis.add_link(
            &format!("link{from}"),
            from_board,
            to_board,
            netfpga_phy::LinkConfig::default(),
        );
    }
    o.generators[0].start(GeneratorConfig::probe(1, BitRate::gbps(9), 1514, 40));
    o.generators[1].start(GeneratorConfig::probe(2, BitRate::gbps(4), 124, 200));
    o.chassis.run_for(Time::from_us(120));
    let mut sig = Sig::new();
    for cap in &o.captures {
        for r in cap.records() {
            sig.u64(u64::from(r.stream_id))
                .u64(r.seq)
                .time(r.tx_time)
                .time(r.rx_time);
        }
    }
    assert_eq!(o.captures[1].count(), 40);
    assert_eq!(o.captures[0].count(), 200);
    fold_chassis(&mut sig, &mut o.chassis);
    sig.finish()
}

/// Source → stage → sink with the stage on its own clock: both streams
/// cross a clock domain, in both rank orders.
fn two_domains(stage_mhz: u64) -> u64 {
    let mut sim = Simulator::new();
    let edge = sim.add_clock("edge", Frequency::mhz(200));
    let core = sim.add_clock("core", Frequency::mhz(stage_mhz));
    let (in_tx, in_rx) = Stream::new(8, 32);
    let (out_tx, out_rx) = Stream::new(8, 32);
    let (src, inject) = PacketSource::new("src", in_tx);
    let stage = PacketStage::new(
        "stage",
        in_rx,
        out_tx,
        5,
        |_p: &mut PktBuf, m: &mut Meta, _t: Time| {
            m.dst_ports = PortMask::single(1);
            StageAction::Forward
        },
    );
    let (sink, captured) = PacketSink::new("sink", out_rx);
    sim.add_module(edge, src);
    sim.add_module(core, stage);
    sim.add_module(edge, sink);
    let mut rng = SimRng::new(stage_mhz);
    for i in 0..40u8 {
        inject.push(vec![i; rng.range(1, 1600) as usize], i % 4);
    }
    sim.run_until(Time::from_us(40));
    let mut sig = Sig::new();
    assert_eq!(captured.total_packets(), 40);
    for c in captured.drain() {
        sig.bytes(&c.data)
            .u64(u64::from(c.meta.src_port))
            .time(c.meta.ingress_time)
            .time(c.arrival);
    }
    sig.time(sim.now())
        .u64(sim.cycles(edge))
        .u64(sim.cycles(core));
    sig.finish()
}

/// `nports` RX MACs → arbiter → stage → queues → TX MAC on one clock, every
/// FIFO `depth` words deep. Every port receives a 48-beat frame at the same
/// instant, so with two ports the second waits in its RX FIFO while the
/// arbiter serves the first — whole when the FIFO is 64 deep, eight beats
/// of it when it is 8 — and a soft reset is requested `offset` cycles after
/// the first enters the datapath; shorter frames follow. Everything the
/// reset can change goes into the signature.
fn soft_reset_at(nports: usize, depth: usize, offset: u64) -> u64 {
    const W: usize = 32;
    let rate = BitRate::gbps(10);
    let registry = StatRegistry::new();
    let mut sim = Simulator::new();
    let clk = sim.add_clock("core", Frequency::mhz(200));
    let wires_in: Vec<Wire> = (0..nports).map(|_| Wire::new()).collect();
    let wire_out = Wire::new();
    let mut inputs = Vec::new();
    for (p, wire) in wires_in.iter().enumerate() {
        let (tx, rx) = Stream::new(depth, W);
        let (mac_rx, stats) = EthMacRx::new(&format!("mac{p}_rx"), wire.clone(), tx, p as u8);
        stats.register_stats(&registry, &format!("port{p}.mac.rx"));
        sim.add_module(clk, mac_rx);
        inputs.push(rx);
    }
    let (tx_tx, tx_rx) = Stream::new(depth, W);
    let (mac_tx, tx_stats) = EthMacTx::new("mac_tx", rate, tx_rx, wire_out.clone());
    tx_stats.register_stats(&registry, "mac.tx");
    let (arb_tx, arb_rx) = Stream::new(depth, W);
    let arbiter = InputArbiter::new("arbiter", inputs, arb_tx);
    let (stage_tx, stage_rx) = Stream::new(depth, W);
    let stage = PacketStage::new(
        "stage",
        arb_rx,
        stage_tx,
        3,
        |_p: &mut PktBuf, m: &mut Meta, _t: Time| {
            m.dst_ports = PortMask::single(0);
            StageAction::Forward
        },
    );
    stage.counters().register_stats(&registry, "stage");
    let oq = OutputQueues::new("oq", stage_rx, vec![tx_tx], QueueConfig::default(), || {
        Box::new(Fifo)
    });
    oq.counters().register_stats(&registry, "oq");
    sim.add_module(clk, mac_tx);
    sim.add_module(clk, arbiter);
    sim.add_module(clk, stage);
    sim.add_module(clk, oq);

    for (p, wire) in wires_in.iter().enumerate() {
        let mut busy = Time::from_ns(100);
        for (i, len) in [1514usize, 570, 60].into_iter().enumerate() {
            busy += rate.time_for_bytes(wire_bytes(len as u64));
            wire.push(WireFrame::new(vec![(p * 16 + i + 1) as u8; len], busy));
        }
    }
    // The long frames are ready 1330.4 ns in: the edge of cycle 266 (the
    // last of these) takes them.
    sim.run_cycles(clk, 267 + offset);
    sim.soft_reset_line().request();
    sim.run_until(Time::from_us(12));
    let mut sig = Sig::new();
    while let Some(f) = wire_out.take_ready(Time::from_ms(1)) {
        sig.bytes(&f.data).time(f.ready_at);
    }
    sig.registry(&registry.snapshot())
        .time(sim.now())
        .u64(sim.cycles(clk));
    sig.finish()
}

#[test]
fn projects_reproduce_their_word_mode_goldens() {
    let actual = vec![
        ("switch_imix.seed1".to_string(), switch_imix(1)),
        ("switch_imix.seed7".to_string(), switch_imix(7)),
        ("router_punts.seed1".to_string(), router_punts(1)),
        ("blueswitch_mix.seed1".to_string(), blueswitch_mix(1)),
        ("osnt_probes".to_string(), osnt_probes()),
        ("two_domains.156".to_string(), two_domains(156)),
        ("two_domains.250".to_string(), two_domains(250)),
    ];
    check(WORD_MODE, &actual);
}

/// A soft reset at every cycle offset of a 48-beat frame's passage —
/// through FIFOs that hold it whole (64) and FIFOs that split it (8): what
/// was delivered, every `dropped`/`bad_fcs` counter, and when the frames
/// behind it left, all as the per-beat pipeline had it.
///
/// At some offsets the per-beat pipeline of the capturing commit panicked
/// ("sop inside packet": the cut frame's `sop` was still queued in front of
/// a reassembler that then met the next frame's), and the fixture holds
/// that as the golden. A reassembler now restarts the first frame after its
/// resync on a second `sop`, so most of those offsets deliver; they are
/// compared as the capture had them, and must panic exactly where the
/// reset cuts a frame on *both* ports — the stage restarts on the first
/// and meets the second in steady state, which is what the watchdog's
/// drain window still exists to avoid. Every other offset must not panic
/// and is compared bit for bit.
#[test]
fn soft_reset_mid_frame_reproduces_the_word_mode_goldens() {
    const PANICKED: u64 = 0xdead_dead_dead_dead;
    let panicked_at_capture = |nports, depth, offset: u64| match (nports, depth) {
        (1, _) => offset == 97,
        (_, 64) => offset <= 46 || (95..=111).contains(&offset),
        _ => offset <= 47 || (95..=113).contains(&offset),
    };
    let still_panics = |nports, offset: u64| nports == 2 && (95..=111).contains(&offset);
    let soft_reset_at = |nports, depth, offset| {
        let now = std::panic::catch_unwind(|| soft_reset_at(nports, depth, offset)).ok();
        if panicked_at_capture(nports, depth, offset) {
            assert_eq!(
                now.is_none(),
                still_panics(nports, offset),
                "{nports} ports, depth {depth}, offset {offset}"
            );
            return PANICKED;
        }
        now.unwrap_or(PANICKED)
    };
    let mut actual = Vec::new();
    for (nports, depth) in [(1, 64), (2, 64), (2, 8)] {
        let mut all = Sig::new();
        for offset in 0..130 {
            all.u64(soft_reset_at(nports, depth, offset));
        }
        actual.push((
            format!("soft_reset.{nports}port.depth{depth}"),
            all.finish(),
        ));
        // A few single offsets, so a mismatch says where to look.
        for offset in [0, 7, 8, 47, 48, 49, 60, 95, 96, 110] {
            actual.push((
                format!("soft_reset.{nports}port.depth{depth}.offset{offset}"),
                soft_reset_at(nports, depth, offset),
            ));
        }
    }
    check(WORD_MODE, &actual);
}
