//! E2 — Line-rate operation across frame sizes and port speeds (§1/§2:
//! "a widely available open-source development platform capable of
//! line-rate operation", "I/O capabilities up to 100 Gbps").
//!
//! The classic NetFPGA table: offered load at exactly line rate for each
//! frame size; a design passes if its egress rate matches the theoretical
//! frames-per-second of the wire. Reproduced for the acceptance (pure
//! I/O), reference switch and reference router datapaths at 10 Gb/s, and
//! for the acceptance datapath at 40 and 100 Gb/s port configurations
//! (SUME expansion-lane bonding, wider bus) — and for the reference NIC's
//! host path: four 10G ports towards the host through the DMA engine,
//! against the closed form `min(4 × wire, 1 / max(bus, link))`.

use netfpga_bench::report::{write_json, Table};
use netfpga_bench::workloads::{board_at_rate, mac, udp_frame, FRAME_SIZES};
use netfpga_core::board::BoardSpec;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::stream::PortMask;
use netfpga_core::time::{BitRate, Time};
use netfpga_datapath::lpm::RouteEntry;
use netfpga_packet::{Ipv4Address, PacketBuilder};
use netfpga_phy::mac::line_rate_fps;
use netfpga_projects::blueswitch::{ActionKind, BlueSwitch, FlowAction};
use netfpga_projects::harness::Chassis;
use netfpga_projects::{
    AcceptanceTest, ReferenceNic, ReferenceRouter, ReferenceSwitch, SwitchLite,
};

const FRAMES: u64 = 300;

/// Measure egress rate on `out_port` after saturating with `frames` of
/// `len` bytes; returns measured Mpps (None if frames were lost).
fn measure(
    chassis: &mut Chassis,
    frame: Vec<u8>,
    in_port: usize,
    out_port: usize,
    frames: u64,
) -> Option<f64> {
    for _ in 0..frames {
        chassis.send(in_port, frame.clone());
    }
    let mut arrivals: Vec<Time> = Vec::new();
    let deadline = chassis.sim.now() + Time::from_ms(50);
    while (arrivals.len() as u64) < frames && chassis.sim.now() < deadline {
        chassis.run_for(Time::from_us(2));
        for (_, t) in chassis.recv_timed(out_port) {
            arrivals.push(t);
        }
    }
    if (arrivals.len() as u64) < frames {
        return None;
    }
    // Steady-state rate between first and last egress completion.
    let span = (*arrivals.last().unwrap() - arrivals[0]).as_secs_f64();
    Some((frames - 1) as f64 / span / 1e6)
}

fn row(t: &mut Table, design: &str, rate: BitRate, len: usize, measured: Option<f64>) {
    let theory = line_rate_fps(rate, len as u64) / 1e6;
    match measured {
        Some(m) => {
            let pct = m / theory * 100.0;
            t.row(&[
                design.to_string(),
                format!("{}", rate.as_gbps_f64() as u64),
                len.to_string(),
                format!("{theory:.3}"),
                format!("{m:.3}"),
                format!("{pct:.1}"),
            ]);
        }
        None => t.row(&[
            design.to_string(),
            format!("{}", rate.as_gbps_f64() as u64),
            len.to_string(),
            format!("{theory:.3}"),
            "LOSS".into(),
            "-".into(),
        ]),
    }
}

/// Four ports × 2 000 frames of `len` bytes at line rate towards the host,
/// the RX ring emptied on every core edge: the rate at which the ring
/// filled in Mpps, and the engine's `rx_drops`.
fn nic_c2h(fast_path: bool, len: usize) -> (f64, u64) {
    const PER_PORT: u64 = 2000;
    let mut nic = ReferenceNic::with_fast_path(&BoardSpec::sume(), 4, fast_path);
    let dma = nic.chassis.dma.clone().expect("the NIC has a DMA engine");
    let frame: PktBuf = udp_frame(len, 1, 0).into();
    for _ in 0..PER_PORT {
        for port in 0..4 {
            nic.chassis.send(port, frame.clone());
        }
    }
    let (mut first, mut last, mut delivered) = (None, Time::ZERO, 0u64);
    let deadline = Time::from_ms(5);
    while delivered < 4 * PER_PORT && nic.chassis.sim.now() < deadline {
        nic.chassis.sim.run_cycles(nic.chassis.clk, 1);
        while dma.recv().is_some() {
            last = nic.chassis.sim.now();
            first.get_or_insert(last);
            delivered += 1;
        }
    }
    let span = (last - first.expect("a delivery")).as_secs_f64();
    let drops = dma.counters().rx_drops.get();
    ((delivered - 1) as f64 / span / 1e6, drops)
}

fn main() {
    println!("E2: line-rate operation vs frame size (paper §1/§2)\n");
    let mut t = Table::new(
        "line rate",
        &[
            "design",
            "port_gbps",
            "frame_bytes",
            "theory_mpps",
            "measured_mpps",
            "pct_of_line",
        ],
    );

    // Acceptance (pure I/O loopback) at 10/40/100G.
    for gbps in [10u64, 40, 100] {
        let rate = BitRate::gbps(gbps);
        for len in FRAME_SIZES {
            let spec = board_at_rate(rate);
            let mut a = AcceptanceTest::new(&spec, 2);
            let m = measure(&mut a.chassis, udp_frame(len, 1, 0), 0, 0, FRAMES);
            row(&mut t, "acceptance", rate, len, m);
        }
    }

    // Reference switch at 10G: pre-learn the destination, then saturate.
    for len in FRAME_SIZES {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        // Prime: destination host (mac 0xe0) talks once from port 1.
        let prime = PacketBuilder::new()
            .eth(mac(0xe0), mac(0x01))
            .raw(netfpga_packet::EtherType::Ipv4, &[0; 46])
            .build();
        sw.chassis.send(1, prime);
        sw.chassis.run_for(Time::from_us(20));
        for p in 0..4 {
            sw.chassis.recv(p);
        }
        let m = measure(&mut sw.chassis, udp_frame(len, 1, 0), 0, 1, FRAMES);
        row(&mut t, "reference_switch", BitRate::gbps(10), len, m);
    }

    // Reference router at 10G: static tables, hardware fast path.
    for len in FRAME_SIZES {
        let r = ReferenceRouter::new(&BoardSpec::sume(), 4);
        {
            let mut tables = r.tables.borrow_mut();
            tables.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
            tables.lpm.insert(
                "10.0.100.0/24".parse().unwrap(),
                RouteEntry {
                    next_hop: Ipv4Address::UNSPECIFIED,
                    port: 1,
                },
            );
            for host in 0..=255u8 {
                tables
                    .arp
                    .insert(Ipv4Address::new(10, 0, 100, host), mac(0xb0));
            }
        }
        let mut r = r;
        // Flow 0 targets 10.0.100.2 (route above) out port 1.
        let m = measure(&mut r.chassis, udp_frame(len, 0, 0), 0, 1, FRAMES);
        row(&mut t, "reference_router", BitRate::gbps(10), len, m);
    }

    // switch_lite at 10G: same pre-learn trick.
    for len in FRAME_SIZES {
        let mut sw = SwitchLite::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        let prime = PacketBuilder::new()
            .eth(mac(0xe0), mac(0x01))
            .raw(netfpga_packet::EtherType::Ipv4, &[0; 46])
            .build();
        sw.chassis.send(1, prime);
        sw.chassis.run_for(Time::from_us(20));
        for p in 0..4 {
            sw.chassis.recv(p);
        }
        let m = measure(&mut sw.chassis, udp_frame(len, 1, 0), 0, 1, FRAMES);
        row(&mut t, "switch_lite", BitRate::gbps(10), len, m);
    }

    // BlueSwitch at 10G: one catch-all rule to port 1.
    for len in FRAME_SIZES {
        let mut sw = BlueSwitch::new(&BoardSpec::sume(), 4, 2, 16);
        sw.pipeline.borrow_mut().write_direct(
            0,
            netfpga_mem::TcamEntry {
                key: netfpga_mem::TernaryKey::wildcard(netfpga_projects::blueswitch::KEY_WIDTH),
                priority: 0,
                value: FlowAction {
                    kind: ActionKind::Output(PortMask::single(1)),
                    tag: 1,
                },
            },
        );
        let m = measure(&mut sw.chassis, udp_frame(len, 1, 0), 0, 1, FRAMES);
        row(&mut t, "blueswitch", BitRate::gbps(10), len, m);
    }

    t.print();

    // Full mesh: every port offers line rate to a distinct peer port
    // (0->1, 1->0, 2->3, 3->2). A non-blocking fabric sustains all four
    // simultaneously: aggregate = 4 x line rate.
    let mut mesh = Table::new(
        "4-port full mesh through the reference switch (508 B frames, 10G each)",
        &["offered_total_gbps", "achieved_total_gbps", "pct"],
    );
    {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        // Pre-learn every station: station i (mac 0xd0+i) lives on port i.
        for p in 0..4usize {
            let prime = PacketBuilder::new()
                .eth(mac(0xd0 + p as u8), mac(0x01))
                .raw(netfpga_packet::EtherType::Ipv4, &[0; 46])
                .build();
            sw.chassis.send(p, prime);
            sw.chassis.run_for(Time::from_us(20));
        }
        for p in 0..4 {
            sw.chassis.recv(p);
        }
        let pairs = [(0usize, 1usize), (1, 0), (2, 3), (3, 2)];
        let n = 400u64;
        for &(src, dst) in &pairs {
            let frame = PacketBuilder::new()
                .eth(mac(0xd0 + src as u8), mac(0xd0 + dst as u8))
                .ipv4(
                    netfpga_packet::Ipv4Address::new(10, 0, 0, src as u8),
                    netfpga_packet::Ipv4Address::new(10, 0, 0, dst as u8),
                )
                .udp(1, 2, &[])
                .pad_to(508)
                .build();
            for _ in 0..n {
                sw.chassis.send(src, frame.clone());
            }
        }
        // Offered duration: n frames x wire time at 10G.
        let wire_time = netfpga_phy::mac::wire_bytes(508) * 8 * 100; // ps
        let offered_span = Time::from_ps(n * wire_time);
        sw.chassis.run_for(offered_span + Time::from_us(100));
        let mut total_bytes = 0u64;
        for p in 0..4 {
            total_bytes += sw
                .chassis
                .recv(p)
                .iter()
                .map(|f| f.len() as u64)
                .sum::<u64>();
        }
        let achieved = total_bytes as f64 * 8.0 / offered_span.as_secs_f64() / 1e9;
        let offered = 4.0 * 508.0 / 532.0 * 10.0;
        mesh.row(&[
            format!("{offered:.1}"),
            format!("{achieved:.1}"),
            format!("{:.1}", achieved / offered * 100.0),
        ]);
        assert!(achieved / offered > 0.97, "fabric must be non-blocking");
    }
    mesh.print();

    // Reference NIC, card to host. The closed form is written out here, not
    // read from the engine: a frame costs the DMA engine the longer of its
    // beats on the 32-byte 200 MHz bus and its TLPs (24 B of framing per
    // 256 B of payload) on PCIe Gen3 x8 (8 GT/s × 8 lanes, 128b/130b).
    let mut c2h = Table::new(
        "reference_nic_c2h",
        &[
            "engine",
            "frame_bytes",
            "offered_mpps",
            "bus_ns",
            "link_ns",
            "theory_mpps",
            "measured_mpps",
            "pct_of_theory",
            "rx_drops",
        ],
    );
    for (engine, fast_path) in [("word", false), ("burst", true)] {
        for len in FRAME_SIZES {
            let offered = 4.0 * line_rate_fps(BitRate::gbps(10), len as u64) / 1e6;
            let bus_ns = len.div_ceil(32) as f64 * 5.0;
            let link_ns = (len + len.div_ceil(256) * 24) as f64 * 8.0 / (64.0 * 128.0 / 130.0);
            let theory = offered.min(1e3 / bus_ns.max(link_ns));
            let (measured, rx_drops) = nic_c2h(fast_path, len);
            let pct = measured / theory * 100.0;
            c2h.row(&[
                engine.to_string(),
                len.to_string(),
                format!("{offered:.3}"),
                format!("{bus_ns:.1}"),
                format!("{link_ns:.1}"),
                format!("{theory:.3}"),
                format!("{measured:.3}"),
                format!("{pct:.1}"),
                rx_drops.to_string(),
            ]);
            assert!(
                pct >= 99.0 && rx_drops == 0,
                "the NIC must drain 4 x 10G to the host: {engine} engine, {len} B, \
                 {pct:.1} % of the closed form, {rx_drops} rx_drops"
            );
        }
    }
    c2h.print();
    write_json("BENCH_line_rate.json", &[t, mesh, c2h]).expect("write BENCH_line_rate.json");

    println!(
        "shape check: every design sustains ~100% of line rate at every frame size\n\
         (store-and-forward designs with datapath capacity > port rate never drop),\n\
         the switch fabric is non-blocking under 4-port full-mesh load, and the\n\
         reference NIC's DMA engine drains four ports to the host."
    );
}
