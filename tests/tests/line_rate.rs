//! Finding 3 of the referee benchmark, settled: the word-level switch and
//! router read 1–4 % under the closed-form wire rate
//! (`dev_line_rate_err_ppm` ≈ 12 000–45 000) where the burst-mode rows read
//! under 60 ppm. The referee takes a rate from the first to the last egress
//! completion of a slice; a store-and-forward device's latency grows with
//! the frame (its own egress serialisation, plus, a word per cycle, three
//! hops absorbing it whole), so that span is the ingress span plus
//! `latency(last) − latency(first)` — zero for the burst-mode rows only
//! because their frames are all one size. These tests pin that the shift is the
//! whole figure and that the wire itself loses nothing: what is left once
//! the lengths match is the RX MAC sampling the wire on the 5 ns core clock
//! — under one period, and it does not accumulate.
//!
//! Finding 4, fixed: the reference NIC's host path. The DMA engine absorbs
//! the next frame while one crosses PCIe, so a frame costs it
//! `max(bus, link)` and four ports at line rate fit (the last test here).

use netfpga_core::board::BoardSpec;
use netfpga_core::time::{BitRate, Time};
use netfpga_core::SimRng;
use netfpga_datapath::lpm::RouteEntry;
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netfpga_pcie::PcieConfig;
use netfpga_phy::wire_bytes;
use netfpga_projects::{Chassis, ReferenceNic, ReferenceRouter, ReferenceSwitch};

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

fn frame(len: usize) -> Vec<u8> {
    PacketBuilder::new()
        .eth(mac(1), mac(2))
        .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
        .udp(1000, 2000, &[])
        .pad_to(len)
        .build()
}

/// One period of the 200 MHz core clock: the grain at which an RX MAC
/// notices a frame has arrived.
const CORE_PERIOD: Time = Time::from_ns(5);

/// `|a − b|`.
fn apart(a: Time, b: Time) -> Time {
    a.max(b) - a.min(b)
}

fn wire_time(len: usize) -> Time {
    BitRate::gbps(10).time_for_bytes(wire_bytes(len as u64))
}

/// A word-level switch that knows station 2 lives on port 1.
fn taught_switch() -> ReferenceSwitch {
    taught(false)
}

/// The same, word-level or in burst mode.
fn taught(fast_path: bool) -> ReferenceSwitch {
    let mut sw =
        ReferenceSwitch::with_fast_path(&BoardSpec::sume(), 4, 1024, Time::from_ms(100), fast_path);
    let mut reply = frame(60);
    reply[..6].copy_from_slice(mac(9).as_bytes());
    reply[6..12].copy_from_slice(mac(2).as_bytes());
    sw.chassis.send(1, reply);
    sw.chassis.run_for(Time::from_us(5));
    for p in 0..4 {
        sw.chassis.recv(p);
    }
    sw
}

/// Offer `lens` back to back on port `from` and return, per frame, when its
/// last bit was in (the tester's own pacing) and when its last bit was out
/// on port `to`.
fn offer(chassis: &mut Chassis, from: usize, to: usize, lens: &[usize]) -> Vec<(Time, Time)> {
    let mut ingress = chassis.sim.now();
    let sent: Vec<Time> = lens
        .iter()
        .map(|&len| {
            chassis.send(from, frame(len));
            ingress += wire_time(len);
            ingress
        })
        .collect();
    chassis.run_for(Time::from_us(5) + Time::from_ps(2 * (ingress.as_ps())));
    let out = chassis.recv_timed(to);
    assert_eq!(out.len(), lens.len(), "every frame delivered");
    sent.into_iter()
        .zip(out)
        .map(|(i, (_, e))| (i, e))
        .collect()
}

/// `|measured − closed form| ÷ closed form` as the referee computes it for
/// one egress port of one slice.
fn referee_ppm(lens: &[usize], times: &[(Time, Time)]) -> f64 {
    let span = times[times.len() - 1].1 - times[0].1;
    let wire_sum: u64 = lens[1..].iter().map(|&l| wire_time(l).as_ps()).sum();
    let offered = times[times.len() - 1].0 - times[0].0;
    let closed = wire_sum.max(offered.as_ps()) as f64;
    let measured = 1.0 / span.as_ps() as f64;
    (measured - 1.0 / closed).abs() * closed * 1e6
}

/// Frames `len` bytes long, back to back, leave spaced by their wire time:
/// every gap within one core-clock period of it, and — the sampling error
/// does not accumulate — so does the whole run of them.
fn assert_wire_rate(len: usize, times: &[(Time, Time)]) {
    for pair in times.windows(2) {
        let gap = pair[1].1 - pair[0].1;
        assert!(
            apart(gap, wire_time(len)) < CORE_PERIOD,
            "{len} B gap {gap}"
        );
    }
    let span = times[times.len() - 1].1 - times[0].1;
    let ideal = Time::from_ps((times.len() as u64 - 1) * wire_time(len).as_ps());
    assert!(apart(span, ideal) < CORE_PERIOD, "{len} B span {span}");
}

/// Fixed-size frames back to back leave the word-level switch at the wire
/// rate, at every IMIX size: under 400 ppm over 200 frames, all of it the
/// one sampling period.
#[test]
fn fixed_size_frames_leave_at_the_wire_rate() {
    for len in [60, 570, 1514] {
        let mut sw = taught_switch();
        let lens = vec![len; 200];
        let times = offer(&mut sw.chassis, 0, 1, &lens);
        assert_wire_rate(len, &times);
        assert!(referee_ppm(&lens, &times) < 400.0);
    }
}

/// The same on the word-level router (finding 3 names it too): one route,
/// fixed 252 B frames.
#[test]
fn router_forwards_fixed_size_frames_at_the_wire_rate() {
    let mut r = ReferenceRouter::new(&BoardSpec::sume(), 4);
    {
        let mut t = r.tables.borrow_mut();
        t.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
        t.lpm.insert(
            "10.0.0.0/24".parse().unwrap(),
            RouteEntry {
                next_hop: Ipv4Address::UNSPECIFIED,
                port: 2,
            },
        );
        t.arp.insert(Ipv4Address::new(10, 0, 0, 2), mac(0x77));
    }
    let lens = vec![252; 200];
    let times = offer(&mut r.chassis, 0, 2, &lens);
    assert_wire_rate(252, &times);
}

/// Under IMIX the referee's figure is the latency difference between a
/// slice's last and first frame and nothing else: a slice that starts and
/// ends on frames of one length reads next to nothing whatever is in
/// between, and one that starts on 60 B and ends on 1514 B reads
/// `(latency(1514) − latency(60)) ÷ span` — tens of thousands of ppm for a
/// slice the referee's size, without an idle bit the offered load did not
/// have (both to within the one sampling period).
#[test]
fn imix_line_rate_error_is_the_latency_difference_alone() {
    // Latency of a lone frame of each size: what an unqueued frame sees.
    let lone = |len: usize| {
        let mut sw = taught_switch();
        let t = offer(&mut sw.chassis, 0, 1, &[len]);
        t[0].1 - t[0].0
    };
    let (lat_60, lat_1514) = (lone(60), lone(1514));
    assert!(
        lat_1514 > lat_60 + Time::from_ns(1500),
        "store-and-forward: {lat_60} vs {lat_1514}"
    );

    let mut rng = SimRng::new(3);
    let mut middle: Vec<usize> = (0..123)
        .map(|_| match rng.below(12) {
            0..=6 => 60,
            7..=10 => 570,
            _ => 1514,
        })
        .collect();
    // The last frame follows a short one, so it meets an idle TX wire.
    middle.push(60);

    // Starts and ends on 1514 B: the span is the ingress span.
    let lens: Vec<usize> = [&[1514][..], &middle, &[1514]].concat();
    let mut sw = taught_switch();
    let times = offer(&mut sw.chassis, 0, 1, &lens);
    let egress_span = times[times.len() - 1].1 - times[0].1;
    let ingress_span = times[times.len() - 1].0 - times[0].0;
    assert!(apart(egress_span, ingress_span) < CORE_PERIOD);
    assert!(referee_ppm(&lens, &times) < 200.0);

    // Starts on 60 B instead: the span grows by the latency difference.
    let lens: Vec<usize> = [&[60][..], &middle, &[1514]].concat();
    let mut sw = taught_switch();
    let times = offer(&mut sw.chassis, 0, 1, &lens);
    let egress_span = times[times.len() - 1].1 - times[0].1;
    let ingress_span = times[times.len() - 1].0 - times[0].0;
    assert!(apart(egress_span - ingress_span, lat_1514 - lat_60) < CORE_PERIOD);
    let ppm = referee_ppm(&lens, &times);
    let predicted = (lat_1514 - lat_60).as_ps() as f64 / egress_span.as_ps() as f64 * 1e6;
    assert!((ppm - predicted).abs() < 200.0, "{ppm} vs {predicted}");
    assert!((10_000.0..80_000.0).contains(&ppm), "{ppm} ppm");

    // Not a property of word pacing: the burst-mode switch, whose datapath
    // latency does not grow with the frame, reads 3 % on the same slice —
    // the egress serialisation of the last frame against the first's. The
    // referee's burst-mode rows read under 60 ppm because their frames are
    // all one size.
    let mut sw = taught(true);
    let times = offer(&mut sw.chassis, 0, 1, &lens);
    let burst_ppm = referee_ppm(&lens, &times);
    let serialisation = (wire_time(1514) - wire_time(60)).as_ps() as f64;
    let predicted = serialisation / (times[times.len() - 1].1 - times[0].1).as_ps() as f64 * 1e6;
    assert!(
        (burst_ppm - predicted).abs() < 1_000.0,
        "{burst_ppm} vs {predicted}"
    );
}

/// The reference NIC drains 4 × 10G to the host, word-level and fast path:
/// 2 000 frames a port at line rate, the RX ring emptied on every core edge
/// so each delivery carries its instant. The ring fills at the closed form
/// `min(4 × wire, 1 / max(beats × period, transfer_time))` — the wire, on
/// SUME — nothing is dropped, and the last hundred frames wait no longer
/// between wire and ring than the first hundred did. (The serial engine,
/// `bus + link` a frame, reached 68–84 % and its latency grew without end.)
#[test]
fn reference_nic_drains_four_ports_to_the_host() {
    for fast_path in [false, true] {
        for len in [60, 508, 1514] {
            let mut nic = ReferenceNic::with_fast_path(&BoardSpec::sume(), 4, fast_path);
            let dma = nic.chassis.dma.clone().unwrap();
            let offered = frame(len);
            for _ in 0..2000 {
                for port in 0..4 {
                    nic.chassis.send(port, offered.clone());
                }
            }
            // (delivery instant, wire → ring latency) in ring order.
            let mut ring = Vec::new();
            let edges = 2010 * wire_time(len).as_ps() / CORE_PERIOD.as_ps();
            for _ in 0..edges {
                nic.chassis.sim.run_cycles(nic.chassis.clk, 1);
                let now = nic.chassis.sim.now();
                while let Some((_, meta)) = dma.recv() {
                    ring.push((now, now - meta.ingress_time));
                }
            }
            let what = format!("{len} B, fast path {fast_path}");
            assert_eq!(ring.len(), 8000, "{what}");
            assert_eq!(dma.counters().rx_drops.get(), 0, "{what}");

            let beats = len.div_ceil(nic.chassis.bus_width()) as u64;
            let engine =
                (beats * CORE_PERIOD.as_ps()).max(PcieConfig::gen3_x8().transfer_time(len).as_ps());
            let closed_form_ps = engine.max(wire_time(len).as_ps() / 4) as f64;
            let span = ring[ring.len() - 1].0 - ring[0].0;
            let per_frame_ps = span.as_ps() as f64 / (ring.len() - 1) as f64;
            assert!(
                closed_form_ps / per_frame_ps >= 0.995,
                "{what}: a frame per {per_frame_ps} ps, closed form {closed_form_ps} ps"
            );

            let worst = |part: &[(Time, Time)]| part.iter().map(|&(_, l)| l).max().unwrap();
            let (first, last) = (worst(&ring[..100]), worst(&ring[7900..]));
            assert!(
                last <= first + wire_time(len),
                "{what}: wire → ring {first} at the start, {last} at the end"
            );
        }
    }
}
