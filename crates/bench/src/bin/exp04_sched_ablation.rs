//! E4 — The scheduler ablation (paper §3: "a researcher may choose to
//! explore aspects of hardware-based scheduling, and thus add a new
//! scheduling module to the existing reference router design").
//!
//! Exactly that: the reference router is rebuilt five times, identical in
//! every respect except the output-queue scheduler (FIFO, RR, DRR,
//! strict-priority, WFQ). Three competing flows with asymmetric packet
//! sizes and classes converge on one egress port at 3:1 overload; we
//! report per-flow goodput, Jain's fairness index, and latency
//! percentiles for the high-priority class.

use netfpga_bench::workloads::{mac, udp_frame};
use netfpga_bench::Table;
use netfpga_core::board::BoardSpec;
use netfpga_core::stats::{jain_fairness, Histogram};
use netfpga_core::time::Time;
use netfpga_datapath::lpm::RouteEntry;
use netfpga_datapath::queues::QueueConfig;
use netfpga_datapath::sched::{
    DeficitRoundRobin, Fifo, RoundRobin, Scheduler, StrictPriority, WeightedFair,
};
use netfpga_datapath::ParsedHeaders;
use netfpga_packet::Ipv4Address;
use netfpga_projects::{ChassisConfig, ReferenceRouter};

/// Flow profiles: (flow id, frame length, DSCP -> class).
/// Class 0 (DSCP 46, EF) is the "high priority" small-packet flow.
const FLOWS: [(u8, usize, u8); 3] = [(0, 124, 46), (1, 1514, 0), (2, 508, 0)];

fn class_of_dscp(dscp: u8) -> usize {
    if dscp == 46 {
        0
    } else {
        1
    }
}

struct Outcome {
    sched: &'static str,
    goodput: [f64; 3],
    fairness: f64,
    p50_us: f64,
    p99_us: f64,
}

fn run(
    sched_name: &'static str,
    classes: usize,
    mk: impl FnMut() -> Box<dyn Scheduler> + 'static,
) -> Outcome {
    let queues = QueueConfig {
        classes,
        // Same total buffering regardless of class count.
        bytes_per_queue: 128 * 1024 / classes,
        classifier: Box::new(|pkt, _meta| {
            class_of_dscp(
                ParsedHeaders::parse(pkt)
                    .ipv4
                    .map(|ip| ip.dscp)
                    .unwrap_or(0),
            )
        }),
    };
    let r = ReferenceRouter::build(&ChassisConfig::new(&BoardSpec::sume(), 4), queues, mk);
    {
        let mut t = r.tables.borrow_mut();
        t.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
        // All three flows route out port 3.
        for flow in 0..3u8 {
            t.lpm.insert(
                netfpga_packet::Ipv4Cidr::new(Ipv4Address::new(10, 0, 100 + flow, 0), 24),
                RouteEntry {
                    next_hop: Ipv4Address::UNSPECIFIED,
                    port: 3,
                },
            );
            for host in 0..4u8 {
                t.arp
                    .insert(Ipv4Address::new(10, 0, 100 + flow, host), mac(0xb0 + flow));
            }
        }
    }
    let mut r = r;

    // Offer each flow at its ingress line rate (3 x 10G into 1 x 10G).
    let duration = Time::from_us(400);
    let mut offered = [0u64; 3];
    {
        // Keep ingress saturated: enqueue enough wire time per port.
        for (i, &(flow, len, dscp)) in FLOWS.iter().enumerate() {
            let frame = udp_frame(len, flow, dscp);
            // Frames needed to fill `duration` of wire time at 10G.
            let per_frame = netfpga_phy::mac::wire_bytes(len as u64) * 8 * 100; // ps at 10G
            let count = duration.as_ps() / per_frame + 2;
            for _ in 0..count {
                r.chassis.send(i, frame.clone());
                offered[i] += 1;
            }
        }
    }
    r.chassis.run_for(duration);

    // Collect egress: classify back to flows by source subnet, measure
    // latency of the EF flow via wire-completion minus a per-frame index
    // estimate — we use ingress_time embedded in meta? Frames at the wire
    // have no meta, so latency is derived from arrival spacing of flow 0
    // relative to its offered spacing; instead we use arrival timestamps
    // against the flow's paced injection schedule.
    let got = r.chassis.recv_timed(3);
    let mut goodput_bytes = [0u64; 3];
    let mut ef_arrivals: Vec<Time> = Vec::new();
    for (frame, t) in &got {
        let h = ParsedHeaders::parse(frame);
        if let Some(ip) = h.ipv4 {
            let flow = ip.src.as_bytes()[2] as usize; // 10.0.flow.2
            if flow < 3 {
                goodput_bytes[flow] += frame.len() as u64;
            }
            if ip.dscp == 46 {
                ef_arrivals.push(*t);
            }
        }
    }
    // EF latency proxy: deviation of arrival time from the ideal paced
    // schedule (k-th frame should arrive k * wire_time after the first).
    let mut lat = Histogram::new();
    if ef_arrivals.len() > 1 {
        let wire = netfpga_core::time::BitRate::gbps(10)
            .time_for_bytes(netfpga_phy::mac::wire_bytes(FLOWS[0].1 as u64));
        let t0 = ef_arrivals[0];
        for (k, t) in ef_arrivals.iter().enumerate() {
            let ideal = t0 + Time::from_ps(wire.as_ps() * k as u64);
            lat.record(t.saturating_sub(ideal).as_ps());
        }
    }
    let span = duration.as_secs_f64();
    let goodput = [
        goodput_bytes[0] as f64 * 8.0 / span / 1e9,
        goodput_bytes[1] as f64 * 8.0 / span / 1e9,
        goodput_bytes[2] as f64 * 8.0 / span / 1e9,
    ];
    Outcome {
        sched: sched_name,
        goodput,
        fairness: jain_fairness(&goodput),
        p50_us: lat.percentile(50.0).unwrap_or(0) as f64 / 1e6,
        p99_us: lat.percentile(99.0).unwrap_or(0) as f64 / 1e6,
    }
}

fn main() {
    println!("E4: scheduler ablation in the reference router (paper §3)\n");
    println!(
        "3 flows -> 1 x 10G egress (3:1 overload): flow0 = 124 B EF (class 0),\n\
         flow1 = 1514 B best-effort, flow2 = 508 B best-effort.\n"
    );

    let outcomes = vec![
        // FIFO baseline: one shared queue, no class separation at all.
        run("fifo", 1, || Box::new(Fifo)),
        run("rr", 2, || Box::new(RoundRobin::default())),
        run("drr", 2, || Box::new(DeficitRoundRobin::new(2, 1514))),
        run("strict", 2, || Box::new(StrictPriority)),
        run("wfq_3to1", 2, || {
            Box::new(WeightedFair::new(vec![3.0, 1.0]))
        }),
    ];

    let mut t = Table::new(
        "scheduler ablation",
        &[
            "scheduler",
            "flow0_gbps",
            "flow1_gbps",
            "flow2_gbps",
            "jain_index",
            "ef_queueing_p50_us",
            "ef_queueing_p99_us",
        ],
    );
    for o in &outcomes {
        t.row(&[
            o.sched.to_string(),
            format!("{:.2}", o.goodput[0]),
            format!("{:.2}", o.goodput[1]),
            format!("{:.2}", o.goodput[2]),
            format!("{:.3}", o.fairness),
            format!("{:.1}", o.p50_us),
            format!("{:.1}", o.p99_us),
        ]);
    }
    t.print();

    let get = |name: &str| outcomes.iter().find(|o| o.sched == name).unwrap();
    println!("shape checks:");
    println!(
        "  strict priority gives EF the lowest p99 queueing ({:.1} us vs fifo {:.1} us)",
        get("strict").p99_us,
        get("fifo").p99_us
    );
    assert!(get("strict").p99_us < get("fifo").p99_us);
    let total: f64 = get("fifo").goodput.iter().sum();
    println!("  egress stays near line rate under every scheduler (fifo total {total:.2} Gb/s)");
    assert!(total > 8.0, "egress must stay busy");
    // Class-aware schedulers protect the EF flow relative to FIFO sharing.
    assert!(get("strict").goodput[0] > get("fifo").goodput[0]);
    // DRR is byte-fair across classes: class 0 vs class 1 within 25%.
    let drr = get("drr");
    let class1 = drr.goodput[1] + drr.goodput[2];
    assert!(
        (drr.goodput[0] / class1 - 1.0).abs() < 0.25,
        "DRR byte fairness"
    );
}
