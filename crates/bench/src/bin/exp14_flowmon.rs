//! E14 (extension) — The flow-monitoring plane, end to end.
//!
//! Three phases over a deterministic, seeded Zipf-ish workload of 48
//! UDP flows pushed through a fast-path reference switch with the
//! flow tap mounted:
//!
//! * **workload** — drives the traffic, then checks the tap against an
//!   exact oracle: per-flow packet and byte counts in the heavy-hitter
//!   table must match exactly, every sketch estimate must be one-sided
//!   and within the classic `⌈εN⌉` count-min bound, `top_talkers(8)`
//!   must equal the oracle's top 8, the Prometheus snapshot must list
//!   every registry path exactly once, and `stream_deltas` must resolve
//!   ring entries back to stat paths.
//! * **replay** — reruns the identical workload under every scheduler
//!   mode × idle-skip combination and asserts the entire flow state
//!   (counts, bytes, estimates, eviction count, table order) is
//!   bit-identical — flow accounting must be a pure function of the
//!   traffic, not of kernel scheduling.
//! * **sweep** — replays the same packet sequence into stand-alone
//!   count-min sketches of width {32, 128, 512, 2048} × depth {2, 4}
//!   and checks the observed worst-case overestimate against each
//!   configuration's `⌈εN⌉` bound (the bound must hold everywhere; the
//!   32-wide sketches force collisions among the 48 flows and show real
//!   error, the widest stay exact).
//!
//! Emits the standard table + `@json` rows, writes `BENCH_flowmon.json`.

use std::collections::BTreeMap;

use netfpga_bench::Table;
use netfpga_core::board::BoardSpec;
use netfpga_core::sim::SchedulerMode;
use netfpga_core::time::Time;
use netfpga_flowmon::{CountMinSketch, FiveTuple, FlowmonConfig, SketchConfig};
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netfpga_projects::{ChassisConfig, ReferenceSwitch};

const NFLOWS: usize = 48;

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

/// Deterministic 64-bit LCG (Knuth's MMIX constants) — the workload must
/// replay bit-identically across runs and machines.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// The seeded Zipf-ish schedule: `n` packet slots, each naming a flow
/// index, drawn with weight `1/(i+1)` — a few elephants, a long tail.
fn schedule(n: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..NFLOWS).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            let mut r = (rng.next() % 1_000_000) as f64 / 1_000_000.0 * total;
            for (i, w) in weights.iter().enumerate() {
                if r < *w {
                    return i;
                }
                r -= *w;
            }
            NFLOWS - 1
        })
        .collect()
}

fn flow_tuple(i: usize) -> FiveTuple {
    FiveTuple {
        src_ip: u32::from_be_bytes([10, 0, 0, 1]),
        dst_ip: u32::from_be_bytes([10, 0, 1, 1]),
        src_port: 1000 + i as u16,
        dst_port: 53,
        proto: 17,
    }
}

/// Wire length of flow `i`'s frames: Ethernet + IPv4 + UDP + payload.
fn flow_len(i: usize) -> u64 {
    (14 + 20 + 8 + 20 + i) as u64
}

fn flow_frame(i: usize) -> Vec<u8> {
    PacketBuilder::new()
        .eth(mac(1), mac(2))
        .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 1, 1))
        .udp(1000 + i as u16, 53, &vec![0x5a; 20 + i])
        .build()
}

/// Everything flow accounting produced, in a comparable form: the replay
/// phase asserts this is identical across scheduler configurations.
#[derive(PartialEq, Eq, Debug)]
struct Signature {
    packets: u64,
    bytes: u64,
    non_ip: u64,
    evictions: u64,
    total: u64,
    flows: Vec<(FiveTuple, u64, u64, u64)>,
}

impl Signature {
    /// A short stable hash for the report table (FNV-1a over Debug).
    fn hash(&self) -> u64 {
        netfpga_core::hash::fnv1a64(format!("{self:?}").as_bytes())
    }
}

/// Run the seeded workload through a tapped fast-path switch under the
/// given kernel configuration; returns the switch (for phase-A probes)
/// and the flow-state signature.
fn run_workload(
    sched: &[usize],
    mode: SchedulerMode,
    idle_skip: bool,
) -> (ReferenceSwitch, Signature) {
    let mut sw = ReferenceSwitch::build(
        &ChassisConfig {
            fast_path: true,
            ..ChassisConfig::new(&BoardSpec::sume(), 4)
        },
        1024,
        Time::from_ms(100),
        Some(FlowmonConfig::default()),
    );
    sw.chassis.sim.set_scheduler_mode(mode);
    sw.chassis.sim.set_idle_skip(idle_skip);
    // Teach mac(2) onto port 1 so the workload unicasts instead of
    // flooding; drain the teaching frame's flood copies.
    sw.chassis.send(
        1,
        PacketBuilder::new()
            .eth(mac(2), mac(0xee))
            .raw(netfpga_packet::EtherType::Arp, &[0; 46])
            .build(),
    );
    sw.chassis.run_for(Time::from_us(10));
    for p in 0..4 {
        sw.chassis.recv(p);
    }
    let mon = sw.flowmon.clone().expect("flowmon mounted");
    let counts = mon.counters();
    let teach_packets = counts.packets.get();
    for &i in sched {
        sw.chassis.send(0, flow_frame(i));
    }
    let target = teach_packets + sched.len() as u64;
    for _ in 0..400 {
        sw.chassis.run_for(Time::from_us(50));
        for p in 0..4 {
            sw.chassis.recv(p);
        }
        if counts.packets.get() >= target {
            break;
        }
    }
    assert_eq!(counts.packets.get(), target, "workload not fully observed");
    let sig = Signature {
        packets: counts.packets.get(),
        bytes: counts.bytes.get(),
        non_ip: counts.non_ip.get(),
        evictions: mon.evictions(),
        total: mon.total(),
        flows: mon
            .flows()
            .iter()
            .map(|r| (r.flow, r.packets, r.bytes, r.estimate))
            .collect(),
    };
    (sw, sig)
}

fn main() {
    let npackets = 2000;
    let sched = schedule(npackets, 0xE14);

    // Exact oracle: per-flow packet counts for the schedule.
    let mut oracle = vec![0u64; NFLOWS];
    for &i in &sched {
        oracle[i] += 1;
    }

    let mut t = Table::new(
        "E14: flow-monitoring plane (sketch + heavy hitters + exporter)",
        &[
            "phase",
            "config",
            "packets",
            "flows",
            "max_overest",
            "err_bound",
            "viol",
            "top8_exact",
            "sig",
        ],
    );

    // ---- Phase A: workload vs oracle --------------------------------
    let (mut sw, base_sig) = run_workload(&sched, SchedulerMode::Auto, true);
    let mon = sw.flowmon.clone().expect("flowmon mounted");
    assert_eq!(base_sig.non_ip, 1, "exactly the (non-IP) teaching frame");

    // Sketch estimates: one-sided, within ⌈εN⌉ for every flow.
    let bound = mon.error_bound();
    let mut max_overest = 0u64;
    for (i, &truth) in oracle.iter().enumerate() {
        let est = mon.estimate(&flow_tuple(i));
        assert!(
            est >= truth,
            "flow {i}: estimate {est} under-counts {truth}"
        );
        assert!(
            est - truth <= bound,
            "flow {i}: overestimate {} exceeds εN bound {bound}",
            est - truth
        );
        max_overest = max_overest.max(est - truth);
    }

    // Heavy-hitter table: exact packet and byte counts for every flow
    // (the non-IP teaching frame never enters the table, and the default
    // 64-entry table holds all 48 flows with no evictions).
    let flows = mon.flows();
    // A Zipf-tail flow may draw zero packets and never appear; every flow
    // that sent anything must be tracked.
    let active = oracle.iter().filter(|&&c| c > 0).count();
    assert_eq!(
        flows.len(),
        active,
        "every active flow tracked, nothing else"
    );
    assert_eq!(mon.evictions(), 0, "table never overflowed");
    for rec in &flows {
        let i = rec.flow.src_port as usize - 1000;
        assert_eq!(
            rec.packets, oracle[i],
            "flow {i}: table packet count drifted"
        );
        assert_eq!(
            rec.bytes,
            oracle[i] * flow_len(i),
            "flow {i}: table byte count drifted"
        );
    }

    // top_talkers(8) must equal the oracle's top 8 (mirroring the
    // table's deterministic rank: estimate, packets, bytes, then the
    // smaller five-tuple wins).
    let mut by_rank: Vec<usize> = (0..NFLOWS).collect();
    by_rank.sort_by_key(|&i| {
        core::cmp::Reverse((
            oracle[i],
            oracle[i],
            oracle[i] * flow_len(i),
            core::cmp::Reverse(flow_tuple(i)),
        ))
    });
    let oracle_top8: Vec<FiveTuple> = by_rank[..8].iter().map(|&i| flow_tuple(i)).collect();
    let got_top8: Vec<FiveTuple> = mon.top_talkers(8).into_iter().map(|r| r.flow).collect();
    assert_eq!(
        got_top8, oracle_top8,
        "top_talkers(8) diverges from the oracle"
    );
    // The host-side MMIO ranking must agree with the tap's direct view.
    let mmio_top8: Vec<FiveTuple> = netfpga_host::top_talkers(&mut sw.chassis, 8)
        .into_iter()
        .map(|r| r.flow)
        .collect();
    assert_eq!(
        mmio_top8, oracle_top8,
        "MMIO top_talkers diverges from the oracle"
    );

    // Prometheus snapshot: every registry path exactly once.
    let exporter = sw.exporter.clone().expect("exporter mounted");
    let prom = exporter.prometheus();
    let registry = sw.chassis.telemetry.snapshot();
    let mut lines: BTreeMap<&str, usize> = BTreeMap::new();
    for line in prom.lines() {
        let name = line.split(' ').next().unwrap_or("");
        *lines.entry(name).or_default() += 1;
    }
    assert_eq!(
        lines.len(),
        registry.len(),
        "Prometheus text and registry disagree on the path set"
    );
    for (path, _) in &registry {
        let sanitized = format!(
            "netfpga_{}",
            path.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect::<String>()
        );
        assert_eq!(
            lines.get(sanitized.as_str()),
            Some(&1),
            "path {path:?} must appear exactly once in the Prometheus text"
        );
    }

    // Delta stream: ring entries resolve to real stat paths over MMIO.
    let deltas = netfpga_host::stream_deltas(&mut sw.chassis);
    assert!(!deltas.is_empty(), "no counter deltas streamed");
    assert!(
        deltas
            .iter()
            .all(|(path, _)| registry.iter().any(|(p, _)| p == path)),
        "delta indices must resolve through the telemetry name table"
    );
    assert!(
        netfpga_host::stream_deltas(&mut sw.chassis).is_empty(),
        "ring drained by the read"
    );

    t.row(&[
        "workload".into(),
        "auto+idle_skip".into(),
        npackets.to_string(),
        NFLOWS.to_string(),
        max_overest.to_string(),
        bound.to_string(),
        "0".into(),
        "yes".into(),
        format!("{:#018x}", base_sig.hash()),
    ]);

    // ---- Phase B: bit-identical replay across kernel configs --------
    for (mode, skip, label) in [
        (SchedulerMode::Scan, false, "scan"),
        (SchedulerMode::Scan, true, "scan+idle_skip"),
        (SchedulerMode::Auto, false, "auto"),
        (SchedulerMode::Auto, true, "auto+idle_skip"),
    ] {
        let (_, sig) = run_workload(&sched, mode, skip);
        assert_eq!(
            sig, base_sig,
            "{label}: flow accounting must not depend on kernel scheduling"
        );
        t.row(&[
            "replay".into(),
            label.into(),
            npackets.to_string(),
            NFLOWS.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{:#018x}", sig.hash()),
        ]);
    }

    // ---- Phase C: sketch dimension sweep ----------------------------
    // The narrow end (32 counters for 48 flows) forces collisions, so
    // the observed overestimate is real there. The classic CM guarantee
    // is per-flow *probabilistic* — `P[overest > εN] ≤ δ = e^−depth` —
    // so narrow/shallow sketches are allowed a bounded number of
    // violating flows (2× the expectation, to keep the deterministic
    // seed honest without tuning to it), while width 2048 must be exact.
    // Row salts come sequentially off the seeded RNG, so a depth-4
    // sketch's first rows ARE the depth-2 sketch: estimates must
    // dominate pointwise (d4 ≤ d2) at every width.
    let oracle_top8_set: std::collections::BTreeSet<usize> = by_rank[..8].iter().copied().collect();
    for width in [32usize, 128, 512, 2048] {
        let mut est_by_depth: Vec<Vec<u64>> = Vec::new();
        for depth in [2usize, 4] {
            let mut cm = CountMinSketch::new(SketchConfig {
                width,
                depth,
                seed: 0xE14,
            });
            for &i in &sched {
                cm.record(&flow_tuple(i), 1);
            }
            let bound = cm.error_bound();
            let mut max_err = 0u64;
            let mut violations = 0usize;
            let mut est = vec![0u64; NFLOWS];
            for (i, &truth) in oracle.iter().enumerate() {
                let e = cm.estimate(&flow_tuple(i));
                assert!(e >= truth, "w{width} d{depth}: under-count");
                max_err = max_err.max(e - truth);
                if e - truth > bound {
                    violations += 1;
                }
                est[i] = e;
            }
            let allowed = (2.0 * (-(depth as f64)).exp() * NFLOWS as f64).ceil() as usize;
            assert!(
                violations <= allowed,
                "w{width} d{depth}: {violations} flows exceed εN bound {bound} \
                 (theorem allows ~{allowed} at δ=e^-{depth})"
            );
            if width >= 2048 {
                assert_eq!(max_err, 0, "w{width} d{depth}: 48 flows must count exactly");
            }
            let mut by_est: Vec<usize> = (0..NFLOWS).collect();
            by_est.sort_by_key(|&i| core::cmp::Reverse((est[i], core::cmp::Reverse(i))));
            let top8_exact = by_est[..8]
                .iter()
                .copied()
                .collect::<std::collections::BTreeSet<_>>()
                == oracle_top8_set;
            est_by_depth.push(est);
            t.row(&[
                "sweep".into(),
                format!("w{width}.d{depth}"),
                npackets.to_string(),
                NFLOWS.to_string(),
                max_err.to_string(),
                bound.to_string(),
                violations.to_string(),
                if top8_exact {
                    "yes".into()
                } else {
                    "no".into()
                },
                "-".into(),
            ]);
        }
        for (d4, d2) in est_by_depth[1].iter().zip(&est_by_depth[0]) {
            assert!(
                d4 <= d2,
                "w{width}: depth-4 estimate must dominate depth-2 (shared leading rows)"
            );
        }
    }

    t.print();
    t.write_json("BENCH_flowmon.json")
        .expect("write BENCH_flowmon.json");
    println!(
        "ok: oracle-exact heavy hitters, εN bound holds at every sweep point, \
         replay bit-identical across schedulers, Prometheus paths exact, deltas resolve"
    );
}
