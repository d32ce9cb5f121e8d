//! E5 — BlueSwitch: line-rate multi-table matching and consistent updates
//! (paper §1: OpenFlow "capable of line-rate operation"; BlueSwitch's
//! "provably consistent configuration of network switches").
//!
//! Three measurements:
//!
//! 1. forwarding rate vs installed rule count — flat, because TCAM lookup
//!    is parallel in hardware (the table size costs area, not time);
//! 2. pipeline latency vs table count — one pipeline stage per table;
//! 3. the consistency property: packets classified against a mixed
//!    configuration during an update, atomic commit vs naive in-place
//!    rewrite, as a function of configuration size.

use netfpga_bench::report::{write_json, Table};
use netfpga_bench::workloads::udp_frame;
use netfpga_core::board::BoardSpec;
use netfpga_core::stream::PortMask;
use netfpga_core::time::Time;
use netfpga_host::{BlueSwitchController, RuleSpec};
use netfpga_projects::blueswitch::{ActionKind, BlueSwitch, BLUESWITCH_BASE, KEY_WIDTH};

/// A rule matching UDP destination port `1000+i` (never our traffic's).
fn filler_rule(table: u32, i: u16) -> RuleSpec {
    let mut value = [0u8; KEY_WIDTH];
    let mut mask = [0u8; KEY_WIDTH];
    value[26..28].copy_from_slice(&(20_000 + i).to_be_bytes());
    mask[26..28].copy_from_slice(&[0xff, 0xff]);
    RuleSpec::from_parts(table, 5, value, mask, ActionKind::Drop)
}

fn forwarding_rate(rules: usize) -> f64 {
    let mut sw = BlueSwitch::new(&BoardSpec::sume(), 4, 2, rules.max(8));
    {
        let mut p = sw.pipeline.borrow_mut();
        for t in 0..2 {
            for i in 0..rules.saturating_sub(1) {
                p.write_direct(
                    t,
                    netfpga_mem::TcamEntry {
                        key: {
                            let mut value = [0u8; KEY_WIDTH];
                            let mut mask = [0u8; KEY_WIDTH];
                            value[26..28].copy_from_slice(&(20_000 + i as u16).to_be_bytes());
                            mask[26..28].copy_from_slice(&[0xff, 0xff]);
                            netfpga_mem::TernaryKey::new(&value, &mask)
                        },
                        priority: 5,
                        value: netfpga_projects::blueswitch::FlowAction {
                            kind: ActionKind::Drop,
                            tag: 1,
                        },
                    },
                );
            }
            // Lowest priority catch-all: forward to port 1.
            p.write_direct(
                t,
                netfpga_mem::TcamEntry {
                    key: netfpga_mem::TernaryKey::wildcard(KEY_WIDTH),
                    priority: 0,
                    value: netfpga_projects::blueswitch::FlowAction {
                        kind: ActionKind::Output(PortMask::single(1)),
                        tag: 1,
                    },
                },
            );
        }
    }
    let n = 300u64;
    let frame = udp_frame(252, 1, 0);
    for _ in 0..n {
        sw.chassis.send(0, frame.clone());
    }
    let mut arrivals = Vec::new();
    let deadline = sw.chassis.sim.now() + Time::from_ms(10);
    while (arrivals.len() as u64) < n && sw.chassis.sim.now() < deadline {
        sw.chassis.run_for(Time::from_us(2));
        arrivals.extend(sw.chassis.recv_timed(1).into_iter().map(|(_, t)| t));
    }
    assert_eq!(arrivals.len() as u64, n, "loss at {rules} rules");
    let span = (*arrivals.last().unwrap() - arrivals[0]).as_secs_f64();
    (n - 1) as f64 / span / 1e6
}

fn pipeline_latency(ntables: usize) -> f64 {
    let mut sw = BlueSwitch::new(&BoardSpec::sume(), 2, ntables, 8);
    sw.pipeline.borrow_mut().write_direct(
        0,
        netfpga_mem::TcamEntry {
            key: netfpga_mem::TernaryKey::wildcard(KEY_WIDTH),
            priority: 0,
            value: netfpga_projects::blueswitch::FlowAction {
                kind: ActionKind::Output(PortMask::single(1)),
                tag: 1,
            },
        },
    );
    let frame = udp_frame(60, 1, 0);
    let sent_at = sw.chassis.sim.now();
    sw.chassis.send(0, frame);
    sw.chassis.run_for(Time::from_us(20));
    let got = sw.chassis.recv_timed(1);
    assert_eq!(got.len(), 1);
    (got[0].1 - sent_at).as_ps() as f64 / 1000.0 // ns
}

fn consistency(nrules_per_table: usize, atomic: bool) -> (u32, u32) {
    let mut sw = BlueSwitch::new(&BoardSpec::sume(), 4, 2, nrules_per_table + 4);
    let mut ctl = BlueSwitchController::new();
    let make_config = |ports: PortMask| -> Vec<RuleSpec> {
        let mut rules = Vec::new();
        for t in 0..2 {
            for i in 0..nrules_per_table.saturating_sub(1) {
                rules.push(filler_rule(t, i as u16));
            }
            rules.push(RuleSpec::wildcard_output(t, 1, ports));
        }
        rules
    };
    ctl.install_atomic(&mut sw, &make_config(PortMask::single(1)));
    // Saturate for the whole update window: each staged rule costs ~13
    // MMIO writes of ~300 ns, so scale the backlog with the config size.
    let frames = 600 + nrules_per_table as u64 * 2 * 40;
    let frame = udp_frame(252, 1, 0);
    for _ in 0..frames {
        sw.chassis.send(0, frame.clone());
    }
    if atomic {
        ctl.install_atomic(&mut sw, &make_config(PortMask::single(2)));
    } else {
        ctl.install_naive(&mut sw, &make_config(PortMask::single(2)));
    }
    sw.chassis.run_for(Time::from_ms(1));
    let mixed = ctl.mixed_tag_packets(&mut sw);
    let classified = sw.chassis.read32(BLUESWITCH_BASE + 25 * 4);
    (mixed, classified)
}

fn main() {
    println!("E5: BlueSwitch — match-action throughput and consistent updates\n");

    let mut tables = Vec::new();
    let mut t = Table::new(
        "forwarding rate vs installed rules (2 tables, 252 B frames, 10G)",
        &["rules_per_table", "measured_mpps"],
    );
    for rules in [1usize, 16, 64, 256, 1024] {
        t.row(&[rules.to_string(), format!("{:.3}", forwarding_rate(rules))]);
    }
    t.print();
    tables.push(t);

    let mut t = Table::new(
        "pipeline latency vs table count (unloaded, 60 B frame)",
        &["tables", "latency_ns"],
    );
    let mut latencies = Vec::new();
    for ntables in [1usize, 2, 4, 8] {
        let l = pipeline_latency(ntables);
        latencies.push(l);
        t.row(&[ntables.to_string(), format!("{l:.0}")]);
    }
    t.print();
    tables.push(t);

    let mut t = Table::new(
        "consistency under live update (traffic saturates the update window)",
        &[
            "rules_per_table",
            "mode",
            "classified",
            "mixed_config_packets",
        ],
    );
    let mut naive_total = 0;
    for rules in [2usize, 8, 32] {
        for (mode, atomic) in [("atomic", true), ("naive", false)] {
            let (mixed, classified) = consistency(rules, atomic);
            if atomic {
                assert_eq!(mixed, 0, "atomic must never mix");
            } else {
                naive_total += mixed;
            }
            t.row(&[
                rules.to_string(),
                mode.to_string(),
                classified.to_string(),
                mixed.to_string(),
            ]);
        }
    }
    t.print();
    tables.push(t);
    write_json("BENCH_blueswitch.json", &tables).expect("write BENCH_blueswitch.json");

    println!("shape checks:");
    println!("  forwarding rate is flat in rule count (TCAM parallel match);");
    println!("  latency grows linearly with table count (one stage per table);");
    println!("  atomic updates: 0 mixed-config packets at every size; naive: {naive_total} total.");
    assert!(latencies.windows(2).all(|w| w[1] >= w[0]));
    assert!(naive_total > 0, "naive baseline must expose violations");
}
