//! The I/O-exercise ("acceptance test") project: every release ships a
//! design whose only job is to drive all the I/O interfaces — each port
//! loops received frames straight back out, with per-port counters and a
//! payload integrity check. Used to validate a board (here: the chassis
//! edge models) before any real project is loaded.

use crate::harness::{Chassis, ChassisConfig, ChassisIo};
use netfpga_core::board::BoardSpec;
use netfpga_core::resources::ResourceCost;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stats::Counter;
use netfpga_core::stream::{Burst, CutThrough, PassThrough};
use netfpga_datapath::blocks;

/// Per-port loopback with counters and a running checksum of payloads,
/// cut-through on a [`CutThrough`] port one word per cycle.
struct PortLoop {
    name: String,
    port: CutThrough,
    counters: Tally,
    wake: WakeHandle,
}

/// The loop's policy: count every beat looped.
struct Tally(PortCounters);

impl PassThrough for Tally {
    fn inspect(&mut self, burst: &Burst) {
        if burst.sop {
            self.0.frames.incr();
        }
        self.0.bytes.add(burst.len() as u64);
        let sum: u64 = burst.bytes().iter().map(|&b| u64::from(b)).sum();
        self.0.checksum.add(sum);
    }
}

impl Module for PortLoop {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        self.port.tick(ctx, &mut self.counters);
    }

    fn soft_reset(&mut self) {
        self.port.soft_reset();
    }

    fn reset(&mut self) {
        self.port.soft_reset();
    }

    fn activity(&self) -> Activity {
        self.port.activity(&self.counters)
    }

    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

/// Per-port observation handles.
#[derive(Debug, Clone)]
pub struct PortCounters {
    /// Frames looped.
    pub frames: Counter,
    /// Bytes looped.
    pub bytes: Counter,
    /// Additive checksum of all payload bytes (integrity spot-check).
    pub checksum: Counter,
}

/// The assembled acceptance project.
pub struct AcceptanceTest {
    /// The board with this project loaded.
    pub chassis: Chassis,
    /// Per-port counters.
    pub counters: Vec<PortCounters>,
}

impl AcceptanceTest {
    /// Build on `spec` with `nports` looped ports.
    pub fn new(spec: &BoardSpec, nports: usize) -> AcceptanceTest {
        let (mut chassis, io) = Chassis::new(&ChassisConfig::new(spec, nports));
        let ChassisIo {
            from_ports,
            to_ports,
        } = io;
        let mut counters = Vec::new();
        for (i, (rx, tx)) in from_ports.into_iter().zip(to_ports).enumerate() {
            let c = PortCounters {
                frames: Counter::new(),
                bytes: Counter::new(),
                checksum: Counter::new(),
            };
            let wake = WakeHandle::new();
            chassis.add_module(PortLoop {
                name: format!("port_loop{i}"),
                port: CutThrough::new(vec![rx], tx, &wake),
                counters: Tally(c.clone()),
                wake,
            });
            counters.push(c);
        }
        AcceptanceTest { chassis, counters }
    }

    /// Approximate FPGA cost (experiment E7): MACs, host interface, and a
    /// sliver of glue per port.
    pub fn resource_cost(nports: u64) -> ResourceCost {
        blocks::MAC_10G.times(nports)
            + blocks::PCIE_DMA
            + blocks::REG_INTERCONNECT
            + blocks::STATS_STAGE.times(nports)
    }

    /// Blocks this project instantiates (E7 reuse matrix row).
    pub fn block_names() -> &'static [&'static str] {
        &["mac_10g", "pcie_dma", "reg_interconnect", "stats_stage"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::time::Time;

    #[test]
    fn all_ports_loop_and_count() {
        let mut a = AcceptanceTest::new(&BoardSpec::sume(), 4);
        for p in 0..4 {
            a.chassis.send(p, vec![p as u8 + 1; 100]);
        }
        a.chassis.run_for(Time::from_us(10));
        for p in 0..4 {
            let got = a.chassis.recv(p);
            assert_eq!(got, vec![vec![p as u8 + 1; 100]], "port {p}");
            assert_eq!(a.counters[p].frames.get(), 1);
            assert_eq!(a.counters[p].bytes.get(), 100);
            assert_eq!(a.counters[p].checksum.get(), 100 * (p as u64 + 1));
        }
    }

    #[test]
    fn sustained_traffic_no_loss() {
        let mut a = AcceptanceTest::new(&BoardSpec::sume(), 2);
        let n = 200;
        for _ in 0..n {
            a.chassis.send(0, vec![0x5a; 1500]);
        }
        a.chassis.run_for(Time::from_ms(1));
        assert_eq!(a.counters[0].frames.get(), n);
        assert_eq!(a.chassis.recv(0).len() as u64, n);
        assert_eq!(a.chassis.telemetry.get("port0.mac.rx.frames"), Some(n));
        assert_eq!(a.chassis.telemetry.get("port0.mac.tx.frames"), Some(n));
    }

    /// Drained, the loops are idle: every module quiescent, and not one of
    /// them ticked over 10 000 idle cycles.
    #[test]
    fn drained_loops_execute_no_ticks() {
        let mut a = AcceptanceTest::new(&BoardSpec::sume(), 4);
        for p in 0..4 {
            a.chassis.send(p, vec![p as u8; 1500]);
        }
        a.chassis.run_for(Time::from_us(10));
        assert!((0..4).all(|p| a.chassis.recv(p).len() == 1));
        assert!(a.chassis.sim.all_quiescent());
        let ticks = |a: &AcceptanceTest| -> u64 {
            a.chassis.sim.module_ticks().iter().map(|(_, n)| n).sum()
        };
        let before = ticks(&a);
        let clk = a.chassis.clk;
        a.chassis.sim.run_cycles(clk, 10_000);
        assert_eq!(ticks(&a), before);
    }
}
