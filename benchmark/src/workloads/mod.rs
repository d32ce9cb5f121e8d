//! The seven workloads. Each builds one of the repo's reference designs
//! through its public constructor and drives it only at its edges: frames
//! onto port wires, frames off port wires, the DMA rings, the telemetry
//! registry.

mod fabric;
mod nic;
mod router;
mod switch;

use crate::gen::{Account, IngressMirror, Ledger, Timing};
use crate::trace::Tracer;
use netfpga_core::sim::SchedulerMode;
use netfpga_core::time::Time;
use netfpga_projects::Chassis;
use std::collections::BTreeMap;

/// Cumulative raw counters by short name; the per-layer metrics are
/// derived from the difference of two reads (see `report::layer_metrics`).
pub type Raw = BTreeMap<&'static str, u64>;

/// Which instance of a workload to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// What users get: `SchedulerMode::Auto` with idle skipping; for the
    /// fabric, `min(nproc, 2)` shards.
    Fast,
    /// The executable reference, which only the replay check and the
    /// fabric's speed-up base use: linear scan with every edge stepped; for
    /// the fabric, the sequential `nshards = 1` run.
    Reference,
}

impl Kernel {
    fn apply(self, chassis: &mut Chassis) {
        if self == Kernel::Reference {
            chassis.sim.set_scheduler_mode(SchedulerMode::Scan);
            chassis.sim.set_idle_skip(false);
        }
    }

    pub fn flag(self) -> &'static str {
        match self {
            Kernel::Fast => "fast",
            Kernel::Reference => "reference",
        }
    }
}

pub trait Workload {
    /// The timed part of a slice: generate a bounded batch, offer it, run
    /// the device until it has drained, take what came out. Phases are
    /// reported to `tr`.
    fn slice(&mut self, tr: &mut Tracer);

    /// The untimed part: match what the slice received against what it
    /// offered, and fold it into `acc`.
    fn verify(&mut self, acc: &mut Account);

    /// Read every counter the per-layer metrics need.
    fn counters(&mut self) -> Raw;

    /// Egress line rate in bits per second (for the closed forms).
    fn bps(&self) -> u64;
}

/// Build workload `name`. `scale` divides the frozen slice size (`--smoke`
/// runs at 1/20, the replay check at its own fraction).
pub fn build(name: &str, seed: u64, kernel: Kernel, scale: usize) -> Option<Box<dyn Workload>> {
    use switch::Shape;
    let size = |frozen: usize| (frozen / scale).max(8);
    let switch = |shape, frames| -> Box<dyn Workload> {
        Box::new(switch::Switch::new(shape, seed, kernel, size(frames)))
    };
    Some(match name {
        "switch_unicast_64" => switch(Shape::Unicast64, switch::UNICAST_FRAMES),
        "switch_exact_imix" => switch(Shape::ExactImix, switch::IMIX_FRAMES),
        "switch_flood_300" => switch(Shape::Flood300, switch::FLOOD_FRAMES),
        "idle_probe" => switch(Shape::IdleProbe, switch::IDLE_BURSTS * 4),
        "router_lpm_252" => Box::new(router::Router::new(seed, kernel, size(router::FRAMES))),
        "nic_host_dma" => Box::new(nic::Nic::new(seed, kernel, size(nic::FRAMES_PER_DIRECTION))),
        "fabric_leafspine" => Box::new(fabric::Fabric::new(
            seed,
            threads(name, kernel),
            size(fabric::FRAMES_PER_HOST),
        )),
        _ => return None,
    })
}

/// Threads the workload runs on — what a round pins itself to before it
/// builds anything.
pub fn threads(name: &str, kernel: Kernel) -> usize {
    if name == "fabric_leafspine" && kernel == Kernel::Fast {
        fabric::shards_for_host()
    } else {
        1
    }
}

/// Read a chassis's telemetry registry and kernel into raw counters.
/// Per-port MAC counters are summed over ports.
fn chassis_raw(chassis: &Chassis) -> Raw {
    let mut raw = Raw::new();
    raw.insert("edges", chassis.sim.cycles(chassis.clk));
    for (path, value) in chassis.telemetry.snapshot() {
        let key = match path.as_str() {
            "kernel.steps" => "steps",
            "kernel.skips" => "skips",
            "kernel.probes_avoided" => "probes_avoided",
            "kernel.invalidations" => "invalidations",
            "pool.allocs" => "pool.allocs",
            "pool.recycled" => "pool.recycled",
            "pool.cow_copies" => "pool.cow_copies",
            "lookup.hits" => "lookup.hits",
            "lookup.floods" => "lookup.floods",
            "oq.enqueued" => "oq.enqueued",
            "oq.dropped" => "oq.dropped",
            "router.forwarded" => "router.forwarded",
            "router.to_cpu" => "router.to_cpu",
            "router.dropped" => "router.dropped",
            "dma.tx.packets" => "dma.h2c",
            "dma.rx.packets" => "dma.c2h",
            "dma.rx.drops" => "dma.dropped",
            p if p.ends_with(".mac.rx.frames") => "mac.rx",
            p if p.ends_with(".mac.tx.frames") => "mac.tx",
            p if p.ends_with(".bad_fcs") => "mac.bad_fcs",
            p if p.contains(".mac.") && p.ends_with(".dropped") => "mac.dropped",
            _ => continue,
        };
        *raw.entry(key).or_insert(0) += value;
    }
    raw
}

/// What the single-chassis workloads share: the chassis-edge bookkeeping
/// of one slice.
struct Edge {
    mirror: IngressMirror,
    ledger: Ledger,
    /// Frames taken off each port's wire in the last slice, with their
    /// wire-completion times; matched in `verify`.
    received: Vec<Vec<(Vec<u8>, Time)>>,
    bps: u64,
}

impl Edge {
    /// `host_ingress`: whether the host injects frames too (one more
    /// ingress, numbered after the wire ports).
    fn new(chassis: &Chassis, host_ingress: bool) -> Edge {
        let nports = chassis.nports();
        let bps = chassis.port_rate(0).as_bps();
        Edge {
            mirror: IngressMirror::new(nports, bps),
            ledger: Ledger::new(nports + usize::from(host_ingress)),
            received: vec![Vec::new(); nports],
            bps,
        }
    }

    /// Take everything the board has finished transmitting; returns how
    /// many frames that was.
    fn recv_all(&mut self, chassis: &mut Chassis) -> usize {
        let mut n = 0;
        for (port, got) in self.received.iter_mut().enumerate() {
            let frames = chassis.recv_timed(port);
            n += frames.len();
            got.extend(frames);
        }
        n
    }

    /// Run the device until `expected` frames have come out, or — where
    /// the count is not known in advance — until nothing more comes and
    /// every module is quiescent. `first` is the time the offered batch
    /// needs on the wire; after it the device is polled every `poll`.
    /// `host_side` is polled along with the wires and returns how many
    /// frames it took (the DMA ring of a design that has one).
    fn drain(
        &mut self,
        chassis: &mut Chassis,
        tr: &mut Tracer,
        first: Time,
        poll: Time,
        expected: Option<usize>,
        mut host_side: impl FnMut(&mut Chassis) -> usize,
    ) {
        let mut got = 0;
        let mut wait = first;
        // Generous: a full output queue (512 KiB at 10 Gb/s) drains in
        // under half a millisecond.
        for _ in 0..4000 {
            chassis.run_for(wait);
            tr.lap("core.sim.run");
            let n = self.recv_all(chassis) + host_side(chassis);
            tr.lap("projects.harness.recv");
            got += n;
            let done = match expected {
                Some(want) => got >= want,
                None => n == 0 && chassis.sim.all_quiescent(),
            };
            if done {
                return;
            }
            wait = poll;
        }
    }

    /// Match the last slice's wire deliveries against the ledger.
    fn verify_wire(&mut self, acc: &mut Account, how: Timing) {
        for (port, got) in self.received.iter_mut().enumerate() {
            for (bytes, at) in got.drain(..) {
                acc.deliver(&mut self.ledger, port as u8, &bytes, at, how);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    /// Build `name` at 1/`scale` of its size and run `slices` slices.
    fn run(name: &str, seed: u64, kernel: Kernel, scale: usize, slices: usize) -> Account {
        let mut w = build(name, seed, kernel, scale).expect("known workload");
        let mut acc = Account::new(w.bps());
        let mut off = Tracer::new(false);
        for _ in 0..slices {
            w.slice(&mut off);
            w.verify(&mut acc);
        }
        acc
    }

    fn device(acc: &Account) -> (u64, u64, u64, f64, f64, f64) {
        (
            acc.sig,
            acc.offered,
            acc.delivered,
            acc.dev_mpps(),
            acc.latency.percentile_ns(0.5),
            acc.latency.percentile_ns(0.99),
        )
    }

    #[test]
    fn flood_accounting_closes_on_a_200_frame_run() {
        // 4000 / 20 = 200 frames: far below the queues, so nothing drops.
        let acc = run("switch_flood_300", 3, Kernel::Fast, 20, 1);
        assert_eq!(acc.first_error, None);
        assert_eq!(acc.offered, 200);
        assert_eq!(3 * acc.offered, acc.delivered + acc.counted_drops);
        assert_eq!(acc.counted_drops, 0);
    }

    #[test]
    fn flood_accounting_closes_when_the_queues_tail_drop() {
        let acc = run("switch_flood_300", 3, Kernel::Fast, 1, 1);
        assert_eq!(acc.first_error, None);
        assert!(
            acc.counted_drops > 0,
            "a full slice overruns the output queues"
        );
        assert_eq!(3 * acc.offered, acc.delivered + acc.counted_drops);
        assert_eq!(acc.failed, 0);
    }

    #[test]
    fn one_seed_one_signature_another_seed_another() {
        for w in WORKLOADS {
            let a = run(w.name, 11, Kernel::Fast, 20, 2);
            let b = run(w.name, 11, Kernel::Fast, 20, 2);
            let c = run(w.name, 12, Kernel::Fast, 20, 2);
            assert_eq!(a.first_error, None, "{}", w.name);
            assert_eq!(a.failed, 0, "{}", w.name);
            assert_eq!(device(&a), device(&b), "{}: same seed, same device", w.name);
            assert_ne!(a.sig, c.sig, "{}: the seed must reach the frames", w.name);
        }
    }

    #[test]
    fn the_scan_reference_replays_bit_identically() {
        for w in WORKLOADS.iter().filter(|w| w.name != "fabric_leafspine") {
            let scale = 10 * w.replay_scale;
            let fast = run(w.name, 5, Kernel::Fast, scale, 2);
            let scan = run(w.name, 5, Kernel::Reference, scale, 2);
            assert_eq!(scan.failed, 0, "{}", w.name);
            assert_eq!(device(&fast), device(&scan), "{}", w.name);
        }
    }

    #[test]
    fn the_parallel_fabric_equals_its_sequential_run() {
        let mut acc = Vec::new();
        for nshards in [1, 2] {
            let mut w = fabric::Fabric::new(9, nshards, 30);
            let mut a = Account::new(w.bps());
            w.slice(&mut Tracer::new(false));
            w.verify(&mut a);
            assert_eq!(a.first_error, None);
            acc.push(device(&a));
        }
        assert_eq!(acc[0], acc[1]);
    }
}
