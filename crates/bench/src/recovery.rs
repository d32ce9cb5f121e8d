//! Autonomic-recovery workloads: the reference switch healing itself, for
//! the E13 retrain × hold-down × scrub-rate sweep.
//!
//! The scenario closes the fault → repair loop with **no help from the
//! schedule**: the plan injects link flaps, a lane loss and memory upsets
//! but carries not a single restore event. Recovery comes entirely from
//! the recovery plane — the per-port PCS retrain state machine re-acquires
//! flapped links, the re-bond policy brings the lane-lossed port up on its
//! survivors, and the background ECC scrubber sweeps the registered
//! memory, turning SECDED correction latency (and the double-upset
//! window) into measured distributions.

use netfpga_core::board::BoardSpec;
use netfpga_core::telemetry::EventKind;
use netfpga_core::time::Time;
use netfpga_faults::{EccMode, FaultKind, FaultPlan, RecoveryPolicy, TraceEntry};
use netfpga_mem::Bram;
use netfpga_packet::{EtherType, EthernetAddress, PacketBuilder};
use netfpga_phy::PortBond;
use netfpga_projects::{ChassisConfig, ReferenceSwitch};
use std::cell::RefCell;
use std::rc::Rc;

/// Words in the scrubbed scratch memory registered by the workload.
pub const SCRUB_WORDS: usize = 4096;

/// One point of the retrain × hold-down × scrub-rate sweep.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPoint {
    /// PCS alignment time, in core-clock cycles.
    pub retrain_cycles: u64,
    /// Hold-down after signal returns, in core-clock cycles.
    pub holddown_cycles: u64,
    /// Scrub bandwidth in words per cycle (`0` disables the scrubber and
    /// the memory-upset part of the schedule).
    pub scrub_words_per_cycle: u32,
    /// Link flaps injected on the egress port.
    pub flaps: usize,
    /// How long each flap keeps the signal dark.
    pub flap_down: Time,
    /// Frames offered during the degraded window (one every 2 µs).
    pub frames: usize,
    /// Fault-plane seed.
    pub seed: u64,
}

impl RecoveryPoint {
    /// The default sweep point: 6 flaps of 10 µs into a 300 µs window.
    pub fn default_point() -> RecoveryPoint {
        RecoveryPoint {
            retrain_cycles: 400,
            holddown_cycles: 100,
            scrub_words_per_cycle: 4,
            flaps: 6,
            flap_down: Time::from_us(10),
            frames: 150,
            seed: 0xE13,
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRunResult {
    /// Per-outage time-to-recovery (PCS `LinkDown` edge to the matching
    /// `LinkUp` edge), in nanoseconds, sorted ascending.
    pub ttr_ns: Vec<u64>,
    /// Frames offered during the degraded window.
    pub sent: u64,
    /// Frames delivered during the degraded window.
    pub delivered: u64,
    /// Frames lost to downed links while degraded (fault-plane count).
    pub degraded_loss: u64,
    /// Lane re-bond events observed on the bonded port.
    pub rebonds: u64,
    /// SECDED correction latencies (upset to scrub visit), in
    /// nanoseconds, sorted ascending.
    pub scrub_latencies_ns: Vec<u64>,
    /// Memory upsets injected.
    pub upsets: u64,
    /// Upsets corrected by the scrubber.
    pub corrected: u64,
    /// Double upsets: two flips in one word between scrub visits,
    /// detected but not correctable.
    pub double_upsets: u64,
    /// Probe frames offered after the last fault.
    pub probe_sent: u64,
    /// Probe frames delivered — proves recovered forwarding.
    pub probe_delivered: u64,
    /// The applied-fault trace (determinism witness).
    pub trace: Vec<TraceEntry>,
}

impl RecoveryRunResult {
    /// Post-recovery goodput in percent — the acceptance figure.
    pub fn recovery_pct(&self) -> f64 {
        if self.probe_sent == 0 {
            return 100.0;
        }
        self.probe_delivered as f64 * 100.0 / self.probe_sent as f64
    }

    /// Percentile (nearest-rank) of a sorted sample vector.
    pub fn percentile(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    /// Mean of a sample vector (0 when empty).
    pub fn mean(samples: &[u64]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }
}

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

fn frame(src: u8, dst: u8, len: usize) -> Vec<u8> {
    PacketBuilder::new()
        .eth(mac(src), mac(dst))
        .raw(EtherType::Ipv4, &vec![src; len.saturating_sub(18)])
        .build()
}

/// Build the fault schedule for `point`. Flaps land on port 1 every
/// `flap_down + 25 µs` starting at 20 µs; one lane loss hits the bonded
/// port 2 at 30 µs; memory upsets (16 singles plus 12 six-µs-spaced
/// pairs) land in the registered scratch memory. **No restore events.**
fn build_plan(point: &RecoveryPoint) -> FaultPlan {
    let mut plan = FaultPlan::new(point.seed).bond(2, PortBond::ethernet_40g());
    let mut at = Time::from_us(20);
    for _ in 0..point.flaps {
        plan = plan.at(
            at,
            FaultKind::LinkDown {
                port: 1,
                duration: point.flap_down,
            },
        );
        at += point.flap_down + Time::from_us(25);
    }
    plan = plan.at(
        Time::from_us(30),
        FaultKind::LaneLoss {
            port: 2,
            lanes_lost: 2,
        },
    );
    if point.scrub_words_per_cycle > 0 {
        // Singles: one latent flip per word, corrected at the next visit —
        // each contributes one scrub-latency sample.
        for k in 0..16u64 {
            plan = plan.at(
                Time::from_us(15 + 4 * k),
                FaultKind::MemFlip {
                    memory: "scratch".into(),
                    index: (37 * k) as usize,
                    bit: (k % 60) as usize,
                },
            );
        }
        // Pairs: a second flip in the same word 6 µs after the first. A
        // sweep period shorter than 6 µs always corrects the first flip in
        // time; a longer period leaves a window where the pair becomes a
        // detected-not-correctable double upset.
        for k in 0..12u64 {
            let word = (2048 + 17 * k) as usize;
            let at = Time::from_us(18 + 7 * k);
            plan = plan
                .at(
                    at,
                    FaultKind::MemFlip {
                        memory: "scratch".into(),
                        index: word,
                        bit: 5,
                    },
                )
                .at(
                    at + Time::from_us(6),
                    FaultKind::MemFlip {
                        memory: "scratch".into(),
                        index: word,
                        bit: 44,
                    },
                );
        }
    }
    plan.with_recovery(RecoveryPolicy {
        retrain_cycles: point.retrain_cycles,
        holddown_cycles: point.holddown_cycles,
        rejoin_cycles: 800,
        scrub_words_per_cycle: point.scrub_words_per_cycle,
        ..RecoveryPolicy::default()
    })
}

/// Run one sweep point: learned unicast port 0 → port 1 through a 4-port
/// reference switch, faults healing purely through the recovery plane.
pub fn recovery_switch(point: RecoveryPoint) -> RecoveryRunResult {
    let plan = build_plan(&point);
    assert!(
        !plan
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::LaneRestore { .. })),
        "the schedule must not help: no restore events"
    );
    let mut sw = ReferenceSwitch::build(
        &ChassisConfig {
            fast_path: true,
            faults: plan,
            ..ChassisConfig::new(&BoardSpec::sume(), 4)
        },
        1024,
        Time::from_ms(500),
        None,
    );
    let faults = sw.chassis.faults.clone().expect("armed plan");
    if point.scrub_words_per_cycle > 0 {
        faults.register_memory(
            "scratch",
            EccMode::Secded,
            Rc::new(RefCell::new(Bram::<u64>::new(SCRUB_WORDS))),
        );
    }

    // Teach the switch: the dst MAC lives on port 1.
    sw.chassis.send(1, frame(9, 1, 100));
    sw.chassis.run_for(Time::from_us(10));
    for p in [0, 2, 3] {
        sw.chassis.recv(p);
    }

    // Degraded window: steady unicast into the flapping egress, one frame
    // every 2 µs, so every outage (down window + hold-down + retrain)
    // costs counted frames.
    for _ in 0..point.frames {
        sw.chassis.send(0, frame(1, 9, 1000));
        sw.chassis.run_for(Time::from_us(2));
    }
    // Let the last outage heal and the scrubber finish its sweep.
    sw.chassis.run_for(Time::from_us(60));
    let delivered = sw.chassis.recv(1).len() as u64;

    let stat = |path: &str| sw.chassis.telemetry.get(path).expect(path);
    let degraded_loss = stat("faults.link_down_drops");
    let rebonds = stat("port2.pcs.rebonds");
    let upsets = stat("faults.mem.injected");
    let corrected = stat("faults.mem.corrected");
    let double_upsets = stat("faults.mem.double_upsets");

    // Time-to-recovery per outage, from the chassis event ring: each PCS
    // LinkDown edge paired with the next LinkUp edge on the same port.
    let mut ttr_ns = Vec::new();
    let mut down_at = [None::<Time>; 4];
    for e in sw.chassis.events.pending() {
        match e.kind {
            EventKind::LinkDown => down_at[usize::from(e.port)] = Some(e.at),
            EventKind::LinkUp => {
                if let Some(d) = down_at[usize::from(e.port)].take() {
                    ttr_ns.push(e.at.saturating_sub(d).as_ns());
                }
            }
            _ => {}
        }
    }
    ttr_ns.sort_unstable();

    let mut scrub_latencies_ns: Vec<u64> =
        faults.scrub_latencies().iter().map(|t| t.as_ns()).collect();
    scrub_latencies_ns.sort_unstable();

    // Recovery probe: every link must be back up purely autonomically —
    // fresh traffic must flow on the flapped port.
    let probe = (point.frames / 10).max(20) as u64;
    for _ in 0..probe {
        sw.chassis.send(0, frame(1, 9, 1000));
        sw.chassis.run_for(Time::from_us(2));
    }
    sw.chassis.run_for(Time::from_us(60));
    let probe_delivered = sw.chassis.recv(1).len() as u64;

    RecoveryRunResult {
        ttr_ns,
        sent: point.frames as u64,
        delivered,
        degraded_loss,
        rebonds,
        scrub_latencies_ns,
        upsets,
        corrected,
        double_upsets,
        probe_sent: probe,
        probe_delivered,
        trace: faults.trace(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_point_recovers_without_restore_events() {
        let r = recovery_switch(RecoveryPoint::default_point());
        assert_eq!(r.ttr_ns.len(), 7, "6 flap outages + 1 lane-loss outage");
        assert!(r.degraded_loss > 0, "outages must cost frames");
        assert_eq!(
            r.sent,
            r.delivered + r.degraded_loss,
            "loss accounting closes"
        );
        assert_eq!(r.rebonds, 1, "lane loss healed by re-bonding");
        assert!(
            r.recovery_pct() >= 99.0,
            "recovered {:.1}%",
            r.recovery_pct()
        );
        // Every flap outage heals in flap_down + hold-down + retrain,
        // give or take a detection cycle (5 ns): the PCS down edge fires
        // one cycle into the window.
        let floor = Time::from_us(10).as_ns() + (100 + 400) * 5;
        assert!(
            r.ttr_ns[0] >= (100 + 400) * 5,
            "lane-loss TTR below policy floor"
        );
        assert!(
            *r.ttr_ns.last().unwrap() >= floor - 5,
            "flap TTR below analytic floor"
        );
        assert!(
            *r.ttr_ns.last().unwrap() < floor + 1000,
            "flap TTR far over floor"
        );
    }

    #[test]
    fn scrubber_corrects_singles_and_detects_pairs() {
        let r = recovery_switch(RecoveryPoint::default_point());
        assert_eq!(r.upsets, 16 + 24, "all scheduled flips landed");
        // Sweep period at 4 words/cycle over 4096 words = 1024 cycles =
        // 5.12 µs: shorter than the 6 µs pair spacing, so the first flip
        // of every pair is corrected before the second lands — every
        // upset resolves as a corrected single, none as a double.
        assert_eq!(r.corrected, 16 + 24, "every flip corrected by the sweep");
        assert_eq!(r.scrub_latencies_ns.len(), 40);
        assert!(
            *r.scrub_latencies_ns.last().unwrap() <= 5_120,
            "latency bound = period"
        );
        assert_eq!(r.double_upsets, 0, "period shorter than pair spacing");
    }

    #[test]
    fn same_seed_same_result() {
        let a = recovery_switch(RecoveryPoint::default_point());
        let b = recovery_switch(RecoveryPoint::default_point());
        assert_eq!(a, b, "seeded runs are bit-for-bit repeatable");
    }
}
