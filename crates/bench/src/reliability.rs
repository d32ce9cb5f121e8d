//! Reliable host-I/O workloads: the reference NIC's host TX path riding
//! the sequenced/retry channel across DMA faults, for the E15 stall ×
//! drop × wedge sweep.
//!
//! The scenario closes the host-side fault → repair loop: the plan
//! stalls, drops and wedges the DMA engine but never restores anything.
//! Recovery comes from the reliable layer (timeout retry with backoff
//! re-posts lost descriptors; the engine's sequence dedup filter
//! discards the extra copies) and, for the wedge, from the hardware
//! watchdog's quiesce–drain–soft-reset. Every run is judged against
//! exactly-once delivery: distinct frames out equals sequences acked,
//! zero duplicates on the wire.

use netfpga_core::board::BoardSpec;
use netfpga_core::stream::{Meta, PortMask};
use netfpga_core::telemetry::EventKind;
use netfpga_core::time::Time;
use netfpga_faults::{FaultKind, FaultPlan, RecoveryPolicy, TraceEntry};
use netfpga_host::{ReliableChannel, ReliableConfig};
use netfpga_packet::{EtherType, EthernetAddress, PacketBuilder};
use netfpga_projects::reference_nic::ReferenceNic;
use netfpga_projects::ChassisConfig;
use std::collections::BTreeSet;

/// When the wedge lands (wedge points only).
pub const WEDGE_AT_US: u64 = 100;

/// One point of the stall × drop × wedge sweep.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityPoint {
    /// DMA stall window length in µs (0 = no stalls). Two windows land
    /// at 30 µs and 150 µs.
    pub stall_us: u64,
    /// DMA drop window length in µs (0 = no drops). One window lands at
    /// 70 µs.
    pub drop_us: u64,
    /// Wedge the engine at [`WEDGE_AT_US`]: a stall no timer clears —
    /// only the watchdog's soft reset recovers it.
    pub wedge: bool,
    /// Watchdog no-progress deadline, in core-clock cycles.
    pub watchdog_deadline_cycles: u64,
    /// Frames offered through the reliable channel (one every 2 µs).
    pub frames: usize,
    /// Fault-plane seed (the retry jitter derives from it too).
    pub seed: u64,
}

impl ReliabilityPoint {
    /// The default sweep point: no faults, generous watchdog.
    pub fn default_point() -> ReliabilityPoint {
        ReliabilityPoint {
            stall_us: 0,
            drop_us: 0,
            wedge: false,
            watchdog_deadline_cycles: 20_000,
            frames: 120,
            seed: 0xE15,
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityRunResult {
    /// Frames the channel accepted (offered minus shed).
    pub accepted: u64,
    /// Distinct frames that exited the egress port.
    pub delivered: u64,
    /// Duplicate frames on the wire — must be 0 for exactly-once.
    pub wire_duplicates: u64,
    /// Sequences the engine acked as delivered.
    pub acked: u64,
    /// Retry re-posts by the reliable layer.
    pub retries: u64,
    /// Duplicate descriptors swallowed by the engine's dedup filter.
    pub dup_discards: u64,
    /// Frames shed at the pending queue.
    pub tx_shed: u64,
    /// Frames abandoned after the attempt cap.
    pub abandoned: u64,
    /// Descriptors dropped by fault windows on the TX side.
    pub fault_tx_dropped: u64,
    /// Watchdog bites.
    pub bites: u64,
    /// Bites that fired before [`WEDGE_AT_US`]: with a deadline shorter
    /// than the stall windows (the wedge rows' 1000 cycles = 5 µs against
    /// a 40 µs stall opening at 30 µs) the watchdog rightly bites a stall
    /// first — those are not the wedge's.
    pub pre_wedge_bites: u64,
    /// Wedge injection to the first watchdog bite at or after it, in
    /// nanoseconds (wedge points only).
    pub bite_latency_ns: Option<u64>,
    /// The applied-fault trace (determinism witness).
    pub trace: Vec<TraceEntry>,
}

impl ReliabilityRunResult {
    /// True when every accepted frame reached the wire exactly once.
    pub fn exactly_once(&self) -> bool {
        self.wire_duplicates == 0
            && self.abandoned == 0
            && self.delivered == self.accepted
            && self.acked == self.accepted
    }
}

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

/// A frame whose payload encodes its index — distinct per `k`, so
/// duplicates on the wire are countable.
fn frame(k: usize) -> Vec<u8> {
    let mut payload = vec![0x5a; 60];
    payload[0] = (k >> 8) as u8;
    payload[1] = k as u8;
    PacketBuilder::new()
        .eth(mac(0xee), mac(0xa0))
        .raw(EtherType::Ipv4, &payload)
        .build()
}

/// Build the fault schedule for `point`. **No restore events**: stalls
/// and drops expire on their own clocks, the wedge only yields to the
/// watchdog.
fn build_plan(point: &ReliabilityPoint) -> FaultPlan {
    let mut plan = FaultPlan::new(point.seed);
    if point.stall_us > 0 {
        for start in [30u64, 150] {
            plan = plan.at(
                Time::from_us(start),
                FaultKind::DmaStall {
                    duration: Time::from_us(point.stall_us),
                },
            );
        }
    }
    if point.drop_us > 0 {
        plan = plan.at(
            Time::from_us(70),
            FaultKind::DmaDrop {
                duration: Time::from_us(point.drop_us),
            },
        );
    }
    if point.wedge {
        plan = plan.at(Time::from_us(WEDGE_AT_US), FaultKind::DmaWedge);
    }
    plan.with_recovery(RecoveryPolicy {
        watchdog_deadline_cycles: point.watchdog_deadline_cycles,
        ..RecoveryPolicy::default()
    })
}

/// Run one sweep point: host TX through the reliable channel into a
/// 4-port reference NIC, frames exiting port 1, faults healing through
/// retry and (for the wedge) the watchdog.
pub fn reliability_nic(point: ReliabilityPoint) -> ReliabilityRunResult {
    let plan = build_plan(&point);
    let mut nic = ReferenceNic::build(&ChassisConfig {
        fast_path: true,
        faults: plan,
        ..ChassisConfig::new(&BoardSpec::sume(), 4)
    });
    let dma = nic.chassis.dma.clone().expect("NIC has DMA");
    // A generous attempt cap: the sweep judges exactly-once, so no point
    // may abandon — shedding at the pending queue is the only legal loss.
    let config = ReliableConfig {
        max_attempts: 16,
        ..ReliableConfig::default()
    };
    let (driver, channel) =
        ReliableChannel::new("reliable", dma.clone(), config, point.seed ^ 0xE15);
    let clk = nic.chassis.clk;
    nic.chassis.sim.add_module(clk, driver);
    let faults = nic.chassis.faults.clone().expect("armed plan");

    let meta = Meta {
        dst_ports: PortMask::single(1),
        ..Default::default()
    };
    let mut offered = 0usize;
    for k in 0..point.frames {
        let _ = channel.send(frame(k), meta);
        offered += 1;
        nic.chassis.run_for(Time::from_us(2));
    }
    // Drain: let retries and the watchdog finish, bounded so a wedged
    // run without a watchdog bite still terminates.
    let deadline = nic.chassis.sim.now() + Time::from_ms(5);
    while !channel.idle() && nic.chassis.sim.now() < deadline {
        nic.chassis.run_for(Time::from_us(10));
    }
    nic.chassis.run_for(Time::from_us(50));
    assert_eq!(offered as u64, channel.accepted() + channel.tx_shed());

    // Count distinct frames on the wire; anything seen twice is a
    // duplicate the dedup filter failed to stop.
    let mut seen = BTreeSet::new();
    let mut wire_duplicates = 0u64;
    for f in nic.chassis.recv(1) {
        if !seen.insert(f) {
            wire_duplicates += 1;
        }
    }

    let wedge_at = Time::from_us(WEDGE_AT_US);
    let bite_times: Vec<Time> = nic
        .chassis
        .events
        .pending()
        .iter()
        .filter(|e| e.kind == EventKind::WatchdogBite)
        .map(|e| e.at)
        .collect();
    let pre_wedge_bites = bite_times.iter().filter(|&&at| at < wedge_at).count() as u64;
    let bite_latency_ns = bite_times
        .iter()
        .find(|&&at| at >= wedge_at)
        .filter(|_| point.wedge)
        .map(|&at| (at - wedge_at).as_ns());

    ReliabilityRunResult {
        accepted: channel.accepted(),
        delivered: seen.len() as u64,
        wire_duplicates,
        acked: dma.counters().acked.get(),
        retries: channel.retries(),
        dup_discards: dma.counters().dup_discards.get(),
        tx_shed: channel.tx_shed(),
        abandoned: channel.abandoned(),
        fault_tx_dropped: nic
            .chassis
            .telemetry
            .get("dma.fault.tx_dropped")
            .unwrap_or(0),
        bites: nic.chassis.watchdog_bites(),
        pre_wedge_bites,
        bite_latency_ns,
        trace: faults.trace(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_point_is_exactly_once_with_no_retries() {
        let r = reliability_nic(ReliabilityPoint::default_point());
        assert!(r.exactly_once(), "{r:?}");
        assert_eq!(r.retries, 0);
        assert_eq!(r.bites, 0);
        assert_eq!(r.tx_shed, 0);
    }

    #[test]
    fn stall_and_drop_point_retries_to_exactly_once() {
        let point = ReliabilityPoint {
            stall_us: 40,
            drop_us: 30,
            ..ReliabilityPoint::default_point()
        };
        let r = reliability_nic(point);
        assert!(r.exactly_once(), "{r:?}");
        assert!(r.retries > 0, "drop windows must force retries");
        assert!(r.fault_tx_dropped > 0);
    }

    #[test]
    fn wedge_point_recovers_through_the_watchdog() {
        let point = ReliabilityPoint {
            wedge: true,
            watchdog_deadline_cycles: 1000,
            ..ReliabilityPoint::default_point()
        };
        let r = reliability_nic(point);
        assert!(r.exactly_once(), "{r:?}");
        assert!(r.bites >= 1, "the wedge only yields to the watchdog");
        assert!(r.bite_latency_ns.is_some());
    }

    /// The E15 anomaly, pinned: a 5 µs deadline bites the 40 µs stall
    /// that opens at 30 µs, long before the wedge exists. That bite is
    /// reported as pre-wedge, and the wedge's own latency is measured from
    /// the first bite at or after the wedge instant — one deadline later.
    #[test]
    fn bite_latency_ignores_bites_before_the_wedge() {
        let point = ReliabilityPoint {
            stall_us: 40,
            drop_us: 30,
            wedge: true,
            watchdog_deadline_cycles: 1000,
            ..ReliabilityPoint::default_point()
        };
        let r = reliability_nic(point);
        assert!(r.exactly_once(), "{r:?}");
        assert_eq!(r.pre_wedge_bites, 1, "the 30 us stall bites first: {r:?}");
        assert!(r.bites > r.pre_wedge_bites, "the wedge bites too: {r:?}");
        let latency = r.bite_latency_ns.expect("wedge point");
        assert!(
            (5_000..6_000).contains(&latency),
            "wedge bite is one 1000-cycle deadline after the wedge: {latency} ns"
        );
    }

    #[test]
    fn same_seed_same_result() {
        let point = ReliabilityPoint {
            stall_us: 40,
            drop_us: 30,
            wedge: true,
            watchdog_deadline_cycles: 1000,
            ..ReliabilityPoint::default_point()
        };
        let a = reliability_nic(point);
        let b = reliability_nic(point);
        assert_eq!(a, b, "seeded runs are bit-for-bit repeatable");
    }
}
