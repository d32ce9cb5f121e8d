//! Degraded-mode workloads: the reference switch under a seeded fault
//! plan, for the E11 BER × link-flap sweep.
//!
//! The scenario is the robustness story end to end: unicast traffic
//! through a learned switch while the ingress port takes bit errors
//! (caught by the RX MAC's CRC-32 FCS check) and the egress link flaps
//! (frames dropped while down, counted by the fault plane). After the
//! last flap a probe batch checks that throughput *recovers* — the switch
//! must degrade gracefully, not hang.

use netfpga_core::board::BoardSpec;
use netfpga_core::time::Time;
use netfpga_faults::{FaultKind, FaultPlan, TraceEntry};
use netfpga_packet::{EtherType, EthernetAddress, PacketBuilder};
use netfpga_projects::{ChassisConfig, ReferenceSwitch};

/// One point of the BER × flap sweep.
#[derive(Debug, Clone, Copy)]
pub struct FaultPoint {
    /// Bit-error rate on the ingress port (errors per data bit).
    pub ber: f64,
    /// Flap the egress link every this often (`None`: never).
    pub flap_period: Option<Time>,
    /// How long each flap keeps the link down.
    pub flap_down: Time,
    /// Frames in the main batch.
    pub frames: usize,
    /// Payload-bearing frame length in bytes.
    pub frame_len: usize,
    /// Fault-plane seed.
    pub seed: u64,
}

impl FaultPoint {
    /// A clean baseline point (no faults) of the same traffic shape.
    pub fn clean(frames: usize) -> FaultPoint {
        FaultPoint {
            ber: 0.0,
            flap_period: None,
            flap_down: Time::from_us(20),
            frames,
            frame_len: 1000,
            seed: 0xE11,
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRunResult {
    /// Frames offered in the main batch.
    pub sent: u64,
    /// Frames delivered at the egress tester during the main batch.
    pub delivered: u64,
    /// Frames the ingress RX MAC dropped as corrupt.
    pub bad_fcs: u64,
    /// Frames the fault plane dropped while the link was down.
    pub link_drops: u64,
    /// Individual bit errors injected.
    pub ber_flips: u64,
    /// Probe frames offered after the last flap.
    pub probe_sent: u64,
    /// Probe frames delivered — proves recovered throughput.
    pub probe_delivered: u64,
    /// The applied-fault trace (determinism witness).
    pub trace: Vec<TraceEntry>,
}

impl FaultRunResult {
    /// Main-batch goodput in percent of offered frames.
    pub fn goodput_pct(&self) -> f64 {
        if self.sent == 0 {
            return 100.0;
        }
        self.delivered as f64 * 100.0 / self.sent as f64
    }

    /// Probe goodput in percent — the recovery figure.
    pub fn recovery_pct(&self) -> f64 {
        if self.probe_sent == 0 {
            return 100.0;
        }
        self.probe_delivered as f64 * 100.0 / self.probe_sent as f64
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

/// Run one sweep point: learned unicast port 0 → port 1 through a 4-port
/// reference switch with the fault plan derived from `point`.
pub fn degraded_switch(point: FaultPoint) -> FaultRunResult {
    // Main batch wire time at 10G, with slack for flap stalls and drain.
    let batch_time = Time::from_ns((point.frames as u64 * point.frame_len as u64 * 8) / 10 + 1)
        + Time::from_us(200);

    let mut plan = FaultPlan::new(point.seed);
    if point.ber > 0.0 {
        plan = plan.at(
            Time::ZERO,
            FaultKind::SetBer {
                port: 0,
                ber: point.ber,
            },
        );
    }
    if let Some(period) = point.flap_period {
        // First flap half a period in, so even short batches get hit.
        let mut at = Time::from_ns(period.as_ns() / 2);
        while at < batch_time {
            plan = plan.at(
                at,
                FaultKind::LinkDown {
                    port: 1,
                    duration: point.flap_down,
                },
            );
            at += period;
        }
    }

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

    // Teach the switch: dst lives on port 1.
    sw.chassis.send(1, frame(9, 1, 100));
    sw.chassis.run_for(Time::from_us(5));
    sw.chassis.recv(0);
    sw.chassis.recv(2);
    sw.chassis.recv(3);

    // Main batch: port 0 -> learned port 1.
    for _ in 0..point.frames {
        sw.chassis.send(0, frame(1, 9, point.frame_len));
    }
    sw.chassis.run_for(batch_time);
    let delivered = sw.chassis.recv(1).len() as u64;
    // Counters come through the unified registry paths — the same cells
    // the legacy handles read, resolved by name.
    let stat = |path: &str| sw.chassis.telemetry.get(path).expect(path);
    let bad_fcs = stat("port0.mac.rx.bad_fcs");
    let link_drops = stat("faults.link_down_drops");
    let ber_flips = stat("faults.ber_flips");

    // Recovery probe: clear the error processes, send a fresh batch, and
    // require it to flow — the graceful-degradation acceptance.
    faults.inject(FaultKind::SetBer { port: 0, ber: 0.0 });
    sw.chassis.run_for(Time::from_us(50));
    sw.chassis.recv(1);
    let probe = (point.frames / 10).max(20);
    for _ in 0..probe {
        sw.chassis.send(0, frame(1, 9, point.frame_len));
    }
    let probe_time =
        Time::from_ns((probe as u64 * point.frame_len as u64 * 8) / 10 + 1) + Time::from_us(100);
    sw.chassis.run_for(probe_time);
    let probe_delivered = sw.chassis.recv(1).len() as u64;

    FaultRunResult {
        sent: point.frames as u64,
        delivered,
        bad_fcs,
        link_drops,
        ber_flips,
        probe_sent: probe as u64,
        probe_delivered,
        trace: faults.trace(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_point_delivers_everything() {
        let r = degraded_switch(FaultPoint::clean(50));
        assert_eq!(r.delivered, r.sent);
        assert_eq!(r.bad_fcs, 0);
        assert_eq!(r.link_drops, 0);
        assert_eq!(r.recovery_pct(), 100.0);
    }

    #[test]
    fn faulty_point_degrades_and_recovers() {
        let point = FaultPoint {
            ber: 1e-4,
            flap_period: Some(Time::from_us(100)),
            ..FaultPoint::clean(100)
        };
        let r = degraded_switch(point);
        assert!(r.delivered < r.sent, "BER + flaps must cost something");
        assert!(r.bad_fcs > 0, "corrupted frames must be FCS-detected");
        assert!(r.delivered > 0, "not a total outage");
        assert_eq!(r.recovery_pct(), 100.0, "throughput must recover");
    }

    #[test]
    fn same_seed_same_result() {
        let point = FaultPoint {
            ber: 5e-5,
            ..FaultPoint::clean(60)
        };
        let a = degraded_switch(point);
        let b = degraded_switch(point);
        assert_eq!(a, b, "seeded runs are bit-for-bit repeatable");
    }
}
