//! Integration-test helpers; the actual tests live in tests/.

/// Golden signatures: FNV-1a over everything a run exposes, compared with
/// a committed fixture captured on a known commit.
pub mod golden {
    use netfpga_core::hash::Fnv1a64;
    use netfpga_core::time::Time;
    use std::hash::Hasher;

    /// The word-mode goldens of `tests/tests/goldens.rs` and the stall-rig
    /// goldens of `tests/tests/properties.rs`.
    pub const WORD_MODE: &str = include_str!("../tests/fixtures/word_mode.golden");

    /// A running signature. Every field is length- or width-delimited, so
    /// two different observation sequences never hash the same bytes.
    #[derive(Default)]
    pub struct Sig(Fnv1a64);

    impl Sig {
        /// A fresh signature.
        pub fn new() -> Sig {
            Sig::default()
        }

        /// Fold in one integer.
        pub fn u64(&mut self, v: u64) -> &mut Sig {
            self.0.write(&v.to_le_bytes());
            self
        }

        /// Fold in one instant.
        pub fn time(&mut self, t: Time) -> &mut Sig {
            self.u64(t.as_ps())
        }

        /// Fold in a byte string, length first.
        pub fn bytes(&mut self, b: &[u8]) -> &mut Sig {
            self.u64(b.len() as u64);
            self.0.write(b);
            self
        }

        /// Fold in a registry snapshot, minus what is not device state:
        /// the kernel's own work counters and the process-wide buffer pool.
        pub fn registry(&mut self, snapshot: &[(String, u64)]) -> &mut Sig {
            for (name, value) in snapshot {
                if !name.starts_with("kernel.") && !name.starts_with("pool.") {
                    self.bytes(name.as_bytes()).u64(*value);
                }
            }
            self
        }

        /// The signature so far.
        pub fn finish(&self) -> u64 {
            self.0.finish()
        }
    }

    /// Compare `actual` with the `name = hex` lines of `fixture` (`#` starts
    /// a comment). On any difference, panic with every actual line in
    /// fixture syntax — which is also how a fixture is captured: run against
    /// an empty one and paste.
    pub fn check(fixture: &str, actual: &[(String, u64)]) {
        let golden: Vec<(&str, u64)> = fixture
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let (name, hex) = l.split_once(" = ").expect("`name = hex` line");
                (name, u64::from_str_radix(hex, 16).expect("hex signature"))
            })
            .collect();
        let matches = |(name, sig): &(String, u64)| golden.contains(&(name.as_str(), *sig));
        if !actual.iter().all(matches) {
            let lines: Vec<String> = actual
                .iter()
                .map(|(name, sig)| {
                    let mark = if matches(&(name.clone(), *sig)) {
                        ""
                    } else {
                        "   # differs"
                    };
                    format!("{name} = {sig:016x}{mark}")
                })
                .collect();
            panic!(
                "signatures differ from the fixture:\n{}\n",
                lines.join("\n")
            );
        }
    }
}

/// One build of every reference project shape whose module order is pinned
/// by `tests/tests/module_order.rs`, and the fixed traffic
/// `tests/tests/telemetry_snapshot.rs` runs through each.
pub mod builds {
    use netfpga_core::board::BoardSpec;
    use netfpga_core::stream::{Meta, PortMask};
    use netfpga_core::time::Time;
    use netfpga_faults::{FaultPlan, RecoveryPolicy};
    use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
    use netfpga_projects::flowmon::FlowmonConfig;
    use netfpga_projects::{
        BlueSwitch, Chassis, ChassisConfig, OsntTester, ReferenceNic, ReferenceRouter,
        ReferenceSwitch,
    };

    /// `(label, chassis)` for each pinned build.
    pub fn project_chassis() -> Vec<(&'static str, Chassis)> {
        let spec = BoardSpec::sume();
        let plain = ChassisConfig::new(&spec, 4);
        let fast = ChassisConfig {
            fast_path: true,
            ..plain.clone()
        };
        let recovery = ChassisConfig {
            faults: FaultPlan::new(1).with_recovery(RecoveryPolicy::default()),
            ..plain.clone()
        };
        let switch = |config: &ChassisConfig, flowmon: Option<FlowmonConfig>| {
            ReferenceSwitch::build(config, 1024, Time::from_ms(100), flowmon).chassis
        };
        vec![
            ("switch", switch(&plain, None)),
            (
                "switch_flowmon",
                switch(&plain, Some(FlowmonConfig::default())),
            ),
            ("switch_fast_path", switch(&fast, None)),
            ("switch_recovery", switch(&recovery, None)),
            ("router", ReferenceRouter::new(&spec, 4).chassis),
            ("blueswitch", BlueSwitch::new(&spec, 4, 2, 16).chassis),
            ("nic_fast_path", ReferenceNic::build(&fast).chassis),
            ("nic_recovery", ReferenceNic::build(&recovery).chassis),
            ("osnt", OsntTester::new(&spec, 2).chassis),
        ]
    }

    /// Fixed traffic any build takes. Twice, on every port: an IPv4/UDP
    /// frame to the next port's host (the second round finds it learned)
    /// and an ARP request. Then, on a chassis with a DMA engine, two host
    /// frames from the CPU port: one with no destination and one for port 1.
    /// Every frame that leaves the board is drained.
    pub fn drive(chassis: &mut Chassis) {
        let n = chassis.nports();
        let host = |p: usize| EthernetAddress::new(2, 0, 0, 0, 0, p as u8 + 1);
        let ip = |p: usize| Ipv4Address::new(10, 0, p as u8, 1);
        let udp = |p: usize, q: usize| {
            PacketBuilder::new()
                .eth(host(p), host(q))
                .ipv4(ip(p), ip(q))
                .udp(1000 + p as u16, 2000, &[p as u8; 40])
                .build()
        };
        for _ in 0..2 {
            for p in 0..n {
                chassis.send(p, udp(p, (p + 1) % n));
                chassis.send(
                    p,
                    PacketBuilder::arp_request(host(p), ip(p), ip((p + 1) % n)),
                );
            }
            chassis.run_for(Time::from_us(20));
        }
        if let Some(dma) = chassis.dma.clone() {
            let cpu = n as u8;
            dma.send(udp(0, 1), cpu).expect("ring has room");
            let frame = udp(1, 0);
            let meta = Meta {
                len: frame.len() as u16,
                src_port: cpu,
                dst_ports: PortMask::single(1),
                ..Meta::default()
            };
            dma.send_with_meta(frame, meta).expect("ring has room");
        }
        chassis.run_for(Time::from_us(50));
        for p in 0..n {
            chassis.recv(p);
        }
        if let Some(dma) = &chassis.dma {
            while dma.recv().is_some() {}
        }
    }
}
