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
/// by `tests/tests/module_order.rs`.
pub mod builds {
    use netfpga_core::board::BoardSpec;
    use netfpga_core::time::Time;
    use netfpga_faults::{FaultPlan, RecoveryPolicy};
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
}
