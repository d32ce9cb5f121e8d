//! # netfpga-nftest
//!
//! The unified test harness: "The test environment provides unified tests
//! for simulation and hardware test, allowing simple validation of
//! designs" (paper §3).
//!
//! A test is a declarative [`TestPlan`]: frames applied to ports, frames
//! expected at ports (in order), register reads/writes, and barriers. The
//! same plan runs against any project's [`Chassis`] — in the real
//! environment the identical description drives both the HDL simulator
//! and the physical board; here the chassis plays both roles. Mismatches
//! are reported with hexdump diffs, as `nf_test.py` prints them.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use netfpga_core::stream::Meta;
use netfpga_core::time::Time;
use netfpga_faults::FaultKind;
use netfpga_packet::hexdump::{hexdump, summarize};
use netfpga_phy::LinkState;
use netfpga_projects::harness::Chassis;
use std::collections::VecDeque;

/// One step of a test plan.
#[derive(Debug, Clone)]
pub enum Step {
    /// Apply a frame to a physical port.
    SendPhy {
        /// Port index.
        port: usize,
        /// Frame bytes.
        frame: Vec<u8>,
    },
    /// Expect this exact frame at a physical port (ordered per port).
    ExpectPhy {
        /// Port index.
        port: usize,
        /// Expected frame bytes.
        frame: Vec<u8>,
    },
    /// Expect this exact frame at a physical port, in any order relative
    /// to other expectations on that port.
    ExpectPhyUnordered {
        /// Port index.
        port: usize,
        /// Expected frame bytes.
        frame: Vec<u8>,
    },
    /// Send a packet up the DMA path (host → card).
    SendDma {
        /// Frame bytes.
        frame: Vec<u8>,
        /// Metadata (destination mask, source port).
        meta: Meta,
    },
    /// Expect this exact frame to arrive at the host over DMA.
    ExpectDma {
        /// Expected frame bytes.
        frame: Vec<u8>,
    },
    /// Write a register.
    RegWrite {
        /// Global address.
        addr: u32,
        /// Value to write.
        value: u32,
    },
    /// Read a register and require `(value & mask) == (expect & mask)`.
    RegExpect {
        /// Global address.
        addr: u32,
        /// Expected value.
        expect: u32,
        /// Compare mask (use `u32::MAX` for exact).
        mask: u32,
    },
    /// Run the simulation until every expectation so far is satisfied or
    /// the timeout expires.
    Barrier {
        /// Maximum simulated time to wait.
        timeout: Time,
    },
    /// Run the simulation for a fixed duration unconditionally.
    RunFor {
        /// Duration to run.
        duration: Time,
    },
    /// Inject a fault through the chassis fault plane. Fails the plan if
    /// the chassis was built without one ([`Chassis::new`] with a
    /// non-inert [`ChassisConfig::faults`](netfpga_projects::ChassisConfig::faults)).
    InjectFault {
        /// The fault to inject.
        fault: FaultKind,
    },
    /// Read a register and require `lo <= value <= hi` — the assertion
    /// shape for fault counters and other load-dependent statistics whose
    /// exact value is timing-sensitive but whose range proves the
    /// behaviour (e.g. "some frames dropped, but not all").
    ExpectCounterInRange {
        /// Global address.
        addr: u32,
        /// Lowest acceptable value (inclusive).
        lo: u32,
        /// Highest acceptable value (inclusive).
        hi: u32,
    },
    /// Require `port`'s PCS link state to be exactly `state` right now.
    /// Fails the plan if the chassis carries no recovery plane
    /// ([`FaultPlan::with_recovery`](netfpga_faults::FaultPlan::with_recovery)).
    ExpectLinkState {
        /// Port index.
        port: usize,
        /// Required state.
        state: LinkState,
    },
    /// Run the simulation until `port`'s PCS is back `Up`, or fail if
    /// that takes more than `max_cycles` core-clock cycles — the
    /// time-to-recovery assertion for autonomic-recovery plans.
    AwaitRecovery {
        /// Port index.
        port: usize,
        /// Recovery deadline, in core-clock cycles from now.
        max_cycles: u64,
    },
    /// Look up a stat by its registry path in the auto-mounted telemetry
    /// block (resolved over MMIO through the block's name table — no
    /// hardcoded addresses) and require `lo <= value <= hi`. Fails the
    /// plan if no telemetry block is mounted or the path is unknown.
    ExpectStat {
        /// Dotted registry path, e.g. `port0.mac.rx.bad_fcs`.
        path: String,
        /// Lowest acceptable value (inclusive).
        lo: u64,
        /// Highest acceptable value (inclusive).
        hi: u64,
    },
    /// Look up `flow` in the flow-monitor's heavy-hitter table (read over
    /// MMIO through [`netfpga_host::dump_flows`]) and require its packet
    /// count in `lo..=hi`. An untracked flow reads as 0 packets, so
    /// `lo == 0` asserts absence-or-quiet. Fails the plan if no
    /// flow-monitor block is mounted.
    ExpectFlow {
        /// The 5-tuple to look up.
        flow: netfpga_flowmon::FiveTuple,
        /// Lowest acceptable packet count (inclusive).
        lo: u64,
        /// Highest acceptable packet count (inclusive).
        hi: u64,
    },
    /// Wedge the DMA engine through the fault plane: a stall no timer
    /// clears — only a watchdog-driven soft reset recovers the engine.
    /// Fails the plan if the chassis was built without a fault plane.
    WedgeDma,
    /// Run the simulation until the hardware watchdog bites (its bite
    /// counter advances past its value at step entry), or fail if that
    /// takes more than `max_cycles` core-clock cycles — the
    /// time-to-recovery assertion for the reliable host-I/O plane. Fails
    /// the plan if no watchdog is attached (attach DMA under a fault plan
    /// carrying a recovery policy).
    AwaitWatchdog {
        /// Bite deadline, in core-clock cycles from now.
        max_cycles: u64,
    },
    /// Require the DMA engine's delivered-ack count to read exactly
    /// `accepted`: every sequenced packet the host accepted entered the
    /// datapath exactly once — retries filled the gaps and the sequence
    /// dedup filter swallowed the extra copies. Fails the plan if the
    /// chassis has no DMA engine.
    ExpectExactlyOnce {
        /// Distinct sequenced packets accepted by the reliable layer.
        accepted: u64,
    },
    /// Read the quantile gauge `{path}.p{q}` (or `{path}.max` when
    /// `q >= 100`) from the telemetry block and require the value in
    /// `lo..=hi` — the assertion shape for queue-occupancy histograms,
    /// whose exact percentiles are load-dependent but whose range proves
    /// the behaviour (e.g. "p99 depth stayed under the queue limit").
    ExpectQuantile {
        /// Histogram path prefix, e.g. `port0.q0.depth`.
        path: String,
        /// Percentile (50, 99, ...); 100 and above read the exact max.
        q: u32,
        /// Lowest acceptable value (inclusive).
        lo: u64,
        /// Highest acceptable value (inclusive).
        hi: u64,
    },
}

/// A named, ordered list of steps.
#[derive(Debug, Clone, Default)]
pub struct TestPlan {
    /// Test name (reported).
    pub name: String,
    steps: Vec<Step>,
}

impl TestPlan {
    /// An empty plan.
    pub fn new(name: &str) -> TestPlan {
        TestPlan {
            name: name.to_string(),
            steps: Vec::new(),
        }
    }

    /// Append: send a frame into a port.
    pub fn send_phy(mut self, port: usize, frame: Vec<u8>) -> Self {
        self.steps.push(Step::SendPhy { port, frame });
        self
    }

    /// Append: expect a frame out of a port.
    pub fn expect_phy(mut self, port: usize, frame: Vec<u8>) -> Self {
        self.steps.push(Step::ExpectPhy { port, frame });
        self
    }

    /// Append: expect a frame out of a port, order-independently.
    pub fn expect_phy_unordered(mut self, port: usize, frame: Vec<u8>) -> Self {
        self.steps.push(Step::ExpectPhyUnordered { port, frame });
        self
    }

    /// Append: host-to-card DMA packet.
    pub fn send_dma(mut self, frame: Vec<u8>, meta: Meta) -> Self {
        self.steps.push(Step::SendDma { frame, meta });
        self
    }

    /// Append: expect a card-to-host DMA packet.
    pub fn expect_dma(mut self, frame: Vec<u8>) -> Self {
        self.steps.push(Step::ExpectDma { frame });
        self
    }

    /// Append: register write.
    pub fn reg_write(mut self, addr: u32, value: u32) -> Self {
        self.steps.push(Step::RegWrite { addr, value });
        self
    }

    /// Append: masked register expectation.
    pub fn reg_expect_masked(mut self, addr: u32, expect: u32, mask: u32) -> Self {
        self.steps.push(Step::RegExpect { addr, expect, mask });
        self
    }

    /// Append: exact register expectation.
    pub fn reg_expect(self, addr: u32, expect: u32) -> Self {
        self.reg_expect_masked(addr, expect, u32::MAX)
    }

    /// Append: barrier with timeout.
    pub fn barrier(mut self, timeout: Time) -> Self {
        self.steps.push(Step::Barrier { timeout });
        self
    }

    /// Append: unconditional run.
    pub fn run_for(mut self, duration: Time) -> Self {
        self.steps.push(Step::RunFor { duration });
        self
    }

    /// Append: inject a fault through the chassis fault plane.
    pub fn inject_fault(mut self, fault: FaultKind) -> Self {
        self.steps.push(Step::InjectFault { fault });
        self
    }

    /// Append: expect a register (counter) value in `lo..=hi`.
    pub fn expect_counter_in_range(mut self, addr: u32, lo: u32, hi: u32) -> Self {
        self.steps.push(Step::ExpectCounterInRange { addr, lo, hi });
        self
    }

    /// Append: require `port`'s PCS link state to equal `state` now.
    pub fn expect_link_state(mut self, port: usize, state: LinkState) -> Self {
        self.steps.push(Step::ExpectLinkState { port, state });
        self
    }

    /// Append: run until `port`'s PCS is `Up` again, failing after
    /// `max_cycles` core-clock cycles.
    pub fn await_recovery(mut self, port: usize, max_cycles: u64) -> Self {
        self.steps.push(Step::AwaitRecovery { port, max_cycles });
        self
    }

    /// Append: expect the telemetry stat at `path` (e.g.
    /// `port0.mac.rx.bad_fcs`) to read a value in `lo..=hi`, resolved by
    /// name through the auto-mounted stat block.
    pub fn expect_stat(mut self, path: &str, lo: u64, hi: u64) -> Self {
        self.steps.push(Step::ExpectStat {
            path: path.to_string(),
            lo,
            hi,
        });
        self
    }

    /// Append: expect `flow`'s packet count in the flow-monitor table to
    /// read a value in `lo..=hi` (untracked flows read 0).
    pub fn expect_flow(mut self, flow: netfpga_flowmon::FiveTuple, lo: u64, hi: u64) -> Self {
        self.steps.push(Step::ExpectFlow { flow, lo, hi });
        self
    }

    /// Append: expect the quantile gauge `{path}.p{q}` (`{path}.max` when
    /// `q >= 100`) to read a value in `lo..=hi`.
    pub fn expect_quantile(mut self, path: &str, q: u32, lo: u64, hi: u64) -> Self {
        self.steps.push(Step::ExpectQuantile {
            path: path.to_string(),
            q,
            lo,
            hi,
        });
        self
    }

    /// Append: wedge the DMA engine (only a watchdog bite recovers it).
    pub fn wedge_dma(mut self) -> Self {
        self.steps.push(Step::WedgeDma);
        self
    }

    /// Append: run until the watchdog bites, failing after `max_cycles`
    /// core-clock cycles.
    pub fn await_watchdog(mut self, max_cycles: u64) -> Self {
        self.steps.push(Step::AwaitWatchdog { max_cycles });
        self
    }

    /// Append: expect the DMA delivered-ack count to read exactly
    /// `accepted` — the exactly-once assertion for sequenced host TX.
    pub fn expect_exactly_once(mut self, accepted: u64) -> Self {
        self.steps.push(Step::ExpectExactlyOnce { accepted });
        self
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Outcome of running a plan.
#[derive(Debug, Clone)]
pub struct TestReport {
    /// The plan's name.
    pub name: String,
    /// Individual checks evaluated (expectations + register expects).
    pub checks: usize,
    /// Human-readable failure descriptions; empty means pass.
    pub failures: Vec<String>,
}

impl TestReport {
    /// True when no check failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Panic with a formatted report unless the test passed — the
    /// assertion used by project conformance tests.
    pub fn assert_passed(&self) {
        assert!(
            self.passed(),
            "nftest '{}' failed ({} checks, {} failures):\n{}",
            self.name,
            self.checks,
            self.failures.len(),
            self.failures.join("\n")
        );
    }
}

struct RunState {
    /// Per-port expected frames, in order.
    expect_phy: Vec<VecDeque<Vec<u8>>>,
    /// Per-port expected frames matched in any order.
    expect_phy_unordered: Vec<Vec<Vec<u8>>>,
    /// Frames received per port, not yet matched.
    got_phy: Vec<VecDeque<Vec<u8>>>,
    expect_dma: VecDeque<Vec<u8>>,
    got_dma: VecDeque<Vec<u8>>,
}

impl RunState {
    fn drain(&mut self, chassis: &mut Chassis) {
        for port in 0..chassis.nports() {
            for frame in chassis.recv(port) {
                self.got_phy[port].push_back(frame);
            }
        }
        if let Some(dma) = chassis.dma.clone() {
            while let Some((frame, _meta)) = dma.recv() {
                self.got_dma.push_back(frame.into_owned());
            }
        }
    }

    fn outstanding(&self) -> usize {
        let phy: usize = self
            .expect_phy
            .iter()
            .zip(&self.expect_phy_unordered)
            .zip(&self.got_phy)
            .map(|((e, u), g)| (e.len() + u.len()).saturating_sub(g.len()))
            .sum();
        phy + self.expect_dma.len().saturating_sub(self.got_dma.len())
    }
}

fn diff_frame(context: &str, expected: &[u8], got: &[u8]) -> Option<String> {
    if expected == got {
        return None;
    }
    Some(format!(
        "{context}: frame mismatch\n expected: {}\n{}\n got:      {}\n{}",
        summarize(expected),
        hexdump(expected),
        summarize(got),
        hexdump(got),
    ))
}

/// Run `plan` against `chassis`. Expectations are matched in order per
/// port; at the end of the plan an implicit final check reports any
/// missing or unexpected frames.
pub fn run(plan: &TestPlan, chassis: &mut Chassis) -> TestReport {
    let nports = chassis.nports();
    let mut state = RunState {
        expect_phy: vec![VecDeque::new(); nports],
        expect_phy_unordered: vec![Vec::new(); nports],
        got_phy: vec![VecDeque::new(); nports],
        expect_dma: VecDeque::new(),
        got_dma: VecDeque::new(),
    };
    let mut failures = Vec::new();
    let mut checks = 0usize;

    for (i, step) in plan.steps.iter().enumerate() {
        match step {
            Step::SendPhy { port, frame } => chassis.send(*port, frame.clone()),
            Step::ExpectPhy { port, frame } => {
                checks += 1;
                state.expect_phy[*port].push_back(frame.clone());
            }
            Step::ExpectPhyUnordered { port, frame } => {
                checks += 1;
                state.expect_phy_unordered[*port].push(frame.clone());
            }
            Step::SendDma { frame, meta } => {
                let dma = chassis
                    .dma
                    .clone()
                    .expect("plan uses DMA but chassis has none");
                if let Err(err) = dma.send_with_meta(frame.clone(), *meta) {
                    failures.push(format!("step {i}: DMA TX refused: {err}"));
                }
            }
            Step::ExpectDma { frame } => {
                checks += 1;
                state.expect_dma.push_back(frame.clone());
            }
            Step::RegWrite { addr, value } => chassis.write32(*addr, *value),
            Step::RegExpect { addr, expect, mask } => {
                checks += 1;
                let got = chassis.read32(*addr);
                if got & mask != expect & mask {
                    failures.push(format!(
                        "step {i}: register {addr:#010x}: expected {expect:#010x} \
                         (mask {mask:#010x}), got {got:#010x}"
                    ));
                }
            }
            Step::Barrier { timeout } => {
                let deadline = chassis.sim.now() + *timeout;
                loop {
                    state.drain(chassis);
                    if state.outstanding() == 0 || chassis.sim.now() >= deadline {
                        break;
                    }
                    chassis.run_for(Time::from_us(1));
                }
            }
            Step::RunFor { duration } => {
                chassis.run_for(*duration);
                state.drain(chassis);
            }
            Step::InjectFault { fault } => match &chassis.faults {
                Some(handle) => handle.inject(fault.clone()),
                None => failures.push(format!(
                    "step {i}: InjectFault on a chassis without a fault plane \
                     (build it with a non-inert FaultPlan)"
                )),
            },
            Step::ExpectCounterInRange { addr, lo, hi } => {
                checks += 1;
                let got = chassis.read32(*addr);
                if got < *lo || got > *hi {
                    failures.push(format!(
                        "step {i}: counter {addr:#010x}: expected {lo}..={hi}, got {got}"
                    ));
                }
            }
            Step::ExpectLinkState { port, state } => {
                checks += 1;
                match chassis.link_state(*port) {
                    Some(got) if got == *state => {}
                    Some(got) => failures.push(format!(
                        "step {i}: port {port} link state: expected {state:?}, got {got:?}"
                    )),
                    None => failures.push(format!(
                        "step {i}: ExpectLinkState on a chassis without a recovery \
                         plane (build the FaultPlan with_recovery)"
                    )),
                }
            }
            Step::AwaitRecovery { port, max_cycles } => {
                checks += 1;
                match chassis.pcs_handle(*port) {
                    Some(pcs) => {
                        let period = chassis.sim.period(chassis.clk);
                        let deadline =
                            chassis.sim.now() + Time::from_ps(period.as_ps() * max_cycles);
                        let recovered = chassis.sim.run_while(deadline, move || !pcs.is_up());
                        state.drain(chassis);
                        if !recovered {
                            failures.push(format!(
                                "step {i}: port {port} did not recover within \
                                 {max_cycles} cycles"
                            ));
                        }
                    }
                    None => failures.push(format!(
                        "step {i}: AwaitRecovery on a chassis without a recovery \
                         plane (build the FaultPlan with_recovery)"
                    )),
                }
            }
            Step::ExpectStat { path, lo, hi } => {
                checks += 1;
                let table = netfpga_core::telemetry::decode_stat_block(
                    netfpga_core::telemetry::TELEMETRY_BASE,
                    |a| chassis.read32(a),
                );
                match table.and_then(|t| t.into_iter().find(|(p, _)| p == path)) {
                    Some((_, addr)) => {
                        let got = u64::from(chassis.read32(addr));
                        if got < *lo || got > *hi {
                            failures.push(format!(
                                "step {i}: stat {path:?}: expected {lo}..={hi}, got {got}"
                            ));
                        }
                    }
                    None => failures.push(format!(
                        "step {i}: stat {path:?} not present in the telemetry block \
                         (is the chassis MMIO bridge attached?)"
                    )),
                }
            }
            Step::ExpectFlow { flow, lo, hi } => {
                checks += 1;
                if chassis.read32(netfpga_flowmon::FLOWMON_BASE) != netfpga_flowmon::FLOWMON_MAGIC {
                    failures.push(format!(
                        "step {i}: ExpectFlow on a chassis without a flow-monitor \
                         block (build it with a FlowmonConfig)"
                    ));
                } else {
                    let got = netfpga_host::dump_flows(chassis)
                        .into_iter()
                        .find(|r| r.flow == *flow)
                        .map_or(0, |r| r.packets);
                    if got < *lo || got > *hi {
                        failures.push(format!(
                            "step {i}: flow {flow}: expected {lo}..={hi} packets, got {got}"
                        ));
                    }
                }
            }
            Step::WedgeDma => match &chassis.faults {
                Some(handle) => handle.inject(FaultKind::DmaWedge),
                None => failures.push(format!(
                    "step {i}: WedgeDma on a chassis without a fault plane \
                     (build it with a non-inert FaultPlan)"
                )),
            },
            Step::AwaitWatchdog { max_cycles } => {
                checks += 1;
                if !chassis.has_watchdog() {
                    failures.push(format!(
                        "step {i}: AwaitWatchdog on a chassis without a watchdog \
                         (attach DMA under a fault plan with a recovery policy)"
                    ));
                } else {
                    let baseline = chassis.watchdog_bites();
                    let period = chassis.sim.period(chassis.clk);
                    let deadline = chassis.sim.now() + Time::from_ps(period.as_ps() * max_cycles);
                    while chassis.watchdog_bites() == baseline && chassis.sim.now() < deadline {
                        chassis.run_for(Time::from_us(1));
                    }
                    state.drain(chassis);
                    if chassis.watchdog_bites() == baseline {
                        failures.push(format!(
                            "step {i}: watchdog did not bite within {max_cycles} cycles"
                        ));
                    }
                }
            }
            Step::ExpectExactlyOnce { accepted } => {
                checks += 1;
                match chassis.dma.clone() {
                    Some(dma) => {
                        let counters = dma.counters();
                        let acked = counters.acked.get();
                        if acked != *accepted {
                            failures.push(format!(
                                "step {i}: exactly-once violated: {accepted} packets \
                                 accepted, {acked} delivered (dup discards: {})",
                                counters.dup_discards.get()
                            ));
                        }
                    }
                    None => failures.push(format!(
                        "step {i}: ExpectExactlyOnce on a chassis without DMA"
                    )),
                }
            }
            Step::ExpectQuantile { path, q, lo, hi } => {
                checks += 1;
                let gauge = if *q >= 100 {
                    format!("{path}.max")
                } else {
                    format!("{path}.p{q}")
                };
                let table = netfpga_core::telemetry::decode_stat_block(
                    netfpga_core::telemetry::TELEMETRY_BASE,
                    |a| chassis.read32(a),
                );
                match table.and_then(|t| t.into_iter().find(|(p, _)| *p == gauge)) {
                    Some((_, addr)) => {
                        let got = u64::from(chassis.read32(addr));
                        if got < *lo || got > *hi {
                            failures.push(format!(
                                "step {i}: quantile {gauge:?}: expected {lo}..={hi}, got {got}"
                            ));
                        }
                    }
                    None => failures.push(format!(
                        "step {i}: quantile gauge {gauge:?} not present in the \
                         telemetry block (is a flow-monitor histogram registered?)"
                    )),
                }
            }
        }
    }

    // Final settle + comparison.
    chassis.run_for(Time::from_us(10));
    state.drain(chassis);
    for port in 0..nports {
        // Unordered expectations consume matching frames from anywhere in
        // the received sequence first.
        for e in state.expect_phy_unordered[port].drain(..) {
            match state.got_phy[port].iter().position(|g| *g == e) {
                Some(pos) => {
                    state.got_phy[port].remove(pos);
                }
                None => failures.push(format!(
                    "port {port}: missing expected (unordered) frame: {}",
                    summarize(&e)
                )),
            }
        }
        let expected = &mut state.expect_phy[port];
        let got = &mut state.got_phy[port];
        let mut idx = 0;
        while let Some(e) = expected.pop_front() {
            match got.pop_front() {
                Some(g) => {
                    if let Some(d) = diff_frame(&format!("port {port} frame {idx}"), &e, &g) {
                        failures.push(d);
                    }
                }
                None => failures.push(format!(
                    "port {port}: missing expected frame {idx}: {}",
                    summarize(&e)
                )),
            }
            idx += 1;
        }
        for g in got.drain(..) {
            failures.push(format!("port {port}: unexpected frame: {}", summarize(&g)));
        }
    }
    let mut idx = 0;
    while let Some(e) = state.expect_dma.pop_front() {
        match state.got_dma.pop_front() {
            Some(g) => {
                if let Some(d) = diff_frame(&format!("DMA frame {idx}"), &e, &g) {
                    failures.push(d);
                }
            }
            None => failures.push(format!(
                "DMA: missing expected frame {idx}: {}",
                summarize(&e)
            )),
        }
        idx += 1;
    }
    for g in state.got_dma.drain(..) {
        failures.push(format!("DMA: unexpected frame: {}", summarize(&g)));
    }

    TestReport {
        name: plan.name.clone(),
        checks,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::board::BoardSpec;
    use netfpga_core::stream::PortMask;
    use netfpga_packet::{EthernetAddress, PacketBuilder};
    use netfpga_projects::harness::ChassisConfig;
    use netfpga_projects::reference_nic::ReferenceNic;
    use netfpga_projects::reference_switch::{ReferenceSwitch, LOOKUP_BASE};

    fn mac(x: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, x)
    }

    fn frame(src: u8, dst: u8) -> Vec<u8> {
        PacketBuilder::new()
            .eth(mac(src), mac(dst))
            .raw(netfpga_packet::EtherType::Ipv4, &[src; 50])
            .build()
    }

    #[test]
    fn switch_flood_plan_passes() {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        let f = frame(1, 2);
        let plan = TestPlan::new("switch_flood")
            .send_phy(0, f.clone())
            .expect_phy(1, f.clone())
            .expect_phy(2, f.clone())
            .expect_phy(3, f)
            .barrier(Time::from_us(50));
        let report = run(&plan, &mut sw.chassis);
        report.assert_passed();
        assert_eq!(report.checks, 3);
    }

    #[test]
    fn wrong_expectation_fails_with_diff() {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        let plan = TestPlan::new("wrong")
            .send_phy(0, frame(1, 2))
            .expect_phy(1, frame(9, 9)) // wrong content
            .barrier(Time::from_us(50));
        let report = run(&plan, &mut sw.chassis);
        assert!(!report.passed());
        // Diff + 2 unexpected flood copies on ports 2 and 3.
        assert!(report.failures.iter().any(|f| f.contains("mismatch")));
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("unexpected frame")));
    }

    #[test]
    fn missing_frame_reported() {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        let plan = TestPlan::new("missing")
            .expect_phy(2, frame(1, 2))
            .barrier(Time::from_us(20));
        let report = run(&plan, &mut sw.chassis);
        assert!(!report.passed());
        assert!(report.failures[0].contains("missing expected frame"));
    }

    #[test]
    fn register_steps() {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        let f = frame(1, 2);
        let plan = TestPlan::new("regs")
            .send_phy(0, f.clone())
            .expect_phy(1, f.clone())
            .expect_phy(2, f.clone())
            .expect_phy(3, f)
            .barrier(Time::from_us(50))
            .reg_expect(LOOKUP_BASE + 4, 1) // one flood
            .reg_write(LOOKUP_BASE, 1) // flush table
            .reg_expect_masked(LOOKUP_BASE + 8, 0, 0); // masked: always true
        let report = run(&plan, &mut sw.chassis);
        report.assert_passed();
        assert_eq!(report.checks, 5);
    }

    #[test]
    fn dma_steps_on_nic() {
        let mut nic = ReferenceNic::new(&BoardSpec::sume(), 4);
        let up = frame(5, 6);
        let down = frame(7, 8);
        let plan = TestPlan::new("nic_dma")
            .send_phy(2, up.clone())
            .expect_dma(up)
            .send_dma(
                down.clone(),
                Meta {
                    dst_ports: PortMask::single(1),
                    ..Default::default()
                },
            )
            .expect_phy(1, down)
            .barrier(Time::from_us(50));
        run(&plan, &mut nic.chassis).assert_passed();
    }

    #[test]
    fn unordered_expectations_match_any_order() {
        // The switch floods one frame to three ports; declare the three
        // expectations against the WRONG ports deliberately? No — unordered
        // is per port; instead inject two frames whose relative order on
        // one port we intentionally declare reversed.
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        let f1 = frame(1, 9);
        let f2 = frame(2, 9);
        // Both flood to port 3 in order f1, f2. Ordered-reversed would
        // fail; unordered passes.
        let plan = TestPlan::new("unordered")
            .send_phy(0, f1.clone())
            .send_phy(1, f2.clone())
            .expect_phy_unordered(3, f2.clone())
            .expect_phy_unordered(3, f1.clone())
            .expect_phy_unordered(2, f1.clone())
            .expect_phy(2, f2.clone())
            .expect_phy_unordered(1, f1.clone())
            .expect_phy_unordered(0, f2)
            .barrier(Time::from_us(50));
        run(&plan, &mut sw.chassis).assert_passed();

        // The ordered version of the reversed pair fails.
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        let f1 = frame(1, 9);
        let f2 = frame(2, 9);
        let plan = TestPlan::new("ordered_reversed")
            .send_phy(0, f1.clone())
            .send_phy(1, f2.clone())
            .expect_phy(3, f2)
            .expect_phy(3, f1)
            .barrier(Time::from_us(50))
            .run_for(Time::from_us(20));
        let report = run(&plan, &mut sw.chassis);
        assert!(!report.passed(), "ordered mismatch must fail");
    }

    #[test]
    fn unordered_missing_frame_reported() {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        let plan = TestPlan::new("unordered_missing")
            .expect_phy_unordered(1, frame(7, 8))
            .barrier(Time::from_us(20));
        let report = run(&plan, &mut sw.chassis);
        assert!(!report.passed());
        assert!(report.failures[0].contains("unordered"));
    }

    #[test]
    fn fault_steps_drive_link_flap_and_counters() {
        use netfpga_faults::{faultregs, FaultPlan, FAULTS_BASE};
        let mut sw = ReferenceSwitch::build(
            &ChassisConfig {
                faults: FaultPlan::new(11),
                ..ChassisConfig::new(&BoardSpec::sume(), 4)
            },
            1024,
            Time::from_ms(100),
            None,
        );
        let f = frame(1, 2);
        let plan = TestPlan::new("fault_flap")
            // Take port 0's link down, send into it: the frame is dropped
            // and counted, never forwarded.
            .inject_fault(FaultKind::LinkDown {
                port: 0,
                duration: Time::from_us(20),
            })
            .run_for(Time::from_us(1))
            .send_phy(0, f.clone())
            .run_for(Time::from_us(10))
            .expect_counter_in_range(FAULTS_BASE + faultregs::LINK_DOWN_DROPS, 1, 1)
            // After the flap the link recovers: traffic floods again.
            .run_for(Time::from_us(20))
            .send_phy(0, f.clone())
            .expect_phy(1, f.clone())
            .expect_phy(2, f.clone())
            .expect_phy(3, f)
            .barrier(Time::from_us(50))
            .expect_counter_in_range(FAULTS_BASE + faultregs::LINK_DOWN_DROPS, 1, 1);
        let report = run(&plan, &mut sw.chassis);
        report.assert_passed();
        assert_eq!(report.checks, 5);
    }

    #[test]
    fn inject_fault_without_fault_plane_fails_the_plan() {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        let plan = TestPlan::new("no_plane").inject_fault(FaultKind::LinkDown {
            port: 0,
            duration: Time::from_us(1),
        });
        let report = run(&plan, &mut sw.chassis);
        assert!(!report.passed());
        assert!(report.failures[0].contains("without a fault plane"));
    }

    #[test]
    fn counter_out_of_range_reported() {
        use netfpga_faults::{faultregs, FaultPlan, FAULTS_BASE};
        let mut sw = ReferenceSwitch::build(
            &ChassisConfig {
                faults: FaultPlan::new(12),
                ..ChassisConfig::new(&BoardSpec::sume(), 4)
            },
            1024,
            Time::from_ms(100),
            None,
        );
        let plan = TestPlan::new("range").expect_counter_in_range(
            FAULTS_BASE + faultregs::LINK_DOWN_DROPS,
            5,
            9,
        );
        let report = run(&plan, &mut sw.chassis);
        assert!(!report.passed());
        assert!(report.failures[0].contains("expected 5..=9, got 0"));
    }

    #[test]
    fn expect_stat_resolves_paths_by_name() {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        let f = frame(1, 2);
        let plan = TestPlan::new("stat_paths")
            .send_phy(0, f.clone())
            .expect_phy(1, f.clone())
            .expect_phy(2, f.clone())
            .expect_phy(3, f)
            .barrier(Time::from_us(50))
            .expect_stat("port0.mac.rx.frames", 1, 1)
            .expect_stat("port0.mac.rx.bad_fcs", 0, 0)
            .expect_stat("lookup.floods", 1, 1)
            .expect_stat("rx_stats.total_packets", 1, 1)
            // The flood leaves on three TX MACs.
            .expect_stat("port1.mac.tx.frames", 1, 1)
            .expect_stat("port3.mac.tx.frames", 1, 1);
        let report = run(&plan, &mut sw.chassis);
        report.assert_passed();
        assert_eq!(report.checks, 9);

        // Unknown paths fail the plan with a clear message.
        let report = run(
            &TestPlan::new("bad_path").expect_stat("no.such.stat", 0, 0),
            &mut sw.chassis,
        );
        assert!(!report.passed());
        assert!(report.failures[0].contains("not present"));
    }

    #[test]
    fn recovery_steps_drive_the_autonomic_plane() {
        use netfpga_faults::{FaultPlan, RecoveryPolicy};
        let policy = RecoveryPolicy {
            retrain_cycles: 400,
            holddown_cycles: 100,
            rejoin_cycles: 800,
            scrub_words_per_cycle: 0,
            ..RecoveryPolicy::default()
        };
        let mut sw = ReferenceSwitch::build(
            &ChassisConfig {
                faults: FaultPlan::new(21).with_recovery(policy),
                ..ChassisConfig::new(&BoardSpec::sume(), 4)
            },
            1024,
            Time::from_ms(100),
            None,
        );
        let f = frame(1, 2);
        // Graceful degradation with no restore event anywhere: flap the
        // ingress port, watch the PCS walk Down → Up on its own, then
        // prove forwarding works again.
        let plan = TestPlan::new("autonomic_recovery")
            .expect_link_state(0, LinkState::Up)
            .inject_fault(FaultKind::LinkDown {
                port: 0,
                duration: Time::from_us(10),
            })
            .run_for(Time::from_us(1))
            .expect_link_state(0, LinkState::Down)
            // 10 us window + 0.5 us hold-down + 2 us retrain ≈ 2400 cycles.
            .await_recovery(0, 5000)
            .expect_link_state(0, LinkState::Up)
            .send_phy(0, f.clone())
            .expect_phy(1, f.clone())
            .expect_phy(2, f.clone())
            .expect_phy(3, f)
            .barrier(Time::from_us(50))
            .expect_stat("port0.pcs.downs", 1, 1)
            .expect_stat("port0.pcs.retrains", 1, 1);
        let report = run(&plan, &mut sw.chassis);
        report.assert_passed();
        assert_eq!(report.checks, 9);
    }

    #[test]
    fn await_recovery_fails_when_the_deadline_is_too_tight() {
        use netfpga_faults::{FaultPlan, RecoveryPolicy};
        let mut sw = ReferenceSwitch::build(
            &ChassisConfig {
                faults: FaultPlan::new(22).with_recovery(RecoveryPolicy::default()),
                ..ChassisConfig::new(&BoardSpec::sume(), 4)
            },
            1024,
            Time::from_ms(100),
            None,
        );
        let plan = TestPlan::new("too_tight")
            .inject_fault(FaultKind::LinkDown {
                port: 0,
                duration: Time::from_us(50),
            })
            .run_for(Time::from_us(1))
            // The down window alone is 10 000 cycles; 100 cannot suffice.
            .await_recovery(0, 100);
        let report = run(&plan, &mut sw.chassis);
        assert!(!report.passed());
        assert!(report.failures[0].contains("did not recover within 100 cycles"));
    }

    #[test]
    fn recovery_steps_without_a_recovery_plane_fail_the_plan() {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        let report = run(
            &TestPlan::new("no_plane_state").expect_link_state(0, LinkState::Up),
            &mut sw.chassis,
        );
        assert!(!report.passed());
        assert!(report.failures[0].contains("without a recovery plane"));
        let report = run(
            &TestPlan::new("no_plane_await").await_recovery(0, 100),
            &mut sw.chassis,
        );
        assert!(!report.passed());
        assert!(report.failures[0].contains("without a recovery plane"));
    }

    #[test]
    fn flow_and_quantile_steps_drive_the_flowmon_plane() {
        use netfpga_flowmon::{FiveTuple, FlowmonConfig};
        use netfpga_packet::Ipv4Address;
        let mut sw = ReferenceSwitch::build(
            &ChassisConfig::new(&BoardSpec::sume(), 4),
            1024,
            Time::from_ms(100),
            Some(FlowmonConfig::default()),
        );
        let pkt = |sport: u16| {
            PacketBuilder::new()
                .eth(mac(1), mac(2))
                .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
                .udp(sport, 80, &[0xee; 40])
                .build()
        };
        let tracked = FiveTuple {
            src_ip: u32::from_be_bytes([10, 0, 0, 1]),
            dst_ip: u32::from_be_bytes([10, 0, 0, 2]),
            src_port: 4000,
            dst_port: 80,
            proto: 17,
        };
        let absent = FiveTuple {
            src_port: 9999,
            ..tracked
        };
        let mut plan = TestPlan::new("flowmon_steps");
        for _ in 0..3 {
            plan = plan.send_phy(0, pkt(4000));
            // Each send floods to the three other ports.
            for port in 1..4 {
                plan = plan.expect_phy(port, pkt(4000));
            }
        }
        let plan = plan
            .barrier(Time::from_us(50))
            .expect_flow(tracked, 3, 3)
            .expect_flow(absent, 0, 0)
            .expect_quantile("port1.q0.depth", 99, 0, 16)
            .expect_quantile("port1.q0.depth", 100, 0, 16)
            .expect_stat("flowmon.packets", 3, 3);
        let report = run(&plan, &mut sw.chassis);
        report.assert_passed();
        assert_eq!(report.checks, 14);

        // An out-of-range flow count fails with a clear message.
        let report = run(
            &TestPlan::new("flow_range").expect_flow(tracked, 7, 9),
            &mut sw.chassis,
        );
        assert!(!report.passed());
        assert!(report.failures[0].contains("expected 7..=9 packets, got 3"));
    }

    #[test]
    fn flowmon_steps_without_the_block_fail_the_plan() {
        use netfpga_flowmon::FiveTuple;
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        let report = run(
            &TestPlan::new("no_block").expect_flow(FiveTuple::default(), 0, 0),
            &mut sw.chassis,
        );
        assert!(!report.passed());
        assert!(report.failures[0].contains("without a flow-monitor block"));
        let report = run(
            &TestPlan::new("no_gauge").expect_quantile("port0.q0.depth", 99, 0, 10),
            &mut sw.chassis,
        );
        assert!(!report.passed());
        assert!(report.failures[0].contains("not present"));
    }

    #[test]
    #[should_panic(expected = "nftest 'boom' failed")]
    fn assert_passed_panics_on_failure() {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 1024, Time::from_ms(100));
        let plan = TestPlan::new("boom")
            .expect_phy(0, frame(1, 2))
            .barrier(Time::from_us(10));
        run(&plan, &mut sw.chassis).assert_passed();
    }
}
