//! BlueSwitch: the contributed multi-table OpenFlow switch with
//! **provably consistent configuration** (Han et al., ANCS 2015 — cited by
//! the paper as a flagship community project).
//!
//! The data plane is a pipeline of TCAM match-action tables. Its defining
//! feature is the *atomic update*: every table is double-banked; the
//! controller writes a complete new configuration into the shadow banks
//! and then issues one commit that flips all tables to the new banks
//! simultaneously. Every packet is therefore classified against exactly
//! one configuration version — never a mixture — which is the property
//! experiment E5 measures against a naive write-in-place baseline.

use crate::harness::{Chassis, ChassisConfig, ReferencePipeline};
use netfpga_core::board::BoardSpec;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::regs::{shared, RegisterSpace, UNMAPPED_READ};
use netfpga_core::resources::ResourceCost;
use netfpga_core::stats::Counter;
use netfpga_core::stream::{Meta, PortMask};
use netfpga_core::telemetry::StatRegistry;
use netfpga_core::time::Time;
use netfpga_datapath::blocks;
use netfpga_datapath::stage::{PacketLogic, StageAction};
use netfpga_datapath::ParsedHeaders;
use netfpga_mem::{Tcam, TcamEntry, TernaryKey};
use std::cell::RefCell;
use std::rc::Rc;

/// Width of the packed flow key in bytes:
/// `in_port(1) ‖ eth_dst(6) ‖ eth_src(6) ‖ ethertype(2) ‖ ip_src(4) ‖
/// ip_dst(4) ‖ ip_proto(1) ‖ l4_src(2) ‖ l4_dst(2)`.
pub const KEY_WIDTH: usize = 28;

/// Pack the match key of a packet.
pub fn flow_key(packet: &[u8], meta: &Meta) -> [u8; KEY_WIDTH] {
    let h = ParsedHeaders::parse(packet);
    let mut k = [0u8; KEY_WIDTH];
    k[0] = meta.src_port;
    k[1..7].copy_from_slice(h.eth_dst.as_bytes());
    k[7..13].copy_from_slice(h.eth_src.as_bytes());
    k[13..15].copy_from_slice(&h.ethertype.to_be_bytes());
    if let Some(ip) = h.ipv4 {
        k[15..19].copy_from_slice(ip.src.as_bytes());
        k[19..23].copy_from_slice(ip.dst.as_bytes());
        k[23] = ip.protocol.into();
        if let Some((sp, dp)) = ip.l4 {
            k[24..26].copy_from_slice(&sp.to_be_bytes());
            k[26..28].copy_from_slice(&dp.to_be_bytes());
        }
    }
    k
}

/// Builder for ternary flow-rule keys over the packed layout.
#[derive(Debug, Clone)]
pub struct FlowKeyBuilder {
    value: [u8; KEY_WIDTH],
    mask: [u8; KEY_WIDTH],
}

impl Default for FlowKeyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowKeyBuilder {
    /// Start from an all-wildcard key.
    pub fn new() -> FlowKeyBuilder {
        FlowKeyBuilder {
            value: [0; KEY_WIDTH],
            mask: [0; KEY_WIDTH],
        }
    }

    fn set(mut self, range: core::ops::Range<usize>, bytes: &[u8]) -> Self {
        self.value[range.clone()].copy_from_slice(bytes);
        for m in &mut self.mask[range] {
            *m = 0xff;
        }
        self
    }

    /// Match the ingress port.
    pub fn in_port(self, port: u8) -> Self {
        self.set(0..1, &[port])
    }

    /// Match the destination MAC.
    pub fn eth_dst(self, mac: netfpga_packet::EthernetAddress) -> Self {
        self.set(1..7, mac.as_bytes())
    }

    /// Match the source MAC.
    pub fn eth_src(self, mac: netfpga_packet::EthernetAddress) -> Self {
        self.set(7..13, mac.as_bytes())
    }

    /// Match the EtherType.
    pub fn ethertype(self, et: u16) -> Self {
        self.set(13..15, &et.to_be_bytes())
    }

    /// Match the IPv4 source.
    pub fn ip_src(self, ip: netfpga_packet::Ipv4Address) -> Self {
        self.set(15..19, ip.as_bytes())
    }

    /// Match the IPv4 destination.
    pub fn ip_dst(self, ip: netfpga_packet::Ipv4Address) -> Self {
        self.set(19..23, ip.as_bytes())
    }

    /// Match the IP protocol.
    pub fn ip_proto(self, proto: u8) -> Self {
        self.set(23..24, &[proto])
    }

    /// Match the L4 destination port.
    pub fn l4_dst(self, port: u16) -> Self {
        self.set(26..28, &port.to_be_bytes())
    }

    /// Finish into a ternary key.
    pub fn build(self) -> TernaryKey {
        TernaryKey::new(&self.value, &self.mask)
    }
}

/// What a matching rule does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// Emit on the given ports.
    Output(PortMask),
    /// Discard.
    Drop,
    /// Punt to the controller (CPU port).
    Controller,
}

/// A rule's action, tagged with the configuration version that installed
/// it — the tag is how the consistency experiment detects mixing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowAction {
    /// The behaviour.
    pub kind: ActionKind,
    /// Configuration tag (controller-chosen; usually the config version).
    pub tag: u64,
}

/// One rule: ternary key, priority, action.
pub type FlowRule = TcamEntry<FlowAction>;

/// Result of classifying one packet.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Actions of every matching table, in table order.
    pub matched: Vec<FlowAction>,
    /// The effective action (last matching table wins; `Controller` on a
    /// full miss, per OpenFlow table-miss behaviour).
    pub action: ActionKind,
    /// True if the matched rules carry differing tags — a consistency
    /// violation when rules of one config share one tag.
    pub mixed_tags: bool,
}

/// The double-banked multi-table pipeline.
pub struct MatchActionPipeline {
    tables: Vec<[Tcam<FlowAction>; 2]>,
    /// Per-table, per-bank, per-slot packet hit counters (OpenFlow flow
    /// statistics). Cleared with the slot's bank on `clear_*`.
    hits: Vec<[Vec<u64>; 2]>,
    active: usize,
    version: u64,
}

impl MatchActionPipeline {
    /// A pipeline of `ntables` tables of `capacity` rules each.
    pub fn new(ntables: usize, capacity: usize) -> MatchActionPipeline {
        assert!(ntables >= 1);
        MatchActionPipeline {
            tables: (0..ntables)
                .map(|_| {
                    [
                        Tcam::new(capacity, KEY_WIDTH),
                        Tcam::new(capacity, KEY_WIDTH),
                    ]
                })
                .collect(),
            hits: (0..ntables)
                .map(|_| [vec![0; capacity], vec![0; capacity]])
                .collect(),
            active: 0,
            version: 0,
        }
    }

    /// Number of tables.
    pub fn ntables(&self) -> usize {
        self.tables.len()
    }

    /// The committed configuration version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Rules installed in the active bank of `table`.
    pub fn active_len(&self, table: usize) -> usize {
        self.tables[table][self.active].len()
    }

    /// Classify a key against the active configuration. The bank is
    /// latched once for the whole pipeline walk, which is exactly the
    /// hardware guarantee.
    pub fn classify(&mut self, key: &[u8; KEY_WIDTH]) -> Classification {
        let bank = self.active;
        let mut matched = Vec::new();
        for (t, hits) in self.tables.iter_mut().zip(self.hits.iter_mut()) {
            if let Some((slot, action)) = t[bank].lookup_slot(key) {
                hits[bank][slot] += 1;
                matched.push(*action);
            }
        }
        let action = matched
            .last()
            .map(|a| a.kind)
            .unwrap_or(ActionKind::Controller);
        let mixed_tags = matched.windows(2).any(|w| w[0].tag != w[1].tag);
        Classification {
            matched,
            action,
            mixed_tags,
        }
    }

    /// Consistent path: write a rule into the **shadow** bank of `table`.
    /// Invisible to traffic until [`MatchActionPipeline::commit`].
    pub fn write_shadow(&mut self, table: usize, rule: FlowRule) -> bool {
        let shadow = 1 - self.active;
        self.tables[table][shadow].insert(rule).is_some()
    }

    /// Per-rule packet count of the rule in `slot` of `table`'s active
    /// bank — OpenFlow flow statistics; `None` for a table or slot the
    /// pipeline does not have.
    pub fn rule_hits(&self, table: usize, slot: usize) -> Option<u64> {
        self.hits.get(table)?[self.active].get(slot).copied()
    }

    /// Clear the shadow bank of every table (start of a new config push).
    pub fn clear_shadow(&mut self) {
        let shadow = 1 - self.active;
        for (t, hits) in self.tables.iter_mut().zip(self.hits.iter_mut()) {
            t[shadow].clear();
            hits[shadow].iter_mut().for_each(|h| *h = 0);
        }
    }

    /// Atomic commit: flip every table to its shadow bank in one step.
    pub fn commit(&mut self) {
        self.active = 1 - self.active;
        self.version += 1;
    }

    /// Naive baseline: write a rule **directly into the active bank**,
    /// visible to the very next packet — the unsound update style
    /// BlueSwitch exists to eliminate.
    pub fn write_direct(&mut self, table: usize, rule: FlowRule) -> bool {
        let active = self.active;
        self.tables[table][active].insert(rule).is_some()
    }

    /// Naive baseline: clear a table's active bank in place.
    pub fn clear_direct(&mut self, table: usize) {
        let active = self.active;
        self.tables[table][active].clear();
        self.hits[table][active].iter_mut().for_each(|h| *h = 0);
    }
}

/// The flow tables as one upset target. The pipeline's TCAMs are
/// flattened into a single index space, table-major then bank-major:
/// `index = (table * 2 + bank) * capacity + slot`. Registering the
/// pipeline with the fault plane
/// ([`FaultHandle::register_memory`](netfpga_faults::FaultHandle::register_memory))
/// exposes every key cell of every bank — active and shadow alike — to
/// `MemFlip` upsets, which is how the TCAM-consistency scenario stresses
/// the atomic-update guarantee: a corrupted key can only *miss* (the
/// packet falls through to a lower table or the table-miss punt); it can
/// never splice rules of two configuration versions into one walk,
/// because the bank latch is per-walk and tags travel with the rules.
impl netfpga_faults::FaultableMemory for MatchActionPipeline {
    fn flip_bit(&mut self, index: usize, bit: usize) -> bool {
        let cap = self.tables[0][0].capacity();
        if cap == 0 {
            return false;
        }
        let (word, slot) = (index / cap, index % cap);
        let (table, bank) = (word / 2, word % 2);
        match self.tables.get_mut(table) {
            Some(banks) => netfpga_faults::FaultableMemory::flip_bit(&mut banks[bank], slot, bit),
            None => false,
        }
    }

    fn entries(&self) -> usize {
        self.tables.len() * 2 * self.tables[0][0].capacity()
    }

    fn bits_per_entry(&self) -> usize {
        self.tables[0][0].key_bits_per_slot()
    }
}

/// Datapath counters: shared cells the lookup increments and the
/// telemetry plane reads.
#[derive(Debug, Clone, Default)]
pub struct BlueSwitchCounters {
    /// Packets classified.
    pub packets: Counter,
    /// Packets that matched at least one table.
    pub matched: Counter,
    /// Packets whose matched rules carried mixed configuration tags.
    pub mixed_tag_packets: Counter,
    /// Packets punted to the controller.
    pub to_controller: Counter,
    /// Packets dropped by rule.
    pub dropped: Counter,
}

impl BlueSwitchCounters {
    /// Register every counter on `registry` under `prefix` (e.g.
    /// `blueswitch`): `packets`, `matched`, `mixed_tag_packets`,
    /// `to_controller`, `dropped`.
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        for (name, cell) in [
            ("packets", &self.packets),
            ("matched", &self.matched),
            ("mixed_tag_packets", &self.mixed_tag_packets),
            ("to_controller", &self.to_controller),
            ("dropped", &self.dropped),
        ] {
            registry.register_counter(&format!("{prefix}.{name}"), cell);
        }
    }
}

struct BlueSwitchLookup {
    pipeline: Rc<RefCell<MatchActionPipeline>>,
    counters: BlueSwitchCounters,
    cpu_port: u8,
}

impl PacketLogic for BlueSwitchLookup {
    fn process(&mut self, packet: &mut PktBuf, meta: &mut Meta, _now: Time) -> StageAction {
        let key = flow_key(packet, meta);
        let result = self.pipeline.borrow_mut().classify(&key);
        let c = &self.counters;
        c.packets.incr();
        if !result.matched.is_empty() {
            c.matched.incr();
        }
        if result.mixed_tags {
            c.mixed_tag_packets.incr();
        }
        match result.action {
            ActionKind::Output(mask) => {
                meta.dst_ports = mask;
                meta.flags = 0;
                StageAction::Forward
            }
            ActionKind::Drop => {
                c.dropped.incr();
                StageAction::Drop
            }
            ActionKind::Controller => {
                c.to_controller.incr();
                meta.dst_ports = PortMask::single(self.cpu_port);
                meta.flags = ofl_flag();
                StageAction::Forward
            }
        }
    }
}

/// Flag value marking controller punts.
fn ofl_flag() -> u16 {
    0x0f10
}

/// Register base of the BlueSwitch control block.
pub const BLUESWITCH_BASE: u32 = 0x3000;

mod cmd {
    pub const WRITE_SHADOW: u32 = 1;
    pub const COMMIT: u32 = 2;
    pub const CLEAR_SHADOW: u32 = 3;
    pub const WRITE_DIRECT: u32 = 4;
    pub const CLEAR_DIRECT: u32 = 5;
}

/// BlueSwitch register block (word offsets):
///
/// | word | register |
/// |------|----------|
/// | 0 | command (write executes) |
/// | 1 | table index |
/// | 2 | priority |
/// | 3 | action kind (0 = output, 1 = drop, 2 = controller) |
/// | 4 | action port mask |
/// | 5 | config tag (low 32 bits) |
/// | 6 | slot selector for flow statistics |
/// | 8..14 | staged key value (28 bytes) |
/// | 16..22 | staged key mask (28 bytes) |
/// | 24 | committed version (RO) |
/// | 25 | packets (RO) |
/// | 26 | mixed-tag packets (RO) |
/// | 27 | controller punts (RO) |
/// | 28 | hit count of rule (table = word 1, slot = word 6) (RO) |
///
/// Every other word reads [`UNMAPPED_READ`] and ignores writes, and so
/// does word 28 while word 6 selects a slot past the table's capacity.
pub struct BlueSwitchRegisters {
    pipeline: Rc<RefCell<MatchActionPipeline>>,
    counters: BlueSwitchCounters,
    stage: [u32; 24],
}

/// The staging words of [`BlueSwitchRegisters`], readable and writable.
fn staged(word: u32) -> bool {
    matches!(word, 1..=6 | 8..=14 | 16..=22)
}

impl BlueSwitchRegisters {
    fn staged_rule(&self) -> FlowRule {
        let mut value = [0u8; KEY_WIDTH];
        let mut mask = [0u8; KEY_WIDTH];
        for i in 0..7 {
            value[i * 4..i * 4 + 4].copy_from_slice(&self.stage[8 + i].to_be_bytes());
            mask[i * 4..i * 4 + 4].copy_from_slice(&self.stage[16 + i].to_be_bytes());
        }
        let kind = match self.stage[3] {
            0 => ActionKind::Output(PortMask(self.stage[4] as u16)),
            1 => ActionKind::Drop,
            _ => ActionKind::Controller,
        };
        TcamEntry {
            key: TernaryKey::new(&value, &mask),
            priority: self.stage[2],
            value: FlowAction {
                kind,
                tag: u64::from(self.stage[5]),
            },
        }
    }
}

impl RegisterSpace for BlueSwitchRegisters {
    fn read(&mut self, offset: u32) -> u32 {
        match offset / 4 {
            w if staged(w) => self.stage[w as usize],
            24 => self.pipeline.borrow().version() as u32,
            25 => self.counters.packets.get() as u32,
            26 => self.counters.mixed_tag_packets.get() as u32,
            27 => self.counters.to_controller.get() as u32,
            28 => {
                let p = self.pipeline.borrow();
                let table = (self.stage[1] as usize).min(p.ntables() - 1);
                p.rule_hits(table, self.stage[6] as usize)
                    .map_or(UNMAPPED_READ, |hits| hits as u32)
            }
            _ => UNMAPPED_READ,
        }
    }

    fn write(&mut self, offset: u32, value: u32) {
        let word = offset / 4;
        match word {
            0 => {
                let mut p = self.pipeline.borrow_mut();
                let table = (self.stage[1] as usize).min(p.ntables() - 1);
                match value {
                    cmd::WRITE_SHADOW => {
                        let rule = self.staged_rule();
                        p.write_shadow(table, rule);
                    }
                    cmd::COMMIT => p.commit(),
                    cmd::CLEAR_SHADOW => p.clear_shadow(),
                    cmd::WRITE_DIRECT => {
                        let rule = self.staged_rule();
                        p.write_direct(table, rule);
                    }
                    cmd::CLEAR_DIRECT => p.clear_direct(table),
                    _ => {}
                }
            }
            w if staged(w) => self.stage[w as usize] = value,
            _ => {}
        }
    }
}

/// The assembled BlueSwitch.
pub struct BlueSwitch {
    /// The board with this project loaded.
    pub chassis: Chassis,
    /// The match-action pipeline (tests drive updates directly; the
    /// controller in `netfpga-host` goes through registers).
    pub pipeline: Rc<RefCell<MatchActionPipeline>>,
    /// Datapath counters.
    pub counters: BlueSwitchCounters,
    /// CPU (controller) port index.
    pub cpu_port: u8,
}

impl BlueSwitch {
    /// Build on `spec` with `nports` ports, `ntables` match tables of
    /// `capacity` rules.
    pub fn new(spec: &BoardSpec, nports: usize, ntables: usize, capacity: usize) -> BlueSwitch {
        BlueSwitch::build(&ChassisConfig::new(spec, nports), ntables, capacity)
    }

    /// Build on the chassis `config` describes. With a fault plane the
    /// whole match-action pipeline is registered with the injector as
    /// memory `"flow_tcam"` under parity protection — TCAM key cells carry
    /// no ECC, so upsets are detected (the corrupted rule stops matching)
    /// but never silently repaired.
    pub fn build(config: &ChassisConfig, ntables: usize, capacity: usize) -> BlueSwitch {
        let cpu_port = config.nports as u8;
        let pipeline = Rc::new(RefCell::new(MatchActionPipeline::new(ntables, capacity)));
        let counters = BlueSwitchCounters::default();
        let lookup = BlueSwitchLookup {
            pipeline: pipeline.clone(),
            counters: counters.clone(),
            cpu_port,
        };
        // One cycle per table plus parse, like the RTL pipeline.
        let latency = 4 + ntables as u64;
        let mut chassis = ReferencePipeline {
            cpu_port: true,
            ..ReferencePipeline::new("match_action", latency, lookup)
        }
        .build(config)
        .chassis;
        if let Some(handle) = &chassis.faults {
            handle.register_memory(
                "flow_tcam",
                netfpga_faults::EccMode::Parity,
                pipeline.clone(),
            );
        }
        counters.register_stats(&chassis.telemetry, "blueswitch");
        chassis.map.mount(
            "blueswitch",
            BLUESWITCH_BASE,
            0x100,
            shared(BlueSwitchRegisters {
                pipeline: pipeline.clone(),
                counters: counters.clone(),
                stage: [0; 24],
            }),
        );
        chassis.attach_mmio();

        BlueSwitch {
            chassis,
            pipeline,
            counters,
            cpu_port,
        }
    }

    /// Approximate FPGA cost (experiment E7).
    pub fn resource_cost(nports: u64, ntables: u64) -> ResourceCost {
        blocks::MAC_10G.times(nports)
            + blocks::PCIE_DMA
            + blocks::REG_INTERCONNECT
            + blocks::INPUT_ARBITER
            + blocks::MATCH_ACTION_TABLE.times(ntables * 2) // double-banked
            + blocks::OUTPUT_QUEUES_PER_PORT.times(nports + 1)
    }

    /// Blocks this project instantiates (E7 reuse matrix row).
    pub fn block_names() -> &'static [&'static str] {
        &[
            "mac_10g",
            "pcie_dma",
            "reg_interconnect",
            "input_arbiter",
            "match_action_table",
            "output_queues",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

    fn mac(x: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, x)
    }

    fn udp_frame(dst_port: u16) -> Vec<u8> {
        PacketBuilder::new()
            .eth(mac(1), mac(2))
            .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
            .udp(5555, dst_port, b"x")
            .build()
    }

    fn output(ports: PortMask, tag: u64) -> FlowAction {
        FlowAction {
            kind: ActionKind::Output(ports),
            tag,
        }
    }

    #[test]
    fn key_packing_roundtrip() {
        let frame = udp_frame(80);
        let meta = Meta {
            src_port: 3,
            ..Default::default()
        };
        let k = flow_key(&frame, &meta);
        assert_eq!(k[0], 3);
        assert_eq!(&k[1..7], mac(2).as_bytes());
        assert_eq!(&k[7..13], mac(1).as_bytes());
        assert_eq!(u16::from_be_bytes([k[13], k[14]]), 0x0800);
        assert_eq!(k[23], 17);
        assert_eq!(u16::from_be_bytes([k[26], k[27]]), 80);
    }

    #[test]
    fn pipeline_match_and_default() {
        let mut p = MatchActionPipeline::new(2, 16);
        p.write_direct(
            0,
            TcamEntry {
                key: FlowKeyBuilder::new().l4_dst(80).ethertype(0x0800).build(),
                priority: 1,
                value: output(PortMask::single(1), 7),
            },
        );
        let frame = udp_frame(80);
        let key = flow_key(&frame, &Meta::default());
        let c = p.classify(&key);
        assert_eq!(c.action, ActionKind::Output(PortMask::single(1)));
        assert!(!c.mixed_tags);
        // Unmatched -> controller.
        let key2 = flow_key(&udp_frame(443), &Meta::default());
        assert_eq!(p.classify(&key2).action, ActionKind::Controller);
    }

    #[test]
    fn later_table_overrides() {
        let mut p = MatchActionPipeline::new(2, 16);
        p.write_direct(
            0,
            TcamEntry {
                key: TernaryKey::wildcard(KEY_WIDTH),
                priority: 0,
                value: output(PortMask::single(1), 1),
            },
        );
        p.write_direct(
            1,
            TcamEntry {
                key: FlowKeyBuilder::new().l4_dst(80).build(),
                priority: 0,
                value: FlowAction {
                    kind: ActionKind::Drop,
                    tag: 1,
                },
            },
        );
        let c = p.classify(&flow_key(&udp_frame(80), &Meta::default()));
        assert_eq!(c.action, ActionKind::Drop);
        assert_eq!(c.matched.len(), 2);
        let c = p.classify(&flow_key(&udp_frame(22), &Meta::default()));
        assert_eq!(c.action, ActionKind::Output(PortMask::single(1)));
    }

    #[test]
    fn shadow_writes_invisible_until_commit() {
        let mut p = MatchActionPipeline::new(1, 16);
        p.write_shadow(
            0,
            TcamEntry {
                key: TernaryKey::wildcard(KEY_WIDTH),
                priority: 0,
                value: output(PortMask::single(2), 1),
            },
        );
        let key = flow_key(&udp_frame(80), &Meta::default());
        assert_eq!(
            p.classify(&key).action,
            ActionKind::Controller,
            "not visible"
        );
        p.commit();
        assert_eq!(
            p.classify(&key).action,
            ActionKind::Output(PortMask::single(2)),
            "visible after commit"
        );
        assert_eq!(p.version(), 1);
    }

    /// The headline property: with consistent updates, no packet ever sees
    /// rules from two configurations; with naive in-place updates between
    /// classifications, packets do.
    #[test]
    fn atomic_commit_never_mixes_tags() {
        // Config v1: both tables tag 1. Shadow-write config v2 (tag 2)
        // rule-by-rule, classifying between every write.
        let mut p = MatchActionPipeline::new(2, 16);
        for t in 0..2 {
            p.write_direct(
                t,
                TcamEntry {
                    key: TernaryKey::wildcard(KEY_WIDTH),
                    priority: 0,
                    value: output(PortMask::single(1), 1),
                },
            );
        }
        let key = flow_key(&udp_frame(80), &Meta::default());
        let mut mixed = 0;
        for t in 0..2 {
            p.clear_shadow();
            // (clear_shadow only once; keep writing rules across steps)
            p.write_shadow(
                t,
                TcamEntry {
                    key: TernaryKey::wildcard(KEY_WIDTH),
                    priority: 5,
                    value: output(PortMask::single(2), 2),
                },
            );
            if p.classify(&key).mixed_tags {
                mixed += 1;
            }
        }
        assert_eq!(mixed, 0, "shadow writes never mix");
        // Note: clear_shadow inside the loop wiped table 0's shadow; write
        // both properly before commit.
        p.clear_shadow();
        for t in 0..2 {
            p.write_shadow(
                t,
                TcamEntry {
                    key: TernaryKey::wildcard(KEY_WIDTH),
                    priority: 5,
                    value: output(PortMask::single(2), 2),
                },
            );
        }
        p.commit();
        let c = p.classify(&key);
        assert!(!c.mixed_tags);
        assert_eq!(c.action, ActionKind::Output(PortMask::single(2)));
    }

    #[test]
    fn naive_updates_do_mix_tags() {
        let mut p = MatchActionPipeline::new(2, 16);
        for t in 0..2 {
            p.write_direct(
                t,
                TcamEntry {
                    key: TernaryKey::wildcard(KEY_WIDTH),
                    priority: 0,
                    value: output(PortMask::single(1), 1),
                },
            );
        }
        let key = flow_key(&udp_frame(80), &Meta::default());
        // Update table 0 to config 2, classify before table 1 is updated.
        p.clear_direct(0);
        p.write_direct(
            0,
            TcamEntry {
                key: TernaryKey::wildcard(KEY_WIDTH),
                priority: 5,
                value: output(PortMask::single(2), 2),
            },
        );
        let c = p.classify(&key);
        assert!(
            c.mixed_tags,
            "packet saw config 2 in table 0, config 1 in table 1"
        );
    }

    #[test]
    fn end_to_end_forwarding() {
        let mut sw = BlueSwitch::new(&BoardSpec::sume(), 4, 2, 64);
        sw.pipeline.borrow_mut().write_direct(
            0,
            TcamEntry {
                key: FlowKeyBuilder::new().in_port(0).build(),
                priority: 1,
                value: output(PortMask::single(3), 1),
            },
        );
        sw.chassis.send(0, udp_frame(80));
        sw.chassis.run_for(Time::from_us(10));
        assert_eq!(sw.chassis.recv(3).len(), 1);
        assert_eq!(sw.counters.matched.get(), 1);
    }

    #[test]
    fn table_miss_goes_to_controller() {
        let mut sw = BlueSwitch::new(&BoardSpec::sume(), 4, 2, 64);
        sw.chassis.send(0, udp_frame(80));
        sw.chassis.run_for(Time::from_us(10));
        let dma = sw.chassis.dma.clone().unwrap();
        let (_, meta) = dma.recv().expect("punted to controller");
        assert_eq!(meta.src_port, 0);
        assert_eq!(sw.counters.to_controller.get(), 1);
    }

    #[test]
    fn register_protocol_installs_rules() {
        let mut sw = BlueSwitch::new(&BoardSpec::sume(), 4, 1, 64);
        let b = BLUESWITCH_BASE;
        // Stage a wildcard rule: output port 2, tag 9, priority 1.
        sw.chassis.write32(b + 4, 0); // table 0
        sw.chassis.write32(b + 8, 1); // priority
        sw.chassis.write32(b + 12, 0); // action kind output
        sw.chassis.write32(b + 16, u32::from(PortMask::single(2).0));
        sw.chassis.write32(b + 20, 9); // tag
                                       // key value/mask words left zero = full wildcard.
        sw.chassis.write32(b, 1); // WRITE_SHADOW
        sw.chassis.write32(b, 2); // COMMIT
        assert_eq!(sw.chassis.read32(b + 24 * 4), 1, "version");
        sw.chassis.send(1, udp_frame(80));
        sw.chassis.run_for(Time::from_us(10));
        assert_eq!(sw.chassis.recv(2).len(), 1);
        assert_eq!(sw.chassis.read32(b + 25 * 4), 1, "packets");
    }

    #[test]
    fn per_rule_hit_counters() {
        let mut p = MatchActionPipeline::new(1, 8);
        let web = p.write_direct(
            0,
            TcamEntry {
                key: FlowKeyBuilder::new().l4_dst(80).build(),
                priority: 5,
                value: output(PortMask::single(1), 1),
            },
        );
        assert!(web);
        p.write_direct(
            0,
            TcamEntry {
                key: TernaryKey::wildcard(KEY_WIDTH),
                priority: 0,
                value: output(PortMask::single(2), 1),
            },
        );
        for _ in 0..3 {
            p.classify(&flow_key(&udp_frame(80), &Meta::default()));
        }
        p.classify(&flow_key(&udp_frame(443), &Meta::default()));
        assert_eq!(p.rule_hits(0, 0), Some(3), "web rule");
        assert_eq!(p.rule_hits(0, 1), Some(1), "catch-all");
        assert_eq!(p.rule_hits(0, 8), None, "past the capacity");
        assert_eq!(p.rule_hits(1, 0), None, "past the last table");
        // Commit flips banks: shadow counters start clean.
        p.clear_shadow();
        p.commit();
        assert_eq!(p.rule_hits(0, 0), Some(0));
    }

    #[test]
    fn flow_stats_via_registers() {
        let mut sw = BlueSwitch::new(&BoardSpec::sume(), 4, 1, 64);
        sw.pipeline.borrow_mut().write_direct(
            0,
            TcamEntry {
                key: TernaryKey::wildcard(KEY_WIDTH),
                priority: 0,
                value: output(PortMask::single(1), 1),
            },
        );
        for _ in 0..4 {
            sw.chassis.send(0, udp_frame(80));
        }
        sw.chassis.run_for(Time::from_us(20));
        let b = BLUESWITCH_BASE;
        sw.chassis.write32(b + 4, 0); // table 0
        sw.chassis.write32(b + 24, 0); // slot 0 (word 6)
        assert_eq!(sw.chassis.read32(b + 28 * 4), 4, "rule hit counter");
    }

    /// Word 28 used to index the hit counters with whatever slot word 6
    /// held, and a slot past the capacity aborted a release binary.
    #[test]
    fn hit_count_of_a_slot_past_the_capacity_reads_unmapped() {
        let mut sw = BlueSwitch::new(&BoardSpec::sume(), 4, 2, 64);
        let b = BLUESWITCH_BASE;
        for (table, slot) in [(0, 64), (1, 0xFFFF_FFFF), (7, 64)] {
            sw.chassis.write32(b + 4, table);
            sw.chassis.write32(b + 6 * 4, slot);
            assert_eq!(sw.chassis.read32(b + 28 * 4), UNMAPPED_READ, "slot {slot}");
        }
        sw.chassis.write32(b + 6 * 4, 63);
        assert_eq!(sw.chassis.read32(b + 28 * 4), 0, "the last slot is mapped");
        for w in [0, 7, 15, 23, 29, 63] {
            assert_eq!(sw.chassis.read32(b + w * 4), UNMAPPED_READ, "word {w}");
        }
    }

    #[test]
    fn resource_cost() {
        assert!(BlueSwitch::resource_cost(4, 4).fits(&BoardSpec::sume().resources));
    }

    /// The flattened fault-injection index space addresses every bank of
    /// every table: `(table * 2 + bank) * capacity + slot`.
    #[test]
    fn flattened_tcam_upset_space_covers_all_banks() {
        use netfpga_faults::FaultableMemory;
        let mut p = MatchActionPipeline::new(2, 16);
        assert_eq!(FaultableMemory::entries(&p), 2 * 2 * 16);
        assert_eq!(p.bits_per_entry(), 2 * KEY_WIDTH * 8);
        // Empty slots and out-of-range indices are harmless upsets.
        assert!(!p.flip_bit(0, 0));
        assert!(!p.flip_bit(2 * 2 * 16, 0));
        // Table 1, active bank (0), slot 0 is flat index (1*2 + 0)*16.
        p.write_direct(
            1,
            TcamEntry {
                key: FlowKeyBuilder::new().in_port(0).build(),
                priority: 1,
                value: output(PortMask::single(2), 1),
            },
        );
        let key = flow_key(&udp_frame(80), &Meta::default());
        assert_eq!(p.classify(&key).matched.len(), 1);
        // Bit 0 is value-plane byte 0 — the in_port match byte: the rule
        // now wants in_port 1 and the lookup misses.
        assert!(p.flip_bit(32, 0));
        assert!(p.classify(&key).matched.is_empty(), "corrupted key misses");
        assert!(p.flip_bit(32, 0), "flip back repairs");
        assert_eq!(p.classify(&key).matched.len(), 1);
        // Shadow banks are reachable too: table 0 bank 1 is flat index 16.
        p.write_shadow(
            0,
            TcamEntry {
                key: TernaryKey::wildcard(KEY_WIDTH),
                priority: 0,
                value: output(PortMask::single(1), 2),
            },
        );
        assert!(p.flip_bit(16, 0));
    }
}
