//! # netfpga-datapath
//!
//! The NetFPGA building-block library: the modular stages that reference
//! and contributed projects wire together (paper §3 — "hardware and
//! software components are provided as flexible building blocks, that can
//! be modified and replaced without affecting other parts of the design").
//!
//! Every block speaks the AXI4-Stream model of `netfpga-core`: words in,
//! words out, back-pressure through bounded channels, `tuser` metadata on
//! the first word of each packet. The canonical reference pipeline is
//!
//! ```text
//! rx_queues -> input_arbiter -> output_port_lookup -> output_queues -> tx
//! ```
//!
//! Blocks provided:
//!
//! * [`arbiter::InputArbiter`] — N-to-1 packet-granular round-robin merge.
//! * [`stage::PacketStage`] — the store-and-forward "output port lookup"
//!   shell: a packet function (inspect/rewrite packet + metadata) with a
//!   configurable pipeline latency; projects drop their lookup logic in.
//! * [`queues::OutputQueues`] — 1-to-N queueing stage with per-port class
//!   queues, byte-budgeted buffering, multicast copy and a pluggable
//!   [`sched::Scheduler`].
//! * [`sched`] — FIFO, round-robin, deficit round-robin, strict-priority
//!   and weighted-fair schedulers (the E4 ablation set).
//! * [`lpm::LpmTable`] — longest-prefix-match route table, compiled to
//!   address intervals.
//! * [`learn::LearningSwitchCore`] — 802.1D MAC learning over an aging
//!   table.
//! * [`parser::ParsedHeaders`] — the header parser used by lookup stages.
//! * [`delay::DelayStage`] — fixed-latency stage (DUT emulation, pipeline
//!   padding).
//! * [`pktstats::StatsStage`] — transparent per-port packet/byte counters.
//! * [`vlan`] — 802.1Q tag push/pop and the VLAN-aware learning core.
//! * [`blocks`] — the resource-cost catalogue for utilization comparisons.

#![deny(missing_docs)]
// Hot-path crate: a redundant clone here is a packet copy the zero-copy
// buffer plane exists to avoid. CI runs clippy with `-D warnings`, so this
// warn is an error there.
#![warn(clippy::redundant_clone)]
#![forbid(unsafe_code)]

pub mod arbiter;
pub mod blocks;
pub mod delay;
pub mod learn;
pub mod lpm;
pub mod parser;
pub mod pktstats;
pub mod queues;
pub mod sched;
pub mod stage;
pub mod vlan;

pub use arbiter::InputArbiter;
pub use learn::{LearnCounters, LearningSwitchCore};
pub use lpm::{LpmTable, RouteEntry};
pub use parser::ParsedHeaders;
pub use queues::{OutputQueues, QueueConfig};
pub use sched::{DeficitRoundRobin, Fifo, RoundRobin, Scheduler, StrictPriority, WeightedFair};
pub use stage::{PacketStage, StageAction};
pub use vlan::VlanSwitchCore;
