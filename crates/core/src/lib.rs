//! # netfpga-core
//!
//! The simulation kernel of netfpga-rs: a deterministic, cycle-level model
//! of the NetFPGA platform's hardware substrate.
//!
//! The real NetFPGA platform is a Xilinx FPGA plus a library of Verilog
//! building blocks joined by AXI4-Stream interfaces and controlled over
//! AXI4-Lite registers. This crate reproduces that *architecture* in Rust:
//!
//! * [`sim`] — clock domains and the [`sim::Module`] trait; a
//!   [`sim::Simulator`] ticks modules on rising edges of a picosecond
//!   timeline ([`time`]).
//! * [`stream`] — AXI4-Stream-style channels: bounded word FIFOs with
//!   ready/valid semantics and NetFPGA `tuser` metadata.
//! * [`pktbuf`] — the zero-copy packet buffer plane: refcounted frame
//!   payloads with a deterministic free-list pool and copy-on-write
//!   mutation.
//! * [`hash`] — the one deterministic hash (64-bit FNV-1a).
//! * [`regs`] — the AXI4-Lite-style register bus and address map.
//! * [`board`] — component inventories of the SUME, 10G and 1G-CML boards.
//! * [`packetio`] — packet-level sources/sinks for tests and experiments.
//! * [`resources`] — the coarse FPGA utilization model used by experiment
//!   E7 (design-utilization comparison).
//! * [`rng`] — the seeded simulation RNG (determinism guarantee).
//! * [`stats`] — shared counters, histograms and fairness metrics.
//! * [`telemetry`] — the unified telemetry plane: hierarchical stat
//!   registry, self-describing MMIO stat blocks, and the link/fault event
//!   ring.
//! * [`trace`] — signal probes and VCD waveform export (the simulation
//!   flow's debugging story).
//!
//! Higher layers build on this: `netfpga-mem` (SRAM/DRAM/CAM), `netfpga-phy`
//! (MACs and links), `netfpga-datapath` (the building-block library) and
//! `netfpga-projects` (the reference designs).

#![deny(missing_docs)]
// Hot-path crate: a redundant clone here is a packet copy the zero-copy
// buffer plane exists to avoid. CI runs clippy with `-D warnings`, so this
// warn is an error there.
#![warn(clippy::redundant_clone)]
#![forbid(unsafe_code)]

pub mod board;
pub mod hash;
pub mod packetio;
pub mod pktbuf;
pub mod regs;
pub mod resources;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod stream;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use board::{BoardSpec, Platform};
pub use packetio::{CaptureBuffer, CapturedPacket, InjectQueue, PacketSink, PacketSource};
pub use pktbuf::{PktBuf, PoolStats};
pub use regs::{AddressMap, RegisterSpace};
pub use resources::{ResourceBudget, ResourceCost};
pub use rng::SimRng;
pub use sim::{ClockId, Module, Simulator, SoftResetLine, TickContext};
pub use stream::{Burst, Meta, PortMask, Stream, StreamRx, StreamTx, Word};
pub use telemetry::{Event, EventKind, EventRing, Stat, StatBlock, StatRegistry};
pub use time::{BitRate, Frequency, Time};
