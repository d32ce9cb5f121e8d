//! # netfpga-projects
//!
//! The NetFPGA project library: the reference designs every release ships
//! plus the contributed projects the paper highlights, each assembled from
//! the `netfpga-datapath` building blocks on a simulated board chassis.
//!
//! | Module | Project |
//! |--------|---------|
//! | [`acceptance`] | the I/O-exercise design ("a project that exercises all the I/O interfaces") |
//! | [`reference_nic`] | the reference NIC |
//! | [`reference_switch`] | the reference learning switch |
//! | [`switch_lite`] | the cut-down learning switch (no host path, no output queues) |
//! | [`reference_router`] | the reference IPv4 router with its CPU exception path |
//! | [`blueswitch`] | BlueSwitch: multi-table OpenFlow switch with consistent (atomic) updates |
//! | [`osnt`] | OSNT: the open-source network tester (generator + capture) |
//! | [`harness`] | the board chassis the projects are loaded onto |
//! | [`inventory`] | cross-project block-reuse and utilization data (experiment E7) |
//!
//! Every project follows the same shape: built from one
//! [`ChassisConfig`], it wires its pipeline between the chassis's MAC edge
//! streams — switch, router and BlueSwitch all the one
//! [`ReferencePipeline`](harness::ReferencePipeline) — mounts register
//! blocks on the address map, and returns handles for the host side.
//! Tests drive them exactly as a user drives the real boards: frames in
//! at ports, frames out at ports, registers over MMIO, packets over DMA.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod acceptance;
pub mod blueswitch;
pub mod fabric;
pub mod harness;
pub mod inventory;
pub mod osnt;
pub mod pcap;
pub mod reference_nic;
pub mod reference_router;
pub mod reference_switch;
pub mod switch_lite;

pub use acceptance::AcceptanceTest;
pub use blueswitch::BlueSwitch;
pub use harness::{Chassis, ChassisConfig, ChassisIo};
/// The flow-monitoring plane (re-exported so projects-level consumers
/// reach `FlowmonConfig` and friends without a separate dependency).
pub use netfpga_flowmon as flowmon;
pub use osnt::OsntTester;
pub use reference_nic::ReferenceNic;
pub use reference_router::ReferenceRouter;
pub use reference_switch::ReferenceSwitch;
pub use switch_lite::SwitchLite;
