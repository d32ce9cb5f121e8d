//! # netfpga-phy
//!
//! The serial-I/O subsystem of the platform: Ethernet MAC models with exact
//! wire-overhead accounting ([`mac`]), point-to-point link models with
//! delay and impairment injection ([`link`]), and SerDes lane/encoding
//! arithmetic ([`serdes`]).
//!
//! These models are what make "line rate" a meaningful measurement in the
//! simulator: a 10 Gb/s MAC really serializes `preamble + frame + FCS +
//! IFG` bytes at 10 Gb/s, so the classic pps-vs-frame-size curve (experiment
//! E2) comes out of the model rather than being assumed.

#![deny(missing_docs)]
// Hot-path crate: a redundant clone here is a packet copy the zero-copy
// buffer plane exists to avoid. CI runs clippy with `-D warnings`, so this
// warn is an error there.
#![warn(clippy::redundant_clone)]
#![forbid(unsafe_code)]

pub mod link;
pub mod mac;
pub mod pcs;
pub mod serdes;

pub use link::{Link, LinkConfig};
pub use mac::{
    line_rate_fps, wire_bytes, EthMacRx, EthMacTx, MacCounters, Wire, WIRE_OVERHEAD_BYTES,
};
pub use pcs::{LinkState, PcsConfig, PcsCounters, PcsHandle, PcsPort};
pub use serdes::{Encoding, Lane, PortBond};
