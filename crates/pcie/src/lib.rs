//! # netfpga-pcie
//!
//! The host interface of the platform: a PCI Express link model with
//! generation/lane arithmetic and TLP overhead ([`config`]), an MMIO bridge
//! that carries register accesses from host software onto the card's
//! address map with realistic round-trip latency ([`mmio`]), and a DMA
//! engine with TX/RX descriptor rings that moves packets between host
//! memory and the card datapath ([`dma`]).
//!
//! Host software in `netfpga-host` never touches card state directly: every
//! interaction goes through these models, preserving the hardware/software
//! boundary of the real platform (driver ↔ PCIe core ↔ AXI).

#![deny(missing_docs)]
// Hot-path crate: a redundant clone here is a packet copy the zero-copy
// buffer plane exists to avoid. CI runs clippy with `-D warnings`, so this
// warn is an error there.
#![warn(clippy::redundant_clone)]
#![forbid(unsafe_code)]

pub mod config;
pub mod dma;
pub mod mmio;

pub use config::PcieConfig;
pub use dma::{
    DmaCounters, DmaEngine, DmaFaultCounters, DmaFaultGate, DmaHandle, SendError, TxCompletion,
    TxStatus,
};
pub use mmio::{MmioBridge, MmioPort};
