//! # netfpga-flowmon
//!
//! The flow-monitoring plane: bounded-resource per-flow accounting in the
//! datapath with a host-streamable export path — the observability layer
//! switch-virtualization and NFV platforms build on top of NetFPGA-class
//! pipelines.
//!
//! Three pieces, wired end to end:
//!
//! * **Flow accounting** — a [`CountMinSketch`] plus a bounded
//!   [`HeavyHitters`] table (fixed capacity, deterministic replace-min
//!   eviction keyed by the sketch estimate), fed by a zero-copy
//!   [`FlowTap`] sim module that parses [`FiveTuple`]s straight out of
//!   the words in flight without copying payload bytes.
//! * **Occupancy histograms** — log-linear (HDR-style)
//!   [`LogLinearHistogram`]s over queue depth and pktbuf-pool occupancy,
//!   exported through the `StatRegistry` as quantile gauges
//!   (`portN.q0.depth.p50/p99/max`). The hot path only touches shared
//!   cells; histograms are populated by the exporter, never per packet.
//! * **Streaming export** — a periodic [`FlowExporter`] module emitting
//!   Prometheus-text snapshots and a [`DeltaRing`] of timestamped counter
//!   deltas (same drop-on-full discipline as the event ring), mounted as
//!   a self-describing MMIO block at [`FLOWMON_BASE`].
//!
//! Everything is deterministic: sketch row salts come from a seeded
//! [`SimRng`](netfpga_core::rng::SimRng), eviction ties break by table
//! index, and the exporter samples on cycle-aligned instants, so a seeded
//! replay is bit-identical across scheduler modes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod flow;
pub mod heavy;
pub mod hist;
pub mod mmio;
pub mod sketch;
pub mod tap;

pub use export::{prometheus_text, Delta, DeltaRing, ExporterHandle, FlowExporter};
pub use flow::FiveTuple;
pub use heavy::{FlowRecord, HeavyHitters};
pub use hist::LogLinearHistogram;
pub use mmio::{FlowmonRegisters, FLOWMON_BASE, FLOWMON_MAGIC, FLOWMON_SIZE, FLOW_TABLE_OFF};
pub use sketch::{CountMinSketch, SketchConfig};
pub use tap::{FlowMonCounters, FlowMonHandle, FlowTap};

use netfpga_core::time::Time;

/// Build-time configuration of a project's flow-monitoring plane.
#[derive(Debug, Clone)]
pub struct FlowmonConfig {
    /// Count-min sketch dimensions and seed.
    pub sketch: SketchConfig,
    /// Heavy-hitter table capacity (entries).
    pub table_capacity: usize,
    /// Exporter sampling interval (rounded down to whole core-clock
    /// cycles, minimum one cycle).
    pub sample_interval: Time,
    /// Capacity of the counter-delta ring (slots).
    pub delta_capacity: usize,
    /// Linear sub-bucket bits of the occupancy histograms (`m` gives
    /// `2^m` sub-buckets per octave, i.e. relative error `2^-m`).
    pub hist_sub_bits: u32,
}

impl Default for FlowmonConfig {
    fn default() -> FlowmonConfig {
        FlowmonConfig {
            sketch: SketchConfig::default(),
            table_capacity: 64,
            sample_interval: Time::from_us(50),
            delta_capacity: 32,
            hist_sub_bits: 4,
        }
    }
}
