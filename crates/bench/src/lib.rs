//! # netfpga-bench
//!
//! The experiment harness reproducing the paper's evaluation (see
//! `EXPERIMENTS.md` at the workspace root). One binary per experiment
//! lives in `src/bin/expNN_*.rs`; each prints the table/series it
//! regenerates, plus a machine-readable JSON line per row so the
//! documentation tables can be rebuilt mechanically. Every figure is
//! simulated time or a counter, so the `BENCH_*.json` artifacts the
//! binaries write repeat byte for byte; host time is measured by the
//! referee under `benchmark/`, and only there.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod faults;
pub mod json;
pub mod kernel;
pub mod recovery;
pub mod reliability;
pub mod report;
pub mod workloads;

pub use report::Table;
