//! Profiling helper: run one kernel workload long enough for a sampling
//! profiler to see it, and print the step/skip split plus, per module, the
//! ticks executed against the edges of its clock domain — a module that
//! ticks on nearly every edge of a congested run is one whose stall the
//! activity contract does not yet express. Not an experiment; produces no
//! JSON.
//!
//! ```text
//! prof_kernel [naive|fast] [idle|sat|flood|nic|exact] [n] [frame_len]
//! ```
//!
//! `nic` is the bidirectional reference-NIC workload (508 B by default):
//! its `dma` row is the one to read — ≈74 % of edges while the engine
//! ticked its bus a beat per cycle under a burst-mode NIC. `exact` is the
//! word-level switch under IMIX (`n` frames per port, no `frame_len`): the
//! ticks-per-frame column is the one to read — 86.1 in all while every
//! module ticked once per beat.

use netfpga_bench::kernel::{
    run_keeping_chassis, KernelConfig, Workload, FRAME_LEN, NIC_FRAME_LEN,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let config = match args.get(1).map(String::as_str) {
        Some("naive") => KernelConfig::Naive,
        _ => KernelConfig::Fast,
    };
    let workload = args.get(2).map(String::as_str).unwrap_or("sat").to_string();
    let n: u32 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let (which, default_len) = match workload.as_str() {
        "idle" => (Workload::IdleHeavy, FRAME_LEN),
        "flood" => (Workload::Flood, FRAME_LEN),
        "nic" => (Workload::NicBidir, NIC_FRAME_LEN),
        "exact" => (Workload::ExactImix, 0),
        _ => (Workload::Saturated, FRAME_LEN),
    };
    let frame_len: usize = args
        .get(4)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_len);
    let (run, chassis) = run_keeping_chassis(config, which, n, frame_len);
    println!(
        "{} {} {}B: edges={} steps={} ({:.1}% stepped) frames={} cow={}",
        config.label(),
        workload,
        frame_len,
        run.edges,
        run.steps,
        100.0 * run.steps as f64 / run.edges.max(1) as f64,
        run.frames,
        run.cow_copies
    );
    // The whole chassis shares the core clock, so every module's ticks are
    // out of the same edge count (both since construction, teaching
    // included).
    let edges = chassis.sim.cycles(chassis.clk);
    println!(
        "{:<24} {:>12} {:>8} {:>10}   of {edges} core edges",
        "module", "ticks", "share", "per frame"
    );
    let per_frame = |ticks: u64| ticks as f64 / run.frames.max(1) as f64;
    let mut total = 0;
    for (name, ticks) in chassis.sim.module_ticks() {
        total += ticks;
        println!(
            "{name:<24} {ticks:>12} {:>7.1}% {:>10.2}",
            100.0 * ticks as f64 / edges.max(1) as f64,
            per_frame(ticks)
        );
    }
    println!(
        "{:<24} {total:>12} {:>8} {:>10.2}   per frame: {:.2} steps, {:.2} re-queries",
        "all modules",
        "",
        per_frame(total),
        per_frame(run.steps),
        per_frame(run.invalidations)
    );
}
