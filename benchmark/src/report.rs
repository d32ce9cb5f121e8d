//! From rounds to metrics: the end-to-end figures of a workload, its
//! per-layer figures, and the verdict the result line carries.

use crate::estimator::{
    frames_per_ref_second, low_decile, low_quartile, median, round_cu_ns, round_cu_per_frame,
    CU_NOMINAL_NS,
};
use crate::json::Value;
use crate::round::Round;
use crate::run::Measured;
use crate::spec::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// One end-to-end metric of one workload: the reported value and the
/// per-round values it was reduced from (`compare` needs their spread).
pub struct Figure {
    pub name: &'static str,
    pub value: f64,
    pub rounds: Vec<f64>,
}

fn cu_per_frame(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .map(|r| round_cu_per_frame(&r.slices))
        .collect()
}

/// Calibrated host nanoseconds per frame of a group of rounds; 0 for none.
fn ns_per_frame(rounds: &[Round]) -> f64 {
    if rounds.is_empty() {
        0.0
    } else {
        low_quartile(&cu_per_frame(rounds)) * CU_NOMINAL_NS
    }
}

/// The six end-to-end metrics, in `END_TO_END` order. Host metrics come
/// from the untraced rounds only. `setup_s` is the median over rounds of
/// each round's set-up time in reference-host seconds (its wall time
/// scaled by nominal CU ÷ the round's own undisturbed CU).
pub fn end_to_end(m: &Measured) -> Vec<Figure> {
    let rounds = &m.untraced;
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let setup = per_round(&|r| r.setup_s * CU_NOMINAL_NS / round_cu_ns(&r.slices));
    let rss = per_round(&|r| r.peak_rss_mb);
    let cu = cu_per_frame(rounds);
    let fps: Vec<f64> = cu.iter().map(|c| 1e9 / (c * CU_NOMINAL_NS)).collect();
    let device = &first.device;
    let values = [
        (median(&setup), setup),
        (frames_per_ref_second(&cu), fps),
        (median(&rss), rss),
        (device.mpps, vec![device.mpps]),
        (device.latency_ns_p50, vec![device.latency_ns_p50]),
        (device.latency_ns_p99, vec![device.latency_ns_p99]),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, (value, rounds))| Figure {
            name: spec.name,
            value,
            rounds,
        })
        .collect()
}

/// Raw wall-clock figures printed beside the calibrated ones, as
/// information only.
pub fn raw_info(m: &Measured) -> Vec<(&'static str, f64)> {
    let slices: Vec<_> = m.untraced.iter().flat_map(|r| &r.slices).collect();
    if slices.is_empty() {
        return Vec::new();
    }
    let wall: f64 = slices.iter().map(|s| s.wall_ns).sum();
    let frames: f64 = slices.iter().map(|s| s.frames as f64).sum();
    let cals: Vec<f64> = slices.iter().map(|s| s.cal_after_ns).collect();
    vec![
        ("info.raw_wall_ns_per_frame", wall / frames.max(1.0)),
        ("info.raw_frames_per_s", frames / wall * 1e9),
        ("info.cu_ns_p10", low_decile(&cals)),
        ("info.cu_ns_p50", median(&cals)),
        (
            "info.raw_setup_s",
            median(&m.untraced.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        ),
        ("info.measured_wall_s", wall / 1e9),
    ]
}

/// Median calibration-unit time over every slice of `rounds`.
pub fn cu_ns_p50(all: &[Measured]) -> f64 {
    let cals: Vec<f64> = all
        .iter()
        .flat_map(|m| m.untraced.iter().chain(&m.traced))
        .flat_map(|r| r.slices.iter().map(|s| s.cal_after_ns))
        .collect();
    if cals.is_empty() {
        0.0
    } else {
        median(&cals)
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Every per-layer metric, in `PER_LAYER` order. Counters come from one
/// round (they are identical across rounds of a seed); `ns_per_frame`
/// figures are calibrated host time from the traced rounds and the rigs.
/// A metric of a layer this workload does not touch reads 0.
pub fn per_layer(m: &Measured, rigs: &BTreeMap<String, f64>) -> Vec<(&'static str, f64)> {
    let counted = m.traced.first().or(m.untraced.first());
    let raw = |key: &str| counted.and_then(|r| r.raw.get(key)).copied().unwrap_or(0);
    let frames = counted.map_or(0, |r| r.ops.delivered);
    let per_kframe = |n: u64| share(n, frames) * 1000.0;

    // Calibrated ns per frame of the traced rounds, split by each phase's
    // share of the traced slices' wall time.
    let traced_ns_per_frame = ns_per_frame(&m.traced);
    let phase_total: u64 = m.traced.iter().flat_map(|r| r.phase_ns.values()).sum();
    let phase = |name: &str| {
        let ns: u64 = m.traced.iter().filter_map(|r| r.phase_ns.get(name)).sum();
        // Registry reads happen outside the slices.
        traced_ns_per_frame * share(ns, phase_total - snapshot_total(m))
    };
    let untraced_ns_per_frame = ns_per_frame(&m.untraced);
    let sequential_ns_per_frame = ns_per_frame(&m.sequential);
    let snapshot_ns = if m.traced.is_empty() {
        0.0
    } else {
        median(&m.traced.iter().map(|r| r.snapshot_ns).collect::<Vec<_>>())
    };
    let device = counted.map(|r| &r.device);
    let ops = counted.map(|r| &r.ops);

    PER_LAYER
        .iter()
        .map(|spec| {
            let value = match spec.name {
                "bench.gen.ns_per_frame" => phase("bench.gen"),
                "projects.harness.send.ns_per_frame" => phase("projects.harness.send"),
                "core.sim.run.ns_per_frame" => phase("core.sim.run"),
                "projects.harness.recv.ns_per_frame" => phase("projects.harness.recv"),
                "host.nic.transmit.ns_per_frame" => phase("host.nic.transmit"),
                "host.nic.receive.ns_per_frame" => phase("host.nic.receive"),
                "core.telemetry.snapshot.ns" => snapshot_ns,
                "bench.trace_overhead_pct" => {
                    if untraced_ns_per_frame > 0.0 && traced_ns_per_frame > 0.0 {
                        (traced_ns_per_frame / untraced_ns_per_frame - 1.0) * 100.0
                    } else {
                        0.0
                    }
                }
                "core.sim.edges" => raw("edges") as f64,
                "core.sim.steps_per_kframe" => per_kframe(raw("steps")),
                "core.sim.skip_share" => share(raw("skips"), raw("skips") + raw("steps")),
                "core.sim.probes_avoided_per_kframe" => per_kframe(raw("probes_avoided")),
                "core.sim.invalidations_per_kframe" => per_kframe(raw("invalidations")),
                "core.pktbuf.allocs_per_kframe" => per_kframe(raw("pool.allocs")),
                "core.pktbuf.recycle_share" => share(
                    raw("pool.recycled"),
                    raw("pool.recycled") + raw("pool.allocs"),
                ),
                "core.pktbuf.cow_copies" => raw("pool.cow_copies") as f64,
                "phy.mac.rx_frames" => raw("mac.rx") as f64,
                "phy.mac.tx_frames" => raw("mac.tx") as f64,
                "phy.mac.bad_fcs" => raw("mac.bad_fcs") as f64,
                "datapath.lookup.hit_share" => share(
                    raw("lookup.hits"),
                    raw("lookup.hits") + raw("lookup.floods"),
                ),
                "datapath.lookup.floods" => raw("lookup.floods") as f64,
                "datapath.oq.enqueued" => raw("oq.enqueued") as f64,
                "datapath.oq.drop_share" => {
                    share(raw("oq.dropped"), raw("oq.dropped") + raw("oq.enqueued"))
                }
                "datapath.residence_ns_p50" => device.map_or(0.0, |d| d.residence_ns_p50),
                "datapath.residence_ns_p99" => device.map_or(0.0, |d| d.residence_ns_p99),
                "projects.router.forwarded" => raw("router.forwarded") as f64,
                "projects.router.to_cpu_share" => share(
                    raw("router.to_cpu"),
                    raw("router.to_cpu") + raw("router.forwarded") + raw("router.dropped"),
                ),
                "projects.router.dropped" => raw("router.dropped") as f64,
                "pcie.dma.h2c_frames" => raw("dma.h2c") as f64,
                "pcie.dma.c2h_frames" => raw("dma.c2h") as f64,
                "pcie.dma.dropped" => raw("dma.dropped") as f64,
                "host.nic.tx_busy_share" => {
                    share(raw("nic.tx_busy"), raw("nic.tx_busy") + raw("nic.tx"))
                }
                "fabric.epochs" => raw("fabric.epochs") as f64,
                "fabric.crossed_per_frame" => share(raw("fabric.crossed"), frames),
                "fabric.blocked" => raw("fabric.blocked") as f64,
                "fabric.merge_hw" => raw("fabric.merge_hw") as f64,
                "fabric.barrier_stall_share" => {
                    share(raw("fabric.stall_ns"), raw("fabric.shard_wall_ns"))
                }
                "fabric.speedup_vs_seq" => {
                    if untraced_ns_per_frame > 0.0 {
                        sequential_ns_per_frame / untraced_ns_per_frame
                    } else {
                        0.0
                    }
                }
                "dev_line_rate_err_ppm" => device.map_or(0.0, |d| d.line_rate_err_ppm),
                "ops_failed_ppm" => ops.map_or(0.0, |o| share(o.failed, o.offered) * 1e6),
                rig => rigs.get(rig).copied().unwrap_or(0.0),
            };
            (spec.name, value)
        })
        .collect()
}

fn snapshot_total(m: &Measured) -> u64 {
    m.traced
        .iter()
        .filter_map(|r| r.phase_ns.get("core.telemetry.snapshot"))
        .sum()
}

/// What the result line says about correctness.
pub struct Verdict {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

pub fn verdict(m: &Measured) -> Verdict {
    let rounds = || m.untraced.iter().chain(&m.traced).chain(&m.sequential);
    let attempted: u64 = rounds().map(|r| r.ops.offered + r.beyond.offered).sum();
    let failed: u64 = rounds().map(|r| r.ops.failed + r.beyond.failed).sum();
    let mut reasons = m.errors.clone();
    if m.untraced.is_empty() {
        reasons.push("no round completed".into());
    }
    if m.replay.is_none() {
        reasons.push("the replay check did not run".into());
    }
    Verdict {
        correct: failed == 0 && reasons.is_empty(),
        attempted: attempted.max(1),
        failed,
        reasons,
    }
}

/// `{"value": v, "unit": u}` as the result line carries each metric.
pub fn metric_json(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::from(value)), ("unit", Value::from(unit))])
}
