//! One round of one workload, in a process of its own.
//!
//! The parent spawns a fresh process per round so that every round gets a
//! new address-space layout, its own peak-RSS reading and a cold start for
//! `setup_s`. The round pins itself, builds the workload, warms it up,
//! then alternates calibration units and timed slices, verifying each
//! slice outside the timer. It reports one JSON line on standard output.

use crate::estimator::{Calibrator, SliceTiming};
use crate::gen::Account;
use crate::json::Value;
use crate::trace::{self, Tracer};
use crate::workloads::{self, Kernel, Raw};
use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};

/// Marks the report line among anything else a round may print.
pub const REPORT_PREFIX: &str = "@round ";

pub struct RoundArgs {
    pub workload: String,
    pub seed: u64,
    pub slices: usize,
    /// Wall time after which the round stops adding slices (once the
    /// device window is complete).
    pub budget_ms: u64,
    /// Untimed slices run first, so pools and caches are warm.
    pub warmup: usize,
    /// Divisor of the frozen slice size.
    pub scale: usize,
    pub traced: bool,
    pub kernel: Kernel,
}

/// Device-time figures of a round: identical for every round of a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    pub mpps: f64,
    pub latency_ns_p50: f64,
    pub latency_ns_p99: f64,
    pub latency_samples: u64,
    pub residence_ns_p50: f64,
    pub residence_ns_p99: f64,
    pub line_rate_err_ppm: f64,
    /// Signature of every delivery (port, time, bytes), in hex.
    pub trace_sig: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Ops {
    pub offered: u64,
    pub delivered: u64,
    pub counted_drops: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

/// What a round reports.
pub struct Round {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub pinned: bool,
    pub traced: bool,
    pub slices: Vec<SliceTiming>,
    /// Device figures, frame accounting and counter differences (high-water
    /// marks as read at the end) over the round's device window: its first
    /// quarter of slices, which always runs in full.
    pub device: Device,
    pub ops: Ops,
    pub raw: BTreeMap<String, u64>,
    /// Frame accounting of the slices beyond the window, and any failed
    /// check that is not one frame's.
    pub beyond: Ops,
    /// Traced rounds: total nanoseconds per phase, and per registry read.
    pub phase_ns: BTreeMap<String, u64>,
    pub snapshot_ns: f64,
    pub spans: Value,
}

/// Pin this process to the last `cpus` CPUs it may run on. Returns whether
/// that worked.
pub fn pin_self(cpus: usize) -> bool {
    let allowed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|l| l.trim().to_string())
        })
        .unwrap_or_default();
    // "0-3,8" → [0, 1, 2, 3, 8]
    let mut list = Vec::new();
    for part in allowed.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            list.extend(lo..=hi);
        }
    }
    if list.is_empty() {
        return false;
    }
    let chosen: Vec<String> = list[list.len().saturating_sub(cpus)..]
        .iter()
        .map(usize::to_string)
        .collect();
    Command::new("taskset")
        .args([
            "-a",
            "-cp",
            &chosen.join(","),
            &std::process::id().to_string(),
        ])
        .output()
        .is_ok_and(|o| o.status.success())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run the round and return its report.
pub fn run(args: &RoundArgs, started: Instant) -> Round {
    let pinned = pin_self(workloads::threads(&args.workload, args.kernel));

    let mut w = workloads::build(&args.workload, args.seed, args.kernel, args.scale)
        .unwrap_or_else(|| panic!("unknown workload `{}`", args.workload));
    let mut off = Tracer::new(false);
    let mut scratch = Account::new(w.bps());
    for _ in 0..args.warmup {
        w.slice(&mut off);
        w.verify(&mut scratch);
    }
    let warmup_failed = scratch.failed;
    let mut cal = Calibrator::new();
    cal.run();
    let before = w.counters();
    let setup_s = started.elapsed().as_secs_f64();

    // The first `window` slices always run and are what every device
    // figure and counter is taken over, so those repeat exactly whatever
    // the host does. The slices after them only add host-time samples,
    // and stop when the round's time budget is spent: on a host that has
    // slowed fourfold the round gets shorter, not four times longer.
    let window = args.slices.div_ceil(4);
    let budget = Duration::from_millis(args.budget_ms);
    let mut tr = Tracer::new(args.traced);
    let mut acc = Account::new(w.bps());
    let mut beyond = Account::new(w.bps());
    let mut slices = Vec::with_capacity(args.slices);
    let mut after = None;
    let loop_started = Instant::now();
    let mut cal_before = cal.run();
    for i in 0..args.slices {
        if i >= window && loop_started.elapsed() > budget {
            break;
        }
        let into = if i < window { &mut acc } else { &mut beyond };
        let delivered = into.delivered;
        tr.begin_slice(i as u32);
        let t = Instant::now();
        w.slice(&mut tr);
        let wall = t.elapsed();
        tr.end_slice();
        let cal_after = cal.run();
        w.verify(into);
        slices.push(SliceTiming {
            wall_ns: wall.as_nanos() as f64,
            frames: into.delivered - delivered,
            cal_before_ns: cal_before.as_nanos() as f64,
            cal_after_ns: cal_after.as_nanos() as f64,
        });
        cal_before = cal_after;
        if i + 1 == window {
            after = Some(w.counters());
        }
    }
    let after = after.unwrap_or_else(|| w.counters());
    let end = w.counters();

    // Per-read cost of the telemetry registry, outside any slice.
    let mut snapshot_ns = 0.0;
    if args.traced {
        const READS: u32 = 16;
        let t = Instant::now();
        for _ in 0..READS {
            tr.timed("core.telemetry.snapshot", || {
                std::hint::black_box(w.counters())
            });
        }
        snapshot_ns = t.elapsed().as_nanos() as f64 / f64::from(READS);
    }

    if warmup_failed > 0 {
        beyond.fail_check(format!("{warmup_failed} failures during warm-up"));
    }
    // Counters that must stay at zero, over everything the round ran.
    let whole = raw_delta(&before, &end);
    for (key, complaint) in [
        (
            "pool.cow_copies",
            "copy-on-write copies where none are expected",
        ),
        ("mac.bad_fcs", "a MAC counted bad frame checks"),
        ("mac.dropped", "a MAC dropped frames"),
        ("dma.dropped", "the DMA receive ring overflowed"),
        (
            "fabric.blocked",
            "a fabric egress blocked on a full channel",
        ),
    ] {
        if whole.get(key).copied().unwrap_or(0) != 0 {
            beyond.fail_check(complaint);
        }
    }
    if let Some(&punts) = whole.get("bench.punts_offered") {
        if whole.get("router.to_cpu") != Some(&punts) {
            beyond.fail_check(format!(
                "router.to_cpu differs from the {punts} TTL-1 frames offered"
            ));
        }
    }

    let phase_ns = trace::self_times(tr.spans())
        .into_iter()
        .map(|(name, ns)| (name.to_string(), ns))
        .collect();
    let ops = |a: Account| Ops {
        offered: a.offered,
        delivered: a.delivered,
        counted_drops: a.counted_drops,
        failed: a.failed,
        first_error: a.first_error,
    };
    Round {
        setup_s,
        peak_rss_mb: peak_rss_mb(),
        pinned,
        traced: args.traced,
        slices,
        device: Device {
            mpps: acc.dev_mpps(),
            latency_ns_p50: acc.latency.percentile_ns(0.50),
            latency_ns_p99: acc.latency.percentile_ns(0.99),
            latency_samples: acc.latency.count(),
            residence_ns_p50: acc.residence.percentile_ns(0.50),
            residence_ns_p99: acc.residence.percentile_ns(0.99),
            line_rate_err_ppm: acc.line_rate_err_ppm(),
            trace_sig: format!("{:016x}", acc.sig),
        },
        raw: raw_delta(&before, &after),
        ops: ops(acc),
        beyond: ops(beyond),
        phase_ns,
        snapshot_ns,
        spans: trace::spans_to_json(tr.spans()),
    }
}

/// Counter differences; a high-water mark is taken as read at the end.
fn raw_delta(before: &Raw, after: &Raw) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(&key, &end)| {
            let start = before.get(key).copied().unwrap_or(0);
            let value = if key == "fabric.merge_hw" {
                end
            } else {
                end - start
            };
            (key.to_string(), value)
        })
        .collect()
}

fn map_to_json(map: &BTreeMap<String, u64>) -> Value {
    Value::Obj(
        map.iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect(),
    )
}

fn map_from_json(v: &Value) -> Result<BTreeMap<String, u64>, String> {
    v.as_obj()
        .ok_or("expected an object of counters")?
        .iter()
        .map(|(k, v)| {
            Ok((
                k.clone(),
                v.as_u64().ok_or("counter is not a whole number")?,
            ))
        })
        .collect()
}

impl Device {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("dev_mpps", Value::from(self.mpps)),
            ("dev_latency_ns_p50", Value::from(self.latency_ns_p50)),
            ("dev_latency_ns_p99", Value::from(self.latency_ns_p99)),
            ("latency_samples", Value::from(self.latency_samples)),
            ("residence_ns_p50", Value::from(self.residence_ns_p50)),
            ("residence_ns_p99", Value::from(self.residence_ns_p99)),
            ("dev_line_rate_err_ppm", Value::from(self.line_rate_err_ppm)),
            ("trace_sig", Value::from(self.trace_sig.as_str())),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Device, String> {
        Ok(Device {
            mpps: v.num_field("dev_mpps")?,
            latency_ns_p50: v.num_field("dev_latency_ns_p50")?,
            latency_ns_p99: v.num_field("dev_latency_ns_p99")?,
            latency_samples: v.num_field("latency_samples")? as u64,
            residence_ns_p50: v.num_field("residence_ns_p50")?,
            residence_ns_p99: v.num_field("residence_ns_p99")?,
            line_rate_err_ppm: v.num_field("dev_line_rate_err_ppm")?,
            trace_sig: v.str_field("trace_sig")?.to_string(),
        })
    }
}

impl Ops {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("offered", Value::from(self.offered)),
            ("delivered", Value::from(self.delivered)),
            ("counted_drops", Value::from(self.counted_drops)),
            ("failed", Value::from(self.failed)),
            (
                "first_error",
                self.first_error.as_deref().map_or(Value::Null, Value::from),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Ops, String> {
        Ok(Ops {
            offered: v.num_field("offered")? as u64,
            delivered: v.num_field("delivered")? as u64,
            counted_drops: v.num_field("counted_drops")? as u64,
            failed: v.num_field("failed")? as u64,
            first_error: v.field("first_error")?.as_str().map(str::to_string),
        })
    }
}

impl Round {
    pub fn to_json(&self) -> Value {
        let slices = self
            .slices
            .iter()
            .map(|s| {
                Value::Arr(vec![
                    Value::from(s.wall_ns),
                    Value::from(s.frames),
                    Value::from(s.cal_before_ns),
                    Value::from(s.cal_after_ns),
                ])
            })
            .collect();
        Value::obj([
            ("setup_s", Value::from(self.setup_s)),
            ("peak_rss_mb", Value::from(self.peak_rss_mb)),
            ("pinned", Value::from(self.pinned)),
            ("traced", Value::from(self.traced)),
            ("slices", Value::Arr(slices)),
            ("device", self.device.to_json()),
            ("ops", self.ops.to_json()),
            ("beyond", self.beyond.to_json()),
            ("raw", map_to_json(&self.raw)),
            ("phase_ns", map_to_json(&self.phase_ns)),
            ("snapshot_ns", Value::from(self.snapshot_ns)),
            ("spans", self.spans.clone()),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Round, String> {
        let slices = v
            .field("slices")?
            .as_arr()
            .ok_or("`slices` is not an array")?
            .iter()
            .map(|s| {
                let n = |i: usize| {
                    s.as_arr()
                        .and_then(|a| a.get(i))
                        .and_then(Value::as_f64)
                        .ok_or("malformed slice timing")
                };
                Ok(SliceTiming {
                    wall_ns: n(0)?,
                    frames: n(1)? as u64,
                    cal_before_ns: n(2)?,
                    cal_after_ns: n(3)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Round {
            setup_s: v.num_field("setup_s")?,
            peak_rss_mb: v.num_field("peak_rss_mb")?,
            pinned: v
                .field("pinned")?
                .as_bool()
                .ok_or("`pinned` is not a bool")?,
            traced: v
                .field("traced")?
                .as_bool()
                .ok_or("`traced` is not a bool")?,
            slices,
            device: Device::from_json(v.field("device")?)?,
            ops: Ops::from_json(v.field("ops")?)?,
            beyond: Ops::from_json(v.field("beyond")?)?,
            raw: map_from_json(v.field("raw")?)?,
            phase_ns: map_from_json(v.field("phase_ns")?)?,
            snapshot_ns: v.num_field("snapshot_ns")?,
            spans: v.field("spans")?.clone(),
        })
    }
}
