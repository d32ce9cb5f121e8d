//! Result files and tables: what `run` writes, `compare` reads, and
//! people look at.

use crate::json::Value;
use crate::report::{self, Figure, Verdict};
use crate::run::{Measured, Plan};
use crate::spec::{Better, END_TO_END, PER_LAYER, ROUNDS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// `benchmark/`, wherever the checkout is.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`, created on demand: trace files and scratch results.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = benchmark_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

pub fn is_release_build() -> bool {
    !cfg!(debug_assertions)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Who measured, where, how: attached to every result.
pub fn envelope(plan: &Plan, all: &[Measured]) -> Value {
    let dir = benchmark_dir();
    let commit = command_line("git", &["-C", &dir.to_string_lossy(), "rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown".into());
    let pinned = all
        .iter()
        .flat_map(|m| m.untraced.iter().chain(&m.traced))
        .all(|r| r.pinned);
    Value::obj([
        ("commit", Value::from(commit)),
        ("seed", Value::from(plan.seed)),
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("pinned", Value::from(pinned)),
        (
            "rustc",
            Value::from(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "profile",
            Value::from(if is_release_build() {
                "release"
            } else {
                "debug"
            }),
        ),
        ("cu_ns_p50", Value::from(report::cu_ns_p50(all))),
        (
            "rounds",
            Value::from(if plan.smoke { 1 } else { ROUNDS as u64 }),
        ),
        ("seconds", Value::from(plan.seconds)),
        ("smoke", Value::from(plan.smoke)),
        ("tracing", Value::from(plan.traced)),
    ])
}

/// One workload's section of a result file.
pub fn workload_json(
    m: &Measured,
    figures: &[Figure],
    layers: &[(&'static str, f64)],
    verdict: &Verdict,
) -> Value {
    let end_to_end = figures.iter().zip(END_TO_END).map(|(f, spec)| {
        (
            f.name,
            Value::obj([
                ("value", Value::from(f.value)),
                ("unit", Value::from(spec.unit)),
                (
                    "rounds",
                    Value::Arr(f.rounds.iter().map(|&v| Value::from(v)).collect()),
                ),
            ]),
        )
    });
    let per_layer = layers
        .iter()
        .zip(PER_LAYER)
        .map(|((name, value), spec)| (*name, report::metric_json(*value, spec.unit)));
    let first = m.untraced.first().or(m.traced.first());
    Value::obj([
        ("correct", Value::from(verdict.correct)),
        ("attempted", Value::from(verdict.attempted)),
        ("failed", Value::from(verdict.failed)),
        (
            "reasons",
            Value::Arr(
                verdict
                    .reasons
                    .iter()
                    .map(|r| Value::from(r.as_str()))
                    .collect(),
            ),
        ),
        ("end_to_end", Value::obj(end_to_end)),
        ("device", first.map_or(Value::Null, |r| r.device.to_json())),
        ("ops", first.map_or(Value::Null, |r| r.ops.to_json())),
        ("per_layer", Value::obj(per_layer)),
        (
            "info",
            Value::obj(
                report::raw_info(m)
                    .into_iter()
                    .map(|(k, v)| (k, Value::from(v))),
            ),
        ),
    ])
}

fn arrow(better: Better) -> &'static str {
    match better {
        Better::Higher => "higher is better",
        Better::Lower => "lower is better",
    }
}

/// Print one workload's end-to-end table (to standard error in contract
/// mode, so that the result line stays the last line of standard output —
/// and the only one a parser needs).
pub fn print_end_to_end(m: &Measured, figures: &[Figure], verdict: &Verdict) {
    eprintln!("== {} ==", m.spec.name);
    for (f, spec) in figures.iter().zip(END_TO_END) {
        eprintln!(
            "  {:<22} {:>16.4} {:<7} ({}; bound {:.0} %, {} round{})",
            f.name,
            f.value,
            spec.unit,
            arrow(spec.better),
            spec.bound * 100.0,
            f.rounds.len(),
            if f.rounds.len() == 1 { "" } else { "s" },
        );
    }
    if let Some(r) = m.untraced.first() {
        eprintln!(
            "  {:<22} {:>16} frames beyond p99: {}",
            "latency samples",
            r.device.latency_samples,
            r.device.latency_samples / 100
        );
        eprintln!("  {:<22} {:>16}", "trace_sig", r.device.trace_sig);
        eprintln!(
            "  {:<22} {:>16} offered, {} delivered, {} counted drops, {} failed",
            "device window", r.ops.offered, r.ops.delivered, r.ops.counted_drops, r.ops.failed
        );
    }
    for (name, value) in report::raw_info(m) {
        eprintln!("  {name:<30} {value:>14.3}   (raw wall-clock, not gated)");
    }
    print_verdict(verdict);
}

pub fn print_per_layer(m: &Measured, layers: &[(&'static str, f64)], verdict: &Verdict) {
    eprintln!("== {} (traced) ==", m.spec.name);
    for ((name, value), spec) in layers.iter().zip(PER_LAYER) {
        eprintln!(
            "  {:<46} {:>16.4} {:<7} ({}; moves {} on {})",
            name,
            value,
            spec.unit,
            arrow(spec.better),
            spec.moves,
            spec.on
        );
    }
    // Self times of the traced slices, and how much of the slice they
    // cover.
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, ns) in m.traced.iter().flat_map(|r| &r.phase_ns) {
        *totals.entry(name.as_str()).or_insert(0) += ns;
    }
    let outside = totals.remove("core.telemetry.snapshot").unwrap_or(0);
    let slice_total: u64 = totals.values().sum();
    if slice_total > 0 {
        eprintln!("  self time per phase, share of the traced slices' wall time:");
        for (name, ns) in &totals {
            eprintln!(
                "    {:<32} {:>7.2} %",
                name,
                *ns as f64 / slice_total as f64 * 100.0
            );
        }
        eprintln!(
            "    phases sum to {:.2} % of the slices ({} ns outside any slice)",
            totals
                .iter()
                .filter(|(n, _)| **n != crate::trace::SLICE)
                .map(|(_, ns)| *ns)
                .sum::<u64>() as f64
                / slice_total as f64
                * 100.0,
            outside
        );
    }
    print_verdict(verdict);
}

fn print_verdict(verdict: &Verdict) {
    eprintln!(
        "  checks: {} ({} attempted, {} failed)",
        if verdict.correct {
            "all passed"
        } else {
            "FAILED"
        },
        verdict.attempted,
        verdict.failed
    );
    for reason in &verdict.reasons {
        eprintln!("    - {reason}");
    }
}

/// Write the first traced round's spans to `benchmark/out/trace-<w>.json`.
pub fn write_trace_file(m: &Measured) -> std::io::Result<Option<PathBuf>> {
    let Some(round) = m.traced.first() else {
        return Ok(None);
    };
    let path = out_dir()?.join(format!("trace-{}.json", m.spec.name));
    let doc = Value::obj([
        ("workload", Value::from(m.spec.name)),
        ("spans", round.spans.clone()),
    ]);
    std::fs::write(&path, doc.to_string() + "\n")?;
    Ok(Some(path))
}
