//! The repo's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! netfpga-benchmark --workload W --seed N --seconds S --trace 0|1   (the driver's contract)
//! netfpga-benchmark run     --seed N --out FILE [--seconds S] [--smoke]
//! netfpga-benchmark trace   --seed N [--seconds S] [--smoke]
//! netfpga-benchmark rigs    [--smoke]
//! netfpga-benchmark compare A.json B.json
//! netfpga-benchmark check   [--emit]
//! ```

mod check;
mod compare;
mod estimator;
mod gen;
mod json;
mod report;
mod results;
mod rigs;
mod round;
mod run;
mod spec;
mod trace;
mod workloads;

use json::Value;
use run::Plan;
use spec::{WorkloadSpec, END_TO_END, NOMINAL_SECONDS, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// `--key value` pairs and bare words, in order.
struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut words = Vec::new();
        let mut raw = raw;
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                // Switches take no value.
                Some(key @ ("smoke" | "emit")) => {
                    flags.insert(key.to_string(), "1".to_string());
                }
                Some(key) => {
                    let value = raw.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    flags.insert(key.to_string(), value);
                }
                None => words.push(arg),
            }
        }
        Ok(Args { flags, words })
    }

    fn number(&self, key: &str) -> Result<Option<u64>, String> {
        self.flags
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} takes a whole number, got `{v}`"))
            })
            .transpose()
    }

    fn required(&self, key: &str) -> Result<u64, String> {
        self.number(key)?
            .ok_or_else(|| format!("--{key} is required"))
    }

    fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }
}

fn plan_from(args: &Args, traced: bool) -> Result<Plan, String> {
    let plan = Plan {
        seed: args.required("seed")?,
        seconds: args.number("seconds")?.unwrap_or(NOMINAL_SECONDS),
        smoke: args.has("smoke"),
        traced,
    };
    if !(1..=60).contains(&plan.seconds) {
        return Err("--seconds takes 1 to 60".into());
    }
    if !results::is_release_build() && !plan.smoke {
        return Err("host-time metrics from a debug build mean nothing: build with --release (or pass --smoke)".into());
    }
    Ok(plan)
}

/// The driver's contract: one workload, one result line.
fn contract(args: &Args) -> Result<ExitCode, String> {
    let name = args.flags.get("workload").ok_or("--workload is required")?;
    let spec = spec::workload(name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    let traced = match args.required("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let plan = plan_from(args, traced)?;
    let measured = run::measure(&[spec], &plan);
    let m = &measured[0];
    let mut verdict = report::verdict(m);

    let metrics: Vec<(&str, Value)> = if traced {
        let rigs = run::spawn_rigs(plan.smoke).unwrap_or_else(|e| {
            verdict.correct = false;
            verdict.reasons.push(e);
            BTreeMap::new()
        });
        report_traced(m, &rigs, &verdict)?
            .iter()
            .zip(PER_LAYER)
            .map(|((name, value), spec)| (*name, report::metric_json(*value, spec.unit)))
            .collect()
    } else {
        let figures = report::end_to_end(m);
        results::print_end_to_end(m, &figures, &verdict);
        figures
            .iter()
            .zip(END_TO_END)
            .map(|(f, spec)| (f.name, report::metric_json(f.value, spec.unit)))
            .collect()
    };
    if metrics.is_empty() {
        return Err(format!("nothing measured: {}", verdict.reasons.join("; ")));
    }
    println!(
        "{}",
        Value::obj([
            ("correct", Value::from(verdict.correct)),
            ("attempted", Value::from(verdict.attempted)),
            ("failed", Value::from(verdict.failed)),
            ("metrics", Value::obj(metrics)),
        ])
    );
    Ok(ExitCode::SUCCESS)
}

/// The traced side of a workload: compute and print its per-layer table and
/// write its span file.
fn report_traced(
    m: &run::Measured,
    rigs: &BTreeMap<String, f64>,
    verdict: &report::Verdict,
) -> Result<Vec<(&'static str, f64)>, String> {
    let layers = report::per_layer(m, rigs);
    results::print_per_layer(m, &layers, verdict);
    if let Some(path) = results::write_trace_file(m).map_err(|e| e.to_string())? {
        eprintln!("  spans written to {}", path.display());
    }
    Ok(layers)
}

fn all_workloads() -> Vec<&'static WorkloadSpec> {
    WORKLOADS.iter().collect()
}

/// `run`: every workload, end to end and traced, into one result file.
fn full_run(args: &Args) -> Result<ExitCode, String> {
    let out = args.flags.get("out").ok_or("--out is required")?;
    let started = Instant::now();
    let plan = plan_from(args, false)?;
    let specs = all_workloads();
    let plain = run::measure(&specs, &plan);
    let traced_plan = Plan {
        traced: true,
        // The traced pass feeds the per-layer tables only; a shorter one
        // keeps the whole run within its three minutes.
        seconds: plan.seconds.div_ceil(2),
        ..plan
    };
    let traced = run::measure(&specs, &traced_plan);
    let rigs = run::spawn_rigs(plan.smoke)?;

    let mut ok = true;
    let mut sections = Vec::new();
    for (m, t) in plain.iter().zip(&traced) {
        let figures = report::end_to_end(m);
        let verdict = report::verdict(m);
        let traced_verdict = report::verdict(t);
        results::print_end_to_end(m, &figures, &verdict);
        let layers = report_traced(t, &rigs, &traced_verdict)?;
        ok &= verdict.correct && traced_verdict.correct;
        sections.push((
            m.spec.name,
            results::workload_json(m, &figures, &layers, &verdict),
        ));
    }
    let doc = Value::obj([
        ("envelope", results::envelope(&plan, &plain)),
        ("workloads", Value::obj(sections)),
    ]);
    std::fs::write(out, doc.pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "result set written to {out} in {:.1} s; checks {}",
        started.elapsed().as_secs_f64(),
        if ok { "passed" } else { "FAILED" }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `trace`: one traced pass over every workload; span files and tables.
fn traced_run(args: &Args) -> Result<ExitCode, String> {
    let plan = plan_from(args, true)?;
    let measured = run::measure(&all_workloads(), &plan);
    let rigs = run::spawn_rigs(plan.smoke)?;
    let mut ok = true;
    for m in &measured {
        let verdict = report::verdict(m);
        let layers = report_traced(m, &rigs, &verdict)?;
        // The generator must not be what the benchmark measures.
        let gen = layers
            .iter()
            .find(|(n, _)| *n == "bench.gen.ns_per_frame")
            .map_or(0.0, |l| l.1);
        let phases: f64 = layers
            .iter()
            .filter(|(n, _)| n.ends_with(".ns_per_frame") && !n.starts_with("rig."))
            .map(|l| l.1)
            .sum();
        if gen > 0.15 * phases {
            eprintln!(
                "  WARNING: the generator takes {:.1} % of a slice",
                gen / phases * 100.0
            );
            ok = false;
        }
        ok &= verdict.correct;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch() -> Result<ExitCode, String> {
    let started = Instant::now();
    let args = Args::parse(std::env::args().skip(1))?;
    match args.words.first().map(String::as_str) {
        None => contract(&args),
        Some("round") => {
            let round = round::run(
                &round::RoundArgs {
                    workload: args
                        .flags
                        .get("workload")
                        .ok_or("--workload is required")?
                        .clone(),
                    seed: args.required("seed")?,
                    slices: args.required("slices")? as usize,
                    warmup: args.required("warmup")? as usize,
                    budget_ms: args.required("budget-ms")?,
                    scale: args.required("scale")? as usize,
                    traced: args.required("trace")? == 1,
                    kernel: match args.flags.get("kernel").map(String::as_str) {
                        Some("reference") => workloads::Kernel::Reference,
                        _ => workloads::Kernel::Fast,
                    },
                },
                started,
            );
            println!("{}{}", round::REPORT_PREFIX, round.to_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("rigs-round") => {
            round::pin_self(1);
            let effort = if args.has("smoke") {
                rigs::Effort::SMOKE
            } else {
                rigs::Effort::FULL
            };
            let figures = rigs::run_all(effort);
            let doc = Value::Obj(
                figures
                    .into_iter()
                    .map(|(k, v)| (k, Value::from(v)))
                    .collect(),
            );
            println!("{}{doc}", round::REPORT_PREFIX);
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => full_run(&args),
        Some("trace") => traced_run(&args),
        Some("rigs") => {
            for (name, ns) in run::spawn_rigs(args.has("smoke"))? {
                println!("{name:<50} {ns:>12.3} ns");
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let [_, a, b] = args.words.as_slice() else {
                return Err("usage: compare <a.json> <b.json>".into());
            };
            let load = |path: &String| -> Result<Value, String> {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                Value::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let pass = compare::compare(&load(a)?, &load(b)?, &check::bounds_from_repo_file()?)?;
            println!(
                "{}",
                if pass {
                    "PASS: b is no worse than a"
                } else {
                    "FAIL"
                }
            );
            Ok(if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("check") => {
            if args.has("emit") {
                print!("{}", check::expected().pretty());
                return Ok(ExitCode::SUCCESS);
            }
            match check::check_repo_file() {
                Ok(()) => {
                    println!(
                        "BENCHMARK.json matches the benchmark: {} workloads, {} end-to-end and {} per-layer metrics",
                        WORKLOADS.len(),
                        END_TO_END.len(),
                        PER_LAYER.len()
                    );
                    Ok(ExitCode::SUCCESS)
                }
                Err(problems) => {
                    for p in &problems {
                        eprintln!("BENCHMARK.json: {p}");
                    }
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("netfpga-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
