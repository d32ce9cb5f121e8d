//! The parent side of a measurement: spawn the rounds, collect their
//! reports, and run the checks that span rounds.

use crate::json::Value;
use crate::round::{Round, REPORT_PREFIX};
use crate::spec::{WorkloadSpec, NOMINAL_SECONDS, ROUNDS, SMOKE_SCALE};
use crate::workloads::Kernel;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

pub struct Plan {
    pub seed: u64,
    pub seconds: u64,
    /// One round at 1/20 of every size: every check, no estimator claims.
    pub smoke: bool,
    /// Alternate untraced and traced rounds (and add the fabric's
    /// sequential twin and the rigs) instead of the plain rounds.
    pub traced: bool,
}

impl Plan {
    fn scale(&self) -> usize {
        if self.smoke {
            SMOKE_SCALE
        } else {
            1
        }
    }

    /// Timed slices per round: the frozen count, scaled to `--seconds`.
    pub fn slices(&self, spec: &WorkloadSpec) -> usize {
        if self.smoke {
            return 3;
        }
        let scaled = spec.slices as u64 * self.seconds / NOMINAL_SECONDS;
        (scaled as usize).max(4)
    }
}

/// Everything measured for one workload.
pub struct Measured {
    pub spec: &'static WorkloadSpec,
    pub untraced: Vec<Round>,
    pub traced: Vec<Round>,
    /// `fabric_leafspine`, traced plan only: rounds of the `nshards = 1`
    /// twin, the base of `fabric.speedup_vs_seq`.
    pub sequential: Vec<Round>,
    /// The replay check: the same short run on the workload and on its
    /// reference (Scan kernel, or the sequential fabric).
    pub replay: Option<(Round, Round)>,
    /// Checks that failed outside any round's own accounting.
    pub errors: Vec<String>,
}

/// Run this executable again with `args` and return the report it prints.
fn spawn_self(args: &[&str]) -> Result<Value, String> {
    let what = args[0];
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start `{what}`: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "`{}` exited with {}",
            args.join(" "),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(REPORT_PREFIX))
        .ok_or_else(|| format!("`{what}` printed no report"))?;
    Value::parse(line)
}

fn spawn_round(
    spec: &WorkloadSpec,
    seed: u64,
    slices: usize,
    budget_ms: u64,
    scale: usize,
    traced: bool,
    kernel: Kernel,
) -> Result<Round, String> {
    let report = spawn_self(&[
        "round",
        "--workload",
        spec.name,
        "--seed",
        &seed.to_string(),
        "--slices",
        &slices.to_string(),
        "--warmup",
        &spec.warmup.to_string(),
        "--budget-ms",
        &budget_ms.to_string(),
        "--scale",
        &scale.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
        "--kernel",
        kernel.flag(),
    ])?;
    Round::from_json(&report)
}

/// Run a rigs process and return its figures.
pub fn spawn_rigs(smoke: bool) -> Result<BTreeMap<String, f64>, String> {
    let report = spawn_self(if smoke {
        &["rigs-round", "--smoke"]
    } else {
        &["rigs-round"]
    })?;
    report
        .as_obj()
        .ok_or("rigs report is not an object")?
        .iter()
        .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or("rig figure is not a number")?)))
        .collect()
}

/// Measure `specs`, rounds outermost so that the workloads of one set are
/// interleaved in time.
pub fn measure(specs: &[&'static WorkloadSpec], plan: &Plan) -> Vec<Measured> {
    let mut all: Vec<Measured> = specs
        .iter()
        .map(|&spec| Measured {
            spec,
            untraced: Vec::new(),
            traced: Vec::new(),
            sequential: Vec::new(),
            replay: None,
            errors: Vec::new(),
        })
        .collect();
    let rounds = match (plan.smoke, plan.traced) {
        (true, false) => 1,
        (true, true) => 2,
        (false, false) => ROUNDS,
        (false, true) => ROUNDS - 1,
    };
    for round in 0..rounds {
        for m in &mut all {
            let traced = plan.traced && round % 2 == 1;
            let slices = plan.slices(m.spec);
            let budget = plan.seconds * 1000 / ROUNDS as u64;
            match spawn_round(
                m.spec,
                plan.seed,
                slices,
                budget,
                plan.scale(),
                traced,
                Kernel::Fast,
            ) {
                Ok(r) if traced => m.traced.push(r),
                Ok(r) => m.untraced.push(r),
                Err(e) => m.errors.push(e),
            }
            if plan.traced && m.spec.name == "fabric_leafspine" && round % 3 == 0 {
                match spawn_round(
                    m.spec,
                    plan.seed,
                    slices,
                    budget,
                    plan.scale(),
                    false,
                    Kernel::Reference,
                ) {
                    Ok(r) => m.sequential.push(r),
                    Err(e) => m.errors.push(e),
                }
            }
        }
    }
    for m in &mut all {
        let scale = m.spec.replay_scale * plan.scale();
        let pair =
            spawn_round(m.spec, plan.seed, 1, 0, scale, false, Kernel::Fast).and_then(|fast| {
                spawn_round(m.spec, plan.seed, 1, 0, scale, false, Kernel::Reference)
                    .map(|r| (fast, r))
            });
        match pair {
            Ok(pair) => m.replay = Some(pair),
            Err(e) => m.errors.push(e),
        }
        cross_round_checks(m);
    }
    all
}

/// Checks no single round can make: every round of a seed must agree on
/// the device, and the replay must match its reference.
fn cross_round_checks(m: &mut Measured) {
    let mut rounds = m.untraced.iter().chain(&m.traced).chain(&m.sequential);
    if let Some(first) = rounds.next() {
        for r in rounds {
            if r.device != first.device || r.ops.delivered != first.ops.delivered {
                m.errors.push(format!(
                    "rounds of one seed disagree on the device: {:?} vs {:?}",
                    r.device, first.device
                ));
                break;
            }
        }
    }
    if let Some((fast, reference)) = &m.replay {
        if fast.device != reference.device || fast.ops != reference.ops {
            m.errors.push(format!(
                "replay on the reference differs: {:?} / {:?} vs {:?} / {:?}",
                fast.device, fast.ops, reference.device, reference.ops
            ));
        }
    }
    let first_error = |r: &Round| r.ops.first_error.clone().or(r.beyond.first_error.clone());
    if let Some(e) = m
        .untraced
        .iter()
        .chain(&m.traced)
        .chain(&m.sequential)
        .find_map(first_error)
    {
        m.errors.push(e);
    }
    if let Some((fast, reference)) = &m.replay {
        for e in [fast, reference].into_iter().filter_map(first_error) {
            m.errors.push(format!("replay: {e}"));
        }
    }
}
