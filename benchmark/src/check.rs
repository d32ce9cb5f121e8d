//! `check`: hold `/BENCHMARK.json` against what the benchmark emits.
//!
//! `spec.rs` is what `run` emits from; `BENCHMARK.json` is what the driver
//! and later issues read. They must say the same thing, within the limits
//! the driver sets on the file. `check --emit` prints the file `spec.rs`
//! implies, which is how `BENCHMARK.json` is (re)generated.

use crate::json::Value;
use crate::results::benchmark_dir;
use crate::spec::{END_TO_END, NOMINAL_SECONDS, PER_LAYER, WORKLOADS};

const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
const PATHS: [&str; 1] = ["benchmark"];

/// The `BENCHMARK.json` that `spec.rs` implies.
pub fn expected() -> Value {
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::from(*s)).collect());
    Value::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Value::from(NOMINAL_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj([("name", Value::from(w.name)), ("why", Value::from(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.as_str())),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Problems with `doc` as a `BENCHMARK.json`; empty when it is sound.
pub fn problems(text: &str) -> Vec<String> {
    let mut bad = Vec::new();
    if text.len() > 64 * 1024 {
        bad.push(format!("file is {} bytes, over 64 KiB", text.len()));
    }
    let doc = match Value::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("not JSON: {e}")],
    };
    let want = expected();
    let keys = |v: &Value| -> Vec<String> {
        v.as_obj()
            .map_or(Vec::new(), |o| o.iter().map(|(k, _)| k.clone()).collect())
    };
    if keys(&doc) != keys(&want) {
        bad.push(format!(
            "top-level keys are {:?}, expected exactly {:?}",
            keys(&doc),
            keys(&want)
        ));
    }
    for key in ["command", "paths", "run_seconds"] {
        if doc.get(key) != want.get(key) {
            bad.push(format!(
                "`{key}` is {}, the benchmark expects {}",
                doc.get(key).map_or("missing".into(), Value::to_string),
                want.get(key).expect("built above")
            ));
        }
    }

    // Every named workload and metric present, in the runner's own order,
    // with the same why / unit / direction / bound.
    for (key, fields) in [
        ("workloads", &["name", "why"][..]),
        ("end_to_end", &["name", "unit", "better", "bound"][..]),
        ("per_layer", &["name", "unit", "better"][..]),
    ] {
        let got = doc.get(key).and_then(Value::as_arr).unwrap_or(&[]);
        let exp = want.get(key).and_then(Value::as_arr).expect("built above");
        let name_of = |v: &Value| {
            v.get("name")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        for e in exp {
            match got.iter().find(|g| name_of(g) == name_of(e)) {
                None => bad.push(format!(
                    "{key}: `{}` is emitted but not declared",
                    name_of(e)
                )),
                Some(g) => {
                    if keys(g) != fields {
                        bad.push(format!(
                            "{key}: `{}` has keys {:?}, expected {fields:?}",
                            name_of(g),
                            keys(g)
                        ));
                    }
                    for f in fields {
                        if g.get(f) != e.get(f) {
                            bad.push(format!(
                                "{key}: `{}` declares {f} = {}, the benchmark emits {}",
                                name_of(e),
                                g.get(f).map_or("nothing".into(), Value::to_string),
                                e.get(f).expect("built above")
                            ));
                        }
                    }
                }
            }
        }
        for g in got {
            if !exp.iter().any(|e| name_of(e) == name_of(g)) {
                bad.push(format!(
                    "{key}: `{}` is declared but never emitted",
                    name_of(g)
                ));
            }
        }
    }

    // The driver's own limits, checked on what the benchmark emits.
    if !(2..=8).contains(&WORKLOADS.len()) {
        bad.push(format!("{} workloads, limit 2 to 8", WORKLOADS.len()));
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        bad.push(format!(
            "{} end-to-end metrics, limit 1 to 16",
            END_TO_END.len()
        ));
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        bad.push(format!(
            "{} per-layer metrics, limit 1 to 128",
            PER_LAYER.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        if !name_ok(name) {
            bad.push(format!(
                "name `{name}` does not match [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
        if !seen.insert(name) {
            bad.push(format!("name `{name}` is used twice"));
        }
    }
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        if !unit_ok(unit) {
            bad.push(format!(
                "unit `{unit}` is not made of at most 16 of [A-Za-z0-9_/%.-]"
            ));
        }
    }
    for w in WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            bad.push(format!(
                "why of `{}` is not one line of at most 200 characters",
                w.name
            ));
        }
    }
    for m in END_TO_END {
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            bad.push(format!(
                "bound of `{}` is {}, limit (0, 0.25]",
                m.name, m.bound
            ));
        }
    }
    match END_TO_END.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.better.as_str() == "lower" => {
            if END_TO_END.iter().any(|o| o.bound > m.bound) {
                bad.push("`setup_s` must carry the largest bound".into());
            }
        }
        _ => bad.push("`setup_s` (unit s, lower is better) is missing".into()),
    }
    for m in PER_LAYER {
        if !END_TO_END.iter().any(|e| e.name == m.moves) {
            bad.push(format!(
                "per-layer `{}` names no end-to-end metric it should move",
                m.name
            ));
        }
        if m.on.is_empty() {
            bad.push(format!(
                "per-layer `{}` names no workload it should move it on",
                m.name
            ));
        }
    }
    if !(1..=60).contains(&NOMINAL_SECONDS) {
        bad.push(format!("run_seconds {NOMINAL_SECONDS} is outside 1 to 60"));
    }
    bad
}

/// Run the check against the repository's `BENCHMARK.json`.
pub fn check_repo_file() -> Result<(), Vec<String>> {
    let path = benchmark_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| vec![format!("cannot read {}: {e}", path.display())])?;
    let bad = problems(&text);
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad)
    }
}

/// Bounds by end-to-end metric name, as `BENCHMARK.json` states them.
pub fn bounds_from_repo_file() -> Result<Vec<(String, f64)>, String> {
    let path = benchmark_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Value::parse(&text)?;
    doc.field("end_to_end")?
        .as_arr()
        .ok_or("`end_to_end` is not an array")?
        .iter()
        .map(|m| Ok((m.str_field("name")?.to_string(), m.num_field("bound")?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_emitted_file_passes_its_own_check() {
        assert_eq!(problems(&expected().pretty()), Vec::<String>::new());
    }

    #[test]
    fn drift_is_caught() {
        let sound = expected().pretty();
        let renamed = sound.replace("\"idle_probe\"", "\"idle_probe2\"");
        let bad = problems(&renamed);
        assert!(
            bad.iter()
                .any(|b| b.contains("`idle_probe` is emitted but not declared")),
            "{bad:?}"
        );
        assert!(
            bad.iter()
                .any(|b| b.contains("`idle_probe2` is declared but never emitted")),
            "{bad:?}"
        );

        let rebound = sound.replace("\"bound\": 0.25", "\"bound\": 0.2");
        assert!(problems(&rebound)
            .iter()
            .any(|b| b.contains("`setup_s` declares bound")));

        let extra_key = sound.replacen('{', "{\n  \"baseline\": {},", 1);
        assert!(problems(&extra_key)
            .iter()
            .any(|b| b.contains("top-level keys")));

        let moved = sound.replace("[\"benchmark\"]", "[\"benchmark/\"]");
        assert!(
            problems(&moved).iter().any(|b| b.contains("`paths`")),
            "{:?}",
            problems(&moved)
        );
    }
}
