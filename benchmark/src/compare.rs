//! `compare <a.json> <b.json>`: is result set `b` worse than `a`?
//!
//! One row per workload × end-to-end metric. Host metrics are held to the
//! bound `BENCHMARK.json` states, and reported `unresolved` when either
//! set cannot resolve a difference of that size: when the quartile spread
//! of its rounds, divided by √rounds (the reported figure is a reduction
//! of the rounds, so it is that much steadier than one round), exceeds the
//! bound — unless every round of one side beats every round of the other.
//! Device
//! metrics and the trace signature of one seed must be bit-identical;
//! sets of different seeds must instead have different signatures.

use crate::estimator::quartile_spread;
use crate::json::Value;
use crate::spec::{Better, Kind, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Same,
    Better,
    Worse,
    Unresolved,
    /// A device figure or signature that had to match and did not (or had
    /// to differ and did not).
    Mismatch,
    /// Device figures of different seeds: nothing to compare.
    SeedsDiffer,
}

impl Outcome {
    fn label(self) -> &'static str {
        match self {
            Outcome::Same => "same",
            Outcome::Better => "better",
            Outcome::Worse => "worse",
            Outcome::Unresolved => "unresolved",
            Outcome::Mismatch => "MISMATCH",
            Outcome::SeedsDiffer => "n/a (seeds differ)",
        }
    }

    fn fails(self) -> bool {
        matches!(
            self,
            Outcome::Worse | Outcome::Unresolved | Outcome::Mismatch
        )
    }
}

/// `setup_s` is only worse when it is also worse by this much in absolute
/// terms: a quarter of 40 ms is scheduler noise, not a regression.
const SETUP_FLOOR_S: f64 = 0.05;

/// Judge a host metric: `a` is the base, `b` the candidate.
pub fn judge_host(
    name: &str,
    better: Better,
    bound: f64,
    a: (f64, &[f64]),
    b: (f64, &[f64]),
) -> Outcome {
    let (va, ra) = a;
    let (vb, rb) = b;
    // Positive `worse_by`: b is worse than a by that share of a.
    let worse_by = match better {
        Better::Lower => (vb - va) / va,
        Better::Higher => (va - vb) / va,
    };
    let floor_ok = name != "setup_s" || (vb - va).abs() > SETUP_FLOOR_S;
    let unsteady = |rounds: &[f64]| quartile_spread(rounds) / (rounds.len() as f64).sqrt() > bound;
    let noisy = unsteady(ra) || unsteady(rb);
    if noisy {
        let min = |r: &[f64]| r.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |r: &[f64]| r.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (b_wins, a_wins) = match better {
            Better::Lower => (max(rb) < min(ra), max(ra) < min(rb)),
            Better::Higher => (min(rb) > max(ra), min(ra) > max(rb)),
        };
        return if b_wins {
            Outcome::Better
        } else if a_wins && floor_ok {
            Outcome::Worse
        } else {
            Outcome::Unresolved
        };
    }
    if worse_by > bound && floor_ok {
        Outcome::Worse
    } else if worse_by < -bound {
        Outcome::Better
    } else {
        Outcome::Same
    }
}

fn rounds_of(metric: &Value) -> Vec<f64> {
    metric
        .get("rounds")
        .and_then(Value::as_arr)
        .map_or(Vec::new(), |a| a.iter().filter_map(Value::as_f64).collect())
}

/// Compare two result documents; prints the table and returns whether `b`
/// passes.
pub fn compare(a: &Value, b: &Value, bounds: &[(String, f64)]) -> Result<bool, String> {
    let seed = |doc: &Value| doc.field("envelope")?.num_field("seed");
    let same_seed = seed(a)? == seed(b)?;
    let wa = a
        .field("workloads")?
        .as_obj()
        .ok_or("`workloads` is not an object")?;
    let wb = b.field("workloads")?;
    let mut pass = true;
    println!(
        "{:<20} {:<20} {:>16} {:>16}  {:<28} verdict",
        "workload", "metric", "a", "b", "b/a"
    );
    for (name, ra) in wa {
        let rb = wb
            .field(name)
            .map_err(|e| format!("{e} in the second set"))?;
        for spec in END_TO_END {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == spec.name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", spec.name))?;
            let ma = ra.field("end_to_end")?.field(spec.name)?;
            let mb = rb.field("end_to_end")?.field(spec.name)?;
            let (va, vb) = (ma.num_field("value")?, mb.num_field("value")?);
            let outcome = match spec.kind {
                Kind::Host => judge_host(
                    spec.name,
                    spec.better,
                    bound,
                    (va, &rounds_of(ma)),
                    (vb, &rounds_of(mb)),
                ),
                Kind::Device if !same_seed => Outcome::SeedsDiffer,
                Kind::Device if va.to_bits() == vb.to_bits() => Outcome::Same,
                Kind::Device => Outcome::Mismatch,
            };
            pass &= !outcome.fails();
            println!(
                "{:<20} {:<20} {:>16.4} {:>16.4}  {:<28} {}",
                name,
                spec.name,
                va,
                vb,
                format!("{:.4} (base a = {:.4})", vb / va, va),
                outcome.label()
            );
        }
        let sig = |r: &Value| -> Result<String, String> {
            Ok(r.field("device")?.str_field("trace_sig")?.to_string())
        };
        let (sa, sb) = (sig(ra)?, sig(rb)?);
        // Same seed: the same deliveries, bit for bit. Different seeds:
        // different traffic, so an equal signature means the seed is not
        // reaching the workload.
        let sig_ok = (sa == sb) == same_seed;
        pass &= sig_ok;
        println!(
            "{:<20} {:<20} {:>16} {:>16}  {:<28} {}",
            name,
            "trace_sig",
            sa,
            sb,
            if same_seed {
                "must match"
            } else {
                "must differ (seeds differ)"
            },
            if sig_ok { "ok" } else { "MISMATCH" }
        );
        let failed = |r: &Value| r.num_field("failed");
        let (fa, fb) = (failed(ra)?, failed(rb)?);
        let correct = rb.field("correct")?.as_bool().unwrap_or(false);
        let ops_ok = fb <= fa && correct;
        pass &= ops_ok;
        println!(
            "{:<20} {:<20} {:>16} {:>16}  {:<28} {}",
            name,
            "ops failed",
            fa,
            fb,
            if correct {
                "checks passed"
            } else {
                "CHECKS FAILED"
            },
            if ops_ok { "ok" } else { "WORSE" }
        );
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 7] = [100.0, 101.0, 99.5, 100.5, 100.2, 99.8, 100.1];

    fn scaled(by: f64) -> Vec<f64> {
        TIGHT_A.iter().map(|v| v * by).collect()
    }

    #[test]
    fn within_the_bound_is_same_beyond_it_is_worse_or_better() {
        let judge = |by: f64| {
            let b = scaled(by);
            judge_host(
                "host_frames_per_s",
                Better::Higher,
                0.10,
                (100.1, &TIGHT_A),
                (100.1 * by, &b),
            )
        };
        assert_eq!(judge(1.0), Outcome::Same);
        assert_eq!(judge(0.95), Outcome::Same);
        assert_eq!(judge(0.85), Outcome::Worse);
        assert_eq!(judge(1.2), Outcome::Better);
    }

    #[test]
    fn direction_is_respected() {
        let b = scaled(1.2);
        let got = judge_host(
            "peak_rss_mb",
            Better::Lower,
            0.10,
            (100.1, &TIGHT_A),
            (120.1, &b),
        );
        assert_eq!(got, Outcome::Worse);
    }

    #[test]
    fn a_noisy_side_is_unresolved_unless_every_round_agrees() {
        let noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0];
        let got = judge_host(
            "host_frames_per_s",
            Better::Higher,
            0.10,
            (100.1, &TIGHT_A),
            (100.0, &noisy),
        );
        assert_eq!(got, Outcome::Unresolved);
        let noisy_but_faster: Vec<f64> = noisy.iter().map(|v| v + 100.0).collect();
        let got = judge_host(
            "host_frames_per_s",
            Better::Higher,
            0.10,
            (100.1, &TIGHT_A),
            (200.0, &noisy_but_faster),
        );
        assert_eq!(got, Outcome::Better);
    }

    #[test]
    fn setup_needs_an_absolute_difference_too() {
        let a = [0.040, 0.041, 0.040, 0.042, 0.041, 0.040, 0.041];
        let b = [0.060, 0.061, 0.060, 0.062, 0.061, 0.060, 0.061];
        // 50 % worse, but 20 ms: below the floor.
        assert_eq!(
            judge_host("setup_s", Better::Lower, 0.25, (0.041, &a), (0.061, &b)),
            Outcome::Same
        );
        let c: Vec<f64> = a.iter().map(|v| v + 0.2).collect();
        assert_eq!(
            judge_host("setup_s", Better::Lower, 0.25, (0.041, &a), (0.241, &c)),
            Outcome::Worse
        );
    }
}
