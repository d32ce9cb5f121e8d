//! Host-time measurement that survives a noisy two-core sandbox.
//!
//! Wall-clock on the reference host is not one distribution. Measured
//! while sizing this benchmark (a Firecracker guest, two vCPUs, pinned):
//! back-to-back 1.5 ms slices of one workload spread from their 10th to
//! their 90th percentile by a factor of two, the low percentiles of a
//! five-second window drift by 25 % between windows, and reported steal
//! time was under 1 % for most of the session (above 20 % for some minutes
//! of it) — so most of the interference is a neighbour on the shared core
//! and cache, not descheduling. Two things follow.
//!
//! *Interference only slows.* The figure that repeats is the undisturbed
//! one, so every reduction here takes the low end: per round the 10th
//! percentile of the slice figures, per workload the lower quartile of the
//! rounds (of seven rounds: the second fastest).
//!
//! *The host's speed drifts.* Between slices runs a fixed loop — the
//! *calibration unit*, CU — and a slice is expressed as a ratio to the
//! faster of the two CUs beside it (a disturbed calibration must not make a
//! slice look fast). Ratios are converted back to nanoseconds with the
//! CU's frozen nominal duration, so figures read in reference-host time.
//! The ratio removes the drift the CU shares with the workload; it cannot
//! remove all of it, because a busy neighbour costs the simulator (large
//! code, L1-resident data) more than it costs any small loop: a
//! simulator-shaped loop (boxed stages, queues, hash maps) and a larger
//! memory-bound table were both tried and tracked the workloads no better.
//! What remains is a run-to-run quartile spread of about 4 %, which is
//! why `host_frames_per_s` carries the bound it does.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Entries of the calibration table: 64 Ki × 4 B = 256 KiB, L2-resident on
/// the reference host.
const CAL_TABLE_ENTRIES: usize = 1 << 16;

/// Iterations of the calibration loop per CU: about a tenth of a slice.
/// Frozen: changing it changes the unit every recorded ratio is in.
const CAL_ITERS: u32 = 25_000;

/// The undisturbed CU's duration on the reference host, in nanoseconds:
/// the median over the seven workloads of each one's 10th-percentile CU in
/// the first accepted full runs (168–171 µs in all three). Ratios are
/// multiplied by this to report host-time metrics in reference-host time.
pub const CU_NOMINAL_NS: f64 = 170_000.0;

/// The fixed calibration loop: xorshift index stream, read-modify-write of
/// a 256 KiB table, one data-dependent branch per iteration.
pub struct Calibrator {
    table: Vec<u32>,
    state: u64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..CAL_TABLE_ENTRIES)
            .map(|_| {
                state = xorshift(state);
                state as u32
            })
            .collect();
        Calibrator { table, state }
    }

    /// Run one CU and return its wall time.
    pub fn run(&mut self) -> Duration {
        let started = Instant::now();
        let mut x = self.state;
        let mut acc = 0u32;
        for _ in 0..CAL_ITERS {
            x = xorshift(x);
            let slot = &mut self.table[(x as usize) & (CAL_TABLE_ENTRIES - 1)];
            if *slot & 1 == 0 {
                *slot = slot.wrapping_add(x as u32) | 1;
            } else {
                acc = acc.wrapping_add(*slot);
                *slot ^= (x >> 32) as u32 & !1;
                *slot &= !1;
            }
        }
        self.state = black_box(x);
        black_box(acc);
        started.elapsed()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method) — the same rule the driver applies to this
/// benchmark's own outputs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Rank k·(n+1)/4, interpolated between its neighbours; at the ends
        // of a short sample the rule extrapolates, as Python's does.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [at(1), at(2), at(3)]
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value a tenth of the way up the sorted sample (nearest rank).
pub fn low_decile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "decile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 10]
}

/// The lower quartile of the rounds; a single round stands for itself.
pub fn low_quartile(rounds: &[f64]) -> f64 {
    match rounds {
        [] => f64::NAN,
        [one] => *one,
        _ => quartiles(rounds)[0],
    }
}

/// Interquartile range as a share of the median: the spread figure
/// `compare` holds against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// One timed slice with the calibration runs on either side of it.
#[derive(Debug, Clone, Copy)]
pub struct SliceTiming {
    pub wall_ns: f64,
    pub frames: u64,
    pub cal_before_ns: f64,
    pub cal_after_ns: f64,
}

impl SliceTiming {
    /// Host time per verified frame, in CUs.
    fn ratio(&self) -> f64 {
        let cal = self.cal_before_ns.min(self.cal_after_ns);
        self.wall_ns / self.frames.max(1) as f64 / cal
    }
}

/// A round's figure: the low decile of its slice ratios, in CU per frame.
pub fn round_cu_per_frame(slices: &[SliceTiming]) -> f64 {
    if slices.is_empty() {
        return f64::NAN;
    }
    low_decile(&slices.iter().map(SliceTiming::ratio).collect::<Vec<_>>())
}

/// The undisturbed CU of a round, in nanoseconds: the low decile of every
/// calibration run in it.
pub fn round_cu_ns(slices: &[SliceTiming]) -> f64 {
    let mut cals: Vec<f64> = slices.iter().map(|s| s.cal_after_ns).collect();
    cals.extend(slices.first().map(|s| s.cal_before_ns));
    if cals.is_empty() {
        return CU_NOMINAL_NS;
    }
    low_decile(&cals)
}

/// Calibrated frames per reference-host second from per-round CU-per-frame
/// figures.
pub fn frames_per_ref_second(round_cu_per_frame: &[f64]) -> f64 {
    1e9 / (low_quartile(round_cu_per_frame) * CU_NOMINAL_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` clean slices: 2 ms of wall for 1000 frames beside a 0.2 ms CU,
    /// with a deterministic ±0.5 % ripple.
    fn clean_round(n: usize) -> Vec<SliceTiming> {
        (0..n)
            .map(|i| {
                let ripple = 1.0 + 0.005 * ((i * 7 % 11) as f64 / 5.0 - 1.0);
                SliceTiming {
                    wall_ns: 2_000_000.0 * ripple,
                    frames: 1000,
                    cal_before_ns: 200_000.0,
                    cal_after_ns: 200_000.0,
                }
            })
            .collect()
    }

    fn estimate(rounds: &[Vec<SliceTiming>]) -> f64 {
        let per_round: Vec<f64> = rounds.iter().map(|r| round_cu_per_frame(r)).collect();
        frames_per_ref_second(&per_round)
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
            [2.0, 8.0, 32.0]
        );
    }

    #[test]
    fn one_slow_round_does_not_move_the_result() {
        let clean = estimate(&vec![clean_round(100); 7]);
        let mut rounds = vec![clean_round(100); 7];
        for s in &mut rounds[3] {
            s.wall_ns *= 1.3; // the whole round ran beside a busy neighbour
        }
        let got = estimate(&rounds);
        assert!((got / clean - 1.0).abs() < 0.02, "{got} vs {clean}");
    }

    #[test]
    fn most_rounds_slow_still_find_the_undisturbed_figure() {
        let clean = estimate(&vec![clean_round(100); 7]);
        let mut rounds = vec![clean_round(100); 7];
        for r in &mut rounds[2..] {
            for s in r.iter_mut() {
                s.wall_ns *= 1.4;
            }
        }
        let got = estimate(&rounds);
        assert!((got / clean - 1.0).abs() < 0.02, "{got} vs {clean}");
    }

    #[test]
    fn slow_slices_do_not_move_the_result() {
        let clean = estimate(&vec![clean_round(100); 7]);
        let mut rounds = vec![clean_round(100); 7];
        for r in &mut rounds {
            for s in r.iter_mut().skip(25) {
                s.wall_ns *= 1.5; // three quarters of every round disturbed
            }
        }
        let got = estimate(&rounds);
        assert!((got / clean - 1.0).abs() < 0.02, "{got} vs {clean}");
    }

    #[test]
    fn a_twofold_outlier_does_not_move_the_result() {
        let clean = estimate(&vec![clean_round(100); 7]);
        let mut rounds = vec![clean_round(100); 7];
        rounds[0][5].wall_ns *= 2.0;
        rounds[4][17].wall_ns *= 2.0;
        let got = estimate(&rounds);
        assert!((got / clean - 1.0).abs() < 0.02, "{got} vs {clean}");
    }

    #[test]
    fn a_disturbed_calibration_does_not_make_a_slice_fast() {
        let clean = estimate(&vec![clean_round(100); 7]);
        let mut rounds = vec![clean_round(100); 7];
        for r in &mut rounds {
            for s in r.iter_mut().step_by(3) {
                s.cal_after_ns *= 1.8; // only the CU was hit
            }
        }
        let got = estimate(&rounds);
        assert!((got / clean - 1.0).abs() < 0.02, "{got} vs {clean}");
    }

    #[test]
    fn a_slower_host_cancels_out() {
        // Everything — slices and CUs alike — 25 % slower: same ratio.
        let clean = estimate(&vec![clean_round(100); 7]);
        let mut rounds = vec![clean_round(100); 7];
        for s in rounds.iter_mut().flatten() {
            s.wall_ns *= 1.25;
            s.cal_before_ns *= 1.25;
            s.cal_after_ns *= 1.25;
        }
        let got = estimate(&rounds);
        assert!((got / clean - 1.0).abs() < 1e-9, "{got} vs {clean}");
    }

    #[test]
    fn calibration_loop_scales_with_its_work() {
        // `black_box` is only a hint: confirm the loop is really executed by
        // checking that two CUs take about twice one.
        let mut cal = Calibrator::new();
        cal.run();
        let one = (0..5).map(|_| cal.run()).min().unwrap();
        let two = (0..5).map(|_| cal.run() + cal.run()).min().unwrap();
        assert!(one > Duration::from_micros(10), "CU too short: {one:?}");
        let ratio = two.as_secs_f64() / one.as_secs_f64();
        assert!((1.5..2.6).contains(&ratio), "two CUs / one CU = {ratio}");
    }
}
