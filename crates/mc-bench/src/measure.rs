//! The one host timer: every wall-clock measurement of the host plane
//! (`perf`'s tier cells, naive reference and solver rows, `hostprof`'s
//! two arms, the `simd_smoke` gate) goes through this module.
//!
//! A measurement is one untimed warm-up call (it fills the packing
//! pool and faults the operands in), then timed calls until the samples
//! themselves say stop ([`Samples::enough`]): at least [`MIN_SAMPLES`]
//! of them summing to at least [`MIN_SAMPLE_S`], or [`MAX_TOTAL_S`] in
//! total, whichever comes first. Millisecond kernels thus get dozens of
//! samples and a 10 s naive reference gets one. Each caller keeps the
//! statistic its gate reads: [`Samples::min`] for the GEMM cells and
//! the `hostprof` arms, [`Samples::median`] for the solver rows.
//!
//! The median interpolates between order statistics, the definition
//! `layerbench/src/stats.rs` uses, so both harnesses agree on what a
//! median is.

use std::time::Instant;

/// Samples a measurement takes at least, unless it reaches
/// [`MAX_TOTAL_S`] first.
pub const MIN_SAMPLES: usize = 5;

/// Summed sample time, in seconds, a measurement takes at least, unless
/// it reaches [`MAX_TOTAL_S`] first.
pub const MIN_SAMPLE_S: f64 = 0.1;

/// Summed sample time, in seconds, after which a measurement stops
/// whatever its sample count.
pub const MAX_TOTAL_S: f64 = 2.0;

/// The seeded square operands every host GEMM timing uses: `A` and `B`,
/// `n × n` each, uniform in [-1, 3) from a xorshift64* stream (24
/// random bits scaled by 2⁻²², less one).
pub fn operands(n: usize) -> (Vec<f32>, Vec<f32>) {
    let fill = |mut state: u64| -> Vec<f32> {
        (0..n * n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let mantissa = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f64;
                (mantissa / (1u64 << 23) as f64 * 2.0 - 1.0) as f32
            })
            .collect()
    };
    (fill(0x9E37_79B9_7F4A_7C15), fill(0xD1B5_4A32_D192_ED03))
}

/// Runs `f` once and returns its wall time in seconds with its result.
pub fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// The wall times of one measurement, in the order they were taken.
/// Pushing is O(1), so a measurement of a sub-µs call that takes
/// hundreds of thousands of samples stays linear; the order statistics
/// sort once, when read.
#[derive(Debug, Default)]
pub struct Samples {
    taken: Vec<f64>,
    total_s: f64,
}

impl Samples {
    /// Adds one sample, in seconds.
    pub fn push(&mut self, seconds: f64) {
        self.taken.push(seconds);
        self.total_s += seconds;
    }

    /// The stopping rule: [`MIN_SAMPLES`] samples summing to
    /// [`MIN_SAMPLE_S`], or [`MAX_TOTAL_S`] of samples in total.
    pub fn enough(&self) -> bool {
        self.total_s >= MAX_TOTAL_S
            || (self.taken.len() >= MIN_SAMPLES && self.total_s >= MIN_SAMPLE_S)
    }

    /// The number of samples.
    pub fn count(&self) -> usize {
        self.taken.len()
    }

    /// The fastest sample; `NaN` when empty.
    pub fn min(&self) -> f64 {
        self.taken
            .iter()
            .copied()
            .reduce(f64::min)
            .unwrap_or(f64::NAN)
    }

    /// The median, interpolated between the two middle samples of an
    /// even count; `NaN` when empty.
    pub fn median(&self) -> f64 {
        let mut sorted = self.taken.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let Some(last) = sorted.len().checked_sub(1) else {
            return f64::NAN;
        };
        let pos = 0.5 * last as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }
}

/// Measures `f`: one untimed warm-up call, then timed calls until the
/// stopping rule holds. Whatever `f` writes holds its last call's
/// output afterwards.
pub fn sample(mut f: impl FnMut()) -> Samples {
    f();
    let mut samples = Samples::default();
    while !samples.enough() {
        samples.push(time(&mut f).0);
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        values.iter().for_each(|&v| s.push(v));
        s
    }

    #[test]
    fn statistics_follow_the_interpolated_quantile() {
        let s = of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.min(), s.median(), s.count()), (1.0, 2.5, 4));
        assert_eq!(of(&[0.3, 0.1, 0.2]).median(), 0.2);
        assert!(Samples::default().median().is_nan() && Samples::default().min().is_nan());
    }

    #[test]
    fn the_samples_decide_when_to_stop() {
        // Five samples are not enough until they sum to 0.1 s.
        assert!(!of(&[0.01; 5]).enough());
        assert!(of(&[0.02; 5]).enough());
        assert!(!of(&[0.5; 3]).enough());
        // Two seconds end a measurement whatever its sample count.
        assert!(of(&[2.0]).enough());
        assert!(!of(&[1.9]).enough());
    }

    #[test]
    fn sample_warms_up_once_then_times_until_enough() {
        let mut calls = 0;
        let s = sample(|| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(30));
        });
        // 0.03 s calls: five samples reach 0.1 s, plus the warm-up.
        assert_eq!(s.count(), MIN_SAMPLES);
        assert_eq!(calls, MIN_SAMPLES + 1);
        assert!(s.min() >= 0.03 && s.median() >= s.min());
    }

    #[test]
    fn sampling_a_tiny_call_stays_linear_in_its_sample_count() {
        // A ~50 ns call takes on the order of a million samples to sum
        // to MIN_SAMPLE_S; a sorted insert per sample made that
        // quadratic, seconds past the stopping rule.
        let spin = std::time::Duration::from_nanos(50);
        let (wall, s) = time(|| {
            sample(|| {
                let t = Instant::now();
                while t.elapsed() < spin {}
            })
        });
        assert!(s.enough() && s.count() >= MIN_SAMPLES);
        assert!(
            wall < 2.0 * MAX_TOTAL_S,
            "{} samples took {wall:.2} s of wall time",
            s.count()
        );
    }

    #[test]
    fn operands_are_seeded_and_in_range() {
        let (a, b) = operands(16);
        assert_eq!((a.len(), b.len()), (256, 256));
        assert_eq!(operands(16), (a.clone(), b.clone()));
        assert_ne!(a, b);
        assert!(a.iter().chain(&b).all(|v| (-1.0..3.0).contains(v)));
        assert!(a.iter().any(|&v| v > 1.0) && a.iter().any(|&v| v < 0.0));
    }
}
