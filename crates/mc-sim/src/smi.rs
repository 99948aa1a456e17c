//! System Management Interface (SMI) emulation.
//!
//! The paper measures power through the ROCm SMI library's
//! `rsmi_dev_power_ave_get()` (§IV-C), polled by a background process at
//! a 100 ms period. This module exposes the same shape of interface over
//! the simulator's power profiles, including the small telemetry noise
//! real sensors exhibit (the paper reports <2 % variance and validates
//! 10 ms against 100 ms periods).

use serde::{Deserialize, Serialize};

use crate::device::PowerProfile;

/// One timestamped power sample.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    /// Sample timestamp in seconds from kernel start.
    pub t_s: f64,
    /// Power in watts.
    pub watts: f64,
}

/// An SMI client bound to one device's telemetry.
///
/// Mirrors the ROCm SMI API shape: `power_ave` answers "average socket
/// power over the sensor window", which the tool polls periodically.
#[derive(Clone, Debug)]
pub struct Smi {
    profile: PowerProfile,
    noise_amplitude: f64,
    seed: u64,
}

impl Smi {
    /// Binds an SMI client to a power profile (one launch's telemetry).
    pub fn attach(profile: PowerProfile, noise_amplitude: f64, seed: u64) -> Self {
        Smi {
            profile,
            noise_amplitude,
            seed,
        }
    }

    /// `rsmi_dev_power_ave_get` equivalent: instantaneous sensor reading
    /// at time `t`, with deterministic sensor noise.
    fn power_ave(&self, t_s: f64) -> f64 {
        let base = self.profile.power_at(t_s);
        base * (1.0 + self.noise_amplitude * self.noise_at(t_s))
    }

    /// Polls the sensor at a fixed period over the whole profile, the
    /// paper's background-sampler methodology. Returns all samples.
    pub fn sample_period(&self, period_s: f64) -> Vec<PowerSample> {
        assert!(period_s > 0.0, "sampling period must be positive");
        let duration = self.profile.duration_s();
        let n = (duration / period_s).floor() as usize;
        (0..=n)
            .map(|i| {
                let t = i as f64 * period_s;
                PowerSample {
                    t_s: t,
                    watts: self.power_ave(t),
                }
            })
            .collect()
    }

    /// Deterministic noise in [-1, 1] from a hash of the timestamp —
    /// reproducible across runs, uncorrelated across samples.
    ///
    /// # Noise model
    ///
    /// The sensor reading at time `t` is
    /// `power_at(t) × (1 + noise_amplitude × noise(t))` where
    /// `noise(t)` is produced by the SplitMix64 finalizer applied to
    /// `seed XOR t.to_bits()` and mapped linearly onto `[-1, 1]`.
    /// The pipeline is pure integer arithmetic plus one IEEE-754
    /// division, so identical `(profile, noise_amplitude, seed)`
    /// inputs yield **byte-identical** sample streams on every
    /// platform and across calls — there is no hidden RNG state; the
    /// timestamp itself is the stream position. The multiplicative
    /// form mirrors real SMI telemetry, whose variance the paper
    /// reports as a fraction of the reading (<2 %, §IV-C), and keeps
    /// an idle device's samples proportionally quiet.
    fn noise_at(&self, t_s: f64) -> f64 {
        let mut x = self.seed ^ t_s.to_bits();
        // SplitMix64 finalizer.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x as f64 / u64::MAX as f64) * 2.0 - 1.0
    }
}

/// Summary statistics over a set of samples (used by experiments).
///
/// Beyond the classic min/mean/max summary, the stats carry streaming
/// p50/p95/p99 quantile estimates from the [`mc_trace::Histogram`]
/// primitive — the distribution view the paper's >1000-sample SMI
/// methodology supports but a min/mean/max triple cannot express.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SampleStats {
    /// Number of samples.
    pub count: usize,
    /// Mean power in watts.
    pub mean_w: f64,
    /// Minimum sample.
    pub min_w: f64,
    /// Maximum sample.
    pub max_w: f64,
    /// Population standard deviation.
    pub stddev_w: f64,
    /// Median power estimate in watts (log-bucketed histogram, 0 when
    /// there are no samples).
    pub p50_w: f64,
    /// 95th-percentile power estimate in watts.
    pub p95_w: f64,
    /// 99th-percentile power estimate in watts.
    pub p99_w: f64,
}

/// The histogram shape every power-sample stream records through:
/// 0.1 W to 10 kW, 50 log buckets per decade (≤ 4.7 % relative bucket
/// width, well inside the sensor's own <2 % noise band).
fn power_sample_histogram() -> mc_trace::Histogram {
    mc_trace::Histogram::log_bucketed(mc_trace::Unit::Watts, 0.1, 10_000.0, 50)
}

impl SampleStats {
    /// Registers these statistics in a metrics registry under the
    /// `power.smi.` prefix (e.g. `power.smi.mean_w`,
    /// `power.smi.p99_w`).
    pub fn register_metrics(&self, registry: &mut mc_trace::MetricsRegistry) {
        use mc_trace::Unit;
        registry.set("power.smi.samples", Unit::Count, self.count as f64);
        registry.set("power.smi.mean_w", Unit::Watts, self.mean_w);
        registry.set("power.smi.min_w", Unit::Watts, self.min_w);
        registry.set("power.smi.max_w", Unit::Watts, self.max_w);
        registry.set("power.smi.stddev_w", Unit::Watts, self.stddev_w);
        registry.set("power.smi.p50_w", Unit::Watts, self.p50_w);
        registry.set("power.smi.p95_w", Unit::Watts, self.p95_w);
        registry.set("power.smi.p99_w", Unit::Watts, self.p99_w);
    }
}

/// Computes summary statistics of a sample train, including streaming
/// quantile estimates through the power-sample histogram.
pub fn sample_stats(samples: &[PowerSample]) -> SampleStats {
    if samples.is_empty() {
        return SampleStats::default();
    }
    let n = samples.len() as f64;
    let mean = samples.iter().map(|s| s.watts).sum::<f64>() / n;
    let var = samples
        .iter()
        .map(|s| (s.watts - mean).powi(2))
        .sum::<f64>()
        / n;
    let mut hist = power_sample_histogram();
    for s in samples {
        hist.record(s.watts);
    }
    SampleStats {
        count: samples.len(),
        mean_w: mean,
        min_w: samples
            .iter()
            .map(|s| s.watts)
            .fold(f64::INFINITY, f64::min),
        max_w: samples.iter().map(|s| s.watts).fold(0.0, f64::max),
        stddev_w: var.sqrt(),
        p50_w: hist.quantile(0.5).unwrap_or(0.0),
        p95_w: hist.quantile(0.95).unwrap_or(0.0),
        p99_w: hist.quantile(0.99).unwrap_or(0.0),
    }
}

/// Records a sample train into the power-sample histogram and
/// registers it under `name` in `registry` — the OpenMetrics histogram
/// family the `.om` snapshots expose next to the `power.smi.*` gauges.
pub fn register_sample_histogram(
    registry: &mut mc_trace::MetricsRegistry,
    name: &str,
    samples: &[PowerSample],
) {
    let mut hist = power_sample_histogram();
    for s in samples {
        hist.record(s.watts);
    }
    registry.register_histogram(name, hist);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_profile(duration: f64, watts: f64) -> PowerProfile {
        PowerProfile {
            segments: vec![(0.0, duration, watts)],
        }
    }

    #[test]
    fn sampling_period_yields_expected_count() {
        // Paper methodology: ≥1000 samples at 100 ms needs a ≥100 s run.
        let smi = Smi::attach(flat_profile(120.0, 300.0), 0.0, 1);
        let samples = smi.sample_period(0.1);
        assert!(samples.len() >= 1000, "{}", samples.len());
    }

    #[test]
    fn noiseless_sampling_returns_profile_power() {
        let smi = Smi::attach(flat_profile(1.0, 250.0), 0.0, 7);
        for s in smi.sample_period(0.01) {
            assert_eq!(s.watts, 250.0);
        }
    }

    #[test]
    fn noise_stays_within_amplitude_and_is_deterministic() {
        let smi = Smi::attach(flat_profile(10.0, 400.0), 0.015, 42);
        let a = smi.sample_period(0.1);
        let b = smi.sample_period(0.1);
        assert_eq!(a, b, "telemetry must be reproducible");
        for s in &a {
            assert!((s.watts - 400.0).abs() <= 400.0 * 0.015 + 1e-9);
        }
        let stats = sample_stats(&a);
        assert!((stats.mean_w - 400.0).abs() < 4.0);
        assert!(stats.stddev_w < 400.0 * 0.015);
    }

    #[test]
    fn short_and_long_periods_agree_on_mean() {
        // The paper checked 10 ms vs 100 ms periods give similar results.
        let smi = Smi::attach(flat_profile(100.0, 333.0), 0.015, 9);
        let fast = sample_stats(&smi.sample_period(0.01));
        let slow = sample_stats(&smi.sample_period(0.1));
        assert!((fast.mean_w - slow.mean_w).abs() < 2.0);
    }

    #[test]
    fn golden_sample_stream_is_byte_identical() {
        // Pinned bit patterns for (flat 400 W over 1 s, amplitude
        // 0.015, seed 42) sampled at 250 ms. Any change to the noise
        // model, hash constants, or sampling grid shows up here as a
        // bit-level diff — the cross-platform determinism contract.
        const GOLDEN: &[(u64, u64)] = &[
            (0x0000000000000000, 0x40792E61659CA3F0),
            (0x3FD0000000000000, 0x4078E479014BA78B),
            (0x3FE0000000000000, 0x40790228C31EA42E),
            (0x3FE8000000000000, 0x4078D834C3CB177A),
            (0x3FF0000000000000, 0x40794281FC2EB982),
        ];
        let smi = Smi::attach(flat_profile(1.0, 400.0), 0.015, 42);
        let samples = smi.sample_period(0.25);
        assert_eq!(samples.len(), GOLDEN.len());
        for (s, &(t_bits, w_bits)) in samples.iter().zip(GOLDEN) {
            assert_eq!(s.t_s.to_bits(), t_bits, "t={}", s.t_s);
            assert_eq!(s.watts.to_bits(), w_bits, "w={}", s.watts);
        }
        // And a repeated run is identical bit for bit.
        let again = smi.sample_period(0.25);
        assert_eq!(samples, again);
    }

    #[test]
    fn stats_register_under_power_smi_prefix() {
        let smi = Smi::attach(flat_profile(10.0, 300.0), 0.0, 1);
        let stats = sample_stats(&smi.sample_period(0.1));
        let mut reg = mc_trace::MetricsRegistry::new();
        stats.register_metrics(&mut reg);
        assert_eq!(reg.value("power.smi.mean_w"), Some(300.0));
        assert_eq!(reg.value("power.smi.samples"), Some(101.0));
        // Quantiles ride along as power.smi.p*_w gauges.
        for name in ["power.smi.p50_w", "power.smi.p95_w", "power.smi.p99_w"] {
            let v = reg.value(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!((v - 300.0).abs() < 300.0 * 0.05, "{name} = {v}");
        }
    }

    #[test]
    fn quantiles_order_and_bracket_the_noise_band() {
        let smi = Smi::attach(flat_profile(120.0, 400.0), 0.015, 42);
        let stats = sample_stats(&smi.sample_period(0.1));
        assert!(stats.count >= 1000);
        assert!(stats.p50_w <= stats.p95_w && stats.p95_w <= stats.p99_w);
        assert!(stats.min_w <= stats.p50_w && stats.p99_w <= stats.max_w * 1.0001);
        // ±1.5 % multiplicative noise: every quantile stays within the
        // histogram's bucket resolution of the 400 W band.
        for q in [stats.p50_w, stats.p95_w, stats.p99_w] {
            assert!((q - 400.0).abs() < 400.0 * 0.07, "{q}");
        }
    }

    #[test]
    fn sample_histograms_register_for_exposition() {
        let smi = Smi::attach(flat_profile(10.0, 300.0), 0.0, 1);
        let samples = smi.sample_period(0.1);
        let mut reg = mc_trace::MetricsRegistry::new();
        register_sample_histogram(&mut reg, "power.smi.watts", &samples);
        let h = reg.histogram("power.smi.watts").expect("registered");
        assert_eq!(h.count(), samples.len() as u64);
        let text = mc_trace::openmetrics(&reg);
        assert!(text.contains("# TYPE power_smi_watts histogram"), "{text}");
        assert!(text.contains("power_smi_watts_count 101"), "{text}");
    }

    #[test]
    fn stats_on_empty_are_zero() {
        let s = sample_stats(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_w, 0.0);
    }

    #[test]
    fn segmented_profile_sampled_correctly() {
        let p = PowerProfile {
            segments: vec![(0.0, 1.0, 100.0), (1.0, 2.0, 500.0)],
        };
        let smi = Smi::attach(p, 0.0, 3);
        assert_eq!(smi.power_ave(0.5), 100.0);
        assert_eq!(smi.power_ave(1.5), 500.0);
    }
}
