//! The background power-sampling tool (paper §IV-C).
//!
//! The paper's tool is a separate process that polls
//! `rsmi_dev_power_ave_get()` at a user-defined period (100 ms default)
//! for the lifetime of a kernel, collecting at least 1000 samples per
//! measurement. This module reproduces that architecture: a sampler
//! thread polls an [`mc_sim::Smi`] telemetry source over the kernel's
//! (simulated) lifetime and streams samples back over a channel. Time is
//! virtual — the thread walks the profile's timeline rather than
//! sleeping — so runs are fast and deterministic while exercising the
//! same concurrent structure as the real tool.

use mc_sim::{sample_stats, PowerSample, SampleStats, Smi};
use std::sync::mpsc::{self, Receiver};

/// Sampler configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplerConfig {
    /// Sampling period in seconds (the paper uses 0.1 s; it validated
    /// 0.01 s gives the same results).
    pub period_s: f64,
    /// Minimum samples the paper's methodology requires per measurement.
    pub min_samples: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            period_s: 0.1,
            min_samples: 1000,
        }
    }
}

/// A background sampling session.
#[derive(Debug)]
pub struct BackgroundSampler {
    rx: Receiver<PowerSample>,
    handle: Option<std::thread::JoinHandle<()>>,
    config: SamplerConfig,
}

impl BackgroundSampler {
    /// Spawns the sampler thread over an SMI telemetry source.
    pub fn spawn(smi: Smi, config: SamplerConfig) -> Self {
        let (tx, rx) = mpsc::channel();
        let period = config.period_s;
        let handle = std::thread::spawn(move || {
            for sample in smi.sample_period(period) {
                if tx.send(sample).is_err() {
                    break;
                }
            }
        });
        BackgroundSampler {
            rx,
            handle: Some(handle),
            config,
        }
    }

    /// Waits for the sampler to finish and returns all samples.
    pub fn join(mut self) -> Vec<PowerSample> {
        let handle = self.handle.take().expect("join called once");
        handle.join().expect("sampler thread panicked");
        self.rx.try_iter().collect()
    }

    /// Waits, then summarizes; returns `Err` with the stats if fewer
    /// than `min_samples` samples were collected (the caller should run
    /// a longer kernel, as the paper's methodology prescribes).
    pub fn join_stats(self) -> Result<SampleStats, SampleStats> {
        let min = self.config.min_samples;
        let samples = self.join();
        let stats = sample_stats(&samples);
        if stats.count >= min {
            Ok(stats)
        } else {
            Err(stats)
        }
    }

    /// Waits, then registers the sampling statistics in a metrics
    /// registry under the `power.smi.` prefix, regardless of whether
    /// the minimum-sample threshold was met: the summary gauges
    /// (mean/min/max/stddev and p50/p95/p99) plus the full sample
    /// distribution as the `power.smi.watts` histogram family.
    /// Returns the stats.
    pub fn join_metrics(self, registry: &mut mc_trace::MetricsRegistry) -> SampleStats {
        let samples = self.join();
        let stats = sample_stats(&samples);
        stats.register_metrics(registry);
        mc_sim::register_sample_histogram(registry, "power.smi.watts", &samples);
        stats
    }
}

impl Drop for BackgroundSampler {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_sim::PowerProfile;

    fn profile(duration: f64, watts: f64) -> PowerProfile {
        PowerProfile {
            segments: vec![(0.0, duration, watts)],
        }
    }

    #[test]
    fn collects_over_a_thousand_samples_for_100s_kernel() {
        let smi = Smi::attach(profile(120.0, 400.0), 0.0, 1);
        let sampler = BackgroundSampler::spawn(smi, SamplerConfig::default());
        let stats = sampler.join_stats().expect("enough samples");
        assert!(stats.count >= 1000);
        assert!((stats.mean_w - 400.0).abs() < 1e-9);
    }

    #[test]
    fn short_kernel_fails_min_samples_check() {
        let smi = Smi::attach(profile(1.0, 300.0), 0.0, 2);
        let sampler = BackgroundSampler::spawn(smi, SamplerConfig::default());
        let err = sampler.join_stats().unwrap_err();
        assert!(err.count < 1000);
        assert!((err.mean_w - 300.0).abs() < 1e-9);
    }

    #[test]
    fn ten_ms_and_hundred_ms_periods_agree() {
        // The paper's §IV-C validation.
        let p = profile(60.0, 350.0);
        let fast = BackgroundSampler::spawn(
            Smi::attach(p.clone(), 0.015, 3),
            SamplerConfig {
                period_s: 0.01,
                min_samples: 100,
            },
        );
        let slow = BackgroundSampler::spawn(
            Smi::attach(p, 0.015, 3),
            SamplerConfig {
                period_s: 0.1,
                min_samples: 100,
            },
        );
        let f = fast.join_stats().unwrap();
        let s = slow.join_stats().unwrap();
        assert!(
            (f.mean_w - s.mean_w).abs() < 2.0,
            "{} vs {}",
            f.mean_w,
            s.mean_w
        );
    }

    #[test]
    fn join_metrics_registers_power_smi_stats() {
        let smi = Smi::attach(profile(120.0, 400.0), 0.0, 1);
        let sampler = BackgroundSampler::spawn(smi, SamplerConfig::default());
        let mut reg = mc_trace::MetricsRegistry::new();
        let stats = sampler.join_metrics(&mut reg);
        assert_eq!(reg.value("power.smi.mean_w"), Some(stats.mean_w));
        assert_eq!(reg.value("power.smi.samples"), Some(stats.count as f64));
        assert_eq!(reg.value("power.smi.p99_w"), Some(stats.p99_w));
        // The full distribution registers as a histogram family.
        let h = reg.histogram("power.smi.watts").expect("histogram");
        assert_eq!(h.count(), stats.count as u64);
    }

    #[test]
    fn samples_arrive_in_order() {
        let smi = Smi::attach(profile(5.0, 100.0), 0.0, 4);
        let sampler = BackgroundSampler::spawn(
            smi,
            SamplerConfig {
                period_s: 0.1,
                min_samples: 1,
            },
        );
        let samples = sampler.join();
        assert!(samples.windows(2).all(|w| w[0].t_s < w[1].t_s));
    }
}
