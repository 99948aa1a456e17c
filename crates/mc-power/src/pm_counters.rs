//! Cray `pm_counters` emulation — the paper's *second*, independent
//! power-measurement path (§IV-C): "we also validate our power
//! measurements … by comparing with the Cray power measurement counters
//! dedicated to monitoring accelerator power consumption, accessible
//! through the `/sys/cray/pm_counters` filesystem-based interface".
//!
//! Cray EX blades expose cumulative **energy** counters (joules) and
//! instantaneous power per accelerator. Emulating the energy-counter
//! semantics gives a genuinely independent estimator: mean power from
//! `ΔE/Δt` integrates the true profile, while the SMI path averages
//! noisy point samples — the two must agree, as the paper checked by
//! comparing [`PmCounters::mean_power_w`] with the SMI mean.

use mc_sim::PowerProfile;

/// One accelerator's `pm_counters` view over a power profile.
#[derive(Clone, Debug)]
pub struct PmCounters {
    profile: PowerProfile,
}

/// A parsed `pm_counters` file read: value and unit, like the kernel's
/// sysfs text files (`"1234 J"` / `"567 W"`).
#[derive(Clone, Debug, PartialEq)]
pub struct PmReading {
    /// Counter value.
    pub value: f64,
    /// Unit string (`"J"` or `"W"`).
    pub unit: &'static str,
}

impl PmCounters {
    /// Attaches to a launch's power profile (the blade-level telemetry).
    pub fn attach(profile: PowerProfile) -> Self {
        PmCounters { profile }
    }

    /// `accel_energy` at time `t`: cumulative joules since profile start
    /// (the integral of the true power curve — no sampling noise).
    fn accel_energy_j(&self, t_s: f64) -> f64 {
        let mut e = 0.0;
        for &(a, b, w) in &self.profile.segments {
            if t_s <= a {
                break;
            }
            e += (t_s.min(b) - a) * w;
        }
        e
    }

    /// `accel_power` at time `t`: instantaneous watts.
    fn accel_power_w(&self, t_s: f64) -> f64 {
        self.profile.power_at(t_s)
    }

    /// Reads a named counter file at time `t`, sysfs-style.
    pub fn read(&self, name: &str, t_s: f64) -> Option<PmReading> {
        match name {
            "accel0_energy" => Some(PmReading {
                value: self.accel_energy_j(t_s),
                unit: "J",
            }),
            "accel0_power" => Some(PmReading {
                value: self.accel_power_w(t_s),
                unit: "W",
            }),
            _ => None,
        }
    }

    /// Mean power over `[t0, t1]` from the energy counters (`ΔE/Δt`).
    pub fn mean_power_w(&self, t0: f64, t1: f64) -> f64 {
        assert!(t1 > t0, "non-empty interval");
        (self.accel_energy_j(t1) - self.accel_energy_j(t0)) / (t1 - t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{SamplerConfig, SmiSampler};
    use mc_sim::Smi;

    fn stepped_profile() -> PowerProfile {
        PowerProfile {
            segments: vec![(0.0, 10.0, 100.0), (10.0, 30.0, 400.0)],
        }
    }

    #[test]
    fn energy_integrates_the_profile() {
        let pm = PmCounters::attach(stepped_profile());
        assert_eq!(pm.accel_energy_j(0.0), 0.0);
        assert_eq!(pm.accel_energy_j(10.0), 1000.0);
        assert_eq!(pm.accel_energy_j(20.0), 1000.0 + 4000.0);
        assert_eq!(pm.accel_energy_j(30.0), 9000.0);
        // Past the end: clamped.
        assert_eq!(pm.accel_energy_j(99.0), 9000.0);
    }

    #[test]
    fn mean_power_from_energy_deltas() {
        let pm = PmCounters::attach(stepped_profile());
        assert_eq!(pm.mean_power_w(0.0, 10.0), 100.0);
        assert_eq!(pm.mean_power_w(10.0, 30.0), 400.0);
        assert_eq!(pm.mean_power_w(0.0, 30.0), 300.0);
    }

    #[test]
    fn sysfs_style_reads() {
        let pm = PmCounters::attach(stepped_profile());
        let e = pm.read("accel0_energy", 10.0).unwrap();
        assert_eq!(
            e,
            PmReading {
                value: 1000.0,
                unit: "J"
            }
        );
        let p = pm.read("accel0_power", 15.0).unwrap();
        assert_eq!(p.value, 400.0);
        assert!(pm.read("cpu_power", 1.0).is_none());
    }

    #[test]
    fn cross_validates_smi_sampling_like_the_paper() {
        // Long flat-ish profile, noisy SMI samples at 100 ms: the two
        // independent paths agree within the paper's ~2% variance bound.
        let profile = PowerProfile {
            segments: vec![(0.0, 120.0, 337.5)],
        };
        let smi = Smi::attach(profile.clone(), 0.015, 11);
        let stats = SmiSampler::record(smi, SamplerConfig::default())
            .stats()
            .expect("enough samples");
        let pm_mean = PmCounters::attach(profile).mean_power_w(0.0, 120.0);
        let rel = (stats.mean_w - pm_mean).abs() / pm_mean;
        assert!(rel < 0.02, "{rel}");
    }
}
