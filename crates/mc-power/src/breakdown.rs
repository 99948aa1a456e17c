//! Per-component energy breakdown of a launch.
//!
//! The paper's §VI analysis separates idle power (88 W), an active
//! baseline, and throughput-proportional dynamic power. This module
//! computes that decomposition *exactly* from the simulator's energy
//! accounting — which components dominate at which operating points,
//! and what fraction of energy goes to arithmetic vs DRAM vs standby —
//! the data behind statements like "double-precision approaches the
//! power cap while mixed precision leaves 200 W of headroom".

use mc_isa::specs::PackageSpec;
use mc_sim::{KernelExec, PackageResult};
use serde::{Deserialize, Serialize};

/// Energy attributed to each component, in joules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Package idle (leakage, HBM refresh, fabric) over the launch.
    pub idle_j: f64,
    /// Per-die active baseline while kernels are resident.
    pub baseline_j: f64,
    /// Matrix-unit arithmetic, by input type: (f64, f32, f16-class).
    pub mfma_j: (f64, f64, f64),
    /// Vector-ALU arithmetic.
    pub valu_j: f64,
    /// DRAM traffic.
    pub dram_j: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total_j(&self) -> f64 {
        self.idle_j
            + self.baseline_j
            + self.mfma_j.0
            + self.mfma_j.1
            + self.mfma_j.2
            + self.valu_j
            + self.dram_j
    }

    /// Fraction of energy spent on arithmetic (matrix + vector).
    fn arithmetic_fraction(&self) -> f64 {
        let arith = self.mfma_j.0 + self.mfma_j.1 + self.mfma_j.2 + self.valu_j;
        arith / self.total_j()
    }

    /// Fraction of energy that is standby (idle + baseline).
    fn standby_fraction(&self) -> f64 {
        (self.idle_j + self.baseline_j) / self.total_j()
    }

    /// Computes the breakdown of one kernel execution on a package.
    fn of_exec(spec: &PackageSpec, exec: &KernelExec, time_s: f64, dies_active: u32) -> Self {
        let e = &spec.energy_pj;
        let (f64f, f32f, f16f) = exec.mfma_flops_by_type;
        EnergyBreakdown {
            idle_j: spec.idle_power_w * time_s,
            baseline_j: spec.active_baseline_w_per_die * f64::from(dies_active) * time_s,
            mfma_j: (
                f64f as f64 * e.mfma_f64 * 1e-12,
                f32f as f64 * e.mfma_f32 * 1e-12,
                f16f as f64 * e.mfma_f16 * 1e-12,
            ),
            valu_j: exec.valu_flops as f64 * e.valu * 1e-12,
            dram_j: exec.hbm_bytes as f64 * e.hbm_per_byte * 1e-12,
        }
    }

    /// Registers the decomposition under `power.energy.*` in a metrics
    /// registry: each component in joules plus the arithmetic/standby
    /// fractions as ratios (see `docs/OBSERVABILITY.md`).
    pub fn register_metrics(&self, reg: &mut mc_trace::MetricsRegistry) {
        use mc_trace::Unit;
        reg.set("power.energy.idle_j", Unit::Joules, self.idle_j);
        reg.set("power.energy.baseline_j", Unit::Joules, self.baseline_j);
        reg.set("power.energy.mfma_f64_j", Unit::Joules, self.mfma_j.0);
        reg.set("power.energy.mfma_f32_j", Unit::Joules, self.mfma_j.1);
        reg.set("power.energy.mfma_f16_j", Unit::Joules, self.mfma_j.2);
        reg.set("power.energy.valu_j", Unit::Joules, self.valu_j);
        reg.set("power.energy.dram_j", Unit::Joules, self.dram_j);
        reg.set("power.energy.total_j", Unit::Joules, self.total_j());
        reg.set(
            "power.energy.arithmetic_fraction",
            Unit::Ratio,
            self.arithmetic_fraction(),
        );
        reg.set(
            "power.energy.standby_fraction",
            Unit::Ratio,
            self.standby_fraction(),
        );
    }

    /// Computes the breakdown of a whole package launch.
    pub fn of_result(spec: &PackageSpec, result: &PackageResult) -> Self {
        let mut out = EnergyBreakdown {
            idle_j: spec.idle_power_w * result.time_s,
            ..Default::default()
        };
        for k in &result.kernels {
            let b = Self::of_exec(spec, &k.exec, k.time_s, 1);
            out.baseline_j += b.baseline_j;
            out.mfma_j.0 += b.mfma_j.0;
            out.mfma_j.1 += b.mfma_j.1;
            out.mfma_j.2 += b.mfma_j.2;
            out.valu_j += b.valu_j;
            out.dram_j += b.dram_j;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_isa::{cdna2_catalog, KernelDesc, SlotOp, WaveProgram};
    use mc_sim::Gpu;
    use mc_types::DType;

    fn loop_result(waves: u64, iters: u64) -> (Gpu, PackageResult) {
        let mut gpu = Gpu::mi250x();
        let i = *cdna2_catalog()
            .find(DType::F64, DType::F64, 16, 16, 4)
            .unwrap();
        let k = KernelDesc {
            workgroups: waves,
            waves_per_workgroup: 1,
            ..KernelDesc::new("e", WaveProgram::looped(vec![SlotOp::Mfma(i)], iters))
        };
        let r = gpu.launch(0, &k).unwrap();
        (gpu, r)
    }

    #[test]
    fn breakdown_reconciles_with_package_energy() {
        let (gpu, r) = loop_result(440, 1_000_000);
        let b = EnergyBreakdown::of_result(gpu.spec(), &r);
        assert!(
            (b.total_j() - r.energy_j).abs() / r.energy_j < 1e-9,
            "{} vs {}",
            b.total_j(),
            r.energy_j
        );
    }

    #[test]
    fn saturated_fp64_is_arithmetic_dominated() {
        let (gpu, r) = loop_result(440, 1_000_000);
        let b = EnergyBreakdown::of_result(gpu.spec(), &r);
        assert!(b.arithmetic_fraction() > 0.6, "{}", b.arithmetic_fraction());
        assert!(b.mfma_j.0 > 0.0 && b.mfma_j.1 == 0.0 && b.mfma_j.2 == 0.0);
    }

    #[test]
    fn idle_dominates_low_occupancy() {
        let (gpu, r) = loop_result(4, 1_000_000);
        let b = EnergyBreakdown::of_result(gpu.spec(), &r);
        assert!(b.standby_fraction() > 0.8, "{}", b.standby_fraction());
    }

    #[test]
    fn register_metrics_exposes_components_and_fractions() {
        let (gpu, r) = loop_result(440, 100_000);
        let b = EnergyBreakdown::of_result(gpu.spec(), &r);
        let mut reg = mc_trace::MetricsRegistry::new();
        b.register_metrics(&mut reg);
        assert_eq!(reg.value("power.energy.total_j"), Some(b.total_j()));
        assert_eq!(reg.value("power.energy.idle_j"), Some(b.idle_j));
        assert_eq!(
            reg.get("power.energy.standby_fraction").unwrap().unit,
            mc_trace::Unit::Ratio
        );
        let sum: f64 = [
            "power.energy.idle_j",
            "power.energy.baseline_j",
            "power.energy.mfma_f64_j",
            "power.energy.mfma_f32_j",
            "power.energy.mfma_f16_j",
            "power.energy.valu_j",
            "power.energy.dram_j",
        ]
        .iter()
        .map(|n| reg.value(n).unwrap())
        .sum();
        assert!((sum - b.total_j()).abs() < 1e-12 * b.total_j().max(1.0));
    }

    #[test]
    fn dram_energy_appears_for_memory_kernels() {
        let mut gpu = Gpu::mi250x();
        let i = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        let mut k = KernelDesc {
            workgroups: 440,
            waves_per_workgroup: 1,
            ..KernelDesc::new("m", WaveProgram::looped(vec![SlotOp::Mfma(i)], 100))
        };
        k.mem_hints.hbm_bytes = 1 << 30;
        let r = gpu.launch(0, &k).unwrap();
        let b = EnergyBreakdown::of_result(gpu.spec(), &r);
        // 1 GiB at 18 pJ/B ≈ 19.3 mJ.
        assert!((b.dram_j - 0.0193).abs() < 0.001, "{}", b.dram_j);
    }
}
