//! Eq. 2: the peak-throughput model of Matrix Core utilization.
//!
//! `FLOPS(N_WF) = (2·m·n·k / c) · min(N_WF, N_MC) · f`, where `c` is the
//! instruction latency, `f` the clock, and `N_MC = 440` the number of
//! Matrix Cores in one GCD — "no more than 440 wavefronts can execute
//! Matrix Core instructions at one time" (§V-B).

use mc_isa::specs::DieSpec;
use mc_isa::MatrixInstruction;
use serde::{Deserialize, Serialize};

/// The Eq. 2 throughput model for one instruction on one die.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThroughputModel {
    /// FLOPs per instruction (`2mnk·blocks`).
    pub flops_per_instr: u64,
    /// Instruction latency `c` in cycles.
    pub latency_cycles: u32,
    /// Clock `f` in Hz.
    pub clock_hz: f64,
    /// Saturation threshold: matrix units on the die.
    pub matrix_units: u32,
}

impl ThroughputModel {
    /// Builds the model from an instruction and a die specification.
    pub fn new(instr: &MatrixInstruction, die: &DieSpec) -> Self {
        ThroughputModel {
            flops_per_instr: instr.flops(),
            latency_cycles: instr.latency_cycles,
            clock_hz: die.clock_hz(),
            matrix_units: die.total_matrix_units(),
        }
    }

    /// Predicted FLOPS at `n_wavefronts` (Eq. 2).
    pub fn flops(&self, n_wavefronts: u64) -> f64 {
        let active = n_wavefronts.min(u64::from(self.matrix_units)) as f64;
        self.flops_per_instr as f64 / f64::from(self.latency_cycles) * active * self.clock_hz
    }

    /// Predicted TFLOPS at `n_wavefronts`.
    pub fn tflops(&self, n_wavefronts: u64) -> f64 {
        self.flops(n_wavefronts) / 1e12
    }

    /// The model's theoretical peak (saturated) throughput in FLOPS.
    pub fn peak_flops(&self) -> f64 {
        self.flops(u64::from(self.matrix_units))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_isa::cdna2_catalog;
    use mc_types::DType;

    fn model(cd: DType, ab: DType, m: u32, n: u32, k: u32) -> ThroughputModel {
        let die = mc_isa::specs::mi250x().die;
        let i = cdna2_catalog().find(cd, ab, m, n, k).unwrap();
        ThroughputModel::new(i, &die)
    }

    #[test]
    fn linear_then_flat() {
        let m = model(DType::F32, DType::F16, 16, 16, 16);
        assert_eq!(m.flops(200), 2.0 * m.flops(100));
        assert_eq!(m.flops(440), m.flops(880), "saturated at 440");
    }

    #[test]
    fn mixed_peak_is_191_tflops_per_gcd() {
        let m = model(DType::F32, DType::F16, 16, 16, 16);
        // 8192/32 · 440 · 1.7e9 = 191.6 TFLOPS.
        assert!((m.peak_flops() / 1e12 - 191.6).abs() < 0.5);
    }

    #[test]
    fn fp64_peak_is_47_9_tflops_per_gcd() {
        let m = model(DType::F64, DType::F64, 16, 16, 4);
        assert!((m.peak_flops() / 1e12 - 47.9).abs() < 0.2);
    }

    #[test]
    fn single_wavefront_value() {
        // One wave of mixed MFMAs: 8192/32 · 1.7e9 = 435 GFLOPS.
        let m = model(DType::F32, DType::F16, 16, 16, 16);
        assert!((m.flops(1) / 1e9 - 435.2).abs() < 1.0);
    }
}
