//! rocprof-style profiling of the simulated device (paper §IV-B).
//!
//! The paper cannot observe rocBLAS's internal strategy directly, so it
//! derives Matrix Core utilization from hardware counters: non-zero
//! `SQ_INSTS_VALU_MFMA_MOPS_F*` indicates Matrix Core use, and Eq. 1
//! ([`crate::flops`]) turns the counter bank into exact FLOP counts
//! split by execution unit. This module reproduces that workflow:
//!
//! * [`ProfilerSession`] / [`CounterReport`] — counter capture around
//!   launches (`rocprof`'s per-kernel counter deltas);
//! * [`FlopBreakdown`] / [`matrix_core_ratio`] / [`uses_matrix_cores`]
//!   — the derived metrics: per-datatype FLOPs, the Matrix-Core ratio
//!   of Fig. 8, and the Fig. 9 split.

use mc_sim::{Gpu, HwCounters, LaunchError};
use mc_types::DType;
use serde::{Deserialize, Serialize};

use crate::flops::{derived_flops_for, derived_total_flops};

/// A profiling session: captures counter deltas on one die between
/// `begin` and `end`, like `rocprof` wrapping a kernel launch.
#[derive(Debug)]
pub struct ProfilerSession {
    die: usize,
    baseline: HwCounters,
}

impl ProfilerSession {
    /// Starts a session on one die, snapshotting current counters.
    pub fn begin(gpu: &Gpu, die: usize) -> Result<Self, LaunchError> {
        Ok(ProfilerSession {
            die,
            baseline: gpu.counters(die)?,
        })
    }

    /// Ends the session, returning the counter delta since `begin`.
    pub fn end(self, gpu: &Gpu) -> Result<HwCounters, LaunchError> {
        Ok(gpu.counters(self.die)?.delta_from(&self.baseline))
    }
}

/// A named-counter report, the `rocprof` CSV-row equivalent.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CounterReport {
    /// `(counter name, value)` pairs in canonical order.
    pub rows: Vec<(String, u64)>,
}

impl CounterReport {
    /// Builds a report with every published counter.
    pub fn from_counters(counters: &HwCounters) -> Self {
        let rows = counters
            .iter()
            .map(|(name, value)| (name.to_owned(), value))
            .collect();
        CounterReport { rows }
    }

    /// Value of one counter in the report.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Renders the report as aligned text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let width = self.rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.rows {
            let _ = writeln!(out, "{name:<width$}  {value}");
        }
        out
    }
}

/// FLOPs split by execution unit and datatype — the measurement behind
/// Fig. 8 and Fig. 9.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlopBreakdown {
    /// Matrix Core FLOPs by input type: (f64, f32, f16-class).
    pub matrix_core: (u64, u64, u64),
    /// SIMD FLOPs by type: (f64, f32, f16).
    pub simd: (u64, u64, u64),
}

impl FlopBreakdown {
    /// Derives the breakdown from a counter bank via Eq. 1.
    pub fn from_counters(c: &HwCounters) -> Self {
        let f64d = derived_flops_for(c, DType::F64);
        let f32d = derived_flops_for(c, DType::F32);
        let f16d = derived_flops_for(c, DType::F16);
        let bf = derived_flops_for(c, DType::Bf16);
        FlopBreakdown {
            matrix_core: (
                f64d.matrix_core,
                f32d.matrix_core,
                f16d.matrix_core + bf.matrix_core,
            ),
            simd: (f64d.simd, f32d.simd, f16d.simd),
        }
    }

    /// Total Matrix Core FLOPs.
    pub fn total_matrix_core(&self) -> u64 {
        self.matrix_core.0 + self.matrix_core.1 + self.matrix_core.2
    }

    /// Total SIMD FLOPs.
    pub fn total_simd(&self) -> u64 {
        self.simd.0 + self.simd.1 + self.simd.2
    }
}

/// The Fig. 8 metric: fraction of floating-point operations delivered by
/// Matrix Cores.
pub fn matrix_core_ratio(c: &HwCounters) -> f64 {
    derived_total_flops(c).matrix_core_ratio()
}

/// The paper's Matrix-Core-use test: "non-zero values returned from
/// counters related to Matrix Cores would indicate that Matrix Cores are
/// used in a rocBLAS-based application" (§IV-B).
pub fn uses_matrix_cores(c: &HwCounters) -> bool {
    c.mfma_mops_f64 + c.mfma_mops_f32 + c.mfma_mops_f16 + c.mfma_mops_bf16 + c.mfma_mops_i8 > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_isa::{cdna2_catalog, KernelDesc, SlotOp, WaveProgram};
    use mc_sim::COUNTER_NAMES;

    fn mixed_kernel(iters: u64) -> KernelDesc {
        let i = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        KernelDesc {
            workgroups: 8,
            waves_per_workgroup: 1,
            ..KernelDesc::new("k", WaveProgram::looped(vec![SlotOp::Mfma(i)], iters))
        }
    }

    #[test]
    fn session_captures_only_the_wrapped_launch() {
        let mut gpu = Gpu::mi250x();
        gpu.launch(0, &mixed_kernel(50)).unwrap(); // pre-existing activity

        let session = ProfilerSession::begin(&gpu, 0).unwrap();
        gpu.launch(0, &mixed_kernel(100)).unwrap();
        let delta = session.end(&gpu).unwrap();
        assert_eq!(delta.mfma_mops_f16, 8 * 100 * 8192 / 512);
        assert_eq!(delta.waves_launched, 8);
    }

    #[test]
    fn sessions_are_per_die() {
        let mut gpu = Gpu::mi250x();
        let session = ProfilerSession::begin(&gpu, 1).unwrap();
        gpu.launch(0, &mixed_kernel(100)).unwrap(); // other die
        let delta = session.end(&gpu).unwrap();
        assert_eq!(delta, HwCounters::default());
    }

    #[test]
    fn report_contains_all_published_counters() {
        let mut gpu = Gpu::mi250x();
        gpu.launch(0, &mixed_kernel(4)).unwrap();
        let report = CounterReport::from_counters(&gpu.counters(0).unwrap());
        assert_eq!(report.rows.len(), COUNTER_NAMES.len());
        assert!(report.get("SQ_INSTS_VALU_MFMA_MOPS_F16").unwrap() > 0);
        assert_eq!(report.get("SQ_INSTS_VALU_MFMA_MOPS_F64"), Some(0));
        assert!(report.get("NOPE").is_none());
        let text = report.render();
        assert!(text.contains("SQ_WAVES"));
    }

    #[test]
    fn invalid_die_errors() {
        let gpu = Gpu::mi250x();
        assert!(ProfilerSession::begin(&gpu, 9).is_err());
    }

    #[test]
    fn ratio_and_breakdown_consistent() {
        let c = HwCounters {
            mfma_mops_f32: 1000, // 512000 MC FLOPs
            valu_mul_f32: 100,   // 6400
            valu_fma_f32: 100,   // 12800
            ..HwCounters::default()
        };
        let b = FlopBreakdown::from_counters(&c);
        assert_eq!(b.total_matrix_core(), 512_000);
        assert_eq!(b.total_simd(), 19_200);
        let r = matrix_core_ratio(&c);
        assert!((r - 512_000.0 / 531_200.0).abs() < 1e-12);
        assert!(uses_matrix_cores(&c));
    }

    #[test]
    fn simd_only_kernel_has_zero_ratio() {
        let c = HwCounters {
            valu_fma_f16: 5000,
            ..HwCounters::default()
        };
        assert_eq!(matrix_core_ratio(&c), 0.0);
        assert!(!uses_matrix_cores(&c));
    }

    #[test]
    fn bf16_counts_as_f16_class() {
        let c = HwCounters {
            mfma_mops_bf16: 10,
            ..HwCounters::default()
        };
        let b = FlopBreakdown::from_counters(&c);
        assert_eq!(b.matrix_core.2, 5120);
        assert!(uses_matrix_cores(&c));
    }
}
