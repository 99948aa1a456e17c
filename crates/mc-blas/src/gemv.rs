//! GEMV: matrix-vector multiply, `y ← α·A·x + β·y` — the BLAS-2
//! counter-example to the paper's story.
//!
//! Matrix *Cores* need matrix×matrix structure; a matrix-vector product
//! has arithmetic intensity of ~2 FLOPs per matrix element read (far
//! left of every ridge point in the roofline), so rocBLAS runs GEMV on
//! the SIMD units and no datatype choice changes the outcome: the
//! kernel is DRAM-bandwidth bound. Having this routine in the library
//! makes the boundary of the paper's claims concrete — "more than 92 %
//! of peak" is a GEMM statement, not a BLAS statement.

use mc_isa::{KernelDesc, MemHints, SlotOp, ValuOp, ValuOpKind, WaveProgram};
use mc_types::Real;

use crate::handle::BlasHandle;
use crate::types::{BlasError, GemmOp};
use mc_sim::PackageResult;

/// A GEMV problem: `y (m) ← α · A (m×n) · x (n) + β · y`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GemvDesc {
    /// Element datatypes (reusing the GEMM op descriptors).
    pub op: GemmOp,
    /// Rows of A.
    pub m: usize,
    /// Columns of A.
    pub n: usize,
    /// Scalar on `A·x`.
    pub alpha: f64,
    /// Scalar on `y`.
    pub beta: f64,
}

impl GemvDesc {
    /// Useful FLOPs: `2mn` MACs plus `3m` scaling.
    pub fn useful_flops(&self) -> u64 {
        2 * (self.m as u64) * (self.n as u64) + 3 * self.m as u64
    }
}

/// Performance of a GEMV launch.
#[derive(Clone, Debug)]
pub struct GemvPerf {
    /// Achieved TFLOPS.
    pub tflops: f64,
    /// Kernel time in seconds.
    pub time_s: f64,
    /// Effective bandwidth consumed, GB/s.
    pub bandwidth_gbs: f64,
    /// Full launch result.
    pub package: PackageResult,
}

/// Functional GEMV in the routine's compute type.
pub fn gemv_functional<T: Real, CT: Real>(
    desc: &GemvDesc,
    a: &[T],
    x: &[T],
    y: &mut [T],
) -> Result<(), BlasError> {
    let (m, n) = (desc.m, desc.n);
    let checks = [("A", m * n, a.len()), ("x", n, x.len()), ("y", m, y.len())];
    for (operand, required, provided) in checks {
        if provided < required {
            return Err(BlasError::BufferTooSmall {
                operand,
                required,
                provided,
            });
        }
    }
    // A GEMV is an m×1×n GEMM with x as the single column of B and y as
    // both C and D; the per-row ascending-j chain and the
    // compute-rounded epilogue match the shared backends' semantics
    // exactly, so this routes through the shared dispatch: a packed
    // tier, one chunk on the caller up to 32³ multiply-adds and split
    // into row panels above.
    let params = mc_compute::GemmParams::new(m, 1, n)
        .with_scaling(desc.alpha, desc.beta)
        .with_epilogue(mc_compute::Epilogue::ComputeRounded);
    let backend = crate::select::host_gemm_backend();
    mc_compute::MatMul::gemm_in_place::<T, T, CT>(&backend, &params, a, x, y)
        .map_err(BlasError::from)
}

/// Builds the streaming GEMV kernel: each wavefront owns 64 rows and
/// streams A once from DRAM; the whole of `x` is L2-resident.
pub fn plan_gemv(desc: &GemvDesc) -> KernelDesc {
    let elem = desc.op.type_ab().size_bytes();
    let compute = desc.op.compute_type();
    let waves = desc.m.div_ceil(64) as u64;
    // Per k-iteration each lane processes 16 elements of its row.
    let chunk = 16usize;
    let iters = desc.n.div_ceil(chunk) as u64;
    let body = [
        SlotOp::global_load((chunk * elem) as u32),
        // The FMA consumes the chunk just loaded; retire it first.
        SlotOp::Waitcnt(mc_isa::WaitSpec::vm(0)),
        SlotOp::Valu(ValuOp::new(ValuOpKind::Fma, compute)),
        SlotOp::Scalar,
    ];
    let program = WaveProgram {
        prologue: [SlotOp::Scalar].into(),
        body: body.into(),
        body_iterations: iters,
        epilogue: [
            SlotOp::Valu(ValuOp::new(ValuOpKind::Mul, compute)),
            SlotOp::Valu(ValuOp::new(ValuOpKind::Fma, compute)),
            SlotOp::global_store(desc.op.type_cd().size_bytes() as u32),
        ]
        .into(),
    };
    KernelDesc {
        workgroups: waves.div_ceil(4),
        waves_per_workgroup: 4,
        mem_hints: MemHints {
            // A is read exactly once; x/y are noise next to it.
            hbm_bytes: (desc.m * desc.n * elem) as u64,
            working_set_bytes: (desc.m * desc.n * elem) as u64,
            ..MemHints::default()
        },
        ..KernelDesc::new(format!("gemv_{}", desc.op), program)
    }
}

impl BlasHandle {
    /// Simulates a GEMV launch and reports throughput and bandwidth.
    pub fn gemv_timed(&mut self, desc: &GemvDesc) -> Result<GemvPerf, BlasError> {
        let kernel = plan_gemv(desc);
        let die = self.die();
        let package = self
            .gpu_mut()
            .launch(die, &kernel)
            .map_err(|e| BlasError::Launch(e.to_string()))?;
        let time_s = package.time_s;
        Ok(GemvPerf {
            tflops: desc.useful_flops() as f64 / time_s / 1e12,
            time_s,
            bandwidth_gbs: kernel.mem_hints.hbm_bytes as f64 / time_s / 1e9,
            package,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_gemv_matches_reference() {
        let desc = GemvDesc {
            op: GemmOp::Sgemm,
            m: 37,
            n: 53,
            alpha: 0.5,
            beta: 2.0,
        };
        let a: Vec<f32> = (0..37 * 53).map(|i| ((i % 9) as f32) - 4.0).collect();
        let x: Vec<f32> = (0..53).map(|i| ((i % 5) as f32) - 2.0).collect();
        let mut y: Vec<f32> = (0..37).map(|i| i as f32).collect();
        let y0 = y.clone();
        gemv_functional::<f32, f32>(&desc, &a, &x, &mut y).unwrap();
        for i in 0..37 {
            let mut acc = 0.0f64;
            for j in 0..53 {
                acc += f64::from(a[i * 53 + j]) * f64::from(x[j]);
            }
            let expect = 0.5 * acc + 2.0 * f64::from(y0[i]);
            assert_eq!(f64::from(y[i]), expect, "row {i}");
        }
    }

    #[test]
    fn gemv_is_bandwidth_bound_and_never_touches_matrix_cores() {
        let mut h = BlasHandle::new_mi250x_gcd();
        let desc = GemvDesc {
            op: GemmOp::Sgemm,
            m: 16384,
            n: 16384,
            alpha: 1.0,
            beta: 0.0,
        };
        let perf = h.gemv_timed(&desc).unwrap();
        // 0.5 FLOP/B against a 1.4 TB/s stream: well under a TFLOP.
        assert!(perf.tflops < 1.0, "{}", perf.tflops);
        // Consuming most of the effective DRAM bandwidth...
        assert!(perf.bandwidth_gbs > 1000.0, "{}", perf.bandwidth_gbs);
        // ...with zero Matrix Core activity.
        assert_eq!(perf.package.kernels[0].counters.mfma_mops_f32, 0);
        assert!(perf.package.kernels[0].exec.compute_bound_fraction < 0.3);
    }

    #[test]
    fn datatype_choice_barely_matters_for_blas2() {
        // The paper's 4x/8x precision levers are GEMM-only: for GEMV the
        // f16 variant is at most ~2x (bytes), never the compute ratio.
        let mut h = BlasHandle::new_mi250x_gcd();
        let s = h
            .gemv_timed(&GemvDesc {
                op: GemmOp::Sgemm,
                m: 16384,
                n: 16384,
                alpha: 1.0,
                beta: 0.0,
            })
            .unwrap();
        let hslf = h
            .gemv_timed(&GemvDesc {
                op: GemmOp::Hss,
                m: 16384,
                n: 16384,
                alpha: 1.0,
                beta: 0.0,
            })
            .unwrap();
        let ratio = hslf.tflops / s.tflops;
        assert!(ratio < 2.5, "{ratio}");
        assert!(ratio > 1.2, "{ratio}");
    }

    #[test]
    fn buffer_checks() {
        let desc = GemvDesc {
            op: GemmOp::Sgemm,
            m: 8,
            n: 8,
            alpha: 1.0,
            beta: 0.0,
        };
        let a = vec![0.0f32; 64];
        let x = vec![0.0f32; 4];
        let mut y = vec![0.0f32; 8];
        assert!(matches!(
            gemv_functional::<f32, f32>(&desc, &a, &x, &mut y),
            Err(BlasError::BufferTooSmall { operand: "x", .. })
        ));
    }
}
