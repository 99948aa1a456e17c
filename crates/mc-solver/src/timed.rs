//! Timed factorizations: replay a blocked factorization's launch
//! schedule on the simulated GCD and measure where the FLOPs land.
//!
//! This is the experiment the paper gestures at in §III: a LAPACK-level
//! library "delegates a significant amount of computation to the BLAS
//! implementation, which naturally leads to opportunistic leveraging of
//! Matrix Cores". Concretely: the trailing-matrix updates are rocBLAS
//! GEMMs (Matrix Cores), while panel factorization and triangular
//! solves are latency-bound scalar/SIMD kernels — so the Matrix Core
//! share grows with `n/nb` exactly like the GEMM share of the
//! factorization's FLOPs.

use mc_blas::{plan_syrk_with, BlasError, BlasHandle, GemmDesc, GemmOp, SyrkDesc};
use mc_isa::{KernelDesc, SlotOp, ValuOp, ValuOpKind, WaveProgram};
use mc_model::profiler::{matrix_core_ratio, ProfilerSession};
use mc_sim::HwCounters;
use mc_types::DType;

use crate::SolverError;

/// Which factorization to replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Factorization {
    /// Cholesky (`n³/3` useful FLOPs).
    Potrf,
    /// LU with partial pivoting (`2n³/3` useful FLOPs).
    Getrf,
}

impl Factorization {
    /// Useful floating-point work for an `n×n` factorization.
    pub fn useful_flops(self, n: u64) -> u64 {
        match self {
            Factorization::Potrf => n * n * n / 3,
            Factorization::Getrf => 2 * n * n * n / 3,
        }
    }
}

/// Performance report for one timed factorization.
#[derive(Clone, Debug)]
pub struct SolverPerf {
    /// Factorization kind.
    pub kind: Factorization,
    /// Problem size.
    pub n: usize,
    /// Block size.
    pub block: usize,
    /// Total simulated time in seconds.
    pub time_s: f64,
    /// Useful-FLOP throughput in TFLOPS.
    pub tflops: f64,
    /// Fraction of FLOPs delivered by Matrix Cores (Eq. 1 over the
    /// whole factorization's counter deltas).
    pub matrix_core_ratio: f64,
    /// Number of GEMM (trailing-update) launches.
    pub gemm_launches: usize,
    /// Counter deltas across the factorization.
    pub counters: HwCounters,
}

/// Builds the latency-bound panel kernel: `flops` FP64 FLOPs on SIMD
/// units with limited parallelism (one workgroup per panel column
/// block), which is what makes small `nb` panel-bound.
fn panel_kernel(flops: u64, rows: u64) -> KernelDesc {
    // One wave per 64 panel rows; each wave executes its share of FMAs.
    let waves = rows.div_ceil(64).max(1);
    let fma_per_wave = (flops / (waves * 128)).max(1);
    let program = WaveProgram::looped(
        vec![
            SlotOp::Valu(ValuOp::new(ValuOpKind::Fma, DType::F64)),
            SlotOp::Valu(ValuOp::new(ValuOpKind::Move, DType::F64)),
            SlotOp::Scalar,
        ],
        fma_per_wave,
    );
    KernelDesc {
        workgroups: waves,
        waves_per_workgroup: 1,
        ..KernelDesc::new("panel_factor", program)
    }
}

/// Replays a blocked factorization schedule on the handle's GCD.
pub fn factor_timed(
    handle: &mut BlasHandle,
    kind: Factorization,
    n: usize,
    block: usize,
) -> Result<SolverPerf, SolverError> {
    if n == 0 || block == 0 {
        return Err(SolverError::ShapeMismatch {
            what: format!("n={n}, block={block}"),
        });
    }
    let session = ProfilerSession::begin(handle.gpu(), handle.die())
        .map_err(|e| SolverError::Blas(e.to_string()))?;

    let mut time_s = 0.0;
    let mut gemm_launches = 0usize;
    let mut k = 0usize;
    while k < n {
        let b = block.min(n - k);
        let rest = n - k - b;

        // Panel factorization (+ TRSM): ~ b²·(rows)/2 scalar FLOPs for
        // Cholesky panels, twice that for LU panels with pivoting.
        let rows = (n - k) as u64;
        let panel_flops = match kind {
            Factorization::Potrf => (b as u64) * (b as u64) * rows / 2,
            Factorization::Getrf => (b as u64) * (b as u64) * rows,
        };
        let pk = panel_kernel(panel_flops.max(128), rows);
        let pr = handle
            .gpu_mut()
            .launch(0, &pk)
            .map_err(|e| SolverError::Blas(e.to_string()))?;
        time_s += pr.time_s;

        // Trailing update: SYRK for Cholesky (lower triangle only, as
        // rocSOLVER does), full GEMM for LU.
        if rest > 0 {
            match kind {
                Factorization::Potrf => {
                    let desc = SyrkDesc {
                        op: GemmOp::Dgemm,
                        n: rest,
                        k: b,
                        alpha: -1.0,
                        beta: 1.0,
                    };
                    let plan =
                        plan_syrk_with(handle.verify_memo(), &handle.gpu().spec().die, &desc)
                            .map_err(|e: BlasError| SolverError::Blas(e.to_string()))?;
                    let die = handle.die();
                    let r = handle
                        .gpu_mut()
                        .launch(die, &plan.kernel)
                        .map_err(|e| SolverError::Blas(e.to_string()))?;
                    time_s += r.time_s;
                }
                Factorization::Getrf => {
                    let desc = GemmDesc::new(GemmOp::Dgemm, rest, rest, b, -1.0, 1.0);
                    let perf = handle
                        .gemm_timed(&desc)
                        .map_err(|e: BlasError| SolverError::Blas(e.to_string()))?;
                    time_s += perf.time_s;
                }
            }
            gemm_launches += 1;
        }
        k += b;
    }

    let counters = session
        .end(handle.gpu())
        .map_err(|e| SolverError::Blas(e.to_string()))?;
    let useful = kind.useful_flops(n as u64);
    Ok(SolverPerf {
        kind,
        n,
        block,
        time_s,
        tflops: useful as f64 / time_s / 1e12,
        matrix_core_ratio: matrix_core_ratio(&counters),
        gemm_launches,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_core_share_grows_with_problem_size() {
        let mut handle = BlasHandle::new_mi250x_gcd();
        let r512 = factor_timed(&mut handle, Factorization::Potrf, 512, 64).unwrap();
        let r4096 = factor_timed(&mut handle, Factorization::Potrf, 4096, 64).unwrap();
        assert!(r4096.matrix_core_ratio > r512.matrix_core_ratio);
        assert!(
            r4096.matrix_core_ratio > 0.95,
            "large POTRF is GEMM-dominated: {}",
            r4096.matrix_core_ratio
        );
    }

    #[test]
    fn lu_and_cholesky_flop_models() {
        assert_eq!(Factorization::Potrf.useful_flops(300), 9_000_000);
        assert_eq!(Factorization::Getrf.useful_flops(300), 18_000_000);
    }

    #[test]
    fn throughput_approaches_dgemm_for_large_n() {
        let mut handle = BlasHandle::new_mi250x_gcd();
        let r = factor_timed(&mut handle, Factorization::Getrf, 8192, 128).unwrap();
        // LU at 8192 should reach a healthy fraction of the DGEMM
        // throughput at comparable sizes (trailing updates dominate).
        assert!(r.tflops > 8.0, "{}", r.tflops);
        assert!(r.gemm_launches == 8192 / 128 - 1 + 1 || r.gemm_launches == 8192 / 128 - 1);
    }

    #[test]
    fn small_blocks_are_panel_bound() {
        let mut handle = BlasHandle::new_mi250x_gcd();
        let small = factor_timed(&mut handle, Factorization::Potrf, 2048, 16).unwrap();
        let big = factor_timed(&mut handle, Factorization::Potrf, 2048, 128).unwrap();
        assert!(
            big.tflops > small.tflops,
            "{} vs {}",
            big.tflops,
            small.tflops
        );
    }

    #[test]
    fn zero_sizes_rejected() {
        let mut handle = BlasHandle::new_mi250x_gcd();
        assert!(factor_timed(&mut handle, Factorization::Potrf, 0, 64).is_err());
        assert!(factor_timed(&mut handle, Factorization::Getrf, 64, 0).is_err());
    }
}
