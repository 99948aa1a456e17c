//! SYRK: symmetric rank-k update, `C ← α·A·Aᵀ + β·C` (lower triangle).
//!
//! The BLAS-3 routine behind Cholesky trailing updates (rocSOLVER uses
//! `rocblas_dsyrk`, not a full GEMM): symmetry means only the lower
//! triangle is computed — `n·(n+1)·k` FLOPs instead of GEMM's `2·n²·k`,
//! and on the device only the diagonal-and-below macro-tiles are
//! launched, nearly halving both work and DRAM traffic for the same
//! update.

use mc_isa::specs::DieSpec;
use mc_isa::KernelDesc;
use mc_lint::VerifyMemo;
use mc_types::Real;

use crate::planner::{plan_gemm_with, GemmPlan, Strategy};
use crate::types::{BlasError, GemmDesc, GemmOp, Transpose};

/// A symmetric rank-k update descriptor (lower triangle).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SyrkDesc {
    /// Operation datatypes (SGEMM/DGEMM variants make sense here).
    pub op: GemmOp,
    /// Order of C (`n×n`).
    pub n: usize,
    /// Rank of the update (columns of A).
    pub k: usize,
    /// Multiplier on `A·Aᵀ`.
    pub alpha: f64,
    /// Multiplier on `C`.
    pub beta: f64,
}

impl SyrkDesc {
    /// Useful FLOPs: `n(n+1)k` MACs on the lower triangle, plus the
    /// `3·n(n+1)/2` scaling term.
    pub fn useful_flops(&self) -> u64 {
        let (n, k) = (self.n as u64, self.k as u64);
        n * (n + 1) * k + 3 * n * (n + 1) / 2
    }

    /// The equivalent full-GEMM descriptor (`A · Aᵀ`).
    pub fn as_gemm(&self) -> GemmDesc {
        GemmDesc {
            trans_b: Transpose::Trans,
            ..GemmDesc::new(self.op, self.n, self.n, self.k, self.alpha, self.beta)
        }
    }
}

/// A planned SYRK: the full-GEMM plan with the launch grid and traffic
/// cut to the lower-triangle macro-tiles.
#[derive(Clone, Debug, PartialEq)]
pub struct SyrkPlan {
    /// The descriptor.
    pub desc: SyrkDesc,
    /// Kernel covering only diagonal-and-below tiles.
    pub kernel: KernelDesc,
    /// Matrix-unit FLOPs issued (includes tile padding and the full
    /// diagonal tiles, whose upper halves are computed then discarded).
    pub mfma_flops: u64,
    /// The underlying (full) GEMM plan for reference.
    pub gemm_plan: GemmPlan,
}

/// Plans a lower-triangle SYRK on one die.
pub fn plan_syrk(die: &DieSpec, desc: &SyrkDesc) -> Result<SyrkPlan, BlasError> {
    plan_syrk_with(&VerifyMemo::new(), die, desc)
}

/// [`plan_syrk`] with the underlying GEMM plan verified through `memo`.
pub fn plan_syrk_with(
    memo: &VerifyMemo,
    die: &DieSpec,
    desc: &SyrkDesc,
) -> Result<SyrkPlan, BlasError> {
    let gemm_desc = desc.as_gemm();
    let gemm_plan = plan_gemm_with(memo, die, &gemm_desc)?;

    let (tiles, total_tiles) = match gemm_plan.strategy {
        Strategy::MatrixCore { macro_tile, .. } => {
            let tm = desc.n.div_ceil(macro_tile.0) as u64;
            let tn = desc.n.div_ceil(macro_tile.1) as u64;
            // Lower-triangle tile count on the (square) grid.
            let t = tm.min(tn);
            (t * (t + 1) / 2 + t * (tm.max(tn) - t), tm * tn)
        }
        Strategy::SimdOnly { .. } => {
            let t = gemm_plan.kernel.workgroups;
            (t, t)
        }
    };

    let scale = tiles as f64 / total_tiles as f64;
    let kernel = KernelDesc {
        workgroups: tiles,
        name: format!("syrk_{}", desc.op),
        mem_hints: mc_isa::MemHints {
            hbm_bytes: (gemm_plan.kernel.mem_hints.hbm_bytes as f64 * scale) as u64,
            ..gemm_plan.kernel.mem_hints
        },
        ..gemm_plan.kernel.clone()
    };
    let mfma_flops = (gemm_plan.mfma_flops as f64 * scale) as u64;

    Ok(SyrkPlan {
        desc: *desc,
        kernel,
        mfma_flops,
        gemm_plan,
    })
}

/// Functional lower-triangle SYRK on host data: writes only `i ≥ j`
/// entries of `c` (row-major `n×n`); `a` is row-major `n×k`.
pub fn syrk_functional<T: Real, CT: Real>(
    desc: &SyrkDesc,
    a: &[T],
    c: &mut [T],
) -> Result<(), BlasError> {
    let (n, k) = (desc.n, desc.k);
    if a.len() < n * k {
        return Err(BlasError::BufferTooSmall {
            operand: "A",
            required: n * k,
            provided: a.len(),
        });
    }
    if c.len() < n * n {
        return Err(BlasError::BufferTooSmall {
            operand: "C",
            required: n * n,
            provided: c.len(),
        });
    }
    for i in 0..n {
        for j in 0..=i {
            let mut acc = CT::zero();
            for p in 0..k {
                let prod = CT::from_f64(a[i * k + p].to_f64() * a[j * k + p].to_f64());
                acc = CT::from_f64(acc.to_f64() + prod.to_f64());
            }
            let ab = CT::from_f64(desc.alpha * acc.to_f64());
            let bc = CT::from_f64(desc.beta * c[i * n + j].to_f64());
            c[i * n + j] = T::from_f64(CT::from_f64(ab.to_f64() + bc.to_f64()).to_f64());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die() -> DieSpec {
        mc_isa::specs::mi250x().die
    }

    #[test]
    fn functional_matches_gemm_on_lower_triangle() {
        let desc = SyrkDesc {
            op: GemmOp::Dgemm,
            n: 48,
            k: 24,
            alpha: -1.0,
            beta: 1.0,
        };
        let a: Vec<f64> = (0..48 * 24)
            .map(|i| ((i * 13 % 17) as f64) / 17.0 - 0.5)
            .collect();
        let c0: Vec<f64> = (0..48 * 48).map(|i| (i % 5) as f64).collect();

        let mut c_syrk = c0.clone();
        syrk_functional::<f64, f64>(&desc, &a, &mut c_syrk).unwrap();

        let mut c_gemm = vec![0.0f64; 48 * 48];
        crate::functional::gemm_reference_f64(&desc.as_gemm(), &a, &a, &c0, &mut c_gemm).unwrap();
        for i in 0..48 {
            for j in 0..48 {
                if j <= i {
                    assert!(
                        (c_syrk[i * 48 + j] - c_gemm[i * 48 + j]).abs() < 1e-12,
                        "({i},{j})"
                    );
                } else {
                    assert_eq!(
                        c_syrk[i * 48 + j],
                        c0[i * 48 + j],
                        "upper untouched ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_launches_roughly_half_the_tiles() {
        let desc = SyrkDesc {
            op: GemmOp::Dgemm,
            n: 4096,
            k: 256,
            alpha: -1.0,
            beta: 1.0,
        };
        let plan = plan_syrk(&die(), &desc).unwrap();
        let full = plan.gemm_plan.kernel.workgroups;
        // Lower triangle of a t×t grid: t(t+1)/2 of t² tiles.
        let t = 4096u64 / 256;
        assert_eq!(plan.kernel.workgroups, t * (t + 1) / 2);
        assert!(
            plan.kernel.workgroups * 2 > full,
            "more than half with diagonal"
        );
        assert!(plan.kernel.workgroups < full * 3 / 5);
        assert!(plan.mfma_flops < plan.gemm_plan.mfma_flops * 3 / 5);
    }

    #[test]
    fn useful_flops_model() {
        let desc = SyrkDesc {
            op: GemmOp::Sgemm,
            n: 100,
            k: 10,
            alpha: 1.0,
            beta: 0.0,
        };
        assert_eq!(desc.useful_flops(), 100 * 101 * 10 + 3 * 100 * 101 / 2);
    }

    #[test]
    fn syrk_runs_on_the_device_faster_than_the_gemm() {
        let mut handle = crate::handle::BlasHandle::new_mi250x_gcd();
        let desc = SyrkDesc {
            op: GemmOp::Dgemm,
            n: 4096,
            k: 256,
            alpha: -1.0,
            beta: 1.0,
        };
        let plan = plan_syrk(&handle.gpu().spec().die, &desc).unwrap();
        let die = handle.die();
        let syrk_r = handle.gpu_mut().launch(die, &plan.kernel).unwrap();
        let gemm_r = handle
            .gpu_mut()
            .launch(die, &plan.gemm_plan.kernel)
            .unwrap();
        assert!(
            syrk_r.time_s < 0.7 * gemm_r.time_s,
            "{} vs {}",
            syrk_r.time_s,
            gemm_r.time_s
        );
    }

    #[test]
    fn buffer_validation() {
        let desc = SyrkDesc {
            op: GemmOp::Sgemm,
            n: 16,
            k: 8,
            alpha: 1.0,
            beta: 0.0,
        };
        let a = vec![0.0f32; 10];
        let mut c = vec![0.0f32; 256];
        assert!(matches!(
            syrk_functional::<f32, f32>(&desc, &a, &mut c),
            Err(BlasError::BufferTooSmall { operand: "A", .. })
        ));
    }
}
