//! Strided-batched GEMM (`rocblas_gemm_strided_batched_ex`).
//!
//! Machine-learning workloads — the original motivation for Matrix
//! Cores (paper §I) — rarely run one huge GEMM; they run thousands of
//! small ones (attention heads, batched layers). rocBLAS exposes this
//! as a strided-batched GEMM: one launch covering `batch_count`
//! problems at fixed strides. The batched form amortizes the launch
//! overhead that makes the paper's small-N Fig. 6 points so slow, and
//! keeps the device saturated where a single small GEMM cannot
//! (workgroups from all batches fill the dispatch rounds together).

use mc_isa::KernelDesc;
use mc_types::Real;

use crate::handle::{BlasHandle, GemmPerf};
use crate::types::{BlasError, GemmDesc};

/// A strided-batched GEMM: `batch_count` independent problems with the
/// same dimensions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchedGemmDesc {
    /// The per-problem descriptor.
    pub gemm: GemmDesc,
    /// Number of problems in the batch.
    pub batch_count: usize,
    /// Element stride between consecutive A matrices.
    pub stride_a: usize,
    /// Element stride between consecutive B matrices.
    pub stride_b: usize,
    /// Element stride between consecutive C/D matrices.
    pub stride_c: usize,
}

impl BatchedGemmDesc {
    /// Dense packing: strides equal to each matrix's size.
    pub fn packed(gemm: GemmDesc, batch_count: usize) -> Self {
        BatchedGemmDesc {
            gemm,
            batch_count,
            stride_a: gemm.m * gemm.k,
            stride_b: gemm.k * gemm.n,
            stride_c: gemm.m * gemm.n,
        }
    }

    /// Validates strides and batch count.
    pub fn validate(&self) -> Result<(), BlasError> {
        self.gemm.validate()?;
        if self.batch_count == 0 {
            return Err(BlasError::InvalidDimension { m: 0, n: 0, k: 0 });
        }
        if self.stride_a < self.gemm.m * self.gemm.k
            || self.stride_b < self.gemm.k * self.gemm.n
            || self.stride_c < self.gemm.m * self.gemm.n
        {
            return Err(BlasError::BufferTooSmall {
                operand: "stride",
                required: self.gemm.m * self.gemm.k,
                provided: self.stride_a.min(self.stride_b).min(self.stride_c),
            });
        }
        Ok(())
    }

    /// Useful FLOPs across the batch.
    pub fn useful_flops(&self) -> u64 {
        self.gemm.useful_flops() * self.batch_count as u64
    }
}

impl BlasHandle {
    /// Plans and simulates a strided-batched GEMM launch: one kernel
    /// whose grid covers every batch entry. The per-problem plan comes
    /// through the handle's plan cache and verifier policy, as
    /// [`BlasHandle::gemm_timed`]'s does.
    fn gemm_strided_batched_timed(
        &mut self,
        desc: &BatchedGemmDesc,
    ) -> Result<GemmPerf, BlasError> {
        desc.validate()?;
        let capacity = u64::from(self.gpu().spec().die.hbm_gib) << 30;
        let footprint = desc.gemm.footprint_bytes() * desc.batch_count as u64;
        if footprint > capacity {
            return Err(BlasError::OutOfDeviceMemory {
                required: footprint,
                capacity,
            });
        }

        let plan = self.planned(&desc.gemm)?;
        self.enforce_verifier_policy(&plan)?;
        // One launch: the batch multiplies the workgroup grid and the
        // memory traffic; per-workgroup programs are unchanged.
        let b = desc.batch_count as u64;
        let kernel = KernelDesc {
            workgroups: plan.kernel.workgroups * b,
            mem_hints: mc_isa::MemHints {
                hbm_bytes: plan.kernel.mem_hints.hbm_bytes * b,
                working_set_bytes: plan.kernel.mem_hints.working_set_bytes * b,
                ..plan.kernel.mem_hints
            },
            name: format!("{}_batched_{b}", plan.kernel.name),
            ..plan.kernel.clone()
        };
        let die = self.die();
        let package = self
            .gpu_mut()
            .launch(die, &kernel)
            .map_err(|e| BlasError::Launch(e.to_string()))?;
        let time_s = package.time_s;
        let counters = package.kernels[0].counters;
        Ok(GemmPerf {
            tflops: desc.useful_flops() as f64 / time_s / 1e12,
            plan,
            time_s,
            counters,
            package,
        })
    }

    /// Functional strided-batched execution on host data plus the
    /// simulated launch (`rocblas_gemm_strided_batched_ex` shape).
    ///
    /// The planner strategy and the host backend are resolved once for
    /// the whole batch, and the packed tiers draw their panel scratch
    /// from the `mc-compute` buffer pool — so after the first entry
    /// warms the freelists, the remaining `batch_count - 1` problems
    /// run with zero allocator round-trips (the `pool_reuse`
    /// integration test pins this steady-state invariant).
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_strided_batched_ex<AB, CD, CT>(
        &mut self,
        desc: &BatchedGemmDesc,
        a: &[AB],
        b: &[AB],
        c: &[CD],
        d: &mut [CD],
    ) -> Result<GemmPerf, BlasError>
    where
        AB: Real,
        CD: Real,
        CT: Real,
    {
        desc.validate()?;
        let need = |stride: usize, last: usize| (desc.batch_count - 1) * stride + last;
        let g = &desc.gemm;
        let checks = [
            ("A", need(desc.stride_a, g.m * g.k), a.len()),
            ("B", need(desc.stride_b, g.k * g.n), b.len()),
            ("C", need(desc.stride_c, g.m * g.n), c.len()),
            ("D", need(desc.stride_c, g.m * g.n), d.len()),
        ];
        for (operand, required, provided) in checks {
            if provided < required {
                return Err(BlasError::BufferTooSmall {
                    operand,
                    required,
                    provided,
                });
            }
        }
        let strategy = crate::planner::select_strategy(g);
        let backend = crate::select::host_gemm_backend();
        for i in 0..desc.batch_count {
            let (ao, bo, co) = (i * desc.stride_a, i * desc.stride_b, i * desc.stride_c);
            crate::functional::run_functional_with::<AB, CD, CT>(
                &backend,
                g,
                &strategy,
                &a[ao..ao + g.m * g.k],
                &b[bo..bo + g.k * g.n],
                &c[co..co + g.m * g.n],
                &mut d[co..co + g.m * g.n],
            )?;
        }
        self.gemm_strided_batched_timed(desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::run_functional;
    use crate::types::GemmOp;
    use mc_sim::SimConfig;

    #[test]
    fn batching_amortizes_launch_overhead() {
        let mut h = BlasHandle::new_mi250x_gcd();
        let single = h.gemm_timed(&GemmDesc::square(GemmOp::Hhs, 128)).unwrap();
        let batched = h
            .gemm_strided_batched_timed(&BatchedGemmDesc::packed(
                GemmDesc::square(GemmOp::Hhs, 128),
                4096,
            ))
            .unwrap();
        // Per-problem throughput improves by orders of magnitude.
        assert!(
            batched.tflops > 30.0 * single.tflops,
            "{} vs {}",
            batched.tflops,
            single.tflops
        );
        // 128³ tiles are I/O-bound (C/D traffic dominates at this size),
        // so the batch lands near the DRAM roof, not the compute roof.
        assert!(
            batched.tflops > 50.0 && batched.tflops < 120.0,
            "{}",
            batched.tflops
        );
    }

    #[test]
    fn functional_batched_matches_per_problem_results() {
        let n = 32;
        let g = GemmDesc {
            alpha: 1.0,
            beta: 0.0,
            ..GemmDesc::square(GemmOp::Sgemm, n)
        };
        let batch = 3;
        let desc = BatchedGemmDesc::packed(g, batch);
        let a: Vec<f32> = (0..batch * n * n).map(|i| ((i % 7) as f32) - 3.0).collect();
        let b: Vec<f32> = (0..batch * n * n).map(|i| ((i % 5) as f32) - 2.0).collect();
        let c = vec![0.0f32; batch * n * n];
        let mut d = vec![0.0f32; batch * n * n];
        let mut h = BlasHandle::new_mi250x_gcd();
        h.gemm_strided_batched_ex::<f32, f32, f32>(&desc, &a, &b, &c, &mut d)
            .unwrap();

        // Each batch entry equals its standalone GEMM.
        for i in 0..batch {
            let off = i * n * n;
            let mut d_one = vec![0.0f32; n * n];
            let strategy = crate::planner::select_strategy(&g);
            run_functional::<f32, f32, f32>(
                &g,
                &strategy,
                &a[off..off + n * n],
                &b[off..off + n * n],
                &c[off..off + n * n],
                &mut d_one,
            )
            .unwrap();
            assert_eq!(&d[off..off + n * n], &d_one[..], "batch {i}");
        }
    }

    #[test]
    fn batched_launches_plan_through_the_handle_cache() {
        let mut h = BlasHandle::new_mi250x_gcd();
        let desc = BatchedGemmDesc::packed(GemmDesc::square(GemmOp::Hhs, 128), 64);
        let first = h.gemm_strided_batched_timed(&desc).unwrap();
        let second = h.gemm_strided_batched_timed(&desc).unwrap();
        assert_eq!(
            h.plan_cache_stats(),
            crate::handle::PlanCacheStats { hits: 1, misses: 1 }
        );
        assert_eq!(first.time_s, second.time_s);
        // The single launch of the same problem shares the cached plan.
        h.gemm_timed(&desc.gemm).unwrap();
        assert_eq!(h.plan_cache_stats().misses, 1);
    }

    #[test]
    fn strict_lint_rejects_a_batched_launch_exactly_when_it_rejects_the_single_one() {
        // Four times the wave slots leave every planned kernel under a
        // quarter occupancy: a warning, which strict mode rejects.
        let mut roomy = SimConfig::mi250x();
        roomy.package.die.max_waves_per_simd *= 4;
        let configs = [SimConfig::mi250x(), roomy];
        let mut rejected = 0;
        for (c, cfg) in configs.iter().enumerate() {
            for op in [GemmOp::Sgemm, GemmOp::Dgemm, GemmOp::Hhs] {
                for strict in [false, true] {
                    let desc = GemmDesc::square(op, 256);
                    let mut single = BlasHandle::with_config(cfg.clone(), 0);
                    single.set_strict_lint(strict);
                    let mut batched = BlasHandle::with_config(cfg.clone(), 0);
                    batched.set_strict_lint(strict);
                    let one = single.gemm_timed(&desc).err();
                    let many = batched
                        .gemm_strided_batched_timed(&BatchedGemmDesc::packed(desc, 8))
                        .err();
                    let what = format!("config {c} {op:?} strict={strict}");
                    assert_eq!(one.is_some(), many.is_some(), "{what}");
                    if let (Some(one), Some(many)) = (one, many) {
                        assert!(matches!(one, BlasError::Lint(_)), "{what}: {one}");
                        assert_eq!(one.to_string(), many.to_string(), "{what}");
                        rejected += 1;
                    }
                }
            }
        }
        assert!(rejected > 0, "no configuration exercised a rejection");
    }

    #[test]
    fn counters_scale_with_batch_count() {
        let mut h = BlasHandle::new_mi250x_gcd();
        let one = h.gemm_timed(&GemmDesc::square(GemmOp::Sgemm, 256)).unwrap();
        let eight = h
            .gemm_strided_batched_timed(&BatchedGemmDesc::packed(
                GemmDesc::square(GemmOp::Sgemm, 256),
                8,
            ))
            .unwrap();
        assert_eq!(eight.counters.mfma_mops_f32, 8 * one.counters.mfma_mops_f32);
    }

    #[test]
    fn validation_errors() {
        let g = GemmDesc::square(GemmOp::Sgemm, 64);
        let zero = BatchedGemmDesc::packed(g, 0);
        assert!(zero.validate().is_err());
        let undersized = BatchedGemmDesc {
            stride_a: 10,
            ..BatchedGemmDesc::packed(g, 2)
        };
        assert!(matches!(
            undersized.validate(),
            Err(BlasError::BufferTooSmall {
                operand: "stride",
                ..
            })
        ));
        // Batch that exceeds memory.
        let mut h = BlasHandle::new_mi250x_gcd();
        let big = BatchedGemmDesc::packed(GemmDesc::square(GemmOp::Dgemm, 8192), 100);
        assert!(matches!(
            h.gemm_strided_batched_timed(&big),
            Err(BlasError::OutOfDeviceMemory { .. })
        ));
    }

    #[test]
    fn padded_strides_are_respected() {
        let n = 16;
        let g = GemmDesc {
            alpha: 1.0,
            beta: 0.0,
            ..GemmDesc::square(GemmOp::Sgemm, n)
        };
        // Strides with a 64-element gap between problems.
        let stride = n * n + 64;
        let desc = BatchedGemmDesc {
            gemm: g,
            batch_count: 2,
            stride_a: stride,
            stride_b: stride,
            stride_c: stride,
        };
        let mut a = vec![0.0f32; stride * 2];
        let mut b = vec![0.0f32; stride * 2];
        // Batch 1: A = 2I, B = I.
        for i in 0..n {
            a[stride + i * n + i] = 2.0;
            b[stride + i * n + i] = 1.0;
        }
        let c = vec![0.0f32; stride * 2];
        let mut d = vec![0.0f32; stride * 2];
        let mut h = BlasHandle::new_mi250x_gcd();
        h.gemm_strided_batched_ex::<f32, f32, f32>(&desc, &a, &b, &c, &mut d)
            .unwrap();
        assert_eq!(d[stride], 2.0, "batch 1 diagonal");
        assert_eq!(d[0], 0.0, "batch 0 is all zeros");
    }
}
