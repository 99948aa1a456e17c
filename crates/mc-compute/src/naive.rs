//! The retained naive reference backend.
//!
//! A direct `i/j/p` triple loop with one conversion per element access —
//! exactly the kernel `mc_blas::functional::run_simd` shipped before the
//! blocked backend existed. It stays in the crate as the semantic
//! ground truth: [`crate::Blocked`] must match it bit for bit (the
//! parity suite in `tests/compute_parity.rs` proves it), and the `perf`
//! experiment measures speedup against it.

use mc_types::Real;

use crate::params::{ComputeError, Epilogue, GemmParams};
use crate::MatMul;

/// The single-threaded reference backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct Naive;

impl MatMul for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn run<AB, CD, CT>(
        &self,
        params: &GemmParams,
        a: &[AB],
        b: &[AB],
        c: Option<&[CD]>,
        d: &mut [CD],
    ) -> Result<(), ComputeError>
    where
        AB: Real,
        CD: Real,
        CT: Real,
    {
        params.check_buffers(a.len(), b.len(), c.map(<[CD]>::len), d.len())?;
        let (m, n, k) = (params.m, params.n, params.k);
        for i in 0..m {
            for j in 0..n {
                let mut acc = CT::zero();
                for p in 0..k {
                    let prod = CT::from_f64(
                        a[params.a_index(i, p)].to_f64() * b[params.b_index(p, j)].to_f64(),
                    );
                    acc = CT::from_f64(acc.to_f64() + prod.to_f64());
                }
                let at = params.c_index(i, j);
                let ab = CT::from_f64(params.alpha * acc.to_f64());
                let bc = CT::from_f64(params.beta * c.map_or(d[at], |c| c[at]).to_f64());
                d[at] = match params.epilogue {
                    Epilogue::Direct => CD::from_f64(ab.to_f64() + bc.to_f64()),
                    Epilogue::ComputeRounded => {
                        CD::from_f64(CT::from_f64(ab.to_f64() + bc.to_f64()).to_f64())
                    }
                };
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_integer_gemm_is_exact() {
        let p = GemmParams::new(3, 3, 3).with_scaling(1.0, 1.0);
        let a: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..9).map(|i| (i % 2) as f64).collect();
        let c = vec![1.0f64; 9];
        let mut d = vec![0.0f64; 9];
        Naive.gemm::<f64, f64, f64>(&p, &a, &b, &c, &mut d).unwrap();
        // Row 0 of A is [0,1,2]; column 0 of B is [0,1,0] -> 1 (+1).
        assert_eq!(d[0], 2.0);
    }

    #[test]
    fn k_zero_is_beta_scaling_only() {
        let p = GemmParams::new(2, 2, 0).with_scaling(7.0, 2.0);
        let c = vec![1.0f32, 2.0, 3.0, 4.0];
        let mut d = vec![0.0f32; 4];
        Naive
            .gemm::<f32, f32, f32>(&p, &[], &[], &c, &mut d)
            .unwrap();
        assert_eq!(d, vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn f16_compute_type_loses_precision_like_the_hardware() {
        use mc_types::F16;
        // 1 + 2^-12 rounds away in an f16 accumulator.
        let p = GemmParams::new(1, 1, 2);
        let a = [F16::ONE, F16::from_f32(2.0f32.powi(-12))];
        let b = [F16::ONE, F16::ONE];
        let c = [F16::ZERO];
        let mut d = [F16::ZERO];
        Naive.gemm::<F16, F16, F16>(&p, &a, &b, &c, &mut d).unwrap();
        assert_eq!(d[0].to_f64(), 1.0);
        // The same product survives an f32 accumulator.
        let c32 = [0.0f32];
        let mut d32 = [0.0f32];
        Naive
            .gemm::<F16, f32, f32>(&p, &a, &b, &c32, &mut d32)
            .unwrap();
        assert!(d32[0] > 1.0);
    }
}
