//! The scalar packed tier: the packed driver over the scalar rounding
//! chain.
//!
//! [`Blocked`] runs [`crate::packed`]'s BLIS-style loop nest with the
//! [`Chain`] microkernel: operands are packed exactly (as f32 when the
//! input embeds in it, else f64), each product is formed in f64 like
//! the naive kernel's `a.to_f64() * b.to_f64()`, and every product and
//! partial sum rounds through the compute type `CT` in ascending `k`. Results therefore
//! equal [`crate::Naive`] *bitwise* for every dtype triple, including
//! half-precision accumulation and f64 inputs under f32 compute, which
//! the vector tier does not take. The speedup over the naive loop comes
//! from locality, hoisted conversions, and a 4×8 tile of independent
//! rounding chains that covers the chain latency.

use mc_types::{Bf16, DType, Real, F16};

use crate::microkernel::Chain;
use crate::packed::gemm_packed;
use crate::params::{ComputeError, GemmParams};
use crate::MatMul;

/// The cache-blocked, rayon-parallel scalar backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct Blocked;

impl MatMul for Blocked {
    fn name(&self) -> &'static str {
        "blocked"
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
        // The chain runs at the concrete scalar of CT's dtype (the dtype
        // determines the arithmetic), with a pooled accumulator. Inputs
        // that embed exactly in f32 pack as f32, halving the panels; the
        // product is still formed in f64, so that changes no bit.
        let f32_inputs = matches!(AB::DTYPE, DType::F32 | DType::F16 | DType::Bf16);
        match (CT::DTYPE, f32_inputs) {
            (DType::F16, true) => gemm_packed(Chain::<F16, f32>::default(), params, a, b, c, d),
            (DType::F16, false) => gemm_packed(Chain::<F16, f64>::default(), params, a, b, c, d),
            (DType::Bf16, true) => gemm_packed(Chain::<Bf16, f32>::default(), params, a, b, c, d),
            (DType::Bf16, false) => gemm_packed(Chain::<Bf16, f64>::default(), params, a, b, c, d),
            (DType::F32, true) => gemm_packed(Chain::<f32, f32>::default(), params, a, b, c, d),
            (DType::F32, false) => gemm_packed(Chain::<f32, f64>::default(), params, a, b, c, d),
            (DType::F64, true) => gemm_packed(Chain::<f64, f32>::default(), params, a, b, c, d),
            (DType::F64, false) => gemm_packed(Chain::<f64, f64>::default(), params, a, b, c, d),
            _ => unreachable!("mc-types implements Real only for floats"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Epilogue, Trans};
    use crate::Naive;

    fn fill_ab<T: Real>(len: usize, seed: usize) -> Vec<T> {
        (0..len)
            .map(|i| T::from_f64(((i * seed + 3) % 17) as f64 / 8.0 - 1.0))
            .collect()
    }

    fn parity<AB: Real, CD: Real, CT: Real>(params: &GemmParams) {
        let (am, ak) = match params.trans_a {
            Trans::None => (params.m, params.k),
            Trans::Trans => (params.k, params.m),
        };
        let (bk, bn) = match params.trans_b {
            Trans::None => (params.k, params.n),
            Trans::Trans => (params.n, params.k),
        };
        let a: Vec<AB> = fill_ab(am * ak, 7);
        let b: Vec<AB> = fill_ab(bk * bn, 13);
        let c: Vec<CD> = fill_ab(params.m * params.n, 5);
        let mut d_naive = vec![CD::zero(); params.m * params.n];
        let mut d_blocked = vec![CD::zero(); params.m * params.n];
        Naive
            .gemm::<AB, CD, CT>(params, &a, &b, &c, &mut d_naive)
            .unwrap();
        Blocked
            .gemm::<AB, CD, CT>(params, &a, &b, &c, &mut d_blocked)
            .unwrap();
        for (i, (x, y)) in d_naive.iter().zip(&d_blocked).enumerate() {
            assert!(x == y, "element {i}: {x:?} vs {y:?} ({params:?})");
        }
    }

    #[test]
    fn bitwise_parity_with_naive_across_dtypes() {
        // Shapes straddling every block boundary, both epilogues.
        for (m, n, k) in [(1, 1, 1), (17, 5, 3), (65, 129, 257), (64, 128, 256)] {
            for epilogue in [Epilogue::Direct, Epilogue::ComputeRounded] {
                let p = GemmParams::new(m, n, k)
                    .with_scaling(0.1, 0.1)
                    .with_epilogue(epilogue);
                parity::<f64, f64, f64>(&p);
                parity::<f32, f32, f32>(&p);
                parity::<F16, F16, F16>(&p);
                parity::<F16, f32, f32>(&p);
                parity::<Bf16, Bf16, f32>(&p);
            }
        }
    }

    #[test]
    fn bitwise_parity_under_transposes() {
        for (ta, tb) in [
            (Trans::None, Trans::Trans),
            (Trans::Trans, Trans::None),
            (Trans::Trans, Trans::Trans),
        ] {
            let p = GemmParams::new(33, 21, 130)
                .with_scaling(-1.0, 1.0)
                .with_transposes(ta, tb);
            parity::<f32, f32, f32>(&p);
            parity::<F16, f32, f32>(&p);
        }
    }

    #[test]
    fn k_zero_scales_c_only() {
        let p = GemmParams::new(3, 2, 0).with_scaling(9.0, 0.5);
        parity::<f32, f32, f32>(&p);
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let p = GemmParams::new(130, 70, 90).with_scaling(0.1, 0.1);
        let a: Vec<f32> = fill_ab(130 * 90, 11);
        let b: Vec<f32> = fill_ab(90 * 70, 29);
        let c: Vec<f32> = fill_ab(130 * 70, 3);
        let mut runs: Vec<Vec<f32>> = Vec::new();
        for threads in [1, 2, 7] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .unwrap();
            let mut d = vec![0.0f32; 130 * 70];
            Blocked
                .gemm::<f32, f32, f32>(&p, &a, &b, &c, &mut d)
                .unwrap();
            runs.push(d);
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn oversized_output_buffer_is_left_untouched_past_mn() {
        let p = GemmParams::new(2, 2, 2).with_scaling(1.0, 0.0);
        let a = vec![1.0f64; 4];
        let b = vec![1.0f64; 4];
        let c = vec![0.0f64; 4];
        let mut d = vec![-7.0f64; 9];
        Blocked
            .gemm::<f64, f64, f64>(&p, &a, &b, &c, &mut d)
            .unwrap();
        assert_eq!(&d[..4], &[2.0, 2.0, 2.0, 2.0]);
        assert!(d[4..].iter().all(|&x| x == -7.0));
    }
}
