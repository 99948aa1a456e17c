//! The `mma_sync` operation: functional matrix fused multiply-add with
//! hardware-faithful precision semantics.
//!
//! The Matrix Core datapath multiplies input elements exactly (FP16 and
//! BF16 products are exactly representable in FP32; FP32/FP64 products
//! round once in the accumulator type) and accumulates *sequentially in
//! the C/D datatype* along `k`. This implementation reproduces that:
//! conversions in, one rounding per multiply, one per accumulate.

use mc_isa::{ampere_catalog, cdna2_catalog, MatrixArch, MatrixInstruction};
use mc_types::Real;

use crate::error::WmmaError;
use crate::fragment::{Accumulator, Fragment, MatrixA, MatrixB};

/// Performs `D ← A·B + C` on CDNA2 (the rocWMMA default target).
///
/// Returns the Matrix Core instruction the operation lowers to, so
/// callers can account FLOPs and cycles. Fails with
/// [`WmmaError::Unsupported`] when no instruction matches — e.g.
/// `FP16 ← FP16` on CDNA2 (paper Table I).
///
/// ```
/// use mc_wmma::{mma_sync, Fragment, MatrixA, MatrixB, Accumulator};
/// use mc_types::F16;
///
/// let mut a = Fragment::<MatrixA, F16, 16, 16, 16>::new();
/// let mut b = Fragment::<MatrixB, F16, 16, 16, 16>::new();
/// let c = Fragment::<Accumulator, f32, 16, 16, 16>::new();
/// let mut d = Fragment::<Accumulator, f32, 16, 16, 16>::new();
/// a.fill(F16::ONE);
/// b.fill(F16::ONE);
/// let instr = mma_sync(&mut d, &a, &b, &c).unwrap();
/// assert_eq!(instr.mnemonic(), "v_mfma_f32_16x16x16f16");
/// assert_eq!(d.get(0, 0), 16.0); // row of ones · column of ones
/// ```
pub fn mma_sync<AB, CD, const M: usize, const N: usize, const K: usize>(
    d: &mut Fragment<Accumulator, CD, M, N, K>,
    a: &Fragment<MatrixA, AB, M, N, K>,
    b: &Fragment<MatrixB, AB, M, N, K>,
    c: &Fragment<Accumulator, CD, M, N, K>,
) -> Result<&'static MatrixInstruction, WmmaError>
where
    AB: Real,
    CD: Real,
{
    mma_sync_on(MatrixArch::Cdna2, d, a, b, c)
}

/// [`mma_sync`] with an explicit target architecture (the paper runs the
/// same WMMA code on both platforms by adapting shapes, §IV-A).
fn mma_sync_on<AB, CD, const M: usize, const N: usize, const K: usize>(
    arch: MatrixArch,
    d: &mut Fragment<Accumulator, CD, M, N, K>,
    a: &Fragment<MatrixA, AB, M, N, K>,
    b: &Fragment<MatrixB, AB, M, N, K>,
    c: &Fragment<Accumulator, CD, M, N, K>,
) -> Result<&'static MatrixInstruction, WmmaError>
where
    AB: Real,
    CD: Real,
{
    let catalog = match arch {
        MatrixArch::Cdna1 => mc_isa::cdna1_catalog(),
        MatrixArch::Cdna2 => cdna2_catalog(),
        MatrixArch::Ampere => ampere_catalog(),
    };
    let instr = catalog
        .find(CD::DTYPE, AB::DTYPE, M as u32, N as u32, K as u32)
        .ok_or(WmmaError::Unsupported {
            arch,
            cd: CD::DTYPE,
            ab: AB::DTYPE,
            shape: (M, N, K),
        })?;

    // Sequential accumulation in the C/D type, as the hardware does:
    // each product rounds once into the accumulator type (exact for
    // f16/bf16 inputs into f32; one rounding for f32/f64), then one
    // rounding per accumulate. The shared kernel reproduces that chain
    // with the conversions hoisted out of the inner loop.
    mc_compute::mma_accumulate(
        M,
        N,
        K,
        a.as_slice(),
        b.as_slice(),
        c.as_slice(),
        d.as_mut_slice(),
    );
    Ok(instr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_types::{ApproxEq, F16};

    fn idx_f16(i: usize) -> F16 {
        F16::from_f32((i % 7) as f32 - 3.0)
    }

    #[test]
    fn identity_multiplication() {
        // A · I + 0 = A, the paper's correctness check pattern (§IV-A).
        let mut a = Fragment::<MatrixA, f64, 16, 16, 4>::new();
        let mut b = Fragment::<MatrixB, f64, 16, 16, 4>::new();
        let c = Fragment::<Accumulator, f64, 16, 16, 4>::new();
        let mut d = Fragment::<Accumulator, f64, 16, 16, 4>::new();
        for i in 0..16 {
            for k in 0..4 {
                a.set(i, k, (i * 4 + k) as f64);
            }
        }
        for k in 0..4 {
            b.set(k, k, 1.0);
        }
        let instr = mma_sync(&mut d, &a, &b, &c).unwrap();
        assert_eq!(instr.mnemonic(), "v_mfma_f64_16x16x4f64");
        for i in 0..16 {
            for j in 0..4 {
                assert_eq!(d.get(i, j), a.get(i, j));
            }
            for j in 4..16 {
                assert_eq!(d.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn ones_times_identity_plus_ones_is_twos() {
        // The exact rocBLAS validation pattern from §IV-A: A=1, B=I, C=1
        // => D filled with 2 ... restricted here to the k columns where
        // I has its ones.
        let mut a = Fragment::<MatrixA, F16, 16, 16, 16>::new();
        let mut b = Fragment::<MatrixB, F16, 16, 16, 16>::new();
        let mut c = Fragment::<Accumulator, f32, 16, 16, 16>::new();
        let mut d = Fragment::<Accumulator, f32, 16, 16, 16>::new();
        a.fill(F16::ONE);
        for k in 0..16 {
            b.set(k, k, F16::ONE);
        }
        c.fill(1.0);
        mma_sync(&mut d, &a, &b, &c).unwrap();
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(d.get(i, j), 2.0);
            }
        }
    }

    #[test]
    fn mixed_precision_matches_f64_reference_within_accumulator_ulps() {
        let mut a = Fragment::<MatrixA, F16, 16, 16, 16>::new();
        let mut b = Fragment::<MatrixB, F16, 16, 16, 16>::new();
        let c = Fragment::<Accumulator, f32, 16, 16, 16>::new();
        let mut d = Fragment::<Accumulator, f32, 16, 16, 16>::new();
        for i in 0..16 {
            for k in 0..16 {
                a.set(i, k, idx_f16(i * 16 + k));
                b.set(k, i, idx_f16(i * 31 + k));
            }
        }
        mma_sync(&mut d, &a, &b, &c).unwrap();
        for i in 0..16 {
            for j in 0..16 {
                let mut reference = 0.0f64;
                for k in 0..16 {
                    reference += a.get(i, k).to_f64() * b.get(k, j).to_f64();
                }
                let got = f64::from(d.get(i, j));
                // Sequential f32 accumulation: within a few ULP of the
                // f64 reference for this small k.
                assert!(
                    (got as f32).approx_eq_ulps(&(reference as f32), 8),
                    "({i},{j}): {got} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn unsupported_combination_is_rejected() {
        // FP16 <- FP16 has no CDNA2 instruction (Table I).
        let a = Fragment::<MatrixA, F16, 16, 16, 16>::new();
        let b = Fragment::<MatrixB, F16, 16, 16, 16>::new();
        let c = Fragment::<Accumulator, F16, 16, 16, 16>::new();
        let mut d = Fragment::<Accumulator, F16, 16, 16, 16>::new();
        let err = mma_sync(&mut d, &a, &b, &c).unwrap_err();
        assert!(matches!(err, WmmaError::Unsupported { .. }));
    }

    #[test]
    fn ampere_supports_f16_accumulate_but_not_f32_inputs() {
        let a = Fragment::<MatrixA, F16, 16, 8, 16>::new();
        let b = Fragment::<MatrixB, F16, 16, 8, 16>::new();
        let c = Fragment::<Accumulator, F16, 16, 8, 16>::new();
        let mut d = Fragment::<Accumulator, F16, 16, 8, 16>::new();
        let i = mma_sync_on(MatrixArch::Ampere, &mut d, &a, &b, &c).unwrap();
        assert_eq!(i.mnemonic(), "mma.sync.aligned.m16n8k16.f16.f16");

        let a = Fragment::<MatrixA, f32, 16, 8, 16>::new();
        let b = Fragment::<MatrixB, f32, 16, 8, 16>::new();
        let c = Fragment::<Accumulator, f32, 16, 8, 16>::new();
        let mut d = Fragment::<Accumulator, f32, 16, 8, 16>::new();
        assert!(mma_sync_on(MatrixArch::Ampere, &mut d, &a, &b, &c).is_err());
    }

    #[test]
    fn fp16_products_are_exact_in_f32_accumulator() {
        // (1 + 2^-10)^2 = 1 + 2^-9 + 2^-20 is exact in f32 but not f16:
        // the MFMA must keep the full product.
        let x = F16::from_f32(1.0 + 2.0f32.powi(-10));
        let mut a = Fragment::<MatrixA, F16, 16, 16, 16>::new();
        let mut b = Fragment::<MatrixB, F16, 16, 16, 16>::new();
        let c = Fragment::<Accumulator, f32, 16, 16, 16>::new();
        let mut d = Fragment::<Accumulator, f32, 16, 16, 16>::new();
        a.set(0, 0, x);
        b.set(0, 0, x);
        mma_sync(&mut d, &a, &b, &c).unwrap();
        let expect = (1.0 + 2.0f32.powi(-10)) * (1.0 + 2.0f32.powi(-10));
        assert_eq!(d.get(0, 0), expect);
    }

    #[test]
    fn accumulation_order_is_sequential_in_k() {
        // With f32 accumulation, (big + small) + (-big) != big + (small - big)
        // in general; pin the sequential-k order.
        let mut a = Fragment::<MatrixA, f32, 16, 16, 4>::new();
        let mut b = Fragment::<MatrixB, f32, 16, 16, 4>::new();
        let c = Fragment::<Accumulator, f32, 16, 16, 4>::new();
        let mut d = Fragment::<Accumulator, f32, 16, 16, 4>::new();
        // k=0: 1e8, k=1: 1.0 (absorbed), k=2: -1e8, k=3: 1.0
        let vals = [1e8f32, 1.0, -1e8, 1.0];
        for (k, v) in vals.iter().enumerate() {
            a.set(0, k, *v);
            b.set(k, 0, 1.0);
        }
        mma_sync(&mut d, &a, &b, &c).unwrap();
        // Sequential: ((0 + 1e8) + 1) + (-1e8) + 1 = 1e8 + (-1e8) + 1 = 1.
        assert_eq!(d.get(0, 0), 1.0);
    }
}
