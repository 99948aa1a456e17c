//! Host-side functional GEMM execution.
//!
//! Executes `D ← α·A·B + β·C` on real data with the precision semantics
//! of the device datapath: every product and partial sum rounds through
//! the routine's compute type (FP16 for HGEMM — which is why HGEMM is
//! not just slow but also *less accurate*), and the α/β scaling is
//! applied in the compute type, mirroring the paper's Fig. 9
//! decomposition.
//!
//! Both planner strategies execute on the shared [`mc_compute::Auto`]
//! dispatch ([`crate::select::host_gemm_backend`]): the explicit-SIMD
//! microkernel ([`mc_compute::Simd`]) when the vector unit and dtype
//! pairing allow, else the cache-blocked packed-panel kernel —
//! bit-for-bit identical to the naive reference, so routing only moves
//! time. The strategies differ only in the epilogue rounding:
//!
//! * **Matrix Core** — the accumulator registers live in the compute
//!   type, so the epilogue sum rounds through `CT` before the output
//!   cast ([`Epilogue::ComputeRounded`]). The path first validates the
//!   planner's instruction shape against the device catalog through the
//!   [`mc_wmma`] fragment API, so a catalog miss still surfaces as the
//!   same lint diagnostic it always did.
//! * **SIMD** — per-element MACs write straight to the output type
//!   ([`Epilogue::Direct`]).
//!
//! [`run_functional`] takes dense row-major matrices, each with leading
//! dimension equal to its width. [`run_functional_in_place_with`] takes
//! strided views (`lda`/`ldb`/`ldc`) and updates `C` in place, as
//! `rocblas_gemm_ex` does with `D` aliasing `C`: that is how the solver
//! updates a trailing block of its factor without copying it. The
//! strides stay out of [`GemmDesc`], so plans and envelopes never see
//! them.

use mc_compute::{Epilogue, GemmParams, MatMul, Trans};
use mc_types::Real;
use mc_wmma::{mma_sync, Accumulator, Fragment, MatrixA, MatrixB};

use crate::planner::Strategy;
use crate::types::{BlasError, GemmDesc, Transpose};

/// Index of `op(A)[i][p]` in A's stored row-major layout.
#[inline]
fn a_index(desc: &GemmDesc, i: usize, p: usize) -> usize {
    match desc.trans_a {
        crate::types::Transpose::None => i * desc.k + p,
        crate::types::Transpose::Trans => p * desc.m + i,
    }
}

/// Index of `op(B)[p][j]` in B's stored row-major layout.
#[inline]
fn b_index(desc: &GemmDesc, p: usize, j: usize) -> usize {
    match desc.trans_b {
        crate::types::Transpose::None => p * desc.n + j,
        crate::types::Transpose::Trans => j * desc.k + p,
    }
}

/// Computes the `f64` reference `D ← α·op(A)·op(B) + β·C` (no rounding
/// between operations) for validation.
pub fn gemm_reference_f64(
    desc: &GemmDesc,
    a: &[f64],
    b: &[f64],
    c: &[f64],
    d: &mut [f64],
) -> Result<(), BlasError> {
    check_buffers(desc, a.len(), b.len(), c.len(), d.len())?;
    let (m, n, k) = (desc.m, desc.n, desc.k);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[a_index(desc, i, p)] * b[b_index(desc, p, j)];
            }
            d[i * n + j] = desc.alpha * acc + desc.beta * c[i * n + j];
        }
    }
    Ok(())
}

fn check_buffers(desc: &GemmDesc, a: usize, b: usize, c: usize, d: usize) -> Result<(), BlasError> {
    desc.validate()?;
    let need = [
        ("A", desc.m * desc.k, a),
        ("B", desc.k * desc.n, b),
        ("C", desc.m * desc.n, c),
        ("D", desc.m * desc.n, d),
    ];
    for (operand, required, provided) in need {
        if provided < required {
            return Err(BlasError::BufferTooSmall {
                operand,
                required,
                provided,
            });
        }
    }
    Ok(())
}

/// Translates a library descriptor into dense compute-backend
/// parameters (the epilogue is set by [`prologue`]).
fn to_params(desc: &GemmDesc) -> GemmParams {
    let map = |t: Transpose| match t {
        Transpose::None => Trans::None,
        Transpose::Trans => Trans::Trans,
    };
    GemmParams::new(desc.m, desc.n, desc.k)
        .with_scaling(desc.alpha, desc.beta)
        .with_transposes(map(desc.trans_a), map(desc.trans_b))
}

/// Runs a GEMM functionally according to a planner [`Strategy`].
///
/// `AB` is the input element type, `CD` the output element type, and
/// `CT` the compute type (Table III). The three are constrained by the
/// caller; see [`crate::handle::BlasHandle`] for the typed entry points.
pub fn run_functional<AB, CD, CT>(
    desc: &GemmDesc,
    strategy: &Strategy,
    a: &[AB],
    b: &[AB],
    c: &[CD],
    d: &mut [CD],
) -> Result<(), BlasError>
where
    AB: Real,
    CD: Real,
    CT: Real,
{
    run_functional_with::<AB, CD, CT>(
        &crate::select::host_gemm_backend(),
        desc,
        strategy,
        a,
        b,
        c,
        d,
    )
}

/// [`run_functional`] with a caller-held backend: batch loops resolve
/// the dispatcher (an environment read) once and reuse it across every
/// entry instead of rebuilding it per problem.
#[allow(clippy::too_many_arguments)]
pub fn run_functional_with<AB, CD, CT>(
    backend: &mc_compute::Auto,
    desc: &GemmDesc,
    strategy: &Strategy,
    a: &[AB],
    b: &[AB],
    c: &[CD],
    d: &mut [CD],
) -> Result<(), BlasError>
where
    AB: Real,
    CD: Real,
    CT: Real,
{
    let params = prologue::<AB, CT>(
        desc,
        strategy,
        to_params(desc),
        (a.len(), b.len(), Some(c.len()), d.len()),
    )?;
    backend
        .gemm::<AB, CD, CT>(&params, a, b, c, d)
        .map_err(BlasError::from)
}

/// [`run_functional_with`] on strided views, in place: `cd` holds `C`
/// on entry and `D` on return. `(lda, ldb, ldc)` are the operands'
/// leading dimensions, each at least its stored width; a narrower one,
/// or a buffer shorter than its view, is an error.
#[allow(clippy::too_many_arguments)]
pub fn run_functional_in_place_with<AB, CD, CT>(
    backend: &mc_compute::Auto,
    desc: &GemmDesc,
    strategy: &Strategy,
    (lda, ldb, ldc): (usize, usize, usize),
    a: &[AB],
    b: &[AB],
    cd: &mut [CD],
) -> Result<(), BlasError>
where
    AB: Real,
    CD: Real,
    CT: Real,
{
    let params = prologue::<AB, CT>(
        desc,
        strategy,
        to_params(desc).with_leading_dims(lda, ldb, ldc),
        (a.len(), b.len(), None, cd.len()),
    )?;
    backend
        .gemm_in_place::<AB, CD, CT>(&params, a, b, cd)
        .map_err(BlasError::from)
}

/// The prologue both functional entries share: validates the
/// descriptor and the buffer lengths of A, B, C (`None` in place) and
/// D against `params`, maps the strategy to its epilogue and, on the
/// Matrix Core path, probes the instruction shape against the device
/// catalog.
fn prologue<AB: Real, CT: Real>(
    desc: &GemmDesc,
    strategy: &Strategy,
    params: GemmParams,
    (a, b, c, d): (usize, usize, Option<usize>, usize),
) -> Result<GemmParams, BlasError> {
    desc.validate()?;
    params.check_buffers(a, b, c, d).map_err(BlasError::from)?;
    let epilogue = match strategy {
        Strategy::MatrixCore { .. } => {
            // The Matrix Core path must only run instruction shapes the
            // device catalog knows; probe once through the fragment API
            // so a miss surfaces as the historical lint diagnostic.
            match AB::DTYPE.size_bytes() {
                2 => probe_catalog::<AB, CT, 16>()?,
                _ => probe_catalog::<AB, CT, 4>()?,
            }
            Epilogue::ComputeRounded
        }
        Strategy::SimdOnly { .. } => Epilogue::Direct,
    };
    Ok(params.with_epilogue(epilogue))
}

/// Validates the `16×16×TK` instruction shape against the device
/// catalog with one zero-fragment MMA. Kernel math runs on the blocked
/// backend, but support (or not) for the shape is still decided by the
/// same catalog lookup `mma_sync` performs.
fn probe_catalog<AB: Real, CT: Real, const TK: usize>() -> Result<(), BlasError> {
    let fa = Fragment::<MatrixA, AB, 16, 16, TK>::new();
    let fb = Fragment::<MatrixB, AB, 16, 16, TK>::new();
    let c_in = Fragment::<Accumulator, CT, 16, 16, TK>::new();
    let mut acc = Fragment::<Accumulator, CT, 16, 16, TK>::new();
    mma_sync(&mut acc, &fa, &fb, &c_in)
        .map(|_| ())
        .map_err(wmma_to_lint)
}

/// Routes a fragment-API failure through the shared diagnostic type: a
/// catalog miss on the functional path is the same defect class the
/// static verifier reports as `mfma-unknown-instruction`.
fn wmma_to_lint(e: mc_wmma::WmmaError) -> BlasError {
    let diag =
        mc_lint::Diagnostic::error(mc_lint::RuleId::MfmaUnknownInstruction, None, e.to_string())
            .with_help("the planner must only select catalogued Matrix Core instructions");
    BlasError::Lint(mc_lint::LintReport::new(
        "functional matrix-core path",
        vec![diag],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::select_strategy;
    use crate::types::GemmOp;
    use mc_types::{ApproxEq, F16};

    /// A = all ones, B = identity, C = all ones: D must be exactly
    /// α + β everywhere — the paper's §IV-A verification pattern.
    #[test]
    fn ones_identity_pattern_all_ops() {
        let n = 48;
        let desc = GemmDesc {
            alpha: 1.0,
            beta: 1.0,
            ..GemmDesc::square(GemmOp::Hss, n)
        };
        let a = vec![F16::ONE; n * n];
        let mut b = vec![F16::ZERO; n * n];
        for i in 0..n {
            b[i * n + i] = F16::ONE;
        }
        let c = vec![1.0f32; n * n];
        let mut d = vec![0.0f32; n * n];
        let strategy = select_strategy(&desc);
        assert!(strategy.uses_matrix_cores());
        run_functional::<F16, f32, f32>(&desc, &strategy, &a, &b, &c, &mut d).unwrap();
        assert!(d.iter().all(|&x| x == 2.0), "D must be filled with 2");
    }

    #[test]
    fn dgemm_matches_f64_reference_exactly_for_small_ints() {
        let n = 32;
        let desc = GemmDesc {
            alpha: 1.0,
            beta: 2.0,
            ..GemmDesc::square(GemmOp::Dgemm, n)
        };
        let a: Vec<f64> = (0..n * n).map(|i| ((i % 9) as f64) - 4.0).collect();
        let b: Vec<f64> = (0..n * n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let c: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64).collect();
        let mut d = vec![0.0; n * n];
        let mut d_ref = vec![0.0; n * n];
        let strategy = select_strategy(&desc);
        run_functional::<f64, f64, f64>(&desc, &strategy, &a, &b, &c, &mut d).unwrap();
        gemm_reference_f64(&desc, &a, &b, &c, &mut d_ref).unwrap();
        // Small integers: every intermediate is exact, results identical.
        assert_eq!(d, d_ref);
    }

    #[test]
    fn sgemm_close_to_reference() {
        let n = 64;
        let desc = GemmDesc::square(GemmOp::Sgemm, n);
        let a: Vec<f32> = (0..n * n)
            .map(|i| ((i * 37 % 100) as f32) / 100.0 - 0.5)
            .collect();
        let b: Vec<f32> = (0..n * n)
            .map(|i| ((i * 53 % 100) as f32) / 100.0 - 0.5)
            .collect();
        let c: Vec<f32> = (0..n * n).map(|i| (i % 3) as f32).collect();
        let mut d = vec![0.0f32; n * n];
        let strategy = select_strategy(&desc);
        run_functional::<f32, f32, f32>(&desc, &strategy, &a, &b, &c, &mut d).unwrap();

        let af: Vec<f64> = a.iter().map(|&x| f64::from(x)).collect();
        let bf: Vec<f64> = b.iter().map(|&x| f64::from(x)).collect();
        let cf: Vec<f64> = c.iter().map(|&x| f64::from(x)).collect();
        let mut df = vec![0.0; n * n];
        gemm_reference_f64(&desc, &af, &bf, &cf, &mut df).unwrap();
        for (got, want) in d.iter().zip(&df) {
            assert!(
                got.approx_eq_tol(&(*want as f32), 1e-5, 1e-5),
                "{got} vs {want}"
            );
        }
    }

    #[test]
    fn hgemm_loses_precision_relative_to_hss() {
        // Same input data; HGEMM accumulates in f16, HSS in f32. With
        // many accumulations of ~1.0 values, f16 saturates its 11-bit
        // significand and drifts.
        let n = 128;
        let a: Vec<F16> = (0..n * n)
            .map(|i| F16::from_f32(0.9 + 0.2 * ((i % 10) as f32) / 10.0))
            .collect();
        let b = a.clone();

        let hss_desc = GemmDesc {
            alpha: 1.0,
            beta: 0.0,
            ..GemmDesc::square(GemmOp::Hss, n)
        };
        let c32 = vec![0.0f32; n * n];
        let mut d_hss = vec![0.0f32; n * n];
        run_functional::<F16, f32, f32>(
            &hss_desc,
            &select_strategy(&hss_desc),
            &a,
            &b,
            &c32,
            &mut d_hss,
        )
        .unwrap();

        let hgemm_desc = GemmDesc {
            alpha: 1.0,
            beta: 0.0,
            ..GemmDesc::square(GemmOp::Hgemm, n)
        };
        let c16 = vec![F16::ZERO; n * n];
        let mut d_hgemm = vec![F16::ZERO; n * n];
        run_functional::<F16, F16, F16>(
            &hgemm_desc,
            &select_strategy(&hgemm_desc),
            &a,
            &b,
            &c16,
            &mut d_hgemm,
        )
        .unwrap();

        // Reference.
        let af: Vec<f64> = a.iter().map(|x| x.to_f64()).collect();
        let cf = vec![0.0f64; n * n];
        let mut df = vec![0.0f64; n * n];
        gemm_reference_f64(&hss_desc, &af, &af, &cf, &mut df).unwrap();

        let err = |xs: &[f64]| -> f64 {
            xs.iter()
                .zip(&df)
                .map(|(x, r)| ((x - r) / r).abs())
                .fold(0.0, f64::max)
        };
        let hss_err = err(&d_hss.iter().map(|&x| f64::from(x)).collect::<Vec<_>>());
        let hgemm_err = err(&d_hgemm.iter().map(|x| x.to_f64()).collect::<Vec<_>>());
        assert!(
            hgemm_err > 10.0 * hss_err,
            "hgemm {hgemm_err} vs hss {hss_err}"
        );
        assert!(hss_err < 1e-3);
    }

    #[test]
    fn non_square_and_padded_shapes() {
        let desc = GemmDesc::new(GemmOp::Sgemm, 20, 35, 17, 0.5, 0.25);
        let a: Vec<f32> = (0..desc.m * desc.k)
            .map(|i| (i % 11) as f32 - 5.0)
            .collect();
        let b: Vec<f32> = (0..desc.k * desc.n)
            .map(|i| (i % 13) as f32 - 6.0)
            .collect();
        let c: Vec<f32> = (0..desc.m * desc.n).map(|i| (i % 4) as f32).collect();
        let mut d = vec![0.0f32; desc.m * desc.n];
        run_functional::<f32, f32, f32>(&desc, &select_strategy(&desc), &a, &b, &c, &mut d)
            .unwrap();
        let af: Vec<f64> = a.iter().map(|&x| f64::from(x)).collect();
        let bf: Vec<f64> = b.iter().map(|&x| f64::from(x)).collect();
        let cf: Vec<f64> = c.iter().map(|&x| f64::from(x)).collect();
        let mut df = vec![0.0; desc.m * desc.n];
        gemm_reference_f64(&desc, &af, &bf, &cf, &mut df).unwrap();
        for (got, want) in d.iter().zip(&df) {
            // Quarter-integer arithmetic: exact.
            assert_eq!(f64::from(*got), *want);
        }
    }

    #[test]
    fn transposed_operands_match_explicit_transpose() {
        use crate::types::Transpose;
        let (m, n, k) = (48, 40, 32);
        let a_stored: Vec<f32> = (0..k * m).map(|i| ((i * 7 % 23) as f32) - 11.0).collect(); // k×m (A^T layout)
        let b_stored: Vec<f32> = (0..n * k).map(|i| ((i * 5 % 19) as f32) - 9.0).collect(); // n×k (B^T layout)
        let c: Vec<f32> = (0..m * n).map(|i| (i % 3) as f32).collect();

        let desc = GemmDesc {
            trans_a: Transpose::Trans,
            trans_b: Transpose::Trans,
            ..GemmDesc::new(GemmOp::Sgemm, m, n, k, 1.0, 1.0)
        };
        let mut d = vec![0.0f32; m * n];
        run_functional::<f32, f32, f32>(
            &desc,
            &select_strategy(&desc),
            &a_stored,
            &b_stored,
            &c,
            &mut d,
        )
        .unwrap();

        // Explicitly transpose and run the plain path.
        let mut a_plain = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                a_plain[i * k + p] = a_stored[p * m + i];
            }
        }
        let mut b_plain = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                b_plain[p * n + j] = b_stored[j * k + p];
            }
        }
        let plain = GemmDesc::new(GemmOp::Sgemm, m, n, k, 1.0, 1.0);
        let mut d_plain = vec![0.0f32; m * n];
        run_functional::<f32, f32, f32>(
            &plain,
            &select_strategy(&plain),
            &a_plain,
            &b_plain,
            &c,
            &mut d_plain,
        )
        .unwrap();
        assert_eq!(d, d_plain);

        // And both agree with the f64 reference for these exact inputs.
        let af: Vec<f64> = a_stored.iter().map(|&x| f64::from(x)).collect();
        let bf: Vec<f64> = b_stored.iter().map(|&x| f64::from(x)).collect();
        let cf: Vec<f64> = c.iter().map(|&x| f64::from(x)).collect();
        let mut df = vec![0.0f64; m * n];
        gemm_reference_f64(&desc, &af, &bf, &cf, &mut df).unwrap();
        for (got, want) in d.iter().zip(&df) {
            assert_eq!(f64::from(*got), *want);
        }
    }

    /// The strided in-place entry on a block of a wider matrix gives
    /// the dense entry's bits and leaves the rest of the matrix alone.
    #[test]
    fn in_place_strided_block_matches_dense_entry() {
        let (m, n, k, ld) = (9, 7, 5, 12);
        let desc = GemmDesc::new(GemmOp::Dgemm, m, n, k, -1.0, 1.0);
        let strategy = select_strategy(&desc);
        let a: Vec<f64> = (0..m * k).map(|i| (i % 7) as f64 / 3.0 - 1.0).collect();
        let b: Vec<f64> = (0..k * n).map(|i| (i % 5) as f64 / 7.0 - 0.5).collect();
        let wide: Vec<f64> = (0..m * ld).map(|i| (i % 11) as f64 / 5.0).collect();
        let c: Vec<f64> = (0..m * n).map(|i| wide[(i / n) * ld + 2 + i % n]).collect();
        let mut want = vec![0.0f64; m * n];
        run_functional::<f64, f64, f64>(&desc, &strategy, &a, &b, &c, &mut want).unwrap();
        let mut got = wide.clone();
        run_functional_in_place_with::<f64, f64, f64>(
            &crate::select::host_gemm_backend(),
            &desc,
            &strategy,
            (k, n, ld),
            &a,
            &b,
            &mut got[2..],
        )
        .unwrap();
        for (at, (&x, &before)) in got.iter().zip(&wide).enumerate() {
            let (i, j) = (at / ld, at % ld);
            if (2..2 + n).contains(&j) {
                assert_eq!(x.to_bits(), want[i * n + j - 2].to_bits(), "({i},{j})");
            } else {
                assert_eq!(x, before, "({i},{j}) outside the block");
            }
        }
    }

    #[test]
    fn buffer_validation() {
        let desc = GemmDesc::square(GemmOp::Sgemm, 16);
        let short = vec![0.0f32; 10];
        let ok = vec![0.0f32; 256];
        let mut d = vec![0.0f32; 256];
        let e = run_functional::<f32, f32, f32>(
            &desc,
            &select_strategy(&desc),
            &short,
            &ok,
            &ok,
            &mut d,
        );
        assert!(matches!(
            e,
            Err(BlasError::BufferTooSmall { operand: "A", .. })
        ));
    }
}
