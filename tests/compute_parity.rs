//! ULP-parity tests for the packed `mc-compute` GEMM kernels.
//!
//! The optimization contract (docs/PERFORMANCE.md) is that the packed
//! tiers — the scalar blocked kernel and the explicit-SIMD tier with
//! every microkernel the host supports — reorder *loops*, never the
//! per-element rounding chain: for every dtype combination the result
//! is bitwise-identical to the retained naive reference — trivially
//! within the 2-ULP acceptance band — for any shape, transpose pair,
//! scaling, epilogue, and worker thread count. A golden test
//! additionally pins the reduction order itself against committed
//! output bits, so a contract change cannot hide behind all tiers
//! drifting together.
//!
//! The one exception is NaN payloads: where both factors of a product
//! are NaN, `Naive` keeps the first factor's payload and the packed
//! tiers the second's. There the contract is only that every tier is
//! NaN exactly where `Naive` is
//! (`distinct_nan_payloads_are_nan_exactly_where_naive_is`).

use amd_matrix_cores::blas::{
    run_functional_in_place_with, select_strategy, BlasError, GemmDesc, GemmOp, Transpose,
};
use amd_matrix_cores::compute::{
    gemm_i8, gemm_i8_reference, Auto, Blocked, ComputeError, Epilogue, GemmParams, MatMul, Naive,
    Simd, SimdMode, Trans,
};
use amd_matrix_cores::types::{ulp_distance_f32, Bf16, Real, F16};
use proptest::prelude::*;

/// Deterministic fill on a 0.25-step grid in [-4, 4]: every value is
/// exactly representable in all five element types, so inputs are
/// identical across dtype combinations too.
fn lcg_fill<T: Real>(len: usize, mut state: u64) -> Vec<T> {
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            T::from_f64(((state >> 33) % 33) as f64 / 4.0 - 4.0)
        })
        .collect()
}

/// Runs one problem through both kernels and asserts bitwise equality
/// (via the exact `to_f64` injection) on every output element.
#[allow(clippy::too_many_arguments)]
fn assert_parity<AB: Real, CD: Real, CT: Real>(
    m: usize,
    n: usize,
    k: usize,
    trans: (Trans, Trans),
    alpha: f64,
    beta: f64,
    epilogue: Epilogue,
    seed: u64,
) -> Result<(), TestCaseError> {
    let a = lcg_fill::<AB>(m * k, seed ^ 0xA11CE5);
    let b = lcg_fill::<AB>(k * n, seed ^ 0xB0B51ED);
    let c = lcg_fill::<CD>(m * n, seed ^ 0xCAFE);
    let params = GemmParams::new(m, n, k)
        .with_transposes(trans.0, trans.1)
        .with_scaling(alpha, beta)
        .with_epilogue(epilogue);

    let mut d_naive = vec![CD::zero(); m * n];
    Naive
        .gemm::<AB, CD, CT>(&params, &a, &b, &c, &mut d_naive)
        .expect("naive kernel accepts well-formed problems");

    // Every packed tier must match the naive chain bit for bit: the
    // scalar blocked kernel, and the SIMD tier once per kernel the host
    // supports (portable, AVX2, AVX-512), so a wide runner still covers
    // every narrower tile. Unsupported dtype pairings fall back to
    // Blocked inside Simd, which keeps the assertion honest for every
    // combination.
    let run = |backend: &dyn Fn(&mut [CD]) -> Result<(), ComputeError>| {
        let mut d = vec![CD::zero(); m * n];
        backend(&mut d).expect("packed tiers accept well-formed problems");
        d
    };
    let mut tiers = vec![(
        "blocked".to_owned(),
        run(&|d| Blocked.gemm::<AB, CD, CT>(&params, &a, &b, &c, d)),
    )];
    for mode in SimdMode::available() {
        tiers.push((
            format!("simd-{}", mode.name()),
            run(&|d| Simd::with_mode(mode).gemm::<AB, CD, CT>(&params, &a, &b, &c, d)),
        ));
    }
    for (tier, d_tier) in &tiers {
        for (i, (x, y)) in d_naive.iter().zip(d_tier).enumerate() {
            prop_assert_eq!(
                x.to_f64().to_bits(),
                y.to_f64().to_bits(),
                "{}x{}x{} {:?} element {}: naive {:?} vs {} {:?}",
                m,
                n,
                k,
                params.epilogue,
                i,
                x,
                tier,
                y
            );
        }
    }
    Ok(())
}

const TRANS: [(Trans, Trans); 4] = [
    (Trans::None, Trans::None),
    (Trans::Trans, Trans::None),
    (Trans::None, Trans::Trans),
    (Trans::Trans, Trans::Trans),
];

const EPILOGUES: [Epilogue; 2] = [Epilogue::Direct, Epilogue::ComputeRounded];

proptest! {
    /// f64 accumulation: random odd shapes (k = 0 included), all four
    /// transpose pairs, both epilogues.
    #[test]
    fn dgemm_parity(
        m in 1usize..24, n in 1usize..24, k in 0usize..24,
        t in 0usize..4, e in 0usize..2, seed in any::<u64>(),
    ) {
        assert_parity::<f64, f64, f64>(m, n, k, TRANS[t], 1.25, -0.5, EPILOGUES[e], seed)?;
    }

    /// f32 accumulation.
    #[test]
    fn sgemm_parity(
        m in 1usize..24, n in 1usize..24, k in 0usize..24,
        t in 0usize..4, e in 0usize..2, seed in any::<u64>(),
    ) {
        assert_parity::<f32, f32, f32>(m, n, k, TRANS[t], 1.0, 1.0, EPILOGUES[e], seed)?;
    }

    /// HHS: f16 inputs and outputs, f32 compute type (the paper's
    /// Matrix Core mixed-precision path).
    #[test]
    fn hhs_parity(
        m in 1usize..20, n in 1usize..20, k in 0usize..20,
        t in 0usize..4, e in 0usize..2, seed in any::<u64>(),
    ) {
        assert_parity::<F16, F16, f32>(m, n, k, TRANS[t], 1.0, 0.5, EPILOGUES[e], seed)?;
    }

    /// Pure f16 chain (HGEMM's per-step rounding).
    #[test]
    fn hgemm_parity(
        m in 1usize..20, n in 1usize..20, k in 0usize..20,
        t in 0usize..4, seed in any::<u64>(),
    ) {
        assert_parity::<F16, F16, F16>(m, n, k, TRANS[t], 1.0, 0.0, Epilogue::Direct, seed)?;
    }

    /// bf16 inputs accumulating into f32.
    #[test]
    fn bf16_parity(
        m in 1usize..20, n in 1usize..20, k in 0usize..20,
        t in 0usize..4, e in 0usize..2, seed in any::<u64>(),
    ) {
        assert_parity::<Bf16, f32, f32>(m, n, k, TRANS[t], 1.0, 1.0, EPILOGUES[e], seed)?;
    }

    /// int8: the blocked integer kernel is exact (i32 accumulation is
    /// order-free), so it must match the reference everywhere.
    #[test]
    fn int8_parity(
        m in 1usize..24, n in 1usize..24, k in 0usize..24, seed in any::<u64>(),
    ) {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 56) as i8
        };
        let a: Vec<i8> = (0..m * k).map(|_| next()).collect();
        let b: Vec<i8> = (0..k * n).map(|_| next()).collect();
        let mut d = vec![0i32; m * n];
        let mut d_ref = vec![0i32; m * n];
        gemm_i8(m, n, k, &a, &b, &mut d).expect("blocked int8");
        gemm_i8_reference(m, n, k, &a, &b, &mut d_ref).expect("reference int8");
        prop_assert_eq!(d, d_ref);
    }
}

/// Shapes that straddle every blocking boundary (MC = 64, NC = 128,
/// KC = 256) stay bitwise-equal, and the f32 case also passes the
/// acceptance criterion stated in ULP terms.
#[test]
fn block_boundary_shapes_are_bitwise_equal() {
    for &(m, n, k) in &[(65, 129, 257), (64, 128, 256), (63, 127, 255), (1, 1, 1)] {
        assert_parity::<f32, f32, f32>(
            m,
            n,
            k,
            (Trans::None, Trans::None),
            1.0,
            1.0,
            Epilogue::ComputeRounded,
            0x5EED,
        )
        .unwrap();
        assert_parity::<f64, f64, f64>(
            m,
            n,
            k,
            (Trans::Trans, Trans::None),
            -1.0,
            1.0,
            Epilogue::Direct,
            0x5EED,
        )
        .unwrap();
    }
}

/// The acceptance criterion phrased exactly as stated: every f32 output
/// element within 2 ULP of the reference (bitwise equality implies 0).
#[test]
fn f32_outputs_within_two_ulp() {
    let (m, n, k) = (65, 33, 129);
    let a = lcg_fill::<f32>(m * k, 7);
    let b = lcg_fill::<f32>(k * n, 11);
    let c = lcg_fill::<f32>(m * n, 13);
    let params = GemmParams::new(m, n, k).with_epilogue(Epilogue::ComputeRounded);
    let mut d_naive = vec![0.0f32; m * n];
    let mut d_blocked = vec![0.0f32; m * n];
    Naive
        .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d_naive)
        .unwrap();
    Blocked
        .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d_blocked)
        .unwrap();
    for (x, y) in d_naive.iter().zip(&d_blocked) {
        assert!(ulp_distance_f32(*x, *y) <= 2, "{x} vs {y}");
    }
}

/// Results are invariant under the rayon worker count: re-sizing the
/// global pool between runs must not change a single bit. (The stub
/// pool honors the most recent `build_global`, which is what makes this
/// testable in-process.)
#[test]
fn thread_count_does_not_change_results() {
    let (m, n, k) = (130, 70, 300);
    let a = lcg_fill::<f32>(m * k, 101);
    let b = lcg_fill::<f32>(k * n, 103);
    let c = lcg_fill::<f32>(m * n, 107);
    let params = GemmParams::new(m, n, k).with_epilogue(Epilogue::ComputeRounded);

    let run = |threads: usize, simd: Option<SimdMode>| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("pool rebuild");
        let mut d = vec![0.0f32; m * n];
        match simd {
            Some(mode) => Simd::with_mode(mode)
                .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d)
                .unwrap(),
            None => Blocked
                .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d)
                .unwrap(),
        }
        d.into_iter().map(f32::to_bits).collect::<Vec<u32>>()
    };

    let kernels = std::iter::once(None).chain(SimdMode::available().into_iter().map(Some));
    for simd in kernels {
        let single = run(1, simd);
        let quad = run(4, simd);
        let eight = run(8, simd);
        assert_eq!(single, quad, "simd={simd:?}");
        assert_eq!(single, eight, "simd={simd:?}");
    }
}

/// Deterministic pseudo-random fill in [-1, 1) (xorshift64*): full
/// mantissas, so products and partial sums are inexact and the
/// rounding chain's *order* shows up in the output bits.
fn xorshift_fill(buf: &mut [f32], mut state: u64) {
    for v in buf.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let mantissa = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f64;
        *v = (mantissa / (1u64 << 23) as f64 * 2.0 - 1.0) as f32;
    }
}

/// Golden pin of the reduction-order contract: the FNV-1a hash of the
/// output bits of a fixed inexact-arithmetic problem, committed as a
/// constant. Cross-tier parity alone cannot catch every regression —
/// if someone reorders the per-element chain in *all* kernels at once
/// (say, swaps the ascending-k order for a tree reduction), the tiers
/// still agree with each other; this pin fails instead. The constant
/// is machine-independent: scalar f32 arithmetic through the exact
/// `to_f64` chain is IEEE-defined, and the SIMD lanes are independent
/// columns of the same chain.
#[test]
fn golden_reduction_order_is_pinned() {
    let (m, n, k) = (48, 40, 72);
    let mut a = vec![0.0f32; m * k];
    let mut b = vec![0.0f32; k * n];
    let mut c = vec![0.0f32; m * n];
    xorshift_fill(&mut a, 0x9E37_79B9_7F4A_7C15);
    xorshift_fill(&mut b, 0xD1B5_4A32_D192_ED03);
    xorshift_fill(&mut c, 0x1234_5678_9ABC_DEF0);
    let params = GemmParams::new(m, n, k)
        .with_scaling(1.25, -0.5)
        .with_epilogue(Epilogue::ComputeRounded);

    let fnv = |d: &[f32]| {
        let mut h: u64 = 0xcbf29ce484222325;
        for v in d {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    };

    const GOLDEN: u64 = 0x3b33_151a_e852_55e7;
    let run = |backend: &dyn Fn(&mut [f32])| {
        let mut d = vec![0.0f32; m * n];
        backend(&mut d);
        d
    };
    let mut tiers = vec![
        (
            "naive".to_owned(),
            run(&|d| Naive.gemm::<f32, f32, f32>(&params, &a, &b, &c, d).unwrap()),
        ),
        (
            "blocked".to_owned(),
            run(&|d| {
                Blocked
                    .gemm::<f32, f32, f32>(&params, &a, &b, &c, d)
                    .unwrap()
            }),
        ),
    ];
    for mode in SimdMode::available() {
        tiers.push((
            format!("simd-{}", mode.name()),
            run(&|d| {
                Simd::with_mode(mode)
                    .gemm::<f32, f32, f32>(&params, &a, &b, &c, d)
                    .unwrap()
            }),
        ));
    }
    for (tier, out) in tiers {
        assert_eq!(
            fnv(&out),
            GOLDEN,
            "{tier}: the per-element reduction order changed"
        );
    }
}

/// The one exception to the contract: NaN payloads. When both factors
/// of a product are NaN, `Naive` keeps `A`'s payload and the packed
/// tiers keep `B`'s; Rust and LLVM leave NaN payloads unspecified, so no
/// operand order is forced. Every tier must still be NaN exactly where
/// `Naive` is, and bit-equal to it everywhere else.
#[test]
fn distinct_nan_payloads_are_nan_exactly_where_naive_is() {
    let (m, n, k) = (70, 67, 45);
    let mut a: Vec<f32> = lcg_fill(m * k, 0xA11CE5);
    let mut b: Vec<f32> = lcg_fill(k * n, 0xB0B51ED);
    let c: Vec<f32> = lcg_fill(m * n, 0xCAFE);
    let (nan_a, nan_b) = (f32::from_bits(0x7fc0_0a0a), f32::from_bits(0xffc0_0b0b));
    // NaN·NaN at D[3][5] (both factors at p = 4) and D[40][60] (p = 44);
    // one NaN factor along rows 17 and 66 and columns 20 and 33.
    for (i, p) in [(3, 4), (40, 44), (17, 10), (66, 0)] {
        a[i * k + p] = nan_a;
    }
    for (p, j) in [(4, 5), (44, 60), (2, 20), (30, 33)] {
        b[p * n + j] = nan_b;
    }
    for epilogue in EPILOGUES {
        let params = GemmParams::new(m, n, k)
            .with_scaling(1.25, -0.5)
            .with_epilogue(epilogue);
        let run = |backend: &dyn Fn(&mut [f32])| {
            let mut d = vec![0.0f32; m * n];
            backend(&mut d);
            d
        };
        let naive = run(&|d| Naive.gemm::<f32, f32, f32>(&params, &a, &b, &c, d).unwrap());
        let nan_rows = [3, 40, 17, 66];
        let nan_cols = [5, 60, 20, 33];
        for (at, x) in naive.iter().enumerate() {
            let on_cross = nan_rows.contains(&(at / n)) || nan_cols.contains(&(at % n));
            assert_eq!(x.is_nan(), on_cross, "naive element {at}");
        }

        let mut tiers = vec![(
            "blocked".to_owned(),
            run(&|d| {
                Blocked
                    .gemm::<f32, f32, f32>(&params, &a, &b, &c, d)
                    .unwrap()
            }),
        )];
        for mode in SimdMode::available() {
            tiers.push((
                format!("simd-{}", mode.name()),
                run(&|d| {
                    Simd::with_mode(mode)
                        .gemm::<f32, f32, f32>(&params, &a, &b, &c, d)
                        .unwrap()
                }),
            ));
        }
        tiers.push((
            "auto".to_owned(),
            run(&|d| {
                Auto::from_env()
                    .gemm::<f32, f32, f32>(&params, &a, &b, &c, d)
                    .unwrap()
            }),
        ));
        for (tier, d) in &tiers {
            for (at, (x, y)) in naive.iter().zip(d).enumerate() {
                if x.is_nan() {
                    assert!(
                        y.is_nan(),
                        "{tier} {epilogue:?} element {at}: {y} where naive is NaN"
                    );
                } else {
                    assert_eq!(x.to_bits(), y.to_bits(), "{tier} {epilogue:?} element {at}");
                }
            }
        }
    }
}

/// Stored `(rows, width)` of an operand that is `rows×width` as used,
/// or its transpose when `trans` is set.
fn stored(trans: Trans, rows: usize, width: usize) -> (usize, usize) {
    match trans {
        Trans::None => (rows, width),
        Trans::Trans => (width, rows),
    }
}

/// Elements a `rows×width` view at leading dimension `ld` spans.
fn span(rows: usize, width: usize, ld: usize) -> usize {
    if rows == 0 || width == 0 {
        0
    } else {
        (rows - 1) * ld + width
    }
}

/// Copies a dense `rows×width` operand into a view at leading
/// dimension `ld`, with NaN in every element between its rows and in
/// `tail` extra elements after the last one: a NaN that reaches a
/// result shows that padding was read.
fn to_strided<T: Real>(dense: &[T], rows: usize, width: usize, ld: usize, tail: usize) -> Vec<T> {
    let mut out = vec![T::from_f64(f64::NAN); span(rows, width, ld) + tail];
    for r in (0..rows).filter(|_| width > 0) {
        out[r * ld..r * ld + width].copy_from_slice(&dense[r * width..(r + 1) * width]);
    }
    out
}

/// Checks a strided `m×n` result at `ldc` against the dense reference
/// bit for bit, and that every padding element is still NaN.
fn check_strided<T: Real>(
    got: &[T],
    want: &[T],
    (m, n, ldc): (usize, usize, usize),
    what: &str,
) -> Result<(), TestCaseError> {
    for (at, x) in got.iter().enumerate() {
        let (i, j) = (at / ldc, at % ldc);
        if i < m && j < n {
            prop_assert_eq!(
                x.to_f64().to_bits(),
                want[i * n + j].to_f64().to_bits(),
                "{} element ({}, {})",
                what,
                i,
                j
            );
        } else {
            prop_assert!(x.to_f64().is_nan(), "{} wrote padding at {}", what, at);
        }
    }
    Ok(())
}

/// Every tier on strided views, out of place and in place, at pool
/// sizes 1–3, against `Naive` on the dense operands. `pads` are the
/// extra elements each leading dimension adds to its operand's width.
#[allow(clippy::too_many_arguments)]
fn assert_strided_parity<AB: Real, CD: Real, CT: Real>(
    m: usize,
    n: usize,
    k: usize,
    trans: (Trans, Trans),
    pads: (usize, usize, usize),
    epilogue: Epilogue,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (a_rows, a_width) = stored(trans.0, m, k);
    let (b_rows, b_width) = stored(trans.1, k, n);
    let (lda, ldb, ldc) = (a_width + pads.0, b_width + pads.1, n + pads.2);
    let a = lcg_fill::<AB>(a_rows * a_width, seed ^ 0xA11CE5);
    let b = lcg_fill::<AB>(b_rows * b_width, seed ^ 0xB0B51ED);
    let c = lcg_fill::<CD>(m * n, seed ^ 0xCAFE);
    let dense = GemmParams::new(m, n, k)
        .with_transposes(trans.0, trans.1)
        .with_scaling(0.75, -1.25)
        .with_epilogue(epilogue);
    let mut want = vec![CD::zero(); m * n];
    Naive
        .gemm::<AB, CD, CT>(&dense, &a, &b, &c, &mut want)
        .expect("dense reference");

    let params = dense.with_leading_dims(lda, ldb, ldc);
    let a_s = to_strided(&a, a_rows, a_width, lda, pads.0);
    let b_s = to_strided(&b, b_rows, b_width, ldb, pads.1);
    let c_s = to_strided(&c, m, n, ldc, pads.2);
    let shape = (m, n, ldc);

    fn both<B: MatMul, AB: Real, CD: Real, CT: Real>(
        backend: &B,
        params: &GemmParams,
        (a, b, c): (&[AB], &[AB], &[CD]),
        want: &[CD],
        shape: (usize, usize, usize),
        tier: &str,
    ) -> Result<(), TestCaseError> {
        let mut d = vec![CD::from_f64(f64::NAN); c.len()];
        backend
            .gemm::<AB, CD, CT>(params, a, b, c, &mut d)
            .expect("strided views are well formed");
        check_strided(&d, want, shape, &format!("{tier} out of place"))?;
        let mut cd = c.to_vec();
        backend
            .gemm_in_place::<AB, CD, CT>(params, a, b, &mut cd)
            .expect("strided views are well formed");
        check_strided(&cd, want, shape, &format!("{tier} in place"))
    }

    let ops = (a_s.as_slice(), b_s.as_slice(), c_s.as_slice());
    for workers in 1..=3 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build_global()
            .expect("pool rebuild");
        let at = |tier: &str| format!("{tier} at {workers} worker(s)");
        both::<_, AB, CD, CT>(&Naive, &params, ops, &want, shape, &at("naive"))?;
        both::<_, AB, CD, CT>(&Blocked, &params, ops, &want, shape, &at("blocked"))?;
        let auto = Auto::from_env();
        both::<_, AB, CD, CT>(&auto, &params, ops, &want, shape, &at("auto"))?;
        for mode in SimdMode::available() {
            let simd = Simd::with_mode(mode);
            let tier = at(&format!("simd-{}", mode.name()));
            both::<_, AB, CD, CT>(&simd, &params, ops, &want, shape, &tier)?;
        }
    }
    Ok(())
}

proptest! {
    /// f64 and f32 chains on random strided views: every leading
    /// dimension at or above its width, all four transpose pairs, both
    /// epilogues, in place and out of place, pool sizes 1–3.
    #[test]
    fn strided_views_match_dense_naive(
        m in 1usize..20, n in 1usize..20, k in 0usize..20,
        pa in 0usize..5, pb in 0usize..5, pc in 0usize..5,
        t in 0usize..4, e in 0usize..2, seed in any::<u64>(),
    ) {
        let pads = (pa, pb, pc);
        assert_strided_parity::<f64, f64, f64>(m, n, k, TRANS[t], pads, EPILOGUES[e], seed)?;
        assert_strided_parity::<f32, f32, f32>(m, n, k, TRANS[t], pads, EPILOGUES[e], seed)?;
        assert_strided_parity::<F16, F16, f32>(m, n, k, TRANS[t], pads, EPILOGUES[e], seed)?;
    }
}

/// Strided views across the blocking boundaries (MC, NC, KC) and the
/// per-worker row chunks, with the solver's own trailing-update shape:
/// A transposed from a column-major panel, B and C/D rows of a wider
/// matrix. The two 13-row shapes sit just either side of the packed
/// driver's 32³ serial rule (32 760 and 33 280 multiply-adds), so a
/// ragged `m` is checked as one chunk and as two at pool sizes 2–3.
#[test]
fn strided_views_straddle_block_boundaries() {
    for (m, n, k) in [
        (65, 129, 257),
        (130, 70, 64),
        (7, 300, 33),
        (13, 40, 63),
        (13, 40, 64),
    ] {
        for t in TRANS {
            assert_strided_parity::<f64, f64, f64>(m, n, k, t, (3, 5, 11), Epilogue::Direct, 9)
                .unwrap();
        }
        assert_strided_parity::<f32, f32, f32>(
            m,
            n,
            k,
            (Trans::Trans, Trans::None),
            (1, 0, 2),
            Epilogue::ComputeRounded,
            17,
        )
        .unwrap();
    }
}

/// What the buffer check must decide for one strided problem: `Ok`,
/// or the operand it rejects.
fn expected_check(
    (m, n, k): (usize, usize, usize),
    trans: (Trans, Trans),
    (lda, ldb, ldc): (usize, usize, usize),
    (a, b, cd): (usize, usize, usize),
) -> Result<(), &'static str> {
    let (ar, aw) = stored(trans.0, m, k);
    let (br, bw) = stored(trans.1, k, n);
    let ops = [
        ("A", ar, aw, lda, a),
        ("B", br, bw, ldb, b),
        ("D", m, n, ldc, cd),
    ];
    // Operand by operand: the first view that is too narrow or too
    // long for its buffer.
    match ops
        .iter()
        .find(|&&(_, rows, width, ld, len)| ld < width || len < span(rows, width, ld))
    {
        Some(op) => Err(op.0),
        None => Ok(()),
    }
}

/// Runs one problem through every tier's in-place entry and the
/// `mc-blas` strided entry; each must return `want` (`Ok`, or an error
/// naming the operand) and none may panic.
fn assert_check_everywhere(
    (m, n, k): (usize, usize, usize),
    trans: (Trans, Trans),
    ld: (usize, usize, usize),
    (a_len, b_len, cd_len): (usize, usize, usize),
) -> Result<(), TestCaseError> {
    let want = expected_check((m, n, k), trans, ld, (a_len, b_len, cd_len));
    let a = vec![0.5f64; a_len];
    let b = vec![-0.25f64; b_len];
    let params = GemmParams::new(m, n, k)
        .with_transposes(trans.0, trans.1)
        .with_leading_dims(ld.0, ld.1, ld.2);
    let operand = |e: ComputeError| match e {
        ComputeError::BufferTooSmall { operand, .. } => operand,
        ComputeError::LeadingDimension { operand, .. } => operand,
    };
    let mut outcomes: Vec<(String, Result<(), &'static str>)> = Vec::new();
    let mut run = |tier: String, f: &dyn Fn(&mut [f64]) -> Result<(), ComputeError>| {
        let mut cd = vec![1.0f64; cd_len];
        outcomes.push((tier, f(&mut cd).map_err(operand)));
    };
    run("naive".into(), &|cd| {
        Naive.gemm_in_place::<f64, f64, f64>(&params, &a, &b, cd)
    });
    run("blocked".into(), &|cd| {
        Blocked.gemm_in_place::<f64, f64, f64>(&params, &a, &b, cd)
    });
    for mode in SimdMode::available() {
        run(format!("simd-{}", mode.name()), &|cd| {
            Simd::with_mode(mode).gemm_in_place::<f64, f64, f64>(&params, &a, &b, cd)
        });
    }
    for (tier, got) in outcomes {
        prop_assert_eq!(got, want, "{} m={} n={} k={} ld={:?}", tier, m, n, k, ld);
    }

    // The library entry adds the descriptor check: every dimension
    // must be nonzero.
    let tr = |t: Trans| match t {
        Trans::None => Transpose::None,
        Trans::Trans => Transpose::Trans,
    };
    let desc = GemmDesc {
        trans_a: tr(trans.0),
        trans_b: tr(trans.1),
        ..GemmDesc::new(GemmOp::Dgemm, m, n, k, 1.0, 1.0)
    };
    // The planner needs nonzero dimensions; any strategy serves here.
    let strategy = select_strategy(&GemmDesc::new(
        GemmOp::Dgemm,
        m.max(1),
        n.max(1),
        k.max(1),
        1.0,
        1.0,
    ));
    let mut cd = vec![1.0f64; cd_len];
    let got = run_functional_in_place_with::<f64, f64, f64>(
        &Auto::from_env(),
        &desc,
        &strategy,
        ld,
        &a,
        &b,
        &mut cd,
    );
    match got {
        Err(BlasError::InvalidDimension { .. }) => prop_assert!(m == 0 || n == 0 || k == 0),
        Err(BlasError::BufferTooSmall { operand, .. })
        | Err(BlasError::LeadingDimension { operand, .. }) => {
            prop_assert!(m > 0 && n > 0 && k > 0);
            prop_assert_eq!(Err(operand), want, "mc-blas m={} n={} k={}", m, n, k);
        }
        Ok(()) => prop_assert_eq!(Ok(()), want, "mc-blas m={} n={} k={}", m, n, k),
        Err(other) => prop_assert!(false, "unexpected error {}", other),
    }
    Ok(())
}

/// A leading dimension below its operand's width is an error at every
/// entry, whatever the buffer lengths.
#[test]
fn narrow_leading_dimensions_are_errors_everywhere() {
    let none = (Trans::None, Trans::None);
    let big = (10_000, 10_000, 10_000);
    for (ld, operand) in [((4, 9, 9), "A"), ((7, 8, 9), "B"), ((7, 9, 8), "D")] {
        assert_eq!(expected_check((6, 9, 7), none, ld, big), Err(operand));
        assert_check_everywhere((6, 9, 7), none, ld, big).unwrap();
    }
    // Transposed, the stored widths swap: A is 7×6, B is 9×7.
    let tt = (Trans::Trans, Trans::Trans);
    assert_eq!(expected_check((6, 9, 7), tt, (5, 7, 9), big), Err("A"));
    assert_check_everywhere((6, 9, 7), tt, (5, 7, 9), big).unwrap();
}

/// A buffer one element shorter than its strided view is an error at
/// every entry; the exact length is accepted.
#[test]
fn short_strided_buffers_are_errors_everywhere() {
    let (shape, ld) = ((6, 9, 7), (10, 12, 13));
    let none = (Trans::None, Trans::None);
    let exact = (5 * 10 + 7, 6 * 12 + 9, 5 * 13 + 9);
    assert_eq!(expected_check(shape, none, ld, exact), Ok(()));
    assert_check_everywhere(shape, none, ld, exact).unwrap();
    for (short, operand) in [
        ((exact.0 - 1, exact.1, exact.2), "A"),
        ((exact.0, exact.1 - 1, exact.2), "B"),
        ((exact.0, exact.1, exact.2 - 1), "D"),
    ] {
        assert_eq!(expected_check(shape, none, ld, short), Err(operand));
        assert_check_everywhere(shape, none, ld, short).unwrap();
    }
}

proptest! {
    /// Random shapes, leading dimensions and buffer lengths: every
    /// entry returns `Ok` exactly when the views fit, an error naming
    /// the operand otherwise, and never panics.
    #[test]
    fn strided_buffer_checks_never_panic(
        m in 0usize..8, n in 0usize..8, k in 0usize..8,
        lda in 0usize..12, ldb in 0usize..12, ldc in 0usize..12,
        a_len in 0usize..96, b_len in 0usize..96, cd_len in 0usize..96,
        t in 0usize..4,
    ) {
        assert_check_everywhere(
            (m, n, k),
            TRANS[t],
            (lda, ldb, ldc),
            (a_len, b_len, cd_len),
        )?;
    }
}
