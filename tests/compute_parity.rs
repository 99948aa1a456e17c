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

use amd_matrix_cores::compute::{
    gemm_i8, gemm_i8_reference, Blocked, ComputeError, Epilogue, GemmParams, MatMul, Naive, Simd,
    SimdMode, Trans,
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
