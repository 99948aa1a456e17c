//! Gating CI smoke for the SIMD microkernel tier.
//!
//! Asserts the load-bearing properties of the tier at the bench
//! matrix's headline cell (1024³, one thread, f32): the dispatch
//! actually selects it, it runs the widest kernel the CPU has (the
//! AVX-512 tile on an `avx512f` host, so a detection regression that
//! silently falls back to AVX2 fails here), and it beats the scalar
//! blocked kernel by at least 1.5× (`perf`'s 1024³ cells show ~9×, so
//! 1.5× is a regression tripwire, not a target). On a runner
//! without AVX2 the vector tier cannot run; the test prints a notice
//! and passes, so the gate only ever fails for a real regression.
//!
//! Both tiers are timed through `mc_bench::measure`, the one host
//! timer, on its seeded operands; each reports its fastest sample.
//!
//! The test is `#[ignore]`d because it times a full-dimension GEMM;
//! CI runs it explicitly with `-- --ignored`.

use amd_matrix_cores::compute::{Blocked, Epilogue, GemmParams, MatMul, Simd, SimdMode, SIMD_ENV};
use mc_bench::measure::{operands, sample};

#[test]
#[ignore = "full-dimension perf smoke; CI runs it with -- --ignored"]
fn simd_tier_is_selected_and_beats_blocked_at_1024() {
    if !Simd::vector_available() {
        eprintln!("notice: runner lacks AVX2 and AVX-512F — SIMD smoke skipped");
        return;
    }
    if !Simd::enabled_from_env() {
        eprintln!("notice: {SIMD_ENV} override in force — SIMD smoke skipped");
        return;
    }
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global();

    let n = 1024;
    let params = GemmParams::new(n, n, n).with_epilogue(Epilogue::ComputeRounded);
    let auto = amd_matrix_cores::blas::select::host_gemm_backend();
    assert_eq!(
        auto.routed_name::<f32, f32>(&params),
        "simd",
        "the dispatch must put the SIMD tier on top at N={n}"
    );

    let isa = Simd::from_env().isa();
    eprintln!("simd_smoke: SIMD tier runs the {} kernel", isa.name());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        assert_eq!(
            isa,
            SimdMode::Avx512,
            "host has avx512f but the dispatch picked {isa:?}"
        );
    }

    let (a, b) = operands(n);
    let c = vec![0.0f32; n * n];
    let mut d_blocked = vec![0.0f32; n * n];
    let mut d_simd = vec![0.0f32; n * n];
    let blocked_s = sample(|| {
        Blocked
            .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d_blocked)
            .unwrap();
    })
    .min();
    let simd_s = sample(|| {
        Simd::from_env()
            .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d_simd)
            .unwrap();
    })
    .min();

    // Same rounding chain, different loop order: the speedup must not
    // come at the cost of a single bit.
    assert!(
        d_blocked
            .iter()
            .zip(&d_simd)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "SIMD tier diverged from the blocked kernel"
    );
    assert!(
        simd_s * 1.5 <= blocked_s,
        "SIMD tier must be >= 1.5x the blocked kernel at {n}^3/1-thread f32: \
         simd {simd_s:.4}s vs blocked {blocked_s:.4}s ({:.2}x)",
        blocked_s / simd_s
    );
}
