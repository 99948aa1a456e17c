//! Steady-state packing-buffer reuse across a batched GEMM.
//!
//! The `mc-compute` packed tiers draw their panel and accumulator
//! scratch from a freelist pool ([`amd_matrix_cores::compute::acquire`]).
//! A strided-batched GEMM runs the same problem shape `batch_count`
//! times back to back, so after the first entry warms the freelists,
//! every later acquisition must be a hit: the steady-state allocation
//! count is zero. This test pins that invariant through the public
//! `rocblas_gemm_strided_batched_ex` surface, together with the
//! determinism contract (pool reuse must not change a single bit).

use amd_matrix_cores::blas::{BatchedGemmDesc, BlasHandle, GemmDesc, GemmOp};
use amd_matrix_cores::compute::{pool_stats, Epilogue, GemmParams};

/// Deterministic fill on a 0.25-step grid (exact in f32).
fn grid_fill(len: usize, mut state: u64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 33) as f32 / 4.0 - 4.0
        })
        .collect()
}

#[test]
fn batched_gemm_allocates_nothing_at_steady_state() {
    // Above every default crossover edge (SIMD 40, scalar 320), so the
    // batch runs on a packed tier with pooled scratch regardless of
    // which ladder is in force.
    let n = 384;
    let auto = amd_matrix_cores::blas::select::host_gemm_backend();
    let params = GemmParams::new(n, n, n).with_epilogue(Epilogue::ComputeRounded);
    if auto.routed_name::<f32, f32>(&params) == "naive" {
        eprintln!("notice: crossover override routes N={n} to naive; pool reuse not exercised");
        return;
    }

    let g = GemmDesc {
        alpha: 1.0,
        beta: 0.0,
        ..GemmDesc::square(GemmOp::Sgemm, n)
    };
    let batch = 4;
    let desc = BatchedGemmDesc::packed(g, batch);
    let a = grid_fill(batch * n * n, 0xA11CE5);
    let b = grid_fill(batch * n * n, 0xB0B51ED);
    let c = vec![0.0f32; batch * n * n];
    let mut h = BlasHandle::new_mi250x_gcd();

    // Warm-up pass: populates the freelists for every size class the
    // routed tier touches (panels and accumulators alike).
    let mut d_warm = vec![0.0f32; batch * n * n];
    h.gemm_strided_batched_ex::<f32, f32, f32>(&desc, &a, &b, &c, &mut d_warm)
        .expect("warm-up batch");

    // Steady state: every acquisition across the whole batch must be
    // served from a freelist — zero misses, zero fresh bytes.
    let before = pool_stats();
    let mut d_steady = vec![0.0f32; batch * n * n];
    h.gemm_strided_batched_ex::<f32, f32, f32>(&desc, &a, &b, &c, &mut d_steady)
        .expect("steady-state batch");
    let stats = pool_stats().since(&before);
    assert_eq!(
        stats.misses, 0,
        "steady-state allocator round-trips: {stats:?}"
    );
    assert_eq!(
        stats.allocated_bytes, 0,
        "steady-state fresh bytes: {stats:?}"
    );
    assert!(
        stats.hits > 0,
        "the packed tier must draw from the pool: {stats:?}"
    );
    assert_eq!(stats.hit_rate(), 1.0, "{stats:?}");

    // Reuse is invisible in the results: bit-for-bit identical runs.
    let warm_bits: Vec<u32> = d_warm.iter().map(|v| v.to_bits()).collect();
    let steady_bits: Vec<u32> = d_steady.iter().map(|v| v.to_bits()).collect();
    assert_eq!(warm_bits, steady_bits);
}
