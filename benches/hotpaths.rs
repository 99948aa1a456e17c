//! `cargo bench` smoke target for the hot compute paths.
//!
//! Kept deliberately small (256³ problems) so it doubles as a CI smoke
//! test; the `perf` experiment in `mc-bench` is the full measurement
//! that writes `BENCH_hotpaths.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use mc_compute::{Blocked, GemmParams, MatMul, Naive, Simd, SimdMode};

fn fill(len: usize, seed: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * seed + 3) % 17) as f32 / 8.0 - 1.0)
        .collect()
}

fn bench_gemm(c: &mut Criterion) {
    let n = 256;
    let p = GemmParams::new(n, n, n);
    let a = fill(n * n, 7);
    let b = fill(n * n, 13);
    let cc = vec![0.0f32; n * n];
    let mut d = vec![0.0f32; n * n];

    c.bench_function("sgemm_256_naive", |bench| {
        bench.iter(|| {
            Naive
                .gemm::<f32, f32, f32>(&p, &a, &b, &cc, &mut d)
                .unwrap();
            d[0]
        })
    });
    c.bench_function("sgemm_256_blocked", |bench| {
        bench.iter(|| {
            Blocked
                .gemm::<f32, f32, f32>(&p, &a, &b, &cc, &mut d)
                .unwrap();
            d[0]
        })
    });
    // One cell per kernel the runner supports (portable, AVX2,
    // AVX-512), each named after its ISA so a criterion history never
    // mixes kernels.
    for mode in SimdMode::available() {
        let simd = Simd::with_mode(mode);
        c.bench_function(format!("sgemm_256_simd_{}", mode.name()), |bench| {
            bench.iter(|| {
                simd.gemm::<f32, f32, f32>(&p, &a, &b, &cc, &mut d).unwrap();
                d[0]
            })
        });
    }
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
