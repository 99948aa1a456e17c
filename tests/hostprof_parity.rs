//! Host-profiling transparency tests.
//!
//! The `compute::prof` contract (docs/OBSERVABILITY.md, "Host plane")
//! is that attaching a profiling session is *observationally inert*:
//! the instrumented kernels time themselves around the arithmetic,
//! never inside the per-element rounding chain, so a traced run yields
//! bitwise-identical output to an untraced one — for every dispatch
//! tier and for the batched BLAS entry point. The second half pins the
//! structural side: whatever worker interleaving the rayon pool
//! produces, the converted host spans survive
//! [`mc_trace::check_invariants`] at every pool size the perf matrix
//! exercises.

use amd_matrix_cores::blas::{BatchedGemmDesc, BlasHandle, GemmDesc, GemmOp};
use amd_matrix_cores::compute::{prof, Auto, Epilogue, GemmParams, MatMul};
use amd_matrix_cores::hostprof::to_trace_events;
use amd_matrix_cores::trace::{check_invariants, Category, TraceEvent, Track};
use proptest::prelude::*;

/// Deterministic pseudo-random fill in [-1, 1) (xorshift64*): full
/// mantissas, so any perturbation of the rounding chain shows up in
/// the output bits.
fn xorshift_fill(buf: &mut [f32], mut state: u64) {
    for v in buf.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let mantissa = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f64;
        *v = (mantissa / (1u64 << 23) as f64 * 2.0 - 1.0) as f32;
    }
}

/// Runs one problem through the given dispatcher and returns the
/// output bits, optionally under an attached profiling session.
fn run_auto(auto: &Auto, m: usize, n: usize, k: usize, seed: u64, traced: bool) -> Vec<u32> {
    let mut a = vec![0.0f32; m * k];
    let mut b = vec![0.0f32; k * n];
    let mut c = vec![0.0f32; m * n];
    xorshift_fill(&mut a, seed ^ 0x9E37_79B9_7F4A_7C15);
    xorshift_fill(&mut b, seed ^ 0xD1B5_4A32_D192_ED03);
    xorshift_fill(&mut c, seed ^ 0x1234_5678_9ABC_DEF0);
    let mut d = vec![0.0f32; m * n];
    let params = GemmParams::new(m, n, k)
        .with_scaling(1.25, -0.5)
        .with_epilogue(Epilogue::ComputeRounded);
    if traced {
        let session = prof::session();
        auto.gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d)
            .expect("traced gemm");
        let profile = session.finish();
        assert!(
            !profile.events.is_empty(),
            "a traced dispatch must record at least the region event"
        );
    } else {
        auto.gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d)
            .expect("untraced gemm");
    }
    d.into_iter().map(f32::to_bits).collect()
}

/// The two routed tiers: the dispatcher as configured (SIMD where the
/// host supports it) and the same without SIMD, which pins the scalar
/// blocked tier.
fn tiers() -> [(&'static str, Auto); 2] {
    [
        ("blocked", Auto::from_env().without_simd()),
        ("packed", Auto::from_env()),
    ]
}

proptest! {
    /// Attaching a session never changes a single output bit, on any
    /// dispatch tier, for random shapes spanning the microkernel edge.
    #[test]
    fn traced_runs_are_bitwise_identical(
        m in 1usize..40, n in 1usize..40, k in 0usize..40, seed in any::<u64>(),
    ) {
        for (tier, auto) in tiers() {
            let untraced = run_auto(&auto, m, n, k, seed, false);
            let traced = run_auto(&auto, m, n, k, seed, true);
            prop_assert_eq!(
                &untraced, &traced,
                "{}x{}x{} tier {}: tracing perturbed the output bits", m, n, k, tier
            );
        }
    }
}

/// The batched BLAS entry point (`rocblas_gemm_strided_batched_ex`
/// shape) is equally inert: every batch entry's host output matches
/// bitwise with a session attached.
#[test]
fn batched_blas_is_bitwise_identical_under_tracing() {
    let (n, batch) = (48, 3);
    let desc = BatchedGemmDesc::packed(GemmDesc::square(GemmOp::Sgemm, n), batch);
    let elems = n * n * batch;
    let mut a = vec![0.0f32; elems];
    let mut b = vec![0.0f32; elems];
    let mut c = vec![0.0f32; elems];
    xorshift_fill(&mut a, 0x9E37_79B9_7F4A_7C15);
    xorshift_fill(&mut b, 0xD1B5_4A32_D192_ED03);
    xorshift_fill(&mut c, 0x1234_5678_9ABC_DEF0);

    let run = |traced: bool| {
        let mut h = BlasHandle::new_mi250x_gcd();
        let mut d = vec![0.0f32; elems];
        if traced {
            let session = prof::session();
            h.gemm_strided_batched_ex::<f32, f32, f32>(&desc, &a, &b, &c, &mut d)
                .expect("traced batched gemm");
            session.finish()
        } else {
            h.gemm_strided_batched_ex::<f32, f32, f32>(&desc, &a, &b, &c, &mut d)
                .expect("untraced batched gemm");
            prof::HostProfile::default()
        };
        d.into_iter().map(f32::to_bits).collect::<Vec<u32>>()
    };

    assert_eq!(run(false), run(true), "batched tracing perturbed bits");
}

/// Whatever worker interleaving each pool size produces, the converted
/// host timeline stays structurally sound: phases nest inside their
/// region, lanes never self-overlap, and the packed tiers contribute
/// at least one worker-track span. (The vendored rayon honors the most
/// recent `build_global`, which is what makes the sweep testable
/// in-process.)
#[test]
fn worker_spans_pass_invariants_at_every_pool_size() {
    for jobs in [1usize, 4, 8] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(jobs)
            .build_global()
            .expect("pool rebuild");

        let session = prof::session();
        // One region far above the fan-out break-even at every pool
        // size here (256 rows of 256² multiply-adds: a fan-out over the
        // whole pool) and one far below it (one chunk on the caller) in
        // the same session.
        let _ = run_inside_session(&Auto::from_env(), 256);
        let _ = run_inside_session(&Auto::from_env(), 16);
        let profile = session.finish();

        let events = to_trace_events(&profile);
        let violations = check_invariants(&events);
        assert!(
            violations.is_empty(),
            "jobs={jobs}: host timeline violations: {violations:?}"
        );
        let worker_spans = events
            .iter()
            .filter(|e| {
                matches!(e, TraceEvent::Span(s) if s.category == Category::HostPhase
                    && matches!(s.track, Track::HostWorker(_)))
            })
            .count();
        assert!(
            worker_spans > 0,
            "jobs={jobs}: packed region produced no worker-track spans"
        );
    }
}

/// Runs one square problem under an already-attached session.
fn run_inside_session(auto: &Auto, n: usize) -> Vec<u32> {
    let mut a = vec![0.0f32; n * n];
    let mut b = vec![0.0f32; n * n];
    xorshift_fill(&mut a, 0xA5A5_5A5A_DEAD_BEEF);
    xorshift_fill(&mut b, 0x0123_4567_89AB_CDEF);
    let c = vec![0.0f32; n * n];
    let mut d = vec![0.0f32; n * n];
    let params = GemmParams::new(n, n, n).with_epilogue(Epilogue::ComputeRounded);
    auto.gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d)
        .expect("in-session gemm");
    d.into_iter().map(f32::to_bits).collect()
}
