//! Cross-crate integration: the same operation observed through every
//! layer of the stack must tell one consistent story.

use amd_matrix_cores::blas::{plan_gemm, BlasHandle, GemmDesc, GemmOp, Strategy};
use amd_matrix_cores::isa::cdna2_catalog;
use amd_matrix_cores::model::flops::derived_total_flops;
use amd_matrix_cores::power::sampler::SmiSampler;
use amd_matrix_cores::power::SamplerConfig;
use amd_matrix_cores::profiler::{CounterReport, FlopBreakdown, ProfilerSession};
use amd_matrix_cores::sim::{DeviceId, DeviceRegistry, Smi};
use amd_matrix_cores::types::{DType, F16};
use amd_matrix_cores::wmma::{mma_loop_kernel, LoopKernelParams};

/// The WMMA builder, the simulator counters, Eq. 1, and the closed-form
/// FLOP count must all agree for a microbenchmark kernel.
#[test]
fn wmma_kernel_counters_agree_with_eq1() {
    let params = LoopKernelParams {
        arch: amd_matrix_cores::isa::MatrixArch::Cdna2,
        cd: DType::F32,
        ab: DType::F16,
        shape: (16, 16, 16),
        wavefronts: 64,
        iterations: 1000,
    };
    let kernel = mma_loop_kernel(params).unwrap();
    let mut gpu = DeviceRegistry::builtin().gpu(DeviceId::Mi250x);
    let session = ProfilerSession::begin(&gpu, 0).unwrap();
    let result = gpu.launch(0, &kernel).unwrap();
    let counters = session.end(&gpu).unwrap();

    let closed_form = 2u64 * 16 * 16 * 16 * 1000 * 64; // 2mnk * iters * waves
    assert_eq!(kernel.total_mfma_flops(), closed_form);
    assert_eq!(result.kernels[0].mfma_flops, closed_form);
    let derived = derived_total_flops(&counters);
    assert_eq!(derived.matrix_core, closed_form);
}

/// The planner's strategy, the launch counters, and the functional
/// executor must agree about whether Matrix Cores were used.
#[test]
fn strategy_counters_and_numerics_are_consistent() {
    let mut handle = BlasHandle::from_registry(&DeviceRegistry::builtin(), DeviceId::Mi250xGcd);
    for op in [GemmOp::Sgemm, GemmOp::Hss, GemmOp::Hgemm] {
        let desc = GemmDesc::square(op, 128);
        let plan = plan_gemm(&handle.gpu().spec().die, &desc).unwrap();
        let session = ProfilerSession::begin(handle.gpu(), handle.die()).unwrap();
        handle.gemm_timed(&desc).unwrap();
        let counters = session.end(handle.gpu()).unwrap();
        let b = FlopBreakdown::from_counters(&counters);
        match plan.strategy {
            Strategy::MatrixCore { .. } => {
                assert!(b.total_matrix_core() > 0, "{op}");
                assert_eq!(b.total_matrix_core(), plan.mfma_flops, "{op}");
            }
            Strategy::SimdOnly { .. } => {
                assert_eq!(b.total_matrix_core(), 0, "{op}");
            }
        }
    }
}

/// Functional GEMM through the handle equals the f64 reference for an
/// exactly-representable problem, on every routine.
#[test]
fn all_routines_compute_the_verification_pattern() {
    // Paper §IV-A: A = 1, B = I, C = 1 => D = alpha + beta (here 2).
    let n = 64;
    let mk_desc = |op| GemmDesc {
        alpha: 1.0,
        beta: 1.0,
        ..GemmDesc::square(op, n)
    };
    let mut handle = BlasHandle::from_registry(&DeviceRegistry::builtin(), DeviceId::Mi250xGcd);

    // f32.
    let a = vec![1.0f32; n * n];
    let mut b = vec![0.0f32; n * n];
    for i in 0..n {
        b[i * n + i] = 1.0;
    }
    let c = vec![1.0f32; n * n];
    let mut d = vec![0.0f32; n * n];
    handle
        .sgemm(&mk_desc(GemmOp::Sgemm), &a, &b, &c, &mut d)
        .unwrap();
    assert!(d.iter().all(|&x| x == 2.0));

    // f64.
    let a64 = vec![1.0f64; n * n];
    let mut b64 = vec![0.0f64; n * n];
    for i in 0..n {
        b64[i * n + i] = 1.0;
    }
    let c64 = vec![1.0f64; n * n];
    let mut d64 = vec![0.0f64; n * n];
    handle
        .dgemm(&mk_desc(GemmOp::Dgemm), &a64, &b64, &c64, &mut d64)
        .unwrap();
    assert!(d64.iter().all(|&x| x == 2.0));

    // f16 inputs (hss, hhs, hgemm).
    let ah = vec![F16::ONE; n * n];
    let mut bh = vec![F16::ZERO; n * n];
    for i in 0..n {
        bh[i * n + i] = F16::ONE;
    }
    let ch32 = vec![1.0f32; n * n];
    let mut dh32 = vec![0.0f32; n * n];
    handle
        .gemm_hss(&mk_desc(GemmOp::Hss), &ah, &bh, &ch32, &mut dh32)
        .unwrap();
    assert!(dh32.iter().all(|&x| x == 2.0));

    let ch16 = vec![F16::ONE; n * n];
    let mut dh16 = vec![F16::ZERO; n * n];
    handle
        .gemm_hhs(&mk_desc(GemmOp::Hhs), &ah, &bh, &ch16, &mut dh16)
        .unwrap();
    assert!(dh16.iter().all(|&x| x.to_f64() == 2.0));

    let mut dh = vec![F16::ZERO; n * n];
    handle
        .hgemm(&mk_desc(GemmOp::Hgemm), &ah, &bh, &ch16, &mut dh)
        .unwrap();
    assert!(dh.iter().all(|&x| x.to_f64() == 2.0));
}

/// Power telemetry sampled by the background tool integrates to the
/// same energy the simulator accounted.
#[test]
fn sampled_power_integrates_to_simulated_energy() {
    let mut gpu = DeviceRegistry::builtin().gpu(DeviceId::Mi250x);
    let i = *cdna2_catalog()
        .find(DType::F32, DType::F16, 16, 16, 16)
        .unwrap();
    let kernel = mma_loop_kernel(LoopKernelParams {
        arch: amd_matrix_cores::isa::MatrixArch::Cdna2,
        cd: DType::F32,
        ab: DType::F16,
        shape: (16, 16, 16),
        wavefronts: 440,
        iterations: 50_000_000,
    })
    .unwrap();
    let _ = i;
    let result = gpu.launch(0, &kernel).unwrap();
    let smi = Smi::attach(result.profile.clone(), 0.0, 1);
    let samples = SmiSampler::record(
        smi,
        SamplerConfig {
            period_s: result.time_s / 5000.0,
            min_samples: 1000,
        },
    )
    .samples();
    let mean = amd_matrix_cores::sim::sample_stats(&samples).mean_w;
    let sampled_energy = mean * result.time_s;
    assert!(
        (sampled_energy - result.energy_j).abs() / result.energy_j < 0.01,
        "{sampled_energy} vs {}",
        result.energy_j
    );
}

/// Counter reports expose the same numbers through names as through
/// fields, across the whole pipeline.
#[test]
fn counter_report_round_trip() {
    let mut handle = BlasHandle::from_registry(&DeviceRegistry::builtin(), DeviceId::Mi250xGcd);
    handle
        .gemm_timed(&GemmDesc::square(GemmOp::Dgemm, 256))
        .unwrap();
    let counters = handle.gpu().counters(0).unwrap();
    let report = CounterReport::from_counters(&counters);
    assert_eq!(
        report.get("SQ_INSTS_VALU_MFMA_MOPS_F64").unwrap(),
        counters.mfma_mops_f64
    );
    assert_eq!(report.get("SQ_WAVES").unwrap(), counters.waves_launched);
    // Eq. 1 over the report's raw numbers reproduces 2N³ + 3N².
    let total = 512 * counters.mfma_mops_f64
        + 64 * counters.valu_add_f64
        + 64 * counters.valu_mul_f64
        + 128 * counters.valu_fma_f64;
    assert_eq!(total, 2 * 256u64.pow(3) + 3 * 256u64.pow(2));
}

/// Determinism: the whole pipeline must be bit-reproducible run to run.
#[test]
fn simulation_is_deterministic() {
    let run_once = || {
        let mut handle = BlasHandle::from_registry(&DeviceRegistry::builtin(), DeviceId::Mi250xGcd);
        let perf = handle
            .gemm_timed(&GemmDesc::square(GemmOp::Hhs, 4096))
            .unwrap();
        (perf.time_s, perf.tflops, perf.counters)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}
