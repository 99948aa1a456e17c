//! The paper's micro-benchmarks (§IV-A) as reusable harnesses.
//!
//! * [`measure_latency`] — one wavefront executes the same MFMA in a long
//!   dependent loop; average cycles per instruction are derived from the
//!   loop timing, exactly like the paper's `clock64()` methodology. No
//!   loads or stores are in the loop, so the result is pure instruction
//!   latency (Table II).
//! * [`throughput_run`] — a configurable number of wavefronts each
//!   iterate `n_iter` MFMA operations; throughput is derived from the
//!   kernel wall time (HIP-events methodology) and the closed-form FLOP
//!   count `2·m·n·k · N_iter · N_WF` (§V-A).

use mc_isa::{KernelDesc, MatrixInstruction, SlotOp, WaveProgram};

use crate::device::{Gpu, PackageResult};
use crate::engine::LaunchError;

/// Result of a latency measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyResult {
    /// Average cycles per instruction over the loop.
    pub cycles: f64,
    /// FLOPs/CU/cycle this latency implies with four matrix units
    /// (the `8·m·n·k/c` validation identity of §V-A).
    pub flops_per_cu_per_cycle: f64,
}

/// Measures the issue latency of one matrix instruction using a single
/// wavefront looping `iters` times (paper Table II methodology).
///
/// ```
/// use mc_sim::{measure_latency, Gpu};
/// use mc_types::DType;
///
/// let mut gpu = Gpu::mi250x();
/// let instr = mc_isa::cdna2_catalog().find(DType::F64, DType::F64, 16, 16, 4).unwrap();
/// let r = measure_latency(&mut gpu, 0, instr, 1_000_000).unwrap();
/// assert!((r.cycles - 32.0).abs() < 0.1);              // paper Table II
/// assert!((r.flops_per_cu_per_cycle - 256.0).abs() < 1.0); // CDNA2 whitepaper
/// ```
pub fn measure_latency(
    gpu: &mut Gpu,
    die: usize,
    instr: &MatrixInstruction,
    iters: u64,
) -> Result<LatencyResult, LaunchError> {
    let program = WaveProgram::looped(vec![SlotOp::Mfma(*instr)], iters);
    let kernel = KernelDesc {
        workgroups: 1,
        waves_per_workgroup: 1,
        ..KernelDesc::new(format!("latency_{}", instr.mnemonic()), program)
    };
    let result = gpu.launch(die, &kernel)?;
    let exec = &result.kernels[0].exec;
    // clock64() counts device clock ticks: cycles = compute cycles / iters.
    let cycles = exec.compute_cycles / iters as f64;
    Ok(LatencyResult {
        cycles,
        flops_per_cu_per_cycle: 4.0 * instr.flops() as f64 / cycles,
    })
}

/// Result of a throughput run.
#[derive(Clone, Debug, PartialEq)]
pub struct ThroughputResult {
    /// Wavefronts launched.
    pub wavefronts: u64,
    /// Measured throughput in TFLOPS.
    pub tflops: f64,
    /// Kernel time in seconds.
    pub time_s: f64,
    /// Full launch result (power, counters, governor state).
    pub package: PackageResult,
}

/// Runs the throughput micro-benchmark: `n_waves` wavefronts each
/// iterating `n_iter` MFMA operations on one die.
pub fn throughput_run(
    gpu: &mut Gpu,
    die: usize,
    instr: &MatrixInstruction,
    n_waves: u64,
    n_iter: u64,
) -> Result<ThroughputResult, LaunchError> {
    let kernel = throughput_kernel(instr, n_waves, n_iter);
    let package = gpu.launch(die, &kernel)?;
    Ok(summarize(n_waves, package))
}

/// Runs the throughput micro-benchmark in parallel on every die of the
/// package — the paper's whole-GPU comparison methodology (§V-C: "we
/// execute the throughput benchmark in parallel on both GCDs").
pub fn throughput_run_all_dies(
    gpu: &mut Gpu,
    instr: &MatrixInstruction,
    n_waves_per_die: u64,
    n_iter: u64,
) -> Result<ThroughputResult, LaunchError> {
    let kernel = throughput_kernel(instr, n_waves_per_die, n_iter);
    let dies = gpu.spec().dies as usize;
    let launches: Vec<(usize, KernelDesc)> = (0..dies).map(|d| (d, kernel.clone())).collect();
    let package = gpu.launch_parallel(&launches)?;
    Ok(summarize(n_waves_per_die * dies as u64, package))
}

fn throughput_kernel(instr: &MatrixInstruction, n_waves: u64, n_iter: u64) -> KernelDesc {
    let program = WaveProgram::looped(vec![SlotOp::Mfma(*instr)], n_iter);
    KernelDesc {
        workgroups: n_waves,
        waves_per_workgroup: 1,
        arch_vgprs: instr.a_vgprs_per_lane() + instr.b_vgprs_per_lane() + 16,
        acc_vgprs: instr.cd_agprs_per_lane(),
        ..KernelDesc::new(format!("throughput_{}", instr.mnemonic()), program)
    }
}

fn summarize(wavefronts: u64, package: PackageResult) -> ThroughputResult {
    let tflops = package.tflops();
    ThroughputResult {
        wavefronts,
        tflops,
        time_s: package.time_s,
        package,
    }
}

/// The wavefront counts the paper sweeps in Fig. 3: multiples of four up
/// to 440 (doubling), then multiples of 440 to avoid partially-idle
/// phases.
pub fn fig3_wavefront_sweep() -> Vec<u64> {
    let mut v = vec![4u64];
    while *v.last().unwrap() < 440 {
        let next = (v.last().unwrap() * 2).min(440);
        v.push(next);
    }
    for m in 2..=4u64 {
        v.push(440 * m);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_isa::cdna2_catalog;
    use mc_types::DType;

    #[test]
    fn table2_latencies_reproduced() {
        // The whole of Table II must come out of the microbenchmark.
        let mut gpu = Gpu::mi250x();
        let cases = [
            (DType::F32, DType::F32, 32, 32, 2, 64.0),
            (DType::F32, DType::F32, 16, 16, 4, 32.0),
            (DType::F32, DType::F16, 32, 32, 8, 64.0),
            (DType::F32, DType::F16, 16, 16, 16, 32.0),
            (DType::F64, DType::F64, 16, 16, 4, 32.0),
        ];
        for (cd, ab, m, n, k, expect) in cases {
            let i = *cdna2_catalog().find(cd, ab, m, n, k).unwrap();
            // Use fewer iterations than 40M to keep tests fast; the
            // measurement is exact either way.
            let r = measure_latency(&mut gpu, 0, &i, 100_000).unwrap();
            assert!(
                (r.cycles - expect).abs() < 0.01,
                "{}: {} vs {expect}",
                i.mnemonic(),
                r.cycles
            );
        }
    }

    #[test]
    fn latency_implies_datasheet_rate() {
        let mut gpu = Gpu::mi250x();
        let i = *cdna2_catalog()
            .find(DType::F64, DType::F64, 16, 16, 4)
            .unwrap();
        let r = measure_latency(&mut gpu, 0, &i, 100_000).unwrap();
        assert!((r.flops_per_cu_per_cycle - 256.0).abs() < 0.1);
    }

    #[test]
    fn throughput_scales_then_plateaus() {
        let mut gpu = Gpu::mi250x();
        let i = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        let t64 = throughput_run(&mut gpu, 0, &i, 64, 100_000).unwrap().tflops;
        let t440 = throughput_run(&mut gpu, 0, &i, 440, 100_000)
            .unwrap()
            .tflops;
        let t880 = throughput_run(&mut gpu, 0, &i, 880, 100_000)
            .unwrap()
            .tflops;
        assert!(t440 > 6.0 * t64);
        assert!((t880 - t440).abs() / t440 < 0.02);
        assert!(
            (t440 - 175.0).abs() < 3.0,
            "one-GCD mixed plateau, got {t440}"
        );
    }

    #[test]
    fn whole_package_run_doubles_mixed_throughput() {
        let mut gpu = Gpu::mi250x();
        let i = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        let r = throughput_run_all_dies(&mut gpu, &i, 440, 100_000).unwrap();
        assert_eq!(r.wavefronts, 880);
        assert!((r.tflops - 350.0).abs() < 6.0, "got {}", r.tflops);
    }

    #[test]
    fn fig3_sweep_shape() {
        let sweep = fig3_wavefront_sweep();
        assert_eq!(sweep.first(), Some(&4));
        assert!(sweep.contains(&440));
        assert!(sweep.contains(&1760));
        // Strictly increasing.
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        // All entries multiples of 4; entries above 440 multiples of 440.
        assert!(sweep.iter().all(|&n| n % 4 == 0));
        assert!(sweep.iter().filter(|&&n| n > 440).all(|&n| n % 440 == 0));
    }
}
