//! Lowering WMMA operations to simulator kernels.
//!
//! The paper's micro-benchmarks are rocWMMA loops that the HIP compiler
//! turns into `V_MFMA_*` instruction streams (verified with `-S`, §IV-A).
//! This module performs the same lowering: given a type/shape
//! combination, it validates against the instruction catalog and emits a
//! [`KernelDesc`] whose loop body is the MFMA instruction, with fragment
//! loads in the prologue and the accumulator store in the epilogue —
//! exactly the structure the paper describes ("this benchmark excludes
//! the impact of data transfer to registers as no load/store operations
//! are performed" inside the loop).

use mc_isa::{
    ampere_catalog, cdna2_catalog, KernelDesc, LdsAccess, MatrixArch, MatrixInstruction, SlotOp,
    SlotRuns, WaitSpec, WaveProgram,
};
use mc_types::DType;

use crate::error::WmmaError;

/// Verifies a freshly-built kernel against the reference die of its
/// target architecture with [`mc_lint::verify_kernel`]. An error-severity
/// diagnostic rejects the kernel (the builder equivalent of a compile
/// error); warnings go to stderr.
fn verify_built(arch: MatrixArch, kernel: &KernelDesc) -> Result<(), WmmaError> {
    let verified = mc_lint::verify_kernel(&mc_lint::default_die_for(arch), kernel)?;
    for w in &verified.lint {
        eprintln!("{}", w.render(&kernel.name));
    }
    for w in &verified.flow {
        eprintln!("{}", w.render(&kernel.name));
    }
    Ok(())
}

/// The `S_NOP` padding a kernel must place between an MFMA and the first
/// read of its accumulator, as a `SlotOp` operand.
fn snop_gap(instr: &MatrixInstruction) -> u8 {
    u8::try_from(mc_lint::required_snop_gap(instr)).expect("hazard gaps are single-digit")
}

/// Parameters for [`mma_loop_kernel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoopKernelParams {
    /// Target architecture.
    pub arch: MatrixArch,
    /// Accumulator (C/D) datatype.
    pub cd: DType,
    /// Input (A/B) datatype.
    pub ab: DType,
    /// Operation shape `m×n×k`.
    pub shape: (u32, u32, u32),
    /// Wavefronts to launch.
    pub wavefronts: u64,
    /// MFMA iterations per wavefront.
    pub iterations: u64,
}

fn find_instruction(
    arch: MatrixArch,
    cd: DType,
    ab: DType,
    (m, n, k): (u32, u32, u32),
) -> Result<&'static MatrixInstruction, WmmaError> {
    let catalog = match arch {
        MatrixArch::Cdna1 => mc_isa::cdna1_catalog(),
        MatrixArch::Cdna2 => cdna2_catalog(),
        MatrixArch::Ampere => ampere_catalog(),
    };
    catalog.find(cd, ab, m, n, k).ok_or(WmmaError::Unsupported {
        arch,
        cd,
        ab,
        shape: (m as usize, n as usize, k as usize),
    })
}

/// Builds the paper's throughput micro-benchmark kernel: each wavefront
/// loads its fragments once, executes `iterations` MFMA operations in a
/// loop, and stores the accumulator once.
pub fn mma_loop_kernel(params: LoopKernelParams) -> Result<KernelDesc, WmmaError> {
    let instr = find_instruction(params.arch, params.cd, params.ab, params.shape)?;
    let lanes = match params.arch {
        MatrixArch::Cdna1 | MatrixArch::Cdna2 => 64u64,
        MatrixArch::Ampere => 32u64,
    };

    // Fragment loads: A, B, and C bytes per lane.
    let ab_bytes = (instr.shape.a_elements_total() + instr.shape.b_elements_total())
        * params.ab.size_bytes() as u64;
    let cd_bytes = instr.shape.cd_elements_total() * params.cd.size_bytes() as u64;
    let load_bpl = (ab_bytes / lanes).max(1) as u32;
    let store_bpl = (cd_bytes / lanes).max(1) as u32;

    let program = WaveProgram {
        prologue: [
            SlotOp::global_load(load_bpl),
            SlotOp::global_load(store_bpl),
            SlotOp::Waitcnt(WaitSpec::vm(0)),
        ]
        .into(),
        body: [SlotOp::Mfma(*instr)].into(),
        body_iterations: params.iterations,
        epilogue: [
            // Hardware requires independent cycles before reading
            // AccVGPRs written by MFMA (paper §III); the width scales
            // with the instruction's pipeline depth.
            SlotOp::SNop(snop_gap(instr)),
            SlotOp::global_store(store_bpl),
        ]
        .into(),
    };

    let kernel = KernelDesc {
        workgroups: params.wavefronts,
        waves_per_workgroup: 1,
        arch_vgprs: instr.a_vgprs_per_lane() + instr.b_vgprs_per_lane() + 16,
        acc_vgprs: instr.cd_agprs_per_lane(),
        ..KernelDesc::new(format!("wmma_loop_{}", instr.mnemonic()), program)
    };
    verify_built(params.arch, &kernel)?;
    Ok(kernel)
}

/// Builds a single-tile WMMA GEMM kernel: one workgroup of four waves
/// cooperatively computing a macro-tile via LDS-staged fragments. Used
/// by examples as a realistic (non-microbenchmark) WMMA workload.
pub fn wmma_gemm_tile_kernel(
    arch: MatrixArch,
    cd: DType,
    ab: DType,
    shape: (u32, u32, u32),
    k_tiles: u64,
) -> Result<KernelDesc, WmmaError> {
    let instr = find_instruction(arch, cd, ab, shape)?;
    let ab_tile_bytes =
        (instr.shape.a_elements_total() + instr.shape.b_elements_total()) * ab.size_bytes() as u64;

    let ab_bpl = (ab_tile_bytes / 64).max(1) as u32;
    let cd_bpl = ((instr.shape.cd_elements_total() * cd.size_bytes() as u64) / 64).max(1) as u32;
    // Single-buffered LDS staging: the panel lives in stage 0 of buffer
    // 0, so each iteration needs two barriers — one publishing the
    // freshly-written stage to the readers, one protecting the next
    // iteration's overwrite from this iteration's readers (the back-edge
    // WAR hazard the dataflow verifier proves absent).
    let stage = LdsAccess::fixed(0);
    // Issue slots after the MFMA inside the body (`Scalar`, `Barrier`)
    // already cover part of its hazard window; pad only the remainder.
    let pad = snop_gap(instr).saturating_sub(2);
    let mut epilogue = SlotRuns::new();
    if pad > 0 {
        epilogue.push(SlotOp::SNop(pad));
    }
    epilogue.push(SlotOp::global_store(cd_bpl));
    let program = WaveProgram {
        prologue: [SlotOp::global_load(cd_bpl)].into(),
        body: [
            SlotOp::global_load(ab_bpl),
            SlotOp::Waitcnt(WaitSpec::vm(0)),
            SlotOp::lds_write(ab_bpl, stage),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            SlotOp::Barrier,
            SlotOp::lds_read(ab_bpl, stage),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            SlotOp::Mfma(*instr),
            SlotOp::Scalar,
            SlotOp::Barrier,
        ]
        .into(),
        body_iterations: k_tiles,
        epilogue,
    };

    let kernel = KernelDesc {
        workgroups: 1,
        waves_per_workgroup: 4,
        lds_bytes_per_workgroup: (ab_tile_bytes * 4) as u32,
        arch_vgprs: instr.a_vgprs_per_lane() + instr.b_vgprs_per_lane() + 24,
        acc_vgprs: instr.cd_agprs_per_lane(),
        ..KernelDesc::new(format!("wmma_gemm_tile_{}", instr.mnemonic()), program)
    };
    verify_built(arch, &kernel)?;
    Ok(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_params(waves: u64, iters: u64) -> LoopKernelParams {
        LoopKernelParams {
            arch: MatrixArch::Cdna2,
            cd: DType::F32,
            ab: DType::F16,
            shape: (16, 16, 16),
            wavefronts: waves,
            iterations: iters,
        }
    }

    #[test]
    fn loop_kernel_structure_matches_paper_methodology() {
        let k = mma_loop_kernel(mixed_params(440, 10_000_000)).unwrap();
        // No load/store inside the loop.
        assert!(k
            .program
            .body
            .iter()
            .all(|op| matches!(op, SlotOp::Mfma(_))));
        assert_eq!(k.program.body_iterations, 10_000_000);
        // 2mnk · N_iter FLOPs per wave.
        assert_eq!(k.program.mfma_flops(), 8192 * 10_000_000);
        assert_eq!(k.total_waves(), 440);
    }

    #[test]
    fn unsupported_shape_rejected_like_a_compile_error() {
        let bad = LoopKernelParams {
            cd: DType::F16,
            ab: DType::F16,
            ..mixed_params(1, 1)
        };
        assert!(matches!(
            mma_loop_kernel(bad),
            Err(WmmaError::Unsupported { .. })
        ));
        let bad_shape = LoopKernelParams {
            shape: (17, 16, 16),
            ..mixed_params(1, 1)
        };
        assert!(mma_loop_kernel(bad_shape).is_err());
    }

    #[test]
    fn ampere_kernel_uses_warp_lanes() {
        let p = LoopKernelParams {
            arch: MatrixArch::Ampere,
            shape: (16, 8, 16),
            ..mixed_params(432, 1000)
        };
        let k = mma_loop_kernel(p).unwrap();
        assert!(k.name.contains("mma.sync"));
        assert_eq!(k.program.mfma_flops(), 2 * 16 * 8 * 16 * 1000);
    }

    #[test]
    fn register_footprint_reflects_instruction() {
        let k = mma_loop_kernel(mixed_params(1, 1)).unwrap();
        // Mixed 16x16x16: A 2 + B 2 + scratch 16 arch VGPRs, 4 AccVGPRs.
        assert_eq!(k.arch_vgprs, 20);
        assert_eq!(k.acc_vgprs, 4);
    }

    #[test]
    fn gemm_tile_kernel_stages_through_lds() {
        let k = wmma_gemm_tile_kernel(MatrixArch::Cdna2, DType::F32, DType::F16, (16, 16, 16), 64)
            .unwrap();
        assert!(k.lds_bytes_per_workgroup > 0);
        assert_eq!(k.waves_per_workgroup, 4);
        let has_barrier = k
            .program
            .body
            .iter()
            .any(|op| matches!(op, SlotOp::Barrier));
        assert!(has_barrier);
    }

    #[test]
    fn snop_padding_scales_with_pipeline_depth() {
        // 16x16x16 (32 cycles) needs s_nop 4; 32x32x8 (64 cycles) s_nop 8.
        let k16 = mma_loop_kernel(mixed_params(1, 8)).unwrap();
        assert_eq!(k16.program.epilogue[0], SlotOp::SNop(4));
        let k32 = mma_loop_kernel(LoopKernelParams {
            shape: (32, 32, 8),
            ..mixed_params(1, 8)
        })
        .unwrap();
        assert_eq!(k32.program.epilogue[0], SlotOp::SNop(8));
    }

    #[test]
    fn built_kernels_lint_clean() {
        let die = mc_lint::default_die_for(MatrixArch::Cdna2);
        for k in [
            mma_loop_kernel(mixed_params(440, 1000)).unwrap(),
            wmma_gemm_tile_kernel(MatrixArch::Cdna2, DType::F32, DType::F16, (32, 32, 8), 16)
                .unwrap(),
        ] {
            let report = mc_lint::lint_kernel(&die, &k);
            assert!(report.is_clean(), "{}", report.render());
        }
    }

    #[test]
    fn built_kernels_execute_on_the_simulator() {
        let mut gpu = mc_sim::Gpu::mi250x();
        let k = mma_loop_kernel(mixed_params(440, 100_000)).unwrap();
        let r = gpu.launch(0, &k).unwrap();
        let tflops = r.tflops();
        assert!(
            (tflops - 175.0).abs() < 4.0,
            "one-GCD mixed plateau, got {tflops}"
        );
    }
}
