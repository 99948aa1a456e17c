//! Kernel disassembly listings.
//!
//! The paper verifies its benchmarks by inspecting compiled code: "we
//! check the assembly-level instructions using the HIP compiler flag
//! `-S` ... to verify the number of Matrix/Tensor Core instructions in
//! use" (§IV-A). This module renders a [`KernelDesc`] as the equivalent
//! pseudo-assembly listing and provides the same static verification:
//! counting matrix instructions per loop iteration.

use core::fmt::Write as _;

use crate::kernel::{KernelDesc, SlotOp, SlotRuns, WaveProgram};

/// Static instruction statistics of a kernel, the `-S`-inspection
/// results the paper relies on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Matrix (MFMA/MMA) instructions per loop iteration.
    pub mfma_per_iteration: usize,
    /// Vector-ALU instructions per loop iteration.
    pub valu_per_iteration: usize,
    /// Memory operations (global + LDS) per loop iteration.
    pub mem_per_iteration: usize,
    /// Total static instructions in the listing (prologue + body +
    /// epilogue, not unrolled).
    pub static_instructions: usize,
}

/// Counts per-iteration instruction classes, like inspecting `-S` output.
pub fn kernel_stats(k: &KernelDesc) -> KernelStats {
    let count = |ops: &SlotRuns| {
        ops.runs()
            .iter()
            .fold((0usize, 0usize, 0usize), |(m, v, mem), (op, n)| {
                let n = *n as usize;
                match op {
                    SlotOp::Mfma(_) => (m + n, v, mem),
                    SlotOp::Valu(_) => (m, v + n, mem),
                    SlotOp::GlobalLoad { .. }
                    | SlotOp::GlobalStore { .. }
                    | SlotOp::LdsRead { .. }
                    | SlotOp::LdsWrite { .. } => (m, v, mem + n),
                    _ => (m, v, mem),
                }
            })
    };
    let (m, v, mem) = count(&k.program.body);
    KernelStats {
        mfma_per_iteration: m,
        valu_per_iteration: v,
        mem_per_iteration: mem,
        static_instructions: k.program.prologue.len()
            + k.program.body.len()
            + k.program.epilogue.len(),
    }
}

/// Renders a stage tag as the comment suffix of an LDS access.
fn stage_comment(access: &crate::kernel::LdsAccess) -> String {
    match access.stage {
        crate::kernel::StageTag::Fixed(s) => format!("buf{} stage {s}", access.buffer),
        crate::kernel::StageTag::Rotating { offset, period } => {
            format!("buf{} stage (i+{offset})%{period}", access.buffer)
        }
    }
}

/// Renders an `S_WAITCNT` argument list the way real listings print it.
fn waitcnt_args(w: &crate::kernel::WaitSpec) -> String {
    let mut args = Vec::new();
    if w.vmcnt != crate::kernel::WaitSpec::IGNORE {
        args.push(format!("vmcnt({})", w.vmcnt));
    }
    if w.lgkmcnt != crate::kernel::WaitSpec::IGNORE {
        args.push(format!("lgkmcnt({})", w.lgkmcnt));
    }
    if args.is_empty() {
        "0".to_owned()
    } else {
        args.join(" ")
    }
}

fn render_op(out: &mut String, op: &SlotOp) {
    let _ = match op {
        SlotOp::Mfma(i) => writeln!(out, "    {}", i.mnemonic()),
        SlotOp::Valu(v) => writeln!(out, "    {}", v.mnemonic()),
        SlotOp::GlobalLoad { bytes_per_lane, .. } => {
            writeln!(out, "    global_load_b{}", bytes_per_lane * 8)
        }
        SlotOp::GlobalStore { bytes_per_lane, .. } => {
            writeln!(out, "    global_store_b{}", bytes_per_lane * 8)
        }
        SlotOp::LdsRead {
            bytes_per_lane,
            access,
        } => writeln!(
            out,
            "    ds_read_b{}  ; {}",
            bytes_per_lane * 8,
            stage_comment(access)
        ),
        SlotOp::LdsWrite {
            bytes_per_lane,
            access,
        } => writeln!(
            out,
            "    ds_write_b{}  ; {}",
            bytes_per_lane * 8,
            stage_comment(access)
        ),
        SlotOp::SNop(n) => writeln!(out, "    s_nop {n}"),
        SlotOp::Scalar => writeln!(out, "    s_alu"),
        SlotOp::Waitcnt(w) => writeln!(out, "    s_waitcnt {}", waitcnt_args(w)),
        SlotOp::Barrier => writeln!(out, "    s_barrier"),
    };
}

fn render_program(out: &mut String, p: &WaveProgram) {
    if !p.prologue.is_empty() {
        let _ = writeln!(out, "; prologue");
        for op in p.prologue.iter() {
            render_op(out, op);
        }
    }
    let _ = writeln!(out, ".Lloop:  ; x{} iterations", p.body_iterations);
    for op in p.body.iter() {
        render_op(out, op);
    }
    let _ = writeln!(out, "    s_cbranch_scc1 .Lloop");
    if !p.epilogue.is_empty() {
        let _ = writeln!(out, "; epilogue");
        for op in p.epilogue.iter() {
            render_op(out, op);
        }
    }
    let _ = writeln!(out, "    s_endpgm");
}

/// Renders a kernel as a pseudo-assembly listing with a header carrying
/// the launch geometry and register footprint (the interesting parts of
/// real `-S` output).
pub fn disassemble(k: &KernelDesc) -> String {
    let stats = kernel_stats(k);
    let mut out = String::new();
    let _ = writeln!(out, "; kernel: {}", k.name);
    let _ = writeln!(
        out,
        "; workgroups: {}  waves/wg: {}  vgprs: {}  agprs: {}  lds: {} B",
        k.workgroups, k.waves_per_workgroup, k.arch_vgprs, k.acc_vgprs, k.lds_bytes_per_workgroup
    );
    let _ = writeln!(
        out,
        "; per-iteration: {} mfma, {} valu, {} mem",
        stats.mfma_per_iteration, stats.valu_per_iteration, stats.mem_per_iteration
    );
    render_program(&mut out, &k.program);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::cdna2_catalog;
    use crate::valu::{ValuOp, ValuOpKind};
    use mc_types::DType;

    fn sample_kernel() -> KernelDesc {
        let i = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        let program = WaveProgram {
            prologue: [
                SlotOp::global_load(16),
                SlotOp::Waitcnt(crate::kernel::WaitSpec::vm(0)),
            ]
            .into(),
            body: [
                SlotOp::lds_read(8, crate::kernel::LdsAccess::fixed(0)),
                SlotOp::Mfma(i),
                SlotOp::Mfma(i),
                SlotOp::Valu(ValuOp::new(ValuOpKind::Fma, DType::F32)),
                SlotOp::Scalar,
            ]
            .into(),
            body_iterations: 512,
            epilogue: [SlotOp::SNop(4), SlotOp::global_store(16)].into(),
        };
        KernelDesc::new("demo", program)
    }

    #[test]
    fn stats_count_like_dash_s_inspection() {
        let s = kernel_stats(&sample_kernel());
        assert_eq!(s.mfma_per_iteration, 2);
        assert_eq!(s.valu_per_iteration, 1);
        assert_eq!(s.mem_per_iteration, 1);
        assert_eq!(s.static_instructions, 2 + 5 + 2);
    }

    #[test]
    fn listing_contains_real_mnemonics_and_structure() {
        let text = disassemble(&sample_kernel());
        assert!(text.contains("v_mfma_f32_16x16x16f16"));
        assert!(text.contains(".Lloop:  ; x512 iterations"));
        assert!(text.contains("s_cbranch_scc1 .Lloop"));
        assert!(text.contains("s_endpgm"));
        assert!(text.contains("ds_read_b64"));
        assert!(text.contains("global_store_b128"));
        assert!(text.contains("; per-iteration: 2 mfma, 1 valu, 1 mem"));
    }

    #[test]
    fn papers_microbench_verification_holds() {
        // §IV-A methodology: the throughput loop must contain exactly
        // one MFMA and nothing else.
        let params = crate::kernel::WaveProgram::looped(
            vec![SlotOp::Mfma(
                *cdna2_catalog()
                    .find(DType::F64, DType::F64, 16, 16, 4)
                    .unwrap(),
            )],
            40_000_000,
        );
        let k = KernelDesc::new("latency", params);
        let s = kernel_stats(&k);
        assert_eq!(s.mfma_per_iteration, 1);
        assert_eq!(s.valu_per_iteration, 0);
        assert_eq!(s.mem_per_iteration, 0);
    }
}
