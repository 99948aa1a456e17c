//! GEMM kernel-plan emission and the static fallback strategy.
//!
//! rocBLAS maps an arbitrary GEMM onto Matrix Cores with a two-level
//! tiling strategy chosen at runtime (paper §III): workgroups own
//! *macro-tiles* of C/D, wavefronts own 64×64 *micro-tiles*, and the
//! inner loop feeds fixed-shape MFMA instructions (16×16×16 for mixed
//! precision, 16×16×4 for FP32/FP64) from LDS-staged panels.
//!
//! Two paths produce a [`Strategy`]:
//!
//! - [`select_strategy`] — the **static fallback**: fixed per-datatype
//!   tile heuristics plus the paper's §VII policy rules, used when the
//!   scored search is off and whenever no searched candidate survives
//!   lint. It never consults the simulator.
//! - [`crate::select::select_plan`] — the **scored search**: enumerates
//!   candidate (instruction, macro-tile, wave-tile, k-step, buffering)
//!   tuples ([`crate::enumerate`]), ranks them with the Eq. 2 analytic
//!   model plus simulator dry-runs ([`crate::score`]), and caches
//!   winners in a persisted plan DB ([`crate::plandb`]).
//!
//! Either way, [`build_plan`] turns the chosen [`Strategy`] into the
//! kernel the device runs, and every plan passes the static verifier
//! (`mc-lint`) before it can reach a launch path.
//!
//! The static policy reproduces the paper's §VII findings exactly — and
//! the scored search reproduces them *as outcomes* (see
//! `docs/AUTOTUNE.md`):
//!
//! 1. **HGEMM never uses Matrix Cores** — CDNA2 has no `FP16 ← FP16`
//!    MFMA (Table I) and rocBLAS does not cast through FP32 for the pure
//!    FP16-compute routine, so it runs on the SIMD units
//!    (`V_PK_FMA_F16`), Fig. 8's flat-zero line.
//! 2. **Tiny mixed problems skip Matrix Cores** — at N = 16 the α/β
//!    scaling (which cannot map to MFMA) dominates, and running
//!    everything on SIMD beats splitting work across both pipelines
//!    (the paper's Fig. 8 observation for HHS/HSS at N = 16).
//! 3. Everything else takes the Matrix Core path.
//!
//! FLOP bookkeeping follows the paper's Fig. 9 model: `2N³` operations on
//! Matrix Cores and `3N²` (α/β scaling: one multiply plus one FMA per
//! output element) on SIMD units.

use mc_isa::specs::DieSpec;
use mc_isa::{
    cdna2_catalog, Buffering, KernelDesc, LdsAccess, MatrixInstruction, MemHints, SlotOp, SlotRuns,
    ValuOp, ValuOpKind, WaitSpec, WaveProgram,
};
use mc_lint::VerifyMemo;
use mc_types::DType;

use crate::enumerate::tileable;
use crate::types::{BlasError, GemmDesc, GemmOp};

/// Why the planner put a GEMM on the SIMD units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdReason {
    /// No matrix instruction exists for the operation's datatypes
    /// (HGEMM's `FP16 ← FP16`).
    NoMatrixInstruction,
    /// The problem is too small for splitting work across pipelines to
    /// pay off (mixed precision at N ≤ 16 with α/β scaling), or empty: a
    /// zero dimension leaves nothing to tile, and every planner and
    /// executor rejects it as [`BlasError::InvalidDimension`].
    TinyProblem,
    /// The scored plan search ranked the SIMD candidate ahead of every
    /// surviving Matrix Core candidate (see [`crate::select`]).
    Scored,
}

/// The execution strategy selected for a GEMM.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// Two-level tiling onto Matrix Cores.
    MatrixCore {
        /// The MFMA instruction feeding the inner loop.
        instr: MatrixInstruction,
        /// Macro-tile (workgroup) dimensions `(mt_m, mt_n)`.
        macro_tile: (usize, usize),
        /// Micro-tile (wavefront) dimensions `(wt_m, wt_n)`.
        wave_tile: (usize, usize),
        /// K advanced per inner-loop iteration.
        k_step: usize,
        /// Global-load pipelining for the LDS panel stage: double
        /// buffering overlaps DRAM with compute at twice the LDS and
        /// fragment-register cost.
        buffering: Buffering,
    },
    /// Vector-ALU (SIMD) execution via packed/scalar FMAs.
    SimdOnly {
        /// The policy rule that fired.
        reason: SimdReason,
    },
}

impl Strategy {
    /// `true` when this strategy uses Matrix Cores.
    pub fn uses_matrix_cores(&self) -> bool {
        matches!(self, Strategy::MatrixCore { .. })
    }
}

/// A planned GEMM: the strategy plus the kernel the device will run and
/// the closed-form work accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct GemmPlan {
    /// The problem this plan solves.
    pub desc: GemmDesc,
    /// Selected strategy.
    pub strategy: Strategy,
    /// The kernel to launch.
    pub kernel: KernelDesc,
    /// Operations issued to Matrix Cores (includes tile padding).
    pub mfma_flops: u64,
    /// Operations issued to SIMD units.
    pub simd_flops: u64,
    /// Warning-severity lint findings for the planned kernel. Error
    /// findings never reach a plan: [`plan_gemm`] rejects them as
    /// [`BlasError::Lint`].
    pub lint: Vec<mc_lint::Diagnostic>,
    /// Warning-severity dataflow findings (`mc_lint::flow`). Error
    /// findings (LDS races, insufficient waitcnts, register overflows)
    /// never reach a plan: [`build_plan`] rejects them as
    /// [`BlasError::Flow`].
    pub flow: Vec<mc_lint::flow::FlowDiagnostic>,
}

impl GemmPlan {
    /// Useful problem FLOPs (`2mnk + 3mn`), the throughput numerator.
    pub fn useful_flops(&self) -> u64 {
        self.desc.useful_flops()
    }
}

/// The macro-tile edge the **static fallback** uses per datatype: larger
/// tiles for FP64 trade occupancy for DRAM-traffic reduction.
///
/// The scored search does not consult this heuristic — it enumerates the
/// whole tile space and ranks it — so this value only shapes plans when
/// the search is off or no searched candidate survives lint.
pub(crate) fn preferred_macro_tile(op: GemmOp) -> usize {
    match op {
        GemmOp::Dgemm => 256,
        _ => 128,
    }
}

pub(crate) fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// Selects the execution strategy for a GEMM with the static fallback
/// policy (rules 1–3 above). Never consults the simulator; the scored
/// alternative is [`crate::select::select_plan`].
pub fn select_strategy(desc: &GemmDesc) -> Strategy {
    // The tile clamping below divides by wave tiles derived from `m`
    // and `n`, so an empty problem must not reach it.
    if desc.validate().is_err() {
        return Strategy::SimdOnly {
            reason: SimdReason::TinyProblem,
        };
    }
    let op = desc.op;
    let catalog = cdna2_catalog();
    // HGEMM computes in FP16 and there is no FP16-accumulating MFMA
    // (Table I); casting through the FP32-accumulating instruction would
    // change the routine's semantics, so rocBLAS leaves HGEMM on SIMD
    // (§VII: "HGEMM does not utilize Matrix Cores at all").
    let (mfma_cd, mfma_ab) = op.mfma_pair();
    if !catalog.supports_types(mfma_cd, mfma_ab) {
        return Strategy::SimdOnly {
            reason: SimdReason::NoMatrixInstruction,
        };
    }
    // Tiny mixed problems: one MFMA's worth of work does not amortize
    // splitting the α/β scaling onto the SIMD pipeline (§VII, N = 16).
    let needs_scaling = desc.alpha != 1.0 || desc.beta != 0.0;
    let half_inputs = op.type_ab().size_bytes() == 2 && op.type_ab().is_float();
    if half_inputs && desc.m.max(desc.n).max(desc.k) <= 16 && needs_scaling {
        return Strategy::SimdOnly {
            reason: SimdReason::TinyProblem,
        };
    }

    // Pick the instruction: 16x16x16 for mixed (the shape the paper
    // names in §III), 16x16x4 for FP32/FP64. A catalog that supports the
    // type pair but lacks a 16x16 variant cannot feed the rocBLAS tiling,
    // so the plan degrades to SIMD instead of panicking.
    let Some(&instr) = catalog.best_16x16(mfma_cd, mfma_ab) else {
        return Strategy::SimdOnly {
            reason: SimdReason::NoMatrixInstruction,
        };
    };

    // Wave tiles are up to 64×64; the macro-tile must be a whole number
    // of wave tiles so every output element has an owning wavefront.
    let mt = preferred_macro_tile(op);
    let wt_m = 64.min(round_up(desc.m, 16));
    let wt_n = 64.min(round_up(desc.n, 16));
    let mt_m = mt.min(round_up(desc.m, wt_m));
    let mt_n = mt.min(round_up(desc.n, wt_n));

    Strategy::MatrixCore {
        instr,
        macro_tile: (mt_m, mt_n),
        wave_tile: (wt_m, wt_n),
        k_step: instr.shape.k as usize,
        buffering: Buffering::Double,
    }
}

/// Plans a GEMM for one die with the static fallback strategy.
pub fn plan_gemm(die: &DieSpec, desc: &GemmDesc) -> Result<GemmPlan, BlasError> {
    plan_gemm_with(&VerifyMemo::new(), die, desc)
}

/// [`plan_gemm`] with the plan verified through `memo`.
pub fn plan_gemm_with(
    memo: &VerifyMemo,
    die: &DieSpec,
    desc: &GemmDesc,
) -> Result<GemmPlan, BlasError> {
    build_plan_with(memo, die, desc, select_strategy(desc))
}

/// [`build_plan_with`] on a verification memo of its own.
pub fn build_plan(
    die: &DieSpec,
    desc: &GemmDesc,
    strategy: Strategy,
) -> Result<GemmPlan, BlasError> {
    build_plan_with(&VerifyMemo::new(), die, desc, strategy)
}

/// Compiles an explicit [`Strategy`] into a lint-gated [`GemmPlan`]:
/// kernel program, memory hints, and closed-form work accounting.
///
/// This is the single trunk both planners share — [`plan_gemm`] feeds it
/// the static strategy, the scored search feeds it each enumerated
/// candidate. Every compiled kernel passes through the static verifier
/// before it can reach a launch path: errors reject the plan outright,
/// warnings ride along for the handle to log (or deny, in strict mode).
/// `memo` replays the verdict of a kernel shape it has already seen
/// (see [`mc_lint::VerifyMemo`]).
///
/// A Matrix Core strategy that cannot tile the problem (see
/// [`crate::enumerate::tileable`]), such as a tampered plan-DB entry,
/// is refused as [`BlasError::Untileable`] before any kernel is built.
pub fn build_plan_with(
    memo: &VerifyMemo,
    die: &DieSpec,
    desc: &GemmDesc,
    strategy: Strategy,
) -> Result<GemmPlan, BlasError> {
    desc.validate()?;
    let mut plan = match strategy {
        Strategy::MatrixCore {
            instr,
            macro_tile,
            wave_tile,
            k_step,
            buffering,
        } => {
            if !tileable(desc, &strategy) {
                return Err(BlasError::Untileable(format!(
                    "{} macro tile {}x{}, wave tile {}x{}, k step {k_step}",
                    instr.mnemonic(),
                    macro_tile.0,
                    macro_tile.1,
                    wave_tile.0,
                    wave_tile.1
                )));
            }
            plan_matrix_core(
                die, desc, strategy, &instr, macro_tile, wave_tile, k_step, buffering,
            )
        }
        Strategy::SimdOnly { .. } => plan_simd(die, desc, strategy),
    };
    // A lint error rejects the plan as `BlasError::Lint`; a plan with an
    // LDS race, an unretired-load consumer, or an over-budget working
    // set as `BlasError::Flow` — autotune winners are race-free by
    // construction because losing candidates error out here.
    let verified = memo.verify(die, &plan.kernel)?;
    plan.lint = verified.lint;
    plan.flow = verified.flow;
    Ok(plan)
}

fn mem_hints(
    die: &DieSpec,
    desc: &GemmDesc,
    macro_tile: (usize, usize),
    buffering: Buffering,
) -> MemHints {
    let ab = desc.op.type_ab().size_bytes() as u64;
    let cd = desc.op.type_cd().size_bytes() as u64;
    let (m, n, k) = (desc.m as u64, desc.n as u64, desc.k as u64);
    let (mt_m, mt_n) = (macro_tile.0 as u64, macro_tile.1 as u64);

    // One workgroup's A row-panel + B column-panel; L2 residency of these
    // panels across concurrent workgroups governs DRAM refetch.
    let panel_bytes = (mt_m + mt_n) * k * ab;
    let l2 = u64::from(die.l2_kib) * 1024;
    let miss = (panel_bytes as f64 / l2 as f64).clamp(0.3, 1.0);

    let refetch_a = n.div_ceil(mt_n) as f64;
    let refetch_b = m.div_ceil(mt_m) as f64;
    let ab_traffic = ((m * k) as f64 * refetch_a + (k * n) as f64 * refetch_b) * ab as f64 * miss;
    let cd_reads = if desc.beta != 0.0 { m * n * cd } else { 0 };
    let cd_traffic = (cd_reads + m * n * cd) as f64;

    // Power-of-two channel camping: rows whose byte stride is a large
    // multiple of the channel interleave (64 KiB-aligned power-of-two)
    // collide on the same channels (Fig. 6/7 dips at N = 2^k).
    let row_bytes = n * ab;
    let pow2_stride = row_bytes >= 65536 && row_bytes.is_power_of_two();

    MemHints {
        hbm_bytes: (ab_traffic + cd_traffic) as u64,
        working_set_bytes: desc.footprint_bytes(),
        pow2_stride,
        buffering,
    }
}

#[allow(clippy::too_many_arguments)]
fn plan_matrix_core(
    die: &DieSpec,
    desc: &GemmDesc,
    strategy: Strategy,
    instr: &MatrixInstruction,
    macro_tile: (usize, usize),
    wave_tile: (usize, usize),
    k_step: usize,
    buffering: Buffering,
) -> GemmPlan {
    let (mt_m, mt_n) = macro_tile;
    let (wt_m, wt_n) = wave_tile;
    let ab_bytes = desc.op.type_ab().size_bytes();
    let cd_bytes = desc.op.type_cd().size_bytes();

    let waves_per_wg = ((mt_m / wt_m) * (mt_n / wt_n)) as u32;
    let workgroups = (desc.m.div_ceil(mt_m) * desc.n.div_ceil(mt_n)) as u64;
    let k_iters = desc.k.div_ceil(k_step) as u64;
    let mfma_per_iter = ((wt_m / 16) * (wt_n / 16)) as u64;

    // Per-iteration memory movement (per lane): the workgroup stages
    // (mt_m + mt_n)·k_step panel elements through LDS; each wave then
    // reads its (wt_m + wt_n)·k_step slice.
    let stage_bytes = (mt_m + mt_n) * k_step * ab_bytes;
    let stage_bpl = (stage_bytes / waves_per_wg as usize / 64).max(1) as u32;
    let read_bytes = (wt_m + wt_n) * k_step * ab_bytes;
    let read_bpl = (read_bytes / 64).max(1) as u32;

    // The staged panel lives in LDS buffer 0. Double buffering rotates
    // the read/write stages in anti-phase (read stage `i % 2`, write the
    // next panel into stage `(i+1) % 2`) with one barrier per iteration;
    // single buffering reuses stage 0 and needs a second barrier to
    // protect the next overwrite from this iteration's readers. Both
    // shapes carry the waitcnts that publish data before it is consumed
    // — the dataflow verifier proves the race-freedom instead of
    // assuming it.
    let (prologue, mut body, body_tail) = match buffering {
        Buffering::Double => {
            let prologue = SlotRuns::from([
                SlotOp::Scalar,
                SlotOp::global_load(stage_bpl),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(stage_bpl, LdsAccess::fixed(0)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::Barrier,
            ]);
            let body = SlotRuns::from([
                SlotOp::global_load(stage_bpl),
                SlotOp::lds_read(read_bpl, LdsAccess::rotating(0, 0, 2)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            ]);
            // After the MFMA block: wait for the prefetch, stage it into
            // the off-stage, drain, barrier — 5 issue slots that count
            // against the MFMA hazard window.
            (prologue, body, 5u32)
        }
        Buffering::Single => {
            let body = SlotRuns::from([
                SlotOp::global_load(stage_bpl),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(stage_bpl, LdsAccess::fixed(0)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::Barrier,
                SlotOp::lds_read(read_bpl, LdsAccess::fixed(0)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            ]);
            // After the MFMA block: `Scalar`, `Barrier` — 2 issue slots.
            (SlotRuns::from([SlotOp::Scalar]), body, 2u32)
        }
    };
    body.push_n(SlotOp::Mfma(*instr), mfma_per_iter as usize);
    match buffering {
        Buffering::Double => body.extend([
            SlotOp::Waitcnt(WaitSpec::vm(0)),
            SlotOp::lds_write(stage_bpl, LdsAccess::rotating(0, 1, 2)),
            SlotOp::Scalar,
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            SlotOp::Barrier,
        ]),
        Buffering::Single => body.extend([SlotOp::Scalar, SlotOp::Barrier]),
    }

    // Epilogue: β·C read, α/β scaling on SIMD (one V_MUL + one V_FMA per
    // output element — the paper's 3N² term), optional casts, store D.
    let scale_insts = ((wt_m * wt_n) / 64).max(1) as u64;
    let compute = desc.op.compute_type();
    let cd_bpl = ((wt_m * wt_n * cd_bytes) / 64).max(1) as u32;
    // Hazard gap between the loop's last MFMA and the AccVGPR-consuming
    // scaling VALU ops, sized to the instruction's pipeline depth. The
    // loop tail plus the epilogue's own C load and waitcnt already
    // absorb independent issue slots; pad only the remainder.
    let snop_gap = mc_lint::required_snop_gap(instr)
        .saturating_sub(body_tail + 2)
        .min(u32::from(u8::MAX)) as u8;
    let mut epilogue = SlotRuns::from([SlotOp::global_load(cd_bpl)]);
    if snop_gap > 0 {
        epilogue.push(SlotOp::SNop(snop_gap));
    }
    epilogue.push(SlotOp::Waitcnt(WaitSpec::vm(0)));
    // HHS stores FP16 C/D around an FP32 compute pipeline; Quant8
    // dequantizes INT32 accumulators to FP32: cast traffic either way.
    let needs_cast = desc.op.type_cd() != compute || desc.op.mfma_pair().0 != compute;
    let cast = SlotOp::Valu(ValuOp::new(ValuOpKind::Move, compute));
    if needs_cast {
        epilogue.push_n(cast, scale_insts as usize);
    }
    epilogue.push_n(
        SlotOp::Valu(ValuOp::new(ValuOpKind::Mul, compute)),
        scale_insts as usize,
    );
    epilogue.push_n(
        SlotOp::Valu(ValuOp::new(ValuOpKind::Fma, compute)),
        scale_insts as usize,
    );
    if needs_cast {
        epilogue.push_n(cast, scale_insts as usize);
    }
    epilogue.push(SlotOp::global_store(cd_bpl));

    let program = WaveProgram {
        prologue,
        body,
        body_iterations: k_iters,
        epilogue,
    };

    // Register/LDS footprint: accumulators dominate. Double buffering
    // keeps two panel stages in LDS and two fragment sets in flight;
    // single buffering halves both, trading occupancy headroom for a
    // serialized DRAM pipeline (the search weighs that trade).
    let stages = match buffering {
        Buffering::Double => 2u32,
        Buffering::Single => 1u32,
    };
    let acc_vgprs = ((wt_m * wt_n / 64) * desc.op.compute_type().vgprs_per_element()) as u32;
    let arch_vgprs = 32 + (instr.a_vgprs_per_lane() + instr.b_vgprs_per_lane()) * stages;
    let lds = (stage_bytes * stages as usize) as u32;

    let mfma_flops = workgroups * u64::from(waves_per_wg) * k_iters * mfma_per_iter * instr.flops();
    let simd_flops = workgroups * u64::from(waves_per_wg) * scale_insts * (64 + 128);

    let kernel = KernelDesc {
        waves_per_workgroup: waves_per_wg,
        workgroups,
        lds_bytes_per_workgroup: lds,
        arch_vgprs,
        acc_vgprs,
        mem_hints: mem_hints(die, desc, macro_tile, buffering),
        ..KernelDesc::new(format!("gemm_{}_{}", desc.op, instr.mnemonic()), program)
    };

    GemmPlan {
        desc: *desc,
        strategy,
        kernel,
        mfma_flops,
        simd_flops,
        lint: Vec::new(),
        flow: Vec::new(),
    }
}

/// SIMD-path plan: packed-FP16 FMA inner loop (HGEMM), or scalar FMA for
/// the tiny-problem mixed fallback.
fn plan_simd(die: &DieSpec, desc: &GemmDesc, strategy: Strategy) -> GemmPlan {
    let compute = desc.op.compute_type();
    let ab_bytes = desc.op.type_ab().size_bytes();
    let cd_bytes = desc.op.type_cd().size_bytes();

    let mt = 128.min(round_up(desc.m.max(desc.n), 16));
    let mt_m = mt.min(round_up(desc.m, 16));
    let mt_n = mt.min(round_up(desc.n, 16));
    let wt_m = 64.min(mt_m);
    let wt_n = 64.min(mt_n);
    let waves_per_wg = ((mt_m / wt_m) * (mt_n / wt_n)) as u32;
    let workgroups = (desc.m.div_ceil(mt_m) * desc.n.div_ceil(mt_n)) as u64;

    // Inner loop: advance k by 8 per iteration; each lane owns
    // wt_m·wt_n/64 output elements and performs one MAC per element per
    // k — packed two-wide for FP16.
    let k_step = 8usize;
    let k_iters = desc.k.div_ceil(k_step) as u64;
    let elems_per_lane = ((wt_m * wt_n) / 64).max(1);
    let macs = elems_per_lane * k_step;
    let (fma_op, fma_insts) = if compute == DType::F16 {
        (ValuOp::new(ValuOpKind::PackedFma, DType::F16), macs / 2)
    } else {
        (ValuOp::new(ValuOpKind::Fma, compute), macs)
    };
    // The SIMD path is not hand-scheduled assembly: unpack/pack, LDS
    // addressing, and operand shuffles cost ~1.25 auxiliary VALU ops per
    // FMA (calibrated to the paper's HGEMM plateau, §VII).
    let aux_moves = fma_insts + fma_insts / 4;

    let stage_bytes = (mt_m + mt_n) * k_step * ab_bytes;
    let stage_bpl = (stage_bytes / waves_per_wg as usize / 64).max(1) as u32;

    // Same double-buffered LDS ping-pong as the matrix-core path: the
    // prologue primes stage 0, each iteration reads stage `i % 2` while
    // prefetching the next panel into stage `(i+1) % 2`.
    let mut body = SlotRuns::from([
        SlotOp::global_load(stage_bpl),
        SlotOp::lds_read(stage_bpl, LdsAccess::rotating(0, 0, 2)),
        SlotOp::Waitcnt(WaitSpec::lgkm(0)),
    ]);
    body.push_n(SlotOp::Valu(fma_op), fma_insts);
    body.push_n(
        SlotOp::Valu(ValuOp::new(ValuOpKind::Move, compute)),
        aux_moves,
    );
    body.extend([
        SlotOp::Waitcnt(WaitSpec::vm(0)),
        SlotOp::lds_write(stage_bpl, LdsAccess::rotating(0, 1, 2)),
        SlotOp::Scalar,
        SlotOp::Waitcnt(WaitSpec::lgkm(0)),
        SlotOp::Barrier,
    ]);

    let scale_insts = elems_per_lane as u64;
    let cd_bpl = ((wt_m * wt_n * cd_bytes) / 64).max(1) as u32;
    let mut epilogue = SlotRuns::from([
        SlotOp::global_load(cd_bpl),
        SlotOp::Waitcnt(WaitSpec::vm(0)),
    ]);
    epilogue.push_n(
        SlotOp::Valu(ValuOp::new(ValuOpKind::Mul, compute)),
        scale_insts as usize,
    );
    epilogue.push_n(
        SlotOp::Valu(ValuOp::new(ValuOpKind::Fma, compute)),
        scale_insts as usize,
    );
    epilogue.push(SlotOp::global_store(cd_bpl));

    let program = WaveProgram {
        prologue: SlotRuns::from([
            SlotOp::Scalar,
            SlotOp::global_load(stage_bpl),
            SlotOp::Waitcnt(WaitSpec::vm(0)),
            SlotOp::lds_write(stage_bpl, LdsAccess::fixed(0)),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            SlotOp::Barrier,
        ]),
        body,
        body_iterations: k_iters,
        epilogue,
    };

    let macs_flops = if compute == DType::F16 {
        fma_insts as u64 * 256 // packed: 4 FLOPs × 64 lanes
    } else {
        fma_insts as u64 * 128
    };
    let simd_flops =
        workgroups * u64::from(waves_per_wg) * (k_iters * macs_flops + scale_insts * (64 + 128));

    let kernel = KernelDesc {
        waves_per_workgroup: waves_per_wg,
        workgroups,
        lds_bytes_per_workgroup: (stage_bytes * waves_per_wg as usize) as u32,
        arch_vgprs: 64 + ((elems_per_lane * compute.vgprs_per_element()).min(192)) as u32,
        acc_vgprs: 0,
        // SIMD kernels keep the default double-buffered stream: the
        // VALU loop is long enough to hide panel loads either way.
        mem_hints: mem_hints(die, desc, (mt_m, mt_n), Buffering::Double),
        ..KernelDesc::new(format!("gemm_{}_simd", desc.op), program)
    };

    GemmPlan {
        desc: *desc,
        strategy,
        kernel,
        mfma_flops: 0,
        simd_flops,
        lint: Vec::new(),
        flow: Vec::new(),
    }
}

/// Extension trait: lookup of the 16×16 instruction family the rocBLAS
/// tiling uses.
trait CatalogExt {
    fn best_16x16(&self, cd: DType, ab: DType) -> Option<&MatrixInstruction>;
}

impl CatalogExt for mc_isa::IsaCatalog {
    fn best_16x16(&self, cd: DType, ab: DType) -> Option<&MatrixInstruction> {
        self.instructions()
            .iter()
            .filter(|i| {
                !i.legacy && i.cd == cd && i.ab == ab && i.shape.m == 16 && i.shape.blocks == 1
            })
            .max_by_key(|i| i.shape.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die() -> DieSpec {
        mc_isa::specs::mi250x().die
    }

    #[test]
    fn hgemm_never_uses_matrix_cores() {
        for n in [16, 256, 4096, 16384] {
            let s = select_strategy(&GemmDesc::square(GemmOp::Hgemm, n));
            assert!(
                matches!(
                    s,
                    Strategy::SimdOnly {
                        reason: SimdReason::NoMatrixInstruction
                    }
                ),
                "N={n}"
            );
        }
    }

    #[test]
    fn tiny_mixed_problems_fall_back_to_simd() {
        // Paper Fig. 8: HHS and HSS do not use Matrix Cores at N=16.
        for op in [GemmOp::Hhs, GemmOp::Hss] {
            let s = select_strategy(&GemmDesc::square(op, 16));
            assert!(
                matches!(
                    s,
                    Strategy::SimdOnly {
                        reason: SimdReason::TinyProblem
                    }
                ),
                "{op}"
            );
            // ... but do at N=32.
            let s = select_strategy(&GemmDesc::square(op, 32));
            assert!(s.uses_matrix_cores(), "{op}");
        }
        // Without scaling work there is no reason to skip Matrix Cores.
        let unscaled = GemmDesc {
            alpha: 1.0,
            beta: 0.0,
            ..GemmDesc::square(GemmOp::Hhs, 16)
        };
        assert!(select_strategy(&unscaled).uses_matrix_cores());
    }

    #[test]
    fn zero_dimensions_select_simd_and_fail_to_plan() {
        for (m, n, k) in [(0, 64, 64), (64, 0, 64), (64, 64, 0)] {
            for op in GemmOp::ALL {
                let desc = GemmDesc::new(op, m, n, k, 1.0, 0.0);
                let s = select_strategy(&desc);
                assert_eq!(
                    s,
                    Strategy::SimdOnly {
                        reason: SimdReason::TinyProblem
                    },
                    "{op} {m}x{n}x{k}"
                );
                let invalid = Err(BlasError::InvalidDimension { m, n, k });
                assert_eq!(plan_gemm(&die(), &desc), invalid);
                assert_eq!(build_plan(&die(), &desc, s), invalid);
            }
        }
    }

    #[test]
    fn sgemm_dgemm_use_matrix_cores_even_at_16() {
        for op in [GemmOp::Sgemm, GemmOp::Dgemm] {
            let s = select_strategy(&GemmDesc::square(op, 16));
            assert!(s.uses_matrix_cores(), "{op}");
        }
    }

    #[test]
    fn instruction_selection_matches_paper() {
        // §III: "executing 16×16×16 operations on Matrix Cores" (mixed);
        // FP32/FP64 use their 16x16x4 shapes.
        let s = select_strategy(&GemmDesc::square(GemmOp::Hhs, 1024));
        if let Strategy::MatrixCore { instr, .. } = s {
            assert_eq!(instr.mnemonic(), "v_mfma_f32_16x16x16f16");
        } else {
            panic!("expected matrix-core strategy");
        }
        let s = select_strategy(&GemmDesc::square(GemmOp::Dgemm, 1024));
        if let Strategy::MatrixCore { instr, k_step, .. } = s {
            assert_eq!(instr.mnemonic(), "v_mfma_f64_16x16x4f64");
            assert_eq!(k_step, 4);
        } else {
            panic!("expected matrix-core strategy");
        }
    }

    #[test]
    fn flop_accounting_matches_fig9_model() {
        // For N a multiple of the macro-tile: exactly 2N³ on Matrix
        // Cores and 3N² on SIMD units.
        for (op, n) in [
            (GemmOp::Sgemm, 1024),
            (GemmOp::Hhs, 2048),
            (GemmOp::Dgemm, 1024),
        ] {
            let plan = plan_gemm(&die(), &GemmDesc::square(op, n)).unwrap();
            let n = n as u64;
            assert_eq!(plan.mfma_flops, 2 * n.pow(3), "{op} mfma");
            assert_eq!(plan.simd_flops, 3 * n.pow(2), "{op} simd");
            // The kernel program must agree with the closed-form count.
            assert_eq!(
                plan.kernel.total_mfma_flops(),
                plan.mfma_flops,
                "{op} kernel"
            );
        }
    }

    #[test]
    fn hgemm_flops_are_all_simd() {
        let n = 1024u64;
        let plan = plan_gemm(&die(), &GemmDesc::square(GemmOp::Hgemm, n as usize)).unwrap();
        assert_eq!(plan.mfma_flops, 0);
        // 2N³ MACs + 3N² scaling, all on SIMD.
        assert_eq!(plan.simd_flops, 2 * n.pow(3) + 3 * n.pow(2));
        assert_eq!(plan.kernel.total_mfma_flops(), 0);
        assert_eq!(plan.kernel.total_flops(), plan.simd_flops);
    }

    #[test]
    fn padding_only_inflates_non_multiple_sizes() {
        let plan = plan_gemm(&die(), &GemmDesc::square(GemmOp::Sgemm, 1000)).unwrap();
        let ideal = 2 * 1000u64.pow(3);
        assert!(plan.mfma_flops >= ideal);
        assert!(plan.mfma_flops < ideal * 11 / 10, "padding under 10%");
    }

    #[test]
    fn small_problem_geometry() {
        let plan = plan_gemm(&die(), &GemmDesc::square(GemmOp::Sgemm, 16)).unwrap();
        assert_eq!(plan.kernel.workgroups, 1);
        assert_eq!(plan.kernel.waves_per_workgroup, 1);
        assert_eq!(plan.mfma_flops, 4 * 2048); // 16x16x16 via 4 × 16x16x4
    }

    #[test]
    fn mem_hints_flag_pow2_strides() {
        let d = die();
        let p = plan_gemm(&d, &GemmDesc::square(GemmOp::Sgemm, 16384)).unwrap();
        assert!(p.kernel.mem_hints.pow2_stride);
        let p = plan_gemm(&d, &GemmDesc::square(GemmOp::Sgemm, 8192)).unwrap();
        assert!(
            !p.kernel.mem_hints.pow2_stride,
            "32 KiB rows stay under the camping threshold"
        );
        let p = plan_gemm(&d, &GemmDesc::square(GemmOp::Dgemm, 8192)).unwrap();
        assert!(p.kernel.mem_hints.pow2_stride, "64 KiB f64 rows collide");
        let p = plan_gemm(&d, &GemmDesc::square(GemmOp::Sgemm, 65000)).unwrap();
        assert!(!p.kernel.mem_hints.pow2_stride, "non-power-of-two recovers");
    }

    #[test]
    fn dram_traffic_grows_superlinearly_past_l2() {
        let d = die();
        let t = |n: usize| {
            plan_gemm(&d, &GemmDesc::square(GemmOp::Sgemm, n))
                .unwrap()
                .kernel
                .mem_hints
                .hbm_bytes as f64
        };
        // Panel-miss factor saturates: traffic/N³ rises then plateaus.
        let r4k = t(4096) / 4096f64.powi(3);
        let r8k = t(8192) / 8192f64.powi(3);
        let r16k = t(16384) / 16384f64.powi(3);
        assert!(r8k > r4k * 1.5, "{r4k} {r8k}");
        assert!((r16k - r8k).abs() / r8k < 0.15, "saturated: {r8k} {r16k}");
    }

    #[test]
    fn zero_dimension_rejected() {
        let bad = GemmDesc {
            m: 0,
            ..GemmDesc::square(GemmOp::Sgemm, 64)
        };
        assert!(plan_gemm(&die(), &bad).is_err());
    }

    #[test]
    fn dash_s_verification_of_planned_kernels() {
        // The paper's §IV-A methodology, applied to our own kernels:
        // count matrix instructions in the compiled loop.
        use mc_isa::disasm::kernel_stats;
        let d = die();
        // HHS 64x64 wave tile: 16 MFMAs per k-iteration, MC strategy.
        let p = plan_gemm(&d, &GemmDesc::square(GemmOp::Hhs, 4096)).unwrap();
        assert_eq!(kernel_stats(&p.kernel).mfma_per_iteration, 16);
        // HGEMM: zero MFMAs anywhere in the program.
        let p = plan_gemm(&d, &GemmDesc::square(GemmOp::Hgemm, 4096)).unwrap();
        let s = kernel_stats(&p.kernel);
        assert_eq!(s.mfma_per_iteration, 0);
        assert!(s.valu_per_iteration > 0);
        // And the listing names the exact instruction.
        let p = plan_gemm(&d, &GemmDesc::square(GemmOp::Dgemm, 4096)).unwrap();
        let text = mc_isa::disasm::disassemble(&p.kernel);
        assert!(text.contains("v_mfma_f64_16x16x4f64"), "{text}");
    }

    #[test]
    fn every_planned_kernel_lints_clean() {
        let d = die();
        for op in GemmOp::ALL {
            for n in [16, 1024, 4000] {
                let p = plan_gemm(&d, &GemmDesc::square(op, n)).unwrap();
                assert!(p.lint.is_empty(), "{op} N={n}: {:?}", p.lint);
            }
        }
    }

    #[test]
    fn dgemm_uses_larger_macro_tile() {
        let p = plan_gemm(&die(), &GemmDesc::square(GemmOp::Dgemm, 4096)).unwrap();
        if let Strategy::MatrixCore { macro_tile, .. } = p.strategy {
            assert_eq!(macro_tile, (256, 256));
        } else {
            panic!("expected matrix-core strategy");
        }
        assert_eq!(p.kernel.waves_per_workgroup, 16);
    }
}
