//! Golden flow corpus: deliberately broken pipelined kernels that must
//! each fire an exact dataflow rule, plus the converse — every kernel
//! the repo ships (the `mc-wmma` loop and tile kernels, the `mc-blas`
//! planner output in both buffering modes, and every plan-search
//! winner) must verify race-free. Together they pin down both
//! directions of the dataflow verifier: no false negatives on the
//! defect classes it exists to catch (missing barrier, stale stage
//! reuse, insufficient waitcnt, dead store), no false positives on the
//! shipped corpus. See `docs/DATAFLOW.md` for the analysis model.

use amd_matrix_cores::blas::{
    build_plan, plan_gemm, select_plan, select_strategy, GemmDesc, GemmOp, Strategy,
};
use amd_matrix_cores::flow::{analyze_kernel, FlowReport, FlowRule};
use amd_matrix_cores::isa::specs::{self, DieSpec};
use amd_matrix_cores::isa::{
    Buffering, KernelDesc, LdsAccess, SlotOp, ValuOp, ValuOpKind, WaitSpec, WaveProgram,
};
use amd_matrix_cores::sim::SimConfig;
use amd_matrix_cores::types::DType;
use amd_matrix_cores::wmma::{mma_loop_kernel, wmma_gemm_tile_kernel, LoopKernelParams};
use proptest::prelude::*;

fn die() -> DieSpec {
    specs::mi250x().die
}

fn mfma() -> SlotOp {
    SlotOp::Mfma(
        *amd_matrix_cores::isa::cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap(),
    )
}

/// A cooperative multi-wave kernel shell every broken variant starts
/// from.
fn kernel(program: WaveProgram) -> KernelDesc {
    KernelDesc {
        waves_per_workgroup: 4,
        workgroups: 8,
        lds_bytes_per_workgroup: 16 * 1024,
        arch_vgprs: 64,
        acc_vgprs: 16,
        ..KernelDesc::new("flow-corpus", program)
    }
}

/// Asserts a report fired the expected rule and nothing outside the
/// allowed set.
fn assert_fires(report: &FlowReport, expected: FlowRule, allowed: &[FlowRule]) {
    assert!(
        report.fired(expected),
        "expected {expected} to fire:\n{}",
        report.render()
    );
    for d in &report.diagnostics {
        assert!(
            d.rule == expected || allowed.contains(&d.rule),
            "unexpected {} finding:\n{}",
            d.rule,
            report.render()
        );
    }
}

// ---------------------------------------------------------------------
// Golden broken kernels: each defect class must be detected.
// ---------------------------------------------------------------------

/// A staged pipeline whose producer wave publishes an LDS panel that
/// consumer waves read with no intervening barrier: the classic
/// missing-`s_barrier` race.
#[test]
fn missing_barrier_is_a_raw_race() {
    let stage = LdsAccess::fixed(0);
    let program = WaveProgram {
        prologue: vec![].into(),
        body: vec![
            SlotOp::global_load(16),
            SlotOp::Waitcnt(WaitSpec::vm(0)),
            SlotOp::lds_write(16, stage),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            // s_barrier deleted here.
            SlotOp::lds_read(16, stage),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            mfma(),
        ]
        .into(),
        body_iterations: 64,
        epilogue: vec![SlotOp::global_store(16)].into(),
    };
    let report = analyze_kernel(&die(), &kernel(program));
    assert_fires(
        &report,
        FlowRule::LdsRaceRaw,
        &[FlowRule::LdsRaceWar, FlowRule::LdsRaceWaw],
    );
    assert!(report.has_errors());
}

/// A "double-buffered" pipeline whose write stage-tag was left on the
/// read rotation (offset 0 instead of 1): iteration `i` overwrites the
/// very stage its own readers are still consuming — stale stage reuse.
#[test]
fn stale_stage_reuse_is_a_war_race() {
    let program = WaveProgram {
        prologue: vec![
            SlotOp::global_load(16),
            SlotOp::Waitcnt(WaitSpec::vm(0)),
            SlotOp::lds_write(16, LdsAccess::fixed(0)),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            SlotOp::Barrier,
        ]
        .into(),
        body: vec![
            SlotOp::global_load(16),
            SlotOp::lds_read(16, LdsAccess::rotating(0, 0, 2)),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            mfma(),
            SlotOp::Waitcnt(WaitSpec::vm(0)),
            // Correct double buffering writes rotating(0, 1, 2); the
            // stale tag collides with this iteration's own readers.
            SlotOp::lds_write(16, LdsAccess::rotating(0, 0, 2)),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            SlotOp::Barrier,
        ]
        .into(),
        body_iterations: 64,
        epilogue: vec![SlotOp::global_store(16)].into(),
    };
    let report = analyze_kernel(&die(), &kernel(program));
    assert_fires(&report, FlowRule::LdsRaceWar, &[]);
    assert!(report.has_errors());
}

/// An LDS stage written from a global load whose `vmcnt` was never
/// drained: the store forwards register contents the load has not
/// produced yet.
#[test]
fn insufficient_waitcnt_is_flagged() {
    let stage = LdsAccess::fixed(0);
    let program = WaveProgram {
        prologue: vec![].into(),
        body: vec![
            SlotOp::global_load(16),
            // Missing Waitcnt(vm(0)).
            SlotOp::lds_write(16, stage),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            SlotOp::Barrier,
            SlotOp::lds_read(16, stage),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            mfma(),
            SlotOp::Scalar,
            SlotOp::Barrier,
        ]
        .into(),
        body_iterations: 64,
        epilogue: vec![SlotOp::global_store(16)].into(),
    };
    let report = analyze_kernel(&die(), &kernel(program));
    assert_fires(&report, FlowRule::InsufficientWaitcnt, &[]);
    assert!(report.has_errors());
}

/// A barrier issued with LDS writes still in flight: `s_barrier`
/// synchronizes execution, not memory, so the data is not published.
#[test]
fn barrier_without_lgkm_drain_is_flagged() {
    let stage = LdsAccess::fixed(0);
    let program = WaveProgram {
        prologue: vec![].into(),
        body: vec![
            SlotOp::global_load(16),
            SlotOp::Waitcnt(WaitSpec::vm(0)),
            SlotOp::lds_write(16, stage),
            // Missing Waitcnt(lgkm(0)).
            SlotOp::Barrier,
            SlotOp::lds_read(16, stage),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            mfma(),
            SlotOp::Scalar,
            SlotOp::Barrier,
        ]
        .into(),
        body_iterations: 64,
        epilogue: vec![SlotOp::global_store(16)].into(),
    };
    let report = analyze_kernel(&die(), &kernel(program));
    assert_fires(&report, FlowRule::BarrierLgkmPending, &[]);
    assert!(report.has_errors());
}

/// A stage that is written and never read by any consumer: dead LDS
/// traffic (warning — wasted bandwidth, not corruption).
#[test]
fn dead_store_is_flagged_as_a_warning() {
    let program = WaveProgram {
        prologue: vec![].into(),
        body: vec![
            SlotOp::global_load(16),
            SlotOp::Waitcnt(WaitSpec::vm(0)),
            SlotOp::lds_write(16, LdsAccess::fixed(1)),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            SlotOp::Barrier,
            SlotOp::lds_read(16, LdsAccess::fixed(0)),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            mfma(),
            SlotOp::Scalar,
            SlotOp::Barrier,
        ]
        .into(),
        body_iterations: 64,
        epilogue: vec![SlotOp::global_store(16)].into(),
    };
    let report = analyze_kernel(&die(), &kernel(program));
    assert!(report.fired(FlowRule::DeadLdsStore), "{}", report.render());
    assert!(!report.has_errors(), "{}", report.render());
}

/// The max-live rules fire strictly above their thresholds: an estimate
/// equal to the declared `arch_vgprs` (or to the register file) is
/// clean, one VGPR more is flagged.
#[test]
fn max_live_rules_are_pinned_at_their_thresholds() {
    let d = die();
    // A streamed 64-byte load consumed by a VALU: est = 8 scratch + 16
    // streaming = 24 VGPRs.
    let consumed = WaveProgram {
        prologue: vec![].into(),
        body: vec![
            SlotOp::global_load(64),
            SlotOp::Waitcnt(WaitSpec::vm(0)),
            SlotOp::Valu(ValuOp::new(ValuOpKind::Fma, DType::F32)),
        ]
        .into(),
        body_iterations: 4,
        epilogue: vec![].into(),
    };
    let mut k = kernel(consumed);
    k.arch_vgprs = 24;
    let report = analyze_kernel(&d, &k);
    assert!(report.is_clean(), "{}", report.render());
    k.arch_vgprs = 23;
    assert_fires(&analyze_kernel(&d, &k), FlowRule::MaxLiveUnderdeclared, &[]);

    // Hoarded loads nothing consumes: 31 × 16 + 8 streaming VGPRs put
    // est exactly at the 512-register file; one more 4-byte load tips it.
    let mut hoard = vec![SlotOp::global_load(64); 31];
    hoard.push(SlotOp::global_load(32));
    let program = |extra: Option<SlotOp>| WaveProgram {
        prologue: hoard.iter().cloned().chain(extra).collect(),
        body: vec![SlotOp::Scalar].into(),
        body_iterations: 1,
        epilogue: vec![].into(),
    };
    let mut k = kernel(program(None));
    k.arch_vgprs = d.vgprs_per_simd;
    let report = analyze_kernel(&d, &k);
    assert!(report.is_clean(), "{}", report.render());
    let mut k = kernel(program(Some(SlotOp::global_load(4))));
    k.arch_vgprs = d.vgprs_per_simd;
    assert_fires(&analyze_kernel(&d, &k), FlowRule::MaxLiveOverflow, &[]);
}

// ---------------------------------------------------------------------
// The converse: everything the repo ships is flow clean.
// ---------------------------------------------------------------------

#[test]
fn shipped_planner_corpus_is_flow_clean() {
    let d = die();
    for op in GemmOp::ALL {
        for n in [16usize, 512, 1024, 4000] {
            let desc = GemmDesc::square(op, n);
            let plan = plan_gemm(&d, &desc).unwrap();
            let report = analyze_kernel(&d, &plan.kernel);
            assert!(report.is_clean(), "{op} N={n}:\n{}", report.render());
            assert!(plan.flow.is_empty(), "{op} N={n}: {:?}", plan.flow);
            // Both pipeline variants, not just the planner's pick.
            if let Strategy::MatrixCore {
                instr,
                macro_tile,
                wave_tile,
                k_step,
                buffering,
            } = select_strategy(&desc)
            {
                let flipped = Strategy::MatrixCore {
                    instr,
                    macro_tile,
                    wave_tile,
                    k_step,
                    buffering: match buffering {
                        Buffering::Single => Buffering::Double,
                        Buffering::Double => Buffering::Single,
                    },
                };
                let plan = build_plan(&d, &desc, flipped).unwrap();
                let report = analyze_kernel(&d, &plan.kernel);
                assert!(
                    report.is_clean(),
                    "{op} N={n} flipped:\n{}",
                    report.render()
                );
            }
        }
    }
}

#[test]
fn shipped_wmma_kernels_are_flow_clean() {
    let d = die();
    for shape in [(16, 16, 16), (32, 32, 8)] {
        let k = wmma_gemm_tile_kernel(d.arch, DType::F32, DType::F16, shape, 64).unwrap();
        let report = analyze_kernel(&d, &k);
        assert!(report.is_clean(), "tile {shape:?}:\n{}", report.render());
    }
    let k = mma_loop_kernel(LoopKernelParams {
        arch: d.arch,
        cd: DType::F32,
        ab: DType::F16,
        shape: (16, 16, 16),
        wavefronts: 440,
        iterations: 64,
    })
    .unwrap();
    let report = analyze_kernel(&d, &k);
    assert!(report.is_clean(), "{}", report.render());
}

// ---------------------------------------------------------------------
// Property tests: the search can't ship a racy winner, and no single
// barrier in a double-buffered pipeline is redundant.
// ---------------------------------------------------------------------

/// A double-buffered Matrix Core plan for mutation testing.
fn double_buffered_kernel() -> KernelDesc {
    let d = die();
    let desc = GemmDesc::square(GemmOp::Hhs, 1024);
    let Strategy::MatrixCore {
        instr,
        macro_tile,
        wave_tile,
        k_step,
        ..
    } = select_strategy(&desc)
    else {
        panic!("HHS N=1024 must map to Matrix Cores");
    };
    let strategy = Strategy::MatrixCore {
        instr,
        macro_tile,
        wave_tile,
        k_step,
        buffering: Buffering::Double,
    };
    build_plan(&d, &desc, strategy).unwrap().kernel
}

proptest! {
    /// Every legal plan-search winner is flow clean: the flow gate
    /// rejects racy candidates inside `build_plan`, so the ranked set
    /// the search chooses from is race-free by construction.
    #[test]
    fn search_winners_are_flow_clean(op_idx in 0usize..GemmOp::ALL.len(), n in 16usize..2048) {
        let d = die();
        let out = select_plan(&d, &SimConfig::mi250x(), &GemmDesc::square(GemmOp::ALL[op_idx], n))
            .unwrap();
        let report = analyze_kernel(&d, &out.plan.kernel);
        prop_assert!(!report.has_errors(), "{}", report.render());
        prop_assert!(
            out.plan.flow.iter().all(|f| f.severity != amd_matrix_cores::flow::Severity::Error)
        );
    }

    /// Deleting any single barrier from a double-buffered pipeline is
    /// always detected: each one separates a stage's writer from that
    /// stage's readers, so none is redundant.
    #[test]
    fn deleting_any_barrier_from_a_double_buffered_plan_is_flagged(seed in 0usize..64) {
        let d = die();
        let mut k = double_buffered_kernel();
        let barriers: Vec<(bool, usize)> = k
            .program
            .prologue
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, SlotOp::Barrier))
            .map(|(i, _)| (true, i))
            .chain(
                k.program
                    .body
                    .iter()
                    .enumerate()
                    .filter(|(_, op)| matches!(op, SlotOp::Barrier))
                    .map(|(i, _)| (false, i)),
            )
            .collect();
        prop_assume!(!barriers.is_empty());
        let (in_prologue, idx) = barriers[seed % barriers.len()];
        if in_prologue {
            k.program.prologue.remove(idx);
        } else {
            k.program.body.remove(idx);
        }
        let report = analyze_kernel(&d, &k);
        prop_assert!(
            report.has_errors(),
            "barrier deletion (prologue={in_prologue}, idx={idx}) went undetected:\n{}",
            report.render()
        );
    }
}
