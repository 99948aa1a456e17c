//! Pinned verifier diagnostics: a seeded differential corpus.
//!
//! The shipped kernel corpus is clean, so no committed envelope holds a
//! diagnostic and the envelope gates cannot see a change in what the
//! verifiers report or how they word it. This test can. It generates
//! [`KERNELS`] kernels from a fixed seed by mutating planner and `mc-wmma`
//! kernels at random (deleting, duplicating and swapping slots; inserting
//! barriers, waitcnts, `s_nop`s, foreign MFMAs and runs of unconsumed
//! loads; retagging LDS stages; tampering MFMA latencies and shapes;
//! changing the wave, VGPR and LDS declarations), verifies
//! each on MI250X, MI100 and A100 with both `lint_kernel` and
//! `analyze_kernel`, and pins:
//!
//! * the number of diagnostics each rule raised ([`RULE_COUNTS`]),
//! * the first rendered diagnostic of each rule ([`SAMPLES`]),
//! * an FNV-1a hash of every rendered report, in order ([`REPORT_HASH`]).
//!
//! The checks run in that order, so a failure names the rule whose
//! count or wording moved before the hash reports that something did.
//! The constants change only when a verifier's findings are meant to.

use std::collections::BTreeMap;

use amd_matrix_cores::blas::{build_plan, plan_gemm, GemmDesc, GemmOp, Strategy};
use amd_matrix_cores::flow::analyze_kernel;
use amd_matrix_cores::isa::specs::{self, DieSpec};
use amd_matrix_cores::isa::{
    Buffering, KernelDesc, LdsAccess, MatrixArch, MfmaShape, SlotOp, SlotRuns, StageTag, WaitSpec,
};
use amd_matrix_cores::lint::{catalog_for, lint_kernel};
use amd_matrix_cores::types::DType;
use amd_matrix_cores::wmma::{mma_loop_kernel, wmma_gemm_tile_kernel, LoopKernelParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the mutation stream.
const SEED: u64 = 0x5EED_0F1A_6C0D_E5A1;

/// Mutated kernels in the corpus.
const KERNELS: usize = 4800;

/// Every matrix architecture with an instruction catalog.
const ARCHES: [MatrixArch; 3] = [MatrixArch::Cdna1, MatrixArch::Cdna2, MatrixArch::Ampere];

/// 64-bit FNV-1a offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The unmutated kernels: planner output for every routine at several
/// sizes in both buffering modes, one loop kernel per catalog
/// instruction of every architecture, and both CDNA2 tile kernels.
fn base_kernels() -> Vec<KernelDesc> {
    let die = specs::mi250x().die;
    let mut kernels = Vec::new();
    for op in GemmOp::ALL {
        for n in [16, 64, 256, 1024, 4000] {
            let desc = GemmDesc::square(op, n);
            let plan = plan_gemm(&die, &desc).expect("corpus plans verify");
            if let Strategy::MatrixCore {
                instr,
                macro_tile,
                wave_tile,
                k_step,
                buffering,
            } = plan.strategy
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
                let plan = build_plan(&die, &desc, flipped).expect("flipped plans verify");
                kernels.push(plan.kernel);
            }
            kernels.push(plan.kernel);
        }
    }
    for arch in ARCHES {
        let mut seen = Vec::new();
        for instr in catalog_for(arch).instructions() {
            if seen.contains(&instr.mnemonic()) {
                continue;
            }
            seen.push(instr.mnemonic());
            kernels.push(
                mma_loop_kernel(LoopKernelParams {
                    arch,
                    cd: instr.cd,
                    ab: instr.ab,
                    shape: (instr.shape.m, instr.shape.n, instr.shape.k),
                    wavefronts: 440,
                    iterations: 64,
                })
                .expect("catalog loop kernels verify"),
            );
        }
    }
    for shape in [(16, 16, 16), (32, 32, 8)] {
        kernels.push(
            wmma_gemm_tile_kernel(MatrixArch::Cdna2, DType::F32, DType::F16, shape, 64)
                .expect("tile kernels verify"),
        );
    }
    kernels
}

/// One of the three program sections, picked at random.
fn section<'a>(k: &'a mut KernelDesc, rng: &mut StdRng) -> &'a mut SlotRuns {
    match rng.gen_range(0..3u32) {
        0 => &mut k.program.prologue,
        1 => &mut k.program.body,
        _ => &mut k.program.epilogue,
    }
}

/// A random stage tag over buffers 0–1 and stages 0–2.
fn stage_tag(rng: &mut StdRng) -> StageTag {
    if rng.gen_range(0..2u32) == 0 {
        StageTag::Fixed(rng.gen_range(0..3u8))
    } else {
        StageTag::Rotating {
            offset: rng.gen_range(0..3u8),
            period: rng.gen_range(1..4u8),
        }
    }
}

/// Applies one random mutation. Every value stays small enough that no
/// declaration sum can overflow, so debug and release builds agree.
fn mutate(k: &mut KernelDesc, rng: &mut StdRng) {
    match rng.gen_range(0..15u32) {
        0 => {
            let ops = section(k, rng);
            if !ops.is_empty() {
                let at = rng.gen_range(0..ops.len());
                ops.remove(at);
            }
        }
        1 => {
            let ops = section(k, rng);
            if !ops.is_empty() {
                let at = rng.gen_range(0..ops.len());
                let op = ops[at];
                ops.insert(at, op);
            }
        }
        2 => {
            let ops = section(k, rng);
            if !ops.is_empty() {
                let a = rng.gen_range(0..ops.len());
                let b = rng.gen_range(0..ops.len());
                let op_b = ops.set(b, ops[a]);
                ops.set(a, op_b);
            }
        }
        3 => {
            let ops = section(k, rng);
            let at = rng.gen_range(0..=ops.len());
            ops.insert(at, SlotOp::Barrier);
        }
        4 => {
            let n = rng.gen_range(0..3u8);
            let spec = match rng.gen_range(0..3u32) {
                0 => WaitSpec::vm(n),
                1 => WaitSpec::lgkm(n),
                _ => WaitSpec::zero(),
            };
            let ops = section(k, rng);
            let at = rng.gen_range(0..=ops.len());
            ops.insert(at, SlotOp::Waitcnt(spec));
        }
        5 => {
            let n = rng.gen_range(1..9u8);
            let ops = section(k, rng);
            let at = rng.gen_range(0..=ops.len());
            ops.insert(at, SlotOp::SNop(n));
        }
        6 => {
            let tag = stage_tag(rng);
            let buffer = rng.gen_range(0..2u8);
            let ops = section(k, rng);
            let lds: Vec<usize> = (0..ops.len())
                .filter(|&i| matches!(ops[i], SlotOp::LdsRead { .. } | SlotOp::LdsWrite { .. }))
                .collect();
            if !lds.is_empty() {
                let at = lds[rng.gen_range(0..lds.len())];
                let mut op = ops[at];
                if let SlotOp::LdsRead { access, .. } | SlotOp::LdsWrite { access, .. } = &mut op {
                    *access = LdsAccess { buffer, stage: tag };
                }
                ops.set(at, op);
            }
        }
        7 => {
            let latency = [2, 4, 8, 16, 32, 64, 128][rng.gen_range(0..7usize)];
            let unknown = rng.gen_range(0..4u32) == 0;
            let ops = section(k, rng);
            let mfmas: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].is_mfma()).collect();
            if !mfmas.is_empty() {
                let at = mfmas[rng.gen_range(0..mfmas.len())];
                let mut op = ops[at];
                if let SlotOp::Mfma(instr) = &mut op {
                    if unknown {
                        instr.shape = MfmaShape::new(13, 13, 13);
                    } else {
                        instr.latency_cycles = latency;
                    }
                }
                ops.set(at, op);
            }
        }
        8 => {
            let catalog = catalog_for(ARCHES[rng.gen_range(0..ARCHES.len())]).instructions();
            let instr = catalog[rng.gen_range(0..catalog.len())];
            let ops = section(k, rng);
            let at = rng.gen_range(0..=ops.len());
            ops.insert(at, SlotOp::Mfma(instr));
        }
        9 => {
            let loads = rng.gen_range(1..48usize);
            let ops = section(k, rng);
            let at = rng.gen_range(0..=ops.len());
            for _ in 0..loads {
                ops.insert(at, SlotOp::global_load(64));
            }
        }
        10 => k.waves_per_workgroup = [0, 1, 2, 4, 8, 16, 64][rng.gen_range(0..7usize)],
        11 => k.arch_vgprs = rng.gen_range(0..600u32),
        12 => k.acc_vgprs = rng.gen_range(0..600u32),
        13 => {
            k.lds_bytes_per_workgroup = [0, 1024, 16384, 65536, 1 << 20][rng.gen_range(0..5usize)]
        }
        _ => k.program.body_iterations = [0, 1, 2, 3, 64][rng.gen_range(0..5usize)],
    }
}

/// Rule counts, one rendered sample per rule, and the report hash.
struct Pinned {
    counts: BTreeMap<&'static str, usize>,
    samples: BTreeMap<&'static str, String>,
    hash: u64,
}

fn run_corpus() -> Pinned {
    let base = base_kernels();
    let dies: [DieSpec; 3] = [specs::mi250x().die, specs::mi100().die, specs::a100().die];
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut pinned = Pinned {
        counts: BTreeMap::new(),
        samples: BTreeMap::new(),
        hash: FNV_OFFSET,
    };
    for i in 0..KERNELS {
        let mut k = base[rng.gen_range(0..base.len())].clone();
        k.name = format!("{}#{i}", k.name);
        for _ in 0..rng.gen_range(1..5u32) {
            mutate(&mut k, &mut rng);
        }
        for die in &dies {
            let lint = lint_kernel(die, &k);
            let flow = analyze_kernel(die, &k);
            pinned.hash = fnv1a(pinned.hash, lint.render().as_bytes());
            pinned.hash = fnv1a(pinned.hash, flow.render().as_bytes());
            let rendered = lint
                .diagnostics
                .iter()
                .map(|d| (d.rule_id.as_str(), d.render(&lint.subject)))
                .chain(
                    flow.diagnostics
                        .iter()
                        .map(|d| (d.rule.as_str(), d.render(&flow.subject))),
                );
            for (rule, text) in rendered {
                *pinned.counts.entry(rule).or_default() += 1;
                pinned.samples.entry(rule).or_insert(text);
            }
        }
    }
    pinned
}

/// Diagnostics each rule raised over the corpus.
const RULE_COUNTS: &[(&str, usize)] = &[
    ("barrier-lgkm-pending", 208),
    ("dead-lds-store", 609),
    ("empty-kernel", 321),
    ("hazard-excess-snop", 2182),
    ("hazard-missing-snop", 826),
    ("hazard-waw-overlap", 1168),
    ("insufficient-waitcnt", 28934),
    ("lds-overflow", 429),
    ("lds-race-raw", 57),
    ("lds-race-war", 72),
    ("lds-race-waw", 51),
    ("lds-undeclared", 210),
    ("low-occupancy", 3008),
    ("max-live-overflow", 580),
    ("max-live-underdeclared", 688),
    ("mfma-latency-mismatch", 156),
    ("mfma-unknown-instruction", 64),
    ("mfma-wrong-arch", 72790),
    ("vgpr-overflow", 630),
    ("vgpr-underdeclared", 453),
];

/// The first rendered diagnostic of each rule.
const SAMPLES: &[(&str, &str)] = &[
    ("barrier-lgkm-pending", "error[barrier-lgkm-pending]: barrier executes with 1 lds/scalar op(s) still outstanding on lgkmcnt (first: prologue[3]); s_barrier synchronizes execution, not memory\n  --> `gemm_hss_v_mfma_f32_16x16x16f16#35`, prologue[4]\n  = help: insert `Waitcnt(WaitSpec::lgkm(0))` before the Barrier\n"),
    ("dead-lds-store", "warning[dead-lds-store]: lds write to buffer 1 stage(s) [2] is never read by any lds read in the program\n  --> `gemm_hss_v_mfma_f32_16x16x16f16#11`, prologue[3]\n  = help: drop the store, or fix the stage tag so a consumer's stage set overlaps it\n"),
    ("empty-kernel", "error[empty-kernel]: kernel launches 0 wave(s) over 633 dynamic instruction(s)\n  --> `gemm_quant8_v_mfma_i32_16x16x16i8#9`\n  = help: a kernel needs at least one wave and one executed instruction\n"),
    ("hazard-excess-snop", "warning[hazard-excess-snop]: `s_nop 6` pads an already-satisfied (or absent) hazard window\n  --> `wmma_loop_v_mfma_f32_32x32x1f32#6`, epilogue[2]\n  = help: remove the redundant s_nop; issue slots cost throughput\n"),
    ("hazard-missing-snop", "error[hazard-missing-snop]: accumulator of `v_mfma_f64_4x4x4f64` is read 2 issue slot(s) too early\n  --> `wmma_loop_v_mfma_f64_4x4x4f64#14`, epilogue[0]\n  = help: insert `s_nop 2` (or independent instructions) before this slot — paper §III\n"),
    ("hazard-waw-overlap", "warning[hazard-waw-overlap]: `v_mfma_f64_13x13x13f64` overwrites AccVGPRs a[0..6] while `v_mfma_f64_16x16x4f64` is still writing them (4 slot(s) left in its window)\n  --> `gemm_dgemm_v_mfma_f64_16x16x4f64#24`, body[8]\n  = help: separate the two instructions or accumulate into disjoint AccVGPR ranges\n"),
    ("insufficient-waitcnt", "error[insufficient-waitcnt]: lds write stages data from the global load at body[0] before any s_waitcnt retires it\n  --> `gemm_sgemm_v_mfma_f32_16x16x4f32#2`, body[2]\n  = help: insert `Waitcnt(WaitSpec::vm(0))` before the lds write\n"),
    ("lds-overflow", "error[lds-overflow]: kernel declares 1048576 LDS bytes per workgroup; the CU has 65536\n  --> `wmma_loop_v_mfma_f32_4x4x1f32#66`\n  = help: shrink the staging tiles or split the workgroup\n"),
    ("lds-race-raw", "error[lds-race-raw]: lds write at body[2] (iteration 0) and lds read at body[5] (iteration 0) touch buffer 0 stage 0 inside the same barrier interval; nothing orders one wave's access against another's\n  --> `gemm_sgemm_v_mfma_f32_16x16x4f32#1019`, body[5]\n  = help: insert a Barrier between the conflicting accesses, or stage them through different buffers/stages (double-buffering)\n"),
    ("lds-race-war", "error[lds-race-war]: lds read at body[1] (iteration 1) and lds write at body[19] (iteration 1) touch buffer 0 stage 0 inside the same barrier interval; nothing orders one wave's access against another's\n  --> `gemm_dgemm_v_mfma_f64_16x16x4f64#254`, body[19]\n  = help: insert a Barrier between the conflicting accesses, or stage them through different buffers/stages (double-buffering)\n"),
    ("lds-race-waw", "error[lds-race-waw]: lds write at body[580] (iteration 0) and lds write at body[581] (iteration 0) touch buffer 0 stage 1 inside the same barrier interval; nothing orders one wave's access against another's\n  --> `gemm_hgemm_simd#107`, body[581]\n  = help: insert a Barrier between the conflicting accesses, or stage them through different buffers/stages (double-buffering)\n"),
    ("lds-undeclared", "warning[lds-undeclared]: program reads or writes LDS but the kernel declares no LDS allocation\n  --> `gemm_dgemm_v_mfma_f64_16x16x4f64#7`, prologue[3]\n  = help: set `lds_bytes_per_workgroup` so occupancy accounts for it\n"),
    ("low-occupancy", "warning[low-occupancy]: occupancy is 12% of the wave-slot ceiling (4 wave(s) per CU, limited by LDS capacity)\n  --> `wmma_loop_v_mfma_i32_32x32x4i8#0`\n  = help: few resident waves cannot hide MFMA latency (paper Eq. 2's min(N_WF, ...) term); cross-check with mc_sim::occupancy\n"),
    ("max-live-overflow", "error[max-live-overflow]: estimated peak register working set (1872 VGPRs = 8 scratch + 4 operand + 1860 streaming) exceeds the register file (512 per SIMD)\n  --> `wmma_loop_v_mfma_f64_4x4x4f64#56`\n  = help: retire loads sooner (waitcnt batching) or shrink the tile\n"),
    ("max-live-underdeclared", "warning[max-live-underdeclared]: estimated peak register working set (396 VGPRs = 8 scratch + 4 operand + 384 streaming) exceeds the declared arch_vgprs budget (20)\n  --> `wmma_loop_v_mfma_f32_32x32x4f16#44`\n  = help: raise arch_vgprs so the occupancy model sees the real footprint\n"),
    ("mfma-latency-mismatch", "error[mfma-latency-mismatch]: `v_mfma_f32_16x16x16bf16_1k` disagrees with its catalog entry (declared 4 cycles / 1 block(s), catalog says 32 / 1)\n  --> `gemm_bss_v_mfma_f32_16x16x16bf16_1k#54`, body[11]\n  = help: a tampered descriptor silently skews every throughput model (paper Table II); copy the catalog entry verbatim\n"),
    ("mfma-unknown-instruction", "error[mfma-unknown-instruction]: `v_mfma_f64_13x13x13f64` does not resolve in the CDNA2 instruction catalog\n  --> `gemm_dgemm_v_mfma_f64_16x16x4f64#24`, body[8]\n  = help: only the shapes of the paper's Table I exist in hardware; pick the instruction via the catalog, not by hand\n"),
    ("mfma-wrong-arch", "error[mfma-wrong-arch]: `v_mfma_i32_32x32x4i8` is a CDNA2 instruction but the target die is CDNA1\n  --> `wmma_loop_v_mfma_i32_32x32x4i8#0`, body[0]\n  = help: select the instruction from the CDNA1 catalog instead\n"),
    ("vgpr-overflow", "error[vgpr-overflow]: kernel declares 527 accumulation VGPRs per lane; the register file holds 512 per SIMD\n  --> `wmma_loop_v_mfma_f32_4x4x2bf16#40`\n  = help: not even one wavefront can become resident at this footprint\n"),
    ("vgpr-underdeclared", "warning[vgpr-underdeclared]: kernel declares 2 accumulation VGPRs but its MFMA accumulator needs at least 4 per lane\n  --> `wmma_loop_v_mfma_f64_4x4x4f64#56`\n  = help: occupancy estimates will be optimistic; declare the real footprint\n"),
];

/// FNV-1a of every rendered lint and flow report, in corpus order.
const REPORT_HASH: u64 = 0xf87b3b4d7fb52e1a;

#[test]
fn verifier_reports_match_the_pinned_corpus() {
    let pinned = run_corpus();
    let expected: BTreeMap<&str, usize> = RULE_COUNTS.iter().copied().collect();
    for (rule, count) in &pinned.counts {
        assert_eq!(
            expected.get(rule),
            Some(count),
            "rule `{rule}` raised {count} diagnostic(s); the pinned corpus expects {:?}",
            expected.get(rule)
        );
    }
    for rule in expected.keys() {
        assert!(
            pinned.counts.contains_key(rule),
            "rule `{rule}` no longer fires on the pinned corpus"
        );
    }
    for (rule, sample) in SAMPLES {
        assert_eq!(
            pinned.samples.get(rule).map(String::as_str),
            Some(*sample),
            "the first `{rule}` diagnostic changed"
        );
    }
    assert_eq!(
        pinned.hash, REPORT_HASH,
        "rendered lint/flow reports changed (hash {:#018x})",
        pinned.hash
    );
}
