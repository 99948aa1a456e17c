//! The verification memo against the direct verifier.
//!
//! `mc_lint::VerifyMemo` replays one verdict for every kernel of a shape
//! (die, slot lists, `min(body_iterations, 3)`, waves per workgroup, LDS
//! bytes, VGPR counts). These properties feed it the seeded mutation
//! stream of `tests/verifier_golden.rs` — planner and `mc-wmma` kernels
//! with slots deleted, duplicated, swapped and inserted and declarations
//! changed — and require every memoized verdict to equal
//! `verify_kernel` run on the same kernel, report subject included:
//!
//! * across kernels that differ only in `body_iterations` (0, 1, 2, 3,
//!   4, `u64::MAX`) or `workgroups` (0, 1, many), on MI250X, MI100 and
//!   A100, through one memo shared by all three dies;
//! * from a `par_map` sweep whose workers share one memo.

use std::sync::OnceLock;

use amd_matrix_cores::blas::{build_plan, plan_gemm, GemmDesc, GemmOp, Strategy};
use amd_matrix_cores::isa::specs::{self, DieSpec};
use amd_matrix_cores::isa::{
    Buffering, KernelDesc, LdsAccess, MatrixArch, MfmaShape, SlotOp, SlotRuns, StageTag, WaitSpec,
};
use amd_matrix_cores::lint::{catalog_for, verify_kernel, VerifyMemo};
use amd_matrix_cores::types::DType;
use amd_matrix_cores::wmma::{mma_loop_kernel, wmma_gemm_tile_kernel, LoopKernelParams};
use mc_bench::experiment::par_map;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every matrix architecture with an instruction catalog.
const ARCHES: [MatrixArch; 3] = [MatrixArch::Cdna1, MatrixArch::Cdna2, MatrixArch::Ampere];

/// Loop trip counts around the verifiers' three-pass unroll.
const ITERATIONS: [u64; 6] = [0, 1, 2, 3, 4, u64::MAX];

/// Launch sizes: none, one, many.
const WORKGROUPS: [u64; 3] = [0, 1, 1 << 20];

fn dies() -> [DieSpec; 3] {
    [specs::mi250x().die, specs::mi100().die, specs::a100().die]
}

/// The unmutated kernels of `tests/verifier_golden.rs`: planner output
/// for every routine at several sizes in both buffering modes, one loop
/// kernel per catalog instruction of every architecture, and both CDNA2
/// tile kernels.
fn base_kernels() -> &'static [KernelDesc] {
    static BASE: OnceLock<Vec<KernelDesc>> = OnceLock::new();
    BASE.get_or_init(|| {
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
    })
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

/// Applies one random mutation of the golden corpus's stream.
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

/// A base kernel with one to four mutations, named after its seed.
fn mutated(seed: u64) -> KernelDesc {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = base_kernels();
    let mut k = base[rng.gen_range(0..base.len())].clone();
    k.name = format!("{}#{seed:x}", k.name);
    for _ in 0..rng.gen_range(1..5u32) {
        mutate(&mut k, &mut rng);
    }
    k
}

proptest! {
    /// Kernels that differ only in their loop trip count or launch size
    /// share a memo entry where the verifiers cannot tell them apart,
    /// and every verdict — on each die, through one memo — equals the
    /// direct one, subject included.
    #[test]
    fn memoized_verdicts_equal_direct_ones(seed in any::<u64>()) {
        let memo = VerifyMemo::new();
        let k = mutated(seed);
        for iterations in ITERATIONS {
            for workgroups in WORKGROUPS {
                let mut v = k.clone();
                v.name = format!("{}@{iterations}x{workgroups}", k.name);
                v.program.body_iterations = iterations;
                v.workgroups = workgroups;
                for die in &dies() {
                    prop_assert_eq!(memo.verify(die, &v), verify_kernel(die, &v));
                }
            }
        }
    }
}

#[test]
fn one_memo_serves_a_parallel_sweep() {
    let kernels: Vec<KernelDesc> = (0..96u64).map(mutated).collect();
    let memo = VerifyMemo::new();
    let sweep = || {
        let items: Vec<(usize, usize)> = (0..kernels.len())
            .flat_map(|k| (0..dies().len()).map(move |d| (k, d)))
            .collect();
        par_map(true, items, |(k, d)| {
            let die = &dies()[d];
            memo.verify(die, &kernels[k]) == verify_kernel(die, &kernels[k])
        })
    };
    assert!(
        sweep().into_iter().all(|equal| equal),
        "a cold verdict differs"
    );
    let cold = memo.stats();
    assert!(cold.misses > 0);
    // The second sweep finds every shape recorded.
    assert!(
        sweep().into_iter().all(|equal| equal),
        "a replayed verdict differs"
    );
    let warm = memo.stats();
    assert_eq!(warm.misses, cold.misses);
    assert!(warm.hits > cold.hits);
}
