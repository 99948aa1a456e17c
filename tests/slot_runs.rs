//! Run-length programs price exactly like their slots.
//!
//! `mc_isa::WaveProgram` stores each section as canonical `(op, count)`
//! runs, and every sum over a program (the engine's pipeline demand,
//! FLOPs, bytes, hardware counters) prices a run as one `count × times`
//! term. Each per-slot term is an integer-valued `f64` or a `u64`, so
//! that product must equal the slot-by-slot sum bit for bit. These tests
//! build every candidate kernel of the reduced `autotune` sweep (the
//! Figs. 6–7 routines at every size of the §VII grid) and check:
//!
//! * `wave_demand`, `flops`, `mfma_flops`, `global_bytes`, the
//!   `HwCounters` and the `execute` totals against a reference summed
//!   over the expanded slots, in program order;
//! * that a program pushed slot by slot is the same value as the one the
//!   planner built from runs, with the same verification-memo key.

use std::sync::OnceLock;

use amd_matrix_cores::blas::{build_plan_with, enumerate_candidates, GemmDesc};
use amd_matrix_cores::isa::specs::DieSpec;
use amd_matrix_cores::isa::{KernelDesc, SlotOp, SlotRuns, WaveProgram};
use amd_matrix_cores::lint::VerifyMemo;
use amd_matrix_cores::sim::engine::{execute, wave_demand, WaveDemand};
use amd_matrix_cores::sim::{DeviceId, DeviceRegistry, HwCounters, SimConfig};
use amd_matrix_cores::types::DType;
use mc_bench::autotune::{sweep_sizes, SWEEP_OPS};
use mc_bench::experiment::IterBudgets;

/// Candidates the reduced sweep enumerates (`mc-blas.search.enumerated`).
const SWEEP_CANDIDATES: usize = 1062;

/// The sweep's device, as the `autotune` experiment configures it.
fn device() -> (DieSpec, SimConfig) {
    let cfg = DeviceRegistry::builtin()
        .config(DeviceId::Mi250xGcd)
        .clone();
    (cfg.package.die.clone(), cfg)
}

/// Every kernel the sweep's candidates compile to (candidates the
/// verifiers reject included: the memo records their shapes too), and
/// the memo they were verified through.
fn candidates() -> &'static (Vec<KernelDesc>, VerifyMemo) {
    static CANDIDATES: OnceLock<(Vec<KernelDesc>, VerifyMemo)> = OnceLock::new();
    CANDIDATES.get_or_init(|| {
        let (die, _) = device();
        let memo = VerifyMemo::new();
        let mut kernels = Vec::new();
        let mut enumerated = 0;
        for op in SWEEP_OPS {
            for n in sweep_sizes(&IterBudgets::reduced()) {
                let desc = GemmDesc::square(op, n);
                for strategy in enumerate_candidates(&desc) {
                    enumerated += 1;
                    if let Ok(plan) = build_plan_with(&memo, &die, &desc, strategy) {
                        kernels.push(plan.kernel);
                    }
                }
            }
        }
        assert_eq!(enumerated, SWEEP_CANDIDATES);
        (kernels, memo)
    })
}

/// Each slot of `p` in program order with its dynamic count: 1 in the
/// prologue and the epilogue, `body_iterations` in the body.
fn expanded(p: &WaveProgram) -> Vec<(SlotOp, u64)> {
    let once = |s: &SlotRuns| s.iter().map(|op| (*op, 1)).collect::<Vec<_>>();
    let mut slots = once(&p.prologue);
    slots.extend(p.body.iter().map(|op| (*op, p.body_iterations)));
    slots.extend(once(&p.epilogue));
    slots
}

/// The per-wave demand summed slot by slot: each slot's demand is that
/// of a one-slot loop run `times` times, added in program order.
fn demand_per_slot(p: &WaveProgram) -> WaveDemand {
    let mut sum = WaveDemand::default();
    for (op, times) in expanded(p) {
        let d = wave_demand(&KernelDesc::new("slot", WaveProgram::looped([op], times)));
        sum.dependent_chain_cycles += d.dependent_chain_cycles;
        sum.mc_cycles += d.mc_cycles;
        sum.simd_cycles += d.simd_cycles;
        sum.lds_bytes += d.lds_bytes;
        sum.mc_cycles_by_type.0 += d.mc_cycles_by_type.0;
        sum.mc_cycles_by_type.1 += d.mc_cycles_by_type.1;
        sum.mc_cycles_by_type.2 += d.mc_cycles_by_type.2;
    }
    sum
}

/// Bit patterns of every demand field, so `-0.0`/`0.0` or a NaN cannot
/// compare equal by accident.
fn bits(d: &WaveDemand) -> [u64; 7] {
    [
        d.dependent_chain_cycles,
        d.mc_cycles,
        d.simd_cycles,
        d.lds_bytes,
        d.mc_cycles_by_type.0,
        d.mc_cycles_by_type.1,
        d.mc_cycles_by_type.2,
    ]
    .map(f64::to_bits)
}

#[test]
fn every_candidate_prices_its_runs_like_its_slots() {
    let (die, cfg) = device();
    let (kernels, _) = candidates();
    let (mut slots, mut runs) = (0usize, 0usize);
    for k in kernels {
        let p = &k.program;
        let expanded = expanded(p);
        slots += expanded.len();
        runs += [&p.prologue, &p.body, &p.epilogue]
            .map(|s| s.runs().len())
            .iter()
            .sum::<usize>();

        assert_eq!(
            bits(&wave_demand(k)),
            bits(&demand_per_slot(p)),
            "{}",
            k.name
        );
        let flops: u64 = expanded.iter().map(|(op, n)| op.flops() * n).sum();
        let mfma_flops: u64 = expanded
            .iter()
            .filter(|(op, _)| op.is_mfma())
            .map(|(op, n)| op.flops() * n)
            .sum();
        let bytes: u64 = expanded.iter().map(|(op, n)| op.global_bytes(64) * n).sum();
        assert_eq!(p.flops(), flops, "{}", k.name);
        assert_eq!(p.mfma_flops(), mfma_flops, "{}", k.name);
        assert_eq!(p.global_bytes(64), bytes, "{}", k.name);

        let waves = k.total_waves();
        let mut counters = HwCounters::default();
        let mut by_type = (0u64, 0u64, 0u64);
        for (op, n) in &expanded {
            counters.record(op, n * waves);
            if let SlotOp::Mfma(i) = op {
                let f = i.flops() * n * waves;
                match i.ab {
                    DType::F64 => by_type.0 += f,
                    DType::F32 => by_type.1 += f,
                    _ => by_type.2 += f,
                }
            }
        }
        counters.waves_launched = waves;
        counters.workgroups_launched = k.workgroups;
        let exec = execute(&die, &cfg, k).expect("sweep kernels launch");
        assert_eq!(exec.counters, counters, "{}", k.name);
        assert_eq!(exec.flops, flops * waves, "{}", k.name);
        assert_eq!(exec.mfma_flops, mfma_flops * waves, "{}", k.name);
        assert_eq!(exec.mfma_flops_by_type, by_type, "{}", k.name);
        assert_eq!(exec.valu_flops, (flops - mfma_flops) * waves, "{}", k.name);
    }
    // The sweep's SIMD bodies are hundreds of slots in a handful of runs.
    assert!(slots > 5 * runs, "{slots} slots in {runs} runs");
}

#[test]
fn slot_by_slot_programs_equal_run_built_ones() {
    let (die, _) = device();
    let (kernels, memo) = candidates();
    let shapes = memo.len();
    let misses = memo.stats().misses;
    let push_each = |s: &SlotRuns| {
        let mut pushed = SlotRuns::new();
        for op in s.iter() {
            pushed.push(*op);
        }
        pushed
    };
    for k in kernels {
        let rebuilt = KernelDesc {
            program: WaveProgram {
                prologue: push_each(&k.program.prologue),
                body: push_each(&k.program.body),
                body_iterations: k.program.body_iterations,
                epilogue: push_each(&k.program.epilogue),
            },
            ..k.clone()
        };
        assert_eq!(rebuilt, *k);
        // Same key: the memo answers from the verdict the planner's
        // kernel recorded, and verifies nothing anew.
        assert_eq!(memo.verify(&die, &rebuilt), memo.verify(&die, k));
    }
    assert_eq!(memo.len(), shapes);
    assert_eq!(memo.stats().misses, misses);
}
