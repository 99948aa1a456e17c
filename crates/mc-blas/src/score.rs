//! Candidate scoring: the Eq. 2 analytic model and `mc-sim` dry runs.
//!
//! The search scores a built [`GemmPlan`] in two tiers:
//!
//! 1. [`analytic_time_s`] — a closed-form estimate from the paper's
//!    Eq. 2 throughput model (`mc_model::ThroughputModel`) plus a
//!    bandwidth bound on the plan's DRAM traffic, combined per the
//!    plan's buffering mode. Cheap enough to rank the whole candidate
//!    list.
//! 2. [`dry_run_time_s`] — the pure simulator engine
//!    ([`mc_sim::execute`]) on the finalists: the same residency,
//!    dispatch-round, and memory model a real launch pays, without
//!    touching any device state (no trace clock, no power governor).
//!
//! Both tiers add the same **pipeline-handoff penalty** to Matrix Core
//! plans whose epilogue must run α/β scaling on the VALUs
//! ([`handoff_penalty_s`]): draining AccVGPRs into the vector pipeline
//! costs a fixed latency the engine's slot model does not see. At large
//! N the penalty vanishes into the makespan; at N = 16 it is exactly
//! why splitting one MFMA's worth of work across both pipelines loses
//! to staying on SIMD — the paper's §VII observation, reproduced here
//! as a scored outcome rather than a hard-coded rule.

use mc_isa::specs::DieSpec;
use mc_isa::Buffering;
use mc_sim::SimConfig;

use crate::planner::{GemmPlan, Strategy};
use crate::types::{BlasError, GemmDesc};

/// Cycles to drain Matrix Core accumulators into the VALU pipeline for
/// epilogue scaling: the fixed cost of splitting one problem across
/// both pipelines. Calibrated so mixed-precision N = 16 problems with
/// α/β scaling score SIMD-first while N = 32 already favors Matrix
/// Cores (paper Fig. 8 / §VII): under the engine model the SIMD−MC gap
/// is ≈510 cycles at N = 16 and ≈4100 cycles at N = 32, so 1024 sits
/// well inside the window that flips the former without the latter.
const HANDOFF_CYCLES: f64 = 1024.0;

/// The handoff penalty in seconds for a strategy on a problem: nonzero
/// only for Matrix Core plans that must scale (`α ≠ 1` or `β ≠ 0`).
pub fn handoff_penalty_s(die: &DieSpec, desc: &GemmDesc, strategy: &Strategy) -> f64 {
    let needs_scaling = desc.alpha != 1.0 || desc.beta != 0.0;
    if needs_scaling && strategy.uses_matrix_cores() {
        HANDOFF_CYCLES / die.clock_hz()
    } else {
        0.0
    }
}

/// Closed-form time estimate for a built plan (tier 1).
///
/// The MFMA term comes from the paper's Eq. 2 throughput model — kept
/// deliberately distinct from the engine's matrix-slot accounting so
/// the `insight` drift gate measures a genuine Eq. 2-vs-engine
/// residual. Every other bound mirrors the engine's dispatch-round
/// structure in closed form ([`mc_sim::wave_demand`]): SIMD issue-port
/// cycles, LDS bandwidth, and the serial dependent chain, scheduled
/// over the same full-plus-ragged round geometry and divided by the
/// residency-degraded clock. DRAM time overlaps (`max`) for
/// double-buffered plans and serializes (`+`) for single-buffered ones
/// — the engine's composition rule — plus launch overhead and the
/// handoff penalty.
pub fn analytic_time_s(die: &DieSpec, cfg: &SimConfig, plan: &GemmPlan) -> f64 {
    let k = &plan.kernel;
    let demand = mc_sim::wave_demand(k);
    let simds = f64::from(die.simd_units_per_cu);

    // Round geometry, mirrored from the engine's dispatch loop: full
    // rounds at residency capacity plus one ragged tail round.
    let wpw = u64::from(k.waves_per_workgroup.max(1));
    let wg_per_cu = u64::from(mc_sim::workgroups_per_cu(die, k).unwrap_or(1).max(1));
    let capacity = (wg_per_cu * u64::from(die.compute_units)).max(1);
    let full_rounds = k.workgroups / capacity;
    let tail = k.workgroups % capacity;
    let wave_slots = |wgs: u64| -> f64 {
        if wgs == 0 {
            return 0.0;
        }
        let wg_cu = wgs.div_ceil(u64::from(die.compute_units));
        ((wg_cu * wpw) as f64 / simds).ceil().max(1.0)
    };
    let w_total = full_rounds as f64 * wave_slots(capacity) + wave_slots(tail);
    let rounds = full_rounds as f64 + f64::from(u8::from(tail > 0));

    // Residency clock at saturated occupancy of the plan's dominant
    // pipeline: matrix-load kappas weighted by per-dtype MFMA cycles
    // for Matrix Core plans, the VALU kappa otherwise.
    let (mc_f64, mc_f32, mc_f16) = demand.mc_cycles_by_type;
    let mc_all = mc_f64 + mc_f32 + mc_f16;
    let clock_loss = if mc_all > 0.0 {
        (cfg.residency.kappa_f64 * mc_f64
            + cfg.residency.kappa_f32 * mc_f32
            + cfg.residency.kappa_f16 * mc_f16)
            / mc_all
    } else {
        cfg.residency.kappa_valu
    };
    let clock_hz = die.clock_hz() * (1.0 - clock_loss).clamp(0.05, 1.0);

    // Pipeline bounds in the cycle domain: SIMD issue ports, LDS
    // bandwidth, and the per-round dependent chain.
    let lds_share = cfg.lds_bytes_per_cycle_per_cu / simds;
    let bound_cycles = (w_total * demand.simd_cycles)
        .max(w_total * demand.lds_bytes / lds_share.max(f64::MIN_POSITIVE))
        .max(rounds * demand.dependent_chain_cycles);
    let mut compute_s = bound_cycles / clock_hz;

    // The Eq. 2 MFMA bound for Matrix Core plans. Eq. 2 assumes waves
    // spread evenly over every SIMD pair on the die; a real launch
    // packs `waves_per_workgroup` onto each resident CU, so small
    // grids serialize on the busiest pair's matrix slots. The
    // placement factor — actual wave slices over the ideal spread —
    // is pure launch geometry, leaving Eq. 2 as the throughput
    // authority inside each slice.
    if let Strategy::MatrixCore { instr, .. } = plan.strategy {
        let model = mc_model::ThroughputModel::new(&instr, die);
        let waves = k.workgroups * wpw;
        let pairs = f64::from(die.compute_units) * simds;
        let ideal_slices = (waves as f64 / pairs).ceil().max(1.0);
        let placement = (w_total / ideal_slices).max(1.0);
        compute_s = compute_s.max(placement * plan.mfma_flops as f64 / model.flops(waves.max(1)));
    }

    let bandwidth = die.hbm_bandwidth_gbs * 1e9 * cfg.dram_streaming_efficiency;
    let dram_s = k.mem_hints.hbm_bytes as f64 / bandwidth;
    let pipelined = match k.mem_hints.buffering {
        Buffering::Double => compute_s.max(dram_s),
        Buffering::Single => compute_s + dram_s,
    };
    pipelined + cfg.launch_overhead_s + handoff_penalty_s(die, &plan.desc, &plan.strategy)
}

/// Engine-modeled time for a built plan (tier 2): [`mc_sim::execute`]
/// plus the handoff penalty, consistently with [`analytic_time_s`].
pub fn dry_run_time_s(die: &DieSpec, cfg: &SimConfig, plan: &GemmPlan) -> Result<f64, BlasError> {
    let exec =
        mc_sim::execute(die, cfg, &plan.kernel).map_err(|e| BlasError::Launch(e.to_string()))?;
    Ok(exec.time_s + handoff_penalty_s(die, &plan.desc, &plan.strategy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{build_plan, plan_gemm, select_strategy};
    use crate::types::{GemmDesc, GemmOp};

    fn die() -> DieSpec {
        mc_isa::specs::mi250x().die
    }

    fn cfg() -> SimConfig {
        SimConfig::mi250x()
    }

    #[test]
    fn penalty_applies_only_to_scaled_matrix_core_plans() {
        let d = die();
        let scaled = GemmDesc::square(GemmOp::Sgemm, 256); // α=β=0.1
        let s = select_strategy(&scaled);
        assert!(handoff_penalty_s(&d, &scaled, &s) > 0.0);
        let unscaled = GemmDesc {
            alpha: 1.0,
            beta: 0.0,
            ..scaled
        };
        assert_eq!(handoff_penalty_s(&d, &unscaled, &s), 0.0);
        let simd = select_strategy(&GemmDesc::square(GemmOp::Hgemm, 256));
        assert_eq!(handoff_penalty_s(&d, &scaled, &simd), 0.0);
    }

    #[test]
    fn analytic_and_dry_run_agree_on_ordering_at_scale() {
        // Both tiers must call the mid-size SGEMM sweet spot faster per
        // FLOP than the tiny launch-bound problem.
        let d = die();
        let c = cfg();
        let small = plan_gemm(&d, &GemmDesc::square(GemmOp::Sgemm, 64)).unwrap();
        let big = plan_gemm(&d, &GemmDesc::square(GemmOp::Sgemm, 4096)).unwrap();
        let tput = |p: &GemmPlan, t: f64| p.useful_flops() as f64 / t;
        assert!(
            tput(&big, analytic_time_s(&d, &c, &big))
                > 100.0 * tput(&small, analytic_time_s(&d, &c, &small))
        );
        assert!(
            tput(&big, dry_run_time_s(&d, &c, &big).unwrap())
                > 100.0 * tput(&small, dry_run_time_s(&d, &c, &small).unwrap())
        );
    }

    #[test]
    fn single_buffering_scores_slower_when_dram_is_hidden() {
        // At 8192 the double-buffered plan hides multi-ms DRAM traffic;
        // serializing it must cost in both scoring tiers.
        let d = die();
        let c = cfg();
        let desc = GemmDesc::square(GemmOp::Sgemm, 8192);
        let double = plan_gemm(&d, &desc).unwrap();
        let Strategy::MatrixCore {
            instr,
            macro_tile,
            wave_tile,
            k_step,
            ..
        } = double.strategy
        else {
            panic!("expected matrix-core strategy");
        };
        let single = build_plan(
            &d,
            &desc,
            Strategy::MatrixCore {
                instr,
                macro_tile,
                wave_tile,
                k_step,
                buffering: Buffering::Single,
            },
        )
        .unwrap();
        assert!(analytic_time_s(&d, &c, &single) > analytic_time_s(&d, &c, &double));
        assert!(
            dry_run_time_s(&d, &c, &single).unwrap() > dry_run_time_s(&d, &c, &double).unwrap()
        );
    }
}
