//! The execution engine: turns a [`KernelDesc`] into cycles, time,
//! occupancy, and counter increments for one die.
//!
//! # Execution model
//!
//! The engine works at wavefront-instruction granularity with closed-form
//! aggregation (DESIGN.md decision 1). Each CU pairs each of its four
//! SIMD units with one Matrix Core. A wavefront executes its program
//! in order; when `w` wavefronts are resident on one SIMD/Matrix-Core
//! pair, each pipeline serializes their demands. The per-iteration time
//! for one wave is therefore
//!
//! ```text
//! T_iter(w) = max( self-serial latency,          — dependent-issue chain
//!                  w · Σ matrix-unit cycles,     — Matrix Core occupancy
//!                  w · Σ SIMD issue cycles,      — issue-port occupancy
//!                  w · Σ LDS cycles / pair-share) — LDS bandwidth
//! ```
//!
//! Workgroups are dispatched in rounds (as on hardware: waves do not
//! migrate). The paper's own description of the >440-wavefront regime —
//! "440 will execute immediately ... the remaining 220 will then execute
//! in a second phase during which half the Matrix Cores are idle"
//! (§V-B) — is exactly this round model.
//!
//! Clock behaviour follows the calibrated residency model in
//! [`crate::config::ClockResidency`]: one wavefront measuring instruction
//! latency sees the full boost clock (clean Table II numbers); a die full
//! of MFMA traffic settles at the sustained plateau.

use mc_isa::specs::{DieSpec, PackageSpec};
use mc_isa::{KernelDesc, SlotOp, WaveProgram};
use mc_types::DType;
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::counters::HwCounters;
use crate::memory;

/// Aggregate pipeline demand of one pass over a slice of slots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct SliceDemand {
    /// Serial (dependent-chain) cycles: every op's latency back to back.
    self_cycles: f64,
    /// Matrix-unit busy cycles.
    mc_cycles: f64,
    /// SIMD issue-port cycles (VALU passes + one issue slot per other op).
    simd_cycles: f64,
    /// LDS bytes moved per wavefront.
    lds_bytes: f64,
    /// Matrix-unit cycles broken down by input datatype (for residency).
    mc_cycles_f64: f64,
    mc_cycles_f32: f64,
    mc_cycles_f16: f64,
    /// Synchronization-stall cycles inside the dependent chain:
    /// `s_waitcnt`, `s_barrier`, and `s_nop` hazard slots. A subset of
    /// `self_cycles`; the diagnostic layer reads their share to call a
    /// kernel barrier-stalled.
    wait_cycles: f64,
}

impl SliceDemand {
    fn add(&mut self, op: &SlotOp, times: f64) {
        match op {
            SlotOp::Mfma(i) => {
                let c = f64::from(i.latency_cycles) * times;
                self.mc_cycles += c;
                // Issuing an MFMA occupies the SIMD issue port for the
                // four quarter-wave operand-read passes.
                self.simd_cycles += 4.0 * times;
                self.self_cycles += c;
                match i.ab {
                    DType::F64 => self.mc_cycles_f64 += c,
                    DType::F32 => self.mc_cycles_f32 += c,
                    _ => self.mc_cycles_f16 += c,
                }
            }
            SlotOp::Valu(v) => {
                let c = f64::from(v.issue_cycles()) * times;
                self.simd_cycles += c;
                self.self_cycles += c;
            }
            SlotOp::GlobalLoad { .. } | SlotOp::GlobalStore { .. } => {
                // One issue slot; latency is modelled at kernel level via
                // the DRAM time, overlapped with compute or serialized
                // behind it per the kernel's `MemHints::buffering`.
                self.simd_cycles += times;
                self.self_cycles += times;
            }
            SlotOp::LdsRead { bytes_per_lane, .. } | SlotOp::LdsWrite { bytes_per_lane, .. } => {
                self.simd_cycles += times;
                self.self_cycles += times;
                self.lds_bytes += f64::from(*bytes_per_lane) * 64.0 * times;
            }
            SlotOp::SNop(n) => {
                self.self_cycles += f64::from(*n) * times;
                self.wait_cycles += f64::from(*n) * times;
            }
            SlotOp::Waitcnt(_) | SlotOp::Barrier => {
                // Synchronization: one scalar-pipe slot each, but the
                // wave is stalled, not working — tallied separately so
                // the stall share is observable downstream.
                self.self_cycles += times;
                self.wait_cycles += times;
            }
            SlotOp::Scalar => {
                // Scalar pipe work: free on the vector pipes, one issue slot.
                self.self_cycles += times;
            }
        }
    }

    fn of_program(p: &WaveProgram) -> SliceDemand {
        let mut d = SliceDemand::default();
        for (op, times) in p.dynamic_slots() {
            d.add(op, times as f64);
        }
        d
    }
}

/// Per-wave pipeline demand of a kernel's program: the same aggregation
/// the engine's dispatch-round loop prices every round with, exposed so
/// analytic scorers (`mc-blas`'s Eq. 2 tier) can mirror the engine's
/// first-order cost structure without running it — and so the `insight`
/// drift gate measures genuine model residuals instead of bookkeeping
/// differences.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WaveDemand {
    /// Serial dependent-chain cycles: every op's latency back to back.
    pub dependent_chain_cycles: f64,
    /// Matrix-unit busy cycles per wave.
    pub mc_cycles: f64,
    /// SIMD issue-port cycles per wave (VALU passes plus one issue slot
    /// per load/store/LDS op, four per MFMA operand read).
    pub simd_cycles: f64,
    /// LDS bytes moved per wave.
    pub lds_bytes: f64,
    /// Matrix cycles by input datatype `(f64, f32, f16-class)` — the
    /// weights the residency model applies to the clock.
    pub mc_cycles_by_type: (f64, f64, f64),
}

/// Computes the per-wave [`WaveDemand`] of a kernel's program.
pub fn wave_demand(k: &KernelDesc) -> WaveDemand {
    let d = SliceDemand::of_program(&k.program);
    WaveDemand {
        dependent_chain_cycles: d.self_cycles,
        mc_cycles: d.mc_cycles,
        simd_cycles: d.simd_cycles,
        lds_bytes: d.lds_bytes,
        mc_cycles_by_type: (d.mc_cycles_f64, d.mc_cycles_f32, d.mc_cycles_f16),
    }
}

/// How many workgroups of this kernel fit on one CU simultaneously.
///
/// Returns `None` if a single workgroup exceeds CU resources.
pub fn workgroups_per_cu(die: &DieSpec, k: &KernelDesc) -> Option<u32> {
    if k.waves_per_workgroup == 0 {
        return None;
    }
    // LDS limit.
    let by_lds = die
        .lds_bytes_per_cu
        .checked_div(k.lds_bytes_per_workgroup)
        .unwrap_or(u32::MAX);
    // Register limits bound waves per SIMD.
    let by_vgpr = die
        .vgprs_per_simd
        .checked_div(k.arch_vgprs)
        .unwrap_or(die.max_waves_per_simd);
    let by_agpr = die
        .vgprs_per_simd
        .checked_div(k.acc_vgprs)
        .unwrap_or(die.max_waves_per_simd);
    let waves_per_simd = die.max_waves_per_simd.min(by_vgpr).min(by_agpr);
    let waves_per_cu = waves_per_simd * die.simd_units_per_cu;
    let by_waves = waves_per_cu / k.waves_per_workgroup;
    let limit = by_lds.min(by_waves);
    (limit >= 1).then_some(limit)
}

/// What limited one dispatch round's duration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoundBound {
    /// Matrix-unit occupancy was the bottleneck.
    MatrixCore,
    /// SIMD issue bandwidth was the bottleneck.
    SimdIssue,
    /// LDS bandwidth was the bottleneck.
    Lds,
    /// The serial dependent-instruction chain (low occupancy).
    DependentChain,
    /// No work.
    Empty,
}

/// One dispatch round of a kernel execution (the unit of the paper's
/// "first phase / second phase" description for >440 wavefronts, §V-B).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoundTrace {
    /// Workgroups dispatched in this round.
    pub workgroups: u64,
    /// Wavefronts resident per SIMD/Matrix-Core pair (most-loaded CU).
    pub waves_per_pair: f64,
    /// Round makespan in cycles.
    pub cycles: f64,
    /// Fraction of the die's SIMD pairs that had work this round.
    pub pair_utilization: f64,
    /// The limiting pipeline.
    pub bound: RoundBound,
    /// Matrix-unit busy cycles on the most-loaded SIMD pair this round
    /// (≤ `cycles`; the tracer renders these as pipeline busy spans).
    pub mc_busy_cycles: f64,
    /// SIMD issue-port busy cycles on the most-loaded pair (≤ `cycles`).
    pub simd_busy_cycles: f64,
    /// LDS busy cycles on the most-loaded pair (≤ `cycles`).
    pub lds_busy_cycles: f64,
}

/// The result of executing one kernel on one die (pre-governor).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelExec {
    /// Compute-side cycles (makespan over all dispatch rounds).
    pub compute_cycles: f64,
    /// Effective clock in Hz after the residency model.
    pub effective_clock_hz: f64,
    /// DRAM transfer time in seconds.
    pub dram_time_s: f64,
    /// Total kernel time in seconds (max of compute/DRAM, plus launch
    /// overhead) at the residency clock, before any governor action.
    pub time_s: f64,
    /// Total operations performed (FLOPs, or integer ops).
    pub flops: u64,
    /// Operations delivered by matrix units.
    pub mfma_flops: u64,
    /// Matrix-unit FLOPs by input datatype: (f64, f32, f16-class).
    pub mfma_flops_by_type: (u64, u64, u64),
    /// Vector-ALU FLOPs.
    pub valu_flops: u64,
    /// DRAM traffic in bytes.
    pub hbm_bytes: u64,
    /// Average matrix-unit occupancy across the kernel (0–1).
    pub matrix_occupancy: f64,
    /// Average SIMD issue occupancy (0–1).
    pub simd_occupancy: f64,
    /// Counter increments produced by this launch.
    pub counters: HwCounters,
    /// Fraction of compute time that is matrix-unit bound (diagnostic).
    pub compute_bound_fraction: f64,
    /// Share of the per-wave dependent chain spent in synchronization
    /// stalls (`s_waitcnt`, `s_barrier`, `s_nop` hazard slots), in
    /// `[0, 1]`. High values flag a kernel whose serial chain is
    /// dominated by waiting rather than issuing.
    pub wait_stall_fraction: f64,
    /// DRAM time not hidden behind compute, in seconds: the whole
    /// transfer for single-buffered kernels, the overhang
    /// `max(0, dram − compute)` for double-buffered ones.
    pub exposed_dram_time_s: f64,
    /// Share of the kernel wall time stalled on exposed DRAM transfers
    /// (`exposed_dram_time_s / time_s`), in `[0, 1]`.
    pub memory_stall_fraction: f64,
    /// Per-dispatch-round execution trace.
    pub rounds: Vec<RoundTrace>,
}

/// Errors from kernel validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// The kernel requests more resources than one CU provides.
    ResourceExhausted {
        /// Explanation of the exceeded resource.
        what: String,
    },
    /// The kernel has no work (zero workgroups or empty program).
    EmptyLaunch,
    /// Die index out of range for the package.
    InvalidDie {
        /// The requested die index.
        die: usize,
        /// Number of dies in the package.
        dies: usize,
    },
}

impl core::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LaunchError::ResourceExhausted { what } => {
                write!(f, "kernel exceeds CU resources: {what}")
            }
            LaunchError::EmptyLaunch => write!(f, "kernel has no work"),
            LaunchError::InvalidDie { die, dies } => {
                write!(f, "die index {die} out of range (package has {dies})")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// Executes one kernel on one die, returning timing, occupancy, and
/// counters. Deterministic and closed-form.
pub fn execute(die: &DieSpec, cfg: &SimConfig, k: &KernelDesc) -> Result<KernelExec, LaunchError> {
    if k.workgroups == 0
        || (k.program.body.is_empty()
            && k.program.prologue.is_empty()
            && k.program.epilogue.is_empty())
    {
        return Err(LaunchError::EmptyLaunch);
    }
    if k.lds_bytes_per_workgroup > die.lds_bytes_per_cu {
        return Err(LaunchError::ResourceExhausted {
            what: format!(
                "LDS {} B per workgroup > {} B per CU",
                k.lds_bytes_per_workgroup, die.lds_bytes_per_cu
            ),
        });
    }
    let wg_per_cu = workgroups_per_cu(die, k).ok_or_else(|| LaunchError::ResourceExhausted {
        what: format!(
            "workgroup of {} waves with {}v/{}a VGPRs does not fit a CU",
            k.waves_per_workgroup, k.arch_vgprs, k.acc_vgprs
        ),
    })?;

    // Static-verification backstop: compile paths (mc-wmma's builder,
    // mc-blas's planner) lint before handing a kernel to the engine, so
    // an error-level finding reaching this point is a bug in the caller.
    // Debug builds only — the check is redundant on the release sweeps.
    #[cfg(debug_assertions)]
    {
        let report = mc_lint::lint_kernel(die, k);
        debug_assert!(
            !report.has_errors(),
            "kernel reached the engine with static-verification errors:\n{}",
            report.render()
        );
    }

    let demand = SliceDemand::of_program(&k.program);
    let simds = f64::from(die.simd_units_per_cu);
    let cus = f64::from(die.compute_units);
    let pairs_total = cus * simds;

    // Dispatch rounds. Each round fills up to `wg_per_cu` workgroups on
    // every CU; the most-loaded SIMD pair of the round sets its makespan.
    let capacity_per_round = u64::from(wg_per_cu) * die.compute_units as u64;
    let mut remaining = k.workgroups;
    let mut total_cycles = 0.0_f64;
    let mut mc_busy_weighted = 0.0_f64; // Σ round_cycles × occupancy
    let mut simd_busy_weighted = 0.0_f64;

    // LDS bandwidth share per SIMD pair, bytes per cycle.
    let lds_share = cfg.lds_bytes_per_cycle_per_cu / simds;

    let round_count = k.workgroups.div_ceil(capacity_per_round.max(1)) as usize;
    let mut rounds = Vec::with_capacity(round_count);
    while remaining > 0 {
        let this_round = remaining.min(capacity_per_round);
        remaining -= this_round;

        // Workgroups per CU this round (ceil: the most-loaded CU governs).
        let wg_cu = this_round.div_ceil(die.compute_units as u64);
        let waves_cu = wg_cu * u64::from(k.waves_per_workgroup);
        // Waves per SIMD pair on the most-loaded CU.
        let w = (waves_cu as f64 / simds).ceil().max(1.0);

        let mc = w * demand.mc_cycles;
        let simd = w * demand.simd_cycles;
        let lds = if lds_share > 0.0 {
            w * demand.lds_bytes / lds_share
        } else {
            0.0
        };
        // The binding resource is selected by max-index, not by
        // re-comparing floats for equality afterwards: the earliest
        // entry attaining the maximum wins, so exact ties resolve
        // deterministically in priority order (Matrix Core > SIMD >
        // LDS > dependent chain) without any epsilon.
        let candidates = [
            (mc, RoundBound::MatrixCore),
            (simd, RoundBound::SimdIssue),
            (lds, RoundBound::Lds),
            (demand.self_cycles, RoundBound::DependentChain),
        ];
        let mut best = candidates.len() - 1;
        for i in (0..candidates.len()).rev() {
            if candidates[i].0 >= candidates[best].0 {
                best = i;
            }
        }
        let t_wave = candidates[best].0;
        total_cycles += t_wave;

        // Occupancy bookkeeping: how busy matrix units and SIMDs are,
        // averaged over all pairs on the die during this round.
        let active_pairs =
            ((this_round * u64::from(k.waves_per_workgroup)) as f64).min(pairs_total * w);
        let pair_fraction = (active_pairs / w).min(pairs_total) / pairs_total;
        if t_wave > 0.0 {
            mc_busy_weighted += t_wave * (mc / t_wave).min(1.0) * pair_fraction;
            simd_busy_weighted += t_wave * (simd / t_wave).min(1.0) * pair_fraction;
        }

        // Trace entry: what bound this round.
        let bound = if t_wave <= 0.0 {
            RoundBound::Empty
        } else {
            candidates[best].1
        };
        rounds.push(RoundTrace {
            workgroups: this_round,
            waves_per_pair: w,
            cycles: t_wave,
            pair_utilization: pair_fraction,
            bound,
            mc_busy_cycles: mc.min(t_wave),
            simd_busy_cycles: simd.min(t_wave),
            lds_busy_cycles: lds.min(t_wave),
        });
    }

    let matrix_occupancy = if total_cycles > 0.0 {
        mc_busy_weighted / total_cycles
    } else {
        0.0
    };
    let simd_occupancy = if total_cycles > 0.0 {
        simd_busy_weighted / total_cycles
    } else {
        0.0
    };

    // Residency: weight each datatype's kappa by its share of matrix time.
    let mc_all = demand.mc_cycles_f64 + demand.mc_cycles_f32 + demand.mc_cycles_f16;
    let kappa_mc = if mc_all > 0.0 {
        (cfg.residency.kappa_f64 * demand.mc_cycles_f64
            + cfg.residency.kappa_f32 * demand.mc_cycles_f32
            + cfg.residency.kappa_f16 * demand.mc_cycles_f16)
            / mc_all
    } else {
        0.0
    };
    let clock_loss = kappa_mc * matrix_occupancy
        + cfg.residency.kappa_valu * simd_occupancy * (1.0 - matrix_occupancy);
    let effective_clock_hz = die.clock_hz() * (1.0 - clock_loss).clamp(0.05, 1.0);

    let compute_time_s = total_cycles / effective_clock_hz;
    let dram_time_s = memory::dram_time_s(die, cfg, &k.mem_hints);
    // Double-buffered kernels hide DRAM latency behind compute (the two
    // phases pipeline, so the slower one sets the pace); single-buffered
    // kernels wait for each panel before computing on it, so the phases
    // serialize. The planner declares which discipline it compiled.
    let overlapped = match k.mem_hints.buffering {
        mc_isa::Buffering::Double => compute_time_s.max(dram_time_s),
        mc_isa::Buffering::Single => compute_time_s + dram_time_s,
    };
    let time_s = overlapped + cfg.launch_overhead_s;
    // DRAM time the compute pipeline actually waits for: the whole
    // transfer when single-buffered, only the overhang when the
    // double-buffered pipeline hides it behind compute.
    let exposed_dram_time_s = match k.mem_hints.buffering {
        mc_isa::Buffering::Double => (dram_time_s - compute_time_s).max(0.0),
        mc_isa::Buffering::Single => dram_time_s,
    };

    // FLOP and counter accounting.
    let total_waves = k.total_waves();
    let mut counters = HwCounters::default();
    for (op, times) in k.program.dynamic_slots() {
        counters.record(op, times * total_waves);
    }
    counters.waves_launched = total_waves;
    counters.workgroups_launched = k.workgroups;

    let flops = k.program.flops() * total_waves;
    let mfma_flops = k.program.mfma_flops() * total_waves;
    let mut by_type = (0u64, 0u64, 0u64);
    for (op, times) in k.program.dynamic_slots() {
        if let SlotOp::Mfma(i) = op {
            let f = i.flops() * times * total_waves;
            match i.ab {
                DType::F64 => by_type.0 += f,
                DType::F32 => by_type.1 += f,
                _ => by_type.2 += f,
            }
        }
    }

    Ok(KernelExec {
        compute_cycles: total_cycles,
        effective_clock_hz,
        dram_time_s,
        time_s,
        flops,
        mfma_flops,
        mfma_flops_by_type: by_type,
        valu_flops: flops - mfma_flops,
        hbm_bytes: k.mem_hints.hbm_bytes,
        matrix_occupancy,
        simd_occupancy,
        counters,
        compute_bound_fraction: if time_s > 0.0 {
            compute_time_s / (compute_time_s + dram_time_s).max(f64::MIN_POSITIVE)
        } else {
            1.0
        },
        wait_stall_fraction: if demand.self_cycles > 0.0 {
            (demand.wait_cycles / demand.self_cycles).clamp(0.0, 1.0)
        } else {
            0.0
        },
        exposed_dram_time_s,
        memory_stall_fraction: if time_s > 0.0 {
            (exposed_dram_time_s / time_s).clamp(0.0, 1.0)
        } else {
            0.0
        },
        rounds,
    })
}

/// Dynamic (per-operation) energy of one execution in joules, charged
/// from the package's energy table (Eq. 3 dynamic term): matrix-unit
/// FLOPs priced per input datatype, VALU FLOPs, and HBM traffic per
/// byte. The static idle/baseline terms accrue with wall time and are
/// accounted by the package power model, not here.
pub fn dynamic_energy_j(spec: &PackageSpec, e: &KernelExec) -> f64 {
    let t = &spec.energy_pj;
    let (f64f, f32f, f16f) = e.mfma_flops_by_type;
    (f64f as f64 * t.mfma_f64
        + f32f as f64 * t.mfma_f32
        + f16f as f64 * t.mfma_f16
        + e.valu_flops as f64 * t.valu
        + e.hbm_bytes as f64 * t.hbm_per_byte)
        * 1e-12
}

/// Where one kernel's events land on a shared trace timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePlacement<'a> {
    /// Die index (becomes the trace "process").
    pub die: u32,
    /// Launch start on the trace timeline, in seconds.
    pub t0_s: f64,
    /// Governor clock scale applied on top of the residency clock
    /// (1.0 = no throttling).
    pub clock_scale: f64,
    /// Wall time of the kernel after governor action, in seconds.
    pub wall_time_s: f64,
    /// Name of the package specification the kernel ran on — the join
    /// key `mc-obs` uses to attribute kernel spans back to a device
    /// (empty when the caller has no package context).
    pub spec: &'a str,
    /// Dynamic energy charged to this kernel in joules (Eq. 3 dynamic
    /// term; idle/baseline static power is apportioned downstream).
    pub dynamic_energy_j: f64,
}

/// Emits the execution timeline of one kernel into a trace sink: the
/// kernel span (tagged with every non-zero hardware counter as a
/// `ctr.*` argument), one span per dispatch round, per-pipeline busy
/// intervals of the most-loaded CU, the HBM transfer window, and
/// occupancy counter samples.
///
/// No-op when the sink is disabled; untraced launches build no events.
pub fn emit_kernel_events(
    sink: &dyn mc_trace::TraceSink,
    at: &TracePlacement,
    k: &KernelDesc,
    e: &KernelExec,
) {
    use mc_trace::{ArgValue, Category, SpanEvent, TraceEvent, Track};

    if !sink.enabled() {
        return;
    }
    let t0 = at.t0_s * 1e6;
    let wall = at.wall_time_s * 1e6;
    let clock_hz = e.effective_clock_hz * at.clock_scale;
    let us_per_cycle = 1e6 / clock_hz;

    let mut args: Vec<(String, ArgValue)> = vec![
        ("spec".into(), at.spec.into()),
        ("flops".into(), e.flops.into()),
        ("mfma_flops".into(), e.mfma_flops.into()),
        ("mfma_flops_f64".into(), e.mfma_flops_by_type.0.into()),
        ("mfma_flops_f32".into(), e.mfma_flops_by_type.1.into()),
        ("mfma_flops_f16".into(), e.mfma_flops_by_type.2.into()),
        ("valu_flops".into(), e.valu_flops.into()),
        ("hbm_bytes".into(), e.hbm_bytes.into()),
        ("compute_cycles".into(), e.compute_cycles.into()),
        ("effective_clock_hz".into(), clock_hz.into()),
        ("clock_scale".into(), at.clock_scale.into()),
        ("dram_time_s".into(), e.dram_time_s.into()),
        ("dynamic_energy_j".into(), at.dynamic_energy_j.into()),
        ("matrix_occupancy".into(), e.matrix_occupancy.into()),
        ("simd_occupancy".into(), e.simd_occupancy.into()),
        ("rounds".into(), (e.rounds.len() as u64).into()),
        (
            "compute_bound_fraction".into(),
            e.compute_bound_fraction.into(),
        ),
        ("wait_stall_fraction".into(), e.wait_stall_fraction.into()),
        ("exposed_dram_time_s".into(), e.exposed_dram_time_s.into()),
        (
            "memory_stall_fraction".into(),
            e.memory_stall_fraction.into(),
        ),
    ];
    for (name, value) in e.counters.iter() {
        if value > 0 {
            args.push((format!("ctr.{name}"), value.into()));
        }
    }
    sink.record(TraceEvent::Span(SpanEvent {
        name: k.name.clone(),
        category: Category::Kernel,
        device: at.die,
        track: Track::Launch,
        t0_us: t0,
        dur_us: wall,
        args,
    }));

    // Dispatch rounds tile the compute window back to back; their total
    // (compute_cycles / clock) never exceeds the wall time.
    let mut cursor = t0;
    for (i, round) in e.rounds.iter().enumerate() {
        let dur = round.cycles * us_per_cycle;
        sink.record(TraceEvent::Span(SpanEvent {
            name: format!("round {i}"),
            category: Category::Round,
            device: at.die,
            track: Track::Launch,
            t0_us: cursor,
            dur_us: dur,
            args: vec![
                ("workgroups".into(), round.workgroups.into()),
                ("waves_per_pair".into(), round.waves_per_pair.into()),
                ("pair_utilization".into(), round.pair_utilization.into()),
                ("bound".into(), format!("{:?}", round.bound).into()),
            ],
        }));
        let pipes = [
            (round.mc_busy_cycles, Track::MatrixPipe(0), "matrix busy"),
            (
                round.simd_busy_cycles,
                Track::SimdPipe(0),
                "simd issue busy",
            ),
            (round.lds_busy_cycles, Track::LdsPipe(0), "lds busy"),
        ];
        for (busy_cycles, track, name) in pipes {
            let busy_us = busy_cycles.min(round.cycles) * us_per_cycle;
            if busy_us > 0.0 {
                sink.record(TraceEvent::Span(SpanEvent {
                    name: name.to_owned(),
                    category: Category::Pipeline,
                    device: at.die,
                    track,
                    t0_us: cursor,
                    dur_us: busy_us,
                    args: vec![("busy_cycles".into(), busy_cycles.into())],
                }));
            }
        }
        cursor += dur;
    }

    // HBM transfer window (overlapped with compute by the engine model,
    // so it starts at launch and is bounded by the wall time).
    if e.hbm_bytes > 0 && e.dram_time_s > 0.0 {
        sink.record(TraceEvent::Span(SpanEvent {
            name: "hbm transfer".to_owned(),
            category: Category::Memory,
            device: at.die,
            track: Track::Memory,
            t0_us: t0,
            dur_us: (e.dram_time_s * 1e6).min(wall),
            args: vec![("bytes".into(), e.hbm_bytes.into())],
        }));
    }

    // Occupancy counter tracks: step up at launch, back to zero at end.
    for (name, value) in [
        ("matrix_occupancy", e.matrix_occupancy),
        ("simd_occupancy", e.simd_occupancy),
    ] {
        sink.record(TraceEvent::Counter {
            name: name.to_owned(),
            device: at.die,
            t_us: t0,
            value,
        });
        sink.record(TraceEvent::Counter {
            name: name.to_owned(),
            device: at.die,
            t_us: t0 + wall,
            value: 0.0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_isa::{cdna2_catalog, KernelDesc, WaveProgram};

    fn die() -> DieSpec {
        mc_isa::specs::mi250x().die
    }

    /// Executes one kernel and emits its timeline into `sink` at the
    /// origin of the trace timeline (placement `t0_s = 0`, no governor
    /// scaling).
    fn execute_with_sink(
        die: &DieSpec,
        cfg: &SimConfig,
        k: &KernelDesc,
        sink: &dyn mc_trace::TraceSink,
    ) -> Result<KernelExec, LaunchError> {
        let exec = execute(die, cfg, k)?;
        emit_kernel_events(
            sink,
            &TracePlacement {
                die: 0,
                t0_s: 0.0,
                clock_scale: 1.0,
                wall_time_s: exec.time_s,
                spec: &cfg.package.name,
                dynamic_energy_j: dynamic_energy_j(&cfg.package, &exec),
            },
            k,
            &exec,
        );
        Ok(exec)
    }

    fn cfg() -> SimConfig {
        SimConfig::mi250x()
    }

    fn mfma_loop_kernel(n_waves: u64, iters: u64) -> KernelDesc {
        let i = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        let program = WaveProgram::looped(vec![SlotOp::Mfma(i)], iters);
        KernelDesc {
            workgroups: n_waves,
            waves_per_workgroup: 1,
            ..KernelDesc::new("mfma_loop", program)
        }
    }

    #[test]
    fn single_wave_sees_pure_latency_and_boost_clock() {
        let k = mfma_loop_kernel(1, 1_000_000);
        let e = execute(&die(), &cfg(), &k).unwrap();
        // 32 cycles per iteration, no contention.
        assert!((e.compute_cycles - 32.0e6).abs() < 1.0);
        // Occupancy 1/440: essentially full boost clock.
        assert!(e.effective_clock_hz > 0.999 * die().clock_hz() * (1.0 - 0.087));
        assert!(e.effective_clock_hz <= die().clock_hz());
    }

    #[test]
    fn saturated_die_hits_calibrated_plateau() {
        let k = mfma_loop_kernel(440, 100_000);
        let e = execute(&die(), &cfg(), &k).unwrap();
        let tflops = e.flops as f64 / e.time_s / 1e12;
        // One-GCD mixed plateau: ~175 TFLOPS (paper §V-B), 91-92% of 191.6.
        assert!((tflops - 175.0).abs() < 3.0, "got {tflops}");
    }

    #[test]
    fn plateau_flat_beyond_saturation() {
        let t = |waves| {
            let k = mfma_loop_kernel(waves, 50_000);
            let e = execute(&die(), &cfg(), &k).unwrap();
            e.flops as f64 / e.time_s / 1e12
        };
        let t440 = t(440);
        let t880 = t(880);
        let t1320 = t(1320);
        assert!((t880 - t440).abs() / t440 < 0.02, "{t440} vs {t880}");
        assert!((t1320 - t440).abs() / t440 < 0.02);
    }

    #[test]
    fn partial_saturation_penalized_as_paper_describes() {
        // 660 waves: two phases, second at half utilization -> 75% of plateau.
        let k660 = mfma_loop_kernel(660, 50_000);
        let k440 = mfma_loop_kernel(440, 50_000);
        let e660 = execute(&die(), &cfg(), &k660).unwrap();
        let e440 = execute(&die(), &cfg(), &k440).unwrap();
        let r = (e660.flops as f64 / e660.time_s) / (e440.flops as f64 / e440.time_s);
        assert!((r - 0.75).abs() < 0.03, "ratio {r}");
    }

    #[test]
    fn linear_region_scales_with_waves() {
        let t = |waves| {
            let k = mfma_loop_kernel(waves, 50_000);
            let e = execute(&die(), &cfg(), &k).unwrap();
            e.flops as f64 / e.time_s
        };
        let r = t(128) / t(64);
        assert!(
            (r - 2.0).abs() < 0.05,
            "doubling waves ~ doubles throughput, got {r}"
        );
    }

    #[test]
    fn fp64_plateau_is_85_percent() {
        let i = *cdna2_catalog()
            .find(DType::F64, DType::F64, 16, 16, 4)
            .unwrap();
        let program = WaveProgram::looped(vec![SlotOp::Mfma(i)], 100_000);
        let k = KernelDesc {
            workgroups: 440,
            waves_per_workgroup: 1,
            ..KernelDesc::new("f64", program)
        };
        let e = execute(&die(), &cfg(), &k).unwrap();
        let tflops = e.flops as f64 / e.time_s / 1e12;
        // ~41 TFLOPS = 85.6% of 47.9 (paper §V-B).
        assert!((tflops - 41.0).abs() < 1.0, "got {tflops}");
    }

    #[test]
    fn memory_bound_kernel_limited_by_dram() {
        let i = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        let program = WaveProgram::looped(vec![SlotOp::Mfma(i)], 10);
        let mut k = KernelDesc {
            workgroups: 440,
            waves_per_workgroup: 1,
            ..KernelDesc::new("membound", program)
        };
        k.mem_hints.hbm_bytes = 10 << 30; // 10 GiB of traffic
        let e = execute(&die(), &cfg(), &k).unwrap();
        assert!(
            e.time_s > 6e-3,
            "10 GiB at ~1.4 TB/s takes ~7 ms, got {}",
            e.time_s
        );
        assert!(e.compute_bound_fraction < 0.1);
    }

    #[test]
    fn single_buffering_serializes_dram_behind_compute() {
        use mc_isa::Buffering;
        let i = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        let program = WaveProgram::looped(vec![SlotOp::Mfma(i)], 100_000);
        let mut k = KernelDesc {
            workgroups: 440,
            waves_per_workgroup: 1,
            ..KernelDesc::new("buffered", program)
        };
        k.mem_hints.hbm_bytes = 1 << 30;
        let d = die();
        let c = cfg();
        let double = execute(&d, &c, &k).unwrap();
        k.mem_hints.buffering = Buffering::Single;
        let single = execute(&d, &c, &k).unwrap();
        // Same compute, same traffic; only the overlap model differs.
        assert_eq!(double.compute_cycles, single.compute_cycles);
        assert_eq!(double.dram_time_s, single.dram_time_s);
        let compute_s = double.compute_cycles / double.effective_clock_hz;
        let overhead = c.launch_overhead_s;
        let want_double = compute_s.max(double.dram_time_s) + overhead;
        let want_single = compute_s + single.dram_time_s + overhead;
        assert!((double.time_s - want_double).abs() / want_double < 1e-12);
        assert!((single.time_s - want_single).abs() / want_single < 1e-12);
        assert!(single.time_s > double.time_s, "serialization must cost");
    }

    #[test]
    fn counters_accumulate_per_wave() {
        let k = mfma_loop_kernel(10, 100);
        let e = execute(&die(), &cfg(), &k).unwrap();
        assert_eq!(e.counters.waves_launched, 10);
        assert_eq!(e.counters.mfma_mops_f16, 10 * 100 * 8192 / 512);
        assert_eq!(e.flops, 10 * 100 * 8192);
    }

    #[test]
    fn empty_and_oversized_kernels_rejected() {
        let k = KernelDesc::new("empty", WaveProgram::default());
        assert!(matches!(
            execute(&die(), &cfg(), &k),
            Err(LaunchError::EmptyLaunch)
        ));

        let i = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        let program = WaveProgram::looped(vec![SlotOp::Mfma(i)], 1);
        let k = KernelDesc {
            lds_bytes_per_workgroup: 1 << 20,
            ..KernelDesc::new("fat", program)
        };
        assert!(matches!(
            execute(&die(), &cfg(), &k),
            Err(LaunchError::ResourceExhausted { .. })
        ));
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let d = die();
        let i = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        let program = WaveProgram::looped(vec![SlotOp::Mfma(i)], 1);
        let k = KernelDesc {
            arch_vgprs: 256, // only 2 waves per SIMD fit
            waves_per_workgroup: 1,
            ..KernelDesc::new("fatregs", program)
        };
        assert_eq!(workgroups_per_cu(&d, &k), Some(8));
        let k2 = KernelDesc {
            arch_vgprs: 64,
            ..k
        };
        assert_eq!(workgroups_per_cu(&d, &k2), Some(32)); // capped by max 8/SIMD
    }

    #[test]
    fn round_trace_reflects_two_phase_dispatch() {
        // 660 waves: phase 1 at full width, phase 2 half idle (§V-B).
        let k = mfma_loop_kernel(660, 1000);
        let e = execute(&die(), &cfg(), &k).unwrap();
        // Single round model with ceil distribution: one round, 2 waves
        // on the most-loaded pairs, 75% pair utilization.
        assert_eq!(e.rounds.len(), 1);
        assert_eq!(e.rounds[0].waves_per_pair, 2.0);
        assert!((e.rounds[0].pair_utilization - 0.75).abs() < 0.01);
        assert_eq!(e.rounds[0].bound, RoundBound::MatrixCore);

        // A saturated single-wave-per-pair kernel is bound by the
        // dependent chain and the matrix unit equally; we report MC.
        let k440 = mfma_loop_kernel(440, 1000);
        let e = execute(&die(), &cfg(), &k440).unwrap();
        assert_eq!(e.rounds.len(), 1);
        assert_eq!(e.rounds[0].bound, RoundBound::MatrixCore);
    }

    #[test]
    fn multi_round_kernels_trace_every_round() {
        // Occupancy cap is 32 waves/CU for this kernel: 110*32 = 3520
        // per round; 8000 waves need 3 rounds.
        let k = mfma_loop_kernel(8000, 100);
        let e = execute(&die(), &cfg(), &k).unwrap();
        assert_eq!(e.rounds.len(), 3);
        let total: u64 = e.rounds.iter().map(|r| r.workgroups).sum();
        assert_eq!(total, 8000);
        assert!((e.rounds.iter().map(|r| r.cycles).sum::<f64>() - e.compute_cycles).abs() < 1e-6);
    }

    #[test]
    fn round_invariants_hold_across_occupancy_regimes() {
        // The tracer consumes RoundTrace as ground truth; pin down its
        // invariants: busy ≤ makespan per round, rounds partition the
        // workgroup count, and waves-per-pair matches the ceil
        // distribution of the round's workgroups over SIMD pairs.
        let d = die();
        let simds = f64::from(d.simd_units_per_cu);
        for waves in [1u64, 64, 440, 660, 3520, 8000] {
            let k = mfma_loop_kernel(waves, 100);
            let e = execute(&d, &cfg(), &k).unwrap();
            assert!(!e.rounds.is_empty());
            let total_wg: u64 = e.rounds.iter().map(|r| r.workgroups).sum();
            assert_eq!(total_wg, k.workgroups, "waves {waves}");
            let cap = u64::from(workgroups_per_cu(&d, &k).unwrap()) * u64::from(d.compute_units);
            for r in &e.rounds {
                assert!(r.cycles > 0.0);
                assert!(r.workgroups > 0 && r.workgroups <= cap);
                assert!(r.mc_busy_cycles <= r.cycles + 1e-9);
                assert!(r.simd_busy_cycles <= r.cycles + 1e-9);
                assert!(r.lds_busy_cycles <= r.cycles + 1e-9);
                assert!(r.pair_utilization > 0.0 && r.pair_utilization <= 1.0);
                let wg_cu = r.workgroups.div_ceil(u64::from(d.compute_units));
                let expect_w = ((wg_cu * u64::from(k.waves_per_workgroup)) as f64 / simds)
                    .ceil()
                    .max(1.0);
                assert_eq!(r.waves_per_pair, expect_w, "waves {waves}");
            }
            // Only the last round may be ragged: every earlier round is full.
            for r in &e.rounds[..e.rounds.len() - 1] {
                assert_eq!(r.workgroups, cap, "waves {waves}");
            }
            // Round cycles tile the compute makespan monotonically.
            let total: f64 = e.rounds.iter().map(|r| r.cycles).sum();
            assert!((total - e.compute_cycles).abs() < 1e-6 * e.compute_cycles.max(1.0));
        }
    }

    #[test]
    fn execute_with_sink_emits_a_self_consistent_timeline() {
        let k = mfma_loop_kernel(8000, 100);
        let sink = mc_trace::RingSink::new();
        let e = execute_with_sink(&die(), &cfg(), &k, &sink).unwrap();
        let events = sink.events();
        assert_eq!(sink.dropped(), 0);

        // The timeline passes every structural invariant check.
        let violations = mc_trace::check_invariants(&events);
        assert!(violations.is_empty(), "{violations:?}");

        // One kernel span, one round span per RoundTrace entry.
        let spans: Vec<&mc_trace::SpanEvent> =
            events.iter().filter_map(|ev| ev.as_span()).collect();
        let kernel_spans: Vec<_> = spans
            .iter()
            .filter(|s| s.category == mc_trace::Category::Kernel)
            .collect();
        assert_eq!(kernel_spans.len(), 1);
        let rounds = spans
            .iter()
            .filter(|s| s.category == mc_trace::Category::Round)
            .count();
        assert_eq!(rounds, e.rounds.len());

        // Counter args on the kernel span reproduce HwCounters exactly.
        for (name, value) in e.counters.iter() {
            if value == 0 {
                continue;
            }
            let arg = kernel_spans[0]
                .args
                .iter()
                .find(|(k, _)| k == &format!("ctr.{name}"))
                .unwrap_or_else(|| panic!("missing ctr.{name}"));
            assert_eq!(arg.1, mc_trace::ArgValue::U64(value), "{name}");
        }
    }

    #[test]
    fn disabled_sink_receives_nothing() {
        let k = mfma_loop_kernel(64, 10);
        let sink = mc_trace::NullSink;
        let e = execute_with_sink(&die(), &cfg(), &k, &sink).unwrap();
        assert!(e.flops > 0); // execution itself is unaffected
    }

    #[test]
    fn stall_shares_track_buffering_and_sync_slots() {
        use mc_isa::Buffering;
        let i = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        // Pure MFMA loop: no sync slots, no DRAM traffic.
        let clean = mfma_loop_kernel(440, 1000);
        let e = execute(&die(), &cfg(), &clean).unwrap();
        assert_eq!(e.wait_stall_fraction, 0.0);
        assert_eq!(e.exposed_dram_time_s, 0.0);
        assert_eq!(e.memory_stall_fraction, 0.0);

        // A wait-heavy loop: each MFMA (32 cyc) behind a waitcnt slot
        // and a 16-cycle hazard nop -> 17/49 of the chain is stalling.
        let program = WaveProgram::looped(
            vec![
                SlotOp::Waitcnt(mc_isa::WaitSpec::zero()),
                SlotOp::SNop(16),
                SlotOp::Mfma(i),
            ],
            1000,
        );
        let k = KernelDesc {
            workgroups: 440,
            waves_per_workgroup: 1,
            ..KernelDesc::new("waity", program)
        };
        let e = execute(&die(), &cfg(), &k).unwrap();
        assert!(
            (e.wait_stall_fraction - 17.0 / 49.0).abs() < 1e-12,
            "{}",
            e.wait_stall_fraction
        );

        // DRAM-heavy kernel: single-buffering exposes the whole
        // transfer, double-buffering only the overhang.
        let mut mem = mfma_loop_kernel(440, 10);
        mem.mem_hints.hbm_bytes = 10 << 30;
        let d = die();
        let c = cfg();
        let double = execute(&d, &c, &mem).unwrap();
        assert!(double.memory_stall_fraction > 0.9, "{double:?}");
        assert!(
            (double.exposed_dram_time_s
                - (double.dram_time_s - double.compute_cycles / double.effective_clock_hz))
                .abs()
                < 1e-12
        );
        mem.mem_hints.buffering = Buffering::Single;
        let single = execute(&d, &c, &mem).unwrap();
        assert_eq!(single.exposed_dram_time_s, single.dram_time_s);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let k = mfma_loop_kernel(1, 1);
        let e = execute(&die(), &cfg(), &k).unwrap();
        assert!(e.time_s >= cfg().launch_overhead_s);
        assert!(e.time_s < cfg().launch_overhead_s * 1.01);
    }
}
