//! The per-kernel attribution ledger.
//!
//! [`Attributor::attribute`] walks a trace event stream, picks out
//! kernel spans (which `mc-sim`'s engine tags with its hardware
//! counters as `ctr.*` args, its dynamic energy, and the package-spec
//! name it ran on), and joins them with the registered
//! [`PackageSpec`]s into [`AttributionRecord`]s — one per kernel
//! launch, carrying all three of the paper's measurement planes at
//! once. Static energy (idle + per-die active baseline) is
//! time-apportioned so that the ledger's joules reconcile with
//! `mc_power::EnergyBreakdown::total_j` for the same launches.

use std::collections::BTreeMap;

use mc_isa::specs::{DieSpec, PackageSpec};
use mc_isa::{IsaCatalog, MatrixArch};
use mc_model::{derived_total_flops, OperatingPoint, Regime, Roofline, ThroughputModel};
use mc_sim::{DeviceRegistry, HwCounters};
use mc_trace::{Category, MetricsRegistry, SpanEvent, TraceEvent, Unit, Versioned};
use mc_types::DType;
use serde::{Deserialize, Serialize};

/// Version of the [`AttributionRecord`] JSONL schema. Bump on any
/// field change; [`mc_trace::from_jsonl`] rejects mismatched ledgers.
pub const ATTRIBUTION_SCHEMA_VERSION: u32 = 1;

/// One kernel launch, attributed across all three measurement planes:
/// counters (Eq. 1), wall clock vs the Eq. 2 peak, and energy (Eq. 3
/// decomposition), plus roofline placement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttributionRecord {
    /// Schema version ([`ATTRIBUTION_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Kernel name from the trace span.
    pub kernel: String,
    /// Package-spec name the kernel ran on (the join key).
    pub spec: String,
    /// Die index within the package.
    pub die: u32,
    /// Launch start on the trace timeline, in microseconds.
    pub t0_us: f64,
    /// Wall time of the launch in seconds (after governor action).
    pub wall_time_s: f64,
    /// Compute-side cycles (pre-governor makespan).
    pub compute_cycles: f64,
    /// Eq. 1 FLOPs derived from the span's hardware-counter args
    /// (`512·MOPS + ADD + MUL + 2·FMA`, summed over datatypes).
    pub eq1_flops: u64,
    /// Eq. 1 Matrix-Core FLOPs (the `512·MOPS` terms).
    pub eq1_matrix_flops: u64,
    /// Eq. 1 vector-ALU FLOPs.
    pub eq1_simd_flops: u64,
    /// Fraction of Eq. 1 FLOPs delivered by Matrix Cores.
    pub matrix_flop_fraction: f64,
    /// MFMA matrix-op counter total (`SQ_INSTS_VALU_MFMA_MOPS_*`).
    pub mfma_mops: u64,
    /// VALU instruction total (`SQ_INSTS_VALU`), the other half of the
    /// MFMA-vs-VALU instruction mix.
    pub valu_insts: u64,
    /// DRAM traffic in bytes.
    pub hbm_bytes: u64,
    /// Total energy attributed to this kernel in joules: dynamic +
    /// per-die active baseline + wall-time share of package idle.
    pub energy_j: f64,
    /// Dynamic (per-operation) energy in joules.
    pub dynamic_energy_j: f64,
    /// Per-die active-baseline energy in joules.
    pub baseline_energy_j: f64,
    /// This kernel's share of package idle energy in joules.
    pub idle_energy_j: f64,
    /// Achieved Eq. 1 throughput in FLOP/s (`eq1_flops / wall_time_s`).
    pub achieved_flops_per_s: f64,
    /// Eq. 2 theoretical peak for the kernel's dominant MFMA datatype
    /// on this die, in FLOP/s (VALU-FMA ceiling for MFMA-free kernels).
    pub eq2_peak_flops_per_s: f64,
    /// `achieved_flops_per_s / eq2_peak_flops_per_s` — in `(0, 1]` for
    /// any kernel that performs work.
    pub achieved_fraction: f64,
    /// Energy efficiency: the paper's GFLOPS/W figure of merit
    /// (`eq1_flops / energy_j / 1e9`).
    pub gflops_per_watt: f64,
    /// Roofline ceiling the kernel was classified against.
    pub roofline_roof: String,
    /// Arithmetic intensity in FLOP/byte of DRAM traffic.
    pub intensity_flop_per_byte: f64,
    /// Roofline regime: `"compute-bound"` or `"memory-bound"`.
    pub regime: String,
    /// Fraction of the roofline-attainable throughput achieved.
    pub roofline_efficiency: f64,
}

/// Joins kernel trace spans with registered package specifications.
#[derive(Clone, Debug, Default)]
pub struct Attributor {
    specs: Vec<PackageSpec>,
}

/// A count argument: a `U64`, or an `F64` truncated; 0 when absent.
fn count(span: &SpanEvent, name: &str) -> u64 {
    span.arg_u64(name)
        .unwrap_or_else(|| span.arg_f64(name).map_or(0, |f| f as u64))
}

/// Rebuilds the Eq. 1-relevant [`HwCounters`] fields from a kernel
/// span's `ctr.*` args (the engine publishes every non-zero counter).
fn counters_from_span(span: &SpanEvent) -> HwCounters {
    let c = |name: &str| count(span, name);
    HwCounters {
        mfma_mops_f64: c("ctr.SQ_INSTS_VALU_MFMA_MOPS_F64"),
        mfma_mops_f32: c("ctr.SQ_INSTS_VALU_MFMA_MOPS_F32"),
        mfma_mops_f16: c("ctr.SQ_INSTS_VALU_MFMA_MOPS_F16"),
        mfma_mops_bf16: c("ctr.SQ_INSTS_VALU_MFMA_MOPS_BF16"),
        mfma_mops_i8: c("ctr.SQ_INSTS_VALU_MFMA_MOPS_I8"),
        valu_add_f16: c("ctr.SQ_INSTS_VALU_ADD_F16"),
        valu_add_f32: c("ctr.SQ_INSTS_VALU_ADD_F32"),
        valu_add_f64: c("ctr.SQ_INSTS_VALU_ADD_F64"),
        valu_mul_f16: c("ctr.SQ_INSTS_VALU_MUL_F16"),
        valu_mul_f32: c("ctr.SQ_INSTS_VALU_MUL_F32"),
        valu_mul_f64: c("ctr.SQ_INSTS_VALU_MUL_F64"),
        valu_fma_f16: c("ctr.SQ_INSTS_VALU_FMA_F16"),
        valu_fma_f32: c("ctr.SQ_INSTS_VALU_FMA_F32"),
        valu_fma_f64: c("ctr.SQ_INSTS_VALU_FMA_F64"),
        waves_launched: c("ctr.SQ_WAVES"),
        ..HwCounters::default()
    }
}

fn catalog_for(die: &DieSpec) -> &'static IsaCatalog {
    match die.arch {
        MatrixArch::Cdna1 => mc_isa::cdna1_catalog(),
        MatrixArch::Cdna2 => mc_isa::cdna2_catalog(),
        MatrixArch::Ampere => mc_isa::ampere_catalog(),
    }
}

/// Dominant MFMA input-type class of a kernel span, from the engine's
/// by-type FLOP args; `None` for MFMA-free kernels.
fn dominant_dtype(span: &SpanEvent) -> Option<DType> {
    let f64f = count(span, "mfma_flops_f64");
    let f32f = count(span, "mfma_flops_f32");
    let f16f = count(span, "mfma_flops_f16");
    if f64f >= f32f && f64f >= f16f && f64f > 0 {
        Some(DType::F64)
    } else if f32f >= f16f && f32f > 0 {
        Some(DType::F32)
    } else if f16f > 0 {
        Some(DType::F16)
    } else {
        None
    }
}

/// Eq. 2 peak throughput for the kernel's dominant MFMA datatype on
/// this die; the VALU-FMA ceiling when the kernel issued no MFMA.
fn eq2_peak_flops(die: &DieSpec, dominant: Option<DType>) -> f64 {
    let pair = dominant.map(|dt| match dt {
        DType::F64 => (DType::F64, DType::F64),
        DType::F32 => (DType::F32, DType::F32),
        _ => (DType::F32, DType::F16),
    });
    if let Some((cd, ab)) = pair {
        if let Some(instr) = catalog_for(die).best_for_types(cd, ab) {
            return ThroughputModel::new(instr, die).peak_flops();
        }
    }
    die.peak_flops(128.0)
}

fn roof_name(dominant: Option<DType>) -> &'static str {
    match dominant {
        Some(DType::F64) => "MFMA FP64",
        Some(DType::F32) => "MFMA FP32",
        Some(_) => "MFMA FP16-mixed",
        None => "VALU FMA",
    }
}

impl Attributor {
    /// An attributor with no registered specifications.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a package specification; kernels whose span `spec`
    /// arg matches `spec.name` attribute against it. Re-registering a
    /// name replaces the earlier entry.
    pub fn register(&mut self, spec: &PackageSpec) {
        match self.specs.iter_mut().find(|s| s.name == spec.name) {
            Some(slot) => *slot = spec.clone(),
            None => self.specs.push(spec.clone()),
        }
    }

    /// An attributor covering every device in a registry (the four
    /// built-ins plus any custom registrations).
    pub fn from_registry(devices: &DeviceRegistry) -> Self {
        let mut out = Self::new();
        for name in devices.names() {
            if let Some(cfg) = devices.config_named(name) {
                out.register(&cfg.package);
            }
        }
        out
    }

    /// Joins every kernel span in `events` against the registered
    /// specifications, producing one record per launch in event order.
    ///
    /// Kernel spans without a `spec` arg, or tagged with an
    /// unregistered spec name, are skipped — the ledger only carries
    /// records it can price. Package idle energy is apportioned across
    /// each spec's kernels by wall-time share over the spec's busy
    /// extent, so summed `energy_j` reconciles with
    /// `EnergyBreakdown::total_j` for the same launches.
    pub fn attribute(&self, events: &[TraceEvent]) -> Vec<AttributionRecord> {
        // Group kernel spans by registered spec, preserving encounter
        // order both across and within groups.
        let mut groups: BTreeMap<usize, Vec<&SpanEvent>> = BTreeMap::new();
        let mut order: Vec<(usize, usize)> = Vec::new(); // (spec idx, idx in group)
        for event in events {
            let Some(span) = event.as_span() else {
                continue;
            };
            if span.category != Category::Kernel {
                continue;
            }
            let Some(spec_idx) = span
                .arg_str("spec")
                .and_then(|name| self.specs.iter().position(|s| s.name == name))
            else {
                continue;
            };
            let group = groups.entry(spec_idx).or_default();
            order.push((spec_idx, group.len()));
            group.push(span);
        }

        // Per-spec idle apportionment context: (idle J over the busy
        // extent, total kernel wall seconds).
        let mut idle: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for (&spec_idx, spans) in &groups {
            let spec = &self.specs[spec_idx];
            let t_min = spans.iter().map(|s| s.t0_us).fold(f64::INFINITY, f64::min);
            let t_max = spans.iter().map(|s| s.end_us()).fold(0.0_f64, f64::max);
            let extent_s = ((t_max - t_min) / 1e6).max(0.0);
            let total_wall_s: f64 = spans.iter().map(|s| s.dur_us / 1e6).sum();
            idle.insert(spec_idx, (spec.idle_power_w * extent_s, total_wall_s));
        }

        order
            .into_iter()
            .map(|(spec_idx, i)| {
                let span = groups[&spec_idx][i];
                let spec = &self.specs[spec_idx];
                let (idle_total_j, total_wall_s) = idle[&spec_idx];
                self.record_for(span, spec, idle_total_j, total_wall_s)
            })
            .collect()
    }

    fn record_for(
        &self,
        span: &SpanEvent,
        spec: &PackageSpec,
        idle_total_j: f64,
        total_wall_s: f64,
    ) -> AttributionRecord {
        let wall_time_s = span.dur_us / 1e6;
        let counters = counters_from_span(span);
        let derived = derived_total_flops(&counters);
        let eq1_flops = derived.total();
        let hbm_bytes = count(span, "hbm_bytes");

        // Energy: dynamic from the engine's own accounting (recomputed
        // from the by-type FLOP args when the arg is absent), baseline
        // per wall second, idle by wall-time share.
        let dynamic_energy_j = span.arg_f64("dynamic_energy_j").unwrap_or_else(|| {
            let e = &spec.energy_pj;
            (count(span, "mfma_flops_f64") as f64 * e.mfma_f64
                + count(span, "mfma_flops_f32") as f64 * e.mfma_f32
                + count(span, "mfma_flops_f16") as f64 * e.mfma_f16
                + count(span, "valu_flops") as f64 * e.valu
                + hbm_bytes as f64 * e.hbm_per_byte)
                * 1e-12
        });
        let baseline_energy_j = spec.active_baseline_w_per_die * wall_time_s;
        let idle_energy_j = if total_wall_s > 0.0 {
            idle_total_j * wall_time_s / total_wall_s
        } else {
            0.0
        };
        let energy_j = dynamic_energy_j + baseline_energy_j + idle_energy_j;

        // Throughput plane: achieved vs the Eq. 2 peak.
        let dominant = dominant_dtype(span);
        let eq2_peak_flops_per_s = eq2_peak_flops(&spec.die, dominant);
        let achieved_flops_per_s = if wall_time_s > 0.0 {
            eq1_flops as f64 / wall_time_s
        } else {
            0.0
        };
        let achieved_fraction = if eq2_peak_flops_per_s > 0.0 {
            achieved_flops_per_s / eq2_peak_flops_per_s
        } else {
            0.0
        };

        // Roofline placement against the dominant-datatype ceiling.
        let roofline = Roofline::for_die(&spec.die);
        let roof = roofline
            .roof(roof_name(dominant))
            .unwrap_or(&roofline.roofs[0]);
        let intensity_flop_per_byte = eq1_flops as f64 / hbm_bytes.max(1) as f64;
        let point = OperatingPoint {
            intensity: intensity_flop_per_byte,
            flops: achieved_flops_per_s,
        };
        let regime = match roofline.classify(roof, point) {
            Regime::MemoryBound => "memory-bound",
            Regime::ComputeBound => "compute-bound",
        };

        let mfma_mops = counters.mfma_mops_f64
            + counters.mfma_mops_f32
            + counters.mfma_mops_f16
            + counters.mfma_mops_bf16
            + counters.mfma_mops_i8;

        AttributionRecord {
            schema_version: ATTRIBUTION_SCHEMA_VERSION,
            kernel: span.name.clone(),
            spec: spec.name.clone(),
            die: span.device,
            t0_us: span.t0_us,
            wall_time_s,
            compute_cycles: span.arg_f64("compute_cycles").unwrap_or(0.0),
            eq1_flops,
            eq1_matrix_flops: derived.matrix_core,
            eq1_simd_flops: derived.simd,
            matrix_flop_fraction: derived.matrix_core_ratio(),
            mfma_mops,
            valu_insts: count(span, "ctr.SQ_INSTS_VALU"),
            hbm_bytes,
            energy_j,
            dynamic_energy_j,
            baseline_energy_j,
            idle_energy_j,
            achieved_flops_per_s,
            eq2_peak_flops_per_s,
            achieved_fraction,
            gflops_per_watt: if energy_j > 0.0 {
                eq1_flops as f64 / energy_j / 1e9
            } else {
                0.0
            },
            roofline_roof: roof.name.clone(),
            intensity_flop_per_byte,
            regime: regime.to_owned(),
            roofline_efficiency: roofline.efficiency(roof, point),
        }
    }
}

impl Versioned for AttributionRecord {
    const SCHEMA_VERSION: u32 = ATTRIBUTION_SCHEMA_VERSION;

    fn schema_version(&self) -> u32 {
        self.schema_version
    }
}

/// Aggregates a ledger into a metrics registry under `attribution.*`:
/// totals across kernels plus flop-weighted mix and peak-fraction
/// statistics. No-op for an empty ledger.
pub fn register_attribution_metrics(records: &[AttributionRecord], reg: &mut MetricsRegistry) {
    if records.is_empty() {
        return;
    }
    let wall: f64 = records.iter().map(|r| r.wall_time_s).sum();
    let flops: f64 = records.iter().map(|r| r.eq1_flops as f64).sum();
    let matrix: f64 = records.iter().map(|r| r.eq1_matrix_flops as f64).sum();
    let energy: f64 = records.iter().map(|r| r.energy_j).sum();
    let hbm: f64 = records.iter().map(|r| r.hbm_bytes as f64).sum();
    reg.set("attribution.kernels", Unit::Count, records.len() as f64);
    reg.set("attribution.wall_time_s", Unit::Seconds, wall);
    reg.set("attribution.eq1_flops", Unit::Flops, flops);
    reg.set("attribution.energy_j", Unit::Joules, energy);
    reg.set("attribution.hbm_bytes", Unit::Bytes, hbm);
    if energy > 0.0 {
        reg.set(
            "attribution.flops_per_j",
            Unit::FlopsPerJoule,
            flops / energy,
        );
    }
    if flops > 0.0 {
        reg.set(
            "attribution.matrix_flop_fraction",
            Unit::Ratio,
            matrix / flops,
        );
    }
    let mean_fraction =
        records.iter().map(|r| r.achieved_fraction).sum::<f64>() / records.len() as f64;
    let best_fraction = records
        .iter()
        .map(|r| r.achieved_fraction)
        .fold(0.0_f64, f64::max);
    reg.set(
        "attribution.mean_achieved_fraction",
        Unit::Ratio,
        mean_fraction,
    );
    reg.set(
        "attribution.best_achieved_fraction",
        Unit::Ratio,
        best_fraction,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use mc_isa::{cdna2_catalog, KernelDesc, SlotOp, WaveProgram};
    use mc_sim::DeviceId;
    use mc_trace::RingSink;

    fn loop_kernel(waves: u64, iters: u64) -> KernelDesc {
        let i = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        KernelDesc {
            workgroups: waves,
            waves_per_workgroup: 1,
            ..KernelDesc::new(
                "hhs_loop",
                WaveProgram::looped(vec![SlotOp::Mfma(i)], iters),
            )
        }
    }

    fn traced_launch(waves: u64, iters: u64) -> (Vec<TraceEvent>, Attributor) {
        let ring = Arc::new(RingSink::new());
        let mut devices = DeviceRegistry::builtin();
        devices.set_trace_sink(ring.clone());
        let mut gpu = devices.gpu(DeviceId::Mi250xGcd);
        gpu.launch(0, &loop_kernel(waves, iters)).unwrap();
        (ring.events(), Attributor::from_registry(&devices))
    }

    #[test]
    fn attribution_joins_all_three_planes() {
        let (events, attributor) = traced_launch(440, 10_000);
        let records = attributor.attribute(&events);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.kernel, "hhs_loop");
        assert_eq!(r.spec, "AMD Instinct MI250X");
        // Eq. 1 plane: a pure-MFMA loop, every FLOP from Matrix Cores.
        assert_eq!(r.eq1_flops, 440 * 10_000 * 8192);
        assert_eq!(r.eq1_matrix_flops, r.eq1_flops);
        assert_eq!(r.matrix_flop_fraction, 1.0);
        assert_eq!(r.mfma_mops, 440 * 10_000 * 8192 / 512);
        // Throughput plane: saturated HHS loop sits at the ~91% plateau.
        assert!(r.achieved_fraction > 0.8 && r.achieved_fraction <= 1.0);
        assert!((r.eq2_peak_flops_per_s / 1e12 - 191.5).abs() < 0.5);
        // Energy plane: all components positive, figure of merit sane.
        assert!(r.dynamic_energy_j > 0.0);
        assert!(r.baseline_energy_j > 0.0);
        assert!(r.idle_energy_j > 0.0);
        assert!(
            (r.energy_j - (r.dynamic_energy_j + r.baseline_energy_j + r.idle_energy_j)).abs()
                < 1e-12
        );
        assert!(r.gflops_per_watt > 100.0, "{}", r.gflops_per_watt);
        // Roofline: no DRAM traffic -> extreme intensity, compute-bound.
        assert_eq!(r.roofline_roof, "MFMA FP16-mixed");
        assert_eq!(r.regime, "compute-bound");
        assert!(r.roofline_efficiency > 0.8 && r.roofline_efficiency <= 1.0);
    }

    #[test]
    fn unknown_specs_and_non_kernel_spans_are_skipped() {
        let (events, _) = traced_launch(64, 100);
        let empty = Attributor::new();
        assert!(empty.attribute(&events).is_empty());
    }

    #[test]
    fn aggregates_land_in_the_registry() {
        let (events, attributor) = traced_launch(64, 100);
        let records = attributor.attribute(&events);
        let mut reg = MetricsRegistry::new();
        register_attribution_metrics(&records, &mut reg);
        assert_eq!(reg.value("attribution.kernels"), Some(1.0));
        assert_eq!(
            reg.value("attribution.eq1_flops"),
            Some(records[0].eq1_flops as f64)
        );
        assert_eq!(reg.value("attribution.matrix_flop_fraction"), Some(1.0));
        assert!(reg.value("attribution.flops_per_j").unwrap() > 0.0);

        // An empty ledger registers nothing.
        let mut empty = MetricsRegistry::new();
        register_attribution_metrics(&[], &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn idle_energy_apportioned_by_wall_time_share() {
        // Two sequential launches on one traced GPU: idle energy over
        // the full busy extent must be split by wall time, and the sum
        // must equal idle power x total extent.
        let ring = Arc::new(RingSink::new());
        let mut devices = DeviceRegistry::builtin();
        devices.set_trace_sink(ring.clone());
        let mut gpu = devices.gpu(DeviceId::Mi250xGcd);
        gpu.launch(0, &loop_kernel(440, 2_000)).unwrap();
        gpu.launch(0, &loop_kernel(440, 6_000)).unwrap();
        let attributor = Attributor::from_registry(&devices);
        let records = attributor.attribute(&ring.events());
        assert_eq!(records.len(), 2);
        let idle_w = devices.config(DeviceId::Mi250xGcd).package.idle_power_w;
        let extent_s = records
            .iter()
            .map(|r| r.t0_us + r.wall_time_s * 1e6)
            .fold(0.0_f64, f64::max)
            / 1e6;
        let idle_sum: f64 = records.iter().map(|r| r.idle_energy_j).sum();
        assert!(
            (idle_sum - idle_w * extent_s).abs() < 1e-9 * idle_w * extent_s,
            "{idle_sum} vs {}",
            idle_w * extent_s
        );
        assert!(records[1].idle_energy_j > records[0].idle_energy_j);
    }
}
