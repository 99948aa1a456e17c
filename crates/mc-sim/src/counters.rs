//! Hardware performance counters, mirroring the `rocprof` counters the
//! paper uses in §IV-B (Eq. 1) to attribute floating-point operations to
//! Matrix Cores versus SIMD units.

use core::fmt;

use mc_isa::{SlotOp, ValuOpKind};
use mc_types::DType;
use serde::{Deserialize, Serialize};

/// One GCD's (or SM cluster's) performance-counter bank.
///
/// Counter semantics follow the MI200 hardware:
///
/// * `SQ_INSTS_VALU_MFMA_MOPS_F*` increments **once every 512 matrix
///   operations** (paper §IV-B), so `flops = 512 × counter`.
/// * `SQ_INSTS_VALU_{ADD,MUL,FMA}_F*` count **per-SIMD wavefront
///   instructions**; multiply by 64 lanes (and ×2 for FMA) for FLOPs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // field names are the counter names; documented above
pub struct HwCounters {
    pub mfma_mops_f64: u64,
    pub mfma_mops_f32: u64,
    pub mfma_mops_f16: u64,
    pub mfma_mops_bf16: u64,
    pub mfma_mops_i8: u64,
    pub valu_add_f16: u64,
    pub valu_add_f32: u64,
    pub valu_add_f64: u64,
    pub valu_mul_f16: u64,
    pub valu_mul_f32: u64,
    pub valu_mul_f64: u64,
    pub valu_fma_f16: u64,
    pub valu_fma_f32: u64,
    pub valu_fma_f64: u64,
    pub valu_other: u64,
    pub salu_insts: u64,
    pub flat_loads: u64,
    pub flat_stores: u64,
    pub lds_reads: u64,
    pub lds_writes: u64,
    pub waves_launched: u64,
    pub workgroups_launched: u64,
}

/// rocprof-style counter names accepted by [`HwCounters::get`].
pub const COUNTER_NAMES: &[&str] = &[
    "SQ_INSTS_VALU_MFMA_MOPS_F64",
    "SQ_INSTS_VALU_MFMA_MOPS_F32",
    "SQ_INSTS_VALU_MFMA_MOPS_F16",
    "SQ_INSTS_VALU_MFMA_MOPS_BF16",
    "SQ_INSTS_VALU_MFMA_MOPS_I8",
    "SQ_INSTS_VALU_ADD_F16",
    "SQ_INSTS_VALU_ADD_F32",
    "SQ_INSTS_VALU_ADD_F64",
    "SQ_INSTS_VALU_MUL_F16",
    "SQ_INSTS_VALU_MUL_F32",
    "SQ_INSTS_VALU_MUL_F64",
    "SQ_INSTS_VALU_FMA_F16",
    "SQ_INSTS_VALU_FMA_F32",
    "SQ_INSTS_VALU_FMA_F64",
    "SQ_INSTS_VALU",
    "SQ_INSTS_SALU",
    "SQ_INSTS_FLAT",
    "SQ_INSTS_LDS",
    "SQ_WAVES",
];

/// Error returned by [`HwCounters::get`] for unknown counter names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownCounter(pub String);

impl fmt::Display for UnknownCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown hardware counter `{}`", self.0)
    }
}

impl std::error::Error for UnknownCounter {}

impl HwCounters {
    /// Looks a counter up by its rocprof name.
    pub fn get(&self, name: &str) -> Result<u64, UnknownCounter> {
        Ok(match name {
            "SQ_INSTS_VALU_MFMA_MOPS_F64" => self.mfma_mops_f64,
            "SQ_INSTS_VALU_MFMA_MOPS_F32" => self.mfma_mops_f32,
            "SQ_INSTS_VALU_MFMA_MOPS_F16" => self.mfma_mops_f16,
            "SQ_INSTS_VALU_MFMA_MOPS_BF16" => self.mfma_mops_bf16,
            "SQ_INSTS_VALU_MFMA_MOPS_I8" => self.mfma_mops_i8,
            "SQ_INSTS_VALU_ADD_F16" => self.valu_add_f16,
            "SQ_INSTS_VALU_ADD_F32" => self.valu_add_f32,
            "SQ_INSTS_VALU_ADD_F64" => self.valu_add_f64,
            "SQ_INSTS_VALU_MUL_F16" => self.valu_mul_f16,
            "SQ_INSTS_VALU_MUL_F32" => self.valu_mul_f32,
            "SQ_INSTS_VALU_MUL_F64" => self.valu_mul_f64,
            "SQ_INSTS_VALU_FMA_F16" => self.valu_fma_f16,
            "SQ_INSTS_VALU_FMA_F32" => self.valu_fma_f32,
            "SQ_INSTS_VALU_FMA_F64" => self.valu_fma_f64,
            "SQ_INSTS_VALU" => self.total_valu_insts(),
            "SQ_INSTS_SALU" => self.salu_insts,
            "SQ_INSTS_FLAT" => self.flat_loads + self.flat_stores,
            "SQ_INSTS_LDS" => self.lds_reads + self.lds_writes,
            "SQ_WAVES" => self.waves_launched,
            other => return Err(UnknownCounter(other.to_owned())),
        })
    }

    /// Iterates every published counter as a `(name, value)` pair, in
    /// [`COUNTER_NAMES`] order. This is the enumeration surface the
    /// trace exporter and [`mc_trace::MetricsRegistry`] are built on —
    /// callers no longer need to hard-code rocprof names.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTER_NAMES
            .iter()
            .map(|name| (*name, self.get(name).expect("published names resolve")))
    }

    /// Registers every counter in a metrics registry under the
    /// `counters.` prefix (e.g. `counters.SQ_INSTS_VALU_MFMA_MOPS_F32`).
    pub fn register_metrics(&self, registry: &mut mc_trace::MetricsRegistry) {
        for (name, value) in self.iter() {
            registry.set(
                &format!("counters.{name}"),
                mc_trace::Unit::Count,
                value as f64,
            );
        }
    }

    /// All VALU instructions (arithmetic + moves/conversions).
    fn total_valu_insts(&self) -> u64 {
        self.valu_add_f16
            + self.valu_add_f32
            + self.valu_add_f64
            + self.valu_mul_f16
            + self.valu_mul_f32
            + self.valu_mul_f64
            + self.valu_fma_f16
            + self.valu_fma_f32
            + self.valu_fma_f64
            + self.valu_other
    }

    /// Records the retirement of `times` executions of one slot by a
    /// single wavefront.
    pub fn record(&mut self, op: &SlotOp, times: u64) {
        match op {
            SlotOp::Mfma(i) => {
                let mops = i.flops() * times / 512;
                match i.ab {
                    DType::F64 => self.mfma_mops_f64 += mops,
                    DType::F32 => self.mfma_mops_f32 += mops,
                    DType::F16 => self.mfma_mops_f16 += mops,
                    DType::Bf16 => self.mfma_mops_bf16 += mops,
                    DType::I8 | DType::I32 => self.mfma_mops_i8 += mops,
                }
            }
            SlotOp::Valu(v) => {
                let slot = match (v.kind, v.dtype) {
                    (ValuOpKind::Add, DType::F16) => &mut self.valu_add_f16,
                    (ValuOpKind::Add, DType::F64) => &mut self.valu_add_f64,
                    (ValuOpKind::Add, _) => &mut self.valu_add_f32,
                    (ValuOpKind::Mul, DType::F16) => &mut self.valu_mul_f16,
                    (ValuOpKind::Mul, DType::F64) => &mut self.valu_mul_f64,
                    (ValuOpKind::Mul, _) => &mut self.valu_mul_f32,
                    (ValuOpKind::Fma, DType::F16) => &mut self.valu_fma_f16,
                    (ValuOpKind::Fma, DType::F64) => &mut self.valu_fma_f64,
                    (ValuOpKind::Fma, _) => &mut self.valu_fma_f32,
                    // Packed f16 FMA performs two fused MACs per lane; the
                    // hardware FMA_F16 counter advances by the packing
                    // factor so Eq. 1-style derivations stay exact.
                    (ValuOpKind::PackedFma, _) => {
                        self.valu_fma_f16 += 2 * times;
                        return;
                    }
                    (ValuOpKind::Move, _) => &mut self.valu_other,
                };
                *slot += times;
            }
            SlotOp::GlobalLoad { .. } => self.flat_loads += times,
            SlotOp::GlobalStore { .. } => self.flat_stores += times,
            SlotOp::LdsRead { .. } => self.lds_reads += times,
            SlotOp::LdsWrite { .. } => self.lds_writes += times,
            SlotOp::Scalar | SlotOp::Waitcnt(_) | SlotOp::Barrier | SlotOp::SNop(_) => {
                self.salu_insts += times;
            }
        }
    }

    /// Adds another counter bank into this one.
    pub fn merge(&mut self, other: &HwCounters) {
        *self = self.merged(other);
    }

    /// Returns the sum of two counter banks.
    pub fn merged(&self, o: &HwCounters) -> HwCounters {
        HwCounters {
            mfma_mops_f64: self.mfma_mops_f64 + o.mfma_mops_f64,
            mfma_mops_f32: self.mfma_mops_f32 + o.mfma_mops_f32,
            mfma_mops_f16: self.mfma_mops_f16 + o.mfma_mops_f16,
            mfma_mops_bf16: self.mfma_mops_bf16 + o.mfma_mops_bf16,
            mfma_mops_i8: self.mfma_mops_i8 + o.mfma_mops_i8,
            valu_add_f16: self.valu_add_f16 + o.valu_add_f16,
            valu_add_f32: self.valu_add_f32 + o.valu_add_f32,
            valu_add_f64: self.valu_add_f64 + o.valu_add_f64,
            valu_mul_f16: self.valu_mul_f16 + o.valu_mul_f16,
            valu_mul_f32: self.valu_mul_f32 + o.valu_mul_f32,
            valu_mul_f64: self.valu_mul_f64 + o.valu_mul_f64,
            valu_fma_f16: self.valu_fma_f16 + o.valu_fma_f16,
            valu_fma_f32: self.valu_fma_f32 + o.valu_fma_f32,
            valu_fma_f64: self.valu_fma_f64 + o.valu_fma_f64,
            valu_other: self.valu_other + o.valu_other,
            salu_insts: self.salu_insts + o.salu_insts,
            flat_loads: self.flat_loads + o.flat_loads,
            flat_stores: self.flat_stores + o.flat_stores,
            lds_reads: self.lds_reads + o.lds_reads,
            lds_writes: self.lds_writes + o.lds_writes,
            waves_launched: self.waves_launched + o.waves_launched,
            workgroups_launched: self.workgroups_launched + o.workgroups_launched,
        }
    }

    /// Counter-wise difference (`self - earlier`), for session deltas.
    /// Saturates at zero rather than panicking on counter wrap.
    pub fn delta_from(&self, earlier: &HwCounters) -> HwCounters {
        HwCounters {
            mfma_mops_f64: self.mfma_mops_f64.saturating_sub(earlier.mfma_mops_f64),
            mfma_mops_f32: self.mfma_mops_f32.saturating_sub(earlier.mfma_mops_f32),
            mfma_mops_f16: self.mfma_mops_f16.saturating_sub(earlier.mfma_mops_f16),
            mfma_mops_bf16: self.mfma_mops_bf16.saturating_sub(earlier.mfma_mops_bf16),
            mfma_mops_i8: self.mfma_mops_i8.saturating_sub(earlier.mfma_mops_i8),
            valu_add_f16: self.valu_add_f16.saturating_sub(earlier.valu_add_f16),
            valu_add_f32: self.valu_add_f32.saturating_sub(earlier.valu_add_f32),
            valu_add_f64: self.valu_add_f64.saturating_sub(earlier.valu_add_f64),
            valu_mul_f16: self.valu_mul_f16.saturating_sub(earlier.valu_mul_f16),
            valu_mul_f32: self.valu_mul_f32.saturating_sub(earlier.valu_mul_f32),
            valu_mul_f64: self.valu_mul_f64.saturating_sub(earlier.valu_mul_f64),
            valu_fma_f16: self.valu_fma_f16.saturating_sub(earlier.valu_fma_f16),
            valu_fma_f32: self.valu_fma_f32.saturating_sub(earlier.valu_fma_f32),
            valu_fma_f64: self.valu_fma_f64.saturating_sub(earlier.valu_fma_f64),
            valu_other: self.valu_other.saturating_sub(earlier.valu_other),
            salu_insts: self.salu_insts.saturating_sub(earlier.salu_insts),
            flat_loads: self.flat_loads.saturating_sub(earlier.flat_loads),
            flat_stores: self.flat_stores.saturating_sub(earlier.flat_stores),
            lds_reads: self.lds_reads.saturating_sub(earlier.lds_reads),
            lds_writes: self.lds_writes.saturating_sub(earlier.lds_writes),
            waves_launched: self.waves_launched.saturating_sub(earlier.waves_launched),
            workgroups_launched: self
                .workgroups_launched
                .saturating_sub(earlier.workgroups_launched),
        }
    }
}

impl fmt::Display for HwCounters {
    /// A rocprof-style counter dump: one `NAME value` line per
    /// published counter, in [`COUNTER_NAMES`] order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.iter() {
            writeln!(f, "{name:<32} {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_isa::{cdna2_catalog, ValuOp};

    #[test]
    fn mfma_mops_increments_every_512_ops() {
        let mut c = HwCounters::default();
        let f64i = *cdna2_catalog()
            .find(DType::F64, DType::F64, 16, 16, 4)
            .unwrap();
        // One FP64 16x16x4 = 2048 FLOPs = 4 MOPS ticks.
        c.record(&SlotOp::Mfma(f64i), 1);
        assert_eq!(c.mfma_mops_f64, 4);
        c.record(&SlotOp::Mfma(f64i), 999);
        assert_eq!(c.mfma_mops_f64, 4000);
    }

    #[test]
    fn valu_counters_count_wavefront_instructions() {
        let mut c = HwCounters::default();
        c.record(&SlotOp::Valu(ValuOp::new(ValuOpKind::Fma, DType::F64)), 10);
        c.record(&SlotOp::Valu(ValuOp::new(ValuOpKind::Add, DType::F64)), 5);
        assert_eq!(c.valu_fma_f64, 10);
        assert_eq!(c.valu_add_f64, 5);
        // Eq. 1 reconstruction: 128*FMA + 64*ADD FLOPs.
        assert_eq!(128 * c.valu_fma_f64 + 64 * c.valu_add_f64, 1600);
    }

    #[test]
    fn packed_fma_advances_counter_by_packing_factor() {
        let mut c = HwCounters::default();
        c.record(
            &SlotOp::Valu(ValuOp::new(ValuOpKind::PackedFma, DType::F16)),
            3,
        );
        assert_eq!(c.valu_fma_f16, 6);
    }

    #[test]
    fn named_lookup_and_errors() {
        let mut c = HwCounters::default();
        let mixed = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        c.record(&SlotOp::Mfma(mixed), 64);
        assert_eq!(
            c.get("SQ_INSTS_VALU_MFMA_MOPS_F16").unwrap(),
            64 * 8192 / 512
        );
        assert_eq!(c.get("SQ_INSTS_VALU_MFMA_MOPS_F64").unwrap(), 0);
        assert!(c.get("NOT_A_COUNTER").is_err());
        // Every published name resolves.
        for name in COUNTER_NAMES {
            assert!(c.get(name).is_ok(), "{name}");
        }
    }

    #[test]
    fn merge_and_delta_roundtrip() {
        let mut a = HwCounters::default();
        a.record(&SlotOp::global_load(8), 7);
        a.record(&SlotOp::Scalar, 3);
        let mut b = a;
        b.record(&SlotOp::global_store(8), 2);
        let d = b.delta_from(&a);
        assert_eq!(d.flat_loads, 0);
        assert_eq!(d.flat_stores, 2);
        let merged = a.merged(&d);
        assert_eq!(merged, b);
    }

    #[test]
    fn iterator_agrees_with_get_on_every_counter() {
        let mut c = HwCounters::default();
        let mixed = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        c.record(&SlotOp::Mfma(mixed), 64);
        c.record(&SlotOp::Valu(ValuOp::new(ValuOpKind::Fma, DType::F32)), 5);
        c.record(&SlotOp::global_load(8), 3);
        c.waves_launched = 7;
        let pairs: Vec<(&str, u64)> = c.iter().collect();
        assert_eq!(pairs.len(), COUNTER_NAMES.len());
        for (name, value) in &pairs {
            assert_eq!(c.get(name).unwrap(), *value, "{name}");
        }
        // Order matches the published name list.
        let names: Vec<&str> = pairs.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, COUNTER_NAMES);
    }

    #[test]
    fn display_dumps_every_counter() {
        let mut c = HwCounters::default();
        c.record(&SlotOp::Scalar, 11);
        let dump = format!("{c}");
        assert_eq!(dump.lines().count(), COUNTER_NAMES.len());
        assert!(dump.contains("SQ_INSTS_SALU"));
        assert!(dump
            .lines()
            .any(|l| l.starts_with("SQ_INSTS_SALU") && l.ends_with(" 11")));
    }

    #[test]
    fn metrics_registration_uses_counters_prefix() {
        let mut c = HwCounters::default();
        c.record(&SlotOp::Scalar, 4);
        let mut reg = mc_trace::MetricsRegistry::new();
        c.register_metrics(&mut reg);
        assert_eq!(reg.len(), COUNTER_NAMES.len());
        assert_eq!(reg.value("counters.SQ_INSTS_SALU"), Some(4.0));
    }

    #[test]
    fn moves_count_as_valu_but_not_arithmetic() {
        let mut c = HwCounters::default();
        c.record(&SlotOp::Valu(ValuOp::new(ValuOpKind::Move, DType::F32)), 9);
        assert_eq!(c.get("SQ_INSTS_VALU").unwrap(), 9);
        assert_eq!(c.valu_add_f32 + c.valu_mul_f32 + c.valu_fma_f32, 0);
    }
}
