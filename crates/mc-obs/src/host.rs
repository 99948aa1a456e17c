//! Host-plane bottleneck verdicts over `mc-hostprof` attribution.
//!
//! The GPU-plane taxonomy ([`crate::verdict`]) explains a simulated
//! launch; this module explains the *host* GEMM plane — the CPU tier
//! ladder whose phase decomposition `mc-hostprof` extracts from a
//! profiling session. One [`HostVerdict`] per
//! [`HostAttributionRecord`], with the thresholds documented as
//! constants so the `hostprof` gate (and a reviewer) can re-derive
//! every classification from the record it came with.
//!
//! The taxonomy mirrors the paper's host-side observations: packing
//! cost dominates small packed problems (§VII's small-N discussion —
//! **pack-bound**), low arithmetic intensity leaves the cache hierarchy
//! pacing the sweep (**memory-bandwidth-bound**), and a rayon pool
//! whose workers sit idle inside fan-out windows wastes the cores it
//! was sized for (**parallel-imbalance**).

use mc_hostprof::HostAttributionRecord;
use serde::{DeError, Deserialize, Serialize, Value};

/// Parallel-efficiency floor for a **parallel-imbalance** verdict: at
/// or below it, workers sat idle for ≥ 20% of the pool's capacity
/// inside fan-out windows (busy-time / (threads × fan-out span)), so
/// adding cores is repaying less than it costs.
pub const HOST_EFFICIENCY_MIN: f64 = 0.8;

/// Packing share of packed-tier work (`pack / (pack + microkernel)`)
/// above which a region is **pack-bound**: more than a third of the
/// worked seconds went into panel layout rather than FMAs, the regime
/// where the packing-buffer pool and smaller `KC` pay off.
pub const HOST_PACK_RATIO_MAX: f64 = 0.35;

/// Arithmetic-intensity floor, in FLOPs per *matrix element* touched
/// (`2mnk / (mk + kn + 2mn)`), below which a packed region is
/// **memory-bandwidth-bound**: a square problem crosses it near
/// N = 48, where the B panel stops fitting in L1 but the microkernel
/// still re-streams operands faster than it computes on them. Element
/// (not byte) units keep the threshold dtype-independent — the record
/// does not carry the element width.
pub const HOST_INTENSITY_MIN_FLOP_PER_ELEM: f64 = 24.0;

/// The host-plane bottleneck taxonomy (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HostBottleneck {
    /// Workers idle ≥ 20% of the fan-out windows' pooled capacity.
    ParallelImbalance,
    /// Panel packing dominates the packed-tier work.
    PackBound,
    /// Too little arithmetic per element touched; operand streaming
    /// paces the sweep.
    MemoryBandwidthBound,
    /// The microkernel FMA sweep paces the region.
    ComputeBound,
}

impl HostBottleneck {
    /// Every verdict, in classification-precedence order.
    pub const ALL: [HostBottleneck; 4] = [
        HostBottleneck::ParallelImbalance,
        HostBottleneck::PackBound,
        HostBottleneck::MemoryBandwidthBound,
        HostBottleneck::ComputeBound,
    ];

    /// The stable kebab-case label used in envelopes and metric names.
    pub fn label(&self) -> &'static str {
        match self {
            HostBottleneck::ParallelImbalance => "parallel-imbalance",
            HostBottleneck::PackBound => "pack-bound",
            HostBottleneck::MemoryBandwidthBound => "memory-bandwidth-bound",
            HostBottleneck::ComputeBound => "compute-bound",
        }
    }

    /// Parses a label produced by [`HostBottleneck::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        HostBottleneck::ALL.into_iter().find(|b| b.label() == label)
    }
}

impl Serialize for HostBottleneck {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }
}

impl Deserialize for HostBottleneck {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => HostBottleneck::from_label(s)
                .ok_or_else(|| DeError::custom("unknown host bottleneck label")),
            _ => Err(DeError::expected("string", "host bottleneck label")),
        }
    }
}

/// One host GEMM region, diagnosed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostVerdict {
    /// Region id from the attribution record.
    pub region: u32,
    /// Routed backend (`blocked`, `simd`).
    pub backend: String,
    /// The verdict.
    pub bottleneck: HostBottleneck,
    /// Arithmetic intensity in FLOPs per element touched (the
    /// [`HOST_INTENSITY_MIN_FLOP_PER_ELEM`] input).
    pub intensity_flop_per_elem: f64,
    /// Human-readable one-line justification.
    pub explanation: String,
}

/// FLOPs per matrix element touched: `2mnk / (mk + kn + 2mn)` (A and B
/// read once, C read and D written).
pub fn host_intensity(r: &HostAttributionRecord) -> f64 {
    let (m, n, k) = (r.m as f64, r.n as f64, r.k as f64);
    let elems = m * k + k * n + 2.0 * m * n;
    if elems > 0.0 {
        2.0 * m * n * k / elems
    } else {
        0.0
    }
}

/// Classifies one attribution record (thresholds above, precedence =
/// [`HostBottleneck::ALL`] order). Imbalance is checked first — an
/// idle pool invalidates the other figures' denominators — then the
/// two work-composition verdicts, then compute-bound.
pub fn classify_host(r: &HostAttributionRecord) -> HostBottleneck {
    if r.threads > 1 && r.fanout_s > 0.0 && r.parallel_efficiency < HOST_EFFICIENCY_MIN {
        HostBottleneck::ParallelImbalance
    } else if r.pack_ratio > HOST_PACK_RATIO_MAX {
        HostBottleneck::PackBound
    } else if host_intensity(r) < HOST_INTENSITY_MIN_FLOP_PER_ELEM {
        HostBottleneck::MemoryBandwidthBound
    } else {
        HostBottleneck::ComputeBound
    }
}

/// Renders the one-line justification for a classified record.
pub fn explain_host(bottleneck: HostBottleneck, r: &HostAttributionRecord) -> String {
    match bottleneck {
        HostBottleneck::ParallelImbalance => format!(
            "parallel-imbalance: workers busy {:.0}% of a {}-thread pool's fan-out capacity",
            r.parallel_efficiency * 100.0,
            r.threads
        ),
        HostBottleneck::PackBound => format!(
            "pack-bound: {:.0}% of packed-tier work is panel packing",
            r.pack_ratio * 100.0
        ),
        HostBottleneck::MemoryBandwidthBound => format!(
            "memory-bandwidth-bound: {:.1} FLOP per element touched at {:.1} GFLOP/s",
            host_intensity(r),
            r.gflops
        ),
        HostBottleneck::ComputeBound => format!(
            "compute-bound: microkernel holds {:.0}% of packed-tier work at {:.1} GFLOP/s",
            (1.0 - r.pack_ratio) * 100.0,
            r.gflops
        ),
    }
}

/// Diagnoses a whole ledger, in ledger order.
pub fn diagnose_host(records: &[HostAttributionRecord]) -> Vec<HostVerdict> {
    records
        .iter()
        .map(|r| {
            let bottleneck = classify_host(r);
            HostVerdict {
                region: r.region,
                backend: r.backend.clone(),
                bottleneck,
                intensity_flop_per_elem: host_intensity(r),
                explanation: explain_host(bottleneck, r),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_hostprof::HOSTPROF_SCHEMA_VERSION;

    fn record(backend: &str, n: u64, threads: u64) -> HostAttributionRecord {
        HostAttributionRecord {
            schema_version: HOSTPROF_SCHEMA_VERSION,
            region: 1,
            backend: backend.to_owned(),
            m: n,
            n,
            k: n,
            threads,
            workers: threads,
            wall_s: 0.01,
            simd: true,
            pack_a_s: 0.001,
            pack_b_s: 0.001,
            microkernel_s: 0.007,
            epilogue_s: 0.0005,
            fanout_s: 0.009,
            caller_s: 0.0095,
            worker_busy_s: 0.008 * threads as f64,
            gflops: 10.0,
            pack_ratio: 0.002 / 0.009,
            parallel_efficiency: 0.89,
            reconcile_rel_err: 0.05,
            pool_hits: 4,
            pool_misses: 1,
            pool_recycled: 5,
            pool_discarded: 0,
            pool_allocated_bytes: 4096,
        }
    }

    #[test]
    fn labels_round_trip() {
        for b in HostBottleneck::ALL {
            assert_eq!(HostBottleneck::from_label(b.label()), Some(b));
        }
        assert_eq!(HostBottleneck::from_label("nope"), None);
    }

    #[test]
    fn big_balanced_packed_region_is_compute_bound() {
        let r = record("simd", 1024, 4);
        assert_eq!(classify_host(&r), HostBottleneck::ComputeBound);
    }

    #[test]
    fn idle_pool_trumps_everything() {
        let mut r = record("simd", 1024, 8);
        r.parallel_efficiency = 0.5;
        assert_eq!(classify_host(&r), HostBottleneck::ParallelImbalance);
        // …but a single-thread pool cannot be imbalanced.
        r.threads = 1;
        assert_eq!(classify_host(&r), HostBottleneck::ComputeBound);
    }

    #[test]
    fn packing_heavy_region_is_pack_bound() {
        let mut r = record("blocked", 256, 1);
        r.pack_ratio = 0.45;
        assert_eq!(classify_host(&r), HostBottleneck::PackBound);
    }

    #[test]
    fn small_packed_region_is_memory_bandwidth_bound() {
        // N = 40 ⇒ 2n³/4n² = 20 FLOP/element < 24.
        let r = record("simd", 40, 1);
        assert!(host_intensity(&r) < HOST_INTENSITY_MIN_FLOP_PER_ELEM);
        assert_eq!(classify_host(&r), HostBottleneck::MemoryBandwidthBound);
    }

    #[test]
    fn verdicts_serialize_with_stable_labels() {
        let verdicts = diagnose_host(&[record("simd", 1024, 4)]);
        let json = serde_json::to_string(&serde_json::to_value(&verdicts[0])).unwrap();
        assert!(json.contains("\"compute-bound\""), "{json}");
    }
}
