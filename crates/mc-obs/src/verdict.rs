//! Per-kernel bottleneck verdicts with machine-checkable evidence.
//!
//! [`diagnose`] joins the three observability planes the repo already
//! produces — kernel trace spans with their stall-share args
//! (`mc-sim`'s engine), dispatch-round and pipeline-busy spans, and the
//! per-kernel [`AttributionRecord`]s (the attribution ledger) — into one
//! [`KernelVerdict`] per attributed launch. Every verdict carries the
//! [`Evidence`] that produced it, so a reviewer (or the `insight` gate)
//! can re-derive the classification from the numbers instead of
//! trusting a label.
//!
//! The taxonomy follows the paper's performance discussion: a kernel is
//! **compute-bound** when it sits near its Eq. 2 ceiling with the
//! matrix/SIMD pipelines busy; **DRAM-bound** when exposed HBM time
//! dominates the wall clock (§VI's bandwidth discussion);
//! **occupancy-limited** when too few SIMD pairs have resident work to
//! hide latency (the <440-wavefront regime of Fig. 3);
//! **barrier-stall** when waitcnt/barrier/s_nop slots eat the issue
//! stream; and **epilogue-handoff** when the fixed cost of draining
//! accumulators to the VALUs for α/β scaling is a visible share of the
//! launch (the §VII small-N effect the planner scores via
//! [`mc_blas::handoff_penalty_s`]).

use crate::AttributionRecord;
use mc_trace::{Category, SpanEvent, TraceEvent};
use serde::{DeError, Deserialize, Serialize, Value};

/// Minimum handoff-penalty share of wall time for an
/// **epilogue-handoff** verdict: below this the accumulator drain is
/// amortized into the makespan (paper Fig. 8 shows the crossover
/// between N = 16 and N = 32, where the penalty falls from ~7% of the
/// launch to well under 1%).
const HANDOFF_FRACTION_MIN: f64 = 0.05;

/// Minimum share of issue-stream cycles spent in waitcnt / barrier /
/// s_nop slots for a **barrier-stall** verdict.
const WAIT_STALL_MIN: f64 = 0.25;

/// Minimum exposed-DRAM share of wall time for a **DRAM-bound**
/// verdict: double-buffered kernels only expose the traffic their
/// compute cannot cover, so any sizable share means the memory system
/// is pacing the kernel.
pub(crate) const MEMORY_STALL_MIN: f64 = 0.15;

/// Pair-utilization floor under which a kernel is **occupancy-limited**:
/// fewer than half the die's SIMD pairs had resident work, so latency
/// cannot be hidden regardless of per-pair efficiency.
const PAIR_UTILIZATION_MIN: f64 = 0.5;

/// The bottleneck taxonomy (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bottleneck {
    /// Near the Eq. 2 ceiling; the arithmetic pipelines pace the kernel.
    ComputeBound,
    /// Exposed HBM traffic paces the kernel.
    DramBound,
    /// Too few resident wavefronts to hide latency.
    OccupancyLimited,
    /// Synchronization slots dominate the issue stream.
    BarrierStall,
    /// The accumulator-drain epilogue is a visible share of the launch.
    EpilogueHandoff,
}

impl Bottleneck {
    /// Every verdict, in taxonomy order.
    pub const ALL: [Bottleneck; 5] = [
        Bottleneck::ComputeBound,
        Bottleneck::DramBound,
        Bottleneck::OccupancyLimited,
        Bottleneck::BarrierStall,
        Bottleneck::EpilogueHandoff,
    ];

    /// The stable kebab-case label used in envelopes and metrics names.
    pub fn label(&self) -> &'static str {
        match self {
            Bottleneck::ComputeBound => "compute-bound",
            Bottleneck::DramBound => "dram-bound",
            Bottleneck::OccupancyLimited => "occupancy-limited",
            Bottleneck::BarrierStall => "barrier-stall",
            Bottleneck::EpilogueHandoff => "epilogue-handoff",
        }
    }

    /// Parses a label produced by [`Bottleneck::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        Bottleneck::ALL.into_iter().find(|b| b.label() == label)
    }

    /// Whether this verdict is consistent with a roofline regime
    /// (`"compute-bound"` / `"memory-bound"` from the attribution
    /// ledger). Compute- and DRAM-bound verdicts must agree with the
    /// roofline placement; the three stall verdicts are latency
    /// explanations orthogonal to it.
    pub fn consistent_with_regime(&self, regime: &str) -> bool {
        match self {
            Bottleneck::ComputeBound => regime == "compute-bound",
            Bottleneck::DramBound => regime == "memory-bound",
            _ => true,
        }
    }
}

impl Serialize for Bottleneck {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }
}

impl Deserialize for Bottleneck {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => {
                Bottleneck::from_label(s).ok_or_else(|| DeError::custom("unknown bottleneck label"))
            }
            _ => Err(DeError::expected("string", "bottleneck label")),
        }
    }
}

/// The measurements a verdict is derived from — every threshold in
/// [`classify`] reads exactly one of these fields, so the verdict is
/// re-derivable from its own evidence.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Evidence {
    /// Achieved fraction of the Eq. 2 peak (attribution ledger).
    pub achieved_fraction: f64,
    /// Fraction of dispatch rounds bounded by an arithmetic pipeline
    /// (engine span arg).
    pub compute_bound_fraction: f64,
    /// Exposed-DRAM share of wall time (engine span arg).
    pub memory_stall_fraction: f64,
    /// Waitcnt/barrier/s_nop share of the issue stream (engine span
    /// arg).
    pub wait_stall_fraction: f64,
    /// HBM transfer-window share of the wall clock (`dram_time_s`
    /// against the span duration; exceeds `memory_stall_fraction`
    /// whenever double buffering hides traffic under compute).
    pub hbm_utilization: f64,
    /// Matrix-pipe busy share of the compute window (pipeline spans).
    pub matrix_busy_fraction: f64,
    /// SIMD issue-port busy share of the compute window.
    pub simd_busy_fraction: f64,
    /// Duration-weighted mean fraction of SIMD pairs with resident work
    /// (round spans).
    pub pair_utilization: f64,
    /// Resident matrix-unit occupancy (waves) from the engine span.
    pub occupancy_waves: f64,
    /// The limiting pipeline of the longest dispatch round
    /// (`RoundBound` debug form, `"-"` when no rounds were traced).
    pub dominant_round_bound: String,
    /// Handoff-penalty share of wall time (plan span; 0 when the launch
    /// had no library plan span or no penalty).
    pub handoff_fraction: f64,
    /// Roofline regime from the attribution ledger.
    pub regime: String,
    /// Arithmetic intensity in FLOP per DRAM byte.
    pub intensity_flop_per_byte: f64,
}

/// One kernel launch, diagnosed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelVerdict {
    /// Kernel name from the trace span.
    pub kernel: String,
    /// Package-spec name the kernel ran on.
    pub spec: String,
    /// Die index within the package.
    pub die: u32,
    /// Launch start on the trace timeline, in microseconds.
    pub t0_us: f64,
    /// Wall time of the launch in seconds.
    pub wall_time_s: f64,
    /// The verdict.
    pub bottleneck: Bottleneck,
    /// The measurements behind it.
    pub evidence: Evidence,
    /// Eq. 2 analytic prediction from the enclosing plan span, when the
    /// launch went through the library planner.
    pub predicted_time_s: Option<f64>,
    /// Relative model drift, `predicted / engine-comparable − 1`, when
    /// a prediction exists (see [`crate::drift`]).
    pub drift: Option<f64>,
    /// Human-readable one-line justification.
    pub explanation: String,
}

/// Classifies one evidence bundle (see module docs for the taxonomy and
/// the `*_MIN` thresholds). The rules run in severity order — a visible
/// handoff or synchronization stall explains a slow kernel better than
/// its roofline placement does — and the final fallback defers to the
/// roofline regime, so every kernel receives exactly one verdict and
/// compute/DRAM verdicts are roofline-consistent by construction.
pub fn classify(e: &Evidence) -> Bottleneck {
    if e.handoff_fraction >= HANDOFF_FRACTION_MIN {
        Bottleneck::EpilogueHandoff
    } else if e.wait_stall_fraction >= WAIT_STALL_MIN {
        Bottleneck::BarrierStall
    } else if e.memory_stall_fraction >= MEMORY_STALL_MIN {
        Bottleneck::DramBound
    } else if e.pair_utilization < PAIR_UTILIZATION_MIN
        || e.dominant_round_bound == "DependentChain"
    {
        Bottleneck::OccupancyLimited
    } else if e.regime == "memory-bound" {
        Bottleneck::DramBound
    } else {
        Bottleneck::ComputeBound
    }
}

/// Renders the one-line justification for a classified evidence bundle.
pub fn explain(bottleneck: Bottleneck, e: &Evidence) -> String {
    match bottleneck {
        Bottleneck::ComputeBound => format!(
            "compute-bound: {:.0}% of the Eq. 2 peak, matrix pipe busy {:.0}% of the compute window",
            e.achieved_fraction * 100.0,
            e.matrix_busy_fraction * 100.0
        ),
        Bottleneck::DramBound => format!(
            "DRAM-bound: exposed HBM time is {:.0}% of wall at {:.1} FLOP/B intensity",
            e.memory_stall_fraction * 100.0,
            e.intensity_flop_per_byte
        ),
        Bottleneck::OccupancyLimited => format!(
            "occupancy-limited: {:.0}% of SIMD pairs occupied, dominant round bound {}",
            e.pair_utilization * 100.0,
            e.dominant_round_bound
        ),
        Bottleneck::BarrierStall => format!(
            "barrier-stall: {:.0}% of issue slots spent on waitcnt/barrier/s_nop",
            e.wait_stall_fraction * 100.0
        ),
        Bottleneck::EpilogueHandoff => format!(
            "epilogue-handoff: accumulator drain costs {:.1}% of the launch",
            e.handoff_fraction * 100.0
        ),
    }
}

/// Joins kernel spans, round/pipeline spans, plan spans, and the
/// attribution ledger into one verdict per attributed launch, in ledger
/// order. Records whose kernel span cannot be found (pruned trace) are
/// diagnosed from the ledger plane alone.
pub fn diagnose(events: &[TraceEvent], records: &[AttributionRecord]) -> Vec<KernelVerdict> {
    let spans: Vec<&SpanEvent> = events.iter().filter_map(|e| e.as_span()).collect();
    records.iter().map(|r| diagnose_one(&spans, r)).collect()
}

fn diagnose_one(spans: &[&SpanEvent], r: &AttributionRecord) -> KernelVerdict {
    let kernel_span = spans.iter().find(|s| {
        s.category == Category::Kernel
            && s.device == r.die
            && s.name == r.kernel
            && (s.t0_us - r.t0_us).abs() < 1e-6
    });

    let mut evidence = Evidence {
        achieved_fraction: r.achieved_fraction,
        compute_bound_fraction: 0.0,
        memory_stall_fraction: 0.0,
        wait_stall_fraction: 0.0,
        hbm_utilization: 0.0,
        matrix_busy_fraction: 0.0,
        simd_busy_fraction: 0.0,
        pair_utilization: 1.0,
        occupancy_waves: 0.0,
        dominant_round_bound: "-".to_string(),
        handoff_fraction: 0.0,
        regime: r.regime.clone(),
        intensity_flop_per_byte: r.intensity_flop_per_byte,
    };
    let mut predicted_time_s = None;
    let mut drift = None;

    if let Some(k) = kernel_span {
        let wall_s = k.dur_us / 1e6;
        evidence.compute_bound_fraction = k.arg_f64("compute_bound_fraction").unwrap_or(0.0);
        evidence.memory_stall_fraction = k.arg_f64("memory_stall_fraction").unwrap_or(0.0);
        evidence.wait_stall_fraction = k.arg_f64("wait_stall_fraction").unwrap_or(0.0);
        evidence.occupancy_waves = k.arg_f64("matrix_occupancy").unwrap_or(0.0);
        if wall_s > 0.0 {
            let dram_s = k.arg_f64("dram_time_s").unwrap_or(0.0);
            evidence.hbm_utilization = (dram_s / wall_s).clamp(0.0, 1.0);
        }

        // Dispatch rounds and pipeline busy windows inside the kernel's
        // wall window on the same device.
        let eps = 1e-6;
        let within = |s: &SpanEvent| {
            s.device == k.device && s.t0_us >= k.t0_us - eps && s.end_us() <= k.end_us() + eps
        };
        let rounds: Vec<&&SpanEvent> = spans
            .iter()
            .filter(|s| s.category == Category::Round && within(s))
            .collect();
        let round_total_us: f64 = rounds.iter().map(|s| s.dur_us).sum();
        if round_total_us > 0.0 {
            evidence.pair_utilization = rounds
                .iter()
                .map(|s| s.arg_f64("pair_utilization").unwrap_or(0.0) * s.dur_us)
                .sum::<f64>()
                / round_total_us;
            if let Some(longest) = rounds.iter().max_by(|a, b| a.dur_us.total_cmp(&b.dur_us)) {
                evidence.dominant_round_bound = longest.arg_str("bound").unwrap_or("-").to_string();
            }
            let busy_share = |name: &str| {
                spans
                    .iter()
                    .filter(|s| s.category == Category::Pipeline && s.name == name && within(s))
                    .map(|s| s.dur_us)
                    .sum::<f64>()
                    / round_total_us
            };
            evidence.matrix_busy_fraction = busy_share("matrix busy").min(1.0);
            evidence.simd_busy_fraction = busy_share("simd issue busy").min(1.0);
        }

        // The library plan span covering the same wall window carries
        // the Eq. 2 prediction and the handoff penalty.
        if let Some(plan) = spans.iter().find(|s| {
            s.category == Category::Plan
                && s.device == k.device
                && (s.t0_us - k.t0_us).abs() < 1e-3
                && (s.dur_us - k.dur_us).abs() < 1e-3
        }) {
            let handoff_s = plan.arg_f64("handoff_penalty_s").unwrap_or(0.0);
            if wall_s > 0.0 {
                evidence.handoff_fraction = (handoff_s / wall_s).clamp(0.0, 1.0);
            }
            if let Some(predicted) = plan.arg_f64("predicted_time_s") {
                predicted_time_s = Some(predicted);
                let comparable = wall_s + handoff_s;
                if comparable > 0.0 {
                    drift = Some(predicted / comparable - 1.0);
                }
            }
        }
    }

    let bottleneck = classify(&evidence);
    let explanation = explain(bottleneck, &evidence);
    KernelVerdict {
        kernel: r.kernel.clone(),
        spec: r.spec.clone(),
        die: r.die,
        t0_us: r.t0_us,
        wall_time_s: r.wall_time_s,
        bottleneck,
        evidence,
        predicted_time_s,
        drift,
        explanation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evidence() -> Evidence {
        Evidence {
            achieved_fraction: 0.9,
            compute_bound_fraction: 1.0,
            memory_stall_fraction: 0.0,
            wait_stall_fraction: 0.05,
            hbm_utilization: 0.3,
            matrix_busy_fraction: 0.95,
            simd_busy_fraction: 0.2,
            pair_utilization: 1.0,
            occupancy_waves: 440.0,
            dominant_round_bound: "MatrixCore".to_string(),
            handoff_fraction: 0.0,
            regime: "compute-bound".to_string(),
            intensity_flop_per_byte: 500.0,
        }
    }

    #[test]
    fn taxonomy_rules_fire_in_severity_order() {
        let base = evidence();
        assert_eq!(classify(&base), Bottleneck::ComputeBound);

        let mut e = base.clone();
        e.memory_stall_fraction = 0.4;
        e.regime = "memory-bound".to_string();
        assert_eq!(classify(&e), Bottleneck::DramBound);

        e.wait_stall_fraction = 0.5;
        assert_eq!(classify(&e), Bottleneck::BarrierStall);

        e.handoff_fraction = 0.1;
        assert_eq!(classify(&e), Bottleneck::EpilogueHandoff);

        let mut e = base.clone();
        e.pair_utilization = 0.2;
        assert_eq!(classify(&e), Bottleneck::OccupancyLimited);

        let mut e = base.clone();
        e.dominant_round_bound = "DependentChain".to_string();
        assert_eq!(classify(&e), Bottleneck::OccupancyLimited);

        // The fallback defers to the roofline regime.
        let mut e = base;
        e.regime = "memory-bound".to_string();
        assert_eq!(classify(&e), Bottleneck::DramBound);
    }

    #[test]
    fn verdict_labels_round_trip_and_check_regime_consistency() {
        for b in Bottleneck::ALL {
            assert_eq!(Bottleneck::from_label(b.label()), Some(b));
        }
        assert!(Bottleneck::from_label("launch-bound").is_none());
        assert!(Bottleneck::ComputeBound.consistent_with_regime("compute-bound"));
        assert!(!Bottleneck::ComputeBound.consistent_with_regime("memory-bound"));
        assert!(Bottleneck::DramBound.consistent_with_regime("memory-bound"));
        assert!(!Bottleneck::DramBound.consistent_with_regime("compute-bound"));
        assert!(Bottleneck::BarrierStall.consistent_with_regime("compute-bound"));
        assert!(Bottleneck::OccupancyLimited.consistent_with_regime("memory-bound"));
    }

    #[test]
    fn explanations_cite_the_deciding_evidence() {
        let e = evidence();
        assert!(explain(Bottleneck::ComputeBound, &e).contains("90% of the Eq. 2 peak"));
        assert!(explain(Bottleneck::OccupancyLimited, &e).contains("MatrixCore"));
        let mut stalled = e;
        stalled.wait_stall_fraction = 0.42;
        assert!(explain(Bottleneck::BarrierStall, &stalled).contains("42%"));
    }

    #[test]
    fn bottleneck_serializes_as_its_label() {
        let v = serde_json::to_value(&Bottleneck::EpilogueHandoff);
        assert_eq!(v, Value::Str("epilogue-handoff".to_string()));
        let back: Bottleneck = serde_json::from_value(v).unwrap();
        assert_eq!(back, Bottleneck::EpilogueHandoff);
        assert!(serde_json::from_value::<Bottleneck>(Value::Str("nope".into())).is_err());
    }
}
