//! The diagnosis summary: the distributions behind the verdicts and
//! the whole diagnosis registered as `insight.*` metrics.

use crate::{Bottleneck, DriftReport, KernelVerdict};
use mc_trace::{Category, Histogram, MetricsRegistry, TraceEvent, Unit};

/// Schema version of the `<id>.insight.json` envelope the gate writes.
pub const INSIGHT_SCHEMA_VERSION: u32 = 1;

/// The dispatch-round latency distribution of a trace: every Round
/// span's duration recorded into a [`Histogram::latency_seconds`]
/// shape. The per-round view catches tail behaviour (ragged final
/// rounds, governor-stretched rounds) that kernel-level means hide.
pub fn round_latency_histogram(events: &[TraceEvent]) -> Histogram {
    let mut h = Histogram::latency_seconds();
    for span in events.iter().filter_map(|e| e.as_span()) {
        if span.category == Category::Round {
            h.record(span.dur_us / 1e6);
        }
    }
    h
}

/// Registers the diagnosis summary under `insight.*`: per-verdict
/// kernel counts, drift-distribution gauges, and the two histogram
/// families (`insight.round_latency_s` from `events`,
/// `insight.plan_drift` from the report).
pub fn register_insight_metrics(
    verdicts: &[KernelVerdict],
    report: &DriftReport,
    events: &[TraceEvent],
    reg: &mut MetricsRegistry,
) {
    reg.set("insight.kernels", Unit::Count, verdicts.len() as f64);
    for b in Bottleneck::ALL {
        let count = verdicts.iter().filter(|v| v.bottleneck == b).count();
        reg.set(
            &format!("insight.verdict.{}", b.label().replace('-', "_")),
            Unit::Count,
            count as f64,
        );
    }
    let consistent = verdicts
        .iter()
        .filter(|v| v.bottleneck.consistent_with_regime(&v.evidence.regime))
        .count();
    reg.set("insight.regime_consistent", Unit::Count, consistent as f64);
    reg.set(
        "insight.drift.observations",
        Unit::Count,
        report.observations.len() as f64,
    );
    reg.set("insight.drift.band", Unit::Ratio, report.band);
    reg.set("insight.drift.mean_abs", Unit::Ratio, report.mean_abs_drift);
    reg.set("insight.drift.max_abs", Unit::Ratio, report.max_abs_drift);
    reg.set(
        "insight.drift.out_of_band",
        Unit::Count,
        report.out_of_band as f64,
    );
    reg.register_histogram("insight.round_latency_s", round_latency_histogram(events));
    reg.register_histogram("insight.plan_drift", report.histogram());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::{diagnose, drift_report, Attributor, DEFAULT_DRIFT_BAND, MEMORY_STALL_MIN};
    use mc_blas::{BlasHandle, GemmDesc, GemmOp};
    use mc_sim::{DeviceId, DeviceRegistry};
    use mc_trace::RingSink;

    fn traced_sweep(descs: &[GemmDesc]) -> (Vec<TraceEvent>, Vec<crate::AttributionRecord>) {
        let sink = Arc::new(RingSink::new());
        let mut devices = DeviceRegistry::builtin();
        devices.set_trace_sink(sink.clone());
        let mut handle = BlasHandle::from_registry(&devices, DeviceId::Mi250xGcd);
        for desc in descs {
            handle.gemm_timed(desc).unwrap();
        }
        let events = sink.events();
        let records = Attributor::from_registry(&devices).attribute(&events);
        (events, records)
    }

    #[test]
    fn diagnoses_the_canonical_corpus_shapes() {
        let (events, records) = traced_sweep(&[
            GemmDesc::square(GemmOp::Sgemm, 4096),
            GemmDesc {
                k: 64,
                ..GemmDesc::square(GemmOp::Sgemm, 4096)
            },
        ]);
        let verdicts = diagnose(&events, &records);
        assert_eq!(verdicts.len(), 2);
        // Large square: compute-bound at a high achieved fraction.
        assert_eq!(verdicts[0].bottleneck, Bottleneck::ComputeBound);
        assert!(verdicts[0].evidence.achieved_fraction > 0.5);
        // Small-K: the engine exposes DRAM time the compute can't cover.
        assert_eq!(verdicts[1].bottleneck, Bottleneck::DramBound);
        assert!(verdicts[1].evidence.memory_stall_fraction > MEMORY_STALL_MIN);
        for v in &verdicts {
            assert!(v.bottleneck.consistent_with_regime(&v.evidence.regime));
            assert!(!v.explanation.is_empty());
            assert!(
                v.predicted_time_s.is_some(),
                "library launches carry predictions"
            );
            assert!(v.drift.unwrap().abs() < DEFAULT_DRIFT_BAND, "{:?}", v.drift);
        }
    }

    #[test]
    fn verdicts_serialize_and_round_trip() {
        let (events, records) = traced_sweep(&[GemmDesc::square(GemmOp::Sgemm, 1024)]);
        let verdicts = diagnose(&events, &records);
        let json = serde_json::to_string(&serde_json::to_value(&verdicts)).unwrap();
        let back: Vec<KernelVerdict> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, verdicts);
    }

    #[test]
    fn insight_metrics_cover_verdicts_drift_and_histograms() {
        let (events, records) = traced_sweep(&[
            GemmDesc::square(GemmOp::Sgemm, 1024),
            GemmDesc::square(GemmOp::Hhs, 2048),
        ]);
        let verdicts = diagnose(&events, &records);
        let report = drift_report(&events, DEFAULT_DRIFT_BAND);
        assert_eq!(report.observations.len(), 2);
        assert!(report.within_band(), "max {}", report.max_abs_drift);

        let mut reg = MetricsRegistry::new();
        register_insight_metrics(&verdicts, &report, &events, &mut reg);
        assert_eq!(reg.value("insight.kernels"), Some(2.0));
        assert_eq!(reg.value("insight.regime_consistent"), Some(2.0));
        assert_eq!(reg.value("insight.drift.out_of_band"), Some(0.0));
        let verdict_total: f64 = Bottleneck::ALL
            .iter()
            .map(|b| {
                reg.value(&format!("insight.verdict.{}", b.label().replace('-', "_")))
                    .unwrap()
            })
            .sum();
        assert_eq!(verdict_total, 2.0);
        assert!(reg.histogram("insight.round_latency_s").unwrap().count() > 0);
        assert_eq!(reg.histogram("insight.plan_drift").unwrap().count(), 2);
        // The whole summary renders as OpenMetrics text.
        let om = mc_trace::openmetrics(&reg);
        assert!(
            om.contains("# TYPE insight_plan_drift_ratio histogram"),
            "{om}"
        );
        assert!(
            om.contains("# TYPE insight_round_latency_s_seconds histogram"),
            "{om}"
        );
    }
}
