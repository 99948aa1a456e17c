//! The model-drift detector: Eq. 2 predictions vs engine measurements.
//!
//! Every library launch records its analytic prediction next to its
//! measured wall time on the plan span ([`mc_blas::BlasHandle`]), and
//! every plan search persists both tiers' scores per finalist
//! ([`mc_blas::FinalistScore`]) and per winner
//! ([`mc_blas::PlanDbEntry`]). This module turns those pairs into:
//!
//! * [`DriftObservation`]s — one relative error per launch, comparing
//!   the prediction against the engine-comparable measurement (wall
//!   time plus the handoff penalty the engine's slot model does not
//!   see);
//! * a [`DriftReport`] bounding the distribution against a calibrated
//!   band (the `insight` gate fails when any launch drifts outside it);
//! * [`InversionRecord`]s — finalist pairs the analytic model *ranked
//!   wrongly* relative to the engine, i.e. the mistakes the autotuner
//!   would have shipped without its dry-run tier.

use mc_blas::{FinalistScore, SearchOutcome};
use mc_trace::{Category, Histogram, TraceEvent};
use serde::{Deserialize, Serialize};

/// The calibrated drift band: every Fig. 6/7 corpus launch on every
/// built-in device keeps `|predicted / measured − 1|` within this bound
/// (the observed worst case is ≈0.29, on mid-size shapes where the
/// Eq. 2 ramp model runs optimistic against the engine's matrix-slot
/// rounds; the band leaves headroom without masking a real model
/// regression, which typically lands well past 2×).
pub const DEFAULT_DRIFT_BAND: f64 = 0.40;

/// One launch's prediction-vs-measurement pair, read from a plan span.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftObservation {
    /// Plan span name (`plan <kernel>`).
    pub plan: String,
    /// Die the launch ran on.
    pub device: u32,
    /// Routine (`op` span arg, e.g. `"sgemm"`).
    pub op: String,
    /// Problem rows.
    pub m: u64,
    /// Problem columns.
    pub n: u64,
    /// Problem inner dimension.
    pub k: u64,
    /// Eq. 2 analytic prediction, in seconds.
    pub predicted_time_s: f64,
    /// Measured wall time of the launch, in seconds.
    pub measured_time_s: f64,
    /// Handoff penalty the analytic model adds but the engine does not
    /// see, in seconds.
    pub handoff_penalty_s: f64,
    /// Relative drift: `predicted / (measured + handoff) − 1`.
    /// Positive means the analytic model was pessimistic.
    pub drift: f64,
}

/// Extracts one [`DriftObservation`] per plan span carrying a
/// prediction, in event order. Spans without `predicted_time_s` (traces
/// from older builds) are skipped.
pub fn plan_drift(events: &[TraceEvent]) -> Vec<DriftObservation> {
    events
        .iter()
        .filter_map(|e| e.as_span())
        .filter(|s| s.category == Category::Plan)
        .filter_map(|span| {
            let predicted = span.arg_f64("predicted_time_s")?;
            let measured = span.arg_f64("measured_time_s").unwrap_or(span.dur_us / 1e6);
            let handoff = span.arg_f64("handoff_penalty_s").unwrap_or(0.0);
            let comparable = measured + handoff;
            if comparable <= 0.0 {
                return None;
            }
            Some(DriftObservation {
                plan: span.name.clone(),
                device: span.device,
                op: span.arg_str("op").unwrap_or_default().to_string(),
                m: span.arg_u64("m").unwrap_or(0),
                n: span.arg_u64("n").unwrap_or(0),
                k: span.arg_u64("k").unwrap_or(0),
                predicted_time_s: predicted,
                measured_time_s: measured,
                handoff_penalty_s: handoff,
                drift: predicted / comparable - 1.0,
            })
        })
        .collect()
}

/// A drift distribution bounded against a band.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// The band `|drift|` must stay within.
    pub band: f64,
    /// Every observation, in event order.
    pub observations: Vec<DriftObservation>,
    /// Mean of `|drift|` (0 for an empty report).
    pub mean_abs_drift: f64,
    /// Worst `|drift|` (0 for an empty report).
    pub max_abs_drift: f64,
    /// Observations with `|drift|` outside the band.
    pub out_of_band: usize,
}

impl DriftReport {
    /// Summarizes observations against a band.
    pub fn new(observations: Vec<DriftObservation>, band: f64) -> Self {
        let n = observations.len();
        let mean_abs_drift = if n > 0 {
            observations.iter().map(|o| o.drift.abs()).sum::<f64>() / n as f64
        } else {
            0.0
        };
        let max_abs_drift = observations
            .iter()
            .map(|o| o.drift.abs())
            .fold(0.0_f64, f64::max);
        let out_of_band = observations.iter().filter(|o| o.drift.abs() > band).count();
        DriftReport {
            band,
            observations,
            mean_abs_drift,
            max_abs_drift,
            out_of_band,
        }
    }

    /// Whether every observation sits inside the band.
    pub fn within_band(&self) -> bool {
        self.out_of_band == 0
    }

    /// The `|drift|` distribution as a log-bucketed histogram
    /// ([`Histogram::relative_error`] shape), ready for OpenMetrics
    /// exposition.
    pub fn histogram(&self) -> Histogram {
        let mut h = Histogram::relative_error();
        for o in &self.observations {
            h.record(o.drift.abs());
        }
        h
    }
}

/// Builds a [`DriftReport`] over every plan span in a trace.
pub fn drift_report(events: &[TraceEvent], band: f64) -> DriftReport {
    DriftReport::new(plan_drift(events), band)
}

/// One ranking mistake the analytic model would have made: a finalist
/// pair where the model's ordering contradicts the engine's.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InversionRecord {
    /// Device the search ran against.
    pub device: String,
    /// Routine searched.
    pub op: String,
    /// Problem size (square corpus shapes; `n` of the descriptor).
    pub n: u64,
    /// The finalist the analytic model preferred.
    pub preferred_by_model: String,
    /// The finalist the engine preferred.
    pub preferred_by_engine: String,
    /// Relative analytic gap between the pair (slower/faster − 1).
    pub analytic_gap: f64,
    /// Relative engine gap between the pair.
    pub engine_gap: f64,
}

fn relative_gap(a: f64, b: f64) -> f64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if lo > 0.0 {
        hi / lo - 1.0
    } else {
        0.0
    }
}

/// Labels every ranking inversion in a search outcome (see
/// [`SearchOutcome::ranking_inversions`]).
pub fn inversions_from_outcome(
    device: &str,
    op: &str,
    n: u64,
    outcome: &SearchOutcome,
) -> Vec<InversionRecord> {
    outcome
        .ranking_inversions()
        .into_iter()
        .map(|(i, j)| {
            let (a, b): (&FinalistScore, &FinalistScore) =
                (&outcome.finalists[i], &outcome.finalists[j]);
            let (by_model, by_engine) = if a.analytic_time_s < b.analytic_time_s {
                (&a.label, &b.label)
            } else {
                (&b.label, &a.label)
            };
            InversionRecord {
                device: device.to_string(),
                op: op.to_string(),
                n,
                preferred_by_model: by_model.clone(),
                preferred_by_engine: by_engine.clone(),
                analytic_gap: relative_gap(a.analytic_time_s, b.analytic_time_s),
                engine_gap: relative_gap(a.engine_time_s, b.engine_time_s),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_trace::{ArgValue, SpanEvent, Track};

    fn plan_span(predicted: f64, measured: f64, handoff: f64) -> TraceEvent {
        TraceEvent::Span(SpanEvent {
            name: "plan k".to_string(),
            category: Category::Plan,
            device: 0,
            track: Track::Plan,
            t0_us: 0.0,
            dur_us: measured * 1e6,
            args: vec![
                ("op".to_string(), ArgValue::Str("sgemm".to_string())),
                ("m".to_string(), ArgValue::U64(64)),
                ("n".to_string(), ArgValue::U64(64)),
                ("k".to_string(), ArgValue::U64(64)),
                ("predicted_time_s".to_string(), ArgValue::F64(predicted)),
                ("measured_time_s".to_string(), ArgValue::F64(measured)),
                ("handoff_penalty_s".to_string(), ArgValue::F64(handoff)),
            ],
        })
    }

    #[test]
    fn drift_compares_against_the_engine_comparable_time() {
        let events = vec![plan_span(1.2e-3, 1.0e-3, 0.2e-3)];
        let obs = plan_drift(&events);
        assert_eq!(obs.len(), 1);
        // predicted 1.2ms vs measured+handoff 1.2ms: zero drift.
        assert!(obs[0].drift.abs() < 1e-12, "{}", obs[0].drift);
        assert_eq!(obs[0].op, "sgemm");
        assert_eq!((obs[0].m, obs[0].n, obs[0].k), (64, 64, 64));
    }

    #[test]
    fn report_bounds_the_distribution() {
        let events = vec![
            plan_span(1.1e-3, 1.0e-3, 0.0), // +10%
            plan_span(0.5e-3, 1.0e-3, 0.0), // −50%
        ];
        let report = drift_report(&events, 0.2);
        assert_eq!(report.observations.len(), 2);
        assert!((report.max_abs_drift - 0.5).abs() < 1e-12);
        assert!((report.mean_abs_drift - 0.3).abs() < 1e-12);
        assert_eq!(report.out_of_band, 1);
        assert!(!report.within_band());
        assert!(drift_report(&events, 0.6).within_band());

        let h = report.histogram();
        assert_eq!(h.count(), 2);

        // Spans without predictions are skipped, not zero-drift.
        assert!(drift_report(&[], 0.1).within_band());
    }

    #[test]
    fn inversions_name_both_sides_of_the_disagreement() {
        use mc_blas::{GemmDesc, GemmOp};
        let die = mc_isa::specs::mi250x().die;
        let plan = mc_blas::plan_gemm(&die, &GemmDesc::square(GemmOp::Sgemm, 64)).unwrap();
        let mk = |label: &str, analytic: f64, engine: f64| FinalistScore {
            label: label.to_string(),
            analytic_time_s: analytic,
            engine_time_s: engine,
            is_static: false,
        };
        let outcome = SearchOutcome {
            plan,
            searched_time_s: 1.0,
            analytic_time_s: 1.0,
            static_time_s: 1.0,
            finalists: vec![mk("a", 1.0, 2.0), mk("b", 2.0, 1.0)],
            enumerated: 2,
            lint_rejected: 0,
            flow_rejected: 0,
        };
        let inv = inversions_from_outcome("gcd0", "sgemm", 64, &outcome);
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].preferred_by_model, "a");
        assert_eq!(inv[0].preferred_by_engine, "b");
        assert!((inv[0].analytic_gap - 1.0).abs() < 1e-12);
        assert!((inv[0].engine_gap - 1.0).abs() < 1e-12);
        let json = serde_json::to_string(&serde_json::to_value(&inv[0])).unwrap();
        let round_trip: InversionRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(round_trip, inv[0]);
    }
}
