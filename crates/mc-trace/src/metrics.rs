//! The unified metrics registry.
//!
//! `HwCounters`, SMI power statistics, and profiler wall-clock timings
//! each expose their own ad-hoc accessors. [`MetricsRegistry`] gives
//! them one snapshot surface: flat `area.metric` names (`counters.`,
//! `sim.`, `power.`, `profiler.` prefixes by convention — see
//! `docs/OBSERVABILITY.md`) mapped to a value with a typed [`Unit`].

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::histogram::Histogram;

/// Physical unit of a metric value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Unit {
    /// Dimensionless count (instructions, waves, rounds).
    Count,
    /// Clock cycles.
    Cycles,
    /// Seconds.
    Seconds,
    /// Watts.
    Watts,
    /// Joules.
    Joules,
    /// Bytes.
    Bytes,
    /// Floating-point operations.
    Flops,
    /// Floating-point operations per second.
    FlopsPerSecond,
    /// Hertz.
    Hertz,
    /// Dimensionless ratio in `[0, 1]` (occupancy, utilization).
    Ratio,
    /// Floating-point operations per joule (energy efficiency; the
    /// paper's GFLOPS/W figure of merit is this value divided by 1e9).
    FlopsPerJoule,
}

impl Unit {
    /// Short display suffix (`" W"`, `" B"`, `""` for counts).
    pub fn suffix(self) -> &'static str {
        match self {
            Unit::Count => "",
            Unit::Cycles => " cyc",
            Unit::Seconds => " s",
            Unit::Watts => " W",
            Unit::Joules => " J",
            Unit::Bytes => " B",
            Unit::Flops => " flop",
            Unit::FlopsPerSecond => " flop/s",
            Unit::Hertz => " Hz",
            Unit::Ratio => "",
            Unit::FlopsPerJoule => " flop/J",
        }
    }

    /// OpenMetrics unit token (`seconds`, `watts`, …); `None` for
    /// dimensionless counts. Used by [`crate::openmetrics`] to derive
    /// unit-correct metric-name suffixes and `# UNIT` metadata.
    pub fn openmetrics_token(self) -> Option<&'static str> {
        match self {
            Unit::Count => None,
            Unit::Cycles => Some("cycles"),
            Unit::Seconds => Some("seconds"),
            Unit::Watts => Some("watts"),
            Unit::Joules => Some("joules"),
            Unit::Bytes => Some("bytes"),
            Unit::Flops => Some("flops"),
            Unit::FlopsPerSecond => Some("flops_per_second"),
            Unit::Hertz => Some("hertz"),
            Unit::Ratio => Some("ratio"),
            Unit::FlopsPerJoule => Some("flops_per_joule"),
        }
    }
}

/// One named, typed metric sample.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Dotted name, e.g. `counters.SQ_INSTS_MFMA` or `power.avg_w`.
    pub name: String,
    /// Physical unit of `value`.
    pub unit: Unit,
    /// The sampled value.
    pub value: f64,
}

/// A flat snapshot of named metrics with typed units.
///
/// Names are unique; [`MetricsRegistry::set`] replaces, and
/// [`MetricsRegistry::add`] accumulates into, an existing entry. Both
/// panic if a name is re-used with a *different* unit — unit mismatches
/// are always programming errors, never data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, (Unit, f64)>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name` to `value`, replacing any previous sample.
    ///
    /// # Panics
    /// If `name` already exists with a different unit.
    pub fn set(&mut self, name: &str, unit: Unit, value: f64) {
        match self.metrics.get_mut(name) {
            Some((have, slot)) => {
                assert_eq!(
                    *have, unit,
                    "metric {name} re-registered as {unit:?} but recorded as {have:?}"
                );
                *slot = value;
            }
            None => {
                self.metrics.insert(name.to_owned(), (unit, value));
            }
        }
    }

    /// Adds `value` to `name`, creating it at `value` if absent.
    ///
    /// # Panics
    /// If `name` already exists with a different unit.
    pub fn add(&mut self, name: &str, unit: Unit, value: f64) {
        match self.metrics.get_mut(name) {
            Some((have, slot)) => {
                assert_eq!(
                    *have, unit,
                    "metric {name} re-registered as {unit:?} but recorded as {have:?}"
                );
                *slot += value;
            }
            None => {
                self.metrics.insert(name.to_owned(), (unit, value));
            }
        }
    }

    /// The full sample for `name`, if present.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.metrics.get(name).map(|(unit, value)| Metric {
            name: name.to_owned(),
            unit: *unit,
            value: *value,
        })
    }

    /// The bare value for `name`, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(_, v)| *v)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = Metric> + '_ {
        self.metrics.iter().map(|(name, (unit, value))| Metric {
            name: name.clone(),
            unit: *unit,
            value: *value,
        })
    }

    /// Snapshot of every metric, in name order.
    pub fn snapshot(&self) -> Vec<Metric> {
        self.iter().collect()
    }

    /// Absorbs every metric from `other` via [`MetricsRegistry::set`],
    /// and every histogram via [`MetricsRegistry::register_histogram`].
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for m in other.iter() {
            self.set(&m.name, m.unit, m.value);
        }
        for (name, hist) in other.histograms() {
            self.register_histogram(name, hist.clone());
        }
    }

    /// Registers `hist` under `name`. If the name already holds a
    /// histogram of the same shape, the two merge (bucket counts add);
    /// this is the aggregation path experiment sweeps use.
    ///
    /// # Panics
    /// If `name` already holds a histogram of a different shape (unit
    /// or bucket bounds) — like a gauge unit mismatch, always a wiring
    /// bug.
    pub fn register_histogram(&mut self, name: &str, hist: Histogram) {
        match self.histograms.get_mut(name) {
            Some(existing) => existing.merge(&hist),
            None => {
                self.histograms.insert(name.to_owned(), hist);
            }
        }
    }

    /// Records one sample into the histogram registered under `name`.
    ///
    /// # Panics
    /// If no histogram was registered under `name` (register the shape
    /// first — sample streams never pick their own buckets implicitly).
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .get_mut(name)
            .unwrap_or_else(|| panic!("no histogram registered under `{name}`"))
            .record(value);
    }

    /// The histogram registered under `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates `(name, histogram)` pairs in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter().map(|(n, h)| (n.as_str(), h))
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in self.iter() {
            // Ratios are stored in [0, 1] but read as percentages.
            if m.unit == Unit::Ratio {
                writeln!(f, "{:<40} {:.2}%", m.name, m.value * 100.0)?;
            } else {
                writeln!(f, "{:<40} {}{}", m.name, m.value, m.unit.suffix())?;
            }
        }
        for (name, h) in self.histograms() {
            let suffix = h.unit().suffix();
            match (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)) {
                (Some(p50), Some(p95), Some(p99)) => writeln!(
                    f,
                    "{:<40} n={} p50={p50:.3e}{suffix} p95={p95:.3e}{suffix} p99={p99:.3e}{suffix}",
                    name,
                    h.count()
                )?,
                _ => writeln!(f, "{name:<40} n=0 (empty histogram)")?,
            }
        }
        Ok(())
    }
}

/// One named histogram, the wire shape registry histograms serialize
/// through (the vendored serde stub has no map impls).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct NamedHistogram {
    /// Dotted registry name.
    name: String,
    /// The histogram snapshot.
    histogram: Histogram,
}

// The vendored serde stub provides no map impls, so the registry
// serializes through ordered `Vec` snapshots. Gauge-only registries
// keep the original bare-array shape (the wire format of every
// envelope written before histograms existed); a registry carrying
// histograms serializes as `{"metrics": [...], "histograms": [...]}`.
// Deserialization accepts both shapes.
impl Serialize for MetricsRegistry {
    fn to_value(&self) -> serde::Value {
        if self.histograms.is_empty() {
            return self.snapshot().to_value();
        }
        let histograms: Vec<NamedHistogram> = self
            .histograms()
            .map(|(name, h)| NamedHistogram {
                name: name.to_owned(),
                histogram: h.clone(),
            })
            .collect();
        serde::Value::Object(vec![
            ("metrics".to_owned(), self.snapshot().to_value()),
            ("histograms".to_owned(), histograms.to_value()),
        ])
    }
}

impl Deserialize for MetricsRegistry {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let (gauges, histograms) = match value {
            serde::Value::Object(_) => {
                let gauges = value
                    .get("metrics")
                    .ok_or_else(|| serde::DeError::expected("`metrics` key", "MetricsRegistry"))?;
                (gauges.clone(), value.get("histograms").cloned())
            }
            _ => (value.clone(), None),
        };
        let metrics = Vec::<Metric>::from_value(&gauges)?;
        let mut reg = MetricsRegistry::new();
        for m in &metrics {
            reg.set(&m.name, m.unit, m.value);
        }
        if let Some(h) = histograms {
            for named in Vec::<NamedHistogram>::from_value(&h)? {
                reg.register_histogram(&named.name, named.histogram);
            }
        }
        Ok(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_iter_roundtrip_in_name_order() {
        let mut reg = MetricsRegistry::new();
        reg.set("power.avg_w", Unit::Watts, 412.0);
        reg.set("counters.SQ_INSTS_MFMA", Unit::Count, 1024.0);
        reg.set("power.avg_w", Unit::Watts, 430.0); // replace
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.value("power.avg_w"), Some(430.0));
        let names: Vec<String> = reg.iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["counters.SQ_INSTS_MFMA", "power.avg_w"]);
        assert_eq!(reg.get("counters.SQ_INSTS_MFMA").unwrap().unit, Unit::Count);
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn add_accumulates() {
        let mut reg = MetricsRegistry::new();
        reg.add("sim.hbm_bytes", Unit::Bytes, 100.0);
        reg.add("sim.hbm_bytes", Unit::Bytes, 28.0);
        assert_eq!(reg.value("sim.hbm_bytes"), Some(128.0));
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn unit_mismatch_panics() {
        let mut reg = MetricsRegistry::new();
        reg.set("sim.time", Unit::Seconds, 1.0);
        reg.set("sim.time", Unit::Cycles, 2.0);
    }

    #[test]
    fn display_includes_unit_suffix() {
        let mut reg = MetricsRegistry::new();
        reg.set("power.avg_w", Unit::Watts, 412.5);
        let text = format!("{reg}");
        assert!(text.contains("power.avg_w"));
        assert!(text.contains("412.5 W"));
    }

    #[test]
    fn ratio_metrics_display_as_percentages() {
        let mut reg = MetricsRegistry::new();
        reg.set("sim.matrix_occupancy", Unit::Ratio, 0.875);
        reg.set("power.efficiency", Unit::FlopsPerJoule, 5.0e11);
        let text = format!("{reg}");
        assert!(text.contains("87.50%"), "{text}");
        assert!(!text.contains("0.875"), "{text}");
        assert!(text.contains("500000000000 flop/J"), "{text}");
    }

    #[test]
    fn registry_serializes_and_deserializes_round_trip() {
        let mut reg = MetricsRegistry::new();
        reg.set("counters.SQ_WAVES", Unit::Count, 440.0);
        reg.set("power.avg_w", Unit::Watts, 412.5);
        reg.set("sim.matrix_occupancy", Unit::Ratio, 0.91);
        reg.set("power.efficiency.f16", Unit::FlopsPerJoule, 4.6e11);

        let value = serde::Serialize::to_value(&reg);
        let back = <MetricsRegistry as serde::Deserialize>::from_value(&value).unwrap();
        assert_eq!(back, reg);

        // The JSON text round-trips too (the shape a persisted envelope
        // payload would take on disk).
        let text = serde_json::to_string(&value).unwrap();
        let reparsed: serde::Value = serde_json::from_str(&text).unwrap();
        let back2 = <MetricsRegistry as serde::Deserialize>::from_value(&reparsed).unwrap();
        assert_eq!(back2, reg);
    }

    #[test]
    fn registry_deserialize_rejects_malformed_values() {
        let v: serde::Value = serde_json::from_str("{\"not\":\"an array\"}").unwrap();
        assert!(<MetricsRegistry as serde::Deserialize>::from_value(&v).is_err());
    }

    #[test]
    fn histograms_register_observe_and_merge() {
        let mut reg = MetricsRegistry::new();
        reg.register_histogram("round.latency_s", Histogram::latency_seconds());
        reg.observe("round.latency_s", 2.0e-4);
        reg.observe("round.latency_s", 8.0e-4);
        assert_eq!(reg.histogram("round.latency_s").unwrap().count(), 2);
        assert_eq!(reg.len(), 0, "histograms are not gauges");
        assert_eq!(reg.histograms().count(), 1);

        // Re-registering the same shape merges.
        let mut more = Histogram::latency_seconds();
        more.record(5.0e-2);
        reg.register_histogram("round.latency_s", more);
        assert_eq!(reg.histogram("round.latency_s").unwrap().count(), 3);

        // merge() carries histograms across registries.
        let mut other = MetricsRegistry::new();
        other.merge(&reg);
        assert_eq!(other.histogram("round.latency_s").unwrap().count(), 3);
    }

    #[test]
    #[should_panic(expected = "no histogram registered")]
    fn observing_an_unregistered_histogram_panics() {
        MetricsRegistry::new().observe("missing", 1.0);
    }

    #[test]
    fn registry_with_histograms_round_trips_and_accepts_legacy_shape() {
        let mut reg = MetricsRegistry::new();
        reg.set("sim.time_s", Unit::Seconds, 0.5);
        reg.register_histogram("round.latency_s", Histogram::latency_seconds());
        reg.observe("round.latency_s", 1.0e-3);
        let value = serde::Serialize::to_value(&reg);
        let back = <MetricsRegistry as serde::Deserialize>::from_value(&value).unwrap();
        assert_eq!(back, reg);

        // The pre-histogram bare-array shape still deserializes.
        let legacy: serde::Value =
            serde_json::from_str(r#"[{"name":"a","unit":"Count","value":1}]"#).unwrap();
        let old = <MetricsRegistry as serde::Deserialize>::from_value(&legacy).unwrap();
        assert_eq!(old.value("a"), Some(1.0));
        assert_eq!(old.histograms().count(), 0);
    }

    #[test]
    fn display_summarizes_histograms_with_quantiles() {
        let mut reg = MetricsRegistry::new();
        reg.register_histogram("round.latency_s", Histogram::latency_seconds());
        for i in 1..=100 {
            reg.observe("round.latency_s", f64::from(i) * 1e-5);
        }
        let text = format!("{reg}");
        assert!(text.contains("round.latency_s"), "{text}");
        assert!(text.contains("n=100"), "{text}");
        assert!(text.contains("p99="), "{text}");
    }

    #[test]
    fn merge_absorbs_other_registry() {
        let mut a = MetricsRegistry::new();
        a.set("x", Unit::Count, 1.0);
        let mut b = MetricsRegistry::new();
        b.set("y", Unit::Ratio, 0.5);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.value("y"), Some(0.5));
    }
}
