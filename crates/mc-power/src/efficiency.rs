//! Power efficiency metrics (§VI).
//!
//! "Power efficiency is computed as the average number of floating-point
//! operations per second divided by the average power consumption" —
//! i.e. FLOPS/W, reported in GFLOPS/W.

use mc_types::DType;
use serde::{Deserialize, Serialize};

/// Power efficiency in GFLOPS per watt.
pub fn gflops_per_watt(tflops: f64, watts: f64) -> f64 {
    tflops * 1000.0 / watts
}

/// One datatype's operating point and efficiency.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EfficiencyPoint {
    /// Datatype.
    pub dtype: DType,
    /// Sustained throughput in TFLOPS.
    pub tflops: f64,
    /// Average package power in watts.
    pub watts: f64,
    /// Efficiency in GFLOPS/W.
    pub gflops_per_watt: f64,
}

impl EfficiencyPoint {
    /// Builds a point, computing the efficiency.
    pub fn new(dtype: DType, tflops: f64, watts: f64) -> Self {
        EfficiencyPoint {
            dtype,
            tflops,
            watts,
            gflops_per_watt: gflops_per_watt(tflops, watts),
        }
    }

    /// Registers the point under `power.efficiency.<dtype>.*`:
    /// throughput in flop/s, package power in watts, and efficiency in
    /// flop/J (the paper's GFLOPS/W divided by 1e9 — base SI units so
    /// the OpenMetrics exposition stays unit-correct).
    pub fn register_metrics(&self, reg: &mut mc_trace::MetricsRegistry) {
        use mc_trace::Unit;
        let dt = format!("{}", self.dtype).to_ascii_lowercase();
        reg.set(
            &format!("power.efficiency.{dt}.flops_per_s"),
            Unit::FlopsPerSecond,
            self.tflops * 1e12,
        );
        reg.set(
            &format!("power.efficiency.{dt}.watts"),
            Unit::Watts,
            self.watts,
        );
        reg.set(
            &format!("power.efficiency.{dt}.flops_per_j"),
            Unit::FlopsPerJoule,
            self.gflops_per_watt * 1e9,
        );
    }
}

/// A cross-datatype efficiency comparison (the §VI analysis).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EfficiencyReport {
    /// Points, one per datatype.
    pub points: Vec<EfficiencyPoint>,
}

impl EfficiencyReport {
    /// Adds an operating point.
    pub fn push(&mut self, p: EfficiencyPoint) {
        self.points.push(p);
    }

    /// Efficiency for a datatype, if present.
    fn for_dtype(&self, dtype: DType) -> Option<&EfficiencyPoint> {
        self.points.iter().find(|p| p.dtype == dtype)
    }

    /// Ratio of one datatype's efficiency over another's (the paper's
    /// "3.7× higher than single precision" style comparisons).
    pub fn ratio(&self, a: DType, b: DType) -> Option<f64> {
        Some(self.for_dtype(a)?.gflops_per_watt / self.for_dtype(b)?.gflops_per_watt)
    }

    /// The most efficient datatype in the report.
    pub fn best(&self) -> Option<&EfficiencyPoint> {
        self.points
            .iter()
            .max_by(|x, y| x.gflops_per_watt.total_cmp(&y.gflops_per_watt))
    }

    /// Registers every point (see [`EfficiencyPoint::register_metrics`])
    /// plus the best efficiency across datatypes.
    pub fn register_metrics(&self, reg: &mut mc_trace::MetricsRegistry) {
        for p in &self.points {
            p.register_metrics(reg);
        }
        if let Some(best) = self.best() {
            reg.set(
                "power.efficiency.best.flops_per_j",
                mc_trace::Unit::FlopsPerJoule,
                best.gflops_per_watt * 1e9,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_report() -> EfficiencyReport {
        // §VI operating points: mixed 350 TF @ ~343 W, single 88 @ ~322,
        // double 69 @ ~541 (values consistent with the published
        // 1020 / 273 / 127 GFLOPS/W).
        let mut r = EfficiencyReport::default();
        r.push(EfficiencyPoint::new(DType::F16, 350.0, 343.0));
        r.push(EfficiencyPoint::new(DType::F32, 88.0, 322.0));
        r.push(EfficiencyPoint::new(DType::F64, 69.0, 541.0));
        r
    }

    #[test]
    fn paper_efficiency_values() {
        let r = paper_report();
        let mixed = r.for_dtype(DType::F16).unwrap().gflops_per_watt;
        let single = r.for_dtype(DType::F32).unwrap().gflops_per_watt;
        let double = r.for_dtype(DType::F64).unwrap().gflops_per_watt;
        assert!((mixed - 1020.0).abs() < 15.0, "{mixed}");
        assert!((single - 273.0).abs() < 5.0, "{single}");
        assert!((double - 127.0).abs() < 2.0, "{double}");
    }

    #[test]
    fn single_is_about_twice_double() {
        // §VI: "approximately two times higher".
        let r = paper_report();
        let ratio = r.ratio(DType::F32, DType::F64).unwrap();
        assert!(ratio > 1.9 && ratio < 2.4, "{ratio}");
    }

    #[test]
    fn mixed_is_3_7x_single() {
        let r = paper_report();
        let ratio = r.ratio(DType::F16, DType::F32).unwrap();
        assert!((ratio - 3.7).abs() < 0.2, "{ratio}");
    }

    #[test]
    fn best_is_mixed() {
        let r = paper_report();
        assert_eq!(r.best().unwrap().dtype, DType::F16);
    }

    #[test]
    fn register_metrics_exposes_points_in_base_units() {
        let r = paper_report();
        let mut reg = mc_trace::MetricsRegistry::new();
        r.register_metrics(&mut reg);
        // 350 TFLOPS @ 343 W → ~1.02e12 flop/J... (flop/s ÷ W = flop/J).
        let f16 = reg.value("power.efficiency.fp16.flops_per_j").unwrap();
        assert!((f16 / 1e9 - 1020.0).abs() < 15.0, "{f16}");
        assert_eq!(
            reg.value("power.efficiency.fp16.flops_per_s"),
            Some(350.0e12)
        );
        assert_eq!(reg.value("power.efficiency.fp64.watts"), Some(541.0));
        assert_eq!(reg.value("power.efficiency.best.flops_per_j"), Some(f16));
        assert_eq!(
            reg.get("power.efficiency.fp32.flops_per_j").unwrap().unit,
            mc_trace::Unit::FlopsPerJoule
        );
    }

    #[test]
    fn missing_dtype_is_none() {
        let r = paper_report();
        assert!(r.for_dtype(DType::I8).is_none());
        assert!(r.ratio(DType::I8, DType::F16).is_none());
    }
}
