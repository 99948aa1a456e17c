//! Eq. 3: the linear power-vs-throughput model.
//!
//! ```text
//! PC_double = 5.88·Th + 130      (W, Th in TFLOPS)
//! PC_float  = 2.18·Th + 125.5
//! PC_mixed  = 0.61·Th + 123
//! ```

use mc_model::{fit_linear, LinearFit};
use mc_types::DType;
use serde::{Deserialize, Serialize};

/// A linear power model `PC = slope·Th + intercept` for one datatype.
///
/// ```
/// use mc_power::model::paper_model;
/// use mc_types::DType;
///
/// let double = paper_model(DType::F64).unwrap();
/// // The paper's peak FP64 operating point: ~70 TFLOPS at ~541 W.
/// let watts = double.slope_w_per_tflops * 69.9 + double.intercept_w;
/// assert!((watts - 541.0).abs() < 1.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Datatype this model describes (input type of the MFMA mix).
    pub dtype: DType,
    /// Watts per TFLOPS.
    pub slope_w_per_tflops: f64,
    /// Idle-plus-baseline intercept in watts.
    pub intercept_w: f64,
}

impl PowerModel {
    /// Fits a power model from `(tflops, watts)` measurements.
    pub fn fit(dtype: DType, points: &[(f64, f64)]) -> Option<(PowerModel, LinearFit)> {
        let fit = fit_linear(points)?;
        Some((
            PowerModel {
                dtype,
                slope_w_per_tflops: fit.slope,
                intercept_w: fit.intercept,
            },
            fit,
        ))
    }
}

/// The paper's published Eq. 3 coefficients (double, float, mixed).
const PAPER_EQ3: [PowerModel; 3] = [
    PowerModel {
        dtype: DType::F64,
        slope_w_per_tflops: 5.88,
        intercept_w: 130.0,
    },
    PowerModel {
        dtype: DType::F32,
        slope_w_per_tflops: 2.18,
        intercept_w: 125.5,
    },
    PowerModel {
        dtype: DType::F16,
        slope_w_per_tflops: 0.61,
        intercept_w: 123.0,
    },
];

/// Looks up the paper's Eq. 3 model for a datatype.
pub fn paper_model(dtype: DType) -> Option<PowerModel> {
    PAPER_EQ3.iter().copied().find(|m| m.dtype == dtype)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_coefficients_predict_paper_peaks() {
        // §VI: double precision reaches 541 W near its 69-71 TFLOPS peak.
        let watts = |dtype, tflops: f64| {
            let m = paper_model(dtype).unwrap();
            m.slope_w_per_tflops * tflops + m.intercept_w
        };
        assert!((watts(DType::F64, 69.9) - 541.0).abs() < 1.0);
        // Mixed at 350 TFLOPS: ~336 W (measured 319; model value).
        assert!((watts(DType::F16, 350.0) - 336.5).abs() < 0.1);
        // Float at 88 TFLOPS: ~317 W.
        assert!((watts(DType::F32, 88.0) - 317.3).abs() < 0.5);
    }

    #[test]
    fn fit_recovers_generated_line() {
        let pts: Vec<(f64, f64)> = (1..=40)
            .map(|i| {
                let th = i as f64;
                (th, 5.88 * th + 123.0)
            })
            .collect();
        let (m, fit) = PowerModel::fit(DType::F64, &pts).unwrap();
        assert!((m.slope_w_per_tflops - 5.88).abs() < 1e-9);
        assert!((m.intercept_w - 123.0).abs() < 1e-6);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn slopes_ordered_by_precision_width() {
        // Wider datatypes burn more energy per FLOP.
        let d = paper_model(DType::F64).unwrap().slope_w_per_tflops;
        let s = paper_model(DType::F32).unwrap().slope_w_per_tflops;
        let m = paper_model(DType::F16).unwrap().slope_w_per_tflops;
        assert!(d > s && s > m);
    }

    #[test]
    fn fit_requires_two_points() {
        assert!(PowerModel::fit(DType::F64, &[(1.0, 2.0)]).is_none());
    }
}
