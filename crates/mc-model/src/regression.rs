//! Ordinary least-squares linear regression (from scratch; no external
//! statistics crates). Used to recover the Eq. 3 power model from
//! sampled telemetry and to validate linearity claims.

use serde::{Deserialize, Serialize};

/// A fitted line `y = slope·x + intercept`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination `R²` (1.0 for a perfect fit; 1.0 by
    /// convention when the data has no variance).
    pub r_squared: f64,
    /// Number of points fitted.
    pub n: usize,
}

/// Fits `y = a·x + b` by ordinary least squares.
///
/// Returns `None` for fewer than two points or a degenerate (constant-x)
/// input.
pub fn fit_linear(points: &[(f64, f64)]) -> Option<LinearFit> {
    let n = points.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let (mx, my) = (sx / nf, sy / nf);
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;

    let ss_tot: f64 = points.iter().map(|p| (p.1 - my).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };

    Some(LinearFit {
        slope,
        intercept,
        r_squared,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64, 5.88 * i as f64 + 130.0))
            .collect();
        let fit = fit_linear(&pts).unwrap();
        assert!((fit.slope - 5.88).abs() < 1e-12);
        assert!((fit.intercept - 130.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_close() {
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let x = i as f64;
                let noise = if i % 2 == 0 { 0.5 } else { -0.5 };
                (x, 2.0 * x + 10.0 + noise)
            })
            .collect();
        let fit = fit_linear(&pts).unwrap();
        assert!((fit.slope - 2.0).abs() < 0.01);
        assert!((fit.intercept - 10.0).abs() < 0.6);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(fit_linear(&[]).is_none());
        assert!(fit_linear(&[(1.0, 2.0)]).is_none());
        assert!(fit_linear(&[(3.0, 1.0), (3.0, 5.0)]).is_none());
    }

    #[test]
    fn constant_y_has_unit_r2() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 7.0)).collect();
        let fit = fit_linear(&pts).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 7.0);
        assert_eq!(fit.r_squared, 1.0);
    }
}
