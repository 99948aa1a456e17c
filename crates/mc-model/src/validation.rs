//! Model-vs-measurement comparison utilities, used by the experiment
//! harness to assert the paper's validation claims (e.g. "measured
//! latency is consistent with AMD's official data", "85/90/92 % of the
//! theoretical peak").

/// Relative error `|measured - expected| / |expected|`.
///
/// Returns `f64::INFINITY` when `expected` is zero but `measured` is not.
pub fn relative_error(measured: f64, expected: f64) -> f64 {
    if expected == 0.0 {
        if measured == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (measured - expected).abs() / expected.abs()
    }
}

/// Fraction of a theoretical peak achieved (the paper's "% of peak").
pub fn fraction_of_peak(measured: f64, peak: f64) -> f64 {
    measured / peak
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(110.0, 100.0), 0.1);
        assert_eq!(relative_error(90.0, 100.0), 0.1);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn peak_fraction() {
        assert!((fraction_of_peak(41.0, 47.9) - 0.856).abs() < 0.001);
    }
}
