//! Order statistics over timing samples.

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics (the "inclusive" definition), `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above the `q`-quantile: the tail a
/// percentile rests on.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(&hundred, 0.9), 10);
        assert!(median(&[]).is_nan());
    }
}
