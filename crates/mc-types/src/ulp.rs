//! ULP-distance utilities used by the numerical-correctness tests.
//!
//! Mixed-precision GEMM results are validated against a double-precision
//! reference with ULP bounds rather than absolute epsilons, following the
//! precision-analysis methodology of Markidis et al. (ref. \[2] in the
//! paper).

/// Number of representable `f32` values strictly between `a` and `b`
/// (plus one if they differ), i.e. the unit-in-last-place distance.
///
/// Returns `u32::MAX` if either argument is NaN. Opposite-sign values
/// measure through zero (`-0.0` and `+0.0` are distance 0).
pub fn ulp_distance_f32(a: f32, b: f32) -> u32 {
    if a.is_nan() || b.is_nan() {
        return u32::MAX;
    }
    let to_ordered = |x: f32| -> i64 {
        let bits = i64::from(x.to_bits());
        if bits < 0x8000_0000 {
            bits
        } else {
            // Negative values: map sign-magnitude onto a monotone line
            // through zero (-0.0 maps to 0).
            0x8000_0000 - bits
        }
    };
    let (oa, ob) = (to_ordered(a), to_ordered(b));
    let d = (oa - ob).unsigned_abs();
    u32::try_from(d).unwrap_or(u32::MAX)
}

/// ULP distance between two `f64` values; see [`ulp_distance_f32`].
fn ulp_distance_f64(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    let to_ordered = |x: f64| -> i128 {
        let bits = i128::from(x.to_bits());
        const SIGN: i128 = 0x8000_0000_0000_0000;
        if bits < SIGN {
            bits
        } else {
            SIGN - bits
        }
    };
    let d = (to_ordered(a) - to_ordered(b)).unsigned_abs();
    u64::try_from(d).unwrap_or(u64::MAX)
}

/// Approximate-equality checks with explicit tolerances.
pub trait ApproxEq {
    /// `true` if `self` and `other` are within `ulps` units in the last place.
    fn approx_eq_ulps(&self, other: &Self, ulps: u64) -> bool;

    /// `true` if `|self - other| <= abs_tol + rel_tol * |other|`.
    fn approx_eq_tol(&self, other: &Self, abs_tol: f64, rel_tol: f64) -> bool;
}

impl ApproxEq for f32 {
    fn approx_eq_ulps(&self, other: &Self, ulps: u64) -> bool {
        u64::from(ulp_distance_f32(*self, *other)) <= ulps
    }

    fn approx_eq_tol(&self, other: &Self, abs_tol: f64, rel_tol: f64) -> bool {
        let d = f64::from((self - other).abs());
        d <= abs_tol + rel_tol * f64::from(other.abs())
    }
}

impl ApproxEq for f64 {
    fn approx_eq_ulps(&self, other: &Self, ulps: u64) -> bool {
        ulp_distance_f64(*self, *other) <= ulps
    }

    fn approx_eq_tol(&self, other: &Self, abs_tol: f64, rel_tol: f64) -> bool {
        let d = (self - other).abs();
        d <= abs_tol + rel_tol * other.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_values_are_zero_ulps() {
        assert_eq!(ulp_distance_f32(1.0, 1.0), 0);
        assert_eq!(ulp_distance_f64(-2.5, -2.5), 0);
        assert_eq!(ulp_distance_f32(0.0, -0.0), 0);
    }

    #[test]
    fn adjacent_values_are_one_ulp() {
        let x = 1.0f32;
        let next = f32::from_bits(x.to_bits() + 1);
        assert_eq!(ulp_distance_f32(x, next), 1);
        let y = 1.0f64;
        let next = f64::from_bits(y.to_bits() + 1);
        assert_eq!(ulp_distance_f64(y, next), 1);
    }

    #[test]
    fn distance_across_zero() {
        let tiny_pos = f32::from_bits(1);
        let tiny_neg = f32::from_bits(0x8000_0001);
        assert_eq!(ulp_distance_f32(tiny_pos, tiny_neg), 2);
    }

    #[test]
    fn nan_is_max_distance() {
        assert_eq!(ulp_distance_f32(f32::NAN, 1.0), u32::MAX);
        assert_eq!(ulp_distance_f64(1.0, f64::NAN), u64::MAX);
    }

    #[test]
    fn approx_eq_trait() {
        let a = 1.0f64;
        let b = f64::from_bits(a.to_bits() + 3);
        assert!(a.approx_eq_ulps(&b, 3));
        assert!(!a.approx_eq_ulps(&b, 2));
        assert!(100.0f32.approx_eq_tol(&100.001, 0.0, 1e-4));
        assert!(!100.0f32.approx_eq_tol(&101.0, 0.0, 1e-4));
    }

    #[test]
    fn symmetry() {
        let pairs = [(1.0f32, 1.5f32), (-3.0, 2.0), (0.0, 1e-20)];
        for (a, b) in pairs {
            assert_eq!(ulp_distance_f32(a, b), ulp_distance_f32(b, a));
        }
    }
}
