//! The Fig. 9 model: distribution of GEMM floating-point operations
//! between Matrix Cores and SIMD units.
//!
//! "We find that for one HGEMM, SGEMM, or HHS/HSS operation, `2N³`
//! arithmetic floating-point operations are performed on Matrix Cores
//! and `3N²` operations are performed on SIMD units" (§VII); the SIMD
//! term is the α/β scaling, which cannot map to Matrix Cores.

use serde::{Deserialize, Serialize};

/// The polynomial FLOP-distribution model for an `N×N×N` GEMM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FlopDistribution;

impl FlopDistribution {
    /// Matrix-Core operations: `2N³`.
    pub fn matrix_core_flops(n: u64) -> u64 {
        2 * n * n * n
    }

    /// SIMD operations (α/β scaling): `3N²`.
    pub fn simd_flops(n: u64) -> u64 {
        3 * n * n
    }

    /// Fraction of operations on Matrix Cores: `2N³ / (2N³ + 3N²)`.
    pub fn matrix_core_ratio(n: u64) -> f64 {
        let mc = Self::matrix_core_flops(n) as f64;
        mc / (mc + Self::simd_flops(n) as f64)
    }

    /// Ratio of Matrix Core to SIMD operation counts: `(2/3)·N` (§VII).
    pub fn mc_to_simd_ratio(n: u64) -> f64 {
        Self::matrix_core_flops(n) as f64 / Self::simd_flops(n) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_terms() {
        assert_eq!(FlopDistribution::matrix_core_flops(1024), 2u64 << 30);
        assert_eq!(FlopDistribution::simd_flops(1024), 3 * 1024 * 1024);
    }

    #[test]
    fn mc_to_simd_is_two_thirds_n() {
        // §VII: "the number of floating-point operations performed on
        // Matrix Cores is (2/3)·N times higher".
        for n in [32u64, 256, 4096] {
            let r = FlopDistribution::mc_to_simd_ratio(n);
            assert!((r - 2.0 * n as f64 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ninety_five_percent_at_n_32() {
        // §VII: "for N ≥ 32, more than 95% of floating-point operations
        // are performed on Matrix Cores".
        assert!(FlopDistribution::matrix_core_ratio(32) > 0.95);
        // And over 99% by N = 256 (Fig. 8).
        assert!(FlopDistribution::matrix_core_ratio(256) > 0.99);
    }

    #[test]
    fn ratio_monotone_in_n() {
        let mut last = 0.0;
        for n in [16u64, 32, 64, 128, 256, 1024] {
            let r = FlopDistribution::matrix_core_ratio(n);
            assert!(r > last);
            last = r;
        }
    }
}
