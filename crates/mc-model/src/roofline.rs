//! Roofline modelling for the simulated devices.
//!
//! The paper derives its counter methodology (§IV-B) from the
//! hierarchical/instruction roofline work on AMD GPUs (refs. \[13],
//! \[14]). This module provides the classic FLOP roofline for the
//! simulated dies — separate ceilings per datatype for Matrix Cores and
//! vector units — and classifies measured kernels by arithmetic
//! intensity, which is how the Fig. 6/7 GEMM curves' memory-bound
//! regions can be diagnosed from first principles.

use mc_isa::specs::DieSpec;
use mc_types::DType;
use serde::{Deserialize, Serialize};

/// A performance ceiling: either a compute roof or the memory slope.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Roof {
    /// Human-readable name (e.g. `"MFMA FP64"`, `"VALU FP32"`).
    pub name: String,
    /// Peak in FLOP/s.
    pub flops: f64,
}

/// A roofline model for one die.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Roofline {
    /// Compute ceilings, highest first.
    pub roofs: Vec<Roof>,
    /// DRAM bandwidth in bytes/s (the diagonal).
    pub bandwidth: f64,
}

/// Where a kernel sits relative to the roofline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Regime {
    /// Below the ridge point: limited by DRAM bandwidth.
    MemoryBound,
    /// Above the ridge point: limited by the compute roof.
    ComputeBound,
}

/// A kernel's measured operating point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Arithmetic intensity in FLOP/byte (of DRAM traffic).
    pub intensity: f64,
    /// Achieved FLOP/s.
    pub flops: f64,
}

impl Roofline {
    /// Builds the Matrix Core roofline for a die: MFMA ceilings per
    /// datatype plus the vector-FMA ceiling.
    pub fn for_die(die: &DieSpec) -> Roofline {
        let catalog = match die.arch {
            mc_isa::MatrixArch::Cdna1 => mc_isa::cdna1_catalog(),
            mc_isa::MatrixArch::Cdna2 => mc_isa::cdna2_catalog(),
            mc_isa::MatrixArch::Ampere => mc_isa::ampere_catalog(),
        };
        let mut roofs = Vec::new();
        for (name, cd, ab) in [
            ("MFMA FP16-mixed", DType::F32, DType::F16),
            ("MFMA FP32", DType::F32, DType::F32),
            ("MFMA FP64", DType::F64, DType::F64),
        ] {
            if let Some(i) = catalog.best_for_types(cd, ab) {
                roofs.push(Roof {
                    name: name.to_owned(),
                    flops: die.peak_flops(i.flops_per_cu_per_cycle()),
                });
            }
        }
        // Vector FMA ceiling: 2 FLOPs/lane/cycle × 64 lanes ÷ 4-cycle
        // issue × 4 SIMDs = 128 FLOPs/CU/cycle.
        roofs.push(Roof {
            name: "VALU FMA".to_owned(),
            flops: die.peak_flops(128.0),
        });
        roofs.sort_by(|a, b| b.flops.total_cmp(&a.flops));
        Roofline {
            roofs,
            bandwidth: die.hbm_bandwidth_gbs * 1e9,
        }
    }

    /// The ceiling named `name`, if present.
    pub fn roof(&self, name: &str) -> Option<&Roof> {
        self.roofs.iter().find(|r| r.name == name)
    }

    /// Attainable FLOP/s at `intensity` under the given roof:
    /// `min(roof, intensity × bandwidth)`.
    pub fn attainable(&self, roof: &Roof, intensity: f64) -> f64 {
        roof.flops.min(intensity * self.bandwidth)
    }

    /// Ridge point of a roof: the intensity where the diagonal meets it.
    pub fn ridge_intensity(&self, roof: &Roof) -> f64 {
        roof.flops / self.bandwidth
    }

    /// Classifies an operating point against a roof.
    pub fn classify(&self, roof: &Roof, point: OperatingPoint) -> Regime {
        if point.intensity < self.ridge_intensity(roof) {
            Regime::MemoryBound
        } else {
            Regime::ComputeBound
        }
    }

    /// Fraction of the attainable performance a point achieves.
    pub fn efficiency(&self, roof: &Roof, point: OperatingPoint) -> f64 {
        point.flops / self.attainable(roof, point.intensity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gcd() -> DieSpec {
        mc_isa::specs::mi250x().die
    }

    #[test]
    fn roofs_match_datasheet_peaks() {
        let r = Roofline::for_die(&gcd());
        assert!((r.roof("MFMA FP16-mixed").unwrap().flops / 1e12 - 191.5).abs() < 0.5);
        assert!((r.roof("MFMA FP64").unwrap().flops / 1e12 - 47.9).abs() < 0.2);
        assert!((r.roof("VALU FMA").unwrap().flops / 1e12 - 23.9).abs() < 0.2);
        // Highest roof first.
        assert_eq!(r.roofs[0].name, "MFMA FP16-mixed");
    }

    #[test]
    fn attainable_is_min_of_roof_and_diagonal() {
        let r = Roofline::for_die(&gcd());
        let roof = r.roof("MFMA FP64").unwrap().clone();
        let low = r.attainable(&roof, 1.0);
        assert!((low - 1638.0e9).abs() < 1e9, "diagonal at intensity 1");
        let high = r.attainable(&roof, 1e6);
        assert_eq!(high, roof.flops);
    }

    #[test]
    fn ridge_points_order_by_roof_height() {
        let r = Roofline::for_die(&gcd());
        let mixed = r.ridge_intensity(r.roof("MFMA FP16-mixed").unwrap());
        let fp64 = r.ridge_intensity(r.roof("MFMA FP64").unwrap());
        assert!(mixed > fp64, "higher roofs need more intensity");
        // FP64 ridge: 47.9e12 / 1.638e12 ≈ 29 FLOP/B.
        assert!((fp64 - 29.2).abs() < 1.0, "{fp64}");
    }

    #[test]
    fn gemm_intensity_explains_fig6_regimes() {
        let r = Roofline::for_die(&gcd());
        // Full-refetch model: an N³ GEMM with macro-tile edge `mt` moves
        // 2·N³/mt elements for 2N³ FLOPs, so its intensity is
        // mt / element size, independent of N.
        // DGEMM with 256-tiles: 32 FLOP/B — just above the FP64 ridge
        // (compute-bound at peak), which is why the paper's DGEMM can
        // approach its plateau at all...
        let dgemm = OperatingPoint {
            intensity: 256.0 / 8.0,
            flops: 37e12,
        };
        let fp64 = r.roof("MFMA FP64").unwrap().clone();
        assert_eq!(r.classify(&fp64, dgemm), Regime::ComputeBound);
        // ...but mixed-precision HHS with 128-tiles (64 FLOP/B against a
        // 191 TF roof with a 117 FLOP/B ridge) is memory-bound — why the
        // paper's HHS tops out at 155 of 175, and drops at large N.
        let hhs = OperatingPoint {
            intensity: 128.0 / 2.0,
            flops: 155e12,
        };
        let mixed = r.roof("MFMA FP16-mixed").unwrap().clone();
        assert_eq!(r.classify(&mixed, hhs), Regime::MemoryBound);
    }

    #[test]
    fn efficiency_bounded_by_one_for_valid_points() {
        let r = Roofline::for_die(&gcd());
        let fp64 = r.roof("MFMA FP64").unwrap().clone();
        let p = OperatingPoint {
            intensity: 100.0,
            flops: 41e12,
        };
        let e = r.efficiency(&fp64, p);
        assert!(e > 0.84 && e <= 1.0, "{e}");
    }

    #[test]
    fn ampere_roofline_has_no_fp32_matrix_roof() {
        let r = Roofline::for_die(&mc_isa::specs::a100().die);
        assert!(r.roof("MFMA FP32").is_none());
        assert!(r.roof("MFMA FP64").is_some());
    }
}
