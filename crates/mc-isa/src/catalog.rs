//! Instruction catalogs for CDNA2 Matrix Cores and Ampere Tensor Cores.
//!
//! The CDNA2 table is the complete `V_MFMA_*` opcode list from the AMD
//! Instinct MI200 ISA reference (paper ref. \[8]); latencies for the shapes
//! the paper measures come from its Table II, and latencies for the
//! remaining shapes follow the pass counts published in AMD's matrix
//! instruction calculator (4×4 shapes take a quarter of the 16×16 pass
//! count; legacy bf16 runs at half rate).

use std::sync::OnceLock;

use mc_types::DType;

use crate::instr::{MatrixArch, MatrixInstruction};
use crate::shape::MfmaShape;

/// An immutable, queryable set of matrix instructions for one architecture.
#[derive(Debug)]
pub struct IsaCatalog {
    arch: MatrixArch,
    instructions: Vec<MatrixInstruction>,
    /// Lowercase mnemonic of each instruction, index-aligned with
    /// `instructions` and built once with the catalog.
    mnemonics: Vec<String>,
}

impl IsaCatalog {
    fn new(arch: MatrixArch, instructions: Vec<MatrixInstruction>) -> Self {
        let mnemonics = instructions
            .iter()
            .map(|i| i.mnemonic().to_ascii_lowercase())
            .collect();
        IsaCatalog {
            arch,
            instructions,
            mnemonics,
        }
    }

    /// The architecture this catalog describes.
    pub fn arch(&self) -> MatrixArch {
        self.arch
    }

    /// All instructions, in ISA-reference order.
    pub fn instructions(&self) -> &[MatrixInstruction] {
        &self.instructions
    }

    /// Instructions matching an output/input datatype pair
    /// (the paper's `typeCD ← typeAB` notation).
    pub fn by_types(&self, cd: DType, ab: DType) -> Vec<&MatrixInstruction> {
        self.instructions
            .iter()
            .filter(|i| i.cd == cd && i.ab == ab)
            .collect()
    }

    /// Finds the instruction with an exact shape and type signature.
    pub fn find(&self, cd: DType, ab: DType, m: u32, n: u32, k: u32) -> Option<&MatrixInstruction> {
        self.instructions.iter().find(|i| {
            i.cd == cd && i.ab == ab && i.shape.m == m && i.shape.n == n && i.shape.k == k
        })
    }

    /// Finds an instruction by its mnemonic (case-insensitive).
    pub fn by_mnemonic(&self, mnemonic: &str) -> Option<&MatrixInstruction> {
        self.mnemonics
            .iter()
            .position(|m| m.eq_ignore_ascii_case(mnemonic))
            .map(|idx| &self.instructions[idx])
    }

    /// `true` if any instruction supports this type pair — e.g. CDNA2 has
    /// no `FP16 ← FP16` entry, the fact behind the paper's HGEMM finding.
    pub fn supports_types(&self, cd: DType, ab: DType) -> bool {
        self.instructions.iter().any(|i| i.cd == cd && i.ab == ab)
    }

    /// The instruction with the highest FLOPs/cycle rate for a type pair —
    /// what a well-tuned library (rocBLAS) would select for large tiles.
    /// Current-generation encodings are preferred; legacy (half-rate
    /// bf16) encodings are used only when nothing else exists (CDNA1).
    pub fn best_for_types(&self, cd: DType, ab: DType) -> Option<&MatrixInstruction> {
        let pick = |legacy_ok: bool| {
            self.by_types(cd, ab)
                .into_iter()
                .filter(move |i| legacy_ok || !i.legacy)
                .max_by(|a, b| {
                    a.flops_per_cu_per_cycle()
                        .total_cmp(&b.flops_per_cu_per_cycle())
                        // Prefer the largest single-block shape on ties
                        // (fewer issues per tile, lower register pressure
                        // per FLOP).
                        .then(a.shape.flops().cmp(&b.shape.flops()))
                })
        };
        pick(false).or_else(|| pick(true))
    }
}

#[allow(clippy::too_many_arguments)]
const fn mfma(
    cd: DType,
    ab: DType,
    m: u32,
    n: u32,
    k: u32,
    blocks: u32,
    latency: u32,
    legacy: bool,
) -> MatrixInstruction {
    MatrixInstruction {
        arch: MatrixArch::Cdna2,
        cd,
        ab,
        shape: MfmaShape::with_blocks(m, n, k, blocks),
        latency_cycles: latency,
        legacy,
    }
}

const fn mma(cd: DType, ab: DType, m: u32, n: u32, k: u32, latency: u32) -> MatrixInstruction {
    MatrixInstruction {
        arch: MatrixArch::Ampere,
        cd,
        ab,
        shape: MfmaShape::new(m, n, k),
        latency_cycles: latency,
        legacy: false,
    }
}

/// The CDNA2 (MI200-series) Matrix Core instruction catalog.
pub fn cdna2_catalog() -> &'static IsaCatalog {
    static CATALOG: OnceLock<IsaCatalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        use DType::*;
        let f = false;
        let instructions = vec![
            // FP32 <- FP32 (Table II: 32x32 -> 64 cycles, 16x16 -> 32).
            mfma(F32, F32, 32, 32, 1, 2, 64, f),
            mfma(F32, F32, 16, 16, 1, 4, 32, f),
            mfma(F32, F32, 4, 4, 1, 16, 8, f),
            mfma(F32, F32, 32, 32, 2, 1, 64, f),
            mfma(F32, F32, 16, 16, 4, 1, 32, f),
            // FP32 <- FP16.
            mfma(F32, F16, 32, 32, 4, 2, 64, f),
            mfma(F32, F16, 16, 16, 4, 4, 32, f),
            mfma(F32, F16, 4, 4, 4, 16, 8, f),
            mfma(F32, F16, 32, 32, 8, 1, 64, f),
            mfma(F32, F16, 16, 16, 16, 1, 32, f),
            // FP32 <- BF16, current-generation `_1k` encodings (full rate).
            mfma(F32, Bf16, 32, 32, 4, 2, 64, f),
            mfma(F32, Bf16, 16, 16, 4, 4, 32, f),
            mfma(F32, Bf16, 4, 4, 4, 16, 8, f),
            mfma(F32, Bf16, 32, 32, 8, 1, 64, f),
            mfma(F32, Bf16, 16, 16, 16, 1, 32, f),
            // FP32 <- BF16 legacy CDNA1 encodings (half the K, half rate).
            mfma(F32, Bf16, 32, 32, 2, 2, 64, true),
            mfma(F32, Bf16, 16, 16, 2, 4, 32, true),
            mfma(F32, Bf16, 4, 4, 2, 16, 8, true),
            mfma(F32, Bf16, 32, 32, 4, 1, 64, true),
            mfma(F32, Bf16, 16, 16, 8, 1, 32, true),
            // INT32 <- INT8.
            mfma(I32, I8, 32, 32, 4, 2, 64, f),
            mfma(I32, I8, 16, 16, 4, 4, 32, f),
            mfma(I32, I8, 4, 4, 4, 16, 8, f),
            mfma(I32, I8, 32, 32, 8, 1, 64, f),
            mfma(I32, I8, 16, 16, 16, 1, 32, f),
            // FP64 <- FP64 (new in CDNA2; Table II: 32 cycles).
            mfma(F64, F64, 16, 16, 4, 1, 32, f),
            mfma(F64, F64, 4, 4, 4, 4, 16, f),
        ];
        IsaCatalog::new(MatrixArch::Cdna2, instructions)
    })
}

/// The CDNA1 (MI100) Matrix Core instruction catalog — the first
/// generation (paper ref. \[7]): no FP64 MFMA (the headline CDNA2
/// addition, §II) and only the half-rate bfloat16 encodings.
pub fn cdna1_catalog() -> &'static IsaCatalog {
    static CATALOG: OnceLock<IsaCatalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        use DType::*;
        let f = false;
        let mut instructions = vec![
            // FP32 <- FP32.
            mfma(F32, F32, 32, 32, 1, 2, 64, f),
            mfma(F32, F32, 16, 16, 1, 4, 32, f),
            mfma(F32, F32, 4, 4, 1, 16, 8, f),
            mfma(F32, F32, 32, 32, 2, 1, 64, f),
            mfma(F32, F32, 16, 16, 4, 1, 32, f),
            // FP32 <- FP16.
            mfma(F32, F16, 32, 32, 4, 2, 64, f),
            mfma(F32, F16, 16, 16, 4, 4, 32, f),
            mfma(F32, F16, 4, 4, 4, 16, 8, f),
            mfma(F32, F16, 32, 32, 8, 1, 64, f),
            mfma(F32, F16, 16, 16, 16, 1, 32, f),
            // FP32 <- BF16: CDNA1 only has the half-K, half-rate forms.
            mfma(F32, Bf16, 32, 32, 2, 2, 64, true),
            mfma(F32, Bf16, 16, 16, 2, 4, 32, true),
            mfma(F32, Bf16, 4, 4, 2, 16, 8, true),
            mfma(F32, Bf16, 32, 32, 4, 1, 64, true),
            mfma(F32, Bf16, 16, 16, 8, 1, 32, true),
            // INT32 <- INT8.
            mfma(I32, I8, 32, 32, 4, 2, 64, f),
            mfma(I32, I8, 16, 16, 4, 4, 32, f),
            mfma(I32, I8, 4, 4, 4, 16, 8, f),
            mfma(I32, I8, 32, 32, 8, 1, 64, f),
            mfma(I32, I8, 16, 16, 16, 1, 32, f),
        ];
        for i in &mut instructions {
            i.arch = MatrixArch::Cdna1;
        }
        IsaCatalog::new(MatrixArch::Cdna1, instructions)
    })
}

/// The Ampere (A100) Tensor Core instruction catalog (Table I, right
/// column). Latencies are set so four tensor cores per SM reproduce the
/// datasheet rates: 2048 mixed-precision FLOPs/SM/cycle (312 TFLOPS at
/// 1410 MHz × 108 SMs) and 128 FP64 FLOPs/SM/cycle (19.5 TFLOPS).
pub fn ampere_catalog() -> &'static IsaCatalog {
    static CATALOG: OnceLock<IsaCatalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        use DType::*;
        let instructions = vec![
            // DMMA: FP64 <- FP64.
            mma(F64, F64, 8, 8, 4, 16),
            // HMMA: FP32 <- FP16.
            mma(F32, F16, 16, 8, 8, 4),
            mma(F32, F16, 16, 8, 16, 8),
            // HMMA: FP16 <- FP16 (same rate as mixed).
            mma(F16, F16, 16, 8, 8, 4),
            mma(F16, F16, 16, 8, 16, 8),
            // BF16 inputs (FP32 accumulate only).
            mma(F32, Bf16, 16, 8, 8, 4),
            mma(F32, Bf16, 16, 8, 16, 8),
            // IMMA: INT32 <- INT8 (624 TOPS dense = 4096 ops/SM/cycle).
            mma(I32, I8, 16, 8, 16, 4),
            mma(I32, I8, 16, 8, 32, 8),
        ];
        IsaCatalog::new(MatrixArch::Ampere, instructions)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_amd_shapes() {
        // Paper Table I, AMD CDNA2 column.
        let c = cdna2_catalog();
        assert!(c.find(DType::F64, DType::F64, 16, 16, 4).is_some());
        assert!(c.find(DType::F32, DType::F32, 16, 16, 4).is_some());
        assert!(c.find(DType::F32, DType::F32, 32, 32, 2).is_some());
        assert!(c.find(DType::F32, DType::F16, 16, 16, 16).is_some());
        assert!(c.find(DType::F32, DType::F16, 32, 32, 8).is_some());
        // The crossed-out cell: no FP16 <- FP16 on CDNA2.
        assert!(!c.supports_types(DType::F16, DType::F16));
    }

    #[test]
    fn table1_nvidia_shapes() {
        // Paper Table I, Nvidia Ampere column.
        let c = ampere_catalog();
        assert!(c.find(DType::F64, DType::F64, 8, 8, 4).is_some());
        assert!(c.find(DType::F32, DType::F16, 16, 8, 8).is_some());
        assert!(c.find(DType::F32, DType::F16, 16, 8, 16).is_some());
        assert!(c.find(DType::F16, DType::F16, 16, 8, 8).is_some());
        assert!(c.find(DType::F16, DType::F16, 16, 8, 16).is_some());
        // The crossed-out cell: no FP32 <- FP32 on Ampere tensor cores.
        assert!(!c.supports_types(DType::F32, DType::F32));
    }

    #[test]
    fn table2_latencies() {
        // Paper Table II, measured MFMA latencies.
        let c = cdna2_catalog();
        let cases = [
            (DType::F32, DType::F32, 32, 32, 2, 64),
            (DType::F32, DType::F32, 16, 16, 4, 32),
            (DType::F32, DType::F16, 32, 32, 8, 64),
            (DType::F32, DType::F16, 16, 16, 16, 32),
            (DType::F64, DType::F64, 16, 16, 4, 32),
        ];
        for (cd, ab, m, n, k, lat) in cases {
            let i = c.find(cd, ab, m, n, k).unwrap();
            assert_eq!(i.latency_cycles, lat, "{}", i.mnemonic());
        }
    }

    #[test]
    fn cdna2_rates_match_datasheet() {
        // Every non-legacy CDNA2 instruction family must deliver the
        // CDNA2 whitepaper per-CU rates: 256 FLOPs/CU/cycle for F32/F64
        // (except the small-shape F64), 1024 for F16/BF16/I8.
        let c = cdna2_catalog();
        for i in c.instructions().iter().filter(|i| !i.legacy) {
            let rate = i.flops_per_cu_per_cycle();
            let expected = match (i.cd, i.ab) {
                (DType::F32, DType::F32) => 256.0,
                (DType::F64, DType::F64) if i.shape.m == 16 => 256.0,
                (DType::F64, DType::F64) => 128.0, // 4x4x4 small shape
                _ => 1024.0,
            };
            assert_eq!(rate, expected, "{}", i.mnemonic());
        }
        // Legacy bf16 is exactly half rate.
        for i in c.instructions().iter().filter(|i| i.legacy) {
            assert_eq!(i.flops_per_cu_per_cycle(), 512.0, "{}", i.mnemonic());
        }
    }

    #[test]
    fn ampere_rates_match_datasheet() {
        let c = ampere_catalog();
        // 4 tensor cores/SM; rates per SM per cycle.
        let mixed = c.find(DType::F32, DType::F16, 16, 8, 16).unwrap();
        assert_eq!(mixed.flops_per_cu_per_cycle(), 2048.0);
        let dmma = c.find(DType::F64, DType::F64, 8, 8, 4).unwrap();
        assert_eq!(dmma.flops_per_cu_per_cycle(), 128.0);
        let imma = c.find(DType::I32, DType::I8, 16, 8, 32).unwrap();
        assert_eq!(imma.flops_per_cu_per_cycle(), 4096.0);
    }

    #[test]
    fn best_for_types_prefers_full_rate_large_shape() {
        let c = cdna2_catalog();
        let best = c.best_for_types(DType::F32, DType::F16).unwrap();
        // All full-rate; largest single-issue FLOPs is 32x32x8 or the
        // multi-block 32x32x4: both 16384 FLOPs at 64 cycles. Accept either
        // 32x32 variant; the point is it is not a 4x4 shape.
        assert!(best.shape.m == 32);
        let best64 = c.best_for_types(DType::F64, DType::F64).unwrap();
        assert_eq!(best64.shape, MfmaShape::new(16, 16, 4));
    }

    #[test]
    fn by_mnemonic_lookup() {
        let c = cdna2_catalog();
        let i = c.by_mnemonic("V_MFMA_F64_16X16X4F64").unwrap();
        assert_eq!(i.latency_cycles, 32);
        assert_eq!(c.by_mnemonic("v_mfma_F64_16x16x4f64"), Some(i));
        assert!(c.by_mnemonic("v_mfma_f16_16x16x16f16").is_none());
        // Every entry resolves to itself, in any letter case.
        for c in [cdna1_catalog(), cdna2_catalog(), ampere_catalog()] {
            for i in c.instructions() {
                assert_eq!(c.by_mnemonic(&i.mnemonic()), Some(i));
                assert_eq!(c.by_mnemonic(&i.mnemonic().to_ascii_uppercase()), Some(i));
            }
        }
    }

    #[test]
    fn supported_pairs_cover_six_datatype_families() {
        let pairs = [
            (DType::F32, DType::F32),
            (DType::F32, DType::F16),
            (DType::F32, DType::Bf16),
            (DType::I32, DType::I8),
            (DType::F64, DType::F64),
        ];
        let c = cdna2_catalog();
        assert!(pairs.iter().all(|&(cd, ab)| c.supports_types(cd, ab)));
        assert!(c
            .instructions()
            .iter()
            .all(|i| pairs.contains(&(i.cd, i.ab))));
    }

    #[test]
    fn cdna1_is_cdna2_minus_fp64_and_bf16_1k() {
        let c1 = cdna1_catalog();
        assert_eq!(c1.arch(), MatrixArch::Cdna1);
        // No FP64 Matrix Core on MI100 (the §II generational headline).
        assert!(!c1.supports_types(DType::F64, DType::F64));
        // bf16 exists only at half rate.
        for i in c1.by_types(DType::F32, DType::Bf16) {
            assert!(i.legacy, "{}", i.mnemonic());
            assert_eq!(i.flops_per_cu_per_cycle(), 512.0);
        }
        // FP16 rate equal to CDNA2's.
        let i = c1.find(DType::F32, DType::F16, 16, 16, 16).unwrap();
        assert_eq!(i.flops_per_cu_per_cycle(), 1024.0);
        assert_eq!(i.arch, MatrixArch::Cdna1);
        // Every CDNA1 instruction has a CDNA2 successor.
        let c2 = cdna2_catalog();
        for i in c1.instructions() {
            assert!(
                c2.find(i.cd, i.ab, i.shape.m, i.shape.n, i.shape.k)
                    .is_some(),
                "{} dropped in CDNA2",
                i.mnemonic()
            );
        }
    }

    #[test]
    fn catalog_mnemonics_are_unique_and_parseable() {
        let c = cdna2_catalog();
        let mut seen = std::collections::HashSet::new();
        for i in c.instructions() {
            let m = i.mnemonic();
            assert!(seen.insert(m.clone()), "duplicate mnemonic {m}");
            let parsed = MatrixInstruction::parse_cdna2_mnemonic(&m).unwrap();
            assert_eq!(parsed.cd, i.cd);
            assert_eq!(parsed.ab, i.ab);
            assert_eq!(parsed.shape.m, i.shape.m);
            assert_eq!(parsed.shape.k, i.shape.k);
        }
    }
}
