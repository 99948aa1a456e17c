//! The matrix instruction descriptor and its naming conventions.

use core::fmt;

use mc_types::DType;
use serde::{Deserialize, Serialize};

use crate::shape::MfmaShape;

/// The GPU architecture an instruction belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatrixArch {
    /// AMD CDNA1 (MI100) — first-generation Matrix Cores.
    Cdna1,
    /// AMD CDNA2 (MI200 series) — Matrix Cores, `V_MFMA_*` instructions.
    Cdna2,
    /// NVIDIA Ampere (A100) — Tensor Cores, `mma.sync` PTX / HMMA·DMMA SASS.
    Ampere,
}

impl fmt::Display for MatrixArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MatrixArch::Cdna1 => "CDNA1",
            MatrixArch::Cdna2 => "CDNA2",
            MatrixArch::Ampere => "Ampere",
        })
    }
}

/// A single matrix fused multiply-add instruction (one row of the paper's
/// Table I, at full granularity).
///
/// For CDNA2 this corresponds to one `V_MFMA_{typeCD}_{MxNxK}{typeAB}`
/// opcode; for Ampere, to one `mma.sync.aligned.MxNxK...` PTX shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MatrixInstruction {
    /// Architecture providing this instruction.
    pub arch: MatrixArch,
    /// Datatype of the `C` and `D` matrices (the accumulator type).
    pub cd: DType,
    /// Datatype of the `A` and `B` matrices (the input type).
    pub ab: DType,
    /// Matrix shape, including the number of independent blocks.
    pub shape: MfmaShape,
    /// Issue-to-issue latency in cycles for back-to-back dependent issues —
    /// equivalently the pipeline occupancy of the matrix unit per
    /// instruction. CDNA2 values follow the paper's Table II measurements.
    pub latency_cycles: u32,
    /// `true` for the deprecated CDNA1-era bfloat16 encodings (`*_BF16`
    /// without the `_1K` suffix) that CDNA2 retains at half rate.
    pub legacy: bool,
}

/// Error returned when a mnemonic string cannot be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseMnemonicError {
    mnemonic: String,
    reason: &'static str,
}

impl ParseMnemonicError {
    fn new(mnemonic: &str, reason: &'static str) -> Self {
        ParseMnemonicError {
            mnemonic: mnemonic.to_owned(),
            reason,
        }
    }
}

impl fmt::Display for ParseMnemonicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot parse mnemonic `{}`: {}",
            self.mnemonic, self.reason
        )
    }
}

impl std::error::Error for ParseMnemonicError {}

impl MatrixInstruction {
    /// Operations (FLOPs, or integer ops for I8) performed by one
    /// execution of this instruction: `2·m·n·k·blocks`.
    pub const fn flops(&self) -> u64 {
        self.shape.flops()
    }

    /// Matrix-unit operations per compute unit per cycle, assuming all
    /// four matrix units in a CU (or the four tensor cores in an SM) issue
    /// continuously. This is the `8·m·n·k/c` quantity (for one block) the
    /// paper derives in §V-A to validate latencies against AMD datasheets.
    pub fn flops_per_cu_per_cycle(&self) -> f64 {
        const MATRIX_UNITS_PER_CU: f64 = 4.0;
        MATRIX_UNITS_PER_CU * self.flops() as f64 / f64::from(self.latency_cycles)
    }

    /// The assembly mnemonic.
    ///
    /// CDNA2: `v_mfma_{cd}_{m}x{n}x{k}{ab}` with the `_1k` suffix for
    /// current-generation bf16 (e.g. `v_mfma_f32_16x16x16f16`,
    /// `v_mfma_f64_16x16x4f64`, `v_mfma_f32_16x16x16bf16_1k`).
    /// Ampere: the PTX shape form `mma.sync.aligned.m16n8k16.f32.f16`.
    pub fn mnemonic(&self) -> String {
        match self.arch {
            MatrixArch::Cdna1 | MatrixArch::Cdna2 => {
                let suffix = if self.ab == DType::Bf16 && !self.legacy {
                    "_1k"
                } else {
                    ""
                };
                format!(
                    "v_mfma_{}_{}x{}x{}{}{}",
                    self.cd.mnemonic(),
                    self.shape.m,
                    self.shape.n,
                    self.shape.k,
                    self.ab.mnemonic(),
                    suffix
                )
            }
            MatrixArch::Ampere => format!(
                "mma.sync.aligned.m{}n{}k{}.{}.{}",
                self.shape.m,
                self.shape.n,
                self.shape.k,
                self.cd.mnemonic(),
                self.ab.mnemonic()
            ),
        }
    }

    /// `true` exactly when `self.mnemonic() == other.mnemonic()`, decided
    /// from the fields the mnemonic is built from without formatting
    /// either string. Block count and latency are not part of the name,
    /// and CDNA1 and CDNA2 share one spelling.
    pub fn same_mnemonic(&self, other: &MatrixInstruction) -> bool {
        let ptx = |i: &Self| i.arch == MatrixArch::Ampere;
        let bf16_1k = |i: &Self| !ptx(i) && i.ab == DType::Bf16 && !i.legacy;
        ptx(self) == ptx(other)
            && self.cd == other.cd
            && self.ab == other.ab
            && (self.shape.m, self.shape.n, self.shape.k)
                == (other.shape.m, other.shape.n, other.shape.k)
            && bf16_1k(self) == bf16_1k(other)
    }

    /// The LLVM compiler-intrinsic name for CDNA2 instructions
    /// (`__builtin_amdgcn_mfma_...`, paper §III), or `None` on Ampere,
    /// where no official C-level interface exists.
    pub fn builtin(&self) -> Option<String> {
        match self.arch {
            MatrixArch::Cdna1 | MatrixArch::Cdna2 => {
                let suffix = if self.ab == DType::Bf16 && !self.legacy {
                    "_1k"
                } else {
                    ""
                };
                Some(format!(
                    "__builtin_amdgcn_mfma_{}_{}x{}x{}{}{}",
                    self.cd.mnemonic(),
                    self.shape.m,
                    self.shape.n,
                    self.shape.k,
                    self.ab.mnemonic(),
                    suffix
                ))
            }
            MatrixArch::Ampere => None,
        }
    }

    /// Parses a CDNA2 `v_mfma_*` mnemonic back into its descriptor
    /// (latency is looked up from the catalog by the caller; this returns
    /// the *structural* fields with `latency_cycles = 0`, `blocks = 1`).
    pub fn parse_cdna2_mnemonic(s: &str) -> Result<MatrixInstruction, ParseMnemonicError> {
        let lower = s.to_ascii_lowercase();
        let rest = lower
            .strip_prefix("v_mfma_")
            .ok_or_else(|| ParseMnemonicError::new(s, "missing `v_mfma_` prefix"))?;
        let (rest, legacy_suffix) = match rest.strip_suffix("_1k") {
            Some(r) => (r, false),
            None => (rest, true),
        };
        let mut parts = rest.splitn(2, '_');
        let cd_tok = parts
            .next()
            .ok_or_else(|| ParseMnemonicError::new(s, "missing output type"))?;
        let tail = parts
            .next()
            .ok_or_else(|| ParseMnemonicError::new(s, "missing shape"))?;

        let cd =
            parse_dtype(cd_tok).ok_or_else(|| ParseMnemonicError::new(s, "bad output type"))?;

        // tail looks like `16x16x16f16`: split digits/x from the trailing type.
        let type_start = tail
            .find(|c: char| c.is_ascii_alphabetic() && c != 'x')
            .ok_or_else(|| ParseMnemonicError::new(s, "missing input type"))?;
        let (shape_tok, ab_tok) = tail.split_at(type_start);
        let ab = parse_dtype(ab_tok).ok_or_else(|| ParseMnemonicError::new(s, "bad input type"))?;

        let dims: Vec<u32> = shape_tok
            .split('x')
            .map(|d| d.parse::<u32>())
            .collect::<Result<_, _>>()
            .map_err(|_| ParseMnemonicError::new(s, "bad shape dimensions"))?;
        if dims.len() != 3 {
            return Err(ParseMnemonicError::new(s, "shape must be MxNxK"));
        }

        Ok(MatrixInstruction {
            arch: MatrixArch::Cdna2,
            cd,
            ab,
            shape: MfmaShape::new(dims[0], dims[1], dims[2]),
            latency_cycles: 0,
            legacy: ab == DType::Bf16 && legacy_suffix,
        })
    }

    /// 32-bit architectural VGPRs per lane needed to hold one block-set of
    /// the A operand (all blocks; CDNA2 wavefront = 64 lanes, Ampere
    /// warp = 32 lanes).
    pub fn a_vgprs_per_lane(&self) -> u32 {
        self.operand_vgprs(self.shape.a_elements_total(), self.ab)
    }

    /// VGPRs per lane for the B operand.
    pub fn b_vgprs_per_lane(&self) -> u32 {
        self.operand_vgprs(self.shape.b_elements_total(), self.ab)
    }

    /// Accumulation GPRs (AccVGPRs on CDNA2) per lane for the C/D operand.
    pub fn cd_agprs_per_lane(&self) -> u32 {
        self.operand_vgprs(self.shape.cd_elements_total(), self.cd)
    }

    fn operand_vgprs(&self, total_elements: u64, ty: DType) -> u32 {
        let lanes = match self.arch {
            MatrixArch::Cdna1 | MatrixArch::Cdna2 => 64u64,
            MatrixArch::Ampere => 32u64,
        };
        let per_lane = total_elements.div_ceil(lanes);
        let bytes = per_lane * ty.size_bytes() as u64;
        u32::try_from(bytes.div_ceil(4)).expect("register count fits in u32")
    }
}

fn parse_dtype(tok: &str) -> Option<DType> {
    Some(match tok {
        "f16" => DType::F16,
        "bf16" => DType::Bf16,
        "f32" => DType::F32,
        "f64" => DType::F64,
        "i8" => DType::I8,
        "i32" => DType::I32,
        _ => return None,
    })
}

impl fmt::Display for MatrixInstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} <- {}, {}, {} cyc]",
            self.mnemonic(),
            self.cd,
            self.ab,
            self.shape,
            self.latency_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_16x16x16() -> MatrixInstruction {
        MatrixInstruction {
            arch: MatrixArch::Cdna2,
            cd: DType::F32,
            ab: DType::F16,
            shape: MfmaShape::new(16, 16, 16),
            latency_cycles: 32,
            legacy: false,
        }
    }

    #[test]
    fn mnemonic_formats() {
        assert_eq!(mixed_16x16x16().mnemonic(), "v_mfma_f32_16x16x16f16");
        let f64i = MatrixInstruction {
            cd: DType::F64,
            ab: DType::F64,
            shape: MfmaShape::new(16, 16, 4),
            ..mixed_16x16x16()
        };
        assert_eq!(f64i.mnemonic(), "v_mfma_f64_16x16x4f64");
        let bf = MatrixInstruction {
            ab: DType::Bf16,
            ..mixed_16x16x16()
        };
        assert_eq!(bf.mnemonic(), "v_mfma_f32_16x16x16bf16_1k");
    }

    #[test]
    fn same_mnemonic_agrees_with_string_equality() {
        // Every catalog entry plus variants that change one field each,
        // named or not, compared pairwise against the formatted names.
        let mut all = Vec::new();
        for c in [
            crate::cdna1_catalog(),
            crate::cdna2_catalog(),
            crate::ampere_catalog(),
        ] {
            for &i in c.instructions() {
                all.push(i);
                all.push(MatrixInstruction {
                    legacy: !i.legacy,
                    ..i
                });
                all.push(MatrixInstruction {
                    latency_cycles: i.latency_cycles + 1,
                    ..i
                });
                all.push(MatrixInstruction {
                    shape: MfmaShape::with_blocks(i.shape.m, i.shape.n, i.shape.k, 3),
                    ..i
                });
                all.push(MatrixInstruction {
                    shape: MfmaShape::new(i.shape.n, i.shape.m, i.shape.k),
                    ..i
                });
            }
        }
        for a in &all {
            for b in &all {
                assert_eq!(
                    a.same_mnemonic(b),
                    a.mnemonic() == b.mnemonic(),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn builtin_names() {
        assert_eq!(
            mixed_16x16x16().builtin().unwrap(),
            "__builtin_amdgcn_mfma_f32_16x16x16f16"
        );
        let ampere = MatrixInstruction {
            arch: MatrixArch::Ampere,
            shape: MfmaShape::new(16, 8, 16),
            ..mixed_16x16x16()
        };
        assert_eq!(ampere.builtin(), None);
        assert_eq!(ampere.mnemonic(), "mma.sync.aligned.m16n8k16.f32.f16");
    }

    #[test]
    fn parse_roundtrip() {
        for m in [
            "v_mfma_f32_16x16x16f16",
            "v_mfma_f64_16x16x4f64",
            "v_mfma_f32_32x32x2f32",
            "v_mfma_f32_16x16x16bf16_1k",
            "v_mfma_i32_16x16x16i8",
        ] {
            let parsed = MatrixInstruction::parse_cdna2_mnemonic(m).unwrap();
            assert_eq!(parsed.mnemonic(), m, "roundtrip of {m}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MatrixInstruction::parse_cdna2_mnemonic("v_add_f32").is_err());
        assert!(MatrixInstruction::parse_cdna2_mnemonic("v_mfma_f32_16x16f16").is_err());
        assert!(MatrixInstruction::parse_cdna2_mnemonic("v_mfma_q7_16x16x4f16").is_err());
    }

    #[test]
    fn per_cu_rate_matches_paper_derivation() {
        // §V-A: a CU with four Matrix Cores provides 8mnk/c FLOPs/CU/cycle.
        // FP32<-FP16 16x16x16 at 32 cycles: 8*16*16*16/32 = 1024.
        assert_eq!(mixed_16x16x16().flops_per_cu_per_cycle(), 1024.0);
        let f64i = MatrixInstruction {
            cd: DType::F64,
            ab: DType::F64,
            shape: MfmaShape::new(16, 16, 4),
            ..mixed_16x16x16()
        };
        // 8*16*16*4/32 = 256 FLOPs/CU/cycle -> 110 CU * 1.7 GHz -> 47.9 TF/GCD.
        assert_eq!(f64i.flops_per_cu_per_cycle(), 256.0);
    }

    #[test]
    fn register_footprints() {
        let i = mixed_16x16x16();
        // A: 256 f16 elements over 64 lanes = 4 halves = 2 VGPRs.
        assert_eq!(i.a_vgprs_per_lane(), 2);
        assert_eq!(i.b_vgprs_per_lane(), 2);
        // D: 256 f32 elements over 64 lanes = 4 AccVGPRs.
        assert_eq!(i.cd_agprs_per_lane(), 4);

        let f64i = MatrixInstruction {
            cd: DType::F64,
            ab: DType::F64,
            shape: MfmaShape::new(16, 16, 4),
            ..mixed_16x16x16()
        };
        // A: 64 f64 elements over 64 lanes = 1 element = 2 VGPRs.
        assert_eq!(f64i.a_vgprs_per_lane(), 2);
        // D: 256 f64 over 64 lanes = 4 elements = 8 AccVGPRs.
        assert_eq!(f64i.cd_agprs_per_lane(), 8);
    }
}
