//! Datatype descriptors shared across the ISA model, simulator, and BLAS.

use core::fmt;
use serde::{Deserialize, Serialize};

/// The element datatypes supported by CDNA2 Matrix Cores (plus FP32/FP64
/// SIMD types), as listed in §II of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DType {
    /// IEEE 754 binary16 half precision.
    F16,
    /// bfloat16 (truncated f32), machine-learning oriented.
    Bf16,
    /// IEEE 754 binary32 single precision.
    F32,
    /// IEEE 754 binary64 double precision.
    F64,
    /// 8-bit signed integer (machine-learning oriented).
    I8,
    /// 32-bit signed integer accumulator.
    I32,
}

/// Broad classification of a [`DType`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DTypeClass {
    /// IEEE 754 floating point (F16, F32, F64).
    IeeeFloat,
    /// Non-IEEE float formats (bfloat16).
    BrainFloat,
    /// Integer formats.
    Integer,
}

impl DType {
    /// All datatypes a CDNA2 Matrix Core can consume or produce.
    pub const ALL: [DType; 6] = [
        DType::F16,
        DType::Bf16,
        DType::F32,
        DType::F64,
        DType::I8,
        DType::I32,
    ];

    /// Size of one element in bytes.
    pub const fn size_bytes(self) -> usize {
        match self {
            DType::F16 | DType::Bf16 => 2,
            DType::F32 | DType::I32 => 4,
            DType::F64 => 8,
            DType::I8 => 1,
        }
    }

    /// Classification of this datatype.
    pub const fn class(self) -> DTypeClass {
        match self {
            DType::F16 | DType::F32 | DType::F64 => DTypeClass::IeeeFloat,
            DType::Bf16 => DTypeClass::BrainFloat,
            DType::I8 | DType::I32 => DTypeClass::Integer,
        }
    }

    /// `true` for any floating-point format.
    pub const fn is_float(self) -> bool {
        matches!(self, DType::F16 | DType::Bf16 | DType::F32 | DType::F64)
    }

    /// The lowercase token used in `V_MFMA_*` instruction mnemonics and
    /// LLVM builtin names (e.g. `f32`, `bf16`).
    pub const fn mnemonic(self) -> &'static str {
        match self {
            DType::F16 => "f16",
            DType::Bf16 => "bf16",
            DType::F32 => "f32",
            DType::F64 => "f64",
            DType::I8 => "i8",
            DType::I32 => "i32",
        }
    }

    /// Number of 32-bit VGPRs one element occupies (1 for <=32-bit types,
    /// 2 for F64).
    pub const fn vgprs_per_element(self) -> usize {
        if self.size_bytes() <= 4 {
            1
        } else {
            self.size_bytes() / 4
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DType::F16 => "FP16",
            DType::Bf16 => "BF16",
            DType::F32 => "FP32",
            DType::F64 => "FP64",
            DType::I8 => "INT8",
            DType::I32 => "INT32",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_correct() {
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::Bf16.size_bytes(), 2);
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F64.size_bytes(), 8);
        assert_eq!(DType::I8.size_bytes(), 1);
        assert_eq!(DType::I32.size_bytes(), 4);
    }

    #[test]
    fn vgpr_packing() {
        assert_eq!(DType::F32.vgprs_per_element(), 1);
        assert_eq!(DType::F64.vgprs_per_element(), 2);
    }

    #[test]
    fn classes() {
        assert_eq!(DType::F64.class(), DTypeClass::IeeeFloat);
        assert_eq!(DType::Bf16.class(), DTypeClass::BrainFloat);
        assert_eq!(DType::I8.class(), DTypeClass::Integer);
        assert!(DType::Bf16.is_float());
        assert!(!DType::I32.is_float());
    }

    #[test]
    fn mnemonics_match_isa_convention() {
        assert_eq!(DType::F64.mnemonic(), "f64");
        assert_eq!(DType::Bf16.mnemonic(), "bf16");
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(DType::F16.to_string(), "FP16");
        assert_eq!(DType::F64.to_string(), "FP64");
    }
}
