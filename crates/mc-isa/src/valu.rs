//! Vector-ALU (SIMD) instruction model.
//!
//! Each CDNA2 compute unit has four 16-lane SIMD units executing a
//! 64-thread wavefront over four cycles (one quarter-wave per cycle).
//! The paper's Eq. 1 counts these per-SIMD `SQ_INSTS_VALU_*` instructions
//! to separate SIMD-delivered FLOPs from Matrix-Core-delivered FLOPs.

use core::fmt;

use mc_types::DType;
use serde::{Deserialize, Serialize};

/// The arithmetic class of a vector-ALU instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValuOpKind {
    /// `V_ADD_*` — one FLOP per lane.
    Add,
    /// `V_MUL_*` — one FLOP per lane.
    Mul,
    /// `V_FMA_*` / `V_FMAC_*` — two FLOPs per lane.
    Fma,
    /// `V_PK_FMA_F16`-style packed maths — two FLOPs per packed element
    /// per lane (four per lane total for 2-wide packing).
    PackedFma,
    /// Non-arithmetic VALU work (moves, conversions, address maths);
    /// contributes cycles but no FLOPs.
    Move,
}

/// One vector-ALU instruction executed by a full wavefront.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ValuOp {
    /// Arithmetic class.
    pub kind: ValuOpKind,
    /// Element datatype.
    pub dtype: DType,
}

impl ValuOp {
    /// Convenience constructor.
    pub const fn new(kind: ValuOpKind, dtype: DType) -> Self {
        ValuOp { kind, dtype }
    }

    /// FLOPs performed per *lane* by one execution.
    const fn flops_per_lane(&self) -> u64 {
        match self.kind {
            ValuOpKind::Add | ValuOpKind::Mul => 1,
            ValuOpKind::Fma => 2,
            ValuOpKind::PackedFma => 4,
            ValuOpKind::Move => 0,
        }
    }

    /// FLOPs performed by a 64-lane wavefront executing this once.
    /// Matches the paper's Eq. 1 factors: 64 for add/mul, 128 for FMA.
    pub const fn flops_per_wavefront(&self) -> u64 {
        self.flops_per_lane() * 64
    }

    /// Issue cycles on a 16-wide SIMD for a 64-thread wavefront: four
    /// quarter-passes for 32-bit maths; FP64 runs at half rate (eight
    /// cycles) on CDNA2's full-rate-FP64 vector pipes only for FMA —
    /// we model add/mul/fma uniformly at full rate (CDNA2 vector FP64
    /// is full rate, a headline feature of the architecture).
    pub const fn issue_cycles(&self) -> u32 {
        4
    }

    /// The assembly mnemonic (e.g. `v_fma_f64`, `v_pk_fma_f16`).
    pub fn mnemonic(&self) -> String {
        let prefix = match self.kind {
            ValuOpKind::Add => "v_add",
            ValuOpKind::Mul => "v_mul",
            ValuOpKind::Fma => "v_fma",
            ValuOpKind::PackedFma => "v_pk_fma",
            ValuOpKind::Move => "v_mov",
        };
        match self.kind {
            ValuOpKind::Move => format!("{prefix}_b32"),
            _ => format!("{prefix}_{}", self.dtype.mnemonic()),
        }
    }
}

impl fmt::Display for ValuOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_flop_factors() {
        // Paper Eq. 1: 64·ADD + 64·MUL + 128·FMA.
        assert_eq!(
            ValuOp::new(ValuOpKind::Add, DType::F64).flops_per_wavefront(),
            64
        );
        assert_eq!(
            ValuOp::new(ValuOpKind::Mul, DType::F64).flops_per_wavefront(),
            64
        );
        assert_eq!(
            ValuOp::new(ValuOpKind::Fma, DType::F64).flops_per_wavefront(),
            128
        );
        assert_eq!(
            ValuOp::new(ValuOpKind::Move, DType::F32).flops_per_wavefront(),
            0
        );
    }

    #[test]
    fn packed_f16_doubles_fma() {
        let pk = ValuOp::new(ValuOpKind::PackedFma, DType::F16);
        assert_eq!(pk.flops_per_wavefront(), 256);
        assert_eq!(pk.mnemonic(), "v_pk_fma_f16");
    }

    #[test]
    fn mnemonics() {
        assert_eq!(
            ValuOp::new(ValuOpKind::Fma, DType::F64).mnemonic(),
            "v_fma_f64"
        );
        assert_eq!(
            ValuOp::new(ValuOpKind::Add, DType::F32).mnemonic(),
            "v_add_f32"
        );
        assert_eq!(
            ValuOp::new(ValuOpKind::Move, DType::F32).mnemonic(),
            "v_mov_b32"
        );
    }

    #[test]
    fn wavefront_issue_occupies_four_simd_cycles() {
        assert_eq!(ValuOp::new(ValuOpKind::Fma, DType::F32).issue_cycles(), 4);
    }
}
