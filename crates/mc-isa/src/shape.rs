//! Matrix shapes for MFMA / MMA instructions.

use core::fmt;
use serde::{Deserialize, Serialize};

/// The shape of a matrix fused multiply-add instruction.
///
/// One instruction computes `D_i ← A_i·B_i + C_i` for `i ∈ [0, blocks)`,
/// where each `A_i` is `m×k`, `B_i` is `k×n`, and `C_i`/`D_i` are `m×n`
/// (paper §II). Most large shapes are single-block; CDNA2 additionally
/// offers small shapes where one Matrix Core executes up to 16 parallel
/// blocks on independent matrices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MfmaShape {
    /// Rows of A, C, and D.
    pub m: u32,
    /// Columns of B, C, and D.
    pub n: u32,
    /// Columns of A / rows of B (the reduction dimension).
    pub k: u32,
    /// Number of independent (A, B, C, D) groups the instruction operates on.
    pub blocks: u32,
}

impl MfmaShape {
    /// Creates a single-block `m×n×k` shape.
    pub const fn new(m: u32, n: u32, k: u32) -> Self {
        MfmaShape { m, n, k, blocks: 1 }
    }

    /// Creates a multi-block shape.
    pub const fn with_blocks(m: u32, n: u32, k: u32, blocks: u32) -> Self {
        MfmaShape { m, n, k, blocks }
    }

    /// Floating-point (or integer) operations performed by one instruction:
    /// `2·m·n·k` per block (one multiply + one add per MAC).
    pub const fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64 * self.blocks as u64
    }

    /// Total elements of A (`m×k` per block) across all blocks.
    pub const fn a_elements_total(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.blocks as u64
    }

    /// Total elements of B (`k×n` per block) across all blocks.
    pub const fn b_elements_total(&self) -> u64 {
        self.k as u64 * self.n as u64 * self.blocks as u64
    }

    /// Total elements of C/D (`m×n` per block) across all blocks.
    pub const fn cd_elements_total(&self) -> u64 {
        self.m as u64 * self.n as u64 * self.blocks as u64
    }

    /// The `MxNxK` token used in instruction mnemonics (block count is not
    /// part of the mnemonic; it is implied by the shape).
    pub fn mnemonic_token(&self) -> String {
        format!("{}x{}x{}", self.m, self.n, self.k)
    }
}

impl fmt::Display for MfmaShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.blocks == 1 {
            write!(f, "{}x{}x{}", self.m, self.n, self.k)
        } else {
            write!(
                f,
                "{}x{}x{} ({} blocks)",
                self.m, self.n, self.k, self.blocks
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_formula() {
        // Paper §V-A: an m×n×k MFMA performs 2mnk floating-point operations.
        assert_eq!(MfmaShape::new(16, 16, 16).flops(), 8192);
        assert_eq!(MfmaShape::new(16, 16, 4).flops(), 2048);
        assert_eq!(MfmaShape::new(32, 32, 8).flops(), 16384);
        assert_eq!(MfmaShape::new(32, 32, 2).flops(), 4096);
        // Multi-block shapes multiply up.
        assert_eq!(MfmaShape::with_blocks(4, 4, 1, 16).flops(), 512);
    }

    #[test]
    fn element_counts() {
        let s = MfmaShape::new(16, 16, 4);
        assert_eq!(s.a_elements_total(), 64);
        assert_eq!(s.b_elements_total(), 64);
        assert_eq!(s.cd_elements_total(), 256);
        let multi = MfmaShape::with_blocks(4, 4, 4, 16);
        assert_eq!(multi.a_elements_total(), 256);
        assert_eq!(multi.cd_elements_total(), 256);
    }

    #[test]
    fn display_and_token() {
        assert_eq!(MfmaShape::new(16, 16, 16).to_string(), "16x16x16");
        assert_eq!(
            MfmaShape::with_blocks(4, 4, 1, 16).to_string(),
            "4x4x1 (16 blocks)"
        );
        assert_eq!(MfmaShape::new(32, 32, 8).mnemonic_token(), "32x32x8");
    }
}
