//! Executable model of the matrix-multiplication instruction sets the
//! paper characterizes: AMD CDNA2 `V_MFMA_*` (Matrix Cores, §II–III) and
//! NVIDIA Ampere `mma.sync` / HMMA / DMMA (Tensor Cores).
//!
//! The model covers, per instruction:
//!
//! - datatypes and matrix shape (`m×n×k`, number of independent blocks);
//! - issue latency in cycles (the paper's Table II values for CDNA2);
//! - FLOPs performed, and the derived FLOPs/CU/cycle rate the paper uses
//!   to validate its microbenchmarks (§V-A);
//! - architectural register footprint (VGPRs for A/B, AccVGPRs for C/D);
//! - mnemonic and LLVM compiler-builtin naming, with parsing;
//! - the matrix-element ↔ (lane, register) mapping, a Rust port of the
//!   logic in AMD's `amd_matrix_instruction_calculator` tool (ref. \[9]).
//!
//! It also defines the [`kernel`] instruction-stream representation that
//! the WMMA and BLAS layers emit and the simulator executes, and the
//! [`specs`] module holding the calibrated device descriptions
//! (MI250X GCD/package, A100) used across the workspace.

#![deny(missing_docs)]

pub mod catalog;
pub mod disasm;
pub mod encoding;
pub mod kernel;
pub mod regmap;
pub mod specs;
pub mod walk;

mod instr;
mod shape;
mod valu;

pub use catalog::{ampere_catalog, cdna1_catalog, cdna2_catalog, IsaCatalog};
pub use instr::{MatrixArch, MatrixInstruction, ParseMnemonicError};
pub use kernel::{
    Buffering, CounterClass, KernelDesc, LdsAccess, MemHints, SlotOp, SlotRuns, StageTag, WaitSpec,
    WaveProgram,
};
pub use shape::MfmaShape;
pub use valu::{ValuOp, ValuOpKind};
