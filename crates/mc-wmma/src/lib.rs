//! A rocWMMA-style *wave matrix multiply-accumulate* API (paper §III).
//!
//! rocWMMA abstracts Matrix Core programming behind *fragments* — objects
//! that hide the mapping of matrix elements to wavefront registers — and
//! a small set of cooperative operations: `load_matrix_sync`,
//! `store_matrix_sync`, `fill_fragment`, and `mma_sync`. This crate
//! provides the same API surface with two coupled backends:
//!
//! * a **functional** backend ([`fragment`], [`mma`]) that actually
//!   computes `D ← A·B + C` with hardware-faithful precision semantics
//!   (exact products, sequential accumulation in the C/D datatype), used
//!   for numerical validation;
//! * a **performance** backend ([`builder`]) that lowers the same
//!   operations to [`mc_isa`] instruction streams executed on the
//!   [`mc_sim`] simulator — the paper's micro-benchmarks are expressed
//!   through it.
//!
//! Like rocWMMA, an operation is only valid if the underlying
//! architecture has a matching matrix instruction; the crossed-out cells
//! of the paper's Table I (`FP16←FP16` on CDNA2, `FP32←FP32` on Ampere)
//! surface here as [`WmmaError::Unsupported`].

#![deny(missing_docs)]

pub mod builder;
pub mod fragment;
pub mod mma;

mod error;

pub use builder::{mma_loop_kernel, wmma_gemm_tile_kernel, LoopKernelParams};
pub use error::WmmaError;
pub use fragment::{Accumulator, Fragment, Layout, MatrixA, MatrixB};
pub use mma::mma_sync;
