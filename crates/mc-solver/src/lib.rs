//! A rocSOLVER-style LAPACK subset over the simulated Matrix Cores.
//!
//! The paper's programming-interface hierarchy (Fig. 2) tops out at
//! "Applications and HPC Libraries": LAPACK implementations such as
//! rocSOLVER "delegate a significant amount of computation to the BLAS
//! implementation, which naturally leads to opportunistic leveraging of
//! Matrix Cores in this high-level library" (§III). This crate
//! demonstrates exactly that mechanism:
//!
//! * [`potrf()`](potrf::potrf) — blocked Cholesky factorization (`A = L·Lᵀ`);
//! * [`getrf()`](getrf::getrf) — blocked LU factorization with partial pivoting;
//! * [`trsm`]  — triangular solves (the blocked kernels' building block);
//! * [`refine()`](refine::refine) — mixed-precision iterative refinement (Haidar et al.,
//!   the paper's ref. \[3]): factorize fast in low precision on Matrix
//!   Cores, refine to FP64 accuracy with cheap residual corrections.
//!
//! Every trailing-matrix update is routed through [`mc_blas`], so the
//! share of FLOPs landing on Matrix Cores can be measured with the same
//! Eq. 1 counter methodology the paper applies to GEMM — see
//! [`timed::factor_timed`] and the `solver_utilization` experiment.

#![deny(missing_docs)]

pub mod getrf;
pub mod potrf;
pub mod refine;
pub mod timed;
pub mod trsm;

mod matrix;
mod region;
mod subst;

pub use getrf::getrf;
pub use matrix::Matrix;
pub use potrf::potrf;
pub use refine::{refine, RefineOptions, RefineReport};
pub use timed::{factor_timed, Factorization, SolverPerf};
pub use trsm::{trsm_left_lower, trsm_right_lower_transpose};

pub use mc_blas::Transpose;

/// Errors from the solver routines.
#[derive(Clone, Debug, PartialEq)]
pub enum SolverError {
    /// The matrix is not positive definite (POTRF pivot ≤ 0 at `index`).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        index: usize,
    },
    /// A pivot is exactly zero (GETRF singularity at `index`).
    Singular {
        /// Index of the zero pivot.
        index: usize,
    },
    /// Shape mismatch between operands.
    ShapeMismatch {
        /// Description of the mismatch.
        what: String,
    },
    /// Iterative refinement failed to converge.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
    },
    /// Underlying BLAS error.
    Blas(String),
}

impl core::fmt::Display for SolverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SolverError::NotPositiveDefinite { index } => {
                write!(f, "matrix is not positive definite (pivot {index})")
            }
            SolverError::Singular { index } => write!(f, "matrix is singular (pivot {index})"),
            SolverError::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
            SolverError::NoConvergence {
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "no convergence after {iterations} iterations (residual {residual:e})"
                )
            }
            SolverError::Blas(msg) => write!(f, "BLAS error: {msg}"),
        }
    }
}

impl std::error::Error for SolverError {}
