//! Error type for WMMA operations.

use core::fmt;

use mc_isa::MatrixArch;
use mc_types::DType;

/// Errors from fragment operations and `mma_sync`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WmmaError {
    /// No matrix instruction exists for this type/shape combination on
    /// the target architecture (a Table I crossed-out cell, or an
    /// unsupported shape).
    Unsupported {
        /// Target architecture.
        arch: MatrixArch,
        /// Output (C/D) datatype.
        cd: DType,
        /// Input (A/B) datatype.
        ab: DType,
        /// Requested shape.
        shape: (usize, usize, usize),
    },
    /// A source/destination slice is too small for the requested
    /// load/store geometry.
    OutOfBounds {
        /// What was being accessed.
        what: &'static str,
        /// Elements required.
        required: usize,
        /// Elements available.
        available: usize,
    },
    /// The leading dimension is smaller than the fragment's minor extent.
    BadLeadingDimension {
        /// Supplied leading dimension.
        ld: usize,
        /// Minimum valid value.
        min: usize,
    },
    /// The built kernel failed static verification (`mc-lint`): the
    /// report carries the error-severity diagnostics.
    Lint(mc_lint::LintReport),
    /// The built kernel failed dataflow verification
    /// (`mc_lint::flow`): an LDS race, an insufficient waitcnt, or a
    /// register working set the builder cannot hold.
    Flow(mc_lint::flow::FlowReport),
}

impl From<mc_lint::Rejection> for WmmaError {
    fn from(r: mc_lint::Rejection) -> Self {
        match r {
            mc_lint::Rejection::Lint(report) => WmmaError::Lint(report),
            mc_lint::Rejection::Flow(report) => WmmaError::Flow(report),
        }
    }
}

impl fmt::Display for WmmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WmmaError::Unsupported {
                arch,
                cd,
                ab,
                shape,
            } => write!(
                f,
                "{arch} has no {cd} <- {ab} matrix instruction of shape {}x{}x{}",
                shape.0, shape.1, shape.2
            ),
            WmmaError::OutOfBounds {
                what,
                required,
                available,
            } => write!(f, "{what}: need {required} elements, have {available}"),
            WmmaError::BadLeadingDimension { ld, min } => {
                write!(f, "leading dimension {ld} below minimum {min}")
            }
            WmmaError::Lint(report) => {
                write!(
                    f,
                    "kernel `{}` failed static verification with {} error(s):\n{}",
                    report.subject,
                    report.error_count(),
                    report.render()
                )
            }
            WmmaError::Flow(report) => {
                write!(
                    f,
                    "kernel `{}` failed dataflow verification with {} error(s):\n{}",
                    report.subject,
                    report.error_count(),
                    report.render()
                )
            }
        }
    }
}

impl std::error::Error for WmmaError {}
