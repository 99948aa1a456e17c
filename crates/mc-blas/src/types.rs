//! GEMM operation descriptors.

use core::fmt;

use mc_types::DType;

/// The five floating-point GEMM variants the paper evaluates (§IV-A,
/// Table III): `D ← α·A·B + β·C`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GemmOp {
    /// Single precision: FP32 in, FP32 out, FP32 compute.
    Sgemm,
    /// Double precision: FP64 everywhere.
    Dgemm,
    /// Half precision: FP16 in, FP16 out, **FP16 compute** (Table III) —
    /// the variant rocBLAS never maps to Matrix Cores (§VII).
    Hgemm,
    /// FP16 inputs, FP16 output, FP32 compute type.
    Hhs,
    /// FP16 inputs, FP32 output, FP32 compute type.
    Hss,
    /// bfloat16 inputs, bfloat16 output, FP32 compute type — the
    /// machine-learning analogue of HHS (`rocblas_gemm_ex` with
    /// `bf16/bf16/f32`, using the CDNA2 `*_BF16_1K` instructions).
    Bhs,
    /// bfloat16 inputs, FP32 output, FP32 compute type (analogue of HSS).
    Bss,
    /// Quantized INT8 inputs, INT32 matrix accumulation, FP32 output
    /// after dequantization — the inference GEMM using the
    /// `V_MFMA_I32_*_I8` instructions (§II's ML-oriented datatypes).
    Quant8,
}

impl GemmOp {
    /// All variants: the paper's five, plus the bf16/int8 extensions.
    pub const ALL: [GemmOp; 8] = [
        GemmOp::Sgemm,
        GemmOp::Dgemm,
        GemmOp::Hgemm,
        GemmOp::Hhs,
        GemmOp::Hss,
        GemmOp::Bhs,
        GemmOp::Bss,
        GemmOp::Quant8,
    ];

    /// The five variants the paper evaluates (§IV-A).
    pub const PAPER: [GemmOp; 5] = [
        GemmOp::Sgemm,
        GemmOp::Dgemm,
        GemmOp::Hgemm,
        GemmOp::Hhs,
        GemmOp::Hss,
    ];

    /// Datatype of the A and B matrices.
    pub const fn type_ab(self) -> DType {
        match self {
            GemmOp::Sgemm => DType::F32,
            GemmOp::Dgemm => DType::F64,
            GemmOp::Hgemm | GemmOp::Hhs | GemmOp::Hss => DType::F16,
            GemmOp::Bhs | GemmOp::Bss => DType::Bf16,
            GemmOp::Quant8 => DType::I8,
        }
    }

    /// The `typeCD ← typeAB` pair the Matrix Core instruction must
    /// support. Usually `(compute, typeAB)`; INT8 accumulates in INT32
    /// on the matrix units even though the routine's output is FP32.
    pub const fn mfma_pair(self) -> (DType, DType) {
        match self {
            GemmOp::Quant8 => (DType::I32, DType::I8),
            other => (other.compute_type(), other.type_ab()),
        }
    }

    /// Datatype of the C and D matrices.
    pub const fn type_cd(self) -> DType {
        match self {
            GemmOp::Sgemm => DType::F32,
            GemmOp::Dgemm => DType::F64,
            GemmOp::Hgemm | GemmOp::Hhs => DType::F16,
            GemmOp::Bhs => DType::Bf16,
            GemmOp::Hss | GemmOp::Bss | GemmOp::Quant8 => DType::F32,
        }
    }

    /// Compute type (the α/β arithmetic and accumulator precision,
    /// Table III).
    pub const fn compute_type(self) -> DType {
        match self {
            GemmOp::Sgemm => DType::F32,
            GemmOp::Dgemm => DType::F64,
            GemmOp::Hgemm => DType::F16,
            GemmOp::Hhs | GemmOp::Hss | GemmOp::Bhs | GemmOp::Bss | GemmOp::Quant8 => DType::F32,
        }
    }

    /// The lowercase routine name (`sgemm`, `hhs`, ...).
    pub const fn routine(self) -> &'static str {
        match self {
            GemmOp::Sgemm => "sgemm",
            GemmOp::Dgemm => "dgemm",
            GemmOp::Hgemm => "hgemm",
            GemmOp::Hhs => "hhs",
            GemmOp::Hss => "hss",
            GemmOp::Bhs => "bhs",
            GemmOp::Bss => "bss",
            GemmOp::Quant8 => "quant8",
        }
    }
}

impl fmt::Display for GemmOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.routine())
    }
}

/// BLAS transpose selector for an input operand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Transpose {
    /// Use the operand as stored (`N` in BLAS notation).
    #[default]
    None,
    /// Use the operand's transpose (`T`).
    Trans,
}

/// A GEMM problem: `D (m×n) ← α · op(A)·op(B) + β · C (m×n)`, where
/// `op(A)` is `m×k` and `op(B)` is `k×n` after the transpose selectors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GemmDesc {
    /// Operation variant (datatypes).
    pub op: GemmOp,
    /// Rows of op(A), C, and D.
    pub m: usize,
    /// Columns of op(B), C, and D.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Scalar multiplier on `op(A)·op(B)`.
    pub alpha: f64,
    /// Scalar multiplier on `C`.
    pub beta: f64,
    /// Transpose selector for A (stored `m×k` for `None`, `k×m` for
    /// `Trans`).
    pub trans_a: Transpose,
    /// Transpose selector for B (stored `k×n` for `None`, `n×k` for
    /// `Trans`).
    pub trans_b: Transpose,
}

impl GemmDesc {
    /// A general problem with no transposition.
    pub fn new(op: GemmOp, m: usize, n: usize, k: usize, alpha: f64, beta: f64) -> Self {
        GemmDesc {
            op,
            m,
            n,
            k,
            alpha,
            beta,
            trans_a: Transpose::None,
            trans_b: Transpose::None,
        }
    }

    /// A square `N×N×N` problem, the paper's evaluation shape
    /// (α = β = 0.1, §VII).
    pub fn square(op: GemmOp, n: usize) -> Self {
        Self::new(op, n, n, n, 0.1, 0.1)
    }

    /// Useful floating-point work for this problem: `2mnk` multiply-add
    /// FLOPs plus `3mn` scaling FLOPs (the paper's Fig. 9 model terms).
    pub fn useful_flops(&self) -> u64 {
        2 * (self.m as u64) * (self.n as u64) * (self.k as u64)
            + 3 * (self.m as u64) * (self.n as u64)
    }

    /// Bytes of device memory the problem's matrices occupy.
    pub fn footprint_bytes(&self) -> u64 {
        let ab = self.op.type_ab().size_bytes() as u64;
        let cd = self.op.type_cd().size_bytes() as u64;
        (self.m * self.k) as u64 * ab
            + (self.k * self.n) as u64 * ab
            + 2 * (self.m * self.n) as u64 * cd // C and D
    }

    /// Validates dimensions.
    pub fn validate(&self) -> Result<(), BlasError> {
        if self.m == 0 || self.n == 0 || self.k == 0 {
            return Err(BlasError::InvalidDimension {
                m: self.m,
                n: self.n,
                k: self.k,
            });
        }
        Ok(())
    }
}

/// Errors from the BLAS layer.
#[derive(Clone, Debug, PartialEq)]
pub enum BlasError {
    /// A dimension is zero.
    InvalidDimension {
        /// Rows.
        m: usize,
        /// Columns.
        n: usize,
        /// Inner dimension.
        k: usize,
    },
    /// A host buffer is smaller than the problem requires.
    BufferTooSmall {
        /// Which operand.
        operand: &'static str,
        /// Required length in elements.
        required: usize,
        /// Provided length.
        provided: usize,
    },
    /// A leading dimension is smaller than its operand's stored width
    /// (the strided functional entry).
    LeadingDimension {
        /// Which operand.
        operand: &'static str,
        /// The leading dimension given.
        ld: usize,
        /// The operand's stored width.
        width: usize,
    },
    /// The problem does not fit in device memory.
    OutOfDeviceMemory {
        /// Required bytes.
        required: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// Simulator launch failure.
    Launch(String),
    /// The planned kernel failed static verification (`mc-lint`); the
    /// report carries the diagnostics that rejected it.
    Lint(mc_lint::LintReport),
    /// The planned kernel failed dataflow verification
    /// (`mc_lint::flow`): an LDS race, an insufficient waitcnt, or a
    /// register working set the plan cannot hold.
    Flow(mc_lint::flow::FlowReport),
    /// The persisted plan DB could not be read or has an incompatible
    /// schema (see `crate::plandb`).
    PlanDb(String),
    /// A Matrix Core strategy cannot tile the problem (see
    /// `crate::enumerate::tileable`): a tampered or stale plan-DB entry.
    Untileable(String),
}

impl From<mc_compute::ComputeError> for BlasError {
    fn from(e: mc_compute::ComputeError) -> Self {
        match e {
            mc_compute::ComputeError::BufferTooSmall {
                operand,
                required,
                provided,
            } => BlasError::BufferTooSmall {
                operand,
                required,
                provided,
            },
            mc_compute::ComputeError::LeadingDimension { operand, ld, width } => {
                BlasError::LeadingDimension { operand, ld, width }
            }
        }
    }
}

impl From<mc_lint::Rejection> for BlasError {
    fn from(r: mc_lint::Rejection) -> Self {
        match r {
            mc_lint::Rejection::Lint(report) => BlasError::Lint(report),
            mc_lint::Rejection::Flow(report) => BlasError::Flow(report),
        }
    }
}

impl fmt::Display for BlasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlasError::InvalidDimension { m, n, k } => {
                write!(f, "invalid GEMM dimensions {m}x{n}x{k}")
            }
            BlasError::BufferTooSmall {
                operand,
                required,
                provided,
            } => write!(
                f,
                "operand {operand}: need {required} elements, got {provided}"
            ),
            BlasError::LeadingDimension { operand, ld, width } => write!(
                f,
                "operand {operand}: leading dimension {ld} is below its width {width}"
            ),
            BlasError::OutOfDeviceMemory { required, capacity } => {
                write!(f, "problem needs {required} B, device has {capacity} B")
            }
            BlasError::Launch(msg) => write!(f, "launch failed: {msg}"),
            BlasError::Lint(report) => write!(
                f,
                "kernel `{}` failed static verification with {} error(s):\n{}",
                report.subject,
                report.error_count(),
                report.render()
            ),
            BlasError::Flow(report) => write!(
                f,
                "kernel `{}` failed dataflow verification with {} error(s):\n{}",
                report.subject,
                report.error_count(),
                report.render()
            ),
            BlasError::PlanDb(msg) => write!(f, "plan DB: {msg}"),
            BlasError::Untileable(msg) => write!(f, "strategy cannot tile the problem: {msg}"),
        }
    }
}

impl std::error::Error for BlasError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_datatypes() {
        // Paper Table III, verbatim.
        assert_eq!(GemmOp::Hgemm.type_ab(), DType::F16);
        assert_eq!(GemmOp::Hgemm.type_cd(), DType::F16);
        assert_eq!(GemmOp::Hgemm.compute_type(), DType::F16);
        assert_eq!(GemmOp::Hhs.type_ab(), DType::F16);
        assert_eq!(GemmOp::Hhs.type_cd(), DType::F16);
        assert_eq!(GemmOp::Hhs.compute_type(), DType::F32);
        assert_eq!(GemmOp::Hss.type_ab(), DType::F16);
        assert_eq!(GemmOp::Hss.type_cd(), DType::F32);
        assert_eq!(GemmOp::Hss.compute_type(), DType::F32);
    }

    #[test]
    fn useful_flops_matches_fig9_model() {
        let d = GemmDesc::square(GemmOp::Sgemm, 1024);
        assert_eq!(d.useful_flops(), 2 * 1024u64.pow(3) + 3 * 1024u64.pow(2));
    }

    #[test]
    fn footprint_counts_all_four_matrices() {
        let d = GemmDesc::square(GemmOp::Dgemm, 1000);
        // A, B, C, D each 1000² f64.
        assert_eq!(d.footprint_bytes(), 4 * 1_000_000 * 8);
        let h = GemmDesc::square(GemmOp::Hss, 1000);
        // A, B f16; C, D f32.
        assert_eq!(h.footprint_bytes(), 2 * 1_000_000 * 2 + 2 * 1_000_000 * 4);
    }

    #[test]
    fn validation() {
        assert!(GemmDesc::square(GemmOp::Sgemm, 16).validate().is_ok());
        let bad = GemmDesc {
            k: 0,
            ..GemmDesc::square(GemmOp::Sgemm, 16)
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn square_uses_paper_scalars() {
        let d = GemmDesc::square(GemmOp::Hhs, 64);
        assert_eq!(d.alpha, 0.1);
        assert_eq!(d.beta, 0.1);
    }

    #[test]
    fn bf16_extension_ops() {
        assert_eq!(GemmOp::Bhs.type_ab(), DType::Bf16);
        assert_eq!(GemmOp::Bhs.type_cd(), DType::Bf16);
        assert_eq!(GemmOp::Bhs.compute_type(), DType::F32);
        assert_eq!(GemmOp::Bss.type_cd(), DType::F32);
        assert_eq!(GemmOp::Bss.routine(), "bss");
        // The paper set stays the original five.
        assert_eq!(GemmOp::PAPER.len(), 5);
        assert!(!GemmOp::PAPER.contains(&GemmOp::Bhs));
        assert!(GemmOp::ALL.contains(&GemmOp::Bhs));
    }
}
