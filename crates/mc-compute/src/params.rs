//! Problem descriptors for the compute backends.
//!
//! [`GemmParams`] is deliberately smaller than `mc_blas::GemmDesc`: no
//! routine/datatype tag (the element types are the generic parameters
//! of [`crate::MatMul::gemm`]) and no `k > 0` requirement — `k = 0`
//! degenerates to the pure epilogue `D ← β·C`, which the library layer
//! forbids but the solver's edge blocks and the parity tests exercise.
//!
//! Each operand is a strided row-major view: row `r` of a stored
//! operand starts at element `r·ld` of its slice, and the `ld − width`
//! elements between rows are neither read nor written. The leading
//! dimensions default to the stored widths (dense operands), so a
//! solver can run a GEMM on a block of a larger matrix without
//! gathering it.

use core::fmt;

/// Transpose selector for an input operand (mirrors BLAS `N`/`T`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Trans {
    /// Use the operand as stored.
    #[default]
    None,
    /// Use the operand's transpose.
    Trans,
}

/// How the α/β epilogue rounds, matching the two historical paths of
/// `mc_blas::functional` bit for bit.
///
/// Both compute `ab = ct(α·acc)` and `bc = ct(β·c)` in the compute
/// type; they differ in how the sum reaches the output type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Epilogue {
    /// `d = cd(ab + bc)` — one rounding straight into the output type
    /// (the SIMD path's per-element MAC epilogue).
    #[default]
    Direct,
    /// `d = cd(ct(ab + bc))` — the sum rounds through the compute type
    /// before the output cast (the Matrix Core path's writeback, which
    /// leaves the accumulator registers in the compute type).
    ComputeRounded,
}

/// A GEMM problem for the compute backends:
/// `D (m×n) ← α · op(A)·op(B) + β · C`, row-major, each operand with a
/// leading dimension (the element distance between the starts of two
/// stored rows) of at least its stored width. `C` and `D` share `ldc`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GemmParams {
    /// Rows of op(A), C, and D.
    pub m: usize,
    /// Columns of op(B), C, and D.
    pub n: usize,
    /// Inner dimension (0 is allowed: `D ← β·C`).
    pub k: usize,
    /// Scalar on `op(A)·op(B)`.
    pub alpha: f64,
    /// Scalar on `C`.
    pub beta: f64,
    /// Transpose selector for A (stored `m×k` when `None`, `k×m` when
    /// `Trans`).
    pub trans_a: Trans,
    /// Transpose selector for B (stored `k×n` when `None`, `n×k` when
    /// `Trans`).
    pub trans_b: Trans,
    /// Epilogue rounding variant.
    pub epilogue: Epilogue,
    /// Leading dimensions of A, B and C/D; `None` is the operand's
    /// stored width. Set through [`GemmParams::with_leading_dims`].
    ld: [Option<usize>; 3],
}

impl GemmParams {
    /// A plain `α = 1, β = 0`, untransposed problem.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        GemmParams {
            m,
            n,
            k,
            alpha: 1.0,
            beta: 0.0,
            trans_a: Trans::None,
            trans_b: Trans::None,
            epilogue: Epilogue::Direct,
            ld: [None; 3],
        }
    }

    /// Sets the α/β scalars.
    pub fn with_scaling(mut self, alpha: f64, beta: f64) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self
    }

    /// Sets the transpose selectors.
    pub fn with_transposes(mut self, trans_a: Trans, trans_b: Trans) -> Self {
        self.trans_a = trans_a;
        self.trans_b = trans_b;
        self
    }

    /// Sets the epilogue rounding variant.
    pub fn with_epilogue(mut self, epilogue: Epilogue) -> Self {
        self.epilogue = epilogue;
        self
    }

    /// Sets the leading dimensions of A, B and C/D (each in elements,
    /// at least the operand's stored width; [`GemmParams::check_buffers`]
    /// rejects a narrower one).
    pub fn with_leading_dims(mut self, lda: usize, ldb: usize, ldc: usize) -> Self {
        self.ld = [Some(lda), Some(ldb), Some(ldc)];
        self
    }

    /// Stored `(rows, width)` of A: `m×k`, or `k×m` when transposed.
    fn a_stored(&self) -> (usize, usize) {
        match self.trans_a {
            Trans::None => (self.m, self.k),
            Trans::Trans => (self.k, self.m),
        }
    }

    /// Stored `(rows, width)` of B: `k×n`, or `n×k` when transposed.
    fn b_stored(&self) -> (usize, usize) {
        match self.trans_b {
            Trans::None => (self.k, self.n),
            Trans::Trans => (self.n, self.k),
        }
    }

    /// Leading dimension of A (its stored width unless set).
    #[inline]
    pub fn lda(&self) -> usize {
        self.ld[0].unwrap_or(self.a_stored().1)
    }

    /// Leading dimension of B (its stored width unless set).
    #[inline]
    pub fn ldb(&self) -> usize {
        self.ld[1].unwrap_or(self.b_stored().1)
    }

    /// Leading dimension of C and D (`n` unless set).
    #[inline]
    pub fn ldc(&self) -> usize {
        self.ld[2].unwrap_or(self.n)
    }

    /// Index of `op(A)[i][p]` in A's stored row-major layout.
    #[inline]
    pub fn a_index(&self, i: usize, p: usize) -> usize {
        match self.trans_a {
            Trans::None => i * self.lda() + p,
            Trans::Trans => p * self.lda() + i,
        }
    }

    /// Index of `op(B)[p][j]` in B's stored row-major layout.
    #[inline]
    pub fn b_index(&self, p: usize, j: usize) -> usize {
        match self.trans_b {
            Trans::None => p * self.ldb() + j,
            Trans::Trans => j * self.ldb() + p,
        }
    }

    /// Index of `C[i][j]` and `D[i][j]`.
    #[inline]
    pub fn c_index(&self, i: usize, j: usize) -> usize {
        i * self.ldc() + j
    }

    /// Validates the host buffers against the problem shape and the
    /// leading dimensions: each `ld` must cover its operand's stored
    /// width, and each buffer must hold `(rows − 1)·ld + width`
    /// elements (none when the operand is empty). `c` is `None` for an
    /// in-place call, where `D` doubles as `C`.
    pub fn check_buffers(
        &self,
        a: usize,
        b: usize,
        c: Option<usize>,
        d: usize,
    ) -> Result<(), ComputeError> {
        let (a_rows, a_width) = self.a_stored();
        let (b_rows, b_width) = self.b_stored();
        let c_shape = (self.m, self.n, self.ldc());
        let need = [
            ("A", (a_rows, a_width, self.lda()), Some(a)),
            ("B", (b_rows, b_width, self.ldb()), Some(b)),
            ("C", c_shape, c),
            ("D", c_shape, Some(d)),
        ];
        for (operand, (rows, width, ld), provided) in need {
            // In place, `D` is the only view of `C`.
            let Some(provided) = provided else { continue };
            if ld < width {
                return Err(ComputeError::LeadingDimension { operand, ld, width });
            }
            // An extent past `usize::MAX` fits no buffer.
            let required = match (rows, width) {
                (0, _) | (_, 0) => 0,
                _ => (rows - 1)
                    .checked_mul(ld)
                    .and_then(|x| x.checked_add(width))
                    .unwrap_or(usize::MAX),
            };
            if provided < required {
                return Err(ComputeError::BufferTooSmall {
                    operand,
                    required,
                    provided,
                });
            }
        }
        Ok(())
    }
}

/// Errors from the compute backends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ComputeError {
    /// A host buffer is smaller than the problem requires.
    BufferTooSmall {
        /// Which operand.
        operand: &'static str,
        /// Required length in elements.
        required: usize,
        /// Provided length.
        provided: usize,
    },
    /// A leading dimension is smaller than its operand's stored width.
    LeadingDimension {
        /// Which operand.
        operand: &'static str,
        /// The leading dimension given.
        ld: usize,
        /// The operand's stored width.
        width: usize,
    },
}

impl fmt::Display for ComputeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputeError::BufferTooSmall {
                operand,
                required,
                provided,
            } => write!(
                f,
                "operand {operand}: need {required} elements, got {provided}"
            ),
            ComputeError::LeadingDimension { operand, ld, width } => write!(
                f,
                "operand {operand}: leading dimension {ld} is below its width {width}"
            ),
        }
    }
}

impl std::error::Error for ComputeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_follows_transpose_selectors() {
        let p = GemmParams::new(3, 4, 5);
        assert_eq!(p.a_index(2, 4), 2 * 5 + 4);
        assert_eq!(p.b_index(4, 3), 4 * 4 + 3);
        let t = p.with_transposes(Trans::Trans, Trans::Trans);
        assert_eq!(t.a_index(2, 4), 4 * 3 + 2);
        assert_eq!(t.b_index(4, 3), 3 * 5 + 4);
    }

    #[test]
    fn zero_k_is_valid() {
        let p = GemmParams::new(2, 2, 0);
        assert!(p.check_buffers(0, 0, Some(4), 4).is_ok());
    }

    #[test]
    fn buffer_checks_name_the_operand() {
        let p = GemmParams::new(2, 2, 2);
        assert_eq!(
            p.check_buffers(4, 3, Some(4), 4),
            Err(ComputeError::BufferTooSmall {
                operand: "B",
                required: 4,
                provided: 3
            })
        );
    }

    #[test]
    fn strided_views_index_and_size_by_leading_dimension() {
        // A 3×5 op(A) stored transposed (5×3) at lda 4, B 5×2 at ldb 7,
        // C/D 3×2 at ldc 6.
        let p = GemmParams::new(3, 2, 5)
            .with_transposes(Trans::Trans, Trans::None)
            .with_leading_dims(4, 7, 6);
        assert_eq!(p.a_index(2, 4), 4 * 4 + 2);
        assert_eq!(p.b_index(4, 1), 4 * 7 + 1);
        assert_eq!(p.c_index(2, 1), 2 * 6 + 1);
        let (a, b, cd) = (4 * 4 + 3, 4 * 7 + 2, 2 * 6 + 2);
        assert!(p.check_buffers(a, b, Some(cd), cd).is_ok());
        assert!(p.check_buffers(a, b, None, cd).is_ok());
        assert_eq!(
            p.check_buffers(a, b, None, cd - 1),
            Err(ComputeError::BufferTooSmall {
                operand: "D",
                required: cd,
                provided: cd - 1
            })
        );
        // Defaults follow the transposes set after construction.
        let t = GemmParams::new(3, 2, 5).with_transposes(Trans::Trans, Trans::Trans);
        assert_eq!((t.lda(), t.ldb(), t.ldc()), (3, 5, 2));
    }

    #[test]
    fn narrow_leading_dimension_is_an_error() {
        let p = GemmParams::new(3, 4, 5).with_leading_dims(5, 3, 4);
        assert_eq!(
            p.check_buffers(usize::MAX, usize::MAX, None, usize::MAX),
            Err(ComputeError::LeadingDimension {
                operand: "B",
                ld: 3,
                width: 4
            })
        );
        // An extent that overflows `usize` is a short buffer, not a panic.
        let huge = GemmParams::new(3, 4, 5).with_leading_dims(usize::MAX, 4, 4);
        assert!(matches!(
            huge.check_buffers(usize::MAX - 1, 20, None, 12),
            Err(ComputeError::BufferTooSmall { operand: "A", .. })
        ));
    }
}
