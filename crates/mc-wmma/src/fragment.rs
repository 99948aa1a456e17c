//! Fragments: the register-distributed matrix abstraction.
//!
//! A fragment logically holds one operand block of an MMA operation;
//! physically (on hardware) its elements live scattered across the 64
//! lanes' registers, in the layout described by [`mc_isa::regmap`]. The
//! fragment API exists precisely so users never see that layout — and
//! this implementation honours that: elements are addressed by matrix
//! coordinates (the `matrix_calculator` example prints the mapping, as
//! AMD's calculator tool does).

use core::marker::PhantomData;

use mc_types::Real;

use crate::error::WmmaError;

/// Marker: fragment holds the `m×k` A operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatrixA;

/// Marker: fragment holds the `k×n` B operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatrixB;

/// Marker: fragment holds an `m×n` accumulator (C or D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Accumulator;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::MatrixA {}
    impl Sealed for super::MatrixB {}
    impl Sealed for super::Accumulator {}
}

/// The role a fragment plays in `D ← A·B + C`, determining its shape.
pub trait FragmentUse: sealed::Sealed + 'static {
    /// Rows of the fragment for an `M×N×K` operation.
    fn rows(m: usize, n: usize, k: usize) -> usize;
    /// Columns of the fragment.
    fn cols(m: usize, n: usize, k: usize) -> usize;
}

impl FragmentUse for MatrixA {
    fn rows(m: usize, _n: usize, _k: usize) -> usize {
        m
    }
    fn cols(_m: usize, _n: usize, k: usize) -> usize {
        k
    }
}

impl FragmentUse for MatrixB {
    fn rows(_m: usize, _n: usize, k: usize) -> usize {
        k
    }
    fn cols(_m: usize, n: usize, _k: usize) -> usize {
        n
    }
}

impl FragmentUse for Accumulator {
    fn rows(m: usize, _n: usize, _k: usize) -> usize {
        m
    }
    fn cols(_m: usize, n: usize, _k: usize) -> usize {
        n
    }
}

/// Memory layout of a source/destination matrix in device memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Layout {
    /// Row-major (`mem_row_major` in rocWMMA).
    #[default]
    RowMajor,
    /// Column-major (`mem_col_major`).
    ColMajor,
}

/// A wave-cooperative matrix fragment for an `M×N×K` operation.
///
/// ```
/// use mc_wmma::{Fragment, MatrixA, Layout};
/// use mc_types::F16;
///
/// let tile: Vec<F16> = (0..16 * 16).map(|i| F16::from_f32(i as f32)).collect();
/// let mut a = Fragment::<MatrixA, F16, 16, 16, 16>::new();
/// a.load_matrix_sync(&tile, 16, Layout::RowMajor).unwrap();
/// assert_eq!(a.get(2, 3).to_f32(), (2 * 16 + 3) as f32);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Fragment<Use: FragmentUse, T: Real, const M: usize, const N: usize, const K: usize> {
    data: Vec<T>,
    _use: PhantomData<Use>,
}

impl<Use: FragmentUse, T: Real, const M: usize, const N: usize, const K: usize> Default
    for Fragment<Use, T, M, N, K>
{
    fn default() -> Self {
        Self::new()
    }
}

impl<Use: FragmentUse, T: Real, const M: usize, const N: usize, const K: usize>
    Fragment<Use, T, M, N, K>
{
    /// Creates a zero-filled fragment.
    pub fn new() -> Self {
        Fragment {
            data: vec![T::zero(); Self::rows() * Self::cols()],
            _use: PhantomData,
        }
    }

    /// Fragment rows (depends on the operand role).
    pub fn rows() -> usize {
        Use::rows(M, N, K)
    }

    /// Fragment columns.
    pub fn cols() -> usize {
        Use::cols(M, N, K)
    }

    /// Total elements in the fragment.
    pub fn num_elements() -> usize {
        Self::rows() * Self::cols()
    }

    /// rocWMMA `fill_fragment`: sets every element to `value`.
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the coordinate is outside the fragment.
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(
            row < Self::rows() && col < Self::cols(),
            "fragment index out of range"
        );
        self.data[row * Self::cols() + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the coordinate is outside the fragment.
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(
            row < Self::rows() && col < Self::cols(),
            "fragment index out of range"
        );
        self.data[row * Self::cols() + col] = value;
    }

    /// The fragment's elements, row-major (`rows × cols`).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the fragment's row-major elements.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// rocWMMA `load_matrix_sync`: loads the fragment from a matrix in
    /// memory with leading dimension `ld`.
    pub fn load_matrix_sync(
        &mut self,
        src: &[T],
        ld: usize,
        layout: Layout,
    ) -> Result<(), WmmaError> {
        let (rows, cols) = (Self::rows(), Self::cols());
        let (minor, major) = match layout {
            Layout::RowMajor => (cols, rows),
            Layout::ColMajor => (rows, cols),
        };
        if ld < minor {
            return Err(WmmaError::BadLeadingDimension { ld, min: minor });
        }
        let required = (major - 1) * ld + minor;
        if src.len() < required {
            return Err(WmmaError::OutOfBounds {
                what: "load_matrix_sync source",
                required,
                available: src.len(),
            });
        }
        for r in 0..rows {
            for c in 0..cols {
                let idx = match layout {
                    Layout::RowMajor => r * ld + c,
                    Layout::ColMajor => c * ld + r,
                };
                self.data[r * cols + c] = src[idx];
            }
        }
        Ok(())
    }

    /// rocWMMA `store_matrix_sync`: writes the fragment to memory.
    pub fn store_matrix_sync(
        &self,
        dst: &mut [T],
        ld: usize,
        layout: Layout,
    ) -> Result<(), WmmaError> {
        let (rows, cols) = (Self::rows(), Self::cols());
        let (minor, major) = match layout {
            Layout::RowMajor => (cols, rows),
            Layout::ColMajor => (rows, cols),
        };
        if ld < minor {
            return Err(WmmaError::BadLeadingDimension { ld, min: minor });
        }
        let required = (major - 1) * ld + minor;
        if dst.len() < required {
            return Err(WmmaError::OutOfBounds {
                what: "store_matrix_sync destination",
                required,
                available: dst.len(),
            });
        }
        for r in 0..rows {
            for c in 0..cols {
                let idx = match layout {
                    Layout::RowMajor => r * ld + c,
                    Layout::ColMajor => c * ld + r,
                };
                dst[idx] = self.data[r * cols + c];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_types::F16;

    type FragA = Fragment<MatrixA, F16, 16, 16, 16>;
    type FragAcc = Fragment<Accumulator, f32, 16, 16, 16>;

    #[test]
    fn shapes_follow_operand_role() {
        assert_eq!(FragA::rows(), 16);
        assert_eq!(FragA::cols(), 16);
        type B = Fragment<MatrixB, f64, 16, 16, 4>;
        assert_eq!(B::rows(), 4);
        assert_eq!(B::cols(), 16);
        type A4 = Fragment<MatrixA, f64, 16, 16, 4>;
        assert_eq!(A4::cols(), 4);
        assert_eq!(FragAcc::num_elements(), 256);
    }

    #[test]
    fn fill_and_get() {
        let mut f = FragAcc::new();
        assert_eq!(f.get(0, 0), 0.0);
        f.fill(2.5);
        assert_eq!(f.get(15, 15), 2.5);
    }

    #[test]
    fn load_store_row_major_roundtrip() {
        let src: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let mut f = FragAcc::new();
        f.load_matrix_sync(&src, 16, Layout::RowMajor).unwrap();
        let mut dst = vec![0.0f32; 256];
        f.store_matrix_sync(&mut dst, 16, Layout::RowMajor).unwrap();
        assert_eq!(src, dst);
    }

    #[test]
    fn col_major_load_transposes() {
        let mut src = vec![0.0f32; 256];
        src[3 * 16 + 7] = 42.0; // column-major (r=3, c=7) lives at c*ld+r = 7*16+3
        let mut f = FragAcc::new();
        f.load_matrix_sync(&src, 16, Layout::ColMajor).unwrap();
        assert_eq!(f.get(7, 3), 42.0);
    }

    #[test]
    fn strided_load_respects_leading_dimension() {
        // A 16x16 tile inside a 64-wide matrix.
        let ld = 64;
        let src: Vec<f32> = (0..16 * ld).map(|i| i as f32).collect();
        let mut f = FragAcc::new();
        f.load_matrix_sync(&src, ld, Layout::RowMajor).unwrap();
        assert_eq!(f.get(2, 5), (2 * ld + 5) as f32);
    }

    #[test]
    fn bounds_and_ld_validation() {
        let mut f = FragAcc::new();
        let small = vec![0.0f32; 10];
        assert!(matches!(
            f.load_matrix_sync(&small, 16, Layout::RowMajor),
            Err(WmmaError::OutOfBounds { .. })
        ));
        let src = vec![0.0f32; 256];
        assert!(matches!(
            f.load_matrix_sync(&src, 8, Layout::RowMajor),
            Err(WmmaError::BadLeadingDimension { ld: 8, min: 16 })
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let f = FragA::new();
        let _ = f.get(16, 0);
    }
}
