//! A minimal dense row-major matrix for the solver routines.

use mc_types::Real;

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Real> Matrix<T> {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, T::one());
        }
        m
    }

    /// Builds from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[T]) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length");
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Builds from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element update.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Underlying row-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Swaps rows `i` and `p` (a no-op when they are equal).
    pub(crate) fn swap_rows(&mut self, i: usize, p: usize) {
        let (lo, hi) = (i.min(p), i.max(p));
        if lo == hi {
            return;
        }
        let (top, bottom) = self.data.split_at_mut(hi * self.cols);
        top[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut bottom[..self.cols]);
    }

    /// Copies the block `[r0, r0+h) × [c0, c0+w)` into a new matrix.
    pub fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Matrix<T> {
        let mut out = Matrix::zeros(h, w);
        self.read_block(r0, c0, h, w, &mut out.data);
        out
    }

    /// Copies the block `[r0, r0+h) × [c0, c0+w)` into `dst`, row-major
    /// with leading dimension `w` (a caller-held buffer, reused across
    /// the steps of a factorization).
    ///
    /// # Panics
    /// Panics if the block leaves the matrix or `dst.len() != h * w`.
    pub(crate) fn read_block(&self, r0: usize, c0: usize, h: usize, w: usize, dst: &mut [T]) {
        self.check_block(r0, c0, h, w, dst.len());
        for i in 0..h {
            let start = (r0 + i) * self.cols + c0;
            dst[i * w..(i + 1) * w].copy_from_slice(&self.data[start..start + w]);
        }
    }

    /// Writes `src` into the block at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Matrix<T>) {
        self.write_block(r0, c0, src.rows, src.cols, &src.data);
    }

    /// Writes the row-major `h×w` block `src` (leading dimension `w`)
    /// at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the block leaves the matrix or `src.len() != h * w`.
    pub(crate) fn write_block(&mut self, r0: usize, c0: usize, h: usize, w: usize, src: &[T]) {
        self.check_block(r0, c0, h, w, src.len());
        for i in 0..h {
            let start = (r0 + i) * self.cols + c0;
            self.data[start..start + w].copy_from_slice(&src[i * w..(i + 1) * w]);
        }
    }

    fn check_block(&self, r0: usize, c0: usize, h: usize, w: usize, len: usize) {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "block out of range"
        );
        assert_eq!(len, h * w, "block buffer length");
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Frobenius norm (computed in f64).
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|x| x.to_f64() * x.to_f64())
            .sum::<f64>()
            .sqrt()
    }

    /// Converts every element to another [`Real`] type.
    pub fn cast<U: Real>(&self) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| U::from_f64(x.to_f64())).collect(),
        }
    }

    /// Maximum absolute element (in f64).
    pub fn max_abs(&self) -> f64 {
        self.data
            .iter()
            .map(|x| x.to_f64().abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::<f64>::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.get(2, 3), 23.0);
        assert_eq!(Matrix::<f32>::identity(4).get(2, 2), 1.0);
        assert_eq!(Matrix::<f32>::identity(4).get(2, 1), 0.0);
    }

    #[test]
    fn block_roundtrip() {
        let m = Matrix::<f64>::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let b = m.block(2, 3, 2, 2);
        assert_eq!(b.get(0, 0), 15.0);
        assert_eq!(b.get(1, 1), 22.0);
        let mut z = Matrix::<f64>::zeros(6, 6);
        z.set_block(2, 3, &b);
        assert_eq!(z.get(3, 4), 22.0);
        assert_eq!(z.get(0, 0), 0.0);
    }

    #[test]
    fn swap_rows_exchanges_whole_rows() {
        let m = Matrix::<f64>::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let mut s = m.clone();
        s.swap_rows(3, 1);
        assert_eq!(s.row(1), m.row(3));
        assert_eq!(s.row(3), m.row(1));
        assert_eq!(s.row(0), m.row(0));
        s.swap_rows(2, 2);
        assert_eq!(s.row(2), m.row(2));
    }

    #[test]
    fn empty_and_full_blocks() {
        let m = Matrix::<f64>::from_fn(4, 5, |i, j| (i * 5 + j) as f64);
        for (r0, c0, h, w) in [(1, 2, 0, 3), (4, 0, 0, 5), (1, 1, 3, 0), (0, 5, 4, 0)] {
            let b = m.block(r0, c0, h, w);
            assert_eq!((b.rows(), b.cols()), (h, w));
            let mut z = m.clone();
            z.set_block(r0, c0, &b);
            assert_eq!(z, m, "empty write at ({r0},{c0}) changed the matrix");
        }
        let full = m.block(0, 0, 4, 5);
        assert_eq!(full, m);
        let mut z = Matrix::<f64>::zeros(4, 5);
        z.set_block(0, 0, &full);
        assert_eq!(z, m);
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn oob_set_block_panics() {
        let mut m = Matrix::<f64>::zeros(3, 3);
        m.set_block(1, 2, &Matrix::zeros(2, 2));
    }

    #[test]
    fn transpose_and_norm() {
        let m = Matrix::<f64>::from_slice(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let t = m.transposed();
        assert_eq!(t.get(0, 1), 3.0);
        assert!((m.frobenius_norm() - 30f64.sqrt()).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn cast_rounds_per_type() {
        use mc_types::F16;
        let m = Matrix::<f64>::from_slice(1, 2, &[1.0, 1.0 + 2f64.powi(-12)]);
        let h: Matrix<F16> = m.cast();
        assert_eq!(h.get(0, 0).to_f64(), 1.0);
        assert_eq!(h.get(0, 1).to_f64(), 1.0); // rounded away
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn oob_block_panics() {
        let m = Matrix::<f64>::zeros(3, 3);
        let _ = m.block(2, 2, 2, 2);
    }
}
