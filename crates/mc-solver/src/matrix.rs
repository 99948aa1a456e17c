//! A minimal dense row-major matrix for the solver routines.

use mc_compute::PoolElem;
use mc_types::Real;
use rayon::prelude::*;

/// A dense row-major matrix.
///
/// Storage of 128 KiB or more comes from the `mc-compute` buffer pool
/// and goes back to it when the matrix drops; smaller matrices own a
/// plain `Vec`. A caller that factors, drops the factors and factors
/// again so writes its working copies into pages that are already
/// mapped.
#[derive(Debug, PartialEq)]
pub struct Matrix<T: PoolElem> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// The smallest storage, in bytes, a [`Matrix`] takes from the pool:
/// glibc's default mmap threshold, the size from which a free can hand
/// the pages back to the OS.
const POOLED_MIN_BYTES: usize = 128 << 10;

/// Whether storage for `len` elements comes from (and goes back to) the
/// pool.
fn pooled<T>(len: usize) -> bool {
    len * std::mem::size_of::<T>() >= POOLED_MIN_BYTES
}

/// Empty storage with room for `len` elements.
fn storage<T: PoolElem>(len: usize) -> Vec<T> {
    if pooled::<T>(len) {
        mc_compute::acquire(len).into_inner()
    } else {
        Vec::with_capacity(len)
    }
}

impl<T: PoolElem> Drop for Matrix<T> {
    fn drop(&mut self) {
        if pooled::<T>(self.data.capacity()) {
            mc_compute::recycle(std::mem::take(&mut self.data));
        }
    }
}

impl<T: Real + PoolElem> Clone for Matrix<T> {
    fn clone(&self) -> Self {
        Matrix::from_slice(self.rows, self.cols, &self.data)
    }
}

impl<T: Real + PoolElem> Matrix<T> {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let mut data = storage(rows * cols);
        data.resize(rows * cols, T::zero());
        Matrix { rows, cols, data }
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
        let mut m = Matrix {
            rows,
            cols,
            data: storage(data.len()),
        };
        m.data.extend_from_slice(data);
        m
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
    #[cfg(test)]
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
    ///
    /// # Panics
    /// Panics if the block leaves the matrix.
    pub fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Matrix<T> {
        self.check_block(r0, c0, h, w);
        let mut out = Matrix::zeros(h, w);
        for i in 0..h {
            let start = (r0 + i) * self.cols + c0;
            out.data[i * w..(i + 1) * w].copy_from_slice(&self.data[start..start + w]);
        }
        out
    }

    /// Writes `src` into the block at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the block leaves the matrix.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Matrix<T>) {
        let (h, w) = (src.rows, src.cols);
        self.check_block(r0, c0, h, w);
        for i in 0..h {
            let start = (r0 + i) * self.cols + c0;
            self.data[start..start + w].copy_from_slice(&src.data[i * w..(i + 1) * w]);
        }
    }

    fn check_block(&self, r0: usize, c0: usize, h: usize, w: usize) {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "block out of range"
        );
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
    pub fn cast<U: Real + PoolElem>(&self) -> Matrix<U> {
        let mut data = storage(self.data.len());
        data.extend(self.data.iter().map(|x| U::from_f64(x.to_f64())));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
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

impl Matrix<f64> {
    /// A copy written by every rayon thread, one contiguous range each,
    /// with no serial zero-fill first: a factorization's working copy,
    /// which becomes the returned factor. Its storage is a pooled
    /// buffer, warm once a caller has dropped an earlier factor; two
    /// threads still copy 768² f64s into it faster than one
    /// `copy_from_slice` does (docs/PERFORMANCE.md).
    pub(crate) fn par_copy(&self) -> Matrix<f64> {
        let len = self.data.len();
        let chunk = len.div_ceil(rayon::current_num_threads()).max(PAR_COPY_MIN);
        let mut data = storage(len);
        data.spare_capacity_mut()[..len]
            .par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, dst)| {
                for (d, &x) in dst.iter_mut().zip(&self.data[i * chunk..]) {
                    d.write(x);
                }
            });
        // SAFETY: the chunks cover all `len` elements, and each was
        // written above.
        unsafe { data.set_len(len) };
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

/// Fewest elements per thread of [`Matrix::par_copy`] (128 KiB), so
/// small copies stay on one thread.
const PAR_COPY_MIN: usize = 1 << 14;

/// Rows per tile of the transposing copies: one cache line of `f64`s
/// per column run.
const TILE: usize = 8;

/// Copies columns `c0..c0+cols` of the `rows` rows of `src` (leading
/// dimension `ld`) into `dst` transposed: column `j` lands in
/// `dst[j·rows..(j+1)·rows]`. It walks `TILE`-row tiles, so every run
/// it writes is one cache line and the tile's source rows stay in L1.
pub(crate) fn gather_columns(
    src: &[f64],
    ld: usize,
    c0: usize,
    (rows, cols): (usize, usize),
    dst: &mut [f64],
) {
    for i0 in (0..rows).step_by(TILE) {
        let h = TILE.min(rows - i0);
        for j in 0..cols {
            for (r, x) in dst[j * rows + i0..j * rows + i0 + h].iter_mut().enumerate() {
                *x = src[(i0 + r) * ld + c0 + j];
            }
        }
    }
}

/// The inverse of [`gather_columns`]: writes the transposed `src`
/// back to columns `c0..c0+cols` of the `rows` rows of `dst`.
pub(crate) fn scatter_columns(
    src: &[f64],
    (rows, cols): (usize, usize),
    dst: &mut [f64],
    ld: usize,
    c0: usize,
) {
    for i0 in (0..rows).step_by(TILE) {
        let h = TILE.min(rows - i0);
        for j in 0..cols {
            for (r, &x) in src[j * rows + i0..j * rows + i0 + h].iter().enumerate() {
                dst[(i0 + r) * ld + c0 + j] = x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{getrf, potrf};

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
    fn column_gathers_round_trip_through_the_transpose() {
        for (rows, cols) in [(0, 3), (1, 1), (7, 3), (8, 5), (19, 4)] {
            let (ld, c0) = (cols + 5, 2);
            let src: Vec<f64> = (0..rows * ld).map(|x| x as f64).collect();
            let mut t = vec![f64::NAN; rows * cols];
            gather_columns(&src, ld, c0, (rows, cols), &mut t);
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(t[j * rows + i], src[i * ld + c0 + j]);
                }
            }
            let mut back = vec![-1.0; rows * ld];
            scatter_columns(&t, (rows, cols), &mut back, ld, c0);
            for (at, &x) in back.iter().enumerate() {
                let inside = (c0..c0 + cols).contains(&(at % ld));
                assert_eq!(
                    x,
                    if inside { src[at] } else { -1.0 },
                    "({rows},{cols}) at {at}"
                );
            }
        }
    }

    #[test]
    fn par_copy_equals_clone_at_every_pool_size() {
        for threads in [1, 2, 3] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .unwrap();
            for (rows, cols) in [(0, 0), (1, 1), (3, 7), (128, 129), (128, 384)] {
                let m = Matrix::<f64>::from_fn(rows, cols, |i, j| match (i + j) % 4 {
                    0 => f64::from_bits(0x7ff8_0000_0000_0abc),
                    1 => -0.0,
                    _ => (i * cols + j) as f64 / 3.0,
                });
                let copy = m.par_copy();
                assert_eq!((copy.rows(), copy.cols()), (rows, cols));
                let bits = |m: &Matrix<f64>| -> Vec<u64> {
                    m.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&copy), bits(&m), "{rows}x{cols} threads={threads}");
            }
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
    }

    #[test]
    fn recycled_storage_never_shows_through_a_factor() {
        use crate::getrf::tests::getrf_reference;
        use crate::potrf::tests::potrf_reference;
        let bits =
            |m: &Matrix<f64>| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        let nan = |n: usize| Matrix::<f64>::from_fn(n, n, |_, _| f64::NAN);
        for threads in [1, 2, 3] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .unwrap();
            for n in [130, 300] {
                assert!(pooled::<f64>(n * n));
                let a = Matrix::<f64>::from_fn(n, n, |i, j| {
                    let v = (((i.min(j) * 31 + i.max(j) * 17 + 5) % 23) as f64) / 7.3 - 1.5;
                    if i == j {
                        v + n as f64
                    } else {
                        v
                    }
                });
                let l_want = potrf_reference(&a, 64).unwrap();
                let lu_want = getrf_reference(&a, 64).unwrap();
                // The freelist is a LIFO stack shared by every thread,
                // so the buffer dropped last is the next factor's
                // storage: `potrf`'s comes from a thread that exits,
                // `getrf`'s from a pool worker that lives on (the
                // caller itself at one thread).
                std::thread::spawn(move || drop(nan(n))).join().unwrap();
                let l = potrf(&a, 64).unwrap();
                rayon::join(|| (), || drop(nan(n)));
                let lu = getrf(&a, 64).unwrap();
                assert_eq!(bits(&l), bits(&l_want), "potrf n={n} threads={threads}");
                assert_eq!(
                    bits(&lu.lu),
                    bits(&lu_want.lu),
                    "getrf n={n} threads={threads}"
                );
                assert_eq!(lu.ipiv, lu_want.ipiv, "getrf n={n} threads={threads}");
            }
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
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
