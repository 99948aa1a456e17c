//! Triangular solves with multiple right-hand sides.
//!
//! These are the panel-level kernels of the blocked factorizations; like
//! rocSOLVER's, they run substitution on scalar/SIMD arithmetic (it has
//! no `m×n×k` structure for Matrix Cores). Above [`TRSM_BLOCK`] unknowns
//! each solve is itself blocked: substitution stays on `TRSM_BLOCK`-wide
//! diagonal blocks and the off-diagonal bulk of the work becomes rank-k
//! updates on the shared [`mc_compute::Auto`] GEMM dispatch — the same
//! BLAS-3 shift the factorizations make, applied one level down.
//!
//! Every substitution runs on the solver's dispatched substitution
//! kernel, whose AVX-512F, AVX2 and portable bodies agree bit for bit:
//! one call of its row-blocked body per diagonal block (per worker). It
//! walks the block's column strips and solves the unknown rows four at
//! a time with their accumulators in registers, each row subtracting
//! every solved row (`x ← x − a·v`, ascending `k`) and then dividing by
//! the diagonal (`x ← x / d`).
//!
//! The left solves work in place on strided views: `B` is any `n` rows
//! at a leading dimension, and the triangle is read in either storage
//! order, so `getrf` solves its block row inside the factor with `L₁₁`
//! taken from its column-major panel. They are row-oriented: row `i` of
//! `X` is row `i` of `B` minus `L[i][k]`·(row `k` of `X`) over
//! ascending `k`, then the divide by the diagonal — per element the
//! same chain, in the same order, as column-at-a-time substitution.
//! The columns of `B` are independent, so each diagonal block's
//! substitution splits them into contiguous ranges across the rayon
//! pool, one range of every row per worker, and the off-diagonal
//! updates run as in-place strided GEMMs. The right solve (the
//! Cholesky panel update) has independent rows: it splits them into
//! contiguous chunks across the pool and solves each chunk's transposed
//! system `L·Xᵀ = Bᵀ` in that same row-oriented form, so every element
//! still subtracts `X[k]·L[j][k]` over ascending `k` from `B` and then
//! divides. It also works in place on a strided `B`: `potrf` solves its
//! panel inside the factor, gathered straight into the transposed
//! scratch and scattered once into a row-major copy for its stripe
//! GEMMs, whose rows then go back into the factor. A zero diagonal is
//! reported as the first one met in substitution order, and only when
//! `B` is non-empty.

use mc_compute::{Auto, GemmParams, MatMul, Trans};
use rayon::prelude::*;

use crate::matrix::{gather_columns, scatter_columns, Matrix};
use crate::subst::Subst;
use crate::SolverError;

/// Unknowns per substitution block; solves at or below this size run
/// the plain substitution loops.
pub const TRSM_BLOCK: usize = 64;

/// Fewest right-hand-side columns per worker of a left solve, so
/// narrow solves stay on one thread.
const PAR_MIN_COLS: usize = 16;

/// A read-only view of an `n×n` triangular factor inside a larger
/// buffer: element `(i, j)` sits at `data[i·rs + j·cs]`, with one of
/// the two strides 1 (row-major when `cs = 1`, column-major when
/// `rs = 1`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tri<'a> {
    data: &'a [f64],
    n: usize,
    rs: usize,
    cs: usize,
}

impl<'a> Tri<'a> {
    /// A square [`Matrix`], row-major.
    pub(crate) fn of(m: &'a Matrix<f64>) -> Self {
        Tri {
            data: m.as_slice(),
            n: m.rows(),
            rs: m.cols(),
            cs: 1,
        }
    }

    /// The `n×n` triangle at the start of `data`, columns at stride
    /// `ld`.
    pub(crate) fn col_major(data: &'a [f64], n: usize, ld: usize) -> Self {
        Tri {
            data,
            n,
            rs: 1,
            cs: ld,
        }
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.rs + j * self.cs]
    }

    /// The block starting at `(r0, c0)` as a GEMM `A` operand:
    /// `(slice, trans, lda)` with `op(A)[i][p]` the element
    /// `(r0 + i, c0 + p)`.
    fn operand(&self, r0: usize, c0: usize) -> (&'a [f64], Trans, usize) {
        let at = &self.data[r0 * self.rs + c0 * self.cs..];
        if self.cs == 1 {
            (at, Trans::None, self.rs)
        } else {
            (at, Trans::Trans, self.cs)
        }
    }
}

/// Which way a left solve substitutes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Uplo {
    /// Forward substitution through a lower triangle.
    Lower,
    /// Back substitution through an upper triangle.
    Upper,
}

/// Solves `L·X = B` for `X`, with `L` lower triangular (`unit_diag`
/// selects implicit ones on the diagonal). `B` is overwritten by `X`.
pub fn trsm_left_lower(
    l: &Matrix<f64>,
    b: &mut Matrix<f64>,
    unit_diag: bool,
) -> Result<(), SolverError> {
    let n = l.rows();
    if l.cols() != n || b.rows() != n {
        return Err(SolverError::ShapeMismatch {
            what: format!("L {}x{} vs B {}x{}", l.rows(), l.cols(), b.rows(), b.cols()),
        });
    }
    let ncols = b.cols();
    left_solve(
        Subst::from_env(),
        &Auto::from_env(),
        Uplo::Lower,
        Tri::of(l),
        unit_diag,
        b.as_mut_slice(),
        ncols,
        ncols,
    )
}

/// Solves `U·X = B` with `U` upper triangular (back substitution).
pub fn trsm_left_upper(u: &Matrix<f64>, b: &mut Matrix<f64>) -> Result<(), SolverError> {
    let n = u.rows();
    if u.cols() != n || b.rows() != n {
        return Err(SolverError::ShapeMismatch {
            what: format!("U {}x{} vs B {}x{}", u.rows(), u.cols(), b.rows(), b.cols()),
        });
    }
    let ncols = b.cols();
    left_solve(
        Subst::from_env(),
        &Auto::from_env(),
        Uplo::Upper,
        Tri::of(u),
        false,
        b.as_mut_slice(),
        ncols,
        ncols,
    )
}

/// Solves `T·X = B` in place, `T` lower (forward) or upper (back
/// substitution), on `B`'s `n` rows of `ncols` at leading dimension
/// `ldb` in `b`. Blocked above [`TRSM_BLOCK`]: each diagonal block's
/// substitution, plus an in-place GEMM update of the rows still to
/// solve by the rows just solved (lower), or of the block by the rows
/// solved below it (upper) — the blocked chain the factor bits pin.
#[allow(clippy::too_many_arguments)]
pub(crate) fn left_solve(
    kern: Subst,
    backend: &Auto,
    uplo: Uplo,
    t: Tri,
    unit_diag: bool,
    b: &mut [f64],
    ldb: usize,
    ncols: usize,
) -> Result<(), SolverError> {
    let n = t.n;
    if n == 0 || ncols == 0 {
        return Ok(());
    }
    if !unit_diag {
        // Every column meets the diagonals in the same order, so the
        // first zero one in substitution order is the one reported.
        let zero = |&i: &usize| t.get(i, i) == 0.0;
        let first = match uplo {
            Uplo::Lower => (0..n).find(zero),
            Uplo::Upper => (0..n).rev().find(zero),
        };
        if let Some(index) = first {
            return Err(SolverError::Singular { index });
        }
    }
    let update = |m: usize, k: usize, a: (&[f64], Trans, usize), x: &[f64], d: &mut [f64]| {
        let (a, trans, lda) = a;
        let params = GemmParams::new(m, ncols, k)
            .with_scaling(-1.0, 1.0)
            .with_transposes(trans, Trans::None)
            .with_leading_dims(lda, ldb, ldb);
        backend
            .gemm_in_place::<f64, f64, f64>(&params, a, x, d)
            .expect("solver gemm shapes are validated by construction");
    };
    let blocks = n.div_ceil(TRSM_BLOCK);
    for blk in 0..blocks {
        let blk = match uplo {
            Uplo::Lower => blk,
            Uplo::Upper => blocks - 1 - blk,
        };
        let ib = blk * TRSM_BLOCK;
        let nb = TRSM_BLOCK.min(n - ib);
        let rest = n - ib - nb;
        let (above, below) = b.split_at_mut(((ib + nb) * ldb).min(b.len()));
        let block = &mut above[ib * ldb..];
        if uplo == Uplo::Upper && rest > 0 {
            // B₁ ← B₁ − U₁₂·X₂ with X₂ the already-solved rows below.
            update(nb, rest, t.operand(ib, ib + nb), below, block);
        }
        substitute(kern, uplo, t, ib, nb, unit_diag, block, ldb, ncols);
        if uplo == Uplo::Lower && rest > 0 {
            // B₂ ← B₂ − L₂₁·X₁ : the bulk of the solve, as a GEMM.
            update(rest, nb, t.operand(ib + nb, ib), block, below);
        }
    }
    Ok(())
}

/// Substitutes through the diagonal block `[i0, i0+nb)` of `t` for the
/// `nb` rows of `rows` (leading dimension `ldb`, `ncols` used), with
/// the columns split into one contiguous range per worker. The
/// diagonal holds no zero (`left_solve` checks it first).
#[allow(clippy::too_many_arguments)]
fn substitute(
    kern: Subst,
    uplo: Uplo,
    t: Tri,
    i0: usize,
    nb: usize,
    unit_diag: bool,
    rows: &mut [f64],
    ldb: usize,
    ncols: usize,
) {
    let cols = ncols
        .div_ceil(rayon::current_num_threads())
        .max(PAR_MIN_COLS);
    let mut parts: Vec<Vec<&mut [f64]>> = (0..ncols.div_ceil(cols))
        .map(|_| Vec::with_capacity(nb))
        .collect();
    for row in rows.chunks_mut(ldb).take(nb) {
        for (part, piece) in parts.iter_mut().zip(row[..ncols].chunks_mut(cols)) {
            part.push(piece);
        }
    }
    parts.into_par_iter().for_each(|mut xs| {
        kern.solve(
            &mut xs,
            uplo,
            |i, k| t.get(i0 + i, i0 + k),
            |i| (!unit_diag).then(|| t.get(i0 + i, i0 + i)),
        );
    });
}

/// Solves `X·Lᵀ = B` for `X`, with `L` lower triangular (so `Lᵀ` is
/// upper). `B` is `m×n`, `L` is `n×n`; `B` is overwritten by `X`.
/// This is the Cholesky panel update `A₂₁ ← A₂₁·L₁₁⁻ᵀ`.
pub fn trsm_right_lower_transpose(l: &Matrix<f64>, b: &mut Matrix<f64>) -> Result<(), SolverError> {
    let n = l.rows();
    if l.cols() != n || b.cols() != n {
        return Err(SolverError::ShapeMismatch {
            what: format!("L {}x{} vs B {}x{}", l.rows(), l.cols(), b.rows(), b.cols()),
        });
    }
    let m = b.rows();
    right_solve(Subst::from_env(), l, b.as_mut_slice(), n, m, None)
}

/// Solves `X·Lᵀ = B` in place for the `m×n` block `B` whose rows start
/// at `b[i·ldb]` (`n = L`'s order), and when `x` is given also writes
/// `X` row-major (`m×n`, dense) there. Above [`TRSM_BLOCK`] columns it
/// is blocked: each `TRSM_BLOCK`-column block's substitution, then an
/// in-place GEMM of the columns right of it by the block just solved,
/// read from `x` (or a pooled copy of the block when `x` is `None`).
/// A zero diagonal is reported as the first one in substitution order,
/// and only when `m > 0`.
pub(crate) fn right_solve(
    kern: Subst,
    l: &Matrix<f64>,
    b: &mut [f64],
    ldb: usize,
    m: usize,
    mut x: Option<&mut [f64]>,
) -> Result<(), SolverError> {
    let n = l.rows();
    if m == 0 || n == 0 {
        return Ok(());
    }
    // Every row meets the diagonals in the same ascending order, so the
    // first zero one is the first any row would hit.
    if let Some(j) = (0..n).find(|&j| l.get(j, j) == 0.0) {
        return Err(SolverError::Singular { index: j });
    }
    let backend = Auto::from_env();
    let mut copy = None;
    for jb in (0..n).step_by(TRSM_BLOCK) {
        let nb = TRSM_BLOCK.min(n - jb);
        let rest = n - jb - nb;
        let l11 = Tri {
            data: &l.as_slice()[jb * n + jb..],
            n: nb,
            rs: n,
            cs: 1,
        };
        // Where `X₁` goes besides `B`: the caller's copy, or a pooled
        // one when a GEMM below must read it.
        let out = match x.as_deref_mut() {
            Some(x) => Some((&mut x[jb..], n)),
            None if rest > 0 => {
                let copy = copy.get_or_insert_with(|| {
                    let mut v = mc_compute::acquire::<f64>(m * nb);
                    v.resize(m * nb, 0.0);
                    v
                });
                Some((&mut copy[..], nb))
            }
            None => None,
        };
        solve_right_rows(kern, l11, &mut b[jb..], ldb, m, out);
        if rest > 0 {
            // B₃ ← B₃ − X₁·L₃₁ᵀ in place, with L₃₁ the rows still to
            // solve (a transposed view of `L`).
            let (x1, ldx) = match x.as_deref() {
                Some(x) => (&x[jb..], n),
                None => (&copy.as_deref().expect("made above")[..], nb),
            };
            let params = GemmParams::new(m, rest, nb)
                .with_scaling(-1.0, 1.0)
                .with_transposes(Trans::None, Trans::Trans)
                .with_leading_dims(ldx, n, ldb);
            backend
                .gemm_in_place::<f64, f64, f64>(
                    &params,
                    x1,
                    &l.as_slice()[(jb + nb) * n + jb..],
                    &mut b[jb + nb..],
                )
                .expect("solver gemm shapes are validated by construction");
        }
    }
    Ok(())
}

/// Fewest rows per chunk of a right solve, so solves of a few rows
/// stay on one thread.
const PAR_MIN_ROWS: usize = 16;

/// Solves `X·Lᵀ = B` in place on the first `L.n` columns of the `m`
/// rows of `b` at leading dimension `ldb`, with the rows split into
/// contiguous chunks across the pool; `out` (a slice and its leading
/// dimension) gets a copy of `X` when given. The diagonal of `L` is
/// nonzero.
fn solve_right_rows(
    kern: Subst,
    l: Tri,
    b: &mut [f64],
    ldb: usize,
    m: usize,
    out: Option<(&mut [f64], usize)>,
) {
    let n = l.n;
    let rows = m.div_ceil(rayon::current_num_threads()).max(PAR_MIN_ROWS);
    let b = &mut b[..(m - 1) * ldb + n];
    match out {
        Some((o, ldo)) => {
            let copies = o[..(m - 1) * ldo + n].chunks_mut(rows * ldo);
            let jobs: Vec<_> = b.chunks_mut(rows * ldb).zip(copies).collect();
            jobs.into_par_iter().for_each(|(chunk, copy)| {
                solve_rows_transposed(kern, l, chunk, ldb, Some((copy, ldo)))
            });
        }
        None => b
            .par_chunks_mut(rows * ldb)
            .for_each(|chunk| solve_rows_transposed(kern, l, chunk, ldb, None)),
    }
}

/// Solves `X·Lᵀ = B` in place for the rows of `B` in `chunk` (leading
/// dimension `ldb`, the first `L.n` columns) as the transposed system
/// `L·Xᵀ = Bᵀ`, run row-oriented like the left solves: row `j` of `Xᵀ`
/// is row `j` of `Bᵀ` minus `L[j][k]`·(row `k` of `Xᵀ`) over ascending
/// `k`, then the divide by `L[j][j]`. Each element keeps the chain of
/// the dot-product form, vectorized across the rows instead of
/// serialized along one. The rows are gathered straight from `B` into a
/// pooled transposed scratch and scattered back once: into `copy` (a
/// slice and its leading dimension) and from its rows into `B`, or
/// straight into `B` when there is no copy. The diagonal is nonzero.
fn solve_rows_transposed(
    kern: Subst,
    l: Tri,
    chunk: &mut [f64],
    ldb: usize,
    copy: Option<(&mut [f64], usize)>,
) {
    let n = l.n;
    let r = chunk.len().div_ceil(ldb);
    let mut t = mc_compute::acquire::<f64>(n * r);
    t.resize(n * r, 0.0);
    gather_columns(chunk, ldb, 0, (r, n), &mut t);
    let mut rows: Vec<&mut [f64]> = t.chunks_exact_mut(r).collect();
    kern.solve(
        &mut rows,
        Uplo::Lower,
        |j, k| l.get(j, k),
        |j| Some(l.get(j, j)),
    );
    match copy {
        Some((copy, ldo)) => {
            scatter_columns(&t, (r, n), copy, ldo, 0);
            for (row, solved) in chunk.chunks_mut(ldb).zip(copy.chunks(ldo)) {
                row[..n].copy_from_slice(&solved[..n]);
            }
        }
        None => scatter_columns(&t, (r, n), chunk, ldb, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subst::STRIP;

    fn lower3() -> Matrix<f64> {
        Matrix::from_slice(3, 3, &[2.0, 0.0, 0.0, 1.0, 3.0, 0.0, 4.0, 5.0, 6.0])
    }

    /// A well-conditioned lower-triangular test matrix.
    fn lower_n(n: usize) -> Matrix<f64> {
        Matrix::from_fn(n, n, |i, j| {
            if j > i {
                0.0
            } else if i == j {
                2.0 + (i % 5) as f64
            } else {
                ((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.5
            }
        })
    }

    #[test]
    fn left_lower_solves() {
        let l = lower3();
        // Choose X, compute B = L X, recover X.
        let x_true = Matrix::from_slice(3, 2, &[1.0, 2.0, -1.0, 0.5, 3.0, -2.0]);
        let mut b = Matrix::zeros(3, 2);
        for i in 0..3 {
            for j in 0..2 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += l.get(i, k) * x_true.get(k, j);
                }
                b.set(i, j, s);
            }
        }
        trsm_left_lower(&l, &mut b, false).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert!((b.get(i, j) - x_true.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn unit_diagonal_ignores_stored_diagonal() {
        let mut l = lower3();
        l.set(0, 0, 999.0); // must be ignored with unit_diag
        l.set(1, 1, 999.0);
        l.set(2, 2, 999.0);
        let mut b = Matrix::from_slice(3, 1, &[1.0, 2.0, 3.0]);
        trsm_left_lower(&l, &mut b, true).unwrap();
        // Forward substitution with unit diagonal:
        // x0 = 1; x1 = 2 - 1*1 = 1; x2 = 3 - 4*1 - 5*1 = -6.
        assert_eq!(b.get(0, 0), 1.0);
        assert_eq!(b.get(1, 0), 1.0);
        assert_eq!(b.get(2, 0), -6.0);
    }

    #[test]
    fn right_lower_transpose_solves() {
        let l = lower3();
        let x_true = Matrix::from_slice(2, 3, &[1.0, -2.0, 0.5, 2.0, 1.0, -1.0]);
        // B = X * L^T.
        let mut b = Matrix::zeros(2, 3);
        for i in 0..2 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += x_true.get(i, k) * l.get(j, k);
                }
                b.set(i, j, s);
            }
        }
        trsm_right_lower_transpose(&l, &mut b).unwrap();
        for i in 0..2 {
            for j in 0..3 {
                assert!((b.get(i, j) - x_true.get(i, j)).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn upper_back_substitution() {
        let u = Matrix::from_slice(2, 2, &[2.0, 1.0, 0.0, 4.0]);
        let mut b = Matrix::from_slice(2, 1, &[5.0, 8.0]);
        trsm_left_upper(&u, &mut b).unwrap();
        assert_eq!(b.get(1, 0), 2.0);
        assert_eq!(b.get(0, 0), 1.5);
    }

    #[test]
    fn singular_and_mismatch_rejected() {
        let mut z = lower3();
        z.set(1, 1, 0.0);
        let mut b = Matrix::zeros(3, 1);
        assert!(matches!(
            trsm_left_lower(&z, &mut b, false),
            Err(SolverError::Singular { index: 1 })
        ));
        let mut wrong = Matrix::zeros(2, 1);
        assert!(matches!(
            trsm_left_lower(&lower3(), &mut wrong, false),
            Err(SolverError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn blocked_left_lower_matches_naive_path() {
        let n = 3 * TRSM_BLOCK + 17; // straddles block boundaries
        let l = lower_n(n);
        let x_true = Matrix::from_fn(n, 5, |i, j| ((i * 13 + j * 5) % 9) as f64 - 4.0);
        let mut b = Matrix::zeros(n, 5);
        for i in 0..n {
            for j in 0..5 {
                let mut s = 0.0;
                for k in 0..n {
                    s += l.get(i, k) * x_true.get(k, j);
                }
                b.set(i, j, s);
            }
        }
        trsm_left_lower(&l, &mut b, false).unwrap();
        for i in 0..n {
            for j in 0..5 {
                assert!(
                    (b.get(i, j) - x_true.get(i, j)).abs() < 1e-8,
                    "({i},{j}): {} vs {}",
                    b.get(i, j),
                    x_true.get(i, j)
                );
            }
        }
    }

    #[test]
    fn blocked_right_lower_transpose_recovers_x() {
        let n = 2 * TRSM_BLOCK + 9;
        let m = 23;
        let l = lower_n(n);
        let x_true = Matrix::from_fn(m, n, |i, j| ((i * 3 + j * 7) % 13) as f64 / 6.0 - 1.0);
        let mut b = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += x_true.get(i, k) * l.get(j, k);
                }
                b.set(i, j, s);
            }
        }
        trsm_right_lower_transpose(&l, &mut b).unwrap();
        for i in 0..m {
            for j in 0..n {
                assert!((b.get(i, j) - x_true.get(i, j)).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    fn blocked_left_upper_recovers_x() {
        let n = 2 * TRSM_BLOCK + 31;
        let u = lower_n(n).transposed();
        let x_true = Matrix::from_fn(n, 4, |i, j| ((i * 5 + j * 11) % 7) as f64 - 3.0);
        let mut b = Matrix::zeros(n, 4);
        for i in 0..n {
            for j in 0..4 {
                let mut s = 0.0;
                for k in 0..n {
                    s += u.get(i, k) * x_true.get(k, j);
                }
                b.set(i, j, s);
            }
        }
        trsm_left_upper(&u, &mut b).unwrap();
        for i in 0..n {
            for j in 0..4 {
                assert!((b.get(i, j) - x_true.get(i, j)).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    fn blocked_singular_index_is_global() {
        let n = TRSM_BLOCK + 40;
        let mut l = lower_n(n);
        let bad = TRSM_BLOCK + 7;
        l.set(bad, bad, 0.0);
        let mut b = Matrix::zeros(n, 2);
        assert!(matches!(
            trsm_left_lower(&l, &mut b, false),
            Err(SolverError::Singular { index }) if index == bad
        ));
    }

    #[test]
    fn blocked_right_lower_transpose_singular_index_is_global() {
        let n = 2 * TRSM_BLOCK + 9;
        let mut l = lower_n(n);
        let bad = TRSM_BLOCK + 11;
        l.set(bad, bad, 0.0);
        let mut b = Matrix::zeros(3, n);
        assert!(matches!(
            trsm_right_lower_transpose(&l, &mut b),
            Err(SolverError::Singular { index }) if index == bad
        ));
    }

    /// The dot-product form of `X·Lᵀ = B`, one row at a time: the chain
    /// every element of the right solve must keep.
    fn right_solve_reference(l: &Matrix<f64>, b: &mut Matrix<f64>) {
        let n = l.rows();
        for xrow in b.as_mut_slice().chunks_exact_mut(n) {
            for j in 0..n {
                let (solved, rest) = xrow.split_at_mut(j);
                let mut x = rest[0];
                for (k, &xk) in solved.iter().enumerate() {
                    x -= xk * l.get(j, k);
                }
                rest[0] = x / l.get(j, j);
            }
        }
    }

    #[test]
    fn parallel_right_solve_keeps_every_chain_at_every_pool_size() {
        let n = TRSM_BLOCK - 3;
        let l = Matrix::from_fn(n, n, |i, j| {
            if j > i {
                0.0
            } else if i == j {
                1.5 + ((i * 7) % 5) as f64 / 3.0
            } else {
                ((i * 13 + j * 29) % 97) as f64 / 97.0 - 0.5
            }
        });
        for threads in [1, 2, 3] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .unwrap();
            // Each worker's rows are the row-blocked body's columns: counts
            // just under, at and over one and two whole strips.
            for m in [
                1,
                PAR_MIN_ROWS - 1,
                PAR_MIN_ROWS + 1,
                3 * PAR_MIN_ROWS + 2,
                STRIP - 1,
                STRIP,
                STRIP + 1,
                2 * STRIP - 1,
                2 * STRIP + 1,
                101,
            ] {
                let b = Matrix::from_fn(m, n, |i, j| ((i * 31 + j * 17) % 23) as f64 / 7.0 - 1.5);
                let (mut got, mut want) = (b.clone(), b);
                trsm_right_lower_transpose(&l, &mut got).unwrap();
                right_solve_reference(&l, &mut want);
                let bits = |x: &Matrix<f64>| -> Vec<u64> {
                    x.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&got), bits(&want), "m={m} threads={threads}");
            }
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
    }

    /// `potrf`'s panel solve: `B` in place inside a wider buffer, with
    /// `X` also written row-major to a copy. Unblocked and blocked, at
    /// pool sizes 1–3, it gives `trsm_right_lower_transpose`'s bits in
    /// both places and leaves the buffer's other columns alone.
    #[test]
    fn right_solve_in_place_writes_the_same_x_to_its_copy() {
        for threads in [1, 2, 3] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .unwrap();
            for (n, m) in [(TRSM_BLOCK - 3, 101), (2 * TRSM_BLOCK + 9, 23)] {
                let l = lower_n(n);
                let b = Matrix::from_fn(m, n, |i, j| ((i * 31 + j * 17) % 23) as f64 / 7.0 - 1.5);
                let mut want = b.clone();
                trsm_right_lower_transpose(&l, &mut want).unwrap();
                let (ldb, c0) = (n + 9, 4);
                let mut wide = vec![f64::NAN; m * ldb];
                for (i, row) in b.as_slice().chunks_exact(n).enumerate() {
                    wide[i * ldb + c0..i * ldb + c0 + n].copy_from_slice(row);
                }
                let mut copy = vec![0.0; m * n];
                let kern = Subst::from_env();
                right_solve(kern, &l, &mut wide[c0..], ldb, m, Some(&mut copy)).unwrap();
                let bits = |x: &[f64]| -> Vec<u64> { x.iter().map(|v| v.to_bits()).collect() };
                assert_eq!(bits(&copy), bits(want.as_slice()), "copy n={n} m={m}");
                for (i, row) in wide.chunks_exact(ldb).enumerate() {
                    let what = format!("n={n} m={m} row {i} threads={threads}");
                    assert_eq!(bits(&row[c0..c0 + n]), bits(want.row(i)), "{what}");
                    assert!(
                        row[..c0].iter().chain(&row[c0 + n..]).all(|x| x.is_nan()),
                        "{what}"
                    );
                }
            }
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
    }

    /// The serial scalar substitution loops the column-parallel
    /// kernel replaced (`unit` only applies to the lower solve): the
    /// chain every element of a left solve must keep.
    fn left_solve_reference(t: &Matrix<f64>, b: &mut Matrix<f64>, lower: bool, unit: bool) {
        let (n, ncols) = (t.rows(), b.cols());
        let x = b.as_mut_slice();
        let order: Vec<usize> = if lower {
            (0..n).collect()
        } else {
            (0..n).rev().collect()
        };
        for i in order {
            let ks = if lower { 0..i } else { i + 1..n };
            for k in ks {
                let tik = t.get(i, k);
                for c in 0..ncols {
                    let v = x[k * ncols + c];
                    x[i * ncols + c] -= tik * v;
                }
            }
            if lower && unit {
                continue;
            }
            let d = t.get(i, i);
            for c in 0..ncols {
                x[i * ncols + c] /= d;
            }
        }
    }

    #[test]
    fn parallel_left_solves_keep_every_chain_at_every_pool_size() {
        let n = TRSM_BLOCK - 5;
        let l = lower_n(n);
        let u = l.transposed();
        for threads in [1, 2, 3] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .unwrap();
            // Counts just under, at and over one and two whole strips
            // of the row-blocked body.
            for ncols in [
                1,
                PAR_MIN_COLS - 1,
                PAR_MIN_COLS + 1,
                3 * PAR_MIN_COLS + 2,
                STRIP - 1,
                STRIP,
                STRIP + 1,
                2 * STRIP - 1,
                2 * STRIP + 1,
                101,
            ] {
                let b =
                    Matrix::from_fn(n, ncols, |i, j| ((i * 31 + j * 17) % 23) as f64 / 7.0 - 1.5);
                let bits = |x: &Matrix<f64>| -> Vec<u64> {
                    x.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                for unit in [false, true] {
                    let (mut got, mut want) = (b.clone(), b.clone());
                    trsm_left_lower(&l, &mut got, unit).unwrap();
                    left_solve_reference(&l, &mut want, true, unit);
                    assert_eq!(bits(&got), bits(&want), "lower unit={unit} ncols={ncols}");
                }
                let (mut got, mut want) = (b.clone(), b);
                trsm_left_upper(&u, &mut got).unwrap();
                left_solve_reference(&u, &mut want, false, false);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "upper ncols={ncols} threads={threads}"
                );
            }
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
    }

    #[test]
    fn column_major_triangle_solves_like_its_row_major_copy() {
        // getrf reads L11 from its column-major panel: a strided view of
        // the transpose must give the row-major solve's bits, blocked
        // (n > TRSM_BLOCK) and not, with B inside a wider buffer.
        for n in [TRSM_BLOCK - 3, 2 * TRSM_BLOCK + 9] {
            let l = lower_n(n);
            let lt = l.transposed();
            let ncols = 21;
            let b = Matrix::from_fn(n, ncols, |i, j| ((i * 13 + j * 5) % 9) as f64 - 4.0);
            let mut want = b.clone();
            trsm_left_lower(&l, &mut want, true).unwrap();
            let ldb = ncols + 7;
            let mut wide = vec![f64::NAN; n * ldb];
            for (i, row) in b.as_slice().chunks_exact(ncols).enumerate() {
                wide[i * ldb..i * ldb + ncols].copy_from_slice(row);
            }
            let t = Tri::col_major(lt.as_slice(), n, n);
            let (kern, backend) = (Subst::from_env(), Auto::from_env());
            left_solve(kern, &backend, Uplo::Lower, t, true, &mut wide, ldb, ncols).unwrap();
            for (i, row) in wide.chunks_exact(ldb).enumerate() {
                for (j, x) in row.iter().enumerate() {
                    if j < ncols {
                        assert_eq!(x.to_bits(), want.get(i, j).to_bits(), "n={n} ({i},{j})");
                    } else {
                        assert!(x.is_nan(), "n={n}: padding ({i},{j}) written");
                    }
                }
            }
        }
    }

    #[test]
    fn right_lower_transpose_reports_the_first_zero_diagonal() {
        for (n, zeros) in [
            (40, [7, 23]),
            (2 * TRSM_BLOCK + 9, [TRSM_BLOCK + 3, TRSM_BLOCK + 20]),
        ] {
            let mut l = lower_n(n);
            for z in zeros {
                l.set(z, z, 0.0);
            }
            let mut b = Matrix::from_fn(50, n, |i, j| (i + j) as f64);
            assert!(matches!(
                trsm_right_lower_transpose(&l, &mut b),
                Err(SolverError::Singular { index }) if index == zeros[0]
            ));
        }
    }

    #[test]
    fn blocked_left_upper_singular_index_is_global() {
        let n = 2 * TRSM_BLOCK + 31;
        let mut u = lower_n(n).transposed();
        // Back substitution meets the bottom-most zero first.
        let (early, bad) = (5, TRSM_BLOCK + 3);
        u.set(early, early, 0.0);
        u.set(bad, bad, 0.0);
        let mut b = Matrix::zeros(n, 2);
        assert!(matches!(
            trsm_left_upper(&u, &mut b),
            Err(SolverError::Singular { index }) if index == bad
        ));
    }

    #[test]
    fn zero_diagonal_with_empty_rhs_is_ok() {
        for n in [3, TRSM_BLOCK + 40] {
            let mut l = lower_n(n);
            l.set(1, 1, 0.0);
            let u = l.transposed();
            let mut no_cols = Matrix::zeros(n, 0);
            assert_eq!(trsm_left_lower(&l, &mut no_cols, false), Ok(()), "n={n}");
            assert_eq!(trsm_left_upper(&u, &mut no_cols), Ok(()), "n={n}");
            let mut no_rows = Matrix::zeros(0, n);
            assert_eq!(
                trsm_right_lower_transpose(&l, &mut no_rows),
                Ok(()),
                "n={n}"
            );
        }
    }
}
