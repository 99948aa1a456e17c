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
//! The substitution loops work on contiguous rows of the row-major
//! operands. The left solves are row-oriented: row `i` of `X` is row
//! `i` of `B` minus `L[i][k]`·(row `k` of `X`) over ascending `k`, then
//! the divide by the diagonal — per element the same chain, in the
//! same order, as column-at-a-time substitution, without striding down
//! a column. The right solve (the Cholesky panel update) has
//! independent rows: it splits them into contiguous chunks across the
//! rayon pool and solves each chunk's transposed system `L·Xᵀ = Bᵀ` in
//! that same row-oriented form, so every element still subtracts
//! `X[k]·L[j][k]` over ascending `k` from `B` and then divides. A zero
//! diagonal is reported as the first one met in substitution order,
//! and only when `B` is non-empty.

use mc_compute::{GemmParams, MatMul, Trans};
use rayon::prelude::*;

use crate::matrix::Matrix;
use crate::SolverError;

/// Unknowns per substitution block; solves at or below this size run
/// the plain substitution loops.
pub const TRSM_BLOCK: usize = 64;

/// Runs `D ← α·A·B + β·C` on the shared GEMM dispatch (solver-internal
/// shapes are always in-bounds, so the buffer check cannot fail). The
/// [`mc_compute::Auto`] crossover keeps the frequent small panel
/// updates off the packed tiers' packing toll without changing a bit
/// of the result; large rank-k updates land on the f64 SIMD
/// microkernel when the vector unit allows, the scalar blocked kernel
/// otherwise — bitwise identical either way.
fn gemm_update(params: &GemmParams, a: &[f64], b: &[f64], c: &[f64], d: &mut [f64]) {
    mc_compute::Auto::from_env()
        .gemm::<f64, f64, f64>(params, a, b, c, d)
        .expect("solver gemm shapes are validated by construction");
}

/// Offsets a singular-diagonal report from block coordinates to matrix
/// coordinates.
fn offset_singular(e: SolverError, base: usize) -> SolverError {
    match e {
        SolverError::Singular { index } => SolverError::Singular {
            index: index + base,
        },
        other => other,
    }
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
    if n <= TRSM_BLOCK {
        return trsm_left_lower_naive(l, b, unit_diag);
    }
    let ncols = b.cols();
    let mut ib = 0;
    while ib < n {
        let nb = TRSM_BLOCK.min(n - ib);
        let l11 = l.block(ib, ib, nb, nb);
        let mut b1 = b.block(ib, 0, nb, ncols);
        trsm_left_lower_naive(&l11, &mut b1, unit_diag).map_err(|e| offset_singular(e, ib))?;
        b.set_block(ib, 0, &b1);
        let rest = n - ib - nb;
        if rest > 0 {
            // B₂ ← B₂ − L₂₁·X₁ : the bulk of the solve, as a GEMM.
            let l21 = l.block(ib + nb, ib, rest, nb);
            let b2 = b.block(ib + nb, 0, rest, ncols);
            let mut out = Matrix::zeros(rest, ncols);
            gemm_update(
                &GemmParams::new(rest, ncols, nb).with_scaling(-1.0, 1.0),
                l21.as_slice(),
                b1.as_slice(),
                b2.as_slice(),
                out.as_mut_slice(),
            );
            b.set_block(ib + nb, 0, &out);
        }
        ib += nb;
    }
    Ok(())
}

fn trsm_left_lower_naive(
    l: &Matrix<f64>,
    b: &mut Matrix<f64>,
    unit_diag: bool,
) -> Result<(), SolverError> {
    let (n, ncols) = (l.rows(), b.cols());
    if ncols == 0 {
        return Ok(());
    }
    for i in 0..n {
        let (solved, rest) = b.as_mut_slice().split_at_mut(i * ncols);
        let xi = &mut rest[..ncols];
        for (&lik, xk) in l.row(i)[..i].iter().zip(solved.chunks_exact(ncols)) {
            for (x, &v) in xi.iter_mut().zip(xk) {
                *x -= lik * v;
            }
        }
        if !unit_diag {
            let d = l.get(i, i);
            if d == 0.0 {
                return Err(SolverError::Singular { index: i });
            }
            for x in xi.iter_mut() {
                *x /= d;
            }
        }
    }
    Ok(())
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
    if n <= TRSM_BLOCK {
        return trsm_right_lower_transpose_naive(l, b);
    }
    let m = b.rows();
    let mut jb = 0;
    while jb < n {
        let nb = TRSM_BLOCK.min(n - jb);
        let l11 = l.block(jb, jb, nb, nb);
        let mut b1 = b.block(0, jb, m, nb);
        trsm_right_lower_transpose_naive(&l11, &mut b1).map_err(|e| offset_singular(e, jb))?;
        b.set_block(0, jb, &b1);
        let rest = n - jb - nb;
        if rest > 0 {
            // B₃ ← B₃ − X₁·L₃₁ᵀ with L₃₁ the rows still to solve.
            let l31 = l.block(jb + nb, jb, rest, nb);
            let b3 = b.block(0, jb + nb, m, rest);
            let mut out = Matrix::zeros(m, rest);
            gemm_update(
                &GemmParams::new(m, rest, nb)
                    .with_scaling(-1.0, 1.0)
                    .with_transposes(Trans::None, Trans::Trans),
                b1.as_slice(),
                l31.as_slice(),
                b3.as_slice(),
                out.as_mut_slice(),
            );
            b.set_block(0, jb + nb, &out);
        }
        jb += nb;
    }
    Ok(())
}

/// Fewest rows per chunk of a right solve, so solves of a few rows
/// stay on one thread.
const PAR_MIN_ROWS: usize = 16;

fn trsm_right_lower_transpose_naive(
    l: &Matrix<f64>,
    b: &mut Matrix<f64>,
) -> Result<(), SolverError> {
    let n = l.rows();
    if n == 0 || b.rows() == 0 {
        return Ok(());
    }
    // Every row meets the diagonals in the same ascending order, so the
    // first zero one is the first any row would hit.
    if let Some(j) = (0..n).find(|&j| l.get(j, j) == 0.0) {
        return Err(SolverError::Singular { index: j });
    }
    let rows = b
        .rows()
        .div_ceil(rayon::current_num_threads())
        .max(PAR_MIN_ROWS);
    b.as_mut_slice()
        .par_chunks_mut(rows * n)
        .for_each(|chunk| solve_rows_transposed(l, chunk));
    Ok(())
}

/// Solves `X·Lᵀ = B` in place for the whole rows of `B` in `xrows`, as
/// the transposed system `L·Xᵀ = Bᵀ` run row-oriented like the left
/// solves: row `j` of `Xᵀ` is row `j` of `Bᵀ` minus `L[j][k]`·(row `k`
/// of `Xᵀ`) over ascending `k`, then the divide by `L[j][j]`. Each
/// element keeps the chain of the dot-product form, vectorized across
/// the rows instead of serialized along one. The diagonal is nonzero.
fn solve_rows_transposed(l: &Matrix<f64>, xrows: &mut [f64]) {
    let n = l.rows();
    let r = xrows.len() / n;
    let mut t = mc_compute::acquire::<f64>(n * r);
    t.resize(n * r, 0.0);
    for (i, row) in xrows.chunks_exact(n).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            t[j * r + i] = v;
        }
    }
    for j in 0..n {
        let (solved, rest) = t.split_at_mut(j * r);
        let xj = &mut rest[..r];
        for (&ljk, xk) in l.row(j)[..j].iter().zip(solved.chunks_exact(r)) {
            for (x, &v) in xj.iter_mut().zip(xk) {
                *x -= ljk * v;
            }
        }
        let d = l.get(j, j);
        for x in xj.iter_mut() {
            *x /= d;
        }
    }
    for (i, row) in xrows.chunks_exact_mut(n).enumerate() {
        for (j, x) in row.iter_mut().enumerate() {
            *x = t[j * r + i];
        }
    }
}

/// Solves `U·X = B` with `U` upper triangular (back substitution).
pub fn trsm_left_upper(u: &Matrix<f64>, b: &mut Matrix<f64>) -> Result<(), SolverError> {
    let n = u.rows();
    if u.cols() != n || b.rows() != n {
        return Err(SolverError::ShapeMismatch {
            what: format!("U {}x{} vs B {}x{}", u.rows(), u.cols(), b.rows(), b.cols()),
        });
    }
    if n <= TRSM_BLOCK {
        return trsm_left_upper_naive(u, b);
    }
    let ncols = b.cols();
    // Back substitution: blocks bottom-up, each preceded by the rank-k
    // update from the rows already solved below it.
    let blocks = n.div_ceil(TRSM_BLOCK);
    for blk in (0..blocks).rev() {
        let ib = blk * TRSM_BLOCK;
        let nb = TRSM_BLOCK.min(n - ib);
        let below = n - ib - nb;
        let mut b1 = b.block(ib, 0, nb, ncols);
        if below > 0 {
            // B₁ ← B₁ − U₁₂·X₂ with X₂ the already-solved rows below.
            let u12 = u.block(ib, ib + nb, nb, below);
            let x2 = b.block(ib + nb, 0, below, ncols);
            let mut out = Matrix::zeros(nb, ncols);
            gemm_update(
                &GemmParams::new(nb, ncols, below).with_scaling(-1.0, 1.0),
                u12.as_slice(),
                x2.as_slice(),
                b1.as_slice(),
                out.as_mut_slice(),
            );
            b1 = out;
        }
        let u11 = u.block(ib, ib, nb, nb);
        trsm_left_upper_naive(&u11, &mut b1).map_err(|e| offset_singular(e, ib))?;
        b.set_block(ib, 0, &b1);
    }
    Ok(())
}

fn trsm_left_upper_naive(u: &Matrix<f64>, b: &mut Matrix<f64>) -> Result<(), SolverError> {
    let (n, ncols) = (u.rows(), b.cols());
    if ncols == 0 {
        return Ok(());
    }
    for i in (0..n).rev() {
        let (head, solved) = b.as_mut_slice().split_at_mut((i + 1) * ncols);
        let xi = &mut head[i * ncols..];
        for (&uik, xk) in u.row(i)[i + 1..].iter().zip(solved.chunks_exact(ncols)) {
            for (x, &v) in xi.iter_mut().zip(xk) {
                *x -= uik * v;
            }
        }
        let d = u.get(i, i);
        if d == 0.0 {
            return Err(SolverError::Singular { index: i });
        }
        for x in xi.iter_mut() {
            *x /= d;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
            for m in [
                1,
                PAR_MIN_ROWS - 1,
                PAR_MIN_ROWS + 1,
                3 * PAR_MIN_ROWS + 2,
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
