//! Blocked LU factorization with partial pivoting (LAPACK `DGETRF`).
//!
//! Right-looking blocked algorithm: factor a column panel with row
//! pivoting, apply the pivots across the matrix, triangular-solve the
//! block row, then rank-`nb` update the trailing matrix through the
//! [`mc_blas`] GEMM path. Nothing but the panel is copied:
//!
//! * the panel is factored in a column-major `(n−k) × nb` scratch, so
//!   the pivot search and the `x −= l·u` updates run down contiguous
//!   columns on the solver's dispatched substitution kernel; the row
//!   exchanges outside the panel columns go straight to the factor, and
//!   the panel is written back once;
//! * `U₁₂` is solved in place in the factor's block row, with `L₁₁`
//!   read from the panel, its right-hand-side columns split across the
//!   rayon pool;
//! * `A₂₂ ← A₂₂ − L₂₁·U₁₂` is one in-place strided GEMM: `A` is the
//!   panel's rows below `L₁₁` (transposed view, leading dimension
//!   `n − k`), `B` is `U₁₂` and `C`/`D` is `A₂₂`, both at leading
//!   dimension `n`.
//!
//! Every element sees the operations of the row-major, copying
//! factorization in the same order — the strict `>` pivot rule (first
//! maximum wins), each element's ascending-`j` update chain, and the
//! GEMM's chain — so the factor and `ipiv` are bit for bit what that
//! algorithm gives; a test keeps it as the reference.

use mc_blas::{
    host_gemm_backend, run_functional_in_place_with, select_strategy, GemmDesc, GemmOp, Transpose,
};

use crate::matrix::{gather_columns, scatter_columns, Matrix};
use crate::subst::Subst;
use crate::trsm::{left_solve, trsm_left_lower, Tri, Uplo};
use crate::SolverError;

/// The result of an LU factorization: `P·A = L·U` packed LAPACK-style
/// (unit-lower `L` below the diagonal, `U` on and above), plus the
/// pivot row `ipiv[k]` swapped with row `k` at step `k`.
#[derive(Clone, Debug, PartialEq)]
pub struct Lu {
    /// Packed L\U factors.
    pub lu: Matrix<f64>,
    /// Pivot indices (LAPACK `ipiv`, 0-based).
    pub ipiv: Vec<usize>,
}

impl Lu {
    /// Solves `A·x = b` using the packed factors.
    pub fn solve(&self, b: &Matrix<f64>) -> Result<Matrix<f64>, SolverError> {
        let n = self.lu.rows();
        if b.rows() != n {
            return Err(SolverError::ShapeMismatch {
                what: format!("rhs has {} rows, factor is {n}x{n}", b.rows()),
            });
        }
        // Apply the pivots to b.
        let mut y = b.clone();
        for (k, &p) in self.ipiv.iter().enumerate() {
            y.swap_rows(k, p);
        }
        // Forward (unit lower), then backward (upper).
        trsm_left_lower(&self.lu, &mut y, true)?;
        crate::trsm::trsm_left_upper(&self.lu, &mut y)?;
        Ok(y)
    }
}

/// Factorizes `A` as `P·A = L·U` with partial pivoting.
pub fn getrf(a: &Matrix<f64>, block: usize) -> Result<Lu, SolverError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SolverError::ShapeMismatch {
            what: format!("GETRF needs square input, got {}x{}", a.rows(), a.cols()),
        });
    }
    let nb = block.max(1);
    let mut w = a.clone();
    let mut ipiv = vec![0usize; n];
    // Each reads the environment, so both are resolved once per
    // factorization.
    let (backend, kern) = (host_gemm_backend(), Subst::from_env());
    // The column-major panel of the first (tallest) step, reused by
    // every later one at leading dimension `n − k`.
    let mut panel = vec![0.0f64; n * nb.min(n)];

    let mut k = 0;
    while k < n {
        let b = nb.min(n - k);
        let m = n - k;
        let p = &mut panel[..m * b];
        let wd = w.as_mut_slice();

        // 1. Panel factorization with partial pivoting over rows k..n,
        //    on the column-major copy of columns k..k+b.
        gather_columns(&wd[k * n..], n, k, (m, b), p);
        for j in 0..b {
            // Pivot search down the contiguous column (first maximum).
            let col = &p[j * m..(j + 1) * m];
            let (mut piv, mut best) = (j, col[j].abs());
            for (i, v) in col.iter().enumerate().skip(j + 1) {
                if v.abs() > best {
                    best = v.abs();
                    piv = i;
                }
            }
            if best == 0.0 {
                return Err(SolverError::Singular { index: k + j });
            }
            ipiv[k + j] = k + piv;
            if piv != j {
                for c in p.chunks_exact_mut(m) {
                    c.swap(j, piv);
                }
                // The rest of the two rows, outside the panel columns.
                let (top, bottom) = wd.split_at_mut((k + piv) * n);
                let (r1, r2) = (&mut top[(k + j) * n..(k + j + 1) * n], &mut bottom[..n]);
                r1[..k].swap_with_slice(&mut r2[..k]);
                r1[k + b..].swap_with_slice(&mut r2[k + b..]);
            }
            // Scale the column, then update the panel columns right of
            // it: `x −= l·u` with `u` the pivot row's element.
            let (left, right) = p.split_at_mut((j + 1) * m);
            let l = &mut left[j * m + j..];
            let d = l[0];
            let l = &mut l[1..];
            kern.div(l, d);
            for c in right.chunks_exact_mut(m) {
                let u = c[j];
                kern.sub_scaled(&mut c[j + 1..], u, l);
            }
        }
        scatter_columns(p, (m, b), &mut wd[k * n..], n, k);

        let rest = m - b;
        if rest > 0 {
            let (top, bottom) = wd.split_at_mut((k + b) * n);
            let u12 = &mut top[k * n + k + b..];
            // 2. Block-row solve in place: U12 <- L11^-1 · A12 (unit
            //    lower), with L11 read from the panel.
            let l11 = Tri::col_major(p, b, m);
            left_solve(kern, &backend, Uplo::Lower, l11, true, u12, n, rest)?;

            // 3. Trailing update in place: A22 <- A22 - L21 · U12 via
            //    GEMM, with L21 the panel's rows b.. (transposed view).
            let desc = GemmDesc {
                trans_a: Transpose::Trans,
                ..GemmDesc::new(GemmOp::Dgemm, rest, rest, b, -1.0, 1.0)
            };
            run_functional_in_place_with::<f64, f64, f64>(
                &backend,
                &desc,
                &select_strategy(&desc),
                (m, n, n),
                &p[b..],
                u12,
                &mut bottom[k + b..],
            )
            .map_err(|e| SolverError::Blas(e.to_string()))?;
        }
        k += b;
    }

    Ok(Lu { lu: w, ipiv })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(n: usize) -> Matrix<f64> {
        // Diagonally dominant-ish but with pivoting-forcing structure.
        Matrix::from_fn(n, n, |i, j| {
            let v = (((i * 7 + j * 13) % 19) as f64) - 9.0;
            if i == j {
                v + 0.5 // small diagonal: pivoting must kick in
            } else {
                v
            }
        })
    }

    fn residual(a: &Matrix<f64>, lu: &Lu, x: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
        let _ = lu;
        let n = a.rows();
        let mut max = 0.0f64;
        for i in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += a.get(i, k) * x.get(k, 0);
            }
            max = max.max((s - b.get(i, 0)).abs());
        }
        max / b.max_abs().max(1.0)
    }

    #[test]
    fn factor_and_solve_various_sizes() {
        for n in [1usize, 5, 33, 64, 129] {
            let a = test_matrix(n);
            let lu = getrf(&a, 32).unwrap();
            let x_true = Matrix::from_fn(n, 1, |i, _| ((i % 9) as f64) - 4.0);
            let mut b = Matrix::zeros(n, 1);
            for i in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a.get(i, k) * x_true.get(k, 0);
                }
                b.set(i, 0, s);
            }
            let x = lu.solve(&b).unwrap();
            assert!(residual(&a, &lu, &x, &b) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn pivoting_actually_happens() {
        // First pivot must not be the (tiny) diagonal element.
        let mut a = test_matrix(16);
        a.set(0, 0, 1e-12);
        a.set(8, 0, 100.0);
        let lu = getrf(&a, 8).unwrap();
        assert_eq!(lu.ipiv[0], 8);
        // All multipliers bounded by 1 in magnitude (partial pivoting).
        for i in 0..16 {
            for j in 0..i {
                assert!(lu.lu.get(i, j).abs() <= 1.0 + 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn block_size_invariance() {
        let a = test_matrix(96);
        let x = Matrix::from_fn(96, 1, |i, _| (i as f64).sin());
        let mut b = Matrix::zeros(96, 1);
        for i in 0..96 {
            let mut s = 0.0;
            for k in 0..96 {
                s += a.get(i, k) * x.get(k, 0);
            }
            b.set(i, 0, s);
        }
        let s1 = getrf(&a, 8).unwrap().solve(&b).unwrap();
        let s2 = getrf(&a, 96).unwrap().solve(&b).unwrap();
        for i in 0..96 {
            assert!((s1.get(i, 0) - s2.get(i, 0)).abs() < 1e-6, "row {i}");
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = test_matrix(8);
        for j in 0..8 {
            a.set(3, j, 0.0); // zero row -> singular at some pivot
        }
        // Make column 3 otherwise zero below too to force exact zero pivot.
        for i in 0..8 {
            a.set(i, 3, 0.0);
        }
        assert!(matches!(getrf(&a, 4), Err(SolverError::Singular { .. })));
    }

    #[test]
    fn singular_index_is_the_global_column() {
        // A zero column stays exactly zero through every elimination
        // and trailing update, so its pivot is the first exact zero;
        // it sits in a later block step (n > nb).
        for (n, nb, col) in [(100, 32, 70), (130, 64, 100), (40, 8, 8), (9, 4, 8)] {
            let mut a = Matrix::from_fn(n, n, |i, j| {
                let v = (((i * 7 + j * 13) % 19) as f64) - 9.0;
                if i == j {
                    v + 4.0 * n as f64
                } else {
                    v
                }
            });
            for i in 0..n {
                a.set(i, col, 0.0);
            }
            assert_eq!(
                getrf(&a, nb),
                Err(SolverError::Singular { index: col }),
                "n={n} nb={nb}"
            );
        }
    }

    /// The row-major, copying factorization the column-major panel and
    /// the in-place updates replaced: a row-wise panel on `w` itself,
    /// then gathered `L11`, `U12`, `L21` and `A22` blocks, a dense GEMM
    /// into a fresh output and a write-back. Kept as the bit-for-bit
    /// reference.
    fn getrf_reference(a: &Matrix<f64>, nb: usize) -> Result<Lu, SolverError> {
        use mc_blas::run_functional;
        let n = a.rows();
        let mut w = a.clone();
        let mut ipiv = vec![0usize; n];
        let mut k = 0;
        while k < n {
            let b = nb.min(n - k);
            #[allow(clippy::needless_range_loop)] // j indexes both w and ipiv
            for j in k..k + b {
                let mut piv = j;
                let mut best = w.get(j, j).abs();
                for i in j + 1..n {
                    let v = w.get(i, j).abs();
                    if v > best {
                        best = v;
                        piv = i;
                    }
                }
                if best == 0.0 {
                    return Err(SolverError::Singular { index: j });
                }
                ipiv[j] = piv;
                w.swap_rows(j, piv);
                let (top, below) = w.as_mut_slice().split_at_mut((j + 1) * n);
                let pivot_row = &top[j * n + j..j * n + k + b];
                let d = pivot_row[0];
                for row in below.chunks_exact_mut(n) {
                    let l = row[j] / d;
                    row[j] = l;
                    for (x, &u) in row[j + 1..k + b].iter_mut().zip(&pivot_row[1..]) {
                        *x -= l * u;
                    }
                }
            }
            let rest = n - k - b;
            if rest > 0 {
                let l11 = w.block(k, k, b, b);
                let mut u12 = w.block(k, k + b, b, rest);
                trsm_left_lower(&l11, &mut u12, true)?;
                w.set_block(k, k + b, &u12);
                let l21 = w.block(k + b, k, rest, b);
                let c = w.block(k + b, k + b, rest, rest);
                let mut d = Matrix::zeros(rest, rest);
                let desc = GemmDesc::new(GemmOp::Dgemm, rest, rest, b, -1.0, 1.0);
                run_functional::<f64, f64, f64>(
                    &desc,
                    &select_strategy(&desc),
                    l21.as_slice(),
                    u12.as_slice(),
                    c.as_slice(),
                    d.as_mut_slice(),
                )
                .map_err(|e| SolverError::Blas(e.to_string()))?;
                w.set_block(k + b, k + b, &d);
            }
            k += b;
        }
        Ok(Lu { lu: w, ipiv })
    }

    #[test]
    fn matches_the_copying_reference_bit_for_bit_at_every_pool_size() {
        let bits = |lu: &Lu| -> Vec<u64> { lu.lu.as_slice().iter().map(|v| v.to_bits()).collect() };
        for workers in [1, 2, 3] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build_global()
                .unwrap();
            for n in [1usize, 5, 33, 64, 65, 129] {
                let a = Matrix::from_fn(n, n, |i, j| {
                    (((i * 31 + j * 17 + 5) % 23) as f64) / 7.0 - 1.5
                        + if i == j { 0.1 } else { 0.0 }
                });
                for nb in [1, 8, 32, 64, 96] {
                    let (got, want) = (getrf(&a, nb).unwrap(), getrf_reference(&a, nb).unwrap());
                    assert_eq!(got.ipiv, want.ipiv, "n={n} nb={nb} workers={workers}");
                    assert_eq!(bits(&got), bits(&want), "n={n} nb={nb} workers={workers}");
                }
            }
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
    }

    #[test]
    fn rhs_shape_checked() {
        let a = test_matrix(8);
        let lu = getrf(&a, 4).unwrap();
        let bad = Matrix::<f64>::zeros(5, 1);
        assert!(matches!(
            lu.solve(&bad),
            Err(SolverError::ShapeMismatch { .. })
        ));
    }
}
