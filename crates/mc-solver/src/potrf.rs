//! Blocked Cholesky factorization (LAPACK `DPOTRF`, lower variant).
//!
//! The right-looking blocked algorithm: factor a diagonal block on
//! scalar arithmetic, triangular-solve the panel below it, then update
//! the trailing matrix — routed through [`mc_blas`]'s functional
//! executor so the update carries Matrix Core tiling and precision
//! semantics, exactly as rocSOLVER delegates to rocBLAS.
//!
//! The trailing update is lower-only, as `rocblas_dsyrk` (and
//! [`mc_blas::syrk`]) computes it: one GEMM per `block`-row stripe of
//! the trailing matrix, over the stripe's columns up to and including
//! its diagonal block, about half the FLOPs of the full square. Both
//! GEMM operands are contiguous row ranges of the solved panel, so
//! they are passed without a copy. Every GEMM tier computes each
//! element with the same chain whatever the problem shape, so the
//! stripes give the lower triangle bit for bit what one full-square
//! GEMM would. The strictly-upper part is never read and is zeroed at
//! the end.

use mc_blas::{run_functional, select_strategy, GemmDesc, GemmOp};

use crate::matrix::Matrix;
use crate::trsm::trsm_right_lower_transpose;
use crate::SolverError;

/// Default block size (matches the GEMM macro-tile granularity).
pub const DEFAULT_BLOCK: usize = 64;

/// Computes the lower Cholesky factor `L` with `A = L·Lᵀ`.
///
/// Returns `L` (strictly-upper part zeroed). Fails with
/// [`SolverError::NotPositiveDefinite`] when a pivot is non-positive.
///
/// ```
/// use mc_solver::{potrf, Matrix};
///
/// // A small SPD matrix: diag-dominant symmetric.
/// let a = Matrix::from_fn(4, 4, |i, j| if i == j { 5.0 } else { 1.0 });
/// let l = potrf(&a, 64).unwrap();
/// // First pivot is sqrt(5).
/// assert!((l.get(0, 0) - 5.0f64.sqrt()).abs() < 1e-12);
/// assert_eq!(l.get(0, 3), 0.0); // upper triangle cleared
/// ```
pub fn potrf(a: &Matrix<f64>, block: usize) -> Result<Matrix<f64>, SolverError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SolverError::ShapeMismatch {
            what: format!("POTRF needs square input, got {}x{}", a.rows(), a.cols()),
        });
    }
    let nb = block.max(1);
    let mut w = a.clone();
    // Trailing-update scratch for the widest stripe (`nb` rows of the
    // first step's `n − nb` columns), reused by every step.
    let cap = nb.min(n) * n.saturating_sub(nb);
    let (mut c_buf, mut out) = (vec![0.0f64; cap], vec![0.0f64; cap]);

    let mut k = 0;
    while k < n {
        let b = nb.min(n - k);

        // 1. Unblocked Cholesky of the diagonal block.
        let mut dkk = w.block(k, k, b, b);
        unblocked_cholesky(&mut dkk, k)?;
        w.set_block(k, k, &dkk);

        let rest = n - k - b;
        if rest > 0 {
            // 2. Panel solve: A21 <- A21 · L11^-T.
            let mut panel = w.block(k + b, k, rest, b);
            trsm_right_lower_transpose(&dkk, &mut panel)?;
            w.set_block(k + b, k, &panel);

            // 3. Lower-only trailing update A22 <- A22 - panel · panelᵀ,
            //    as SYRK does it: one GEMM (trans_b, alpha = -1,
            //    beta = 1) per `nb`-row stripe, over the stripe's
            //    columns up to its diagonal block. Both operands are
            //    contiguous row ranges of the panel.
            let p = panel.as_slice();
            let (r0, mut r) = (k + b, 0);
            while r < rest {
                let h = nb.min(rest - r);
                let cols = r + h;
                let (c, d) = (&mut c_buf[..h * cols], &mut out[..h * cols]);
                w.read_block(r0 + r, r0, h, cols, c);
                let desc = GemmDesc {
                    trans_b: crate::Transpose::Trans,
                    ..GemmDesc::new(GemmOp::Dgemm, h, cols, b, -1.0, 1.0)
                };
                run_functional::<f64, f64, f64>(
                    &desc,
                    &select_strategy(&desc),
                    &p[r * b..cols * b],
                    &p[..cols * b],
                    c,
                    d,
                )
                .map_err(|e| SolverError::Blas(e.to_string()))?;
                w.write_block(r0 + r, r0, h, cols, d);
                r += h;
            }
        }
        k += b;
    }

    // Zero the strictly-upper triangle (never read by the update).
    for i in 0..n {
        w.row_mut(i)[i + 1..].fill(0.0);
    }
    Ok(w)
}

fn unblocked_cholesky(a: &mut Matrix<f64>, base_index: usize) -> Result<(), SolverError> {
    let n = a.rows();
    for j in 0..n {
        let mut d = a.get(j, j);
        for k in 0..j {
            d -= a.get(j, k) * a.get(j, k);
        }
        // A NaN pivot fails too, as in LAPACK's `AJJ <= 0 .OR. DISNAN(AJJ)`.
        if d <= 0.0 || d.is_nan() {
            return Err(SolverError::NotPositiveDefinite {
                index: base_index + j,
            });
        }
        let d = d.sqrt();
        a.set(j, j, d);
        for i in j + 1..n {
            let mut v = a.get(i, j);
            for k in 0..j {
                v -= a.get(i, k) * a.get(j, k);
            }
            a.set(i, j, v / d);
        }
    }
    Ok(())
}

/// Solves `A·x = b` given the Cholesky factor `L` (two triangular
/// solves).
pub fn potrs(l: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>, SolverError> {
    let mut y = b.clone();
    crate::trsm::trsm_left_lower(l, &mut y, false)?;
    let u = l.transposed();
    crate::trsm::trsm_left_upper(&u, &mut y)?;
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic SPD matrix: A = M·Mᵀ + n·I.
    fn spd(n: usize) -> Matrix<f64> {
        let m = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { n as f64 } else { 0.0 };
                for k in 0..n {
                    s += m.get(i, k) * m.get(j, k);
                }
                a.set(i, j, s);
            }
        }
        a
    }

    fn reconstruct_error(a: &Matrix<f64>, l: &Matrix<f64>) -> f64 {
        let n = a.rows();
        let mut max = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += l.get(i, k) * l.get(j, k);
                }
                max = max.max((s - a.get(i, j)).abs());
            }
        }
        max / a.max_abs()
    }

    #[test]
    fn factorizes_spd_matrices_of_odd_sizes() {
        for n in [1usize, 7, 32, 65, 130] {
            let a = spd(n);
            let l = potrf(&a, DEFAULT_BLOCK).unwrap();
            assert!(reconstruct_error(&a, &l) < 1e-10, "n={n}");
            // Lower triangular with positive diagonal.
            for i in 0..n {
                assert!(l.get(i, i) > 0.0);
                for j in i + 1..n {
                    assert_eq!(l.get(i, j), 0.0);
                }
            }
        }
    }

    #[test]
    fn block_size_does_not_change_the_factor() {
        let a = spd(96);
        let l1 = potrf(&a, 16).unwrap();
        let l2 = potrf(&a, 96).unwrap(); // unblocked in one shot
        for i in 0..96 {
            for j in 0..=i {
                assert!(
                    (l1.get(i, j) - l2.get(i, j)).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    l1.get(i, j),
                    l2.get(i, j)
                );
            }
        }
    }

    #[test]
    fn rejects_indefinite_matrices() {
        let mut a = spd(16);
        a.set(5, 5, -1.0);
        let err = potrf(&a, 8).unwrap_err();
        assert!(matches!(err, SolverError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn rejects_nan_pivots() {
        for (n, bad) in [(16, 5), (130, 70)] {
            let mut a = spd(n);
            a.set(bad, bad, f64::NAN);
            assert_eq!(
                potrf(&a, 64),
                Err(SolverError::NotPositiveDefinite { index: bad }),
                "n={n}"
            );
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::<f64>::zeros(4, 5);
        assert!(matches!(
            potrf(&a, 4),
            Err(SolverError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn potrs_solves_linear_systems() {
        let n = 48;
        let a = spd(n);
        let l = potrf(&a, 16).unwrap();
        let x_true = Matrix::from_fn(n, 1, |i, _| (i as f64) / 7.0 - 3.0);
        // b = A x.
        let mut b = Matrix::zeros(n, 1);
        for i in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += a.get(i, k) * x_true.get(k, 0);
            }
            b.set(i, 0, s);
        }
        let x = potrs(&l, &b).unwrap();
        for i in 0..n {
            assert!((x.get(i, 0) - x_true.get(i, 0)).abs() < 1e-8, "row {i}");
        }
    }
}
