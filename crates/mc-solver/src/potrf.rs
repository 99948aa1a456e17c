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
//! its diagonal block, about half the FLOPs of the full square. Each
//! stripe GEMM updates the factor in place, through a strided view at
//! leading dimension `n`, so no trailing block is gathered or written
//! back. Both GEMM operands are contiguous row ranges of the solved
//! panel, so they are passed without a copy. Every GEMM tier computes
//! each element with the same chain whatever the problem shape or
//! leading dimension, and in place or not, so the stripes give the
//! lower triangle bit for bit what one full-square GEMM would. The
//! strictly-upper part is never read and is zeroed at the end. The
//! factor starts as a working copy of `A` that every pool thread writes
//! a range of, into storage from the `mc-compute` buffer pool, so a
//! caller that dropped an earlier factor has it written into pages
//! that are already mapped.
//!
//! **One region per step.** The stripes of a step own disjoint rows of
//! the factor, so they run in one rayon region, the queue region
//! `getrf`'s look-ahead uses too: each of the pool's threads pulls
//! stripes from a shared queue, widest first, and runs each as one
//! whole GEMM on its own thread. A stripe's GEMM is the same call
//! whichever thread runs it, so the factor is bit for bit the same at
//! every pool size; a test keeps the one-GEMM-after-another loop as the
//! reference.

use std::sync::Mutex;

use mc_blas::{host_gemm_backend, run_functional_in_place_with, select_strategy, GemmDesc, GemmOp};
use mc_compute::Auto;

use crate::matrix::Matrix;
use crate::region::{lock, queue_region};
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
    let mut w = a.par_copy();
    // Resolved once per factorization (it reads the environment).
    let backend = host_gemm_backend();

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

            // 3. Lower-only trailing update A22 <- A22 - panel · panelᵀ.
            trailing_update(&backend, panel.as_slice(), b, nb, &mut w, k + b)?;
        }
        k += b;
    }

    // Zero the strictly-upper triangle (never read by the update).
    for i in 0..n {
        w.row_mut(i)[i + 1..].fill(0.0);
    }
    Ok(w)
}

/// The lower-only trailing update of one step, as SYRK does it: one
/// in-place GEMM (trans_b, alpha = −1, beta = 1) per `nb`-row stripe of
/// rows `r0..n` of `w`, over the stripe's columns `r0..` up to and
/// including its diagonal block, at leading dimension `n`. `p` is the
/// solved `(n − r0) × b` panel; a stripe's operands are its own rows of
/// it (A) and every panel row up to its diagonal (B, transposed).
///
/// One [`queue_region`] runs every stripe, widest first, so the longest
/// GEMMs start first.
fn trailing_update(
    backend: &Auto,
    p: &[f64],
    b: usize,
    nb: usize,
    w: &mut Matrix<f64>,
    r0: usize,
) -> Result<(), SolverError> {
    let n = w.cols();
    let stripes: Vec<Mutex<&mut [f64]>> = w.as_mut_slice()[r0 * n..]
        .chunks_mut(nb * n)
        .map(Mutex::new)
        .collect();
    queue_region(stripes.len(), |i| {
        let s = stripes.len() - 1 - i;
        let mut rows = lock(&stripes[s]);
        let (r, h) = (s * nb, rows.len() / n);
        let cols = r + h;
        let desc = GemmDesc {
            trans_b: crate::Transpose::Trans,
            ..GemmDesc::new(GemmOp::Dgemm, h, cols, b, -1.0, 1.0)
        };
        run_functional_in_place_with::<f64, f64, f64>(
            backend,
            &desc,
            &select_strategy(&desc),
            (b, b, n),
            &p[r * b..cols * b],
            &p[..cols * b],
            &mut rows[r0..],
        )
        .map_err(|e| SolverError::Blas(e.to_string()))
    })
}

fn unblocked_cholesky(a: &mut Matrix<f64>, base_index: usize) -> Result<(), SolverError> {
    let n = a.rows();
    let data = a.as_mut_slice();
    for j in 0..n {
        let (top, below) = data.split_at_mut((j + 1) * n);
        let rj = &mut top[j * n..j * n + j + 1];
        let mut d = rj[j];
        for &x in &rj[..j] {
            d -= x * x;
        }
        // A NaN pivot fails too, as in LAPACK's `AJJ <= 0 .OR. DISNAN(AJJ)`.
        if d <= 0.0 || d.is_nan() {
            return Err(SolverError::NotPositiveDefinite {
                index: base_index + j,
            });
        }
        let d = d.sqrt();
        rj[j] = d;
        let rj = &rj[..j];
        for ri in below.chunks_exact_mut(n) {
            let mut v = ri[j];
            for (&x, &y) in ri[..j].iter().zip(rj) {
                v -= x * y;
            }
            ri[j] = v / d;
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
pub(crate) mod tests {
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

    /// The stripe loop the one-region update replaced: one stripe GEMM
    /// after another, each opening its own region. Kept as the
    /// bit-for-bit reference.
    pub(crate) fn potrf_reference(a: &Matrix<f64>, nb: usize) -> Result<Matrix<f64>, SolverError> {
        let n = a.rows();
        let mut w = a.clone();
        let backend = host_gemm_backend();
        let mut k = 0;
        while k < n {
            let b = nb.min(n - k);
            let mut dkk = w.block(k, k, b, b);
            unblocked_cholesky(&mut dkk, k)?;
            w.set_block(k, k, &dkk);
            let rest = n - k - b;
            if rest > 0 {
                let mut panel = w.block(k + b, k, rest, b);
                trsm_right_lower_transpose(&dkk, &mut panel)?;
                w.set_block(k + b, k, &panel);
                let p = panel.as_slice();
                let (r0, mut r) = (k + b, 0);
                while r < rest {
                    let h = nb.min(rest - r);
                    let cols = r + h;
                    let desc = GemmDesc {
                        trans_b: crate::Transpose::Trans,
                        ..GemmDesc::new(GemmOp::Dgemm, h, cols, b, -1.0, 1.0)
                    };
                    run_functional_in_place_with::<f64, f64, f64>(
                        &backend,
                        &desc,
                        &select_strategy(&desc),
                        (b, b, n),
                        &p[r * b..cols * b],
                        &p[..cols * b],
                        &mut w.as_mut_slice()[(r0 + r) * n + r0..],
                    )
                    .map_err(|e| SolverError::Blas(e.to_string()))?;
                    r += h;
                }
            }
            k += b;
        }
        for i in 0..n {
            w.row_mut(i)[i + 1..].fill(0.0);
        }
        Ok(w)
    }

    #[test]
    fn matches_the_stripe_loop_reference_bit_for_bit_at_every_pool_size() {
        let bits =
            |l: &Matrix<f64>| -> Vec<u64> { l.as_slice().iter().map(|v| v.to_bits()).collect() };
        for workers in [1, 2, 3] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build_global()
                .unwrap();
            for n in [1usize, 63, 64, 65, 130, 300] {
                // Inexact entries, so every rounding shows in the bits.
                let a = Matrix::from_fn(n, n, |i, j| {
                    let v = (((i.min(j) * 31 + i.max(j) * 17 + 5) % 23) as f64) / 7.3 - 1.5;
                    if i == j {
                        v + n as f64
                    } else {
                        v
                    }
                });
                for nb in [8, 64] {
                    let (got, want) = (potrf(&a, nb).unwrap(), potrf_reference(&a, nb).unwrap());
                    assert_eq!(bits(&got), bits(&want), "n={n} nb={nb} workers={workers}");
                }
            }
            // A failing pivot in a later step reports the same index.
            for (n, nb, bad) in [(130, 64, 100), (300, 64, 257), (65, 8, 40)] {
                let mut a = spd(n);
                a.set(bad, bad, -(n as f64) * 1e3);
                let got = potrf(&a, nb);
                assert_eq!(
                    got,
                    potrf_reference(&a, nb),
                    "n={n} nb={nb} workers={workers}"
                );
                assert_eq!(
                    got,
                    Err(SolverError::NotPositiveDefinite { index: bad }),
                    "n={n} nb={nb} workers={workers}"
                );
            }
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
    }

    #[test]
    fn a_profiled_factorization_records_every_stripe_gemm() {
        use mc_compute::prof;
        // Stripes run on whichever pool thread pulls them; each still
        // opens its region in the caller's profile.
        let (n, nb) = (200, 64);
        let a = spd(n);
        let session = prof::session();
        potrf(&a, nb).unwrap();
        let profile = session.finish();
        let regions = profile
            .events
            .iter()
            .filter(|e| matches!(e, prof::HostEvent::Region { .. }))
            .count();
        let stripes: usize = (0..n)
            .step_by(nb)
            .map(|k| (n - (k + nb).min(n)).div_ceil(nb))
            .sum();
        assert_eq!(stripes, 6);
        assert_eq!(regions, stripes);
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
