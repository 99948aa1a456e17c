//! Blocked LU factorization with partial pivoting (LAPACK `DGETRF`).
//!
//! Right-looking blocked algorithm: factor a column panel with row
//! pivoting, apply the pivots across the matrix, triangular-solve the
//! block row, then rank-`nb` update the trailing matrix through the
//! [`mc_blas`] GEMM path. The factor is a working copy of `A`, which
//! every pool thread writes a range of, into storage from the
//! `mc-compute` buffer pool; past that, nothing but the panels is
//! copied:
//!
//! * each panel is factored in a column-major `(n−k) × nb` scratch, so
//!   the pivot search and the `x −= l·u` updates run down contiguous
//!   columns on the solver's dispatched substitution kernel; its row
//!   exchanges reach the factor's other columns afterwards, in pivot
//!   order, and the panel is written back once;
//! * `U₁₂` is solved in place in the factor's block row, with `L₁₁`
//!   read from the panel, its right-hand-side columns split across the
//!   rayon pool (the row-blocked body of the substitution kernel);
//! * `A₂₂ ← A₂₂ − L₂₁·U₁₂` runs as in-place strided GEMMs: `A` is the
//!   panel's rows below `L₁₁` (transposed view, leading dimension
//!   `n − k`), `B` is `U₁₂` and `C`/`D` is `A₂₂`, both at leading
//!   dimension `n`.
//!
//! **A one-step look-ahead.** The serial panel is taken off the
//! critical path: step `k`'s trailing update and the factorization of
//! step `k+1`'s panel run in one `queue_region` (`region.rs`). Its job
//! 0, the panel task, updates the next panel's own `nb` columns (a GEMM
//! into a row-major copy of them), transposes them into a second
//! column-major scratch and factors that panel there, recording its
//! pivots. The other jobs update `UPDATE_ROWS`-row blocks of the
//! remaining columns, and the panel task joins them when it is done.
//! The copy in, the next panel's row exchanges outside its columns and
//! its write-back stay serial, between regions. The three panel-sized
//! scratches come from the `mc-compute` buffer pool, so a repeated
//! factorization reuses warm pages. Every GEMM element's update is
//! row-local and a split GEMM keeps each element's chain (the tier
//! parity contract), so exchanging rows after the update gives the bits
//! exchanging them before would.
//!
//! Every element sees the operations of the row-major, copying
//! factorization in the same order — the strict `>` pivot rule (first
//! maximum wins), each element's ascending-`j` update chain, and the
//! GEMM's chain with each product's operands in the same order — so the
//! factor, `ipiv` and a `Singular` index are bit for bit what that
//! algorithm gives; a test keeps it as the reference.

use std::sync::Mutex;

use mc_blas::{
    host_gemm_backend, run_functional_in_place_with, select_strategy, GemmDesc, GemmOp, Transpose,
};
use mc_compute::Auto;

use crate::matrix::{gather_columns, scatter_columns, Matrix};
use crate::region::{lock, queue_region};
use crate::subst::Subst;
use crate::trsm::{left_solve, trsm_left_lower, Tri, Uplo};
use crate::SolverError;

/// Rows per job of a look-ahead region's trailing update.
const UPDATE_ROWS: usize = 128;

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
    let mut w = a.par_copy();
    let mut ipiv = vec![0usize; n];
    // Each reads the environment, so both are resolved once per
    // factorization.
    let (backend, kern) = (host_gemm_backend(), Subst::from_env());
    // The panel being applied and the one factored ahead, column-major
    // at leading dimension `n − k`, plus the row-major copy of the next
    // panel's columns its GEMM updates. Each is sized for the first
    // (tallest) step and reused by every later one.
    let width = nb.min(n);
    let scratch = |len: usize| {
        let mut v = mc_compute::acquire::<f64>(len);
        v.resize(len, 0.0);
        v
    };
    let ahead = if n > nb { n * width } else { 0 };
    let (mut cur, mut next, mut copy) = (scratch(n * width), scratch(ahead), scratch(ahead));

    // The first panel has no update to hide behind.
    let wd = w.as_mut_slice();
    gather_columns(wd, n, 0, (n, width), &mut cur);
    factor_panel(kern, &mut cur, (n, width), 0, &mut ipiv[..width])?;
    finish_panel(wd, n, 0, &cur, &ipiv[..width]);

    let mut k = 0;
    while n - k > nb {
        let (b, m) = (nb, n - k);
        let (rest, bn) = (m - b, nb.min(m - b));
        let (top, bottom) = wd.split_at_mut((k + b) * n);
        let u12 = &mut top[k * n + k + b..];
        // Block-row solve in place: U12 <- L11^-1 · A12 (unit lower),
        // with L11 read from the panel.
        let l11 = Tri::col_major(&cur, b, m);
        left_solve(kern, &backend, Uplo::Lower, l11, true, u12, n, rest)?;
        let step = Step {
            backend: &backend,
            l21: &cur[b..m * b],
            u12,
            n,
            b,
            m,
        };

        let (q, p) = (&mut copy[..rest * bn], &mut next[..rest * bn]);
        for (q, row) in q.chunks_exact_mut(bn).zip(bottom.chunks_exact(n)) {
            q.copy_from_slice(&row[k + b..k + b + bn]);
        }
        let pivots = &mut ipiv[k + b..k + b + bn];
        let panel = Mutex::new((q, p, pivots));
        // Row blocks of the trailing columns right of the next panel.
        let blocks: Vec<Mutex<&mut [f64]>> = if rest > bn {
            bottom.chunks_mut(UPDATE_ROWS * n).map(Mutex::new).collect()
        } else {
            Vec::new()
        };
        queue_region(1 + blocks.len(), |i| {
            if i == 0 {
                let mut panel = lock(&panel);
                let (q, p, pivots) = &mut *panel;
                // A22's first `bn` columns, in their row-major copy.
                step.update(0, rest, (0, bn), q, bn)?;
                gather_columns(q, bn, 0, (rest, bn), p);
                factor_panel(kern, p, (rest, bn), k + b, pivots)
            } else {
                let mut rows = lock(&blocks[i - 1]);
                let h = rows.len() / n;
                step.update(
                    (i - 1) * UPDATE_ROWS,
                    h,
                    (bn, rest),
                    &mut rows[k + b + bn..],
                    n,
                )
            }
        })?;

        k += b;
        finish_panel(wd, n, k, &next[..rest * bn], &ipiv[k..k + bn]);
        std::mem::swap(&mut cur, &mut next);
    }
    Ok(Lu { lu: w, ipiv })
}

/// One step's trailing-update operands: `L₂₁` (the rows of the
/// column-major `m × b` panel below `L₁₁`) and the solved `U₁₂` (the
/// factor's block row from its first trailing column, leading
/// dimension `n`).
struct Step<'a> {
    backend: &'a Auto,
    l21: &'a [f64],
    u12: &'a [f64],
    n: usize,
    b: usize,
    m: usize,
}

impl Step<'_> {
    /// `C ← C − L₂₁[r0..r0+h]·U₁₂[.., c0..c1]` in place, with `C` the
    /// `h × (c1 − c0)` block at the start of `c` (leading dimension
    /// `ldc`).
    fn update(
        &self,
        r0: usize,
        h: usize,
        (c0, c1): (usize, usize),
        c: &mut [f64],
        ldc: usize,
    ) -> Result<(), SolverError> {
        let desc = GemmDesc {
            trans_a: Transpose::Trans,
            ..GemmDesc::new(GemmOp::Dgemm, h, c1 - c0, self.b, -1.0, 1.0)
        };
        run_functional_in_place_with::<f64, f64, f64>(
            self.backend,
            &desc,
            &select_strategy(&desc),
            (self.m, self.n, ldc),
            &self.l21[r0..],
            &self.u12[c0..],
            c,
        )
        .map_err(|e| SolverError::Blas(e.to_string()))
    }
}

/// Factors the column-major `m × b` panel `p` in place with partial
/// pivoting, exchanging rows inside the panel only. `ipiv[j]` gets the
/// global row swapped with row `k + j`; a zero pivot column fails with
/// its global index.
fn factor_panel(
    kern: Subst,
    p: &mut [f64],
    (m, b): (usize, usize),
    k: usize,
    ipiv: &mut [usize],
) -> Result<(), SolverError> {
    let p = &mut p[..m * b];
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
        ipiv[j] = k + piv;
        if piv != j {
            for c in p.chunks_exact_mut(m) {
                c.swap(j, piv);
            }
        }
        // Scale the column, then update the panel columns right of it:
        // `x −= l·u` with `u` the pivot row's element.
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
    Ok(())
}

/// Applies the pivots `ipiv` of the factored panel `p` (columns
/// `k..k+b`, rows `k..n`) to the factor's other columns, in pivot
/// order, then writes the panel back.
fn finish_panel(w: &mut [f64], n: usize, k: usize, p: &[f64], ipiv: &[usize]) {
    let b = ipiv.len();
    for (j, &piv) in ipiv.iter().enumerate() {
        if piv != k + j {
            let (top, bottom) = w.split_at_mut(piv * n);
            let (r1, r2) = (&mut top[(k + j) * n..(k + j + 1) * n], &mut bottom[..n]);
            r1[..k].swap_with_slice(&mut r2[..k]);
            r1[k + b..].swap_with_slice(&mut r2[k + b..]);
        }
    }
    scatter_columns(p, (n - k, b), &mut w[k * n..], n, k);
}

#[cfg(test)]
pub(crate) mod tests {
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
        // and trailing update, so its pivot is the first exact zero. It
        // sits in a later block step (n > nb), on a panel factored ahead
        // while an earlier step's row blocks are still updating, with
        // rows exchanged (uniform entries) or not (a dominant diagonal).
        let cases = [
            (100, 32, 70),
            (130, 64, 100),
            (40, 8, 8),
            (9, 4, 8),
            (300, 64, 150),
            (130, 32, 40),
            (200, 8, 199),
        ];
        at_every_pool_size(|workers| {
            for (n, nb, col) in cases {
                let dominant = Matrix::from_fn(n, n, |i, j| {
                    let v = (((i * 7 + j * 13) % 19) as f64) - 9.0;
                    if i == j {
                        v + 4.0 * n as f64
                    } else {
                        v
                    }
                });
                for mut a in [dominant, uniform(n, 7)] {
                    for i in 0..n {
                        a.set(i, col, 0.0);
                    }
                    let got = getrf(&a, nb);
                    let what = format!("n={n} nb={nb} workers={workers}");
                    assert_eq!(got, Err(SolverError::Singular { index: col }), "{what}");
                    assert_eq!(got, getrf_reference(&a, nb), "{what}");
                }
            }
        });
    }

    /// The row-major, copying factorization the column-major panel and
    /// the in-place updates replaced: a row-wise panel on `w` itself,
    /// then gathered `L11`, `U12`, `L21` and `A22` blocks, a dense GEMM
    /// into a fresh output and a write-back. Kept as the bit-for-bit
    /// reference.
    pub(crate) fn getrf_reference(a: &Matrix<f64>, nb: usize) -> Result<Lu, SolverError> {
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

    fn bits(lu: &Lu) -> Vec<u64> {
        lu.lu.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs `f` with the global pool at each of 1, 2 and 3 workers, then
    /// restores the default.
    fn at_every_pool_size(mut f: impl FnMut(usize)) {
        for workers in [1, 2, 3] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build_global()
                .unwrap();
            f(workers);
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
    }

    /// Seeded uniforms in `[-1, 1)`: partial pivoting exchanges rows at
    /// nearly every step, with pivots anywhere below the diagonal.
    fn uniform(n: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed;
        Matrix::from_fn(n, n, |_, _| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
    }

    #[test]
    fn matches_the_copying_reference_bit_for_bit_at_every_pool_size() {
        at_every_pool_size(|workers| {
            for n in [0usize, 1, 5, 33, 64, 65, 129] {
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
            // Look-ahead regions with several row blocks, and rows
            // exchanged at nearly every step, from inside every block.
            for n in [130usize, 300] {
                let a = uniform(n, n as u64);
                for nb in [8, 32, 64] {
                    let (got, want) = (getrf(&a, nb).unwrap(), getrf_reference(&a, nb).unwrap());
                    assert_eq!(got.ipiv, want.ipiv, "n={n} nb={nb} workers={workers}");
                    assert_eq!(bits(&got), bits(&want), "n={n} nb={nb} workers={workers}");
                    let swaps = (0..n).filter(|&j| got.ipiv[j] != j).count();
                    assert!(swaps * 10 >= n * 9, "n={n} nb={nb}: {swaps} exchanges");
                    if n > 2 * UPDATE_ROWS {
                        // A pivot row in the region's second row block
                        // or below: its exchange is deferred past a
                        // block another job updated.
                        let deep = (nb..n).filter(|&j| got.ipiv[j] >= j + UPDATE_ROWS).count();
                        assert!(deep > 0, "n={n} nb={nb}: no pivot from a later row block");
                    }
                }
            }
        });
    }

    #[test]
    fn nan_inputs_match_the_reference() {
        // Row 0 pivots the first column and carries a NaN into two
        // `U₁₂` columns: one in the panel factored ahead (at nb = 64),
        // one in a row block; row 200's `L₂₁` row is all NaN, so NaN
        // meets NaN in products of every GEMM. The NaNs share one
        // payload: the GEMM tiers disagree on which of two payloads a
        // NaN·NaN product keeps (`Naive` the first factor's, the packed
        // tiers the second's), and the look-ahead's GEMMs have other
        // shapes, so other tiers, than the reference's.
        let n = 300;
        let mut a = uniform(n, 3);
        a.set(0, 0, 4.0);
        for (i, j) in [(200, 0), (0, 70), (0, 250), (140, 20), (30, 130)] {
            a.set(i, j, f64::NAN);
        }
        at_every_pool_size(|workers| {
            for nb in [8, 64] {
                let (got, want) = (getrf(&a, nb).unwrap(), getrf_reference(&a, nb).unwrap());
                assert!(got.lu.get(200, 70).is_nan() && got.lu.get(200, 250).is_nan());
                assert_eq!(got.ipiv, want.ipiv, "nb={nb} workers={workers}");
                assert_eq!(bits(&got), bits(&want), "nb={nb} workers={workers}");
            }
        });
    }

    #[test]
    fn a_profiled_factorization_records_every_gemm_region() {
        // Each look-ahead region runs the next panel's GEMM plus one
        // GEMM per row block of the rest, on whichever pool thread
        // pulls it; each still opens its region in the caller's profile.
        use mc_compute::prof;
        let (n, nb) = (300, 64);
        let a = uniform(n, 11);
        let session = prof::session();
        getrf(&a, nb).unwrap();
        let profile = session.finish();
        let regions = profile
            .events
            .iter()
            .filter(|e| matches!(e, prof::HostEvent::Region { .. }))
            .count();
        let gemms: usize = (nb..n)
            .step_by(nb)
            .map(|r0| {
                let (rest, bn) = (n - r0, nb.min(n - r0));
                1 + if rest > bn {
                    rest.div_ceil(UPDATE_ROWS)
                } else {
                    0
                }
            })
            .sum();
        // Steps at rows 64, 128, 192 and 256: 1 + 2, 1 + 2, 1 + 1, 1.
        assert_eq!(gemms, 9);
        assert_eq!(regions, gemms);
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
