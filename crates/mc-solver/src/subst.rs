//! The solver's one substitution kernel.
//!
//! Every scalar inner loop of the factorizations is one of two
//! element-wise updates over a contiguous run of `f64`s:
//! `x ← x − a·v` (eliminate one solved row or column) and `x ← x / d`
//! (divide by a pivot). The LU panel calls [`Subst`] for them one at a
//! time. Both triangular solves (`potrf`'s panel solve and `getrf`'s
//! `U₁₂`) call its one row-blocked body, [`Subst::solve`]: a whole
//! triangular system of unknown rows, each
//! `x ← (x − Σₖ aₖ·vₖ) / d` over its solved rows `k` in ascending
//! order. The loop is strip-outer: per column strip (32 columns on
//! AVX-512F, 8 on AVX2, 32 portable), the rows are solved in blocks of
//! [`ROWS`] that keep their accumulators in registers. A block loads
//! each solved row's strip once for all its rows, then each row takes
//! the block's own solved rows in ascending `k` and its divide, so every
//! element keeps the chain the element-wise updates would give it. A
//! strip of the whole system stays in L1 while its rows are solved.
//! Columns past the last whole vector strip run the portable body.
//! Back substitution has its in-block terms first in ascending `k`, so
//! it runs blocks of one row.
//!
//! Each body has an AVX-512F, an AVX2 and a portable version. The vector
//! bodies multiply and then subtract as two separate IEEE operations,
//! never a fused multiply-add, and divide with the correctly rounded
//! vector divide. So every lane computes exactly what the portable
//! scalar loop computes, in the same order, NaN, infinity, subnormal
//! and signed-zero inputs included, and no body can change a bit of a
//! factor. The ISA is resolved once, when a [`Subst`] is made (one
//! environment read), and each call only matches on it.

use core::ops::Range;

use mc_compute::{Simd, SimdMode};

use crate::trsm::Uplo;

/// Columns of one strip of the portable body, and of the widest vector
/// strip (four AVX-512 accumulators per row).
pub(crate) const STRIP: usize = 32;

/// Unknown rows per block of a forward substitution.
pub(crate) const ROWS: usize = 4;

/// The substitution kernel, with its ISA resolved.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Subst {
    /// Always a mode the host supports (capped by [`Simd::isa`]),
    /// which is what makes the `target_feature` calls sound.
    isa: SimdMode,
}

impl Subst {
    /// The widest body the host runs, capped like the GEMM's SIMD tier:
    /// `MC_GEMM_SIMD=portable` forces the portable body. It reads the
    /// environment, so make one per factorization or solve.
    pub(crate) fn from_env() -> Self {
        Subst {
            isa: Simd::from_env().isa(),
        }
    }

    /// The serial cost, in ns, of one unknown row or column of an order-`n`
    /// system: `n(n+1)/2` steps at 0.1 ns (docs/PERFORMANCE.md).
    pub(crate) fn item_ns(n: usize) -> f64 {
        (n * (n + 1) / 2) as f64 * 0.1
    }

    /// The widest available body at or below `mode`.
    #[cfg(test)]
    pub(crate) fn with_mode(mode: SimdMode) -> Self {
        Subst {
            isa: Simd::with_mode(mode).isa(),
        }
    }

    /// `x[i] ← x[i] − a·v[i]` over the common length of `x` and `v`.
    #[inline]
    pub(crate) fn sub_scaled(self, x: &mut [f64], a: f64, v: &[f64]) {
        match self.isa {
            // SAFETY: `isa` only holds modes the host supports.
            #[cfg(target_arch = "x86_64")]
            SimdMode::Avx512 => unsafe { sub_scaled_avx512(x, a, v) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            SimdMode::Avx2 => unsafe { sub_scaled_avx2(x, a, v) },
            _ => sub_scaled_portable(x, a, v),
        }
    }

    /// `x[i] ← x[i] / d`.
    #[inline]
    pub(crate) fn div(self, x: &mut [f64], d: f64) {
        match self.isa {
            // SAFETY: `isa` only holds modes the host supports.
            #[cfg(target_arch = "x86_64")]
            SimdMode::Avx512 => unsafe { div_avx512(x, d) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            SimdMode::Avx2 => unsafe { div_avx2(x, d) },
            _ => div_portable(x, d),
        }
    }

    /// Solves the triangular system on `rows` in place, each row
    /// `x ← x − coef(i, k)·x_k` for its solved rows `k` in ascending
    /// order, then `x ← x / d` unless `diag(i)` is `None` (a unit
    /// diagonal). [`Uplo::Lower`] solves row `i` against rows `k < i`,
    /// [`Uplo::Upper`] against rows `k > i`. Every element gets exactly
    /// the chain [`Subst::sub_scaled`] and [`Subst::div`] would give
    /// it, one call per term, row after row in solve order. Every row
    /// holds at least as many elements as the first, which sets the
    /// width.
    pub(crate) fn solve<C, D>(self, rows: &mut [&mut [f64]], uplo: Uplo, coef: C, diag: D)
    where
        C: Fn(usize, usize) -> f64,
        D: Fn(usize) -> Option<f64>,
    {
        let Some(width) = rows.first().map(|r| r.len()) else {
            return;
        };
        assert!(rows.iter().all(|r| r.len() >= width), "a row is short");
        let ptrs: Vec<*mut f64> = rows.iter_mut().map(|r| r.as_mut_ptr()).collect();
        let sys = System {
            rows: &ptrs,
            uplo,
            coef: &coef,
            diag: &diag,
        };
        let full = match self.isa {
            // SAFETY: `isa` only holds modes the host supports, and
            // every row pointer covers `width` elements.
            #[cfg(target_arch = "x86_64")]
            SimdMode::Avx512 => unsafe { solve_avx512(&sys, width) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            SimdMode::Avx2 => unsafe { solve_avx2(&sys, width) },
            _ => 0,
        };
        // SAFETY: as above.
        unsafe { solve_portable(&sys, full..width) };
    }
}

/// A triangular system behind [`Subst::solve`]: one pointer per row,
/// each covering the system's width, the solve order, and the
/// coefficient and diagonal lookups.
struct System<'a, C, D> {
    rows: &'a [*mut f64],
    uplo: Uplo,
    coef: &'a C,
    diag: &'a D,
}

impl<C, D> System<'_, C, D> {
    /// The row blocks in solve order: `(first row, rows, solved rows
    /// outside the block)`. Forward substitution takes [`ROWS`] rows at
    /// a time against every row above the block; back substitution one
    /// row at a time against every row below it.
    fn blocks(&self) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
        let n = self.rows.len();
        let (lower, upper) = match self.uplo {
            Uplo::Lower => (n, 0),
            Uplo::Upper => (0, n),
        };
        let forward = (0..lower)
            .step_by(ROWS)
            .map(move |b0| (b0, ROWS.min(n - b0), 0..b0));
        let back = (0..upper).rev().map(move |i| (i, 1, i + 1..n));
        forward.chain(back)
    }
}

fn sub_scaled_portable(x: &mut [f64], a: f64, v: &[f64]) {
    for (x, &v) in x.iter_mut().zip(v) {
        *x -= a * v;
    }
}

fn div_portable(x: &mut [f64], d: f64) {
    for x in x.iter_mut() {
        *x /= d;
    }
}

/// The portable body on columns `cols` of `sys`, in strips of [`STRIP`]
/// scalar accumulators per row.
///
/// # Safety
///
/// Every row pointer covers `cols.end` elements.
unsafe fn solve_portable<C, D>(sys: &System<'_, C, D>, cols: Range<usize>)
where
    C: Fn(usize, usize) -> f64,
    D: Fn(usize) -> Option<f64>,
{
    for s in cols.clone().step_by(STRIP) {
        let w = STRIP.min(cols.end - s);
        // SAFETY: `s + w ≤ cols.end`; a block's rows are distinct from
        // the solved rows it reads.
        let row = |i: usize| unsafe { core::slice::from_raw_parts_mut(sys.rows[i].add(s), w) };
        for (b0, h, solved) in sys.blocks() {
            let mut acc = [[0.0; STRIP]; ROWS];
            for (r, acc) in acc[..h].iter_mut().enumerate() {
                acc[..w].copy_from_slice(row(b0 + r));
            }
            for k in solved {
                let v = row(k);
                for (r, acc) in acc[..h].iter_mut().enumerate() {
                    let a = (sys.coef)(b0 + r, k);
                    for (x, &v) in acc[..w].iter_mut().zip(v.iter()) {
                        *x -= a * v;
                    }
                }
            }
            for r in 0..h {
                let (done, rest) = acc.split_at_mut(r);
                let x = &mut rest[0][..w];
                for (k, v) in done.iter().enumerate() {
                    let a = (sys.coef)(b0 + r, b0 + k);
                    for (x, &v) in x.iter_mut().zip(&v[..w]) {
                        *x -= a * v;
                    }
                }
                if let Some(d) = (sys.diag)(b0 + r) {
                    for x in x.iter_mut() {
                        *x /= d;
                    }
                }
                row(b0 + r).copy_from_slice(x);
            }
        }
    }
}

/// Defines the vector bodies for one x86 ISA: the element-wise updates
/// on full `LANES`-wide vectors, then the portable loop over the
/// remainder, and the row-blocked solve on `REGS` accumulators per row.
macro_rules! x86_bodies {
    (
        $sub_scaled:ident, $div:ident, $solve:ident, $feature:tt, lanes $lanes:literal,
        regs $regs:literal, $vec:ident, $load:ident, $store:ident, $set1:ident, $mul:ident,
        $sub:ident, $divv:ident
    ) => {
        /// The row-blocked solve on `$feature` vectors over the whole
        /// strips of `sys`'s first `width` columns; returns the first
        /// column it left to the portable body.
        ///
        /// # Safety
        ///
        /// The host supports the ISA, and every row pointer covers
        /// `width` elements.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        unsafe fn $solve<C, D>(sys: &System<'_, C, D>, width: usize) -> usize
        where
            C: Fn(usize, usize) -> f64,
            D: Fn(usize) -> Option<f64>,
        {
            const W: usize = $regs * $lanes;
            let full = width - width % W;
            for s in (0..full).step_by(W) {
                for (b0, h, solved) in sys.blocks() {
                    // Monomorphized per height, so the accumulators
                    // stay in registers.
                    match h {
                        4 => block::<4, C, D>(sys, s, b0, solved),
                        3 => block::<3, C, D>(sys, s, b0, solved),
                        2 => block::<2, C, D>(sys, s, b0, solved),
                        _ => block::<1, C, D>(sys, s, b0, solved),
                    }
                }
            }
            return full;

            /// Rows `b0..b0 + H` of strip `s`: every solved row outside
            /// the block, loaded once for all `H` rows, then per row the
            /// block's earlier rows and the divide.
            ///
            /// # Safety
            ///
            /// As for the enclosing body, with `s + W` within the width.
            #[target_feature(enable = $feature)]
            unsafe fn block<const H: usize, C, D>(
                sys: &System<'_, C, D>,
                s: usize,
                b0: usize,
                solved: Range<usize>,
            ) where
                C: Fn(usize, usize) -> f64,
                D: Fn(usize) -> Option<f64>,
            {
                use core::arch::x86_64::*;
                let at = |i: usize| sys.rows[i].add(s);
                let mut acc: [[$vec; $regs]; H] = [[$set1(0.0); $regs]; H];
                for (r, acc) in acc.iter_mut().enumerate() {
                    for (q, acc) in acc.iter_mut().enumerate() {
                        *acc = $load(at(b0 + r).add(q * $lanes));
                    }
                }
                for k in solved {
                    let vp = at(k);
                    let mut v = [$set1(0.0); $regs];
                    for (q, v) in v.iter_mut().enumerate() {
                        *v = $load(vp.add(q * $lanes));
                    }
                    for (r, acc) in acc.iter_mut().enumerate() {
                        let a = $set1((sys.coef)(b0 + r, k));
                        for (acc, &v) in acc.iter_mut().zip(&v) {
                            // Separate mul then sub, as in `sub_scaled`.
                            *acc = $sub(*acc, $mul(a, v));
                        }
                    }
                }
                for r in 0..H {
                    for k in 0..r {
                        let a = $set1((sys.coef)(b0 + r, b0 + k));
                        for q in 0..$regs {
                            acc[r][q] = $sub(acc[r][q], $mul(a, acc[k][q]));
                        }
                    }
                    if let Some(d) = (sys.diag)(b0 + r) {
                        let dv = $set1(d);
                        for acc in &mut acc[r] {
                            *acc = $divv(*acc, dv);
                        }
                    }
                    for (q, acc) in acc[r].iter().enumerate() {
                        $store(at(b0 + r).add(q * $lanes), *acc);
                    }
                }
            }
        }

        /// `x ← x − a·v` on `$feature` vectors.
        ///
        /// # Safety
        ///
        /// The host supports the ISA.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        unsafe fn $sub_scaled(x: &mut [f64], a: f64, v: &[f64]) {
            use core::arch::x86_64::*;
            let len = x.len().min(v.len());
            let full = len - len % $lanes;
            let (xp, vp) = (x.as_mut_ptr(), v.as_ptr());
            let av = $set1(a);
            for i in (0..full).step_by($lanes) {
                // Separate mul then sub, never FMA: fusing would skip
                // the product's rounding.
                $store(
                    xp.add(i),
                    $sub($load(xp.add(i)), $mul(av, $load(vp.add(i)))),
                );
            }
            sub_scaled_portable(&mut x[full..len], a, &v[full..len]);
        }

        /// `x ← x / d` on `$feature` vectors.
        ///
        /// # Safety
        ///
        /// The host supports the ISA.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        unsafe fn $div(x: &mut [f64], d: f64) {
            use core::arch::x86_64::*;
            let full = x.len() - x.len() % $lanes;
            let xp = x.as_mut_ptr();
            let dv = $set1(d);
            for i in (0..full).step_by($lanes) {
                $store(xp.add(i), $divv($load(xp.add(i)), dv));
            }
            div_portable(&mut x[full..], d);
        }
    };
}

x86_bodies!(
    sub_scaled_avx512, div_avx512, solve_avx512, "avx512f", lanes 8, regs 4, __m512d,
    _mm512_loadu_pd, _mm512_storeu_pd, _mm512_set1_pd, _mm512_mul_pd, _mm512_sub_pd, _mm512_div_pd
);
x86_bodies!(
    sub_scaled_avx2, div_avx2, solve_avx2, "avx2", lanes 4, regs 2, __m256d, _mm256_loadu_pd,
    _mm256_storeu_pd, _mm256_set1_pd, _mm256_mul_pd, _mm256_sub_pd, _mm256_div_pd
);

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite values of every magnitude plus the IEEE edge cases.
    const SPECIALS: [f64; 12] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        f64::MIN_POSITIVE / 8.0,
        -f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        1.0 / 3.0,
        -7.25,
        1e-300,
    ];

    /// A deterministic mix of the specials and inexact values.
    fn values(len: usize, seed: usize) -> Vec<f64> {
        (0..len)
            .map(|i| match (i * 7 + seed) % 5 {
                0 | 1 => SPECIALS[(i * 5 + seed) % SPECIALS.len()],
                _ => ((i * 31 + seed * 17) % 97) as f64 / 13.0 - 3.5,
            })
            .collect()
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_body_matches_portable_bit_for_bit() {
        let portable = Subst::with_mode(SimdMode::Portable);
        for mode in SimdMode::available() {
            let kern = Subst::with_mode(mode);
            for len in 0..=40 {
                for seed in 0..SPECIALS.len() {
                    let (x, v) = (values(len, seed), values(len, seed + 3));
                    let scalars = SPECIALS.iter().chain(&[0.75, -1.5]);
                    for &a in scalars {
                        let (mut want, mut got) = (x.clone(), x.clone());
                        portable.sub_scaled(&mut want, a, &v);
                        kern.sub_scaled(&mut got, a, &v);
                        assert_eq!(bits(&got), bits(&want), "{mode:?} len={len} a={a}");
                        let (mut want, mut got) = (x.clone(), x.clone());
                        portable.div(&mut want, a);
                        kern.div(&mut got, a);
                        assert_eq!(bits(&got), bits(&want), "{mode:?} len={len} d={a}");
                    }
                }
            }
            check_solve(portable, kern, mode);
        }
    }

    /// The row-blocked solve of `kern` against the portable element-wise
    /// chain, row after row in solve order, both ways. Row counts 1–9
    /// and 13 cover every block height and partial last blocks; widths
    /// 1–40 cover one strip of each ISA plus every remainder, 64 and 72
    /// several strips. Rows, coefficients and diagonals draw on the
    /// NaN, ±inf, subnormal and ±0 specials, with a unit diagonal too.
    /// Coefficients skip NaN: a solved row picks up the CPU's default
    /// NaN (from `∞ − ∞` or `0·∞`), and which payload a product of two
    /// NaNs keeps is the compiler's choice in the scalar reference.
    fn check_solve(portable: Subst, kern: Subst, mode: SimdMode) {
        for width in (1..=40).chain([64, 72]) {
            for n in (1..=9).chain([13]) {
                let seed = width + 3 * n;
                let x: Vec<Vec<f64>> = (0..n).map(|i| values(width, seed + i)).collect();
                let coef = |i: usize, k: usize| {
                    let s = SPECIALS[1 + (seed + 5 * i + 3 * k) % (SPECIALS.len() - 1)];
                    if (i + k).is_multiple_of(3) {
                        s
                    } else {
                        s * 0.5 + (i * 7 + k) as f64 / 9.0
                    }
                };
                let diags = [
                    None,
                    Some(-0.0),
                    Some(3.0),
                    Some(f64::MIN_POSITIVE / 4.0),
                    Some(f64::NAN),
                    Some(f64::INFINITY),
                ];
                for (uplo, d) in [Uplo::Lower, Uplo::Upper]
                    .into_iter()
                    .flat_map(|u| diags.map(|d| (u, d)))
                {
                    // Row-dependent diagonals around the chosen special.
                    let diag = |i: usize| {
                        d.map(|d| {
                            if i.is_multiple_of(2) {
                                d
                            } else {
                                1.5 + i as f64
                            }
                        })
                    };
                    let order: Vec<usize> = match uplo {
                        Uplo::Lower => (0..n).collect(),
                        Uplo::Upper => (0..n).rev().collect(),
                    };
                    let mut want = x.clone();
                    for &i in &order {
                        let ks = match uplo {
                            Uplo::Lower => 0..i,
                            Uplo::Upper => i + 1..n,
                        };
                        for k in ks {
                            let (v, xi) = if k < i {
                                let (lo, hi) = want.split_at_mut(i);
                                (&lo[k], &mut hi[0])
                            } else {
                                let (lo, hi) = want.split_at_mut(k);
                                (&hi[0], &mut lo[i])
                            };
                            portable.sub_scaled(xi, coef(i, k), v);
                        }
                        if let Some(d) = diag(i) {
                            portable.div(&mut want[i], d);
                        }
                    }
                    // Padding past each row's width stays untouched.
                    let mut got: Vec<Vec<f64>> = x
                        .iter()
                        .map(|r| r.iter().copied().chain([7.5, -2.0]).collect())
                        .collect();
                    let mut rows: Vec<&mut [f64]> =
                        got.iter_mut().map(|r| &mut r[..width]).collect();
                    kern.solve(&mut rows, uplo, coef, diag);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            bits(&g[..width]),
                            bits(w),
                            "{mode:?} {uplo:?} n={n} width={width} row={i} d={d:?}"
                        );
                        assert_eq!(g[width..], [7.5, -2.0], "{mode:?}: past the width");
                    }
                }
            }
        }
    }

    #[test]
    fn sub_scaled_stops_at_the_shorter_operand() {
        for mode in SimdMode::available() {
            let kern = Subst::with_mode(mode);
            let mut x = vec![1.0; 19];
            kern.sub_scaled(&mut x, 2.0, &[1.0; 11]);
            assert!(x[..11].iter().all(|&v| v == -1.0), "{mode:?}");
            assert!(x[11..].iter().all(|&v| v == 1.0), "{mode:?}");
        }
    }

    #[test]
    fn portable_env_resolves_to_an_available_body() {
        assert!(Subst::from_env().isa.is_available());
    }
}
