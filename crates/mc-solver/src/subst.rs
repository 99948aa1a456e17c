//! The solver's one substitution kernel.
//!
//! Every scalar inner loop of the factorizations is one of two
//! element-wise updates over a contiguous run of `f64`s:
//! `x ← x − a·v` (eliminate one solved row or column) and `x ← x / d`
//! (divide by a pivot). The LU panel calls [`Subst`] for them one at a
//! time. The triangular solves call its strip body,
//! [`Subst::solve_row`]: one unknown row against every solved row it
//! depends on, `x ← (x − Σₖ aₖ·vₖ) / d`, in [`STRIP`]-column strips
//! whose accumulators stay in registers across the whole `k` loop, so
//! each step loads only `vₖ` instead of loading and storing `x` too.
//! Columns past the last full strip run the two element-wise updates.
//!
//! Each body has an AVX-512F, an AVX2 and a portable version. The vector
//! bodies multiply and then subtract as two separate IEEE operations,
//! never a fused multiply-add, and divide with the correctly rounded
//! vector divide. So every lane computes exactly what the portable
//! scalar loop computes, in the same order, NaN, infinity, subnormal
//! and signed-zero inputs included, and no body can change a bit of a
//! factor. The ISA is resolved once, when a [`Subst`] is made (one
//! environment read), and each call only matches on it.

use mc_compute::{Simd, SimdMode};

/// Columns of one register-blocked strip of [`Subst::solve_row`]: four
/// AVX-512 or eight AVX2 accumulators.
pub(crate) const STRIP: usize = 32;

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

    /// Solves one unknown row of a triangular system against its solved
    /// rows: `x ← x − a·v` for each term `(a, v)` in the order `terms`
    /// yields them, then `x ← x / d` unless `d` is `None` (a unit
    /// diagonal). Every element gets exactly the chain
    /// [`Subst::sub_scaled`] and [`Subst::div`] would give it, one call
    /// per term. Each `v` is at least as long as `x`.
    #[inline]
    pub(crate) fn solve_row<'a, I>(self, x: &mut [f64], terms: I, d: Option<f64>)
    where
        I: Iterator<Item = (f64, &'a [f64])> + Clone,
    {
        let full = x.len() - x.len() % STRIP;
        let strips = &mut x[..full];
        match self.isa {
            // SAFETY: `isa` only holds modes the host supports.
            #[cfg(target_arch = "x86_64")]
            SimdMode::Avx512 => unsafe { strips_avx512(strips, terms.clone(), d) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            SimdMode::Avx2 => unsafe { strips_avx2(strips, terms.clone(), d) },
            _ => strips_portable(strips, terms.clone(), d),
        }
        let tail = &mut x[full..];
        if !tail.is_empty() {
            for (a, v) in terms {
                self.sub_scaled(tail, a, &v[full..]);
            }
            if let Some(d) = d {
                self.div(tail, d);
            }
        }
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

/// The strip body on `x`'s whole [`STRIP`]-column strips, with `STRIP`
/// scalar accumulators.
fn strips_portable<'a, I>(x: &mut [f64], terms: I, d: Option<f64>)
where
    I: Iterator<Item = (f64, &'a [f64])> + Clone,
{
    for (s, x) in x.chunks_exact_mut(STRIP).enumerate() {
        let s = s * STRIP;
        let mut acc = [0.0; STRIP];
        acc.copy_from_slice(x);
        for (a, v) in terms.clone() {
            for (acc, &v) in acc.iter_mut().zip(&v[s..s + STRIP]) {
                *acc -= a * v;
            }
        }
        if let Some(d) = d {
            for acc in &mut acc {
                *acc /= d;
            }
        }
        x.copy_from_slice(&acc);
    }
}

/// Defines the three vector bodies for one x86 ISA: the element-wise
/// updates on full `LANES`-wide vectors, then the portable loop over
/// the remainder, and the strip body on `STRIP / LANES` accumulators.
macro_rules! x86_bodies {
    (
        $sub_scaled:ident, $div:ident, $strips:ident, $feature:tt, lanes $lanes:literal,
        $vec:ident, $load:ident, $store:ident, $set1:ident, $mul:ident, $sub:ident, $divv:ident
    ) => {
        /// The strip body on `$feature` vectors, over `x`'s whole
        /// strips (`x.len()` is a multiple of `STRIP`).
        ///
        /// # Safety
        ///
        /// The host supports the ISA.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        unsafe fn $strips<'a, I>(x: &mut [f64], terms: I, d: Option<f64>)
        where
            I: Iterator<Item = (f64, &'a [f64])> + Clone,
        {
            use core::arch::x86_64::*;
            const REGS: usize = STRIP / $lanes;
            for (s, x) in x.chunks_exact_mut(STRIP).enumerate() {
                let s = s * STRIP;
                let xp = x.as_mut_ptr();
                let mut acc: [$vec; REGS] = [$set1(0.0); REGS];
                for (r, acc) in acc.iter_mut().enumerate() {
                    *acc = $load(xp.add(r * $lanes));
                }
                for (a, v) in terms.clone() {
                    let vp = v[s..s + STRIP].as_ptr();
                    let av = $set1(a);
                    for (r, acc) in acc.iter_mut().enumerate() {
                        // Separate mul then sub, as in `sub_scaled`.
                        *acc = $sub(*acc, $mul(av, $load(vp.add(r * $lanes))));
                    }
                }
                if let Some(d) = d {
                    let dv = $set1(d);
                    for acc in &mut acc {
                        *acc = $divv(*acc, dv);
                    }
                }
                for (r, acc) in acc.iter().enumerate() {
                    $store(xp.add(r * $lanes), *acc);
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
    sub_scaled_avx512, div_avx512, strips_avx512, "avx512f", lanes 8, __m512d, _mm512_loadu_pd,
    _mm512_storeu_pd, _mm512_set1_pd, _mm512_mul_pd, _mm512_sub_pd, _mm512_div_pd
);
x86_bodies!(
    sub_scaled_avx2, div_avx2, strips_avx2, "avx2", lanes 4, __m256d, _mm256_loadu_pd,
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
            check_strip_body(portable, kern, mode);
        }
    }

    /// The strip body of `kern` against the portable element-wise
    /// chain. Widths 1–40 cover one strip plus every remainder; 64 and
    /// 72 cover several strips. The terms and the divisor draw on the
    /// NaN, ±inf, subnormal and −0.0 specials.
    fn check_strip_body(portable: Subst, kern: Subst, mode: SimdMode) {
        for width in (1..=40).chain([64, 72]) {
            for (seed, terms) in [(0, 0), (1, 1), (2, 3), (5, 7), (9, 12)] {
                let x = values(width, seed);
                // Term vectors longer than `x`, as solved rows are.
                let vs: Vec<Vec<f64>> = (0..terms)
                    .map(|t| values(width + 5, seed + t + 1))
                    .collect();
                let coef: Vec<f64> = (0..terms)
                    .map(|t| SPECIALS[(seed + 3 * t) % SPECIALS.len()] * 0.5 + t as f64)
                    .collect();
                for d in [None, Some(-0.0), Some(3.0), Some(f64::MIN_POSITIVE / 4.0)]
                    .into_iter()
                    .chain(SPECIALS.iter().map(|&d| Some(d)))
                {
                    let mut want = x.clone();
                    for (&a, v) in coef.iter().zip(&vs) {
                        portable.sub_scaled(&mut want, a, v);
                    }
                    if let Some(d) = d {
                        portable.div(&mut want, d);
                    }
                    let mut got = x.clone();
                    let it = coef.iter().copied().zip(vs.iter().map(Vec::as_slice));
                    kern.solve_row(&mut got, it, d);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{mode:?} width={width} terms={terms} d={d:?}"
                    );
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
