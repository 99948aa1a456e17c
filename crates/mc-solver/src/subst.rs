//! The solver's one substitution kernel.
//!
//! Every scalar inner loop of the factorizations is one of two
//! element-wise updates over a contiguous run of `f64`s:
//! `x ← x − a·v` (eliminate one solved row or column) and `x ← x / d`
//! (divide by a pivot). The LU panel, the left solves and the right
//! solve all call [`Subst`] for them.
//!
//! Each update has an AVX-512F, an AVX2 and a portable body. The vector
//! bodies multiply and then subtract as two separate IEEE operations,
//! never a fused multiply-add, and divide with the correctly rounded
//! vector divide. So every lane computes exactly what the portable
//! scalar loop computes, NaN, infinity, subnormal and signed-zero
//! inputs included, and no body can change a bit of a factor. The ISA
//! is resolved once, when a [`Subst`] is made (one environment read),
//! and each call only matches on it.

use mc_compute::{Simd, SimdMode};

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

/// Defines the two vector bodies for one x86 ISA: full `LANES`-wide
/// vectors, then the portable loop over the remainder.
macro_rules! x86_bodies {
    (
        $sub_scaled:ident, $div:ident, $feature:tt, lanes $lanes:literal, $load:ident,
        $store:ident, $set1:ident, $mul:ident, $sub:ident, $divv:ident
    ) => {
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
    sub_scaled_avx512, div_avx512, "avx512f", lanes 8, _mm512_loadu_pd, _mm512_storeu_pd,
    _mm512_set1_pd, _mm512_mul_pd, _mm512_sub_pd, _mm512_div_pd
);
x86_bodies!(
    sub_scaled_avx2, div_avx2, "avx2", lanes 4, _mm256_loadu_pd, _mm256_storeu_pd,
    _mm256_set1_pd, _mm256_mul_pd, _mm256_sub_pd, _mm256_div_pd
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
