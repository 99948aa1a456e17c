//! The register tiles behind the packed GEMM driver, one per ISA.
//!
//! A [`Microkernel`] owns only the innermost loop of
//! [`crate::packed::gemm_packed`]: one `MR`×`NR` accumulator tile,
//! `tile[r][c] += a[r][p] · b[p][c]` for `p` ascending, each product and
//! each partial sum rounded in the accumulator scalar. The driver owns
//! packing, cache blocking and parallelism, so adding an ISA is one
//! `impl`.
//!
//! The x86 vector tiles can also finish a full tile in registers
//! ([`Microkernel::finish`]): start from zeroed accumulators, prefetch
//! the tile's `C` rows, run the k loop, then store
//! `D = α·acc + β·C` straight from the registers, with `α·acc` and
//! `β·C` two separate multiplies and `ab + bc` one add. That is the
//! scalar α/β epilogue's chain when `D`'s scalar is the accumulator's
//! and α, β are exact in it, so the driver uses it only then, and only
//! on its single-k-block path; everything else keeps the scalar
//! epilogue.
//!
//! | kernel | ISA | MR×NR | lane width | packs / accumulates | ns per multiply-add |
//! |---|---|---|---|---|---|
//! | [`Chain`] (the [`crate::Blocked`] tier) | scalar | 4×8 | 1 | f64 or f32 / `CT` | 0.35; 27 for half `CT` |
//! | [`Portable`] | scalar, unrolled | 4×16 | 1 | f32, f64 | 0.25 |
//! | [`Avx2F32`], [`Avx2F64`] | AVX2 | 4×16, 4×8 | 8, 4 | f32, f64 | 0.055, 0.11 |
//! | [`Avx512F32`], [`Avx512F64`] | AVX-512F | 8×32, 8×16 | 16, 8 | f32, f64 | 0.035, 0.07 |
//!
//! ## Why vectorizing cannot change a bit
//!
//! The contract inherited from [`crate::Naive`] rounds every product
//! and every partial sum through the compute type `CT`, ascending in
//! `k`. Two facts make the vector kernels bit-identical to that chain:
//!
//! * **Lanes are independent chains.** A vector lane covers one output
//!   column; there is no horizontal reduction, so each element's sum
//!   order is exactly the naive ascending-`k` order. Vector width,
//!   tile shape, thread count and row partitioning only change *which*
//!   chains run concurrently, never the order within a chain.
//! * **Native arithmetic equals round-through-f64 arithmetic.** The
//!   reference computes `f32(a_f64 · b_f64)` and `f32(acc_f64 +
//!   p_f64)`. For operands exactly representable in f32 the f64
//!   product/sum double-rounds through 53 bits into 24, and since
//!   `53 ≥ 2·24 + 2` double rounding is exact for `+` and `·`
//!   (Figueroa's theorem): the result equals the correctly rounded
//!   native f32 operation, which is what `vmulps`/`vaddps` compute at
//!   any register width. The f64 kernels are the reference chain
//!   verbatim.
//!
//! The kernels therefore issue **separate multiply and add
//! instructions, never FMA**, in the k loop and in the register finish
//! alike: a fused multiply-add skips the product's rounding and breaks
//! parity. Widening to 512-bit lanes changes
//! nothing else: the default MXCSR keeps subnormals (no FTZ/DAZ), and
//! the zero-padded lanes past a strip's last column accumulate exact
//! zeros that the driver never stores back. The golden test in
//! `compute_parity` pins this reduction order.

use core::marker::PhantomData;
use core::ops::{Add, Mul};

use mc_types::{DType, Real};

use crate::pool::PoolElem;
use crate::simd::SimdMode;

/// One `MR`×`NR` register tile of the packed driver.
pub(crate) trait Microkernel: Copy + Send + Sync {
    /// Tile height in rows (accumulator rows held in registers).
    const MR: usize;
    /// Tile width in columns: the width of one packed B strip.
    const NR: usize;
    /// Estimated serial cost of one multiply-add, in ns: one thread's
    /// time per multiply-add at 64³–128³ on the 2-vCPU AVX-512F host
    /// (docs/PERFORMANCE.md, "One fan-out rule"). A GEMM row costs `n·k`.
    const MADD_NS: f64;
    /// The packed operand scalar; every supported input converts to it
    /// exactly.
    type Pack: Real + PoolElem;
    /// The accumulator scalar every product and partial sum rounds
    /// through.
    type Acc: Real + PoolElem;
    /// Stack storage for one `MR·NR` accumulator tile.
    type Tile: AsMut<[Self::Acc]>;

    /// A zeroed tile.
    fn zero_tile() -> Self::Tile;

    /// `c[r·ldc + j] += a[r·kc + p] · b[p·NR + j]` for rows `r < mr`,
    /// every column `j < NR`, and `p < kc` ascending. `c` is either the
    /// accumulator itself (a full-width tile) or a zero-padded
    /// [`Self::Tile`] with `ldc = NR` (a strip's ragged edge).
    ///
    /// # Safety
    ///
    /// `1 ≤ mr ≤ MR`, `a` covers `mr·kc` elements, `b` covers `kc·NR`
    /// and `c` covers `(mr−1)·ldc + NR`. The x86 kernels load and store
    /// through raw pointers bounded only by these lengths; debug builds
    /// check them.
    unsafe fn tile(
        self,
        a: &[Self::Pack],
        b: &[Self::Pack],
        c: &mut [Self::Acc],
        ldc: usize,
        kc: usize,
        mr: usize,
    );

    /// Whether [`Microkernel::finish`] is implemented: only the x86
    /// vector tiles finish in registers.
    const FINISHES: bool = false;

    /// One full `MR`×`NR` tile finished in registers:
    /// `d[r·ldc + j] ← α·acc + β·c[r·ldc + j]`, with `acc` the sum
    /// [`Microkernel::tile`] would leave in a zeroed tile. `α·acc` and
    /// `β·c` round separately, then `ab + bc` rounds once, never fused.
    /// `c` is `None` when `d` holds `C`.
    ///
    /// # Safety
    ///
    /// [`Microkernel::FINISHES`] holds, `a` covers `MR·kc` elements, `b`
    /// covers `kc·NR`, and `d` (and `c`) cover `(MR−1)·ldc + NR`; debug
    /// builds check the lengths.
    #[allow(clippy::too_many_arguments)]
    unsafe fn finish(
        self,
        _a: &[Self::Pack],
        _b: &[Self::Pack],
        _kc: usize,
        _c: Option<&[Self::Acc]>,
        _d: &mut [Self::Acc],
        _ldc: usize,
        _scale: (Self::Acc, Self::Acc),
    ) {
        unreachable!("only kernels with FINISHES finish a tile in registers")
    }
}

/// Debug-build check of [`Microkernel::finish`]'s slice-length
/// contract: the [`Microkernel::tile`] check at `mr == MR`, plus the
/// `C` and `D` spans.
#[inline(always)]
pub(crate) fn debug_check_finish<K: Microkernel>(
    a: &[K::Pack],
    b: &[K::Pack],
    kc: usize,
    c: Option<&[K::Acc]>,
    d: &[K::Acc],
    ldc: usize,
) {
    let span = (K::MR - 1) * ldc + K::NR;
    debug_assert!(
        d.len() >= span,
        "D span holds {} < {span} elements",
        d.len()
    );
    debug_assert!(
        c.is_none_or(|c| c.len() >= span),
        "C span holds fewer than {span} elements"
    );
    debug_check::<K>(a, b, d, ldc, kc, K::MR);
}

/// Debug-build check of [`Microkernel::tile`]'s slice-length contract,
/// derived from the kernel's own `MR` and `NR`.
#[inline(always)]
fn debug_check<K: Microkernel>(
    a: &[K::Pack],
    b: &[K::Pack],
    c: &[K::Acc],
    ldc: usize,
    kc: usize,
    mr: usize,
) {
    debug_assert!((1..=K::MR).contains(&mr), "tile rows {mr} outside 1..=MR");
    debug_assert!(
        a.len() >= mr * kc,
        "A rows hold {} < mr·kc elements",
        a.len()
    );
    debug_assert!(
        b.len() >= kc * K::NR,
        "B strip holds {} < kc·NR elements",
        b.len()
    );
    debug_assert!(
        c.len() >= (mr - 1) * ldc + K::NR,
        "C tile holds {} elements",
        c.len()
    );
}

/// The scalar tile loop every non-vector path shares: `mr` rows of an
/// `nr`-wide tile, one independent rounding chain per column, advanced
/// by `step(acc, a, b)`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_loop<P: Copy, A: Copy>(
    a: &[P],
    b: &[P],
    c: &mut [A],
    ldc: usize,
    kc: usize,
    mr: usize,
    nr: usize,
    step: impl Fn(A, P, P) -> A,
) {
    for p in 0..kc {
        let brow = &b[p * nr..(p + 1) * nr];
        for r in 0..mr {
            let av = a[r * kc + p];
            for (t, &bv) in c[r * ldc..r * ldc + nr].iter_mut().zip(brow) {
                *t = step(*t, av, bv);
            }
        }
    }
}

/// The scalar rounding chain of [`crate::Blocked`]:
/// `acc ← CT(acc + CT(a·b))` with the product formed in f64, so
/// half-precision accumulation and f64 inputs under f32 compute keep
/// the naive chain too. Operands pack as `P`: f64 takes every input
/// exactly, f32 halves the panels for inputs that embed in it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Chain<CT, P>(PhantomData<(CT, P)>);

/// One step of the compute-type rounding chain.
#[inline(always)]
fn chain_step<CT: Real, P: Real>(acc: CT, av: P, bv: P) -> CT {
    let prod = CT::from_f64(av.to_f64() * bv.to_f64());
    CT::from_f64(acc.to_f64() + prod.to_f64())
}

impl<CT: Real + PoolElem, P: Real + PoolElem> Microkernel for Chain<CT, P> {
    const MR: usize = 4;
    const NR: usize = 8;
    const MADD_NS: f64 = match CT::DTYPE {
        DType::F16 | DType::Bf16 => 27.0,
        _ => 0.35,
    };
    type Pack = P;
    type Acc = CT;
    type Tile = [CT; 4 * 8];

    fn zero_tile() -> Self::Tile {
        [CT::zero(); 4 * 8]
    }

    unsafe fn tile(self, a: &[P], b: &[P], c: &mut [CT], ldc: usize, kc: usize, mr: usize) {
        debug_check::<Self>(a, b, c, ldc, kc, mr);
        tile_loop(a, b, c, ldc, kc, mr, Self::NR, chain_step::<CT, P>);
    }
}

/// Native scalars the vector and portable kernels accumulate in.
pub(crate) trait Lane: Real + PoolElem + Add<Output = Self> + Mul<Output = Self> {}

impl Lane for f32 {}
impl Lane for f64 {}

/// One native step: a separate multiply and add (Rust never contracts
/// them into an FMA).
#[inline(always)]
fn lane_step<T: Lane>(acc: T, av: T, bv: T) -> T {
    let prod = av * bv;
    acc + prod
}

/// The portable unrolled tile: the vector kernels' loop nest in scalar
/// code, so the compiler may auto-vectorize across the independent
/// column chains without reassociating any of them.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Portable<T>(PhantomData<T>);

impl<T: Lane> Microkernel for Portable<T> {
    const MR: usize = 4;
    const NR: usize = 16;
    const MADD_NS: f64 = 0.25;
    type Pack = T;
    type Acc = T;
    type Tile = [T; 4 * 16];

    fn zero_tile() -> Self::Tile {
        [T::zero(); 4 * 16]
    }

    unsafe fn tile(self, a: &[T], b: &[T], c: &mut [T], ldc: usize, kc: usize, mr: usize) {
        debug_check::<Self>(a, b, c, ldc, kc, mr);
        tile_loop(a, b, c, ldc, kc, mr, Self::NR, lane_step::<T>);
    }
}

/// Defines an x86 register-tile kernel: `MR` rows of two `LANES`-wide
/// vectors each, B's two vectors loaded once per `p` and shared across
/// the rows. A value of the type exists only when the host has the ISA
/// (`detect`), which is what makes its `target_feature` call sound.
/// Remainder tiles (`mr < MR`) take the scalar loop.
macro_rules! x86_kernel {
    (
        $(#[$doc:meta])* $name:ident: $t:ty, $isa:ident, $feature:tt, mr $mr:literal,
        lanes $lanes:literal, $zero:ident, $load:ident, $store:ident, $set1:ident, $mul:ident,
        $add:ident, madd_ns $madd_ns:literal
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug)]
        pub(crate) struct $name(());

        impl $name {
            /// The kernel, if the host CPU supports its ISA.
            pub(crate) fn detect() -> Option<Self> {
                SimdMode::$isa.is_available().then_some($name(()))
            }

            /// The full-height tile on intrinsics. With `scale` `None` it
            /// accumulates onto the `C` rows and stores the sums to `D`
            /// (the same rows); with `Some((α, β))` it prefetches the `C`
            /// rows, accumulates from zero and stores `α·acc + β·c` to `D`.
            ///
            /// # Safety
            ///
            /// The host supports the ISA; `a` covers `MR·kc` elements, `b`
            /// `kc·NR`, and `c` and `d` `(MR−1)·ldc + NR` each.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn full_tile(
                ap: *const $t,
                bp: *const $t,
                kc: usize,
                cp: *const $t,
                dp: *mut $t,
                ldc: usize,
                scale: Option<($t, $t)>,
            ) {
                use core::arch::x86_64::*;
                const NR: usize = 2 * $lanes;
                let mut acc = [[$zero(); 2]; $mr];
                match scale {
                    None => {
                        for (r, row) in acc.iter_mut().enumerate() {
                            *row = [$load(cp.add(r * ldc)), $load(cp.add(r * ldc + $lanes))];
                        }
                    }
                    Some(_) => {
                        // The `C` rows arrive while the k loop runs.
                        for r in 0..$mr {
                            _mm_prefetch::<_MM_HINT_T0>(cp.add(r * ldc).cast());
                            _mm_prefetch::<_MM_HINT_T0>(cp.add(r * ldc + NR - 1).cast());
                        }
                    }
                }
                for p in 0..kc {
                    let b0 = $load(bp.add(p * NR));
                    let b1 = $load(bp.add(p * NR + $lanes));
                    for (r, row) in acc.iter_mut().enumerate() {
                        // Separate mul then add, never FMA: fusing would
                        // skip the product's rounding.
                        let av = $set1(*ap.add(r * kc + p));
                        row[0] = $add(row[0], $mul(av, b0));
                        row[1] = $add(row[1], $mul(av, b1));
                    }
                }
                if let Some((alpha, beta)) = scale {
                    // The scalar epilogue's chain: `α·acc` and `β·c` each
                    // rounded, then `ab + bc`, with `ab` the first operand
                    // (it supplies the NaN payload when both are NaN).
                    let (alpha, beta) = ($set1(alpha), $set1(beta));
                    for (r, row) in acc.iter_mut().enumerate() {
                        for (h, v) in row.iter_mut().enumerate() {
                            let ab = $mul(alpha, *v);
                            let bc = $mul(beta, $load(cp.add(r * ldc + h * $lanes)));
                            *v = $add(ab, bc);
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    $store(dp.add(r * ldc), row[0]);
                    $store(dp.add(r * ldc + $lanes), row[1]);
                }
            }
        }

        impl Microkernel for $name {
            const MR: usize = $mr;
            const NR: usize = 2 * $lanes;
            const MADD_NS: f64 = $madd_ns;
            type Pack = $t;
            type Acc = $t;
            type Tile = [$t; $mr * 2 * $lanes];

            fn zero_tile() -> Self::Tile {
                [0.0; $mr * 2 * $lanes]
            }

            unsafe fn tile(self, a: &[$t], b: &[$t], c: &mut [$t], ldc: usize, kc: usize, mr: usize) {
                debug_check::<Self>(a, b, c, ldc, kc, mr);
                #[cfg(target_arch = "x86_64")]
                if mr == Self::MR {
                    let cp = c.as_mut_ptr();
                    // SAFETY: `self` exists only if `detect` found the
                    // ISA; the caller guarantees the slice lengths that
                    // bound every offset `full_tile` dereferences.
                    return unsafe { Self::full_tile(a.as_ptr(), b.as_ptr(), kc, cp, cp, ldc, None) };
                }
                tile_loop(a, b, c, ldc, kc, mr, Self::NR, lane_step::<$t>);
            }

            const FINISHES: bool = cfg!(target_arch = "x86_64");

            #[allow(clippy::too_many_arguments)]
            unsafe fn finish(
                self,
                a: &[$t],
                b: &[$t],
                kc: usize,
                c: Option<&[$t]>,
                d: &mut [$t],
                ldc: usize,
                scale: ($t, $t),
            ) {
                debug_check_finish::<Self>(a, b, kc, c, d, ldc);
                #[cfg(target_arch = "x86_64")]
                {
                    let dp = d.as_mut_ptr();
                    let cp = c.map_or(dp.cast_const(), <[$t]>::as_ptr);
                    // SAFETY: as in `tile`, with the caller guaranteeing
                    // the `C` and `D` spans.
                    unsafe { Self::full_tile(a.as_ptr(), b.as_ptr(), kc, cp, dp, ldc, Some(scale)) };
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    let _ = scale;
                    unreachable!("FINISHES is false off x86-64")
                }
            }
        }

    };
}

x86_kernel!(
    /// The AVX2 4×16 f32 tile: eight 8-wide accumulators.
    Avx2F32: f32, Avx2, "avx2", mr 4, lanes 8, _mm256_setzero_ps, _mm256_loadu_ps,
    _mm256_storeu_ps, _mm256_set1_ps, _mm256_mul_ps, _mm256_add_ps, madd_ns 0.055
);
x86_kernel!(
    /// The AVX2 4×8 f64 tile: eight 4-wide accumulators.
    Avx2F64: f64, Avx2, "avx2", mr 4, lanes 4, _mm256_setzero_pd, _mm256_loadu_pd,
    _mm256_storeu_pd, _mm256_set1_pd, _mm256_mul_pd, _mm256_add_pd, madd_ns 0.11
);
x86_kernel!(
    /// The AVX-512F 8×32 f32 tile: sixteen 16-wide accumulators.
    Avx512F32: f32, Avx512, "avx512f", mr 8, lanes 16, _mm512_setzero_ps, _mm512_loadu_ps,
    _mm512_storeu_ps, _mm512_set1_ps, _mm512_mul_ps, _mm512_add_ps, madd_ns 0.035
);
x86_kernel!(
    /// The AVX-512F 8×16 f64 tile: sixteen 8-wide accumulators.
    Avx512F64: f64, Avx512, "avx512f", mr 8, lanes 8, _mm512_setzero_pd, _mm512_loadu_pd,
    _mm512_storeu_pd, _mm512_set1_pd, _mm512_mul_pd, _mm512_add_pd, madd_ns 0.07
);
