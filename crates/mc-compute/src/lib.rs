//! Shared CPU compute backends for the matrix-core model.
//!
//! This crate owns the hot loops that every layer above funnels into:
//!
//! * [`MatMul`] — the backend trait over `mc-types` dtypes; `AB` is the
//!   input element type, `CD` the output type, `CT` the accumulation
//!   (compute) type, mirroring the paper's `CDFmt_ABFmt` naming. Like
//!   `rocblas_gemm_ex`, every operand is a strided row-major view with
//!   its own leading dimension ([`GemmParams::with_leading_dims`]), and
//!   [`MatMul::gemm_in_place`] lets `D` double as `C`, so a solver
//!   updates a trailing block of its factor without copying it.
//! * [`Naive`] — the retained reference triple loop (the pre-existing
//!   `run_simd` kernel, verbatim); the semantic ground truth.
//! * One packed driver (`packed.rs`, [`MC`]×[`NC`]×[`KC`] blocking,
//!   one rayon region per call) over a per-ISA microkernel trait
//!   (`microkernel.rs`). Every tile preserves the per-element
//!   ascending-k rounding chain, so both packed tiers are bit-identical
//!   to [`Naive`] for every dtype triple, NaN payloads aside (see
//!   [`MatMul`]):
//!   * [`Blocked`] — the driver over the scalar rounding chain (exact
//!     f32/f64 packing, `CT` accumulation), for every dtype triple;
//!   * [`Simd`] — the driver over the widest vector tile the host
//!     detects: AVX-512F, AVX2, or the portable scalar-unrolled tile,
//!     selectable through [`SimdMode`], with the [`SIMD_ENV`] escape
//!     hatch. `microkernel.rs` holds the double-rounding argument.
//! * [`Auto`] — dispatch over the packed tiers: SIMD where the
//!   tier is enabled and the dtype pairing has a vector kernel, blocked
//!   otherwise, at every size (the packed driver runs calls of at most
//!   32³ multiply-adds as one chunk on the caller).
//!   Bitwise-invisible because all backends agree bit for bit.
//! * Pool-backed buffer reuse — [`acquire`] / [`recycle`] /
//!   [`pool_stats`]: the buffer pool the packed tiers and the solver's
//!   matrices draw from, one freelist shared by every thread, with
//!   hit/miss counters that only grow (a window's traffic is
//!   [`PoolStats::since`] an earlier snapshot) and that `mc-obs`
//!   exports as `compute.pool.*` metrics.
//! * [`gemm_i8`] / [`gemm_i8_reference`] — the int8→int32 quantized
//!   kernels (exact integer accumulation, so blocking is trivially
//!   safe).
//! * [`mma_accumulate`] — the fragment-shaped accumulation loop
//!   `mc-wmma` uses, with hoisted conversions.
//! * [`prof`] — host-plane profiling hooks: opt-in, session-scoped
//!   region/phase/dispatch events over the packed tiers, consumed by
//!   `mc-hostprof` for unified traces and per-phase attribution.
//!
//! Consumers: `mc_blas::functional` (gemm and batched), the
//! `mc-solver` BLAS-3 blocks, and `mc-wmma`'s `mma_sync`.

#![deny(missing_docs)]

mod auto;
mod blocked;
mod int8;
mod microkernel;
mod mma;
mod naive;
mod packed;
mod params;
mod pool;
pub mod prof;
mod simd;

pub use auto::{machine_cores, Auto};
pub use blocked::Blocked;
pub use int8::{gemm_i8, gemm_i8_reference};
pub use mma::mma_accumulate;
pub use naive::Naive;
pub use packed::{KC, MC, NC};
pub use params::{ComputeError, Epilogue, GemmParams, Trans};
pub use pool::{acquire, pool_stats, recycle, PoolElem, PoolStats, PooledVec};
pub use simd::{Simd, SimdMode, SIMD_ENV};

use mc_types::Real;

/// A GEMM backend: `D (m×n) ← α · op(A)·op(B) + β · C` with the
/// products and sums rounded through the compute type `CT`.
///
/// Every operand is a strided row-major view (see [`GemmParams`]'s
/// leading dimensions). `D` may double as `C`
/// ([`MatMul::gemm_in_place`]): the α/β epilogue is element-wise and
/// runs only once an element's accumulation is complete, so an
/// in-place call is bit-identical to the out-of-place one.
///
/// Implementations must be deterministic and thread-count invariant:
/// the same `(params, a, b, c)` yields bitwise-identical `d` regardless
/// of the rayon pool size.
///
/// Every tier matches [`Naive`] bit for bit with one exception, NaN
/// payloads: when both factors of a product are NaN, [`Naive`] keeps
/// `A`'s payload and the packed tiers keep `B`'s, and when both terms
/// of the epilogue's `α·acc + β·c` are NaN the payload kept is the
/// compiler's choice on every tier. Rust and LLVM leave NaN payloads
/// unspecified, so no operand order is forced; every tier is still NaN
/// exactly where [`Naive`] is.
pub trait MatMul {
    /// A short identifier for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Runs the GEMM with `C` read from `c`, or from `d`'s own prior
    /// contents when `c` is `None`. Both [`MatMul::gemm`] and
    /// [`MatMul::gemm_in_place`] land here, so every tier serves both
    /// through one code path.
    fn run<AB, CD, CT>(
        &self,
        params: &GemmParams,
        a: &[AB],
        b: &[AB],
        c: Option<&[CD]>,
        d: &mut [CD],
    ) -> Result<(), ComputeError>
    where
        AB: Real,
        CD: Real,
        CT: Real;

    /// Runs the GEMM. `a`/`b` hold op-shaped operands per
    /// `params.trans_a`/`trans_b`; `c` and `d` are `m×n` views at
    /// leading dimension `params.ldc()`.
    fn gemm<AB, CD, CT>(
        &self,
        params: &GemmParams,
        a: &[AB],
        b: &[AB],
        c: &[CD],
        d: &mut [CD],
    ) -> Result<(), ComputeError>
    where
        AB: Real,
        CD: Real,
        CT: Real,
    {
        self.run::<AB, CD, CT>(params, a, b, Some(c), d)
    }

    /// Runs the GEMM in place: `cd` holds `C` on entry and `D` on
    /// return (`rocblas_gemm_ex` with `D` aliasing `C`).
    fn gemm_in_place<AB, CD, CT>(
        &self,
        params: &GemmParams,
        a: &[AB],
        b: &[AB],
        cd: &mut [CD],
    ) -> Result<(), ComputeError>
    where
        AB: Real,
        CD: Real,
        CT: Real,
    {
        self.run::<AB, CD, CT>(params, a, b, None, cd)
    }
}
