//! Dispatch over the two packed tiers: blocked+SIMD where it applies,
//! the scalar blocked kernel otherwise.
//!
//! [`Auto`] routes every problem to [`Simd`] when the
//! [`crate::SIMD_ENV`] escape hatch leaves that tier enabled *and* the
//! dtype pairing has a native SIMD kernel ([`Simd::supports`]), and to
//! [`Blocked`] otherwise. Half-precision *accumulation*
//! (`CT ∈ {F16, Bf16}`) therefore always lands on [`Blocked`]. There
//! is no size edge: on the 2-vCPU AVX-512F host both packed tiers beat
//! the naive triple loop from 12³ up (docs/PERFORMANCE.md, "One host
//! GEMM route"), so [`Naive`](crate::Naive) stays the reference tier
//! only. Whether a small call is worth a fan-out is decided where the
//! parallelism is: the packed driver asks [`crate::fan_out`], with each
//! row costed at the tile's [`Auto::madd_ns`].
//!
//! Routing is bitwise-invisible: every tier matches
//! [`Naive`](crate::Naive) bit for bit on every dtype triple (the
//! `compute_parity` suite proves it), NaN payloads aside (see
//! [`MatMul`](crate::MatMul)), so the dispatch can only change *time*,
//! never results. The `mc-blas` plan selector re-exports this dispatch
//! as its host-side analogue (`mc_blas::select::host_gemm_backend`),
//! keeping the library's host loops and the bench harness on one
//! policy.

use std::sync::OnceLock;

use mc_types::{DType, Real, F16};

use crate::microkernel::{Avx2F32, Avx2F64, Avx512F32, Avx512F64, Chain, Microkernel, Portable};
use crate::params::{ComputeError, GemmParams};
use crate::{prof, Blocked, MatMul, Simd, SimdMode};

/// The cores this process may run on (`available_parallelism`, which
/// honours cgroup quotas and affinity masks), read once per process:
/// it costs cgroup file reads.
pub fn machine_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The dispatching backend.
#[derive(Clone, Copy, Debug)]
pub struct Auto {
    pub(crate) simd: Option<Simd>,
}

impl Auto {
    /// Dispatcher whose SIMD tier follows [`crate::SIMD_ENV`].
    pub fn from_env() -> Self {
        Auto {
            simd: Simd::enabled_from_env().then(Simd::from_env),
        }
    }

    /// Removes the SIMD tier from this dispatcher regardless of the
    /// environment (runs that want the scalar packed tier).
    pub fn without_simd(mut self) -> Self {
        self.simd = None;
        self
    }

    /// Whether the SIMD tier is this dispatcher's first choice (it
    /// still requires [`Simd::supports`] per dtype pairing).
    pub fn simd_enabled(&self) -> bool {
        self.simd.is_some()
    }

    /// The estimated serial cost, in ns, of one multiply-add on the tile
    /// this dtype pairing runs on ([`crate::fan_out`]'s GEMM row: `n·k`).
    pub fn madd_ns<AB: Real, CT: Real>(&self) -> f64 {
        let simd = self.simd.filter(|_| Simd::supports::<AB, CT>());
        match (simd.map(|s| s.isa()), CT::DTYPE) {
            (Some(SimdMode::Avx512), DType::F32) => Avx512F32::MADD_NS,
            (Some(SimdMode::Avx2), DType::F32) => Avx2F32::MADD_NS,
            (Some(SimdMode::Portable), DType::F32) => Portable::<f32>::MADD_NS,
            (Some(SimdMode::Avx512), _) => Avx512F64::MADD_NS,
            (Some(SimdMode::Avx2), _) => Avx2F64::MADD_NS,
            (Some(SimdMode::Portable), _) => Portable::<f64>::MADD_NS,
            (None, DType::F16 | DType::Bf16) => Chain::<F16, f64>::MADD_NS,
            (None, _) => Chain::<f64, f64>::MADD_NS,
        }
    }

    /// The name of the backend a problem with this dtype pairing
    /// dispatches to: `simd` or `blocked`.
    pub fn routed_name<AB: Real, CT: Real>(&self, _params: &GemmParams) -> &'static str {
        if self.simd.is_some() && Simd::supports::<AB, CT>() {
            "simd"
        } else {
            "blocked"
        }
    }
}

impl Default for Auto {
    fn default() -> Self {
        Auto::from_env()
    }
}

impl MatMul for Auto {
    fn name(&self) -> &'static str {
        "auto"
    }

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
        CT: Real,
    {
        // Host profiling: when the calling thread is attached to a
        // live session, the dispatch opens a region around the routed
        // call (an untraced run pays only the `active()` check).
        let token = prof::active().then(|| {
            prof::region_start(
                self.routed_name::<AB, CT>(params),
                params.m,
                params.n,
                params.k,
                self.simd.is_some(),
            )
        });
        let result = match self.simd {
            Some(simd) if Simd::supports::<AB, CT>() => simd.run::<AB, CD, CT>(params, a, b, c, d),
            _ => Blocked.run::<AB, CD, CT>(params, a, b, c, d),
        };
        if let Some(token) = token {
            prof::region_end(token);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Naive;

    /// No size goes to `Naive`: 4³ and 24³ sit below every edge the
    /// retired naive route had (40 on one thread, 32 on a pool).
    #[test]
    fn routed_name_is_simd_or_blocked_at_every_size() {
        let auto = Auto::from_env();
        for n in [1, 4, 24, 256] {
            let params = GemmParams::new(n, n, n);
            if auto.simd_enabled() {
                assert_eq!(auto.routed_name::<f32, f32>(&params), "simd", "n={n}");
                // f64 inputs cannot take the f32 SIMD path.
                assert_eq!(auto.routed_name::<f64, f32>(&params), "blocked", "n={n}");
            }
            assert_eq!(
                auto.without_simd().routed_name::<f32, f32>(&params),
                "blocked",
                "n={n}"
            );
        }
    }

    #[test]
    fn both_routes_match_naive_bitwise() {
        for n in [4usize, 24, 96] {
            let params = GemmParams::new(n, n, n).with_scaling(0.5, 0.25);
            let a: Vec<f32> = (0..n * n).map(|i| ((i % 13) as f32) - 6.0).collect();
            let b: Vec<f32> = (0..n * n).map(|i| ((i % 7) as f32) - 3.0).collect();
            let c: Vec<f32> = (0..n * n).map(|i| (i % 5) as f32).collect();
            let mut via_naive = vec![0.0f32; n * n];
            let mut via_top = vec![0.0f32; n * n];
            let mut via_blocked = vec![0.0f32; n * n];
            Naive
                .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut via_naive)
                .unwrap();
            Auto::from_env()
                .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut via_top)
                .unwrap();
            Auto::from_env()
                .without_simd()
                .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut via_blocked)
                .unwrap();
            assert_eq!(via_naive, via_top, "N={n}");
            assert_eq!(via_naive, via_blocked, "N={n}");
        }
    }
}
