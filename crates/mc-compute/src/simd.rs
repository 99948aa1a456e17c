//! The explicit-SIMD tier: the packed driver over the widest vector
//! tile the host supports, with the naive kernel's exact rounding chain.
//!
//! [`Simd`] is the top tier of the dispatch ladder. It runs
//! [`crate::packed`]'s loop nest with an x86-64 `std::arch` register
//! tile: AVX-512F (8×32 f32, 8×16 f64) when the host has it, else AVX2
//! (4×16 f32, 4×8 f64), else the portable scalar-unrolled 4×16 tile. The
//! widest ISA is detected at call time; [`SimdMode`] caps it, and
//! [`SIMD_ENV`]`=portable` forces the portable tile. The microkernel
//! module documents why none of these can change a bit.
//!
//! The embeddability premise limits which dtype triples may take the
//! f32 vector path: inputs must convert to f32 exactly (`f32`, `F16`,
//! `Bf16` — not `f64`). [`Simd::supports`] encodes the rule and
//! everything else falls back to [`Blocked`], so [`Simd`] is safe to
//! call for any dtype triple.

use mc_types::{DType, Real};

use crate::microkernel::{Avx2F32, Avx2F64, Avx512F32, Avx512F64, Portable};
use crate::packed::gemm_packed;
use crate::params::{ComputeError, GemmParams};
use crate::{Blocked, MatMul};

/// Environment variable controlling the SIMD tier: `off` removes it
/// from the [`crate::Auto`] dispatch, `portable` forces the
/// scalar-unrolled kernel, anything else (or unset) auto-detects.
pub const SIMD_ENV: &str = "MC_GEMM_SIMD";

/// The widest kernel ISA a [`Simd`] backend may run, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdMode {
    /// The scalar-unrolled portable tile (same loop nest and rounding
    /// chain; auto-vectorizable because the lanes are independent).
    Portable,
    /// The AVX2 tile: 8-wide f32 / 4-wide f64 vectors.
    Avx2,
    /// The AVX-512F tile: 16-wide f32 / 8-wide f64 vectors.
    Avx512,
}

impl SimdMode {
    /// Whether the host CPU can run this kernel.
    pub fn is_available(self) -> bool {
        match self {
            SimdMode::Portable => true,
            #[cfg(target_arch = "x86_64")]
            SimdMode::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdMode::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every kernel the host can run, narrowest first (the parity
    /// suites iterate this to cover each one).
    pub fn available() -> Vec<SimdMode> {
        Self::ALL.into_iter().filter(|m| m.is_available()).collect()
    }

    /// The widest kernel the host can run.
    pub fn detect() -> SimdMode {
        SimdMode::Avx512.capped()
    }

    const ALL: [SimdMode; 3] = [SimdMode::Portable, SimdMode::Avx2, SimdMode::Avx512];

    /// The widest available kernel at or below `self`.
    fn capped(self) -> SimdMode {
        Self::ALL
            .into_iter()
            .rev()
            .find(|m| *m <= self && m.is_available())
            .unwrap_or(SimdMode::Portable)
    }

    /// Short name for reports and bench ids.
    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Portable => "portable",
            SimdMode::Avx2 => "avx2",
            SimdMode::Avx512 => "avx512",
        }
    }
}

/// The explicit-SIMD GEMM backend.
#[derive(Clone, Copy, Debug)]
pub struct Simd {
    mode: SimdMode,
}

impl Simd {
    /// Backend capped at `mode`: it runs the widest kernel the host
    /// supports at or below `mode` (checked at call time).
    pub fn with_mode(mode: SimdMode) -> Self {
        Simd { mode }
    }

    /// Backend configured from [`SIMD_ENV`]: the widest detected
    /// kernel unless `portable` is requested.
    pub fn from_env() -> Self {
        let portable = std::env::var(SIMD_ENV)
            .is_ok_and(|v| matches!(v.to_ascii_lowercase().as_str(), "portable" | "scalar"));
        Simd::with_mode(if portable {
            SimdMode::Portable
        } else {
            SimdMode::detect()
        })
    }

    /// The cap this backend instance was configured with.
    pub fn mode(&self) -> SimdMode {
        self.mode
    }

    /// The kernel this backend runs on this host.
    pub fn isa(&self) -> SimdMode {
        self.mode.capped()
    }

    /// Whether the host exposes a vector unit (AVX2 or AVX-512F) for
    /// the intrinsic tiles.
    pub fn vector_available() -> bool {
        SimdMode::detect() != SimdMode::Portable
    }

    /// Whether [`SIMD_ENV`] leaves the tier in the [`crate::Auto`]
    /// dispatch (`off`/`0` removes it).
    pub fn enabled_from_env() -> bool {
        !std::env::var(SIMD_ENV)
            .is_ok_and(|v| matches!(v.to_ascii_lowercase().as_str(), "off" | "0"))
    }

    /// Whether the tier has a native kernel for this dtype pairing:
    /// f64 accumulation takes any input dtype (every supported input
    /// embeds exactly in f64), f32 accumulation requires inputs that
    /// embed exactly in f32 (`f32`, `F16`, `Bf16`). Everything else —
    /// notably half-precision accumulation — delegates to [`Blocked`].
    pub fn supports<AB: Real, CT: Real>() -> bool {
        match CT::DTYPE {
            DType::F64 => true,
            DType::F32 => matches!(AB::DTYPE, DType::F32 | DType::F16 | DType::Bf16),
            _ => false,
        }
    }
}

impl Default for Simd {
    fn default() -> Self {
        Simd::from_env()
    }
}

impl MatMul for Simd {
    fn name(&self) -> &'static str {
        "simd"
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
        if !Self::supports::<AB, CT>() {
            return Blocked.run::<AB, CD, CT>(params, a, b, c, d);
        }
        // `supports` pins CT's dtype to f32 or f64; instantiating the
        // kernel at the concrete scalar of that dtype computes the
        // identical chain (the dtype determines the arithmetic).
        macro_rules! run {
            ($kernel:expr) => {
                gemm_packed($kernel, params, a, b, c, d)
            };
        }
        let detected = "isa() reports only kernels the host supports";
        match (CT::DTYPE, self.isa()) {
            (DType::F32, SimdMode::Avx512) => run!(Avx512F32::detect().expect(detected)),
            (DType::F32, SimdMode::Avx2) => run!(Avx2F32::detect().expect(detected)),
            (DType::F32, SimdMode::Portable) => run!(Portable::<f32>::default()),
            (DType::F64, SimdMode::Avx512) => run!(Avx512F64::detect().expect(detected)),
            (DType::F64, SimdMode::Avx2) => run!(Avx2F64::detect().expect(detected)),
            (DType::F64, SimdMode::Portable) => run!(Portable::<f64>::default()),
            _ => unreachable!("supports() gates the compute dtype"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Trans;
    use crate::Naive;
    use mc_types::{Bf16, F16};

    fn fill_ab<T: Real>(len: usize, seed: usize) -> Vec<T> {
        (0..len)
            .map(|i| T::from_f64(((i * seed + 3) % 17) as f64 / 8.0 - 1.0))
            .collect()
    }

    fn parity<AB: Real, CD: Real, CT: Real>(backend: &Simd, params: &GemmParams) {
        let (am, ak) = match params.trans_a {
            Trans::None => (params.m, params.k),
            Trans::Trans => (params.k, params.m),
        };
        let (bk, bn) = match params.trans_b {
            Trans::None => (params.k, params.n),
            Trans::Trans => (params.n, params.k),
        };
        let a: Vec<AB> = fill_ab(am * ak, 7);
        let b: Vec<AB> = fill_ab(bk * bn, 13);
        let c: Vec<CD> = fill_ab(params.m * params.n, 5);
        let mut d_naive = vec![CD::zero(); params.m * params.n];
        let mut d_simd = vec![CD::zero(); params.m * params.n];
        Naive
            .gemm::<AB, CD, CT>(params, &a, &b, &c, &mut d_naive)
            .unwrap();
        backend
            .gemm::<AB, CD, CT>(params, &a, &b, &c, &mut d_simd)
            .unwrap();
        for (i, (x, y)) in d_naive.iter().zip(&d_simd).enumerate() {
            assert!(x == y, "element {i}: {x:?} vs {y:?} ({params:?})");
        }
    }

    #[test]
    fn both_modes_match_naive_bitwise_across_dtypes() {
        for mode in SimdMode::available() {
            let backend = Simd::with_mode(mode);
            assert_eq!(backend.isa(), mode, "an available mode runs its own kernel");
            for (m, n, k) in [(1, 1, 1), (17, 5, 3), (65, 129, 257), (64, 128, 256)] {
                for epilogue in [crate::Epilogue::Direct, crate::Epilogue::ComputeRounded] {
                    let p = GemmParams::new(m, n, k)
                        .with_scaling(0.1, 0.1)
                        .with_epilogue(epilogue);
                    parity::<f64, f64, f64>(&backend, &p);
                    parity::<f32, f32, f32>(&backend, &p);
                    parity::<F16, f32, f32>(&backend, &p);
                    parity::<Bf16, Bf16, f32>(&backend, &p);
                    // Unsupported combos must fall back, still bitwise.
                    parity::<F16, F16, F16>(&backend, &p);
                    parity::<f64, f32, f32>(&backend, &p);
                }
            }
        }
    }

    #[test]
    fn transposed_operands_match_naive() {
        for (ta, tb) in [
            (Trans::None, Trans::Trans),
            (Trans::Trans, Trans::None),
            (Trans::Trans, Trans::Trans),
        ] {
            let p = GemmParams::new(33, 21, 130)
                .with_scaling(-1.0, 1.0)
                .with_transposes(ta, tb);
            for mode in SimdMode::available() {
                parity::<f32, f32, f32>(&Simd::with_mode(mode), &p);
                parity::<f64, f64, f64>(&Simd::with_mode(mode), &p);
            }
        }
    }

    #[test]
    fn supports_encodes_the_embeddability_rule() {
        assert!(Simd::supports::<f32, f32>());
        assert!(Simd::supports::<F16, f32>());
        assert!(Simd::supports::<Bf16, f32>());
        assert!(Simd::supports::<f64, f64>());
        assert!(Simd::supports::<f32, f64>());
        assert!(!Simd::supports::<f64, f32>(), "f64 inputs do not embed");
        assert!(!Simd::supports::<F16, F16>(), "no half-precision chains");
    }

    #[test]
    fn k_zero_runs_the_pure_epilogue() {
        let p = GemmParams::new(3, 2, 0).with_scaling(9.0, 0.5);
        parity::<f32, f32, f32>(&Simd::from_env(), &p);
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let p = GemmParams::new(130, 70, 90).with_scaling(0.1, 0.1);
        let a: Vec<f32> = fill_ab(130 * 90, 11);
        let b: Vec<f32> = fill_ab(90 * 70, 29);
        let c: Vec<f32> = fill_ab(130 * 70, 3);
        let mut runs: Vec<Vec<f32>> = Vec::new();
        for threads in [1, 2, 7] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .unwrap();
            let mut d = vec![0.0f32; 130 * 70];
            Simd::from_env()
                .gemm::<f32, f32, f32>(&p, &a, &b, &c, &mut d)
                .unwrap();
            runs.push(d);
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn mode_env_round_trips() {
        // from_env picks *some* mode without panicking, and only one
        // the host actually has.
        let s = Simd::from_env();
        assert!(s.isa().is_available());
        assert_eq!(
            s.isa() != SimdMode::Portable,
            Simd::vector_available() && s.mode() != SimdMode::Portable
        );
    }

    #[test]
    fn modes_cap_at_the_widest_available_kernel() {
        let available = SimdMode::available();
        assert_eq!(available[0], SimdMode::Portable);
        assert_eq!(SimdMode::detect(), *available.last().unwrap());
        // A cap above the host's ISA degrades to the widest it has.
        assert_eq!(Simd::with_mode(SimdMode::Avx512).isa(), SimdMode::detect());
        assert_eq!(
            Simd::with_mode(SimdMode::Portable).isa(),
            SimdMode::Portable
        );
    }

    /// A B strip shorter than `kc·NR` trips the widest kernel's
    /// debug-build length check before any out-of-bounds load.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "B strip holds")]
    fn short_b_strip_trips_the_tile_length_check() {
        use crate::microkernel::Microkernel;

        fn short_strip<K: Microkernel>(kernel: K) {
            let kc = 4;
            let a = vec![K::Pack::zero(); K::MR * kc];
            let b = vec![K::Pack::zero(); kc * K::NR - 1];
            let mut tile = K::zero_tile();
            // SAFETY: deliberately breaks the length contract; debug
            // builds check it before the kernel touches memory.
            unsafe { kernel.tile(&a, &b, tile.as_mut(), K::NR, kc, K::MR) };
        }
        match SimdMode::detect() {
            SimdMode::Avx512 => short_strip(Avx512F32::detect().unwrap()),
            SimdMode::Avx2 => short_strip(Avx2F32::detect().unwrap()),
            SimdMode::Portable => short_strip(Portable::<f32>::default()),
        }
    }
}
