//! Shape-aware backend dispatch over the three-tier kernel ladder:
//! naive → blocked → blocked+SIMD.
//!
//! The packed-panel tiers pay a fixed toll per call — panel packing,
//! waking the parked rayon workers for the call's one region, and
//! per-tile bookkeeping — that their cache and vector wins only repay
//! once the problem is large enough. Below that crossover the plain
//! triple loop is *faster* (the `perf` experiment's
//! `BENCH_hotpaths.json` showed `sgemm_blocked` losing to
//! `sgemm_naive` at N = 256 on one thread before this dispatch
//! existed). [`Auto`] closes that gap: it compares the problem's
//! geometric-mean dimension `∛(m·n·k)` against a crossover edge and
//! routes small problems to [`Naive`], large ones to the top tier.
//!
//! The top tier is [`Simd`] when the [`crate::SIMD_ENV`] escape hatch
//! leaves it enabled *and* the dtype pairing has a native SIMD kernel
//! ([`Simd::supports`]); otherwise [`Blocked`]. Half-precision
//! *accumulation* (`CT ∈ {F16, Bf16}`) therefore always lands on
//! [`Blocked`] above the edge: those combos only appear in parity
//! tests, so the edge is calibrated for the f32/f64 tiers the library
//! and solver actually run hot.
//!
//! Routing is bitwise-invisible: every tier matches [`Naive`] bit for
//! bit on every dtype triple (the `compute_parity` suite proves it),
//! NaN payloads aside (see [`MatMul`](crate::MatMul)), so the dispatch
//! can only change *time*, never results.
//!
//! The default edge is tier- and thread-aware — the SIMD microkernel
//! amortizes its packing toll at a much smaller N than the scalar
//! blocked kernel, and both amortize sooner when a real rayon pool
//! parallelizes them — and the [`CROSSOVER_ENV`] variable overrides
//! the default for calibration sweeps; `experiments perf` (in
//! `mc-bench`) times every tier over the sweep that re-derives the
//! default. The `mc-blas` plan selector
//! re-exports this dispatch as its host-side analogue
//! (`mc_blas::select::host_gemm_backend`), keeping the library's host
//! loops and the bench harness on one policy.

use std::sync::OnceLock;

use mc_types::Real;

use crate::params::{ComputeError, GemmParams};
use crate::{prof, Blocked, MatMul, Naive, Simd};

/// Environment variable overriding the crossover edge (a plain integer,
/// interpreted as the N of an N³ problem at the naive/top-tier
/// boundary).
pub const CROSSOVER_ENV: &str = "MC_GEMM_CROSSOVER";

/// Default crossover edge for a rayon pool of `threads` workers, for
/// the tier ladder currently in force.
///
/// With the SIMD tier enabled and the vector unit present, the
/// microkernel's packing toll is repaid almost immediately: the
/// calibration sweep (the size axis of `mc-bench`'s `perf`
/// experiment, N = 32 … 2048 at one thread and at every core) has
/// naive ahead at N = 32 and the microkernel ahead 2× by N = 48 on one
/// thread, so
/// the single-thread edge sits at 40; a real pool amortizes the
/// call's single region (a wake-up of parked workers, no thread
/// spawn) sooner still. Without the SIMD tier (no vector unit, or
/// `MC_GEMM_SIMD=off`) the scalar blocked kernel's historical edges
/// apply: naive stays ahead through N = 256 single-threaded and the
/// pooled edge sits at 128.
pub fn default_crossover(threads: usize) -> usize {
    if Simd::enabled_from_env() && Simd::vector_available() {
        if threads > 1 {
            32
        } else {
            40
        }
    } else if threads > 1 {
        128
    } else {
        320
    }
}

/// The cores this process may run on (`available_parallelism`, which
/// honours cgroup quotas and affinity masks), read once per process:
/// it costs cgroup file reads.
pub fn machine_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The parallelism the packed tiers can actually exploit: the rayon
/// pool size capped by [`machine_cores`]. Configuring a 4-worker pool
/// on a single core oversubscribes it — the fork/join toll is paid but
/// nothing runs concurrently — so the crossover must not drop to the
/// pooled edge just because the pool is nominally larger. The pool
/// size is read live.
pub fn effective_parallelism() -> usize {
    rayon::current_num_threads().min(machine_cores())
}

/// The crossover edge currently in force: [`CROSSOVER_ENV`] when set
/// and parseable, else [`default_crossover`] at the live
/// [`effective_parallelism`].
pub fn crossover_from_env() -> usize {
    std::env::var(CROSSOVER_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| default_crossover(effective_parallelism()))
}

/// The shape-aware dispatching backend.
#[derive(Clone, Copy, Debug)]
pub struct Auto {
    crossover_n: usize,
    simd: Option<Simd>,
}

impl Auto {
    /// Dispatcher with an explicit crossover edge (the selector's
    /// calibrated value, or a sweep point); the SIMD tier follows
    /// [`crate::SIMD_ENV`].
    pub fn with_crossover(crossover_n: usize) -> Self {
        Auto {
            crossover_n,
            simd: Simd::enabled_from_env().then(Simd::from_env),
        }
    }

    /// Dispatcher with the environment/thread-derived edge
    /// ([`crossover_from_env`]).
    pub fn from_env() -> Self {
        Auto::with_crossover(crossover_from_env())
    }

    /// Removes the SIMD tier from this dispatcher regardless of the
    /// environment (sweeps that want the scalar ladder).
    pub fn without_simd(mut self) -> Self {
        self.simd = None;
        self
    }

    /// The crossover edge this dispatcher uses.
    pub fn crossover_n(&self) -> usize {
        self.crossover_n
    }

    /// Whether the SIMD tier sits at the top of this dispatcher's
    /// ladder (it still requires [`Simd::supports`] per dtype pairing).
    pub fn simd_enabled(&self) -> bool {
        self.simd.is_some()
    }

    /// Whether a problem routes to the naive loop: true when the work
    /// volume `m·n·k` is at most `crossover_n³` (the geometric-mean
    /// test, so a 1024×1024×8 sliver counts as small, not large).
    pub fn routes_to_naive(&self, params: &GemmParams) -> bool {
        let work = params.m as u128 * params.n as u128 * params.k as u128;
        let edge = self.crossover_n as u128;
        work <= edge.saturating_mul(edge).saturating_mul(edge)
    }

    /// The name of the backend a problem with this dtype pairing
    /// dispatches to: `naive`, `blocked`, or `simd`.
    pub fn routed_name<AB: Real, CT: Real>(&self, params: &GemmParams) -> &'static str {
        if self.routes_to_naive(params) {
            "naive"
        } else if self.simd.is_some() && Simd::supports::<AB, CT>() {
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
                self.crossover_n,
                self.simd.is_some(),
            )
        });
        let result = if self.routes_to_naive(params) {
            let t0 = token.as_ref().map(|_| prof::now_s());
            let r = Naive.run::<AB, CD, CT>(params, a, b, c, d);
            if let Some(t0) = t0 {
                prof::phase(
                    prof::current_region(),
                    prof::HostPhase::Compute,
                    prof::Lane::Call(prof::call_lane()),
                    t0,
                );
            }
            r
        } else {
            match self.simd {
                Some(simd) if Simd::supports::<AB, CT>() => {
                    simd.run::<AB, CD, CT>(params, a, b, c, d)
                }
                _ => Blocked.run::<AB, CD, CT>(params, a, b, c, d),
            }
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

    #[test]
    fn routing_uses_the_geometric_mean() {
        let auto = Auto::with_crossover(320);
        assert!(auto.routes_to_naive(&GemmParams::new(256, 256, 256)));
        assert!(!auto.routes_to_naive(&GemmParams::new(512, 512, 512)));
        // A thin sliver with one huge dimension still counts as small.
        assert!(auto.routes_to_naive(&GemmParams::new(4096, 16, 16)));
        // Exactly at the edge: naive (the toll is only repaid beyond it).
        assert!(auto.routes_to_naive(&GemmParams::new(320, 320, 320)));
    }

    #[test]
    fn default_edges_tighten_with_parallelism_and_simd() {
        // Regardless of the ladder in force, more workers mean an
        // earlier hand-off, and the edge always covers tiny problems.
        assert!(default_crossover(4) < default_crossover(1));
        assert!(default_crossover(1) >= 32, "edge covers tiny problems");
        if Simd::enabled_from_env() && Simd::vector_available() {
            assert!(
                default_crossover(1) <= 96,
                "SIMD tier repays its toll well before the scalar edge"
            );
        } else {
            assert!(
                default_crossover(1) > 256,
                "1-thread scalar edge covers N=256"
            );
            assert!(
                default_crossover(4) < 256,
                "pooled scalar edge releases N=256"
            );
        }
    }

    #[test]
    fn effective_parallelism_never_exceeds_the_machine() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(effective_parallelism() <= cores);
        assert!(effective_parallelism() >= 1);
    }

    #[test]
    fn routed_name_follows_the_ladder() {
        let auto = Auto::with_crossover(64);
        assert_eq!(
            auto.routed_name::<f32, f32>(&GemmParams::new(16, 16, 16)),
            "naive"
        );
        let big = GemmParams::new(256, 256, 256);
        if auto.simd_enabled() {
            assert_eq!(auto.routed_name::<f32, f32>(&big), "simd");
            // f64 inputs cannot take the f32 SIMD path.
            assert_eq!(auto.routed_name::<f64, f32>(&big), "blocked");
        }
        assert_eq!(auto.without_simd().routed_name::<f32, f32>(&big), "blocked");
    }

    #[test]
    fn all_routes_match_bitwise() {
        for n in [24usize, 96] {
            let params = GemmParams::new(n, n, n).with_scaling(0.5, 0.25);
            let a: Vec<f32> = (0..n * n).map(|i| ((i % 13) as f32) - 6.0).collect();
            let b: Vec<f32> = (0..n * n).map(|i| ((i % 7) as f32) - 3.0).collect();
            let c: Vec<f32> = (0..n * n).map(|i| (i % 5) as f32).collect();
            let mut via_naive = vec![0.0f32; n * n];
            let mut via_top = vec![0.0f32; n * n];
            let mut via_blocked = vec![0.0f32; n * n];
            Auto::with_crossover(usize::MAX)
                .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut via_naive)
                .unwrap();
            Auto::with_crossover(0)
                .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut via_top)
                .unwrap();
            Auto::with_crossover(0)
                .without_simd()
                .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut via_blocked)
                .unwrap();
            assert_eq!(via_naive, via_top, "N={n}");
            assert_eq!(via_naive, via_blocked, "N={n}");
        }
    }
}
