//! A rocBLAS-style GEMM library over the simulated Matrix Cores.
//!
//! rocBLAS "tries to leverage Matrix Cores whenever they are available,
//! with no option to opt-out at the user level" (paper §III), choosing at
//! runtime a strategy that maps arbitrary-shaped GEMMs onto the
//! fixed-shape MFMA instructions via two-level tiling (macro-tile per
//! workgroup, micro-tile per wavefront). This crate implements that
//! library design:
//!
//! * [`types`] — the GEMM operation descriptors, including the paper's
//!   Table III mixed-precision variants (HGEMM / HSS / HHS);
//! * [`planner`] — kernel-plan emission plus the static fallback
//!   strategy (the policy that leaves HGEMM on the SIMD units and skips
//!   Matrix Cores for tiny mixed problems, Fig. 8);
//! * [`enumerate`] / [`score`] / [`select`] — the scored plan search:
//!   candidate tilings and buffering modes, ranked by the Eq. 2
//!   analytic model and `mc-sim` dry runs (see `docs/AUTOTUNE.md`);
//! * [`plandb`] — the persisted plan DB caching searched winners across
//!   processes (`MC_PLAN_DB`);
//! * [`functional`] — a host-side executor that really computes
//!   `D ← α·A·B + β·C` with hardware-faithful precision on the shared
//!   [`mc_compute`] kernels (the packed tiers via the
//!   [`mc_compute::Auto`] dispatch), validating Matrix Core instruction
//!   shapes through the [`mc_wmma`] fragment API;
//! * [`handle`] — the `rocblas_handle` equivalent: owns a simulated
//!   device, launches planned kernels through a memoizing plan cache,
//!   and reports timing/counters. Plan search is opt-in per handle
//!   ([`BlasHandle::set_plan_search`] or `MC_PLAN_SEARCH=1`).

#![deny(missing_docs)]

pub mod batched;
pub mod enumerate;
pub mod functional;
pub mod handle;
pub mod igemm;
pub mod plandb;
pub mod planner;
pub mod score;
pub mod select;
pub mod syrk;
pub mod types;

pub use batched::BatchedGemmDesc;
pub use enumerate::enumerate_candidates;
pub use functional::{
    gemm_reference_f64, run_functional, run_functional_in_place_with, run_functional_with,
};
pub use handle::{BlasHandle, GemmPerf, PlanCacheStats, PLAN_SEARCH_ENV};
pub use igemm::{dequantize, quantize, quantized_gemm, Quantized};
pub use plandb::{PlanDb, PlanDbEntry, StrategyRecord, PLAN_DB_ENV, PLAN_DB_SCHEMA_VERSION};
pub use planner::{
    build_plan, build_plan_with, plan_gemm, plan_gemm_with, select_strategy, GemmPlan, SimdReason,
    Strategy,
};
pub use score::{analytic_time_s, dry_run_time_s, handoff_penalty_s};
pub use select::{host_gemm_backend, select_plan, select_plan_with, FinalistScore, SearchOutcome};
pub use syrk::{plan_syrk, plan_syrk_with, syrk_functional, SyrkDesc, SyrkPlan};
pub use types::{BlasError, GemmDesc, GemmOp, Transpose};
