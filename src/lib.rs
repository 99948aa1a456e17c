//! Umbrella crate for the AMD Matrix Cores characterization reproduction.
//!
//! This crate re-exports the public APIs of the workspace crates so that
//! examples and downstream users can depend on a single package:
//!
//! - [`types`] — software FP16/BF16 and datatype metadata
//! - [`compute`] — the cache-blocked host GEMM kernel every library
//!   layer routes through (see `docs/PERFORMANCE.md`)
//! - [`isa`] — the CDNA2 / Ampere matrix-instruction model
//! - [`lint`] — static kernel verification (see `docs/LINTS.md`) and
//!   [`lint::verify_kernel`], the one entry running both verifiers
//! - [`flow`] — `lint::flow`: dataflow race & synchronization
//!   verification of pipelined kernel plans (see `docs/DATAFLOW.md`)
//! - [`sim`] — the event-driven GPU simulator (devices, counters, power)
//! - [`trace`] — execution timelines, Perfetto/flamegraph export, the
//!   unified metrics registry, and the schema-versioned JSONL ledger
//!   format (see `docs/OBSERVABILITY.md`)
//! - [`hostprof`] — host-plane trace conversion and per-phase GEMM
//!   attribution over `compute::prof` sessions (see the "Host plane"
//!   section of `docs/OBSERVABILITY.md`)
//! - [`wmma`] — the rocWMMA-style fragment API
//! - [`blas`] — the rocBLAS-style GEMM library
//! - [`model`] — performance models (throughput, Eq. 1 FLOPs, FLOP
//!   distribution) and rocprof-style counter sessions
//! - [`profiler`] — `model::profiler`: rocprof-style counter collection
//!   and derived metrics
//! - [`power`] — power sampling, modelling, and efficiency metrics
//!
//! See the repository README for a quickstart and DESIGN.md for the
//! system inventory and per-experiment index.

pub use mc_blas as blas;
pub use mc_compute as compute;
pub use mc_hostprof as hostprof;
pub use mc_isa as isa;
pub use mc_lint as lint;
pub use mc_lint::flow;
pub use mc_model as model;
pub use mc_model::profiler;
pub use mc_power as power;
pub use mc_sim as sim;
pub use mc_solver as solver;
pub use mc_trace as trace;
pub use mc_types as types;
pub use mc_wmma as wmma;
