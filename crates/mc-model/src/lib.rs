//! The paper's analytical models, as executable artifacts:
//!
//! * [`throughput`] — Eq. 2, the Matrix Core throughput model
//!   `FLOPS(N_WF) = (2mnk/c) · min(N_WF, 440) · f`;
//! * [`flops`] — Eq. 1, deriving total floating-point operations from
//!   hardware counters;
//! * [`distribution`] — the Fig. 9 GEMM FLOP-distribution model
//!   (`2N³` on Matrix Cores, `3N²` on SIMD units);
//! * [`profiler`] — rocprof-style counter sessions over the simulated
//!   dies and the Eq. 1 metrics derived from their deltas (per-datatype
//!   FLOPs, the Fig. 8 Matrix-Core ratio, the Fig. 9 split);
//! * [`regression`] — ordinary least squares, used to recover the Eq. 3
//!   power model from sampled telemetry;
//! * [`roofline`] — the (instruction-)roofline methodology of the
//!   paper's refs. \[13]/\[14], applied to the simulated dies;
//! * [`validation`] — model-vs-measurement comparison utilities
//!   (relative error, fraction of peak).

#![deny(missing_docs)]

pub mod distribution;
pub mod flops;
pub mod profiler;
pub mod regression;
pub mod roofline;
pub mod throughput;
pub mod validation;

pub use distribution::FlopDistribution;
pub use flops::{derived_total_flops, DerivedFlops};
pub use regression::{fit_linear, LinearFit};
pub use roofline::{OperatingPoint, Regime, Roofline};
pub use throughput::ThroughputModel;
pub use validation::relative_error;
