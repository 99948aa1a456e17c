//! Power characterization tooling (paper §IV-C and §VI):
//!
//! * [`sampler`] — the power-sampling tool built on the
//!   ROCm-SMI-style interface of [`mc_sim::Smi`] (100 ms default period,
//!   ≥1000 samples per measurement, like the paper's methodology);
//! * [`model`] — the Eq. 3 power-vs-throughput model, with the paper's
//!   published coefficients and least-squares fitting of measured data;
//! * [`efficiency`] — GFLOPS/W power-efficiency metrics and the §VI
//!   cross-datatype comparisons;
//! * [`pm_counters`] — the independent Cray `pm_counters` energy-counter
//!   path the paper uses to cross-validate SMI (§IV-C);
//! * [`breakdown`] — per-component energy decomposition (idle, baseline,
//!   arithmetic by datatype, DRAM).

#![deny(missing_docs)]

pub mod breakdown;
pub mod efficiency;
pub mod model;
pub mod pm_counters;
pub mod sampler;

pub use breakdown::EnergyBreakdown;
pub use efficiency::{gflops_per_watt, EfficiencyPoint, EfficiencyReport};
pub use model::{PowerModel, PAPER_EQ3};
pub use pm_counters::{PmCounters, PmReading};
pub use sampler::{SamplerConfig, SmiSampler};
