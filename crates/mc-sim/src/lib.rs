//! Event-driven, cycle-approximate simulator of the GPUs the paper
//! characterizes: the AMD MI250X (two CDNA2 GCDs) and the NVIDIA A100.
//!
//! The simulator executes [`mc_isa::KernelDesc`] instruction streams at
//! wavefront granularity with closed-form aggregation, modelling:
//!
//! - per-CU Matrix Core and SIMD pipelines with contention ([`engine`]);
//! - dispatch rounds (wavefronts do not migrate), reproducing the
//!   paper's partially-idle >440-wavefront phases;
//! - a matrix-load-dependent clock-residency model calibrated to the
//!   paper's sustained plateaus ([`config`]);
//! - DRAM bandwidth with power-of-two channel-camping effects
//!   ([`memory`]);
//! - MI200-style hardware performance counters ([`counters`]);
//! - physics-first power accounting with a package power-cap governor
//!   ([`device`]), plus ROCm-SMI-style telemetry sampling ([`smi`]);
//! - the paper's latency and throughput micro-benchmarks as reusable
//!   harnesses ([`microbench`]).

#![deny(missing_docs)]

pub mod config;
pub mod counters;
pub mod device;
pub mod engine;
pub mod memory;
pub mod microbench;
pub mod occupancy;
pub mod registry;
pub mod smi;

pub use config::{ClockResidency, SimConfig};
pub use counters::{HwCounters, UnknownCounter, COUNTER_NAMES};
pub use device::{Gpu, KernelResult, PackageResult, PowerProfile};
pub use engine::{
    dynamic_energy_j, emit_kernel_events, execute, wave_demand, workgroups_per_cu, KernelExec,
    LaunchError, RoundBound, RoundTrace, TracePlacement, WaveDemand,
};
pub use microbench::{
    fig3_wavefront_sweep, measure_latency, throughput_run, throughput_run_all_dies, LatencyResult,
    ThroughputResult,
};
pub use occupancy::{occupancy, OccupancyLimit, OccupancyReport};
pub use registry::{DeviceId, DeviceRegistry, RegistryError};
pub use smi::{register_sample_histogram, sample_stats, PowerSample, SampleStats, Smi};
