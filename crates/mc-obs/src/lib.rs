//! Attribution, diagnosis and regression observability for the
//! simulator stack.
//!
//! The paper's methodology joins three measurement planes into
//! per-kernel efficiency statements: `rocprof` counter deltas give
//! Eq. 1 FLOPs, wall-clock timing gives achieved throughput against
//! the Eq. 2 peak, and ROCm-SMI power sampling gives joules and
//! GFLOPS/W (§IV, §VI). Those planes live in disjoint surfaces
//! (`mc-trace` spans, `mc_model::profiler` counters, `mc-power`
//! samples) with no machine-readable join. `mc-obs` closes the loop,
//! then explains what it measured:
//!
//! - [`Attributor`] / [`AttributionRecord`]: joins kernel trace spans
//!   (counter args, energy args, package-spec tags) with the device
//!   specifications to produce one schema-versioned record per kernel
//!   launch — wall time, cycles, Eq. 1 FLOPs, joules, MFMA-vs-VALU
//!   mix, achieved-vs-Eq. 2-peak fraction, GFLOPS/W, and roofline
//!   placement via [`mc_model::Roofline`]. The ledger is written next
//!   to each experiment envelope in the [`mc_trace::to_jsonl`] format.
//! - [`register_attribution_metrics`]: aggregates a ledger into a
//!   [`mc_trace::MetricsRegistry`] under `attribution.*`, from where
//!   [`mc_trace::openmetrics`] renders the text exposition.
//! - [`diagnose`] — one [`KernelVerdict`] per attributed launch: a
//!   bottleneck classification ([`Bottleneck`]) backed by
//!   machine-checkable [`Evidence`] (achieved-peak fraction, exposed
//!   DRAM share, pipeline busy shares, waitcnt stall share, pair
//!   utilization, handoff share) and a one-line human explanation.
//! - [`drift_report`] / [`plan_drift`] — the model-drift detector:
//!   per-launch `predicted vs measured` relative errors of the plan
//!   search's Eq. 2 scores (`mc-blas`), bounded against a calibrated
//!   band ([`DEFAULT_DRIFT_BAND`]); [`inversions_from_outcome`] lists
//!   the ranking mistakes the analytic model would have made without
//!   the engine dry-run tier.
//! - [`diagnose_host`] — the same treatment for the *host* GEMM plane:
//!   one [`HostVerdict`] per `mc-hostprof` attribution record
//!   (pack-bound / memory-bandwidth-bound /
//!   parallel-imbalance / compute-bound), thresholds in [`host`].
//! - [`round_latency_histogram`] / [`DriftReport::histogram`] /
//!   [`register_insight_metrics`]: the distributions behind the
//!   verdicts as log-bucketed [`mc_trace::Histogram`]s and the whole
//!   diagnosis summarized under `insight.*`.
//! - [`register_verifier_metrics`] / [`VerifierCounts`]: aggregates
//!   the lint and flow gates' diagnostic counts into the same registry
//!   under `verifier.*`, so a scrape sees the corpus's zero-diagnostic
//!   invariant as counters.
//! - [`register_compute_pool_metrics`]: registers the `mc-compute`
//!   packing-pool freelist counters under `compute.pool.*`, so the
//!   steady-state-reuse invariant (miss delta zero once warm) is
//!   scrapeable alongside the wall times it explains.
//! - [`diff`] / [`Sample`] / [`DiffReport`]: the `perf-diff` regression
//!   detector comparing a run's samples against committed baselines
//!   with per-metric tolerances; [`power_noise_tolerance`] derives the
//!   tolerance for power-plane metrics from the pinned
//!   [`mc_sim::Smi`] noise model.
//!
//! The `insight` gate experiment (`mc-bench`) sweeps the Fig. 6/7
//! corpus through the diagnosis on every built-in device and fails CI
//! when a kernel's verdict contradicts its roofline placement or the
//! model drift leaves the band. See `docs/OBSERVABILITY.md` for the
//! record schema, the verdict taxonomy, and the tolerance and
//! drift-band policies.

#![deny(missing_docs)]

mod attribution;
mod compute;
pub mod drift;
pub mod host;
mod insight;
mod perfdiff;
pub mod verdict;
mod verifier;

pub use attribution::{
    register_attribution_metrics, AttributionRecord, Attributor, ATTRIBUTION_SCHEMA_VERSION,
};
pub use compute::register_compute_pool_metrics;
pub use drift::{
    drift_report, inversions_from_outcome, plan_drift, DriftObservation, DriftReport,
    InversionRecord, DEFAULT_DRIFT_BAND,
};
pub use host::{
    classify_host, diagnose_host, explain_host, host_intensity, HostBottleneck, HostVerdict,
    HOST_EFFICIENCY_MIN, HOST_INTENSITY_MIN_FLOP_PER_ELEM, HOST_PACK_RATIO_MAX,
};
pub use insight::{register_insight_metrics, round_latency_histogram, INSIGHT_SCHEMA_VERSION};
pub use perfdiff::{
    diff, power_noise_tolerance, DiffEntry, DiffReport, DiffStatus, Direction, Sample,
    DEFAULT_TOLERANCE_REL,
};
pub use verdict::{
    classify, diagnose, explain, Bottleneck, Evidence, KernelVerdict, HANDOFF_FRACTION_MIN,
    MEMORY_STALL_MIN, PAIR_UTILIZATION_MIN, WAIT_STALL_MIN,
};
pub use verifier::{register_verifier_metrics, VerifierCounts};
