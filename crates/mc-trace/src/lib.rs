//! Execution tracing for the Matrix Core simulator stack.
//!
//! The paper's methodology is observability: rocprof counter deltas
//! (Eq. 1) and 100 ms SMI power polling drive every figure. This crate
//! is the simulator-side equivalent — a low-overhead event stream that
//! turns end-of-launch aggregates into inspectable timelines:
//!
//! - [`TraceSink`] / [`RingSink`]: a bounded, thread-safe ring-buffer
//!   sink with a no-op default, so untraced runs pay nothing.
//! - [`TraceEvent`] / [`SpanEvent`]: timestamped spans (plan, kernel,
//!   dispatch round, per-CU pipeline busy, memory window), instants
//!   (DVFS clamps), and counter samples (watts, occupancy), tagged
//!   with device/die/CU ids.
//! - [`chrome_trace_json`]: Chrome trace-event JSON, loadable in
//!   Perfetto or `chrome://tracing`, one track per CU pipeline.
//! - [`folded_stacks`]: folded-stack flamegraph lines for
//!   `flamegraph.pl` / inferno / speedscope.
//! - [`check_invariants`]: structural self-consistency checks (spans
//!   nest, pipeline busy ≤ wall clock, rounds tile the kernel).
//! - [`MetricsRegistry`]: one named-metric snapshot API with typed
//!   [`Unit`]s, unifying `HwCounters`, SMI power stats, and profiler
//!   timings.
//! - [`Histogram`]: log-bucketed HDR-style streaming histograms with
//!   interpolated quantiles, registered alongside gauges for
//!   distribution metrics (round latency, power samples, model drift).
//! - [`openmetrics`]: OpenMetrics / Prometheus text exposition of a
//!   registry snapshot — gauge families plus proper `histogram`
//!   families (cumulative `le` buckets, `+Inf`, `_sum`/`_count`) —
//!   with unit-correct name suffixes derived from [`Unit`].
//! - [`to_jsonl`] / [`from_jsonl`]: the one JSON-lines ledger format
//!   for schema-[`Versioned`] record streams, rejecting schema drift.
//!
//! See `docs/OBSERVABILITY.md` for the event schema and naming
//! conventions.

#![deny(missing_docs)]

mod chrome;
mod event;
mod exposition;
mod flame;
mod histogram;
mod ledger;
mod metrics;
mod sink;
mod validate;

pub use chrome::chrome_trace_json;
pub use event::{
    device_label, ArgValue, Category, SpanEvent, TraceEvent, Track, HOST_DEVICE, PACKAGE_DEVICE,
};
pub use exposition::openmetrics;
pub use flame::folded_stacks;
pub use histogram::Histogram;
pub use ledger::{from_jsonl, to_jsonl, Versioned};
pub use metrics::{Metric, MetricsRegistry, Unit};
pub use sink::{NullSink, RingSink, TraceSink};
pub use validate::{check_invariants, Violation};
