//! The event model: timestamped spans, instants, and counter samples.
//!
//! Timestamps and durations are in **microseconds** of simulated time —
//! the native unit of the Chrome trace-event format, so the exporter
//! never rescales. Every event carries a `device` (die index; becomes
//! the trace "process") and spans/instants carry a [`Track`] (becomes
//! the trace "thread"), so one launch decomposes into one lane per CU
//! pipeline exactly like `rocprof --hip-trace` output does on hardware.

use serde::{Deserialize, Serialize};

/// Pseudo-device id used for package-level telemetry (power, governor)
/// that is not attributable to a single die. The Chrome exporter names
/// this process `package`.
pub const PACKAGE_DEVICE: u32 = 999;

/// Pseudo-device id for the **host** execution plane: the CPU-side GEMM
/// tiers (naive/blocked/SIMD), their rayon workers, and the packing
/// pool. Host spans render as their own trace process (`host`) so a
/// unified export shows the host timeline beside the simulated dies.
pub const HOST_DEVICE: u32 = 998;

/// What layer of the execution hierarchy an event describes. Categories
/// form a strict nesting order (see [`Category::depth`]): plan spans
/// contain kernel spans, kernel spans contain dispatch rounds, rounds
/// contain pipeline busy intervals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Category {
    /// A library-level plan (mc-blas planner output) around a launch.
    Plan,
    /// One kernel launch on one die.
    Kernel,
    /// One dispatch round (the paper's §V-B "phase").
    Round,
    /// Busy interval of one CU pipeline (Matrix Core, SIMD issue, LDS).
    Pipeline,
    /// A memory-system transaction window (HBM transfer time).
    Memory,
    /// A power/DVFS event (governor clamp, power-state change).
    Power,
    /// One host-side GEMM call (the region a tier dispatch covers),
    /// on the [`HOST_DEVICE`] plane.
    HostRegion,
    /// One named phase inside a host region (pack-A, pack-B,
    /// microkernel, epilogue, fan-out, naive compute).
    HostPhase,
}

impl Category {
    /// Stable lowercase name (the Chrome `cat` field).
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Plan => "plan",
            Category::Kernel => "kernel",
            Category::Round => "round",
            Category::Pipeline => "pipeline",
            Category::Memory => "memory",
            Category::Power => "power",
            Category::HostRegion => "host-region",
            Category::HostPhase => "host-phase",
        }
    }

    /// Nesting depth: a span may only be contained by spans of smaller
    /// depth. `Memory` windows hang directly off kernels. Host regions
    /// sit at kernel depth on their own device, host phases inside
    /// them — so the flamegraph folder parents host phases under their
    /// region exactly like rounds under a kernel.
    pub fn depth(self) -> u8 {
        match self {
            Category::Plan => 0,
            Category::Kernel | Category::HostRegion => 1,
            Category::Round | Category::HostPhase => 2,
            Category::Pipeline | Category::Memory | Category::Power => 3,
        }
    }
}

/// The lane a span renders on: one per CU pipeline, plus device-level
/// lanes for launches, plans, memory, and power.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Track {
    /// Kernel launches and their dispatch rounds.
    Launch,
    /// Library plan windows (mc-blas).
    Plan,
    /// Matrix-Core pipeline of one CU (the engine reports the
    /// most-loaded CU of the die as CU 0).
    MatrixPipe(u32),
    /// SIMD issue-port pipeline of one CU.
    SimdPipe(u32),
    /// LDS pipeline of one CU.
    LdsPipe(u32),
    /// HBM transaction windows.
    Memory,
    /// Power/DVFS events.
    Power,
    /// A host caller thread: the thread that issued a GEMM call and
    /// runs the orchestration phases (pack-B, fan-out, epilogue).
    /// The index distinguishes concurrent caller threads.
    HostCall(u32),
    /// One host rayon worker executing packed-panel chunk work.
    HostWorker(u32),
}

impl Track {
    /// Stable thread id for the Chrome exporter. Ids group by pipeline
    /// class so Perfetto sorts the lanes in a fixed, readable order.
    pub fn tid(self) -> u32 {
        match self {
            Track::Launch => 0,
            Track::Plan => 1,
            Track::MatrixPipe(cu) => 1000 + cu,
            Track::SimdPipe(cu) => 2000 + cu,
            Track::LdsPipe(cu) => 3000 + cu,
            Track::Memory => 4000,
            Track::Power => 4500,
            // Host lanes: callers in [4800, 5000), workers above 5000.
            Track::HostCall(lane) => 4800 + lane,
            Track::HostWorker(worker) => 5000 + worker,
        }
    }

    /// Human-readable lane label (the Chrome `thread_name`).
    pub fn label(self) -> String {
        match self {
            Track::Launch => "launch".to_owned(),
            Track::Plan => "blas plan".to_owned(),
            Track::MatrixPipe(cu) => format!("cu{cu} matrix pipe"),
            Track::SimdPipe(cu) => format!("cu{cu} simd issue"),
            Track::LdsPipe(cu) => format!("cu{cu} lds"),
            Track::Memory => "hbm".to_owned(),
            Track::Power => "power".to_owned(),
            Track::HostCall(lane) => format!("host caller{lane}"),
            Track::HostWorker(worker) => format!("host worker{worker}"),
        }
    }
}

/// A structured argument value attached to a span or instant.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ArgValue {
    /// Unsigned integer (counts, counters, byte totals).
    U64(u64),
    /// Floating point (rates, fractions, clocks).
    F64(f64),
    /// Free-form label (bounds, strategies, mnemonics).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// A complete span: something with a beginning and a duration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Display name (kernel name, `round 2`, `matrix busy`, …).
    pub name: String,
    /// Hierarchy layer.
    pub category: Category,
    /// Die index (or [`PACKAGE_DEVICE`]).
    pub device: u32,
    /// Lane the span renders on.
    pub track: Track,
    /// Start timestamp in microseconds of simulated time.
    pub t0_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Structured arguments (`(key, value)` pairs, insertion-ordered).
    pub args: Vec<(String, ArgValue)>,
}

impl SpanEvent {
    /// End timestamp in microseconds.
    pub fn end_us(&self) -> f64 {
        self.t0_us + self.dur_us
    }

    /// The value of the first argument named `name`.
    pub fn arg(&self, name: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Argument `name` as a number: an `F64`, or a `U64` widened.
    pub fn arg_f64(&self, name: &str) -> Option<f64> {
        match self.arg(name)? {
            ArgValue::F64(x) => Some(*x),
            ArgValue::U64(u) => Some(*u as f64),
            ArgValue::Str(_) => None,
        }
    }

    /// Argument `name` when it is a `U64`.
    pub fn arg_u64(&self, name: &str) -> Option<u64> {
        match self.arg(name)? {
            ArgValue::U64(u) => Some(*u),
            _ => None,
        }
    }

    /// Argument `name` when it is a `Str`.
    pub fn arg_str(&self, name: &str) -> Option<&str> {
        match self.arg(name)? {
            ArgValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One trace event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A complete span (Chrome `ph: "X"`).
    Span(SpanEvent),
    /// A point-in-time marker (Chrome `ph: "i"`).
    Instant {
        /// Display name.
        name: String,
        /// Hierarchy layer.
        category: Category,
        /// Die index (or [`PACKAGE_DEVICE`]).
        device: u32,
        /// Lane the marker renders on.
        track: Track,
        /// Timestamp in microseconds.
        t_us: f64,
        /// Structured arguments.
        args: Vec<(String, ArgValue)>,
    },
    /// A counter sample (Chrome `ph: "C"`): watts, occupancy, clocks.
    Counter {
        /// Counter-track name (`package_w`, `matrix_occupancy`, …).
        name: String,
        /// Die index (or [`PACKAGE_DEVICE`]).
        device: u32,
        /// Timestamp in microseconds.
        t_us: f64,
        /// Sampled value.
        value: f64,
    },
}

impl TraceEvent {
    /// The device the event belongs to.
    pub fn device(&self) -> u32 {
        match self {
            TraceEvent::Span(s) => s.device,
            TraceEvent::Instant { device, .. } | TraceEvent::Counter { device, .. } => *device,
        }
    }

    /// The span payload, when this event is a span.
    pub fn as_span(&self) -> Option<&SpanEvent> {
        match self {
            TraceEvent::Span(s) => Some(s),
            _ => None,
        }
    }
}

/// Human-readable name of a trace process: dies are `die<N>`, the
/// pseudo-device [`PACKAGE_DEVICE`] is `package`, and the host plane
/// [`HOST_DEVICE`] is `host`.
pub fn device_label(device: u32) -> String {
    if device == PACKAGE_DEVICE {
        "package".to_owned()
    } else if device == HOST_DEVICE {
        "host".to_owned()
    } else {
        format!("die{device}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_nest_by_depth() {
        assert!(Category::Plan.depth() < Category::Kernel.depth());
        assert!(Category::Kernel.depth() < Category::Round.depth());
        assert!(Category::Round.depth() < Category::Pipeline.depth());
        assert_eq!(Category::Kernel.as_str(), "kernel");
        assert_eq!(Category::HostRegion.depth(), Category::Kernel.depth());
        assert!(Category::HostRegion.depth() < Category::HostPhase.depth());
        assert_eq!(Category::HostRegion.as_str(), "host-region");
        assert_eq!(Category::HostPhase.as_str(), "host-phase");
    }

    #[test]
    fn track_ids_are_distinct_per_lane() {
        let tracks = [
            Track::Launch,
            Track::Plan,
            Track::MatrixPipe(0),
            Track::SimdPipe(0),
            Track::LdsPipe(0),
            Track::Memory,
            Track::Power,
            Track::HostCall(0),
            Track::HostWorker(0),
        ];
        let mut ids: Vec<u32> = tracks.iter().map(|t| t.tid()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), tracks.len());
        assert_eq!(Track::MatrixPipe(3).label(), "cu3 matrix pipe");
        assert_eq!(Track::HostWorker(2).label(), "host worker2");
        assert_eq!(Track::HostCall(0).label(), "host caller0");
    }

    #[test]
    fn events_round_trip_through_json() {
        let e = TraceEvent::Span(SpanEvent {
            name: "k".into(),
            category: Category::Kernel,
            device: 1,
            track: Track::Launch,
            t0_us: 0.5,
            dur_us: 12.25,
            args: vec![("flops".into(), ArgValue::U64(8192))],
        });
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.device(), 1);
        assert_eq!(back.as_span().unwrap().end_us(), 12.75);
    }

    #[test]
    fn device_labels() {
        assert_eq!(device_label(0), "die0");
        assert_eq!(device_label(PACKAGE_DEVICE), "package");
        assert_eq!(device_label(HOST_DEVICE), "host");
    }
}
