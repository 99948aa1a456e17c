//! Trace replay gate: the `trace` artifact.
//!
//! Replays one representative GEMM workload on every registered device
//! with a ring-buffer trace sink attached, then audits the captured
//! timeline the way a profiler's self-test would: spans must nest by
//! category depth, per-CU pipeline busy time can never exceed the
//! kernel wall time, sequential launches may not overlap on a lane, and
//! — the rocprof cross-check — the `ctr.*` counter arguments summed
//! over all kernel spans must equal the [`mc_sim::HwCounters`] bank the
//! device accumulated. The run also funnels every telemetry surface
//! (`HwCounters`, package power, SMI sampling statistics) through one
//! [`mc_trace::MetricsRegistry`], so the unified snapshot API is
//! exercised end to end. Any violation or mismatch fails the artifact
//! (the `experiments` driver exits non-zero), so a regression in the
//! instrumentation can never silently ship broken timelines.

use std::collections::BTreeMap;
use std::sync::Arc;

use mc_blas::{BlasHandle, GemmDesc, GemmOp};
use mc_isa::MatrixArch;
use mc_model::profiler::ProfilerSession;
use mc_power::{SamplerConfig, SmiSampler};
use mc_sim::{engine, DeviceId, DeviceRegistry, Gpu, HwCounters, Smi, COUNTER_NAMES};
use mc_trace::{
    check_invariants, folded_stacks, ArgValue, Category, MetricsRegistry, RingSink, TraceEvent,
};
use mc_types::DType;
use mc_wmma::{mma_loop_kernel, wmma_gemm_tile_kernel, LoopKernelParams};
use serde::{Deserialize, Serialize};

/// The audited timeline of one device's replay.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceTimeline {
    /// Registry name of the device.
    pub device: String,
    /// Total captured events.
    pub events: usize,
    /// Events evicted from the ring (must be 0 for a valid cross-check).
    pub dropped: u64,
    /// Plan spans (mc-blas planner windows).
    pub plan_spans: usize,
    /// Kernel launch spans.
    pub kernel_spans: usize,
    /// Dispatch-round spans.
    pub round_spans: usize,
    /// Counter samples (power, occupancy).
    pub counter_samples: usize,
    /// Timeline extent in microseconds (last span end).
    pub extent_us: f64,
    /// Folded flamegraph lines the timeline collapses into.
    pub flame_lines: usize,
    /// Named metrics the run registered.
    pub metrics: usize,
    /// Timeline invariant violations (empty for a healthy tree).
    pub violations: Vec<String>,
    /// Event-total vs `HwCounters` disagreements (empty when healthy).
    pub counter_mismatches: Vec<String>,
}

/// The full replay result across every registered device.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceReplay {
    /// One audited timeline per device, in registry order.
    pub timelines: Vec<DeviceTimeline>,
    /// Total captured events.
    pub total_events: usize,
    /// Total invariant violations — the gate (must be 0).
    pub total_violations: usize,
    /// Total counter cross-check mismatches — the gate (must be 0).
    pub total_counter_mismatches: usize,
}

/// What one device replay produced: the captured ring, the counter bank
/// the device itself accumulated (summed over dies), and the metrics
/// registry every telemetry surface was funnelled into.
struct Replay {
    sink: Arc<RingSink>,
    counters: HwCounters,
    metrics: MetricsRegistry,
}

/// Representative workgroup count: fills every CU twice over and leaves
/// a ragged tail, so the timeline shows full rounds and a partial one.
pub(crate) fn ragged_workgroups(gpu: &Gpu, k: &mc_isa::KernelDesc) -> u64 {
    let die = &gpu.spec().die;
    let per_cu = engine::workgroups_per_cu(die, k).unwrap_or(1).max(1);
    let capacity = u64::from(per_cu) * u64::from(die.compute_units);
    2 * capacity + capacity / 3 + 1
}

fn aggregate_counters(gpu: &Gpu) -> HwCounters {
    let mut total = HwCounters::default();
    for die in 0..gpu.spec().dies as usize {
        total.merge(&gpu.counters(die).expect("die index from spec"));
    }
    total
}

/// Replays the representative workload for one device and collects its
/// telemetry through every surface at once.
fn replay(devices: &DeviceRegistry, id: DeviceId) -> Replay {
    let sink = Arc::new(RingSink::new());
    let mut traced = devices.clone();
    traced.set_trace_sink(sink.clone());
    let mut metrics = MetricsRegistry::new();

    if id == DeviceId::Mi250xGcd {
        // The library path: rocBLAS-style HHS GEMMs through the planner,
        // so the timeline carries plan spans around the kernel spans.
        let mut handle = BlasHandle::from_registry(&traced, id);
        let session = ProfilerSession::begin(handle.gpu(), 0).expect("die 0 exists");
        let mut last = None;
        for n in [1024usize, 2048] {
            let perf = handle
                .gemm_timed(&GemmDesc::square(GemmOp::Hhs, n))
                .expect("representative GEMM fits in device memory");
            last = Some(perf);
        }
        let perf = last.expect("loop ran");
        perf.package.register_metrics(&mut metrics);
        session
            .end(handle.gpu())
            .expect("session die is valid")
            .register_metrics(&mut metrics);
        sample_power(&perf.package, &mut metrics);
        let counters = aggregate_counters(handle.gpu());
        return Replay {
            sink,
            counters,
            metrics,
        };
    }

    let mut gpu = traced.gpu(id);
    let arch = gpu.spec().die.arch;
    let kernel = match arch {
        MatrixArch::Cdna2 => {
            let mut k = wmma_gemm_tile_kernel(arch, DType::F32, DType::F16, (16, 16, 16), 64)
                .expect("CDNA2 tile kernel builds");
            k.workgroups = ragged_workgroups(&gpu, &k);
            k
        }
        MatrixArch::Cdna1 | MatrixArch::Ampere => {
            let shape = if arch == MatrixArch::Ampere {
                (16, 8, 16)
            } else {
                (16, 16, 16)
            };
            let mut k = mma_loop_kernel(LoopKernelParams {
                arch,
                cd: DType::F32,
                ab: DType::F16,
                shape,
                wavefronts: 64,
                iterations: 256,
            })
            .expect("mixed-precision loop kernel builds");
            k.workgroups = ragged_workgroups(&gpu, &k);
            k
        }
    };

    let session = ProfilerSession::begin(&gpu, 0).expect("die 0 exists");
    // One launch per die in parallel (the paper's one-process-per-GCD
    // methodology), then a second sequential launch on die 0 so the
    // trace clock's no-overlap guarantee is exercised too.
    let launches: Vec<(usize, mc_isa::KernelDesc)> = (0..gpu.spec().dies as usize)
        .map(|d| (d, kernel.clone()))
        .collect();
    let result = gpu
        .launch_parallel(&launches)
        .expect("representative launch succeeds");
    gpu.launch(0, &kernel).expect("sequential launch succeeds");
    result.register_metrics(&mut metrics);
    session
        .end(&gpu)
        .expect("session die is valid")
        .register_metrics(&mut metrics);
    sample_power(&result, &mut metrics);
    let counters = aggregate_counters(&gpu);
    Replay {
        sink,
        counters,
        metrics,
    }
}

/// Funnels the launch's power profile through the SMI sampler and into
/// the registry, closing the loop over the third telemetry surface.
fn sample_power(result: &mc_sim::PackageResult, metrics: &mut MetricsRegistry) {
    let smi = Smi::attach(result.profile.clone(), 0.0, 7);
    let sampler = SmiSampler::record(
        smi,
        SamplerConfig {
            period_s: (result.time_s / 16.0).max(1e-9),
            min_samples: 1,
        },
    );
    sampler.metrics(metrics);
}

/// Audits one device's captured timeline.
fn audit(id: DeviceId, replay: &Replay) -> DeviceTimeline {
    let events = replay.sink.events();
    let dropped = replay.sink.dropped();
    let mut violations: Vec<String> = check_invariants(&events)
        .iter()
        .map(|v| v.to_string())
        .collect();
    if dropped > 0 {
        violations.push(format!(
            "[ring-capacity] {dropped} event(s) evicted; totals are not auditable"
        ));
    }

    // The rocprof cross-check: `ctr.*` arguments summed over all kernel
    // spans must reproduce the device's own counter bank exactly.
    let mut from_events: BTreeMap<String, u64> = BTreeMap::new();
    let mut plan_spans = 0usize;
    let mut kernel_spans = 0usize;
    let mut round_spans = 0usize;
    let mut counter_samples = 0usize;
    let mut extent_us = 0.0f64;
    for event in &events {
        if matches!(event, TraceEvent::Counter { .. }) {
            counter_samples += 1;
        }
        let Some(span) = event.as_span() else {
            continue;
        };
        extent_us = extent_us.max(span.end_us());
        match span.category {
            Category::Plan => plan_spans += 1,
            Category::Round => round_spans += 1,
            Category::Kernel => {
                kernel_spans += 1;
                for (key, value) in &span.args {
                    if let (Some(name), ArgValue::U64(v)) = (key.strip_prefix("ctr."), value) {
                        *from_events.entry(name.to_owned()).or_default() += v;
                    }
                }
            }
            _ => {}
        }
    }
    let mut counter_mismatches = Vec::new();
    for name in COUNTER_NAMES {
        let device = replay.counters.get(name).expect("published counter");
        let traced = from_events.get(*name).copied().unwrap_or(0);
        if device != traced {
            counter_mismatches.push(format!(
                "{name}: device bank {device} vs event total {traced}"
            ));
        }
    }

    // Every telemetry surface must have landed in the unified registry.
    for probe in ["counters.SQ_WAVES", "sim.time_s", "power.smi.samples"] {
        if replay.metrics.value(probe).is_none() {
            violations.push(format!("[metrics] `{probe}` missing from the registry"));
        }
    }

    DeviceTimeline {
        device: id.as_str().to_owned(),
        events: events.len(),
        dropped,
        plan_spans,
        kernel_spans,
        round_spans,
        counter_samples,
        extent_us,
        flame_lines: folded_stacks(&events).lines().count(),
        metrics: replay.metrics.len(),
        violations,
        counter_mismatches,
    }
}

/// Runs the replay gate over every built-in device, the devices in
/// parallel: each replay feeds a ring of its own.
pub fn run(devices: &DeviceRegistry) -> TraceReplay {
    let timelines: Vec<DeviceTimeline> = crate::experiment::par_map(
        devices.trace_sink().is_none(),
        DeviceId::ALL.to_vec(),
        |id| audit(id, &replay(devices, id)),
    );
    TraceReplay {
        total_events: timelines.iter().map(|t| t.events).sum(),
        total_violations: timelines.iter().map(|t| t.violations.len()).sum(),
        total_counter_mismatches: timelines.iter().map(|t| t.counter_mismatches.len()).sum(),
        timelines,
    }
}

/// Renders the replay as text.
pub fn render(replay: &TraceReplay) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("trace replay: timeline audit of the instrumented engine\n");
    let _ = writeln!(
        s,
        "{:<12} {:>7} {:>6} {:>8} {:>7} {:>7} {:>9} {:>8} {:>11}",
        "device", "events", "plans", "kernels", "rounds", "flame", "metrics", "viol", "ctr-misses"
    );
    for t in &replay.timelines {
        let _ = writeln!(
            s,
            "{:<12} {:>7} {:>6} {:>8} {:>7} {:>7} {:>9} {:>8} {:>11}",
            t.device,
            t.events,
            t.plan_spans,
            t.kernel_spans,
            t.round_spans,
            t.flame_lines,
            t.metrics,
            t.violations.len(),
            t.counter_mismatches.len(),
        );
        for v in &t.violations {
            let _ = writeln!(s, "  violation: {v}");
        }
        for m in &t.counter_mismatches {
            let _ = writeln!(s, "  counter mismatch: {m}");
        }
    }
    let _ = writeln!(
        s,
        "total: {} event(s), {} violation(s), {} counter mismatch(es){}",
        replay.total_events,
        replay.total_violations,
        replay.total_counter_mismatches,
        if replay.total_violations == 0 && replay.total_counter_mismatches == 0 {
            " — timelines are self-consistent"
        } else {
            " — FAILING"
        }
    );
    s
}

/// The trace replay as a registered experiment.
pub struct TraceExperiment;

impl crate::experiment::Experiment for TraceExperiment {
    fn id(&self) -> &'static str {
        "trace"
    }

    fn title(&self) -> &'static str {
        "mc-trace — timeline replay and telemetry cross-check gate"
    }

    fn device(&self) -> &'static str {
        "all"
    }

    fn checks(&self) -> Vec<crate::experiment::Check> {
        vec![
            crate::experiment::Check::new(
                "trace/timeline violations",
                0.0,
                0.0,
                "/total_violations",
            ),
            crate::experiment::Check::new(
                "trace/counter cross-check mismatches",
                0.0,
                0.0,
                "/total_counter_mismatches",
            ),
        ]
    }

    fn execute(&self, ctx: &crate::experiment::RunContext) -> (serde::Value, String) {
        let replay = run(&ctx.devices);
        (serde_json::to_value(&replay), render(&replay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_clean_on_every_builtin_device() {
        let replay = run(&DeviceRegistry::builtin());
        assert_eq!(replay.timelines.len(), DeviceId::ALL.len());
        assert_eq!(replay.total_violations, 0, "{}", render(&replay));
        assert_eq!(replay.total_counter_mismatches, 0, "{}", render(&replay));
        assert!(replay.total_events > 0);
    }

    #[test]
    fn timelines_carry_the_expected_structure() {
        let replay = run(&DeviceRegistry::builtin());
        for t in &replay.timelines {
            assert!(t.kernel_spans > 0, "{}: no kernel spans", t.device);
            assert!(t.round_spans >= t.kernel_spans, "{}", t.device);
            assert!(t.counter_samples > 0, "{}: no counter samples", t.device);
            assert!(t.extent_us > 0.0, "{}", t.device);
            assert!(t.flame_lines > 0, "{}", t.device);
            assert_eq!(t.dropped, 0, "{}", t.device);
            // All three telemetry surfaces landed in the registry:
            // counters.* (14 names) + sim.*/power.* + power.smi.*.
            assert!(t.metrics > 20, "{}: only {} metrics", t.device, t.metrics);
        }
        // Plan spans ride on the library-path device only.
        let gcd = replay
            .timelines
            .iter()
            .find(|t| t.device == "mi250x-gcd")
            .expect("gcd timeline");
        assert_eq!(gcd.plan_spans, 2, "one per gemm_timed call");
        // The package device launched on both dies plus a second round.
        let package = replay
            .timelines
            .iter()
            .find(|t| t.device == "mi250x")
            .expect("package timeline");
        assert_eq!(package.kernel_spans, 3);
    }

    #[test]
    fn a_tampered_timeline_is_caught() {
        // Re-audit the mi100 replay with a corrupted counter bank: the
        // cross-check must notice the books no longer balance.
        let devices = DeviceRegistry::builtin();
        let mut r = replay(&devices, DeviceId::Mi100);
        let clean = audit(DeviceId::Mi100, &r);
        assert!(clean.counter_mismatches.is_empty());
        r.counters.waves_launched += 1;
        let tampered = audit(DeviceId::Mi100, &r);
        assert_eq!(tampered.counter_mismatches.len(), 1, "{tampered:?}");
    }

    #[test]
    fn rendering_reports_a_clean_replay() {
        let replay = run(&DeviceRegistry::builtin());
        let text = render(&replay);
        assert!(text.contains("timelines are self-consistent"), "{text}");
        assert!(text.contains("mi250x-gcd"));
    }
}
