//! Insight gate: bottleneck verdicts and Eq. 2 model drift over the
//! corpus replay — the `insight` artifact.
//!
//! Replays the Fig. 6/7 corpus on every registered device with a trace
//! ring attached, then pushes the captured timelines through the
//! `mc-obs` diagnosis layer:
//!
//! * every attributed kernel launch must receive **exactly one**
//!   bottleneck verdict whose compute/DRAM classification agrees with
//!   its roofline regime (`unclassified == 0`,
//!   `regime_inconsistent == 0`);
//! * every library launch's Eq. 2 prediction must stay inside the
//!   calibrated drift band against the engine-comparable wall time
//!   (`drift_out_of_band == 0`, band
//!   [`mc_obs::DEFAULT_DRIFT_BAND`]);
//! * the plan search's finalist scores are audited for **ranking
//!   inversions** — pairs the analytic model ordered opposite to the
//!   engine — which are recorded in the payload (they are the reason
//!   the search keeps its dry-run tier, not a failure).
//!
//! The `mi250x-gcd` device replays the corpus through the rocBLAS-style
//! library path (plan spans carry `predicted_time_s` /
//! `measured_time_s` / `handoff_penalty_s`, so drift is observable);
//! the raw-kernel devices replay representative MFMA/MMA workloads and
//! contribute verdict coverage for the non-library planes. The corpus
//! always includes the canonical diagnostic pair: a large square SGEMM
//! (compute-bound at a high achieved-peak fraction) and a small-K
//! SGEMM (DRAM-bound: exposed HBM time the compute cannot cover).
//!
//! Any gate violation fails the `experiments` driver (non-zero exit);
//! the envelope also lands as `<sink>/insight.insight.json` and the
//! metrics summary — verdict counts plus the round-latency and
//! |drift| histograms — as `<metrics_dir>/insight.insight.om`. See
//! `docs/OBSERVABILITY.md` for the taxonomy and the drift-band policy.

use std::path::PathBuf;
use std::sync::Arc;

use mc_blas::{select_plan_with, BlasHandle, GemmDesc, GemmOp};
use mc_isa::MatrixArch;
use mc_lint::VerifyMemo;
use mc_obs::{
    diagnose, drift_report, inversions_from_outcome, register_insight_metrics, Bottleneck,
    DriftObservation, DriftReport, InversionRecord, KernelVerdict, DEFAULT_DRIFT_BAND,
    INSIGHT_SCHEMA_VERSION,
};
use mc_sim::{DeviceId, DeviceRegistry};
use mc_trace::{MetricsRegistry, RingSink, TraceEvent};
use mc_types::DType;
use mc_wmma::{mma_loop_kernel, wmma_gemm_tile_kernel, LoopKernelParams};
use serde::{Deserialize, Serialize, Value};

use crate::autotune::SWEEP_OPS;
use crate::experiment::{IterBudgets, RunContext};

/// The square sizes the library corpus sweeps per budget tier. The
/// grid is about diagnosis breadth (small, medium, large regimes), not
/// sweep completeness — the full §VII grid lives in `fig6`/`fig7`.
pub fn corpus_sizes(budgets: &IterBudgets) -> Vec<usize> {
    if *budgets == IterBudgets::smoke() {
        vec![1024]
    } else {
        vec![512, 2048, 4096]
    }
}

/// The library-path corpus: every Fig. 6/7 routine at the tier's
/// sizes, plus the canonical diagnostic pair — a large square SGEMM
/// (compute-bound) and a small-K SGEMM (DRAM-bound) — which is present
/// at every tier so the gate always proves both classifications.
pub fn corpus(budgets: &IterBudgets) -> Vec<GemmDesc> {
    let sizes = corpus_sizes(budgets);
    let mut v: Vec<GemmDesc> = SWEEP_OPS
        .iter()
        .flat_map(|&op| sizes.iter().map(move |&n| GemmDesc::square(op, n)))
        .collect();
    v.push(GemmDesc::square(GemmOp::Sgemm, 4096));
    v.push(GemmDesc {
        k: 64,
        ..GemmDesc::square(GemmOp::Sgemm, 4096)
    });
    v
}

/// One device's diagnosed replay.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceInsight {
    /// Registry name of the device.
    pub device: String,
    /// Attributed kernel launches in the replay.
    pub kernels: usize,
    /// Launches without a verdict (must be 0; [`diagnose`] yields one
    /// verdict per attributed launch by construction, so a non-zero
    /// count means the join broke).
    pub unclassified: usize,
    /// Verdicts whose classification agrees with the roofline regime.
    pub regime_consistent: usize,
    /// The device's model-drift distribution (library launches only;
    /// empty on raw-kernel devices).
    pub drift: DriftReport,
    /// Every verdict, in ledger order.
    pub verdicts: Vec<KernelVerdict>,
}

/// Kernel count for one verdict label (aggregated over all devices).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VerdictCount {
    /// Stable verdict label ([`Bottleneck::label`]).
    pub verdict: String,
    /// Kernels that received it.
    pub kernels: usize,
}

/// The insight gate payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Insight {
    /// One diagnosed replay per device, in registry order.
    pub devices: Vec<DeviceInsight>,
    /// Kernels per verdict label across all devices (taxonomy order).
    pub verdict_counts: Vec<VerdictCount>,
    /// Total attributed kernel launches.
    pub total_kernels: usize,
    /// Launches without a verdict — gate count (must be 0).
    pub unclassified: usize,
    /// Verdicts contradicting their roofline regime — gate count
    /// (must be 0).
    pub regime_inconsistent: usize,
    /// The calibrated band `|drift|` must stay within.
    pub drift_band: f64,
    /// Prediction-vs-measurement pairs observed across all devices.
    pub drift_observations: usize,
    /// Mean `|drift|` across all observations.
    pub drift_mean_abs: f64,
    /// Worst `|drift|` across all observations.
    pub drift_max_abs: f64,
    /// Observations outside the band — gate count (must be 0).
    pub drift_out_of_band: usize,
    /// Finalist pairs the analytic model ranked opposite to the engine
    /// (recorded, not gated: they are why the dry-run tier exists).
    pub inversions: Vec<InversionRecord>,
    /// Total recorded ranking inversions.
    pub inversion_count: usize,
}

/// Replays the corpus for one device and returns the captured timeline.
fn replay(
    devices: &DeviceRegistry,
    id: DeviceId,
    budgets: &IterBudgets,
    memo: &Arc<VerifyMemo>,
) -> Vec<TraceEvent> {
    let sink = Arc::new(RingSink::new());
    let mut traced = devices.clone();
    traced.set_trace_sink(sink.clone());

    if id == DeviceId::Mi250xGcd {
        let mut handle = BlasHandle::from_registry(&traced, id);
        handle.set_verify_memo(memo.clone());
        for desc in corpus(budgets) {
            handle
                .gemm_timed(&desc)
                .expect("corpus descriptors fit in device memory");
        }
        return sink.events();
    }

    let mut gpu = traced.gpu(id);
    let arch = gpu.spec().die.arch;
    let kernel = match arch {
        MatrixArch::Cdna2 => {
            let mut k = wmma_gemm_tile_kernel(arch, DType::F32, DType::F16, (16, 16, 16), 64)
                .expect("CDNA2 tile kernel builds");
            k.workgroups = crate::trace::ragged_workgroups(&gpu, &k);
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
            k.workgroups = crate::trace::ragged_workgroups(&gpu, &k);
            k
        }
    };
    gpu.launch(0, &kernel)
        .expect("representative launch succeeds");
    sink.events()
}

/// One replayed device, diagnosed.
fn diagnose_device(
    devices: &DeviceRegistry,
    id: DeviceId,
    budgets: &IterBudgets,
    memo: &Arc<VerifyMemo>,
) -> (DeviceInsight, Vec<TraceEvent>) {
    let events = replay(devices, id, budgets, memo);
    let records = mc_obs::Attributor::from_registry(devices).attribute(&events);
    let verdicts = diagnose(&events, &records);
    let regime_consistent = verdicts
        .iter()
        .filter(|v| v.bottleneck.consistent_with_regime(&v.evidence.regime))
        .count();
    let device = DeviceInsight {
        device: id.as_str().to_owned(),
        kernels: records.len(),
        unclassified: records.len() - verdicts.len(),
        regime_consistent,
        drift: drift_report(&events, DEFAULT_DRIFT_BAND),
        verdicts,
    };
    (device, events)
}

/// Runs the plan search for one corpus point and records every ranking
/// inversion among its dry-run finalists.
fn probe_inversions(
    devices: &DeviceRegistry,
    op: GemmOp,
    n: usize,
    memo: &VerifyMemo,
) -> Vec<InversionRecord> {
    let cfg = devices.config(DeviceId::Mi250xGcd);
    let out = select_plan_with(memo, &cfg.package.die, cfg, &GemmDesc::square(op, n))
        .expect("corpus descriptors are valid");
    inversions_from_outcome(DeviceId::Mi250xGcd.as_str(), op.routine(), n as u64, &out)
}

/// One unit of the insight sweep.
enum Task {
    /// Replay and diagnose a device.
    Replay(DeviceId),
    /// Probe the plan search at one corpus point.
    Probe(GemmOp, usize),
}

/// What a [`Task`] produced.
enum Done {
    Replay(DeviceInsight, Vec<TraceEvent>),
    Probe(Vec<InversionRecord>),
}

/// Runs the insight gate over every built-in device. Returns the
/// payload and the concatenated timelines (the events feed the metrics
/// exposition; they are too large for the envelope itself).
///
/// The device replays and the plan-search probe of every corpus point
/// share only the verification memo, so they run as one parallel sweep.
pub fn run(devices: &DeviceRegistry, budgets: &IterBudgets) -> (Insight, Vec<TraceEvent>) {
    // One memo for the run: the replayed plans and the search probe
    // compile many kernels of few shapes.
    let memo = Arc::new(VerifyMemo::new());
    let tasks: Vec<Task> = DeviceId::ALL
        .into_iter()
        .map(Task::Replay)
        .chain(SWEEP_OPS.iter().flat_map(|&op| {
            corpus_sizes(budgets)
                .into_iter()
                .map(move |n| Task::Probe(op, n))
        }))
        .collect();
    let done =
        crate::experiment::par_map(devices.trace_sink().is_none(), tasks, |task| match task {
            Task::Replay(id) => {
                let (device, events) = diagnose_device(devices, id, budgets, &memo);
                Done::Replay(device, events)
            }
            Task::Probe(op, n) => Done::Probe(probe_inversions(devices, op, n, &memo)),
        });
    let mut device_insights = Vec::new();
    let mut all_events = Vec::new();
    let mut inversions = Vec::new();
    for d in done {
        match d {
            Done::Replay(device, events) => {
                device_insights.push(device);
                all_events.extend(events);
            }
            Done::Probe(found) => inversions.extend(found),
        }
    }
    let all_verdicts: Vec<&KernelVerdict> =
        device_insights.iter().flat_map(|d| &d.verdicts).collect();
    let verdict_counts = Bottleneck::ALL
        .iter()
        .map(|b| VerdictCount {
            verdict: b.label().to_owned(),
            kernels: all_verdicts.iter().filter(|v| v.bottleneck == *b).count(),
        })
        .collect();
    let all_obs: Vec<DriftObservation> = device_insights
        .iter()
        .flat_map(|d| d.drift.observations.iter().cloned())
        .collect();
    let aggregate = DriftReport::new(all_obs, DEFAULT_DRIFT_BAND);
    let total_kernels: usize = device_insights.iter().map(|d| d.kernels).sum();
    let regime_consistent: usize = device_insights.iter().map(|d| d.regime_consistent).sum();
    let insight = Insight {
        total_kernels,
        unclassified: device_insights.iter().map(|d| d.unclassified).sum(),
        regime_inconsistent: all_verdicts.len() - regime_consistent,
        verdict_counts,
        drift_band: aggregate.band,
        drift_observations: aggregate.observations.len(),
        drift_mean_abs: aggregate.mean_abs_drift,
        drift_max_abs: aggregate.max_abs_drift,
        drift_out_of_band: aggregate.out_of_band,
        inversion_count: inversions.len(),
        inversions,
        devices: device_insights,
    };
    (insight, all_events)
}

/// Rebuilds the aggregate drift report from a payload (the per-device
/// reports are authoritative; this is the cross-device summary the
/// metrics exposition uses).
fn aggregate_report(insight: &Insight) -> DriftReport {
    let obs: Vec<DriftObservation> = insight
        .devices
        .iter()
        .flat_map(|d| d.drift.observations.iter().cloned())
        .collect();
    DriftReport::new(obs, insight.drift_band)
}

/// Writes the gate's artifacts: the schema-versioned
/// `<sink>/insight.insight.json` envelope, and — when a metrics
/// directory is configured — the `<metrics_dir>/insight.insight.om`
/// OpenMetrics snapshot with the verdict counts, drift gauges, and the
/// round-latency / |drift| histogram families. Returns the paths
/// written.
pub fn persist_insight(
    ctx: &RunContext,
    insight: &Insight,
    events: &[TraceEvent],
) -> std::io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    if let Some(dir) = &ctx.json_sink {
        std::fs::create_dir_all(dir)?;
        let envelope = Value::Object(vec![
            (
                "schema_version".to_owned(),
                Value::U64(u64::from(INSIGHT_SCHEMA_VERSION)),
            ),
            ("insight".to_owned(), serde_json::to_value(insight)),
        ]);
        let path = dir.join("insight.insight.json");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&envelope).expect("envelope serializes"),
        )?;
        written.push(path);
    }
    if let Some(dir) = &ctx.metrics_dir {
        std::fs::create_dir_all(dir)?;
        let verdicts: Vec<KernelVerdict> = insight
            .devices
            .iter()
            .flat_map(|d| d.verdicts.iter().cloned())
            .collect();
        let mut registry = MetricsRegistry::new();
        register_insight_metrics(&verdicts, &aggregate_report(insight), events, &mut registry);
        let path = dir.join("insight.insight.om");
        std::fs::write(&path, mc_trace::openmetrics(&registry))?;
        written.push(path);
    }
    Ok(written)
}

/// Renders the diagnosis as text: the per-device summary, one
/// explanation line per kernel, the recorded inversions, and the gate
/// verdict.
pub fn render(insight: &Insight) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("insight: bottleneck verdicts and Eq. 2 model drift\n");
    let _ = writeln!(
        s,
        "{:<12} {:>8} {:>12} {:>10} {:>11} {:>8}",
        "device", "kernels", "consistent", "drift_obs", "max|drift|", "out"
    );
    for d in &insight.devices {
        let _ = writeln!(
            s,
            "{:<12} {:>8} {:>12} {:>10} {:>10.1}% {:>8}",
            d.device,
            d.kernels,
            d.regime_consistent,
            d.drift.observations.len(),
            d.drift.max_abs_drift * 100.0,
            d.drift.out_of_band,
        );
    }
    for d in &insight.devices {
        for v in &d.verdicts {
            let drift = v
                .drift
                .map(|x| format!(" (drift {:+.1}%)", x * 100.0))
                .unwrap_or_default();
            let _ = writeln!(
                s,
                "  {} {}: {} — {}{drift}",
                d.device,
                v.kernel,
                v.bottleneck.label(),
                v.explanation
            );
        }
    }
    let counts: Vec<String> = insight
        .verdict_counts
        .iter()
        .filter(|c| c.kernels > 0)
        .map(|c| format!("{} {}", c.kernels, c.verdict))
        .collect();
    let _ = writeln!(
        s,
        "{} kernel(s): {}; drift |mean| {:.1}% / max {:.1}% over {} launch(es), band {:.0}%",
        insight.total_kernels,
        counts.join(", "),
        insight.drift_mean_abs * 100.0,
        insight.drift_max_abs * 100.0,
        insight.drift_observations,
        insight.drift_band * 100.0,
    );
    let _ = writeln!(
        s,
        "{} ranking inversion(s) caught by the dry-run tier",
        insight.inversion_count
    );
    for inv in &insight.inversions {
        let _ = writeln!(
            s,
            "  inversion: {} {} N={}: model prefers {}, engine prefers {} (gaps {:.1}%/{:.1}%)",
            inv.device,
            inv.op,
            inv.n,
            inv.preferred_by_model,
            inv.preferred_by_engine,
            inv.analytic_gap * 100.0,
            inv.engine_gap * 100.0,
        );
    }
    let pass = insight.unclassified == 0
        && insight.regime_inconsistent == 0
        && insight.drift_out_of_band == 0;
    let _ = writeln!(
        s,
        "gate: {} ({} unclassified, {} regime-inconsistent, {} drift out of band)",
        if pass { "PASS" } else { "FAIL" },
        insight.unclassified,
        insight.regime_inconsistent,
        insight.drift_out_of_band,
    );
    s
}

/// The insight diagnosis as a registered experiment.
pub struct InsightExperiment;

impl crate::experiment::Experiment for InsightExperiment {
    fn id(&self) -> &'static str {
        "insight"
    }

    fn title(&self) -> &'static str {
        "Gate — bottleneck verdicts and Eq. 2 model drift over the corpus replay"
    }

    fn device(&self) -> &'static str {
        "all"
    }

    fn checks(&self) -> Vec<crate::experiment::Check> {
        use crate::experiment::Check;
        vec![
            Check::new("insight/unclassified kernels", 0.0, 0.0, "/unclassified"),
            Check::new(
                "insight/regime-inconsistent verdicts",
                0.0,
                0.0,
                "/regime_inconsistent",
            ),
            Check::new(
                "insight/drift observations out of band",
                0.0,
                0.0,
                "/drift_out_of_band",
            ),
        ]
    }

    fn execute(&self, ctx: &crate::experiment::RunContext) -> (Value, String) {
        let (insight, events) = run(&ctx.devices, &ctx.budgets);
        if let Err(e) = persist_insight(ctx, &insight, &events) {
            eprintln!("error: could not write insight artifacts: {e}");
        }
        (serde_json::to_value(&insight), render(&insight))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment as _;

    #[test]
    fn corpus_always_carries_the_canonical_pair() {
        for budgets in [IterBudgets::smoke(), IterBudgets::reduced()] {
            let c = corpus(&budgets);
            let small_k = c.last().expect("non-empty corpus");
            assert_eq!((small_k.m, small_k.n, small_k.k), (4096, 4096, 64));
            let square = &c[c.len() - 2];
            assert_eq!((square.m, square.n, square.k), (4096, 4096, 4096));
            // Every routine of the Fig. 6/7 evaluation is swept.
            for op in SWEEP_OPS {
                assert!(c.iter().any(|d| d.op == op), "{op:?} missing");
            }
        }
        assert!(corpus(&IterBudgets::reduced()).len() > corpus(&IterBudgets::smoke()).len());
    }

    #[test]
    fn gate_passes_on_every_builtin_device() {
        let (insight, events) = run(&DeviceRegistry::builtin(), &IterBudgets::smoke());
        assert_eq!(insight.devices.len(), DeviceId::ALL.len());
        assert_eq!(insight.unclassified, 0, "{}", render(&insight));
        assert_eq!(insight.regime_inconsistent, 0, "{}", render(&insight));
        assert_eq!(insight.drift_out_of_band, 0, "{}", render(&insight));
        assert!(insight.total_kernels > 0);
        assert!(insight.drift_observations > 0, "library plane unobserved");
        assert!(!events.is_empty());
        // Every kernel got exactly one verdict.
        let verdicts: usize = insight.devices.iter().map(|d| d.verdicts.len()).sum();
        assert_eq!(verdicts, insight.total_kernels);
        let counted: usize = insight.verdict_counts.iter().map(|c| c.kernels).sum();
        assert_eq!(counted, insight.total_kernels);
    }

    #[test]
    fn canonical_shapes_get_their_textbook_verdicts() {
        let (insight, _) = run(&DeviceRegistry::builtin(), &IterBudgets::smoke());
        let gcd = insight
            .devices
            .iter()
            .find(|d| d.device == "mi250x-gcd")
            .expect("library device diagnosed");
        assert_eq!(gcd.kernels, corpus(&IterBudgets::smoke()).len());
        // The corpus ends with the canonical pair, in launch order.
        let square = &gcd.verdicts[gcd.verdicts.len() - 2];
        let small_k = &gcd.verdicts[gcd.verdicts.len() - 1];
        assert_eq!(square.bottleneck, Bottleneck::ComputeBound, "{square:?}");
        assert!(square.evidence.achieved_fraction > 0.5);
        assert_eq!(small_k.bottleneck, Bottleneck::DramBound, "{small_k:?}");
    }

    #[test]
    fn diagnosis_is_deterministic_across_thread_counts() {
        // `--jobs N` only resizes the rayon pool; the replay clones its
        // own registry per device, so the parallel and sequential paths
        // must produce byte-identical payloads. A sink-attached registry
        // forces the sequential path (the par_map convention).
        let devices = DeviceRegistry::builtin();
        let (parallel, _) = run(&devices, &IterBudgets::smoke());
        let mut sequential_devices = devices.clone();
        sequential_devices.set_trace_sink(Arc::new(RingSink::new()));
        let (sequential, _) = run(&sequential_devices, &IterBudgets::smoke());
        assert_eq!(parallel, sequential);
        assert_eq!(
            serde_json::to_string(&serde_json::to_value(&parallel)).unwrap(),
            serde_json::to_string(&serde_json::to_value(&sequential)).unwrap()
        );
    }

    #[test]
    fn experiment_gate_checks_pass_and_artifacts_land() {
        let base = std::env::temp_dir().join(format!(
            "mc-bench-insight-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        let ctx = RunContext::new(IterBudgets::smoke())
            .with_sink(base.join("results"))
            .with_metrics(base.join("metrics"));
        let record = InsightExperiment.run(&ctx);
        assert_eq!(record.checks.len(), 3);
        assert!(
            record.checks.iter().all(|c| c.pass()),
            "{}",
            record.rendered
        );
        assert!(
            record.rendered.contains("gate: PASS"),
            "{}",
            record.rendered
        );

        let envelope = std::fs::read_to_string(base.join("results/insight.insight.json"))
            .expect("insight envelope written");
        let value: Value = serde_json::from_str(&envelope).expect("envelope parses");
        assert_eq!(
            value.get("schema_version").and_then(Value::as_u64),
            Some(u64::from(INSIGHT_SCHEMA_VERSION))
        );
        assert!(value
            .pointer("/insight/devices/0/verdicts/0/bottleneck")
            .is_some());

        let om = std::fs::read_to_string(base.join("metrics/insight.insight.om"))
            .expect("metrics snapshot written");
        assert!(om.contains("# TYPE insight_kernels gauge"), "{om}");
        assert!(
            om.contains("# TYPE insight_plan_drift_ratio histogram"),
            "{om}"
        );
        assert!(
            om.contains("# TYPE insight_round_latency_s_seconds histogram"),
            "{om}"
        );
        assert!(om.ends_with("# EOF\n"), "{om}");
        let _ = std::fs::remove_dir_all(&base);
    }
}
