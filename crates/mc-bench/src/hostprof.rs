//! Hostprof gate: host-plane tracing overhead, phase reconciliation,
//! and the unified host + simulated-GPU timeline — the `hostprof`
//! artifact.
//!
//! The host GEMM plane is instrumented through `mc_compute::prof`
//! (regions, phases, dispatch decisions) and consumed by `mc-hostprof`
//! (trace conversion, attribution, `hostprof.*` metrics). That
//! instrumentation is only admissible if it is provably cheap and
//! self-consistent, which is exactly what this gate measures:
//!
//! * **Overhead** — the same routed GEMM is timed untraced and inside a
//!   live profiling session, interleaved, until both arms' samples meet
//!   [`crate::measure`]'s stopping rule; each arm reports its fastest
//!   sample. The traced time must stay within [`MAX_OVERHEAD_REL`] of
//!   untraced (plus the [`OVERHEAD_NOISE_FLOOR_S`] absolute slack that
//!   keeps the small smoke dimension robust to scheduler noise; at the
//!   reduced-tier 1024³ dimension the relative band dominates).
//!   The traced and untraced outputs must also agree bitwise —
//!   instrumentation may spend time, never change results.
//! * **Invariants** — the converted host timeline merged with a
//!   simulated-GPU replay captured in the same session must pass every
//!   `mc_trace::check_invariants` rule (host-span nesting, host-lane
//!   overlap, plus all GPU-plane rules).
//! * **Reconciliation** — per region, the caller-lane phase seconds
//!   must explain the region wall time within [`RECONCILE_MAX_REL`]
//!   (regions shorter than [`RECONCILE_MIN_WALL_S`] are reported but
//!   not gated: a microsecond-scale naive call is all clock
//!   granularity).
//! * **Unified timeline** — the merged trace must contain both host
//!   worker tracks and simulated-CU matrix-pipe tracks, proving the
//!   two planes land in one Perfetto-loadable file
//!   (`<trace_dir>/hostprof-unified.trace.json`).
//!
//! The payload also carries the full attribution ledger and the
//! `mc-obs` host verdicts, and the artifacts land as
//! `<sink>/hostprof.host.jsonl` (schema-versioned ledger) and
//! `<metrics_dir>/hostprof.host.om` (the `hostprof.*` gauges plus the
//! per-tile microkernel latency histogram). Any gate violation fails
//! the `experiments` driver. See `docs/OBSERVABILITY.md` § "Host
//! plane".

use std::path::PathBuf;
use std::sync::Arc;

use mc_blas::{BlasHandle, GemmDesc, GemmOp};
use mc_compute::prof::{self, HostProfile};
use mc_compute::{Auto, Epilogue, GemmParams, MatMul};
use mc_hostprof::{attribute, register_hostprof_metrics, to_trace_events, HostAttributionRecord};
use mc_obs::{diagnose_host, HostVerdict};
use mc_sim::{DeviceId, DeviceRegistry};
use mc_trace::{check_invariants, MetricsRegistry, RingSink, TraceEvent, Track};
use serde::{Deserialize, Serialize, Value};

use crate::experiment::{IterBudgets, RunContext};
use crate::measure::{self, operands, Samples};

/// Maximum admissible traced-over-untraced relative slowdown.
pub const MAX_OVERHEAD_REL: f64 = 0.03;

/// Absolute slack added to the overhead bound: a shared CI worker
/// preempts threads at millisecond granularity, which would swamp a
/// 3% band on the ~5 ms smoke dimension. At the reduced-tier 1024³
/// dimension the relative band is the larger term, so the acceptance
/// criterion stays a true 3% where it matters. (Same reasoning as the
/// regress gate's `BENCH_NOISE_FLOOR_S`, scaled to a single kernel.)
pub const OVERHEAD_NOISE_FLOOR_S: f64 = 0.005;

/// Maximum `|wall − caller-lane phases| / wall` per gated region: the
/// phase taxonomy must explain at least 95% of every region it claims
/// to decompose (the remainder is scratch acquisition and loop
/// bookkeeping between phase boundaries).
pub const RECONCILE_MAX_REL: f64 = 0.05;

/// Regions shorter than this are not reconciliation-gated (reported
/// only): at microsecond scale the clock reads bracketing each phase
/// are a visible fraction of the wall itself.
pub const RECONCILE_MIN_WALL_S: f64 = 1e-3;

/// The square GEMM dimension per budget tier: 1024 (the acceptance
/// criterion's dimension) at reduced/paper budgets, 256 under smoke.
pub fn dimension(budgets: &IterBudgets) -> usize {
    if *budgets == IterBudgets::smoke() {
        256
    } else {
        1024
    }
}

/// One measurement summary of the traced-vs-untraced pair plus the
/// consistency sweep over the final profiled run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Hostprof {
    /// Square GEMM dimension timed.
    pub n: usize,
    /// Timed samples per arm.
    pub reps: usize,
    /// Rayon pool size during the measurement.
    pub threads: usize,
    /// Fastest untraced wall time (seconds).
    pub untraced_s: f64,
    /// Fastest in-session wall time (seconds).
    pub traced_s: f64,
    /// `traced_s / untraced_s − 1` (may be negative in noise).
    pub overhead_rel: f64,
    /// The relative bound in force ([`MAX_OVERHEAD_REL`]).
    pub max_overhead_rel: f64,
    /// The absolute slack in force ([`OVERHEAD_NOISE_FLOOR_S`]).
    pub noise_floor_s: f64,
    /// 1 when the fastest traced sample exceeded the bound — gate count.
    pub overhead_exceeded: usize,
    /// Traced-vs-untraced output elements that differ bitwise — gate
    /// count (instrumentation must never change results).
    pub bitwise_mismatches: usize,
    /// Events lost to collector overflow in the profiled run.
    pub dropped_events: u64,
    /// Converted host-plane trace events.
    pub host_events: usize,
    /// Simulated-GPU trace events captured in the same session.
    pub sim_events: usize,
    /// `check_invariants` violations over the merged timeline — gate
    /// count.
    pub total_violations: usize,
    /// Worst reconciliation error across gated regions.
    pub reconcile_max_rel_err: f64,
    /// Gated regions whose caller-lane phases fail to explain the wall
    /// within [`RECONCILE_MAX_REL`] — gate count.
    pub reconcile_failures: usize,
    /// Planes missing from the merged timeline (host worker tracks,
    /// simulated matrix-pipe tracks) — gate count.
    pub unified_missing: usize,
    /// Host regions attributed.
    pub regions: usize,
    /// The full attribution ledger of the profiled run.
    pub records: Vec<HostAttributionRecord>,
    /// One `mc-obs` host verdict per record.
    pub verdicts: Vec<HostVerdict>,
}

fn time_routed(auto: &Auto, params: &GemmParams, a: &[f32], b: &[f32]) -> (f64, Vec<f32>) {
    let c = vec![0.0f32; params.m * params.n];
    let mut d = vec![0.0f32; params.m * params.n];
    let (t, ok) = measure::time(|| auto.gemm::<f32, f32, f32>(params, a, b, &c, &mut d));
    ok.expect("well-formed problem");
    (t, d)
}

/// Replays one library SGEMM launch on a ring-sinked registry clone,
/// returning the captured simulated-GPU timeline.
fn replay_sim(devices: &DeviceRegistry, n: usize) -> Vec<TraceEvent> {
    let sink = Arc::new(RingSink::new());
    let mut traced = devices.clone();
    traced.set_trace_sink(sink.clone());
    let mut handle = BlasHandle::from_registry(&traced, DeviceId::Mi250xGcd);
    handle
        .gemm_timed(&GemmDesc::square(GemmOp::Sgemm, n))
        .expect("square SGEMM fits in device memory");
    sink.events()
}

/// Runs the gate. Returns the payload, the profiled run's raw
/// [`HostProfile`] (the metrics exposition needs its phase events), and
/// the merged host + simulated timeline (too large for the envelope).
pub fn run(
    devices: &DeviceRegistry,
    budgets: &IterBudgets,
) -> (Hostprof, HostProfile, Vec<TraceEvent>) {
    let n = dimension(budgets);
    let (a, b) = operands(n);
    let params = GemmParams::new(n, n, n).with_epilogue(Epilogue::ComputeRounded);
    // Half-edge crossover: the timed problem always takes the packed
    // tier (the instrumentation-heavy path), while the dispatch still
    // makes a real geomean-vs-edge decision for the decision event.
    let auto = Auto::with_crossover(n / 2);
    let small = GemmParams::new(24, 24, 24).with_epilogue(Epilogue::ComputeRounded);

    // Warm the packing pool and the page cache outside both arms.
    let _ = time_routed(&auto, &params, &a, &b);

    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut bitwise_mismatches = 0usize;
    let (profile, sim_events) = loop {
        let (t, d_untraced) = time_routed(&auto, &params, &a, &b);
        untraced.push(t);

        let session = prof::session();
        let (t, d_traced) = time_routed(&auto, &params, &a, &b);
        traced.push(t);
        bitwise_mismatches += d_untraced
            .iter()
            .zip(&d_traced)
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
        // Outside the timed window but inside the session: a
        // naive-routed region (dispatch-overhead coverage), and — on
        // the last pair — the simulated-GPU replay whose timeline
        // merges with this session's host plane.
        let _ = time_routed(&auto, &small, &a[..24 * 24], &b[..24 * 24]);
        if untraced.enough() && traced.enough() {
            let sim_events = replay_sim(devices, n);
            break (session.finish(), sim_events);
        }
    };
    let (untraced_s, traced_s) = (untraced.min(), traced.min());

    let overhead_rel = traced_s / untraced_s - 1.0;
    let overhead_exceeded =
        usize::from(traced_s > untraced_s * (1.0 + MAX_OVERHEAD_REL) + OVERHEAD_NOISE_FLOOR_S);

    let host_events = to_trace_events(&profile);
    let records = attribute(&profile);
    let verdicts = diagnose_host(&records);

    let mut merged = host_events.clone();
    merged.extend(sim_events.iter().cloned());
    let total_violations = check_invariants(&merged).len();

    let gated: Vec<&HostAttributionRecord> = records
        .iter()
        .filter(|r| r.wall_s >= RECONCILE_MIN_WALL_S)
        .collect();
    let reconcile_max_rel_err = gated
        .iter()
        .map(|r| r.reconcile_rel_err)
        .fold(0.0, f64::max);
    let reconcile_failures = gated
        .iter()
        .filter(|r| r.reconcile_rel_err > RECONCILE_MAX_REL)
        .count();

    let has_worker = merged
        .iter()
        .any(|e| matches!(e, TraceEvent::Span(s) if matches!(s.track, Track::HostWorker(_))));
    let has_pipe = merged
        .iter()
        .any(|e| matches!(e, TraceEvent::Span(s) if matches!(s.track, Track::MatrixPipe(_))));
    let unified_missing = usize::from(!has_worker) + usize::from(!has_pipe);

    let payload = Hostprof {
        n,
        reps: untraced.count(),
        threads: profile.threads,
        untraced_s,
        traced_s,
        overhead_rel,
        max_overhead_rel: MAX_OVERHEAD_REL,
        noise_floor_s: OVERHEAD_NOISE_FLOOR_S,
        overhead_exceeded,
        bitwise_mismatches,
        dropped_events: profile.dropped,
        host_events: host_events.len(),
        sim_events: sim_events.len(),
        total_violations,
        reconcile_max_rel_err,
        reconcile_failures,
        unified_missing,
        regions: records.len(),
        records,
        verdicts,
    };
    (payload, profile, merged)
}

/// Writes the gate's artifacts: the schema-versioned attribution
/// ledger as `<sink>/hostprof.host.jsonl`, the `hostprof.*` metrics
/// (gauges + microkernel latency histogram) as
/// `<metrics_dir>/hostprof.host.om`, and the merged unified timeline
/// as `<trace_dir>/hostprof-unified.trace.json`. Returns the paths
/// written.
pub fn persist_hostprof(
    ctx: &RunContext,
    payload: &Hostprof,
    profile: &HostProfile,
    merged: &[TraceEvent],
) -> std::io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    if let Some(dir) = ctx.json_sink.as_ref().or(ctx.metrics_dir.as_ref()) {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("hostprof.host.jsonl");
        std::fs::write(&path, mc_trace::to_jsonl(&payload.records))?;
        written.push(path);
    }
    if let Some(dir) = &ctx.metrics_dir {
        std::fs::create_dir_all(dir)?;
        let mut registry = MetricsRegistry::new();
        register_hostprof_metrics(&payload.records, profile, &mut registry);
        let path = dir.join("hostprof.host.om");
        std::fs::write(&path, mc_trace::openmetrics(&registry))?;
        written.push(path);
    }
    if let Some(path) = ctx.persist_trace("hostprof-unified", merged)? {
        written.push(path);
    }
    Ok(written)
}

/// Renders the measurement, the per-region attribution, and the gate
/// verdict as text.
pub fn render(h: &Hostprof) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("hostprof: host-plane tracing overhead and unified timeline\n");
    let _ = writeln!(
        s,
        "N={} threads={} reps={}: untraced {:.6} s, traced {:.6} s ({:+.2}% — bound {:.0}% + {:.0} ms)",
        h.n,
        h.threads,
        h.reps,
        h.untraced_s,
        h.traced_s,
        h.overhead_rel * 100.0,
        h.max_overhead_rel * 100.0,
        h.noise_floor_s * 1e3,
    );
    let _ = writeln!(
        s,
        "{:>8} {:<8} {:>12} {:>8} {:>8} {:>8} {:>6} {:>10}",
        "region", "backend", "shape", "wall_ms", "pack%", "eff%", "GF/s", "reconcile%"
    );
    for r in &h.records {
        let _ = writeln!(
            s,
            "{:>8} {:<8} {:>12} {:>8.3} {:>8.1} {:>8.1} {:>6.1} {:>10.2}",
            r.region,
            r.backend,
            format!("{}x{}x{}", r.m, r.n, r.k),
            r.wall_s * 1e3,
            r.pack_ratio * 100.0,
            r.parallel_efficiency * 100.0,
            r.gflops,
            r.reconcile_rel_err * 100.0,
        );
    }
    for v in &h.verdicts {
        let _ = writeln!(s, "  region {}: {}", v.region, v.explanation);
    }
    let _ = writeln!(
        s,
        "{} host event(s) + {} simulated event(s) merged; {} region(s), {} dropped",
        h.host_events, h.sim_events, h.regions, h.dropped_events,
    );
    let pass = h.overhead_exceeded == 0
        && h.bitwise_mismatches == 0
        && h.total_violations == 0
        && h.reconcile_failures == 0
        && h.unified_missing == 0;
    let _ = writeln!(
        s,
        "gate: {} ({} over budget, {} bitwise mismatch(es), {} violation(s), {} reconcile failure(s), {} plane(s) missing)",
        if pass { "PASS" } else { "FAIL" },
        h.overhead_exceeded,
        h.bitwise_mismatches,
        h.total_violations,
        h.reconcile_failures,
        h.unified_missing,
    );
    s
}

/// The hostprof gate as a registered experiment.
pub struct HostprofExperiment;

impl crate::experiment::Experiment for HostprofExperiment {
    fn id(&self) -> &'static str {
        "hostprof"
    }

    fn title(&self) -> &'static str {
        "Gate — host-plane tracing overhead, attribution, and the unified timeline"
    }

    fn device(&self) -> &'static str {
        "host + mi250x-gcd"
    }

    fn checks(&self) -> Vec<crate::experiment::Check> {
        use crate::experiment::Check;
        vec![
            Check::new(
                "hostprof/overhead over budget",
                0.0,
                0.0,
                "/overhead_exceeded",
            ),
            Check::new(
                "hostprof/traced-vs-untraced bitwise mismatches",
                0.0,
                0.0,
                "/bitwise_mismatches",
            ),
            Check::new(
                "hostprof/unified timeline violations",
                0.0,
                0.0,
                "/total_violations",
            ),
            Check::new(
                "hostprof/phase-to-wall reconcile failures",
                0.0,
                0.0,
                "/reconcile_failures",
            ),
            Check::new(
                "hostprof/missing timeline planes",
                0.0,
                0.0,
                "/unified_missing",
            ),
        ]
    }

    fn execute(&self, ctx: &crate::experiment::RunContext) -> (Value, String) {
        let (payload, profile, merged) = run(&ctx.devices, &ctx.budgets);
        if let Err(e) = persist_hostprof(ctx, &payload, &profile, &merged) {
            eprintln!("error: could not write hostprof artifacts: {e}");
        }
        (serde_json::to_value(&payload), render(&payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment as _;
    use mc_obs::HostBottleneck;

    #[test]
    fn dimension_follows_budgets() {
        assert_eq!(dimension(&IterBudgets::smoke()), 256);
        assert_eq!(dimension(&IterBudgets::reduced()), 1024);
        assert_eq!(dimension(&IterBudgets::paper()), 1024);
    }

    #[test]
    fn gate_passes_at_smoke_dimension() {
        let (h, profile, merged) = run(&DeviceRegistry::builtin(), &IterBudgets::smoke());
        assert_eq!(h.overhead_exceeded, 0, "{}", render(&h));
        assert_eq!(h.bitwise_mismatches, 0, "{}", render(&h));
        assert_eq!(h.total_violations, 0, "{}", render(&h));
        assert_eq!(h.reconcile_failures, 0, "{}", render(&h));
        assert_eq!(h.unified_missing, 0, "{}", render(&h));
        assert_eq!(h.dropped_events, 0);
        // Both the packed timing region and the naive-routed region
        // appear at least once, each with a verdict.
        assert!(h.regions >= 2, "{}", render(&h));
        assert_eq!(h.verdicts.len(), h.records.len());
        assert!(h
            .records
            .iter()
            .any(|r| r.backend != "naive" && r.microkernel_s > 0.0));
        assert!(h
            .verdicts
            .iter()
            .any(|v| v.bottleneck == HostBottleneck::DispatchOverhead));
        assert!(!profile.events.is_empty());
        assert!(h.host_events > 0 && h.sim_events > 0);
        assert_eq!(merged.len(), h.host_events + h.sim_events);
        assert!(h.untraced_s > 0.0 && h.traced_s > 0.0);
    }

    #[test]
    fn experiment_checks_pass_and_artifacts_land() {
        let base = std::env::temp_dir().join(format!(
            "mc-bench-hostprof-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        let ctx = RunContext::new(IterBudgets::smoke())
            .with_sink(base.join("results"))
            .with_metrics(base.join("metrics"))
            .with_trace(base.join("trace"));
        let record = HostprofExperiment.run(&ctx);
        assert_eq!(record.checks.len(), 5);
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

        let ledger = std::fs::read_to_string(base.join("results/hostprof.host.jsonl"))
            .expect("attribution ledger written");
        let back = mc_trace::from_jsonl::<mc_hostprof::HostAttributionRecord>(&ledger)
            .expect("ledger parses");
        assert!(!back.is_empty());

        let om = std::fs::read_to_string(base.join("metrics/hostprof.host.om"))
            .expect("metrics snapshot written");
        assert!(om.contains("# TYPE hostprof_regions gauge"), "{om}");
        assert!(
            om.contains("# TYPE hostprof_microkernel_latency_seconds histogram"),
            "{om}"
        );
        assert!(om.ends_with("# EOF\n"), "{om}");

        let unified = std::fs::read_to_string(base.join("trace/hostprof-unified.trace.json"))
            .expect("unified trace written");
        assert!(unified.contains("\"host\""), "host process missing");
        assert!(unified.contains("matrix pipe"), "CU tracks missing");
        assert!(unified.contains("host worker"), "worker tracks missing");
        let _ = std::fs::remove_dir_all(&base);
    }
}
