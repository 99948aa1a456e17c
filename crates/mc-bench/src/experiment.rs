//! The experiment abstraction: one registry, one run context, one
//! record format for every artifact in the suite.
//!
//! Each table/figure/extension module implements [`Experiment`]; the
//! `experiments` driver, the [`crate::report`] aggregator, and the
//! integration tests all consume the same [`registry`]. A run produces
//! an [`ExperimentRecord`] — a schema-versioned serde envelope carrying
//! the payload plus evaluated [`Check`] outcomes — which serializes to
//! one JSON file per experiment under `results/`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use mc_power::SamplerConfig;
use mc_sim::DeviceRegistry;
use mc_trace::{chrome_trace_json, MetricsRegistry, RingSink, TraceEvent};
use serde::{Deserialize, Serialize, Value};

/// Version stamped into every [`ExperimentRecord`]; bump when the
/// envelope layout changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// Iteration budgets for the three micro-benchmark harness classes.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct IterBudgets {
    /// Latency micro-benchmark loop iterations (Table II).
    pub micro_iters: u64,
    /// Throughput sweep iterations per wavefront (Figs. 3–4, extensions).
    pub tput_iters: u64,
    /// Power sweep iterations per point (Fig. 5) — controls how long the
    /// sampler observes each kernel.
    pub power_iters: u64,
}

impl IterBudgets {
    /// The paper's full budgets: 40 M latency loops, 10⁷ throughput
    /// iterations, and ≥110 s of sampled kernel per power point (≥1000
    /// samples at the 100 ms period, §IV-C).
    pub fn paper() -> Self {
        IterBudgets {
            micro_iters: 40_000_000,
            tput_iters: 10_000_000,
            power_iters: 6_000_000_000,
        }
    }

    /// Reduced budgets for interactive runs; the simulator is
    /// iteration-exact for latency/throughput, and the power sweep keeps
    /// enough samples for stable fits.
    pub fn reduced() -> Self {
        IterBudgets {
            micro_iters: 1_000_000,
            tput_iters: 200_000,
            power_iters: 600_000_000,
        }
    }

    /// Minimal budgets for tests that only exercise plumbing.
    pub fn smoke() -> Self {
        IterBudgets {
            micro_iters: 100_000,
            tput_iters: 50_000,
            power_iters: 60_000_000,
        }
    }

    /// Budgets for a `--paper-iters` flag value.
    pub fn for_flag(paper_iters: bool) -> Self {
        if paper_iters {
            IterBudgets::paper()
        } else {
            IterBudgets::reduced()
        }
    }
}

/// Everything an experiment needs to run: the device registry, the
/// iteration budgets, the power-sampler configuration, and an optional
/// JSON sink directory for record envelopes.
#[derive(Clone, Debug)]
pub struct RunContext {
    /// Device constructor path (single source of `Gpu`s / `BlasHandle`s).
    pub devices: DeviceRegistry,
    /// Iteration budgets.
    pub budgets: IterBudgets,
    /// Power sampler configuration (Fig. 5).
    pub sampler: SamplerConfig,
    /// Directory record envelopes are written to (`results/` by
    /// convention); `None` disables persistence.
    pub json_sink: Option<PathBuf>,
    /// Directory Chrome trace-event files are written to (`--trace DIR`);
    /// `None` disables execution tracing entirely, which is the fast
    /// path: devices keep their no-op sink and pay nothing.
    pub trace_dir: Option<PathBuf>,
    /// Directory OpenMetrics snapshots are written to (`--metrics DIR`).
    /// Like `trace_dir`, setting it activates span capture: each run's
    /// attribution aggregates are exported as
    /// `<dir>/<id>.om` in OpenMetrics text exposition format.
    pub metrics_dir: Option<PathBuf>,
}

impl RunContext {
    /// A context with the built-in devices and the given budgets.
    pub fn new(budgets: IterBudgets) -> Self {
        RunContext {
            devices: DeviceRegistry::builtin(),
            budgets,
            sampler: SamplerConfig::default(),
            json_sink: None,
            trace_dir: None,
            metrics_dir: None,
        }
    }

    /// Reduced-budget context (the driver's default).
    pub fn reduced() -> Self {
        RunContext::new(IterBudgets::reduced())
    }

    /// Full paper-budget context (`--paper-iters`).
    pub fn paper() -> Self {
        RunContext::new(IterBudgets::paper())
    }

    /// Sets the JSON sink directory.
    pub fn with_sink(mut self, dir: impl Into<PathBuf>) -> Self {
        self.json_sink = Some(dir.into());
        self
    }

    /// Sets the trace directory (`--trace DIR`): every experiment run
    /// through [`Experiment::run`] captures its execution timeline and
    /// writes `<dir>/<id>.trace.json` in Chrome trace-event format.
    pub fn with_trace(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Sets the metrics directory (`--metrics DIR`): every experiment
    /// run through [`Experiment::run`] captures its execution timeline,
    /// attributes it, and writes the aggregate metrics as
    /// `<dir>/<id>.om` in OpenMetrics text exposition format (plus the
    /// attribution ledger, see [`RunContext::persist_observability`]).
    pub fn with_metrics(mut self, dir: impl Into<PathBuf>) -> Self {
        self.metrics_dir = Some(dir.into());
        self
    }

    /// Whether span capture is active: either output that consumes a
    /// timeline (`--trace`, `--metrics`) turns the ring on.
    fn captures_spans(&self) -> bool {
        self.trace_dir.is_some() || self.metrics_dir.is_some()
    }

    /// Maps `f` over a sweep's points, in parallel on the global rayon
    /// pool when tracing is disabled.
    ///
    /// See [`par_map`]: results come back in item order, and a point
    /// must compute independently of the others (its own device or
    /// handle), so parallel and sequential execution produce identical
    /// results. With `--trace` or `--metrics` the points run
    /// sequentially: each device advances a monotonic trace clock, and
    /// interleaving launches from worker threads would interleave their
    /// spans.
    pub fn par_points<I, R, F>(&self, items: Vec<I>, f: F) -> Vec<R>
    where
        I: Send,
        R: Send,
        F: Fn(I) -> R + Sync + Send,
    {
        par_map(!self.captures_spans(), items, f)
    }

    /// When span capture is enabled (`--trace` or `--metrics`), returns
    /// a clone of this context whose device registry feeds every
    /// constructed `Gpu`/`BlasHandle` into a fresh bounded ring, plus
    /// the ring itself; otherwise returns this context unchanged and no
    /// ring. Each run gets its own ring so parallel experiments never
    /// interleave their timelines.
    pub fn traced(&self) -> (RunContext, Option<Arc<RingSink>>) {
        if !self.captures_spans() {
            return (self.clone(), None);
        }
        let sink = Arc::new(RingSink::new());
        let mut ctx = self.clone();
        ctx.devices.set_trace_sink(sink.clone());
        (ctx, Some(sink))
    }

    /// Writes a captured timeline to `<trace_dir>/<id>.trace.json` as
    /// Chrome trace-event JSON (loadable in Perfetto / `chrome://
    /// tracing`). Returns the path written, or `None` when no trace
    /// directory is configured.
    pub fn persist_trace(
        &self,
        id: &str,
        events: &[TraceEvent],
    ) -> std::io::Result<Option<PathBuf>> {
        let Some(dir) = &self.trace_dir else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{id}.trace.json"));
        std::fs::write(&path, chrome_trace_json(events))?;
        Ok(Some(path))
    }

    /// Writes the observability artifacts for a captured timeline: the
    /// per-kernel attribution ledger as schema-versioned JSONL next to
    /// the experiment's envelope (`<json_sink>/<id>.attribution.jsonl`,
    /// falling back to the metrics directory when no sink is set), and —
    /// when a metrics directory is configured — the ledger's aggregate
    /// metrics as `<metrics_dir>/<id>.om` in OpenMetrics text
    /// exposition format. Returns the paths written.
    pub fn persist_observability(
        &self,
        id: &str,
        events: &[TraceEvent],
    ) -> std::io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        let records = mc_obs::Attributor::from_registry(&self.devices).attribute(events);
        if let Some(dir) = self.json_sink.as_ref().or(self.metrics_dir.as_ref()) {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("{id}.attribution.jsonl"));
            std::fs::write(&path, mc_trace::to_jsonl(&records))?;
            written.push(path);
        }
        if let Some(dir) = &self.metrics_dir {
            std::fs::create_dir_all(dir)?;
            let mut registry = MetricsRegistry::new();
            mc_obs::register_attribution_metrics(&records, &mut registry);
            let path = dir.join(format!("{id}.om"));
            std::fs::write(&path, mc_trace::openmetrics(&registry))?;
            written.push(path);
        }
        Ok(written)
    }

    /// Writes one verifier gate's aggregate diagnostic counts as
    /// `<metrics_dir>/<id>.verify.om` in OpenMetrics text exposition
    /// format (via [`mc_obs::register_verifier_metrics`]), giving
    /// scrapers the same zero-diagnostic invariant the gate itself
    /// enforces. The name is distinct from the `<id>.om` attribution
    /// exposition, which [`RunContext::persist_observability`] writes
    /// for traced runs. Returns the path written, or `None` when no
    /// metrics directory is configured.
    pub fn persist_verifier_metrics(
        &self,
        id: &str,
        counts: &mc_obs::VerifierCounts,
    ) -> std::io::Result<Option<PathBuf>> {
        let Some(dir) = &self.metrics_dir else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let mut registry = MetricsRegistry::new();
        mc_obs::register_verifier_metrics(counts, &mut registry);
        let path = dir.join(format!("{id}.verify.om"));
        std::fs::write(&path, mc_trace::openmetrics(&registry))?;
        Ok(Some(path))
    }

    /// Writes the host packing-pool counters accumulated during a run
    /// as `<metrics_dir>/<id>.pool.om` in OpenMetrics text exposition
    /// format (via [`mc_obs::register_compute_pool_metrics`]), so the
    /// steady-state-reuse invariant the `pool_reuse` test enforces is
    /// scrapeable next to the wall times it explains. Returns the path
    /// written, or `None` when no metrics directory is configured.
    pub fn persist_pool_metrics(
        &self,
        id: &str,
        stats: &mc_compute::PoolStats,
    ) -> std::io::Result<Option<PathBuf>> {
        let Some(dir) = &self.metrics_dir else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let mut registry = MetricsRegistry::new();
        mc_obs::register_compute_pool_metrics(stats, &mut registry);
        let path = dir.join(format!("{id}.pool.om"));
        std::fs::write(&path, mc_trace::openmetrics(&registry))?;
        Ok(Some(path))
    }

    /// Writes a record envelope to `<sink>/<experiment id>.json`,
    /// creating the directory. Returns the path written, or `None` when
    /// no sink is configured.
    pub fn persist(&self, record: &ExperimentRecord) -> std::io::Result<Option<PathBuf>> {
        let Some(dir) = &self.json_sink else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", record.experiment));
        let json = serde_json::to_string_pretty(record)
            .expect("experiment records are always serializable");
        std::fs::write(&path, json)?;
        Ok(Some(path))
    }
}

/// Maps `f` over `items`, on the global rayon pool when `parallel` is
/// true and in item order on the calling thread otherwise. Results
/// always come back in item order. Sweep `run` functions that only see
/// a [`DeviceRegistry`] use this directly, passing
/// `devices.trace_sink().is_none()` — a registry with a sink attached
/// is feeding a timeline, and interleaved launches from worker threads
/// would interleave its spans.
///
/// In parallel, the caller and every worker the pool grants each take
/// the next unclaimed item until none is left, so points of unequal
/// cost keep every thread busy and the order points *run* in varies
/// from run to run: `f` must not depend on it. A sweep whose points
/// each cost less than waking a worker (about 15 µs on a 2-vCPU host)
/// gains nothing here and runs inline instead.
pub fn par_map<I, R, F>(parallel: bool, items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync + Send,
{
    if !parallel {
        return items.into_iter().map(f).collect();
    }
    use rayon::prelude::*;
    items.into_par_iter().map(f).collect()
}

/// One compared quantity: a measured value against the paper's
/// published value with a relative pass band.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// What is being compared.
    pub metric: String,
    /// The paper's published value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Acceptable relative deviation for a "pass".
    pub band: f64,
}

impl Comparison {
    /// Relative deviation from the paper value.
    pub fn deviation(&self) -> f64 {
        (self.measured - self.paper).abs() / self.paper.abs().max(f64::MIN_POSITIVE)
    }

    /// Whether the measurement is within the band.
    pub fn pass(&self) -> bool {
        self.deviation() <= self.band
    }
}

/// A declarative paper pass-band: where to find the measured value in
/// an experiment's JSON payload, and what the paper says it should be.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// Metric label (stable; `report` groups by the `<id>/` prefix).
    pub metric: &'static str,
    /// The paper's published value.
    pub paper: f64,
    /// Acceptable relative deviation.
    pub band: f64,
    /// RFC 6901 JSON pointer into the experiment payload.
    pub pointer: &'static str,
}

impl Check {
    /// Declares a check.
    pub const fn new(metric: &'static str, paper: f64, band: f64, pointer: &'static str) -> Self {
        Check {
            metric,
            paper,
            band,
            pointer,
        }
    }

    /// Evaluates the check against a payload. A missing or non-numeric
    /// pointer target yields `measured = NaN`, which never passes — a
    /// wiring bug surfaces as a failed comparison rather than a panic.
    pub fn evaluate(&self, payload: &Value) -> Comparison {
        let measured = payload
            .pointer(self.pointer)
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        Comparison {
            metric: self.metric.to_owned(),
            paper: self.paper,
            measured,
            band: self.band,
        }
    }
}

/// The versioned envelope one experiment run produces.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Envelope layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Stable experiment id (`table2`, `fig5`, …).
    pub experiment: String,
    /// Human-readable title.
    pub title: String,
    /// Device(s) the experiment ran on (registry names).
    pub device: String,
    /// Iteration budgets the run used.
    pub config: IterBudgets,
    /// Wall-clock runtime of the experiment in seconds.
    pub wall_time_s: f64,
    /// Evaluated paper pass-bands.
    pub checks: Vec<Comparison>,
    /// Rendered text artifact (what the CLI prints).
    pub rendered: String,
    /// The full result structure as a JSON value.
    pub payload: Value,
}

/// One registered experiment: a table, figure, or extension artifact.
pub trait Experiment: Send + Sync {
    /// Stable identifier; doubles as the CLI artifact name and the
    /// record filename.
    fn id(&self) -> &'static str;

    /// Human-readable title.
    fn title(&self) -> &'static str;

    /// Registry name(s) of the device(s) this experiment models.
    fn device(&self) -> &'static str;

    /// Declarative paper pass-bands over the payload.
    fn checks(&self) -> Vec<Check> {
        Vec::new()
    }

    /// Runs the experiment, returning its JSON payload and rendered text.
    fn execute(&self, ctx: &RunContext) -> (Value, String);

    /// Runs and wraps the result in a versioned [`ExperimentRecord`],
    /// evaluating this experiment's checks against the payload. When the
    /// context has a trace directory, the run executes against a traced
    /// clone of the registry and its captured timeline is written to
    /// `<trace_dir>/<id>.trace.json`.
    fn run(&self, ctx: &RunContext) -> ExperimentRecord {
        let start = Instant::now();
        let (traced_ctx, ring) = ctx.traced();
        let (payload, rendered) = self.execute(&traced_ctx);
        if let Some(ring) = ring {
            let events = ring.events();
            if let Err(e) = ctx.persist_trace(self.id(), &events) {
                eprintln!("error: could not write trace for `{}`: {e}", self.id());
            }
            if let Err(e) = ctx.persist_observability(self.id(), &events) {
                eprintln!(
                    "error: could not write attribution for `{}`: {e}",
                    self.id()
                );
            }
        }
        let wall_time_s = start.elapsed().as_secs_f64();
        let checks = self.checks().iter().map(|c| c.evaluate(&payload)).collect();
        ExperimentRecord {
            schema_version: SCHEMA_VERSION,
            experiment: self.id().to_owned(),
            title: self.title().to_owned(),
            device: self.device().to_owned(),
            config: ctx.budgets,
            wall_time_s,
            checks,
            rendered,
            payload,
        }
    }
}

/// Every experiment in the suite, in canonical presentation order.
///
/// `report` is last by construction: it aggregates the other
/// experiments' recorded envelopes instead of re-running them.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(crate::table1::Table1Experiment),
        Box::new(crate::table2::Table2Experiment),
        Box::new(crate::table3::Table3Experiment),
        Box::new(crate::fig2::Fig2Experiment),
        Box::new(crate::fig3::Fig3Experiment),
        Box::new(crate::fig4::Fig4Experiment),
        Box::new(crate::fig5::Fig5Experiment),
        Box::new(crate::fig6::Fig6Experiment),
        Box::new(crate::fig7::Fig7Experiment),
        Box::new(crate::fig8::Fig8Experiment),
        Box::new(crate::fig9::Fig9Experiment),
        Box::new(crate::solver_ext::SolverExtExperiment),
        Box::new(crate::ml_dtypes::MlDtypesExperiment),
        Box::new(crate::generations::GenerationsExperiment),
        Box::new(crate::saturation::SaturationExperiment),
        Box::new(crate::lint::LintExperiment),
        Box::new(crate::flow::FlowExperiment),
        Box::new(crate::trace::TraceExperiment),
        Box::new(crate::perf::PerfExperiment),
        Box::new(crate::autotune::AutotuneExperiment),
        Box::new(crate::regress::RegressExperiment),
        Box::new(crate::insight::InsightExperiment),
        Box::new(crate::hostprof::HostprofExperiment),
        Box::new(crate::report::ReportExperiment),
    ]
}

/// Parses record envelopes from a sink directory (one `.json` per
/// experiment). Unreadable or foreign JSON files are skipped; records
/// with a different schema version are reported as errors.
pub fn load_records(dir: &Path) -> Result<Vec<ExperimentRecord>, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return Ok(Vec::new()), // no recordings yet
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut records = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(record) = serde_json::from_str::<ExperimentRecord>(&text) else {
            continue; // not an experiment envelope
        };
        if record.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "{}: schema version {} (this binary reads {SCHEMA_VERSION})",
                path.display(),
                record.schema_version
            ));
        }
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_honor_the_paper_flag() {
        assert_eq!(IterBudgets::for_flag(true), IterBudgets::paper());
        assert_eq!(IterBudgets::for_flag(false), IterBudgets::reduced());
        // The satellite fix: --paper-iters must scale the power sweep too.
        assert!(IterBudgets::paper().power_iters > IterBudgets::reduced().power_iters);
    }

    #[test]
    fn check_evaluates_by_pointer() {
        let payload = Value::Object(vec![(
            "series".into(),
            Value::Array(vec![Value::Object(vec![(
                "plateau_tflops".into(),
                Value::F64(172.0),
            )])]),
        )]);
        let check = Check::new(
            "fig3/mixed plateau (TFLOPS)",
            175.0,
            0.03,
            "/series/0/plateau_tflops",
        );
        let cmp = check.evaluate(&payload);
        assert!(cmp.pass());
        assert!((cmp.measured - 172.0).abs() < 1e-12);

        // A broken pointer fails loudly instead of panicking.
        let broken = Check::new("x", 1.0, 0.5, "/missing").evaluate(&payload);
        assert!(broken.measured.is_nan());
        assert!(!broken.pass());
    }

    #[test]
    fn registry_ids_are_unique_and_report_is_last() {
        let experiments = registry();
        let ids: Vec<&str> = experiments.iter().map(|e| e.id()).collect();
        let mut deduped = ids.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(
            deduped.len(),
            ids.len(),
            "duplicate experiment ids: {ids:?}"
        );
        assert_eq!(ids.last(), Some(&"report"));
    }

    #[test]
    fn persist_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "mc-bench-experiment-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let record = ExperimentRecord {
            schema_version: SCHEMA_VERSION,
            experiment: "table1".into(),
            title: "t".into(),
            device: "mi250x".into(),
            config: IterBudgets::smoke(),
            wall_time_s: 0.5,
            checks: vec![Comparison {
                metric: "m".into(),
                paper: 1.0,
                measured: 1.01,
                band: 0.05,
            }],
            rendered: "text".into(),
            payload: Value::Object(vec![("x".into(), Value::U64(3))]),
        };
        let ctx = RunContext::new(IterBudgets::smoke()).with_sink(&dir);
        let path = ctx.persist(&record).unwrap().unwrap();
        assert!(path.ends_with("table1.json"));
        let loaded = load_records(&dir).unwrap();
        assert_eq!(loaded, vec![record]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verifier_metrics_expose_gate_counts() {
        let dir = std::env::temp_dir().join(format!(
            "mc-bench-verify-om-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Without a metrics directory the helper is a no-op.
        let ctx = RunContext::new(IterBudgets::smoke());
        let counts = mc_obs::VerifierCounts::new("flow", 42, 0, 1);
        assert_eq!(ctx.persist_verifier_metrics("flow", &counts).unwrap(), None);

        let ctx = ctx.with_metrics(&dir);
        let path = ctx
            .persist_verifier_metrics("flow", &counts)
            .unwrap()
            .unwrap();
        assert!(path.ends_with("flow.verify.om"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("verifier_flow_subjects 42"), "{text}");
        assert!(text.contains("verifier_flow_errors 0"), "{text}");
        assert!(text.contains("verifier_flow_warnings 1"), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_metrics_expose_reuse_counters() {
        let dir = std::env::temp_dir().join(format!(
            "mc-bench-pool-om-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Without a metrics directory the helper is a no-op.
        let ctx = RunContext::new(IterBudgets::smoke());
        let stats = mc_compute::PoolStats {
            hits: 96,
            misses: 4,
            recycled: 100,
            discarded: 0,
            allocated_bytes: 8192,
        };
        assert_eq!(ctx.persist_pool_metrics("perf", &stats).unwrap(), None);

        let ctx = ctx.with_metrics(&dir);
        let path = ctx.persist_pool_metrics("perf", &stats).unwrap().unwrap();
        assert!(path.ends_with("perf.pool.om"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("compute_pool_hits 96"), "{text}");
        assert!(text.contains("compute_pool_misses 4"), "{text}");
        assert!(text.contains("compute_pool_hit_rate_ratio 0.96"), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
