//! Gate — the `perf-diff` regression detector over committed baselines.
//!
//! Compares the current run's record envelopes (the `--json` sink) and
//! the `BENCH_hotpaths.json` timing artifact against a committed
//! baseline directory, using [`mc_obs::diff`]. The baseline defaults to
//! `results/` and is overridden with the `MC_REGRESS_BASELINE`
//! environment variable, so CI can snapshot the committed envelopes
//! before regenerating them and then gate the fresh run against the
//! snapshot.
//!
//! Tolerance policy (see `docs/OBSERVABILITY.md`):
//!
//! - Simulator fidelity metrics (every recorded [`Check`] measurement)
//!   are deterministic, so they diff symmetrically at
//!   [`mc_obs::DEFAULT_TOLERANCE_REL`] — any visible drift means
//!   behaviour changed and the baseline must be re-committed on purpose.
//! - Power-plane metrics inherit [`mc_obs::power_noise_tolerance`],
//!   derived from the pinned SMI noise model at the registry's
//!   `telemetry_noise` amplitude over the sampler's minimum sample
//!   count.
//! - `BENCH_hotpaths.json` host wall times diff lower-is-better at a
//!   100% tolerance plus a [`BENCH_NOISE_FLOOR_S`] absolute slack:
//!   only a slowdown that is both >2× and more than a quarter second
//!   gates, so millisecond-scale smoke cells measured under full-suite
//!   contention cannot gate on scheduler noise. Entries are keyed
//!   `bench/<id>/n<N>/t<T>`, so cells only pair when problem dimension
//!   and thread count both match; cells present on one side only are
//!   reported as added/removed, never gated. The file is the one host
//!   timing artifact: `perf`'s size axis is also the crossover
//!   calibration sweep. A file present on one side only is a skip, but
//!   one that exists and does not parse as the current schema (another
//!   `schema_version`, a missing column, a truncated write) counts as a
//!   regression, and the render names it: a stale baseline must be
//!   regenerated, not silently passed over.
//!
//! Pairs whose [`IterBudgets`](crate::experiment::IterBudgets) differ
//! between baseline and current are
//! skipped: a budget change legitimately moves measured values.
//!
//! Under `experiments all` this experiment runs concurrently with the
//! others, *before* their fresh envelopes are persisted, so it compares
//! the sink directory against itself (vacuously stable). The gating
//! invocation is a standalone `experiments regress --json DIR` after a
//! suite run, which is how CI wires it.

use std::path::{Path, PathBuf};

use mc_obs::{diff, power_noise_tolerance, DiffReport, Direction, Sample, DEFAULT_TOLERANCE_REL};
use mc_sim::DeviceId;
use serde::{Deserialize, Serialize};

use crate::experiment::{load_records, Check, ExperimentRecord, RunContext};
use crate::perf::{BenchFile, BENCH_FILE, BENCH_SCHEMA_VERSION};

/// Environment variable naming the baseline directory (default:
/// `results/`).
pub const BASELINE_ENV: &str = "MC_REGRESS_BASELINE";

/// Host wall times vary machine to machine: only a >2x slowdown on the
/// same dimensions and thread count gates.
pub const BENCH_TOLERANCE_REL: f64 = 1.0;

/// Absolute slack added to the bench tolerance: a slowdown only gates
/// when it also exceeds this many seconds of wall time. Under
/// `experiments all` the smoke-tier perf cells are measured while the
/// whole suite contends for the runner's cores, so a ~20 ms quiet
/// baseline cell can read 3–4× slower from scheduler wake-ups alone;
/// a purely relative band would gate on that noise. Catastrophic
/// kernel regressions at the dimensions that matter move wall times
/// by whole multiples of a quarter second and still gate.
pub const BENCH_NOISE_FLOOR_S: f64 = 0.25;

/// The regress experiment payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Regress {
    /// Baseline directory the run compared against.
    pub baseline_dir: String,
    /// Current-run directory (the `--json` sink).
    pub current_dir: String,
    /// Relative tolerance applied to power-plane metrics.
    pub power_tolerance_rel: f64,
    /// Keys compared (including added/removed).
    pub compared: usize,
    /// Regressed keys plus unreadable artifacts — the gate count.
    pub regressions: usize,
    /// Improved keys (lower-is-better metrics only).
    pub improved: usize,
    /// Experiments skipped with the reason (budget mismatch, or an
    /// artifact present on one side only).
    pub skipped: Vec<String>,
    /// Artifacts that exist but do not parse as the current schema,
    /// each with the reason; every one counts in `regressions`.
    pub unreadable: Vec<String>,
    /// The full diff.
    pub report: DiffReport,
}

fn baseline_dir() -> PathBuf {
    std::env::var(BASELINE_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Whether a recorded check metric belongs to the noisy power plane.
fn is_power_metric(experiment: &str, metric: &str) -> bool {
    experiment == "fig5"
        || metric.contains("(W)")
        || metric.contains("GFLOPS/W")
        || metric.contains("power")
}

/// Flattens record envelopes into diff samples: one per evaluated
/// check, keyed by the check's stable metric label. Pairs whose
/// iteration budgets differ are dropped into `skipped` instead.
fn record_samples(
    baseline: &[ExperimentRecord],
    current: &[ExperimentRecord],
    power_tol: f64,
    skipped: &mut Vec<String>,
) -> (Vec<Sample>, Vec<Sample>) {
    let comparable = |r: &&ExperimentRecord| {
        let Some(other) = baseline.iter().find(|b| b.experiment == r.experiment) else {
            return true; // new experiment: surfaces as Added
        };
        if other.config == r.config {
            return true;
        }
        skipped.push(format!(
            "{}: iteration budgets differ between baseline and current",
            r.experiment
        ));
        false
    };
    let flatten = |records: &[ExperimentRecord], keep: &[String]| {
        records
            .iter()
            .filter(|r| keep.contains(&r.experiment))
            .flat_map(|r| {
                let id = r.experiment.clone();
                r.checks
                    .iter()
                    .map(move |c| Sample {
                        key: c.metric.clone(),
                        value: c.measured,
                        direction: Direction::Symmetric,
                        tolerance_rel: if is_power_metric(&id, &c.metric) {
                            power_tol
                        } else {
                            DEFAULT_TOLERANCE_REL
                        },
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    let keep: Vec<String> = current
        .iter()
        .filter(comparable)
        .map(|r| r.experiment.clone())
        .collect();
    (flatten(baseline, &keep), flatten(current, &keep))
}

/// Flattens a `BENCH_hotpaths.json` pair into lower-is-better samples
/// keyed `bench/<id>/n<N>/t<T>`. The key carries the problem dimension
/// and thread count, so cells only pair when both match; anything else
/// surfaces as added/removed (reported, never gated).
fn bench_samples(b: &BenchFile, c: &BenchFile) -> (Vec<Sample>, Vec<Sample>) {
    let key_of = |e: &crate::perf::BenchEntry| format!("bench/{}/n{}/t{}", e.id, e.n, e.threads);
    let base_wall: std::collections::HashMap<String, f64> =
        b.entries.iter().map(|e| (key_of(e), e.wall_s)).collect();
    let flatten = |f: &BenchFile, widen: bool| {
        f.entries
            .iter()
            .map(|e| {
                let key = key_of(e);
                // The current side's tolerance governs the diff, so the
                // absolute noise floor is folded into it relative to the
                // paired baseline wall time (change_rel is baseline-
                // relative): gate only past 2x AND the floor.
                let tolerance_rel = if widen {
                    match base_wall.get(&key) {
                        Some(&w) if w > 0.0 => BENCH_TOLERANCE_REL.max(BENCH_NOISE_FLOOR_S / w),
                        _ => BENCH_TOLERANCE_REL,
                    }
                } else {
                    BENCH_TOLERANCE_REL
                };
                Sample {
                    key,
                    value: e.wall_s,
                    direction: Direction::LowerIsBetter,
                    tolerance_rel,
                }
            })
            .collect::<Vec<_>>()
    };
    (flatten(b, false), flatten(c, true))
}

/// Reads and validates a timing artifact: `Ok(None)` when `dir` has
/// none, an error naming the file when it exists but carries another
/// `schema_version` or does not parse as the current layout.
fn load_bench(dir: &Path) -> Result<Option<BenchFile>, String> {
    let path = dir.join(BENCH_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let value: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let version = value
        .pointer("/schema_version")
        .and_then(serde::Value::as_f64);
    if version != Some(f64::from(BENCH_SCHEMA_VERSION)) {
        return Err(format!(
            "{}: schema_version {} (this build reads {BENCH_SCHEMA_VERSION})",
            path.display(),
            version.map_or("missing".to_owned(), |v| v.to_string())
        ));
    }
    serde_json::from_value(value)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the comparison between a baseline directory and the current
/// run's sink directory.
pub fn run(ctx: &RunContext) -> Result<Regress, String> {
    let baseline = baseline_dir();
    let current = ctx
        .json_sink
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"));
    let baseline_records = load_records(&baseline)?;
    let current_records = load_records(&current)?;

    let power_tol = power_noise_tolerance(
        ctx.devices.config(DeviceId::Mi250x).telemetry_noise,
        ctx.sampler.min_samples,
    );
    let mut skipped = Vec::new();
    let (mut base_samples, mut cur_samples) =
        record_samples(&baseline_records, &current_records, power_tol, &mut skipped);
    let mut unreadable = Vec::new();
    let [bench_base, bench_cur] = [&baseline, &current].map(|dir| {
        load_bench(dir).unwrap_or_else(|e| {
            unreadable.push(e);
            None
        })
    });
    match (bench_base, bench_cur) {
        (Some(b), Some(c)) => {
            let (bench_base, bench_cur) = bench_samples(&b, &c);
            base_samples.extend(bench_base);
            cur_samples.extend(bench_cur);
        }
        (Some(_), None) | (None, Some(_)) if unreadable.is_empty() => {
            skipped.push(format!("{BENCH_FILE}: present on only one side"));
        }
        _ => {}
    }

    let report = diff(&base_samples, &cur_samples);
    Ok(Regress {
        baseline_dir: baseline.display().to_string(),
        current_dir: current.display().to_string(),
        power_tolerance_rel: power_tol,
        compared: report.entries.len(),
        regressions: report.regressions() + unreadable.len(),
        improved: report.improved(),
        skipped,
        unreadable,
        report,
    })
}

/// Renders the comparison as text.
pub fn render(r: &Regress) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("Regress: perf-diff against committed baselines\n");
    let _ = writeln!(
        s,
        "baseline {} vs current {} (power tolerance {:.3}%)",
        r.baseline_dir,
        r.current_dir,
        r.power_tolerance_rel * 100.0
    );
    for reason in &r.skipped {
        let _ = writeln!(s, "skipped {reason}");
    }
    for reason in &r.unreadable {
        let _ = writeln!(s, "unreadable {reason}");
    }
    s.push_str(&r.report.render());
    let verdict = match (r.regressions, r.unreadable.len()) {
        (0, _) => "gate: PASS".to_owned(),
        (n, 0) => format!("gate: FAIL ({n} regression(s))"),
        (n, u) => format!("gate: FAIL ({n} regression(s), {u} of them unreadable artifact(s))"),
    };
    let _ = writeln!(s, "{verdict}");
    s
}

/// The regression gate as a registered experiment.
pub struct RegressExperiment;

impl crate::experiment::Experiment for RegressExperiment {
    fn id(&self) -> &'static str {
        "regress"
    }

    fn title(&self) -> &'static str {
        "Gate — perf-diff of run envelopes against committed baselines"
    }

    fn device(&self) -> &'static str {
        "host"
    }

    fn checks(&self) -> Vec<Check> {
        vec![Check::new("regress/regressions", 0.0, 0.0, "/regressions")]
    }

    fn execute(&self, ctx: &RunContext) -> (serde::Value, String) {
        match run(ctx) {
            Ok(r) => (serde_json::to_value(&r), render(&r)),
            Err(e) => {
                // An unreadable baseline is itself a gate failure: the
                // payload carries a sentinel regression count so the
                // driver exits non-zero.
                let msg = format!("Regress: could not load envelopes: {e}\n");
                let payload = serde::Value::Object(vec![
                    ("error".to_owned(), serde::Value::Str(e)),
                    ("regressions".to_owned(), serde::Value::U64(1)),
                ]);
                (payload, msg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, IterBudgets};
    use crate::perf::BenchEntry;

    /// Serializes tests that mutate the process-global `MC_REGRESS_BASELINE`.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    struct EnvGuard {
        old: Option<String>,
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    impl EnvGuard {
        fn set(dir: &std::path::Path) -> Self {
            let lock = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let old = std::env::var(BASELINE_ENV).ok();
            std::env::set_var(BASELINE_ENV, dir);
            EnvGuard { old, _lock: lock }
        }
    }

    impl Drop for EnvGuard {
        fn drop(&mut self) {
            match &self.old {
                Some(v) => std::env::set_var(BASELINE_ENV, v),
                None => std::env::remove_var(BASELINE_ENV),
            }
        }
    }

    fn record(id: &str, metric: &str, measured: f64) -> ExperimentRecord {
        ExperimentRecord {
            schema_version: crate::experiment::SCHEMA_VERSION,
            experiment: id.to_owned(),
            title: id.to_owned(),
            device: "mi250x".to_owned(),
            config: IterBudgets::smoke(),
            wall_time_s: 0.1,
            checks: vec![crate::experiment::Comparison {
                metric: metric.to_owned(),
                paper: measured,
                measured,
                band: 0.05,
            }],
            rendered: String::new(),
            payload: serde::Value::Object(Vec::new()),
        }
    }

    fn write_dir(name: &str, records: &[ExperimentRecord], bench: Option<&BenchFile>) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mc-bench-regress-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for r in records {
            let json = serde_json::to_string_pretty(r).unwrap();
            std::fs::write(dir.join(format!("{}.json", r.experiment)), json).unwrap();
        }
        if let Some(b) = bench {
            let json = serde_json::to_string_pretty(b).unwrap();
            std::fs::write(dir.join(BENCH_FILE), json).unwrap();
        }
        dir
    }

    fn bench(threads: usize, wall_s: f64) -> BenchFile {
        BenchFile {
            schema_version: BENCH_SCHEMA_VERSION,
            entries: vec![BenchEntry {
                id: "sgemm_blocked".to_owned(),
                n: 1024,
                threads,
                wall_s,
                gflops: 2.0 * 1024f64.powi(3) / wall_s / 1e9,
                backend: "blocked".to_owned(),
            }],
        }
    }

    #[test]
    fn injected_throughput_regression_fails_the_gate() {
        let good = record("fig3", "fig3/mixed plateau (TFLOPS)", 175.0);
        let mut bad = good.clone();
        bad.checks[0].measured *= 0.9; // synthetic 10% throughput loss
        let base = write_dir("inject-base", &[good], None);
        let cur = write_dir("inject-cur", &[bad], None);
        let _guard = EnvGuard::set(&base);

        let ctx = RunContext::new(IterBudgets::smoke()).with_sink(&cur);
        let rec = RegressExperiment.run(&ctx);
        let r: Regress = serde_json::from_value(rec.payload.clone()).unwrap();
        assert_eq!(r.regressions, 1);
        assert!(rec.checks.iter().any(|c| !c.pass()), "gate check must fail");
        assert!(rec.rendered.contains("gate: FAIL"));

        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
    }

    #[test]
    fn identical_directories_pass_the_gate() {
        let records = [
            record("fig3", "fig3/mixed plateau (TFLOPS)", 175.0),
            record("fig5", "fig5/peak power (W)", 520.0),
        ];
        let dir = write_dir("identical", &records, Some(&bench(8, 0.1)));
        let _guard = EnvGuard::set(&dir);

        let ctx = RunContext::new(IterBudgets::smoke()).with_sink(&dir);
        let rec = RegressExperiment.run(&ctx);
        let r: Regress = serde_json::from_value(rec.payload.clone()).unwrap();
        assert_eq!(r.regressions, 0, "{}", rec.rendered);
        assert!(rec.checks.iter().all(|c| c.pass()));
        assert!(rec.rendered.contains("gate: PASS"));
        assert!(r.compared >= 3);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn power_metrics_absorb_noise_band_drift() {
        let base = write_dir(
            "power-base",
            &[record("fig5", "fig5/peak power (W)", 520.0)],
            None,
        );
        // 0.05% drift: far under the SMI 3-sigma band, over the
        // deterministic default.
        let cur = write_dir(
            "power-cur",
            &[record("fig5", "fig5/peak power (W)", 520.26)],
            None,
        );
        let _guard = EnvGuard::set(&base);
        let ctx = RunContext::new(IterBudgets::smoke()).with_sink(&cur);
        let r = run(&ctx).unwrap();
        assert_eq!(r.regressions, 0, "{}", render(&r));
        assert!(r.power_tolerance_rel > DEFAULT_TOLERANCE_REL);

        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
    }

    #[test]
    fn budget_mismatch_skips_instead_of_comparing() {
        let base_rec = record("fig3", "fig3/mixed plateau (TFLOPS)", 175.0);
        let mut cur_rec = base_rec.clone();
        cur_rec.config = IterBudgets::paper();
        cur_rec.checks[0].measured = 10.0; // wildly different, but incomparable
        let base = write_dir("budget-base", &[base_rec], None);
        let cur = write_dir("budget-cur", &[cur_rec], None);
        let _guard = EnvGuard::set(&base);
        let ctx = RunContext::new(IterBudgets::smoke()).with_sink(&cur);
        let r = run(&ctx).unwrap();
        assert_eq!(r.regressions, 0);
        assert_eq!(r.skipped.len(), 1);
        assert!(r.skipped[0].contains("budgets differ"));

        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
    }

    #[test]
    fn bench_slowdown_gates_but_thread_mismatch_never_pairs() {
        let rec = record("fig3", "fig3/mixed plateau (TFLOPS)", 175.0);
        let base = write_dir(
            "bench-base",
            std::slice::from_ref(&rec),
            Some(&bench(8, 0.5)),
        );
        let cur = write_dir(
            "bench-cur",
            std::slice::from_ref(&rec),
            Some(&bench(8, 1.5)),
        );
        let _guard = EnvGuard::set(&base);
        let ctx = RunContext::new(IterBudgets::smoke()).with_sink(&cur);
        let r = run(&ctx).unwrap();
        assert_eq!(r.regressions, 1, "3x slower must gate: {}", render(&r));
        drop(_guard);

        // A cell measured at a different thread count carries a
        // different key: it shows up added/removed, never compared.
        let cur2 = write_dir("bench-cur2", &[rec], Some(&bench(4, 1.5)));
        let _guard = EnvGuard::set(&base);
        let ctx = RunContext::new(IterBudgets::smoke()).with_sink(&cur2);
        let r = run(&ctx).unwrap();
        assert_eq!(r.regressions, 0, "{}", render(&r));
        assert!(r
            .report
            .entries
            .iter()
            .any(|e| e.key == "bench/sgemm_blocked/n1024/t4"));

        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
        let _ = std::fs::remove_dir_all(&cur2);
    }

    /// Runs the gate against a baseline whose `BENCH_hotpaths.json`
    /// holds `text`, the current side a valid file, and asserts the
    /// gate fails on that one unreadable baseline, naming it.
    fn assert_unreadable_baseline_fails(name: &str, text: &str, reason: &str) {
        let rec = record("fig3", "fig3/mixed plateau (TFLOPS)", 175.0);
        let base = write_dir(name, std::slice::from_ref(&rec), None);
        std::fs::write(base.join(BENCH_FILE), text).unwrap();
        let cur = write_dir(&format!("{name}-cur"), &[rec], Some(&bench(1, 0.07)));
        let _guard = EnvGuard::set(&base);
        let ctx = RunContext::new(IterBudgets::smoke()).with_sink(&cur);
        let rec = RegressExperiment.run(&ctx);
        let r: Regress = serde_json::from_value(rec.payload.clone()).unwrap();
        assert_eq!(r.regressions, 1, "{}", rec.rendered);
        assert_eq!(r.unreadable.len(), 1, "{}", rec.rendered);
        assert!(r.unreadable[0].contains(BENCH_FILE) && r.unreadable[0].contains(reason));
        assert!(r.skipped.is_empty(), "{}", rec.rendered);
        assert!(rec.checks.iter().any(|c| !c.pass()), "gate check must fail");
        assert!(
            rec.rendered.contains("unreadable ")
                && rec
                    .rendered
                    .contains(&format!("{}", base.join(BENCH_FILE).display()))
                && rec.rendered.contains("gate: FAIL"),
            "{}",
            rec.rendered
        );

        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
    }

    #[test]
    fn old_schema_bench_baseline_fails_the_gate() {
        // A v1-layout artifact (header-level thread count, no per-entry
        // threads) is stale: it fails the gate instead of being skipped.
        let v1 = r#"{
  "schema_version": 1,
  "threads": 1,
  "entries": [ { "id": "sgemm_blocked", "n": 256, "wall_s": 0.08 } ]
}"#;
        assert_unreadable_baseline_fails("schema-base", v1, "schema_version 1");
    }

    #[test]
    fn unparseable_bench_baseline_fails_the_gate() {
        let valid = serde_json::to_string_pretty(&bench(1, 0.07)).unwrap();
        assert_unreadable_baseline_fails("cut-base", &valid[..valid.len() / 2], BENCH_FILE);
        // The current version stamp with a column missing.
        let missing = valid.replace("\"backend\": \"blocked\"", "\"unused\": 0");
        assert_unreadable_baseline_fails("column-base", &missing, "backend");
    }

    #[test]
    fn one_sided_bench_file_is_a_skip() {
        let rec = record("fig3", "fig3/mixed plateau (TFLOPS)", 175.0);
        let base = write_dir("one-side-base", std::slice::from_ref(&rec), None);
        let cur = write_dir("one-side-cur", &[rec], Some(&bench(1, 0.07)));
        let _guard = EnvGuard::set(&base);
        let ctx = RunContext::new(IterBudgets::smoke()).with_sink(&cur);
        let r = run(&ctx).unwrap();
        assert_eq!(r.regressions, 0, "{}", render(&r));
        assert!(r.unreadable.is_empty());
        assert!(r
            .skipped
            .iter()
            .any(|s| s.contains(BENCH_FILE) && s.contains("only one side")));

        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
    }

    #[test]
    fn millisecond_bench_noise_stays_under_the_absolute_floor() {
        // A 4x blowup on a 20 ms cell is scheduler noise under
        // full-suite contention, not a kernel regression: the absolute
        // floor keeps it from gating. The same 4x on a half-second
        // cell clears the floor and gates.
        let rec = record("fig3", "fig3/mixed plateau (TFLOPS)", 175.0);
        let base = write_dir(
            "floor-base",
            std::slice::from_ref(&rec),
            Some(&bench(1, 0.02)),
        );
        let cur = write_dir(
            "floor-cur",
            std::slice::from_ref(&rec),
            Some(&bench(1, 0.08)),
        );
        let _guard = EnvGuard::set(&base);
        let ctx = RunContext::new(IterBudgets::smoke()).with_sink(&cur);
        let r = run(&ctx).unwrap();
        assert_eq!(r.regressions, 0, "{}", render(&r));
        drop(_guard);

        let base2 = write_dir(
            "floor-base2",
            std::slice::from_ref(&rec),
            Some(&bench(1, 0.5)),
        );
        let cur2 = write_dir("floor-cur2", &[rec], Some(&bench(1, 2.0)));
        let _guard = EnvGuard::set(&base2);
        let ctx = RunContext::new(IterBudgets::smoke()).with_sink(&cur2);
        let r = run(&ctx).unwrap();
        assert_eq!(r.regressions, 1, "4x on 0.5 s must gate: {}", render(&r));

        for d in [&base, &cur, &base2, &cur2] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn v2_schema_bench_baseline_fails_the_gate() {
        // A v2-layout artifact (per-entry threads, but no gflops or
        // backend columns) is stale: it fails the gate.
        let v2 = r#"{
  "schema_version": 2,
  "entries": [ { "id": "sgemm_blocked", "n": 1024, "threads": 1, "wall_s": 0.58 } ]
}"#;
        assert_unreadable_baseline_fails("schema2-base", v2, "schema_version 2");
    }

    /// Writes `bytes` as `BENCH_hotpaths.json` in a scratch directory
    /// and loads it: `Ok(true)` when it loads, `Err` when the loader
    /// refuses it. A panic fails the test.
    fn load_written(test: &str, bytes: &[u8]) -> Result<bool, String> {
        let dir = std::env::temp_dir().join(format!(
            "mc-bench-regress-fuzz-{test}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(BENCH_FILE), bytes).unwrap();
        let loaded = load_bench(&dir).map(|f| f.is_some());
        let _ = std::fs::remove_dir_all(&dir);
        loaded
    }

    /// JSON tokens the fuzzers string together, space-separated.
    const TOKENS: &str =
        r#"{ } [ ] " : , "schema_version" "entries" "wall_s" 3 -1e999 null \u12 é"#;

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn loader_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
            picks in prop::collection::vec(any::<usize>(), 0..96)
        ) {
            let _ = load_written("bytes", &bytes);
            let tokens: Vec<&str> = TOKENS.split(' ').collect();
            let text: String = picks.iter().map(|&t| tokens[t % tokens.len()]).collect();
            let _ = load_written("tokens", text.as_bytes());
        }

        #[test]
        fn loader_refuses_every_truncated_artifact(cut in 0.0f64..1.0) {
            let json = serde_json::to_string_pretty(&bench(2, 0.5)).unwrap();
            let mut at = (json.len() as f64 * cut) as usize;
            while !json.is_char_boundary(at) {
                at -= 1;
            }
            prop_assert!(load_written("truncated", &json.as_bytes()[..at]).is_err(), "cut at byte {at} loaded");
        }

        #[test]
        fn loader_refuses_deeply_nested_json(depth in 1usize..20_000, object in any::<bool>()) {
            let (open, close) = if object { ("{\"a\":", "}") } else { ("[", "]") };
            let nested = format!("{}0{}", open.repeat(depth), close.repeat(depth));
            prop_assert!(load_written("nested", nested.as_bytes()).is_err());
            // Nested inside an otherwise valid artifact's list field.
            let inside = format!(
                "{{\"schema_version\": {BENCH_SCHEMA_VERSION}, \"entries\": {nested}}}"
            );
            prop_assert!(load_written("nested-field", inside.as_bytes()).is_err());
        }

        #[test]
        fn loader_refuses_a_wrong_schema_version(version in any::<u32>()) {
            prop_assume!(version != BENCH_SCHEMA_VERSION);
            let json = serde_json::to_string_pretty(&bench(2, 0.5)).unwrap();
            let stamp = format!("\"schema_version\": {BENCH_SCHEMA_VERSION}");
            prop_assert!(json.contains(&stamp));
            prop_assert_eq!(load_written("version", json.as_bytes()), Ok(true));
            let other = json.replace(&stamp, &format!("\"schema_version\": {version}"));
            let refused = load_written("version", other.as_bytes());
            prop_assert!(
                refused.as_ref().is_err_and(|e| e.contains(&format!("schema_version {version}"))),
                "version {} gave {:?}", version, refused
            );
        }
    }
}
