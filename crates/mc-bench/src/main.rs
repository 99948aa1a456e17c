//! `experiments` — regenerates the paper's tables and figures.
//!
//! ```text
//! experiments <artifact|all> [--json DIR] [--trace DIR] [--metrics DIR]
//!             [--paper-iters] [--jobs N]
//!   artifact: any id from the experiment registry (table1 … report)
//!   all         run every registered experiment once: the simulated
//!               ones in parallel, then the host-timed `perf` and
//!               `hostprof` studies alone, one after the other, at their
//!               smoke dimension (invoke `experiments perf` or
//!               `experiments hostprof` directly for the full 1024³
//!               measurements)
//!   --json DIR  also write each result as a schema-versioned JSON
//!               envelope into DIR (one file per experiment); with span
//!               capture on (`--trace`/`--metrics`) the per-kernel
//!               attribution ledger lands next to each envelope as
//!               DIR/<artifact>.attribution.jsonl
//!   --trace DIR also capture each experiment's execution timeline and
//!               write it as Chrome trace-event JSON (Perfetto-loadable)
//!               to DIR/<artifact>.trace.json
//!   --metrics DIR  also export each experiment's attribution aggregates
//!               as OpenMetrics text exposition to DIR/<artifact>.om
//!               (activates span capture like --trace)
//!   --paper-iters  full 40 M / 10⁷ / 110 s-sampling budgets instead of
//!                  the reduced defaults (results are iteration-exact on
//!                  the simulator)
//!   --jobs N    cap parallelism: at most N experiments run at once
//!               under `all`, and the shared rayon pool that intra-
//!               experiment sweeps draw from is sized to N workers
//!               (default: one thread per experiment, rayon sized to
//!               the machine)
//! ```
//!
//! The artifact list and usage text are generated from
//! [`mc_bench::experiment::registry`], so a newly registered experiment
//! shows up everywhere without touching this driver.

use std::process::exit;

use mc_bench::experiment::{registry, Experiment, ExperimentRecord, IterBudgets, RunContext};
use mc_bench::report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artifact = None;
    let mut json_dir: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut metrics_dir: Option<String> = None;
    let mut paper_iters = false;
    let mut jobs: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                json_dir = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--json needs a directory"))
                        .clone(),
                );
            }
            "--trace" => {
                trace_dir = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--trace needs a directory"))
                        .clone(),
                );
            }
            "--metrics" => {
                metrics_dir = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--metrics needs a directory"))
                        .clone(),
                );
            }
            "--paper-iters" => paper_iters = true,
            "--jobs" => {
                let n = it
                    .next()
                    .unwrap_or_else(|| usage("--jobs needs a positive thread count"))
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--jobs needs a positive thread count"));
                jobs = Some(n);
            }
            name if artifact.is_none() => artifact = Some(name.to_owned()),
            other => usage(&format!("unexpected argument `{other}`")),
        }
    }
    let artifact = artifact.unwrap_or_else(|| usage("missing artifact name"));

    if let Some(n) = jobs {
        // One global pool: experiment worker threads and intra-
        // experiment sweeps share the same N-worker rayon budget, so
        // total concurrency tracks --jobs instead of multiplying by it.
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configure global rayon pool");
    }

    let mut ctx = RunContext::new(IterBudgets::for_flag(paper_iters));
    if let Some(dir) = &json_dir {
        ctx = ctx.with_sink(dir);
    }
    if let Some(dir) = &trace_dir {
        ctx = ctx.with_trace(dir);
    }
    if let Some(dir) = &metrics_dir {
        ctx = ctx.with_metrics(dir);
    }

    let experiments = registry();
    if artifact == "all" {
        run_all(&experiments, &ctx, jobs);
    } else {
        let Some(exp) = experiments.iter().find(|e| e.id() == artifact) else {
            usage(&format!("unknown artifact `{artifact}`"))
        };
        let record = exp.run(&ctx);
        println!("{}", record.rendered);
        persist(&ctx, &record);
        fail_on_gate_errors(&record);
    }
}

/// Gate artifacts fail the driver: any error-severity lint diagnostic,
/// any trace-timeline violation, any counter cross-check mismatch, or
/// any perf-diff regression against the committed baselines (or an
/// unreadable count, which means the wiring broke) exits non-zero so
/// CI fails.
fn fail_on_gate_errors(record: &ExperimentRecord) {
    let gates: &[(&str, &str)] = match record.experiment.as_str() {
        "lint" => &[("/total_errors", "error diagnostic(s)")],
        "regress" => &[("/regressions", "regression(s) against the baseline")],
        "trace" => &[
            ("/total_violations", "timeline violation(s)"),
            (
                "/total_counter_mismatches",
                "counter cross-check mismatch(es)",
            ),
        ],
        "insight" => &[
            ("/unclassified", "unclassified kernel launch(es)"),
            ("/regime_inconsistent", "regime-inconsistent verdict(s)"),
            (
                "/drift_out_of_band",
                "model-drift observation(s) outside the calibrated band",
            ),
        ],
        "hostprof" => &[
            (
                "/overhead_exceeded",
                "traced run(s) over the host-tracing overhead budget",
            ),
            (
                "/bitwise_mismatches",
                "traced-vs-untraced bitwise mismatch(es)",
            ),
            ("/total_violations", "unified-timeline violation(s)"),
            (
                "/reconcile_failures",
                "region(s) whose phase times fail to reconcile to wall time",
            ),
            (
                "/unified_missing",
                "timeline plane(s) missing from the unified trace",
            ),
        ],
        _ => return,
    };
    for (pointer, what) in gates {
        let count = record
            .payload
            .pointer(pointer)
            .and_then(serde::Value::as_f64);
        if count != Some(0.0) {
            eprintln!(
                "error: {} sweep found {} {what}",
                record.experiment,
                count.map_or("an unreadable count of".to_owned(), |e| format!("{e}"))
            );
            exit(1);
        }
    }
}

/// Runs every registered experiment exactly once: the simulated ones in
/// parallel on worker threads (at most `--jobs N` at a time), then the
/// host-timed `perf` and `hostprof` one after the other, alone, then
/// `report` from their in-memory records. Output is printed in registry
/// order regardless of which thread finishes first.
///
/// The timed pair runs after the batch because the batch's sweeps lease
/// rayon workers: run beside them, `perf` would time its thread axis on
/// whatever workers were left, and `hostprof` would measure at whatever
/// pool size `perf` last set. They also run at their smoke dimension
/// here: their wall times at the full 1024³ GEMM would dominate the
/// whole suite's wall-clock (the simulator experiments are analytic and
/// finish in milliseconds). The full measurements are one `experiments
/// perf` / `experiments hostprof` away, and each record's `config`
/// field reflects the budgets it ran under.
fn run_all(experiments: &[Box<dyn Experiment>], ctx: &RunContext, jobs: Option<usize>) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let runnable: Vec<&dyn Experiment> = experiments
        .iter()
        .map(|e| e.as_ref())
        .filter(|e| e.id() != "report")
        .collect();
    let timed = |e: &dyn Experiment| matches!(e.id(), "perf" | "hostprof");
    let batch: Vec<usize> = (0..runnable.len())
        .filter(|&i| !timed(runnable[i]))
        .collect();
    let workers = jobs.unwrap_or(batch.len()).clamp(1, batch.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ExperimentRecord>>> =
        runnable.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some(&i) = batch.get(next.fetch_add(1, Ordering::Relaxed)) {
                    *slots[i].lock().expect("slot lock") = Some(runnable[i].run(ctx));
                }
            });
        }
    });
    let smoke_ctx = RunContext {
        budgets: IterBudgets::smoke(),
        ..ctx.clone()
    };
    for (slot, exp) in slots.iter().zip(&runnable) {
        if timed(*exp) {
            *slot.lock().expect("slot lock") = Some(exp.run(&smoke_ctx));
        }
    }
    let records: Vec<ExperimentRecord> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every experiment ran")
        })
        .collect();

    for record in &records {
        println!("{}", record.rendered);
        persist(ctx, record);
        fail_on_gate_errors(record);
    }

    // `report` aggregates the records just produced — no re-running.
    if let Some(report_exp) = experiments.iter().find(|e| e.id() == "report") {
        let paper_report = report::from_records(&records);
        let rendered = format!(
            "{}{}(from this run's {} records)\n",
            report::render(&paper_report),
            report::render_insight_lines(&records),
            records.len()
        );
        let record = ExperimentRecord {
            schema_version: mc_bench::experiment::SCHEMA_VERSION,
            experiment: report_exp.id().to_owned(),
            title: report_exp.title().to_owned(),
            device: report_exp.device().to_owned(),
            config: ctx.budgets,
            wall_time_s: records.iter().map(|r| r.wall_time_s).sum(),
            checks: Vec::new(),
            rendered,
            payload: serde_json::to_value(&paper_report),
        };
        println!("{}", record.rendered);
        persist(ctx, &record);
    }
}

fn persist(ctx: &RunContext, record: &ExperimentRecord) {
    match ctx.persist(record) {
        Ok(Some(path)) => eprintln!("wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => {
            eprintln!(
                "error: could not write record for `{}`: {e}",
                record.experiment
            );
            exit(1);
        }
    }
}

fn usage(msg: &str) -> ! {
    let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments <{}|all> [--json DIR] [--trace DIR] [--metrics DIR] [--paper-iters] [--jobs N]",
        ids.join("|")
    );
    exit(2)
}
