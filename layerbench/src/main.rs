//! `layerbench` — the repository benchmark: four workloads over the
//! public APIs of `mc-blas`, `mc-compute`, `mc-solver` and `mc-bench`,
//! timed end to end (untraced) and per layer (traced). See README.md.
//!
//! ```text
//! layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! layerbench --compare <run.json> <run.json>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod fingerprint;
mod layers;
mod measure;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::Value;

use crate::layers::Metric;
use crate::measure::{closed_loop, cold_start, Mode, Tally};
use crate::stats::{beyond, median, quantile};
use crate::trace::Tracer;

/// Seconds between set-ups in an untraced run; `setup_s` is their median.
const SETUP_EVERY_S: f64 = 2.5;
/// Where run records and traces go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

const USAGE: &str = "usage: layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       layerbench --compare <run.json> <run.json>";

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("--compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("--compare takes two run records".into()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            workloads::WORKLOADS.join(", ")
        ));
    }
    Ok(Command::Run(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// A finished run: the tally and its metrics.
struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    /// Every timed op's wall time (ms), kept in the run record.
    samples_ms: Vec<f64>,
}

/// The untraced run: set-up times, then the closed loop.
fn run_untraced(args: &RunArgs) -> Result<Outcome, String> {
    let mut w = workloads::make(&args.workload, args.seed).expect("workload name was validated");
    let mut t = Tracer::new(false);
    let mut tally = Tally::default();
    let mode = Mode::EndToEnd {
        setup_every_s: SETUP_EVERY_S,
    };
    let samples = closed_loop(&mut *w, &mut t, &mut tally, args.seconds, mode);
    let (ops, setup) = (samples.untraced, samples.setup);

    let total_s = ops.iter().sum::<f64>() / 1e3;
    let gflops = w
        .flops_per_op()
        .map(|f| format!("{:.2} GF/s", f * ops.len() as f64 / total_s / 1e9))
        .unwrap_or_else(|| "n/a (no host numerics)".into());
    let metrics = vec![
        ("op_ms_p50".to_owned(), median(&ops), "ms"),
        ("setup_s".to_owned(), median(&setup), "s"),
        ("peak_rss_mb".to_owned(), peak_rss_mb()?, "MiB"),
    ];
    println!(
        "{}: {} timed ops, op_ms_p90 {} ms ({} beyond it), gflops {gflops}, failed_ratio {} ({}/{})",
        args.workload,
        ops.len(),
        quantile(&ops, 0.9),
        beyond(&ops, 0.9),
        tally.failed_ratio(),
        tally.failed,
        tally.attempted
    );
    Ok(Outcome {
        tally,
        metrics,
        samples_ms: ops,
    })
}

/// The traced run: untraced and traced ops alternate (their medians give
/// the tracing overhead), then every layer probe; the spans are written
/// as a Chrome trace.
fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let mut w = workloads::make(&args.workload, args.seed).expect("workload name was validated");
    let mut t = Tracer::new(false);
    let mut tally = Tally::default();
    cold_start(&mut *w, &mut t, &mut tally);
    let pool0 = mc_compute::pool_stats();
    let samples = closed_loop(&mut *w, &mut t, &mut tally, args.seconds, Mode::Alternating);
    let (untraced, traced) = (samples.untraced, samples.traced);
    let pool1 = mc_compute::pool_stats();
    let pool = mc_compute::PoolStats {
        hits: pool1.hits - pool0.hits,
        misses: pool1.misses - pool0.misses,
        ..Default::default()
    };

    t.set_enabled(true);
    let mut metrics = layers::probe_all(args.seed, &mut t)?;
    metrics.push((
        "mc-compute.pool_hit_ratio".to_owned(),
        pool.hit_rate(),
        "ratio",
    ));
    metrics.push((
        "bench.trace_overhead_rel".to_owned(),
        median(&traced) / median(&untraced) - 1.0,
        "ratio",
    ));

    let path = Path::new(OUT_DIR).join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    write(&path, &mc_trace::chrome_trace_json(&t.to_events()))?;
    println!(
        "{}: {} untraced + {} traced ops, {} spans written to {}",
        args.workload,
        untraced.len(),
        traced.len(),
        t.spans().len(),
        path.display()
    );
    Ok(Outcome {
        tally,
        metrics,
        samples_ms: untraced,
    })
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn result_json(outcome: &Outcome) -> Value {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Value::Object(vec![
                    ("value".to_owned(), Value::F64(*value)),
                    ("unit".to_owned(), Value::Str((*unit).to_owned())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        (
            "correct".to_owned(),
            Value::Bool(outcome.tally.failed == 0 && outcome.tally.attempted > 0),
        ),
        ("attempted".to_owned(), Value::U64(outcome.tally.attempted)),
        ("failed".to_owned(), Value::U64(outcome.tally.failed)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ])
}

fn run(args: &RunArgs) -> Result<(), String> {
    let fp = fingerprint::fingerprint();
    println!("fingerprint {}", to_json(&fp));
    let outcome = if args.trace {
        run_traced(args)?
    } else {
        run_untraced(args)?
    };
    if let Some((name, v, _)) = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite ({v})"));
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  {name} = {value} {unit}");
    }
    let result = result_json(&outcome);
    let record = Value::Object(vec![
        ("workload".to_owned(), Value::Str(args.workload.clone())),
        ("seed".to_owned(), Value::U64(args.seed)),
        ("trace".to_owned(), Value::Bool(args.trace)),
        ("fingerprint".to_owned(), fp),
        ("result".to_owned(), result.clone()),
        (
            "samples_ms".to_owned(),
            Value::Array(outcome.samples_ms.iter().map(|&v| Value::F64(v)).collect()),
        ),
    ]);
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    write(&path, &to_json(&record))?;
    println!("{}", to_json(&result));
    Ok(())
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("values always serialize")
}

/// Compares two run records metric by metric, refusing when their
/// fingerprints differ in anything but the commit.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str::<Value>(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (ra, rb) = (load(a)?, load(b)?);
    let (fa, fb) = (
        ra.get("fingerprint").cloned().unwrap_or(Value::Null),
        rb.get("fingerprint").cloned().unwrap_or(Value::Null),
    );
    let differ = fingerprint::mismatches(&fa, &fb);
    if !differ.is_empty() {
        eprintln!(
            "refusing to compare: fingerprints differ in {}",
            differ.join(", ")
        );
        return Ok(false);
    }
    let metrics = |r: &Value| r.pointer("/result/metrics").cloned().unwrap_or(Value::Null);
    let (ma, mb) = (metrics(&ra), metrics(&rb));
    for (name, va) in ma.as_object().unwrap_or_default() {
        let x = va.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let y = mb
            .get(name)
            .and_then(|v| v.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        println!("{name:<36} {x:>14.6} {y:>14.6} {:>8.3}x", y / x);
    }
    Ok(true)
}

fn main() -> ExitCode {
    // Before any thread exists: default routes, and one pool of nproc.
    fingerprint::clear_routing_env();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::ThreadPoolBuilder::new()
        .num_threads(nproc)
        .build_global()
        .expect("the pool is sized once, before any parallel work");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        Command::Run(args) => run(&args).map(|()| true),
        Command::Compare(a, b) => compare(&a, &b),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
