//! Hot-path performance experiment: the kernel-tier ladder across a
//! (size × threads) matrix, plus solver-layer wall times.
//!
//! Every figure in the suite funnels its host GEMM work through
//! [`mc_blas::select::host_gemm_backend`] — the [`mc_compute::Auto`]
//! dispatch over the naive → blocked → blocked+SIMD ladder. This
//! experiment measures what each rung buys: for each cell of a
//! problem-size × thread-count matrix it times the scalar blocked
//! kernel, the explicit-SIMD microkernel (when the vector unit
//! supports it), and the routed dispatch, confirms every path agrees
//! bitwise with the retained naive reference (the optimization
//! contract: same rounding chain, different loop order), and records
//! the host wall time of the blocked LU/Cholesky numerics next to the
//! simulated device throughput of the same factorization schedule.
//! Alongside the usual envelope it writes a machine-readable
//! `BENCH_hotpaths.json` to the `--json` sink so CI can archive and
//! perf-diff timings cell by cell.
//!
//! Because the dispatch routes sub-crossover problems back to the
//! naive loop and super-crossover ones to the fastest supported tier,
//! the routed side can tie but never structurally lose to any single
//! tier — the regression the v1 artifact exposed (`sgemm_blocked`
//! behind `sgemm_naive` at N = 256 on one thread) stays closed by
//! policy, and the v3 matrix additionally pins the ladder order: the
//! tier the dispatch picks must not lose to any tier below it.
//!
//! The naive reference is O(N³) with a strided `B` walk and no
//! parallelism; at N = 2048 it needs minutes while the microkernel
//! needs half a second. It is therefore only timed up to
//! [`NAIVE_CAP_N`] — and only once per size, on the single-thread
//! pass, since it never touches the pool — and larger cells report
//! their throughput as GFLOP/s instead of a speedup-over-naive.
//!
//! The size axis ([`problem_sizes`]) is also the crossover calibration
//! sweep: from N = 32, where the naive loop still wins, through the
//! sizes where the packed tiers take over, to 2048 (just {256} under
//! smoke budgets). It collapses to a single dimension with the
//! `MC_PERF_N` environment variable; the thread axis is one thread
//! plus every measured core ([`thread_axis`]), so it neither
//! oversubscribes the machine nor skips its real width. Every timing
//! goes through [`crate::measure`]: GEMM cells report their fastest
//! sample. The host factorizations run on the same thread axis, each
//! reporting its median sample, and every multi-thread row reports its
//! parallel efficiency against the one-thread row.

use std::collections::HashMap;

use mc_blas::BlasHandle;
use mc_compute::{Blocked, Epilogue, GemmParams, MatMul, Naive, Simd};
use mc_sim::{DeviceId, DeviceRegistry};
use mc_solver::{factor_timed, Factorization, Matrix};
use serde::{Deserialize, Serialize};

use crate::experiment::IterBudgets;
use crate::measure::{self, operands};

/// Layout version of `BENCH_hotpaths.json`. Version 3 added per-entry
/// `gflops` and `backend` columns and split the packed tier into
/// `sgemm_blocked` (scalar) and `sgemm_simd` (microkernel) alongside
/// the routed `sgemm_auto`; version 2 had moved the thread count from
/// the file header into every entry.
pub const BENCH_SCHEMA_VERSION: u32 = 3;

/// Name of the timing artifact written to the JSON sink.
pub const BENCH_FILE: &str = "BENCH_hotpaths.json";

/// The thread-count axis of the timing matrix: `{1, cores}` with
/// duplicates removed, `cores` being [`mc_compute::machine_cores`].
pub fn thread_axis() -> Vec<usize> {
    let mut axis = vec![1, mc_compute::machine_cores()];
    axis.dedup();
    axis
}

/// Largest dimension at which the serial naive reference is timed.
/// Beyond it the O(N³) strided walk costs minutes per repetition, so
/// 2048-class cells skip it and report absolute GFLOP/s only.
pub const NAIVE_CAP_N: usize = 1024;

/// Relative jitter allowed before a tier comparison counts as a loss.
/// Cross-tier cells re-time the same kernel through two code paths
/// (the tier directly and the dispatch), so only scheduler noise can
/// separate them; single-core runners show up to ~10% of it.
pub const TIER_JITTER_REL: f64 = 0.10;

/// Absolute scheduler-noise floor added on top of [`TIER_JITTER_REL`].
/// Sub-100 ms cells (and oversubscribed thread counts on small hosts)
/// see fixed wake-up/descheduling costs that dwarf 10% of the wall
/// time, so a purely relative band flags noise as a loss there. Real
/// tier inversions are order-of-magnitude events — this experiment's
/// 1024³ cells put ~9× between SIMD and blocked — which the
/// 25 ms floor cannot mask.
pub const TIER_JITTER_ABS_S: f64 = 0.025;

/// One cell of the tier-ladder GEMM matrix.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GemmTiming {
    /// Square problem dimension (M = N = K).
    pub n: usize,
    /// Configured rayon worker count for this cell.
    pub threads: usize,
    /// Naive reference wall time in seconds (fastest sample); absent
    /// above [`NAIVE_CAP_N`]. The reference is serial, so the value is
    /// measured once per size and shared across the thread axis.
    pub naive_s: Option<f64>,
    /// Scalar blocked-kernel wall time in seconds (fastest sample).
    pub blocked_s: f64,
    /// SIMD-microkernel wall time in seconds (fastest sample);
    /// absent when the vector unit is missing or `MC_GEMM_SIMD` turned
    /// the tier off.
    pub simd_s: Option<f64>,
    /// Routed-dispatch wall time in seconds (fastest sample).
    pub routed_s: f64,
    /// Which tier the dispatch routed this cell to
    /// (`naive`/`blocked`/`simd`).
    pub routed: String,
    /// Routed-dispatch throughput, `2·N³ / routed_s / 10⁹`.
    pub gflops: f64,
    /// `naive_s / routed_s`; absent where the naive reference is.
    pub speedup: Option<f64>,
    /// Whether every measured path produced bitwise-identical results.
    pub bitwise_equal: bool,
    /// The crossover edge the dispatch used for this cell.
    pub crossover_n: usize,
}

/// One factorization at one thread count, measured on both clocks.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolverTiming {
    /// Routine name (`getrf`/`potrf`).
    pub routine: String,
    /// Problem size.
    pub n: usize,
    /// Panel block size.
    pub block: usize,
    /// Configured rayon worker count for the host timing.
    pub threads: usize,
    /// Host wall time in seconds of the `mc_solver` numerics on a
    /// seeded SPD matrix: the median sample.
    pub host_s: f64,
    /// Parallel efficiency `t1 / (threads · host_s)` against the same
    /// routine's one-thread row; absent on that row itself.
    pub parallel_eff: Option<f64>,
    /// Useful-FLOP throughput in TFLOPS of the simulated replay
    /// ([`mc_solver::factor_timed`]) on the device clock; no host time.
    pub device_tflops: f64,
}

/// The GEMM dimension at which the ≥5× speedup bar is assessed. Below
/// it the whole working set fits in cache and the naive loop order is
/// not yet paying for its strided `B` walk, so smaller (smoke-tier)
/// runs report their speedup as informational only.
pub const TARGET_N: usize = 1024;

/// The perf experiment payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Perf {
    /// Rayon worker threads of the ambient pool (restored after the
    /// GEMM matrix and the solver rows).
    pub threads: usize,
    /// Whether the SIMD tier was live for this run (vector unit
    /// present and not disabled via `MC_GEMM_SIMD`).
    pub simd_enabled: bool,
    /// The (size × threads) GEMM timing matrix.
    pub cells: Vec<GemmTiming>,
    /// True when some full-dimension cell (N ≥ [`TARGET_N`]) met the
    /// ≥5× speedup bar against the naive reference.
    pub meets_target: bool,
    /// True when the routed dispatch never lost to any measured tier
    /// in any cell beyond timer jitter ([`TIER_JITTER_REL`] plus the
    /// [`TIER_JITTER_ABS_S`] noise floor) — the crossover contract.
    pub never_loses: bool,
    /// True when in no cell the tier the dispatch picked lost to a
    /// tier below it on the ladder (naive < blocked < simd), beyond
    /// timer jitter — the tier-inversion check.
    pub tier_ordered: bool,
    /// Factorization host wall times and simulated device throughputs.
    pub solver: Vec<SolverTiming>,
}

/// One entry of `BENCH_hotpaths.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Stable hot-path id (`sgemm_naive`, `sgemm_blocked`,
    /// `sgemm_simd`, `sgemm_auto`, `getrf_host`, `potrf_host`).
    pub id: String,
    /// Problem dimension.
    pub n: usize,
    /// Configured rayon worker count during the measurement.
    pub threads: usize,
    /// Host wall time in seconds.
    pub wall_s: f64,
    /// Useful-FLOP throughput over the host wall time, in GFLOP/s
    /// (schema v3; `regress` fails on an older file as unreadable).
    pub gflops: f64,
    /// The kernel behind the measurement; for `sgemm_auto` the tier
    /// the dispatch routed to (schema v3).
    pub backend: String,
}

/// The schema-versioned timing artifact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchFile {
    /// Layout version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Timed hot paths, one entry per (id, n, threads) cell.
    pub entries: Vec<BenchEntry>,
}

/// The GEMM size axis for a budget tier: {32, 48, 64, 96, 128, 192,
/// 256, 512, 1024, 2048} for the reduced and paper tiers (the small end
/// brackets [`mc_compute::default_crossover`]'s edges), {256} under
/// smoke budgets, a single `MC_PERF_N` dimension overriding both.
pub fn problem_sizes(budgets: &IterBudgets) -> Vec<usize> {
    if let Some(n) = std::env::var("MC_PERF_N")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return vec![n.max(1)];
    }
    if *budgets == IterBudgets::smoke() {
        vec![256]
    } else {
        vec![32, 48, 64, 96, 128, 192, 256, 512, 1024, 2048]
    }
}

/// Measures one kernel on the square problem `params` over `a`, `b`,
/// returning its fastest sample and its output.
fn time_kernel<K: MatMul>(
    kernel: &K,
    params: &GemmParams,
    a: &[f32],
    b: &[f32],
) -> (f64, Vec<f32>) {
    let c = vec![0.0f32; params.m * params.n];
    let mut d = vec![0.0f32; params.m * params.n];
    let samples = measure::sample(|| {
        kernel
            .gemm::<f32, f32, f32>(params, a, b, &c, &mut d)
            .expect("well-formed problem");
    });
    (samples.min(), d)
}

/// Times the serial naive reference at size `n` (fastest sample),
/// returning the wall time and the reference output for bitwise
/// checks. Measured once per size; the loop has no parallelism, so
/// the thread axis cannot move it.
pub fn time_naive(n: usize) -> (f64, Vec<f32>) {
    let (a, b) = operands(n);
    let params = GemmParams::new(n, n, n).with_epilogue(Epilogue::ComputeRounded);
    time_kernel(&Naive, &params, &a, &b)
}

/// The seeded symmetric positive-definite matrix both factorizations
/// are timed on: the upper triangle of [`operands`]' `A` (uniform in
/// [-1, 3)) mirrored, plus `n` on the diagonal, so Cholesky succeeds and
/// LU never meets a zero pivot.
fn spd_matrix(n: usize) -> Matrix<f64> {
    let (upper, _) = operands(n);
    Matrix::from_fn(n, n, |i, j| {
        let v = f64::from(upper[i.min(j) * n + i.max(j)]);
        if i == j {
            v + n as f64
        } else {
            v
        }
    })
}

/// Host wall time in seconds of one blocked factorization's numerics
/// (`mc_solver::getrf` or `mc_solver::potrf`) at size `n` on the pool
/// in force: the median sample. The matrix is built outside the timed
/// region.
fn time_host_factor(kind: Factorization, n: usize, block: usize) -> f64 {
    let a = spd_matrix(n);
    measure::sample(|| {
        let ok = match kind {
            Factorization::Getrf => mc_solver::getrf(&a, block).is_ok(),
            Factorization::Potrf => mc_solver::potrf(&a, block).is_ok(),
        };
        assert!(ok, "the seeded SPD matrix factors");
    })
    .median()
}

/// Times one matrix cell: the scalar blocked tier, the SIMD tier when
/// available, and the routed dispatch, fastest sample each, with a
/// bitwise agreement check against the naive reference (or the
/// blocked output above [`NAIVE_CAP_N`], where blocked stands in —
/// `compute_parity` proves it bit-identical to naive). Assumes the
/// global rayon pool is already sized to `threads`; the dispatch is
/// constructed here so its crossover sees that pool.
pub fn time_gemm(n: usize, threads: usize, naive: Option<&(f64, Vec<f32>)>) -> GemmTiming {
    let (a, b) = operands(n);
    let params = GemmParams::new(n, n, n).with_epilogue(Epilogue::ComputeRounded);
    let auto = mc_blas::select::host_gemm_backend();
    let simd_live = auto.simd_enabled() && Simd::supports::<f32, f32>();

    let (blocked_s, d_blocked) = time_kernel(&Blocked, &params, &a, &b);
    let (simd_s, d_simd) = if simd_live {
        time_kernel(&Simd::from_env(), &params, &a, &b)
    } else {
        (f64::INFINITY, Vec::new())
    };
    let (routed_s, d_auto) = time_kernel(&auto, &params, &a, &b);

    let reference = naive.map_or(&d_blocked, |(_, d)| d);
    let agrees = |other: &[f32]| {
        reference
            .iter()
            .zip(other)
            .all(|(x, y)| x.to_bits() == y.to_bits())
    };
    let routed_s = routed_s.max(f64::MIN_POSITIVE);
    GemmTiming {
        n,
        threads,
        naive_s: naive.map(|(t, _)| *t),
        blocked_s,
        simd_s: simd_live.then_some(simd_s),
        routed_s,
        routed: auto.routed_name::<f32, f32>(&params).to_owned(),
        gflops: 2.0 * (n as f64).powi(3) / routed_s / 1e9,
        speedup: naive.map(|(t, _)| t / routed_s),
        bitwise_equal: agrees(&d_blocked) && agrees(&d_auto) && (!simd_live || agrees(&d_simd)),
        crossover_n: auto.crossover_n(),
    }
}

/// The wall times of the tiers at or below the dispatch's pick for a
/// cell, paired with the pick's own tier timing — the inputs of the
/// tier-inversion check.
fn routed_tier_vs_lower(c: &GemmTiming) -> Option<(f64, Vec<f64>)> {
    let naive = c.naive_s;
    match c.routed.as_str() {
        "simd" => c.simd_s.map(|s| {
            (
                s,
                [Some(c.blocked_s), naive].into_iter().flatten().collect(),
            )
        }),
        "blocked" => Some((c.blocked_s, naive.into_iter().collect())),
        _ => None,
    }
}

/// The host factorization rows: each routine at `n` on every
/// thread-axis value, with the simulated replay's device throughput
/// (which no thread count moves) and, past the one-thread row, the
/// parallel efficiency against it. Sizes the global pool per value and
/// leaves it at the last.
fn time_solvers(
    devices: &DeviceRegistry,
    n: usize,
    block: usize,
    threads_axis: &[usize],
) -> Vec<SolverTiming> {
    let mut handle = BlasHandle::from_registry(devices, DeviceId::Mi250xGcd);
    let mut rows = Vec::new();
    for kind in [Factorization::Getrf, Factorization::Potrf] {
        let replay = factor_timed(&mut handle, kind, n, block).expect("factorization");
        let mut t1 = None;
        for &threads in threads_axis {
            let _ = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global();
            let host_s = time_host_factor(kind, n, block);
            if threads == 1 {
                t1 = Some(host_s);
            }
            rows.push(SolverTiming {
                routine: match kind {
                    Factorization::Getrf => "getrf".to_owned(),
                    Factorization::Potrf => "potrf".to_owned(),
                },
                n,
                block,
                threads,
                host_s,
                parallel_eff: t1
                    .filter(|_| threads > 1)
                    .map(|t1| t1 / (threads as f64 * host_s.max(f64::MIN_POSITIVE))),
                device_tflops: replay.tflops,
            });
        }
    }
    rows
}

/// Runs the perf experiment over the given size and thread axes.
///
/// The global rayon pool is resized for each thread-axis value (the
/// vendored pool's `build_global` is re-callable by design) and
/// restored to the auto-detected default afterwards.
pub fn run(devices: &DeviceRegistry, sizes: &[usize], threads_axis: &[usize]) -> Perf {
    let ambient = rayon::current_num_threads();
    let mut naive_cache: HashMap<usize, (f64, Vec<f32>)> = HashMap::new();
    let mut cells = Vec::new();
    for &t in threads_axis {
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build_global();
        for &n in sizes {
            if n <= NAIVE_CAP_N && !naive_cache.contains_key(&n) {
                naive_cache.insert(n, time_naive(n));
            }
            cells.push(time_gemm(n, t, naive_cache.get(&n)));
        }
    }
    let block = 128;
    let solver_n = sizes
        .iter()
        .copied()
        .max()
        .unwrap_or(block)
        .max(block * 2)
        .min(NAIVE_CAP_N);
    let solver = time_solvers(devices, solver_n, block, threads_axis);
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global();

    let within_jitter = |actual: f64, reference: f64| {
        actual <= reference * (1.0 + TIER_JITTER_REL) + TIER_JITTER_ABS_S
    };
    Perf {
        threads: ambient,
        simd_enabled: cells.iter().all(|c| c.simd_s.is_some()) && !cells.is_empty(),
        meets_target: cells
            .iter()
            .any(|c| c.n >= TARGET_N && c.speedup.is_some_and(|s| s >= 5.0)),
        never_loses: cells.iter().all(|c| {
            let floor = [Some(c.blocked_s), c.simd_s, c.naive_s]
                .into_iter()
                .flatten()
                .fold(f64::INFINITY, f64::min);
            within_jitter(c.routed_s, floor)
        }),
        tier_ordered: cells.iter().all(|c| {
            routed_tier_vs_lower(c)
                .is_none_or(|(own, lower)| lower.iter().all(|&l| within_jitter(own, l)))
        }),
        cells,
        solver,
    }
}

/// The `BENCH_hotpaths.json` contents for a run.
pub fn bench_file(p: &Perf) -> BenchFile {
    let gf = |n: usize, wall: f64| 2.0 * (n as f64).powi(3) / wall.max(f64::MIN_POSITIVE) / 1e9;
    let mut entries = Vec::new();
    for c in &p.cells {
        // The naive reference is serial and measured once per size;
        // emit it on the single-thread row only so every entry is a
        // real measurement at its recorded thread count.
        if c.threads == 1 {
            if let Some(t) = c.naive_s {
                entries.push(BenchEntry {
                    id: "sgemm_naive".to_owned(),
                    n: c.n,
                    threads: c.threads,
                    wall_s: t,
                    gflops: gf(c.n, t),
                    backend: "naive".to_owned(),
                });
            }
        }
        entries.push(BenchEntry {
            id: "sgemm_blocked".to_owned(),
            n: c.n,
            threads: c.threads,
            wall_s: c.blocked_s,
            gflops: gf(c.n, c.blocked_s),
            backend: "blocked".to_owned(),
        });
        if let Some(t) = c.simd_s {
            entries.push(BenchEntry {
                id: "sgemm_simd".to_owned(),
                n: c.n,
                threads: c.threads,
                wall_s: t,
                gflops: gf(c.n, t),
                backend: "simd".to_owned(),
            });
        }
        entries.push(BenchEntry {
            id: "sgemm_auto".to_owned(),
            n: c.n,
            threads: c.threads,
            wall_s: c.routed_s,
            gflops: c.gflops,
            backend: c.routed.clone(),
        });
    }
    entries.extend(p.solver.iter().map(|s| {
        // LU is 2n³/3 useful FLOPs, Cholesky n³/3. The simulated
        // replay's device throughput has no host time, so it stays in
        // the payload and out of this file.
        let flops = match s.routine.as_str() {
            "getrf" => 2.0 * (s.n as f64).powi(3) / 3.0,
            _ => (s.n as f64).powi(3) / 3.0,
        };
        BenchEntry {
            id: format!("{}_host", s.routine),
            n: s.n,
            threads: s.threads,
            wall_s: s.host_s,
            gflops: flops / s.host_s.max(f64::MIN_POSITIVE) / 1e9,
            backend: "auto".to_owned(),
        }
    }));
    BenchFile {
        schema_version: BENCH_SCHEMA_VERSION,
        entries,
    }
}

/// The perf measurement as a registered experiment.
pub struct PerfExperiment;

impl crate::experiment::Experiment for PerfExperiment {
    fn id(&self) -> &'static str {
        "perf"
    }

    fn title(&self) -> &'static str {
        "Perf — GEMM kernel-tier ladder vs naive reference (size × threads)"
    }

    fn device(&self) -> &'static str {
        "host"
    }

    fn execute(&self, ctx: &crate::experiment::RunContext) -> (serde::Value, String) {
        let pool0 = mc_compute::pool_stats();
        let p = run(&ctx.devices, &problem_sizes(&ctx.budgets), &thread_axis());
        let pool = mc_compute::pool_stats().since(&pool0);
        if let Err(e) = ctx.persist_pool_metrics(self.id(), &pool) {
            eprintln!("error: could not write pool metrics: {e}");
        }
        if let Some(dir) = &ctx.json_sink {
            // Written aside and renamed into place, so a concurrent
            // reader (`regress` under `experiments all`) never sees a
            // half-written file.
            let part = dir.join(format!("{BENCH_FILE}.part"));
            let write = std::fs::create_dir_all(dir)
                .and_then(|()| {
                    std::fs::write(
                        &part,
                        serde_json::to_string_pretty(&bench_file(&p))
                            .expect("timings are always serializable"),
                    )
                })
                .and_then(|()| std::fs::rename(&part, dir.join(BENCH_FILE)));
            if let Err(e) = write {
                eprintln!("error: could not write {BENCH_FILE}: {e}");
            }
        }
        (serde_json::to_value(&p), render(&p))
    }
}

/// Renders the experiment as text.
pub fn render(p: &Perf) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "Perf: host hot-path timings across the kernel-tier ladder (SIMD tier {})\n",
        if p.simd_enabled { "on" } else { "off" }
    );
    let _ = writeln!(
        s,
        "{:>6} {:>4} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}  {:<8} bitwise",
        "N", "thr", "naive_ms", "blocked_ms", "simd_ms", "routed_ms", "GF/s", "speedup", "route"
    );
    let opt = |v: Option<f64>| v.map_or("-".to_owned(), |t| format!("{:.3}", t * 1e3));
    for c in &p.cells {
        let _ = writeln!(
            s,
            "{:>6} {:>4} {:>10} {:>10.3} {:>10} {:>10.3} {:>8.1} {:>8}  {:<8} {}",
            c.n,
            c.threads,
            opt(c.naive_s),
            c.blocked_s * 1e3,
            opt(c.simd_s),
            c.routed_s * 1e3,
            c.gflops,
            c.speedup.map_or("-".to_owned(), |sp| format!("{sp:.1}x")),
            c.routed,
            if c.bitwise_equal { "yes" } else { "NO" }
        );
    }
    let full_dim = p.cells.iter().any(|c| c.n >= TARGET_N);
    let verdict = if full_dim {
        if p.meets_target {
            "met, target >= 5x".to_owned()
        } else {
            "MISSED, target >= 5x".to_owned()
        }
    } else {
        format!("informational; the >= 5x target is assessed at n >= {TARGET_N}")
    };
    let _ = writeln!(s, "speedup bar: {verdict}");
    let _ = writeln!(
        s,
        "routed dispatch never loses to a measured tier: {}",
        if p.never_loses { "yes" } else { "NO" }
    );
    let _ = writeln!(
        s,
        "tier ladder order holds in every cell: {}",
        if p.tier_ordered { "yes" } else { "NO" }
    );
    let _ = writeln!(
        s,
        "{:>6} {:>6} {:>4} {:>4} {:>10} {:>9} {:>10}",
        "solver", "N", "nb", "thr", "host_s", "par_eff", "sim_TFLOPS"
    );
    for t in &p.solver {
        let _ = writeln!(
            s,
            "{:>6} {:>6} {:>4} {:>4} {:>10.4} {:>9} {:>10.1}",
            t.routine,
            t.n,
            t.block,
            t.threads,
            t.host_s,
            t.parallel_eff.map_or("-".to_owned(), |e| format!("{e:.2}")),
            t.device_tflops
        );
    }
    let _ = writeln!(
        s,
        "solver host_s: median sample after a warm-up (numerics only); \
         par_eff = t1 / (thr · host_s); sim_TFLOPS is the simulated replay (device clock)"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tiers_agree_bitwise_with_naive() {
        let naive = time_naive(96);
        let t = time_gemm(96, rayon::current_num_threads(), Some(&naive));
        assert!(t.bitwise_equal, "a tier diverged from the naive reference");
        assert_eq!(t.naive_s, Some(naive.0));
        assert!(t.blocked_s > 0.0 && t.routed_s > 0.0);
        assert!(t.speedup.is_some());
        assert!(t.gflops > 0.0);
        assert!(t.crossover_n > 0);
    }

    #[test]
    fn capped_cells_check_against_the_blocked_stand_in() {
        // Above NAIVE_CAP_N the cell carries no naive column but the
        // bitwise check still runs (against the blocked output).
        let t = time_gemm(96, rayon::current_num_threads(), None);
        assert_eq!(t.naive_s, None);
        assert_eq!(t.speedup, None);
        assert!(t.bitwise_equal);
    }

    #[test]
    fn thread_axis_is_one_thread_then_the_measured_cores() {
        let axis = thread_axis();
        let cores = mc_compute::machine_cores();
        assert_eq!(axis[0], 1);
        assert_eq!(axis.last(), Some(&cores));
        assert_eq!(axis.len(), if cores == 1 { 1 } else { 2 });
    }

    #[test]
    fn problem_sizes_scale_with_budget() {
        // Guard against MC_PERF_N leaking in from the environment.
        if std::env::var("MC_PERF_N").is_ok() {
            return;
        }
        assert_eq!(problem_sizes(&IterBudgets::smoke()), vec![256]);
        let sweep = vec![32, 48, 64, 96, 128, 192, 256, 512, 1024, 2048];
        assert_eq!(problem_sizes(&IterBudgets::reduced()), sweep);
        assert_eq!(problem_sizes(&IterBudgets::paper()), sweep);
    }

    #[test]
    fn bench_file_covers_the_matrix() {
        let p = run(&DeviceRegistry::builtin(), &[64], &[1, 4]);
        let f = bench_file(&p);
        assert_eq!(f.schema_version, BENCH_SCHEMA_VERSION);
        // Naive rides the t=1 row only; blocked and auto cover every
        // cell; simd follows the vector unit; 2 solver routines on
        // both thread counts.
        let simd_ids = if p.simd_enabled { 2 } else { 0 };
        assert_eq!(f.entries.len(), 1 + 2 * 2 + simd_ids + 2 * 2);
        assert!(f
            .entries
            .iter()
            .any(|e| e.id == "sgemm_naive" && e.threads == 1 && e.backend == "naive"));
        // The solvers run at twice their 128 block at least.
        let cells = [
            ("sgemm_blocked", 64),
            ("sgemm_auto", 64),
            ("getrf_host", 256),
            ("potrf_host", 256),
        ];
        for threads in [1usize, 4] {
            for (id, n) in cells {
                assert!(
                    f.entries
                        .iter()
                        .any(|e| e.id == id && e.n == n && e.threads == threads),
                    "missing {id} cell at t={threads}"
                );
            }
        }
        // The efficiency column rides the multi-thread solver rows and
        // divides by their own one-thread row.
        for row in &p.solver {
            let t1 = p
                .solver
                .iter()
                .find(|r| r.routine == row.routine && r.threads == 1)
                .expect("a one-thread row per routine");
            match row.threads {
                1 => assert_eq!(row.parallel_eff, None),
                t => assert_eq!(
                    row.parallel_eff,
                    Some(t1.host_s / (t as f64 * row.host_s)),
                    "{row:?}"
                ),
            }
        }
        assert!(f.entries.iter().all(|e| e.wall_s > 0.0 && e.gflops > 0.0));
        assert!(f.entries.iter().all(|e| !e.backend.is_empty()));
    }

    #[test]
    fn solver_entries_divide_by_the_host_numerics_wall_time() {
        // The BENCH rate comes from `host_s` alone: the simulated
        // replay's device throughput, however large, does not enter it.
        let timing = |routine: &str| SolverTiming {
            routine: routine.to_owned(),
            n: 600,
            block: 128,
            threads: 2,
            host_s: 0.25,
            parallel_eff: Some(0.6),
            device_tflops: 1e6,
        };
        let p = Perf {
            threads: 2,
            simd_enabled: false,
            cells: Vec::new(),
            meets_target: false,
            never_loses: true,
            tier_ordered: true,
            solver: vec![timing("getrf"), timing("potrf")],
        };
        let f = bench_file(&p);
        let ids: Vec<&str> = f.entries.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["getrf_host", "potrf_host"]);
        assert!(f.entries.iter().all(|e| e.threads == 2));
        let n3 = 600f64.powi(3);
        assert_eq!(f.entries[0].wall_s, 0.25);
        assert_eq!(f.entries[0].gflops, 2.0 * n3 / 3.0 / 0.25 / 1e9);
        assert_eq!(f.entries[1].gflops, n3 / 3.0 / 0.25 / 1e9);

        // And `run` fills `host_s` by timing the numerics themselves: a
        // factorization with 64× the work takes longer on the host.
        let small = time_host_factor(Factorization::Getrf, 48, 16);
        let large = time_host_factor(Factorization::Getrf, 192, 16);
        assert!(small > 0.0 && large > small, "{small} vs {large}");
    }

    #[test]
    fn render_reports_matrix_and_agreement() {
        let p = run(&DeviceRegistry::builtin(), &[64], &[1]);
        let text = render(&p);
        assert!(text.contains("speedup bar"));
        assert!(text.contains("tier ladder order"));
        assert!(p.cells.iter().all(|c| c.bitwise_equal), "{text}");
        assert!(text.contains("getrf"));
        assert!(text.contains("potrf"));
    }

    #[test]
    fn speedup_target_only_assessed_at_full_dimension() {
        let p = run(&DeviceRegistry::builtin(), &[64], &[1]);
        assert!(
            !p.meets_target,
            "sub-{TARGET_N} runs must not claim the target"
        );
        assert!(render(&p).contains("informational"));
        assert!(!render(&p).contains("MISSED"));
    }

    #[test]
    fn small_cells_route_to_naive_on_one_thread() {
        // At N = 32 on one worker the dispatch must stay on the naive
        // loop (every ladder's crossover covers it), so the routed
        // side cannot structurally lose.
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build_global();
        let naive = time_naive(32);
        let t = time_gemm(32, 1, Some(&naive));
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global();
        if std::env::var(mc_compute::CROSSOVER_ENV).is_ok() {
            return; // calibration override in force; routing is theirs
        }
        assert_eq!(t.routed, "naive", "crossover edge {}", t.crossover_n);
    }

    #[test]
    fn tier_inversion_check_compares_the_pick_against_lower_rungs() {
        let cell = GemmTiming {
            n: 256,
            threads: 1,
            naive_s: Some(0.5),
            blocked_s: 0.1,
            simd_s: Some(0.02),
            routed_s: 0.02,
            routed: "simd".to_owned(),
            gflops: 1.0,
            speedup: Some(25.0),
            bitwise_equal: true,
            crossover_n: 40,
        };
        let (own, lower) = routed_tier_vs_lower(&cell).unwrap();
        assert_eq!(own, 0.02);
        assert_eq!(lower, vec![0.1, 0.5]);
        // A naive-routed cell has no lower rung to lose to.
        let naive_cell = GemmTiming {
            routed: "naive".to_owned(),
            ..cell
        };
        assert!(routed_tier_vs_lower(&naive_cell).is_none());
    }

    #[test]
    fn experiment_writes_bench_artifact_to_sink() {
        use crate::experiment::{Experiment, RunContext};
        let dir = std::env::temp_dir().join(format!("mc-bench-perf-{}", std::process::id()));
        let ctx = RunContext::new(IterBudgets::smoke()).with_sink(&dir);
        let record = PerfExperiment.run(&ctx);
        ctx.persist(&record).unwrap();
        let bench: BenchFile =
            serde_json::from_str(&std::fs::read_to_string(dir.join(BENCH_FILE)).unwrap()).unwrap();
        assert_eq!(bench.schema_version, BENCH_SCHEMA_VERSION);
        assert!(!bench.entries.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
