//! Per-layer probes for the traced run. Each probe times calls into one
//! layer's public functions from outside, inside the benchmark's own
//! spans; nothing inside the program is instrumented. Every probe runs
//! on every workload's traced run, so each metric has a value on the
//! workloads whose end-to-end numbers it should move and on the ones it
//! should not.

use std::time::Instant;

use mc_bench::autotune::SWEEP_OPS;
use mc_bench::gemm_sweep_sizes;
use mc_blas::{run_functional, run_functional_with, select_plan, select_strategy, BlasHandle};
use mc_blas::{GemmDesc, GemmOp, Transpose};
use mc_compute::{prof, Auto, MatMul, Simd};
use mc_sim::{DeviceId, DeviceRegistry};
use mc_solver::trsm::trsm_left_lower;
use mc_solver::{getrf, potrf, trsm_right_lower_transpose};
use mc_types::F16;
use rayon::prelude::*;

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    params_for, spd_matrix, suite_experiments, PaperSuite, Rng, Workload, BATCH, ENTRY_N, LARGE_N,
    SOLVER_N,
};

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Reps of the empty rayon region.
const REGION_REPS: usize = 200;
/// Reps of each 1024³ GEMM probe.
const LARGE_REPS: usize = 5;
/// Passes over the batch entries, the solver replays and the suite.
const PASSES: usize = 3;
/// Warm `planned` calls timed.
const PLANNED_REPS: usize = 2000;

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn push(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push((name.to_owned(), value, unit));
}

/// Runs `f` while an enclosing region holds every extra worker of the
/// global pool, so the pool runs any region `f` opens inline: a
/// one-thread measurement without resizing the pool. (The other leased
/// workers have nothing to do and sit idle until `f` returns.)
fn on_one_thread<R: Send>(f: impl Fn() -> R + Sync) -> R {
    let threads = rayon::current_num_threads();
    let mut results: Vec<Option<R>> = (0..threads)
        .into_par_iter()
        .map(|i| (i == 0).then(&f))
        .collect();
    results[0].take().expect("item 0 ran f")
}

/// `rayon.region_us`: the cost of one empty region over `nproc` items.
fn rayon_probe(t: &mut Tracer, out: &mut Vec<Metric>) {
    let threads = rayon::current_num_threads();
    let span = t.begin("probe rayon region");
    let samples: Vec<f64> = (0..REGION_REPS)
        .map(|_| {
            let t0 = Instant::now();
            (0..threads).into_par_iter().for_each(|i| {
                std::hint::black_box(i);
            });
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    t.end(span);
    push(out, "rayon.region_us", median(&samples), "us");
}

/// The `mc-compute` tier ladder at the workloads' problems, the
/// `mc-blas` functional wrapper around it, and the `prof` session read
/// through `mc-hostprof`.
fn compute_probe(seed: u64, t: &mut Tracer, out: &mut Vec<Metric>) {
    let n = LARGE_N;
    let desc = GemmDesc::new(GemmOp::Sgemm, n, n, n, 1.0, 0.5);
    let params = params_for(&desc);
    let mut rng = Rng::new(seed);
    let (a, b, c): (Vec<f32>, Vec<f32>, Vec<f32>) =
        (rng.vec(n * n), rng.vec(n * n), rng.vec(n * n));
    let mut d = vec![0.0f32; n * n];
    let auto = Auto::from_env();
    let simd = Simd::from_env();

    let mut time = |t: &mut Tracer, name: &str, f: &mut dyn FnMut(&mut [f32])| -> f64 {
        let samples: Vec<f64> = (0..LARGE_REPS)
            .map(|_| {
                let t0 = Instant::now();
                t.span(name, || f(&mut d));
                ms_since(t0)
            })
            .collect();
        median(&samples)
    };
    let auto_ms = time(t, "Auto::gemm 1024", &mut |d| {
        auto.gemm::<f32, f32, f32>(&params, &a, &b, &c, d)
            .expect("probe buffers fit")
    });
    let tn = time(t, "Simd::gemm 1024", &mut |d| {
        simd.gemm::<f32, f32, f32>(&params, &a, &b, &c, d)
            .expect("probe buffers fit")
    });
    let t1 = time(t, "Simd::gemm 1024 one thread", &mut |d| {
        let d = std::sync::Mutex::new(d);
        on_one_thread(|| {
            let mut d = d.lock().expect("only item 0 locks");
            simd.gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d)
                .expect("probe buffers fit")
        })
    });
    let threads = rayon::current_num_threads() as f64;
    push(out, "mc-compute.auto_ms", auto_ms, "ms");
    push(out, "mc-compute.simd_t1_ms", t1, "ms");
    push(out, "mc-compute.simd_tn_ms", tn, "ms");
    push(out, "mc-compute.parallel_eff", t1 / (threads * tn), "ratio");

    // Phases of one Auto call from a profiling session, and the gap
    // between the session's region wall time and our own timing.
    let mut phases: [Vec<f64>; 5] = Default::default();
    let mut rel = Vec::new();
    for _ in 0..PASSES {
        let session = prof::session();
        let t0 = Instant::now();
        t.span("Auto::gemm 1024 profiled", || {
            auto.gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d)
                .expect("probe buffers fit")
        });
        let timed_s = t0.elapsed().as_secs_f64();
        let records = mc_hostprof::attribute(&session.finish());
        let Some(r) = records.iter().find(|r| r.m == n as u64) else {
            continue;
        };
        for (v, s) in phases.iter_mut().zip([
            r.pack_a_s,
            r.pack_b_s,
            r.microkernel_s,
            r.epilogue_s,
            r.fanout_s,
        ]) {
            v.push(s * 1e3);
        }
        rel.push((r.wall_s - timed_s).abs() / timed_s);
    }
    for (name, v) in ["pack_a", "pack_b", "microkernel", "epilogue", "fanout"]
        .iter()
        .zip(&phases)
    {
        push(out, &format!("mc-compute.phase.{name}_ms"), median(v), "ms");
    }
    push(out, "mc-hostprof.wall_vs_timed_rel", median(&rel), "ratio");

    // One batch entry: Auto directly, and through mc-blas's functional
    // wrapper (buffer checks, catalog probe, epilogue choice).
    let g = GemmDesc::new(GemmOp::Hhs, ENTRY_N, ENTRY_N, ENTRY_N, 1.0, 0.5);
    let entry = params_for(&g);
    let strategy = select_strategy(&g);
    let len = ENTRY_N * ENTRY_N;
    let (ea, eb, ec): (Vec<F16>, Vec<F16>, Vec<F16>) = (
        rng.vec(BATCH * len),
        rng.vec(BATCH * len),
        rng.vec(BATCH * len),
    );
    let mut ed = vec![F16::default(); len];
    let (mut direct, mut wrapped) = (Vec::new(), Vec::new());
    let span = t.begin("probe batch entries");
    for _ in 0..PASSES {
        for i in 0..BATCH {
            let s = i * len..(i + 1) * len;
            let t0 = Instant::now();
            auto.gemm::<F16, F16, f32>(
                &entry,
                &ea[s.clone()],
                &eb[s.clone()],
                &ec[s.clone()],
                &mut ed,
            )
            .expect("probe buffers fit");
            direct.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            run_functional_with::<F16, F16, f32>(
                &auto,
                &g,
                &strategy,
                &ea[s.clone()],
                &eb[s.clone()],
                &ec[s],
                &mut ed,
            )
            .expect("probe buffers fit");
            wrapped.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    t.end(span);
    let entry_us = median(&direct);
    push(out, "mc-compute.auto_entry_us", entry_us, "us");
    push(
        out,
        "mc-blas.functional_overhead_us",
        median(&wrapped) - entry_us,
        "us",
    );
}

/// The Fig. 6/7 shapes: every sweep routine at every §VII size.
fn sweep_shapes() -> Vec<GemmDesc> {
    SWEEP_OPS
        .iter()
        .flat_map(|&op| {
            gemm_sweep_sizes(8192)
                .into_iter()
                .map(move |n| GemmDesc::square(op, n))
        })
        .collect()
}

/// `mc-blas` planning and search, and `mc-sim` launch throughput.
fn blas_sim_probe(t: &mut Tracer, out: &mut Vec<Metric>) -> Result<(), String> {
    let err = |e: mc_blas::BlasError| e.to_string();
    let desc = GemmDesc::square(GemmOp::Sgemm, LARGE_N);
    let mut handle = BlasHandle::new_mi250x_gcd();
    handle.planned(&desc).map_err(err)?;
    let span = t.begin("probe BlasHandle::planned");
    let mut planned = Vec::with_capacity(PLANNED_REPS);
    for _ in 0..PLANNED_REPS {
        let t0 = Instant::now();
        std::hint::black_box(handle.planned(&desc).map_err(err)?);
        planned.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    t.end(span);
    push(out, "mc-blas.planned_us", median(&planned), "us");

    let span = t.begin("probe BlasHandle::gemm_timed");
    let mut timed = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        std::hint::black_box(handle.gemm_timed(&desc).map_err(err)?);
        timed.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    t.end(span);
    push(out, "mc-blas.gemm_timed_us", median(&timed), "us");

    // The planner emits CDNA2 instructions only (it rejects the A100's
    // Ampere die as `mfma-wrong-arch`), so the sweep runs on the GCD.
    let shapes = sweep_shapes();
    let registry = DeviceRegistry::builtin();
    let cfg = registry.config(DeviceId::Mi250xGcd).clone();
    let die = cfg.package.die.clone();
    let (mut select_ms, mut counts) = (Vec::new(), [0usize; 3]);
    for pass in 0..PASSES {
        for g in &shapes {
            let t0 = Instant::now();
            let outcome = t.span("select_plan", || select_plan(&die, &cfg, g));
            select_ms.push(ms_since(t0));
            let outcome = outcome.map_err(err)?;
            if pass == 0 {
                counts[0] += outcome.enumerated;
                counts[1] += outcome.lint_rejected;
                counts[2] += outcome.flow_rejected;
            }
        }
    }
    push(out, "mc-blas.select_plan_ms_p50", median(&select_ms), "ms");
    for (name, n) in ["enumerated", "lint_rejected", "flow_rejected"]
        .iter()
        .zip(counts)
    {
        push(out, &format!("mc-blas.search.{name}"), n as f64, "count");
    }

    // Warm-plan launches on fresh handles: the simulated sum of the
    // first pass repeats exactly, the host time per launch does not.
    let (mut launch_us, mut simulated_s) = (Vec::new(), 0.0f64);
    for pass in 0..PASSES {
        let mut handle = BlasHandle::from_registry(&registry, DeviceId::Mi250xGcd);
        for g in &shapes {
            handle.planned(g).map_err(err)?;
        }
        for g in &shapes {
            let t0 = Instant::now();
            let perf = t.span("BlasHandle::gemm_timed", || handle.gemm_timed(g));
            launch_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if pass == 0 {
                simulated_s += perf.map_err(err)?.time_s;
            }
        }
    }
    let total_s: f64 = launch_us.iter().sum::<f64>() / 1e6;
    push(out, "mc-sim.launch_us_p50", median(&launch_us), "us");
    push(
        out,
        "mc-sim.launches_per_s",
        launch_us.len() as f64 / total_s,
        "1/s",
    );
    push(out, "mc-sim.simulated_s_sum", simulated_s, "sim_s");
    Ok(())
}

/// `mc-solver`: both factorizations, then their trailing GEMMs and
/// TRSMs replayed on the same schedule, with the remainder (scalar
/// panels, pivoting, block copies) reported as its own row.
fn solver_probe(seed: u64, t: &mut Tracer, out: &mut Vec<Metric>) -> Result<(), String> {
    let (n, nb) = (SOLVER_N, mc_solver::potrf::DEFAULT_BLOCK);
    let a = spd_matrix(seed, n);
    let err = |e: mc_solver::SolverError| e.to_string();
    let (mut potrf_ms, mut getrf_ms) = (Vec::new(), Vec::new());
    let (mut l, mut lu) = (None, None);
    for _ in 0..PASSES {
        let t0 = Instant::now();
        l = Some(t.span("mc_solver::potrf", || potrf(&a, nb)).map_err(err)?);
        potrf_ms.push(ms_since(t0));
        let t0 = Instant::now();
        lu = Some(t.span("mc_solver::getrf", || getrf(&a, nb)).map_err(err)?);
        getrf_ms.push(ms_since(t0));
    }
    let (l, lu) = (l.expect("PASSES > 0"), lu.expect("PASSES > 0").lu);

    let (mut gemm_ms, mut trsm_ms) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        let (mut gemm, mut trsm) = (0.0, 0.0);
        let mut k = 0;
        while k < n {
            let b = nb.min(n - k);
            let rest = n - k - b;
            if rest > 0 {
                // Cholesky step: panel TRSM, then A22 − panel·panelᵀ.
                let diag = l.block(k, k, b, b);
                let mut panel = a.block(k + b, k, rest, b);
                let t0 = Instant::now();
                t.span("trsm_right_lower_transpose", || {
                    trsm_right_lower_transpose(&diag, &mut panel)
                })
                .map_err(err)?;
                trsm += ms_since(t0);
                let desc = GemmDesc {
                    trans_b: Transpose::Trans,
                    ..GemmDesc::new(GemmOp::Dgemm, rest, rest, b, -1.0, 1.0)
                };
                let trailing = a.block(k + b, k + b, rest, rest);
                let mut update = vec![0.0f64; rest * rest];
                let t0 = Instant::now();
                t.span("run_functional potrf trailing", || {
                    run_functional::<f64, f64, f64>(
                        &desc,
                        &select_strategy(&desc),
                        panel.as_slice(),
                        panel.as_slice(),
                        trailing.as_slice(),
                        &mut update,
                    )
                })
                .map_err(|e| e.to_string())?;
                gemm += ms_since(t0);

                // LU step: block-row TRSM, then A22 − L21·U12.
                let l11 = lu.block(k, k, b, b);
                let mut u12 = a.block(k, k + b, b, rest);
                let t0 = Instant::now();
                t.span("trsm_left_lower", || trsm_left_lower(&l11, &mut u12, true))
                    .map_err(err)?;
                trsm += ms_since(t0);
                let l21 = lu.block(k + b, k, rest, b);
                let desc = GemmDesc::new(GemmOp::Dgemm, rest, rest, b, -1.0, 1.0);
                let t0 = Instant::now();
                t.span("run_functional getrf trailing", || {
                    run_functional::<f64, f64, f64>(
                        &desc,
                        &select_strategy(&desc),
                        l21.as_slice(),
                        u12.as_slice(),
                        trailing.as_slice(),
                        &mut update,
                    )
                })
                .map_err(|e| e.to_string())?;
                gemm += ms_since(t0);
            }
            k += b;
        }
        gemm_ms.push(gemm);
        trsm_ms.push(trsm);
    }
    let (p, g) = (median(&potrf_ms), median(&getrf_ms));
    let (gm, tr) = (median(&gemm_ms), median(&trsm_ms));
    push(out, "mc-solver.potrf_ms", p, "ms");
    push(out, "mc-solver.getrf_ms", g, "ms");
    push(out, "mc-solver.trailing_gemm_ms", gm, "ms");
    push(out, "mc-solver.trsm_ms", tr, "ms");
    push(out, "mc-solver.unattributed_ms", p + g - gm - tr, "ms");
    Ok(())
}

/// `mc-bench`: one experiment's `run` per registry entry, standing in
/// for the simulated-plane layers each one exercises.
fn suite_probe(t: &mut Tracer, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut suite = PaperSuite::new(suite_experiments());
    suite.build();
    let first = t.spans().len();
    for _ in 0..PASSES {
        suite.reset_outputs();
        suite.op(t)?;
        if !suite.check() {
            return Err("paper-suite probe pass failed its checks".into());
        }
    }
    let spans = &t.spans()[first..];
    for id in suite.ids() {
        let name = format!("run {id}");
        let ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms())
            .collect();
        push(out, &format!("suite.{id}_ms"), median(&ms), "ms");
    }
    Ok(())
}

/// Every probe, in layer order. `t` must be recording: the suite probe
/// reads its per-experiment times back from the spans.
pub fn probe_all(seed: u64, t: &mut Tracer) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    rayon_probe(t, &mut out);
    compute_probe(seed, t, &mut out);
    blas_sim_probe(t, &mut out)?;
    solver_probe(seed, t, &mut out)?;
    suite_probe(t, &mut out)?;
    Ok(out)
}
