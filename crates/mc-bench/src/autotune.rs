//! Autotune — the scored plan search against the static planner across
//! the paper's rocBLAS sweep (Figs. 6–7 shapes).
//!
//! For every routine of the Fig. 6/7 evaluation (SGEMM, DGEMM, HGEMM,
//! HSS, HHS) and every size of the §VII `N×N×N` grid, this experiment
//! runs [`mc_blas::select_plan`] — enumerate, lint-gate, rank with the
//! Eq. 2 analytic model, dry-run the finalists on the pure simulator
//! engine — and records the searched plan's engine time next to the
//! static planner's. The search dry-runs the static plan as a finalist
//! and takes the engine-time argmin, so the selected plan is never
//! slower than the static one under the engine's own model; the
//! experiment's gate check asserts exactly that envelope over the whole
//! sweep (`losing_points == 0`).
//!
//! The sweep also exercises the §VII policy rules as *outcomes*: HGEMM
//! points must come back SIMD-only (no FP16-accumulating MFMA exists),
//! and the scaled mixed-precision N = 16 points must stay off the
//! Matrix Cores (the pipeline-handoff penalty, `docs/AUTOTUNE.md`).
//!
//! Points are pure engine computations (no device state, no host GEMM),
//! so the full grid is cheap and runs in parallel.

use mc_blas::{select_plan_with, GemmDesc, GemmOp, SearchOutcome, Strategy};
use mc_lint::VerifyMemo;
use mc_sim::{DeviceId, DeviceRegistry};
use serde::{Deserialize, Serialize};

use crate::experiment::IterBudgets;
use crate::gemm_sweep_sizes;

/// The routines of the Fig. 6/7 evaluation, in presentation order.
pub const SWEEP_OPS: [GemmOp; 5] = [
    GemmOp::Sgemm,
    GemmOp::Dgemm,
    GemmOp::Hgemm,
    GemmOp::Hss,
    GemmOp::Hhs,
];

/// One (routine, N) point of the autotune sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AutotunePoint {
    /// Routine name.
    pub routine: String,
    /// Square problem dimension.
    pub n: usize,
    /// The static planner's engine-modeled time in seconds.
    pub static_time_s: f64,
    /// The searched plan's engine-modeled time in seconds.
    pub searched_time_s: f64,
    /// `static_time_s / searched_time_s` (≥ 1.0 by construction).
    pub speedup: f64,
    /// Compact description of the winning strategy.
    pub strategy: String,
    /// Whether the winner uses the Matrix Cores.
    pub matrix_cores: bool,
    /// Candidate strategies enumerated for this point.
    pub enumerated: usize,
    /// Candidates the static verifier rejected.
    pub lint_rejected: usize,
    /// Candidates the dataflow verifier rejected (races, waitcnt,
    /// register working-set overflows).
    pub flow_rejected: usize,
}

/// The autotune sweep payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Autotune {
    /// Every (routine, N) point of the sweep.
    pub points: Vec<AutotunePoint>,
    /// Points where the searched plan was slower than the static plan —
    /// the gate count, zero by the search's argmin construction.
    pub losing_points: usize,
    /// Points where the search found a strictly faster plan.
    pub improved_points: usize,
    /// Smallest selected-vs-static speedup across the sweep.
    pub min_speedup: f64,
    /// Largest selected-vs-static speedup across the sweep.
    pub max_speedup: f64,
}

/// The size grid for a budget tier: the full §VII grid up to 8192 for
/// the reduced and paper tiers, a three-point smoke subset otherwise.
/// (The search never allocates matrices, so the cap is about sweep
/// breadth, not memory.)
pub fn sweep_sizes(budgets: &IterBudgets) -> Vec<usize> {
    if *budgets == IterBudgets::smoke() {
        vec![16, 256, 2048]
    } else {
        gemm_sweep_sizes(8192)
    }
}

/// Compact human-readable form of a strategy for the payload.
fn describe(strategy: &Strategy) -> String {
    match strategy {
        Strategy::MatrixCore {
            instr,
            macro_tile,
            wave_tile,
            k_step,
            buffering,
        } => format!(
            "{} mt{}x{} wt{}x{} k{} {:?}",
            instr.mnemonic(),
            macro_tile.0,
            macro_tile.1,
            wave_tile.0,
            wave_tile.1,
            k_step,
            buffering
        ),
        Strategy::SimdOnly { .. } => "simd".to_owned(),
    }
}

/// Runs the autotune sweep over the given size grid, verifying each
/// kernel shape once for the whole sweep.
pub fn run(devices: &DeviceRegistry, sizes: &[usize]) -> Autotune {
    run_with(devices, sizes, &VerifyMemo::new())
}

/// [`run`] with the plan searches verifying through `memo`.
pub fn run_with(devices: &DeviceRegistry, sizes: &[usize], memo: &VerifyMemo) -> Autotune {
    let cfg = devices.config(DeviceId::Mi250xGcd).clone();
    let die = cfg.package.die.clone();
    let grid: Vec<(GemmOp, usize)> = SWEEP_OPS
        .iter()
        .flat_map(|&op| sizes.iter().map(move |&n| (op, n)))
        .collect();
    let points: Vec<AutotunePoint> =
        crate::experiment::par_map(devices.trace_sink().is_none(), grid, |(op, n)| {
            let out = select_plan_with(memo, &die, &cfg, &GemmDesc::square(op, n))
                .expect("sweep descriptors are valid");
            // The gate's second invariant: a searched winner is
            // race-free by construction, because build_plan rejects
            // flow-failing candidates before ranking. Re-verify the
            // winner directly, outside the memo, so a future planner
            // regression trips here.
            let verdict = mc_lint::flow::analyze_kernel(&die, &out.plan.kernel);
            assert!(
                !verdict.has_errors(),
                "searched winner {op} N={n} failed dataflow verification:\n{}",
                verdict.render()
            );
            point(op, n, &out)
        });
    summarize(points)
}

/// The payload row of one searched point.
fn point(op: GemmOp, n: usize, out: &SearchOutcome) -> AutotunePoint {
    AutotunePoint {
        routine: op.routine().to_owned(),
        n,
        static_time_s: out.static_time_s,
        searched_time_s: out.searched_time_s,
        speedup: out.speedup(),
        strategy: describe(&out.plan.strategy),
        matrix_cores: out.plan.strategy.uses_matrix_cores(),
        enumerated: out.enumerated,
        lint_rejected: out.lint_rejected,
        flow_rejected: out.flow_rejected,
    }
}

/// The sweep payload over its points: the gate count and the speedup
/// range.
fn summarize(points: Vec<AutotunePoint>) -> Autotune {
    let losing_points = points
        .iter()
        .filter(|p| p.searched_time_s > p.static_time_s)
        .count();
    let improved_points = points
        .iter()
        .filter(|p| p.searched_time_s < p.static_time_s)
        .count();
    let min_speedup = points
        .iter()
        .map(|p| p.speedup)
        .fold(f64::INFINITY, f64::min);
    let max_speedup = points.iter().map(|p| p.speedup).fold(0.0, f64::max);
    Autotune {
        points,
        losing_points,
        improved_points,
        min_speedup,
        max_speedup,
    }
}

/// The autotune sweep as a registered experiment.
pub struct AutotuneExperiment;

impl crate::experiment::Experiment for AutotuneExperiment {
    fn id(&self) -> &'static str {
        "autotune"
    }

    fn title(&self) -> &'static str {
        "Gate — scored plan search vs static planner over the Fig. 6/7 sweep"
    }

    fn device(&self) -> &'static str {
        "mi250x-gcd"
    }

    fn checks(&self) -> Vec<crate::experiment::Check> {
        use crate::experiment::Check;
        vec![Check::new(
            "autotune/points losing to static",
            0.0,
            0.0,
            "/losing_points",
        )]
    }

    fn execute(&self, ctx: &crate::experiment::RunContext) -> (serde::Value, String) {
        let a = run(&ctx.devices, &sweep_sizes(&ctx.budgets));
        (serde_json::to_value(&a), render(&a))
    }
}

/// Renders the sweep as text.
pub fn render(a: &Autotune) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("Autotune: scored plan search vs static planner (engine model)\n");
    let _ = writeln!(
        s,
        "{:>6} {:>6} {:>12} {:>12} {:>8}  winner",
        "op", "N", "static_s", "searched_s", "speedup"
    );
    for p in &a.points {
        let _ = writeln!(
            s,
            "{:>6} {:>6} {:>12.6e} {:>12.6e} {:>7.3}x  {}",
            p.routine, p.n, p.static_time_s, p.searched_time_s, p.speedup, p.strategy
        );
    }
    let _ = writeln!(
        s,
        "{} points: {} improved, {} losing (must be 0); speedup {:.3}x..{:.3}x",
        a.points.len(),
        a.improved_points,
        a.losing_points,
        a.min_speedup,
        a.max_speedup
    );
    let verdict = if a.losing_points == 0 {
        "gate: PASS (selected never slower than static)"
    } else {
        "gate: FAIL"
    };
    let _ = writeln!(s, "{verdict}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, RunContext};

    #[test]
    fn sweep_never_loses_to_static() {
        let a = run(&DeviceRegistry::builtin(), &[16, 256, 2048]);
        assert_eq!(a.points.len(), SWEEP_OPS.len() * 3);
        assert_eq!(a.losing_points, 0, "{}", render(&a));
        assert!(a.min_speedup >= 1.0);
        assert!(a.max_speedup >= a.min_speedup);
    }

    #[test]
    fn a_search_keeping_its_slowest_finalist_fails_the_gate() {
        // The defect the gate guards against, a plan that loses to
        // static: at every point of the reduced sweep, keep the slowest
        // dry-run finalist instead of the engine argmin.
        let cfg = DeviceRegistry::builtin()
            .config(DeviceId::Mi250xGcd)
            .clone();
        let die = cfg.package.die.clone();
        let memo = VerifyMemo::new();
        let mut points = Vec::new();
        for op in SWEEP_OPS {
            for n in sweep_sizes(&IterBudgets::reduced()) {
                let mut out = select_plan_with(&memo, &die, &cfg, &GemmDesc::square(op, n))
                    .expect("sweep descriptors are valid");
                out.searched_time_s = out
                    .finalists
                    .iter()
                    .map(|f| f.engine_time_s)
                    .fold(f64::NEG_INFINITY, f64::max);
                points.push(point(op, n, &out));
            }
        }
        let a = summarize(points);
        assert!(a.losing_points > 0, "{}", render(&a));
        let payload = serde_json::to_value(&a);
        let gate = AutotuneExperiment
            .checks()
            .into_iter()
            .find(|c| c.metric == "autotune/points losing to static")
            .expect("the gate check is declared");
        assert!(!gate.evaluate(&payload).pass());
        assert!(render(&a).contains("gate: FAIL"));
    }

    #[test]
    fn policy_rules_hold_as_outcomes() {
        let a = run(&DeviceRegistry::builtin(), &[16, 256]);
        for p in &a.points {
            if p.routine == "hgemm" {
                assert!(!p.matrix_cores, "hgemm N={} must stay SIMD", p.n);
            }
            if p.n == 16 && (p.routine == "hhs" || p.routine == "hss") {
                assert!(!p.matrix_cores, "{} N=16 must stay SIMD", p.routine);
            }
        }
    }

    #[test]
    fn sweep_sizes_scale_with_budget() {
        assert_eq!(sweep_sizes(&IterBudgets::smoke()), vec![16, 256, 2048]);
        let full = sweep_sizes(&IterBudgets::reduced());
        assert_eq!(full.first(), Some(&16));
        assert_eq!(full.last(), Some(&8192));
        assert!(full.len() > 5);
    }

    #[test]
    fn experiment_gate_check_passes() {
        let ctx = RunContext::new(IterBudgets::smoke());
        let record = AutotuneExperiment.run(&ctx);
        assert_eq!(record.checks.len(), 1);
        assert!(
            record.checks.iter().all(|c| c.pass()),
            "{}",
            record.rendered
        );
        assert!(record.rendered.contains("gate: PASS"));
    }

    #[test]
    fn each_run_verifies_every_shape_itself() {
        let devices = DeviceRegistry::builtin();
        let sizes = [16, 256, 2048];
        let first = VerifyMemo::new();
        let a = run_with(&devices, &sizes, &first);
        let second = VerifyMemo::new();
        let b = run_with(&devices, &sizes, &second);
        assert_eq!(a, b);
        // A run misses at least once per shape it records — on a fresh
        // memo, every shape — and concurrent workers may each miss the
        // same shape once, but no more: a worker that missed a shape
        // hits it afterwards. Both bounds hold under any schedule.
        for memo in [&first, &second] {
            let stats = memo.stats();
            assert!(!memo.is_empty());
            assert!(stats.misses >= memo.len() as u64, "{stats:?}");
            let workers = rayon::current_num_threads() as u64;
            assert!(stats.misses <= memo.len() as u64 * workers, "{stats:?}");
            assert!(stats.hits > 0, "{stats:?}");
        }
        assert_eq!(first.len(), second.len());
        // A memo carries its verdicts only to whoever shares it: run
        // again on the warm one, nothing is verified anew.
        let warm = first.stats();
        assert_eq!(run_with(&devices, &sizes, &first), a);
        assert_eq!(first.stats().misses, warm.misses);
    }

    #[test]
    fn points_report_search_accounting() {
        let a = run(&DeviceRegistry::builtin(), &[2048]);
        let sgemm = a
            .points
            .iter()
            .find(|p| p.routine == "sgemm")
            .expect("sgemm swept");
        assert!(sgemm.enumerated > 10, "{}", sgemm.enumerated);
        assert!(sgemm.matrix_cores);
        assert!(sgemm.strategy.contains("mt"), "{}", sgemm.strategy);
        // Today's emitters produce no flow-rejected candidates; the
        // field exists so a regression shows up in the payload.
        assert_eq!(sgemm.flow_rejected, 0);
    }
}
