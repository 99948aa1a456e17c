//! The scored plan search: enumerate → build → lint → rank → dry-run.
//!
//! [`select_plan`] is the search's entry point. It runs the pipeline
//!
//! 1. [`crate::enumerate::enumerate_candidates`] — the candidate
//!    strategies, always including the static planner's pick and the
//!    SIMD-only executor;
//! 2. [`crate::planner::build_plan`] — each candidate compiles to a
//!    kernel and passes the static verifier; candidates with
//!    error-severity lint findings are discarded (counted in
//!    [`SearchOutcome::lint_rejected`]);
//! 3. [`crate::score::analytic_time_s`] — the Eq. 2 analytic model
//!    ranks the survivors;
//! 4. [`crate::score::dry_run_time_s`] — the top [`DRY_RUN_TOP_K`]
//!    finalists (plus the static pick, always) run through the pure
//!    simulator engine, and the fastest engine time wins.
//!
//! Because the static plan is always a dry-run finalist and the winner
//! is the engine-time argmin, the searched plan is **never slower than
//! the static plan under the engine's own model** — the invariant the
//! `autotune` experiment asserts across the paper's Fig. 6/7 sweep.
//! If every candidate fails lint (impossible today, but the search must
//! not brick the library if the candidate space grows), the static
//! planner's lint-gated plan is returned as the fallback.
//!
//! Ties break deterministically: candidates keep their enumeration
//! order through a stable sort, so identical descriptors always select
//! identical plans (the plan-DB round-trip relies on this).

use mc_isa::specs::DieSpec;
use mc_lint::VerifyMemo;
use mc_sim::SimConfig;

use crate::enumerate::enumerate_candidates;
use crate::planner::{build_plan_with, plan_gemm_with, GemmPlan};
use crate::score::{analytic_time_s, dry_run_time_s};
use crate::types::{BlasError, GemmDesc};

/// How many analytically-ranked finalists get a simulator dry run.
pub const DRY_RUN_TOP_K: usize = 4;

/// One dry-run finalist's two scores, kept for model-drift analysis:
/// the Eq. 2 analytic prediction that ranked it and the engine time
/// that judged it. `mc-obs` compares the two orderings to flag
/// ranking inversions — pairs the analytic model would have gotten
/// wrong had the dry run not corrected it.
#[derive(Clone, Debug)]
pub struct FinalistScore {
    /// Human-readable strategy label (MFMA mnemonic + macro tile, or
    /// `"simd"`).
    pub label: String,
    /// Eq. 2 analytic prediction, in seconds.
    pub analytic_time_s: f64,
    /// Engine dry-run time (plus handoff penalty), in seconds.
    pub engine_time_s: f64,
    /// Whether this finalist is the static planner's pick.
    pub is_static: bool,
}

/// A short display form of a strategy for finalist records and spans.
pub fn strategy_label(strategy: &crate::planner::Strategy) -> String {
    use crate::planner::Strategy;
    match strategy {
        Strategy::MatrixCore {
            instr, macro_tile, ..
        } => format!("{}/{}x{}", instr.mnemonic(), macro_tile.0, macro_tile.1),
        Strategy::SimdOnly { .. } => "simd".to_string(),
    }
}

/// The result of a plan search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The winning plan.
    pub plan: GemmPlan,
    /// The winner's engine-modeled time (dry run + handoff penalty).
    pub searched_time_s: f64,
    /// The winner's Eq. 2 analytic prediction — what the closed-form
    /// model *said* the winner would cost. The gap between this and
    /// [`SearchOutcome::searched_time_s`] is the model drift the
    /// `insight` gate bounds.
    pub analytic_time_s: f64,
    /// The static planner's plan under the same engine model — the
    /// baseline the search is measured against.
    pub static_time_s: f64,
    /// Every dry-run finalist's (analytic, engine) score pair, in
    /// analytic-rank order (static pick last unless it ranked top-K).
    pub finalists: Vec<FinalistScore>,
    /// Candidates enumerated before building.
    pub enumerated: usize,
    /// Candidates rejected by the static verifier.
    pub lint_rejected: usize,
    /// Candidates rejected by the dataflow verifier (LDS races,
    /// insufficient waitcnts, register working-set overflows).
    pub flow_rejected: usize,
}

impl SearchOutcome {
    /// Engine-modeled speedup of the searched plan over the static one
    /// (≥ 1.0 by construction: the static plan is always a finalist).
    pub fn speedup(&self) -> f64 {
        self.static_time_s / self.searched_time_s
    }

    /// Finalist pairs whose analytic ordering disagrees with the
    /// engine's: the analytic model strictly preferred one plan while
    /// the dry run strictly preferred the other. Each inversion is a
    /// ranking mistake the autotuner would have made without tier 2.
    pub fn ranking_inversions(&self) -> Vec<(usize, usize)> {
        let mut inversions = Vec::new();
        for i in 0..self.finalists.len() {
            for j in (i + 1)..self.finalists.len() {
                let (a, b) = (&self.finalists[i], &self.finalists[j]);
                let analytic = a.analytic_time_s.total_cmp(&b.analytic_time_s);
                let engine = a.engine_time_s.total_cmp(&b.engine_time_s);
                if analytic != std::cmp::Ordering::Equal
                    && engine != std::cmp::Ordering::Equal
                    && analytic != engine
                {
                    inversions.push((i, j));
                }
            }
        }
        inversions
    }
}

/// [`select_plan_with`] on a verification memo of its own: one cold
/// search.
pub fn select_plan(
    die: &DieSpec,
    cfg: &SimConfig,
    desc: &GemmDesc,
) -> Result<SearchOutcome, BlasError> {
    select_plan_with(&VerifyMemo::new(), die, cfg, desc)
}

/// Searches the candidate space for the fastest plan (see module docs).
/// Every candidate is verified through `memo`, so a sweep that shares
/// one memo verifies each kernel shape once.
pub fn select_plan_with(
    memo: &VerifyMemo,
    die: &DieSpec,
    cfg: &SimConfig,
    desc: &GemmDesc,
) -> Result<SearchOutcome, BlasError> {
    desc.validate()?;
    let candidates = enumerate_candidates(desc);
    let enumerated = candidates.len();

    // Build + lint-gate every candidate and score the survivors
    // analytically. Index 0 is the static planner's pick (enumeration
    // guarantees it); of the rest only the DRY_RUN_TOP_K best by
    // analytic score are kept, in rank order (stable: enumeration order
    // breaks ties), so a plan is dropped once it falls out of the
    // running.
    let mut ranked: Vec<(usize, GemmPlan, f64)> = Vec::with_capacity(DRY_RUN_TOP_K + 1);
    let mut static_entry = None;
    let mut lint_rejected = 0usize;
    let mut flow_rejected = 0usize;
    for (idx, strategy) in candidates.into_iter().enumerate() {
        match build_plan_with(memo, die, desc, strategy) {
            Ok(plan) => {
                let score = analytic_time_s(die, cfg, &plan);
                if idx == 0 {
                    static_entry = Some((idx, plan, score));
                    continue;
                }
                insert_ranked(&mut ranked, (idx, plan, score), |(_, _, s)| *s);
            }
            Err(BlasError::Lint(_)) => lint_rejected += 1,
            Err(BlasError::Flow(_)) => flow_rejected += 1,
            Err(other) => return Err(other),
        }
    }
    let Some(static_entry) = static_entry else {
        // Nothing survived lint (including the static pick, which today
        // always does): fall back to the static planner wholesale.
        let plan = plan_gemm_with(memo, die, desc)?;
        let analytic = analytic_time_s(die, cfg, &plan);
        let t = dry_run_time_s(die, cfg, &plan)?;
        let finalists = vec![FinalistScore {
            label: strategy_label(&plan.strategy),
            analytic_time_s: analytic,
            engine_time_s: t,
            is_static: true,
        }];
        return Ok(SearchOutcome {
            plan,
            searched_time_s: t,
            analytic_time_s: analytic,
            static_time_s: t,
            finalists,
            enumerated,
            lint_rejected,
            flow_rejected,
        });
    };

    // Dry-run the top K plus the static plan.
    ranked.push(static_entry);
    let mut static_time_s = f64::INFINITY;
    let mut finalists = Vec::with_capacity(ranked.len());
    let mut best: Option<(f64, f64, GemmPlan)> = None;
    for (idx, plan, analytic) in ranked {
        let t = dry_run_time_s(die, cfg, &plan)?;
        if idx == 0 {
            static_time_s = t;
        }
        finalists.push(FinalistScore {
            label: strategy_label(&plan.strategy),
            analytic_time_s: analytic,
            engine_time_s: t,
            is_static: idx == 0,
        });
        // Strict less-than: on exact ties the earlier (better analytic
        // rank) finalist keeps the win, deterministically.
        if best.as_ref().is_none_or(|(bt, _, _)| t < *bt) {
            best = Some((t, analytic, plan));
        }
    }
    let (searched_time_s, winner_analytic, plan) =
        best.expect("at least the static finalist was dry-run");
    Ok(SearchOutcome {
        plan,
        searched_time_s,
        analytic_time_s: winner_analytic,
        static_time_s,
        finalists,
        enumerated,
        lint_rejected,
        flow_rejected,
    })
}

/// Inserts `entry` into `ranked`, which holds the best [`DRY_RUN_TOP_K`]
/// entries so far by ascending `score`; an entry that ties goes after
/// the ones already held, where a stable sort would put it.
fn insert_ranked<T>(ranked: &mut Vec<T>, entry: T, score: impl Fn(&T) -> f64) {
    let s = score(&entry);
    let at = ranked.partition_point(|e| score(e).total_cmp(&s).is_le());
    if at < DRY_RUN_TOP_K {
        ranked.insert(at, entry);
        ranked.truncate(DRY_RUN_TOP_K);
    }
}

/// The selector's host-side analogue: the [`mc_compute::Auto`] dispatch
/// to the blocked+SIMD tier, which honours the [`mc_compute::SIMD_ENV`]
/// escape hatch and falls back to the scalar blocked kernel when the
/// vector unit or dtype pairing rules it out, at every problem size.
/// The functional GEMM path and the bench harness both construct their
/// backend here, so the host tier policy has one owner. Packing
/// scratch inside the packed tiers comes from the
/// `mc-compute` buffer pool, so repeated calls through one handle — a
/// batched GEMM most of all — reuse their panels instead of paying an
/// allocator round-trip per entry.
pub fn host_gemm_backend() -> mc_compute::Auto {
    mc_compute::Auto::from_env()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_gemm, SimdReason, Strategy};
    use crate::types::GemmOp;
    use proptest::prelude::*;

    proptest! {
        /// Keeping the running top K gives the first K of a stable sort
        /// of every score, ties and NaNs included.
        #[test]
        fn running_top_k_is_the_stable_sort_prefix(
            codes in prop::collection::vec(0u8..12, 0..40),
        ) {
            let scores: Vec<f64> = codes
                .iter()
                .map(|&c| if c == 11 { f64::NAN } else { f64::from(c % 6) })
                .collect();
            let mut ranked = Vec::new();
            for (i, &s) in scores.iter().enumerate() {
                insert_ranked(&mut ranked, (i, s), |e| e.1);
            }
            let mut sorted: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
            sorted.sort_by(|a, b| a.1.total_cmp(&b.1));
            sorted.truncate(DRY_RUN_TOP_K);
            let ids = |v: &[(usize, f64)]| v.iter().map(|e| e.0).collect::<Vec<_>>();
            prop_assert_eq!(ids(&ranked), ids(&sorted));
        }
    }

    fn die() -> DieSpec {
        mc_isa::specs::mi250x().die
    }

    fn cfg() -> SimConfig {
        SimConfig::mi250x()
    }

    #[test]
    fn searched_never_loses_to_static_across_the_sweep() {
        let d = die();
        let c = cfg();
        for op in [GemmOp::Sgemm, GemmOp::Dgemm, GemmOp::Hhs, GemmOp::Hgemm] {
            for n in [16usize, 256, 2048, 8192] {
                let out = select_plan(&d, &c, &GemmDesc::square(op, n)).unwrap();
                assert!(
                    out.searched_time_s <= out.static_time_s,
                    "{op} N={n}: searched {} vs static {}",
                    out.searched_time_s,
                    out.static_time_s
                );
                assert!(out.speedup() >= 1.0);
            }
        }
    }

    #[test]
    fn scorer_reproduces_hgemm_simd_rule() {
        // §VII rule 1 as a structural outcome: no MC candidate exists.
        let out = select_plan(&die(), &cfg(), &GemmDesc::square(GemmOp::Hgemm, 4096)).unwrap();
        assert!(!out.plan.strategy.uses_matrix_cores());
    }

    #[test]
    fn scorer_reproduces_tiny_mixed_simd_rule() {
        // §VII rule 2 as a scored outcome: with α/β scaling at N = 16
        // the handoff penalty makes SIMD win; at N = 32 Matrix Cores
        // already amortize it (paper Fig. 8).
        let d = die();
        let c = cfg();
        for op in [GemmOp::Hhs, GemmOp::Hss] {
            let out = select_plan(&d, &c, &GemmDesc::square(op, 16)).unwrap();
            assert!(
                !out.plan.strategy.uses_matrix_cores(),
                "{op} N=16 must stay on SIMD, got {:?}",
                out.plan.strategy
            );
            let out = select_plan(&d, &c, &GemmDesc::square(op, 32)).unwrap();
            assert!(out.plan.strategy.uses_matrix_cores(), "{op} N=32");
        }
    }

    #[test]
    fn search_is_deterministic() {
        let d = die();
        let c = cfg();
        for desc in [
            GemmDesc::square(GemmOp::Sgemm, 512),
            GemmDesc::square(GemmOp::Hhs, 16),
            GemmDesc::square(GemmOp::Dgemm, 4096),
        ] {
            let a = select_plan(&d, &c, &desc).unwrap();
            let b = select_plan(&d, &c, &desc).unwrap();
            assert_eq!(a.plan.strategy, b.plan.strategy, "{desc:?}");
            assert_eq!(a.searched_time_s, b.searched_time_s);
        }
    }

    #[test]
    fn finalists_carry_both_score_tiers() {
        let out = select_plan(&die(), &cfg(), &GemmDesc::square(GemmOp::Sgemm, 2048)).unwrap();
        assert!(out.finalists.len() >= 2, "{}", out.finalists.len());
        assert_eq!(out.finalists.iter().filter(|f| f.is_static).count(), 1);
        for f in &out.finalists {
            assert!(f.analytic_time_s > 0.0 && f.engine_time_s > 0.0, "{f:?}");
            assert!(!f.label.is_empty());
        }
        // The winner's recorded pair matches one of the finalists.
        assert!(out
            .finalists
            .iter()
            .any(|f| f.engine_time_s == out.searched_time_s
                && f.analytic_time_s == out.analytic_time_s));
        // Inversions, if any, reference valid finalist indices in order.
        for (i, j) in out.ranking_inversions() {
            assert!(i < j && j < out.finalists.len());
        }
    }

    #[test]
    fn ranking_inversions_flags_disagreeing_pairs() {
        let mk = |analytic: f64, engine: f64| FinalistScore {
            label: "x".into(),
            analytic_time_s: analytic,
            engine_time_s: engine,
            is_static: false,
        };
        let out = SearchOutcome {
            plan: plan_gemm(&die(), &GemmDesc::square(GemmOp::Sgemm, 64)).unwrap(),
            searched_time_s: 1.0,
            analytic_time_s: 1.0,
            static_time_s: 1.0,
            // Analytic says a < b, the engine says b < a: one inversion.
            finalists: vec![mk(1.0, 3.0), mk(2.0, 2.0), mk(4.0, 5.0)],
            enumerated: 3,
            lint_rejected: 0,
            flow_rejected: 0,
        };
        assert_eq!(out.ranking_inversions(), vec![(0, 1)]);
    }

    #[test]
    fn search_reports_candidate_accounting() {
        let out = select_plan(&die(), &cfg(), &GemmDesc::square(GemmOp::Sgemm, 2048)).unwrap();
        assert!(out.enumerated > 10, "{}", out.enumerated);
        // Every surviving plan linted clean at error severity; warnings
        // still ride on the winner like any planner output.
        assert!(out.plan.lint.is_empty());
        // Same for the dataflow verifier: a winner with a race or an
        // unretired-load consumer cannot exist, and today's emitters
        // produce no flow warnings either.
        assert!(out.plan.flow.is_empty());
    }

    #[test]
    fn simd_candidate_carries_scored_reason() {
        // When the search picks SIMD for a problem the static rules
        // would also put on SIMD, the static (reasoned) candidate wins
        // ties; a pure-search SIMD win is tagged Scored. Either way the
        // strategy is SIMD-only. Exercise the tagging through the
        // enumerator directly.
        let c = crate::enumerate::enumerate_candidates(&GemmDesc::square(GemmOp::Sgemm, 64));
        assert!(c.contains(&Strategy::SimdOnly {
            reason: SimdReason::Scored
        }));
    }

    #[test]
    fn host_backend_routes_to_a_packed_tier() {
        // No env mutation (tests run in parallel): just check the
        // default wiring routes even a tiny problem to a packed tier.
        let auto = host_gemm_backend();
        let tiny = mc_compute::GemmParams::new(2, 2, 2);
        assert_ne!(auto.routed_name::<f32, f32>(&tiny), "naive");
    }
}
