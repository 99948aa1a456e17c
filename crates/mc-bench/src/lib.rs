//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation on the simulated devices.
//!
//! Each module owns one artifact, exposes a `run()` returning a
//! serializable result struct and a `render()` producing the
//! paper-style text table, and registers an [`experiment::Experiment`]
//! implementation in [`experiment::registry`]. The `experiments` binary
//! is a thin driver over the registry; every run can be captured as a
//! schema-versioned [`experiment::ExperimentRecord`] envelope, and
//! [`report`] evaluates the paper pass-bands ([`experiment::Check`])
//! from those envelopes. EXPERIMENTS.md records paper-vs-measured for
//! each artifact. Every host wall-clock measurement goes through the
//! one timer in [`measure`].
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`table1`] | Table I — supported MFMA datatypes/shapes |
//! | [`table2`] | Table II — measured MFMA instruction latencies |
//! | [`table3`] | Table III — mixed-precision GEMM datatype combos |
//! | [`fig2`] | Fig. 2 — interface hierarchy, walked and verified |
//! | [`fig3`] | Fig. 3 — throughput vs wavefronts + Eq. 2 model |
//! | [`fig4`] | Fig. 4 — MI250X vs A100 peak throughput |
//! | [`fig5`] | Fig. 5 — power vs throughput + Eq. 3 + efficiency |
//! | [`fig6`] | Fig. 6 — rocBLAS SGEMM/DGEMM vs N |
//! | [`fig7`] | Fig. 7 — rocBLAS HGEMM/HSS/HHS vs N + speedups |
//! | [`fig8`] | Fig. 8 — Matrix Core FLOP ratio vs N |
//! | [`fig9`] | Fig. 9 — FLOP distribution vs the 2N³/3N² model |
//! | [`solver_ext`] | Extension — MC utilization at the LAPACK layer (§III claim) |
//! | [`ml_dtypes`] | Extension — INT8/BF16 instruction throughput (§II datatypes) |
//! | [`generations`] | Extension — MI100→MI250X generation survey (§II framing) |
//! | [`saturation`] | Extension — empirical saturation size (ref. \[19] methodology) |
//! | [`lint`] | Gate — `mc-lint` static verification of the shipped kernel corpus |
//! | [`flow`] | Gate — `mc_lint::flow` dataflow race & synchronization sweep of the corpus |
//! | [`trace`] | Gate — `mc-trace` timeline replay and telemetry cross-check |
//! | [`autotune`] | Gate — scored plan search vs static planner over the Fig. 6/7 sweep |
//! | [`regress`] | Gate — `mc-obs` perf-diff of run envelopes against committed baselines |
//! | [`insight`] | Gate — `mc-obs` bottleneck verdicts and Eq. 2 model drift over the corpus replay |
//! | [`hostprof`] | Gate — host-plane tracing overhead, per-phase attribution, and the unified host+GPU timeline |

#![deny(missing_docs)]

pub mod autotune;
pub mod corpus;
pub mod experiment;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod flow;
pub mod generations;
pub mod hostprof;
pub mod insight;
pub mod lint;
pub mod measure;
pub mod ml_dtypes;
pub mod perf;
pub mod plot;
pub mod regress;
pub mod report;
pub mod saturation;
pub mod solver_ext;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod trace;

/// The square-N sweep the paper uses for the rocBLAS evaluation: a
/// fixed grid of powers of two from 16, plus the 65000 terminal point,
/// truncated where device memory is exhausted — the methodology of §VII
/// ("we increase the value of N until exhausting the GPU memory").
pub fn gemm_sweep_sizes(max_n: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut n = 16usize;
    while n <= max_n.min(32768) {
        v.push(n);
        n *= 2;
    }
    if max_n >= 65000 {
        v.push(65000);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_paper_range() {
        let s = gemm_sweep_sizes(65000);
        assert_eq!(s.first(), Some(&16));
        assert_eq!(s.last(), Some(&65000));
        assert!(s.contains(&8192));
        assert!(s.contains(&32768));
    }

    #[test]
    fn sweep_clips_at_memory_boundary() {
        // A 46000-element FP64 boundary truncates the grid at 32768; the
        // grid itself is fixed (the paper never runs off-grid sizes).
        let s = gemm_sweep_sizes(46000);
        assert_eq!(s.last(), Some(&32768));
        assert!(!s.contains(&65000));
    }
}
