//! Extension experiment: Matrix Core utilization at the LAPACK layer.
//!
//! The paper's Fig. 2 hierarchy ends with "Applications and HPC
//! Libraries" — rocSOLVER "relies on rocBLAS to execute matrix
//! operations, which naturally leads to opportunistic leveraging of
//! Matrix Cores" (§III). This experiment quantifies that claim with the
//! same counter methodology as Fig. 8, applied to blocked Cholesky and
//! LU factorizations: the Matrix Core FLOP share grows with `N/nb`
//! toward 100 % as the GEMM trailing updates dominate.

use mc_blas::BlasHandle;
use mc_sim::{DeviceId, DeviceRegistry};
use mc_solver::{factor_timed, Factorization};
use serde::{Deserialize, Serialize};

/// One factorization measurement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolverPoint {
    /// Problem size.
    pub n: usize,
    /// Useful-FLOP throughput in TFLOPS.
    pub tflops: f64,
    /// Matrix Core FLOP share (Eq. 1 counters).
    pub matrix_core_ratio: f64,
}

/// One factorization's sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolverSeries {
    /// Routine name (`potrf`/`getrf`).
    pub routine: String,
    /// Block size used.
    pub block: usize,
    /// Per-N measurements.
    pub points: Vec<SolverPoint>,
}

/// The extension experiment result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolverExt {
    /// POTRF and GETRF series.
    pub series: Vec<SolverSeries>,
}

/// Runs the solver-layer utilization sweep: the two factorizations in
/// parallel, each on its own handle.
pub fn run(devices: &DeviceRegistry) -> SolverExt {
    let sizes = [256usize, 512, 1024, 2048, 4096, 8192];
    let block = 128;
    let kinds = vec![Factorization::Potrf, Factorization::Getrf];
    let series = crate::experiment::par_map(devices.trace_sink().is_none(), kinds, |kind| {
        let mut handle = BlasHandle::from_registry(devices, DeviceId::Mi250xGcd);
        let points = sizes
            .iter()
            .map(|&n| {
                let perf = factor_timed(&mut handle, kind, n, block).expect("factorization");
                SolverPoint {
                    n,
                    tflops: perf.tflops,
                    matrix_core_ratio: perf.matrix_core_ratio,
                }
            })
            .collect();
        SolverSeries {
            routine: match kind {
                Factorization::Potrf => "potrf".to_owned(),
                Factorization::Getrf => "getrf".to_owned(),
            },
            block,
            points,
        }
    });
    SolverExt { series }
}

/// The solver extension as a registered experiment.
pub struct SolverExtExperiment;

impl crate::experiment::Experiment for SolverExtExperiment {
    fn id(&self) -> &'static str {
        "solver"
    }

    fn title(&self) -> &'static str {
        "Extension — Matrix Core utilization at the LAPACK layer"
    }

    fn device(&self) -> &'static str {
        "mi250x-gcd"
    }

    fn execute(&self, ctx: &crate::experiment::RunContext) -> (serde::Value, String) {
        let s = run(&ctx.devices);
        (serde_json::to_value(&s), render(&s))
    }
}

/// Renders the experiment as text.
pub fn render(s: &SolverExt) -> String {
    use std::fmt::Write as _;
    let mut out =
        String::from("Extension: Matrix Core utilization at the LAPACK (rocSOLVER) layer\n");
    for series in &s.series {
        let _ = writeln!(out, "-- {} (nb = {}) --", series.routine, series.block);
        let _ = writeln!(out, "{:>8} {:>10} {:>12}", "N", "TFLOPS", "MC share");
        for p in &series.points {
            let _ = writeln!(
                out,
                "{:>8} {:>10.2} {:>11.1}%",
                p.n,
                p.tflops,
                p.matrix_core_ratio * 100.0
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_core_share_grows_toward_one() {
        let s = run(&DeviceRegistry::builtin());
        for series in &s.series {
            let ratios: Vec<f64> = series.points.iter().map(|p| p.matrix_core_ratio).collect();
            assert!(
                ratios.windows(2).all(|w| w[1] >= w[0] - 1e-9),
                "{}: {ratios:?}",
                series.routine
            );
            assert!(
                *ratios.last().unwrap() > 0.97,
                "{}: {ratios:?}",
                series.routine
            );
        }
    }

    #[test]
    fn throughput_grows_with_n() {
        let s = run(&DeviceRegistry::builtin());
        for series in &s.series {
            let t: Vec<f64> = series.points.iter().map(|p| p.tflops).collect();
            assert!(
                t.last().unwrap() > t.first().unwrap(),
                "{}: {t:?}",
                series.routine
            );
        }
    }

    #[test]
    fn lu_does_twice_the_work_of_cholesky() {
        // Same trailing-update structure; LU's useful-FLOP count is 2x.
        let s = run(&DeviceRegistry::builtin());
        let potrf = &s.series[0].points;
        let getrf = &s.series[1].points;
        let p = potrf.last().unwrap();
        let g = getrf.last().unwrap();
        // Throughputs are same order; both GEMM-bound at large N.
        assert!(g.tflops / p.tflops > 0.5 && g.tflops / p.tflops < 2.5);
    }
}
