//! Fig. 9: the number of floating-point operations executed on Matrix
//! Cores and SIMD units per GEMM, measured from counters and compared
//! against the paper's `2N³` / `3N²` polynomial model.

use mc_blas::{BlasHandle, GemmDesc, GemmOp};
use mc_model::profiler::{FlopBreakdown, ProfilerSession};
use mc_model::FlopDistribution;
use mc_sim::{DeviceId, DeviceRegistry};
use serde::{Deserialize, Serialize};

/// One measured/modelled point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fig9Point {
    /// Matrix dimension N.
    pub n: usize,
    /// Measured Matrix Core FLOPs (Eq. 1).
    pub measured_mfma: u64,
    /// Measured SIMD FLOPs (Eq. 1).
    pub measured_simd: u64,
    /// Model: `2N³`.
    pub model_mfma: u64,
    /// Model: `3N²`.
    pub model_simd: u64,
}

/// One routine's series.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fig9Series {
    /// Routine name.
    pub routine: String,
    /// Per-N points.
    pub points: Vec<Fig9Point>,
}

/// The reproduced Fig. 9.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fig9 {
    /// SGEMM and DGEMM series (the figure's routines).
    pub series: Vec<Fig9Series>,
}

/// Regenerates Fig. 9 over the paper's N range (16 … 8192 suffices to
/// validate the polynomial; larger N only extends the same lines).
pub fn run(devices: &DeviceRegistry) -> Fig9 {
    let sizes = [16usize, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];
    let ops = vec![GemmOp::Sgemm, GemmOp::Dgemm];
    let series = crate::experiment::par_map(devices.trace_sink().is_none(), ops, |op| {
        let mut handle = BlasHandle::from_registry(devices, DeviceId::Mi250xGcd);
        let points = sizes
            .iter()
            .map(|&n| {
                let session =
                    ProfilerSession::begin(handle.gpu(), handle.die()).expect("valid die");
                handle.gemm_timed(&GemmDesc::square(op, n)).expect("fits");
                let counters = session.end(handle.gpu()).expect("valid die");
                let b = FlopBreakdown::from_counters(&counters);
                Fig9Point {
                    n,
                    measured_mfma: b.total_matrix_core(),
                    measured_simd: b.total_simd(),
                    model_mfma: FlopDistribution::matrix_core_flops(n as u64),
                    model_simd: FlopDistribution::simd_flops(n as u64),
                }
            })
            .collect();
        Fig9Series {
            routine: op.routine().to_owned(),
            points,
        }
    });
    Fig9 { series }
}

/// Fig. 9 as a registered experiment.
pub struct Fig9Experiment;

impl crate::experiment::Experiment for Fig9Experiment {
    fn id(&self) -> &'static str {
        "fig9"
    }

    fn title(&self) -> &'static str {
        "Fig. 9 — FLOP distribution vs the 2N³/3N² model"
    }

    fn device(&self) -> &'static str {
        "mi250x-gcd"
    }

    fn execute(&self, ctx: &crate::experiment::RunContext) -> (serde::Value, String) {
        let f = run(&ctx.devices);
        (serde_json::to_value(&f), render(&f))
    }
}

/// Renders the figure data as text.
pub fn render(f: &Fig9) -> String {
    use std::fmt::Write as _;
    let mut s = String::from(
        "Fig. 9: FLOPs on Matrix Cores vs SIMD units (measured | 2N^3 / 3N^2 model)\n",
    );
    for g in &f.series {
        let _ = writeln!(s, "-- {} --", g.routine);
        let _ = writeln!(
            s,
            "{:>8} {:>16} {:>16} {:>16} {:>16}",
            "N", "MC measured", "MC model", "SIMD measured", "SIMD model"
        );
        for p in &g.points {
            let _ = writeln!(
                s,
                "{:>8} {:>16} {:>16} {:>16} {:>16}",
                p.n, p.measured_mfma, p.model_mfma, p.measured_simd, p.model_simd
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_overlaps_measurement_for_n_ge_32() {
        // §VII: "The overlapping of the model and experimental values
        // for N ≥ 32 validates our model".
        let f = run(&DeviceRegistry::builtin());
        for g in &f.series {
            for p in g.points.iter().filter(|p| p.n >= 32) {
                assert_eq!(p.measured_mfma, p.model_mfma, "{} N={}", g.routine, p.n);
                assert_eq!(p.measured_simd, p.model_simd, "{} N={}", g.routine, p.n);
            }
        }
    }

    #[test]
    fn mc_to_simd_ratio_is_two_thirds_n() {
        let f = run(&DeviceRegistry::builtin());
        for g in &f.series {
            for p in g.points.iter().filter(|p| p.n >= 64) {
                let ratio = p.measured_mfma as f64 / p.measured_simd as f64;
                let expect = 2.0 * p.n as f64 / 3.0;
                assert!(
                    (ratio - expect).abs() / expect < 0.01,
                    "{} N={}",
                    g.routine,
                    p.n
                );
            }
        }
    }

    #[test]
    fn cubic_term_dominates_quickly() {
        let f = run(&DeviceRegistry::builtin());
        let p = f.series[0].points.iter().find(|p| p.n == 1024).unwrap();
        assert!(p.measured_mfma > 600 * p.measured_simd);
    }
}
