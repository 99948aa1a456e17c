//! Fig. 7: rocBLAS mixed-precision GEMM throughput (HGEMM / HSS / HHS)
//! plus the §VII Matrix-Core-over-SIMD speedup analysis that uses HGEMM
//! as the SIMD-only reference.

use mc_blas::GemmOp;
use mc_sim::DeviceRegistry;
use serde::{Deserialize, Serialize};

use crate::fig6::{render_series, sweep, GemmSeries};

/// The reproduced Fig. 7.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig7 {
    /// HGEMM (SIMD-only) series.
    pub hgemm: GemmSeries,
    /// HHS series.
    pub hhs: GemmSeries,
    /// HSS series.
    pub hss: GemmSeries,
    /// Per-N speedup of HHS over HGEMM (§VII: 2.3–7.5×).
    pub speedup_hhs_over_hgemm: Vec<(usize, f64)>,
    /// Largest per-N speedup (the paper's 7.5× headline).
    pub max_speedup: f64,
}

/// Regenerates Fig. 7.
pub fn run(devices: &DeviceRegistry) -> Fig7 {
    let [hgemm, hhs, hss] = sweep(devices, [GemmOp::Hgemm, GemmOp::Hhs, GemmOp::Hss]);

    let speedup: Vec<(usize, f64)> = hhs
        .points
        .iter()
        .filter_map(|p| {
            let base = hgemm.points.iter().find(|q| q.n == p.n)?;
            (p.n >= 1024).then_some((p.n, p.tflops / base.tflops))
        })
        .collect();
    let max_speedup = speedup.iter().map(|p| p.1).fold(0.0, f64::max);

    Fig7 {
        hgemm,
        hhs,
        hss,
        speedup_hhs_over_hgemm: speedup,
        max_speedup,
    }
}

/// Fig. 7 as a registered experiment.
pub struct Fig7Experiment;

impl crate::experiment::Experiment for Fig7Experiment {
    fn id(&self) -> &'static str {
        "fig7"
    }

    fn title(&self) -> &'static str {
        "Fig. 7 — rocBLAS HGEMM/HSS/HHS vs N + speedups"
    }

    fn device(&self) -> &'static str {
        "mi250x-gcd"
    }

    fn checks(&self) -> Vec<crate::experiment::Check> {
        use crate::experiment::Check;
        vec![
            Check::new("fig7/HHS peak (TFLOPS)", 155.0, 0.12, "/hhs/peak/tflops"),
            Check::new("fig7/max MC speedup (x)", 7.5, 0.20, "/max_speedup"),
        ]
    }

    fn execute(&self, ctx: &crate::experiment::RunContext) -> (serde::Value, String) {
        let f = run(&ctx.devices);
        (serde_json::to_value(&f), render(&f))
    }
}

/// Renders the figure data as text.
pub fn render(f: &Fig7) -> String {
    use std::fmt::Write as _;
    let mut s = render_series(
        "Fig. 7: rocBLAS mixed-precision GEMM throughput (TFLOPS)",
        &[&f.hgemm, &f.hhs, &f.hss],
    );
    let _ = writeln!(s, "Matrix-Core speedup (HHS / HGEMM):");
    for (n, x) in &f.speedup_hhs_over_hgemm {
        let _ = writeln!(s, "  N = {n:>6}: {x:.1}x");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hhs_peak_near_paper() {
        // §VII: 155 TFLOPS peak for HHS, 88% of the §V one-GCD plateau.
        // Our simulator lands high (≈170, see EXPERIMENTS.md); assert the
        // shape: well above 100, below the 175 microbench plateau.
        let f = run(&DeviceRegistry::builtin());
        assert!(
            f.hhs.peak.tflops > 130.0 && f.hhs.peak.tflops < 176.0,
            "{}",
            f.hhs.peak.tflops
        );
        assert!(
            f.hhs.peak.n >= 4096 && f.hhs.peak.n <= 16384,
            "{}",
            f.hhs.peak.n
        );
    }

    #[test]
    fn hgemm_always_loses() {
        // §VII: "HGEMM ... is consistently outperformed by HSS and HHS
        // for all matrix sizes" (above the launch-bound regime).
        let f = run(&DeviceRegistry::builtin());
        for p in f.hgemm.points.iter().filter(|p| p.n >= 256) {
            let hhs = f.hhs.points.iter().find(|q| q.n == p.n).unwrap();
            let hss = f.hss.points.iter().find(|q| q.n == p.n).unwrap();
            assert!(hhs.tflops > p.tflops, "N={}", p.n);
            assert!(hss.tflops > p.tflops, "N={}", p.n);
        }
    }

    #[test]
    fn hhs_outperforms_hss_above_1024() {
        let f = run(&DeviceRegistry::builtin());
        for p in f.hhs.points.iter().filter(|p| p.n > 1024) {
            let hss = f.hss.points.iter().find(|q| q.n == p.n).unwrap();
            assert!(
                p.tflops >= hss.tflops * 0.98,
                "N={}: {} vs {}",
                p.n,
                p.tflops,
                hss.tflops
            );
        }
    }

    #[test]
    fn speedup_in_paper_band() {
        // §VII: 2.3x–7.5x Matrix Cores over SIMD in mixed precision.
        let f = run(&DeviceRegistry::builtin());
        let max = f
            .speedup_hhs_over_hgemm
            .iter()
            .map(|p| p.1)
            .fold(0.0, f64::max);
        let min = f
            .speedup_hhs_over_hgemm
            .iter()
            .map(|p| p.1)
            .fold(f64::MAX, f64::min);
        assert!(max > 5.0 && max < 10.0, "max {max}");
        assert!(min > 1.5 && min < 5.0, "min {min}");
    }

    #[test]
    fn hgemm_plateau_near_20_tflops() {
        let f = run(&DeviceRegistry::builtin());
        let big: Vec<f64> = f
            .hgemm
            .points
            .iter()
            .filter(|p| p.n >= 8192)
            .map(|p| p.tflops)
            .collect();
        let mean = big.iter().sum::<f64>() / big.len() as f64;
        assert!((mean - 20.0).abs() < 6.0, "{mean}");
    }
}
