//! Fig. 5 and the §VI analysis: package power consumption at increasing
//! Matrix Core throughput for the three datatypes, the recovered Eq. 3
//! linear models, idle power, peak powers, and power efficiency.
//!
//! Methodology follows §IV-C/§VI: one process per GCD (both dies run the
//! micro-benchmark in parallel), power sampled through the SMI interface
//! at 100 ms over the kernel lifetime, ≥1000 samples per point.

use mc_isa::cdna2_catalog;
use mc_power::{gflops_per_watt, PowerModel, SamplerConfig, SmiSampler};
use mc_sim::{throughput_run_all_dies, DeviceId, DeviceRegistry, Smi};
use mc_types::DType;
use serde::{Deserialize, Serialize};

/// One measured operating point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig5Point {
    /// Wavefronts per die.
    pub wavefronts_per_die: u64,
    /// Achieved package throughput in TFLOPS.
    pub tflops: f64,
    /// Mean sampled package power in watts.
    pub watts: f64,
    /// Number of power samples collected.
    pub samples: usize,
}

/// One datatype's power series with its recovered linear model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig5Series {
    /// Series label.
    pub label: String,
    /// Input datatype of the MFMA mix.
    pub dtype: DType,
    /// Operating points.
    pub points: Vec<Fig5Point>,
    /// Least-squares fit over the points (the Eq. 3 recovery).
    pub fitted_slope_w_per_tflops: f64,
    /// Fitted intercept in watts.
    pub fitted_intercept_w: f64,
    /// Fit quality.
    pub r_squared: f64,
    /// Peak power observed in the series.
    pub peak_watts: f64,
    /// Efficiency at the highest-throughput point, GFLOPS/W.
    pub peak_gflops_per_watt: f64,
}

/// The reproduced Fig. 5 + §VI summary.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig5 {
    /// One series per datatype (mixed, float, double).
    pub series: Vec<Fig5Series>,
    /// Package idle power (no kernel resident).
    pub idle_w: f64,
    /// Package power cap.
    pub power_cap_w: f64,
}

/// Regenerates Fig. 5. `iterations` controls kernel duration (the paper
/// runs each point long enough for ≥1000 samples at 100 ms).
///
/// The 27 operating points run as one parallel sweep, each on a fresh
/// MI250X: a point reads only its own launch's throughput and power
/// profile, and its SMI noise seed is fixed by its index in the
/// wavefront sweep.
pub fn run(devices: &DeviceRegistry, iterations: u64, sampler: SamplerConfig) -> Fig5 {
    let cfg = devices.config(DeviceId::Mi250x);
    let idle_w = cfg.package.idle_power_w;
    let power_cap_w = cfg.package.power_cap_w;
    let noise = cfg.telemetry_noise;
    let catalog = cdna2_catalog();

    let combos = [
        ("mixed", DType::F32, DType::F16, 16u32, 16u32, 16u32),
        ("float", DType::F32, DType::F32, 16, 16, 4),
        ("double", DType::F64, DType::F64, 16, 16, 4),
    ];

    let sweep = [4u64, 8, 16, 32, 64, 110, 220, 330, 440];

    let instrs = combos
        .map(|(_, cd, ab, m, n, k)| *catalog.find(cd, ab, m, n, k).expect("paper instruction"));
    let grid: Vec<(usize, usize, u64)> = (0..combos.len())
        .flat_map(|c| sweep.iter().enumerate().map(move |(idx, &wf)| (c, idx, wf)))
        .collect();
    let mut points =
        crate::experiment::par_map(devices.trace_sink().is_none(), grid, |(c, idx, wf)| {
            let mut gpu = devices.gpu(DeviceId::Mi250x);
            let r = throughput_run_all_dies(&mut gpu, &instrs[c], wf, iterations)
                .expect("power benchmark launch");
            let smi = Smi::attach(r.package.profile.clone(), noise, 0xF16_5EED ^ idx as u64);
            let stats = mc_sim::sample_stats(&SmiSampler::record(smi, sampler).samples());
            Fig5Point {
                wavefronts_per_die: wf,
                tflops: r.tflops,
                watts: stats.mean_w,
                samples: stats.count,
            }
        })
        .into_iter();

    let series = combos
        .into_iter()
        .map(|(label, _, ab, ..)| {
            let points: Vec<Fig5Point> = points.by_ref().take(sweep.len()).collect();
            let fit_pts: Vec<(f64, f64)> = points.iter().map(|p| (p.tflops, p.watts)).collect();
            let (model, fit) = PowerModel::fit(ab, &fit_pts).expect("enough points for a fit");
            let top = points.last().expect("non-empty sweep");
            Fig5Series {
                label: label.to_owned(),
                dtype: ab,
                peak_watts: points.iter().map(|p| p.watts).fold(0.0, f64::max),
                peak_gflops_per_watt: gflops_per_watt(top.tflops, top.watts),
                points,
                fitted_slope_w_per_tflops: model.slope_w_per_tflops,
                fitted_intercept_w: model.intercept_w,
                r_squared: fit.r_squared,
            }
        })
        .collect();

    Fig5 {
        series,
        idle_w,
        power_cap_w,
    }
}

/// Fig. 5 as a registered experiment.
pub struct Fig5Experiment;

impl crate::experiment::Experiment for Fig5Experiment {
    fn id(&self) -> &'static str {
        "fig5"
    }

    fn title(&self) -> &'static str {
        "Fig. 5 — power vs throughput + Eq. 3 + efficiency"
    }

    fn device(&self) -> &'static str {
        "mi250x"
    }

    fn checks(&self) -> Vec<crate::experiment::Check> {
        use crate::experiment::Check;
        vec![
            Check::new(
                "fig5/double slope (W/TFLOPS)",
                5.88,
                0.08,
                "/series/2/fitted_slope_w_per_tflops",
            ),
            Check::new(
                "fig5/float slope (W/TFLOPS)",
                2.18,
                0.08,
                "/series/1/fitted_slope_w_per_tflops",
            ),
            Check::new(
                "fig5/mixed slope (W/TFLOPS)",
                0.61,
                0.10,
                "/series/0/fitted_slope_w_per_tflops",
            ),
            Check::new("fig5/idle power (W)", 88.0, 0.001, "/idle_w"),
            Check::new(
                "fig5/double peak power (W)",
                541.0,
                0.02,
                "/series/2/peak_watts",
            ),
            Check::new(
                "fig5/mixed efficiency (GFLOPS/W)",
                1020.0,
                0.10,
                "/series/0/peak_gflops_per_watt",
            ),
            Check::new(
                "fig5/float efficiency (GFLOPS/W)",
                273.0,
                0.10,
                "/series/1/peak_gflops_per_watt",
            ),
            Check::new(
                "fig5/double efficiency (GFLOPS/W)",
                127.0,
                0.10,
                "/series/2/peak_gflops_per_watt",
            ),
        ]
    }

    fn execute(&self, ctx: &crate::experiment::RunContext) -> (serde::Value, String) {
        let f = run(&ctx.devices, ctx.budgets.power_iters, ctx.sampler);
        (serde_json::to_value(&f), render(&f))
    }
}

/// Renders the figure data and §VI summary as text.
pub fn render(f: &Fig5) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "Fig. 5: package power vs throughput (idle {} W, cap {} W)\n",
        f.idle_w, f.power_cap_w
    );
    for series in &f.series {
        let _ = writeln!(s, "-- {} --", series.label);
        let _ = writeln!(
            s,
            "{:>10} {:>10} {:>10} {:>9}",
            "waves/die", "TFLOPS", "watts", "samples"
        );
        for p in &series.points {
            let _ = writeln!(
                s,
                "{:>10} {:>10.1} {:>10.1} {:>9}",
                p.wavefronts_per_die, p.tflops, p.watts, p.samples
            );
        }
        let _ = writeln!(
            s,
            "fit: PC = {:.2}*Th + {:.1}  (R2 = {:.4}); peak {:.0} W; {:.0} GFLOPS/W",
            series.fitted_slope_w_per_tflops,
            series.fitted_intercept_w,
            series.r_squared,
            series.peak_watts,
            series.peak_gflops_per_watt
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig5 {
        // Long simulated kernels are free; keep ≥1000 samples authentic
        // (~113 s of simulated kernel time per point at 100 ms period).
        run(
            &DeviceRegistry::builtin(),
            6_000_000_000,
            SamplerConfig::default(),
        )
    }

    #[test]
    fn recovered_eq3_matches_paper_coefficients() {
        let f = quick();
        let by = |l: &str| f.series.iter().find(|s| s.label == l).unwrap();
        // Paper Eq. 3: 5.88/2.18/0.61 slopes, 123–130 W intercepts.
        let d = by("double");
        assert!(
            (d.fitted_slope_w_per_tflops - 5.88).abs() < 0.45,
            "{}",
            d.fitted_slope_w_per_tflops
        );
        assert!(
            (d.fitted_intercept_w - 126.0).abs() < 8.0,
            "{}",
            d.fitted_intercept_w
        );
        let s = by("float");
        assert!(
            (s.fitted_slope_w_per_tflops - 2.18).abs() < 0.2,
            "{}",
            s.fitted_slope_w_per_tflops
        );
        let m = by("mixed");
        assert!(
            (m.fitted_slope_w_per_tflops - 0.61).abs() < 0.08,
            "{}",
            m.fitted_slope_w_per_tflops
        );
        assert!(d.r_squared > 0.99 && s.r_squared > 0.99 && m.r_squared > 0.99);
    }

    #[test]
    fn double_approaches_the_cap_others_do_not() {
        let f = quick();
        let by = |l: &str| f.series.iter().find(|s| s.label == l).unwrap();
        // §VI: double reaches 541 W, near the 560 W cap; float/mixed
        // stay around 320-340 W.
        assert!(
            (by("double").peak_watts - 541.0).abs() < 8.0,
            "{}",
            by("double").peak_watts
        );
        assert!(by("float").peak_watts < 360.0);
        assert!(by("mixed").peak_watts < 360.0);
        assert!(f.series.iter().all(|s| s.peak_watts < f.power_cap_w));
    }

    #[test]
    fn efficiency_matches_section6() {
        let f = quick();
        let by = |l: &str| f.series.iter().find(|s| s.label == l).unwrap();
        // 1020 / 273 / 127 GFLOPS/W (±10%).
        assert!(
            (by("mixed").peak_gflops_per_watt - 1020.0).abs() < 100.0,
            "{}",
            by("mixed").peak_gflops_per_watt
        );
        assert!(
            (by("float").peak_gflops_per_watt - 273.0).abs() < 27.0,
            "{}",
            by("float").peak_gflops_per_watt
        );
        assert!(
            (by("double").peak_gflops_per_watt - 127.0).abs() < 13.0,
            "{}",
            by("double").peak_gflops_per_watt
        );
    }

    #[test]
    fn every_point_has_enough_samples() {
        let f = quick();
        for series in &f.series {
            for p in &series.points {
                assert!(
                    p.samples >= 1000,
                    "{} at {} waves: {}",
                    series.label,
                    p.wavefronts_per_die,
                    p.samples
                );
            }
        }
    }

    #[test]
    fn idle_power_is_88w() {
        assert_eq!(quick().idle_w, 88.0);
    }
}
