//! Fig. 3: measured vs Eq. 2-predicted floating-point throughput on one
//! MI250X GCD at increasing wavefront counts, for the three
//! floating-point datatypes.

use mc_isa::cdna2_catalog;
use mc_model::ThroughputModel;
use mc_sim::{fig3_wavefront_sweep, throughput_run, DeviceId, DeviceRegistry};
use mc_types::DType;
use serde::{Deserialize, Serialize};

/// One measured/predicted point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig3Point {
    /// Wavefronts launched.
    pub wavefronts: u64,
    /// Measured TFLOPS.
    pub measured_tflops: f64,
    /// Eq. 2 model TFLOPS.
    pub model_tflops: f64,
}

/// One datatype's series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig3Series {
    /// Series label (`mixed`, `float`, `double`).
    pub label: String,
    /// Instruction mnemonic driving the series.
    pub mnemonic: String,
    /// Sweep points.
    pub points: Vec<Fig3Point>,
    /// Sustained plateau throughput (mean of ≥440-wavefront points).
    pub plateau_tflops: f64,
    /// Fraction of the Eq. 2 theoretical peak achieved at the plateau.
    pub fraction_of_peak: f64,
}

/// The reproduced Fig. 3.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig3 {
    /// One series per datatype.
    pub series: Vec<Fig3Series>,
    /// Iterations per wavefront.
    pub iterations: u64,
}

/// The (label, instruction) set the paper sweeps.
pub fn paper_series() -> Vec<(&'static str, DType, DType, u32, u32, u32)> {
    vec![
        ("mixed", DType::F32, DType::F16, 16, 16, 16),
        ("float", DType::F32, DType::F32, 16, 16, 4),
        ("double", DType::F64, DType::F64, 16, 16, 4),
    ]
}

/// Regenerates Fig. 3. The paper uses 10⁷ iterations per wavefront.
pub fn run(devices: &DeviceRegistry, iterations: u64) -> Fig3 {
    let sweep = fig3_wavefront_sweep();
    let catalog = cdna2_catalog();
    let die = devices.gpu(DeviceId::Mi250x).spec().die.clone();

    let series = paper_series()
        .into_iter()
        .map(|(label, cd, ab, m, n, k)| {
            let instr = *catalog.find(cd, ab, m, n, k).expect("paper instruction");
            let model = ThroughputModel::new(&instr, &die);
            // A point costs less than waking a pool worker: run inline.
            let points: Vec<Fig3Point> = sweep
                .iter()
                .map(|&wf| {
                    let mut gpu = devices.gpu(DeviceId::Mi250x);
                    let r = throughput_run(&mut gpu, 0, &instr, wf, iterations)
                        .expect("microbenchmark launch");
                    Fig3Point {
                        wavefronts: wf,
                        measured_tflops: r.tflops,
                        model_tflops: model.tflops(wf),
                    }
                })
                .collect();
            let plateau: Vec<f64> = points
                .iter()
                .filter(|p| p.wavefronts >= 440)
                .map(|p| p.measured_tflops)
                .collect();
            let plateau_tflops = plateau.iter().sum::<f64>() / plateau.len() as f64;
            Fig3Series {
                label: label.to_owned(),
                mnemonic: instr.mnemonic(),
                points,
                plateau_tflops,
                fraction_of_peak: plateau_tflops / (model.peak_flops() / 1e12),
            }
        })
        .collect();

    Fig3 { series, iterations }
}

/// Fig. 3 as a registered experiment.
pub struct Fig3Experiment;

impl crate::experiment::Experiment for Fig3Experiment {
    fn id(&self) -> &'static str {
        "fig3"
    }

    fn title(&self) -> &'static str {
        "Fig. 3 — throughput vs wavefronts + Eq. 2 model"
    }

    fn device(&self) -> &'static str {
        "mi250x-gcd"
    }

    fn checks(&self) -> Vec<crate::experiment::Check> {
        use crate::experiment::Check;
        vec![
            Check::new(
                "fig3/mixed plateau (TFLOPS)",
                175.0,
                0.03,
                "/series/0/plateau_tflops",
            ),
            Check::new(
                "fig3/float plateau (TFLOPS)",
                43.0,
                0.03,
                "/series/1/plateau_tflops",
            ),
            Check::new(
                "fig3/double plateau (TFLOPS)",
                41.0,
                0.03,
                "/series/2/plateau_tflops",
            ),
            Check::new(
                "fig3/mixed fraction of peak",
                0.92,
                0.02,
                "/series/0/fraction_of_peak",
            ),
            Check::new(
                "fig3/double fraction of peak",
                0.85,
                0.02,
                "/series/2/fraction_of_peak",
            ),
        ]
    }

    fn execute(&self, ctx: &crate::experiment::RunContext) -> (serde::Value, String) {
        let f = run(&ctx.devices, ctx.budgets.tput_iters);
        (serde_json::to_value(&f), render(&f))
    }
}

/// Renders the figure data as text.
pub fn render(f: &Fig3) -> String {
    use std::fmt::Write as _;
    let mut s = String::from(
        "Fig. 3: throughput vs wavefronts, one GCD (measured | Eq. 2 model), TFLOPS\n",
    );
    let _ = write!(s, "{:>10}", "waves");
    for series in &f.series {
        let _ = write!(s, " {:>22}", series.label);
    }
    s.push('\n');
    let npts = f.series[0].points.len();
    for i in 0..npts {
        let _ = write!(s, "{:>10}", f.series[0].points[i].wavefronts);
        for series in &f.series {
            let p = &series.points[i];
            let _ = write!(s, " {:>11.2} |{:>9.2}", p.measured_tflops, p.model_tflops);
        }
        s.push('\n');
    }
    for series in &f.series {
        let _ = writeln!(
            s,
            "plateau {:<8} {:6.1} TFLOPS = {:4.1}% of theoretical peak",
            series.label,
            series.plateau_tflops,
            series.fraction_of_peak * 100.0
        );
    }
    // The figure itself: measured series on a log-x chart, as in the paper.
    let chart = crate::plot::Chart {
        title: "Fig. 3 (measured)".to_owned(),
        x_label: "wavefronts".to_owned(),
        y_label: "TFLOPS".to_owned(),
        ..crate::plot::Chart::default()
    };
    let glyphs = ['m', 'f', 'd'];
    let plotted: Vec<crate::plot::Series> = f
        .series
        .iter()
        .zip(glyphs)
        .map(|(series, glyph)| crate::plot::Series {
            label: series.label.clone(),
            glyph,
            points: series
                .points
                .iter()
                .map(|p| (p.wavefronts as f64, p.measured_tflops))
                .collect(),
        })
        .collect();
    s.push_str(&crate::plot::render(&chart, &plotted));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices() -> DeviceRegistry {
        DeviceRegistry::builtin()
    }

    #[test]
    fn plateaus_match_paper() {
        // §V-B: 175 mixed / 43 float / 41 double TFLOPS sustained, at
        // 92 / 90 / 85 % of the theoretical peak.
        let f = run(&devices(), 100_000);
        let by = |l: &str| f.series.iter().find(|s| s.label == l).unwrap();
        assert!((by("mixed").plateau_tflops - 175.0).abs() < 4.0);
        assert!((by("float").plateau_tflops - 43.0).abs() < 1.0);
        assert!((by("double").plateau_tflops - 41.0).abs() < 1.0);
        assert!((by("mixed").fraction_of_peak - 0.92).abs() < 0.015);
        assert!((by("float").fraction_of_peak - 0.90).abs() < 0.015);
        assert!((by("double").fraction_of_peak - 0.85).abs() < 0.015);
    }

    #[test]
    fn linear_region_tracks_model() {
        let f = run(&devices(), 100_000);
        for series in &f.series {
            for p in series.points.iter().filter(|p| p.wavefronts <= 128) {
                let rel = (p.measured_tflops - p.model_tflops).abs() / p.model_tflops;
                assert!(rel < 0.08, "{} at {}: {rel}", series.label, p.wavefronts);
            }
        }
    }

    #[test]
    fn plateau_is_flat_beyond_saturation() {
        let f = run(&devices(), 100_000);
        for series in &f.series {
            let sat: Vec<f64> = series
                .points
                .iter()
                .filter(|p| p.wavefronts >= 440)
                .map(|p| p.measured_tflops)
                .collect();
            let (min, max) = sat
                .iter()
                .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            assert!((max - min) / max < 0.03, "{}: {min}..{max}", series.label);
        }
    }

    #[test]
    fn render_mentions_all_series() {
        let text = render(&run(&devices(), 10_000));
        for label in ["mixed", "float", "double"] {
            assert!(text.contains(label));
        }
    }
}
