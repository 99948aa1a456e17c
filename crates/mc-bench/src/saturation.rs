//! Extension experiment: empirical performance-saturation size.
//!
//! The paper's related work (ref. \[19], Eberius et al.) extends the
//! roofline with "a new metric of saturated problem size". Applied
//! here: for each GEMM routine, the smallest `N` at which throughput
//! reaches a target fraction of that routine's own peak — the practical
//! "how big must my matrices be before Matrix Cores pay off" number
//! application developers need.

use mc_blas::{BlasHandle, GemmDesc, GemmOp};
use mc_sim::{DeviceId, DeviceRegistry};
use serde::{Deserialize, Serialize};

/// One routine's saturation measurement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SaturationRow {
    /// Routine name.
    pub routine: String,
    /// Peak throughput over the sweep (TFLOPS).
    pub peak_tflops: f64,
    /// Smallest N reaching `target` × peak.
    pub saturation_n: usize,
    /// Throughput at half the saturation size (how steep the ramp is).
    pub half_size_fraction: f64,
}

/// The saturation survey.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Saturation {
    /// Target fraction of peak.
    pub target: f64,
    /// One row per routine.
    pub rows: Vec<SaturationRow>,
}

/// Runs the survey at a target fraction of each routine's peak: the
/// routines in parallel, each on its own handle.
pub fn run(devices: &DeviceRegistry, target: f64) -> Saturation {
    let sizes: Vec<usize> = (4..=13).map(|p| 1usize << p).collect(); // 16..8192

    let rows = crate::experiment::par_map(
        devices.trace_sink().is_none(),
        GemmOp::PAPER.to_vec(),
        |op| {
            let mut handle = BlasHandle::from_registry(devices, DeviceId::Mi250xGcd);
            let points: Vec<(usize, f64)> = sizes
                .iter()
                .map(|&n| {
                    (
                        n,
                        handle
                            .gemm_timed(&GemmDesc::square(op, n))
                            .expect("fits")
                            .tflops,
                    )
                })
                .collect();
            let peak = points.iter().map(|p| p.1).fold(0.0, f64::max);
            let saturation_n = points
                .iter()
                .find(|(_, t)| *t >= target * peak)
                .map(|(n, _)| *n)
                .expect("peak itself satisfies the target");
            let half = points
                .iter()
                .find(|(n, _)| *n * 2 == saturation_n)
                .map(|(_, t)| t / peak)
                .unwrap_or(0.0);
            SaturationRow {
                routine: op.routine().to_owned(),
                peak_tflops: peak,
                saturation_n,
                half_size_fraction: half,
            }
        },
    );

    Saturation { target, rows }
}

/// The saturation survey as a registered experiment (90% target).
pub struct SaturationExperiment;

impl crate::experiment::Experiment for SaturationExperiment {
    fn id(&self) -> &'static str {
        "saturation"
    }

    fn title(&self) -> &'static str {
        "Extension — empirical saturation size"
    }

    fn device(&self) -> &'static str {
        "mi250x-gcd"
    }

    fn execute(&self, ctx: &crate::experiment::RunContext) -> (serde::Value, String) {
        let s = run(&ctx.devices, 0.9);
        (serde_json::to_value(&s), render(&s))
    }
}

/// Renders the survey as text.
pub fn render(s: &Saturation) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "Extension: empirical saturation size (smallest N at {:.0}% of each routine's peak)\n",
        s.target * 100.0
    );
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>14} {:>18}",
        "routine", "peak (TF)", "saturation N", "at half that N"
    );
    for r in &s.rows {
        let _ = writeln!(
            out,
            "{:<8} {:>12.1} {:>14} {:>17.0}%",
            r.routine,
            r.peak_tflops,
            r.saturation_n,
            r.half_size_fraction * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_sizes_are_reasonable() {
        let s = run(&DeviceRegistry::builtin(), 0.9);
        let row = |r: &str| s.rows.iter().find(|x| x.routine == r).unwrap();
        // The 90%-of-peak points for the matrix-core routines land in
        // the multi-thousand range (Fig. 6/7's rising flanks).
        for routine in ["sgemm", "dgemm", "hhs", "hss"] {
            let n = row(routine).saturation_n;
            assert!((2048..=8192).contains(&n), "{routine}: {n}");
        }
    }

    #[test]
    fn hgemm_saturates_earlier_at_a_lower_peak() {
        // The SIMD path has a far lower roof, so it saturates sooner.
        let s = run(&DeviceRegistry::builtin(), 0.9);
        let hgemm = s.rows.iter().find(|x| x.routine == "hgemm").unwrap();
        let hhs = s.rows.iter().find(|x| x.routine == "hhs").unwrap();
        assert!(hgemm.peak_tflops < hhs.peak_tflops / 4.0);
        assert!(hgemm.saturation_n <= hhs.saturation_n);
    }

    #[test]
    fn ramp_is_steep_below_saturation() {
        let s = run(&DeviceRegistry::builtin(), 0.9);
        for r in &s.rows {
            // At half the saturation size, throughput is well below target.
            assert!(
                r.half_size_fraction < 0.9,
                "{}: {}",
                r.routine,
                r.half_size_fraction
            );
        }
    }
}
