//! Fig. 8: the ratio of floating-point operations delivered by Matrix
//! Cores in rocBLAS GEMM routines, derived from hardware counters via
//! Eq. 1 (§IV-B), at increasing matrix sizes.

use mc_blas::{BlasHandle, GemmDesc, GemmOp};
use mc_model::profiler::{matrix_core_ratio, ProfilerSession};
use mc_sim::{DeviceId, DeviceRegistry};
use serde::{Deserialize, Serialize};

use crate::gemm_sweep_sizes;

/// One routine's ratio series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RatioSeries {
    /// Routine name.
    pub routine: String,
    /// `(N, Matrix Core FLOP fraction)` points.
    pub points: Vec<(usize, f64)>,
}

/// The reproduced Fig. 8.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig8 {
    /// One series per routine.
    pub series: Vec<RatioSeries>,
}

/// Regenerates Fig. 8 using counter-capture sessions around each launch.
pub fn run(devices: &DeviceRegistry) -> Fig8 {
    let mut handle = BlasHandle::from_registry(devices, DeviceId::Mi250xGcd);
    let series = GemmOp::PAPER
        .iter()
        .map(|&op| {
            let max_n = handle.max_square_n(op).min(16384);
            let points = gemm_sweep_sizes(max_n)
                .into_iter()
                .map(|n| {
                    let session =
                        ProfilerSession::begin(handle.gpu(), handle.die()).expect("valid die");
                    handle
                        .gemm_timed(&GemmDesc::square(op, n))
                        .expect("problem fits");
                    let counters = session.end(handle.gpu()).expect("valid die");
                    (n, matrix_core_ratio(&counters))
                })
                .collect();
            RatioSeries {
                routine: op.routine().to_owned(),
                points,
            }
        })
        .collect();
    Fig8 { series }
}

/// Fig. 8 as a registered experiment.
pub struct Fig8Experiment;

impl crate::experiment::Experiment for Fig8Experiment {
    fn id(&self) -> &'static str {
        "fig8"
    }

    fn title(&self) -> &'static str {
        "Fig. 8 — Matrix Core FLOP ratio vs N"
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
pub fn render(f: &Fig8) -> String {
    use std::fmt::Write as _;
    let mut s =
        String::from("Fig. 8: fraction of FLOPs delivered by Matrix Cores (from Eq. 1 counters)\n");
    let _ = write!(s, "{:>8}", "N");
    for g in &f.series {
        let _ = write!(s, " {:>8}", g.routine);
    }
    s.push('\n');
    let ns: Vec<usize> = f.series[0].points.iter().map(|p| p.0).collect();
    for (i, n) in ns.iter().enumerate() {
        let _ = write!(s, "{n:>8}");
        for g in &f.series {
            match g.points.get(i) {
                Some((pn, r)) if pn == n => {
                    let _ = write!(s, " {:>7.1}%", r * 100.0);
                }
                _ => {
                    let _ = write!(s, " {:>8}", "-");
                }
            }
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::profiler::uses_matrix_cores;

    fn series<'a>(f: &'a Fig8, routine: &str) -> &'a RatioSeries {
        f.series.iter().find(|s| s.routine == routine).unwrap()
    }

    #[test]
    fn hgemm_ratio_is_zero_everywhere() {
        // §VII: "HGEMM does not utilize Matrix Cores at all".
        let f = run(&DeviceRegistry::builtin());
        assert!(series(&f, "hgemm").points.iter().all(|(_, r)| *r == 0.0));
    }

    #[test]
    fn mixed_ops_skip_matrix_cores_only_at_16() {
        // §VII: "HHS and HSS do not utilize Matrix Cores for the
        // smallest N = 16 matrix".
        let f = run(&DeviceRegistry::builtin());
        for routine in ["hhs", "hss"] {
            let s = series(&f, routine);
            assert_eq!(s.points[0], (16, 0.0), "{routine} at 16");
            for (n, r) in s.points.iter().skip(1) {
                assert!(*r > 0.9, "{routine} at {n}: {r}");
            }
        }
    }

    #[test]
    fn ratios_exceed_90_then_99_percent() {
        // Fig. 8: >90% for N>16 and >99% sustained for N>256, for
        // DGEMM/SGEMM/HHS/HSS.
        let f = run(&DeviceRegistry::builtin());
        for routine in ["sgemm", "dgemm", "hhs", "hss"] {
            let s = series(&f, routine);
            for (n, r) in &s.points {
                if *n > 16 {
                    assert!(*r > 0.90, "{routine} at {n}: {r}");
                }
                if *n > 256 {
                    assert!(*r > 0.99, "{routine} at {n}: {r}");
                }
            }
        }
    }

    #[test]
    fn sgemm_dgemm_use_matrix_cores_at_16() {
        let f = run(&DeviceRegistry::builtin());
        for routine in ["sgemm", "dgemm"] {
            let (n, r) = series(&f, routine).points[0];
            assert_eq!(n, 16);
            assert!(r > 0.85, "{routine}: {r}");
        }
    }

    #[test]
    fn counter_presence_test_matches_ratio() {
        // §IV-B: non-zero MFMA counters <=> Matrix Cores used.
        let mut handle = BlasHandle::from_registry(&DeviceRegistry::builtin(), DeviceId::Mi250xGcd);
        let session = ProfilerSession::begin(handle.gpu(), handle.die()).unwrap();
        handle
            .gemm_timed(&GemmDesc::square(GemmOp::Hgemm, 512))
            .unwrap();
        let c = session.end(handle.gpu()).unwrap();
        assert!(!uses_matrix_cores(&c));
        let session = ProfilerSession::begin(handle.gpu(), handle.die()).unwrap();
        handle
            .gemm_timed(&GemmDesc::square(GemmOp::Hss, 512))
            .unwrap();
        let c = session.end(handle.gpu()).unwrap();
        assert!(uses_matrix_cores(&c));
    }
}
