//! Fig. 6: floating-point throughput of rocBLAS SGEMM and DGEMM for
//! `N×N×N` problems, N from 16 to the memory boundary (§VII).

use std::sync::Arc;

use mc_blas::{BlasHandle, GemmDesc, GemmOp};
use mc_lint::VerifyMemo;
use mc_sim::{DeviceId, DeviceRegistry};
use serde::{Deserialize, Serialize};

use crate::gemm_sweep_sizes;

/// One GEMM sweep point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GemmPoint {
    /// Matrix dimension N.
    pub n: usize,
    /// Achieved TFLOPS (useful FLOPs over wall time).
    pub tflops: f64,
    /// Kernel time in seconds.
    pub time_s: f64,
}

/// One routine's sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GemmSeries {
    /// Routine name.
    pub routine: String,
    /// Sweep points (ends at the memory boundary).
    pub points: Vec<GemmPoint>,
    /// Peak throughput and the N where it occurs.
    pub peak: GemmPoint,
}

/// The reproduced Fig. 6.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig6 {
    /// SGEMM series.
    pub sgemm: GemmSeries,
    /// DGEMM series.
    pub dgemm: GemmSeries,
}

/// Sweeps one routine across the paper's N range. Points are
/// independent problems, so they run in parallel on the rayon pool
/// (sequentially when the registry is feeding a trace timeline), each
/// on its own [`BlasHandle`]. The handles share one verification memo:
/// most sizes compile to one kernel shape.
pub fn sweep(devices: &DeviceRegistry, op: GemmOp) -> GemmSeries {
    let max_n = BlasHandle::from_registry(devices, DeviceId::Mi250xGcd).max_square_n(op);
    let sizes = gemm_sweep_sizes(max_n);
    let memo = Arc::new(VerifyMemo::new());
    let points: Vec<GemmPoint> =
        crate::experiment::par_map(devices.trace_sink().is_none(), sizes, |n| {
            let mut handle = BlasHandle::from_registry(devices, DeviceId::Mi250xGcd);
            handle.set_verify_memo(memo.clone());
            let perf = handle
                .gemm_timed(&GemmDesc::square(op, n))
                .expect("problem sized within memory");
            GemmPoint {
                n,
                tflops: perf.tflops,
                time_s: perf.time_s,
            }
        });
    let peak = *points
        .iter()
        .max_by(|a, b| a.tflops.total_cmp(&b.tflops))
        .expect("non-empty sweep");
    GemmSeries {
        routine: op.routine().to_owned(),
        points,
        peak,
    }
}

/// Regenerates Fig. 6.
pub fn run(devices: &DeviceRegistry) -> Fig6 {
    Fig6 {
        sgemm: sweep(devices, GemmOp::Sgemm),
        dgemm: sweep(devices, GemmOp::Dgemm),
    }
}

/// Fig. 6 as a registered experiment.
pub struct Fig6Experiment;

impl crate::experiment::Experiment for Fig6Experiment {
    fn id(&self) -> &'static str {
        "fig6"
    }

    fn title(&self) -> &'static str {
        "Fig. 6 — rocBLAS SGEMM/DGEMM vs N"
    }

    fn device(&self) -> &'static str {
        "mi250x-gcd"
    }

    fn checks(&self) -> Vec<crate::experiment::Check> {
        use crate::experiment::Check;
        vec![
            Check::new("fig6/SGEMM peak (TFLOPS)", 43.0, 0.05, "/sgemm/peak/tflops"),
            Check::new("fig6/SGEMM peak location (N)", 8192.0, 0.0, "/sgemm/peak/n"),
            Check::new("fig6/DGEMM peak location (N)", 4096.0, 0.0, "/dgemm/peak/n"),
            Check::new("fig6/DGEMM peak (TFLOPS)", 37.0, 0.15, "/dgemm/peak/tflops"),
        ]
    }

    fn execute(&self, ctx: &crate::experiment::RunContext) -> (serde::Value, String) {
        let f = run(&ctx.devices);
        (serde_json::to_value(&f), render(&f))
    }
}

/// Renders the figure data as text.
pub fn render(f: &Fig6) -> String {
    render_series(
        "Fig. 6: rocBLAS GEMM throughput (TFLOPS)",
        &[&f.sgemm, &f.dgemm],
    )
}

/// Shared renderer for GEMM sweeps (also used by Fig. 7).
pub fn render_series(title: &str, series: &[&GemmSeries]) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{title}\n");
    let _ = write!(s, "{:>8}", "N");
    for g in series {
        let _ = write!(s, " {:>10}", g.routine);
    }
    s.push('\n');
    let ns: Vec<usize> = series
        .iter()
        .flat_map(|g| g.points.iter().map(|p| p.n))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for n in ns {
        let _ = write!(s, "{n:>8}");
        for g in series {
            match g.points.iter().find(|p| p.n == n) {
                Some(p) => {
                    let _ = write!(s, " {:>10.2}", p.tflops);
                }
                None => {
                    let _ = write!(s, " {:>10}", "-");
                }
            }
        }
        s.push('\n');
    }
    for g in series {
        let _ = writeln!(
            s,
            "peak {:<6} {:.1} TFLOPS at N = {}",
            g.routine, g.peak.tflops, g.peak.n
        );
    }
    let chart = crate::plot::Chart {
        title: "(measured)".to_owned(),
        x_label: "N".to_owned(),
        y_label: "TFLOPS".to_owned(),
        ..crate::plot::Chart::default()
    };
    let glyphs = ['s', 'd', 'h', '+', 'x'];
    let plotted: Vec<crate::plot::Series> = series
        .iter()
        .zip(glyphs)
        .map(|(g, glyph)| crate::plot::Series {
            label: g.routine.clone(),
            glyph,
            points: g.points.iter().map(|p| (p.n as f64, p.tflops)).collect(),
        })
        .collect();
    s.push_str(&crate::plot::render(&chart, &plotted));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_match_paper() {
        // §VII: "a maximum of 43 TFLOPS in single-precision at N = 8192,
        // and 37 TFLOPS in double-precision at N = 4096".
        let f = run(&DeviceRegistry::builtin());
        assert_eq!(f.sgemm.peak.n, 8192, "SGEMM peak location");
        assert!(
            (f.sgemm.peak.tflops - 43.0).abs() < 3.0,
            "{}",
            f.sgemm.peak.tflops
        );
        assert_eq!(f.dgemm.peak.n, 4096, "DGEMM peak location");
        assert!(
            f.dgemm.peak.tflops > 28.0 && f.dgemm.peak.tflops < 41.0,
            "{}",
            f.dgemm.peak.tflops
        );
    }

    #[test]
    fn drops_after_peak_then_sgemm_recovers() {
        let f = run(&DeviceRegistry::builtin());
        let at = |s: &GemmSeries, n: usize| s.points.iter().find(|p| p.n == n).unwrap().tflops;
        // SGEMM drops at 16384 and recovers by 65000 (§VII).
        assert!(at(&f.sgemm, 16384) < 0.8 * at(&f.sgemm, 8192));
        assert!(at(&f.sgemm, 65000) > 0.9 * at(&f.sgemm, 8192));
        // DGEMM drops at 8192 (earlier than SGEMM — higher footprint).
        assert!(at(&f.dgemm, 8192) < 0.8 * at(&f.dgemm, 4096));
    }

    #[test]
    fn dgemm_sweep_stops_before_65000() {
        // 65000² doubles exceed one GCD's 64 GB (§VII sweeps "until
        // exhausting the GPU memory").
        let f = run(&DeviceRegistry::builtin());
        let last = f.dgemm.points.last().unwrap().n;
        assert_eq!(last, 32768, "largest grid point fitting 64 GB of doubles");
        assert_eq!(f.sgemm.points.last().unwrap().n, 65000);
    }

    #[test]
    fn near_peak_fraction_of_microbench_plateau() {
        // §VII: rocBLAS reaches ~100% (SGEMM) and ~90% (DGEMM) of the
        // Matrix Core peaks measured in §V (43 / 41 TFLOPS).
        let f = run(&DeviceRegistry::builtin());
        assert!(f.sgemm.peak.tflops / 43.0 > 0.9);
        assert!(f.dgemm.peak.tflops / 41.0 > 0.7);
    }

    #[test]
    fn small_n_is_slow() {
        let f = run(&DeviceRegistry::builtin());
        assert!(f.sgemm.points[0].tflops < 0.01, "N=16 is launch-bound");
    }
}
