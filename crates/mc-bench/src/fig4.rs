//! Fig. 4: achieved floating-point throughput on MI250X Matrix Cores
//! (whole package, both GCDs in parallel) vs A100 Tensor Cores, for the
//! four type combinations of Table I.

use mc_isa::{ampere_catalog, cdna2_catalog};
use mc_sim::{throughput_run_all_dies, DeviceId, DeviceRegistry};
use mc_types::DType;
use serde::{Deserialize, Serialize};

/// One bar group of Fig. 4.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig4Row {
    /// Type-combination label.
    pub types: String,
    /// MI250X measured TFLOPS (both GCDs); `None` when unsupported.
    pub mi250x_tflops: Option<f64>,
    /// MI250X theoretical peak TFLOPS.
    pub mi250x_peak: Option<f64>,
    /// A100 measured TFLOPS; `None` when unsupported.
    pub a100_tflops: Option<f64>,
    /// A100 theoretical peak TFLOPS.
    pub a100_peak: Option<f64>,
}

/// The reproduced Fig. 4 plus the §V-C headline comparisons.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig4 {
    /// One row per type combination.
    pub rows: Vec<Fig4Row>,
    /// FP64 advantage of MI250X over A100 (the paper's 3.5×).
    pub fp64_advantage: f64,
}

/// Regenerates Fig. 4.
pub fn run(devices: &DeviceRegistry, iterations: u64) -> Fig4 {
    let amd_cat = cdna2_catalog();
    let nv_cat = ampere_catalog();

    let combos: Vec<(&str, DType, DType)> = vec![
        ("FP64 <- FP64", DType::F64, DType::F64),
        ("FP32 <- FP32", DType::F32, DType::F32),
        ("FP32 <- FP16", DType::F32, DType::F16),
        ("FP16 <- FP16", DType::F16, DType::F16),
    ];

    // A row costs less than waking a pool worker: run inline.
    let rows: Vec<Fig4Row> = combos
        .into_iter()
        .map(|(label, cd, ab)| {
            let amd_instr = amd_cat.best_for_types(cd, ab);
            let nv_instr = nv_cat.best_for_types(cd, ab);

            let (mi250x_tflops, mi250x_peak) = match amd_instr {
                Some(i) => {
                    let mut amd = devices.gpu(DeviceId::Mi250x);
                    let waves = u64::from(amd.spec().die.total_matrix_units());
                    let r = throughput_run_all_dies(&mut amd, i, waves, iterations)
                        .expect("AMD launch");
                    (
                        Some(r.tflops),
                        Some(amd.spec().peak_flops(i.flops_per_cu_per_cycle()) / 1e12),
                    )
                }
                None => (None, None),
            };
            let (a100_tflops, a100_peak) = match nv_instr {
                Some(i) => {
                    let mut nv = devices.gpu(DeviceId::A100);
                    let waves = u64::from(nv.spec().die.total_matrix_units());
                    let r =
                        throughput_run_all_dies(&mut nv, i, waves, iterations).expect("NV launch");
                    (
                        Some(r.tflops),
                        Some(nv.spec().peak_flops(i.flops_per_cu_per_cycle()) / 1e12),
                    )
                }
                None => (None, None),
            };
            Fig4Row {
                types: label.to_owned(),
                mi250x_tflops,
                mi250x_peak,
                a100_tflops,
                a100_peak,
            }
        })
        .collect();

    let fp64 = &rows[0];
    let fp64_advantage = fp64.mi250x_tflops.unwrap() / fp64.a100_tflops.unwrap();
    Fig4 {
        rows,
        fp64_advantage,
    }
}

/// Fig. 4 as a registered experiment.
pub struct Fig4Experiment;

impl crate::experiment::Experiment for Fig4Experiment {
    fn id(&self) -> &'static str {
        "fig4"
    }

    fn title(&self) -> &'static str {
        "Fig. 4 — MI250X vs A100 peak throughput"
    }

    fn device(&self) -> &'static str {
        "mi250x+a100"
    }

    fn checks(&self) -> Vec<crate::experiment::Check> {
        use crate::experiment::Check;
        vec![
            Check::new(
                "fig4/MI250X mixed (TFLOPS)",
                350.0,
                0.03,
                "/rows/2/mi250x_tflops",
            ),
            Check::new(
                "fig4/MI250X float (TFLOPS)",
                88.0,
                0.04,
                "/rows/1/mi250x_tflops",
            ),
            Check::new(
                "fig4/MI250X double (TFLOPS)",
                69.0,
                0.05,
                "/rows/0/mi250x_tflops",
            ),
            Check::new(
                "fig4/A100 mixed (TFLOPS)",
                290.0,
                0.02,
                "/rows/2/a100_tflops",
            ),
            Check::new(
                "fig4/A100 double (TFLOPS)",
                19.4,
                0.02,
                "/rows/0/a100_tflops",
            ),
            Check::new("fig4/FP64 advantage (x)", 3.5, 0.08, "/fp64_advantage"),
        ]
    }

    fn execute(&self, ctx: &crate::experiment::RunContext) -> (serde::Value, String) {
        let f = run(&ctx.devices, ctx.budgets.tput_iters);
        (serde_json::to_value(&f), render(&f))
    }
}

/// Renders the figure data as text.
pub fn render(f: &Fig4) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("Fig. 4: peak measured throughput, MI250X (2 GCDs) vs A100, TFLOPS\n");
    let _ = writeln!(
        s,
        "{:<16} {:>10} {:>8} {:>10} {:>8}",
        "types", "MI250X", "(peak)", "A100", "(peak)"
    );
    let fmt = |x: Option<f64>| x.map_or("x".to_owned(), |v| format!("{v:.1}"));
    for r in &f.rows {
        let _ = writeln!(
            s,
            "{:<16} {:>10} {:>8} {:>10} {:>8}",
            r.types,
            fmt(r.mi250x_tflops),
            fmt(r.mi250x_peak),
            fmt(r.a100_tflops),
            fmt(r.a100_peak)
        );
    }
    let _ = writeln!(
        s,
        "FP64 Matrix-Core advantage: {:.1}x (paper: 3.5x)",
        f.fp64_advantage
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices() -> DeviceRegistry {
        DeviceRegistry::builtin()
    }

    #[test]
    fn headline_numbers_match_paper() {
        // §V-C: AMD 350/88/69 TFLOPS (mixed/float/double), A100 290/19.4.
        let f = run(&devices(), 100_000);
        let row = |t: &str| f.rows.iter().find(|r| r.types == t).unwrap();

        let mixed = row("FP32 <- FP16");
        assert!((mixed.mi250x_tflops.unwrap() - 350.0).abs() < 7.0);
        assert!((mixed.a100_tflops.unwrap() - 290.0).abs() < 5.0);

        let double = row("FP64 <- FP64");
        assert!(
            (double.mi250x_tflops.unwrap() - 69.0).abs() < 3.0,
            "got {:?}",
            double.mi250x_tflops
        );
        assert!((double.a100_tflops.unwrap() - 19.4).abs() < 0.4);

        let single = row("FP32 <- FP32");
        assert!((single.mi250x_tflops.unwrap() - 88.0).abs() < 3.0);
        assert!(single.a100_tflops.is_none(), "A100 has no FP32 tensor path");

        let half = row("FP16 <- FP16");
        assert!(half.mi250x_tflops.is_none(), "CDNA2 has no FP16<-FP16");
        assert!(half.a100_tflops.unwrap() > 280.0);
    }

    #[test]
    fn fp64_advantage_about_3_5x() {
        let f = run(&devices(), 100_000);
        assert!(
            (f.fp64_advantage - 3.55).abs() < 0.3,
            "got {}",
            f.fp64_advantage
        );
    }

    #[test]
    fn amd_wins_three_of_four() {
        let f = run(&devices(), 50_000);
        let amd_wins = f
            .rows
            .iter()
            .filter(|r| match (r.mi250x_tflops, r.a100_tflops) {
                (Some(a), Some(n)) => a > n,
                (Some(_), None) => true,
                _ => false,
            })
            .count();
        assert_eq!(amd_wins, 3, "AMD outperforms in 3 of the 4 combos (§V-C)");
    }
}
