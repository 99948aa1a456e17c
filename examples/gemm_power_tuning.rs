//! Power-aware precision selection for a GEMM-dominated workload —
//! the paper's §VI guidance turned into a tool.
//!
//! Given a target problem size, runs the workload in every precision the
//! library offers, samples package power through the SMI interface, and
//! reports throughput, average power, energy to solution, and
//! GFLOPS/W — showing the paper's 4×/8× power-saving opportunity when
//! stepping from double to single to mixed precision.
//!
//! ```sh
//! cargo run --example gemm_power_tuning [N]
//! ```

use amd_matrix_cores::blas::{BlasHandle, GemmDesc, GemmOp};
use amd_matrix_cores::power::sampler::SmiSampler;
use amd_matrix_cores::power::{gflops_per_watt, SamplerConfig};
use amd_matrix_cores::sim::{sample_stats, DeviceId, DeviceRegistry, Smi};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("N must be an integer"))
        .unwrap_or(8192);

    let mut handle = BlasHandle::from_registry(&DeviceRegistry::builtin(), DeviceId::Mi250xGcd);
    println!("precision survey for {n}x{n}x{n} GEMM on one MI250X GCD\n");
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "routine", "TFLOPS", "avg W", "energy (J)", "GFLOPS/W", "samples"
    );

    let mut rows = Vec::new();
    for op in [
        GemmOp::Dgemm,
        GemmOp::Sgemm,
        GemmOp::Hss,
        GemmOp::Hhs,
        GemmOp::Hgemm,
    ] {
        let desc = GemmDesc::square(op, n);
        let perf = match handle.gemm_timed(&desc) {
            Ok(p) => p,
            Err(e) => {
                println!("{:<8} skipped: {e}", op.routine());
                continue;
            }
        };
        // Sample the launch's power profile like the paper's tool does.
        // Kernels here are milliseconds long, so sample at 10 µs to get
        // a meaningful train (the methodology scales with kernel time).
        let noise = handle.gpu().config().telemetry_noise;
        let smi = Smi::attach(perf.package.profile.clone(), noise, n as u64);
        let samples = SmiSampler::record(
            smi,
            SamplerConfig {
                period_s: perf.time_s / 2000.0,
                min_samples: 100,
            },
        )
        .samples();
        let stats = sample_stats(&samples);
        let energy = stats.mean_w * perf.time_s;
        let eff = gflops_per_watt(perf.tflops, stats.mean_w);
        println!(
            "{:<8} {:>10.1} {:>10.1} {:>12.2} {:>12.0} {:>10}",
            op.routine(),
            perf.tflops,
            stats.mean_w,
            energy,
            eff,
            stats.count
        );
        rows.push((op, eff, energy));
    }

    if let (Some(d), Some(m)) = (
        rows.iter().find(|r| r.0 == GemmOp::Dgemm),
        rows.iter().find(|r| r.0 == GemmOp::Hhs),
    ) {
        println!(
            "\nmixed precision (HHS) delivers {:.1}x the power efficiency of DGEMM \
             ({:.1}x less energy to solution) — the §VI headline.",
            m.1 / d.1,
            d.2 / m.2
        );
    }
}
