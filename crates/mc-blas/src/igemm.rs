//! Quantized INT8 GEMM — inference workloads on the `V_MFMA_I32_*_I8`
//! instructions (§II's machine-learning datatypes).
//!
//! Standard symmetric quantization: `A ≈ scale_a · A_q`,
//! `B ≈ scale_b · B_q` with `A_q, B_q ∈ i8`. The matrix units accumulate
//! exactly in INT32 — integer MACs never round — and the epilogue
//! dequantizes once: `D = scale_a·scale_b·(A_q·B_q) + β·C`, all on the
//! SIMD units in FP32. The only approximation in the whole pipeline is
//! the initial quantization of the inputs.

use crate::handle::{BlasHandle, GemmPerf};
use crate::types::{BlasError, GemmDesc, GemmOp};

/// A symmetric-quantized tensor: `values ≈ scale · q`.
#[derive(Clone, Debug, PartialEq)]
pub struct Quantized {
    /// The int8 payload, row-major.
    pub q: Vec<i8>,
    /// The dequantization scale.
    pub scale: f32,
}

/// Symmetrically quantizes an f32 slice to int8 (scale = max|x| / 127).
pub fn quantize(values: &[f32]) -> Quantized {
    let max = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
    let q = values
        .iter()
        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    Quantized { q, scale }
}

/// Dequantizes back to f32.
pub fn dequantize(q: &Quantized) -> Vec<f32> {
    q.q.iter().map(|&v| f32::from(v) * q.scale).collect()
}

/// Functional quantized GEMM: `D ← scale_a·scale_b·(A_q·B_q) + β·C`.
///
/// Integer accumulation is exact (the i32 accumulator cannot overflow
/// for k ≤ 2¹⁵ with i8 inputs); one FP32 rounding per output element.
#[allow(clippy::too_many_arguments)]
pub fn quantized_gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &Quantized,
    b: &Quantized,
    beta: f32,
    c: &[f32],
    d: &mut [f32],
) -> Result<(), BlasError> {
    let checks = [
        ("A", m * k, a.q.len()),
        ("B", k * n, b.q.len()),
        ("C", m * n, c.len()),
        ("D", m * n, d.len()),
    ];
    for (operand, required, provided) in checks {
        if provided < required {
            return Err(BlasError::BufferTooSmall {
                operand,
                required,
                provided,
            });
        }
    }
    // The i32 accumulation is order-free (exact integer MACs), so it
    // runs on the blocked parallel kernel; the single FP32 rounding per
    // element stays here in the dequantization epilogue.
    let mut acc = vec![0i32; m * n];
    mc_compute::gemm_i8(m, n, k, &a.q, &b.q, &mut acc)?;
    let dequant = a.scale * b.scale;
    for ((out, &sum), &cv) in d[..m * n].iter_mut().zip(&acc).zip(&c[..m * n]) {
        *out = dequant * sum as f32 + beta * cv;
    }
    Ok(())
}

impl BlasHandle {
    /// Quantized GEMM through the full pipeline: functional execution on
    /// host data plus the simulated launch on the INT8 Matrix Core path.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_quant8(
        &mut self,
        m: usize,
        n: usize,
        k: usize,
        a: &Quantized,
        b: &Quantized,
        beta: f32,
        c: &[f32],
        d: &mut [f32],
    ) -> Result<GemmPerf, BlasError> {
        quantized_gemm(m, n, k, a, b, beta, c, d)?;
        let desc = GemmDesc {
            alpha: f64::from(a.scale) * f64::from(b.scale),
            beta: f64::from(beta),
            ..GemmDesc::new(GemmOp::Quant8, m, n, k, 1.0, 0.0)
        };
        self.gemm_timed(&desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::select_strategy;

    #[test]
    fn quantize_roundtrip_within_one_step() {
        let values: Vec<f32> = (0..256).map(|i| (i as f32) / 10.0 - 12.8).collect();
        let q = quantize(&values);
        let back = dequantize(&q);
        for (orig, rec) in values.iter().zip(&back) {
            assert!(
                (orig - rec).abs() <= q.scale / 2.0 + 1e-6,
                "{orig} vs {rec}"
            );
        }
    }

    #[test]
    fn zero_input_quantizes_cleanly() {
        let q = quantize(&[0.0; 16]);
        assert_eq!(q.scale, 1.0);
        assert!(q.q.iter().all(|&v| v == 0));
    }

    #[test]
    fn integer_accumulation_is_exact() {
        // Small integers representable exactly in i8: the quantized GEMM
        // with scale 1 must equal the integer reference identically.
        let (m, n, k) = (32, 32, 32);
        let a = Quantized {
            q: (0..m * k).map(|i| ((i % 11) as i8) - 5).collect(),
            scale: 1.0,
        };
        let b = Quantized {
            q: (0..k * n).map(|i| ((i % 7) as i8) - 3).collect(),
            scale: 1.0,
        };
        let c = vec![0.0f32; m * n];
        let mut d = vec![0.0f32; m * n];
        quantized_gemm(m, n, k, &a, &b, 0.0, &c, &mut d).unwrap();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += i32::from(a.q[i * k + p]) * i32::from(b.q[p * n + j]);
                }
                assert_eq!(d[i * n + j], acc as f32, "({i},{j})");
            }
        }
    }

    #[test]
    fn quant8_plans_onto_int8_matrix_cores() {
        let desc = GemmDesc::square(GemmOp::Quant8, 1024);
        let s = select_strategy(&desc);
        match s {
            crate::planner::Strategy::MatrixCore { instr, .. } => {
                assert_eq!(instr.mnemonic(), "v_mfma_i32_16x16x16i8");
            }
            other => panic!("expected matrix-core strategy, got {other:?}"),
        }
    }

    #[test]
    fn quant8_throughput_matches_the_int8_rate_class() {
        // INT8 runs at the FP16-mixed rate (1024 ops/CU/cycle): the
        // quantized GEMM should land near the HHS curve.
        let mut h = BlasHandle::new_mi250x_gcd();
        let q8 = h
            .gemm_timed(&GemmDesc::square(GemmOp::Quant8, 8192))
            .unwrap()
            .tflops;
        let hhs = h
            .gemm_timed(&GemmDesc::square(GemmOp::Hhs, 8192))
            .unwrap()
            .tflops;
        assert!((q8 - hhs).abs() / hhs < 0.15, "{q8} vs {hhs}");
        // And the counters land in the INT8 MFMA bank.
        let perf = h
            .gemm_timed(&GemmDesc::square(GemmOp::Quant8, 512))
            .unwrap();
        assert!(perf.counters.mfma_mops_i8 > 0);
        assert_eq!(perf.counters.mfma_mops_f16, 0);
    }

    #[test]
    fn end_to_end_quantized_accuracy() {
        // Random-ish f32 problem: quantized result within quantization
        // error of the exact f32 product.
        let (m, n, k) = (64, 64, 64);
        let af: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 100) as f32) / 50.0 - 1.0)
            .collect();
        let bf: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 % 100) as f32) / 50.0 - 1.0)
            .collect();
        let a = quantize(&af);
        let b = quantize(&bf);
        let c = vec![0.0f32; m * n];
        let mut d = vec![0.0f32; m * n];
        let mut h = BlasHandle::new_mi250x_gcd();
        h.gemm_quant8(m, n, k, &a, &b, 0.0, &c, &mut d).unwrap();

        let mut max_err = 0.0f32;
        let mut max_mag = 0.0f32;
        for i in 0..m {
            for j in 0..n {
                let mut exact = 0.0f64;
                for p in 0..k {
                    exact += f64::from(af[i * k + p]) * f64::from(bf[p * n + j]);
                }
                max_err = max_err.max((d[i * n + j] - exact as f32).abs());
                max_mag = max_mag.max((exact as f32).abs());
            }
        }
        // Quantization noise: ~k·scale_a·scale_b·E[|q|] — a fraction of
        // a percent of the result magnitude for this well-scaled data.
        assert!(max_err / max_mag < 0.02, "{max_err} / {max_mag}");
    }
}
