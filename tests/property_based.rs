//! Property-based tests (proptest) over the core data structures and
//! invariants: soft-float correctness, register-map bijectivity, model
//! identities, planner accounting, and simulator monotonicity.

use amd_matrix_cores::blas::{plan_gemm, GemmDesc, GemmOp};
use amd_matrix_cores::isa::regmap::{element_location, lane_contents, ElementCoord, Operand};
use amd_matrix_cores::isa::{cdna2_catalog, KernelDesc, SlotOp, WaveProgram};
use amd_matrix_cores::model::{fit_linear, FlopDistribution};
use amd_matrix_cores::sim::{execute, SimConfig};
use amd_matrix_cores::types::{ulp_distance_f32, Bf16, DType, F16};
use proptest::prelude::*;

proptest! {
    /// f32 -> f16 -> f32 round-trips exactly for every value already
    /// representable in f16.
    #[test]
    fn f16_roundtrip_of_representable_values(bits in 0u16..=u16::MAX) {
        let h = F16::from_bits(bits);
        prop_assume!(!h.is_nan());
        let back = F16::from_f32(h.to_f32());
        prop_assert_eq!(back.to_bits(), bits);
    }

    /// Conversion to f16 is monotone: a <= b implies f16(a) <= f16(b).
    #[test]
    fn f16_conversion_is_monotone(a in -70000.0f32..70000.0, b in -70000.0f32..70000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (hlo, hhi) = (F16::from_f32(lo), F16::from_f32(hi));
        prop_assert!(hlo <= hhi, "{lo} -> {hlo:?}, {hi} -> {hhi:?}");
    }

    /// f16 rounding error is within half an ULP of the target format.
    #[test]
    fn f16_rounding_within_half_ulp(x in -60000.0f32..60000.0) {
        let h = F16::from_f32(x);
        let y = h.to_f32();
        // ULP of f16 at |x|: 2^(floor(log2 |x|) - 10), at least 2^-24.
        let exp = if x == 0.0 {
            -24
        } else {
            (x.abs().log2().floor() as i32 - 10).max(-24)
        };
        let ulp = 2.0f64.powi(exp);
        prop_assert!((f64::from(y) - f64::from(x)).abs() <= ulp / 2.0 + 1e-12,
            "{x} -> {y}");
    }

    /// f16 addition is commutative (no NaN inputs).
    #[test]
    fn f16_addition_commutes(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
        let (x, y) = (F16::from_f32(a), F16::from_f32(b));
        prop_assert_eq!((x + y).to_bits(), (y + x).to_bits());
    }

    /// bf16 conversion never moves a value past an adjacent bf16.
    #[test]
    fn bf16_conversion_is_monotone(a in -1e30f32..1e30, b in -1e30f32..1e30) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Bf16::from_f32(lo) <= Bf16::from_f32(hi));
    }

    /// ULP distance is symmetric and zero iff bitwise-equal (mod ±0).
    #[test]
    fn ulp_distance_symmetry(a in any::<f32>(), b in any::<f32>()) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        prop_assert_eq!(ulp_distance_f32(a, b), ulp_distance_f32(b, a));
        if ulp_distance_f32(a, b) == 0 {
            prop_assert!(a == b || (a == 0.0 && b == 0.0));
        }
    }

    /// Register mapping: random element coordinates always land in
    /// bounds and agree with the inverse (lane_contents) query.
    #[test]
    fn regmap_location_consistency(
        instr_idx in 0usize..27,
        row in 0u32..32,
        col in 0u32..32,
        block in 0u32..16,
    ) {
        let catalog = cdna2_catalog();
        let instr = &catalog.instructions()[instr_idx % catalog.instructions().len()];
        for operand in [Operand::A, Operand::B, Operand::C, Operand::D] {
            let coord = ElementCoord { block, row, col };
            match element_location(instr, operand, coord) {
                Ok(loc) => {
                    prop_assert!(loc.lane < 64);
                    let contents = lane_contents(instr, operand, loc.lane).unwrap();
                    prop_assert!(
                        contents.iter().any(|(c, l)| *c == coord && l == &loc),
                        "{} {operand}: {coord:?} missing from lane {}",
                        instr.mnemonic(), loc.lane
                    );
                }
                Err(_) => {
                    // Must be genuinely out of range for this operand.
                    let s = instr.shape;
                    let (rows, cols) = match operand {
                        Operand::A => (s.m, s.k),
                        Operand::B => (s.k, s.n),
                        _ => (s.m, s.n),
                    };
                    prop_assert!(block >= s.blocks || row >= rows || col >= cols);
                }
            }
        }
    }

    /// Planner accounting: kernel-program FLOPs always equal the
    /// closed-form plan FLOPs, for every op and size.
    #[test]
    fn planner_flop_accounting_consistent(
        op_idx in 0usize..5,
        n in 16usize..2048,
    ) {
        let op = GemmOp::ALL[op_idx];
        let die = amd_matrix_cores::isa::specs::mi250x().die;
        let plan = plan_gemm(&die, &GemmDesc::square(op, n)).unwrap();
        prop_assert_eq!(plan.kernel.total_mfma_flops(), plan.mfma_flops);
        prop_assert_eq!(
            plan.kernel.total_flops(),
            plan.mfma_flops + plan.simd_flops
        );
        // Coverage and padding bounds: at least the ideal work, at most
        // one macro-tile of padding in m/n and one k-step in k.
        let ideal = 2 * (n as u64).pow(3);
        if plan.strategy.uses_matrix_cores() {
            prop_assert!(plan.mfma_flops >= ideal, "under-covered: {} < {ideal}", plan.mfma_flops);
            let pad_mn = (n as u64).div_ceil(256) * 256;
            let pad_k = (n as u64).div_ceil(16) * 16;
            prop_assert!(plan.mfma_flops <= 2 * pad_mn * pad_mn * pad_k);
        }
    }

    /// The Fig. 9 model identity 2N³/3N² = (2/3)N holds for all N.
    #[test]
    fn flop_distribution_identity(n in 1u64..100_000) {
        let r = FlopDistribution::mc_to_simd_ratio(n);
        prop_assert!((r - 2.0 * n as f64 / 3.0).abs() < 1e-6 * r);
    }

    /// Least squares exactly recovers arbitrary non-degenerate lines.
    #[test]
    fn linear_fit_recovers_lines(
        slope in -100.0f64..100.0,
        intercept in -1000.0f64..1000.0,
    ) {
        let pts: Vec<(f64, f64)> =
            (0..10).map(|i| (i as f64, slope * i as f64 + intercept)).collect();
        let fit = fit_linear(&pts).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6 + slope.abs() * 1e-9);
        prop_assert!((fit.intercept - intercept).abs() < 1e-6 + intercept.abs() * 1e-9);
    }

    /// Simulator throughput is monotone non-decreasing in wavefronts
    /// below saturation, and kernel time is positive and finite.
    #[test]
    fn engine_monotonicity(waves_a in 1u64..440, waves_b in 1u64..440) {
        prop_assume!(waves_a < waves_b);
        let cfg = SimConfig::mi250x();
        let die = cfg.package.die.clone();
        let i = *cdna2_catalog().find(DType::F32, DType::F16, 16, 16, 16).unwrap();
        let mk = |w| KernelDesc {
            workgroups: w,
            waves_per_workgroup: 1,
            ..KernelDesc::new("k", WaveProgram::looped(vec![SlotOp::Mfma(i)], 10_000))
        };
        let ta = execute(&die, &cfg, &mk(waves_a)).unwrap();
        let tb = execute(&die, &cfg, &mk(waves_b)).unwrap();
        let ra = ta.flops as f64 / ta.time_s;
        let rb = tb.flops as f64 / tb.time_s;
        prop_assert!(ta.time_s.is_finite() && ta.time_s > 0.0);
        prop_assert!(rb >= ra * 0.999, "waves {waves_a}->{waves_b}: {ra} -> {rb}");
    }

    /// Machine-word round-trip over the full CDNA2 catalog: encoding
    /// any instruction with arbitrary registers and decoding the word
    /// recovers the instance bit-exactly, and corrupting any
    /// reserved/modifier bit of the word makes the decoder refuse it.
    #[test]
    fn mfma_encoding_roundtrips_and_rejects_reserved_bits(
        instr_idx in 0usize..27,
        reg_bits in any::<u64>(),
        acc_bits in 0u8..16,
        reserved_bit in 0u32..64,
    ) {
        use amd_matrix_cores::isa::encoding::{
            encode_instance, EncodeError, MfmaEncoding, Reg, RESERVED_MASK,
        };
        let catalog = cdna2_catalog();
        let instr = &catalog.instructions()[instr_idx % catalog.instructions().len()];
        // Four registers from the packed bits: one byte of register
        // number and one acc-file flag each. src0 (index 1) has no ACC
        // bit in the VOP3P-MAI format, so it always draws from the
        // architectural file.
        let reg = |i: u32| {
            let n = (reg_bits >> (8 * i)) as u8;
            if i != 1 && acc_bits >> i & 1 == 1 { Reg::A(n) } else { Reg::V(n) }
        };
        let enc = encode_instance(instr, reg(0), reg(1), reg(2), reg(3)).unwrap();
        let word = enc.to_u64();
        let back = MfmaEncoding::from_u64(word).unwrap();
        prop_assert_eq!(back, enc);
        prop_assert_eq!(back.to_u64(), word, "re-encode must be bit-identical");
        prop_assert_eq!(back.mnemonic(), instr.mnemonic());
        // The encoder must never touch the reserved/modifier bits…
        prop_assert_eq!(word & RESERVED_MASK, 0);
        // …and the decoder must reject a word with any of them set.
        let mask = 1u64 << reserved_bit;
        if RESERVED_MASK & mask != 0 {
            prop_assert!(matches!(
                MfmaEncoding::from_u64(word | mask),
                Err(EncodeError::ReservedBits { .. })
            ));
        }
    }

    /// Eq. 1 derivation is linear: counters of two merged launches give
    /// the sum of the individual derivations.
    #[test]
    fn eq1_is_additive(mops_a in 0u64..1_000_000, mops_b in 0u64..1_000_000,
                       fma_a in 0u64..1_000_000, fma_b in 0u64..1_000_000) {
        use amd_matrix_cores::model::flops::derived_total_flops;
        use amd_matrix_cores::sim::HwCounters;
        let a = HwCounters { mfma_mops_f64: mops_a, valu_fma_f64: fma_a, ..Default::default() };
        let b = HwCounters { mfma_mops_f64: mops_b, valu_fma_f64: fma_b, ..Default::default() };
        let merged = a.merged(&b);
        let da = derived_total_flops(&a);
        let db = derived_total_flops(&b);
        let dm = derived_total_flops(&merged);
        prop_assert_eq!(dm.matrix_core, da.matrix_core + db.matrix_core);
        prop_assert_eq!(dm.simd, da.simd + db.simd);
    }
}

proptest! {
    /// SYRK equals the GEMM reference on the lower triangle and leaves
    /// the upper triangle untouched, for arbitrary shapes and scalars.
    #[test]
    fn syrk_matches_gemm_lower_triangle(
        n in 1usize..40,
        k in 1usize..24,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
    ) {
        use amd_matrix_cores::blas::{syrk_functional, SyrkDesc};
        let desc = SyrkDesc { op: GemmOp::Dgemm, n, k, alpha, beta };
        let a: Vec<f64> = (0..n * k).map(|i| ((i * 7 % 13) as f64) / 13.0 - 0.5).collect();
        let c0: Vec<f64> = (0..n * n).map(|i| ((i * 5 % 11) as f64) - 5.0).collect();
        let mut c = c0.clone();
        syrk_functional::<f64, f64>(&desc, &a, &mut c).unwrap();
        let mut full = vec![0.0f64; n * n];
        amd_matrix_cores::blas::gemm_reference_f64(&desc.as_gemm(), &a, &a, &c0, &mut full)
            .unwrap();
        for i in 0..n {
            for j in 0..n {
                if j <= i {
                    prop_assert!((c[i * n + j] - full[i * n + j]).abs() < 1e-10);
                } else {
                    prop_assert_eq!(c[i * n + j], c0[i * n + j]);
                }
            }
        }
    }

    /// Quantization round-trips within half a scale step and never
    /// exceeds the i8 range.
    #[test]
    fn quantize_bounds(values in prop::collection::vec(-1e3f32..1e3, 1..128)) {
        use amd_matrix_cores::blas::{dequantize, quantize};
        let q = quantize(&values);
        prop_assert!(q.scale > 0.0);
        let back = dequantize(&q);
        for (orig, rec) in values.iter().zip(&back) {
            prop_assert!((orig - rec).abs() <= q.scale / 2.0 + 1e-5,
                "{orig} vs {rec} (scale {})", q.scale);
        }
    }

    /// Occupancy never exceeds hardware ceilings, and adding register
    /// pressure never increases it.
    #[test]
    fn occupancy_is_monotone_in_pressure(vgprs in 1u32..512, extra in 1u32..256) {
        use amd_matrix_cores::sim::occupancy;
        use amd_matrix_cores::isa::{KernelDesc, SlotOp, WaveProgram};
        let die = amd_matrix_cores::isa::specs::mi250x().die;
        let i = *cdna2_catalog().find(DType::F32, DType::F16, 16, 16, 16).unwrap();
        let mk = |v: u32| KernelDesc {
            arch_vgprs: v,
            workgroups: 100,
            waves_per_workgroup: 1,
            ..KernelDesc::new("o", WaveProgram::looped(vec![SlotOp::Mfma(i)], 1))
        };
        let light = occupancy(&die, &mk(vgprs));
        let heavy = occupancy(&die, &mk(vgprs.saturating_add(extra).min(512)));
        prop_assert!(light.waves_per_simd <= die.max_waves_per_simd);
        prop_assert!(heavy.waves_per_cu <= light.waves_per_cu);
        prop_assert!(light.fraction <= 1.0 && light.fraction >= 0.0);
    }
}

proptest! {
    /// Plan-search invariants over arbitrary descriptors: every
    /// searched winner passes the static verifier at error severity,
    /// is never slower than the static plan under the engine model,
    /// reproduces the §VII policy rules as outcomes, and round-trips
    /// through the plan-DB strategy record.
    #[test]
    fn searched_plans_lint_clean_and_never_lose(
        op_idx in 0usize..5,
        n in 1usize..400,
        scaled in any::<bool>(),
    ) {
        use amd_matrix_cores::blas::{select_plan, StrategyRecord};
        let op = [GemmOp::Sgemm, GemmOp::Dgemm, GemmOp::Hgemm, GemmOp::Hss, GemmOp::Hhs]
            [op_idx];
        let (alpha, beta) = if scaled { (0.5, 0.25) } else { (1.0, 0.0) };
        let desc = GemmDesc { alpha, beta, ..GemmDesc::square(op, n) };
        let cfg = SimConfig::mi250x();
        let die = cfg.package.die.clone();
        let out = select_plan(&die, &cfg, &desc).unwrap();

        // The winner compiled through the lint gate: re-linting finds
        // no error-severity issues.
        let report = amd_matrix_cores::lint::lint_kernel(&die, &out.plan.kernel);
        prop_assert!(!report.has_errors(), "{op} N={n}: {report:?}");

        // Selected never slower than static (the static plan is always
        // a dry-run finalist).
        prop_assert!(
            out.searched_time_s <= out.static_time_s,
            "{op} N={n}: searched {} vs static {}",
            out.searched_time_s,
            out.static_time_s
        );

        // §VII rule 1 (structural): HGEMM never uses the Matrix Cores.
        if op == GemmOp::Hgemm {
            prop_assert!(!out.plan.strategy.uses_matrix_cores());
        }
        // §VII rule 2 (scored): tiny scaled mixed-precision problems
        // stay on SIMD — the pipeline-handoff penalty beats one MFMA's
        // worth of Matrix Core work.
        if scaled && n <= 16 && matches!(op, GemmOp::Hss | GemmOp::Hhs) {
            prop_assert!(
                !out.plan.strategy.uses_matrix_cores(),
                "{op} N={n} must stay on SIMD"
            );
        }

        // The winning strategy survives the plan-DB record round-trip.
        let record = StrategyRecord::from_strategy(&out.plan.strategy);
        prop_assert_eq!(record.resolve(), Some(out.plan.strategy));
    }
}

/// Functional GEMM vs the f64 reference over random data: bounded
/// relative error per routine (deterministic seeds, full matrix check).
#[test]
fn random_gemm_error_bounds() {
    use amd_matrix_cores::blas::Strategy;
    use amd_matrix_cores::blas::{gemm_reference_f64, run_functional};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let n = 96;
    let mut rng = StdRng::seed_from_u64(7);
    let a64: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b64: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let c64: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let desc = GemmDesc {
        alpha: 0.75,
        beta: 0.5,
        ..GemmDesc::square(GemmOp::Sgemm, n)
    };
    let mut d_ref = vec![0.0f64; n * n];
    gemm_reference_f64(&desc, &a64, &b64, &c64, &mut d_ref).unwrap();

    // SGEMM path: f32 in/out.
    let a: Vec<f32> = a64.iter().map(|&x| x as f32).collect();
    let b: Vec<f32> = b64.iter().map(|&x| x as f32).collect();
    let c: Vec<f32> = c64.iter().map(|&x| x as f32).collect();
    let mut d = vec![0.0f32; n * n];
    let strat = Strategy::MatrixCore {
        instr: *cdna2_catalog()
            .find(DType::F32, DType::F32, 16, 16, 4)
            .unwrap(),
        macro_tile: (128, 128),
        wave_tile: (64, 64),
        k_step: 4,
        buffering: amd_matrix_cores::isa::Buffering::Double,
    };
    run_functional::<f32, f32, f32>(&desc, &strat, &a, &b, &c, &mut d).unwrap();
    for (got, want) in d.iter().zip(&d_ref) {
        assert!(
            (f64::from(*got) - want).abs() < 1e-4 + want.abs() * 1e-4,
            "{got} vs {want}"
        );
    }
}

proptest! {
    /// Streaming quantile estimates always land inside the bucket that
    /// holds the exact rank-order statistic (and inside the observed
    /// min/max), for arbitrary sample streams and quantiles.
    #[test]
    fn histogram_quantiles_are_bracketed_by_bucket_bounds(
        samples in prop::collection::vec(1e-7f64..50.0, 1..256),
        q in 0.0f64..1.0,
    ) {
        use amd_matrix_cores::trace::Histogram;
        let mut h = Histogram::latency_seconds();
        for &s in &samples {
            h.record(s);
        }
        let est = h.quantile(q).unwrap();

        // The exact order statistic the estimate targets.
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        let exact = sorted[rank - 1];

        // Bounds of the bucket holding that sample.
        let bucket = h.bounds().iter().position(|b| exact <= *b);
        let upper = bucket
            .map(|i| h.bounds()[i])
            .unwrap_or(h.max().unwrap());
        let lower = match bucket {
            Some(0) | None => h.min().unwrap(),
            Some(i) => h.bounds()[i - 1].min(upper),
        };
        prop_assert!(
            est >= lower.min(h.min().unwrap()) && est <= upper.max(lower),
            "q={q}: estimate {est} outside bucket [{lower}, {upper}] of exact {exact}"
        );
        prop_assert!(est >= h.min().unwrap() && est <= h.max().unwrap());
    }

    /// Quantiles are monotone in q.
    #[test]
    fn histogram_quantiles_are_monotone(
        samples in prop::collection::vec(1e-7f64..50.0, 1..128),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        use amd_matrix_cores::trace::Histogram;
        let mut h = Histogram::latency_seconds();
        for &s in &samples {
            h.record(s);
        }
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(h.quantile(lo).unwrap() <= h.quantile(hi).unwrap());
    }

    /// Merging two histograms is exactly recording the concatenated
    /// stream: identical bucket counts, count, min/max, and a sum equal
    /// up to floating-point reassociation.
    #[test]
    fn histogram_merge_equals_concatenated_stream(
        a in prop::collection::vec(1e-7f64..50.0, 0..128),
        b in prop::collection::vec(1e-7f64..50.0, 0..128),
    ) {
        use amd_matrix_cores::trace::Histogram;
        let mut ha = Histogram::latency_seconds();
        let mut hb = Histogram::latency_seconds();
        let mut hc = Histogram::latency_seconds();
        for &s in &a {
            ha.record(s);
            hc.record(s);
        }
        for &s in &b {
            hb.record(s);
            hc.record(s);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.bucket_counts(), hc.bucket_counts());
        prop_assert_eq!(ha.count(), hc.count());
        prop_assert_eq!(ha.min(), hc.min());
        prop_assert_eq!(ha.max(), hc.max());
        let scale = ha.sum().abs().max(1.0);
        prop_assert!((ha.sum() - hc.sum()).abs() <= 1e-9 * scale);
        if !a.is_empty() || !b.is_empty() {
            for q in [0.5, 0.95, 0.99] {
                prop_assert_eq!(ha.quantile(q), hc.quantile(q));
            }
        }
    }
}
